//! Lint and match resolve labels the same way. For every unbound category
//! slot of every parsed corpus question, and of three seeded one-edit typos
//! of its head, the linter's verdict must be the executor's outcome:
//!
//! * a category diagnostic exactly when `matchVertex` comes back `NoMatch`,
//!   and an `Error` only then;
//! * the `query_cost` cardinality equal to `matchVertex`'s seed count;
//! * a predicate diagnostic exactly when no edge label of the merged graph
//!   clears the predicate filter's floor.
//!
//! Slots fed by a dependency edge are skipped: Algorithm 3 binds them to
//! the provider's answers instead of matching their text.

use svqa::executor::{MatchMethod, VertexMatcher};
use svqa::nlp::resolve::PREDICATE_FLOOR;
use svqa::nlp::Embedder;
use svqa::qlint::{codes, query_cost, LintReport, Severity, Slot};
use svqa::qparser::{Dependency, NounPhrase, QueryGraph};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

/// Deterministic splitmix64 stream for the typo positions and letters.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One random substitution, insertion or deletion of `word`, different
/// from it.
fn one_edit(word: &str, rng: &mut Rng) -> String {
    let chars: Vec<char> = word.chars().collect();
    loop {
        let letter = char::from(b'a' + rng.below(26) as u8);
        let mut typo = chars.clone();
        match rng.below(3) {
            0 => typo[rng.below(chars.len())] = letter,
            1 => typo.insert(rng.below(chars.len() + 1), letter),
            _ if chars.len() > 1 => {
                typo.remove(rng.below(chars.len()));
            }
            _ => continue,
        }
        if typo != chars {
            return typo.into_iter().collect();
        }
    }
}

fn is_bound(gq: &QueryGraph, v: usize, slot: Slot) -> bool {
    gq.in_edges(v).any(|e| {
        let subject = matches!(e.dependency, Dependency::S2S | Dependency::S2O);
        subject == (slot == Slot::Subject)
    })
}

/// The diagnostics the lint attached to one slot of quad `v`.
fn slot_findings(report: &LintReport, v: usize, slot: Slot, codes: &[&str]) -> Vec<Severity> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.vertex == Some(v) && d.slot == Some(slot) && codes.contains(&d.code.as_str()))
        .map(|d| d.severity)
        .collect()
}

#[derive(Default)]
struct Tally {
    slots: usize,
    no_match: usize,
    typos: usize,
    typo_no_match: usize,
    predicates: usize,
}

/// Check the category slot `slot` of quad `v` in `gq`.
fn check_category(system: &Svqa, gq: &QueryGraph, v: usize, slot: Slot, what: &str) -> bool {
    let spoc = &gq.vertices[v];
    let np = if slot == Slot::Subject {
        &spoc.subject
    } else {
        &spoc.object
    };
    let (seed, rung) = VertexMatcher::new(system.merged_graph()).match_vertex(&np.phrase, &np.head);
    let report = system.lint_graph(gq);
    let findings = slot_findings(
        &report,
        v,
        slot,
        &[codes::UNKNOWN_CATEGORY, codes::CATEGORY_NOT_IN_GRAPH],
    );
    let no_match = rung == MatchMethod::NoMatch;
    assert_eq!(
        !findings.is_empty(),
        no_match,
        "{what}: rung {rung}\n{}",
        report.render()
    );
    assert!(
        no_match || !findings.contains(&Severity::Error),
        "{what}: an Error for a slot the matcher binds\n{}",
        report.render()
    );
    let cost = query_cost(system.schema(), gq).quads[v];
    let card = if slot == Slot::Subject {
        cost.subject_card
    } else {
        cost.object_card
    };
    assert_eq!(
        card,
        seed.len(),
        "{what}: cost card vs seed count (rung {rung})"
    );
    no_match
}

fn check_world(images: usize, seed: u64) {
    let mvqa = Mvqa::generate_small(images, seed);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let embedder = Embedder::new();
    let edge_labels: Vec<&str> = system
        .merged_graph()
        .edge_label_counts()
        .map(|(l, _)| l)
        .collect();
    let mut rng = Rng(seed);
    let mut tally = Tally::default();
    for qa in &mvqa.questions {
        let q = qa.question.as_str();
        let Ok(gq) = system.parse(q) else { continue };
        if gq.execution_order().is_none() {
            continue;
        }
        let report = system.lint_graph(&gq);
        for (v, spoc) in gq.vertices.iter().enumerate() {
            let pred = spoc.predicate.as_str();
            let carried = pred.is_empty()
                || edge_labels
                    .iter()
                    .any(|l| embedder.similarity(pred, l) >= PREDICATE_FLOOR);
            let findings = slot_findings(
                &report,
                v,
                Slot::Predicate,
                &[codes::UNKNOWN_PREDICATE, codes::PREDICATE_NOT_IN_GRAPH],
            );
            assert_eq!(findings.is_empty(), carried, "{q} v{v} predicate {pred:?}");
            tally.predicates += 1;

            for slot in [Slot::Subject, Slot::Object] {
                let np = if slot == Slot::Subject {
                    &spoc.subject
                } else {
                    &spoc.object
                };
                if np.is_empty() || is_bound(&gq, v, slot) {
                    continue;
                }
                tally.slots += 1;
                let what = format!("{q} v{v} {}", slot.name());
                tally.no_match += usize::from(check_category(&system, &gq, v, slot, &what));
                for _ in 0..3 {
                    let typo = one_edit(&np.head, &mut rng);
                    let phrase = if np.phrase == np.head {
                        typo.clone()
                    } else {
                        np.phrase.replacen(&np.head, &typo, 1)
                    };
                    let mut typoed = gq.clone();
                    let target = &mut typoed.vertices[v];
                    let target = if slot == Slot::Subject {
                        &mut target.subject
                    } else {
                        &mut target.object
                    };
                    *target = NounPhrase { phrase, head: typo };
                    let what = format!("{what} typo {:?}", target.head);
                    tally.typos += 1;
                    tally.typo_no_match +=
                        usize::from(check_category(&system, &typoed, v, slot, &what));
                }
            }
        }
    }
    eprintln!(
        "{images} images, seed {seed:#x}: {} slots ({} unmatched), {} typos ({} unmatched), {} predicates",
        tally.slots, tally.no_match, tally.typos, tally.typo_no_match, tally.predicates
    );
    assert!(
        tally.slots >= 100,
        "only {} unbound category slots",
        tally.slots
    );
    // The typos must reach the lower rungs and the no-match verdict, or the
    // comparison never exercises the near-miss rules.
    assert!(tally.typo_no_match > 0, "no typo went unmatched");
}

#[test]
fn lint_and_match_agree_on_the_300_image_world() {
    check_world(300, 11);
}

#[test]
fn lint_and_match_agree_on_the_500_image_world() {
    check_world(500, 0x4d56_5141);
}

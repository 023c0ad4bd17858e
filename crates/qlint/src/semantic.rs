//! Pass 2: categories, predicates and constraints checked against the
//! schema. Category slots read the lint's `matchVertex` resolution and
//! predicates the executor's `maxScore` scorer, so an `Error` here really
//! means `matchVertex` / the predicate filter comes back empty.

use crate::diag::{codes, Diagnostic, Severity, Slot};
use crate::schema::Schema;
use crate::SlotResolutions;
use svqa_nlp::lev::levenshtein;
use svqa_nlp::resolve::{MatchMethod, PredicateScorer};
use svqa_nlp::vocab;
use svqa_qparser::{NounPhrase, QueryGraph};

pub(crate) fn check(
    schema: &Schema,
    gq: &QueryGraph,
    resolved: &SlotResolutions<'_>,
    out: &mut Vec<Diagnostic>,
) {
    for (v, (spoc, [subject, object])) in gq.vertices.iter().zip(resolved).enumerate() {
        for (slot, np, resolution) in [
            (Slot::Subject, &spoc.subject, subject),
            (Slot::Object, &spoc.object, object),
        ] {
            if matches!(resolution, Some(r) if r.rung == MatchMethod::NoMatch) {
                out.push(unmatched_category(schema, np).at_vertex(v).at_slot(slot));
            }
        }
        if let Some(d) = unmatched_predicate(schema, &spoc.predicate) {
            out.push(d.at_vertex(v).at_slot(Slot::Predicate));
        }
        if let Some(c) = &spoc.constraint {
            check_constraint(v, c, out);
        }
    }
}

/// The finding for a category slot `matchVertex` cannot bind: a warning
/// for a real word this world lacks or an unknown term, an error for a
/// probable typo.
fn unmatched_category(schema: &Schema, np: &NounPhrase) -> Diagnostic {
    let head = &np.head;
    if vocab::cluster_of(head).is_some() || vocab::cluster_of(&np.phrase).is_some() {
        // A real word, just not in this world: the executor will scan and
        // find nothing, which is a legitimate (if suspicious) empty match.
        return Diagnostic::new(
            codes::CATEGORY_NOT_IN_GRAPH,
            Severity::Warning,
            format!(
                "category \"{head}\" does not occur in the merged graph; \
                 this quad will match nothing"
            ),
        );
    }
    let mut candidates: Vec<&str> = schema.categories().map(|(l, _)| l).collect();
    for noun in vocab::known_nouns() {
        candidates.push(noun);
    }
    // A near-miss of a known label is a probable typo: hard Error, the
    // user meant something else. With no close neighbour the term is an
    // out-of-world entity (a proper noun from a missing knowledge graph,
    // say) — the executor degrades to an empty match, so only warn.
    match suggest(head, candidates) {
        Some(s) => Diagnostic::new(
            codes::UNKNOWN_CATEGORY,
            Severity::Error,
            format!(
                "category \"{head}\" is unknown to both the merged graph \
                 and the vocabulary: the matcher cannot bind it"
            ),
        )
        .with_suggestion(s),
        None => Diagnostic::new(
            codes::UNKNOWN_CATEGORY,
            Severity::Warning,
            format!(
                "category \"{head}\" is unknown and resembles no known \
                 label; this quad will match nothing"
            ),
        ),
    }
}

/// The finding for a predicate no edge label in the graph carries, i.e.
/// none clears the executor's `maxScore` floor (an exact label trivially
/// does).
fn unmatched_predicate(schema: &Schema, pred: &str) -> Option<Diagnostic> {
    if pred.is_empty() || schema.predicate_cardinality(pred) > 0 {
        return None;
    }
    let scorer = PredicateScorer::new(pred);
    if schema.predicates().any(|(label, _)| scorer.clears(label)) {
        return None;
    }
    if vocab::cluster_of(pred).is_some() {
        return Some(Diagnostic::new(
            codes::PREDICATE_NOT_IN_GRAPH,
            Severity::Warning,
            format!(
                "predicate \"{pred}\" has no sufficiently similar edge \
                 label in the merged graph; this quad will match nothing"
            ),
        ));
    }
    let mut candidates: Vec<&str> = schema.predicates().map(|(l, _)| l).collect();
    for verb in vocab::known_verb_forms() {
        candidates.push(verb);
    }
    // Same typo-vs-unknown split as categories: Error only with a
    // plausible "did you mean" target.
    Some(match suggest(pred, candidates) {
        Some(s) => Diagnostic::new(
            codes::UNKNOWN_PREDICATE,
            Severity::Error,
            format!(
                "predicate \"{pred}\" is unknown to both the merged graph's \
                 edge labels and the verb vocabulary: no relation can pass \
                 the similarity filter"
            ),
        )
        .with_suggestion(s),
        None => Diagnostic::new(
            codes::UNKNOWN_PREDICATE,
            Severity::Warning,
            format!(
                "predicate \"{pred}\" is unknown and resembles no known \
                 relation; this quad will match nothing"
            ),
        ),
    })
}

/// Constraints come from a closed vocabulary ("most frequently", "at
/// least", …); anything else is a hand-built string the executor's
/// constraint parser will ignore.
fn check_constraint(v: usize, constraint: &str, out: &mut Vec<Diagnostic>) {
    let c = constraint.trim().to_lowercase();
    let known = vocab::CONCEPT_CLUSTERS
        .iter()
        .filter(|cl| cl.parent == "constraint")
        .flat_map(|cl| cl.members.iter())
        .any(|form| c.contains(form));
    if !known {
        out.push(
            Diagnostic::new(
                codes::UNKNOWN_CONSTRAINT,
                Severity::Warning,
                format!("constraint \"{c}\" matches no known constraint form"),
            )
            .at_vertex(v)
            .at_slot(Slot::Constraint),
        );
    }
}

/// "Did you mean …?": the candidate at the smallest edit distance, then the
/// shortest, then the first in label order — so the same world always
/// suggests the same word. Accepted when it is a plausible near-miss:
/// distance ≤ 2, or at most 40% of the longer word's length.
fn suggest<'a>(word: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<String> {
    let (distance, _, candidate) = candidates
        .into_iter()
        .filter(|c| *c != word)
        .map(|c| (levenshtein(word, c), c.len(), c))
        .min()?;
    let longer = word.chars().count().max(candidate.chars().count());
    (distance <= 2 || 5 * distance <= 2 * longer).then(|| candidate.to_owned())
}

#[cfg(test)]
mod tests {
    use super::suggest;
    use crate::{codes, Linter, Schema};
    use svqa_graph::Graph;
    use svqa_qparser::{NounPhrase, QueryGraph, QuestionType, Spoc};

    #[test]
    fn suggest_picks_nearest_and_rejects_far_misses() {
        assert_eq!(suggest("dgo", ["dog", "cat", "car"]), Some("dog".into()));
        assert_eq!(
            suggest("weer", ["wearing", "wear", "on"]),
            Some("wear".into())
        );
        assert_eq!(suggest("xqzvv", ["dog", "cat"]), None);
    }

    #[test]
    fn did_you_mean_does_not_depend_on_the_schema_instance() {
        // "cax" is one edit from cap, car and cat: the tie breaks on the
        // label, not on the iteration order of each schema's own hash map.
        let mut g = Graph::new();
        for label in ["dog", "car", "cat", "cap", "man"] {
            g.add_vertex(label);
        }
        let gq = QueryGraph {
            vertices: vec![Spoc {
                subject: NounPhrase::simple("dog"),
                predicate: "in".into(),
                object: NounPhrase::simple("cax"),
                ..Spoc::default()
            }],
            edges: vec![],
            question_type: QuestionType::Judgment,
            question: "test".into(),
        };
        for _ in 0..50 {
            let report = Linter::new(Schema::extract(&g)).lint(&gq);
            let d = report
                .diagnostics
                .iter()
                .find(|d| d.code == codes::UNKNOWN_CATEGORY)
                .expect("unknown-category diagnostic");
            assert_eq!(d.suggestion.as_deref(), Some("cap"), "{}", report.render());
        }
    }
}

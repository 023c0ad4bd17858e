//! Complex question generation (§VI-B "Generating Question-Answer Pairs").
//!
//! The paper's three-step authoring process — (1) write questions spanning
//! multiple objects, (2) reject questions answerable from a single image,
//! (3) label answers with three annotators — is mirrored programmatically:
//! candidate questions are instantiated from the realized scene statistics,
//! evaluated against the [`crate::groundtruth`] oracle (the "annotator"),
//! and accepted only when the answer is stable and the question genuinely
//! requires cross-image evidence.

use crate::groundtruth::{ChainClause, ChainLink, GroundTruth, GtAnswer, Side};
use crate::kg::{CATEGORY_CLASSES, CHARACTER_RELATIONS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use svqa_graph::Graph;
use svqa_qparser::QuestionType;
use svqa_vision::scene::SyntheticImage;

/// A generated question with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QaPair {
    /// The natural-language question.
    pub question: String,
    /// Question type.
    pub qtype: QuestionType,
    /// Ground-truth answer.
    pub answer: GtAnswer,
    /// Number of clauses (query-graph vertices).
    pub clauses: usize,
    /// The SPO keys of the clauses (`sub|pred|obj`), for Table II's
    /// unique-SPO statistic.
    pub spo_keys: Vec<String>,
    /// Images containing any involved category — Table II's "Average
    /// Images" scan-set size.
    pub images_needed: usize,
    /// Whether a category word was swapped for a rare synonym after
    /// generation ("dog" → "canis") — the lexical adversity behind the
    /// paper's Fig. 8a error analysis. The ground truth is unchanged; the
    /// system must survive the rare surface form.
    pub adversarial: bool,
}

/// The structured form a question was generated from (kept for debugging
/// and for the ground-truth re-evaluation tests).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuestionSpec {
    /// Surface text.
    pub text: String,
    /// Question type.
    pub qtype: QuestionType,
    /// Clause chain (clause 0 = answer clause).
    pub chain: Vec<ChainClause>,
    /// Chain links.
    pub links: Vec<ChainLink>,
    /// Answer side of clause 0.
    pub answer_side: Side,
}

/// How many questions of each type to generate (Table II's composition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuestionCounts {
    /// Judgment questions (paper: 40).
    pub judgment: usize,
    /// Counting questions (paper: 16).
    pub counting: usize,
    /// Reasoning questions (paper: 44).
    pub reasoning: usize,
}

impl Default for QuestionCounts {
    fn default() -> Self {
        QuestionCounts {
            judgment: 40,
            counting: 16,
            reasoning: 44,
        }
    }
}

/// Predicates usable in "appear ..." clauses (spatial).
pub(crate) const SPATIAL: &[&str] = &["near", "in front of", "behind", "under", "in", "on"];

/// Predicates with an irregular passive participle.
fn passive_form(pred: &str) -> Option<&'static str> {
    match pred {
        "carrying" => Some("carried"),
        "holding" => Some("held"),
        "wearing" => Some("worn"),
        "watching" => Some("watched"),
        _ => None,
    }
}

/// Finite do-support form ("does the dog CARRY the bird").
fn base_form(pred: &str) -> Option<&'static str> {
    match pred {
        "carrying" => Some("carry"),
        "holding" => Some("hold"),
        "wearing" => Some("wear"),
        "watching" => Some("watch"),
        "riding" => Some("ride"),
        "sitting on" => Some("sit on"),
        "standing on" => Some("stand on"),
        _ => None,
    }
}

/// Class noun of a category (None when the category *is* a class noun or
/// unknown).
pub(crate) fn class_of(category: &str) -> Option<&'static str> {
    CATEGORY_CLASSES
        .iter()
        .find(|(c, _)| *c == category)
        .map(|&(_, class)| class)
}

/// Naive plural (matches the tagger's morphology).
pub(crate) fn plural(noun: &str) -> String {
    match noun {
        "sheep" | "clothes" => return noun.to_owned(),
        "child" => return "children".to_owned(),
        "man" => return "men".to_owned(),
        "woman" => return "women".to_owned(),
        "person" => return "people".to_owned(),
        _ => {}
    }
    if noun.ends_with('s') || noun.ends_with('x') || noun.ends_with("ch") || noun.ends_with("sh") {
        format!("{noun}es")
    } else if noun.ends_with('y')
        && !noun.ends_with("ay")
        && !noun.ends_with("ey")
        && !noun.ends_with("oy")
    {
        format!("{}ies", &noun[..noun.len() - 1])
    } else {
        format!("{noun}s")
    }
}

/// A plain clause (no "most frequently" constraint).
pub(crate) fn clause(sub: &str, pred: &str, obj: &str) -> ChainClause {
    ChainClause {
        sub: sub.to_owned(),
        pred: pred.to_owned(),
        obj: obj.to_owned(),
        most_frequent: false,
    }
}

/// A link feeding clause `provider`'s subject into `consumer_side` of
/// clause 0 — the shape of every generated relative clause.
pub(crate) fn subject_feeds(provider: usize, consumer_side: Side) -> ChainLink {
    ChainLink {
        provider,
        consumer: 0,
        consumer_side,
        provider_side: Side::Sub,
    }
}

/// Category-level triple statistics of the generated scenes — the census
/// both corpora author their candidates from.
pub(crate) struct TripleStats {
    /// `(sub category, pred, obj category)` → count, anonymous objects only.
    counts: HashMap<(String, String, String), usize>,
    /// Categories appearing on either side of a counted triple.
    pub(crate) categories: BTreeSet<String>,
    /// Categories appearing as the subject of a counted triple.
    pub(crate) subjects: BTreeSet<String>,
}

impl TripleStats {
    pub(crate) fn collect(images: &[SyntheticImage]) -> Self {
        let mut counts: HashMap<(String, String, String), usize> = HashMap::new();
        let mut categories = BTreeSet::new();
        let mut subjects = BTreeSet::new();
        for img in images {
            for rel in &img.relations {
                if rel.emergent {
                    continue; // questions are authored from intended scenes
                }
                let s = &img.objects[rel.sub];
                let o = &img.objects[rel.obj];
                if s.entity.is_some() || o.entity.is_some() {
                    continue;
                }
                *counts
                    .entry((s.category.clone(), rel.pred.clone(), o.category.clone()))
                    .or_insert(0) += 1;
                categories.insert(s.category.clone());
                categories.insert(o.category.clone());
                subjects.insert(s.category.clone());
            }
        }
        TripleStats {
            counts,
            categories,
            subjects,
        }
    }

    /// Triples with count ≥ `min`, sorted descending by count (then key),
    /// for deterministic iteration.
    pub(crate) fn frequent(&self, min: usize) -> Vec<(&(String, String, String), usize)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= min)
            .map(|(k, &c)| (k, c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    pub(crate) fn count(&self, s: &str, p: &str, o: &str) -> usize {
        self.counts
            .get(&(s.to_owned(), p.to_owned(), o.to_owned()))
            .copied()
            .unwrap_or(0)
    }
}

/// The accept step both generators share: a candidate whose answer passed
/// its template's check joins the corpus unless its text is already there.
pub(crate) struct Corpus<'g> {
    gt: &'g GroundTruth<'g>,
    seen: HashSet<String>,
    pairs: Vec<QaPair>,
    specs: Vec<QuestionSpec>,
}

impl<'g> Corpus<'g> {
    pub(crate) fn new(gt: &'g GroundTruth<'g>) -> Self {
        Corpus {
            gt,
            seen: HashSet::new(),
            pairs: Vec::new(),
            specs: Vec::new(),
        }
    }

    /// Record `spec` with the `answer` its acceptance check computed;
    /// `false` when a question with the same text is already in.
    pub(crate) fn accept(&mut self, spec: QuestionSpec, answer: GtAnswer) -> bool {
        if !self.seen.insert(spec.text.clone()) {
            return false;
        }
        let heads: Vec<&str> = spec
            .chain
            .iter()
            .flat_map(|c| [c.sub.as_str(), c.obj.as_str()])
            .collect();
        self.pairs.push(QaPair {
            question: spec.text.clone(),
            qtype: spec.qtype,
            answer,
            clauses: spec.chain.len(),
            spo_keys: spec
                .chain
                .iter()
                .map(|c| format!("{}|{}|{}", c.sub, c.pred, c.obj))
                .collect(),
            images_needed: self.gt.images_involved(&heads),
            adversarial: false,
        });
        self.specs.push(spec);
        true
    }

    pub(crate) fn into_parts(self) -> (Vec<QaPair>, Vec<QuestionSpec>) {
        (self.pairs, self.specs)
    }
}

/// Generate the full question set.
pub fn generate_questions(
    images: &[SyntheticImage],
    kg: &Graph,
    seed: u64,
    counts: QuestionCounts,
) -> (Vec<QaPair>, Vec<QuestionSpec>) {
    let gt = GroundTruth::new(images, kg);
    let stats = TripleStats::collect(images);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new(&gt);

    // ---------- Judgment: 26 two-clause + 14 three-clause ----------
    let two_clause_target = counts.judgment.saturating_mul(26) / 40;
    let mut made = 0usize;
    let freq = stats.frequent(3);
    let mut want_yes = true;
    'outer_j2: for (k1, _) in &freq {
        if made >= two_clause_target {
            break;
        }
        let (a, p1, b) = (&k1.0, &k1.1, &k1.2);
        if svqa_vision::scene::supertype(a) == "scenery" {
            continue; // "how many grasses…" — mass scenery is not a subject
        }
        // A second predicate for the main clause, realizable.
        for (k2, _) in &freq {
            if &k2.0 != a || k2 == k1 {
                continue;
            }
            let (p2, c) = (&k2.1, &k2.2);
            if !SPATIAL.contains(&p2.as_str()) && base_form(p2).is_none() {
                continue;
            }
            // For "no" questions, swap C for a category never in that
            // relation with A.
            let (obj_c, expected_yes) = if want_yes {
                (c.clone(), true)
            } else {
                let mut cats: Vec<&String> = stats.categories.iter().collect();
                cats.shuffle(&mut rng);
                match cats.into_iter().find(|cc| {
                    *cc != c && stats.count(a, p2, cc) == 0 && stats.count(a, p1, cc) == 0
                }) {
                    Some(cc) => (cc.clone(), false),
                    None => continue,
                }
            };
            let main_text = if SPATIAL.contains(&p2.as_str()) {
                format!("appear {p2} the {obj_c}")
            } else {
                format!("{} the {obj_c}", base_form(p2).expect("checked"))
            };
            let text = format!("Does the {a} that is {p1} the {b} {main_text}?");
            let spec = QuestionSpec {
                text,
                qtype: QuestionType::Judgment,
                chain: vec![clause(a, p2, &obj_c), clause(a, p1, b)],
                links: vec![subject_feeds(1, Side::Sub)],
                answer_side: Side::Sub,
            };
            let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
            if answer != GtAnswer::YesNo(expected_yes) {
                continue;
            }
            if corpus.accept(spec, answer) {
                made += 1;
                want_yes = !want_yes;
            }
            if made >= two_clause_target {
                break 'outer_j2;
            }
        }
    }
    // Three-clause judgments: add a relative clause on C.
    let three_clause_target = counts.judgment - made;
    let mut made3 = 0usize;
    'outer_j3: for (k1, _) in &freq {
        if made3 >= three_clause_target {
            break;
        }
        let (a, p1, b) = (&k1.0, &k1.1, &k1.2);
        if svqa_vision::scene::supertype(a) == "scenery" {
            continue; // "how many grasses…" — mass scenery is not a subject
        }
        for (k2, _) in &freq {
            if &k2.0 != a || k2 == k1 || !SPATIAL.contains(&k2.1.as_str()) {
                continue;
            }
            let (p2, c) = (&k2.1, &k2.2);
            for (k3, _) in &freq {
                if &k3.0 != c || (&k3.1, &k3.2) == (p2, a) {
                    continue;
                }
                let (p3, d) = (&k3.1, &k3.2);
                let text = format!(
                    "Does the {a} that is {p1} the {b} appear {p2} the {c} that is {p3} the {d}?"
                );
                let spec = QuestionSpec {
                    text,
                    qtype: QuestionType::Judgment,
                    chain: vec![clause(a, p2, c), clause(a, p1, b), clause(c, p3, d)],
                    links: vec![subject_feeds(1, Side::Sub), subject_feeds(2, Side::Obj)],
                    answer_side: Side::Sub,
                };
                let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
                if corpus.accept(spec, answer) {
                    made3 += 1;
                }
                if made3 >= three_clause_target {
                    break 'outer_j3;
                }
            }
        }
    }

    // ---------- Counting: 13 two-clause + 3 three-clause ----------
    // Each *answer triple* (the clause actually counted) is used at most
    // once, so one perception weakness cannot repeat across the whole
    // counting score.
    let c2_target = counts.counting.saturating_mul(13) / 16;
    let mut cmade = 0usize;
    let mut counted_triples: HashSet<(String, String, String)> = HashSet::new();
    // Escalating count cap: prefer small, exactly-countable answers; widen
    // only if the corpus cannot fill the quota with them.
    'caps_c2: for count_cap in [5usize, 9, 15] {
        'outer_c2: for (k1, n1) in &freq {
            if cmade >= c2_target {
                break 'caps_c2;
            }
            let (a, p1, b) = (&k1.0, &k1.1, &k1.2);
            if svqa_vision::scene::supertype(a) == "scenery" {
                continue; // "how many grasses…" — mass scenery is not a subject
            }
            if *n1 < 2 {
                continue;
            }
            for (k2, _) in &freq {
                if &k2.0 != a || k2 == k1 || !SPATIAL.contains(&k2.1.as_str()) {
                    continue;
                }
                let (p2, c) = (&k2.1, &k2.2);
                if counted_triples.contains(&(a.clone(), p2.clone(), c.clone())) {
                    continue;
                }
                let text = format!(
                    "How many {} that are {p1} the {b} are {p2} the {c}?",
                    plural(a)
                );
                let spec = QuestionSpec {
                    text,
                    qtype: QuestionType::Counting,
                    chain: vec![clause(a, p2, c), clause(a, p1, b)],
                    links: vec![subject_feeds(1, Side::Sub)],
                    answer_side: Side::Sub,
                };
                let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
                if !matches!(answer, GtAnswer::Count(n) if n >= 1 && n <= count_cap) {
                    continue;
                }
                if corpus.accept(spec, answer) {
                    cmade += 1;
                    counted_triples.insert((a.clone(), p2.clone(), c.clone()));
                }
                if cmade >= c2_target {
                    break 'outer_c2;
                }
            }
        }
    }
    // Three-clause counting.
    let c3_target = counts.counting - cmade;
    let mut c3made = 0usize;
    'caps_c3: for count_cap in [5usize, 9, 15] {
        'outer_c3: for (k1, _) in &freq {
            if c3made >= c3_target {
                break 'caps_c3;
            }
            let (a, p1, b) = (&k1.0, &k1.1, &k1.2);
            if svqa_vision::scene::supertype(a) == "scenery" {
                continue; // "how many grasses…" — mass scenery is not a subject
            }
            for (k2, _) in &freq {
                if &k2.0 != a || k2 == k1 || !SPATIAL.contains(&k2.1.as_str()) {
                    continue;
                }
                let (p2, c) = (&k2.1, &k2.2);
                if counted_triples.contains(&(a.clone(), p2.clone(), c.clone())) {
                    continue;
                }
                for (k3, _) in &freq {
                    if &k3.0 != c {
                        continue;
                    }
                    let (p3, d) = (&k3.1, &k3.2);
                    let text = format!(
                        "How many {} that are {p1} the {b} are {p2} the {c} that is {p3} the {d}?",
                        plural(a)
                    );
                    let spec = QuestionSpec {
                        text,
                        qtype: QuestionType::Counting,
                        chain: vec![clause(a, p2, c), clause(a, p1, b), clause(c, p3, d)],
                        links: vec![subject_feeds(1, Side::Sub), subject_feeds(2, Side::Obj)],
                        answer_side: Side::Sub,
                    };
                    let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
                    if !matches!(answer, GtAnswer::Count(n) if n >= 1 && n <= count_cap) {
                        continue;
                    }
                    if corpus.accept(spec, answer) {
                        c3made += 1;
                        counted_triples.insert((a.clone(), p2.clone(), c.clone()));
                    }
                    if c3made >= c3_target {
                        break 'outer_c3;
                    }
                }
            }
        }
    }

    // ---------- Reasoning: 42 two-clause + 2 character questions ----------
    // Character questions first (the paper's flagship Example 1 pattern).
    let mut rmade = 0usize;
    let character_target = 2usize.min(counts.reasoning);
    for &(_, relation, owner) in CHARACTER_RELATIONS {
        if rmade >= character_target {
            break;
        }
        if !matches!(relation, "girlfriend of" | "boyfriend of") {
            continue;
        }
        let rel_noun = relation.trim_end_matches(" of");
        let text = format!(
            "What kind of clothes are worn by the wizard who is most frequently hanging out with {owner}'s {rel_noun}?"
        );
        let spec = QuestionSpec {
            text,
            qtype: QuestionType::Reasoning,
            chain: vec![
                clause("wizard", "wearing", "clothes"),
                ChainClause {
                    most_frequent: true,
                    ..clause("wizard", "near", "")
                },
                clause("", relation, owner),
            ],
            links: vec![
                ChainLink {
                    provider: 2,
                    consumer: 1,
                    consumer_side: Side::Obj,
                    provider_side: Side::Sub,
                },
                subject_feeds(1, Side::Sub),
            ],
            answer_side: Side::Obj,
        };
        let Some(answer) = gt.stable_reasoning_answer(&spec.chain, &spec.links, spec.answer_side)
        else {
            continue;
        };
        if corpus.accept(spec, answer) {
            rmade += 1;
        }
    }
    // Two-clause reasoning: passive object questions and subject questions.
    'outer_r: for (k1, _) in &freq {
        if rmade >= counts.reasoning {
            break;
        }
        let (a, p1, o) = (&k1.0, &k1.1, &k1.2);
        if svqa_vision::scene::supertype(a) == "scenery" {
            continue;
        }
        // Object-answer form (needs a passive-formable predicate and a
        // class for the object).
        if let (Some(pass), Some(o_class)) = (passive_form(p1), class_of(o)) {
            for (k2, _) in &freq {
                if &k2.0 != a || k2 == k1 {
                    continue;
                }
                let (p2, b) = (&k2.1, &k2.2);
                // Generalize the subject to its class half the time for
                // variety ("the pets" vs "the dog").
                let (sub_text, sub_head) = if rmade.is_multiple_of(2) {
                    match class_of(a) {
                        Some(cl) => (format!("the {}", plural(cl)), cl),
                        None => (format!("the {a}"), a.as_str()),
                    }
                } else {
                    (format!("the {a}"), a.as_str())
                };
                let text = format!(
                    "What kind of {} is {pass} by {sub_text} that is {p2} the {b}?",
                    plural(o_class)
                );
                let spec = QuestionSpec {
                    text,
                    qtype: QuestionType::Reasoning,
                    chain: vec![clause(sub_head, p1, o_class), clause(sub_head, p2, b)],
                    links: vec![subject_feeds(1, Side::Sub)],
                    answer_side: Side::Obj,
                };
                let Some(answer) =
                    gt.stable_reasoning_answer(&spec.chain, &spec.links, spec.answer_side)
                else {
                    continue;
                };
                if corpus.accept(spec, answer) {
                    rmade += 1;
                }
                if rmade >= counts.reasoning {
                    break 'outer_r;
                }
            }
        }
        // Subject-answer form: "What kind of <class(A)>s are <p1> the <B>
        // that is <p2> the <C>?"
        if let Some(a_class) = class_of(a) {
            if SPATIAL.contains(&p1.as_str()) || p1 == "watching" || p1 == "sitting on" {
                for (k2, _) in &freq {
                    if &k2.0 != o || k2 == k1 {
                        continue;
                    }
                    let (p2, c) = (&k2.1, &k2.2);
                    let text = format!(
                        "What kind of {} are {p1} the {o} that is {p2} the {c}?",
                        plural(a_class)
                    );
                    let spec = QuestionSpec {
                        text,
                        qtype: QuestionType::Reasoning,
                        chain: vec![clause(a_class, p1, o), clause(o, p2, c)],
                        links: vec![subject_feeds(1, Side::Obj)],
                        answer_side: Side::Sub,
                    };
                    let Some(answer) =
                        gt.stable_reasoning_answer(&spec.chain, &spec.links, spec.answer_side)
                    else {
                        continue;
                    };
                    if corpus.accept(spec, answer) {
                        rmade += 1;
                    }
                    if rmade >= counts.reasoning {
                        break 'outer_r;
                    }
                }
            }
        }
    }

    let (mut pairs, mut specs) = corpus.into_parts();
    apply_lexical_adversity(&mut pairs, &mut specs);
    (pairs, specs)
}

/// Rare-synonym swaps applied to every 7th question (§VII error analysis:
/// the paper's handwritten questions contain words like "canis" that the
/// POS tagger treats as foreign). Most synonyms survive through the
/// embedding fallback; Latinate ones reproduce the Fig. 8a failure.
const SYNONYM_SWAPS: &[(&str, &str)] = &[
    ("dog", "canis"),
    ("cat", "feline"),
    ("car", "automobile"),
    ("couch", "sofa"),
    ("motorcycle", "motorbike"),
    ("airplane", "plane"),
    ("tv", "television"),
    ("bicycle", "bike"),
    ("frisbee", "disc"),
    ("boat", "ship"),
];

fn apply_lexical_adversity(pairs: &mut [QaPair], specs: &mut [QuestionSpec]) {
    for (i, (pair, spec)) in pairs.iter_mut().zip(specs.iter_mut()).enumerate() {
        if i % 7 != 3 {
            continue;
        }
        for &(orig, syn) in SYNONYM_SWAPS {
            let needle = format!(" {orig} ");
            if let Some(pos) = pair.question.find(&needle) {
                pair.question
                    .replace_range(pos + 1..pos + 1 + orig.len(), syn);
                spec.text = pair.question.clone();
                pair.adversarial = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::build_knowledge_graph;
    use crate::scenes::generate_images;

    fn small_dataset() -> (Vec<SyntheticImage>, Graph) {
        (generate_images(1200, 2024), build_knowledge_graph())
    }

    #[test]
    fn generates_the_requested_composition() {
        let (images, kg) = small_dataset();
        let (pairs, specs) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        assert_eq!(pairs.len(), 100, "generated {}", pairs.len());
        assert_eq!(specs.len(), 100);
        let j = pairs
            .iter()
            .filter(|p| p.qtype == QuestionType::Judgment)
            .count();
        let c = pairs
            .iter()
            .filter(|p| p.qtype == QuestionType::Counting)
            .count();
        let r = pairs
            .iter()
            .filter(|p| p.qtype == QuestionType::Reasoning)
            .count();
        assert_eq!((j, c, r), (40, 16, 44));
    }

    #[test]
    fn judgment_answers_are_mixed() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        let yes = pairs
            .iter()
            .filter(|p| p.answer == GtAnswer::YesNo(true))
            .count();
        let no = pairs
            .iter()
            .filter(|p| p.answer == GtAnswer::YesNo(false))
            .count();
        assert!(yes >= 5, "yes = {yes}");
        assert!(no >= 5, "no = {no}");
    }

    #[test]
    fn every_question_parses_into_the_expected_clause_count() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        let gen = svqa_qparser::QueryGraphGenerator::new();
        // Adversarial questions (rare-synonym swaps) are *allowed* to trip
        // the parser — that is the Fig. 8a failure mode they exist for.
        for p in pairs.iter().filter(|p| !p.adversarial) {
            let gq = gen
                .generate(&p.question)
                .unwrap_or_else(|e| panic!("{:?} failed: {e}", p.question));
            assert_eq!(
                gq.question_type, p.qtype,
                "type mismatch for {:?}",
                p.question
            );
            assert_eq!(
                gq.len(),
                p.clauses,
                "clause mismatch for {:?}: {:#?}",
                p.question,
                gq.vertices
            );
        }
    }

    #[test]
    fn questions_are_deterministic_per_seed() {
        let (images, kg) = small_dataset();
        let (a, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        let (b, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        assert_eq!(a, b);
    }

    #[test]
    fn counting_answers_are_positive() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        for p in pairs.iter().filter(|p| p.qtype == QuestionType::Counting) {
            assert!(matches!(p.answer, GtAnswer::Count(n) if n >= 1));
        }
    }

    #[test]
    fn reasoning_answers_are_non_empty() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        for p in pairs.iter().filter(|p| p.qtype == QuestionType::Reasoning) {
            assert!(matches!(&p.answer, GtAnswer::Entity(e) if !e.is_empty()));
        }
    }

    #[test]
    fn character_questions_present() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        let hp = pairs
            .iter()
            .filter(|p| p.question.contains("most frequently hanging out"))
            .count();
        assert!(hp >= 1, "no character questions generated");
    }

    #[test]
    fn clause_totals_match_table2() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        let total: usize = pairs.iter().map(|p| p.clauses).sum();
        // Table II: 219 clauses over 100 questions (avg 2.2), from a target
        // mix of 26×2+14×3 + 13×2+3×3 + 42×2+2×3 = 94+35+90 = 219. A
        // three-clause slot degrades to two clauses when the sampled scenes
        // lack a qualifying relation chain, and scene content follows the
        // RNG stream, so we assert the mix lands near the target rather
        // than on an exact stream-dependent constant.
        assert!(
            (213..=225).contains(&total),
            "clause total {total} strays from the Table II target of 219"
        );
    }

    #[test]
    fn images_needed_is_populated() {
        let (images, kg) = small_dataset();
        let (pairs, _) = generate_questions(&images, &kg, 7, QuestionCounts::default());
        assert!(pairs.iter().all(|p| p.images_needed > 0));
    }
}

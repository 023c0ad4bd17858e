//! The "modified VQAv2" of Exp-2 (§VII).
//!
//! The paper adapts VQAv2 so baselines can be compared on multi-image
//! reasoning: "1) applying count questions to multiple images and asking
//! the accumulated results of these questions; 2) combining two related
//! simple questions into a complex question". Questions here are therefore
//! simpler than MVQA's (one or two clauses), but still require scanning
//! every image.

use crate::groundtruth::{GroundTruth, GtAnswer, Side};
use crate::kg::build_knowledge_graph;
use crate::questions::{
    class_of, clause, plural, subject_feeds, Corpus, QaPair, QuestionSpec, TripleStats, SPATIAL,
};
use crate::scenes::generate_images;
use serde::{Deserialize, Serialize};
use svqa_graph::Graph;
use svqa_qparser::QuestionType;
use svqa_vision::scene::SyntheticImage;

/// Configuration of the modified-VQAv2 build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VqaV2Config {
    /// Number of images.
    pub image_count: usize,
    /// Questions per type (judgment, counting, reasoning).
    pub per_type: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for VqaV2Config {
    fn default() -> Self {
        VqaV2Config {
            image_count: 1200,
            per_type: 20,
            seed: 0x5651_4132, // "VQA2"
        }
    }
}

/// The modified-VQAv2 dataset (same shape as MVQA).
#[derive(Debug)]
pub struct VqaV2 {
    /// Images.
    pub images: Vec<SyntheticImage>,
    /// Knowledge graph (shared with MVQA).
    pub kg: Graph,
    /// QA pairs.
    pub questions: Vec<QaPair>,
    /// Structured specs.
    pub specs: Vec<QuestionSpec>,
}

/// Generate the modified VQAv2.
pub fn generate_vqav2(config: VqaV2Config) -> VqaV2 {
    let images = generate_images(config.image_count, config.seed);
    let kg = build_knowledge_graph();
    let gt = GroundTruth::new(&images, &kg);
    let stats = TripleStats::collect(&images);
    let frequent = stats.frequent(1);
    let mut corpus = Corpus::new(&gt);

    // Accumulated counting over multiple images (modification 1).
    let mut made = 0usize;
    for (k, n) in &frequent {
        if made >= config.per_type {
            break;
        }
        if *n < 2 {
            continue;
        }
        let (a, p, b) = (&k.0, &k.1, &k.2);
        if svqa_vision::scene::supertype(a) == "scenery" {
            continue;
        }
        let text = format!("How many {} are {p} the {b}?", plural(a));
        let spec = QuestionSpec {
            text,
            qtype: QuestionType::Counting,
            chain: vec![clause(a, p, b)],
            links: vec![],
            answer_side: Side::Sub,
        };
        // Accumulated counts stay small enough to be exactly countable
        // under perception noise (the paper's counting questions behave
        // the same way).
        let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
        if !matches!(answer, GtAnswer::Count(n) if (1..=6).contains(&n)) {
            continue;
        }
        if corpus.accept(spec, answer) {
            made += 1;
        }
    }

    // Combined two-clause judgment questions (modification 2), alternating
    // yes/no.
    let mut made = 0usize;
    let mut want_yes = true;
    'outer: for (k1, _) in &frequent {
        if made >= config.per_type {
            break;
        }
        let (a, p1, b) = (&k1.0, &k1.1, &k1.2);
        for (k2, _) in &frequent {
            if &k2.0 != a || k2 == k1 {
                continue;
            }
            let (p2, c) = (&k2.1, &k2.2);
            if !SPATIAL.contains(&p2.as_str()) {
                continue;
            }
            let (obj, expected) = if want_yes {
                (c.clone(), true)
            } else {
                // A subject category never in that relation with A (sorted
                // scan for determinism).
                match stats.subjects.iter().find(|cc| {
                    stats.count(cc, p2, a) == 0 && stats.count(a, p2, cc) == 0 && *cc != c
                }) {
                    Some(cc) => (cc.clone(), false),
                    None => continue,
                }
            };
            // Alternate the paper's two combination styles: a relative
            // clause, or an explicit conjunction of two simple questions.
            let conjunction_form = made % 3 == 2;
            let spec = if conjunction_form && SPATIAL.contains(&p1.as_str()) {
                QuestionSpec {
                    text: format!(
                        "Does the {a} appear {p1} the {b} and does the {a} appear {p2} the {obj}?"
                    ),
                    qtype: QuestionType::Judgment,
                    chain: vec![clause(a, p1, b), clause(a, p2, &obj)],
                    links: vec![],
                    answer_side: Side::Sub,
                }
            } else {
                QuestionSpec {
                    text: format!("Does the {a} that is {p1} the {b} appear {p2} the {obj}?"),
                    qtype: QuestionType::Judgment,
                    chain: vec![clause(a, p2, &obj), clause(a, p1, b)],
                    links: vec![subject_feeds(1, Side::Sub)],
                    answer_side: Side::Sub,
                }
            };
            let answer = gt.eval(&spec.chain, &spec.links, spec.qtype, spec.answer_side);
            if answer != GtAnswer::YesNo(expected) {
                continue;
            }
            if corpus.accept(spec, answer) {
                made += 1;
                want_yes = !want_yes;
            }
            if made >= config.per_type {
                break 'outer;
            }
        }
    }

    // Reasoning: subject-class questions over one clause.
    let mut made = 0usize;
    for (k, _) in &frequent {
        if made >= config.per_type {
            break;
        }
        let (a, p, b) = (&k.0, &k.1, &k.2);
        let Some(class) = class_of(a) else {
            continue;
        };
        let text = format!("What kind of {} are {p} the {b}?", plural(class));
        let spec = QuestionSpec {
            text,
            qtype: QuestionType::Reasoning,
            chain: vec![clause(class, p, b)],
            links: vec![],
            answer_side: Side::Sub,
        };
        let Some(answer) = gt.stable_reasoning_answer(&spec.chain, &spec.links, spec.answer_side)
        else {
            continue;
        };
        if corpus.accept(spec, answer) {
            made += 1;
        }
    }

    let (questions, specs) = corpus.into_parts();
    VqaV2 {
        images,
        kg,
        questions,
        specs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VqaV2 {
        generate_vqav2(VqaV2Config {
            image_count: 600,
            per_type: 10,
            seed: 3,
        })
    }

    #[test]
    fn generates_all_three_types() {
        let v = small();
        let count = |t: QuestionType| v.questions.iter().filter(|q| q.qtype == t).count();
        assert_eq!(count(QuestionType::Counting), 10);
        assert_eq!(count(QuestionType::Judgment), 10);
        assert!(count(QuestionType::Reasoning) >= 5);
    }

    #[test]
    fn questions_are_simpler_than_mvqa() {
        let v = small();
        assert!(v.questions.iter().all(|q| q.clauses <= 2));
    }

    #[test]
    fn every_question_parses() {
        let v = small();
        let gen = svqa_qparser::QueryGraphGenerator::new();
        for q in &v.questions {
            let gq = gen
                .generate(&q.question)
                .unwrap_or_else(|e| panic!("{:?}: {e}", q.question));
            assert_eq!(gq.question_type, q.qtype, "{:?}", q.question);
        }
    }

    #[test]
    fn judgment_mix_has_yes_and_no() {
        let v = small();
        let yes = v
            .questions
            .iter()
            .filter(|q| q.answer == GtAnswer::YesNo(true))
            .count();
        let no = v
            .questions
            .iter()
            .filter(|q| q.answer == GtAnswer::YesNo(false))
            .count();
        assert!(yes >= 3 && no >= 3, "yes={yes} no={no}");
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.questions, b.questions);
    }
}

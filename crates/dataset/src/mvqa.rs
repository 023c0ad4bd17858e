//! The assembled MVQA dataset and its statistics (Tables I–II).

use crate::groundtruth::GtAnswer;
use crate::kg::build_knowledge_graph;
use crate::questions::{generate_questions, QaPair, QuestionCounts, QuestionSpec};
use crate::scenes::generate_images;
use serde::{Deserialize, Serialize};
use svqa_graph::Graph;
use svqa_qparser::QuestionType;
use svqa_vision::scene::SyntheticImage;

/// Configuration of the dataset build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvqaConfig {
    /// Number of images (paper: 4,233).
    pub image_count: usize,
    /// Master seed.
    pub seed: u64,
    /// Question composition (paper: 40/16/44).
    pub counts: QuestionCounts,
}

impl Default for MvqaConfig {
    fn default() -> Self {
        MvqaConfig {
            image_count: 4233,
            seed: 0x4d56_5141, // "MVQA"
            counts: QuestionCounts::default(),
        }
    }
}

/// The MVQA dataset.
#[derive(Debug)]
pub struct Mvqa {
    /// The synthetic images.
    pub images: Vec<SyntheticImage>,
    /// The external knowledge graph.
    pub kg: Graph,
    /// The complex QA pairs.
    pub questions: Vec<QaPair>,
    /// Structured question specs (for ground-truth re-evaluation).
    pub specs: Vec<QuestionSpec>,
    /// The configuration used.
    pub config: MvqaConfig,
}

impl Mvqa {
    /// Generate the dataset.
    pub fn generate(config: MvqaConfig) -> Self {
        let images = generate_images(config.image_count, config.seed);
        let kg = build_knowledge_graph();
        let (questions, specs) =
            generate_questions(&images, &kg, config.seed ^ 0x51, config.counts);
        Mvqa {
            images,
            kg,
            questions,
            specs,
            config,
        }
    }

    /// A small dataset for tests and fast iteration.
    pub fn generate_small(image_count: usize, seed: u64) -> Self {
        Self::generate(MvqaConfig {
            image_count,
            seed,
            counts: QuestionCounts::default(),
        })
    }

    /// Compute the Table I/II statistics.
    pub fn stats(&self) -> MvqaStats {
        let row = |qtype: QuestionType| -> MvqaTypeRow {
            let of_type: Vec<&QaPair> =
                self.questions.iter().filter(|p| p.qtype == qtype).collect();
            let clauses: usize = of_type.iter().map(|p| p.clauses).sum();
            let mut spos: Vec<&str> = of_type
                .iter()
                .flat_map(|p| p.spo_keys.iter().map(String::as_str))
                .collect();
            spos.sort_unstable();
            spos.dedup();
            let avg_images = if of_type.is_empty() {
                0.0
            } else {
                of_type.iter().map(|p| p.images_needed).sum::<usize>() as f64 / of_type.len() as f64
            };
            MvqaTypeRow {
                questions: of_type.len(),
                clauses,
                unique_spos: spos.len(),
                avg_images,
            }
        };
        let mut all_spos: Vec<&str> = self
            .questions
            .iter()
            .flat_map(|p| p.spo_keys.iter().map(String::as_str))
            .collect();
        all_spos.sort_unstable();
        all_spos.dedup();
        let total_words: usize = self
            .questions
            .iter()
            .map(|p| p.question.split_whitespace().count())
            .sum();
        MvqaStats {
            image_count: self.images.len(),
            question_count: self.questions.len(),
            judgment: row(QuestionType::Judgment),
            counting: row(QuestionType::Counting),
            reasoning: row(QuestionType::Reasoning),
            total_clauses: self.questions.iter().map(|p| p.clauses).sum(),
            unique_spos_total: all_spos.len(),
            avg_query_length: if self.questions.is_empty() {
                0.0
            } else {
                total_words as f64 / self.questions.len() as f64
            },
            constrained_questions: self
                .questions
                .iter()
                .filter(|p| p.question.contains("most") || p.question.contains("least"))
                .count(),
        }
    }

    /// Accuracy of a batch of predicted answers against this dataset's
    /// ground truth (see [`score_answers`]).
    pub fn score_answers(&self, answers: &[Option<PredictedAnswer>]) -> (f64, f64, f64, f64) {
        score_answers(&self.questions, answers)
    }
}

/// Accuracy of a batch of predicted answers (aligned with `questions`)
/// against their ground truth, per question type plus overall:
/// `(judgment, counting, reasoning, overall)`. Reasoning answers are
/// compared by the paper's semantic rule (exact label, or embedding
/// similarity — "dog" vs "puppy" count as consistent).
pub fn score_answers(
    questions: &[QaPair],
    answers: &[Option<PredictedAnswer>],
) -> (f64, f64, f64, f64) {
    let embedder = svqa_nlp::Embedder::new();
    let mut per_type: std::collections::HashMap<QuestionType, (usize, usize)> =
        std::collections::HashMap::new();
    for (q, ans) in questions.iter().zip(answers) {
        let entry = per_type.entry(q.qtype).or_insert((0, 0));
        entry.1 += 1;
        let correct = match (&q.answer, ans) {
            (GtAnswer::YesNo(gt), Some(PredictedAnswer::YesNo(p))) => gt == p,
            (GtAnswer::Count(gt), Some(PredictedAnswer::Count(p))) => gt == p,
            (GtAnswer::Entity(gt), Some(PredictedAnswer::Entity(p))) => {
                gt == p || embedder.similarity(gt, p) >= 0.7
            }
            _ => false,
        };
        if correct {
            entry.0 += 1;
        }
    }
    let acc = |t: QuestionType| -> f64 {
        per_type.get(&t).map_or(
            0.0,
            |&(c, n)| if n == 0 { 0.0 } else { c as f64 / n as f64 },
        )
    };
    let (total_c, total_n) = per_type
        .values()
        .fold((0, 0), |(c, n), &(ci, ni)| (c + ci, n + ni));
    (
        acc(QuestionType::Judgment),
        acc(QuestionType::Counting),
        acc(QuestionType::Reasoning),
        if total_n == 0 {
            0.0
        } else {
            total_c as f64 / total_n as f64
        },
    )
}

/// A system's predicted answer, for scoring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictedAnswer {
    /// Yes/no.
    YesNo(bool),
    /// Number.
    Count(usize),
    /// Entity label.
    Entity(String),
}

/// Per-type statistics row (Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvqaTypeRow {
    /// Number of questions.
    pub questions: usize,
    /// Total clauses.
    pub clauses: usize,
    /// Unique SPO triples (within the type).
    pub unique_spos: usize,
    /// Average size of the image scan set.
    pub avg_images: f64,
}

/// Dataset statistics (Tables I–II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvqaStats {
    /// Number of images.
    pub image_count: usize,
    /// Number of questions.
    pub question_count: usize,
    /// Judgment row.
    pub judgment: MvqaTypeRow,
    /// Counting row.
    pub counting: MvqaTypeRow,
    /// Reasoning row.
    pub reasoning: MvqaTypeRow,
    /// Total clauses across all questions.
    pub total_clauses: usize,
    /// Unique SPOs across the whole dataset.
    pub unique_spos_total: usize,
    /// Average question length in words (Table I's "Avg. Query length").
    pub avg_query_length: f64,
    /// Questions with constraints (paper: 40).
    pub constrained_questions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_dataset_builds_and_reports() {
        let mvqa = Mvqa::generate_small(1000, 99);
        assert_eq!(mvqa.images.len(), 1000);
        assert_eq!(mvqa.questions.len(), 100);
        let stats = mvqa.stats();
        assert_eq!(stats.question_count, 100);
        assert_eq!(stats.judgment.questions, 40);
        assert_eq!(stats.counting.questions, 16);
        assert_eq!(stats.reasoning.questions, 44);
        assert_eq!(stats.total_clauses, 219);
        assert!(stats.avg_query_length > 10.0 && stats.avg_query_length < 25.0);
        assert!(stats.unique_spos_total > 30);
    }

    #[test]
    fn scoring_counts_exact_and_semantic_matches() {
        let mvqa = Mvqa::generate_small(600, 5);
        // Answer everything with the exact ground truth → 100%.
        let perfect: Vec<Option<PredictedAnswer>> = mvqa
            .questions
            .iter()
            .map(|q| {
                Some(match &q.answer {
                    GtAnswer::YesNo(b) => PredictedAnswer::YesNo(*b),
                    GtAnswer::Count(n) => PredictedAnswer::Count(*n),
                    GtAnswer::Entity(e) => PredictedAnswer::Entity(e.clone()),
                })
            })
            .collect();
        let (j, c, r, all) = mvqa.score_answers(&perfect);
        assert_eq!((j, c, r, all), (1.0, 1.0, 1.0, 1.0));
        // Answer nothing → 0%.
        let nothing: Vec<Option<PredictedAnswer>> = mvqa.questions.iter().map(|_| None).collect();
        let (_, _, _, zero) = mvqa.score_answers(&nothing);
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn synonym_entities_count_as_correct() {
        let mvqa = Mvqa::generate_small(600, 5);
        // Find a reasoning question whose answer is "dog" (if any) and
        // answer "puppy" — the paper's own example of consistency.
        let answers: Vec<Option<PredictedAnswer>> = mvqa
            .questions
            .iter()
            .map(|q| match &q.answer {
                GtAnswer::Entity(e) if e == "dog" => Some(PredictedAnswer::Entity("puppy".into())),
                GtAnswer::Entity(e) => Some(PredictedAnswer::Entity(e.clone())),
                GtAnswer::YesNo(b) => Some(PredictedAnswer::YesNo(*b)),
                GtAnswer::Count(n) => Some(PredictedAnswer::Count(*n)),
            })
            .collect();
        let (_, _, r, _) = mvqa.score_answers(&answers);
        assert_eq!(r, 1.0);
    }
}

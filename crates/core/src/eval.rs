//! Accuracy evaluation harness (Exp-1 / Exp-2).

use crate::pipeline::Svqa;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use svqa_dataset::mvqa::{score_answers, Mvqa, PredictedAnswer};
use svqa_dataset::QaPair;
use svqa_executor::Answer;

/// Outcome of an evaluation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Judgment accuracy.
    pub judgment: f64,
    /// Counting accuracy.
    pub counting: f64,
    /// Reasoning accuracy.
    pub reasoning: f64,
    /// Overall accuracy.
    pub overall: f64,
    /// Total batch latency.
    pub total_latency: Duration,
    /// Mean per-question latency.
    pub mean_latency: Duration,
    /// Median per-question latency (from the batch's per-query times).
    #[serde(default)]
    pub p50_latency: Duration,
    /// 95th-percentile per-question latency.
    #[serde(default)]
    pub p95_latency: Duration,
    /// Questions that failed to parse (Fig. 8a class errors).
    pub parse_failures: usize,
}

/// Nearest-rank percentile over unsorted per-query durations.
fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Convert an executor answer to the dataset's scoring form.
pub fn to_predicted(answer: &Answer) -> Option<PredictedAnswer> {
    match answer {
        Answer::Judgment(b) => Some(PredictedAnswer::YesNo(*b)),
        Answer::Count(n) => Some(PredictedAnswer::Count(*n)),
        Answer::Entity { label, .. } => Some(PredictedAnswer::Entity(label.clone())),
        Answer::Unknown => None,
    }
}

/// Run SVQA over an MVQA-shaped dataset and score it (Table III / IV).
pub fn evaluate_on_mvqa(system: &Svqa, mvqa: &Mvqa) -> EvalOutcome {
    evaluate(system, &mvqa.questions)
}

/// Answer `pairs` in one [`Svqa::answer_batch`] and score the answers
/// against their ground truth.
pub fn evaluate(system: &Svqa, pairs: &[QaPair]) -> EvalOutcome {
    let questions: Vec<&str> = pairs.iter().map(|q| q.question.as_str()).collect();
    let outcome = system.answer_batch(&questions);
    let parse_failures = outcome
        .answers
        .iter()
        .filter(|a| matches!(a, Err(crate::SvqaError::Parse(_))))
        .count();
    let predicted: Vec<Option<PredictedAnswer>> = outcome
        .answers
        .iter()
        .map(|a| a.as_ref().ok().and_then(to_predicted))
        .collect();
    let (judgment, counting, reasoning, overall) = score_answers(pairs, &predicted);
    let n = questions.len().max(1);
    EvalOutcome {
        judgment,
        counting,
        reasoning,
        overall,
        total_latency: outcome.total,
        mean_latency: outcome.total / n as u32,
        p50_latency: percentile(&outcome.per_query, 0.50),
        p95_latency: percentile(&outcome.per_query, 0.95),
        parse_failures,
    }
}

/// Outcome of a guarded (chaos) evaluation pass: accuracy plus how the
/// degradation policy resolved each question. Produced by
/// [`evaluate_on_mvqa_guarded`] and serialized into `svqa-cli chaos`
/// curve files.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuardedEvalOutcome {
    /// Overall accuracy over every question (degraded answers included —
    /// that is the point of measuring under chaos).
    pub overall: f64,
    /// Questions answered with both sources available.
    pub full: usize,
    /// Questions answered from a partial view (`AnswerStatus::Degraded`).
    pub degraded: usize,
    /// Questions refused because every source was down
    /// (`SvqaError::Unavailable`).
    pub unavailable: usize,
    /// Questions that failed for any other reason (parse, lint, exec).
    pub failed: usize,
}

/// Run every MVQA question through [`Svqa::answer_guarded`] under the
/// currently installed fault plan (if any) and score the results. Each
/// question gets a fresh deadline of `per_question` from its start.
pub fn evaluate_on_mvqa_guarded(
    system: &Svqa,
    mvqa: &Mvqa,
    per_question: Duration,
) -> GuardedEvalOutcome {
    let mut predicted: Vec<Option<PredictedAnswer>> = Vec::with_capacity(mvqa.questions.len());
    let (mut full, mut degraded, mut unavailable, mut failed) = (0usize, 0usize, 0usize, 0usize);
    for q in &mvqa.questions {
        let deadline = Instant::now() + per_question;
        match system.answer_guarded(&q.question, None, Some(deadline)) {
            Ok(g) => {
                if g.status.is_degraded() {
                    degraded += 1;
                } else {
                    full += 1;
                }
                predicted.push(to_predicted(&g.answer));
            }
            Err(crate::SvqaError::Unavailable { .. }) => {
                unavailable += 1;
                predicted.push(None);
            }
            Err(_) => {
                failed += 1;
                predicted.push(None);
            }
        }
    }
    let (_, _, _, overall) = mvqa.score_answers(&predicted);
    GuardedEvalOutcome {
        overall,
        full,
        degraded,
        unavailable,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SvqaConfig;

    #[test]
    fn end_to_end_accuracy_is_substantial() {
        // The headline reproduction check (a small-scale Table III): the
        // full noisy pipeline must recover a large majority of the
        // ground-truth answers. The full-size calibrated run lives in the
        // bench harness; this guards against regressions.
        let mvqa = Mvqa::generate_small(700, 21);
        let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
        let outcome = evaluate_on_mvqa(&system, &mvqa);
        assert!(
            outcome.overall > 0.75,
            "overall accuracy too low: {outcome:?}"
        );
        assert!(outcome.judgment > 0.7, "judgment: {outcome:?}");
        assert!(outcome.reasoning > 0.7, "reasoning: {outcome:?}");
    }

    #[test]
    fn percentiles_are_ordered_and_from_the_samples() {
        let samples: Vec<Duration> = [5, 1, 9, 3, 7]
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        let p50 = percentile(&samples, 0.50);
        let p95 = percentile(&samples, 0.95);
        assert_eq!(p50, Duration::from_millis(5));
        assert_eq!(p95, Duration::from_millis(9));
        assert!(p50 <= p95);
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn to_predicted_conversions() {
        assert_eq!(
            to_predicted(&Answer::Judgment(true)),
            Some(PredictedAnswer::YesNo(true))
        );
        assert_eq!(
            to_predicted(&Answer::Count(3)),
            Some(PredictedAnswer::Count(3))
        );
        assert_eq!(
            to_predicted(&Answer::Entity {
                label: "dog".into(),
                alternatives: vec![]
            }),
            Some(PredictedAnswer::Entity("dog".into()))
        );
        assert_eq!(to_predicted(&Answer::Unknown), None);
    }
}

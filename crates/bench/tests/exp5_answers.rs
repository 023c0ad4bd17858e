//! Exp-5 times `Svqa::run_batch` under many cache configurations. The
//! cache may change how long Figs. 10a, 10b and 11 take, never an answer:
//! every configuration must answer each question exactly as the uncached
//! single-question path does, in question order.

use svqa::dataset::Mvqa;
use svqa::executor::cache::{CacheGranularity, EvictionPolicy};
use svqa::{Svqa, SvqaConfig};
use svqa_bench::best_batch;

#[test]
fn every_fig10_fig11_configuration_answers_like_svqa_answer() {
    let mvqa = Mvqa::generate_small(300, 11);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    let expected: Vec<_> = questions.iter().map(|q| system.answer(q)).collect();
    let answered = expected.iter().filter(|a| a.is_ok()).count();
    assert!(
        answered * 2 > questions.len(),
        "only {answered} of {} questions answered",
        questions.len()
    );

    let mut configs: Vec<(CacheGranularity, EvictionPolicy, usize)> = [
        CacheGranularity::None,
        CacheGranularity::Scope,
        CacheGranularity::Path,
        CacheGranularity::Both,
    ]
    .into_iter()
    .map(|g| (g, EvictionPolicy::Lfu, 100))
    .collect();
    for policy in [EvictionPolicy::Lfu, EvictionPolicy::Lru] {
        for pool in [1, 10, 100] {
            configs.push((CacheGranularity::Both, policy, pool));
        }
    }
    for (granularity, policy, pool) in configs {
        let outcome = best_batch(&system, &questions, granularity, policy, pool, 1);
        assert_eq!(outcome.answers.len(), questions.len());
        for (i, (got, want)) in outcome.answers.iter().zip(&expected).enumerate() {
            assert_eq!(
                got, want,
                "{granularity:?}/{policy:?}/pool {pool}: question {i} {:?}",
                questions[i]
            );
        }
    }
}

//! Failure-injection tests: the pipeline must degrade, not panic, when a
//! subsystem is crippled.
//!
//! Fault plans are process-global, so every test here holds the plan lock
//! (an empty plan where it injects nothing): a plan one test arms never
//! fires into another test's pipeline.

use svqa::executor::cache::KeyCentricCache;
use svqa::executor::scheduler::QueryScheduler;
use svqa::executor::{CacheStats, QueryGraphExecutor};
use svqa::fault::{self, site, FaultKind, FaultPlan, InstalledPlan, SiteFault};
use svqa::vision::detector::DetectorConfig;
use svqa::{evaluate_on_mvqa, Svqa, SvqaConfig};
use svqa_dataset::Mvqa;
use svqa_graph::Graph;

fn mvqa() -> Mvqa {
    Mvqa::generate_small(250, 77)
}

/// Hold the process-wide plan lock with a plan that injects nothing.
fn quiet() -> InstalledPlan {
    fault::install(FaultPlan::new(0))
}

#[test]
fn blind_detector_degrades_gracefully() {
    let _quiet = quiet();
    // detect_prob = 0: no scene evidence at all. Every judgment becomes
    // "No", counting 0, reasoning Unknown — and nothing panics.
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector = DetectorConfig {
        detect_prob: 0.0,
        spurious_rate: 0.0,
        ..DetectorConfig::default()
    };
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let outcome = evaluate_on_mvqa(&system, &mvqa);
    // Only all-No judgments can score.
    assert_eq!(outcome.counting, 0.0, "{outcome:?}");
    assert_eq!(outcome.reasoning, 0.0, "{outcome:?}");
    for q in mvqa.questions.iter().take(10) {
        let _ = system.answer(&q.question); // must not panic
    }
}

#[test]
fn maximal_label_confusion_still_executes() {
    let _quiet = quiet();
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector.confusion_prob = 1.0;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    for q in mvqa.questions.iter().take(20) {
        let _ = system.answer(&q.question);
    }
    let outcome = evaluate_on_mvqa(&system, &mvqa);
    // Accuracy collapses versus the healthy pipeline but stays a valid
    // fraction.
    assert!((0.0..=1.0).contains(&outcome.overall));
}

#[test]
fn empty_knowledge_graph_kills_kg_questions_only() {
    let _quiet = quiet();
    let mvqa = mvqa();
    let empty_kg = Graph::new();
    let system = Svqa::build(&mvqa.images, &empty_kg, SvqaConfig::default());
    system.merged_graph().validate().unwrap();
    // Knowledge-dependent question: no taxonomy, no girlfriend facts.
    let a = system
        .answer("How many wizards are near Harry Potter's girlfriend?")
        .unwrap();
    assert_eq!(a, svqa::Answer::Count(0));
    // A purely visual question still works (exact labels need no
    // taxonomy).
    let visual = system.answer("Does the dog appear in the car?");
    assert!(visual.is_ok());
}

#[test]
fn extreme_jitter_hurts_but_does_not_break() {
    let _quiet = quiet();
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector.bbox_jitter = 0.9;
    let healthy = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let jittery = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let h = evaluate_on_mvqa(&healthy, &mvqa);
    let j = evaluate_on_mvqa(&jittery, &mvqa);
    assert!(
        j.overall <= h.overall + 0.05,
        "jitter should not help: healthy {} vs jittery {}",
        h.overall,
        j.overall
    );
}

#[test]
fn empty_image_set_is_knowledge_only() {
    let _quiet = quiet();
    let mvqa = mvqa();
    let system = Svqa::build(&[], &mvqa.kg, SvqaConfig::default());
    // Knowledge-graph queries still answer.
    let a = system
        .answer("How many wizards are near Harry Potter's girlfriend?")
        .unwrap();
    assert_eq!(a, svqa::Answer::Count(0)); // no co-appearance evidence
                                           // The merged graph is exactly the KG.
    assert_eq!(system.merged_graph().vertex_count(), mvqa.kg.vertex_count());
}

#[test]
fn tiny_cache_pool_never_corrupts_answers() {
    let _quiet = quiet();
    use svqa::executor::cache::{CacheGranularity, EvictionPolicy};

    let mvqa = mvqa();
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions: Vec<&str> = mvqa
        .questions
        .iter()
        .take(30)
        .map(|q| q.question.as_str())
        .collect();
    let batch = |granularity, pool| {
        let cache = KeyCentricCache::new(granularity, EvictionPolicy::Lfu, pool);
        system.run_batch(&questions, &cache, None)
    };
    let baseline = batch(CacheGranularity::None, 100);
    // A pathological pool of 1 item thrashes constantly but must stay
    // correct.
    let thrashing = batch(CacheGranularity::Both, 1);
    assert!(thrashing.cache_stats.total_lookups() > 0);
    assert_eq!(baseline.answers, thrashing.answers);
}

#[test]
fn a_faulted_relation_scan_never_reaches_the_path_cache() {
    // One dropped or corrupted relation scan must cost one wrong answer,
    // not every later answer served from a long-lived cache.
    let mvqa = Mvqa::generate_small(300, 11);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let fresh_cache = || QueryScheduler::new(system.config().scheduler).build_cache();
    let ask = |question: &str, cache: &KeyCentricCache| {
        system
            .run(system.prepare(question), Some(cache), None)
            .result
            .ok()
            .map(|g| g.answer)
    };
    let mut changed = Vec::new();
    for kind in [FaultKind::DropResult, FaultKind::CorruptLabel] {
        for q in &mvqa.questions {
            let clean = {
                let _quiet = quiet();
                ask(&q.question, &fresh_cache())
            };
            let cache = fresh_cache();
            {
                let plan = FaultPlan::new(11)
                    .with_fault(site::RELATION_SCAN, SiteFault::limited(kind, 1.0, 1));
                let _plan = fault::install(plan);
                ask(&q.question, &cache);
            }
            let again = {
                let _quiet = quiet();
                ask(&q.question, &cache)
            };
            if again != clean {
                changed.push(format!("{kind:?}: {}: {clean:?} -> {again:?}", q.question));
            }
        }
    }
    assert!(
        changed.is_empty(),
        "{} of {} answers changed after the fault was disarmed:\n{}",
        changed.len(),
        2 * mvqa.questions.len(),
        changed.join("\n")
    );
}

#[test]
fn a_corrupted_relation_scan_reverses_every_pair() {
    // `CorruptLabel` at the relation scan swaps each pair's subject and
    // object and changes nothing else: the clean scan's edges, in order.
    let mvqa = Mvqa::generate_small(300, 11);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let graph = system.merged_graph();
    let executor = QueryGraphExecutor::new(graph);
    let (mut compared, mut pairs) = (0, 0);
    for q in &mvqa.questions {
        let Some(gq) = system.prepare(&q.question).query else {
            continue;
        };
        // The first clause run has no bound slot, so its scan sees the
        // same scopes in both runs. Without a constraint its AP is its RP
        // filtered by edge label alone, which a reversal leaves as it was.
        let first = gq.execution_order().expect("a parsed query is acyclic")[0];
        if gq.vertices[first].constraint.is_some() {
            continue;
        }
        let clean = {
            let _quiet = quiet();
            executor.run(&gq, None, &mut CacheStats::new())
        };
        let corrupt = {
            let plan = FaultPlan::new(11).with_fault(
                site::RELATION_SCAN,
                SiteFault::new(FaultKind::CorruptLabel, 1.0),
            );
            let _plan = fault::install(plan);
            executor.run(&gq, None, &mut CacheStats::new())
        };
        let (clean, corrupt) = (clean.unwrap(), corrupt.unwrap());
        let q = &q.question;
        let rp_counts = [&clean, &corrupt].map(|run| run.traces[first].rp_count);
        assert_eq!(rp_counts[0], rp_counts[1], "{q}");
        let (clean, corrupt) = (&clean.aps[first], &corrupt.aps[first]);
        assert_eq!(clean.len(), corrupt.len(), "{q}");
        for (c, x) in clean.iter().zip(corrupt) {
            assert_eq!(x.edge(), c.edge(), "{q}");
            let (sub, obj) = c.ends(graph);
            assert_eq!(x.ends(graph), (obj, sub), "{q}");
        }
        compared += 1;
        pairs += clean.len();
    }
    assert!(
        compared > 0 && pairs > 0,
        "{compared} clauses, {pairs} pairs"
    );
}

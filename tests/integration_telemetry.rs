//! End-to-end telemetry: a real build + batch run must light up every
//! pipeline stage, and `svqa-cli eval --metrics` must emit a parseable
//! snapshot with per-stage histograms and consistent cache counters.

use svqa::telemetry::{counter, global, stage, MetricsSnapshot, QueryOutcome};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

#[test]
fn build_and_batch_record_every_stage() {
    let mvqa = Mvqa::generate_small(120, 9);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions = [
        "Does the dog appear in the car?",
        "How many dogs are in the car?",
        "Does the dog appear in the car?",
        "the red dog", // parse failure, must be traced too
    ];
    let batch = system.answer_batch(&questions);

    // Every one of the paper's five per-question stages recorded at least
    // one non-zero duration into the global recorder (sgg + aggregate run
    // at build time; parse/decompose per question; schedule/match in the
    // batch). Stage timings are wall-clock so every observation is > 0ns.
    for s in stage::PIPELINE {
        assert!(global().span_count(s) > 0, "no spans recorded for {s:?}");
        assert!(global().span_total_ns(s) > 0, "zero duration for {s:?}");
    }
    assert!(global().span_count(stage::SGG) >= 120);

    // Per-question traces: all carry a parse stage; executed ones a match
    // stage; the malformed question ends as a parse error.
    assert_eq!(batch.traces.len(), questions.len());
    for trace in &batch.traces {
        assert!(trace.stage_nanos(stage::PARSE).is_some(), "{trace:?}");
    }
    assert_eq!(batch.traces[0].outcome, QueryOutcome::Answered);
    assert!(batch.traces[0].stage_nanos(stage::MATCH).is_some());
    assert_eq!(batch.traces[3].outcome, QueryOutcome::ParseError);
    assert!(batch.traces[3].stage_nanos(stage::MATCH).is_none());

    // Cache counters: the batch total was pushed into the global recorder,
    // and the identical repeated question guarantees path traffic.
    assert!(batch.cache_stats.total_lookups() > 0);
    assert!(batch.cache_stats.path_hits > 0, "{:?}", batch.cache_stats);
    assert!(
        global().counter_value(counter::CACHE_PATH_HITS) >= batch.cache_stats.path_hits
    );
    assert!(
        global().counter_value(counter::CACHE_SCOPE_MISSES)
            >= batch.cache_stats.scope_misses
    );

    // Question counters line up with the batch outcome.
    let answered = batch.answers.iter().filter(|a| a.is_ok()).count() as u64;
    let failed = batch.answers.len() as u64 - answered;
    assert!(answered > 0 && failed > 0);
    assert!(global().counter_value(counter::QUESTIONS_ANSWERED) >= answered);
    assert!(global().counter_value(counter::QUESTIONS_FAILED) >= failed);
    assert!(global().counter_value(counter::QUESTIONS_PARSED) >= answered);
}

#[test]
fn traced_single_question_reports_exact_cache_delta() {
    use svqa::executor::{CacheGranularity, EvictionPolicy, KeyCentricCache};

    let mvqa = Mvqa::generate_small(60, 3);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let cache = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 100);
    let q = "Does the dog appear in the car?";
    let run = system.run(system.prepare(q), Some(&cache), None);
    let (first, cold) = (run.result, run.trace);
    first.unwrap();
    assert_eq!(cold.cache.total_hits(), 0, "{:?}", cold.cache);
    assert!(cold.cache.total_lookups() > 0);

    let run = system.run(system.prepare(q), Some(&cache), None);
    let (second, warm) = (run.result, run.trace);
    second.unwrap();
    assert!(warm.cache.total_hits() > 0, "{:?}", warm.cache);
    let line = warm.summary_line();
    assert!(line.contains("[ok]"), "{line}");
    assert!(line.contains("parse"), "{line}");
    assert!(line.contains("match"), "{line}");
}

#[test]
fn cli_eval_metrics_json_has_all_stages_and_rates() {
    let out = std::env::temp_dir().join(format!("svqa_metrics_{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_svqa-cli"))
        .args([
            "eval",
            "--images",
            "40",
            "--seed",
            "5",
            "--metrics",
            out.to_str().unwrap(),
        ])
        .status()
        .expect("svqa-cli runs");
    assert!(status.success(), "svqa-cli eval failed: {status:?}");

    let text = std::fs::read_to_string(&out).expect("metrics file written");
    let _ = std::fs::remove_file(&out);
    let snap: MetricsSnapshot = serde_json::from_str(&text).expect("valid metrics JSON");

    // All five pipeline stages present with non-zero durations and sane
    // percentile ordering.
    for s in stage::PIPELINE {
        let h = snap
            .spans
            .get(s)
            .unwrap_or_else(|| panic!("stage {s:?} missing from {:?}", snap.spans.keys()));
        assert!(h.count > 0, "{s}: {h:?}");
        assert!(h.sum_ns > 0, "{s}: {h:?}");
        assert!(h.p50_ns > 0, "{s}: {h:?}");
        assert!(h.p50_ns <= h.p95_ns && h.p95_ns <= h.p99_ns, "{s}: {h:?}");
        assert!(h.min_ns <= h.p50_ns && h.p99_ns <= h.max_ns, "{s}: {h:?}");
    }
    // Build-time stage also recorded (one span per image).
    assert_eq!(snap.spans[stage::SGG].count, 40);

    // Counters: questions flowed through, and the cache summary is
    // internally consistent with its raw counters.
    assert!(snap.counters[counter::QUESTIONS_PARSED] > 0);
    assert!(snap.counters[counter::QUESTIONS_ANSWERED] > 0);
    assert!(snap.counters.contains_key(counter::QUESTIONS_FAILED));
    assert_eq!(snap.counters[counter::SCENE_GRAPHS_BUILT], 40);
    let cache = snap.cache;
    assert!(cache.stats.total_lookups() > 0);
    assert!((0.0..=1.0).contains(&cache.overall_hit_rate));
    assert!((cache.overall_hit_rate - cache.stats.hit_rate()).abs() < 1e-12);
    assert!((cache.scope_hit_rate - cache.stats.scope_hit_rate()).abs() < 1e-12);
}

//! One request path: `/ask`, `/batch`, the CLI and the library all run the
//! same parse → lint → guard → execute record, and what that record
//! reports is exact.
//!
//! The telemetry counters are process-global, so every test here that
//! answers questions holds [`LOCK`]: a concurrent test's traffic would
//! otherwise leak into another's `/metrics` deltas.

mod common;

use common::http;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::Mutex;
use svqa::executor::CacheStats;
use svqa::fault::Source;
use svqa::{QueryServer, ServeConfig, Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn ask(addr: SocketAddr, question: &str) -> (u16, serde_json::Value) {
    let request = serde_json::to_string(&serde_json::json!({ "question": question })).unwrap();
    let (status, _, body) = http(addr, "POST", "/ask", &request);
    (status, serde_json::from_str(&body).expect("JSON body"))
}

/// `GET /metrics` as `series → value`.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let (status, _, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> u64 {
    let value = |m: &BTreeMap<String, f64>| m.get(key).copied().unwrap_or(0.0);
    (value(after) - value(before)) as u64
}

fn world(images: usize, seed: u64, config: SvqaConfig) -> (Svqa, Mvqa) {
    let mvqa = Mvqa::generate_small(images, seed);
    (Svqa::build(&mvqa.images, &mvqa.kg, config), mvqa)
}

/// Corpus questions that clear the lint gate.
fn clean_questions(system: &Svqa, mvqa: &Mvqa, n: usize) -> Vec<String> {
    let clean = mvqa.questions.iter().map(|q| q.question.clone());
    let clean = clean.filter(|q| system.prepare(q).gate.is_ok());
    let questions: Vec<String> = clean.take(n).collect();
    assert_eq!(
        questions.len(),
        n,
        "world too small for {n} clean questions"
    );
    questions
}

/// Bind `system` on a free port and run `body` against it while it
/// serves; shuts the server down afterwards.
fn with_server(system: Svqa, config: ServeConfig, body: impl FnOnce(SocketAddr, &QueryServer)) {
    let server = QueryServer::bind(system, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        body(addr, &server);
        assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
        serving.join().expect("serve thread").expect("serve");
    });
}

#[test]
fn concurrent_asks_report_exact_cache_traffic() {
    let _guard = lock();
    let (system, mvqa) = world(120, 9, SvqaConfig::default());
    let questions = clean_questions(&system, &mvqa, 6);
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    with_server(system, config, |addr, server| {
        let cache_before = server.cache().stats();
        let metrics_before = scrape(addr);
        // Each question four times, all in flight at once: repeats hit
        // the scopes and paths the others are filling.
        let bodies: Vec<serde_json::Value> = std::thread::scope(|scope| {
            let askers: Vec<_> = (0..4)
                .flat_map(|_| questions.iter())
                .map(|q| scope.spawn(move || ask(addr, q)))
                .collect();
            askers
                .into_iter()
                .map(|asker| {
                    let (status, body) = asker.join().expect("asker");
                    assert_eq!(status, 200, "{body:?}");
                    body
                })
                .collect()
        });
        let mut summed = CacheStats::new();
        for body in &bodies {
            let cache: CacheStats = serde_json::from_value(&body["cache"]).expect("cache");
            summed.merge(&cache);
        }
        assert!(summed.total_hits() > 0, "{summed:?}");
        let cache_delta = server.cache().stats().delta_since(&cache_before);
        assert_eq!(summed, cache_delta);
        let metrics = scrape(addr);
        let counted = |pool: &str| {
            delta(
                &metrics_before,
                &metrics,
                &format!("svqa_cache_{pool}_total"),
            )
        };
        let recorded = CacheStats {
            scope_hits: counted("scope_hits"),
            scope_misses: counted("scope_misses"),
            path_hits: counted("path_hits"),
            path_misses: counted("path_misses"),
        };
        assert_eq!(summed, recorded);
    });
}

#[test]
fn each_accepted_ask_is_parsed_linted_and_matched_once() {
    let _guard = lock();
    let (system, mvqa) = world(60, 13, SvqaConfig::default());
    let questions = clean_questions(&system, &mvqa, 5);
    with_server(system, ServeConfig::default(), |addr, _| {
        let before = scrape(addr);
        for q in &questions {
            let (status, body) = ask(addr, q);
            assert_eq!(status, 200, "{body:?}");
        }
        let after = scrape(addr);
        for stage in ["parse", "lint", "match"] {
            let key = format!("svqa_span_duration_seconds_count{{stage=\"{stage}\"}}");
            assert_eq!(
                delta(&before, &after, &key),
                questions.len() as u64,
                "{stage}"
            );
        }
    });
}

#[test]
fn each_admitted_ask_records_one_queue_wait_and_a_429_none() {
    let _guard = lock();
    let key = r#"svqa_span_duration_seconds_count{stage="server_queue_wait"}"#;
    let (system, mvqa) = world(60, 13, SvqaConfig::default());
    let questions = clean_questions(&system, &mvqa, 5);
    with_server(system, ServeConfig::default(), |addr, _| {
        let before = scrape(addr);
        for q in &questions {
            let (status, body) = ask(addr, q);
            assert_eq!(status, 200, "{body:?}");
        }
        assert_eq!(delta(&before, &scrape(addr), key), questions.len() as u64);
    });
    let (system, _) = world(60, 13, SvqaConfig::default());
    let shed = ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    };
    with_server(system, shed, |addr, _| {
        let before = scrape(addr);
        for q in &questions {
            assert_eq!(ask(addr, q).0, 429);
        }
        assert_eq!(delta(&before, &scrape(addr), key), 0);
    });
}

#[test]
fn batch_with_the_kg_breaker_open_is_labelled_degraded() {
    let _guard = lock();
    let mut config = SvqaConfig::default();
    config.degrade.breaker.cooldown_ms = 600_000;
    let (system, mvqa) = world(60, 13, config);
    let questions = clean_questions(&system, &mvqa, 4);
    system.breakers().for_source(Source::Kg).force_open();
    with_server(system, ServeConfig::default(), |addr, _| {
        let request = serde_json::json!({ "questions": questions });
        let request = serde_json::to_string(&request).unwrap();
        let (status, _, body) = http(addr, "POST", "/batch", &request);
        assert_eq!(status, 200, "{body:?}");
        let parsed: serde_json::Value = serde_json::from_str(&body).unwrap();
        let answers = parsed["answers"].as_array().expect("answers array");
        assert_eq!(answers.len(), questions.len());
        for answer in answers {
            assert_eq!(answer["status"].as_str(), Some("degraded"), "{body}");
            assert_eq!(
                answer["missing_sources"],
                serde_json::json!(["kg"]),
                "{body}"
            );
        }
    });
}

#[test]
fn a_loaded_world_answers_like_the_built_one() {
    let _guard = lock();
    let mut config = SvqaConfig::default();
    config.degrade.breaker.cooldown_ms = 600_000;
    let (built, mvqa) = world(120, 9, config.clone());
    let loaded = Svqa::from_graph(built.merged_graph().clone(), config);
    assert_eq!(
        loaded.build_stats().merged_edges,
        built.build_stats().merged_edges
    );
    // With the KG breaker open both answer over the scene-only view, which
    // only agrees if both found the same KG vertex range.
    for system in [&built, &loaded] {
        system.breakers().for_source(Source::Kg).force_open();
    }
    for q in mvqa.questions.iter().take(12) {
        let guarded = |s: &Svqa| s.answer_guarded(&q.question, None, None);
        assert_eq!(guarded(&loaded), guarded(&built), "{}", q.question);
    }
}

#[test]
#[should_panic(expected = "a world loaded with Svqa::from_graph has none")]
fn add_images_on_a_loaded_world_panics() {
    let _guard = lock();
    let (built, mvqa) = world(40, 3, SvqaConfig::default());
    let mut loaded = Svqa::from_graph(built.merged_graph().clone(), SvqaConfig::default());
    loaded.add_images(&mvqa.images[..1]);
}

#[test]
fn eval_world_prints_the_same_scores_as_eval_images() {
    let cli = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_svqa-cli"))
            .args(args)
            .output()
            .expect("svqa-cli runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let dir = std::env::temp_dir().join(format!("svqa_eval_world_{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    cli(&["build", "--images", "60", "--seed", "11", "--out", dir]);
    let world = cli(&["eval", "--world", dir]);
    let images = cli(&["eval", "--images", "60", "--seed", "11"]);
    let _ = std::fs::remove_dir_all(dir);
    // Judgment, Counting, Reasoning, Overall — in that order, both ways.
    let scores = |out: &str| out.lines().take(4).map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(scores(&world), scores(&images), "{world}\n---\n{images}");
    assert!(scores(&world)[3].starts_with("Overall"), "{world}");
}

//! Chaos integration tests: deterministic fault injection end-to-end.
//!
//! Each test installs a seeded [`FaultPlan`] (the guard serializes
//! installers process-wide, so tests never see each other's plans) and
//! checks the degradation contract: requests complete, degraded answers
//! are labeled and counted, circuit breakers open and recover, and the
//! same seed reproduces the identical fault sequence.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use svqa::dataset::Mvqa;
use svqa::fault::{self, BreakerState, FaultKind, FaultPlan, Source, SiteFault};
use svqa::telemetry::counter;
use svqa::{QueryServer, ServeConfig, Svqa, SvqaConfig};

fn counter_value(name: &str) -> u64 {
    svqa::telemetry::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn kg_drop_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed).with_fault(
        fault::site::SOURCE_KG,
        SiteFault::new(FaultKind::DropResult, rate),
    )
}

/// One HTTP/1.1 request; returns (status code, headers, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_owned(), body.to_owned())
}

fn start_server(system: Svqa, config: ServeConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = QueryServer::bind(system, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn shutdown_and_join(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("serve thread panicked")
        .expect("serve returned an error");
}

#[test]
fn ten_percent_kg_chaos_degrades_deterministically_and_is_counted() {
    let mvqa = Mvqa::generate_small(250, 77);
    // Breaker disabled: this test measures the pure per-question fault
    // sequence, not wall-clock breaker dynamics (covered below).
    let mut config = SvqaConfig::default();
    config.degrade.breaker.failure_threshold = u32::MAX;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);

    // Every question, answered under a seeded 10% KG-drop plan. Returns
    // the per-question status labels plus the injector's bookkeeping.
    let run = || {
        let guard = fault::install(kg_drop_plan(0xD00D, 0.10));
        let degraded_before = counter_value(counter::ANSWERS_DEGRADED);
        let t0 = Instant::now();
        let mut statuses = Vec::with_capacity(mvqa.questions.len());
        for q in &mvqa.questions {
            let t_question = Instant::now();
            let deadline = t_question + Duration::from_secs(2);
            match system.answer_guarded(&q.question, None, Some(deadline)) {
                Ok(g) => {
                    if let svqa::AnswerStatus::Degraded {
                        missing_sources,
                        confidence_penalty,
                    } = &g.status
                    {
                        assert_eq!(missing_sources, &["kg".to_owned()], "{:?}", g.status);
                        assert!(*confidence_penalty > 0.0);
                    }
                    statuses.push(g.status.label().to_owned());
                }
                Err(e) => statuses.push(format!("error:{e}")),
            }
            assert!(
                t_question.elapsed() < Duration::from_secs(2),
                "question blew straight through its deadline"
            );
        }
        assert!(t0.elapsed() < Duration::from_secs(60));
        let degraded_delta = counter_value(counter::ANSWERS_DEGRADED) - degraded_before;
        let fired = guard.injector().faults_fired();
        let draws = guard.injector().draws_at(fault::site::SOURCE_KG);
        drop(guard);
        (statuses, fired, draws, degraded_delta)
    };

    let (statuses_a, fired_a, draws_a, degraded_a) = run();
    let degraded_count = statuses_a.iter().filter(|s| *s == "degraded").count() as u64;
    assert!(degraded_count >= 1, "10% plan never degraded: {statuses_a:?}");
    assert!(
        statuses_a.iter().any(|s| s == "ok"),
        "10% plan degraded everything: {statuses_a:?}"
    );
    assert_eq!(
        degraded_a, degraded_count,
        "answers_degraded counter disagrees with the labeled responses"
    );
    // One KG probe per question that survives parse + lint.
    assert!(draws_a > 0 && draws_a <= mvqa.questions.len() as u64, "{draws_a}");

    // Same seed, same question sequence: the identical fault sequence,
    // decision for decision.
    let (statuses_b, fired_b, draws_b, _) = run();
    assert_eq!(statuses_a, statuses_b);
    assert_eq!(fired_a, fired_b);
    assert_eq!(draws_a, draws_b);
}

#[test]
fn breaker_opens_after_consecutive_faults_and_recovers_via_half_open() {
    let mvqa = Mvqa::generate_small(60, 3);
    let mut config = SvqaConfig::default();
    config.degrade.breaker.failure_threshold = 2;
    config.degrade.breaker.cooldown_ms = 250;
    config.degrade.retry.max_retries = 0;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let question = &mvqa.questions[0].question;
    let kg_state = |system: &Svqa| {
        system
            .breaker_states()
            .into_iter()
            .find(|(s, _)| *s == Source::Kg)
            .map(|(_, st)| st)
            .expect("kg breaker")
    };

    // The KG probe fails exactly twice, then the rule disarms — so the
    // breaker opens on the second failure and the half-open probe that
    // follows the cooldown succeeds.
    let plan = FaultPlan::new(11).with_fault(
        fault::site::SOURCE_KG,
        SiteFault::limited(FaultKind::Error, 1.0, 2),
    );
    let guard = fault::install(plan);
    assert_eq!(kg_state(&system), BreakerState::Closed);

    let first = system.answer_guarded(question, None, None).expect("degraded answer");
    assert!(first.status.is_degraded(), "{:?}", first.status);
    assert_eq!(kg_state(&system), BreakerState::Closed, "one failure of two");

    let second = system.answer_guarded(question, None, None).expect("degraded answer");
    assert!(second.status.is_degraded());
    assert_eq!(kg_state(&system), BreakerState::Open, "threshold reached");
    assert_eq!(system.health_status(), "degraded");

    // While open, the source is skipped without drawing: still degraded.
    let rejected = system.answer_guarded(question, None, None).expect("degraded answer");
    assert!(rejected.status.is_degraded());
    assert_eq!(guard.injector().draws_at(fault::site::SOURCE_KG), 2);

    // Past the cooldown the breaker half-opens; the probe (fault rule now
    // exhausted) succeeds and closes it again.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(kg_state(&system), BreakerState::HalfOpen);
    let recovered = system.answer_guarded(question, None, None).expect("full answer");
    assert!(!recovered.status.is_degraded(), "{:?}", recovered.status);
    assert_eq!(kg_state(&system), BreakerState::Closed);
    assert_eq!(system.health_status(), "ok");
    drop(guard);
}

#[test]
fn poisoned_questions_do_not_shrink_the_worker_pool() {
    let mvqa = Mvqa::generate_small(60, 3);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let (addr, handle) = start_server(
        system,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // Exactly two poisoned jobs — enough to kill the *entire* pool if a
    // worker panic took its thread down.
    let plan = FaultPlan::new(21).with_fault(
        fault::site::SERVE_WORKER,
        SiteFault::limited(FaultKind::Error, 1.0, 2),
    );
    let guard = fault::install(plan);
    let panics_before = counter_value(counter::SERVER_WORKER_PANICS);

    let request = r#"{"question": "Does the dog appear in the car?"}"#;
    for _ in 0..2 {
        let (status, _, body) = http(addr, "POST", "/ask", request);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panic"), "{body}");
    }
    assert_eq!(counter_value(counter::SERVER_WORKER_PANICS) - panics_before, 2);

    // Both workers survived their panics: the pool still answers (with a
    // finite deadline, so a dead pool would fail fast as 504, not hang).
    for _ in 0..4 {
        let (status, _, body) = http(
            addr,
            "POST",
            "/ask",
            r#"{"question": "Does the dog appear in the car?", "deadline_ms": 5000}"#,
        );
        assert_eq!(status, 200, "{body}");
    }
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("svqa_server_worker_panics_total"),
        "{metrics}"
    );
    drop(guard);
    shutdown_and_join(addr, handle);
}

#[test]
fn dropped_reply_is_a_500_not_a_hung_connection() {
    let mvqa = Mvqa::generate_small(60, 3);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let (addr, handle) = start_server(system, ServeConfig::default());
    let plan = FaultPlan::new(31).with_fault(
        fault::site::SERVE_WORKER,
        SiteFault::limited(FaultKind::DropResult, 1.0, 1),
    );
    let guard = fault::install(plan);

    let request = r#"{"question": "Does the dog appear in the car?"}"#;
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("dropped"), "{body}");
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 200, "{body}");
    drop(guard);
    shutdown_and_join(addr, handle);
}

#[test]
fn all_sources_down_is_503_with_retry_after_then_healthz_recovers() {
    let mvqa = Mvqa::generate_small(60, 3);
    let mut config = SvqaConfig::default();
    // A long cooldown keeps the breakers observably Open while we assert.
    config.degrade.breaker.cooldown_ms = 800;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let (addr, handle) = start_server(system, ServeConfig::default());
    let plan = FaultPlan::uniform(
        41,
        &[fault::site::SOURCE_KG, fault::site::SOURCE_SCENE],
        FaultKind::DropResult,
        1.0,
    );
    let guard = fault::install(plan);

    let request = r#"{"question": "Does the dog appear in the car?"}"#;
    // Threshold (default 3) consecutive failures per source open both
    // breakers; every request is refused with a typed 503 either way.
    for _ in 0..3 {
        let (status, head, body) = http(addr, "POST", "/ask", request);
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After"), "{head}");
        let err: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(err["code"].as_str(), Some("unavailable"), "{body}");
    }
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health["status"].as_str(), Some("unhealthy"), "{body}");
    assert_eq!(health["sources"]["kg"].as_str(), Some("open"), "{body}");
    assert_eq!(health["fault_plan_armed"].as_bool(), Some(true), "{body}");

    // Chaos over: past the cooldown the half-open probes succeed, the
    // breakers close, and service is fully restored. A rule-less plan
    // replaces the chaos plan instead of none at all: holding the install
    // lock keeps other tests' plans away from this server (and its
    // degraded answers out of their counters) until the test ends.
    drop(guard);
    let _quiet = fault::install(FaultPlan::new(0));
    std::thread::sleep(Duration::from_millis(900));
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 200, "{body}");
    let answered: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(answered["status"].as_str(), Some("ok"), "{body}");
    let (_, _, body) = http(addr, "GET", "/healthz", "");
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"), "{body}");

    shutdown_and_join(addr, handle);
}

#[test]
fn degraded_ask_response_is_labeled_over_http() {
    let mvqa = Mvqa::generate_small(60, 3);
    let mut config = SvqaConfig::default();
    config.degrade.breaker.failure_threshold = u32::MAX;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let (addr, handle) = start_server(system, ServeConfig::default());
    let guard = fault::install(kg_drop_plan(51, 1.0));

    let (status, _, body) = http(
        addr,
        "POST",
        "/ask",
        r#"{"question": "Does the dog appear in the car?"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let answered: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(answered["status"].as_str(), Some("degraded"), "{body}");
    assert_eq!(
        answered["missing_sources"][0].as_str(),
        Some("kg"),
        "{body}"
    );
    assert!(answered["confidence_penalty"].as_f64().unwrap_or(0.0) > 0.0, "{body}");
    assert!(answered["answer_text"].as_str().is_some(), "{body}");

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(metrics.contains("svqa_answers_degraded_total"), "{metrics}");
    assert!(metrics.contains("svqa_faults_injected_total"), "{metrics}");
    drop(guard);
    shutdown_and_join(addr, handle);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// A shared world for the property sweep: built once, before any plan
    /// in this test is armed, so the build itself stays fault-free.
    fn shared() -> &'static (Svqa, Mvqa) {
        static WORLD: OnceLock<(Svqa, Mvqa)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let mvqa = Mvqa::generate_small(40, 3);
            let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
            (system, mvqa)
        })
    }

    fn kind_of(code: u8, latency_ms: u64) -> Option<FaultKind> {
        match code % 5 {
            0 => Some(FaultKind::Error),
            1 => Some(FaultKind::Latency(latency_ms)),
            2 => Some(FaultKind::DropResult),
            3 => Some(FaultKind::CorruptLabel),
            _ => None, // leave the site clean
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // The robustness contract under arbitrary seeded plans: `answer_guarded`
        // never panics and never wedges — every question returns an answer
        // (possibly degraded) or a typed error within bounded wall-time.
        #[test]
        fn arbitrary_fault_plans_never_panic_or_wedge(
            seed in 0u64..u64::MAX,
            rules in prop::collection::vec((0.0f64..0.6, 0u8..10, 0u64..50), 9),
        ) {
            let (system, mvqa) = shared();
            let mut plan = FaultPlan::new(seed);
            for (site, (p, code, latency)) in fault::site::ALL.iter().zip(&rules) {
                if let Some(kind) = kind_of(*code, *latency) {
                    plan = plan.with_fault(site, SiteFault::new(kind, *p));
                }
            }
            let guard = fault::install(plan);
            for q in mvqa.questions.iter().take(4) {
                let t0 = Instant::now();
                let deadline = Instant::now() + Duration::from_millis(500);
                let result = system.answer_guarded(&q.question, None, Some(deadline));
                prop_assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "wedged for {:?} under {:?}",
                    t0.elapsed(),
                    guard.injector().plan()
                );
                if let Err(e) = result {
                    // A typed error, with a non-empty rendering.
                    prop_assert!(!e.to_string().is_empty());
                }
            }
            drop(guard);
        }
    }
}

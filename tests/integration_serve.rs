//! Integration tests for the query-serving subsystem (`svqa serve`): real
//! TCP round trips against [`QueryServer`] — answers, cross-request cache
//! persistence, admission-control rejection, deadline enforcement, and
//! graceful drain.

mod common;

use common::{http, shutdown_and_join};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use svqa::dataset::Mvqa;
use svqa::{ServeConfig, Svqa, SvqaConfig};

fn start_server(config: ServeConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let mvqa = Mvqa::generate_small(60, 3);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    common::start_server(system, config)
}

#[test]
fn ask_twice_hits_the_persistent_cache_then_drains_cleanly() {
    let (addr, handle) = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    let request = r#"{"question": "Does the dog appear in the car?"}"#;
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 200, "{body}");
    let first: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(first["answer_text"].as_str().is_some(), "{body}");
    assert_eq!(first["cache"]["path_hits"].as_u64(), Some(0), "{body}");

    // The same question again: the §V-B cache is shared across requests,
    // so the second run must be answered out of the path pool.
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 200, "{body}");
    let second: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(second["answer_text"], first["answer_text"]);
    assert!(
        second["cache"]["path_hits"].as_u64().unwrap_or(0) >= 1,
        "second request saw no cache hits: {body}"
    );

    // Health stays inline (not queued) and reports shape.
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert!(health["merged_vertices"].as_u64().unwrap() > 0);

    // Metrics routes are mounted on the same port.
    let (status, _, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("svqa_server_requests_total"), "{body}");

    shutdown_and_join(addr, handle);
}

#[test]
fn batch_answers_in_order_with_per_question_errors() {
    let (addr, handle) = start_server(ServeConfig::default());

    let request = r#"{"questions": ["Does the dog appear in the car?", "the red dog"]}"#;
    let (status, _, body) = http(addr, "POST", "/batch", request);
    assert_eq!(status, 200, "{body}");
    let parsed: serde_json::Value = serde_json::from_str(&body).unwrap();
    let answers = parsed["answers"].as_array().expect("answers array");
    assert_eq!(answers.len(), 2);
    assert!(answers[0]["answer_text"].as_str().is_some(), "{body}");
    // "the red dog" has no verb: a per-question parse error, not a batch
    // failure.
    assert!(answers[1]["error"].as_str().is_some(), "{body}");

    shutdown_and_join(addr, handle);
}

#[test]
fn full_admission_queue_rejects_with_429_and_retry_after() {
    let (addr, handle) = start_server(ServeConfig {
        queue_depth: 0, // deterministically full
        ..ServeConfig::default()
    });

    let (status, head, body) = http(
        addr,
        "POST",
        "/ask",
        r#"{"question": "Does the dog appear in the car?"}"#,
    );
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After"), "{head}");

    // Health is answered inline, so the service stays green under
    // rejection pressure.
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    shutdown_and_join(addr, handle);
}

#[test]
fn exhausted_deadline_is_answered_with_504() {
    let (addr, handle) = start_server(ServeConfig::default());

    let request = r#"{"question": "Does the dog appear in the car?", "deadline_ms": 0}"#;
    let (status, head, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    // Like 429 and 503, a timeout tells the client when to retry.
    assert!(head.contains("Retry-After"), "{head}");

    shutdown_and_join(addr, handle);
}

#[test]
fn malformed_requests_get_4xx_not_a_hung_connection() {
    let (addr, handle) = start_server(ServeConfig::default());

    let (status, _, body) = http(addr, "POST", "/ask", "this is not json");
    assert_eq!(status, 400);
    // Structured error body: a machine-readable code next to the message.
    let err: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(err["code"].as_str(), Some("bad-json"), "{body}");
    let (status, _, body) = http(addr, "POST", "/ask", r#"{"no_question": 1}"#);
    assert_eq!(status, 400);
    let err: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(err["code"].as_str(), Some("missing-field"), "{body}");
    let (status, _, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    // Wrong method on a known route is 405, not 404.
    let (status, head, _) = http(addr, "GET", "/ask", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow"), "{head}");

    // Malformed traffic shows up in the metrics exposition.
    let (status, _, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("svqa_server_requests_bad_total"), "{body}");

    shutdown_and_join(addr, handle);
}

#[test]
fn lint_rejected_question_gets_400_with_diagnostics_and_server_stays_up() {
    let (addr, handle) = start_server(ServeConfig::default());

    // A typo'd predicate is refused at the door — no worker slot burnt —
    // with the full diagnostics in the body, suggestion included.
    let request = r#"{"question": "Is the dog weering the hat?"}"#;
    let (status, _, body) = http(addr, "POST", "/ask", request);
    assert_eq!(status, 400, "{body}");
    let rejected: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(rejected["code"].as_str(), Some("lint-rejected"), "{body}");
    let diagnostics = rejected["diagnostics"]
        .as_array()
        .expect("diagnostics array");
    assert!(
        diagnostics
            .iter()
            .any(|d| d["code"].as_str() == Some("unknown-predicate")
                && d["suggestion"].as_str() == Some("wear")),
        "{body}"
    );

    // The service is healthy afterwards and still answers clean questions.
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _, body) = http(
        addr,
        "POST",
        "/ask",
        r#"{"question": "Is the dog wearing the hat?"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let answered: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(answered["answer_text"].as_str().is_some(), "{body}");

    shutdown_and_join(addr, handle);
}

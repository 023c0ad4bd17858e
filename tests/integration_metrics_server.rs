//! The live metrics endpoint over a real TCP connection: a built world
//! answers profiled questions, then the query server's `/metrics` must
//! serve the registry in Prometheus text exposition format and
//! `/profiles/recent` the actual profiles those questions produced.
//!
//! The profiles are built through the library before the server starts:
//! the served `/ask` and `/batch` never call `QueryRun::profile()`, so a
//! server alone leaves the ring empty, and this test shows only that the
//! route serves what library code in the same process pushed.

mod common;

use common::{http, shutdown_and_join, start_server};
use svqa::{ServeConfig, Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

#[test]
fn live_endpoint_serves_real_pipeline_data() {
    let mvqa = Mvqa::generate_small(60, 13);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let marker = "Does the dog appear in the car?";
    let run = system.run(system.prepare(marker), None, None);
    run.result.as_ref().expect("answered");
    run.profile().expect("profiled answer");
    for q in mvqa.questions.iter().take(4) {
        let _ = system
            .run(system.prepare(&q.question), None, None)
            .profile();
    }

    // Serve the same system on port 0 (free port): its metrics routes read
    // the registry and ring the pipeline writes to, as `svqa-cli serve`
    // does.
    let (addr, handle) = start_server(system, ServeConfig::default());

    // /metrics: Prometheus 0.0.4 text with the pipeline's stage
    // histograms, counters, and cumulative buckets ending at +Inf.
    let (_, head, body) = http(addr, "GET", "/metrics", "");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(
        body.contains("# TYPE svqa_span_duration_seconds histogram"),
        "{body}"
    );
    for stage in ["parse", "match"] {
        assert!(
            body.contains(&format!(
                "svqa_span_duration_seconds_count{{stage=\"{stage}\"}}"
            )),
            "missing {stage} histogram:\n{body}"
        );
    }
    assert!(body.contains("le=\"+Inf\""), "{body}");
    assert!(body.contains("svqa_questions_answered_total"), "{body}");
    assert!(
        body.contains("svqa_cache_hit_rate{pool=\"overall\"}"),
        "{body}"
    );
    // Every non-comment line is `name{labels} value` with a float value —
    // the minimal parseability contract a scraper relies on.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample line: {line}"
        );
    }

    // /profiles/recent: the ring holds the profiles just recorded,
    // including the marker question with its plan details.
    let (_, head, body) = http(addr, "GET", "/profiles/recent", "");
    assert!(head.contains("application/json"), "{head}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let profiles = v.as_array().expect("profiles array");
    assert!(!profiles.is_empty());
    let found = profiles
        .iter()
        .find(|p| p["question"].as_str() == Some(marker))
        .unwrap_or_else(|| panic!("marker profile missing from {body}"));
    assert!(found["total_ns"].as_u64().unwrap_or(0) > 0);
    assert!(found["quads"].as_array().is_some_and(|q| !q.is_empty()));

    // The server keeps serving after the JSON routes.
    let (_, head, _) = http(addr, "GET", "/metrics.json", "");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    shutdown_and_join(addr, handle);
}

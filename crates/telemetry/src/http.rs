//! The observability routes, mounted by `svqa serve` next to its query
//! routes on one port:
//!
//! * `GET /metrics` — the live [`Recorder`] snapshot in Prometheus text
//!   exposition format;
//! * `GET /metrics.json` — the same snapshot as JSON;
//! * `GET /profiles/recent` — the [`ProfileRing`] contents as a JSON
//!   array (newest last).

use crate::exposition::prometheus_text;
use crate::recent::ProfileRing;
use crate::recorder::Recorder;
use crate::router::{Response, Router};

/// Add the observability routes over `recorder` and `profiles` to
/// `router`.
pub fn metrics_routes<'h>(
    router: Router<'h>,
    recorder: &Recorder,
    profiles: &ProfileRing,
) -> Router<'h> {
    let text_recorder = recorder.clone();
    let json_recorder = recorder.clone();
    let profiles = profiles.clone();
    router
        .get("/metrics", move |_| {
            // The version parameter is part of the exposition format
            // contract; Prometheus keys parsing off it.
            Response::text(200, prometheus_text(&text_recorder.snapshot()))
                .with_content_type("text/plain; version=0.0.4; charset=utf-8")
        })
        .get("/metrics.json", move |_| {
            Response::json(200, json_recorder.snapshot().to_json_pretty())
        })
        .get("/profiles/recent", move |_| {
            Response::json(200, profiles.to_json())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::HttpServer;
    use serde_json::json;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_owned(), body.to_owned())
    }

    /// Serve the metrics routes over a sample registry for `connections`
    /// connections, one after another, on a background thread. (Routing
    /// errors and I/O timeouts are covered by the router's own tests.)
    fn serve_sample(connections: usize) -> SocketAddr {
        let recorder = Recorder::new();
        recorder.incr_counter_by("questions_answered", 3);
        recorder.record_span("parse", Duration::from_micros(50));
        let profiles = ProfileRing::new(4);
        profiles.push(json!({"question": "How many dogs?"}));
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("local addr");
        std::thread::spawn(move || {
            let router = metrics_routes(Router::new(), &recorder, &profiles);
            for _ in 0..connections {
                if let Ok(stream) = server.accept() {
                    let _ = HttpServer::handle_connection(stream, &router);
                }
            }
        });
        addr
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let addr = serve_sample(1);
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("svqa_questions_answered_total 3"), "{body}");
        assert!(body.contains("svqa_span_duration_seconds_count"), "{body}");
    }

    #[test]
    fn json_and_profile_routes_serve_json() {
        let addr = serve_sample(2);
        let (head, body) = get(addr, "/metrics.json");
        assert!(head.contains("application/json"), "{head}");
        let snap: crate::MetricsSnapshot = serde_json::from_str(&body).unwrap();
        assert_eq!(snap.counters["questions_answered"], 3);

        let (_, body) = get(addr, "/profiles/recent");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        match v {
            serde_json::Value::Array(a) => {
                assert_eq!(a.len(), 1);
                assert_eq!(a[0]["question"], json!("How many dogs?"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}

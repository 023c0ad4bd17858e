//! Due-time accounting: a stall in the server must show up in the
//! latency of every request that was due behind it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;
use svqabench::http;
use svqabench::loadgen::{fell_behind, open_loop, Sample};
use svqabench::rng::Planned;

/// A one-thread fake server that answers `total` requests in arrival
/// order, sleeping `stall` before answering request number `stall_at`.
fn fake_server(stall_at: usize, stall: Duration, total: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for n in 0..total {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line == "\r\n" {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).unwrap();
            if n == stall_at {
                std::thread::sleep(stall);
            }
            reader
                .into_inner()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
                .unwrap();
        }
    });
    addr
}

#[test]
fn a_stall_inflates_the_latency_of_requests_due_behind_it() {
    // 40 requests due every 5 ms; the server stalls 200 ms on the 10th.
    // With one generator thread, everything due during the stall waits
    // in the generator.
    let stall_ms = 200u64;
    let addr = fake_server(9, Duration::from_millis(stall_ms), 40);
    let plan: Vec<Planned> = (0..40u64)
        .map(|i| Planned {
            due_ns: i * 5_000_000,
            item: i as usize,
        })
        .collect();
    let samples = open_loop(&plan, 1, |_, _| {
        http::request(addr, "POST", "/ask", "{}", Duration::from_secs(5))
            .map(|r| r.status)
            .unwrap_or(0)
    });
    assert_eq!(samples.len(), 40);
    assert!(samples.iter().all(|s| s.outcome == 200));
    assert!(samples[9].latency_ns() >= stall_ms * 1_000_000);
    // Request k was due 5·(k−9) ms after the stalled one, so it waited at
    // least the rest of the stall in the generator.
    for (k, s) in samples.iter().enumerate().skip(10) {
        let behind_ms = 5 * (k as u64 - 9);
        if behind_ms >= stall_ms {
            break;
        }
        let floor_ns = (stall_ms - behind_ms) * 1_000_000;
        assert!(
            s.latency_ns() >= floor_ns,
            "request {k}: {} ns",
            s.latency_ns()
        );
        assert!(s.late_ns() >= floor_ns, "request {k} left early");
    }
    // Their own round trips stayed short: the inflation is queueing in
    // the generator, which timing from the send would have hidden.
    let s = &samples[12];
    assert!(s.done_ns - s.sent_ns < stall_ms * 1_000_000 / 2);

    // The same stall makes the run invalid against a 30 ms p99 limit:
    // the requests queued behind it left the generator far too late.
    let p99 = fell_behind(&late_ms(&samples), 30.0).expect("the generator fell behind");
    assert!(p99 > 100.0, "{p99} ms");
}

fn late_ms<T>(samples: &[Sample<T>]) -> Vec<f64> {
    samples.iter().map(|s| s.late_ns() as f64 / 1e6).collect()
}

#[test]
fn an_idle_generator_is_not_late() {
    let addr = fake_server(usize::MAX, Duration::ZERO, 10);
    let plan: Vec<Planned> = (0..10u64)
        .map(|i| Planned {
            due_ns: i * 20_000_000,
            item: 0,
        })
        .collect();
    let samples = open_loop(&plan, 2, |_, _| {
        http::request(addr, "GET", "/", "", Duration::from_secs(5)).is_ok()
    });
    assert!(samples.iter().all(|s| s.outcome));
    // Requests 20 ms apart on an instant server: no request waits for a
    // free generator thread (a loose bound absorbs timer slack).
    assert!(samples.iter().all(|s| s.late_ns() < 10_000_000));
    assert_eq!(fell_behind(&late_ms(&samples), 30.0), None);
}

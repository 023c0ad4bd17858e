//! The query-serving subsystem: `svqa serve`.
//!
//! A long-running HTTP service over a built SVQA system, on the
//! dependency-free `std::net` stack of [`svqa_telemetry::router`]. One port
//! serves both query and observability routes:
//!
//! * `POST /ask` — `{"question": "...", "deadline_ms"?: N}` → the answer,
//!   plus the exact cache traffic this question generated;
//! * `POST /batch` — `{"questions": [...], "deadline_ms"?: N}` → per-
//!   question answers via the §V-B scheduler, each on the `/ask` path;
//! * `GET /healthz` — liveness plus graph and gate shape (answered
//!   without a permit, so health stays green under load);
//! * `POST /shutdown` — graceful drain: stop accepting, finish admitted
//!   requests, then [`QueryServer::serve`] returns;
//! * `GET /metrics`, `/metrics.json`, `/profiles/recent` — telemetry.
//!
//! ## Execution model
//!
//! Each accepted connection is served on its own short-lived thread,
//! which parses the request, runs an `/ask` question's [`Svqa::prepare`]
//! (parse and lint) once, and then answers it itself: there is no worker
//! pool and no job queue. Query work is **admission-controlled** by
//! a gate of `workers` permits. While `queue_depth` requests already wait
//! for one, the next is rejected at once with `429 Too Many Requests` and
//! a `Retry-After` header: under overload the service sheds load instead
//! of accumulating latency. Each request carries a deadline (`deadline_ms`,
//! default [`ServeConfig::default_deadline`]); a permit wait that reaches
//! it, or a run that ends past it, gets `504 Gateway Timeout` and counts
//! in `server_deadline_exceeded`. Each admitted request's permit wait is
//! recorded as the `server_queue_wait` span.
//!
//! ## Where serving memory goes
//!
//! A thread that allocates takes a glibc malloc arena, and an arena keeps
//! the heap high-water of every request served on it: when a connection
//! thread exits, the next one reuses its arena, pages included. So the
//! lever on the served process's RSS is the heap one request peaks at,
//! not the number of threads. Read from `/proc/self/smaps` on a 2-vCPU
//! box, a 10 s ask-wide benchmark run ends with 6 more arena heaps than
//! set-up left. With 12-byte relation pairs they held about 1.1 MB of
//! the 3.5–3.6 MB `rss_mb`; with 4-byte pairs about 0.65 MB. Two
//! variants were measured and not kept. Serving every connection on the
//! accept thread serialises requests, so it was a measurement only: it
//! read `rss_mb` 0.4–0.85 MB lower with 12-byte pairs and 0–0.25 MB lower
//! with 4-byte ones. A pool of four reused connection threads read
//! 0.3–0.6 MB higher.
//!
//! ## Cache persistence
//!
//! The server owns one [`KeyCentricCache`] built from the scheduler
//! configuration and feeds it to every `/ask` and `/batch` — scopes and
//! paths cached by one request accelerate all later ones, which is the
//! §V-B key-centric cache doing its job across requests instead of only
//! within a batch.

use crate::degrade::AnswerStatus;
use crate::error::SvqaError;
use crate::pipeline::{Prepared, Svqa};
use serde_json::{to_value, Map, Value};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svqa_executor::cache::KeyCentricCache;
use svqa_executor::scheduler::QueryScheduler;
use svqa_executor::Answer;
use svqa_telemetry::router::{HttpServer, Request, Response, Router};
use svqa_telemetry::{counter, gauge, global, global_profiles, metrics_routes, stage};

/// Tuning for [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests answered at once: the admission gate's permits (≥ 1).
    pub workers: usize,
    /// Requests that may wait for a permit; 0 rejects everything (useful
    /// in tests).
    pub queue_depth: usize,
    /// Deadline applied when a request does not set `deadline_ms`.
    pub default_deadline: Duration,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(10),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Why [`Gate::enter`] turned a request away.
#[derive(Debug, PartialEq)]
enum Refusal {
    /// `queue_depth` requests already wait for a permit: shed load (429).
    Full,
    /// The server is draining for shutdown (503).
    Closed,
    /// No permit came free before the deadline (504).
    Expired,
}

/// The admission gate: at most `workers` requests run at once, at most
/// `queue_depth` more wait for a permit, and none enter once closed.
/// Every request passes through the waiting line, so `queue_depth: 0`
/// rejects deterministically, which is what makes the 429 path testable.
struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
    closed: bool,
}

impl GateState {
    /// Admitted requests, waiting or running: `/healthz`'s `in_flight`.
    fn in_flight(&self) -> usize {
        self.running + self.waiting
    }

    fn publish(&self) {
        let in_flight = self.in_flight() as f64;
        global().set_gauge(gauge::SERVER_REQUESTS_IN_FLIGHT, in_flight);
    }
}

/// One of the gate's `workers` permits; dropping it (on unwind too) frees
/// the permit for the next waiter.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::default(),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        // No panic can happen while the lock is held, so a poisoned gate
        // still holds consistent counts.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for a permit, but never past `deadline`. The wait of every
    /// admitted request is recorded as `server_queue_wait`.
    fn enter(&self, deadline: Instant) -> Result<Permit<'_>, Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        if state.waiting >= self.queue_depth {
            return Err(Refusal::Full);
        }
        state.waiting += 1;
        state.publish();
        let admitted = Instant::now();
        // A free permit is taken before the deadline is checked, so a
        // wake-up that races a timeout is never lost.
        let outcome = loop {
            if state.running < self.workers {
                state.running += 1;
                break Ok(Permit(self));
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(Refusal::Expired);
            }
            state = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        state.waiting -= 1;
        state.publish();
        drop(state);
        global().record_span(stage::SERVER_QUEUE_WAIT, admitted.elapsed());
        outcome
    }

    /// Refuse new requests; admitted ones still get their permits.
    fn close(&self) {
        self.lock().closed = true;
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        state.publish();
        drop(state);
        self.0.freed.notify_one();
    }
}

/// A bound (but not yet serving) query server.
pub struct QueryServer {
    system: Svqa,
    config: ServeConfig,
    cache: KeyCentricCache,
    http: HttpServer,
    gate: Gate,
    shutdown: AtomicBool,
}

impl QueryServer {
    /// Bind `addr` (port 0 picks a free port) over a built system. The
    /// persistent cache is shaped by `system.config().scheduler`
    /// (granularity, policy, pool size).
    pub fn bind(system: Svqa, addr: &str, config: ServeConfig) -> io::Result<QueryServer> {
        let mut http = HttpServer::bind(addr)?;
        http.set_io_timeout(Some(config.io_timeout));
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        Ok(QueryServer {
            system,
            cache,
            http,
            gate: Gate::new(config.workers, config.queue_depth),
            shutdown: AtomicBool::new(false),
            config,
        })
    }

    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.http.local_addr()
    }

    /// The persistent cross-request cache (exposed for tests and stats).
    pub fn cache(&self) -> &KeyCentricCache {
        &self.cache
    }

    /// Serve until `POST /shutdown`: connection threads run on scoped
    /// threads borrowing `self`. On shutdown the accept loop stops, the
    /// gate closes, admitted requests finish, and this returns `Ok(())` —
    /// the graceful-exit contract the CI smoke test checks.
    pub fn serve(&self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let router = self.router(addr);
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::SeqCst) {
                let Ok(stream) = self.http.accept() else {
                    continue;
                };
                let router = &router;
                scope.spawn(move || {
                    let _ = HttpServer::handle_connection(stream, router);
                });
            }
            // Drain: no new admissions; admitted requests finish, then the
            // scope joins every connection thread.
            self.gate.close();
        });
        Ok(())
    }

    fn router(&self, addr: SocketAddr) -> Router<'_> {
        let router = Router::new()
            .get("/", |_: &Request| {
                Response::text(
                    200,
                    "svqa query server\n\n\
                     POST /ask         {\"question\": \"...\", \"deadline_ms\"?: N}\n\
                     POST /batch       {\"questions\": [...], \"deadline_ms\"?: N}\n\
                     GET  /healthz     liveness + shape\n\
                     POST /shutdown    drain and exit\n\
                     GET  /metrics     Prometheus text exposition\n\
                     GET  /metrics.json\n\
                     GET  /profiles/recent\n",
                )
            })
            .get("/healthz", |_: &Request| self.handle_healthz())
            .post("/ask", |req: &Request| self.handle_ask(req))
            .post("/batch", |req: &Request| self.handle_batch(req))
            .post("/shutdown", move |_: &Request| self.handle_shutdown(addr));
        metrics_routes(router, global(), global_profiles())
    }

    fn handle_healthz(&self) -> Response {
        let stats = self.system.build_stats();
        let sources: Map = self
            .system
            .breaker_states()
            .into_iter()
            .map(|(source, state)| (source.name().to_owned(), to_value(state.name())))
            .collect();
        json_response(
            200,
            serde_json::json!({
                "status": self.system.health_status(),
                "sources": Value::Object(sources),
                "fault_plan_armed": svqa_fault::active().is_some(),
                "merged_vertices": stats.merged_vertices,
                "merged_edges": stats.merged_edges,
                "workers": self.config.workers.max(1),
                "queue_depth": self.config.queue_depth,
                "in_flight": self.gate.lock().in_flight(),
                "cache_entries": self.cache.len(),
            }),
        )
    }

    fn handle_shutdown(&self, addr: SocketAddr) -> Response {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept()`; a self-connection
        // wakes it so it can observe the flag. The probe connection is
        // dropped immediately and handled as a clean zero-byte request.
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        Response::json(200, "{\"status\": \"draining\"}")
    }

    fn handle_ask(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(question) = body.get("question").and_then(|q| q.as_str()) else {
            return bad_request("missing-field", "missing string field 'question'");
        };
        // Parse and lint at the door: a question that does not parse, or
        // whose query graph provably cannot produce answers, is rejected on
        // the connection thread with the full diagnostics, without taking
        // a permit.
        let prepared = self.system.prepare(question);
        if let Err(e) = &prepared.gate {
            return error_response(e);
        }
        let deadline = self.deadline_of(&body);
        self.admit(deadline, || self.answer_one(prepared, deadline))
    }

    fn handle_batch(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let Some(questions) = body.get("questions").and_then(|q| q.as_array()) else {
            return bad_request("missing-field", "missing array field 'questions'");
        };
        let strings = questions.iter().map(|q| q.as_str().map(str::to_owned));
        let Some(batch): Option<Vec<String>> = strings.collect() else {
            return bad_request("bad-field", "'questions' must be strings");
        };
        let deadline = self.deadline_of(&body);
        self.admit(deadline, || self.answer_many(&batch, deadline))
    }

    fn deadline_of(&self, body: &serde_json::Value) -> Instant {
        let budget = body
            .get("deadline_ms")
            .and_then(|v| v.as_u64())
            .map_or(self.config.default_deadline, Duration::from_millis);
        Instant::now() + budget
    }

    /// Admission control: wait at the gate for a permit, then run
    /// `answer` on this connection thread, but answer 504 past `deadline`.
    fn admit(&self, deadline: Instant, answer: impl FnOnce() -> Response) -> Response {
        let _permit = match self.gate.enter(deadline) {
            Ok(permit) => permit,
            Err(Refusal::Full) => {
                global().incr_counter(counter::SERVER_REJECTED);
                return Response::json(429, "{\"error\": \"admission queue full\"}")
                    .with_header("Retry-After", "1");
            }
            Err(Refusal::Closed) => {
                return Response::json(503, "{\"error\": \"server is shutting down\"}")
            }
            Err(Refusal::Expired) => return deadline_response(),
        };
        let fault = svqa_fault::draw(svqa_fault::site::SERVE_WORKER);
        if fault == Some(svqa_fault::FaultKind::DropResult) {
            // The permit holder "loses" the request without answering it.
            return Response::json(500, "{\"error\": \"worker dropped the request\"}");
        }
        if Instant::now() >= deadline {
            return deadline_response();
        }
        if let Some(svqa_fault::FaultKind::Latency(ms)) = fault {
            svqa_fault::apply_latency(ms, Some(deadline));
        }
        // A panic while answering (injected or genuine) is caught, counted
        // and answered with a 500; the permit is freed either way.
        let run = catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(svqa_fault::FaultKind::Error) {
                panic!("injected fault: serve.worker");
            }
            answer()
        }));
        let response = run.unwrap_or_else(|_| {
            global().incr_counter(counter::SERVER_WORKER_PANICS);
            Response::json(500, "{\"error\": \"internal panic while answering\"}")
        });
        // The run is never interrupted; one that ends late is still a 504.
        if Instant::now() >= deadline {
            return deadline_response();
        }
        response
    }

    fn answer_one(&self, prepared: Prepared, deadline: Instant) -> Response {
        let run = self.system.run(prepared, Some(&self.cache), Some(deadline));
        match run.result {
            Ok(guarded) => {
                let mut body = answer_fields(&guarded.answer, &guarded.status);
                body.insert("question".to_owned(), to_value(&run.trace.question));
                body.insert("cache".to_owned(), to_value(&run.trace.cache));
                json_response(200, Value::Object(body))
            }
            Err(e) => error_response(&e),
        }
    }

    fn answer_many(&self, questions: &[String], deadline: Instant) -> Response {
        let refs: Vec<&str> = questions.iter().map(String::as_str).collect();
        let outcome = self.system.run_batch(&refs, &self.cache, Some(deadline));
        let answers: Vec<Value> = outcome
            .answers
            .iter()
            .zip(&outcome.statuses)
            .map(|(r, status)| match r {
                Ok(a) => Value::Object(answer_fields(a, status)),
                Err(e) => serde_json::json!({ "error": e.to_string() }),
            })
            .collect();
        json_response(
            200,
            serde_json::json!({ "answers": answers, "cache": outcome.cache_stats }),
        )
    }
}

/// An answer's response fields: the answer, its text and status label,
/// and for a degraded answer the missing sources and confidence penalty.
fn answer_fields(answer: &Answer, status: &AnswerStatus) -> Map {
    let mut fields = Map::new();
    fields.insert("answer".to_owned(), to_value(answer));
    fields.insert("answer_text".to_owned(), to_value(&answer.to_string()));
    fields.insert("status".to_owned(), to_value(status.label()));
    if let AnswerStatus::Degraded {
        missing_sources,
        confidence_penalty,
    } = status
    {
        fields.insert("missing_sources".to_owned(), to_value(missing_sources));
        fields.insert(
            "confidence_penalty".to_owned(),
            to_value(confidence_penalty),
        );
    }
    fields
}

fn json_response(status: u16, body: Value) -> Response {
    Response::json(
        status,
        serde_json::to_string(&body).expect("response serialization is infallible"),
    )
}

/// Count a query request and parse its JSON body.
fn parse_body(req: &Request) -> Result<serde_json::Value, Response> {
    global().incr_counter(counter::SERVER_REQUESTS);
    let Some(text) = req.body_str() else {
        return Err(bad_request("bad-encoding", "body is not UTF-8"));
    };
    serde_json::from_str(text).map_err(|e| bad_request("bad-json", &format!("invalid JSON: {e}")))
}

/// A structured 400: `{"error": ..., "code": ...}`, counted in
/// `server_requests_bad` so malformed traffic is visible in `/metrics`.
fn bad_request(code: &str, message: &str) -> Response {
    global().incr_counter(counter::SERVER_REQUESTS_BAD);
    json_response(400, serde_json::json!({ "error": message, "code": code }))
}

/// A 504, counted in `server_deadline_exceeded`.
fn deadline_response() -> Response {
    global().incr_counter(counter::SERVER_DEADLINE_EXCEEDED);
    // A 504 means the service was too slow for *this* deadline, not that it
    // is down — tell the client when trying again is reasonable.
    Response::json(504, "{\"error\": \"deadline exceeded\"}").with_header("Retry-After", "1")
}

/// `Retry-After` seconds for an `Unavailable` error: the longest remaining
/// breaker cooldown, rounded up, never below 1 s.
fn retry_after_secs(retry_after_ms: u64) -> u64 {
    retry_after_ms.div_ceil(1000).max(1)
}

fn error_response(e: &SvqaError) -> Response {
    let mut body = Map::new();
    body.insert("error".to_owned(), to_value(&e.to_string()));
    // Lint rejections carry the machine-readable diagnostics alongside the
    // human-readable summary, so clients can surface "did you mean".
    let status = match e {
        SvqaError::Parse(_) => 400,
        SvqaError::Lint(report) => {
            body.insert("code".to_owned(), to_value("lint-rejected"));
            body.insert("diagnostics".to_owned(), to_value(&report.diagnostics));
            400
        }
        SvqaError::Exec(_) => 500,
        SvqaError::Unavailable {
            missing,
            retry_after_ms,
        } => {
            body.insert("code".to_owned(), to_value("unavailable"));
            body.insert("missing_sources".to_owned(), to_value(missing));
            body.insert("retry_after_ms".to_owned(), to_value(retry_after_ms));
            503
        }
    };
    if status == 400 {
        global().incr_counter(counter::SERVER_REQUESTS_BAD);
    }
    let response = json_response(status, Value::Object(body));
    if let SvqaError::Unavailable { retry_after_ms, .. } = e {
        response.with_header(
            "Retry-After",
            &retry_after_secs(*retry_after_ms).to_string(),
        )
    } else {
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn zero_depth_gate_always_rejects() {
        let gate = Gate::new(4, 0);
        for _ in 0..3 {
            assert_eq!(gate.enter(far()).err(), Some(Refusal::Full));
        }
    }

    #[test]
    fn no_more_than_workers_run_at_once() {
        let gate = Gate::new(2, 16);
        let (running, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _permit = gate.enter(far()).expect("admitted");
                    most.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    (0..100).for_each(|_| std::thread::yield_now());
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(most.into_inner() <= 2);
        assert_eq!(gate.lock().in_flight(), 0);
    }

    #[test]
    fn closed_gate_refuses_new_requests_but_admitted_ones_finish() {
        let gate = Gate::new(1, 1);
        let holder = gate.enter(far()).expect("admitted");
        assert_eq!(gate.enter(Instant::now()).err(), Some(Refusal::Expired));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.enter(far()).is_ok());
            while gate.lock().waiting == 0 {
                std::thread::yield_now();
            }
            assert_eq!(gate.enter(far()).err(), Some(Refusal::Full));
            gate.close();
            assert_eq!(gate.enter(far()).err(), Some(Refusal::Closed));
            drop(holder);
            assert!(waiter.join().unwrap(), "the admitted waiter got no permit");
        });
        assert_eq!(gate.lock().in_flight(), 0);
    }
}

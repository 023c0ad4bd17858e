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
//! * `GET /healthz` — liveness plus graph/queue shape (answered inline,
//!   never queued, so health stays green under load);
//! * `POST /shutdown` — graceful drain: stop accepting, finish queued
//!   work, then [`QueryServer::serve`] returns;
//! * `GET /metrics`, `/metrics.json`, `/profiles/recent` — telemetry.
//!
//! ## Execution model
//!
//! Connections are accepted on the caller's thread and parsed on
//! short-lived connection threads, which also run an `/ask` question's
//! [`Svqa::prepare`] (parse and lint), once. Query work is
//! **admission-controlled**: a bounded queue sits between connection
//! threads and a fixed pool of workers, which run [`Svqa::run`]. When the
//! queue is full the request is rejected immediately with
//! `429 Too Many Requests` and a `Retry-After` header — under overload the
//! service sheds load instead of accumulating latency. Each request
//! carries a deadline (`deadline_ms`, default
//! [`ServeConfig::default_deadline`]); a request that cannot be answered
//! in time gets `504 Gateway Timeout` and is counted in
//! `server_deadline_exceeded`. Workers also check the deadline before
//! starting execution, so queued-but-expired work is skipped, not run.
//!
//! ## Cache persistence
//!
//! The server owns one [`ShardedCache`] built from the scheduler
//! configuration and feeds it to every `/ask` and `/batch` — scopes and
//! paths cached by one request accelerate all later ones, which is the
//! §V-B key-centric cache doing its job across requests instead of only
//! within a batch.

use crate::degrade::AnswerStatus;
use crate::error::SvqaError;
use crate::pipeline::{Prepared, Svqa};
use serde_json::{to_value, Map, Value};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svqa_executor::cache::ShardedCache;
use svqa_executor::scheduler::QueryScheduler;
use svqa_executor::Answer;
use svqa_telemetry::router::{HttpServer, Request, Response, Router};
use svqa_telemetry::{counter, gauge, global, global_profiles, metrics_routes};

/// Tuning for [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; 0 rejects everything (useful in tests).
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

/// What a worker is asked to do.
enum Work {
    Ask(Prepared),
    Batch(Vec<String>),
}

/// One admitted request: the work, its deadline, and the channel the
/// waiting connection thread blocks on.
struct Job {
    work: Work,
    deadline: Instant,
    reply: mpsc::SyncSender<Response>,
}

/// Why [`BoundedQueue::try_push`] refused a job.
enum PushError {
    /// The queue is at capacity — shed load.
    Full,
    /// The server is draining for shutdown.
    Closed,
}

/// A bounded MPMC queue on `std::sync` primitives. `try_push` fails
/// deterministically at capacity (no rendezvous semantics), which is what
/// makes the 429 path testable with `queue_depth: 0`.
struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            capacity,
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner<T>> {
        // A worker panicking mid-pop poisons nothing we can't still use:
        // the queue state is a plain VecDeque.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut q = self.lock();
        if q.closed {
            return Err(PushError::Closed);
        }
        if q.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available; `None` once closed **and**
    /// drained — workers finish queued jobs before exiting.
    fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self
                .ready
                .wait(q)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A bound (but not yet serving) query server.
pub struct QueryServer {
    system: Svqa,
    config: ServeConfig,
    cache: ShardedCache,
    http: HttpServer,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    in_flight: AtomicI64,
}

impl QueryServer {
    /// Bind `addr` (port 0 picks a free port) over a built system. The
    /// persistent cache is shaped by `system.config().scheduler`
    /// (granularity, policy, pool size, shards).
    pub fn bind(system: Svqa, addr: &str, config: ServeConfig) -> io::Result<QueryServer> {
        let mut http = HttpServer::bind(addr)?;
        http.set_io_timeout(Some(config.io_timeout));
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        Ok(QueryServer {
            system,
            cache,
            http,
            queue: BoundedQueue::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicI64::new(0),
            config,
        })
    }

    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.http.local_addr()
    }

    /// The persistent cross-request cache (exposed for tests and stats).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Serve until `POST /shutdown`: workers and connection threads run on
    /// scoped threads borrowing `self`. On shutdown the accept loop stops,
    /// the admission queue closes, queued work drains, and this returns
    /// `Ok(())` — the graceful-exit contract the CI smoke test checks.
    pub fn serve(&self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let router = self.router(addr);
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            while !self.shutdown.load(Ordering::SeqCst) {
                let Ok(stream) = self.http.accept() else {
                    continue;
                };
                let router = &router;
                scope.spawn(move || {
                    let _ = HttpServer::handle_connection(stream, router);
                });
            }
            // Drain: no new admissions; workers finish what's queued, then
            // the scope joins every thread.
            self.queue.close();
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
                "in_flight": self.in_flight.load(Ordering::SeqCst),
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
        // the connection thread with the full diagnostics, without burning
        // a worker slot on it.
        let prepared = self.system.prepare(question);
        if let Err(e) = &prepared.gate {
            return error_response(e);
        }
        self.submit(Work::Ask(prepared), self.deadline_of(&body))
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
        let Some(batch) = strings.collect() else {
            return bad_request("bad-field", "'questions' must be strings");
        };
        self.submit(Work::Batch(batch), self.deadline_of(&body))
    }

    fn deadline_of(&self, body: &serde_json::Value) -> Instant {
        let budget = body
            .get("deadline_ms")
            .and_then(|v| v.as_u64())
            .map_or(self.config.default_deadline, Duration::from_millis);
        Instant::now() + budget
    }

    /// Admission control: enqueue the job and wait for the worker's reply,
    /// but never past the deadline.
    fn submit(&self, work: Work, deadline: Instant) -> Response {
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            work,
            deadline,
            reply: tx,
        };
        match self.queue.try_push(job) {
            Err(PushError::Full) => {
                global().incr_counter(counter::SERVER_REJECTED);
                Response::json(429, "{\"error\": \"admission queue full\"}")
                    .with_header("Retry-After", "1")
            }
            Err(PushError::Closed) => {
                Response::json(503, "{\"error\": \"server is shutting down\"}")
            }
            Ok(()) => {
                self.in_flight_delta(1);
                let remaining = deadline.saturating_duration_since(Instant::now());
                let response = match rx.recv_timeout(remaining) {
                    Ok(response) if response.status != 504 => response,
                    // The worker skipped expired work, or never got to it.
                    Ok(_) | Err(RecvTimeoutError::Timeout) => {
                        global().incr_counter(counter::SERVER_DEADLINE_EXCEEDED);
                        deadline_response()
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        Response::json(500, "{\"error\": \"worker dropped the request\"}")
                    }
                };
                self.in_flight_delta(-1);
                response
            }
        }
    }

    fn in_flight_delta(&self, delta: i64) {
        let now = self.in_flight.fetch_add(delta, Ordering::SeqCst) + delta;
        global().set_gauge(gauge::SERVER_REQUESTS_IN_FLIGHT, now as f64);
    }

    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            let Job {
                work,
                deadline,
                reply,
            } = job;
            let fault = svqa_fault::draw(svqa_fault::site::SERVE_WORKER);
            if fault == Some(svqa_fault::FaultKind::DropResult) {
                // The worker "loses" the job: the reply channel drops
                // unanswered and the connection thread observes
                // `Disconnected` (500, "worker dropped the request").
                continue;
            }
            // Queued past its deadline: skip the work. The connection
            // thread owns the deadline-exceeded counter (it may already
            // have timed out on its own), so just reply 504.
            let response = if Instant::now() >= deadline {
                deadline_response()
            } else {
                if let Some(svqa_fault::FaultKind::Latency(ms)) = fault {
                    svqa_fault::apply_latency(ms, Some(deadline));
                }
                // A panic while answering (injected or genuine) must not
                // shrink the worker pool: catch it, count it, reply 500,
                // and keep this thread in the loop.
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(svqa_fault::FaultKind::Error) {
                        panic!("injected fault: serve.worker");
                    }
                    match work {
                        Work::Ask(prepared) => self.answer_one(prepared, deadline),
                        Work::Batch(questions) => self.answer_many(&questions, deadline),
                    }
                }));
                run.unwrap_or_else(|_| {
                    global().incr_counter(counter::SERVER_WORKER_PANICS);
                    Response::json(500, "{\"error\": \"internal panic while answering\"}")
                })
            };
            // The receiver may have timed out and gone — not an error.
            let _ = reply.send(response);
        }
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
    serde_json::from_str(text)
        .map_err(|e| bad_request("bad-json", &format!("invalid JSON: {e}")))
}

/// A structured 400: `{"error": ..., "code": ...}`, counted in
/// `server_requests_bad` so malformed traffic is visible in `/metrics`.
fn bad_request(code: &str, message: &str) -> Response {
    global().incr_counter(counter::SERVER_REQUESTS_BAD);
    json_response(400, serde_json::json!({ "error": message, "code": code }))
}

fn deadline_response() -> Response {
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

    #[test]
    fn bounded_queue_rejects_at_capacity_and_drains_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(PushError::Full)));
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed)));
        // Queued items survive the close; then the queue reports empty.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn zero_capacity_queue_always_rejects() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert!(matches!(q.try_push(1), Err(PushError::Full)));
    }

    #[test]
    fn bounded_queue_unblocks_waiting_consumers_on_close() {
        let q: std::sync::Arc<BoundedQueue<u32>> = std::sync::Arc::new(BoundedQueue::new(4));
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}

//! The benchmark's own spans, recorded around each call it makes into a
//! layer's public API. Spans stay in memory and are written out once, at
//! the end of a traced run. An untraced run uses a disabled tracer, which
//! records nothing.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `qparser.parse`.
    name: String,
    /// Request the span belongs to (0 when it belongs to none).
    request: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, ns after the tracer was created.
    start_ns: u64,
    /// Duration, ns.
    dur_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span from `start` to `end`; returns its index for use as
    /// a parent (0 when disabled).
    pub fn record(
        &self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.offset_ns(start);
        let span = Span {
            name: name.to_owned(),
            request,
            parent,
            start_ns,
            dur_ns: self.offset_ns(end).saturating_sub(start_ns),
        };
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a span named `name` (no request).
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, 0, None, start, Instant::now());
        out
    }

    /// Durations, in ns, of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Every span as a Chrome trace-event JSON document (`ph: "X"`
    /// complete events; `tid` is the request, `args.parent` the index of
    /// the enclosing span).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let events: Vec<serde_json::Value> = spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": s.request,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns as f64 / 1e3,
                    "args": serde_json::json!({ "parent": s.parent }),
                })
            })
            .collect();
        serde_json::to_string(&serde_json::Value::Array(events)).expect("JSON values serialize")
    }
}

//! Chrome trace-event JSON export.
//!
//! Converts [`QueryTrace`]s (with their nested [`StageTiming`] trees) into
//! the Trace Event Format's *JSON array* flavour — the format
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly. Every node becomes a *complete* (`"ph": "X"`) event with
//! `ts`/`dur` in **microseconds**, as the format requires; nesting falls
//! out of timestamp containment, so no matched B/E pairs are needed.

use crate::trace::{QueryTrace, StageTiming};
use serde::{Deserialize, Serialize};

/// One trace event in Chrome's Trace Event Format.
///
/// Only the fields the viewers actually consume are modelled; `ph` is
/// `"X"` (complete event) for everything this module emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (stage or sub-step).
    pub name: String,
    /// Comma-separated category list.
    pub cat: String,
    /// Event phase: `"X"` = complete (has `ts` + `dur`).
    pub ph: String,
    /// Start timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Process id (constant: one SVQA process).
    pub pid: u64,
    /// Thread id — one lane per query so queries stack side by side.
    pub tid: u64,
}

/// A collection of trace events, serializable as the JSON array the
/// Chrome/Perfetto loaders accept.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Append a complete (`"X"`) event. `ts`/`dur` in microseconds.
    pub fn complete(&mut self, name: &str, cat: &str, ts_us: f64, dur_us: f64, tid: u64) {
        self.events.push(TraceEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: "X".to_owned(),
            ts: ts_us,
            dur: dur_us,
            pid: 1,
            tid,
        });
    }

    /// Render a batch of query traces: each query gets its own `tid` lane;
    /// lanes share one timeline, queries laid out back to back (their
    /// stage offsets are per-query, not absolute wall-clock).
    pub fn from_query_traces(traces: &[QueryTrace]) -> ChromeTrace {
        let mut out = ChromeTrace::new();
        let mut base_ns = 0u64;
        for (qi, trace) in traces.iter().enumerate() {
            let tid = qi as u64 + 1;
            let total = trace
                .stages
                .iter()
                .map(|s| s.start_ns + s.nanos)
                .max()
                .unwrap_or(0);
            out.complete("query", "svqa.query", us(base_ns), us(total), tid);
            // One event per stage node, depth-first, offsets accumulated.
            for stage in &trace.stages {
                out.push_tree(stage, base_ns, tid, "svqa.stage");
            }
            base_ns += total.max(1);
        }
        out
    }

    fn push_tree(&mut self, node: &StageTiming, parent_start_ns: u64, tid: u64, cat: &str) {
        let start = parent_start_ns + node.start_ns;
        self.complete(&node.stage, cat, us(start), us(node.nanos), tid);
        for child in &node.children {
            self.push_tree(child, start, tid, "svqa.step");
        }
    }

    /// The events, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serialize as the JSON *array* flavour of the Trace Event Format
    /// (what `chrome://tracing` and Perfetto open without any wrapper).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.events).expect("events serialize infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage;
    use std::time::Duration;

    fn sample_trace() -> QueryTrace {
        let mut t = QueryTrace::new("How many dogs?");
        t.record_stage(stage::PARSE, Duration::from_micros(120));
        let mut m = StageTiming::leaf(stage::MATCH, 120_000, 880_000);
        let mut quad = StageTiming::leaf("v0 ⟨dog, in, car⟩", 1_000, 500_000);
        quad.push_child(StageTiming::leaf("scope:sub", 0, 200_000));
        m.push_child(quad);
        t.record_stage_tree(m);
        t
    }

    #[test]
    fn emits_only_complete_events_with_microsecond_units() {
        let trace = sample_trace();
        let ct = ChromeTrace::from_query_traces(std::slice::from_ref(&trace));
        assert!(!ct.events().is_empty());
        for e in ct.events() {
            assert_eq!(e.ph, "X");
            assert!(e.ts >= 0.0 && e.dur >= 0.0);
        }
        // The parse stage's 120µs duration survives the ns→µs conversion.
        let parse = ct
            .events()
            .iter()
            .find(|e| e.name == stage::PARSE)
            .expect("parse event");
        assert!((parse.dur - 120.0).abs() < 1e-9, "dur = {}", parse.dur);
    }

    #[test]
    fn children_are_contained_within_parents() {
        let trace = sample_trace();
        let ct = ChromeTrace::from_query_traces(std::slice::from_ref(&trace));
        let find = |name: &str| {
            ct.events()
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing event {name}"))
        };
        let m = find(stage::MATCH);
        let quad = find("v0 ⟨dog, in, car⟩");
        let scope = find("scope:sub");
        assert!(quad.ts >= m.ts && quad.ts + quad.dur <= m.ts + m.dur);
        assert!(scope.ts >= quad.ts && scope.ts + scope.dur <= quad.ts + quad.dur);
    }

    #[test]
    fn json_is_a_parseable_array_and_queries_get_lanes() {
        let t1 = sample_trace();
        let mut t2 = QueryTrace::new("q2");
        t2.record_stage(stage::PARSE, Duration::from_micros(10));
        let ct = ChromeTrace::from_query_traces(&[t1, t2]);
        let json = ct.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = match v {
            serde_json::Value::Array(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), ct.events().len());
        let tids: std::collections::BTreeSet<u64> = ct.events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "one lane per query: {tids:?}");
        // The second query starts after the first ends.
        let q_events: Vec<&TraceEvent> = ct.events().iter().filter(|e| e.name == "query").collect();
        assert_eq!(q_events.len(), 2);
        assert!(q_events[1].ts >= q_events[0].ts + q_events[0].dur);
    }
}

//! Per-question traces.

use crate::CacheStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How a question's journey through the pipeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// Parsed, executed, and answered.
    Answered,
    /// Rejected by the question parser.
    ParseError,
    /// Parsed, but rejected by the query-graph linter before execution.
    LintError,
    /// Parsed, but execution failed.
    ExecError,
    /// Parsed, but every evidence source was down.
    Unavailable,
}

/// One named stage timing inside a [`QueryTrace`].
///
/// A timing may carry nested `children` — sub-steps that ran inside the
/// stage (e.g. the per-quadruple spans inside `match`). `start_ns` is the
/// offset from the *parent's* start (from the trace start for top-level
/// stages), which is what lets the Chrome-trace exporter place every node
/// on a real timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (see [`crate::stage`]).
    pub stage: String,
    /// Wall-clock time spent, in nanoseconds.
    pub nanos: u64,
    /// Offset from the parent's start (ns); 0 for the first stage.
    #[serde(default)]
    pub start_ns: u64,
    /// Nested sub-steps, each with `start_ns` relative to this stage.
    #[serde(default)]
    pub children: Vec<StageTiming>,
}

impl StageTiming {
    /// A leaf timing.
    pub fn leaf(stage: impl Into<String>, start_ns: u64, nanos: u64) -> StageTiming {
        StageTiming {
            stage: stage.into(),
            nanos,
            start_ns,
            children: Vec::new(),
        }
    }

    /// Append a nested child (its `start_ns` is relative to `self`).
    pub fn push_child(&mut self, child: StageTiming) {
        self.children.push(child);
    }

    /// Total number of nodes in this subtree (self + descendants).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(StageTiming::node_count)
            .sum::<usize>()
    }
}

/// The telemetry story of a single question: which stages it passed
/// through, how long each took, what the cache did for it, and how it
/// ended. Collected per question by the pipeline and surfaced through
/// `BatchOutcome` and `svqa-cli repl --verbose`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryTrace {
    /// The question text.
    pub question: String,
    /// Stage timings in execution order.
    pub stages: Vec<StageTiming>,
    /// Cache traffic of this question's own lookups.
    pub cache: CacheStats,
    /// Terminal state.
    pub outcome: QueryOutcome,
}

impl QueryTrace {
    /// A trace for `question` with no recorded stages yet.
    pub fn new(question: impl Into<String>) -> Self {
        QueryTrace {
            question: question.into(),
            stages: Vec::new(),
            cache: CacheStats::new(),
            outcome: QueryOutcome::Answered,
        }
    }

    /// Append a stage timing. Stages are assumed sequential, so the new
    /// stage's `start_ns` is the sum of the previously recorded ones.
    pub fn record_stage(&mut self, stage: &str, elapsed: Duration) {
        let start_ns = self.stages.iter().map(|s| s.nanos).sum();
        self.stages.push(StageTiming::leaf(
            stage,
            start_ns,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        ));
    }

    /// Append a fully-formed stage timing (offsets and children intact).
    pub fn record_stage_tree(&mut self, timing: StageTiming) {
        self.stages.push(timing);
    }

    /// Nanoseconds recorded for a stage, if present.
    pub fn stage_nanos(&self, stage: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.nanos)
    }

    /// Total time across all recorded stages.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.stages.iter().map(|s| s.nanos).sum())
    }

    /// One-line human summary, used by `svqa-cli repl --verbose`.
    pub fn summary_line(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("{} {}", s.stage, fmt_ns(s.nanos)))
            .collect();
        let cache = if self.cache.total_lookups() == 0 {
            "cache cold".to_owned()
        } else {
            format!(
                "cache {:.0}% hit ({}/{})",
                self.cache.hit_rate() * 100.0,
                self.cache.total_hits(),
                self.cache.total_lookups()
            )
        };
        format!(
            "[{}] total {} ({}) {}",
            match self.outcome {
                QueryOutcome::Answered => "ok",
                QueryOutcome::ParseError => "parse-error",
                QueryOutcome::LintError => "lint-error",
                QueryOutcome::ExecError => "exec-error",
                QueryOutcome::Unavailable => "unavailable",
            },
            fmt_ns(u64::try_from(self.total().as_nanos()).unwrap_or(u64::MAX)),
            stages.join(", "),
            cache
        )
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage;

    #[test]
    fn trace_accumulates_stages() {
        let mut t = QueryTrace::new("How many dogs?");
        t.record_stage(stage::PARSE, Duration::from_micros(120));
        t.record_stage(stage::MATCH, Duration::from_micros(880));
        assert_eq!(t.stage_nanos(stage::PARSE), Some(120_000));
        assert_eq!(t.stage_nanos(stage::AGGREGATE), None);
        assert_eq!(t.total(), Duration::from_micros(1000));
    }

    #[test]
    fn summary_line_mentions_outcome_stages_and_cache() {
        let mut t = QueryTrace::new("q");
        t.record_stage(stage::PARSE, Duration::from_micros(5));
        t.cache = CacheStats {
            scope_hits: 3,
            scope_misses: 1,
            path_hits: 0,
            path_misses: 0,
        };
        let line = t.summary_line();
        assert!(line.contains("[ok]"), "{line}");
        assert!(line.contains("parse"), "{line}");
        assert!(line.contains("75% hit (3/4)"), "{line}");

        t.outcome = QueryOutcome::ParseError;
        t.cache = CacheStats::new();
        let line = t.summary_line();
        assert!(line.contains("[parse-error]"), "{line}");
        assert!(line.contains("cache cold"), "{line}");
    }

    #[test]
    fn sequential_stages_get_cumulative_start_offsets() {
        let mut t = QueryTrace::new("q");
        t.record_stage(stage::PARSE, Duration::from_nanos(100));
        t.record_stage(stage::MATCH, Duration::from_nanos(50));
        assert_eq!(t.stages[0].start_ns, 0);
        assert_eq!(t.stages[1].start_ns, 100);
    }

    #[test]
    fn nested_children_round_trip_and_count() {
        let mut outer = StageTiming::leaf(stage::MATCH, 0, 1_000);
        let mut quad = StageTiming::leaf("v0", 10, 400);
        quad.push_child(StageTiming::leaf("scope", 0, 100));
        outer.push_child(quad);
        outer.push_child(StageTiming::leaf("v1", 500, 300));
        assert_eq!(outer.node_count(), 4);

        let mut t = QueryTrace::new("q");
        t.record_stage_tree(outer.clone());
        let json = serde_json::to_string(&t).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stages[0], outer);
        assert_eq!(back.stages[0].children[0].children[0].stage, "scope");
    }

    #[test]
    fn trace_round_trips_json() {
        let mut t = QueryTrace::new("q?");
        t.record_stage(stage::SCHEDULE, Duration::from_nanos(7));
        t.outcome = QueryOutcome::ExecError;
        let json = serde_json::to_string(&t).unwrap();
        let back: QueryTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.question, "q?");
        assert_eq!(back.stages, t.stages);
        assert_eq!(back.outcome, QueryOutcome::ExecError);
    }
}

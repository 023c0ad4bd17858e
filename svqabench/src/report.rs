//! The metric catalogue and the run's printed result.
//!
//! Every metric is printed by name with its unit, one per line, and the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("eval_accuracy", "ratio"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http_rtt_us", "us"),
    ("serve.ask_rtt_us", "us"),
    ("serve.self_us", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.status_429", "count"),
    ("serve.status_504", "count"),
    ("serve.status_5xx", "count"),
    ("serve.parse_per_ask", "ratio"),
    ("serve.lint_per_ask", "ratio"),
    ("serve.match_per_ask", "ratio"),
    ("serve.metrics_cache_hits", "count"),
    ("serve.body_cache_hits", "count"),
    ("qparser.parse_us_p50", "us"),
    ("qparser.parse_us_p99", "us"),
    ("qlint.lint_us_p50", "us"),
    ("qlint.lint_us_p99", "us"),
    ("executor.match_us_p50", "us"),
    ("executor.match_us_p99", "us"),
    ("executor.quad_us_p50", "us"),
    ("executor.quad_us_p99", "us"),
    ("executor.edges_scanned", "count"),
    ("executor.ns_per_edge", "ns"),
    ("executor.sub_candidates", "count"),
    ("executor.obj_candidates", "count"),
    ("executor.rp_pairs", "count"),
    ("executor.ap_pairs", "count"),
    ("executor.ap_per_rp", "ratio"),
    ("executor.rung_exact", "count"),
    ("executor.rung_lev", "count"),
    ("executor.rung_embed", "count"),
    ("cache.scope_hit_ratio", "ratio"),
    ("cache.path_hit_ratio", "ratio"),
    ("cache.path_bypassed", "count"),
    ("cache.entries", "count"),
    ("cache.value_bytes", "bytes"),
    ("scheduler.order_us", "us"),
    ("scheduler.batch_match_ms", "ms"),
    ("dataset.images_ms", "ms"),
    ("dataset.kg_ms", "ms"),
    ("dataset.questions_s", "s"),
    ("vision.sgg_ms", "ms"),
    ("aggregator.merge_ms", "ms"),
    ("qlint.schema_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.ask_p50_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
];

/// A run's outcome: metric values plus the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    values: BTreeMap<String, f64>,
    /// Operations attempted (requests and batch questions).
    attempted: u64,
    /// Operations whose outcome differed from the expected one.
    failed: u64,
    /// Set when the figures do not measure what they claim (the load
    /// generator fell behind its schedule).
    invalid: bool,
    /// Human-readable lines printed before the metrics (digest, sample
    /// counts, phase notes).
    pub(crate) notes: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Print a measured value that is not a declared metric, as a
    /// `name value unit` note.
    pub fn note_metric(&mut self, name: &str, value: f64, unit: &str) {
        self.notes
            .push(format!("{name} {value} {unit} (printed, not declared)"));
    }

    /// Count `n` operations, `bad` of them failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Mark the run invalid, giving the reason in the notes. An invalid
    /// run is not correct.
    pub fn invalidate(&mut self, reason: String) {
        self.notes.push(format!("invalid run: {reason}"));
        self.invalid = true;
    }

    /// Whether every correctness check passed and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.invalid
    }

    /// The catalogue a run prints: per-layer metrics when traced,
    /// end-to-end ones otherwise.
    pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The full standard output: notes, one `name value unit` line per
    /// metric, `fail_ratio`, then the result JSON as the last line.
    /// Panics if a catalogued metric was never set — a benchmark bug.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let fail_ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(out, "fail_ratio {fail_ratio} ratio");
        let mut metrics = serde_json::Map::new();
        for &(name, unit) in Self::catalogue(traced) {
            let value = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = writeln!(out, "{name} {value} {unit}");
            metrics.insert(
                name.to_owned(),
                serde_json::json!({ "value": value, "unit": unit }),
            );
        }
        let result = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string(&result).expect("JSON values serialize")
        );
        out
    }
}

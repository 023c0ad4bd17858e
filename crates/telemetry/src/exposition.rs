//! Prometheus text exposition (format version 0.0.4).
//!
//! Renders a [`MetricsSnapshot`] into the plain-text format Prometheus
//! scrapes: counters (`_total` suffix), gauges, and the span latency
//! histograms as one `svqa_span_duration_seconds` family labelled by
//! stage, with **cumulative** `le` buckets ending in `+Inf` as the format
//! requires. No client library — the format is a dozen lines of rules,
//! and this crate stays dependency-free.

use crate::recorder::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitize a metric-name fragment: `[a-zA-Z0-9_:]`, no leading digit.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if ok && !(i == 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value: backslash, double-quote, and newline, per the
/// exposition format spec.
fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Render the snapshot in Prometheus text exposition format.
///
/// Families emitted:
/// * `svqa_<counter>_total` — every named counter, type `counter`;
/// * `svqa_<gauge>` — every named gauge, type `gauge`;
/// * `svqa_span_duration_seconds` — one histogram per span name
///   (`stage` label), cumulative buckets + `_sum` + `_count`;
/// * `svqa_cache_hit_rate` — derived scope/path/overall rates, `pool`
///   label, type `gauge`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let family = format!("svqa_{}_total", metric_name(name));
        let _ = writeln!(out, "# TYPE {family} counter");
        let _ = writeln!(out, "{family} {value}");
    }

    for (name, value) in &snap.gauges {
        let family = format!("svqa_{}", metric_name(name));
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {value}");
    }

    if !snap.spans.is_empty() {
        let _ = writeln!(out, "# TYPE svqa_span_duration_seconds histogram");
        for (stage, h) in &snap.spans {
            let stage = escape_label(stage);
            let mut cumulative = 0u64;
            for bucket in &h.buckets {
                cumulative += bucket.count;
                let _ = writeln!(
                    out,
                    "svqa_span_duration_seconds_bucket{{stage=\"{stage}\",le=\"{}\"}} {cumulative}",
                    secs(bucket.le_ns)
                );
            }
            let _ = writeln!(
                out,
                "svqa_span_duration_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "svqa_span_duration_seconds_sum{{stage=\"{stage}\"}} {}",
                secs(h.sum_ns)
            );
            let _ = writeln!(
                out,
                "svqa_span_duration_seconds_count{{stage=\"{stage}\"}} {}",
                h.count
            );
        }
    }

    let _ = writeln!(out, "# TYPE svqa_cache_hit_rate gauge");
    for (pool, rate) in [
        ("scope", snap.cache.scope_hit_rate),
        ("path", snap.cache.path_hit_rate),
        ("overall", snap.cache.overall_hit_rate),
    ] {
        let _ = writeln!(out, "svqa_cache_hit_rate{{pool=\"{pool}\"}} {rate}");
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::collections::HashMap;
    use std::time::Duration;

    /// Parse `family{labels} value` sample lines into a map (tests only).
    fn samples(text: &str) -> HashMap<String, f64> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| {
                let (key, value) = l.rsplit_once(' ').expect("sample line");
                (key.to_owned(), value.parse::<f64>().expect("numeric value"))
            })
            .collect()
    }

    #[test]
    fn counters_and_gauges_render_with_types() {
        let r = Recorder::new();
        r.incr_counter_by("questions_answered", 7);
        r.set_gauge("load", 0.5);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE svqa_questions_answered_total counter"));
        assert!(text.contains("svqa_questions_answered_total 7"));
        assert!(text.contains("# TYPE svqa_load gauge"));
        assert!(text.contains("svqa_load 0.5"));
    }

    #[test]
    fn metric_names_are_sanitized() {
        let r = Recorder::new();
        r.incr_counter("weird-name.with chars");
        r.incr_counter("0leading");
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("svqa_weird_name_with_chars_total 1"));
        assert!(text.contains("svqa__leading_total 1"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Recorder::new();
        r.record_span("odd\"stage\\with\nstuff", Duration::from_micros(5));
        let text = prometheus_text(&r.snapshot());
        assert!(
            text.contains(r#"stage="odd\"stage\\with\nstuff""#),
            "escaping failed:\n{text}"
        );
        // No raw newline may survive inside a label value: every sample
        // line must still end in a numeric value.
        let _ = samples(&text);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let r = Recorder::new();
        // Three different buckets: ~1µs ×3, ~1ms ×2, ~16ms ×1.
        for _ in 0..3 {
            r.record_span("match", Duration::from_micros(1));
        }
        for _ in 0..2 {
            r.record_span("match", Duration::from_millis(1));
        }
        r.record_span("match", Duration::from_millis(16));
        let text = prometheus_text(&r.snapshot());

        let mut last = 0.0f64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if line.starts_with("svqa_span_duration_seconds_bucket{stage=\"match\"") {
                bucket_lines += 1;
                let v: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(v >= last, "non-cumulative bucket: {line}");
                last = v;
            }
        }
        assert!(
            bucket_lines >= 4,
            "3 occupied buckets + +Inf, got {bucket_lines}"
        );
        assert!(text.contains("le=\"+Inf\"}} 6") || text.contains("le=\"+Inf\"} 6"));
        let map = samples(&text);
        assert_eq!(
            map["svqa_span_duration_seconds_count{stage=\"match\"}"],
            6.0
        );
        assert!(map["svqa_span_duration_seconds_sum{stage=\"match\"}"] > 0.0);
        assert_eq!(last, 6.0, "last cumulative bucket equals count");
    }

    #[test]
    fn counters_are_monotone_across_scrapes() {
        let r = Recorder::new();
        r.incr_counter_by("hits", 3);
        let first = samples(&prometheus_text(&r.snapshot()));
        r.incr_counter_by("hits", 2);
        r.record_span("parse", Duration::from_micros(10));
        let second = samples(&prometheus_text(&r.snapshot()));
        for (key, v1) in &first {
            if key.contains("_total") || key.contains("_count") || key.contains("_bucket") {
                let v2 = second.get(key).copied().unwrap_or(f64::NAN);
                assert!(v2 >= *v1, "{key} went backwards: {v1} -> {v2}");
            }
        }
        assert_eq!(second["svqa_hits_total"], 5.0);
    }
}

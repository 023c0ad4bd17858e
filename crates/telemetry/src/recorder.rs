//! The metrics registry.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::{counter, CacheStats};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

/// A thread-safe registry of counters, gauges, and span histograms.
///
/// Cloning is cheap (shared `Arc`); all methods take `&self`. One
/// process-global instance backs [`Span::enter`](crate::Span::enter) and
/// is returned by [`global()`]; tests and embedders can use their own.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, Histogram>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Add 1 to a named counter.
    pub fn incr_counter(&self, name: &str) {
        self.incr_counter_by(name, 1);
    }

    /// Add `by` to a named counter. The name is copied only the first
    /// time it is seen.
    pub fn incr_counter_by(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(count) => *count += by,
            None => {
                inner.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set a named gauge to a point-in-time value.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        match inner.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                inner.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Record a span duration into the named latency histogram.
    pub fn record_span(&self, name: &str, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock();
        match inner.spans.get_mut(name) {
            Some(histogram) => histogram.record(nanos),
            None => inner
                .spans
                .entry(name.to_owned())
                .or_default()
                .record(nanos),
        }
    }

    /// Number of recorded durations for a span name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .spans
            .get(name)
            .map_or(0, Histogram::count)
    }

    /// Sum of recorded durations for a span name, in nanoseconds.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.inner.lock().spans.get(name).map_or(0, Histogram::sum)
    }

    /// Freeze the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let cache = CacheStats {
            scope_hits: *inner.counters.get(counter::CACHE_SCOPE_HITS).unwrap_or(&0),
            scope_misses: *inner
                .counters
                .get(counter::CACHE_SCOPE_MISSES)
                .unwrap_or(&0),
            path_hits: *inner.counters.get(counter::CACHE_PATH_HITS).unwrap_or(&0),
            path_misses: *inner.counters.get(counter::CACHE_PATH_MISSES).unwrap_or(&0),
        };
        // The question counters are part of the snapshot contract: readers
        // (dashboards, the integration tests) can rely on the keys being
        // present even when nothing was counted yet.
        let mut counters = inner.counters.clone();
        for name in [
            counter::QUESTIONS_PARSED,
            counter::QUESTIONS_ANSWERED,
            counter::QUESTIONS_FAILED,
        ] {
            counters.entry(name.to_owned()).or_insert(0);
        }
        MetricsSnapshot {
            counters,
            gauges: inner.gauges.clone(),
            spans: inner
                .spans
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            cache: CacheSummary::from_stats(cache),
        }
    }

    /// Clear all counters, gauges, and histograms.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
    }
}

/// The process-global recorder used by [`Span::enter`](crate::Span::enter)
/// and the default instrumentation.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Serializable dump of a [`Recorder`]: what `svqa-cli --metrics` writes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Latency histograms keyed by span name.
    pub spans: BTreeMap<String, HistogramSnapshot>,
    /// Cache traffic, folded out of the cache counters.
    pub cache: CacheSummary,
}

impl MetricsSnapshot {
    /// Pretty-printed JSON for files and stdout.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }
}

/// Cache counters plus derived hit rates, for metrics output.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheSummary {
    /// Raw hit/miss counters.
    pub stats: CacheStats,
    /// Scope-pool hit rate in `[0, 1]`.
    pub scope_hit_rate: f64,
    /// Path-pool hit rate in `[0, 1]`.
    pub path_hit_rate: f64,
    /// Combined hit rate in `[0, 1]`.
    pub overall_hit_rate: f64,
}

impl CacheSummary {
    /// Compute rates from raw counters.
    pub fn from_stats(stats: CacheStats) -> Self {
        CacheSummary {
            stats,
            scope_hit_rate: stats.scope_hit_rate(),
            path_hit_rate: stats.path_hit_rate(),
            overall_hit_rate: stats.hit_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Recorder::new();
        r.incr_counter("q");
        r.incr_counter_by("q", 4);
        r.incr_counter_by("q", 0); // no-op, must not create churn
        r.set_gauge("load", 0.5);
        r.set_gauge("load", 0.75);
        assert_eq!(r.counter_value("q"), 5);
        assert_eq!(r.counter_value("absent"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters["q"], 5);
        assert_eq!(snap.gauges["load"], 0.75);
    }

    #[test]
    fn snapshot_folds_cache_counters() {
        let r = Recorder::new();
        CacheStats {
            scope_hits: 6,
            scope_misses: 2,
            path_hits: 1,
            path_misses: 1,
        }
        .record_to(&r);
        let snap = r.snapshot();
        assert_eq!(snap.cache.stats.scope_hits, 6);
        assert!((snap.cache.scope_hit_rate - 0.75).abs() < 1e-12);
        assert!((snap.cache.overall_hit_rate - 0.7).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let r = Recorder::new();
        r.incr_counter("n");
        r.record_span(stage::PARSE, Duration::from_micros(42));
        let text = r.snapshot().to_json_pretty();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counters["n"], 1);
        assert_eq!(back.spans[stage::PARSE].count, 1);
        assert!(back.spans[stage::PARSE].p50_ns > 0);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.incr_counter("x");
        r.record_span("s", Duration::from_nanos(10));
        r.reset();
        assert_eq!(r.counter_value("x"), 0);
        assert_eq!(r.span_count("s"), 0);
    }

    #[test]
    fn recorder_is_shared_across_clones_and_threads() {
        let r = Recorder::new();
        let clones: Vec<Recorder> = (0..4).map(|_| r.clone()).collect();
        std::thread::scope(|s| {
            for c in &clones {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr_counter("hits");
                    }
                });
            }
        });
        assert_eq!(r.counter_value("hits"), 4000);
    }

    #[test]
    fn concurrent_spans_and_counters_sum_exactly() {
        let r = Recorder::new();
        const PER_THREAD: u64 = 5000;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        r.record_span(stage::SGG, Duration::from_nanos(250));
                        r.incr_counter_by("scene_graphs_built", 3);
                        r.set_gauge("load", 0.5);
                    }
                });
            }
        });
        assert_eq!(r.span_count(stage::SGG), 2 * PER_THREAD);
        assert_eq!(r.span_total_ns(stage::SGG), 2 * PER_THREAD * 250);
        assert_eq!(r.counter_value("scene_graphs_built"), 2 * PER_THREAD * 3);
        assert_eq!(r.snapshot().gauges["load"], 0.5);
    }
}

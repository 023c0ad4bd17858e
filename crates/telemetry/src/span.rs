//! RAII timing spans.

use crate::recorder::{global, Recorder};
use std::time::{Duration, Instant};

/// A wall-clock timing guard: created at stage entry, records its
/// duration into a [`Recorder`] histogram on drop.
///
/// Spans nest freely — each guard times its own scope independently, so
/// a parent span's duration includes its children's:
///
/// ```
/// use svqa_telemetry::{Recorder, Span};
///
/// let r = Recorder::new();
/// {
///     let _batch = Span::enter_in(&r, "batch");
///     for _ in 0..3 {
///         let _q = Span::enter_in(&r, "question");
///     }
/// }
/// assert_eq!(r.span_count("batch"), 1);
/// assert_eq!(r.span_count("question"), 3);
/// ```
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    recorder: Recorder,
    name: &'static str,
    start: Instant,
}

impl Span {
    /// Start a span recording into the process-global recorder.
    pub fn enter(name: &'static str) -> Span {
        Span::enter_in(global(), name)
    }

    /// Start a span recording into a specific recorder.
    pub fn enter_in(recorder: &Recorder, name: &'static str) -> Span {
        Span {
            recorder: recorder.clone(),
            name,
            start: Instant::now(),
        }
    }

    /// The stage name this span times.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Time elapsed since the span was entered.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.recorder.record_span(self.name, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let r = Recorder::new();
        {
            let span = Span::enter_in(&r, "work");
            std::thread::sleep(Duration::from_millis(2));
            assert!(span.elapsed() >= Duration::from_millis(2));
        }
        assert_eq!(r.span_count("work"), 1);
        assert!(r.span_total_ns("work") >= 2_000_000);
    }

    #[test]
    fn nested_spans_record_inclusive_parent_time() {
        let r = Recorder::new();
        {
            let _outer = Span::enter_in(&r, "outer");
            for _ in 0..2 {
                let _inner = Span::enter_in(&r, "inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(r.span_count("outer"), 1);
        assert_eq!(r.span_count("inner"), 2);
        // The parent encloses both children.
        assert!(r.span_total_ns("outer") >= r.span_total_ns("inner"));
    }

    #[test]
    fn global_span_hits_the_global_recorder() {
        let before = global().span_count("telemetry_test_global_span");
        {
            let _s = Span::enter("telemetry_test_global_span");
        }
        assert_eq!(
            global().span_count("telemetry_test_global_span"),
            before + 1
        );
    }
}

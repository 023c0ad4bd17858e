//! The load generators.
//!
//! Open loop: a fixed schedule says when each request is due. Up to
//! `threads` generator threads share it: a free thread takes the next
//! request, sleeps until it is due, sends it on a fresh connection and
//! waits for the reply, so each thread has at most one connection open.
//! When every thread is busy, due requests wait in the generator; that
//! wait is part of their latency, because latency is measured from the
//! due time, not from the send time (no coordinated omission).
//!
//! Closed loop: each thread sends its next request as soon as the
//! previous reply is in, so the rate is whatever the server sustains.

use crate::rng::Planned;
use crate::stats::percentile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Head start before the first due time, so thread start-up does not
/// count as lateness.
const LEAD: Duration = Duration::from_millis(5);

/// Multiple of a workload's p99 latency limit that the open-loop
/// generator's p99 lateness may reach. Past it the load was not offered
/// on schedule, and the run is invalid. On the 2-vCPU reference box,
/// host contention alone pushed the lateness p99 to 2.4× the limit in a
/// run whose answers were all correct, so the margin is wide.
pub const LATE_LIMIT_SHARE: f64 = 4.0;

/// One executed request.
#[derive(Debug, Clone)]
pub struct Sample<T> {
    /// Index into the schedule.
    pub seq: usize,
    /// Index into the question pool.
    pub item: usize,
    /// When it was due, ns after the phase start.
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its reply was complete.
    pub done_ns: u64,
    /// What the send function returned.
    pub outcome: T,
}

impl<T> Sample<T> {
    /// Latency from the due time: generator wait plus round trip.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the request left the generator.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Run `plan` open-loop on `threads` generator threads. `send(seq,
/// item)` issues request `seq` of the schedule, for pool item `item`, and
/// returns its outcome. Samples come back in schedule order.
pub fn open_loop<T: Send>(
    plan: &[Planned],
    threads: usize,
    send: impl Fn(usize, usize) -> T + Sync,
) -> Vec<Sample<T>> {
    let start = Instant::now() + LEAD;
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample<T>>> = Mutex::new(Vec::with_capacity(plan.len()));
    let since = |t: Instant| {
        u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(seq) else { break };
                    let due = start + Duration::from_nanos(p.due_ns);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let outcome = send(seq, p.item);
                    let done = Instant::now();
                    local.push(Sample {
                        seq,
                        item: p.item,
                        due_ns: p.due_ns,
                        sent_ns: since(sent).max(p.due_ns),
                        done_ns: since(done).max(p.due_ns),
                        outcome,
                    });
                }
                samples
                    .lock()
                    .expect("a generator thread panicked while holding the sample list")
                    .extend(local);
            });
        }
    });
    let mut samples = samples
        .into_inner()
        .expect("a generator thread panicked while holding the sample list");
    samples.sort_by_key(|s| s.seq);
    samples
}

/// The open-loop generator's p99 lateness, in ms, when it is over
/// [`LATE_LIMIT_SHARE`] of `p99_limit_ms`: the generator fell behind its
/// schedule. `None` when it kept up.
pub fn fell_behind(late_ms: &[f64], p99_limit_ms: f64) -> Option<f64> {
    percentile(late_ms, 0.99).filter(|&p99| p99 > LATE_LIMIT_SHARE * p99_limit_ms)
}

/// Run requests closed-loop on `threads` threads for `duration`: each
/// thread sends its next request as soon as the previous reply is in,
/// the threads together taking `items` in order (cycling when they run
/// out). `send(item)` issues one request. Returns every outcome, and the
/// time from the start until the last reply.
pub fn closed_loop<T: Send>(
    items: &[usize],
    threads: usize,
    duration: Duration,
    send: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Duration) {
    assert!(!items.is_empty(), "a closed loop needs items to send");
    let start = Instant::now();
    let end = start + duration;
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<T>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < end {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    local.push(send(items[seq % items.len()]));
                }
                outcomes
                    .lock()
                    .expect("a generator thread panicked while holding the outcome list")
                    .extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    let outcomes = outcomes
        .into_inner()
        .expect("a generator thread panicked while holding the outcome list");
    (outcomes, elapsed)
}

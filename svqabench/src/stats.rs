//! Order statistics used by every metric the benchmark prints.

/// Candidate tail percentiles, highest first. A tail is reported only
/// where the sample supports it (see [`supported_tail`]).
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Samples a tail estimate must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` is clamped to `(0, 1]`; an empty input
/// gives `None`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.2), Some(1.0));
        assert_eq!(percentile(&v, 0.21), Some(3.0));
        assert_eq!(percentile(&v, 0.95), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(9.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1001, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
    }
}

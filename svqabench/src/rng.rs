//! Seeded request schedules: Poisson arrivals and Zipf or uniform draws.
//!
//! The generator is SplitMix64, kept here rather than taken from a crate
//! so a schedule depends on nothing but the seed.

/// SplitMix64: tiny, fast, and reproducible from a `u64` seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// How requests pick a question from the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Rank `k` (0-based) drawn with weight `1 / (k + 1)^s`.
    Zipf(f64),
    /// Every question equally likely.
    Uniform,
}

/// A sampler over `0..n` for one [`Mix`].
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Cumulative weights, normalised to end at 1 (empty for uniform).
    cdf: Vec<f64>,
    n: usize,
}

impl Sampler {
    /// A sampler over `n > 0` items.
    pub fn new(mix: Mix, n: usize) -> Self {
        assert!(n > 0, "cannot sample from an empty pool");
        let cdf = match mix {
            Mix::Uniform => Vec::new(),
            Mix::Zipf(s) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..n)
                    .map(|k| {
                        acc += 1.0 / ((k + 1) as f64).powf(s);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                cdf
            }
        };
        Sampler { cdf, n }
    }

    /// Draw one index.
    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.n - 1)
    }
}

/// One planned request: when it is due (ns after the phase starts) and
/// which pool item it asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Due time, nanoseconds from the start of the phase.
    pub due_ns: u64,
    /// Index into the question pool.
    pub item: usize,
}

/// Poisson arrivals at `rate_per_s` for `duration_s`, each drawing its
/// question from `sampler`. The same seed gives the same schedule.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    duration_s: f64,
    sampler: &Sampler,
) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed);
    let horizon_ns = duration_s * 1e9;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut plan = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Exponential gap; `1 - u` keeps the log argument in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= horizon_ns {
            return plan;
        }
        plan.push(Planned {
            due_ns: t as u64,
            item: sampler.draw(&mut rng),
        });
    }
}

/// Mix a run seed with a phase tag, so phases of one run draw
/// independent but reproducible streams.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_its_schedule() {
        for mix in [Mix::Zipf(1.0), Mix::Uniform] {
            let sampler = Sampler::new(mix, 100);
            let a = poisson_schedule(7, 500.0, 2.0, &sampler);
            let b = poisson_schedule(7, 500.0, 2.0, &sampler);
            let c = poisson_schedule(8, 500.0, 2.0, &sampler);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn poisson_rate_and_ordering_hold() {
        let sampler = Sampler::new(Mix::Uniform, 10);
        let plan = poisson_schedule(3, 1000.0, 10.0, &sampler);
        // 10,000 expected arrivals; a Poisson count has sd 100.
        assert!((9_500..10_500).contains(&plan.len()), "{}", plan.len());
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(plan.last().unwrap().due_ns < 10_000_000_000);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let sampler = Sampler::new(Mix::Zipf(1.0), 100);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..100_000 {
            counts[sampler.draw(&mut rng)] += 1;
        }
        // H(100) ≈ 5.187, so rank 0 takes ≈ 19.3% and rank 1 ≈ 9.6%.
        assert!((18_000..20_700).contains(&counts[0]), "{}", counts[0]);
        assert!((8_800..10_500).contains(&counts[1]), "{}", counts[1]);
        assert!(counts[0] > counts[9] * 5);
    }
}

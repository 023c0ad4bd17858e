//! Deterministic fault injection and graceful-degradation primitives.
//!
//! SVQA answers questions across *multiple* sources — scene graphs
//! distilled from images plus a knowledge graph — so the interesting
//! failures are partial: one source is slow, noisy, or gone while the
//! other still holds the answer. This crate provides everything needed to
//! reproduce (and survive) those failures on demand:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic description of
//!   per-site faults ([`FaultKind::Error`], [`FaultKind::Latency`],
//!   [`FaultKind::DropResult`], [`FaultKind::CorruptLabel`]) with
//!   per-site probabilities. Serde round-trippable, loadable from JSON.
//! * [`Injector`] / [`install`] — the injection machinery. Sites across
//!   the workspace (see [`site`]) call [`draw`] at their fault points;
//!   with no plan installed the call is a single relaxed atomic load, so
//!   injection points are zero-cost no-ops in production.
//! * [`CircuitBreaker`] — the per-source availability state machine
//!   (closed → open after N consecutive faults → half-open probe).
//! * [`RetryPolicy`] — bounded retries with jittered exponential backoff
//!   that respect a request deadline.
//!
//! Determinism: every decision is a pure function of `(plan seed, site
//! name, per-site draw counter)`. Two runs over the same plan and the same
//! call sequence observe the identical fault sequence — which is what lets
//! the chaos tests assert exact behaviour instead of probabilistic shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod inject;
mod plan;
mod retry;

pub use breaker::{Acquire, BreakerConfig, BreakerState, CircuitBreaker};
pub use inject::{active, apply_latency, draw, install, Injector, InstalledPlan};
pub use plan::{FaultKind, FaultPlan, SiteFault};
pub use retry::{DegradePolicy, RetryPolicy};

use serde::{Deserialize, Serialize};

/// Canonical injection-site names.
///
/// A site is a named point in the pipeline where a [`FaultPlan`] can
/// strike. Plans address sites by these strings; unknown names are
/// silently inert (a plan written for a newer build degrades to a weaker
/// plan, not an error).
pub mod site {
    /// Per-query knowledge-graph availability probe (`Svqa::answer_guarded`).
    pub const SOURCE_KG: &str = "source.kg";
    /// Per-query scene-graph availability probe (`Svqa::answer_guarded`).
    pub const SOURCE_SCENE: &str = "source.scene";
    /// Knowledge-graph construction, one draw per triple (`svqa-dataset`).
    pub const KG_TRIPLE: &str = "kg.triple";
    /// Scene-graph generation, one draw per image (`svqa-vision::sgg`).
    pub const SGG_GENERATE: &str = "sgg.generate";
    /// Object detection, one draw per detection (`svqa-vision::detector`).
    pub const DETECTOR_DETECT: &str = "detector.detect";
    /// Relation-pair collection, one draw per query-graph vertex
    /// (`svqa-executor`).
    pub const RELATION_SCAN: &str = "executor.relation_scan";
    /// Key-centric cache lookups (`svqa-executor::cache`).
    pub const CACHE_GET: &str = "cache.get";
    /// Key-centric cache inserts (`svqa-executor::cache`).
    pub const CACHE_PUT: &str = "cache.put";
    /// A query-server request, once it holds a permit (`svqa::serve`).
    pub const SERVE_WORKER: &str = "serve.worker";

    /// Every site, for plan builders that want blanket coverage.
    pub const ALL: [&str; 9] = [
        SOURCE_KG,
        SOURCE_SCENE,
        KG_TRIPLE,
        SGG_GENERATE,
        DETECTOR_DETECT,
        RELATION_SCAN,
        CACHE_GET,
        CACHE_PUT,
        SERVE_WORKER,
    ];
}

/// The evidence sources a query runs across, for per-source circuit
/// breaking and partial answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// The external knowledge graph.
    Kg,
    /// Scene graphs distilled from images.
    Scene,
}

impl Source {
    /// Both sources, in stable order.
    pub const ALL: [Source; 2] = [Source::Kg, Source::Scene];

    /// Stable lowercase name (used in metrics, health payloads, and
    /// `AnswerStatus::Degraded::missing_sources`).
    pub fn name(self) -> &'static str {
        match self {
            Source::Kg => "kg",
            Source::Scene => "scene",
        }
    }

    /// The injection site probed once per query for this source.
    pub fn probe_site(self) -> &'static str {
        match self {
            Source::Kg => site::SOURCE_KG,
            Source::Scene => site::SOURCE_SCENE,
        }
    }
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64 — the workspace's standard seeding mixer (matches the
/// vendored `rand`'s seeding path). Pure, allocation-free, and good enough
/// to decorrelate `(seed, site, counter)` triples.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a site name — stable across runs and platforms, unlike
/// `DefaultHasher`.
pub(crate) fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A uniform draw in `[0, 1)` from `(seed, site, counter)` — the single
/// source of randomness behind every injection decision.
pub(crate) fn unit_draw(seed: u64, site: &str, counter: u64) -> f64 {
    let mut state = seed ^ site_hash(site).rotate_left(17) ^ counter.wrapping_mul(0x9E37_79B9);
    let r = splitmix64(&mut state);
    // 53 random bits → [0, 1) exactly representable in f64.
    (r >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_draw_is_deterministic_and_uniform_ish() {
        assert_eq!(unit_draw(7, "a.site", 0), unit_draw(7, "a.site", 0));
        assert_ne!(unit_draw(7, "a.site", 0), unit_draw(7, "a.site", 1));
        assert_ne!(unit_draw(7, "a.site", 0), unit_draw(8, "a.site", 0));
        assert_ne!(unit_draw(7, "a.site", 0), unit_draw(7, "b.site", 0));
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit_draw(42, "x", i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..n).all(|i| (0.0..1.0).contains(&unit_draw(42, "x", i))));
    }

    #[test]
    fn source_names_and_sites() {
        assert_eq!(Source::Kg.name(), "kg");
        assert_eq!(Source::Scene.to_string(), "scene");
        assert_eq!(Source::Kg.probe_site(), site::SOURCE_KG);
        assert_eq!(Source::Scene.probe_site(), site::SOURCE_SCENE);
    }
}

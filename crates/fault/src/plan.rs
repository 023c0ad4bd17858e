//! The fault plan: what goes wrong, where, and how often.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What kind of fault fires at a site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The operation fails with a typed error (transient from the caller's
    /// point of view — the retry policy applies).
    Error,
    /// The operation succeeds, but only after the given extra latency in
    /// milliseconds (capped by the caller's deadline, never past it).
    Latency(u64),
    /// The operation "succeeds" but its result is silently dropped — an
    /// empty scan, a missed detection, a cache miss, a reply that never
    /// arrives.
    DropResult,
    /// The operation succeeds with a corrupted label — the scene-graph
    /// corruption mode of Damodaran et al., reproduced deterministically.
    CorruptLabel,
}

impl FaultKind {
    /// Stable lowercase name, for metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Latency(_) => "latency",
            FaultKind::DropResult => "drop-result",
            FaultKind::CorruptLabel => "corrupt-label",
        }
    }
}

/// One fault rule at one site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteFault {
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a given draw at the site fires this
    /// rule. Rules at a site are mutually exclusive per draw (their
    /// probabilities stack cumulatively), so the sum over a site should
    /// stay ≤ 1.
    pub probability: f64,
    /// Stop firing after this many triggers (`None` = unbounded). The rule
    /// still consumes its slice of the probability space afterwards, so
    /// disarming one rule never shifts another rule's sequence.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_triggers: Option<u64>,
}

impl SiteFault {
    /// An unbounded rule.
    pub fn new(kind: FaultKind, probability: f64) -> SiteFault {
        SiteFault {
            kind,
            probability,
            max_triggers: None,
        }
    }

    /// A rule that disarms after `n` triggers.
    pub fn limited(kind: FaultKind, probability: f64, n: u64) -> SiteFault {
        SiteFault {
            kind,
            probability,
            max_triggers: Some(n),
        }
    }
}

/// A seeded, fully deterministic description of per-site faults.
///
/// The plan is pure data: install one with [`crate::install`] to arm the
/// injection sites. Every decision derives from `(seed, site, per-site
/// draw counter)`, so the same plan over the same call sequence reproduces
/// the identical fault sequence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed every injection decision derives from.
    pub seed: u64,
    /// Fault rules per site (site names from [`crate::site`]; unknown
    /// names are inert).
    #[serde(default)]
    pub sites: BTreeMap<String, Vec<SiteFault>>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// Builder: add a fault rule at `site`.
    pub fn with_fault(mut self, site: &str, fault: SiteFault) -> FaultPlan {
        self.sites.entry(site.to_owned()).or_default().push(fault);
        self
    }

    /// A plan firing `kind` with the same probability at every listed site.
    pub fn uniform(seed: u64, sites: &[&str], kind: FaultKind, probability: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for s in sites {
            plan = plan.with_fault(s, SiteFault::new(kind, probability));
        }
        plan
    }

    /// No site has any rule.
    pub fn is_empty(&self) -> bool {
        self.sites.values().all(Vec::is_empty)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    /// Parse from JSON (the `svqa-cli serve --fault-plan FILE` format).
    pub fn from_json(text: &str) -> Result<FaultPlan, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(42)
            .with_fault(site::SOURCE_KG, SiteFault::new(FaultKind::Error, 0.1))
            .with_fault(
                site::SOURCE_KG,
                SiteFault::limited(FaultKind::Latency(25), 0.05, 3),
            )
            .with_fault(site::CACHE_GET, SiteFault::new(FaultKind::DropResult, 0.2))
            .with_fault(
                site::DETECTOR_DETECT,
                SiteFault::new(FaultKind::CorruptLabel, 0.3),
            );
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn uniform_covers_all_sites() {
        let plan = FaultPlan::uniform(1, &site::ALL, FaultKind::DropResult, 0.5);
        assert_eq!(plan.sites.len(), site::ALL.len());
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(9).is_empty());
    }

    #[test]
    fn minimal_json_parses_with_defaults() {
        let plan = FaultPlan::from_json(r#"{"seed": 7}"#).unwrap();
        assert_eq!(plan.seed, 7);
        assert!(plan.is_empty());
        let plan = FaultPlan::from_json(
            r#"{"seed": 7, "sites": {"source.kg": [{"kind": "Error", "probability": 0.1}]}}"#,
        )
        .unwrap();
        assert_eq!(plan.sites["source.kg"][0].kind, FaultKind::Error);
        assert_eq!(plan.sites["source.kg"][0].max_triggers, None);
    }
}

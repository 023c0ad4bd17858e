//! The injection machinery: deterministic per-site draws, and the global
//! installation that arms every site in the process.

use crate::plan::{FaultKind, FaultPlan};
use crate::unit_draw;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svqa_telemetry::{counter, global};

/// Per-site decision state: total draws (the deterministic sequence
/// position) and per-rule trigger counts (for `max_triggers`).
#[derive(Debug, Default)]
struct SiteState {
    draws: u64,
    triggers: Vec<u64>,
}

/// A fault injector over one [`FaultPlan`].
///
/// Usable standalone (tests, simulations) or installed process-globally
/// via [`install`] so the workspace's injection sites see it.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    state: Mutex<HashMap<String, SiteState>>,
}

impl Injector {
    /// Build an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// One deterministic decision at `site`: `None` = proceed normally,
    /// `Some(kind)` = the fault to inject. Decision `n` at a site is a pure
    /// function of `(plan.seed, site, n)`, independent of every other site.
    pub fn draw(&self, site: &str) -> Option<FaultKind> {
        let faults = self.plan.sites.get(site)?;
        if faults.is_empty() {
            return None;
        }
        let mut state = self.state.lock();
        let st = state.entry(site.to_owned()).or_default();
        if st.triggers.len() < faults.len() {
            st.triggers.resize(faults.len(), 0);
        }
        let n = st.draws;
        st.draws += 1;
        let u = unit_draw(self.plan.seed, site, n);
        let mut cumulative = 0.0;
        for (i, fault) in faults.iter().enumerate() {
            cumulative += fault.probability;
            if u < cumulative {
                // An exhausted rule still owns its probability slice, so
                // disarming never perturbs sibling rules' sequences.
                if fault.max_triggers.is_some_and(|max| st.triggers[i] >= max) {
                    return None;
                }
                st.triggers[i] += 1;
                return Some(fault.kind);
            }
        }
        None
    }

    /// How many decisions `site` has made (the determinism probe: two runs
    /// over the same call sequence end at the same count).
    pub fn draws_at(&self, site: &str) -> u64 {
        self.state.lock().get(site).map_or(0, |s| s.draws)
    }

    /// Total faults this injector has fired across all sites.
    pub fn faults_fired(&self) -> u64 {
        self.state
            .lock()
            .values()
            .map(|s| s.triggers.iter().sum::<u64>())
            .sum()
    }
}

/// Fast disarm check: with no plan installed, [`draw`] is one relaxed
/// atomic load — the "zero-cost when not armed" contract.
static ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<Injector>>> = Mutex::new(None);
/// Serializes plan installations process-wide (held by [`InstalledPlan`]),
/// so concurrently running tests cannot interleave plans.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The process-global injection decision. Sites call this at their fault
/// points; it returns `None` immediately (one relaxed atomic load) unless
/// a plan is installed. Fired faults bump the `faults_injected` counter.
#[inline]
pub fn draw(site: &str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    draw_armed(site)
}

/// The slow path, outlined so the disarmed fast path stays trivial.
fn draw_armed(site: &str) -> Option<FaultKind> {
    let injector = GLOBAL.lock().clone()?;
    let kind = injector.draw(site)?;
    global().incr_counter(counter::FAULTS_INJECTED);
    Some(kind)
}

/// The currently installed injector, if any (for assertions and status
/// endpoints; returns `None` when disarmed).
pub fn active() -> Option<Arc<Injector>> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL.lock().clone()
}

/// Install `plan` process-globally, arming every injection site. The
/// returned guard disarms on drop; holding it also serializes installers
/// (a second `install` blocks until the first guard drops), which keeps
/// concurrently running chaos tests from seeing each other's plans.
pub fn install(plan: FaultPlan) -> InstalledPlan {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let injector = Arc::new(Injector::new(plan));
    *GLOBAL.lock() = Some(Arc::clone(&injector));
    ARMED.store(true, Ordering::SeqCst);
    InstalledPlan {
        injector,
        _serial: serial,
    }
}

/// RAII guard for an installed [`FaultPlan`]: the plan stays armed until
/// this drops.
pub struct InstalledPlan {
    injector: Arc<Injector>,
    _serial: std::sync::MutexGuard<'static, ()>,
}

impl InstalledPlan {
    /// The armed injector (for determinism assertions).
    pub fn injector(&self) -> &Arc<Injector> {
        &self.injector
    }
}

impl Drop for InstalledPlan {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *GLOBAL.lock() = None;
    }
}

/// Apply a [`FaultKind::Latency`] fault: sleep `ms`, but never past
/// `deadline`. Returns `true` if the full latency fit the budget (callers
/// that treat an over-budget stall as a failed operation check this).
pub fn apply_latency(ms: u64, deadline: Option<Instant>) -> bool {
    let wanted = Duration::from_millis(ms);
    let allowed = match deadline {
        Some(d) => d.saturating_duration_since(Instant::now()).min(wanted),
        None => wanted,
    };
    if !allowed.is_zero() {
        std::thread::sleep(allowed);
    }
    allowed >= wanted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteFault;
    use crate::site;

    #[test]
    fn same_seed_reproduces_the_identical_fault_sequence() {
        let plan = FaultPlan::new(0xC0FFEE)
            .with_fault(site::SOURCE_KG, SiteFault::new(FaultKind::Error, 0.3))
            .with_fault(site::SOURCE_KG, SiteFault::new(FaultKind::DropResult, 0.2));
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan);
        let seq_a: Vec<_> = (0..200).map(|_| a.draw(site::SOURCE_KG)).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.draw(site::SOURCE_KG)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.contains(&Some(FaultKind::Error)));
        assert!(seq_a.contains(&Some(FaultKind::DropResult)));
        assert!(seq_a.iter().any(Option::is_none));
        assert_eq!(a.draws_at(site::SOURCE_KG), 200);
    }

    #[test]
    fn different_sites_draw_independent_sequences() {
        let plan = FaultPlan::uniform(
            9,
            &[site::CACHE_GET, site::CACHE_PUT],
            FaultKind::DropResult,
            0.5,
        );
        let inj = Injector::new(plan);
        let a: Vec<_> = (0..64)
            .map(|_| inj.draw(site::CACHE_GET).is_some())
            .collect();
        let b: Vec<_> = (0..64)
            .map(|_| inj.draw(site::CACHE_PUT).is_some())
            .collect();
        assert_ne!(a, b, "sites should decorrelate");
    }

    #[test]
    fn probability_extremes_and_unknown_sites() {
        let plan = FaultPlan::new(1)
            .with_fault("always", SiteFault::new(FaultKind::Error, 1.0))
            .with_fault("never", SiteFault::new(FaultKind::Error, 0.0));
        let inj = Injector::new(plan);
        assert!((0..50).all(|_| inj.draw("always") == Some(FaultKind::Error)));
        assert!((0..50).all(|_| inj.draw("never").is_none()));
        assert!(inj.draw("no.such.site").is_none());
        assert_eq!(inj.draws_at("no.such.site"), 0);
    }

    #[test]
    fn max_triggers_disarms_without_shifting_siblings() {
        let limited = FaultPlan::new(3)
            .with_fault("s", SiteFault::limited(FaultKind::Error, 0.5, 2))
            .with_fault("s", SiteFault::new(FaultKind::DropResult, 0.3));
        let unlimited = FaultPlan::new(3)
            .with_fault("s", SiteFault::new(FaultKind::Error, 0.5))
            .with_fault("s", SiteFault::new(FaultKind::DropResult, 0.3));
        let a = Injector::new(limited);
        let b = Injector::new(unlimited);
        let seq_a: Vec<_> = (0..100).map(|_| a.draw("s")).collect();
        let seq_b: Vec<_> = (0..100).map(|_| b.draw("s")).collect();
        assert_eq!(
            seq_a
                .iter()
                .filter(|k| **k == Some(FaultKind::Error))
                .count(),
            2,
            "rule must disarm after 2 triggers"
        );
        // The sibling DropResult rule fires at exactly the same positions.
        let drops = |seq: &[Option<FaultKind>]| -> Vec<usize> {
            seq.iter()
                .enumerate()
                .filter(|(_, k)| **k == Some(FaultKind::DropResult))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(drops(&seq_a), drops(&seq_b));
        assert_eq!(a.faults_fired(), 2 + drops(&seq_a).len() as u64);
    }

    #[test]
    fn install_arms_and_drop_disarms() {
        assert!(draw("anything").is_none());
        {
            let guard =
                install(FaultPlan::new(5).with_fault("g", SiteFault::new(FaultKind::Error, 1.0)));
            assert_eq!(draw("g"), Some(FaultKind::Error));
            assert!(active().is_some());
            assert_eq!(guard.injector().draws_at("g"), 1);
        }
        assert!(draw("g").is_none());
        assert!(active().is_none());
    }

    #[test]
    fn latency_respects_deadlines() {
        let t0 = Instant::now();
        assert!(apply_latency(5, None));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        let tight = Instant::now() + Duration::from_millis(2);
        let t1 = Instant::now();
        assert!(
            !apply_latency(500, Some(tight)),
            "capped sleep is a failed stall"
        );
        assert!(t1.elapsed() < Duration::from_millis(400));
        // Expired deadline: no sleep at all.
        let t2 = Instant::now();
        assert!(!apply_latency(50, Some(Instant::now())));
        assert!(t2.elapsed() < Duration::from_millis(40));
    }
}

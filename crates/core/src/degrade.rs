//! Graceful degradation: per-source circuit breakers, transient-fault
//! retries, and partial answers over the surviving sources.
//!
//! SVQA's merged graph folds two evidence sources — the external knowledge
//! graph and the per-image scene graphs — into one structure, so "one
//! source is down" is a *view* question, not a storage question: KG
//! vertices occupy the low id range (absorb order), scene vertices the
//! rest. When a source's breaker is open,
//! [`Svqa::answer_guarded`](crate::Svqa::answer_guarded) executes against
//! a lazily-built filtered copy of the merged graph that keeps only the
//! surviving source's vertices, and labels the result
//! [`AnswerStatus::Degraded`].

use std::fmt;
use std::time::Instant;
use svqa_fault::{
    Acquire, BreakerState, CircuitBreaker, DegradePolicy, FaultKind, RetryPolicy, Source,
};
use svqa_graph::Graph;
use svqa_telemetry::{counter, gauge, global};

/// How complete the evidence behind an answer was.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerStatus {
    /// All sources participated.
    Full,
    /// One or more sources were unavailable; the answer came from the
    /// survivors.
    Degraded {
        /// Names of the sources that did not participate (see
        /// [`Source::name`]).
        missing_sources: Vec<String>,
        /// Total confidence penalty in `[0, 1]` (policy penalty × missing
        /// sources).
        confidence_penalty: f64,
    },
}

impl AnswerStatus {
    /// Whether any source was missing.
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnswerStatus::Degraded { .. })
    }

    /// Stable status label for response payloads: `"ok"` or `"degraded"`.
    pub fn label(&self) -> &'static str {
        match self {
            AnswerStatus::Full => "ok",
            AnswerStatus::Degraded { .. } => "degraded",
        }
    }
}

impl fmt::Display for AnswerStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerStatus::Full => f.write_str("ok"),
            AnswerStatus::Degraded {
                missing_sources,
                confidence_penalty,
            } => write!(
                f,
                "degraded (missing: {}; confidence -{confidence_penalty:.2})",
                missing_sources.join(", ")
            ),
        }
    }
}

/// An answer plus how complete the evidence behind it was.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedAnswer {
    /// The answer from whatever evidence survived.
    pub answer: svqa_executor::Answer,
    /// Full or degraded.
    pub status: AnswerStatus,
}

/// The per-source breakers guarding a [`crate::Svqa`] system.
#[derive(Debug)]
pub struct Breakers {
    kg: CircuitBreaker,
    scene: CircuitBreaker,
}

impl Breakers {
    /// Fresh (closed) breakers with the policy's tuning.
    pub fn new(policy: &DegradePolicy) -> Breakers {
        Breakers {
            kg: CircuitBreaker::new(policy.breaker),
            scene: CircuitBreaker::new(policy.breaker),
        }
    }

    /// The breaker guarding `source`.
    pub fn for_source(&self, source: Source) -> &CircuitBreaker {
        match source {
            Source::Kg => &self.kg,
            Source::Scene => &self.scene,
        }
    }

    /// Current state per source, in [`Source::ALL`] order.
    pub fn states(&self) -> Vec<(Source, BreakerState)> {
        Source::ALL
            .iter()
            .map(|&s| (s, self.for_source(s).state()))
            .collect()
    }

    /// Overall health: `ok` (all closed), `unhealthy` (all open), else
    /// `degraded` (anything in between, including recovering half-open).
    pub fn health(&self) -> &'static str {
        let states = self.states();
        if states.iter().all(|(_, s)| *s == BreakerState::Closed) {
            "ok"
        } else if states.iter().all(|(_, s)| *s == BreakerState::Open) {
            "unhealthy"
        } else {
            "degraded"
        }
    }

    /// Push each breaker's state onto its telemetry gauge.
    pub fn publish_gauges(&self) {
        global().set_gauge(gauge::BREAKER_STATE_KG, self.kg.state().gauge_value());
        global().set_gauge(gauge::BREAKER_STATE_SCENE, self.scene.state().gauge_value());
    }
}

/// Outcome of one per-query source probe.
pub(crate) enum ProbeOutcome {
    /// The source answered (possibly after retries).
    Available,
    /// The source failed past the retry budget; the breaker recorded it.
    Down,
    /// The breaker was already open; the source was not touched.
    Rejected {
        /// Cooldown remaining, as a client `Retry-After` hint.
        retry_after_ms: u64,
    },
}

/// Probe one source's availability for this query: gate on the breaker,
/// draw the source's injection site, and retry transient errors within the
/// policy and deadline budget.
pub(crate) fn probe_source(
    breakers: &Breakers,
    policy: &DegradePolicy,
    source: Source,
    deadline: Option<Instant>,
) -> ProbeOutcome {
    let breaker = breakers.for_source(source);
    match breaker.try_acquire() {
        Acquire::Rejected { retry_after } => ProbeOutcome::Rejected {
            retry_after_ms: retry_after.as_millis().try_into().unwrap_or(u64::MAX),
        },
        Acquire::Ready | Acquire::Probe => {
            // Deterministic per-source salt: keeps the two sources' backoff
            // jitter decorrelated while staying reproducible per plan.
            let salt = match source {
                Source::Kg => 0x6b67,
                Source::Scene => 0x7363,
            };
            if attempt_with_retry(&policy.retry, source.probe_site(), salt, deadline) {
                breaker.record_success();
                ProbeOutcome::Available
            } else {
                breaker.record_failure();
                ProbeOutcome::Down
            }
        }
    }
}

/// Draw `site` until it succeeds or the retry/deadline budget runs out.
/// Returns whether the operation ultimately succeeded.
fn attempt_with_retry(
    retry: &RetryPolicy,
    site: &str,
    salt: u64,
    deadline: Option<Instant>,
) -> bool {
    let mut attempt = 0u32;
    loop {
        match svqa_fault::draw(site) {
            None | Some(FaultKind::CorruptLabel) => return true,
            // A stalled source that still fits the deadline counts as
            // success; a stall truncated by the deadline does not.
            Some(FaultKind::Latency(ms)) => return svqa_fault::apply_latency(ms, deadline),
            // The result is silently gone — retrying cannot bring it back.
            Some(FaultKind::DropResult) => return false,
            Some(FaultKind::Error) => {
                if !retry.fits(attempt, salt, deadline) {
                    return false;
                }
                global().incr_counter(counter::FAULT_RETRIES);
                std::thread::sleep(retry.backoff(attempt, salt));
                attempt += 1;
            }
        }
    }
}

/// Retry a fallible execution closure on injected transient errors, within
/// the policy and deadline budget. Non-injected errors return immediately.
pub(crate) fn execute_with_retry<T>(
    retry: &RetryPolicy,
    deadline: Option<Instant>,
    mut run: impl FnMut() -> Result<T, svqa_executor::executor::ExecError>,
) -> Result<T, svqa_executor::executor::ExecError> {
    let mut attempt = 0u32;
    loop {
        match run() {
            Err(svqa_executor::executor::ExecError::Injected)
                if retry.fits(attempt, 0x6578, deadline) =>
            {
                global().incr_counter(counter::FAULT_RETRIES);
                std::thread::sleep(retry.backoff(attempt, 0x6578));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Copy the subgraph induced by the vertices `keep` accepts (by dense
/// vertex index), preserving labels and properties. Edge endpoints are
/// remapped; edges with a dropped endpoint are dropped. The copy shares
/// the source graph's labels.
pub(crate) fn filter_view(graph: &Graph, keep: impl Fn(usize) -> bool) -> Graph {
    let mut view = Graph::with_capacity(graph.vertex_count(), graph.edge_count());
    view.absorb_where(graph, |v| keep(v.index()));
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_fault::BreakerConfig;

    fn policy() -> DegradePolicy {
        DegradePolicy {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 10,
            },
            ..DegradePolicy::default()
        }
    }

    #[test]
    fn health_reflects_breaker_states() {
        let b = Breakers::new(&policy());
        assert_eq!(b.health(), "ok");
        b.for_source(Source::Kg).force_open();
        assert_eq!(b.health(), "degraded");
        b.for_source(Source::Scene).force_open();
        assert_eq!(b.health(), "unhealthy");
        b.for_source(Source::Kg).record_success();
        b.for_source(Source::Scene).record_success();
        assert_eq!(b.health(), "ok");
    }

    #[test]
    fn probe_rejected_while_breaker_open() {
        let b = Breakers::new(&policy());
        b.for_source(Source::Kg).force_open();
        match probe_source(&b, &policy(), Source::Kg, None) {
            ProbeOutcome::Rejected { retry_after_ms } => assert!(retry_after_ms <= 10),
            _ => panic!("expected rejection"),
        }
        // No plan installed: the scene probe trivially succeeds.
        assert!(matches!(
            probe_source(&b, &policy(), Source::Scene, None),
            ProbeOutcome::Available
        ));
    }

    #[test]
    fn filter_view_keeps_induced_subgraph() {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        g.add_edge(a, b, "ab").unwrap();
        g.add_edge(b, c, "bc").unwrap();
        g.add_edge(a, c, "ac").unwrap();
        let view = filter_view(&g, |i| i != 1);
        assert_eq!(view.vertex_count(), 2);
        assert_eq!(view.edge_count(), 1);
        let labels: Vec<_> = view.vertices().map(|(_, v)| v.label().to_owned()).collect();
        assert_eq!(labels, ["a", "c"]);
        assert_eq!(view.edges().next().unwrap().1.label(), "ac");
    }

    #[test]
    fn status_labels() {
        assert_eq!(AnswerStatus::Full.label(), "ok");
        let d = AnswerStatus::Degraded {
            missing_sources: vec!["kg".into()],
            confidence_penalty: 0.25,
        };
        assert_eq!(d.label(), "degraded");
        assert!(d.is_degraded());
        assert!(d.to_string().contains("kg"));
    }
}

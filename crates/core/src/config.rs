//! Whole-pipeline configuration.

use serde::{Deserialize, Serialize};
use svqa_aggregator::AggregatorConfig;
use svqa_executor::executor::ExecutorConfig;
use svqa_executor::scheduler::SchedulerConfig;
use svqa_vision::sgg::SggConfig;

/// Configuration for the full SVQA pipeline.
#[derive(Debug, Clone, Default)]
pub struct SvqaConfig {
    /// Scene-graph generation (§III-A): detector channel, relation model,
    /// TDE.
    pub sgg: SggConfig,
    /// Data aggregation (§III-B): subgraph-cache thresholds.
    pub aggregator: AggregatorConfig,
    /// Single-query execution (§V-A). It has no fields; it stays because
    /// the benchmark harness names it.
    pub executor: ExecutorConfig,
    /// Multi-query scheduling and caching (§V-B).
    pub scheduler: SchedulerConfig,
    /// Failure handling: circuit-breaker, retry, and partial-answer tuning
    /// used by `Svqa::answer_guarded` and `svqa serve`.
    pub degrade: svqa_fault::DegradePolicy,
}

/// Serializable summary of a configuration, for experiment reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigSummary {
    /// SGG model name.
    pub sgg_model: String,
    /// Whether TDE is on.
    pub tde: bool,
    /// Aggregator frequency threshold `c'`.
    pub frequency_threshold: usize,
    /// Aggregator neighbourhood radius `k`.
    pub k: usize,
    /// Cache pool size.
    pub pool_size: usize,
}

impl SvqaConfig {
    /// Summarize for reports.
    pub fn summary(&self) -> ConfigSummary {
        ConfigSummary {
            sgg_model: self.sgg.model.name().to_owned(),
            tde: self.sgg.use_tde,
            frequency_threshold: self.aggregator.frequency_threshold,
            k: self.aggregator.k,
            pool_size: self.scheduler.pool_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_choices() {
        let c = SvqaConfig::default();
        assert!(c.sgg.use_tde); // TDE is the paper's default (§III-A)
        assert_eq!(c.aggregator.frequency_threshold, 5); // "more than 5 times"
        assert_eq!(c.aggregator.k, 2); // "we set k = 2"
        let s = c.summary();
        assert_eq!(s.sgg_model, "Neural-Motifs"); // MOTIFNET default
        assert!(s.tde);
    }
}

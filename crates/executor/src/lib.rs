//! # svqa-executor
//!
//! The Query Executor of the SVQA reproduction (§V, Algorithm 3): runs a
//! query graph `G_q` over the merged graph `G_mg` and produces the answer.
//!
//! * [`matching`] — `matchVertex` (Levenshtein + embedding lookup of SPOC
//!   noun phrases in the merged graph, with semantic expansion along
//!   `same as` links and taxonomy edges) and `getRelationpairs`;
//! * [`executor`] — the `QueryGraphExecutor` loop: query stage (relation
//!   pairs → `maxScore` predicate filter → constraint filter) and update
//!   stage (answer propagation along S2S/S2O/O2S/O2O edges);
//! * [`answer`] — the three answer forms (judgment / counting / reasoning,
//!   §V: "corresponding to answers in the form of a number, an entity, and
//!   a judgment word");
//! * [`cache`] — the key-centric cache of §V-B: *scope* items (vertex match
//!   sets) and *path* items (relation-pair sets) in one bounded pool with
//!   LFU or LRU eviction;
//! * [`scheduler`] — optimized multi-query scheduling: frequency-ratio
//!   scoring, descending execution order, shared cache, and parallel
//!   execution on `std::thread` scoped threads;
//! * [`profile`] — `EXPLAIN ANALYZE`: per-quadruple plan profiles
//!   (candidate-set funnel, cache classification, edge scans, timings)
//!   rendered as a text tree or JSON;
//! * [`words`] — the predefined constraint word set `𝕊`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod cache;
pub mod executor;
pub mod explain;
pub mod matching;
pub mod profile;
pub mod scheduler;
pub mod words;

pub use answer::Answer;
pub use cache::{CacheGranularity, CacheStats, EvictionPolicy, KeyCentricCache, ShardedCache};
pub use executor::{
    CacheOutcome, ExecError, ExecutorConfig, QueryGraphExecutor, SlotSource, SlotTrace, VertexTrace,
};
pub use explain::{Explanation, SupportFact};
pub use matching::{MatchMethod, VertexMatcher};
pub use profile::{ExecutionProfile, ProfiledRun, QuadPlan};
pub use scheduler::{BatchReport, QueryScheduler, SchedulerConfig};
pub use words::Constraint;

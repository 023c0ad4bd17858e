//! Optimized multi-query scheduling (§V-B).
//!
//! Before executing N query graphs, each distinct SPOC vertex key is
//! counted across the batch; every query graph gets a score = sum of its
//! vertices' frequency ratios, and the batch executes in descending score
//! order so queries with highly shared vertices run first and seed the
//! cache for the rest (Fig. 6). A batch runs on its caller's thread; SVQA's
//! parallelism lives across requests, one connection thread per admitted
//! request (see `svqa::serve`).

use crate::answer::Answer;
use crate::cache::{CacheGranularity, CacheStats, EvictionPolicy, KeyCentricCache};
use crate::executor::{ExecError, QueryGraphExecutor};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use svqa_graph::Graph;
use svqa_qparser::QueryGraph;

/// Batch execution configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Cache granularity (No/Scope/Path/Both — Fig. 10b).
    pub granularity: CacheGranularity,
    /// Eviction policy (LFU/LRU — Fig. 11).
    pub policy: EvictionPolicy,
    /// Cache pool size in items (Fig. 11).
    pub pool_size: usize,
    /// Whether to apply the frequency-ratio ordering (ablation switch; off
    /// = FIFO order).
    pub frequency_sort: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            granularity: CacheGranularity::Both,
            policy: EvictionPolicy::Lfu,
            pool_size: 100,
            frequency_sort: true,
        }
    }
}

/// Results of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query answers, in the *original* submission order.
    pub answers: Vec<Result<Answer, ExecError>>,
    /// Per-query execution time, in the original order.
    pub per_query: Vec<Duration>,
    /// Wall-clock time of the whole batch.
    pub total: Duration,
    /// Cache hit/miss counters of this batch's own lookups.
    pub cache_stats: CacheStats,
    /// Execution order used (indices into the original batch).
    pub order: Vec<usize>,
    /// Frequency-ratio score per query, in the original order — the
    /// scheduler's reuse rationale, regardless of whether frequency
    /// ordering was actually applied.
    pub scores: Vec<f64>,
}

/// The multi-query scheduler.
#[derive(Debug, Clone, Default)]
pub struct QueryScheduler {
    config: SchedulerConfig,
}

impl QueryScheduler {
    /// Build a scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        QueryScheduler { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The frequency-ratio ordering of §V-B: vertex keys are counted across
    /// the batch; each query's score is the sum of its vertices' frequency
    /// ratios; descending score (stable on ties).
    pub fn order(queries: &[QueryGraph]) -> Vec<usize> {
        Self::order_with_scores_hinted(queries, None).0
    }

    /// [`order`](Self::order) plus the per-query frequency-ratio scores in
    /// the *original* submission order — the reuse rationale a
    /// [`BatchReport`] carries in `scores` — with optional static
    /// cost hints (per query, original order — e.g. `qlint`'s cardinality
    /// estimates). Frequency ratio stays the primary key; among queries
    /// with equal reuse potential, the cheaper estimated plan runs first so
    /// it seeds the cache sooner, and the hint breaks ties *before* the
    /// submission index does.
    pub fn order_with_scores_hinted(
        queries: &[QueryGraph],
        cost_hints: Option<&[f64]>,
    ) -> (Vec<usize>, Vec<f64>) {
        let mut freq: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for q in queries {
            for v in &q.vertices {
                *freq.entry(vertex_key(v)).or_insert(0) += 1;
                total += 1;
            }
        }
        let score = |q: &QueryGraph| -> f64 {
            if total == 0 {
                return 0.0;
            }
            q.vertices
                .iter()
                .map(|v| freq[&vertex_key(v)] as f64 / total as f64)
                .sum()
        };
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        let scores: Vec<f64> = queries.iter().map(score).collect();
        let cost = |i: usize| -> f64 {
            cost_hints
                .and_then(|h| h.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        // `total_cmp`, not `partial_cmp().expect()`: a NaN score must not
        // panic the whole batch (it sorts last), and the index tie-break
        // keeps the order stable.
        idx.sort_by(|&a, &b| {
            scores[b]
                .total_cmp(&scores[a])
                .then(cost(a).total_cmp(&cost(b)))
                .then(a.cmp(&b))
        });
        (idx, scores)
    }

    /// Build the cache this scheduler's configuration describes — what a
    /// long-lived caller (the query service) constructs once and shares
    /// across every batch and request.
    pub fn build_cache(&self) -> KeyCentricCache {
        KeyCentricCache::new(
            self.config.granularity,
            self.config.policy,
            self.config.pool_size,
        )
    }

    /// Execute a batch of bare query graphs against a caller-owned
    /// [`KeyCentricCache`], in [`schedule`](Self::schedule) order with
    /// optional per-query cost hints. The report's `cache_stats` count this
    /// batch's own lookups, not the cache's lifetime counters.
    ///
    /// This skips the request path's lint gate, breakers and deadlines, so
    /// every in-repo batch goes through `Svqa::run_batch` instead. It is
    /// kept only for the svqabench harness, which times it as
    /// `scheduler.batch_match_ms`; ROADMAP.md item 1 moves that harness off
    /// it and deletes it.
    pub fn run_with_cache_hinted(
        &self,
        graph: &Graph,
        queries: &[QueryGraph],
        cache: &KeyCentricCache,
        cost_hints: Option<&[f64]>,
    ) -> BatchReport {
        let (order, scores) = self.schedule(queries, cost_hints);
        let executor = QueryGraphExecutor::new(graph);
        let start = Instant::now();
        let mut answers: Vec<Option<Result<Answer, ExecError>>> = vec![None; queries.len()];
        let mut per_query = vec![Duration::ZERO; queries.len()];
        let mut cache_stats = CacheStats::new();
        for &i in &order {
            let t0 = Instant::now();
            let answer = executor.run(&queries[i], Some(cache), &mut cache_stats);
            answers[i] = Some(answer.map(|run| run.answer));
            per_query[i] = t0.elapsed();
        }
        BatchReport {
            answers: answers
                .into_iter()
                .map(|a| a.expect("order names each query once"))
                .collect(),
            per_query,
            total: start.elapsed(),
            cache_stats,
            order,
            scores,
        }
    }

    /// The execution order for `queries` — the frequency-ratio order, or
    /// submission order when `frequency_sort` is off — plus every query's
    /// score (see [`order_with_scores_hinted`](Self::order_with_scores_hinted)).
    /// Recorded as the `schedule` span.
    pub fn schedule(
        &self,
        queries: &[QueryGraph],
        cost_hints: Option<&[f64]>,
    ) -> (Vec<usize>, Vec<f64>) {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::SCHEDULE);
        let (sorted, scores) = Self::order_with_scores_hinted(queries, cost_hints);
        if self.config.frequency_sort {
            (sorted, scores)
        } else {
            ((0..queries.len()).collect(), scores)
        }
    }
}

/// A vertex's identity for frequency counting: its SPOC key.
fn vertex_key(v: &svqa_qparser::Spoc) -> String {
    format!(
        "{}|{}|{}",
        v.subject.phrase, v.predicate, v.object.phrase
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svqa_graph::{GraphBuilder, VertexId};
    use svqa_qparser::QueryGraphGenerator;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.triple("dog", "is a", "pet").triple("cat", "is a", "pet");
        let mut g = b.build();
        let d = g.add_vertex("dog");
        let c = g.add_vertex("car");
        g.add_edge(d, c, "in").unwrap();
        let kg_dog = g.vertices_with_label("dog")[0];
        g.add_edge(d, kg_dog, "same as").unwrap();
        g.add_edge(kg_dog, d, "same as").unwrap();
        g
    }

    fn queries(texts: &[&str]) -> Vec<QueryGraph> {
        let gen = QueryGraphGenerator::new();
        texts.iter().map(|q| gen.generate(q).unwrap()).collect()
    }

    /// One batch on a fresh cache of `config`'s shape.
    fn run(config: SchedulerConfig, g: &Graph, qs: &[QueryGraph]) -> BatchReport {
        let scheduler = QueryScheduler::new(config);
        scheduler.run_with_cache_hinted(g, qs, &scheduler.build_cache(), None)
    }

    #[test]
    fn order_puts_most_shared_first() {
        let qs = queries(&[
            "Does the cat appear in the car?", // unique vertices
            "Does the dog appear in the car?", // shared with q2 below
            "Does the dog appear in the car?",
        ]);
        let order = QueryScheduler::order(&qs);
        // The duplicated dog queries score higher than the cat query.
        assert_eq!(*order.last().unwrap(), 0, "order = {order:?}");
    }

    #[test]
    fn run_returns_answers_in_original_order() {
        let g = graph();
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let report = run(SchedulerConfig::default(), &g, &qs);
        assert_eq!(report.answers.len(), 2);
        assert_eq!(report.answers[0], Ok(Answer::Judgment(false)));
        assert_eq!(report.answers[1], Ok(Answer::Judgment(true)));
        assert!(report.total >= report.per_query.iter().copied().max().unwrap_or_default() / 2);
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let g = graph();
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let report = run(SchedulerConfig::default(), &g, &qs);
        // Path hits short-circuit the whole query stage (scope lookups are
        // skipped entirely on a hit), so repeats register as path hits.
        let ph = report.cache_stats.path_hits;
        assert!(ph >= 2, "path hits = {ph}");
    }

    #[test]
    fn fifo_mode_keeps_submission_order() {
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let config = SchedulerConfig {
            frequency_sort: false,
            ..SchedulerConfig::default()
        };
        let report = run(config, &graph(), &qs);
        assert_eq!(report.order, vec![0, 1]);
    }

    #[test]
    fn scores_explain_the_order() {
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, scores) = QueryScheduler::order_with_scores_hinted(&qs, None);
        assert_eq!(scores.len(), 3);
        // Shared dog queries score higher than the unique cat query.
        assert!(scores[1] > scores[0] && (scores[1] - scores[2]).abs() < 1e-12);
        // The order is exactly descending score (stable on ties).
        for w in order.windows(2) {
            assert!(scores[w[0]] >= scores[w[1]], "order={order:?} scores={scores:?}");
        }
        // The report carries them through in original order.
        let report = run(SchedulerConfig::default(), &graph(), &qs);
        assert_eq!(report.scores, scores);
    }

    /// A caller-owned cache persists across batches: the second identical
    /// batch is served from cache state seeded by the first, and each
    /// report carries only its own traffic.
    #[test]
    fn shared_cache_persists_across_batches() {
        let g = graph();
        let qs = queries(&["Does the dog appear in the car?"]);
        let scheduler = QueryScheduler::new(SchedulerConfig::default());
        let cache = scheduler.build_cache();
        let first = scheduler.run_with_cache_hinted(&g, &qs, &cache, None);
        assert_eq!(first.cache_stats.path_hits, 0);
        assert!(first.cache_stats.path_misses > 0);
        let second = scheduler.run_with_cache_hinted(&g, &qs, &cache, None);
        assert!(
            second.cache_stats.path_hits > 0,
            "second batch must hit the persistent cache: {:?}",
            second.cache_stats
        );
        assert_eq!(second.cache_stats.path_misses, 0);
        assert_eq!(first.answers, second.answers);
    }

    /// The default cache is one pool of 100 items under either policy: it
    /// holds 100 distinct keys, and the 101st put evicts exactly the
    /// policy minimum over all 100.
    #[test]
    fn default_cache_is_one_pool_with_global_eviction() {
        for policy in [EvictionPolicy::Lfu, EvictionPolicy::Lru] {
            let config = SchedulerConfig {
                policy,
                ..SchedulerConfig::default()
            };
            let cache = QueryScheduler::new(config).build_cache();
            // Model: (key, freq, last_used), on the cache's tick clock
            // (every get and put advances it by one).
            let mut tick = 0u64;
            let mut model: Vec<(String, u64, u64)> = Vec::new();
            for i in 0..100 {
                let key = format!("k{i}");
                tick += 1;
                cache.put(&key, Arc::new(vec![VertexId::from_index(i)]));
                model.push((key, 1, tick));
            }
            assert_eq!(cache.len(), 100, "{policy:?}");
            for i in 0..150usize {
                let idx = (i * i + 7 * i) % 100;
                tick += 1;
                let hit = cache.get::<VertexId>(&model[idx].0, &mut CacheStats::new());
                assert!(hit.is_some(), "{policy:?}: {} missing", model[idx].0);
                model[idx].1 += 1;
                model[idx].2 = tick;
            }
            cache.put("fresh", Arc::new(Vec::<VertexId>::new()));
            let victim = &model
                .iter()
                .min_by_key(|(_, freq, last)| match policy {
                    EvictionPolicy::Lfu => (*freq, *last),
                    EvictionPolicy::Lru => (*last, *freq),
                })
                .expect("100 keys")
                .0;
            assert_eq!(cache.len(), 100, "{policy:?}");
            for (key, _, _) in &model {
                let evicted = cache.frequency::<VertexId>(key).is_none();
                assert_eq!(evicted, key == victim, "{policy:?}: {key}, victim {victim}");
            }
        }
    }

    /// Regression for the score sort: exact ties must keep submission
    /// order (stable index tie-break), run after run.
    #[test]
    fn equal_scores_keep_submission_order() {
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        for _ in 0..4 {
            let (order, scores) = QueryScheduler::order_with_scores_hinted(&qs, None);
            assert_eq!(order, vec![0, 1, 2]);
            assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        }
    }

    /// Among equal frequency scores, the cost hint decides: cheaper plans
    /// run first. Without hints the submission index still breaks ties.
    #[test]
    fn cost_hints_break_frequency_ties() {
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, _) =
            QueryScheduler::order_with_scores_hinted(&qs, Some(&[3.0, 1.0, 2.0]));
        assert_eq!(order, vec![1, 2, 0]);
        // Hints must never override the frequency ordering itself.
        let mixed = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, scores) =
            QueryScheduler::order_with_scores_hinted(&mixed, Some(&[0.0, 9.0, 9.0]));
        assert_eq!(*order.last().unwrap(), 0, "order={order:?} scores={scores:?}");
    }

    #[test]
    fn empty_batch() {
        let report = run(SchedulerConfig::default(), &graph(), &[]);
        assert!(report.answers.is_empty());
        assert!(report.order.is_empty());
    }
}

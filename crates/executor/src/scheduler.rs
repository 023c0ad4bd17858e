//! Optimized multi-query scheduling (§V-B) and parallel execution.
//!
//! Before executing N query graphs, each distinct SPOC vertex key is
//! counted across the batch; every query graph gets a score = sum of its
//! vertices' frequency ratios, and the batch executes in descending score
//! order so queries with highly shared vertices run first and seed the
//! cache for the rest (Fig. 6). "We parallelize our algorithm to further
//! improve its performance" — with `threads > 1` a worker pool drains the
//! ordered queue, sharing one key-centric cache behind its lock.

use crate::answer::Answer;
use crate::cache::{CacheGranularity, CacheStats, EvictionPolicy, KeyCentricCache};
use crate::executor::{ExecError, QueryGraphExecutor};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
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
    /// Worker threads; 1 = sequential.
    pub threads: usize,
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
            threads: 1,
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

    /// Build the cache this scheduler's configuration describes —
    /// what [`run`](Self::run) uses per batch, and what a long-lived caller
    /// (the query service) constructs once and feeds to
    /// [`run_with_cache_hinted`](Self::run_with_cache_hinted) forever.
    pub fn build_cache(&self) -> KeyCentricCache {
        KeyCentricCache::new(
            self.config.granularity,
            self.config.policy,
            self.config.pool_size,
        )
    }

    /// Execute a batch of query graphs over the merged graph with a fresh
    /// per-batch cache.
    pub fn run(&self, graph: &Graph, queries: &[QueryGraph]) -> BatchReport {
        self.run_with_cache_hinted(graph, queries, &self.build_cache(), None)
    }

    /// Execute a batch against a caller-owned [`KeyCentricCache`], so cache
    /// state persists across batches (and across requests when the cache
    /// belongs to the serving layer), with optional per-query cost hints
    /// forwarded to the frequency ordering (see
    /// [`order_with_scores_hinted`](Self::order_with_scores_hinted)). The
    /// report's `cache_stats` count this batch's own lookups, not the
    /// cache's lifetime counters.
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
        let ran = self.run_ordered(queries.iter().collect(), &order, |gq| {
            let t0 = Instant::now();
            let mut traffic = CacheStats::new();
            let answer = executor.run(gq, Some(cache), &mut traffic).map(|run| run.answer);
            (answer, t0.elapsed(), traffic)
        });
        let mut report = BatchReport {
            answers: Vec::with_capacity(ran.len()),
            per_query: Vec::with_capacity(ran.len()),
            total: start.elapsed(),
            cache_stats: CacheStats::new(),
            order,
            scores,
        };
        for (answer, elapsed, traffic) in ran {
            report.answers.push(answer);
            report.per_query.push(elapsed);
            report.cache_stats.merge(&traffic);
        }
        report
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

    /// The batch loop: call `work` on every item in `order` (which must
    /// name each item once), on the calling thread, or with `threads > 1`
    /// on a worker pool draining the ordered queue (the graph is shared
    /// immutably, the cache behind its own lock). Results come
    /// back in item order. Behind both
    /// [`run_with_cache_hinted`](Self::run_with_cache_hinted) and the
    /// pipeline's full-path batch.
    pub fn run_ordered<I: Send, T: Send>(
        &self,
        items: Vec<I>,
        order: &[usize],
        work: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        let mut slots: Vec<Option<I>> = items.into_iter().map(Some).collect();
        let queue: VecDeque<(usize, I)> = order
            .iter()
            .map(|&i| (i, slots[i].take().expect("order names each item once")))
            .collect();
        let mut results: Vec<Option<T>> = (0..slots.len()).map(|_| None).collect();
        if self.config.threads <= 1 {
            for (i, item) in queue {
                results[i] = Some(work(item));
            }
        } else {
            let queue = Mutex::new(queue);
            let done = Mutex::new(Vec::with_capacity(slots.len()));
            std::thread::scope(|scope| {
                for _ in 0..self.config.threads {
                    scope.spawn(|| loop {
                        let Some((i, item)) = queue.lock().pop_front() else {
                            break;
                        };
                        let out = work(item);
                        done.lock().push((i, out));
                    });
                }
            });
            for (i, out) in done.into_inner() {
                results[i] = Some(out);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every item ran"))
            .collect()
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
        let report = QueryScheduler::new(SchedulerConfig::default()).run(&g, &qs);
        assert_eq!(report.answers.len(), 2);
        assert_eq!(report.answers[0], Ok(Answer::Judgment(false)));
        assert_eq!(report.answers[1], Ok(Answer::Judgment(true)));
        assert!(report.total >= report.per_query.iter().copied().max().unwrap_or_default() / 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = graph();
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the cat appear in the car?",
            "How many dogs are in the car?",
            "Does the dog appear in the car?",
        ]);
        let seq = QueryScheduler::new(SchedulerConfig::default()).run(&g, &qs);
        let par = QueryScheduler::new(SchedulerConfig {
            threads: 4,
            ..SchedulerConfig::default()
        })
        .run(&g, &qs);
        assert_eq!(seq.answers, par.answers);
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let g = graph();
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let report = QueryScheduler::new(SchedulerConfig::default()).run(&g, &qs);
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
        let report = QueryScheduler::new(SchedulerConfig {
            frequency_sort: false,
            ..SchedulerConfig::default()
        })
        .run(&graph(), &qs);
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
        let report = QueryScheduler::new(SchedulerConfig::default()).run(&graph(), &qs);
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
        let report = QueryScheduler::new(SchedulerConfig::default()).run(&graph(), &[]);
        assert!(report.answers.is_empty());
        assert!(report.order.is_empty());
    }
}

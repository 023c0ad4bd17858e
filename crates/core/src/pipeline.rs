//! The end-to-end SVQA pipeline (Fig. 2 of the paper).

use crate::config::SvqaConfig;
use crate::degrade::{
    execute_with_retry, filter_view, probe_source, AnswerStatus, Breakers, GuardedAnswer,
    ProbeOutcome,
};
use crate::error::SvqaError;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use svqa_fault::{BreakerState, Source};
use svqa_aggregator::{Attacher, DataAggregator};
use svqa_executor::cache::ShardedCache;
use svqa_executor::executor::QueryGraphExecutor;
use svqa_executor::scheduler::{BatchReport, QueryScheduler};
use svqa_executor::{Answer, CacheStats};
use svqa_graph::Graph;
use svqa_qlint::{LintReport, Linter, Schema, Severity};
use svqa_qparser::{QueryGraph, QueryGraphGenerator};
use svqa_telemetry::{counter, global, stage, QueryOutcome, QueryTrace, Span};
use svqa_vision::prior::PairPrior;
use svqa_vision::scene::SyntheticImage;
use svqa_vision::sgg::SceneGraphGenerator;
use svqa_vision::SceneRecords;

/// Offline build statistics.
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// Number of scene graphs generated.
    pub scene_graphs: usize,
    /// Merged-graph vertex count.
    pub merged_vertices: usize,
    /// Merged-graph edge count.
    pub merged_edges: usize,
    /// Aggregator accounting (Algorithm 1).
    pub merge: svqa_aggregator::MergeStats,
    /// Wall-clock time of scene-graph generation.
    pub sgg_time: Duration,
    /// Wall-clock time of graph merging.
    pub merge_time: Duration,
}

impl BuildStats {
    /// One-line human summary of the offline phase.
    pub fn summary_line(&self) -> String {
        format!(
            "{} scene graphs in {:.1?}; merged {} vertices / {} edges in {:.1?}",
            self.scene_graphs,
            self.sgg_time,
            self.merged_vertices,
            self.merged_edges,
            self.merge_time
        )
    }
}

/// Scene-graph generation over `images` as flat records, one per
/// contiguous chunk, in image order. Chunks beyond the first run on scoped
/// worker threads while the calling thread generates the first; results
/// join in chunk order. Each image draws from its own RNG stream, so the
/// records do not depend on `workers`.
fn scene_records(
    sgg: &SceneGraphGenerator,
    images: &[SyntheticImage],
    workers: usize,
) -> Vec<SceneRecords> {
    let mut chunks = images.chunks(images.len().div_ceil(workers.max(1)).max(1));
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || sgg.generate_records(chunk)))
            .collect();
        let mut records = Vec::with_capacity(rest.len() + 1);
        records.push(sgg.generate_records(first));
        for worker in rest {
            records.push(
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        records
    })
}

/// Worker count for [`scene_records`]: one per available core, but a
/// single one while a fault plan is armed, so each fault site draws in
/// image order.
fn sgg_workers() -> usize {
    if svqa_fault::active().is_some() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Result of answering a batch of questions.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-question results (original order). Parse failures are recorded
    /// as errors, matching the paper's Fig. 8a error analysis.
    pub answers: Vec<Result<Answer, SvqaError>>,
    /// Total wall-clock latency of the batch.
    pub total: Duration,
    /// Wall-clock per question (original order; parse-failed questions
    /// carry their parse time).
    pub per_query: Vec<Duration>,
    /// Cache hit/miss counters accumulated over the batch.
    pub cache_stats: CacheStats,
    /// Per-question telemetry traces (original order).
    pub traces: Vec<QueryTrace>,
}

/// The assembled system: merged graph + query pipeline.
pub struct Svqa {
    config: SvqaConfig,
    merged: Graph,
    generator: QueryGraphGenerator,
    build_stats: BuildStats,
    /// The scene-graph generator, retained for incremental ingestion (its
    /// prior is the one fitted on the original corpus — a deployed model
    /// does not retrain per batch).
    sgg: SceneGraphGenerator,
    /// KG vertices occupy merged ids `0..kg_vertex_count` (absorb order),
    /// which is how incremental linking finds knowledge counterparts.
    kg_vertex_count: usize,
    /// Static query-graph analyzer over the merged graph's extracted
    /// schema; every `answer*` path runs it before the executor and
    /// short-circuits error-severity findings.
    linter: Linter,
    /// Per-source circuit breakers for [`answer_guarded`](Self::answer_guarded).
    breakers: Breakers,
    /// Lazily-built merged-graph view without KG vertices (scene evidence
    /// only), for degraded execution when the KG breaker is open.
    scene_view: OnceLock<Graph>,
    /// Lazily-built merged-graph view without scene vertices (KG evidence
    /// only).
    kg_view: OnceLock<Graph>,
}

impl Svqa {
    /// Offline phase: run scene-graph generation over every image (fitting
    /// the relation model's prior on the corpus), then merge with the
    /// knowledge graph (Algorithm 1).
    pub fn build(images: &[SyntheticImage], kg: &Graph, config: SvqaConfig) -> Svqa {
        let prior = PairPrior::fit(images);
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), prior);
        let t0 = Instant::now();
        let records = scene_records(&sgg, images, sgg_workers());
        let sgg_time = t0.elapsed();
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, images.len() as u64);

        let t1 = Instant::now();
        let aggregator = DataAggregator::new(config.aggregator.clone());
        let merged = aggregator.merge_records(&records, kg);
        let merge_time = t1.elapsed();
        // Free the records before the schema and linter allocate theirs.
        drop(records);

        let build_stats = BuildStats {
            scene_graphs: images.len(),
            merged_vertices: merged.graph.vertex_count(),
            merged_edges: merged.graph.edge_count(),
            merge: merged.stats,
            sgg_time,
            merge_time,
        };
        let linter = Linter::new(Schema::extract(&merged.graph));
        let breakers = Breakers::new(&config.degrade);
        Svqa {
            config,
            merged: merged.graph,
            generator: QueryGraphGenerator::new(),
            build_stats,
            sgg,
            kg_vertex_count: kg.vertex_count(),
            linter,
            breakers,
            scene_view: OnceLock::new(),
            kg_view: OnceLock::new(),
        }
    }

    /// Incremental ingestion: run scene-graph generation over `images` and
    /// attach them to the existing merged graph (the data-lake scenario of
    /// §I — new sources arrive continuously, and rebuilding `G_mg` from
    /// scratch per batch would defeat the aggregator). Returns the number
    /// of new link edges created.
    ///
    /// Note: callers running batches through the §V-B scheduler should
    /// start a fresh [`svqa_executor::cache::ShardedCache`] afterwards —
    /// cached scopes and paths predate the new evidence.
    pub fn add_images(&mut self, images: &[SyntheticImage]) -> usize {
        let records = scene_records(&self.sgg, images, sgg_workers());
        let kg_vertex_count = self.kg_vertex_count;
        // Knowledge counterpart: the first vertex with this label inside
        // the KG id range.
        let mut attacher = Attacher::new(
            &mut self.merged,
            &self.config.aggregator.link_label,
            |merged, label| {
                merged
                    .vertices_with_label(label)
                    .iter()
                    .copied()
                    .find(|v| v.index() < kg_vertex_count)
            },
        );
        for scene in records.iter().flat_map(SceneRecords::scenes) {
            attacher.attach_scene(scene);
        }
        let links = attacher.links();
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, images.len() as u64);
        self.build_stats.scene_graphs += images.len();
        self.build_stats.merged_vertices = self.merged.vertex_count();
        self.build_stats.merged_edges = self.merged.edge_count();
        self.build_stats.merge.links_created += links;
        // The new evidence may introduce categories/predicates the old
        // schema has never seen; re-extract so the linter stays truthful.
        self.linter = Linter::new(Schema::extract(&self.merged));
        // Degraded views were built from the pre-ingestion graph; drop
        // them so the next guarded answer sees the new evidence.
        self.scene_view = OnceLock::new();
        self.kg_view = OnceLock::new();
        links
    }

    /// Answer a question and return the supporting evidence (which images
    /// and knowledge-graph facts back the answer).
    pub fn answer_explained(
        &self,
        question: &str,
    ) -> Result<(Answer, svqa_executor::Explanation), SvqaError> {
        let result = (|| {
            let gq = self.parse(question)?;
            self.lint_gate(&gq)?;
            let executor = QueryGraphExecutor::with_config(&self.merged, self.config.executor);
            Ok(executor.execute_explained(&gq)?)
        })();
        count_outcome(&result);
        result
    }

    /// The merged graph `G_mg`.
    pub fn merged_graph(&self) -> &Graph {
        &self.merged
    }

    /// Offline build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The configuration.
    pub fn config(&self) -> &SvqaConfig {
        &self.config
    }

    /// Parse a question into its query graph (§IV).
    pub fn parse(&self, question: &str) -> Result<QueryGraph, SvqaError> {
        Ok(self.generator.generate(question)?)
    }

    /// The merged graph's extracted schema — what the linter checks
    /// questions against.
    pub fn schema(&self) -> &Schema {
        self.linter.schema()
    }

    /// Statically analyze a question without executing it: parse, then run
    /// the query-graph linter over the result. `Err` only for parse
    /// failures — an error-riddled report comes back as `Ok`, so callers
    /// can render every diagnostic.
    pub fn lint(&self, question: &str) -> Result<LintReport, SvqaError> {
        let gq = self.parse(question)?;
        Ok(self.lint_graph(&gq))
    }

    /// Lint an already-parsed query graph: records the `lint` stage span
    /// and bumps the lint counters.
    pub fn lint_graph(&self, gq: &QueryGraph) -> LintReport {
        let _span = Span::enter(stage::LINT);
        let report = self.linter.lint(gq);
        let errors = report.count(Severity::Error) as u64;
        let warnings = report.count(Severity::Warning) as u64;
        if errors > 0 {
            global().incr_counter_by(counter::LINT_ERRORS, errors);
        }
        if warnings > 0 {
            global().incr_counter_by(counter::LINT_WARNINGS, warnings);
        }
        report
    }

    /// Lint-first gate for the `answer*` paths: error-severity findings
    /// short-circuit execution; otherwise the (possibly warning-bearing)
    /// report is handed back for attachment to profiles.
    fn lint_gate(&self, gq: &QueryGraph) -> Result<LintReport, SvqaError> {
        let report = self.lint_graph(gq);
        if report.has_errors() {
            Err(SvqaError::Lint(report))
        } else {
            Ok(report)
        }
    }

    /// Answer a single question end-to-end.
    pub fn answer(&self, question: &str) -> Result<Answer, SvqaError> {
        let result = (|| {
            let gq = self.parse(question)?;
            self.lint_gate(&gq)?;
            let executor = QueryGraphExecutor::with_config(&self.merged, self.config.executor);
            Ok(executor.execute(&gq)?)
        })();
        count_outcome(&result);
        result
    }

    /// Answer a question under the failure-handling policy: per-source
    /// circuit breakers, bounded retries for transient faults, and partial
    /// answers from the surviving sources.
    ///
    /// * Both sources up → executes against the full merged graph and
    ///   returns [`AnswerStatus::Full`].
    /// * One source down (probe failed past the retry budget, or its
    ///   breaker already open) → executes against the surviving source's
    ///   filtered view and returns [`AnswerStatus::Degraded`]. The shared
    ///   `cache` is bypassed for degraded runs: cached ids refer to the
    ///   full merged graph.
    /// * Both sources down → [`SvqaError::Unavailable`] with a
    ///   `Retry-After` hint (the longest remaining breaker cooldown).
    ///
    /// `deadline` bounds injected latency stalls and retry backoff; the
    /// query server derives it from the request's `deadline_ms`.
    pub fn answer_guarded(
        &self,
        question: &str,
        cache: Option<&ShardedCache>,
        deadline: Option<Instant>,
    ) -> Result<GuardedAnswer, SvqaError> {
        let result = self.answer_guarded_inner(question, cache, deadline);
        count_outcome(&result);
        result
    }

    fn answer_guarded_inner(
        &self,
        question: &str,
        cache: Option<&ShardedCache>,
        deadline: Option<Instant>,
    ) -> Result<GuardedAnswer, SvqaError> {
        let gq = self.parse(question)?;
        self.lint_gate(&gq)?;
        let policy = &self.config.degrade;
        let mut missing: Vec<Source> = Vec::new();
        let mut retry_after_ms = policy.breaker.cooldown_ms;
        for source in Source::ALL {
            match probe_source(&self.breakers, policy, source, deadline) {
                ProbeOutcome::Available => {}
                ProbeOutcome::Down => missing.push(source),
                ProbeOutcome::Rejected {
                    retry_after_ms: ms,
                } => {
                    missing.push(source);
                    retry_after_ms = retry_after_ms.max(ms);
                }
            }
        }
        self.breakers.publish_gauges();
        if missing.len() == Source::ALL.len() {
            return Err(SvqaError::Unavailable {
                missing: missing.iter().map(|s| s.name().to_owned()).collect(),
                retry_after_ms,
            });
        }
        if missing.is_empty() {
            let executor = QueryGraphExecutor::with_config(&self.merged, self.config.executor);
            let answer = execute_with_retry(&policy.retry, deadline, || {
                executor.execute_cached(&gq, cache).map(|(a, _)| a)
            })?;
            return Ok(GuardedAnswer {
                answer,
                status: AnswerStatus::Full,
            });
        }
        let view = match missing[0] {
            Source::Kg => self.scene_view(),
            Source::Scene => self.kg_view(),
        };
        let executor = QueryGraphExecutor::with_config(view, self.config.executor);
        let answer = execute_with_retry(&policy.retry, deadline, || {
            executor.execute_cached(&gq, None).map(|(a, _)| a)
        })?;
        global().incr_counter(counter::ANSWERS_DEGRADED);
        Ok(GuardedAnswer {
            answer,
            status: AnswerStatus::Degraded {
                missing_sources: missing.iter().map(|s| s.name().to_owned()).collect(),
                confidence_penalty: (policy.confidence_penalty * missing.len() as f64).min(1.0),
            },
        })
    }

    /// The scene-only view of the merged graph (KG vertices filtered out),
    /// built on first use.
    fn scene_view(&self) -> &Graph {
        self.scene_view
            .get_or_init(|| filter_view(&self.merged, |i| i >= self.kg_vertex_count))
    }

    /// The KG-only view (scene vertices filtered out), built on first use.
    fn kg_view(&self) -> &Graph {
        self.kg_view
            .get_or_init(|| filter_view(&self.merged, |i| i < self.kg_vertex_count))
    }

    /// The per-source circuit breakers guarding this system.
    pub fn breakers(&self) -> &Breakers {
        &self.breakers
    }

    /// Current breaker state per source, in [`Source::ALL`] order.
    pub fn breaker_states(&self) -> Vec<(Source, BreakerState)> {
        self.breakers.states()
    }

    /// Overall source health: `"ok"`, `"degraded"`, or `"unhealthy"` (see
    /// [`Breakers::health`]).
    pub fn health_status(&self) -> &'static str {
        self.breakers.health()
    }

    /// Answer a single question with a caller-provided shared cache.
    pub fn answer_cached(
        &self,
        question: &str,
        cache: &ShardedCache,
    ) -> Result<Answer, SvqaError> {
        self.answer_traced(question, Some(cache)).0
    }

    /// Answer a single question and return its [`QueryTrace`]: per-stage
    /// wall-clock times, exact cache traffic (when a cache is supplied),
    /// and the terminal outcome. Powers `svqa-cli repl --verbose`.
    pub fn answer_traced(
        &self,
        question: &str,
        cache: Option<&ShardedCache>,
    ) -> (Result<Answer, SvqaError>, QueryTrace) {
        let mut trace = QueryTrace::new(question);
        let before = cache.map(ShardedCache::stats).unwrap_or_default();

        let t0 = Instant::now();
        let parsed = self.parse(question);
        trace.record_stage(stage::PARSE, t0.elapsed());

        let result = match parsed {
            Ok(gq) => {
                let t_lint = Instant::now();
                let lint = self.lint_graph(&gq);
                trace.record_stage(stage::LINT, t_lint.elapsed());
                if lint.has_errors() {
                    trace.outcome = QueryOutcome::LintError;
                    Err(SvqaError::Lint(lint))
                } else {
                    let executor =
                        QueryGraphExecutor::with_config(&self.merged, self.config.executor);
                    let t1 = Instant::now();
                    let executed = executor.execute_cached(&gq, cache).map(|(a, _)| a);
                    trace.record_stage(stage::MATCH, t1.elapsed());
                    if executed.is_err() {
                        trace.outcome = QueryOutcome::ExecError;
                    }
                    executed.map_err(SvqaError::from)
                }
            }
            Err(e) => {
                trace.outcome = QueryOutcome::ParseError;
                Err(e)
            }
        };
        if let Some(c) = cache {
            trace.cache = c.stats().delta_since(&before);
        }
        count_outcome(&result);
        (result, trace)
    }

    /// Answer a question and return the full `EXPLAIN ANALYZE` bundle:
    /// answer, plan-level [`ExecutionProfile`](svqa_executor::ExecutionProfile)
    /// (with the parse stage prepended), and answer provenance. The profile
    /// is also pushed into the global telemetry profile ring, where
    /// `svqa-cli serve-metrics` exposes it at `/profiles/recent`.
    pub fn answer_profiled(
        &self,
        question: &str,
        cache: Option<&ShardedCache>,
    ) -> Result<svqa_executor::ProfiledRun, SvqaError> {
        let result = (|| {
            let t0 = Instant::now();
            let gq = self.parse(question)?;
            let parse_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let t1 = Instant::now();
            let lint = self.lint_gate(&gq)?;
            let lint_ns = u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let executor = QueryGraphExecutor::with_config(&self.merged, self.config.executor);
            let mut run = executor.execute_profiled(&gq, cache)?;
            // Prepend in reverse: lint first so parse ends up on top.
            run.profile.prepend_stage(stage::LINT, lint_ns);
            run.profile.prepend_stage(stage::PARSE, parse_ns);
            if !lint.is_clean() {
                run.profile.set_lint(lint.diagnostics);
            }
            svqa_telemetry::global_profiles().push(run.profile.to_json_value());
            Ok(run)
        })();
        count_outcome(&result);
        result
    }

    /// Answer a batch with the §V-B optimized scheduler (frequency-sorted
    /// order, shared key-centric cache, optional parallelism). Each call
    /// starts from a cold cache; long-lived callers (the query server)
    /// should hold a [`ShardedCache`] and use
    /// [`answer_batch_cached`](Self::answer_batch_cached) so hits carry
    /// over between batches.
    pub fn answer_batch(&self, questions: &[&str]) -> BatchOutcome {
        let cache = QueryScheduler::new(self.config.scheduler).build_cache();
        self.answer_batch_cached(questions, &cache)
    }

    /// [`answer_batch`](Self::answer_batch) against a caller-provided
    /// persistent cache: scopes and paths cached by earlier requests
    /// (single questions or whole batches) accelerate this one.
    pub fn answer_batch_cached(&self, questions: &[&str], cache: &ShardedCache) -> BatchOutcome {
        let start = Instant::now();
        // Parse phase (per-question failures recorded, not fatal).
        let mut parsed: Vec<(usize, QueryGraph)> = Vec::with_capacity(questions.len());
        let mut answers: Vec<Option<Result<Answer, SvqaError>>> =
            (0..questions.len()).map(|_| None).collect();
        let mut per_query = vec![Duration::ZERO; questions.len()];
        let mut traces: Vec<QueryTrace> =
            questions.iter().map(|q| QueryTrace::new(*q)).collect();
        for (i, q) in questions.iter().enumerate() {
            let t0 = Instant::now();
            match self.generator.generate(q) {
                Ok(gq) => {
                    traces[i].record_stage(stage::PARSE, t0.elapsed());
                    let t_lint = Instant::now();
                    let lint = self.lint_graph(&gq);
                    traces[i].record_stage(stage::LINT, t_lint.elapsed());
                    if lint.has_errors() {
                        traces[i].outcome = QueryOutcome::LintError;
                        answers[i] = Some(Err(SvqaError::Lint(lint)));
                    } else {
                        parsed.push((i, gq));
                    }
                }
                Err(e) => {
                    traces[i].record_stage(stage::PARSE, t0.elapsed());
                    traces[i].outcome = QueryOutcome::ParseError;
                    answers[i] = Some(Err(e.into()));
                }
            }
            per_query[i] = t0.elapsed();
        }
        // Execution phase via the scheduler, with the linter's cardinality
        // estimates as join-order hints (ties in the frequency ordering
        // break toward cheaper plans).
        let graphs: Vec<QueryGraph> = parsed.iter().map(|(_, g)| g.clone()).collect();
        let hints: Vec<f64> = graphs.iter().map(|g| self.linter.cost(g).total).collect();
        let scheduler = QueryScheduler::new(self.config.scheduler);
        let report: BatchReport =
            scheduler.run_with_cache_hinted(&self.merged, &graphs, cache, Some(&hints));
        for ((orig, _), (answer, dt)) in parsed
            .iter()
            .zip(report.answers.into_iter().zip(report.per_query))
        {
            if answer.is_err() {
                traces[*orig].outcome = QueryOutcome::ExecError;
            }
            traces[*orig].record_stage(stage::MATCH, dt);
            answers[*orig] = Some(answer.map_err(SvqaError::from));
            per_query[*orig] += dt;
        }
        report.cache_stats.record_to(global());
        // The cache is shared across the batch, so per-question attribution
        // is an even split (documented as approximate on `QueryTrace`).
        let executed = parsed.len().max(1) as u64;
        let share = CacheStats {
            scope_hits: report.cache_stats.scope_hits / executed,
            scope_misses: report.cache_stats.scope_misses / executed,
            path_hits: report.cache_stats.path_hits / executed,
            path_misses: report.cache_stats.path_misses / executed,
        };
        for (orig, _) in &parsed {
            traces[*orig].cache = share;
        }
        let answers: Vec<Result<Answer, SvqaError>> = answers
            .into_iter()
            .map(|a| a.expect("all questions accounted for"))
            .collect();
        for a in &answers {
            count_outcome(a);
        }
        BatchOutcome {
            answers,
            total: start.elapsed(),
            per_query,
            cache_stats: report.cache_stats,
            traces,
        }
    }
}

/// Bump the global answered/failed counters for a finished question.
fn count_outcome<T>(result: &Result<T, SvqaError>) {
    match result {
        Ok(_) => global().incr_counter(counter::QUESTIONS_ANSWERED),
        Err(_) => global().incr_counter(counter::QUESTIONS_FAILED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_dataset::Mvqa;

    fn small_system() -> (Svqa, Mvqa) {
        let mvqa = Mvqa::generate_small(250, 11);
        let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
        (system, mvqa)
    }

    #[test]
    fn scene_records_do_not_depend_on_the_worker_count() {
        let images = svqa_dataset::generate_images(10, 3);
        let kg = svqa_dataset::build_knowledge_graph();
        let config = SvqaConfig::default();
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), PairPrior::fit(&images));
        let aggregator = DataAggregator::new(config.aggregator);
        for n in [0, 1, 3, 10] {
            let merge = |workers| {
                let records = scene_records(&sgg, &images[..n], workers);
                assert!(
                    records.len() <= workers.max(1),
                    "{n} images, {workers} workers"
                );
                assert_eq!(records.iter().map(SceneRecords::len).sum::<usize>(), n);
                let merged = aggregator.merge_records(&records, &kg);
                (svqa_graph::io::to_json(&merged.graph), merged.stats)
            };
            let single = merge(1);
            for workers in [0, 2, 3, 8, 16] {
                assert!(merge(workers) == single, "{n} images, {workers} workers");
            }
        }
    }

    #[test]
    fn build_produces_a_connected_merged_graph() {
        let (system, mvqa) = small_system();
        let stats = system.build_stats();
        assert_eq!(stats.scene_graphs, 250);
        assert!(stats.merged_vertices > mvqa.kg.vertex_count());
        assert!(stats.merge.links_created > 0);
        system.merged_graph().validate().unwrap();
    }

    #[test]
    fn answers_a_simple_judgment() {
        let (system, _) = small_system();
        // Pets in vehicles exist by archetype construction.
        let a = system
            .answer("Does the dog appear in the car?")
            .unwrap();
        assert!(matches!(a, Answer::Judgment(_)));
    }

    #[test]
    fn parse_failures_are_reported_not_fatal() {
        let (system, _) = small_system();
        let out = system.answer_batch(&[
            "Does the dog appear in the car?",
            "the red dog", // no verb
        ]);
        assert!(out.answers[0].is_ok());
        assert!(matches!(out.answers[1], Err(SvqaError::Parse(_))));
    }

    #[test]
    fn incremental_ingestion_extends_the_merged_graph() {
        let mvqa = Mvqa::generate_small(200, 11);
        let (head, tail) = mvqa.images.split_at(150);
        let mut incremental = Svqa::build(head, &mvqa.kg, SvqaConfig::default());
        let before_vertices = incremental.merged_graph().vertex_count();
        let links = incremental.add_images(tail);
        assert!(links > 0);
        assert!(incremental.merged_graph().vertex_count() > before_vertices);
        assert_eq!(incremental.build_stats().scene_graphs, 200);
        incremental.merged_graph().validate().unwrap();

        // Answers over the incrementally-built graph match the batch-built
        // one (scene-graph generation is seeded per image id, so the two
        // paths see identical perception).
        let full = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
        for q in [
            "Does the dog appear in the car?",
            "How many dogs are in the car?",
        ] {
            assert_eq!(incremental.answer(q).ok(), full.answer(q).ok(), "{q}");
        }
    }

    #[test]
    fn explained_answers_cite_images() {
        let (system, _) = small_system();
        let (answer, explanation) = system
            .answer_explained("Does the dog appear in the car?")
            .unwrap();
        if answer.is_yes() {
            assert!(!explanation.cited_images().is_empty());
            assert!(explanation.fact_count() > 0);
        } else {
            assert_eq!(explanation.fact_count(), 0);
        }
    }

    #[test]
    fn profiled_answers_match_and_reach_the_profile_ring() {
        let (system, _) = small_system();
        let q = "Does the dog appear in the car?";
        let plain = system.answer(q).unwrap();
        let run = system.answer_profiled(q, None).unwrap();
        assert_eq!(run.answer, plain);
        assert_eq!(run.profile.question, q);
        // parse + match stages, with per-quadruple children under match.
        assert!(run.profile.stages.len() >= 2);
        assert_eq!(run.profile.stages[0].stage, stage::PARSE);
        assert!(!run.profile.quads.is_empty());
        assert!(run.profile.render_tree().contains("EXPLAIN ANALYZE"));
        // The global profile ring saw it (other tests may push too, so
        // only require presence).
        let ring = svqa_telemetry::global_profiles();
        assert!(ring
            .recent()
            .iter()
            .any(|p| p["question"].as_str() == Some(q)));
    }

    #[test]
    fn batch_and_single_agree() {
        let (system, _) = small_system();
        let questions = [
            "Does the dog appear in the car?",
            "How many dogs are in the car?",
        ];
        let batch = system.answer_batch(&questions);
        for (q, b) in questions.iter().zip(&batch.answers) {
            let single = system.answer(q).unwrap();
            assert_eq!(b.as_ref().unwrap(), &single);
        }
        assert!(batch.total > Duration::ZERO);
    }
}

//! The end-to-end SVQA pipeline (Fig. 2 of the paper). Every entry point
//! takes one request path: [`Svqa::prepare`] (parse, lint gate, trace),
//! then [`Svqa::run`] (breakers, Algorithm 3 with retry over the merged
//! graph, or over the surviving source's part of it), which returns a
//! [`QueryRun`] record.

use crate::config::SvqaConfig;
use crate::degrade::{
    execute_with_retry, probe_source, AnswerStatus, Breakers, GuardedAnswer, ProbeOutcome,
};
use crate::error::SvqaError;
use std::ops::Range;
use std::time::{Duration, Instant};
use svqa_aggregator::{Attacher, DataAggregator, MergeStats};
use svqa_executor::cache::KeyCentricCache;
use svqa_executor::executor::{Execution, QueryGraphExecutor};
use svqa_executor::scheduler::QueryScheduler;
use svqa_executor::{Answer, CacheStats, ExecutionProfile, Explanation};
use svqa_fault::{BreakerState, Source};
use svqa_graph::Graph;
use svqa_qlint::{LintReport, Linter, Schema, Severity};
use svqa_qparser::{QueryGraph, QueryGraphGenerator};
use svqa_telemetry::{counter, global, global_profiles, stage, QueryOutcome, QueryTrace, Span};
use svqa_vision::prior::PairPrior;
use svqa_vision::scene::SyntheticImage;
use svqa_vision::sgg::SceneGraphGenerator;
use svqa_vision::SceneRecords;

/// Offline build statistics.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Number of scene graphs generated.
    pub scene_graphs: usize,
    /// Merged-graph vertex count.
    pub merged_vertices: usize,
    /// Merged-graph edge count.
    pub merged_edges: usize,
    /// Aggregator accounting (Algorithm 1).
    pub merge: MergeStats,
    /// Wall-clock time of fitting the relation model's label-pair prior
    /// on the corpus.
    pub prior_time: Duration,
    /// Wall-clock time of scene-graph generation.
    pub sgg_time: Duration,
    /// Wall-clock time of graph merging.
    pub merge_time: Duration,
}

impl BuildStats {
    /// One-line human summary of the offline phase.
    pub fn summary_line(&self) -> String {
        format!(
            "prior fitted in {:.1?}; {} scene graphs in {:.1?}; merged {} vertices / {} edges in {:.1?}",
            self.prior_time,
            self.scene_graphs,
            self.sgg_time,
            self.merged_vertices,
            self.merged_edges,
            self.merge_time
        )
    }
}

/// Scene-graph generation over `images` as flat records: one part per
/// contiguous run of images, each part a list of record chunks (see
/// [`SceneGraphGenerator::generate_record_chunks`]), in image order.
/// Parts beyond the first run on scoped worker threads while the calling
/// thread generates the first; results join in part order. Each image
/// draws from its own RNG stream, so the records do not depend on
/// `workers`.
fn scene_records(
    sgg: &SceneGraphGenerator,
    images: &[SyntheticImage],
    workers: usize,
) -> Vec<Vec<SceneRecords>> {
    let mut chunks = images.chunks(images.len().div_ceil(workers.max(1)).max(1));
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || sgg.generate_record_chunks(chunk)))
            .collect();
        let mut records = Vec::with_capacity(rest.len() + 1);
        records.push(sgg.generate_record_chunks(first));
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

/// Worker count for [`scene_records`], and so for the attach that follows
/// it: one per available core, but a single one while a fault plan is
/// armed, so each fault site draws in image order.
fn sgg_workers() -> usize {
    if svqa_fault::active().is_some() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Result of answering a batch of questions.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Per-question results (original order). Parse failures are recorded
    /// as errors, matching the paper's Fig. 8a error analysis.
    pub answers: Vec<Result<Answer, SvqaError>>,
    /// How complete each answer's evidence was (original order;
    /// [`AnswerStatus::Full`] for questions that got no answer).
    pub statuses: Vec<AnswerStatus>,
    /// Total wall-clock latency of the batch.
    pub total: Duration,
    /// Wall-clock per question across its traced stages (original order).
    pub per_query: Vec<Duration>,
    /// Cache hit/miss counters of the batch's own lookups.
    pub cache_stats: CacheStats,
    /// Per-question telemetry traces (original order).
    pub traces: Vec<QueryTrace>,
}

/// A question after the request path's first stage: parsed, linted, and
/// its trace started. A parse or lint failure is kept as the gate's error,
/// so the question still flows through [`Svqa::run`], which returns it.
#[derive(Debug)]
pub struct Prepared {
    /// The parsed query graph; `None` when the question did not parse.
    pub query: Option<QueryGraph>,
    /// The lint report of a question that cleared the gate (warnings and
    /// hints only), or the parse or lint error that stops it.
    pub gate: Result<LintReport, SvqaError>,
    trace: QueryTrace,
}

/// One question's trip through the request path: the answer, its trace,
/// and what execution left behind for [`profile`](Self::profile) and
/// [`explanation`](Self::explanation), which are built only when asked.
#[derive(Debug)]
pub struct QueryRun<'s> {
    /// The answer and how complete its evidence was, or why there is none.
    pub result: Result<GuardedAnswer, SvqaError>,
    /// Stage times, the exact traffic of this question's cache lookups,
    /// and the outcome.
    pub trace: QueryTrace,
    /// The merged graph the question ran over.
    merged: &'s Graph,
    /// Its query graph, lint report and Algorithm 3 output.
    executed: Option<(QueryGraph, LintReport, Execution)>,
}

impl QueryRun<'_> {
    /// The `EXPLAIN ANALYZE` profile: parse and lint stages ahead of the
    /// per-quadruple match tree, the question's cache traffic, and any
    /// lint warnings. Building it also pushes it into the global profile
    /// ring served at `/profiles/recent`. `None` when nothing executed.
    pub fn profile(&self) -> Option<ExecutionProfile> {
        let (query, lint, output) = self.executed.as_ref()?;
        let mut profile = output.profile(query, self.trace.cache);
        // Prepend in reverse: lint first so parse ends up on top.
        for name in [stage::LINT, stage::PARSE] {
            profile.prepend_stage(name, self.trace.stage_nanos(name).unwrap_or(0));
        }
        if !lint.is_clean() {
            profile.set_lint(lint.diagnostics.clone());
        }
        global_profiles().push(profile.to_json_value());
        Some(profile)
    }

    /// The facts (images and knowledge-graph triples) that support the
    /// answer. `None` when nothing executed.
    pub fn explanation(&self) -> Option<Explanation> {
        let (_, _, output) = self.executed.as_ref()?;
        Some(output.explanation(self.merged))
    }
}

/// The assembled system: merged graph + query pipeline.
pub struct Svqa {
    config: SvqaConfig,
    merged: Graph,
    generator: QueryGraphGenerator,
    build_stats: BuildStats,
    /// The scene-graph generator, retained for incremental ingestion (its
    /// prior is the one fitted on the original corpus — a deployed model
    /// does not retrain per batch). `None` for a loaded world.
    sgg: Option<SceneGraphGenerator>,
    /// KG vertices occupy merged ids `0..kg_vertex_count` (absorb order),
    /// scene vertices the rest: how incremental linking finds knowledge
    /// counterparts, and what a degraded run may match.
    kg_vertex_count: usize,
    /// Static query-graph analyzer over the merged graph's extracted
    /// schema: the request path's lint gate.
    linter: Linter,
    /// Per-source circuit breakers, probed by every [`run`](Self::run).
    breakers: Breakers,
}

impl Svqa {
    /// Offline phase: run scene-graph generation over every image (fitting
    /// the relation model's prior on the corpus), then merge with the
    /// knowledge graph (Algorithm 1).
    pub fn build(images: &[SyntheticImage], kg: &Graph, config: SvqaConfig) -> Svqa {
        let t = Instant::now();
        let prior = PairPrior::fit(images);
        let prior_time = t.elapsed();
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), prior);
        let t0 = Instant::now();
        let records = scene_records(&sgg, images, sgg_workers());
        let sgg_time = t0.elapsed();
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, images.len() as u64);

        // Each part is attached on its own thread, which frees the part's
        // records chunk by chunk as it goes.
        let t1 = Instant::now();
        let aggregator = DataAggregator::new(config.aggregator.clone());
        let merged = aggregator.merge_records(records, kg);
        let merge_time = t1.elapsed();

        let mut system = Self::from_graph(merged.graph, config);
        system.sgg = Some(sgg);
        system.build_stats = BuildStats {
            scene_graphs: images.len(),
            merge: merged.stats,
            prior_time,
            sgg_time,
            merge_time,
            ..system.build_stats
        };
        system
    }

    /// The online phase over a merged graph built earlier (a world saved
    /// by `svqa-cli build`). The KG range is the prefix of vertices without
    /// an `image` property: Algorithm 1 absorbs the knowledge graph first,
    /// and every scene vertex carries its image id. A saved world stores no
    /// fitted prior, so there is no scene-graph generator either.
    pub fn from_graph(merged: Graph, config: SvqaConfig) -> Svqa {
        Svqa {
            kg_vertex_count: merged
                .vertices()
                .take_while(|&(id, _)| svqa_graph::scene_image(&merged, id).is_none())
                .count(),
            build_stats: BuildStats {
                merged_vertices: merged.vertex_count(),
                merged_edges: merged.edge_count(),
                ..BuildStats::default()
            },
            linter: Linter::new(Schema::extract(&merged)),
            breakers: Breakers::new(&config.degrade),
            generator: QueryGraphGenerator::new(),
            sgg: None,
            config,
            merged,
        }
    }

    /// Incremental ingestion: run scene-graph generation over `images` and
    /// attach them to the existing merged graph (the data-lake scenario of
    /// §I — new sources arrive continuously, and rebuilding `G_mg` from
    /// scratch per batch would defeat the aggregator). Returns the number
    /// of new link edges created.
    ///
    /// Note: callers running batches through the §V-B scheduler should
    /// start a fresh [`svqa_executor::cache::KeyCentricCache`] afterwards —
    /// cached scopes and paths predate the new evidence.
    ///
    /// # Panics
    ///
    /// On a system from [`from_graph`](Self::from_graph): a substitute
    /// prior would not perceive like the world it extends.
    pub fn add_images(&mut self, images: &[SyntheticImage]) -> usize {
        let sgg = self.sgg.as_ref().expect(
            "add_images needs the scene-graph generator fitted by Svqa::build; \
             a world loaded with Svqa::from_graph has none",
        );
        let records = scene_records(sgg, images, sgg_workers());
        let kg_vertex_count = self.kg_vertex_count;
        // Knowledge counterpart, once per distinct label: the first vertex
        // with this label, when it lies inside the KG id range (the label
        // index lists ids in ascending order, KG vertices first).
        let links = Attacher::records(records)
            .attach(&mut self.merged, |merged, label, _| {
                merged
                    .vertices_with_label(label)
                    .first()
                    .copied()
                    .filter(|v| v.index() < kg_vertex_count)
            })
            .links;
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, images.len() as u64);
        self.build_stats.scene_graphs += images.len();
        self.build_stats.merged_vertices = self.merged.vertex_count();
        self.build_stats.merged_edges = self.merged.edge_count();
        self.build_stats.merge.links_created += links;
        // The new evidence may introduce categories/predicates the old
        // schema has never seen; re-extract so the linter stays truthful.
        self.linter = Linter::new(Schema::extract(&self.merged));
        links
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
        self.parse(question).map(|gq| self.lint_graph(&gq))
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

    /// The request path's first stage: parse, then the lint gate (errors
    /// stop the question); both stage times start its trace.
    pub fn prepare(&self, question: &str) -> Prepared {
        let mut trace = QueryTrace::new(question);
        let t0 = Instant::now();
        let parsed = self.parse(question);
        trace.record_stage(stage::PARSE, t0.elapsed());
        let (query, gate) = match parsed {
            Err(e) => {
                trace.outcome = QueryOutcome::ParseError;
                (None, Err(e))
            }
            Ok(gq) => {
                let t1 = Instant::now();
                let report = self.lint_graph(&gq);
                trace.record_stage(stage::LINT, t1.elapsed());
                let gate = if report.has_errors() {
                    trace.outcome = QueryOutcome::LintError;
                    Err(SvqaError::Lint(report))
                } else {
                    Ok(report)
                };
                (Some(gq), gate)
            }
        };
        Prepared { trace, query, gate }
    }

    /// The request path's second stage. A question stopped at the gate
    /// returns its error. Otherwise the source breakers are probed:
    /// * both sources up → Algorithm 3 over the full merged graph with the
    ///   shared `cache`, [`AnswerStatus::Full`];
    /// * one source down (probe failed past the retry budget, or breaker
    ///   open) → over the merged graph with matching and scans confined to
    ///   the survivor's vertex range, without the shared cache (its scopes
    ///   and paths span both sources), [`AnswerStatus::Degraded`];
    /// * both down → [`SvqaError::Unavailable`] with a `Retry-After` hint.
    ///
    /// Transient faults are retried; `deadline` bounds stalls and backoff.
    /// The question's cache traffic goes into its trace and, once, into the
    /// global recorder.
    pub fn run(
        &self,
        prepared: Prepared,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> QueryRun<'_> {
        let mut trace = prepared.trace;
        let mut executed = None;
        let result = prepared.gate.and_then(|lint| {
            let query = prepared
                .query
                .expect("a question that cleared the gate parsed");
            let (scope, cache, status) = self
                .guard(cache, deadline)
                .inspect_err(|_| trace.outcome = QueryOutcome::Unavailable)?;
            let executor = QueryGraphExecutor::new(&self.merged).with_scope(scope);
            let t0 = Instant::now();
            let mut traffic = CacheStats::new();
            let output = execute_with_retry(&self.config.degrade.retry, deadline, || {
                executor.run(&query, cache, &mut traffic)
            });
            trace.record_stage(stage::MATCH, t0.elapsed());
            trace.cache = traffic;
            traffic.record_to(global());
            let output = output.inspect_err(|_| trace.outcome = QueryOutcome::ExecError)?;
            if status.is_degraded() {
                global().incr_counter(counter::ANSWERS_DEGRADED);
            }
            let answer = GuardedAnswer {
                answer: output.answer.clone(),
                status,
            };
            executed = Some((query, lint, output));
            Ok(answer)
        });
        global().incr_counter(if result.is_ok() {
            counter::QUESTIONS_ANSWERED
        } else {
            counter::QUESTIONS_FAILED
        });
        QueryRun {
            result,
            trace,
            merged: &self.merged,
            executed,
        }
    }

    /// Probe both sources and pick the merged-graph vertex range to execute
    /// over: all of it with the shared cache, or the surviving source's
    /// range without it.
    fn guard<'c>(
        &self,
        cache: Option<&'c KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> Result<(Range<usize>, Option<&'c KeyCentricCache>, AnswerStatus), SvqaError> {
        let policy = &self.config.degrade;
        let mut missing: Vec<Source> = Vec::new();
        let mut retry_after_ms = policy.breaker.cooldown_ms;
        for source in Source::ALL {
            match probe_source(&self.breakers, policy, source, deadline) {
                ProbeOutcome::Available => continue,
                ProbeOutcome::Down => {}
                ProbeOutcome::Rejected { retry_after_ms: ms } => {
                    retry_after_ms = retry_after_ms.max(ms);
                }
            }
            missing.push(source);
        }
        self.breakers.publish_gauges();
        if missing.is_empty() {
            return Ok((0..self.merged.vertex_count(), cache, AnswerStatus::Full));
        }
        let names = missing.iter().map(|s| s.name().to_owned()).collect();
        if missing.len() == Source::ALL.len() {
            let missing = names;
            return Err(SvqaError::Unavailable {
                missing,
                retry_after_ms,
            });
        }
        let status = AnswerStatus::Degraded {
            missing_sources: names,
            confidence_penalty: (policy.confidence_penalty * missing.len() as f64).min(1.0),
        };
        let survivor = match missing[0] {
            Source::Kg => self.kg_vertex_count..self.merged.vertex_count(),
            Source::Scene => 0..self.kg_vertex_count,
        };
        Ok((survivor, None, status))
    }

    /// Answer a single question end-to-end, uncached (see
    /// [`run`](Self::run)).
    pub fn answer(&self, question: &str) -> Result<Answer, SvqaError> {
        self.answer_guarded(question, None, None).map(|g| g.answer)
    }

    /// Answer a single question and report how complete its evidence was
    /// (see [`run`](Self::run)).
    pub fn answer_guarded(
        &self,
        question: &str,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> Result<GuardedAnswer, SvqaError> {
        self.run(self.prepare(question), cache, deadline).result
    }

    /// Answer a batch with the §V-B optimized scheduler from a cold cache
    /// (see [`run_batch`](Self::run_batch)).
    pub fn answer_batch(&self, questions: &[&str]) -> BatchOutcome {
        let cache = QueryScheduler::new(self.config.scheduler).build_cache();
        self.run_batch(questions, &cache, None)
    }

    /// The §V-B batch on the request path: the lint-clean questions run in
    /// frequency-ratio order (the linter's cost estimates break ties), each
    /// through [`run`](Self::run) on the shared `cache` with `deadline`, on
    /// the calling thread. Results come back in question order.
    pub fn run_batch(
        &self,
        questions: &[&str],
        cache: &KeyCentricCache,
        deadline: Option<Instant>,
    ) -> BatchOutcome {
        let start = Instant::now();
        let prepared: Vec<Prepared> = questions.iter().map(|q| self.prepare(q)).collect();
        let (clean, rejected): (Vec<usize>, Vec<usize>) =
            (0..prepared.len()).partition(|&i| prepared[i].gate.is_ok());
        let graphs: Vec<&QueryGraph> = clean
            .iter()
            .filter_map(|&i| prepared[i].query.as_ref())
            .collect();
        let hints: Vec<f64> = graphs.iter().map(|g| self.linter.cost(g).total).collect();
        let (order, _) = QueryScheduler::new(self.config.scheduler).schedule(&graphs, Some(&hints));
        let mut prepared: Vec<Option<Prepared>> = prepared.into_iter().map(Some).collect();
        let mut runs: Vec<Option<QueryRun<'_>>> = prepared.iter().map(|_| None).collect();
        // Rejected questions only return their gate error: they go last.
        for i in order.iter().map(|&k| clean[k]).chain(rejected) {
            let p = prepared[i].take().expect("order names each question once");
            runs[i] = Some(self.run(p, Some(cache), deadline));
        }
        let mut outcome = BatchOutcome::default();
        for run in runs.into_iter().map(|r| r.expect("every question ran")) {
            let (answer, status) = match run.result {
                Ok(g) => (Ok(g.answer), g.status),
                Err(e) => (Err(e), AnswerStatus::Full),
            };
            outcome.answers.push(answer);
            outcome.statuses.push(status);
            outcome.per_query.push(run.trace.total());
            outcome.cache_stats.merge(&run.trace.cache);
            outcome.traces.push(run.trace);
        }
        outcome.total = start.elapsed();
        outcome
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
                assert_eq!(
                    records
                        .iter()
                        .flatten()
                        .map(SceneRecords::len)
                        .sum::<usize>(),
                    n
                );
                let merged = aggregator.merge_records(records, &kg);
                merged.graph.validate().unwrap();
                (
                    svqa_graph::binio::to_bytes(&merged.graph).unwrap(),
                    merged.stats,
                )
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
        let a = system.answer("Does the dog appear in the car?").unwrap();
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
        let q = "Does the dog appear in the car?";
        let run = system.run(system.prepare(q), None, None);
        let answer = run.result.clone().unwrap().answer;
        let explanation = run.explanation().unwrap();
        let facts: Vec<_> = explanation.per_vertex.iter().flatten().collect();
        if answer == Answer::Judgment(true) {
            assert!(facts.iter().any(|f| f.image.is_some()));
        } else {
            assert!(facts.is_empty());
        }
    }

    #[test]
    fn profiled_answers_match_and_reach_the_profile_ring() {
        let (system, _) = small_system();
        let q = "Does the dog appear in the car?";
        let plain = system.answer(q).unwrap();
        let run = system.run(system.prepare(q), None, None);
        let profile = run.profile().unwrap();
        assert_eq!(run.result.unwrap().answer, plain);
        assert_eq!(profile.question, q);
        // parse + match stages, with per-quadruple children under match.
        assert!(profile.stages.len() >= 2);
        assert_eq!(profile.stages[0].stage, stage::PARSE);
        assert!(!profile.quads.is_empty());
        assert!(profile.render_tree().contains("EXPLAIN ANALYZE"));
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

//! Algorithm 3: `QueryGraphExecutor`.
//!
//! Processes the query graph's vertices in dependency order. For each
//! vertex `u = [c_s, c_p, c_o, c_c]`:
//!
//! * **Query stage** — resolve `Sub`/`Obj` via `matchVertex` + semantic
//!   expansion (or a binding propagated from an earlier vertex), collect
//!   the relation pairs `RP` between them, pick the predicate label `P`
//!   with `maxScore(L(c_p), T)` and the constraint with
//!   `maxScore(L(c_c), 𝕊)`, and filter `RP` down to `AP`;
//! * **Update stage** — push `AP`'s subject or object vertices into the
//!   dependent slots of neighbouring vertices (S2S/S2O/O2S/O2O);
//! * **`getFinalanswer`** — shape the answer by question type (yes/no,
//!   count of scene instances, or ranked entity labels).

use crate::answer::Answer;
use crate::cache::{CacheStats, KeyCentricCache};
use crate::explain::Explanation;
use crate::matching::{MatchMethod, RelationPair, VertexMatcher};
use crate::words::Constraint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use svqa_graph::{Graph, LabelId, VertexId, IMAGE};
use svqa_nlp::resolve::{PredicateScorer, PREDICATE_FLOOR};
use svqa_nlp::Embedder;
use svqa_qparser::{AnswerRole, Dependency, NounPhrase, QueryGraph, QuestionType};

/// Executor configuration. It has no fields: the §V-A thresholds are
/// the constants of [`svqa_nlp::resolve`], shared with the linter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutorConfig;

/// Predicate filter slack: pairs whose edge label scores within this margin
/// of the best label's score are kept.
const FILTER_SLACK: f32 = 0.25;

/// Structural execution errors (empty answers are *not* errors — they
/// produce `No` / `0` / `Unknown`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query graph has no vertices.
    EmptyQueryGraph,
    /// The dependency edges form a cycle.
    CyclicQueryGraph,
    /// An installed `FaultPlan` failed this execution (transient from the
    /// caller's point of view: the degradation policy may retry it).
    Injected,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::EmptyQueryGraph => write!(f, "empty query graph"),
            ExecError::CyclicQueryGraph => write!(f, "cyclic query graph"),
            ExecError::Injected => write!(f, "injected fault (relation scan)"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Where a SPOC slot's candidate scope came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotSource {
    /// The slot is empty (wildcard) — no scope was resolved.
    #[default]
    Wildcard,
    /// A binding propagated from an upstream vertex (S2S/S2O/O2S/O2O).
    Binding,
    /// Served from the scope cache.
    CacheHit,
    /// Resolved by a fresh `matchVertex` call.
    Matched,
}

impl fmt::Display for SlotSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SlotSource::Wildcard => "wildcard",
            SlotSource::Binding => "binding",
            SlotSource::CacheHit => "cache-hit",
            SlotSource::Matched => "matched",
        })
    }
}

/// What the path cache did for a vertex's relation-pair lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// Relation pairs served from the path cache (scope lookups skipped).
    Hit,
    /// Looked up, absent; computed and inserted.
    Miss,
    /// Not consulted: a binding makes the key non-reusable.
    Bypassed,
    /// No cache attached to this execution.
    #[default]
    NoCache,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypassed => "bypassed",
            CacheOutcome::NoCache => "no-cache",
        })
    }
}

/// How one SPOC slot (subject or object) was resolved.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SlotTrace {
    /// Scope provenance.
    pub source: SlotSource,
    /// Which `matchVertex` ladder rung matched (only for `Matched`).
    pub method: Option<MatchMethod>,
    /// Candidates before semantic expansion (0 for cache hits, whose
    /// pre-expansion seed is unknown).
    pub seed: usize,
    /// Candidates after semantic expansion — the working scope size.
    pub expanded: usize,
}

/// Per-vertex execution trace (for examples, error analysis, and the
/// `EXPLAIN ANALYZE` profile).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VertexTrace {
    /// Subject-scope size after expansion.
    pub sub_count: usize,
    /// Object-scope size after expansion.
    pub obj_count: usize,
    /// Relation pairs before filtering.
    pub rp_count: usize,
    /// The predicate label `P` chosen by `maxScore`.
    pub chosen_predicate: Option<String>,
    /// Relation pairs after filtering (`AP`).
    pub ap_count: usize,
    /// Subject-slot resolution detail.
    #[serde(default)]
    pub sub: SlotTrace,
    /// Object-slot resolution detail.
    #[serde(default)]
    pub obj: SlotTrace,
    /// Path-cache classification for this vertex.
    #[serde(default)]
    pub path_cache: CacheOutcome,
    /// Candidate edges examined while collecting relation pairs (0 on a
    /// path-cache hit: nothing was scanned).
    #[serde(default)]
    pub edges_scanned: usize,
    /// Pair count after the predicate filter, before any constraint.
    #[serde(default)]
    pub ap_after_predicate: usize,
    /// The constraint applied, if the SPOC carried one.
    #[serde(default)]
    pub constraint: Option<String>,
    /// Start offset of this vertex's work, ns from the start of `run`.
    #[serde(default)]
    pub start_ns: u64,
    /// Wall-clock time spent on this vertex, ns.
    #[serde(default)]
    pub elapsed_ns: u64,
}

/// Everything one Algorithm 3 run produced. The `EXPLAIN ANALYZE`
/// profile and the answer's provenance are built from it only when a
/// caller asks.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The answer.
    pub answer: Answer,
    /// Per-vertex traces, indexed by query-graph vertex.
    pub traces: Vec<VertexTrace>,
    /// Per-vertex accepted relation pairs (`AP`), indexed by vertex.
    pub aps: Vec<Vec<RelationPair>>,
    /// Wall time of the run, ns.
    pub total_ns: u64,
}

impl Execution {
    /// The `EXPLAIN ANALYZE` profile of this run of `gq`, carrying `cache`
    /// as the run's cache traffic.
    pub fn profile(&self, gq: &QueryGraph, cache: CacheStats) -> crate::profile::ExecutionProfile {
        let order = gq.execution_order().expect("run() validated acyclicity");
        crate::profile::ExecutionProfile::assemble(
            gq,
            &self.answer,
            order,
            &self.traces,
            self.total_ns,
            cache,
        )
    }

    /// The facts of `graph` (the graph the run executed over) that
    /// support the answer.
    pub fn explanation(&self, graph: &Graph) -> Explanation {
        Explanation::from_aps(graph, &self.aps)
    }
}

/// The executor.
pub struct QueryGraphExecutor<'g> {
    graph: &'g Graph,
    matcher: VertexMatcher<'g>,
}

impl<'g> QueryGraphExecutor<'g> {
    /// Build an executor over a merged graph.
    pub fn new(graph: &'g Graph) -> Self {
        QueryGraphExecutor {
            graph,
            matcher: VertexMatcher::new(graph),
        }
    }

    /// [`new`](Self::new); the configuration has no fields.
    pub fn with_config(graph: &'g Graph, _config: ExecutorConfig) -> Self {
        Self::new(graph)
    }

    /// Confine matching and scans to the merged-graph vertices whose index
    /// lies in `scope` (see [`VertexMatcher::with_scope`]): how a degraded
    /// run answers from the surviving source alone.
    pub fn with_scope(mut self, scope: Range<usize>) -> Self {
        self.matcher = self.matcher.with_scope(scope);
        self
    }

    /// Execute and return the full `EXPLAIN ANALYZE` bundle: the answer,
    /// a per-quadruple [`ExecutionProfile`](crate::profile::ExecutionProfile)
    /// (candidate counts, cache classification, timings), and the answer's
    /// provenance. Cache counters in the profile are the exact traffic this
    /// query produced, so a shared cache attributes correctly.
    pub fn execute_profiled(
        &self,
        gq: &QueryGraph,
        cache: Option<&KeyCentricCache>,
    ) -> Result<crate::profile::ProfiledRun, ExecError> {
        let mut traffic = CacheStats::new();
        let run = self.run(gq, cache, &mut traffic)?;
        Ok(crate::profile::ProfiledRun {
            profile: run.profile(gq, traffic),
            explanation: run.explanation(self.graph),
            answer: run.answer,
        })
    }

    /// The Algorithm 3 main loop, with an optional shared key-centric
    /// cache. Every scope and path lookup this run makes is counted into
    /// `traffic` by the cache's own rule (see
    /// [`KeyCentricCache::get`]), also when the run then fails.
    pub fn run(
        &self,
        gq: &QueryGraph,
        cache: Option<&KeyCentricCache>,
        traffic: &mut CacheStats,
    ) -> Result<Execution, ExecError> {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::MATCH);
        if gq.is_empty() {
            return Err(ExecError::EmptyQueryGraph);
        }
        let order = gq.execution_order().ok_or(ExecError::CyclicQueryGraph)?;

        let n = gq.len();
        let mut sub_binding: Vec<Option<Vec<VertexId>>> = vec![None; n];
        let mut obj_binding: Vec<Option<Vec<VertexId>>> = vec![None; n];
        let mut aps: Vec<Vec<RelationPair>> = vec![Vec::new(); n];
        let mut traces = vec![VertexTrace::default(); n];

        let run_start = Instant::now();
        for &u in &order {
            let spoc = &gq.vertices[u];
            let vertex_start = Instant::now();
            traces[u].start_ns =
                u64::try_from((vertex_start - run_start).as_nanos()).unwrap_or(u64::MAX);
            // --- Query stage ---
            // A path-cache hit short-circuits the whole stage: the cached
            // relation pairs subsume the scope lookups, so neither
            // `matchVertex` runs (this is why path items are the heavier
            // savings in Fig. 10b).
            let cacheable = sub_binding[u].is_none() && obj_binding[u].is_none();
            let path_key = format!("{}|{}", spoc.subject.phrase, spoc.object.phrase);
            let cached_rp = if cacheable {
                cache.and_then(|c| c.get::<RelationPair>(&path_key, traffic))
            } else {
                None
            };
            traces[u].path_cache = match (cache, cacheable, cached_rp.is_some()) {
                (None, _, _) => CacheOutcome::NoCache,
                (Some(_), false, _) => CacheOutcome::Bypassed,
                (Some(_), true, true) => CacheOutcome::Hit,
                (Some(_), true, false) => CacheOutcome::Miss,
            };
            let rp: Arc<Vec<RelationPair>> = match cached_rp {
                Some(hit) => hit,
                None => {
                    let (subs, sub_trace) =
                        self.resolve_slot(&spoc.subject, sub_binding[u].as_deref(), cache, traffic);
                    let (objs, obj_trace) =
                        self.resolve_slot(&spoc.object, obj_binding[u].as_deref(), cache, traffic);
                    traces[u].sub = sub_trace;
                    traces[u].obj = obj_trace;
                    let sub_slice = subs.as_ref().map(|v| v.as_slice());
                    let obj_slice = objs.as_ref().map(|v| v.as_slice());
                    traces[u].sub_count = sub_slice.map_or(0, <[VertexId]>::len);
                    traces[u].obj_count = obj_slice.map_or(0, <[VertexId]>::len);
                    let fault = svqa_fault::draw(svqa_fault::site::RELATION_SCAN);
                    if fault == Some(svqa_fault::FaultKind::Error) {
                        return Err(ExecError::Injected);
                    }
                    if let Some(svqa_fault::FaultKind::Latency(ms)) = fault {
                        svqa_fault::apply_latency(ms, None);
                    }
                    let (mut rp, scanned) = if fault == Some(svqa_fault::FaultKind::DropResult) {
                        (Vec::new(), 0)
                    } else {
                        match (sub_slice, obj_slice) {
                            (Some(s), Some(o)) => self.matcher.relations_between(s, o),
                            (Some(s), None) => self.matcher.relations_around(s, true),
                            (None, Some(o)) => self.matcher.relations_around(o, false),
                            (None, None) => (Vec::new(), 0),
                        }
                    };
                    if fault == Some(svqa_fault::FaultKind::CorruptLabel) {
                        // Corrupt the scan by reversing every relation's
                        // direction — structurally valid, semantically wrong.
                        for pair in &mut rp {
                            *pair = pair.reversed();
                        }
                    }
                    traces[u].edges_scanned = scanned;
                    let rp = Arc::new(rp);
                    // A faulted scan serves this run only: a cached copy of
                    // a dropped or corrupted scan would keep the question
                    // wrong after the fault ends.
                    if cacheable && fault.is_none() {
                        if let Some(c) = cache {
                            c.put(&path_key, Arc::clone(&rp));
                        }
                    }
                    rp
                }
            };
            traces[u].rp_count = rp.len();

            // maxScore(L(c_p), T) over the labels actually present in RP.
            let mut ap = self.filter_by_predicate(&spoc.predicate, &rp, &mut traces[u]);
            traces[u].ap_after_predicate = ap.len();

            // Constraint (maxScore over 𝕊 + frequency aggregation).
            if let Some(cc) = &spoc.constraint {
                let constraint = Constraint::max_score(cc, &Embedder::new());
                let operand = Constraint::parse_operand(cc);
                let side = self.constrained_side(gq, u);
                ap = apply_constraint(self.graph, ap, constraint, side, operand);
                traces[u].constraint = Some(cc.clone());
            }
            traces[u].ap_count = ap.len();

            // --- Update stage ---
            for edge in gq.out_edges(u) {
                let provided: Vec<VertexId> = match edge.dependency {
                    Dependency::S2S | Dependency::O2S => {
                        dedup(ap.iter().map(|p| p.subject(self.graph)).collect())
                    }
                    Dependency::S2O | Dependency::O2O => {
                        dedup(ap.iter().map(|p| p.object(self.graph)).collect())
                    }
                };
                let slot = match edge.dependency {
                    Dependency::S2S | Dependency::S2O => &mut sub_binding[edge.consumer],
                    Dependency::O2S | Dependency::O2O => &mut obj_binding[edge.consumer],
                };
                *slot = Some(match slot.take() {
                    // Two providers constrain the same slot: intersect.
                    Some(existing) => existing
                        .into_iter()
                        .filter(|v| provided.contains(v))
                        .collect(),
                    None => provided,
                });
            }
            aps[u] = ap;
            traces[u].elapsed_ns =
                u64::try_from(vertex_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }

        // --- getFinalanswer ---
        let answer_vertex = gq.answer_vertex();
        let ap = &aps[answer_vertex];
        let spoc = &gq.vertices[answer_vertex];
        let side = spoc.answer_role.unwrap_or(AnswerRole::Object);
        let answer_vertices: Vec<VertexId> = dedup(match side {
            AnswerRole::Subject => ap.iter().map(|p| p.subject(self.graph)).collect(),
            AnswerRole::Object => ap.iter().map(|p| p.object(self.graph)).collect(),
        });
        let answer = match gq.question_type {
            // Every clause is a conjunct: the judgment holds only if every
            // vertex found supporting evidence (bindings already force
            // chained clauses; this additionally covers disconnected
            // conjuncts).
            QuestionType::Judgment => Answer::Judgment(aps.iter().all(|a| !a.is_empty())),
            // (answer construction continues below)
            QuestionType::Counting => Answer::Count(self.count_scene_instances(&answer_vertices)),
            QuestionType::Reasoning => {
                Answer::entity_from_ranked(self.ranked_labels(&answer_vertices))
            }
        };
        Ok(Execution {
            answer,
            traces,
            aps,
            total_ns: u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        })
    }

    /// Resolve a SPOC slot to its vertex scope: a propagated binding
    /// (expanded), a cached scope, or a fresh `matchVertex` + expansion.
    /// `None` = wildcard. The returned [`SlotTrace`] records which of
    /// those paths ran and the candidate counts before/after expansion.
    fn resolve_slot(
        &self,
        np: &NounPhrase,
        binding: Option<&[VertexId]>,
        cache: Option<&KeyCentricCache>,
        traffic: &mut CacheStats,
    ) -> (Option<Arc<Vec<VertexId>>>, SlotTrace) {
        if let Some(bound) = binding {
            let expanded = self.matcher.expand_semantic(bound);
            let trace = SlotTrace {
                source: SlotSource::Binding,
                method: None,
                seed: bound.len(),
                expanded: expanded.len(),
            };
            return (Some(Arc::new(expanded)), trace);
        }
        if np.is_empty() {
            return (None, SlotTrace::default());
        }
        if let Some(cache) = cache {
            if let Some(hit) = cache.get::<VertexId>(&np.phrase, traffic) {
                let trace = SlotTrace {
                    source: SlotSource::CacheHit,
                    method: None,
                    seed: 0,
                    expanded: hit.len(),
                };
                return (Some(hit), trace);
            }
        }
        let (matched, method) = self.matcher.match_vertex(&np.phrase, &np.head);
        let seed = matched.len();
        let expanded = Arc::new(self.matcher.expand_semantic(&matched));
        if let Some(cache) = cache {
            cache.put(&np.phrase, Arc::clone(&expanded));
        }
        let trace = SlotTrace {
            source: SlotSource::Matched,
            method: Some(method),
            seed,
            expanded: expanded.len(),
        };
        (Some(expanded), trace)
    }

    /// The `maxScore`/`filter` pair of Algorithm 3 lines 8 and 10: find the
    /// edge label most similar to `c_p` among the labels present in `RP`,
    /// keep pairs within [`FILTER_SLACK`] of that best similarity that also
    /// clear [`PREDICATE_FLOOR`].
    fn filter_by_predicate(
        &self,
        predicate: &str,
        rp: &[RelationPair],
        trace: &mut VertexTrace,
    ) -> Vec<RelationPair> {
        if rp.is_empty() || predicate.is_empty() {
            return rp.to_vec();
        }
        // Distinct labels present in RP (usually a handful), by id.
        let scorer = PredicateScorer::new(predicate);
        let label_of =
            |p: &RelationPair| self.graph.edge(p.edge()).expect("edge exists").label_id();
        let text = |label: LabelId| self.graph.edge_label_text(label);
        let mut label_sims: HashMap<LabelId, f32> = HashMap::new();
        for p in rp {
            let label = label_of(p);
            label_sims
                .entry(label)
                .or_insert_with(|| scorer.score(text(label)));
        }
        let (&best_label, &best_sim) = label_sims
            .iter()
            // NaN-safe and deterministic: ties on similarity break to the
            // lexicographically smallest label text, not HashMap iteration
            // order or id order.
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| text(*b.0).cmp(text(*a.0))))
            .expect("rp non-empty");
        trace.chosen_predicate = Some(text(best_label).to_owned());
        let cutoff = (best_sim - FILTER_SLACK).max(PREDICATE_FLOOR);
        rp.iter()
            .filter(|p| label_sims[&label_of(p)] >= cutoff)
            .copied()
            .collect()
    }

    /// Which AP side a constraint aggregates over: the side this vertex
    /// provides downstream, else its answer side, else the subject.
    fn constrained_side(&self, gq: &QueryGraph, u: usize) -> AnswerRole {
        if let Some(edge) = gq.out_edges(u).next() {
            return match edge.dependency {
                Dependency::S2S | Dependency::O2S => AnswerRole::Subject,
                Dependency::S2O | Dependency::O2O => AnswerRole::Object,
            };
        }
        gq.vertices[u].answer_role.unwrap_or(AnswerRole::Subject)
    }

    /// Count distinct scene-instance vertices (those carrying an `image`
    /// property) — counting questions accumulate visual evidence, not
    /// knowledge-graph concepts.
    fn count_scene_instances(&self, vertices: &[VertexId]) -> usize {
        let instances = vertices
            .iter()
            .filter(|&&v| self.graph.vertex_props(v).get(IMAGE).is_some())
            .count();
        if instances > 0 {
            instances
        } else {
            vertices.len()
        }
    }

    /// Labels of the answer vertices ranked by support (count desc, then
    /// alphabetically).
    fn ranked_labels(&self, vertices: &[VertexId]) -> Vec<String> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for &v in vertices {
            if let Some(label) = self.graph.vertex_label(v) {
                *counts.entry(label).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked.into_iter().map(|(l, _)| l.to_owned()).collect()
    }
}

/// Frequency-constraint application: group `AP` by the label of the
/// constrained side, keep the group(s) with max/min support.
fn apply_constraint(
    graph: &Graph,
    ap: Vec<RelationPair>,
    constraint: Constraint,
    side: AnswerRole,
    operand: Option<usize>,
) -> Vec<RelationPair> {
    // All constraints aggregate support per label of the constrained side.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for p in &ap {
        let v = match side {
            AnswerRole::Subject => p.subject(graph),
            AnswerRole::Object => p.object(graph),
        };
        if let Some(label) = graph.vertex_label(v) {
            *counts.entry(label).or_insert(0) += 1;
        }
    }
    let keep = |count: usize| -> bool {
        match constraint {
            Constraint::MostFrequent => Some(count) == counts.values().max().copied(),
            Constraint::LeastFrequent => Some(count) == counts.values().min().copied(),
            // Numeric comparators without an operand pass everything
            // through (a malformed question should degrade, not filter
            // arbitrarily).
            Constraint::AtLeast => operand.is_none_or(|n| count >= n),
            Constraint::AtMost => operand.is_none_or(|n| count <= n),
            Constraint::Exactly => operand.is_none_or(|n| count == n),
        }
    };
    if counts.is_empty() {
        return ap;
    }
    ap.into_iter()
        .filter(|p| {
            let v = match side {
                AnswerRole::Subject => p.subject(graph),
                AnswerRole::Object => p.object(graph),
            };
            graph
                .vertex_label(v)
                .is_some_and(|l| counts.get(l).copied().is_some_and(&keep))
        })
        .collect()
}

fn dedup(mut v: Vec<VertexId>) -> Vec<VertexId> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_graph::{GraphBuilder, Kind, Shape, Value};
    use svqa_qparser::QueryGraphGenerator;

    /// Build a miniature merged graph realizing the paper's Example 1:
    /// a knowledge graph of Harry Potter characters plus scene instances
    /// across "images".
    fn example1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        // Knowledge graph.
        b.triple("ginny weasley", "girlfriend of", "harry potter")
            .triple("cho chang", "girlfriend of", "harry potter")
            .triple("neville", "is a", "wizard")
            .triple("ron", "is a", "wizard")
            .triple("harry potter", "is a", "wizard")
            .triple("robe", "is a", "clothes")
            .triple("hat", "is a", "clothes")
            .triple("dog", "is a", "pet")
            .triple("cat", "is a", "pet")
            .triple("pet", "is a", "animal")
            .triple("bird", "is a", "animal");
        let mut g = b.build();

        // Scene instances: helper that adds an instance with image prop and
        // a same-as link to the KG entity.
        let add_instance = |g: &mut Graph, label: &str, image: i64| {
            let shape = Shape {
                keys: &[IMAGE],
                kinds: &[Kind::Int],
            };
            let v = g.add_vertex_with_props(label, shape, [Value::Int(image)]);
            if let Some(&kg) = g.vertices_with_label(label).first() {
                if kg != v {
                    g.add_edge(v, kg, "same as").unwrap();
                    g.add_edge(kg, v, "same as").unwrap();
                }
            }
            v
        };

        // Image 1: neville near ginny. Image 2: neville near ginny.
        // Image 3: ron near cho. Image 4: neville wearing a robe.
        let n1 = add_instance(&mut g, "neville", 1);
        let g1 = add_instance(&mut g, "ginny weasley", 1);
        g.add_edge(n1, g1, "near").unwrap();
        let n2 = add_instance(&mut g, "neville", 2);
        let g2 = add_instance(&mut g, "ginny weasley", 2);
        g.add_edge(n2, g2, "near").unwrap();
        let r3 = add_instance(&mut g, "ron", 3);
        let c3 = add_instance(&mut g, "cho chang", 3);
        g.add_edge(r3, c3, "near").unwrap();
        let n4 = add_instance(&mut g, "neville", 4);
        let robe4 = add_instance(&mut g, "robe", 4);
        g.add_edge(n4, robe4, "wearing").unwrap();
        // Distractor: ron wearing a hat.
        let r5 = add_instance(&mut g, "ron", 5);
        let hat5 = add_instance(&mut g, "hat", 5);
        g.add_edge(r5, hat5, "wearing").unwrap();
        g
    }

    /// Run `gq` uncached and return its answer.
    fn answer(exec: &QueryGraphExecutor<'_>, gq: &QueryGraph) -> Result<Answer, ExecError> {
        exec.run(gq, None, &mut CacheStats::new())
            .map(|run| run.answer)
    }

    fn run(graph: &Graph, question: &str) -> Answer {
        let gq = QueryGraphGenerator::new().generate(question).unwrap();
        answer(&QueryGraphExecutor::new(graph), &gq).unwrap()
    }

    #[test]
    fn example1_end_to_end() {
        // "What kind of clothes are worn by the wizard who is most
        // frequently hanging out with Harry Potter's girlfriend?"
        // Ginny/Cho are HP's girlfriends; neville co-appears with them
        // twice, ron once → neville; neville wears a robe.
        let g = example1_graph();
        let a = run(
            &g,
            "What kind of clothes are worn by the wizard who is most frequently hanging out with Harry Potter's girlfriend?",
        );
        assert!(
            matches!(&a, Answer::Entity { label, .. } if label == "robe"),
            "{a:?}"
        );
    }

    #[test]
    fn judgment_yes_and_no() {
        let g = example1_graph();
        let yes = run(&g, "Does the wizard appear near Harry Potter's girlfriend?");
        assert_eq!(yes, Answer::Judgment(true));
        let no = run(&g, "Does the dog appear near Harry Potter's girlfriend?");
        assert_eq!(no, Answer::Judgment(false));
    }

    #[test]
    fn counting_counts_scene_instances() {
        let g = example1_graph();
        // Ginny AND Cho are Harry's girlfriends (Example 1); wizard
        // instances near either: n1, n2 (near ginny) and r3 (near cho).
        let a = run(&g, "How many wizards are near Harry Potter's girlfriend?");
        assert_eq!(a, Answer::Count(3), "{a:?}");
    }

    #[test]
    fn reasoning_without_constraint_ranks_by_support() {
        let g = example1_graph();
        let a = run(&g, "What kind of clothes are worn by the wizard?");
        // Both robe and hat are worn by wizards; ranked answer includes
        // both with a deterministic top.
        match a {
            Answer::Entity {
                label,
                alternatives,
            } => {
                let mut all = vec![label];
                all.extend(alternatives);
                all.sort();
                assert_eq!(all, vec!["hat", "robe"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_query_graph_is_error() {
        let g = example1_graph();
        let gq = QueryGraph {
            vertices: vec![],
            edges: vec![],
            question_type: QuestionType::Reasoning,
            question: String::new(),
        };
        assert_eq!(
            answer(&QueryGraphExecutor::new(&g), &gq),
            Err(ExecError::EmptyQueryGraph)
        );
    }

    #[test]
    fn unknown_entity_yields_unknown() {
        let g = example1_graph();
        let a = run(&g, "What kind of clothes are worn by the elephant?");
        assert_eq!(a, Answer::Unknown);
    }

    #[test]
    fn cache_speeds_up_and_preserves_answers() {
        use crate::cache::{CacheGranularity, EvictionPolicy};
        let g = example1_graph();
        let gen = QueryGraphGenerator::new();
        let exec = QueryGraphExecutor::new(&g);
        let questions = [
            "What kind of clothes are worn by the wizard?",
            "What kind of clothes are worn by the wizard?",
            "Does the wizard appear near Harry Potter's girlfriend?",
        ];
        let cache = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 100);
        let mut cached_answers = Vec::new();
        for q in &questions {
            let gq = gen.generate(q).unwrap();
            let run = exec.run(&gq, Some(&cache), &mut CacheStats::new()).unwrap();
            cached_answers.push(run.answer);
        }
        let mut plain_answers = Vec::new();
        for q in &questions {
            let gq = gen.generate(q).unwrap();
            plain_answers.push(answer(&exec, &gq).unwrap());
        }
        assert_eq!(cached_answers, plain_answers);
        let stats = cache.stats();
        assert!(stats.scope_hits > 0, "expected scope hits, stats={stats:?}");
        assert!(stats.path_hits > 0, "expected path hits");
    }

    #[test]
    fn numeric_constraints_filter_by_support() {
        // neville appears near girlfriends twice (images 1+2), ron once
        // (image 3). "at least 2" keeps only neville's pairs; "exactly 1"
        // keeps only ron's.
        let g = example1_graph();
        let build = |constraint: &str| {
            svqa_qparser::QueryBuilder::counting()
                .clause("wizard", "near", "girlfriend")
                .constraint(constraint)
                .answer_is_subject()
                .wildcard_subject_clause("girlfriend of", "harry potter")
                .depend(1, 0, Dependency::O2S)
                .build()
                .unwrap()
        };
        let exec = QueryGraphExecutor::new(&g);
        let at_least_2 = answer(&exec, &build("at least 2")).unwrap();
        assert_eq!(at_least_2, Answer::Count(2), "{at_least_2:?}"); // n1, n2
        let exactly_1 = answer(&exec, &build("exactly 1")).unwrap();
        assert_eq!(exactly_1, Answer::Count(1), "{exactly_1:?}"); // r3
        let at_most_1 = answer(&exec, &build("at most 1")).unwrap();
        assert_eq!(at_most_1, Answer::Count(1), "{at_most_1:?}");
    }

    #[test]
    fn traces_record_pipeline_sizes() {
        let g = example1_graph();
        let gq = QueryGraphGenerator::new()
            .generate("What kind of clothes are worn by the wizard?")
            .unwrap();
        let traces = QueryGraphExecutor::new(&g)
            .run(&gq, None, &mut CacheStats::new())
            .unwrap()
            .traces;
        assert_eq!(traces.len(), 1);
        assert!(traces[0].sub_count > 0);
        assert!(traces[0].obj_count > 0);
        assert_eq!(traces[0].chosen_predicate.as_deref(), Some("wearing"));
        assert!(traces[0].ap_count > 0);
    }
}

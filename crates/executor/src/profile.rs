//! `EXPLAIN ANALYZE` for Algorithm 3.
//!
//! An [`ExecutionProfile`] is the plan-level story of one query: for every
//! SPOC quadruple, the candidate-set sizes before/after each pruning step
//! (matchVertex seed → semantic expansion → relation pairs → predicate
//! filter → constraint), how the key-centric cache behaved (scope/path
//! hit, miss, bypass), how many merged-graph edges were scanned, and the
//! per-quadruple wall time — plus the execution order.
//!
//! Two renderings: [`render_tree`](ExecutionProfile::render_tree) is the
//! human-readable `EXPLAIN ANALYZE` text behind `svqa-cli explain`;
//! [`to_json_pretty`](ExecutionProfile::to_json_pretty) is the
//! machine-readable form pushed into the telemetry profile ring and served
//! at `/profiles/recent`. [`query_trace`](ExecutionProfile::query_trace)
//! bridges to the Chrome-trace exporter.
//!
//! This is *plan* provenance (how the answer was computed); the
//! [`explain`](crate::explain) module is *answer* provenance (which merged
//! graph facts support it).

use crate::answer::Answer;
use crate::cache::CacheStats;
use crate::executor::{CacheOutcome, SlotSource, SlotTrace, VertexTrace};
use crate::explain::Explanation;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use svqa_qparser::QueryGraph;
use svqa_telemetry::{stage, QueryTrace, StageTiming};

/// The plan node for one SPOC quadruple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuadPlan {
    /// Vertex index in the query graph (the `v<n>` in rendered plans).
    pub index: usize,
    /// The quadruple rendered as `⟨subject, predicate, object⟩`.
    pub spoc: String,
    /// Everything the executor recorded while processing it.
    pub trace: VertexTrace,
}

/// The full `EXPLAIN ANALYZE` document for one executed query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// The question text.
    pub question: String,
    /// Question type name (`Judgment` / `Counting` / `Reasoning`).
    pub question_type: String,
    /// The answer, rendered.
    pub answer: String,
    /// Execution order over the quadruples (vertex indices).
    pub order: Vec<usize>,
    /// Per-quadruple plans, in execution order.
    pub quads: Vec<QuadPlan>,
    /// Stage timing tree: the `match` stage with one child per quadruple;
    /// upstream stages (parse) are prepended by the pipeline.
    pub stages: Vec<StageTiming>,
    /// Total profiled time across the recorded stages, ns.
    pub total_ns: u64,
    /// Cache traffic this query produced (its own lookups, not the shared
    /// cache's totals).
    pub cache: CacheStats,
    /// Non-fatal lint diagnostics (warnings/hints) the query-graph linter
    /// raised before execution; error-severity findings short-circuit and
    /// never reach a profile.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub lint: Vec<svqa_qlint::Diagnostic>,
}

/// What `execute_profiled` returns: the answer plus both provenance
/// artifacts (the plan profile and the supporting facts).
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The answer.
    pub answer: Answer,
    /// Plan-level profile (this module).
    pub profile: ExecutionProfile,
    /// Answer-level provenance (support facts).
    pub explanation: Explanation,
}

impl ExecutionProfile {
    /// Assemble a profile from one `run()`'s outputs. `traces` is indexed
    /// by vertex; `order` is the execution order actually used.
    pub fn assemble(
        gq: &QueryGraph,
        answer: &Answer,
        order: Vec<usize>,
        traces: &[VertexTrace],
        total_ns: u64,
        cache: CacheStats,
    ) -> ExecutionProfile {
        let quads: Vec<QuadPlan> = order
            .iter()
            .map(|&u| QuadPlan {
                index: u,
                spoc: gq.vertices[u].display(),
                trace: traces[u].clone(),
            })
            .collect();
        let mut match_stage = StageTiming::leaf(stage::MATCH, 0, total_ns);
        for q in &quads {
            match_stage.push_child(StageTiming::leaf(
                format!("v{} {}", q.index, q.spoc),
                q.trace.start_ns,
                q.trace.elapsed_ns,
            ));
        }
        ExecutionProfile {
            question: gq.question.clone(),
            question_type: gq.question_type.name().to_owned(),
            answer: answer.to_string(),
            order,
            quads,
            stages: vec![match_stage],
            total_ns,
            cache,
            lint: Vec::new(),
        }
    }

    /// Prepend an upstream stage (e.g. `parse`) that ran before the
    /// recorded ones: existing stages shift right, the total grows.
    pub fn prepend_stage(&mut self, stage: &str, nanos: u64) {
        for s in &mut self.stages {
            s.start_ns += nanos;
        }
        self.stages.insert(0, StageTiming::leaf(stage, 0, nanos));
        self.total_ns += nanos;
    }

    /// Attach the linter's non-fatal diagnostics.
    pub fn set_lint(&mut self, diagnostics: Vec<svqa_qlint::Diagnostic>) {
        self.lint = diagnostics;
    }

    /// The profile as a [`QueryTrace`] (stage tree + cache stats), ready
    /// for [`ChromeTrace`](svqa_telemetry::ChromeTrace).
    pub fn query_trace(&self) -> QueryTrace {
        let mut t = QueryTrace::new(&self.question);
        for s in &self.stages {
            t.record_stage_tree(s.clone());
        }
        t.cache = self.cache;
        t
    }

    /// Machine-readable JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serializes infallibly")
    }

    /// The profile as a JSON value (for the telemetry profile ring).
    pub fn to_json_value(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    /// The human-readable `EXPLAIN ANALYZE` tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE  {}", self.question);
        let _ = writeln!(
            out,
            "  type: {}   answer: {}   total: {}",
            self.question_type,
            self.answer,
            fmt_ns(self.total_ns)
        );
        let _ = writeln!(
            out,
            "  cache: scope {}/{} hits, path {}/{} hits",
            self.cache.scope_hits,
            self.cache.scope_hits + self.cache.scope_misses,
            self.cache.path_hits,
            self.cache.path_hits + self.cache.path_misses,
        );
        for s in &self.stages {
            if s.children.is_empty() {
                let _ = writeln!(out, "  stage {}: {}", s.stage, fmt_ns(s.nanos));
            }
        }
        if !self.lint.is_empty() {
            let _ = writeln!(out, "  lint:");
            for d in &self.lint {
                let _ = writeln!(out, "    {d}");
            }
        }
        let order: Vec<String> = self.order.iter().map(|u| format!("v{u}")).collect();
        let _ = writeln!(out, "  plan (execution order: {}):", order.join(" → "));
        for (pos, q) in self.quads.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{}  v{} {}   {}",
                pos + 1,
                q.index,
                q.spoc,
                fmt_ns(q.trace.elapsed_ns)
            );
            let t = &q.trace;
            if t.path_cache == CacheOutcome::Hit {
                let _ = writeln!(
                    out,
                    "      ├─ path cache: hit (scope lookups and edge scan skipped)"
                );
            } else {
                let _ = writeln!(out, "      ├─ sub: {}", slot_line(&t.sub));
                let _ = writeln!(out, "      ├─ obj: {}", slot_line(&t.obj));
                let _ = writeln!(
                    out,
                    "      ├─ path cache: {}   edges scanned: {}",
                    t.path_cache, t.edges_scanned
                );
            }
            let mut pairs = format!(
                "pairs: {} RP → {} after predicate",
                t.rp_count, t.ap_after_predicate
            );
            if let Some(p) = &t.chosen_predicate {
                let _ = write!(pairs, " \"{p}\"");
            }
            if let Some(c) = &t.constraint {
                let _ = write!(pairs, " → {} after constraint \"{}\"", t.ap_count, c);
            }
            let _ = writeln!(out, "      └─ {pairs}   (AP = {})", t.ap_count);
        }
        out
    }
}

fn slot_line(s: &SlotTrace) -> String {
    match s.source {
        SlotSource::Wildcard => "wildcard".to_owned(),
        SlotSource::Binding => format!(
            "binding: {} bound → {} after expansion",
            s.seed, s.expanded
        ),
        SlotSource::CacheHit => format!("scope-cache hit → {} candidates", s.expanded),
        SlotSource::Matched => format!(
            "matched via {}: {} seed → {} after expansion",
            s.method.map(|m| m.to_string()).unwrap_or_default(),
            s.seed,
            s.expanded
        ),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache};
    use crate::executor::QueryGraphExecutor;
    use svqa_graph::{Graph, GraphBuilder};
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

    fn profiled(
        g: &Graph,
        question: &str,
        cache: Option<&KeyCentricCache>,
    ) -> ProfiledRun {
        let gq = QueryGraphGenerator::new().generate(question).unwrap();
        QueryGraphExecutor::new(g)
            .execute_profiled(&gq, cache)
            .unwrap()
    }

    #[test]
    fn profile_records_pruning_funnel_and_timings() {
        let g = graph();
        let run = profiled(&g, "Does the dog appear in the car?", None);
        assert_eq!(run.answer, Answer::Judgment(true));
        let p = &run.profile;
        assert_eq!(p.question, "Does the dog appear in the car?");
        assert_eq!(p.question_type, "Judgment");
        assert_eq!(p.answer, "Yes");
        assert_eq!(p.quads.len(), 1);
        let t = &p.quads[0].trace;
        assert_eq!(t.sub.source, SlotSource::Matched);
        assert!(t.sub.seed > 0 && t.sub.expanded >= t.sub.seed);
        assert!(t.edges_scanned >= t.rp_count);
        assert!(t.ap_after_predicate >= t.ap_count);
        assert_eq!(t.path_cache, CacheOutcome::NoCache);
        assert!(p.total_ns > 0);
        // The match stage carries one child per quadruple.
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].children.len(), 1);
    }

    #[test]
    fn cache_outcomes_flip_from_miss_to_hit() {
        let g = graph();
        let cache = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 100);
        let cold = profiled(&g, "Does the dog appear in the car?", Some(&cache));
        assert_eq!(cold.profile.quads[0].trace.path_cache, CacheOutcome::Miss);
        assert!(cold.profile.cache.path_misses > 0);
        let warm = profiled(&g, "Does the dog appear in the car?", Some(&cache));
        assert_eq!(warm.profile.quads[0].trace.path_cache, CacheOutcome::Hit);
        // Delta attribution: the warm run must not re-count cold misses.
        assert_eq!(warm.profile.cache.path_misses, 0);
        assert!(warm.profile.cache.path_hits > 0);
        assert_eq!(cold.answer, warm.answer);
    }

    #[test]
    fn render_tree_shows_counts_cache_and_timing() {
        let g = graph();
        let cache = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 100);
        let run = profiled(&g, "Does the dog appear in the car?", Some(&cache));
        let text = run.profile.render_tree();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("answer: Yes"), "{text}");
        assert!(text.contains("path cache: miss"), "{text}");
        assert!(text.contains("edges scanned:"), "{text}");
        assert!(text.contains("matched via"), "{text}");
        assert!(text.contains("after predicate"), "{text}");
        assert!(text.contains("plan (execution order: v0)"), "{text}");
    }

    #[test]
    fn json_round_trips_and_prepend_shifts_stages() {
        let g = graph();
        let mut p = profiled(&g, "How many dogs are in the car?", None).profile;
        let match_ns = p.total_ns;
        p.prepend_stage(stage::PARSE, 5_000);
        assert_eq!(p.total_ns, match_ns + 5_000);
        assert_eq!(p.stages[0].stage, stage::PARSE);
        assert_eq!(p.stages[1].start_ns, 5_000);

        let back: ExecutionProfile = serde_json::from_str(&p.to_json_pretty()).unwrap();
        assert_eq!(back.question, p.question);
        assert_eq!(back.quads[0].trace, p.quads[0].trace);

        // The trace bridge carries the stage tree across.
        let qt = p.query_trace();
        assert_eq!(qt.stages.len(), 2);
        assert!(qt.stages[1].node_count() >= 2);
    }
}

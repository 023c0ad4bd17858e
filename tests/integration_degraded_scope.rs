//! A degraded answer is exactly the surviving source's answer. With one
//! source's breaker open, `Svqa::run` must agree with Algorithm 3 run over
//! the subgraph of `G_mg` induced by the survivor's vertices: the same
//! answer, the same supporting facts, and the same per-quadruple funnel
//! and match rung. This holds before and after incremental ingestion.

use svqa::executor::executor::QueryGraphExecutor;
use svqa::executor::CacheStats;
use svqa::fault::Source;
use svqa::graph::{scene_image, Graph};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::{generate_images, Mvqa};

/// The reference evidence: a copy of the subgraph of `merged` induced by
/// the vertex indices `keep` accepts.
fn induced(merged: &Graph, keep: impl Fn(usize) -> bool) -> Graph {
    let mut view = Graph::with_capacity(merged.vertex_count(), merged.edge_count());
    view.absorb_where(merged, |v| keep(v.index()));
    view
}

/// KG vertices are the prefix of `G_mg` without an `image` property.
fn kg_vertex_count(merged: &Graph) -> usize {
    merged
        .vertices()
        .take_while(|&(id, _)| scene_image(merged, id).is_none())
        .count()
}

/// Ask every question with `down`'s breaker open and compare each answer
/// with the reference run over the survivor's induced subgraph. Returns
/// how many questions were compared.
fn assert_degraded_matches_reference(system: &Svqa, questions: &[&str], down: Source) -> usize {
    let kg = kg_vertex_count(system.merged_graph());
    let view = induced(system.merged_graph(), |i| match down {
        Source::Kg => i >= kg,
        Source::Scene => i < kg,
    });
    let reference = QueryGraphExecutor::with_config(&view, system.config().executor);
    system.breakers().for_source(down).force_open();
    let mut compared = 0;
    for &q in questions {
        let prepared = system.prepare(q);
        if prepared.gate.is_err() {
            continue;
        }
        let gq = prepared
            .query
            .clone()
            .expect("a question that cleared the gate parsed");
        let expected = reference
            .run(&gq, None, &mut CacheStats::new())
            .unwrap_or_else(|e| panic!("{q}: reference failed: {e}"));
        let run = system.run(prepared, None, None);
        let guarded = run
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{q}: degraded run failed: {e}"));
        match &guarded.status {
            svqa::AnswerStatus::Degraded {
                missing_sources, ..
            } => assert_eq!(missing_sources, &[down.name()], "{q}"),
            other => panic!("{q}: expected a degraded answer, got {other}"),
        }
        assert_eq!(
            guarded.answer,
            expected.answer,
            "{q} ({} down)",
            down.name()
        );
        assert_eq!(
            run.explanation().expect("executed"),
            expected.explanation(&view),
            "{q} ({} down)",
            down.name()
        );
        let profile = run.profile().expect("executed");
        assert_eq!(profile.quads.len(), gq.len(), "{q}");
        for quad in &profile.quads {
            let (got, want) = (&quad.trace, &expected.traces[quad.index]);
            let funnel = |t: &svqa::executor::VertexTrace| {
                (
                    t.sub_count,
                    t.obj_count,
                    t.rp_count,
                    t.ap_count,
                    t.edges_scanned,
                    t.sub.method,
                    t.obj.method,
                )
            };
            assert_eq!(
                funnel(got),
                funnel(want),
                "{q} v{} ({} down)",
                quad.index,
                down.name()
            );
        }
        compared += 1;
    }
    system.breakers().for_source(down).record_success();
    compared
}

#[test]
fn degraded_answers_are_the_survivors_answers() {
    let mvqa = Mvqa::generate_small(300, 11);
    let mut config = SvqaConfig::default();
    // A forced-open breaker must stay open for the whole sweep.
    config.degrade.breaker.cooldown_ms = 3_600_000;
    let mut system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    let check = |system: &Svqa| {
        for down in [Source::Kg, Source::Scene] {
            let compared = assert_degraded_matches_reference(system, &questions, down);
            assert!(
                compared * 10 >= questions.len() * 9,
                "only {compared} of {} questions executed with {} down",
                questions.len(),
                down.name()
            );
        }
    };
    check(&system);

    // New evidence must reach degraded answers too.
    let more = generate_images(340, 11);
    assert!(system.add_images(&more[300..]) > 0);
    check(&system);
}

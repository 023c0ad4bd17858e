//! The offline build's two scene-graph outputs and its parallel schedule.
//!
//! `Svqa::build` generates scene graphs as flat records on worker threads
//! and appends them straight into the merged graph. Neither the records
//! nor the schedule may show in the result: the merged graph must be the
//! one Algorithm 1 gives over per-image `Graph`s, and a build under an
//! armed fault plan must draw every fault in image order, so it repeats
//! exactly.

use std::sync::Mutex;
use svqa::aggregator::DataAggregator;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::fault::{self, site, FaultKind, FaultPlan, SiteFault};
use svqa::graph::{binio, io, Graph};
use svqa::vision::prior::PairPrior;
use svqa::vision::scene::SyntheticImage;
use svqa::vision::sgg::SceneGraphGenerator;
use svqa::{Svqa, SvqaConfig};

/// Fault plans arm the whole process: tests that build must not overlap
/// one that holds a plan.
static BUILDS: Mutex<()> = Mutex::new(());

fn world(images: usize) -> (Vec<SyntheticImage>, Graph) {
    (
        generate_images(images, MvqaConfig::default().seed),
        build_knowledge_graph(),
    )
}

/// FNV-1a over the merged graph's JSON form.
fn digest(g: &Graph) -> u64 {
    io::to_json(g).bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn record_build_equals_merging_per_image_graphs() {
    let _serial = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    let (all, kg) = world(300);
    // Empty worlds, worlds with fewer images than worker threads, and one
    // that splits into several chunks.
    for n in [0, 1, 3, 300] {
        let images = &all[..n];
        let config = SvqaConfig::default();
        let built = Svqa::build(images, &kg, config.clone());

        let sgg = SceneGraphGenerator::new(config.sgg.clone(), PairPrior::fit(images));
        let graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
        let merged = DataAggregator::new(config.aggregator).merge(&graphs, &kg);

        let g = built.merged_graph();
        assert_eq!(io::to_json(g), io::to_json(&merged.graph), "{n} images");
        assert_eq!(
            binio::to_bytes(g),
            binio::to_bytes(&merged.graph),
            "{n} images"
        );
        assert_eq!(built.build_stats().merge, merged.stats, "{n} images");
        assert_eq!(built.build_stats().scene_graphs, n);
        assert_eq!(merged.scene_vertices.len(), n);
    }
}

#[test]
fn armed_sgg_and_detector_faults_build_identically_twice() {
    let _serial = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    let (images, kg) = world(300);
    let plan = FaultPlan::new(0x5e11)
        .with_fault(
            site::SGG_GENERATE,
            SiteFault::new(FaultKind::DropResult, 0.2),
        )
        .with_fault(
            site::DETECTOR_DETECT,
            SiteFault::new(FaultKind::CorruptLabel, 0.3),
        );
    let clean = digest(Svqa::build(&images, &kg, SvqaConfig::default()).merged_graph());

    let build = || {
        let armed = fault::install(plan.clone());
        let svqa = Svqa::build(&images, &kg, SvqaConfig::default());
        let injector = armed.injector();
        (
            digest(svqa.merged_graph()),
            svqa.build_stats().merge.clone(),
            injector.draws_at(site::SGG_GENERATE),
            injector.draws_at(site::DETECTOR_DETECT),
            injector.faults_fired(),
        )
    };
    let first = build();
    let second = build();
    assert_eq!(first, second, "a fault-armed build did not repeat");

    let (digest, _, sgg_draws, detector_draws, fired) = first;
    assert_eq!(
        sgg_draws,
        images.len() as u64,
        "one sgg.generate draw per image"
    );
    assert!(detector_draws > 0 && fired > 0, "the plan never struck");
    assert_ne!(digest, clean, "the faults left the merged graph untouched");
}

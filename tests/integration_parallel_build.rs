//! The offline build's two scene-graph outputs and its parallel schedule.
//!
//! `Svqa::build` generates scene graphs as flat records on worker threads
//! and appends them straight into the merged graph. Neither the records
//! nor the schedule may show in the result: the merged graph must be the
//! one Algorithm 1 gives over per-image `Graph`s, and a build under an
//! armed fault plan must draw every fault in image order, so it repeats
//! exactly.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use svqa::aggregator::DataAggregator;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::fault::{self, site, FaultKind, FaultPlan, SiteFault};
use svqa::graph::{binio, Graph};
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

/// FNV-1a over the merged graph's snapshot, once the graph validates.
fn digest(g: &Graph) -> u64 {
    g.validate().unwrap();
    binio::to_bytes(g)
        .unwrap()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
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
        g.validate().unwrap();
        assert_eq!(
            binio::to_bytes(g).unwrap(),
            binio::to_bytes(&merged.graph).unwrap(),
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

/// The label tables, the label index and the edge-label counts are not
/// serialized, so no digest sees them: check them against the arenas
/// directly. Each element's label id must name its text in the graph's
/// tables, and its text must look up that same id.
fn assert_indexes_match_arenas(g: &Graph, what: &str) {
    let mut by_label: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, v) in g.vertices() {
        let label = g.vertex_label_text(v.label_id());
        assert_eq!(g.vertex_label(id), Some(label), "{what}: text of {id}");
        assert_eq!(
            g.vertex_label_id(label),
            Some(v.label_id()),
            "{what}: id of {label:?}"
        );
        by_label.entry(label).or_default().push(id.index());
    }
    for (label, ids) in &by_label {
        let indexed: Vec<usize> = g
            .vertices_with_label(label)
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(&indexed, ids, "{what}: vertices labeled {label:?}");
    }
    let indexed_labels: usize = g.vertex_label_counts().map(|(_, n)| n).sum();
    assert_eq!(indexed_labels, g.vertex_count(), "{what}: label index size");
    assert_eq!(
        g.vertex_label_counts().count(),
        by_label.len(),
        "{what}: distinct labels"
    );

    let mut counted: BTreeMap<&str, usize> = BTreeMap::new();
    for (id, e) in g.edges() {
        let label = g.edge_label_text(e.label_id());
        assert_eq!(g.edge_label(id), Some(label), "{what}: text of {id}");
        assert_eq!(
            g.edge_label_id(label),
            Some(e.label_id()),
            "{what}: id of {label:?}"
        );
        *counted.entry(label).or_default() += 1;
    }
    let indexed: BTreeMap<&str, usize> = g.edge_label_counts().collect();
    assert_eq!(indexed, counted, "{what}: edge-label counts");
    g.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// An image the detector cannot find anything in.
fn empty_image(id: u32) -> SyntheticImage {
    SyntheticImage {
        id,
        objects: Vec::new(),
        relations: Vec::new(),
        caption: String::new(),
    }
}

#[test]
fn label_index_and_edge_label_counts_match_the_arenas() {
    let _serial = BUILDS.lock().unwrap_or_else(|e| e.into_inner());
    let (all, kg) = world(300);
    for n in [0, 1, 3, 300] {
        // Empty images first, inside and last: they attach nothing but
        // still end a record chunk's image list.
        let mut images = vec![empty_image(90_000)];
        images.extend_from_slice(&all[..n / 2]);
        images.push(empty_image(90_001));
        images.extend_from_slice(&all[n / 2..n]);
        images.push(empty_image(90_002));
        let built = Svqa::build(&images, &kg, SvqaConfig::default());
        assert_indexes_match_arenas(built.merged_graph(), &format!("build, {n} images"));

        let (head, tail) = images.split_at(images.len() / 2);
        let mut grown = Svqa::build(head, &kg, SvqaConfig::default());
        grown.add_images(tail);
        assert_indexes_match_arenas(grown.merged_graph(), &format!("add_images, {n} images"));
    }
}

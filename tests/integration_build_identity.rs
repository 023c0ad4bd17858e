//! Bit-identity of the offline build.
//!
//! The build path (scene-graph generation, Algorithm 1's merge, incremental
//! ingestion, graph serialization) is tuned for allocation, not for
//! behaviour: for a fixed world it must keep producing exactly the same
//! merged graph, the same merge accounting and the same generated corpus.
//! The pinned values below were taken from the string-labelled build that
//! preceded the shared-label storage; any drift is a behaviour change and
//! must be explained, not re-pinned.

use svqa::aggregator::MergeStats;
use svqa::dataset::{build_knowledge_graph, generate_images, Mvqa, MvqaConfig};
use svqa::graph::{binio, io, Graph, PropValue, Properties};
use svqa::{Svqa, SvqaConfig};

/// Images in the pinned world (default MVQA seed).
const IMAGES: usize = 300;

/// FNV-1a over a byte string — stable across runs and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn world() -> (Vec<svqa::vision::scene::SyntheticImage>, Graph) {
    (
        generate_images(IMAGES, MvqaConfig::default().seed),
        build_knowledge_graph(),
    )
}

fn graph_digest(g: &Graph) -> u64 {
    fnv1a(serde_json::to_string(g).unwrap().as_bytes())
}

#[test]
fn merged_graph_and_merge_stats_are_pinned() {
    let (images, kg) = world();
    let svqa = Svqa::build(&images, &kg, SvqaConfig::default());
    let g = svqa.merged_graph();
    assert_eq!(
        (g.vertex_count(), g.edge_count(), graph_digest(g)),
        (1202, 4829, 0x4e29_9e77_6109_b1a5),
        "merged graph drifted"
    );
    assert_eq!(
        svqa.build_stats().merge,
        MergeStats {
            cached_subgraphs: 40,
            cache_hits: 918,
            cache_misses: 209,
            links_created: 1836,
            unlinked_vertices: 209,
            fraction_labels_cached: 0.6984126984126984,
            fraction_vertices_covered: 0.9467613132209406,
            cache_index_bytes: 3904,
        }
    );
}

#[test]
fn incremental_ingestion_is_pinned() {
    let (images, kg) = world();
    let (seed, stream) = images.split_at(IMAGES * 2 / 3);
    let mut svqa = Svqa::build(seed, &kg, SvqaConfig::default());
    let mut links = 0;
    for chunk in stream.chunks(40) {
        links += svqa.add_images(chunk);
    }
    let g = svqa.merged_graph();
    assert_eq!(
        (links, g.vertex_count(), g.edge_count(), graph_digest(g)),
        (638, 1202, 4829, 0x813a_4496_dc2a_6875),
        "incrementally merged graph drifted"
    );
    // Ingestion adds its links to the seed build's accounting and leaves
    // the rest of Algorithm 1's statistics as the seed build left them.
    assert_eq!(
        svqa.build_stats().merge,
        MergeStats {
            cached_subgraphs: 33,
            cache_hits: 599,
            cache_misses: 136,
            links_created: 1836,
            unlinked_vertices: 136,
            fraction_labels_cached: 0.5967741935483871,
            fraction_vertices_covered: 0.9034013605442177,
            cache_index_bytes: 2987,
        }
    );
}

#[test]
fn generated_corpus_is_pinned() {
    let mvqa = Mvqa::generate_small(IMAGES, MvqaConfig::default().seed);
    let json = serde_json::to_string(&mvqa.questions).unwrap();
    assert_eq!(
        (mvqa.questions.len(), fnv1a(json.as_bytes())),
        (100, 0xbd2c_8462_4c59_14a6),
        "generated corpus drifted"
    );
}

/// A graph mixing static and runtime property keys, repeated labels and
/// every value type.
fn mixed_graph() -> Graph {
    let mut g = Graph::new();
    let runtime_key = format!("{}_{}", "source", 7);
    let mut props: Properties = [
        ("image", PropValue::Int(3)),
        ("x", PropValue::Float(0.125)),
        ("flag", PropValue::Bool(true)),
        ("note", PropValue::Str("hello".into())),
    ]
    .into_iter()
    .collect();
    props.set(runtime_key, "lake");
    let dog = g.add_vertex_with_props("dog", props);
    let man = g.add_vertex(String::from("man"));
    let dog2 = g.add_vertex("dog");
    let mut score = Properties::new();
    score.set("score", 0.75);
    g.add_edge_with_props(dog, man, "near", score).unwrap();
    g.add_edge(dog2, man, "near").unwrap();
    g.add_edge(man, dog, String::from("watching")).unwrap();
    g
}

#[test]
fn json_and_binary_round_trips_are_byte_identical() {
    for g in [mixed_graph(), {
        let (images, kg) = world();
        Svqa::build(&images[..40], &kg, SvqaConfig::default())
            .merged_graph()
            .clone()
    }] {
        let json = io::to_json(&g);
        let back = io::from_json(&json).unwrap();
        assert_eq!(io::to_json(&back), json);
        assert_eq!(io::to_json_pretty(&back), io::to_json_pretty(&g));

        let bytes = binio::to_bytes(&g);
        let back = binio::from_bytes(bytes.clone()).unwrap();
        assert_eq!(binio::to_bytes(&back), bytes);
        assert_eq!(io::to_json(&back), json);
    }
    let g = mixed_graph();
    let back = io::from_json(&io::to_json(&g)).unwrap();
    let props = back
        .vertex(back.vertices_with_label("dog")[0])
        .unwrap()
        .props();
    assert_eq!(
        props.get("source_7").and_then(PropValue::as_str),
        Some("lake")
    );
}

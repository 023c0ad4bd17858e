//! Bit-identity of the offline build.
//!
//! The build path (scene-graph generation, Algorithm 1's merge, incremental
//! ingestion, the `binio` snapshot) is tuned for allocation, not for
//! behaviour: for a fixed world it must keep producing exactly the same
//! merged graph, the same merge accounting and the same generated corpus.
//! The pinned values below were taken from the string-labelled build that
//! preceded the shared-label storage; any drift is a behaviour change and
//! must be explained, not re-pinned. The two graph digests were first taken
//! over the graph's JSON form; when that format was retired they were
//! re-taken over the `binio` snapshot, from builds whose JSON digests still
//! matched the old pins.

use std::sync::OnceLock;
use svqa::aggregator::MergeStats;
use svqa::dataset::{
    build_knowledge_graph, generate_images, generate_vqav2, Mvqa, MvqaConfig, QaPair, QuestionSpec,
    VqaV2Config,
};
use svqa::graph::{binio, Graph, Kind, Shape, Value};
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

/// FNV-1a over the graph's `binio` snapshot, once the graph validates.
fn graph_digest(g: &Graph) -> u64 {
    g.validate().unwrap();
    fnv1a(&binio::to_bytes(g).unwrap())
}

/// The snapshot holds no adjacency, so its digest cannot see it: `g` must
/// validate, and each vertex's out- and in-edges must be those that
/// loading its snapshot derives from the edge arena.
fn assert_adjacency_matches_snapshot(g: &Graph) {
    g.validate().unwrap();
    let back = binio::from_bytes(binio::to_bytes(g).unwrap()).unwrap();
    for (id, _) in g.vertices() {
        assert_eq!(back.out_edge_ids(id), g.out_edge_ids(id), "{id}");
        assert_eq!(back.in_edge_ids(id), g.in_edge_ids(id), "{id}");
    }
}

#[test]
fn merged_graph_and_merge_stats_are_pinned() {
    let (images, kg) = world();
    let svqa = Svqa::build(&images, &kg, SvqaConfig::default());
    let g = svqa.merged_graph();
    assert_eq!(
        (g.vertex_count(), g.edge_count(), graph_digest(g)),
        (1202, 4829, 0xf3b0_2cd1_90e3_8d91),
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
        // Each append to the existing graph rebuilds its adjacency.
        assert_adjacency_matches_snapshot(svqa.merged_graph());
    }
    let g = svqa.merged_graph();
    assert_eq!(
        (links, g.vertex_count(), g.edge_count(), graph_digest(g)),
        (638, 1202, 4829, 0x95a2_c421_8539_caff),
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

/// FNV-1a of a corpus' `questions` and `specs` JSON.
fn corpus_digests(questions: &[QaPair], specs: &[QuestionSpec]) -> (u64, u64) {
    (
        fnv1a(serde_json::to_string(questions).unwrap().as_bytes()),
        fnv1a(serde_json::to_string(specs).unwrap().as_bytes()),
    )
}

#[test]
fn generated_corpus_is_pinned() {
    let default_seed = MvqaConfig::default().seed;
    for (images, seed, pinned) in [
        (
            IMAGES,
            default_seed,
            (0xbd2c_8462_4c59_14a6, 0x64d5_fad5_2810_0c4a),
        ),
        (IMAGES, 11, (0x7ac1_a30a_90c9_abd7, 0x007d_d8c1_3ab2_e158)),
        (
            1000,
            default_seed,
            (0xc3b1_b176_8800_525a, 0x89d7_98cd_9386_0dc7),
        ),
        (1000, 11, (0x2dea_d11f_e923_13d8, 0x7aa4_1259_3dbf_7599)),
    ] {
        let mvqa = Mvqa::generate_small(images, seed);
        assert_eq!(mvqa.questions.len(), 100, "{images} images, seed {seed}");
        assert_eq!(
            corpus_digests(&mvqa.questions, &mvqa.specs),
            pinned,
            "generated corpus drifted at {images} images, seed {seed}"
        );
    }
    let vqav2 = generate_vqav2(VqaV2Config::default());
    assert_eq!(
        corpus_digests(&vqav2.questions, &vqav2.specs),
        (0x0699_f7b7_c2ab_13f6, 0x29d9_8a21_13ba_6635),
        "modified VQAv2 corpus drifted"
    );
}

/// A property key built at run time, leaked once.
fn runtime_key() -> &'static str {
    static KEY: OnceLock<&'static str> = OnceLock::new();
    KEY.get_or_init(|| format!("{}_{}", "source", 7).leak())
}

/// A graph mixing static and runtime property keys, repeated labels and
/// every value type.
fn mixed_graph() -> Graph {
    let mut g = Graph::new();
    let keys = ["flag", "image", "note", runtime_key(), "x"];
    let shape = Shape {
        keys: &keys,
        kinds: &[Kind::Bool, Kind::Int, Kind::Str, Kind::Str, Kind::Float],
    };
    let values = [
        Value::Bool(true),
        Value::Int(3),
        Value::Str("hello"),
        Value::Str("lake"),
        Value::Float(0.125),
    ];
    let dog = g.add_vertex_with_props("dog", shape, values);
    let man = g.add_vertex(String::from("man"));
    let dog2 = g.add_vertex("dog");
    let score = Shape {
        keys: &["score"],
        kinds: &[Kind::Float],
    };
    g.add_edge_with_props(dog, man, "near", score, [Value::Float(0.75)])
        .unwrap();
    g.add_edge(dog2, man, "near").unwrap();
    g.add_edge(man, dog, String::from("watching")).unwrap();
    g
}

#[test]
fn binary_round_trips_are_byte_identical() {
    for g in [mixed_graph(), {
        let (images, kg) = world();
        Svqa::build(&images[..40], &kg, SvqaConfig::default())
            .merged_graph()
            .clone()
    }] {
        g.validate().unwrap();
        // `from_bytes` validates what it loads.
        let bytes = binio::to_bytes(&g).unwrap();
        let back = binio::from_bytes(bytes.clone()).unwrap();
        assert_eq!(binio::to_bytes(&back).unwrap(), bytes);
        assert_adjacency_matches_snapshot(&g);
    }
    let g = mixed_graph();
    let back = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
    let props = back.vertex_props(back.vertices_with_label("dog")[0]);
    assert_eq!(props.get("source_7").and_then(Value::as_str), Some("lake"));
}

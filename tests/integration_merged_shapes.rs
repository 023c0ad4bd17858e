//! The property shapes of the merged graph `G_mg`, through every writer.
//!
//! `G_mg` keeps what the query path reads: a scene vertex carries its image
//! id alone (`IMAGE_SHAPE`), and knowledge-graph vertices and every edge
//! carry nothing. Boxes and predicate scores stay in the per-image scene
//! graphs, which relation prediction and Table V read before the merge.
//! Each way of producing a `G_mg` must hold that layout: `Svqa::build`,
//! `DataAggregator::merge` over per-image graphs, `merge_records`,
//! `Svqa::add_images`, and a `binio` round trip of the built graph.

use svqa::aggregator::DataAggregator;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::graph::{binio, scene_image, Graph, Shape, IMAGE_SHAPE};
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::SceneGraphGenerator;
use svqa::vision::{EDGE_SHAPE, VERTEX_SHAPE};
use svqa::{Svqa, SvqaConfig};

/// Images in the test world (default MVQA seed).
const IMAGES: usize = 120;

/// Every vertex of `g` is bare or carries its image id alone, the
/// knowledge graph's `kg_vertices` bare and every later vertex under
/// [`IMAGE_SHAPE`]; every edge is bare, so the edge column is empty under
/// one run.
fn assert_query_layout(g: &Graph, kg_vertices: usize, what: &str) {
    g.validate().unwrap();
    for (vertices, shape) in g.vertex_shape_runs() {
        let want = if vertices.end <= kg_vertices {
            Shape::default()
        } else {
            assert!(vertices.start >= kg_vertices, "{what}: {vertices:?}");
            IMAGE_SHAPE
        };
        assert_eq!(shape, want, "{what}: vertices {vertices:?}");
    }
    for (id, _) in g.vertices() {
        assert_eq!(
            scene_image(g, id).is_some(),
            id.index() >= kg_vertices,
            "{what}: {id}"
        );
    }
    let runs: Vec<_> = g.edge_shape_runs().collect();
    assert_eq!(runs, [(0..g.edge_count(), Shape::default())], "{what}");
    let [_, edge_column] = g.value_columns();
    assert_eq!((edge_column.len, edge_column.capacity), (0, 0), "{what}");
}

#[test]
fn every_writer_of_the_merged_graph_keeps_the_query_layout() {
    let images = generate_images(IMAGES, MvqaConfig::default().seed);
    let kg = build_knowledge_graph();
    let kg_vertices = kg.vertex_count();

    let built = Svqa::build(&images, &kg, SvqaConfig::default());
    let g = built.merged_graph();
    assert!(g.vertex_count() > kg_vertices);
    assert_query_layout(g, kg_vertices, "Svqa::build");

    // A snapshot holds the same layout and reloads to the same bytes.
    let bytes = binio::to_bytes(g).unwrap();
    let loaded = binio::from_bytes(bytes.clone()).unwrap();
    assert_query_layout(&loaded, kg_vertices, "binio round trip");
    assert_eq!(binio::to_bytes(&loaded).unwrap(), bytes);

    // Grown image by image from a smaller build.
    let (seed, stream) = images.split_at(IMAGES / 2);
    let mut grown = Svqa::build(seed, &kg, SvqaConfig::default());
    for chunk in stream.chunks(25) {
        grown.add_images(chunk);
        assert_query_layout(grown.merged_graph(), kg_vertices, "Svqa::add_images");
    }

    // Per-image scene graphs keep their boxes and scores; merging them
    // drops both, and gives the graph their records merge into.
    let config = SvqaConfig::default();
    let sgg = SceneGraphGenerator::new(config.sgg, PairPrior::fit(&images));
    let graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
    assert!(graphs.iter().any(|g| g.edge_count() > 0));
    for graph in &graphs {
        assert!(graph.vertex_shape_runs().all(|(_, s)| s == VERTEX_SHAPE));
        assert!(graph.edge_shape_runs().all(|(_, s)| s == EDGE_SHAPE));
    }
    let aggregator = DataAggregator::new(config.aggregator);
    let from_graphs = aggregator.merge(&graphs, &kg);
    assert_query_layout(&from_graphs.graph, kg_vertices, "DataAggregator::merge");
    let (first, second) = images.split_at(IMAGES / 3);
    let records = vec![
        vec![sgg.generate_records(first)],
        vec![sgg.generate_records(second)],
    ];
    let from_records = aggregator.merge_records(records, &kg);
    assert_query_layout(&from_records.graph, kg_vertices, "merge_records");
    assert_eq!(
        binio::to_bytes(&from_records.graph).unwrap(),
        binio::to_bytes(&from_graphs.graph).unwrap()
    );
    assert_eq!(
        binio::to_bytes(&from_records.graph).unwrap(),
        bytes,
        "Svqa::build merges its records as merge_records does"
    );
}

//! The vertex images of the merged graph `G_mg`, through every writer.
//!
//! `G_mg` keeps what the query path reads: a scene vertex carries its image
//! id, and knowledge-graph vertices and every edge carry nothing. Boxes and
//! predicate scores stay in the scene-graph generator's output, which
//! relation prediction and Table V read before the merge. Each way of
//! producing a `G_mg` must hold that layout: `Svqa::build`,
//! `DataAggregator::merge` over per-image graphs, `merge_records`,
//! `Svqa::add_images`, and a `binio` round trip of the built graph.

use svqa::aggregator::DataAggregator;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::graph::{binio, scene_image, Graph};
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::SceneGraphGenerator;
use svqa::{Svqa, SvqaConfig};

/// Images in the test world (default MVQA seed).
const IMAGES: usize = 120;

/// The knowledge graph's `kg_vertices` carry no image, and every later
/// vertex its own image's id: each image's vertices, in image order, carry
/// that image's id, which grows from image to image.
fn assert_query_layout(g: &Graph, kg_vertices: usize, what: &str) {
    g.validate().unwrap();
    let mut last = None;
    for (id, _) in g.vertices() {
        let image = scene_image(g, id);
        if id.index() < kg_vertices {
            assert_eq!(image, None, "{what}: {id}");
        } else {
            assert!(
                image.is_some() && image >= last,
                "{what}: {id}: {image:?} after {last:?}"
            );
            last = image;
        }
    }
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

    // Per-image scene graphs carry their own image's id on every vertex;
    // merging them gives the graph their records merge into.
    let config = SvqaConfig::default();
    let sgg = SceneGraphGenerator::new(config.sgg, PairPrior::fit(&images));
    let graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
    assert!(graphs.iter().any(|g| g.edge_count() > 0));
    for (graph, image) in graphs.iter().zip(&images) {
        for (id, _) in graph.vertices() {
            assert_eq!(scene_image(graph, id), Some(image.id));
        }
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

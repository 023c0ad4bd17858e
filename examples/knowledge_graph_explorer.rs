//! Knowledge-graph and merged-graph explorer.
//!
//! Shows what the Data Aggregator (§III) actually builds: the external
//! knowledge graph, the per-image scene graphs, the Algorithm-1 subgraph
//! cache, and the linked merged graph — then walks an Example-1-style
//! reasoning chain by hand so the cross-source hops are visible.
//!
//! ```text
//! cargo run -p svqa --example knowledge_graph_explorer --release
//! ```

use svqa::aggregator::{AggregatorConfig, DataAggregator};
use svqa::dataset::{build_knowledge_graph, generate_images};
use svqa::graph::{scene_image, SAME_AS};
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::{SceneGraphGenerator, SggConfig};

fn main() {
    // The external knowledge graph.
    let kg = build_knowledge_graph();
    println!(
        "knowledge graph: {} vertices, {} edges",
        kg.vertex_count(),
        kg.edge_count()
    );
    println!("\nHarry Potter's neighbourhood:");
    let harry = kg.vertices_with_label("harry potter")[0];
    for (_, e) in kg.in_edges(harry) {
        println!(
            "  {} --{}--> harry potter",
            kg.vertex_label(e.src()).unwrap_or("?"),
            kg.edge_label_text(e.label_id())
        );
    }
    for (_, e) in kg.out_edges(harry) {
        println!(
            "  harry potter --{}--> {}",
            kg.edge_label_text(e.label_id()),
            kg.vertex_label(e.dst()).unwrap_or("?")
        );
    }

    // Scene graphs for a handful of images.
    let images = generate_images(300, 77);
    let prior = PairPrior::fit(&images);
    let sgg = SceneGraphGenerator::new(SggConfig::default(), prior);
    let scene_graphs: Vec<_> = images.iter().map(|i| sgg.generate(i).graph).collect();
    println!(
        "\ngenerated {} scene graphs ({} vertices, {} edges total)",
        scene_graphs.len(),
        scene_graphs.iter().map(|g| g.vertex_count()).sum::<usize>(),
        scene_graphs.iter().map(|g| g.edge_count()).sum::<usize>(),
    );

    // Algorithm 1 with the paper's parameters (c' = 5, k = 2).
    let aggregator = DataAggregator::new(AggregatorConfig::default());
    let merged = aggregator.merge(&scene_graphs, &kg);
    println!("\nAlgorithm 1 merge:");
    println!(
        "  merged graph: {} vertices, {} edges",
        merged.graph.vertex_count(),
        merged.graph.edge_count()
    );
    println!("  cached subgraphs: {}", merged.stats.cached_subgraphs);
    println!(
        "  cache hits/misses during attach: {}/{}",
        merged.stats.cache_hits, merged.stats.cache_misses
    );
    println!(
        "  {:.0}% of vertex types occur more than 5 times (paper: ≈58%)",
        merged.stats.fraction_labels_cached * 100.0
    );
    println!(
        "  {:.0}% of vertices covered by cached subgraphs (paper: ≈82%)",
        merged.stats.fraction_vertices_covered * 100.0
    );

    // Connectivity: cross-source reasoning needs the scene graphs linked
    // into the knowledge graph's component.
    let (_, components) = svqa::graph::connected_components(&merged.graph);
    let largest = svqa::graph::largest_component_size(&merged.graph);
    println!(
        "  connectivity: {} components; largest holds {} of {} vertices ({:.0}%)",
        components,
        largest,
        merged.graph.vertex_count(),
        100.0 * largest as f64 / merged.graph.vertex_count() as f64
    );

    // Walk a cross-source chain by hand: girlfriend → co-appearance → garment.
    println!("\ncross-source walk (Example 1 by hand):");
    let g = &merged.graph;
    let harry = g.vertices_with_label("harry potter")[0];
    let girlfriend_of = g.edge_label_id("girlfriend of");
    let same_as = g.edge_label_id(SAME_AS);
    for (_, e) in g
        .in_edges(harry)
        .filter(|(_, e)| Some(e.label_id()) == girlfriend_of)
    {
        let girlfriend = e.src();
        let name = g.vertex_label(girlfriend).unwrap_or("?");
        println!("  {name} is harry potter's girlfriend (knowledge graph)");
        // Scene instances of the girlfriend via "same as" links.
        for (_, link) in g
            .out_edges(girlfriend)
            .filter(|(_, e)| Some(e.label_id()) == same_as)
        {
            let instance = link.dst();
            let image = scene_image(g, instance);
            // Who appears near her in that image?
            for (_, rel) in g.in_edges(instance) {
                if Some(rel.label_id()) == same_as {
                    continue;
                }
                println!(
                    "    image {:?}: {} --{}--> {name}",
                    image,
                    g.vertex_label(rel.src()).unwrap_or("?"),
                    g.edge_label_text(rel.label_id())
                );
            }
        }
    }
}

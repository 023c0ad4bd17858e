//! Scene-graph generation walkthrough — the paper's Figure 3.
//!
//! Builds the frisbee scene ("a dog jumping over the grass to catch a
//! frisbee, while a man watching from behind"), runs the detector and the
//! relation model with and without TDE, and prints both scene graphs so the
//! debiasing effect is visible.
//!
//! ```text
//! cargo run -p svqa --example scene_graph_demo --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use svqa::vision::prior::PairPrior;
use svqa::vision::scene::{SceneBuilder, SyntheticImage};
use svqa::vision::sgg::{SceneGraphGenerator, SggConfig};

fn frisbee_scene() -> SyntheticImage {
    let mut rng = StdRng::seed_from_u64(3);
    let mut b = SceneBuilder::new(1, &mut rng);
    let dog = b.add_object("dog");
    let grass = b.add_object("grass");
    let man = b.add_object("man");
    let frisbee = b.add_object("frisbee");
    let fence = b.add_object("fence");
    b.relate(dog, "jumping over", grass);
    b.relate(man, "behind", dog);
    b.relate(dog, "holding", frisbee);
    b.relate_anchored(man, "in front of", fence);
    b.build()
}

/// A biased "training corpus": dogs and men are overwhelmingly annotated
/// as merely "near" each other (the ubiquitous-predicate bias of §III-A).
fn biased_corpus() -> Vec<SyntheticImage> {
    let mut rng = StdRng::seed_from_u64(9);
    (0..80)
        .map(|i| {
            let mut b = SceneBuilder::new(100 + i, &mut rng);
            let dog = b.add_object("dog");
            let man = b.add_object("man");
            let grass = b.add_object("grass");
            b.relate(dog, "near", man);
            b.relate(dog, "near", grass);
            b.build()
        })
        .collect()
}

fn print_graph(title: &str, graph: &svqa::graph::Graph) {
    println!("\n--- {title} ---");
    for (id, e) in graph.edges() {
        let score = graph
            .edge_props(id)
            .get("score")
            .and_then(|p| p.as_float())
            .unwrap_or(0.0);
        println!(
            "  {{{}, {}, {}}}  (score {:.2})",
            graph.vertex_label(e.src()).unwrap_or("?"),
            graph.edge_label_text(e.label_id()),
            graph.vertex_label(e.dst()).unwrap_or("?"),
            score
        );
    }
}

fn main() {
    let image = frisbee_scene();
    println!("ground-truth scene (Fig. 3b): {}", image.caption);
    println!("objects:");
    for o in &image.objects {
        println!(
            "  {:10} bbox=({:.2},{:.2},{:.2},{:.2}) depth={:.2}",
            o.category, o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h, o.depth
        );
    }

    let prior = PairPrior::fit(&biased_corpus());

    // Original model (Fig. 3a): the ubiquitous-predicate bias shows.
    let original = SceneGraphGenerator::new(
        SggConfig {
            use_tde: false,
            edge_threshold: 0.05,
            ..SggConfig::default()
        },
        prior.clone(),
    );
    print_graph(
        "initial links, Original model (Fig. 3a)",
        &original.generate(&image).graph,
    );

    // TDE-debiased (Fig. 3c): explicit predicates recovered.
    let tde = SceneGraphGenerator::new(
        SggConfig {
            use_tde: true,
            ..SggConfig::default()
        },
        prior,
    );
    print_graph("TDE-debiased links (Fig. 3c)", &tde.generate(&image).graph);
}

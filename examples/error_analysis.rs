//! Error analysis — the paper's Figure 8.
//!
//! Demonstrates the three failure modes the paper attributes accuracy
//! drops to:
//!   (a) statement parsing — "canis" tagged as a foreign word,
//!   (b) object detection — a toy bear recognized as a bear,
//!   (c) relationship generation — a predicate confused for a neighbour.
//!
//! ```text
//! cargo run -p svqa --example error_analysis --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use svqa::nlp::{PosTagger, RuleDependencyParser};
use svqa::qparser::QueryGraphGenerator;
use svqa::vision::detector::{Detector, DetectorConfig};
use svqa::vision::scene::SceneBuilder;

fn main() {
    // --- (a) Fig. 8a: statement parsing error -------------------------
    println!("=== Fig. 8a — statement parsing ===");
    let q = "Does the kind of canis that is sitting on the bed appear in front of the vehicle?";
    println!("Q: {q}");
    let tagger = PosTagger::new();
    let tagged = tagger.tag(q);
    let tags: Vec<String> = tagged
        .iter()
        .map(|t| format!("{}/{}", t.token.text, t.tag))
        .collect();
    println!("POS: {}", tags.join(" "));
    println!("  → note canis/FW: the tagger treats the Latinate word as foreign,");
    println!("    so the noun phrase the query needs is never built.");
    match QueryGraphGenerator::new().generate(q) {
        Ok(gq) => {
            println!("  query graph still built, but degraded:");
            for v in &gq.vertices {
                println!("    {}", v.display());
            }
        }
        Err(e) => println!("  query-graph generation failed: {e}"),
    }

    // --- (b) Fig. 8b: object detection error --------------------------
    println!("\n=== Fig. 8b — object detection ===");
    let mut rng = StdRng::seed_from_u64(8);
    let mut b = SceneBuilder::new(0, &mut rng);
    let bear = b.add_object("teddy bear");
    b.set_attribute(bear, "kind", "toy");
    let couch = b.add_object("couch");
    b.relate(bear, "sitting on", couch);
    let image = b.build();
    let detector = Detector::new(DetectorConfig::default());
    let mut confused = 0;
    let trials = 100;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = detector.detect(&image, &mut rng);
        if ds.iter().any(|d| d.label == "bear") {
            confused += 1;
        }
    }
    println!("ground truth: a TOY bear (teddy bear) sitting on a couch");
    println!("detector output over {trials} trials: recognized as a real 'bear' {confused} times");
    println!("  → the classifier cannot see the 'toy' attribute; the scene graph");
    println!("    then claims a bear in the living room, exactly as in the paper.");

    // --- (c) Fig. 8c: relationship generation error -------------------
    println!("\n=== Fig. 8c — relationship generation ===");
    let mut rng = StdRng::seed_from_u64(80);
    let mut b = SceneBuilder::new(1, &mut rng);
    let bear2 = b.add_object("teddy bear");
    let tv = b.add_object("tv");
    b.relate(bear2, "on", tv); // ground truth: the bear is ON the tv
    let image = b.build();
    let prior = svqa::vision::prior::PairPrior::uniform();
    let sgg = svqa::vision::sgg::SceneGraphGenerator::new(
        svqa::vision::sgg::SggConfig {
            detector: DetectorConfig {
                bbox_jitter: 0.35, // a badly localized box ruins the geometry
                ..DetectorConfig::default()
            },
            ..svqa::vision::sgg::SggConfig::default()
        },
        prior,
    );
    let out = sgg.generate(&image);
    println!("ground truth: {{teddy bear, on, tv}}");
    print!("predicted scene graph: ");
    let labels: Vec<String> = out
        .graph
        .edges()
        .map(|(_, e)| {
            format!(
                "{{{}, {}, {}}}",
                out.graph.vertex_label(e.src()).unwrap_or("?"),
                out.graph.edge_label_text(e.label_id()),
                out.graph.vertex_label(e.dst()).unwrap_or("?")
            )
        })
        .collect();
    println!("{}", labels.join(", "));
    println!("  → with a poorly localized box the contact evidence vanishes and a");
    println!("    depth/offset predicate like 'in front of' wins — Fig. 8c's error.");

    // Show the parse still works for clean wording, for contrast.
    println!("\n=== control: the same question with common wording ===");
    let clean = "Does the kind of dog that is sitting on the bed appear in front of the vehicle?";
    match RuleDependencyParser::new().parse(&tagger.tag(clean)) {
        Ok(tree) => println!("parsed cleanly, root = {:?}", tree.text(tree.root())),
        Err(e) => println!("unexpected failure: {e}"),
    }
}

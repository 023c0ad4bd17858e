//! Applying SVQA to a custom domain — the paper's §I motivation ("an
//! online analytics service provider that has various data sources":
//! recommendation, e-commerce, e-learning).
//!
//! This example builds a retail-analytics world *by hand* (no MVQA
//! generator): a product knowledge graph plus store-camera scenes, then
//! asks cross-source questions through both the NL front-end and the
//! programmatic [`svqa::qparser::QueryBuilder`].
//!
//! ```text
//! cargo run -p svqa --example custom_domain --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use svqa::executor::executor::QueryGraphExecutor;
use svqa::executor::CacheStats;
use svqa::qparser::{Dependency, QueryBuilder};
use svqa::vision::scene::{SceneBuilder, SyntheticImage};
use svqa::{Svqa, SvqaConfig};
use svqa_graph::GraphBuilder;

/// The store's product/ontology knowledge graph.
fn retail_kg() -> svqa_graph::Graph {
    let mut b = GraphBuilder::new();
    // Category ontology (the executor's semantic expansion rides on
    // "is a" edges).
    b.triple("laptop", "is a", "object")
        .triple("phone", "is a", "object")
        .triple("backpack", "is a", "object")
        .triple("bottle", "is a", "object")
        .triple("man", "is a", "person")
        .triple("woman", "is a", "person")
        .triple("child", "is a", "person")
        .triple("table", "is a", "furniture")
        .triple("chair", "is a", "furniture");
    b.build()
}

/// Store-camera frames: customers browsing display tables.
fn store_frames() -> Vec<SyntheticImage> {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut frames = Vec::new();
    for id in 0..120u32 {
        let mut b = SceneBuilder::new(id, &mut rng);
        // A display table with a product on it.
        let table = b.add_object("table");
        let product = b.add_object_from(&["laptop", "phone", "backpack", "bottle"]);
        b.relate(product, "on", table);
        // A customer near the table, sometimes picking the product up.
        let customer = b.add_object_from(&["man", "woman", "child"]);
        b.relate(customer, "near", table);
        if id % 3 == 0 {
            b.relate(customer, "holding", product);
        }
        frames.push(b.build());
    }
    frames
}

fn main() {
    let kg = retail_kg();
    let frames = store_frames();
    println!(
        "retail world: {} camera frames, {}-vertex knowledge graph",
        frames.len(),
        kg.vertex_count()
    );
    let system = Svqa::build(&frames, &kg, SvqaConfig::default());

    // --- Natural-language front-end -----------------------------------
    for q in [
        "How many children are holding the phone?",
        "Does the woman appear near the table?",
        "What kind of objects is held by the man that is near the table?",
    ] {
        let run = system.run(system.prepare(q), None, None);
        match (&run.result, run.explanation()) {
            (Ok(guarded), Some(explanation)) => {
                println!("\nQ: {q}\nA: {}", guarded.answer);
                for fact in explanation.answer_support().iter().take(3) {
                    println!("   {}", fact.display());
                }
            }
            (Err(e), _) => println!("\nQ: {q}\nA: <error: {e}>"),
            (Ok(_), None) => unreachable!("an answered question executed"),
        }
    }

    // --- Programmatic front-end (no NLP) -------------------------------
    // "Which product category do customers who linger near tables pick up
    // most?" — built structurally.
    let gq = QueryBuilder::reasoning()
        .clause("person", "holding", "object")
        .asks_kind_of_object()
        .clause("person", "near", "table")
        .depend(1, 0, Dependency::S2S)
        .describe("most-picked-up product by browsing customers")
        .build()
        .expect("well-formed query");
    let executor = QueryGraphExecutor::new(system.merged_graph());
    let run = executor
        .run(&gq, None, &mut CacheStats::new())
        .expect("executes");
    println!("\nstructured query: {}", gq.question);
    println!("A: {}", run.answer);
}

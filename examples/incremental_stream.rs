//! Streaming ingestion — the data-lake scenario of the paper's §I.
//!
//! Builds the system on an initial corpus, answers a question, then
//! streams in new batches of images with [`svqa::Svqa::add_images`] and
//! watches the answer change as new evidence arrives. Each batch runs only
//! Algorithm 1's attach stage against the growing merged graph.
//!
//! ```text
//! cargo run -p svqa --example incremental_stream --release
//! ```

use svqa::dataset::{build_knowledge_graph, generate_images};
use svqa::{Svqa, SvqaConfig};

fn main() {
    let all_images = generate_images(1200, 2718);
    let (initial, stream) = all_images.split_at(400);
    let kg = build_knowledge_graph();

    println!("initial corpus: {} images", initial.len());
    let mut system = Svqa::build(initial, &kg, SvqaConfig::default());

    let question = "How many dogs are in the car?";
    let answer = system.answer(question).unwrap();
    println!("Q: {question}");
    println!("A (t=0): {answer}");

    // Stream the remaining images in batches of 200.
    for (batch_idx, batch) in stream.chunks(200).enumerate() {
        let links = system.add_images(batch);
        let answer = system.answer(question).unwrap();
        println!(
            "A (t={}, +{} images, {} new links): {answer}",
            batch_idx + 1,
            batch.len(),
            links
        );
    }
    let stats = system.build_stats();
    println!(
        "final merged graph: {} vertices, {} edges over {} scene graphs",
        stats.merged_vertices, stats.merged_edges, stats.scene_graphs
    );

    // The initial build's Algorithm 1 accounting; each batch adds its
    // links to the total.
    let merge = &stats.merge;
    println!(
        "Algorithm 1 at build: {} cached subgraphs, {} cache hits / {} misses, \
         {} scene vertices unlinked; {} links in all",
        merge.cached_subgraphs,
        merge.cache_hits,
        merge.cache_misses,
        merge.unlinked_vertices,
        merge.links_created
    );
}

//! The merged graph's heap footprint, counted allocation by allocation and
//! byte by byte.
//!
//! `G_mg` keeps what the query path reads: labels, edges, and each scene
//! vertex's image id as its one property, held in the vertex record itself
//! next to its label id. Knowledge-graph vertices and every edge carry
//! nothing. Adjacency lives in two per-graph indexes derived from the edge
//! arena. The offline build writes every vertex whole into its window of
//! the vertex arena: it leaves no allocation per vertex or edge behind, and
//! no more bytes than its elements' records and indexes take. A counting
//! global allocator holds both down, for whatever number of attach windows
//! the host's cores give.

use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::graph::scene_image;
use svqa::{Svqa, SvqaConfig};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Slack for everything a built system owns besides its elements: the
/// label tables and per-label vertex lists, the subgraph cache index, the
/// schema, the linter and the breakers. A build at 300 images leaves 298
/// allocations live.
const SLACK: usize = 400;

/// Bytes per vertex record: a label id and an image id.
const VERTEX_BYTES: usize = 8;
/// Bytes per edge record: endpoints and a label id.
const EDGE_BYTES: usize = 12;
/// Bytes per vertex in its label's vertex list.
const LABEL_LIST_BYTES: usize = 4;
/// Byte slack for what does not grow with the elements: the label tables,
/// the subgraph cache index, the schema, the linter and the breakers. They
/// take 37,405 B at 300 images, the same for 1 and 2 attach windows. The build leaves 158,033 B live against a budget of 161,588 B,
/// so the slack leaves about 3.5 KiB over the fixed part: less than the
/// 4.2 KiB that keeping the 1,127 image ids in a column of 8-byte words
/// beside 4-byte vertex records would add, and far less than the 65 KiB
/// that writing boxes and scores back into `G_mg` would add.
const SLACK_BYTES: usize = 40 << 10;

#[test]
fn build_leaves_no_allocation_per_element() {
    let images = generate_images(300, MvqaConfig::default().seed);
    let kg = build_knowledge_graph();

    // A first, smaller build fills what is process-wide and initialised
    // on first use (about 700 allocations), which no built system owns.
    drop(Svqa::build(&images[..20], &kg, SvqaConfig::default()));
    let region = Region::new(GLOBAL);
    let svqa = Svqa::build(&images, &kg, SvqaConfig::default());
    let change = region.change();
    let live = change.allocations - change.deallocations;

    assert!(
        live <= SLACK,
        "{live} allocations live after the build, against a bound of {SLACK}"
    );
    let g = svqa.merged_graph();

    let scene_vertices = g
        .vertices()
        .filter(|&(id, _)| scene_image(g, id).is_some())
        .count();
    assert!(scene_vertices > 0);

    // The live bytes the build requested are its elements' records, the
    // two adjacency indexes (V + 1 offsets and E edge ids each, 4 B
    // apiece), the label lists, and the slack.
    let (vertices, edges) = (g.vertex_count(), g.edge_count());
    let budget = VERTEX_BYTES * vertices
        + EDGE_BYTES * edges
        + 2 * 4 * (vertices + 1 + edges)
        + LABEL_LIST_BYTES * vertices
        + SLACK_BYTES;
    let live_bytes = change.bytes_allocated - change.bytes_deallocated;
    assert!(
        live_bytes <= budget,
        "{live_bytes} bytes live after the build of {vertices} vertices \
         ({scene_vertices} scene vertices) and {edges} edges, against a budget of {budget}"
    );
}

//! The merged graph's heap footprint, counted allocation by allocation and
//! byte by byte.
//!
//! `G_mg` keeps its vertex and edge properties in two per-graph value
//! columns of 8-byte words, each with a run table that gives every
//! element's shape, and its adjacency in two per-graph indexes derived
//! from the edge arena; the offline build writes every scene element's
//! values straight into the columns: the build leaves no allocation per
//! vertex or edge behind, and no more bytes than its elements' records,
//! indexes, words and runs take. A counting global allocator holds both
//! down, for whatever number of attach windows the host's cores give.

use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::{Svqa, SvqaConfig};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Slack for everything a built system owns besides its elements: the
/// label tables and per-label vertex lists, the key shapes, the subgraph
/// cache index, the schema, the linter and the breakers.
const SLACK: usize = 400;

/// Bytes per vertex record: a label id.
const VERTEX_BYTES: usize = 4;
/// Bytes per edge record: endpoints and a label id.
const EDGE_BYTES: usize = 12;
/// Bytes per property value: one word of its column.
const VALUE_BYTES: usize = 8;
/// Bytes per run of a column's run table: its first element, its shape and
/// its first word.
const RUN_BYTES: usize = 12;
/// Bytes per vertex in its label's vertex list.
const LABEL_LIST_BYTES: usize = 4;
/// Byte slack for what does not grow with the elements: the label tables,
/// the shapes, the subgraph cache index, the schema, the linter and the
/// breakers. They took about 30 KiB at 300 images; the slack leaves 10 KiB
/// over that, less than the 68 KiB a return to 16-byte values adds.
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

    // Each column holds exactly its elements' values, with no spare room.
    let [vertex_column, edge_column] = g.value_columns();
    let vertex_values: usize = g.vertices().map(|(id, _)| g.vertex_props(id).len()).sum();
    let edge_values: usize = g.edges().map(|(id, _)| g.edge_props(id).len()).sum();
    assert_eq!(vertex_column.len, vertex_values);
    assert_eq!(edge_column.len, edge_values);
    assert_eq!(vertex_column.capacity, vertex_column.len);
    assert_eq!(edge_column.capacity, edge_column.len);
    assert!(vertex_values > 0 && edge_values > 0);

    // The run tables hold one run per stretch of one shape: the knowledge
    // graph's bare vertices and the scene vertices' one shape, and per
    // image about one stretch of scored scene edges and one of bare links.
    let runs = g.vertex_shape_runs().count() + g.edge_shape_runs().count();
    assert_eq!(g.vertex_shape_runs().count(), 2);
    assert!(runs <= 2 + 2 * 300 + 1, "{runs} runs");

    // The live bytes the build requested are its elements' records, the
    // two adjacency indexes (V + 1 offsets and E edge ids each, 4 B
    // apiece), the label lists, the words, the runs, and the slack.
    let (vertices, edges) = (g.vertex_count(), g.edge_count());
    let budget = VERTEX_BYTES * vertices
        + EDGE_BYTES * edges
        + 2 * 4 * (vertices + 1 + edges)
        + LABEL_LIST_BYTES * vertices
        + VALUE_BYTES * (vertex_values + edge_values)
        + RUN_BYTES * runs
        + SLACK_BYTES;
    let live_bytes = change.bytes_allocated - change.bytes_deallocated;
    assert!(
        live_bytes <= budget,
        "{live_bytes} bytes live after the build of {vertices} vertices, {edges} edges, \
         {} values and {runs} runs, against a budget of {budget}",
        vertex_values + edge_values
    );
}

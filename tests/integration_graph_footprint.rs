//! The merged graph's heap footprint, counted allocation by allocation and
//! byte by byte.
//!
//! `G_mg` keeps what the query path reads: labels, edges, and each scene
//! vertex's image id as its one property, a word of the vertex value
//! column. Knowledge-graph vertices and every edge carry nothing, so the
//! vertex column's run table has two runs (the bare knowledge graph, then
//! the scene vertices) and the edge column is empty under one bare run.
//! Adjacency lives in two per-graph indexes derived from the edge arena.
//! The offline build writes every scene vertex's image id straight into
//! the column: it leaves no allocation per vertex or edge behind, and no
//! more bytes than its elements' records, indexes, words and runs take. A
//! counting global allocator holds both down, for whatever number of
//! attach windows the host's cores give.

use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use std::alloc::System;
use svqa::dataset::{build_knowledge_graph, generate_images, MvqaConfig};
use svqa::graph::scene_image;
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
/// breakers. They take 37,762 B at 300 images (38,251 B while `G_mg` still
/// held boxes and scores), the same for 1 and 2 attach windows, and the
/// merged graph's own bytes read the same for 1 to 16 windows. The slack
/// leaves about 3 KiB over that, less than the 65 KiB that writing boxes
/// and scores back into `G_mg` would add (four words more per scene
/// vertex, a word per scene edge, and a run per stretch of scored edges).
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

    // The vertex column holds exactly one word per scene vertex, its image
    // id, with no spare room; the edge column holds nothing.
    let [vertex_column, edge_column] = g.value_columns();
    let scene_vertices = g
        .vertices()
        .filter(|&(id, _)| scene_image(g, id).is_some())
        .count();
    let vertex_values: usize = g.vertices().map(|(id, _)| g.vertex_props(id).len()).sum();
    assert!(scene_vertices > 0);
    assert_eq!(vertex_values, scene_vertices);
    assert_eq!(vertex_column.len, scene_vertices);
    assert_eq!(vertex_column.capacity, vertex_column.len);
    assert_eq!((edge_column.len, edge_column.capacity), (0, 0));

    // The run tables hold one run per stretch of one shape: the knowledge
    // graph's bare vertices, then the scene vertices' image ids, and one
    // bare run over every edge.
    assert_eq!(g.vertex_shape_runs().count(), 2);
    assert_eq!(g.edge_shape_runs().count(), 1);
    let runs = 3;

    // The live bytes the build requested are its elements' records, the
    // two adjacency indexes (V + 1 offsets and E edge ids each, 4 B
    // apiece), the label lists, the words, the runs, and the slack.
    let (vertices, edges) = (g.vertex_count(), g.edge_count());
    let budget = VERTEX_BYTES * vertices
        + EDGE_BYTES * edges
        + 2 * 4 * (vertices + 1 + edges)
        + LABEL_LIST_BYTES * vertices
        + VALUE_BYTES * scene_vertices
        + RUN_BYTES * runs
        + SLACK_BYTES;
    let live_bytes = change.bytes_allocated - change.bytes_deallocated;
    assert!(
        live_bytes <= budget,
        "{live_bytes} bytes live after the build of {vertices} vertices, {edges} edges, \
         {scene_vertices} values and {runs} runs, against a budget of {budget}"
    );
}

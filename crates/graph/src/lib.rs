//! # svqa-graph
//!
//! A directed labeled property graph store — the storage substrate of the
//! SVQA reproduction ("Across Images and Graphs for Question Answering",
//! ICDE 2024).
//!
//! The paper defines a graph `G = (V, E, L)` where `V` is a set of vertices,
//! `E` a set of directed edges, and `L(v)` / `L(e)` label functions (§II).
//! Everything downstream — scene graphs, the merged graph `G_mg`, the cached
//! induced subgraphs `G[S(t, k)]` of Algorithm 1 — is stored in this
//! structure.
//!
//! Design notes (informed by the performance guide):
//! * vertices and edges live in flat arenas indexed by `u32` ids — no
//!   per-element allocation: each element holds a [`LabelId`] into a
//!   per-graph label table that stores every text once (and an edge its
//!   endpoints), nothing more. Properties sit in two per-graph columns
//!   that store every [`Shape`] (keys and their kinds) once, every value
//!   as one 8-byte word in one exactly sized arena, and one run per
//!   stretch of consecutive elements sharing a shape. A value is an
//!   integer or a float. A graph takes properties as a shape and one
//!   [`Value`] per key, or in a window as a vertex's image id alone
//!   ([`GraphWindow::push_vertex`]), and hands them back as `Value`s
//!   ([`props`]);
//! * adjacency is derived from the edge arena as one compressed index per
//!   direction: `V + 1` `u32` offsets and `E` edge ids, each vertex's run
//!   ascending, giving `O(deg)` neighbourhood scans over one contiguous
//!   slice ([`Graph::out_edge_ids`], [`Graph::in_edge_ids`]). The bulk
//!   mutations ([`Graph::absorb_where`], [`Graph::append_windows`],
//!   [`binio::from_bytes`]) build both indexes with one counting sort when
//!   they finish; a single [`Graph::add_edge`] inserts into its two runs,
//!   at O(V + E);
//! * a label index maps each label to its vertices so `matchVertex`-style
//!   lookups (§V) do not scan the arena;
//! * induced subgraphs are *views* (bitsets over the parent graph), matching
//!   the paper's remark that `G[S(t,k)]` "does not store a part of G
//!   independently; instead, it adds an index to G".
//!
//! ```
//! use svqa_graph::Graph;
//!
//! let mut g = Graph::new();
//! let harry = g.add_vertex("harry potter");
//! let ginny = g.add_vertex("ginny weasley");
//! g.add_edge(ginny, harry, "girlfriend of").unwrap();
//! assert_eq!(g.out_neighbors(ginny).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
pub mod algo;
pub mod binio;
pub mod builder;
pub mod edge;
pub mod error;
pub mod graph;
pub mod ids;
mod label;
pub mod props;
pub mod stats;
pub mod subgraph;
pub mod traverse;
pub mod vertex;
pub mod window;

pub use algo::{connected_components, degree_distribution, hop_distance, largest_component_size};
pub use builder::GraphBuilder;
pub use edge::Edge;
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, VertexId};
pub use label::{LabelId, IS_A, SAME_AS};
pub use props::{scene_image, ColumnSize, Kind, Props, Shape, Value, IMAGE, IMAGE_SHAPE};
pub use stats::{GraphStats, LabelHistogram};
pub use subgraph::SubgraphView;
pub use traverse::{induced_subgraph, k_hop_neighborhood, Bfs};
pub use vertex::Vertex;
pub use window::{GraphWindow, WindowSize, WindowSlots};

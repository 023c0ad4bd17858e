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
//!   per-vertex allocation beyond its property list: labels are shared,
//!   reference-counted strings stored once per graph, and the pipeline's
//!   fixed property keys are static strings;
//! * adjacency is held as per-vertex out/in edge id lists, giving `O(deg)`
//!   neighbourhood scans;
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

pub mod algo;
pub mod binio;
pub mod builder;
pub mod edge;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
mod label;
pub mod props;
pub mod stats;
pub mod subgraph;
pub mod traverse;
pub mod vertex;

pub use algo::{connected_components, degree_distribution, hop_distance, largest_component_size};
pub use builder::GraphBuilder;
pub use edge::Edge;
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, VertexId};
pub use props::{PropValue, Properties};
pub use stats::{GraphStats, LabelHistogram};
pub use subgraph::SubgraphView;
pub use traverse::{induced_subgraph, k_hop_neighborhood, Bfs};
pub use vertex::Vertex;

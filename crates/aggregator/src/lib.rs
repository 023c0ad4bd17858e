//! # svqa-aggregator
//!
//! The Data Aggregator of the SVQA reproduction (§III of the paper):
//! unifies scene graphs `{G_sg(I)}` and the knowledge graph `G` into one
//! *merged graph* `G_mg`, using Algorithm 1's frequency-driven subgraph
//! cache to speed up entity linking.
//!
//! The merged graph contains:
//! * every knowledge-graph vertex and edge, unchanged;
//! * every scene-graph vertex and edge, appended per image, from
//!   per-image graphs or flat scene records; a scene vertex keeps only
//!   its image id (under [`svqa_graph::IMAGE_SHAPE`]) and an edge keeps
//!   no property, so boxes and scores are dropped;
//! * *link edges* (labeled [`svqa_graph::SAME_AS`]) connecting each
//!   scene vertex to the knowledge-graph vertex with the matching label,
//!   in both directions, so query execution can hop between visual
//!   evidence and external knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod attach;
pub mod cache;

pub use aggregate::{AggregatorConfig, DataAggregator, MergeStats, MergedGraph};
pub use attach::{Attached, Attacher};
pub use cache::SubgraphCache;

//! Incremental graph attachment.
//!
//! The paper's §I motivation is a data lake: sources arrive continuously.
//! Rebuilding `G_mg` per batch would repeat Algorithm 1's initial stage
//! every time, so [`IncrementalMerger`] keeps the subgraph cache alive
//! between batches and runs only the attach stage (Algorithm 1 lines 8–16)
//! for new scene graphs.

use crate::aggregate::AggregatorConfig;
use crate::attach::Attacher;
use crate::cache::SubgraphCache;
use svqa_graph::{Graph, VertexId};

/// A long-lived merger: owns the growing merged graph, the knowledge
/// graph, and the Algorithm-1 subgraph cache.
pub struct IncrementalMerger {
    config: AggregatorConfig,
    kg: Graph,
    merged: Graph,
    cache: SubgraphCache,
    /// KG vertex ids in `merged` (index-aligned with `kg`).
    kg_mapping: Vec<VertexId>,
    scene_graphs_attached: usize,
}

impl IncrementalMerger {
    /// Start from a knowledge graph and an *initial* corpus of scene
    /// graphs (used to seed the frequency statistics of the cache — a
    /// deployment knows its historical category distribution).
    pub fn new(config: AggregatorConfig, kg: &Graph, seed_scene_graphs: &[Graph]) -> Self {
        let (cache, _histogram) = SubgraphCache::build(
            seed_scene_graphs,
            kg,
            config.frequency_threshold,
            config.k,
        );
        let mut merged = Graph::with_capacity(kg.vertex_count() * 2, kg.edge_count() * 2);
        let kg_mapping = merged.absorb(kg);
        let mut merger = IncrementalMerger {
            config,
            kg: kg.clone(),
            merged,
            cache,
            kg_mapping,
            scene_graphs_attached: 0,
        };
        merger.attach_batch(seed_scene_graphs);
        merger
    }

    /// Attach stage for a batch of new scene graphs; returns link edges
    /// created.
    pub fn attach_batch(&mut self, scene_graphs: &[Graph]) -> usize {
        // Algorithm 1 lines 9–14: cached-subgraph lookup first, direct
        // knowledge-graph query as the fallback.
        let (cache, kg, kg_mapping) = (&mut self.cache, &self.kg, &self.kg_mapping);
        let attached = Attacher::graphs(scene_graphs).attach(
            &mut self.merged,
            &self.config.link_label,
            |_, label, count| {
                cache
                    .lookup_counted(kg, label, count)
                    .map(|kg_local| kg_mapping[kg_local.index()])
            },
        );
        self.scene_graphs_attached += scene_graphs.len();
        attached.links
    }

    /// The merged graph so far.
    pub fn merged_graph(&self) -> &Graph {
        &self.merged
    }

    /// Scene graphs attached so far (including the seed corpus).
    pub fn scene_graphs_attached(&self) -> usize {
        self.scene_graphs_attached
    }

    /// Cache `(hits, misses)` across all batches.
    pub fn cache_stats(&self) -> (usize, usize) {
        (self.cache.hits(), self.cache.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::DataAggregator;
    use svqa_graph::GraphBuilder;

    fn scene(labels: &[&str]) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = labels.iter().map(|l| g.add_vertex(*l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], "near").unwrap();
        }
        g
    }

    fn kg() -> Graph {
        let mut b = GraphBuilder::new();
        b.triple("dog", "is a", "pet")
            .triple("cat", "is a", "pet")
            .triple("man", "is a", "person");
        b.build()
    }

    #[test]
    fn incremental_matches_batch_merge() {
        let kg = kg();
        let scenes: Vec<Graph> = (0..10)
            .map(|i| scene(if i % 2 == 0 { &["dog", "man"] } else { &["cat"] }))
            .collect();
        // Batch merge.
        let batch = DataAggregator::new(AggregatorConfig::default()).merge(&scenes, &kg);
        // Incremental: seed with the first half, stream the second.
        let mut inc =
            IncrementalMerger::new(AggregatorConfig::default(), &kg, &scenes[..5]);
        inc.attach_batch(&scenes[5..]);
        assert_eq!(
            inc.merged_graph().vertex_count(),
            batch.graph.vertex_count()
        );
        assert_eq!(inc.merged_graph().edge_count(), batch.graph.edge_count());
        inc.merged_graph().validate().unwrap();
        assert_eq!(inc.scene_graphs_attached(), 10);
    }

    #[test]
    fn cache_keeps_serving_across_batches() {
        let kg = kg();
        let seed: Vec<Graph> = (0..6).map(|_| scene(&["dog"])).collect();
        let mut inc = IncrementalMerger::new(
            AggregatorConfig {
                frequency_threshold: 3,
                ..AggregatorConfig::default()
            },
            &kg,
            &seed,
        );
        let (h0, _) = inc.cache_stats();
        assert!(h0 >= 6, "seed lookups should hit the dog subgraph: {h0}");
        // New batches keep hitting without rebuilding anything.
        inc.attach_batch(&[scene(&["dog"]), scene(&["dog"])]);
        let (h1, _) = inc.cache_stats();
        assert_eq!(h1, h0 + 2);
    }

    #[test]
    fn unknown_labels_fall_back_and_stay_unlinked() {
        let kg = kg();
        let mut inc = IncrementalMerger::new(AggregatorConfig::default(), &kg, &[]);
        let links = inc.attach_batch(&[scene(&["unicorn", "dog"])]);
        // Only the dog links (2 directed edges).
        assert_eq!(links, 2);
    }
}

//! The subgraph cache of Algorithm 1's initial stage.
//!
//! For every frequent scene category `t` (count `> c'`), the induced
//! subgraph `G[S(t, k)]` of the knowledge graph is extracted and kept as an
//! index view (Definition 2). During the attach stage, label lookups go
//! through these views first; only misses fall back to a full-graph query
//! (Algorithm 1 lines 12–14).
//!
//! A merge looks the same few hundred labels up tens of thousands of times,
//! and the answer for a label never changes (the knowledge graph and the
//! views are fixed once built), so each distinct label is resolved once and
//! memoized together with whether that resolution hit a cached view. Every
//! lookup still counts as the hit or miss the unmemoized walk would have
//! been, so the accounting is unchanged.

use std::collections::HashMap;
use svqa_graph::{induced_subgraph, Graph, LabelHistogram, SubgraphView, VertexId};

/// The ordered cache list `G_N` of Algorithm 1, plus hit/miss accounting.
/// Bound to the knowledge graph it was built over: every lookup must pass
/// that same graph.
#[derive(Debug)]
pub struct SubgraphCache {
    /// `(category, cached view)` in descending frequency order.
    entries: Vec<(String, SubgraphView)>,
    /// label → (resolved vertex, whether a cached view answered it).
    resolved: HashMap<String, (Option<VertexId>, bool)>,
    hits: usize,
    misses: usize,
}

impl SubgraphCache {
    /// Initial stage (Algorithm 1 lines 3–7) over the counted scene-graph
    /// category histogram (line 2): for each category above
    /// `frequency_threshold` that resolves to a knowledge-graph vertex,
    /// cache its `k`-hop induced subgraph.
    pub fn build(
        histogram: &LabelHistogram,
        kg: &Graph,
        frequency_threshold: usize,
        k: usize,
    ) -> Self {
        let mut entries = Vec::new();
        for (category, _count) in histogram.above_threshold(frequency_threshold) {
            // find(t_sg, V): the first knowledge-graph vertex labeled with
            // the category; categories unknown to the graph get no cache
            // entry (their lookups will fall back to direct queries).
            let Some(&t) = kg.vertices_with_label(category).first() else {
                continue;
            };
            entries.push((category.to_owned(), induced_subgraph(kg, t, k)));
        }
        SubgraphCache {
            entries,
            resolved: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Attach-stage lookup on behalf of `count` scene vertices carrying
    /// `label`: find the knowledge-graph vertex with that label through the
    /// cached views first (hit), falling back to the full graph (miss) —
    /// Algorithm 1 lines 9–14. Resolved once per label, counted `count`
    /// times as the hit or miss it is.
    pub fn lookup(&mut self, kg: &Graph, label: &str, count: usize) -> Option<VertexId> {
        let (vertex, hit) = match self.resolved.get(label) {
            Some(&memo) => memo,
            None => {
                let memo = self.resolve(kg, label);
                self.resolved.insert(label.to_owned(), memo);
                memo
            }
        };
        if hit {
            self.hits += count;
        } else {
            self.misses += count;
        }
        vertex
    }

    /// The unmemoized walk behind [`lookup`](Self::lookup): the first
    /// cached view holding `label` (a hit), else the full graph (a miss).
    fn resolve(&self, kg: &Graph, label: &str) -> (Option<VertexId>, bool) {
        for (_, view) in &self.entries {
            if let Some(v) = view.vertices_with_label(kg, label).next() {
                return (Some(v), true);
            }
        }
        (kg.vertices_with_label(label).first().copied(), false)
    }

    /// Number of cached subgraphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses (direct-query fallbacks) so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Total bytes of index structures held by the cached views.
    pub fn index_size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(c, v)| c.len() + v.index_size_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_graph::GraphBuilder;

    fn scene(labels: &[&str]) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = labels.iter().map(|l| g.add_vertex(*l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], "near").unwrap();
        }
        g
    }

    /// The cache and the category histogram it was built from.
    fn build(
        scenes: &[Graph],
        kg: &Graph,
        frequency_threshold: usize,
        k: usize,
    ) -> (SubgraphCache, LabelHistogram) {
        let histogram = LabelHistogram::from_vertex_labels(scenes.iter());
        let cache = SubgraphCache::build(&histogram, kg, frequency_threshold, k);
        (cache, histogram)
    }

    fn kg() -> Graph {
        let mut b = GraphBuilder::new();
        b.triple("dog", "is a", "animal")
            .triple("cat", "is a", "animal")
            .triple("animal", "is a", "creature")
            .triple("man", "is a", "person")
            .triple("harry potter", "is a", "wizard")
            .triple("wizard", "is a", "person");
        b.build()
    }

    #[test]
    fn frequent_categories_get_cached() {
        let scenes = vec![
            scene(&["dog", "man"]),
            scene(&["dog", "man"]),
            scene(&["dog", "cat"]),
        ];
        let (cache, hist) = build(&scenes, &kg(), 1, 2);
        // dog (3) and man (2) exceed threshold 1; cat (1) does not.
        let cached: Vec<_> = cache.entries.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(cached, vec!["dog", "man"]);
        assert_eq!(hist.count("dog"), 3);
    }

    #[test]
    fn categories_missing_from_kg_are_skipped() {
        let scenes = vec![scene(&["unicorn", "unicorn", "dog", "dog"])];
        let (cache, _) = build(&scenes, &kg(), 1, 2);
        let cached: Vec<_> = cache.entries.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(cached, vec!["dog"]);
    }

    #[test]
    fn lookup_hits_cached_neighborhood() {
        let scenes = vec![scene(&["dog", "dog"])];
        let graph = kg();
        let (mut cache, _) = build(&scenes, &graph, 1, 2);
        // "animal" is within 2 hops of "dog" → cache hit.
        let v = cache.lookup(&graph, "animal", 1).unwrap();
        assert_eq!(graph.vertex_label(v), Some("animal"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn lookup_falls_back_to_full_graph() {
        let scenes = vec![scene(&["dog", "dog"])];
        let graph = kg();
        let (mut cache, _) = build(&scenes, &graph, 1, 1);
        // "harry potter" is far from "dog" → miss, then direct query.
        let v = cache.lookup(&graph, "harry potter", 1).unwrap();
        assert_eq!(graph.vertex_label(v), Some("harry potter"));
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lookup_of_unknown_label_is_none_and_counts_miss() {
        let scenes = vec![scene(&["dog", "dog"])];
        let graph = kg();
        let (mut cache, _) = build(&scenes, &graph, 1, 2);
        assert!(cache.lookup(&graph, "spaceship", 1).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn repeated_lookups_count_like_the_first() {
        let scenes = vec![scene(&["dog", "dog"])];
        let graph = kg();
        let (mut cache, _) = build(&scenes, &graph, 1, 1);
        for _ in 0..3 {
            assert_eq!(
                cache.lookup(&graph, "animal", 1),
                graph.vertices_with_label("animal").first().copied()
            );
            assert!(cache.lookup(&graph, "harry potter", 1).is_some());
            assert!(cache.lookup(&graph, "spaceship", 1).is_none());
        }
        assert_eq!((cache.hits(), cache.misses()), (3, 6));
    }

    #[test]
    fn empty_inputs() {
        let (cache, hist) = build(&[], &Graph::new(), 5, 2);
        assert!(cache.is_empty());
        assert_eq!(hist.total(), 0);
        assert_eq!(cache.index_size_bytes(), 0);
    }
}

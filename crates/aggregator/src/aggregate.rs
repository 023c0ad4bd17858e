//! Graph merging (Algorithm 1).

use crate::attach::Attacher;
use crate::cache::SubgraphCache;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use svqa_graph::Graph;
use svqa_vision::SceneRecords;

/// Configuration of the aggregator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatorConfig {
    /// Frequency threshold `c'`: categories appearing more often than this
    /// across the scene graphs get a cached subgraph. The paper uses 5
    /// ("generate subgraphs for all vertices T that occur more than 5
    /// times", §III-B).
    pub frequency_threshold: usize,
    /// Neighbourhood radius `k` for `G[S(t, k)]`. The paper sets `k = 2`.
    pub k: usize,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            frequency_threshold: 5,
            k: 2,
        }
    }
}

/// Accounting from one merge run — exposes the paper's §III-B coverage
/// claims ("approximately 58% of vertex types occur more than 5 times, and
/// nearly 82% of vertices are covered") plus cache effectiveness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Number of cached subgraphs built in the initial stage.
    pub cached_subgraphs: usize,
    /// Attach-stage lookups answered by a cached subgraph.
    pub cache_hits: usize,
    /// Attach-stage lookups that fell back to the full graph.
    pub cache_misses: usize,
    /// Link edges created (×2 for bidirectionality).
    pub links_created: usize,
    /// Scene vertices with no knowledge-graph counterpart.
    pub unlinked_vertices: usize,
    /// Fraction of distinct scene categories above the threshold.
    pub fraction_labels_cached: f64,
    /// Fraction of scene vertices whose category is above the threshold.
    pub fraction_vertices_covered: f64,
    /// Bytes held by the subgraph-cache indexes.
    pub cache_index_bytes: usize,
}

/// The merged graph `G_mg` plus provenance maps.
#[derive(Debug)]
pub struct MergedGraph {
    /// The unified graph.
    pub graph: Graph,
    /// For each input scene graph, in input order, the merged vertex
    /// indexes its vertices received: they are appended contiguously, in
    /// the scene graph's own vertex order.
    pub scene_vertices: Vec<Range<usize>>,
    /// Number of vertices that came from the knowledge graph (they occupy
    /// ids `0..kg_vertex_count`).
    pub kg_vertex_count: usize,
    /// Merge accounting.
    pub stats: MergeStats,
}

/// The Data Aggregator (Algorithm 1 driver).
#[derive(Debug, Clone, Default)]
pub struct DataAggregator {
    config: AggregatorConfig,
}

impl DataAggregator {
    /// Build an aggregator with the given configuration.
    pub fn new(config: AggregatorConfig) -> Self {
        DataAggregator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AggregatorConfig {
        &self.config
    }

    /// Algorithm 1: merge `scene_graphs` into knowledge graph `kg`. Only
    /// labels, edges and each vertex's Int `image` carry over: a merged
    /// scene vertex is written under [`svqa_graph::IMAGE_SHAPE`] (bare
    /// when its input vertex has no image id), and merged edges are bare,
    /// so boxes, scores and any other input property are dropped.
    pub fn merge(&self, scene_graphs: &[Graph], kg: &Graph) -> MergedGraph {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::AGGREGATE);
        self.merge_with(Attacher::graphs(scene_graphs), kg)
    }

    /// Algorithm 1 over scene records: one part per inner `Vec`, each
    /// attached on its own thread and freed chunk by chunk as it goes. The
    /// same merged graph and accounting [`merge`](Self::merge) gives for
    /// the same scene graphs, in the same order, held one `Graph` per
    /// image.
    pub fn merge_records(&self, parts: Vec<Vec<SceneRecords>>, kg: &Graph) -> MergedGraph {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::AGGREGATE);
        self.merge_with(Attacher::records(parts), kg)
    }

    fn merge_with(&self, attacher: Attacher<'_>, kg: &Graph) -> MergedGraph {
        let threshold = self.config.frequency_threshold;
        // --- Initial stage (lines 1–7): build the subgraph cache. ---
        let histogram = attacher.histogram();
        let mut cache = SubgraphCache::build(&histogram, kg, threshold, self.config.k);

        // G_mg starts as a copy of G, so a KG vertex keeps its id in G_mg;
        // the attach grows it once, exactly.
        let mut merged = Graph::with_capacity(kg.vertex_count(), kg.edge_count());
        merged.absorb(kg);

        // --- Attach stage (lines 8–16): the cached-subgraph lookup first,
        // a direct knowledge-graph query as the fallback, once per label. ---
        let attached = attacher.attach(&mut merged, |_, label, count| {
            cache.lookup(kg, label, count)
        });

        let stats = MergeStats {
            cached_subgraphs: cache.len(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            links_created: attached.links,
            unlinked_vertices: attached.unlinked,
            fraction_labels_cached: histogram.fraction_of_labels_above(threshold),
            fraction_vertices_covered: histogram.fraction_of_items_above(threshold),
            cache_index_bytes: cache.index_size_bytes(),
        };
        MergedGraph {
            graph: merged,
            scene_vertices: attached.scene_vertices,
            kg_vertex_count: kg.vertex_count(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_graph::{GraphBuilder, VertexId};

    fn scene(labels: &[&str], pred: &str) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = labels.iter().map(|l| g.add_vertex(*l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], pred).unwrap();
        }
        g
    }

    fn kg() -> Graph {
        let mut b = GraphBuilder::new();
        b.triple("dog", "is a", "animal")
            .triple("cat", "is a", "animal")
            .triple("man", "is a", "person")
            .triple("ginny weasley", "girlfriend of", "harry potter")
            .triple("harry potter", "is a", "wizard");
        b.build()
    }

    #[test]
    fn merged_graph_contains_everything() {
        let scenes = vec![scene(&["dog", "man"], "near"), scene(&["cat"], "near")];
        let graph = kg();
        let merged = DataAggregator::default().merge(&scenes, &graph);
        // 7 KG vertices + 3 scene vertices.
        assert_eq!(merged.graph.vertex_count(), graph.vertex_count() + 3);
        assert_eq!(merged.kg_vertex_count, graph.vertex_count());
        // KG edges + 1 scene edge + 6 link edges (3 linked vertices × 2).
        assert_eq!(
            merged.graph.edge_count(),
            graph.edge_count() + 1 + merged.stats.links_created
        );
        merged.graph.validate().unwrap();
    }

    #[test]
    fn link_edges_are_bidirectional() {
        let scenes = vec![scene(&["dog"], "near")];
        let graph = kg();
        let merged = DataAggregator::default().merge(&scenes, &graph);
        let scene_dog = VertexId::from_index(merged.scene_vertices[0].start);
        let kg_dog = graph.vertices_with_label("dog")[0];
        assert!(merged.graph.has_edge(scene_dog, kg_dog, "same as"));
        assert!(merged.graph.has_edge(kg_dog, scene_dog, "same as"));
    }

    #[test]
    fn unlinked_vertices_counted() {
        let scenes = vec![scene(&["unicorn", "dog"], "near")];
        let merged = DataAggregator::default().merge(&scenes, &kg());
        assert_eq!(merged.stats.unlinked_vertices, 1);
        assert_eq!(merged.stats.links_created, 2);
    }

    #[test]
    fn cache_is_used_for_frequent_categories() {
        // 6 dogs exceed the default threshold of 5 → "dog" is cached and
        // every dog lookup is a hit.
        let scenes: Vec<Graph> = (0..6).map(|_| scene(&["dog"], "near")).collect();
        let merged = DataAggregator::default().merge(&scenes, &kg());
        assert_eq!(merged.stats.cached_subgraphs, 1);
        assert_eq!(merged.stats.cache_hits, 6);
        assert_eq!(merged.stats.cache_misses, 0);
        assert!(merged.stats.cache_index_bytes > 0);
    }

    #[test]
    fn threshold_zero_caches_everything_seen() {
        let scenes = vec![scene(&["dog", "man"], "near")];
        let agg = DataAggregator::new(AggregatorConfig {
            frequency_threshold: 0,
            ..AggregatorConfig::default()
        });
        let merged = agg.merge(&scenes, &kg());
        assert_eq!(merged.stats.cached_subgraphs, 2);
        assert_eq!(merged.stats.fraction_labels_cached, 1.0);
        assert_eq!(merged.stats.fraction_vertices_covered, 1.0);
    }

    #[test]
    fn coverage_fractions() {
        // dog ×3, cat ×1 with threshold 2: 1/2 labels cached, 3/4 vertices
        // covered.
        let scenes = vec![
            scene(&["dog"], "near"),
            scene(&["dog"], "near"),
            scene(&["dog", "cat"], "near"),
        ];
        let agg = DataAggregator::new(AggregatorConfig {
            frequency_threshold: 2,
            ..AggregatorConfig::default()
        });
        let merged = agg.merge(&scenes, &kg());
        assert!((merged.stats.fraction_labels_cached - 0.5).abs() < 1e-12);
        assert!((merged.stats.fraction_vertices_covered - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scene_edge_labels_survive_merging() {
        let scenes = vec![scene(&["dog", "grass"], "sitting on")];
        let merged = DataAggregator::default().merge(&scenes, &kg());
        let labels: Vec<_> = merged
            .graph
            .edge_label_counts()
            .map(|(l, _)| l.to_owned())
            .collect();
        assert!(labels.contains(&"sitting on".to_owned()));
    }

    #[test]
    fn records_merge_like_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use svqa_vision::prior::PairPrior;
        use svqa_vision::scene::SceneBuilder;
        use svqa_vision::sgg::{SceneGraphGenerator, SggConfig};

        let mut rng = StdRng::seed_from_u64(21);
        let images: Vec<_> = (0..12)
            .map(|id| {
                let mut b = SceneBuilder::new(id, &mut rng);
                let dog = b.add_object("dog");
                let man = b.add_object("man");
                let cat = b.add_object("cat");
                b.relate(dog, "near", man);
                b.relate(man, "watching", cat);
                b.build()
            })
            .collect();
        let sgg = SceneGraphGenerator::new(SggConfig::default(), PairPrior::fit(&images));
        let graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
        let records = vec![
            vec![
                sgg.generate_records(&images[..5]),
                sgg.generate_records(&[]),
            ],
            vec![sgg.generate_records(&images[5..])],
        ];
        let agg = DataAggregator::new(AggregatorConfig {
            frequency_threshold: 3,
            ..AggregatorConfig::default()
        });
        let (from_graphs, from_records) =
            (agg.merge(&graphs, &kg()), agg.merge_records(records, &kg()));
        assert!(from_graphs.stats.links_created > 0 && from_graphs.stats.cache_hits > 0);
        assert_eq!(from_records.stats, from_graphs.stats);
        assert_eq!(from_records.scene_vertices, from_graphs.scene_vertices);
        assert_eq!(
            svqa_graph::binio::to_bytes(&from_records.graph).unwrap(),
            svqa_graph::binio::to_bytes(&from_graphs.graph).unwrap()
        );
        from_records.graph.validate().unwrap();
    }

    #[test]
    fn windowed_attach_is_the_same_at_any_part_count() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use svqa_graph::binio;
        use svqa_vision::prior::PairPrior;
        use svqa_vision::scene::SceneBuilder;
        use svqa_vision::sgg::{SceneGraphGenerator, SggConfig};

        let mut rng = StdRng::seed_from_u64(7);
        let cast = ["dog", "man", "cat", "unicorn", "harry potter", "grass"];
        let images: Vec<_> = (0..17u32)
            .map(|id| {
                let mut b = SceneBuilder::new(id, &mut rng);
                // Image 5 has no objects at all; the rest vary in size.
                let ids: Vec<_> = (0..(id as usize * 5) % 7)
                    .filter(|_| id != 5)
                    .map(|i| b.add_object(cast[(id as usize + i) % cast.len()]))
                    .collect();
                for w in ids.windows(2) {
                    b.relate(w[0], "near", w[1]);
                }
                b.build()
            })
            .collect();
        let sgg = SceneGraphGenerator::new(SggConfig::default(), PairPrior::fit(&images));
        let graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
        let agg = DataAggregator::new(AggregatorConfig {
            frequency_threshold: 2,
            ..AggregatorConfig::default()
        });
        let want = agg.merge(&graphs, &kg());
        assert!(want.stats.links_created > 0 && want.stats.unlinked_vertices > 0);

        for parts in 1..=4 {
            // Uneven contiguous parts, each cut into uneven record chunks
            // (an empty chunk included).
            let mut bounds: Vec<usize> = (0..parts).map(|p| p * p * 17 / 16).collect();
            bounds.push(images.len());
            let records: Vec<Vec<SceneRecords>> = bounds
                .windows(2)
                .map(|w| {
                    let part = &images[w[0]..w[1]];
                    let cut = part.len().min(1 + parts);
                    vec![
                        sgg.generate_records(&part[..cut]),
                        sgg.generate_records(&[]),
                        sgg.generate_records(&part[cut..]),
                    ]
                })
                .collect();
            let got = agg.merge_records(records, &kg());
            assert_eq!(got.stats, want.stats, "{parts} parts");
            assert_eq!(got.scene_vertices, want.scene_vertices, "{parts} parts");
            assert_eq!(
                binio::to_bytes(&got.graph).unwrap(),
                binio::to_bytes(&want.graph).unwrap(),
                "{parts} parts"
            );
            got.graph.validate().unwrap();
            for label in cast {
                assert_eq!(
                    got.graph.vertices_with_label(label),
                    want.graph.vertices_with_label(label),
                    "{parts} parts, {label}"
                );
            }
            got.graph.validate().unwrap();
        }
    }

    #[test]
    fn empty_scene_list_reproduces_kg() {
        let graph = kg();
        let merged = DataAggregator::default().merge(&[], &graph);
        assert_eq!(merged.graph.vertex_count(), graph.vertex_count());
        assert_eq!(merged.graph.edge_count(), graph.edge_count());
        assert_eq!(merged.stats.links_created, 0);
    }
}

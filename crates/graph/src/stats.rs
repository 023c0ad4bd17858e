//! Graph statistics.
//!
//! Algorithm 1's initial stage runs `statistics({G_sg(I)})` to count how
//! often each object category appears across the scene graphs, then sorts
//! the categories in descending order and caches subgraphs for the frequent
//! ones. [`LabelHistogram`] is that statistic; [`GraphStats`] adds the
//! size/degree summary used by the dataset reports (Tables I–II).

use crate::graph::Graph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A frequency histogram over labels, sorted descending by count
/// (ties broken alphabetically so reports are deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelHistogram {
    entries: Vec<(String, usize)>,
}

impl LabelHistogram {
    /// Count vertex labels across a collection of graphs — Algorithm 1 line 2
    /// (`T ← statistics({G_sg(I) | ∀I ∈ 𝕀})`).
    pub fn from_vertex_labels<'a>(graphs: impl IntoIterator<Item = &'a Graph>) -> Self {
        Self::from_labels(
            graphs
                .into_iter()
                .flat_map(|g| g.vertices().map(|(_, v)| g.vertex_label_text(v.label_id()))),
        )
    }

    /// Count a stream of labels, one item per occurrence.
    pub fn from_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> Self {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for label in labels {
            *counts.entry(label).or_insert(0) += 1;
        }
        Self::from_counts(counts)
    }

    /// A histogram over already tallied `(label, count)` pairs, one per
    /// distinct label. Counts are tallied on borrowed labels; only the
    /// distinct ones are copied into the histogram.
    pub fn from_counts<'a>(counts: impl IntoIterator<Item = (&'a str, usize)>) -> Self {
        let mut entries: Vec<_> = counts
            .into_iter()
            .map(|(label, count)| (label.to_owned(), count))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        LabelHistogram { entries }
    }

    /// `(label, count)` pairs in descending count order.
    pub fn entries(&self) -> &[(String, usize)] {
        &self.entries
    }

    /// Count for one label (0 if absent).
    pub fn count(&self, label: &str) -> usize {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, c)| *c)
    }

    /// Labels whose count strictly exceeds `threshold` — Algorithm 1's
    /// `c > c'` test selecting which categories get cached subgraphs.
    pub fn above_threshold(&self, threshold: usize) -> impl Iterator<Item = (&str, usize)> {
        self.entries
            .iter()
            .take_while(move |(_, c)| *c > threshold)
            .map(|(l, c)| (l.as_str(), *c))
    }

    /// Total number of counted items.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|(_, c)| c).sum()
    }

    /// Number of distinct labels.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of *distinct labels* whose count exceeds `threshold`.
    /// The paper reports "approximately 58% of vertex types occur more than
    /// 5 times" for MVQA — this is that figure.
    pub fn fraction_of_labels_above(&self, threshold: usize) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.above_threshold(threshold).count() as f64 / self.distinct() as f64
    }

    /// Fraction of *items* whose label's count exceeds `threshold` ("nearly
    /// 82% of vertices are covered in finally generated subgraphs").
    pub fn fraction_of_items_above(&self, threshold: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let covered: usize = self.above_threshold(threshold).map(|(_, c)| c).sum();
        covered as f64 / total as f64
    }
}

/// Structural summary of a single graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|V|`.
    pub vertex_count: usize,
    /// `|E|`.
    pub edge_count: usize,
    /// Number of distinct vertex labels.
    pub distinct_vertex_labels: usize,
    /// Number of distinct edge labels.
    pub distinct_edge_labels: usize,
    /// Mean total degree.
    pub mean_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Compute the summary for `graph`.
    pub fn of(graph: &Graph) -> Self {
        let mut max_degree = 0;
        let mut degree_sum = 0usize;
        for (_, v) in graph.vertices() {
            let d = v.degree();
            degree_sum += d;
            max_degree = max_degree.max(d);
        }
        GraphStats {
            vertex_count: graph.vertex_count(),
            edge_count: graph.edge_count(),
            distinct_vertex_labels: graph.vertex_label_counts().count(),
            distinct_edge_labels: graph.edge_label_counts().count(),
            mean_degree: if graph.vertex_count() == 0 {
                0.0
            } else {
                degree_sum as f64 / graph.vertex_count() as f64
            },
            max_degree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graphs() -> Vec<Graph> {
        let mut g1 = Graph::new();
        let d = g1.add_vertex("dog");
        let m = g1.add_vertex("man");
        g1.add_edge(d, m, "near").unwrap();
        let mut g2 = Graph::new();
        let d2 = g2.add_vertex("dog");
        let c = g2.add_vertex("car");
        g2.add_edge(d2, c, "in").unwrap();
        vec![g1, g2]
    }

    #[test]
    fn vertex_histogram_sorted_descending() {
        let gs = sample_graphs();
        let h = LabelHistogram::from_vertex_labels(&gs);
        assert_eq!(h.entries()[0], ("dog".to_owned(), 2));
        assert_eq!(h.count("man"), 1);
        assert_eq!(h.count("ghost"), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.distinct(), 3);
    }

    #[test]
    fn label_stream_counts_like_the_graphs() {
        let gs = sample_graphs();
        let h = LabelHistogram::from_labels(["man", "dog", "car", "dog"]);
        assert_eq!(h, LabelHistogram::from_vertex_labels(&gs));
    }

    #[test]
    fn threshold_selection() {
        let gs = sample_graphs();
        let h = LabelHistogram::from_vertex_labels(&gs);
        let above: Vec<_> = h.above_threshold(1).collect();
        assert_eq!(above, vec![("dog", 2)]);
        assert!((h.fraction_of_labels_above(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.fraction_of_items_above(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_histogram() {
        let gs = sample_graphs();
        let h = LabelHistogram::from_labels(
            gs.iter()
                .flat_map(|g| g.edges().map(|(_, e)| g.edge_label_text(e.label_id()))),
        );
        assert_eq!(h.count("near"), 1);
        assert_eq!(h.count("in"), 1);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let h = LabelHistogram::from_vertex_labels(std::iter::empty());
        assert_eq!(h.fraction_of_labels_above(5), 0.0);
        assert_eq!(h.fraction_of_items_above(5), 0.0);
    }

    #[test]
    fn graph_stats() {
        let gs = sample_graphs();
        let s = GraphStats::of(&gs[0]);
        assert_eq!(s.vertex_count, 2);
        assert_eq!(s.edge_count, 1);
        assert_eq!(s.distinct_vertex_labels, 2);
        assert_eq!(s.distinct_edge_labels, 1);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
        assert_eq!(s.max_degree, 1);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = GraphStats::of(&Graph::new());
        assert_eq!(s.vertex_count, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}

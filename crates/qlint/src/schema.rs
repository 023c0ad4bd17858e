//! Schema extraction: the merged graph's vocabulary of categories and
//! predicates with occurrence counts, computed once after aggregation and
//! reused for every question.

use std::collections::HashMap;
use svqa_graph::Graph;
use svqa_nlp::resolve::LabelCounts;

/// Statistics the lint passes need from a merged graph `G_mg`: which
/// category labels exist (and how many vertices carry each), which
/// predicate labels exist (and how many edges carry each), and the totals.
///
/// Extraction is a single pass over the graph's label indices — cheap
/// enough to rerun after every `add_images`, and self-contained so the
/// linter never touches the graph on the per-question path.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    vertex_labels: HashMap<String, usize>,
    edge_labels: HashMap<String, usize>,
    vertex_total: usize,
    edge_total: usize,
}

impl Schema {
    /// Extract the schema from a merged graph.
    pub fn extract(graph: &Graph) -> Self {
        Schema {
            vertex_labels: graph
                .vertex_label_counts()
                .map(|(l, n)| (l.to_owned(), n))
                .collect(),
            edge_labels: graph
                .edge_label_counts()
                .map(|(l, n)| (l.to_owned(), n))
                .collect(),
            vertex_total: graph.vertex_count(),
            edge_total: graph.edge_count(),
        }
    }

    /// Number of vertices in the merged graph.
    pub fn vertex_total(&self) -> usize {
        self.vertex_total
    }

    /// Number of edges in the merged graph.
    pub fn edge_total(&self) -> usize {
        self.edge_total
    }

    /// How many vertices carry exactly this label.
    pub fn category_cardinality(&self, label: &str) -> usize {
        self.vertex_labels.get(label).copied().unwrap_or(0)
    }

    /// How many edges carry exactly this label.
    pub fn predicate_cardinality(&self, label: &str) -> usize {
        self.edge_labels.get(label).copied().unwrap_or(0)
    }

    /// All category labels with their cardinalities.
    pub fn categories(&self) -> impl Iterator<Item = (&str, usize)> {
        self.vertex_labels.iter().map(|(l, n)| (l.as_str(), *n))
    }

    /// All predicate labels with their cardinalities.
    pub fn predicates(&self) -> impl Iterator<Item = (&str, usize)> {
        self.edge_labels.iter().map(|(l, n)| (l.as_str(), *n))
    }
}

/// The category labels, counted over the whole merged graph: what the
/// lint passes resolve category slots against.
impl LabelCounts for Schema {
    fn labels(&self) -> impl Iterator<Item = &str> {
        self.vertex_labels.keys().map(String::as_str)
    }

    fn count(&self, label: &str) -> usize {
        self.category_cardinality(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_label_counts_and_totals() {
        let mut g = Graph::new();
        let a = g.add_vertex("dog");
        let b = g.add_vertex("dog");
        let c = g.add_vertex("car");
        g.add_edge(a, c, "in").unwrap();
        g.add_edge(b, c, "in").unwrap();

        let s = Schema::extract(&g);
        assert_eq!(s.vertex_total(), 3);
        assert_eq!(s.edge_total(), 2);
        assert_eq!(s.category_cardinality("dog"), 2);
        assert_eq!(s.category_cardinality("car"), 1);
        assert_eq!(s.category_cardinality("cat"), 0);
        assert_eq!(s.predicate_cardinality("in"), 2);
        assert_eq!(s.vertex_labels.len(), 2);
        assert_eq!(s.edge_labels.len(), 1);
    }
}

//! Fluent graph construction, used heavily by tests and the dataset
//! generator.

use crate::graph::Graph;
use crate::ids::VertexId;
use std::collections::HashMap;

/// Builds a graph from `(subject, predicate, object)` triples, reusing a
/// vertex per distinct label. Knowledge graphs in SVQA are entity graphs —
/// one vertex per entity name — so label-keyed construction is the natural
/// fit (scene graphs, where two "dog" vertices must stay distinct, are built
/// directly on [`Graph`]).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    by_label: HashMap<String, VertexId>,
}

impl GraphBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the vertex for `label`.
    pub fn vertex(&mut self, label: &str) -> VertexId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        let id = self.graph.add_vertex(label);
        self.by_label.insert(label.to_owned(), id);
        id
    }

    /// Add the triple `subject —predicate→ object`, creating the endpoint
    /// vertices if needed. Duplicate triples are skipped.
    pub fn triple(&mut self, subject: &str, predicate: &str, object: &str) -> &mut Self {
        let s = self.vertex(subject);
        let o = self.vertex(object);
        if !self.graph.has_edge(s, o, predicate) {
            self.graph
                .add_edge(s, o, predicate)
                .expect("builder vertices are valid");
        }
        self
    }

    /// Add the triple in both directions with the same predicate (for
    /// symmetric relations like "near").
    pub fn symmetric(&mut self, a: &str, predicate: &str, b: &str) -> &mut Self {
        self.triple(a, predicate, b).triple(b, predicate, a)
    }

    /// Number of vertices created so far.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Finish and return the graph.
    pub fn build(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triples_reuse_vertices() {
        let mut b = GraphBuilder::new();
        b.triple("harry", "friend of", "ron")
            .triple("harry", "friend of", "hermione")
            .triple("ron", "friend of", "hermione");
        let g = b.build();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn duplicate_triples_skipped() {
        let mut b = GraphBuilder::new();
        b.triple("a", "x", "b").triple("a", "x", "b");
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn symmetric_adds_both_directions() {
        let mut b = GraphBuilder::new();
        b.symmetric("dog", "near", "man");
        let g = b.build();
        let dog = g.vertices_with_label("dog")[0];
        let man = g.vertices_with_label("man")[0];
        assert!(g.has_edge(dog, man, "near"));
        assert!(g.has_edge(man, dog, "near"));
    }
}

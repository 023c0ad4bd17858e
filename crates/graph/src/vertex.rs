//! Vertex storage.

use crate::label::LabelId;

/// A vertex of a directed labeled graph, `v ∈ V` with label `L(v)` (§II of
/// the paper).
///
/// A vertex is its label alone, 4 bytes: an id into the graph's
/// vertex-label table ([`crate::Graph::vertex_label`] gives its text). Its
/// properties sit in the graph's vertex column, whose run table knows each
/// vertex's shape and first word by its index
/// ([`crate::Graph::vertex_props`] reads them), and its incident edges are
/// in the graph's adjacency indexes ([`crate::Graph::out_edge_ids`],
/// [`crate::Graph::in_edge_ids`]), not in the vertex.
#[derive(Debug, Clone)]
pub struct Vertex {
    pub(crate) label: LabelId,
}

impl Vertex {
    pub(crate) fn new(label: LabelId) -> Self {
        Vertex { label }
    }

    /// The id of the label `L(v)` in the graph's vertex-label table.
    pub fn label_id(&self) -> LabelId {
        self.label
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fresh_vertex_has_no_edges() {
        let mut g = crate::Graph::new();
        let id = g.add_vertex("dog");
        let v = g.vertex(id).unwrap();
        assert_eq!(g.vertex_label_text(v.label_id()), "dog");
        assert_eq!(g.out_degree(id), 0);
        assert_eq!(g.in_degree(id), 0);
        assert_eq!(g.degree(id), 0);
        assert!(g.vertex_props(id).is_empty());
    }
}

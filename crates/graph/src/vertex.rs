//! Vertex storage.

use crate::ids::EdgeId;
use crate::label::LabelId;
use crate::props::PropSlot;

/// A vertex of a directed labeled graph, `v ∈ V` with label `L(v)` (§II of
/// the paper).
///
/// The adjacency lists are owned by the vertex so that a neighbourhood scan
/// touches one arena slot; they store *edge* ids, and the edge records hold
/// the endpoint vertex ids. The label is an id into the graph's
/// vertex-label table ([`crate::Graph::vertex_label`] gives its text), and
/// the properties sit in the graph's vertex column
/// ([`crate::Graph::vertex_props`] reads them).
#[derive(Debug, Clone)]
pub struct Vertex {
    pub(crate) label: LabelId,
    pub(crate) props: PropSlot,
    pub(crate) out_edges: Vec<EdgeId>,
    pub(crate) in_edges: Vec<EdgeId>,
}

impl Vertex {
    pub(crate) fn new(label: LabelId, props: PropSlot) -> Self {
        Self::with_degrees(label, props, 0, 0)
    }

    /// A vertex whose adjacency lists are sized for its final degrees.
    pub(crate) fn with_degrees(
        label: LabelId,
        props: PropSlot,
        out_degree: usize,
        in_degree: usize,
    ) -> Self {
        Vertex {
            label,
            props,
            out_edges: Vec::with_capacity(out_degree),
            in_edges: Vec::with_capacity(in_degree),
        }
    }

    /// The id of the label `L(v)` in the graph's vertex-label table.
    pub fn label_id(&self) -> LabelId {
        self.label
    }

    /// Outgoing edge ids.
    pub fn out_edge_ids(&self) -> &[EdgeId] {
        &self.out_edges
    }

    /// Incoming edge ids.
    pub fn in_edge_ids(&self) -> &[EdgeId] {
        &self.in_edges
    }

    /// Out-degree of this vertex.
    pub fn out_degree(&self) -> usize {
        self.out_edges.len()
    }

    /// In-degree of this vertex.
    pub fn in_degree(&self) -> usize {
        self.in_edges.len()
    }

    /// Total degree (in + out).
    pub fn degree(&self) -> usize {
        self.out_edges.len() + self.in_edges.len()
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
        assert_eq!(v.out_degree(), 0);
        assert_eq!(v.in_degree(), 0);
        assert_eq!(v.degree(), 0);
        assert!(g.vertex_props(id).is_empty());
    }
}

//! Vertex storage.

use crate::ids::EdgeId;
use crate::label::Label;
use crate::props::Properties;
use serde::{Deserialize, Serialize};

/// A vertex of a directed labeled graph, `v ∈ V` with label `L(v)` (§II of
/// the paper).
///
/// The adjacency lists are owned by the vertex so that a neighbourhood scan
/// touches one arena slot; they store *edge* ids, and the edge records hold
/// the endpoint vertex ids. The label is shared with every other vertex of
/// the same graph that carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vertex {
    pub(crate) label: Label,
    props: Properties,
    pub(crate) out_edges: Vec<EdgeId>,
    pub(crate) in_edges: Vec<EdgeId>,
}

impl Vertex {
    pub(crate) fn new(label: Label, props: Properties) -> Self {
        Vertex {
            label,
            props,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// The label `L(v)`.
    pub fn label(&self) -> &str {
        self.label.as_str()
    }

    /// Immutable access to the vertex's properties.
    pub fn props(&self) -> &Properties {
        &self.props
    }

    /// Mutable access to the vertex's properties.
    pub fn props_mut(&mut self) -> &mut Properties {
        &mut self.props
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
    use super::*;

    #[test]
    fn fresh_vertex_has_no_edges() {
        let v = Vertex::new(Label::from("dog"), Properties::new());
        assert_eq!(v.label(), "dog");
        assert_eq!(v.out_degree(), 0);
        assert_eq!(v.in_degree(), 0);
        assert_eq!(v.degree(), 0);
    }

    #[test]
    fn props_are_mutable() {
        let mut v = Vertex::new(Label::from("dog"), Properties::new());
        v.props_mut().set("image", 9u32);
        assert_eq!(
            v.props().get("image").and_then(|p| p.as_int()),
            Some(9)
        );
    }
}

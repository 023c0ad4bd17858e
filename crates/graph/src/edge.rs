//! Edge storage.

use crate::ids::VertexId;
use crate::label::LabelId;

/// A directed labeled edge `e ∈ E` with label `L(e)` (§II of the paper).
///
/// In the merged graph the edge label carries the relation predicate
/// ("wearing", "in front of", "girlfriend of", ...), which `maxScore` in
/// Algorithm 3 matches against the query's predicate `c_p`. The label is an
/// id into the graph's edge-label table ([`crate::Graph::edge_label`] gives
/// its text). An edge is its endpoints and its label, 12 bytes, and carries
/// no property.
#[derive(Debug, Clone)]
pub struct Edge {
    src: VertexId,
    dst: VertexId,
    pub(crate) label: LabelId,
}

impl Edge {
    pub(crate) fn new(src: VertexId, dst: VertexId, label: LabelId) -> Self {
        Edge { src, dst, label }
    }

    /// Source vertex id.
    pub fn src(&self) -> VertexId {
        self.src
    }

    /// Destination vertex id.
    pub fn dst(&self) -> VertexId {
        self.dst
    }

    /// The id of the label `L(e)` (the relation predicate) in the graph's
    /// edge-label table.
    pub fn label_id(&self) -> LabelId {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use crate::Graph;

    #[test]
    fn endpoints() {
        let mut g = Graph::new();
        let a = g.add_vertex("man");
        let b = g.add_vertex("hat");
        let id = g.add_edge(a, b, "wearing").unwrap();
        let e = g.edge(id).unwrap();
        assert_eq!(e.src(), a);
        assert_eq!(e.dst(), b);
        assert_eq!(g.edge_label_text(e.label_id()), "wearing");
    }
}

//! Edge storage.

use crate::ids::VertexId;
use crate::label::Label;
use crate::props::Properties;
use serde::{Deserialize, Serialize};

/// A directed labeled edge `e ∈ E` with label `L(e)` (§II of the paper).
///
/// In the merged graph the edge label carries the relation predicate
/// ("wearing", "in front of", "girlfriend of", ...), which `maxScore` in
/// Algorithm 3 matches against the query's predicate `c_p`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edge {
    src: VertexId,
    dst: VertexId,
    pub(crate) label: Label,
    props: Properties,
}

impl Edge {
    pub(crate) fn new(src: VertexId, dst: VertexId, label: Label, props: Properties) -> Self {
        Edge {
            src,
            dst,
            label,
            props,
        }
    }

    /// Source vertex id.
    pub fn src(&self) -> VertexId {
        self.src
    }

    /// Destination vertex id.
    pub fn dst(&self) -> VertexId {
        self.dst
    }

    /// The label `L(e)` (the relation predicate).
    pub fn label(&self) -> &str {
        self.label.as_str()
    }

    /// Immutable access to the edge's properties.
    pub fn props(&self) -> &Properties {
        &self.props
    }

    /// Mutable access to the edge's properties.
    pub fn props_mut(&mut self) -> &mut Properties {
        &mut self.props
    }

    /// Given one endpoint, return the other; `None` if `v` is not an
    /// endpoint of this edge.
    pub fn other_endpoint(&self, v: VertexId) -> Option<VertexId> {
        if v == self.src {
            Some(self.dst)
        } else if v == self.dst {
            Some(self.src)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn endpoints() {
        let a = VertexId::from_index(0);
        let b = VertexId::from_index(1);
        let c = VertexId::from_index(2);
        let e = Edge::new(a, b, Label::from("wearing"), Properties::new());
        assert_eq!(e.src(), a);
        assert_eq!(e.dst(), b);
        assert_eq!(e.label(), "wearing");
        assert_eq!(e.other_endpoint(a), Some(b));
        assert_eq!(e.other_endpoint(b), Some(a));
        assert_eq!(e.other_endpoint(c), None);
    }
}

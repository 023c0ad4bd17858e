//! Error type for graph operations.

use crate::ids::{EdgeId, VertexId};
use std::fmt;

/// Errors surfaced by [`crate::Graph`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id did not resolve inside this graph.
    UnknownVertex(VertexId),
    /// An edge id did not resolve inside this graph.
    UnknownEdge(EdgeId),
    /// A serialized graph failed validation on load (dangling endpoint,
    /// inconsistent adjacency, ...). The payload describes the first
    /// violation found.
    CorruptGraph(String),
    /// A field of a graph is too long for the binary snapshot format,
    /// whose lengths and property counts are `u16`s.
    FieldTooLong {
        /// The field: `"label"`, `"property key"` or `"property count"`.
        field: &'static str,
        /// Its length in bytes (in entries for the property count).
        len: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            GraphError::CorruptGraph(msg) => write!(f, "corrupt graph: {msg}"),
            GraphError::FieldTooLong { field, len } => write!(
                f,
                "{field} of length {len} exceeds the snapshot limit of {}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EdgeId, VertexId};

    #[test]
    fn display_messages() {
        assert_eq!(
            GraphError::UnknownVertex(VertexId::from_index(3)).to_string(),
            "unknown vertex v3"
        );
        assert_eq!(
            GraphError::UnknownEdge(EdgeId::from_index(1)).to_string(),
            "unknown edge e1"
        );
        assert!(GraphError::CorruptGraph("dangling".into())
            .to_string()
            .contains("dangling"));
        assert_eq!(
            GraphError::FieldTooLong {
                field: "label",
                len: 70_000
            }
            .to_string(),
            "label of length 70000 exceeds the snapshot limit of 65535"
        );
    }
}

//! Graph (de)serialization.
//!
//! Graphs persist as JSON (the arenas only; the label tables and indexes
//! are rebuilt on load). Deserialized graphs are validated before use so a corrupt file
//! surfaces as [`GraphError::CorruptGraph`] rather than a panic deep inside a
//! query.

use crate::error::GraphError;
use crate::graph::Graph;

/// Serialize a graph to a JSON string.
pub fn to_json(graph: &Graph) -> String {
    serde_json::to_string(graph).expect("graph serialization is infallible")
}

/// Serialize a graph to pretty-printed JSON (for dataset files meant to be
/// read by humans).
pub fn to_json_pretty(graph: &Graph) -> String {
    serde_json::to_string_pretty(graph).expect("graph serialization is infallible")
}

/// Deserialize a graph from JSON, rebuild its indexes, and validate it.
pub fn from_json(json: &str) -> Result<Graph, GraphError> {
    let graph: Graph =
        serde_json::from_str(json).map_err(|e| GraphError::CorruptGraph(e.to_string()))?;
    graph.validate()?;
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let d = g.add_vertex("dog");
        let m = g.add_vertex("man");
        g.add_edge(d, m, "in front of").unwrap();
        g
    }

    #[test]
    fn roundtrip_preserves_structure_and_indexes() {
        let g = sample();
        let back = from_json(&to_json(&g)).unwrap();
        assert_eq!(back.vertex_count(), 2);
        assert_eq!(back.edge_count(), 1);
        // Indexes were rebuilt.
        assert_eq!(back.vertices_with_label("dog").len(), 1);
        assert_eq!(
            back.edge_label_counts().collect::<Vec<_>>(),
            vec![("in front of", 1)]
        );
    }

    #[test]
    fn pretty_json_is_parseable() {
        let g = sample();
        let back = from_json(&to_json_pretty(&g)).unwrap();
        assert_eq!(back.vertex_count(), 2);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            from_json("{not json"),
            Err(GraphError::CorruptGraph(_))
        ));
    }

    #[test]
    fn dangling_edge_is_detected() {
        // Handcraft a JSON graph whose edge points at vertex 5 that does not
        // exist.
        let json = r#"{
            "vertices": [
                {"label":"a","props":{"entries":[]},"out_edges":[0],"in_edges":[]}
            ],
            "edges": [
                {"src":0,"dst":5,"label":"x","props":{"entries":[]}}
            ]
        }"#;
        assert!(matches!(from_json(json), Err(GraphError::CorruptGraph(_))));
    }

    #[test]
    fn repeated_adjacency_entry_is_detected() {
        // The only edge listed twice: every entry names an edge the vertex
        // owns, but the list is not the ascending ids of its edges.
        let json = r#"{
            "vertices": [
                {"label":"a","props":{"entries":[]},"out_edges":[0,0],"in_edges":[0]}
            ],
            "edges": [
                {"src":0,"dst":0,"label":"x","props":{"entries":[]}}
            ]
        }"#;
        let err = from_json(json).unwrap_err();
        assert!(err.to_string().contains("out-edge e0"), "{err}");
        // The same graph listed once loads.
        let json = json.replace("[0,0]", "[0]");
        assert_eq!(
            from_json(&json)
                .unwrap()
                .vertex(crate::VertexId::from_index(0))
                .unwrap()
                .out_degree(),
            1
        );
    }

    #[test]
    fn unordered_adjacency_is_detected() {
        let json = r#"{
            "vertices": [
                {"label":"a","props":{"entries":[]},"out_edges":[1,0],"in_edges":[]},
                {"label":"b","props":{"entries":[]},"out_edges":[],"in_edges":[0,1]}
            ],
            "edges": [
                {"src":0,"dst":1,"label":"x","props":{"entries":[]}},
                {"src":0,"dst":1,"label":"y","props":{"entries":[]}}
            ]
        }"#;
        assert!(matches!(from_json(json), Err(GraphError::CorruptGraph(_))));
    }

    #[test]
    fn inconsistent_adjacency_is_detected() {
        // Edge exists but the source vertex does not list it.
        let json = r#"{
            "vertices": [
                {"label":"a","props":{"entries":[]},"out_edges":[],"in_edges":[]},
                {"label":"b","props":{"entries":[]},"out_edges":[],"in_edges":[0]}
            ],
            "edges": [
                {"src":0,"dst":1,"label":"x","props":{"entries":[]}}
            ]
        }"#;
        assert!(matches!(from_json(json), Err(GraphError::CorruptGraph(_))));
    }
}

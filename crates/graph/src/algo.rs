//! Graph algorithms over the undirected structure.
//!
//! Used by the dataset reports (how connected is the merged graph?) and by
//! the knowledge-graph tooling; the merged graph's connectivity is what
//! makes cross-source reasoning possible at all — an image whose scene
//! graph ends up in its own component can never contribute to a
//! knowledge-anchored answer.

use crate::graph::Graph;
use crate::ids::VertexId;
use crate::traverse::Bfs;

/// Assign every vertex a connected-component id (undirected reachability).
/// Returns `(component ids, component count)`; ids are dense starting at 0
/// in first-seen order.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.vertex_count();
    let mut component = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        for (v, _) in Bfs::new(graph, VertexId::from_index(start)) {
            component[v.index()] = next;
        }
        next += 1;
    }
    (component, next)
}

/// Size of the largest connected component (0 for an empty graph).
pub fn largest_component_size(graph: &Graph) -> usize {
    let (components, count) = connected_components(graph);
    let mut sizes = vec![0usize; count];
    for c in components {
        sizes[c] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Shortest hop distance between two vertices over the undirected
/// structure; `None` if disconnected (or either id is foreign).
pub fn hop_distance(graph: &Graph, from: VertexId, to: VertexId) -> Option<usize> {
    if from == to && from.index() < graph.vertex_count() {
        return Some(0);
    }
    Bfs::new(graph, from)
        .find(|&(v, _)| v == to)
        .map(|(_, d)| d)
}

/// Degree distribution: `histogram[d]` = number of vertices with total
/// degree `d`.
pub fn degree_distribution(graph: &Graph) -> Vec<usize> {
    let mut histogram = Vec::new();
    for (v, _) in graph.vertices() {
        let d = graph.degree(v);
        if histogram.len() <= d {
            histogram.resize(d + 1, 0);
        }
        histogram[d] += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_islands() -> (Graph, Vec<VertexId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..6).map(|i| g.add_vertex(format!("v{i}"))).collect();
        g.add_edge(ids[0], ids[1], "e").unwrap();
        g.add_edge(ids[1], ids[2], "e").unwrap();
        g.add_edge(ids[3], ids[4], "e").unwrap();
        // ids[5] is isolated.
        (g, ids)
    }

    #[test]
    fn component_counting() {
        let (g, ids) = two_islands();
        let (components, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(components[ids[0].index()], components[ids[2].index()]);
        assert_eq!(components[ids[3].index()], components[ids[4].index()]);
        assert_ne!(components[ids[0].index()], components[ids[3].index()]);
        assert_ne!(components[ids[5].index()], components[ids[0].index()]);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn hop_distances() {
        let (g, ids) = two_islands();
        assert_eq!(hop_distance(&g, ids[0], ids[0]), Some(0));
        assert_eq!(hop_distance(&g, ids[0], ids[2]), Some(2));
        // Direction-agnostic.
        assert_eq!(hop_distance(&g, ids[2], ids[0]), Some(2));
        // Disconnected.
        assert_eq!(hop_distance(&g, ids[0], ids[4]), None);
    }

    #[test]
    fn degree_histogram() {
        let (g, _) = two_islands();
        let h = degree_distribution(&g);
        // ids[5]: degree 0; ids[0], ids[2], ids[3], ids[4]: degree 1;
        // ids[1]: degree 2.
        assert_eq!(h, vec![1, 4, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(connected_components(&g).1, 0);
        assert_eq!(largest_component_size(&g), 0);
        assert!(degree_distribution(&g).is_empty());
    }
}

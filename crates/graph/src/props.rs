//! A vertex's one property: the id of the image it was detected in.
//!
//! The query path reads one thing from the merged graph `G_mg` besides
//! labels and edges: whether a vertex is a scene instance, and of which
//! image (counting questions, answer provenance, and the knowledge-graph
//! prefix of a loaded world). So a scene vertex carries its image id in
//! the [`crate::Vertex`] itself, added with
//! [`crate::Graph::add_scene_vertex`] or a window's
//! [`crate::GraphWindow::push_vertex`], and knowledge-graph vertices and
//! every edge carry nothing. [`scene_image`] is the one reader. A
//! per-image scene graph's boxes and predicate scores stay with the
//! scene-graph generator's output, not in the graph.

use crate::{Graph, VertexId};

/// The id of the image vertex `v` of `graph` was detected in: `Some` for a
/// scene vertex, `None` for a knowledge-graph vertex or a foreign id.
pub fn scene_image(graph: &Graph, v: VertexId) -> Option<u32> {
    graph.vertex(v).and_then(crate::Vertex::image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio;

    #[test]
    fn loaded_maps_are_sized_to_their_entries() {
        // A loaded graph's arenas hold exactly its elements, and every
        // vertex's image id comes back with it.
        let mut g = Graph::new();
        let dog = g.add_scene_vertex("dog", 3);
        let man = g.add_vertex("man");
        g.add_edge(dog, man, "near").unwrap();

        let loaded = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
        assert_eq!(scene_image(&loaded, dog), Some(3));
        assert_eq!(scene_image(&loaded, man), None);
        assert_eq!(scene_image(&loaded, VertexId::from_index(2)), None);
        assert_eq!((loaded.vertices.len(), loaded.vertices.capacity()), (2, 2));
        assert_eq!((loaded.edges.len(), loaded.edges.capacity()), (1, 1));
    }

    #[test]
    fn edge_bit_patterns_round_trip() {
        // The ids at the ends of the range a vertex holds, and around the
        // sign bit of the `i64` a snapshot writes each as.
        let ids = [0, 1, 2, i32::MAX as u32, 1 << 31, crate::vertex::MAX_IMAGE];
        let mut g = Graph::new();
        let vertices: Vec<_> = ids
            .iter()
            .map(|&id| g.add_scene_vertex("dog", id))
            .collect();
        let bare = g.add_vertex("dog");
        let bytes = binio::to_bytes(&g).unwrap();
        let loaded = binio::from_bytes(bytes.clone()).unwrap();
        for g in [&g, &loaded] {
            for (&v, &id) in vertices.iter().zip(&ids) {
                assert_eq!(scene_image(g, v), Some(id));
            }
            assert_eq!(scene_image(g, bare), None);
        }
        assert_eq!(binio::to_bytes(&loaded).unwrap(), bytes);
        // Each id is written as its `i64`'s 8 bytes.
        let max = i64::from(crate::vertex::MAX_IMAGE).to_le_bytes();
        assert!(bytes.windows(8).any(|w| w == max));
    }
}

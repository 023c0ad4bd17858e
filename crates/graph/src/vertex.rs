//! Vertex storage.

use crate::label::LabelId;
use std::num::NonZeroU32;

/// The largest image id a vertex can hold: every `u32` but `u32::MAX`,
/// since a vertex stores the id plus one.
pub(crate) const MAX_IMAGE: u32 = u32::MAX - 1;

/// A vertex of a directed labeled graph, `v ∈ V` with label `L(v)` (§II of
/// the paper).
///
/// A vertex is its label and its one property, 8 bytes: an id into the
/// graph's vertex-label table ([`crate::Graph::vertex_label`] gives its
/// text), and the id of the image a scene vertex was detected in, stored
/// as the id plus one so that a knowledge-graph vertex's `None` takes no
/// room ([`crate::scene_image`] reads it). Its incident edges are in the
/// graph's adjacency indexes ([`crate::Graph::out_edge_ids`],
/// [`crate::Graph::in_edge_ids`]), not in the vertex.
#[derive(Debug, Clone, Copy)]
pub struct Vertex {
    pub(crate) label: LabelId,
    image: Option<NonZeroU32>,
}

impl Vertex {
    /// A vertex labeled `label`: a scene vertex when `image` is its image
    /// id, a knowledge-graph vertex when it is `None`.
    ///
    /// # Panics
    ///
    /// When `image` is `u32::MAX`, the one id a vertex cannot hold.
    pub(crate) fn new(label: LabelId, image: Option<u32>) -> Self {
        let image = image.map(|id| {
            NonZeroU32::new(id.wrapping_add(1))
                .unwrap_or_else(|| panic!("image id {id} over the largest a vertex holds"))
        });
        Vertex { label, image }
    }

    /// The id of the label `L(v)` in the graph's vertex-label table.
    pub fn label_id(&self) -> LabelId {
        self.label
    }

    /// This vertex, labeled `label` of another graph's table.
    pub(crate) fn relabeled(self, label: LabelId) -> Self {
        Vertex { label, ..self }
    }

    /// The image id of a scene vertex; `None` for a knowledge-graph vertex.
    pub(crate) fn image(&self) -> Option<u32> {
        self.image.map(|stored| stored.get() - 1)
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
        assert_eq!(crate::scene_image(&g, id), None);
    }
}

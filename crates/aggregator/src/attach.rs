//! Algorithm 1's attach stage (lines 8–16), the one loop behind every way
//! scene graphs enter the merged graph.
//!
//! [`crate::DataAggregator::merge`], [`crate::DataAggregator::merge_records`],
//! [`crate::IncrementalMerger::attach_batch`] and the pipeline's incremental
//! ingestion differ only in where scene graphs come from and how a label's
//! knowledge-graph counterpart is found; [`Attacher`] is everything else.

use std::ops::Range;
use svqa_graph::{Graph, Properties, VertexId};
use svqa_vision::SceneRecord;

/// Appends scene graphs to a merged graph, one image at a time, and links
/// every new vertex to its knowledge-graph counterpart.
///
/// Per image it appends the vertices, then the scene edges, then the link
/// edges of each vertex in vertex order: the order `Graph::absorb`
/// followed by a link pass gives, so every input form merges into the
/// same graph. `counterpart` maps a scene label to its knowledge-graph
/// vertex *in the merged graph* (it is handed the merged graph as it
/// stands), or `None` when the label has no counterpart.
pub struct Attacher<'g, F> {
    merged: &'g mut Graph,
    link_label: &'g str,
    counterpart: F,
    links: usize,
    unlinked: usize,
}

impl<'g, F> Attacher<'g, F>
where
    F: FnMut(&Graph, &str) -> Option<VertexId>,
{
    /// Attach into `merged`, linking with edges labeled `link_label`.
    pub fn new(merged: &'g mut Graph, link_label: &'g str, counterpart: F) -> Self {
        Attacher {
            merged,
            link_label,
            counterpart,
            links: 0,
            unlinked: 0,
        }
    }

    /// Attach one scene graph held as a [`Graph`]; returns the merged
    /// indexes its vertices received, in its own vertex order.
    pub fn attach_graph(&mut self, sg: &Graph) -> Range<usize> {
        self.attach(
            sg.vertices().map(|(_, v)| (v.label(), v.props().clone())),
            sg.edges().map(|(_, e)| {
                (
                    e.src().index(),
                    e.dst().index(),
                    e.label(),
                    e.props().clone(),
                )
            }),
        )
    }

    /// Attach one image's scene record; returns the merged indexes its
    /// vertices received, in detection order.
    pub fn attach_scene(&mut self, scene: SceneRecord<'_>) -> Range<usize> {
        self.attach(
            scene.vertices().map(|(label, v)| (label, v.props())),
            scene
                .edges()
                .iter()
                .map(|e| (e.sub as usize, e.obj as usize, e.label(), e.props())),
        )
    }

    /// Link edges created so far (two per linked vertex).
    pub fn links(&self) -> usize {
        self.links
    }

    /// Attached vertices without a knowledge-graph counterpart so far.
    pub fn unlinked(&self) -> usize {
        self.unlinked
    }

    /// The attach body: vertices, scene edges (endpoints local to the
    /// image), then links.
    fn attach<'s>(
        &mut self,
        vertices: impl Iterator<Item = (&'s str, Properties)>,
        edges: impl Iterator<Item = (usize, usize, &'s str, Properties)>,
    ) -> Range<usize> {
        let first = self.merged.vertex_count();
        for (label, props) in vertices {
            self.merged.add_vertex_with_props(label, props);
        }
        let end = self.merged.vertex_count();
        let local = |i: usize| VertexId::from_index(first + i);
        for (sub, obj, label, props) in edges {
            self.merged
                .add_edge_with_props(local(sub), local(obj), label, props)
                .expect("scene edge endpoints are the image's own vertices");
        }
        for v in (first..end).map(VertexId::from_index) {
            // Lines 9–14: find the corresponding knowledge-graph vertex,
            // then connect(v, v') in both directions so the executor can
            // traverse either way.
            let label = self.merged.vertex_label(v).expect("vertex just added");
            match (self.counterpart)(self.merged, label) {
                Some(kg) => {
                    self.merged
                        .add_edge(v, kg, self.link_label)
                        .expect("both endpoints exist");
                    self.merged
                        .add_edge(kg, v, self.link_label)
                        .expect("both endpoints exist");
                    self.links += 2;
                }
                None => self.unlinked += 1,
            }
        }
        first..end
    }
}

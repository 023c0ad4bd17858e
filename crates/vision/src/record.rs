//! Flat scene records: the scene graphs of a run of images without a
//! `Graph` per image.
//!
//! The offline build generates one scene graph per image only to copy it
//! into the merged graph `G_mg` and drop it. [`SceneRecords`] holds the
//! scene graphs for a whole chunk of images in flat buffers — a table of
//! the chunk's distinct vertex labels, vertices (label slot and image id)
//! and argmax edges (endpoints and predicate) — so the aggregator can
//! append them straight into `G_mg`.
//!
//! Labels are numbered as they are recorded, on the thread that generates
//! the chunk: each distinct label gets the next slot of the chunk's table,
//! in first-seen order, with a count of the vertices carrying it. A
//! category label finds its slot by its index in
//! [`crate::scene::CATEGORIES`], with no hashing; only names outside the
//! taxonomy (entities) are looked up by text. The aggregator's census then
//! reads one entry per distinct label per chunk instead of every vertex's
//! text.
//!
//! A record keeps only what `G_mg` keeps. The query path reads a scene
//! vertex's label, its image id and its edges, never a box or a
//! predicate's score: those feed relation prediction, which has run by the
//! time a record is written. So a record vertex is its label slot and
//! image id, and a record edge its endpoints and predicate. The per-image
//! graphs of [`crate::sgg::SceneGraphGenerator::generate`] keep boxes and
//! scores for Table V and the demos; merging one drops them, so both
//! outputs merge into the same bytes.

use crate::relation::RELATION_VOCAB;
use std::collections::HashMap;

/// One detected object of a scene record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordVertex {
    /// Slot of this vertex's label in its chunk's label table.
    label: u32,
    /// Id of the image the object was detected in.
    image: u32,
}

impl RecordVertex {
    /// The slot of this vertex's label: its position in
    /// [`SceneRecords::labels`] of the chunk holding it.
    pub fn label_slot(&self) -> usize {
        self.label as usize
    }

    /// The id of the image the object was detected in.
    pub fn image(&self) -> u32 {
        self.image
    }
}

/// One argmax edge of a scene record: `sub —relation→ obj`, endpoints as
/// indexes into the image's own vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordEdge {
    /// Subject vertex, local to the image.
    pub sub: u32,
    /// Object vertex, local to the image.
    pub obj: u32,
    /// Predicate, as an index into [`RELATION_VOCAB`].
    pub(crate) relation: u8,
}

impl RecordEdge {
    /// The edge label (the predicate).
    pub fn label(&self) -> &'static str {
        RELATION_VOCAB[self.relation()]
    }

    /// The predicate's index in [`RELATION_VOCAB`].
    pub fn relation(&self) -> usize {
        usize::from(self.relation)
    }
}

/// The scene graphs of a contiguous run of images, in image order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneRecords {
    /// Every distinct vertex label, in slot order, concatenated.
    label_text: String,
    /// Per label slot: the end offset of its text in `label_text` (it
    /// starts where the previous slot's ends) and its vertex count.
    label_slots: Vec<(u32, u32)>,
    vertices: Vec<RecordVertex>,
    edges: Vec<RecordEdge>,
    /// Per image: end offsets into `vertices` and `edges`.
    ends: Vec<(u32, u32)>,
    /// While recording: the slot of each category label, by its index in
    /// [`crate::scene::CATEGORIES`], and of every other label, by text.
    category_slots: Vec<Option<u32>>,
    other_slots: HashMap<Box<str>, u32>,
}

impl SceneRecords {
    /// An empty record set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of images recorded.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no image is recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total vertices over all images.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Total scene edges over all images.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Every distinct vertex label, in slot order (the order the labels
    /// were first recorded), with the number of vertices carrying it.
    pub fn labels(&self) -> impl Iterator<Item = (&str, usize)> {
        (0..self.label_slots.len())
            .map(|slot| (self.label(slot), self.label_slots[slot].1 as usize))
    }

    /// The text of label slot `slot`.
    fn label(&self, slot: usize) -> &str {
        let start = match slot {
            0 => 0,
            s => self.label_slots[s - 1].0 as usize,
        };
        &self.label_text[start..self.label_slots[slot].0 as usize]
    }

    /// The per-image scene graphs, in image order.
    pub fn scenes(&self) -> impl Iterator<Item = SceneRecord<'_>> {
        self.ends
            .iter()
            .scan((0usize, 0usize), |(v0, e0), &(v1, e1)| {
                let (v1, e1) = (v1 as usize, e1 as usize);
                let scene = SceneRecord {
                    records: self,
                    vertices: &self.vertices[*v0..v1],
                    edges: &self.edges[*e0..e1],
                };
                (*v0, *e0) = (v1, e1);
                Some(scene)
            })
    }

    /// Append a vertex to the image being recorded. `category` is
    /// `label`'s index in [`crate::scene::CATEGORIES`]
    /// ([`crate::scene::category_index`]).
    pub(crate) fn push_vertex(&mut self, label: &str, category: Option<usize>, image: u32) {
        debug_assert_eq!(category, crate::scene::category_index(label));
        let slot = self.label_slot(label, category);
        self.label_slots[slot].1 += 1;
        self.vertices.push(RecordVertex {
            label: to_u32(slot),
            image,
        });
    }

    /// The slot of `label`, numbering it when new.
    fn label_slot(&mut self, label: &str, category: Option<usize>) -> usize {
        let found = match category {
            Some(c) => self.category_slots.get(c).copied().flatten(),
            None => self.other_slots.get(label).copied(),
        };
        if let Some(slot) = found {
            return slot as usize;
        }
        let slot = self.label_slots.len();
        self.label_text.push_str(label);
        self.label_slots.push((to_u32(self.label_text.len()), 0));
        match category {
            Some(c) => {
                if self.category_slots.len() <= c {
                    self.category_slots.resize(c + 1, None);
                }
                self.category_slots[c] = Some(to_u32(slot));
            }
            None => {
                self.other_slots.insert(label.into(), to_u32(slot));
            }
        }
        slot
    }

    /// Append an edge to the image being recorded.
    pub(crate) fn push_edge(&mut self, edge: RecordEdge) {
        self.edges.push(edge);
    }

    /// Close the image being recorded.
    pub(crate) fn end_image(&mut self) {
        self.ends
            .push((to_u32(self.vertices.len()), to_u32(self.edges.len())));
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a scene-record chunk holds fewer than 2^32 items")
}

/// One image's scene graph inside a [`SceneRecords`].
#[derive(Debug, Clone, Copy)]
pub struct SceneRecord<'a> {
    records: &'a SceneRecords,
    vertices: &'a [RecordVertex],
    edges: &'a [RecordEdge],
}

impl<'a> SceneRecord<'a> {
    /// The image's vertices with their labels, in detection order.
    pub fn vertices(&self) -> impl Iterator<Item = (&'a str, &'a RecordVertex)> {
        let records = self.records;
        self.vertices
            .iter()
            .map(move |v| (records.label(v.label_slot()), v))
    }

    /// Number of vertices (detections) in the image.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The image's argmax edges, in pair order.
    pub fn edges(&self) -> &'a [RecordEdge] {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::category_index;

    fn push(r: &mut SceneRecords, label: &str, image: u32) {
        r.push_vertex(label, category_index(label), image);
    }

    fn sample() -> SceneRecords {
        let mut r = SceneRecords::new();
        push(&mut r, "dog", 4);
        push(&mut r, "harry potter", 4);
        r.push_edge(RecordEdge {
            sub: 1,
            obj: 0,
            relation: 2,
        });
        r.end_image();
        r.end_image(); // an image that yielded nothing
        push(&mut r, "grass", 9);
        push(&mut r, "harry potter", 9);
        push(&mut r, "dog", 9);
        r.end_image();
        r
    }

    #[test]
    fn scenes_slice_the_flat_buffers_per_image() {
        let r = sample();
        assert_eq!((r.len(), r.vertex_count(), r.edge_count()), (3, 5, 1));
        // Distinct labels in first-seen order, each counted once per
        // vertex; categories and entities alike.
        assert_eq!(
            r.labels().collect::<Vec<_>>(),
            [("dog", 2), ("harry potter", 2), ("grass", 1)]
        );
        let scenes: Vec<_> = r.scenes().collect();
        let labels = |s: &SceneRecord| s.vertices().map(|(l, _)| l.to_owned()).collect::<Vec<_>>();
        assert_eq!(labels(&scenes[0]), ["dog", "harry potter"]);
        assert!(labels(&scenes[1]).is_empty());
        assert_eq!(labels(&scenes[2]), ["grass", "harry potter", "dog"]);
        let slots: Vec<_> = scenes[2].vertices().map(|(_, v)| v.label_slot()).collect();
        assert_eq!(slots, [2, 1, 0]);
        assert_eq!(scenes[0].edges()[0].label(), "near");
        assert!(scenes[1].edges().is_empty() && scenes[2].edges().is_empty());
        assert_eq!(scenes[2].vertices().next().unwrap().1.image(), 9);
    }

    #[test]
    fn props_are_exactly_sized() {
        // A record holds what the merged graph keeps and nothing more: a
        // vertex its label slot and image id, an edge its endpoints and
        // predicate.
        assert_eq!(std::mem::size_of::<RecordVertex>(), 8);
        assert_eq!(std::mem::size_of::<RecordEdge>(), 12);
        let r = sample();
        let scene = r.scenes().next().unwrap();
        let images: Vec<_> = scene.vertices().map(|(_, v)| v.image()).collect();
        assert_eq!(images, [4, 4]);
        let e = scene.edges()[0];
        assert_eq!((e.sub, e.obj, e.relation()), (1, 0, 2));
    }
}

//! Algorithm 1's attach stage (lines 8–16), the one body behind every way
//! scene graphs enter the merged graph.
//!
//! [`crate::DataAggregator::merge`], [`crate::DataAggregator::merge_records`]
//! and the pipeline's incremental ingestion (`Svqa::add_images`) differ only
//! in where scene graphs come from and how a label's knowledge-graph
//! counterpart is found; [`Attacher`] is everything else.
//!
//! An attach runs in three steps. A census counts every scene vertex label
//! per part (Algorithm 1 line 2's statistic comes from it); scene records
//! arrive with their labels already numbered and counted per chunk, so
//! for them it reads one entry per distinct label per chunk. Each distinct
//! label is then resolved once to its counterpart, which fixes how many
//! link edges every part adds, so the merged graph's arenas and vertex
//! value column grow once by the exact totals. Finally each part fills its
//! own window of the merged graph on its own thread
//! ([`Graph::append_windows`]).
//!
//! The merged graph keeps what the query path reads and nothing else: a
//! scene vertex is handed to its window with its image id, which the
//! window writes under [`svqa_graph::IMAGE_SHAPE`], and scene edges and
//! links go bare. The window is the one writer of a merged vertex's image
//! id, next to its one reader, [`scene_image`]. An input graph's boxes and
//! scores are not copied, so a vertex of a per-image `Graph` is written as
//! its record would be: with its image id when it carries one, bare when
//! it carries none.

use std::collections::HashMap;
use std::ops::Range;
use svqa_graph::{
    scene_image, Graph, GraphWindow, LabelHistogram, LabelId, VertexId, WindowSize, WindowSlots,
    SAME_AS,
};
use svqa_vision::{SceneRecords, RELATION_VOCAB};

/// One input graph's label ids translated to attacher slots: each id's
/// text is looked up once, when the id is first seen, and every later
/// element carrying it costs an array read. Cleared from graph to graph.
#[derive(Default)]
struct LabelSlots(Vec<Option<usize>>);

impl LabelSlots {
    /// The slot of label `id`; `slot` resolves it the first time.
    fn get(&mut self, id: LabelId, slot: impl FnOnce() -> usize) -> usize {
        let i = id.index();
        if self.0.len() <= i {
            self.0.resize(i + 1, None);
        }
        *self.0[i].get_or_insert_with(slot)
    }
}

/// The scene graphs one part attaches, in either held form.
enum Part<'p> {
    /// One [`Graph`] per image.
    Graphs(&'p [Graph]),
    /// Record chunks, each freed as soon as it is attached, with the
    /// attacher slot of each of the chunk's label slots.
    Records(Vec<(SceneRecords, Vec<usize>)>),
}

/// Appends scene graphs to a merged graph, part by part in parallel, and
/// links every new vertex to its knowledge-graph counterpart.
///
/// Per image it appends the vertices, then the scene edges, then the link
/// edges of each vertex in vertex order: the order `Graph::absorb`
/// followed by a link pass gives, so every input form and every split into
/// parts merges into the same graph.
pub struct Attacher<'p> {
    parts: Vec<Part<'p>>,
    /// Number of parts (`parts` is filled by the census).
    part_count: usize,
    /// Distinct scene vertex label → slot, in first-seen order.
    slots: HashMap<Box<str>, usize>,
    /// Vertices per slot and part: `counts[slot * parts + part]`.
    counts: Vec<usize>,
    /// Distinct scene edge label → slot; the relation vocabulary takes
    /// slots `0..RELATION_VOCAB.len()`, so a record edge's slot is its
    /// relation index.
    edge_slots: HashMap<Box<str>, usize>,
    /// Per part: scene vertices, scene edges and image ids.
    sizes: Vec<WindowSize>,
}

/// What an attach appended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attached {
    /// Per image, in input order, the merged indexes its vertices
    /// received.
    pub scene_vertices: Vec<Range<usize>>,
    /// Link edges created (two per linked vertex).
    pub links: usize,
    /// Attached vertices without a knowledge-graph counterpart.
    pub unlinked: usize,
}

impl<'p> Attacher<'p> {
    /// Attach per-image scene graphs, as one part. Each graph's label ids
    /// are translated to slots once per graph.
    pub fn graphs(scene_graphs: &'p [Graph]) -> Self {
        let mut attacher = Self::new(1);
        let mut size = WindowSize::default();
        let (mut labels, mut edge_labels) = (LabelSlots::default(), LabelSlots::default());
        for g in scene_graphs {
            labels.0.clear();
            edge_labels.0.clear();
            for (v, vertex) in g.vertices() {
                let id = vertex.label_id();
                let slot = labels.get(id, || attacher.slot(g.vertex_label_text(id)));
                // One part: the slot's count is its only one.
                attacher.counts[slot] += 1;
                size.vertex_values += usize::from(scene_image(g, v).is_some());
            }
            for (_, e) in g.edges() {
                let id = e.label_id();
                edge_labels.get(id, || attacher.edge_slot(g.edge_label_text(id)));
            }
            size.vertices += g.vertex_count();
            size.edges += g.edge_count();
        }
        attacher.sizes.push(size);
        attacher.parts.push(Part::Graphs(scene_graphs));
        attacher
    }

    /// Attach record chunks, one part per inner `Vec` (one thread each).
    /// Each chunk is freed as soon as it is attached. The census reads
    /// each chunk's label table, which numbers its distinct labels in
    /// first-seen order with their counts: taken chunk by chunk, part by
    /// part, that numbers the attacher's slots in the order a census of
    /// every vertex would.
    pub fn records(parts: Vec<Vec<SceneRecords>>) -> Attacher<'static> {
        let mut attacher = Attacher::new(parts.len());
        for (p, chunks) in parts.into_iter().enumerate() {
            let (mut vertices, mut edges) = (0, 0);
            let chunks: Vec<_> = chunks
                .into_iter()
                .map(|records| {
                    vertices += records.vertex_count();
                    edges += records.edge_count();
                    let slots = records
                        .labels()
                        .map(|(label, count)| {
                            let slot = attacher.slot(label);
                            attacher.counts[slot * attacher.part_count + p] += count;
                            slot
                        })
                        .collect();
                    (records, slots)
                })
                .collect();
            attacher.sizes.push(WindowSize {
                vertices,
                edges,
                vertex_values: vertices,
            });
            attacher.parts.push(Part::Records(chunks));
        }
        attacher
    }

    fn new(part_count: usize) -> Self {
        Attacher {
            parts: Vec::with_capacity(part_count),
            part_count,
            slots: HashMap::new(),
            counts: Vec::new(),
            edge_slots: RELATION_VOCAB
                .iter()
                .enumerate()
                .map(|(slot, &label)| (label.into(), slot))
                .collect(),
            sizes: Vec::with_capacity(part_count),
        }
    }

    /// The slot of vertex label `label`, numbering it when new.
    fn slot(&mut self, label: &str) -> usize {
        match self.slots.get(label) {
            Some(&slot) => slot,
            None => {
                let slot = self.slots.len();
                self.slots.insert(label.into(), slot);
                self.counts.resize(self.counts.len() + self.part_count, 0);
                slot
            }
        }
    }

    /// The slot of edge label `label`, numbering it when new.
    fn edge_slot(&mut self, label: &str) -> usize {
        match self.edge_slots.get(label) {
            Some(&slot) => slot,
            None => {
                let slot = self.edge_slots.len();
                self.edge_slots.insert(label.into(), slot);
                slot
            }
        }
    }

    /// Vertices labeled with `slot`, over all parts.
    fn total(&self, slot: usize) -> usize {
        let parts = self.part_count;
        self.counts[slot * parts..(slot + 1) * parts].iter().sum()
    }

    /// Algorithm 1 line 2: category counts over every scene vertex.
    pub fn histogram(&self) -> LabelHistogram {
        LabelHistogram::from_counts(
            self.slots
                .iter()
                .map(|(label, &slot)| (&**label, self.total(slot))),
        )
    }

    /// Attach every part to `merged`, linking with [`SAME_AS`] edges.
    /// `counterpart(merged, label, count)` maps a scene label to its
    /// knowledge-graph vertex in `merged` (handed the graph as it stands
    /// before the attach), or `None`; it is called once per distinct label,
    /// with the number of scene vertices carrying it.
    pub fn attach<F>(self, merged: &mut Graph, mut counterpart: F) -> Attached
    where
        F: FnMut(&Graph, &str, usize) -> Option<VertexId>,
    {
        let parts = self.part_count;
        let mut labels = vec![""; self.slots.len()];
        for (label, &slot) in &self.slots {
            labels[slot] = &**label;
        }
        // Lines 9–14, once per distinct label.
        let resolved: Vec<Option<VertexId>> = labels
            .iter()
            .enumerate()
            .map(|(slot, label)| counterpart(&*merged, label, self.total(slot)))
            .collect();
        let mut linked = vec![0; parts];
        for (slot, _) in resolved.iter().enumerate().filter(|(_, kg)| kg.is_some()) {
            for (part, n) in linked.iter_mut().enumerate() {
                *n += self.counts[slot * parts + part];
            }
        }
        let mut edge_labels = vec![""; self.edge_slots.len() + 1];
        for (label, &slot) in &self.edge_slots {
            edge_labels[slot] = &**label;
        }
        let link = self.edge_slots.len();
        edge_labels[link] = SAME_AS;

        let windows: Vec<_> = self
            .sizes
            .iter()
            .zip(&linked)
            .map(|(&size, &linked)| WindowSize {
                edges: size.edges + 2 * linked,
                ..size
            })
            .zip(self.parts)
            .collect();
        let plan = Plan {
            slots: &self.slots,
            edge_slots: &self.edge_slots,
            resolved: &resolved,
            link,
        };
        let slots = WindowSlots {
            vertex_labels: &labels,
            edge_labels: &edge_labels,
        };
        let scene_vertices = merged
            .append_windows(&slots, windows, |part, window| {
                plan.attach_part(part, window)
            })
            .concat();
        let (vertices, linked) = (
            self.sizes.iter().map(|size| size.vertices).sum::<usize>(),
            linked.iter().sum::<usize>(),
        );
        Attached {
            scene_vertices,
            links: 2 * linked,
            unlinked: vertices - linked,
        }
    }
}

/// What every part's thread reads: label slots and the labels'
/// resolutions.
struct Plan<'a> {
    slots: &'a HashMap<Box<str>, usize>,
    edge_slots: &'a HashMap<Box<str>, usize>,
    /// Per vertex-label slot: the knowledge-graph counterpart.
    resolved: &'a [Option<VertexId>],
    /// Edge-label slot of the link edges.
    link: usize,
}

impl Plan<'_> {
    /// Fill one part's window; the merged ranges of its images.
    fn attach_part(&self, part: Part<'_>, window: &mut GraphWindow<'_>) -> Vec<Range<usize>> {
        let mut counterparts = Vec::new();
        match part {
            Part::Graphs(graphs) => {
                let (mut labels, mut edge_labels) = (LabelSlots::default(), LabelSlots::default());
                graphs
                    .iter()
                    .map(|g| {
                        labels.0.clear();
                        edge_labels.0.clear();
                        self.attach_image(
                            window,
                            &mut counterparts,
                            g.vertices().map(|(id, v)| {
                                let label = v.label_id();
                                (
                                    labels.get(label, || self.slots[g.vertex_label_text(label)]),
                                    scene_image(g, id),
                                )
                            }),
                            g.edges().map(|(_, e)| {
                                let label = e.label_id();
                                (
                                    e.src().index(),
                                    e.dst().index(),
                                    edge_labels
                                        .get(label, || self.edge_slots[g.edge_label_text(label)]),
                                )
                            }),
                        )
                    })
                    .collect()
            }
            Part::Records(chunks) => {
                let mut ranges = Vec::new();
                for (records, slots) in chunks {
                    for scene in records.scenes() {
                        ranges.push(
                            self.attach_image(
                                window,
                                &mut counterparts,
                                scene.vertices().map(|(_, v)| {
                                    (slots[v.label_slot()], Some(i64::from(v.image())))
                                }),
                                scene
                                    .edges()
                                    .iter()
                                    .map(|e| (e.sub as usize, e.obj as usize, e.relation())),
                            ),
                        );
                    }
                    // `records` is dropped here, before the next chunk's
                    // vertices allocate: its memory is reused right away.
                }
                ranges
            }
        }
    }

    /// The attach body for one image: vertices (label slot, image id),
    /// scene edges (endpoints local to the image, edge-label slot), then
    /// links. `counterparts` is scratch space.
    fn attach_image(
        &self,
        window: &mut GraphWindow<'_>,
        counterparts: &mut Vec<Option<VertexId>>,
        vertices: impl Iterator<Item = (usize, Option<i64>)>,
        edges: impl Iterator<Item = (usize, usize, usize)>,
    ) -> Range<usize> {
        let first = window.next_vertex().index();
        counterparts.clear();
        for (slot, image) in vertices {
            window.push_vertex(slot, image);
            counterparts.push(self.resolved[slot]);
        }
        let local = |i: usize| VertexId::from_index(first + i);
        for (sub, obj, slot) in edges {
            window
                .push_edge(local(sub), local(obj), slot)
                .expect("scene edge endpoints are the image's own vertices");
        }
        // Lines 9–14: connect(v, v') in both directions so the executor
        // can traverse either way.
        for (i, kg) in counterparts.iter().enumerate() {
            if let Some(kg) = *kg {
                let v = local(i);
                window
                    .push_edge(v, kg, self.link)
                    .expect("counterparts predate the attach");
                window
                    .push_edge(kg, v, self.link)
                    .expect("counterparts predate the attach");
            }
        }
        first..first + counterparts.len()
    }
}

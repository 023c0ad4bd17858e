//! Bulk appends filled in parallel windows.
//!
//! Merging thousands of scene graphs appends tens of thousands of vertices
//! and edges whose counts are known before the first one is written.
//! [`Graph::append_windows`] grows the element arenas once by the exact
//! totals, splits the new slots into one disjoint [`GraphWindow`] per part,
//! and fills each window on its own thread with final ids. A window writes
//! each vertex whole, its label and its image id if it has one
//! ([`GraphWindow::push_vertex`]), so filling it allocates nothing per
//! element. Appended edges carry nothing but their endpoints and labels. A
//! short serial stitch then folds what a window cannot write itself — its
//! label-index lists and its edge-label counts — into the graph in window
//! order, and one counting sort over the edge arena rebuilds both
//! adjacency indexes. The result is the graph that
//! [`Graph::add_vertex`] / [`Graph::add_scene_vertex`] / [`Graph::add_edge`]
//! calls with the same labels and image ids in the same order would give,
//! label ids and adjacency included.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::label::LabelId;
use crate::vertex::Vertex;

/// How many vertices and edges one window appends, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSize {
    /// Vertices the window's part appends.
    pub vertices: usize,
    /// Edges the window's part appends.
    pub edges: usize,
}

/// The label texts the windows of one [`Graph::append_windows`] refer to
/// by slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSlots<'a> {
    /// Vertex labels.
    pub vertex_labels: &'a [&'a str],
    /// Edge labels.
    pub edge_labels: &'a [&'a str],
}

/// One part's run of new vertex and edge slots, filled in order.
///
/// Labels are given as slots into the lists of the [`WindowSlots`] passed
/// to [`Graph::append_windows`]. An edge may join the window's own vertices
/// and vertices that existed before the append, not another window's.
pub struct GraphWindow<'g> {
    /// Vertices that existed before the append.
    existing: usize,
    first_vertex: usize,
    first_edge: usize,
    vertices: &'g mut [Vertex],
    edges: &'g mut [Edge],
    filled_vertices: usize,
    filled_edges: usize,
    vertex_labels: &'g [LabelId],
    edge_labels: &'g [LabelId],
    log: StitchLog,
}

/// What a window leaves for the serial stitch.
struct StitchLog {
    /// Per vertex-label slot: the window's vertices carrying it, ascending.
    label_lists: Vec<Vec<VertexId>>,
    /// Per edge-label slot: the window's edges carrying it.
    edge_counts: Vec<usize>,
}

impl GraphWindow<'_> {
    /// The id the next [`push_vertex`](Self::push_vertex) returns.
    pub fn next_vertex(&self) -> VertexId {
        VertexId::from_index(self.first_vertex + self.filled_vertices)
    }

    /// Append a vertex labeled with vertex-label slot `label`: a scene
    /// vertex when `image` is its image id, a bare vertex when it is
    /// `None`.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared vertex count, `label` is
    /// not a slot, or `image` is `u32::MAX`, the one id a vertex cannot
    /// hold.
    pub fn push_vertex(&mut self, label: usize, image: Option<u32>) -> VertexId {
        let id = self.next_vertex();
        let slot = self
            .vertices
            .get_mut(self.filled_vertices)
            .expect("window holds its declared vertex count");
        *slot = Vertex::new(self.vertex_labels[label], image);
        self.log.label_lists[label].push(id);
        self.filled_vertices += 1;
        id
    }

    /// Append a directed edge `src → dst` labeled with edge-label slot
    /// `label`. Each endpoint must be a vertex this window pushed or one
    /// that existed before the append.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared edge count, or `label`
    /// is not a slot.
    pub fn push_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: usize,
    ) -> Result<EdgeId, GraphError> {
        self.check_endpoint(src)?;
        self.check_endpoint(dst)?;
        let id = EdgeId::from_index(self.first_edge + self.filled_edges);
        let slot = self
            .edges
            .get_mut(self.filled_edges)
            .expect("window holds its declared edge count");
        *slot = Edge::new(src, dst, self.edge_labels[label]);
        self.log.edge_counts[label] += 1;
        self.filled_edges += 1;
        Ok(id)
    }

    /// `Ok` for a vertex this window pushed or one that existed before the
    /// append.
    fn check_endpoint(&self, v: VertexId) -> Result<(), GraphError> {
        let i = v.index();
        if i < self.existing
            || (self.first_vertex..self.first_vertex + self.filled_vertices).contains(&i)
        {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// The stitch log of a window filled exactly.
    fn finish(self) -> StitchLog {
        assert!(
            self.filled_vertices == self.vertices.len() && self.filled_edges == self.edges.len(),
            "window filled {} of {} vertices and {} of {} edges",
            self.filled_vertices,
            self.vertices.len(),
            self.filled_edges,
            self.edges.len(),
        );
        self.log
    }
}

/// Grow `arena` by `n` copies of `placeholder()` to exactly its new length
/// and return the new tail. Spare room the arena had beyond that is copied
/// to a fresh allocation of the final length rather than shrunk in place,
/// which would leave the freed tail behind as a heap fragment.
fn grow<T>(arena: &mut Vec<T>, n: usize, placeholder: impl FnMut() -> T) -> &mut [T] {
    let old = arena.len();
    arena.reserve_exact(n);
    arena.extend(std::iter::repeat_with(placeholder).take(n));
    if arena.len() != arena.capacity() {
        let mut exact = Vec::with_capacity(arena.len());
        exact.append(arena);
        *arena = exact;
    }
    &mut arena[old..]
}

impl Graph {
    /// Append `parts` in parallel windows: grow the arenas by exactly the
    /// summed [`WindowSize`]s, then run `fill(part, window)` for each part
    /// — the first on the calling thread, the rest on scoped threads — and
    /// stitch the windows in part order. Returns `fill`'s results in part
    /// order.
    ///
    /// The labels in `slots` are what the windows refer to by slot; each is
    /// resolved once to its id in this graph's tables, and windows copy
    /// ids. The graph ends up as if every vertex and edge had been added
    /// one by one, window after window.
    ///
    /// # Panics
    ///
    /// When `fill` leaves its window short of the declared size, or panics
    /// itself (the panic is resumed on the calling thread). Either is a bug
    /// in the caller, and it leaves the graph unusable: unfilled slots hold
    /// placeholders and nothing is stitched.
    pub fn append_windows<P, R, F>(
        &mut self,
        slots: &WindowSlots<'_>,
        parts: Vec<(WindowSize, P)>,
        fill: F,
    ) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P, &mut GraphWindow<'_>) -> R + Sync,
    {
        let vertex_labels: Vec<LabelId> = slots
            .vertex_labels
            .iter()
            .map(|text| self.label_index.intern(text))
            .collect();
        let edge_labels: Vec<LabelId> = slots
            .edge_labels
            .iter()
            .map(|text| self.edge_label_counts.intern(text))
            .collect();
        let existing = self.vertices.len();
        let first_edge = self.edges.len();
        let total =
            |count: fn(&WindowSize) -> usize| parts.iter().map(|(size, _)| count(size)).sum();
        // Placeholders until the windows fill their slots.
        let (label, nowhere) = (LabelId(0), VertexId::from_index(0));
        let mut vertices = grow(&mut self.vertices, total(|s| s.vertices), || {
            Vertex::new(label, None)
        });
        let mut edges = grow(&mut self.edges, total(|s| s.edges), || {
            Edge::new(nowhere, nowhere, label)
        });

        let (mut first_vertex, mut next_edge) = (existing, first_edge);
        let mut windows = Vec::with_capacity(parts.len());
        for (size, part) in parts {
            let (v, v_rest) = std::mem::take(&mut vertices).split_at_mut(size.vertices);
            let (e, e_rest) = std::mem::take(&mut edges).split_at_mut(size.edges);
            (vertices, edges) = (v_rest, e_rest);
            let window = GraphWindow {
                existing,
                first_vertex,
                first_edge: next_edge,
                vertices: v,
                edges: e,
                filled_vertices: 0,
                filled_edges: 0,
                vertex_labels: &vertex_labels,
                edge_labels: &edge_labels,
                log: StitchLog {
                    label_lists: vec![Vec::new(); vertex_labels.len()],
                    edge_counts: vec![0; edge_labels.len()],
                },
            };
            first_vertex += size.vertices;
            next_edge += size.edges;
            windows.push((window, part));
        }

        let run = |(mut window, part): (GraphWindow<'_>, P)| {
            let result = fill(part, &mut window);
            (result, window.finish())
        };
        let filled: Vec<(R, StitchLog)> = std::thread::scope(|scope| {
            let mut windows = windows.into_iter();
            let Some(first) = windows.next() else {
                return Vec::new();
            };
            let rest: Vec<_> = windows.map(|w| scope.spawn(move || run(w))).collect();
            let mut filled = Vec::with_capacity(rest.len() + 1);
            filled.push(run(first));
            for worker in rest {
                filled.push(
                    worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            filled
        });

        let (results, logs): (Vec<R>, Vec<StitchLog>) = filled.into_iter().unzip();
        self.stitch(&vertex_labels, &edge_labels, logs);
        self.index_adjacency();
        results
    }

    /// Fold the filled windows' logs into the label index and the
    /// edge-label counts, in window order. Each label's vertex list grows
    /// once, by exactly the windows' entries. The entries are copied rather
    /// than adopted: a list a window thread grew lives in that thread's
    /// malloc arena, and keeping it would pin the memory the thread freed
    /// there (its scene records) in the resident set.
    fn stitch(&mut self, vertex_labels: &[LabelId], edge_labels: &[LabelId], logs: Vec<StitchLog>) {
        for (slot, &label) in vertex_labels.iter().enumerate() {
            let ids = self.label_index.value_mut(label);
            ids.reserve_exact(logs.iter().map(|log| log.label_lists[slot].len()).sum());
            for log in &logs {
                ids.extend_from_slice(&log.label_lists[slot]);
            }
        }
        for log in &logs {
            for (&label, count) in edge_labels.iter().zip(&log.edge_counts) {
                *self.edge_label_counts.value_mut(label) += count;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{binio, scene_image};

    const SLOTS: WindowSlots<'static> = WindowSlots {
        vertex_labels: &["a", "b"],
        edge_labels: &["x", "same as"],
    };

    /// Part `p` is a chain of `n` vertices labeled `"a"`/`"b"` with `"x"`
    /// edges, each vertex also linked both ways to pre-existing vertex 0.
    /// The `"a"` vertices carry an image id; the `"b"` vertices carry
    /// nothing.
    fn chain(n: usize) -> WindowSize {
        WindowSize {
            vertices: n,
            edges: n.saturating_sub(1) + 2 * n,
        }
    }

    /// Vertex `i`'s image id: even vertices carry one, odd ones none.
    fn image(i: usize) -> Option<u32> {
        i.is_multiple_of(2).then_some(i as u32 + 3)
    }

    fn fill_chain(n: usize, w: &mut GraphWindow<'_>) {
        let hub = VertexId::from_index(0);
        let first = w.next_vertex().index();
        for i in 0..n {
            w.push_vertex(i % 2, image(i));
        }
        for i in 1..n {
            let (a, b) = (
                VertexId::from_index(first + i - 1),
                VertexId::from_index(first + i),
            );
            w.push_edge(a, b, 0).unwrap();
        }
        for i in 0..n {
            let v = VertexId::from_index(first + i);
            w.push_edge(v, hub, 1).unwrap();
            w.push_edge(hub, v, 1).unwrap();
        }
    }

    /// The same chains added one element at a time.
    fn sequential(base: &Graph, lens: &[usize]) -> Graph {
        let mut g = base.clone();
        let hub = VertexId::from_index(0);
        for &n in lens {
            let first = g.vertex_count();
            for i in 0..n {
                let label = ["a", "b"][i % 2];
                match image(i) {
                    Some(image) => g.add_scene_vertex(label, image),
                    None => g.add_vertex(label),
                };
            }
            for i in 1..n {
                let (a, b) = (
                    VertexId::from_index(first + i - 1),
                    VertexId::from_index(first + i),
                );
                g.add_edge(a, b, "x").unwrap();
            }
            for i in 0..n {
                let v = VertexId::from_index(first + i);
                g.add_edge(v, hub, "same as").unwrap();
                g.add_edge(hub, v, "same as").unwrap();
            }
        }
        g
    }

    /// A scene vertex, a bare one and an edge between them.
    fn base() -> Graph {
        let mut g = Graph::with_capacity(2, 1);
        let hub = g.add_scene_vertex("a", 7);
        let other = g.add_vertex("kg");
        g.add_edge(hub, other, "same as").unwrap();
        g
    }

    #[test]
    fn windows_build_the_sequential_graph() {
        for lens in [vec![], vec![0], vec![5], vec![3, 0, 7], vec![1, 2, 3, 4]] {
            let mut g = base();
            let parts = lens.iter().map(|&n| (chain(n), n)).collect();
            let firsts = g.append_windows(&SLOTS, parts, |n, w| {
                let first = w.next_vertex();
                fill_chain(n, w);
                first
            });
            let want = sequential(&base(), &lens);
            assert_eq!(
                binio::to_bytes(&g).unwrap(),
                binio::to_bytes(&want).unwrap(),
                "{lens:?}"
            );
            g.validate().unwrap();
            for label in ["a", "b", "kg"] {
                assert_eq!(
                    g.vertices_with_label(label),
                    want.vertices_with_label(label)
                );
            }
            let sorted = |g: &Graph| {
                let mut c: Vec<_> = g
                    .edge_label_counts()
                    .map(|(l, n)| (l.to_owned(), n))
                    .collect();
                c.sort();
                c
            };
            assert_eq!(sorted(&g), sorted(&want));
            let mut at = 2;
            for (first, n) in firsts.iter().zip(&lens) {
                assert_eq!(first.index(), at);
                at += n;
            }
            // Both adjacency indexes are the sequential graph's.
            for (ours, theirs) in [(&g.outgoing, &want.outgoing), (&g.incoming, &want.incoming)] {
                assert_eq!(ours.offsets, theirs.offsets, "{lens:?}");
                assert_eq!(ours.ids, theirs.ids, "{lens:?}");
            }
            // Exact sizing leaves no spare arena or adjacency capacity.
            assert_eq!(g.vertices.capacity(), g.vertices.len());
            assert_eq!(g.edges.capacity(), g.edges.len());
            for index in [&g.outgoing, &g.incoming] {
                assert_eq!(index.offsets.capacity(), index.offsets.len());
                assert_eq!(index.ids.capacity(), index.ids.len());
            }
            for (id, _) in want.vertices() {
                assert_eq!(scene_image(&g, id), scene_image(&want, id));
            }
        }
    }

    #[test]
    fn labels_are_shared_with_the_graph() {
        let mut g = base();
        g.append_windows(&SLOTS, vec![(chain(2), 2), (chain(2), 2)], fill_chain);
        let label = |v: usize| g.vertices[v].label;
        // "a" was known: every new "a" vertex carries the graph's id.
        assert_eq!(label(0), label(2));
        // "b" was new: both windows carry the one id it was given.
        assert_eq!(label(3), label(5));
        assert_eq!(g.vertex_label_id("b"), Some(label(3)));
        assert_eq!(g.label_index.len(), 3);
        assert_eq!(g.edges[0].label, g.edges[2].label);
        assert_eq!(g.edge_label_id("same as"), Some(g.edges[0].label));
        // Each window's "a" vertices carry their image ids, its "b"
        // vertices none.
        let image = |v: usize| scene_image(&g, VertexId::from_index(v));
        assert_eq!([image(0), image(1)], [Some(7), None]);
        assert_eq!(
            [image(2), image(3), image(4), image(5)],
            [Some(3), None, Some(3), None]
        );
    }

    #[test]
    fn unused_slot_labels_stay_out_of_the_counts() {
        let mut g = base();
        let slots = WindowSlots {
            vertex_labels: &["a", "b", "unused"],
            edge_labels: &["x", "same as", "idle"],
        };
        g.append_windows(&slots, vec![(chain(1), 1)], fill_chain);
        assert!(g.vertices_with_label("unused").is_empty());
        assert!(g.vertex_label_counts().all(|(l, n)| l != "unused" && n > 0));
        assert!(g.edge_label_counts().all(|(l, n)| l != "idle" && n > 0));
    }

    #[test]
    fn edges_into_another_window_are_rejected() {
        let mut g = base();
        let parts = vec![(chain(1), 1), (WindowSize::default(), 0)];
        let errors = g.append_windows(&SLOTS, parts, |n, w| {
            // Part 0's vertex, seen from part 1.
            let outside = VertexId::from_index(2);
            let result = (n == 0).then(|| w.push_edge(outside, outside, 0));
            if n == 1 {
                fill_chain(1, w);
            }
            result
        });
        assert_eq!(errors[0], None);
        assert_eq!(
            errors[1],
            Some(Err(GraphError::UnknownVertex(VertexId::from_index(2))))
        );
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "window filled 0 of 1 vertices")]
    fn a_short_window_panics() {
        let mut g = base();
        g.append_windows(&SLOTS, vec![(chain(1), ())], |(), _| ());
    }

    #[test]
    #[should_panic(expected = "window holds its declared vertex count")]
    fn a_window_holds_its_declared_image_count() {
        // A window's image ids are its scene vertices, so its declared
        // vertex count bounds them: a part declared with no vertices that
        // pushes a scene vertex panics.
        base().append_windows(&SLOTS, vec![(WindowSize::default(), ())], |(), w| {
            w.push_vertex(0, Some(1));
        });
    }

    #[test]
    fn scene_images_must_fit_the_vertex() {
        // The largest id a vertex holds goes in through either writer, and
        // the one `u32` past it, which a vertex cannot hold, panics in both.
        let mut g = base();
        let v = g.add_scene_vertex("a", crate::vertex::MAX_IMAGE);
        assert_eq!(scene_image(&g, v), Some(u32::MAX - 1));
        let one = WindowSize {
            vertices: 1,
            edges: 0,
        };
        let pushed = g.append_windows(&SLOTS, vec![(one, ())], |(), w| {
            w.push_vertex(0, Some(u32::MAX - 1))
        });
        assert_eq!(scene_image(&g, pushed[0]), Some(u32::MAX - 1));
        let overflow = "image id 4294967295 over the largest a vertex holds";
        for add in [
            Box::new(|| {
                base().add_scene_vertex("a", u32::MAX);
            }) as Box<dyn FnOnce()>,
            Box::new(|| {
                base().append_windows(&SLOTS, vec![(one, ())], |(), w| {
                    w.push_vertex(0, Some(u32::MAX));
                });
            }),
        ] {
            let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(add))
                .map(|()| String::new())
                .unwrap_or_else(|panic| {
                    panic.downcast_ref::<String>().cloned().unwrap_or_default()
                });
            assert!(message.contains(overflow), "{message:?}");
        }
    }
}

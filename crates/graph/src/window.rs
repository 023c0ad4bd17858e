//! Bulk appends filled in parallel windows.
//!
//! Merging thousands of scene graphs appends tens of thousands of vertices,
//! edges and image ids whose counts are known before the first one is
//! written. [`Graph::append_windows`] grows the element arenas and the
//! vertex column's word arena once by the exact totals, splits the new
//! slots into one disjoint [`GraphWindow`] per part, and fills each window
//! on its own thread with final ids. A window writes a vertex bare or under
//! [`IMAGE_SHAPE`], its image id's word straight into its run of the
//! column, so filling it allocates nothing per element and the type of
//! [`GraphWindow::push_vertex`] fixes the shape. Each window also records
//! its own vertex run table, one entry per stretch of its vertices sharing
//! a shape. Appended edges carry no properties: the merged graph's edges
//! are labels and endpoints only. A short serial stitch then folds what a
//! window cannot write itself — its label-index lists, its edge-label
//! counts and its vertex shape runs — into the graph in window order,
//! covers the new edges with one bare run, and one counting sort over the
//! edge arena rebuilds both adjacency indexes. The result is the graph that
//! [`Graph::add_vertex_with_props`] / [`Graph::add_edge`] calls with the
//! same labels, shapes and values in the same order would give, label ids,
//! property shapes and adjacency included.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::label::LabelId;
use crate::props::{exact, folded_len, push_run, Run, Value, Word, IMAGE_SHAPE};
use crate::vertex::Vertex;

/// How many vertices, edges and image ids one window appends, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSize {
    /// Vertices the window's part appends.
    pub vertices: usize,
    /// Edges the window's part appends.
    pub edges: usize,
    /// Those of the vertices that carry an image id: one word each.
    pub vertex_values: usize,
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
    vertex_values: ValueRun<'g>,
    vertex_labels: &'g [LabelId],
    edge_labels: &'g [LabelId],
    log: StitchLog,
}

/// A window's run of the vertex column's words, filled in order.
struct ValueRun<'g> {
    /// Column index of the run's first word.
    first: usize,
    words: &'g mut [Word],
    filled: usize,
    /// The vertex column's id of [`IMAGE_SHAPE`].
    image_shape: u32,
    /// The window's own run table over its elements, in column indexes.
    runs: Vec<Run>,
}

impl ValueRun<'_> {
    /// Write element `element`: under [`IMAGE_SHAPE`] with `image`'s word,
    /// or bare.
    fn write(&mut self, element: usize, image: Option<i64>) {
        let shape = if image.is_some() { self.image_shape } else { 0 };
        push_run(
            &mut self.runs,
            Run::new(element, shape, self.first + self.filled),
        );
        if let Some(image) = image {
            *self
                .words
                .get_mut(self.filled)
                .expect("window holds its declared value count") = Value::Int(image).word();
            self.filled += 1;
        }
    }
}

/// What a window leaves for the serial stitch.
struct StitchLog {
    /// Per vertex-label slot: the window's vertices carrying it, ascending.
    label_lists: Vec<Vec<VertexId>>,
    /// Per edge-label slot: the window's edges carrying it.
    edge_counts: Vec<usize>,
    /// The window's vertex run table.
    shape_runs: Vec<Run>,
}

impl GraphWindow<'_> {
    /// The id the next [`push_vertex`](Self::push_vertex) returns.
    pub fn next_vertex(&self) -> VertexId {
        VertexId::from_index(self.first_vertex + self.filled_vertices)
    }

    /// Append a vertex labeled with vertex-label slot `label`: a scene
    /// vertex under [`IMAGE_SHAPE`] when `image` is its image id, a bare
    /// vertex when it is `None`.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared vertex count, or its
    /// declared value count and `image` is `Some`, or `label` is not a
    /// slot.
    pub fn push_vertex(&mut self, label: usize, image: Option<i64>) -> VertexId {
        let id = self.next_vertex();
        let slot = self
            .vertices
            .get_mut(self.filled_vertices)
            .expect("window holds its declared vertex count");
        self.vertex_values.write(id.index(), image);
        *slot = Vertex::new(self.vertex_labels[label]);
        self.log.label_lists[label].push(id);
        self.filled_vertices += 1;
        id
    }

    /// Append a directed edge `src → dst` labeled with edge-label slot
    /// `label`, with no properties. Each endpoint must be a vertex this
    /// window pushed or one that existed before the append.
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
        let values = &self.vertex_values;
        assert!(
            self.filled_vertices == self.vertices.len()
                && self.filled_edges == self.edges.len()
                && values.filled == values.words.len(),
            "window filled {} of {} vertices and {} of {} edges, \
             and {} of {} vertex values",
            self.filled_vertices,
            self.vertices.len(),
            self.filled_edges,
            self.edges.len(),
            values.filled,
            values.words.len(),
        );
        let mut log = self.log;
        log.shape_runs = self.vertex_values.runs;
        log
    }
}

/// Grow `arena` by `n` copies of `placeholder()` to exactly its new length
/// and return the new tail. Spare room the arena had beyond that is copied
/// away, never shrunk in place.
fn grow<T>(arena: &mut Vec<T>, n: usize, placeholder: impl FnMut() -> T) -> &mut [T] {
    let old = arena.len();
    arena.reserve_exact(n);
    arena.extend(std::iter::repeat_with(placeholder).take(n));
    *arena = exact(std::mem::take(arena));
    &mut arena[old..]
}

impl Graph {
    /// Append `parts` in parallel windows: grow the arenas and the vertex
    /// value column by exactly the summed [`WindowSize`]s, then run
    /// `fill(part, window)` for each part — the first on the calling
    /// thread, the rest on scoped threads — and stitch the windows in
    /// part order. Returns `fill`'s results in part order.
    ///
    /// The labels in `slots` are what the windows refer to by slot; each is
    /// resolved once to its id in this graph's tables, and windows copy
    /// ids. The graph ends up as if every vertex and edge had been added
    /// one by one, window after window, each vertex bare or under
    /// [`IMAGE_SHAPE`] and each edge with no properties.
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
        let image_shape = self
            .vertex_column
            .shape(IMAGE_SHAPE.keys, IMAGE_SHAPE.kinds.iter().copied());
        let existing = self.vertices.len();
        let first_edge = self.edges.len();
        let first_value = self.vertex_column.words.len();
        let total =
            |count: fn(&WindowSize) -> usize| parts.iter().map(|(size, _)| count(size)).sum();
        // Placeholders until the windows fill their slots; they allocate
        // nothing.
        let (label, nowhere) = (LabelId(0), VertexId::from_index(0));
        let mut vertices = grow(&mut self.vertices, total(|s| s.vertices), || {
            Vertex::new(label)
        });
        let mut edges = grow(&mut self.edges, total(|s| s.edges), || {
            Edge::new(nowhere, nowhere, label)
        });
        let mut vertex_values = grow(
            &mut self.vertex_column.words,
            total(|s| s.vertex_values),
            || 0,
        );

        let (mut first_vertex, mut next_edge, mut first_vertex_value) =
            (existing, first_edge, first_value);
        let mut windows = Vec::with_capacity(parts.len());
        for (size, part) in parts {
            let (v, v_rest) = std::mem::take(&mut vertices).split_at_mut(size.vertices);
            let (e, e_rest) = std::mem::take(&mut edges).split_at_mut(size.edges);
            let (vv, vv_rest) = std::mem::take(&mut vertex_values).split_at_mut(size.vertex_values);
            (vertices, edges, vertex_values) = (v_rest, e_rest, vv_rest);
            let window = GraphWindow {
                existing,
                first_vertex,
                first_edge: next_edge,
                vertices: v,
                edges: e,
                filled_vertices: 0,
                filled_edges: 0,
                vertex_values: ValueRun {
                    first: first_vertex_value,
                    words: vv,
                    filled: 0,
                    image_shape,
                    runs: Vec::new(),
                },
                vertex_labels: &vertex_labels,
                edge_labels: &edge_labels,
                log: StitchLog {
                    label_lists: vec![Vec::new(); vertex_labels.len()],
                    edge_counts: vec![0; edge_labels.len()],
                    shape_runs: Vec::new(),
                },
            };
            first_vertex += size.vertices;
            next_edge += size.edges;
            first_vertex_value += size.vertex_values;
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
        self.stitch(&vertex_labels, &edge_labels, first_edge, logs);
        self.index_adjacency();
        results
    }

    /// Fold the filled windows' logs into the label index, the edge-label
    /// counts and the vertex column's run table, in window order, and cover
    /// the edges from `first_edge` on with one bare run. Each label's
    /// vertex list grows once, by exactly the windows' entries, and each
    /// run table is allocated
    /// once, at its final size: a window's first run folds into the run
    /// before it when they share a shape, and the edges' bare run into a
    /// bare last run. The entries are copied rather than adopted: a list a
    /// window thread grew lives in that thread's malloc arena, and keeping
    /// it would pin the memory the thread freed there (its scene records)
    /// in the resident set.
    fn stitch(
        &mut self,
        vertex_labels: &[LabelId],
        edge_labels: &[LabelId],
        first_edge: usize,
        logs: Vec<StitchLog>,
    ) {
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
        let column = &mut self.vertex_column;
        column.runs = folded(
            std::mem::take(&mut column.runs)
                .iter()
                .chain(logs.iter().flat_map(|log| &log.shape_runs)),
        );

        let column = &mut self.edge_column;
        let bare =
            (first_edge < self.edges.len()).then(|| Run::new(first_edge, 0, column.words.len()));
        column.runs = folded(std::mem::take(&mut column.runs).iter().chain(&bare));
        column.words = exact(std::mem::take(&mut column.words));
    }
}

/// `runs` as one exactly sized run table, each run folded into the run
/// before it when they share a shape.
fn folded<'r>(runs: impl Iterator<Item = &'r Run> + Clone) -> Vec<Run> {
    let mut table = Vec::with_capacity(folded_len(runs.clone()));
    for &run in runs {
        push_run(&mut table, run);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio;
    use crate::props::{Kind, Shape};

    const SLOTS: WindowSlots<'static> = WindowSlots {
        vertex_labels: &["a", "b"],
        edge_labels: &["x", "same as"],
    };

    /// Part `p` is a chain of `n` vertices labeled `"a"`/`"b"` with `"x"`
    /// edges, each vertex also linked both ways to pre-existing vertex 0.
    /// The `"a"` vertices carry an image id; the `"b"` vertices and every
    /// edge carry nothing.
    fn chain(n: usize) -> WindowSize {
        WindowSize {
            vertices: n,
            edges: n.saturating_sub(1) + 2 * n,
            vertex_values: n.div_ceil(2),
        }
    }

    /// Vertex `i`'s image id: even vertices carry one, odd ones none.
    fn image(i: usize) -> Option<i64> {
        i.is_multiple_of(2).then_some(i as i64 - 3)
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
                    Some(image) => g.add_vertex_with_props(label, IMAGE_SHAPE, [Value::Int(image)]),
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

    /// Two vertices and a scored edge, so the appended bare edges start
    /// a run of their own.
    fn base() -> Graph {
        let mut g = Graph::with_capacity(2, 1);
        let score = Shape {
            keys: &["score"],
            kinds: &[Kind::Float],
        };
        let hub = g.add_vertex_with_props("a", IMAGE_SHAPE, [Value::Int(7)]);
        let other = g.add_vertex("kg");
        g.add_edge_with_props(hub, other, "same as", score, [Value::Float(0.5)])
            .unwrap();
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
            // Exact sizing leaves no spare arena, column or adjacency
            // capacity.
            assert_eq!(g.vertices.capacity(), g.vertices.len());
            assert_eq!(g.edges.capacity(), g.edges.len());
            for index in [&g.outgoing, &g.incoming] {
                assert_eq!(index.offsets.capacity(), index.offsets.len());
                assert_eq!(index.ids.capacity(), index.ids.len());
            }
            for column in g.value_columns() {
                assert_eq!(column.capacity, column.len);
            }
            for column in [&g.vertex_column, &g.edge_column] {
                assert_eq!(column.runs.capacity(), column.runs.len());
            }
            // The base's scored edge, then one bare run over every
            // appended edge.
            let appended = lens.iter().any(|&n| n > 0);
            assert_eq!(g.edge_column.runs.len(), 1 + usize::from(appended));
            assert_eq!(
                g.value_columns().map(|c| c.len),
                want.value_columns().map(|c| c.len)
            );
            for (id, _) in want.vertices() {
                assert_eq!(g.vertex_props(id), want.vertex_props(id));
            }
            for (id, _) in want.edges() {
                assert_eq!(g.edge_props(id), want.edge_props(id));
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
        // `IMAGE_SHAPE` is one shape in the graph, the base's hub and
        // both windows' "a" vertices use it.
        let shape = |v: usize| g.vertex_props(VertexId::from_index(v)).shape();
        assert_eq!(shape(0), shape(2));
        assert_eq!(shape(2), shape(4));
        assert_eq!(shape(2), IMAGE_SHAPE);
        assert_eq!(g.vertex_column.shape_count(), 2);
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

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    #[should_panic(expected = "window holds its declared value count")]
    fn a_window_holds_its_declared_image_count() {
        // A part declared with no image ids that pushes a scene vertex.
        let size = WindowSize {
            vertices: 1,
            ..WindowSize::default()
        };
        base().append_windows(&SLOTS, vec![(size, ())], |(), w| {
            w.push_vertex(0, Some(1));
        });
    }

    #[test]
    #[should_panic(expected = "a value of kind Float where the shape holds Int")]
    fn values_must_fill_the_shape() {
        // Too few values for `[image, x]`, too many and keys out of order,
        // added to a graph directly.
        let shape = Shape {
            keys: &["image", "x"],
            kinds: &[Kind::Int, Kind::Float],
        };
        let unsorted = Shape {
            keys: &["x", "image"],
            kinds: &[Kind::Float, Kind::Int],
        };
        let short = vec![Value::Int(1)];
        let long = vec![Value::Int(1), Value::Float(0.5), Value::Int(2)];
        let swapped = vec![Value::Float(0.5), Value::Int(1)];
        for (shape, values, want) in [
            (shape, &short, "one value per shape key"),
            (shape, &long, "one value per shape key"),
            (unsorted, &swapped, "shape keys must be strictly ascending"),
        ] {
            let message = panic_message(|| {
                base().add_vertex_with_props("a", shape, values.iter().copied());
            });
            assert!(message.contains(want), "{message}");
        }
        // One value per key, but `image` is an Int in this shape.
        base().add_vertex_with_props("a", shape, [Value::Float(1.0), Value::Float(0.5)]);
    }
}

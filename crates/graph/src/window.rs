//! Bulk appends filled in parallel windows.
//!
//! Merging thousands of scene graphs appends tens of thousands of vertices,
//! edges and property values whose counts are known before the first one
//! is written. [`Graph::append_windows`] grows the element arenas and both
//! property columns' word arenas once by the exact totals, splits the new
//! slots into one disjoint [`GraphWindow`] per part, and fills each window
//! on its own thread with final ids. A window checks each value's kind
//! against its shape's and writes the value's word straight into its run
//! of the column, so filling it allocates nothing per element. A short
//! serial stitch then folds what a window cannot write itself — its
//! label-index runs, its edge-label counts and its string values (rare:
//! scene graphs carry none) — into the graph in window order, and one
//! counting sort over the edge arena rebuilds both adjacency indexes. The
//! result is the graph that [`Graph::add_vertex_with_props`] /
//! [`Graph::add_edge_with_props`] calls with the same labels, shapes and
//! values in the same order would give, label ids, property shapes and
//! adjacency included: both paths read their values through one check.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::label::LabelId;
use crate::props::{checked, exact, Kind, PropSlot, Shape, Value, Word};
use crate::vertex::Vertex;

/// How many vertices, edges and property values one window appends,
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSize {
    /// Vertices the window's part appends.
    pub vertices: usize,
    /// Edges the window's part appends.
    pub edges: usize,
    /// Property values over all of those vertices.
    pub vertex_values: usize,
    /// Property values over all of those edges.
    pub edge_values: usize,
}

/// The label texts and property shapes the windows of one
/// [`Graph::append_windows`] refer to by slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSlots<'a> {
    /// Vertex labels.
    pub vertex_labels: &'a [&'a str],
    /// Edge labels.
    pub edge_labels: &'a [&'a str],
    /// Vertex property shapes.
    pub vertex_shapes: &'a [Shape<'a>],
    /// Edge property shapes.
    pub edge_shapes: &'a [Shape<'a>],
}

/// A shape slot resolved to the column's shape id, and its kinds.
type ColumnShape<'a> = (u32, &'a [Kind]);

/// One part's run of new vertex and edge slots, filled in order.
///
/// Labels and property shapes are given as slots into the lists of the
/// [`WindowSlots`] passed to [`Graph::append_windows`]. An edge may join
/// the window's own vertices and vertices that existed before the append,
/// not another window's.
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
    edge_values: ValueRun<'g>,
    vertex_labels: &'g [LabelId],
    edge_labels: &'g [LabelId],
    vertex_shapes: &'g [ColumnShape<'g>],
    edge_shapes: &'g [ColumnShape<'g>],
    log: StitchLog,
}

/// A window's run of one property column's words, filled in order.
struct ValueRun<'g> {
    /// Column index of the run's first word.
    first: usize,
    words: &'g mut [Word],
    filled: usize,
    /// The run's string values, each with the column index of its word.
    strings: Vec<(usize, Box<str>)>,
}

impl ValueRun<'_> {
    /// Write one element's `values`, one per key of `shape` and of the
    /// key's kind, and return its slot.
    fn write<'v>(
        &mut self,
        (shape, kinds): ColumnShape<'_>,
        values: impl IntoIterator<Item = Value<'v>>,
    ) -> PropSlot {
        let start = self.first + self.filled;
        let run = self
            .words
            .get_mut(self.filled..self.filled + kinds.len())
            .expect("window holds its declared value count");
        for (i, value) in checked(kinds, values).enumerate() {
            // A string's index is known only at the stitch.
            run[i] = value.word(|s| {
                self.strings.push((start + i, s.into()));
                0
            });
        }
        self.filled += kinds.len();
        PropSlot::new(shape, start)
    }
}

/// What a window leaves for the serial stitch.
struct StitchLog {
    /// Per vertex-label slot: the window's vertices carrying it, ascending.
    runs: Vec<Vec<VertexId>>,
    /// Per edge-label slot: the window's edges carrying it.
    edge_counts: Vec<usize>,
    /// The window's vertex and edge string values, each with the column
    /// index of its word.
    strings: [Vec<(usize, Box<str>)>; 2],
}

impl GraphWindow<'_> {
    /// The id the next [`push_vertex`](Self::push_vertex) returns.
    pub fn next_vertex(&self) -> VertexId {
        VertexId::from_index(self.first_vertex + self.filled_vertices)
    }

    /// Append a vertex labeled with vertex-label slot `label`, its
    /// properties `values` in the key order of vertex-shape slot `shape`.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared vertex or vertex-value
    /// count, `label` or `shape` is not a slot, or `values` does not give
    /// one value of the key's kind per key of the shape.
    pub fn push_vertex<'v>(
        &mut self,
        label: usize,
        shape: usize,
        values: impl IntoIterator<Item = Value<'v>>,
    ) -> VertexId {
        let id = self.next_vertex();
        let slot = self
            .vertices
            .get_mut(self.filled_vertices)
            .expect("window holds its declared vertex count");
        let props = self.vertex_values.write(self.vertex_shapes[shape], values);
        *slot = Vertex::new(self.vertex_labels[label], props);
        self.log.runs[label].push(id);
        self.filled_vertices += 1;
        id
    }

    /// Append a directed edge `src → dst` labeled with edge-label slot
    /// `label`, its properties `values` in the key order of edge-shape
    /// slot `shape`. Each endpoint must be a vertex this window pushed or
    /// one that existed before the append.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared edge or edge-value
    /// count, `label` or `shape` is not a slot, or `values` does not give
    /// one value of the key's kind per key of the shape.
    pub fn push_edge<'v>(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: usize,
        shape: usize,
        values: impl IntoIterator<Item = Value<'v>>,
    ) -> Result<EdgeId, GraphError> {
        self.check_endpoint(src)?;
        self.check_endpoint(dst)?;
        let id = EdgeId::from_index(self.first_edge + self.filled_edges);
        let slot = self
            .edges
            .get_mut(self.filled_edges)
            .expect("window holds its declared edge count");
        let props = self.edge_values.write(self.edge_shapes[shape], values);
        *slot = Edge::new(src, dst, self.edge_labels[label], props);
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
        let (vv, ev) = (&self.vertex_values, &self.edge_values);
        assert!(
            self.filled_vertices == self.vertices.len()
                && self.filled_edges == self.edges.len()
                && vv.filled == vv.words.len()
                && ev.filled == ev.words.len(),
            "window filled {} of {} vertices and {} of {} edges, \
             {} of {} vertex values and {} of {} edge values",
            self.filled_vertices,
            self.vertices.len(),
            self.filled_edges,
            self.edges.len(),
            vv.filled,
            vv.words.len(),
            ev.filled,
            ev.words.len(),
        );
        let mut log = self.log;
        log.strings = [self.vertex_values.strings, self.edge_values.strings];
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
    /// Append `parts` in parallel windows: grow the arenas and the value
    /// columns by exactly the summed [`WindowSize`]s, then run
    /// `fill(part, window)` for each part — the first on the calling
    /// thread, the rest on scoped threads — and stitch the windows in
    /// part order. Returns `fill`'s results in part order.
    ///
    /// The labels and shapes in `slots` are what the windows refer to by
    /// slot; each is resolved once to its id in this graph's tables, and
    /// windows copy ids. The graph ends up as if every vertex and edge had
    /// been added one by one, window after window.
    ///
    /// # Panics
    ///
    /// When a shape's keys are not strictly ascending or its kinds are not
    /// one per key, when `fill` leaves
    /// its window short of the declared size, or panics itself (the panic
    /// is resumed on the calling thread). Either is a bug in the caller,
    /// and it leaves the graph unusable: unfilled slots hold placeholders
    /// and nothing is stitched.
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
        let vertex_shapes: Vec<ColumnShape> = slots
            .vertex_shapes
            .iter()
            .map(|s| {
                (
                    self.vertex_column.shape(s.keys, s.kinds.iter().copied()),
                    s.kinds,
                )
            })
            .collect();
        let edge_shapes: Vec<ColumnShape> = slots
            .edge_shapes
            .iter()
            .map(|s| {
                (
                    self.edge_column.shape(s.keys, s.kinds.iter().copied()),
                    s.kinds,
                )
            })
            .collect();
        let existing = self.vertices.len();
        let first_edge = self.edges.len();
        let first_values = (self.vertex_column.words.len(), self.edge_column.words.len());
        let total =
            |count: fn(&WindowSize) -> usize| parts.iter().map(|(size, _)| count(size)).sum();
        // Placeholders until the windows fill their slots; they allocate
        // nothing.
        let (label, slot, nowhere) = (LabelId(0), PropSlot::default(), VertexId::from_index(0));
        let mut vertices = grow(&mut self.vertices, total(|s| s.vertices), || {
            Vertex::new(label, slot)
        });
        let mut edges = grow(&mut self.edges, total(|s| s.edges), || {
            Edge::new(nowhere, nowhere, label, slot)
        });
        let mut vertex_values = grow(
            &mut self.vertex_column.words,
            total(|s| s.vertex_values),
            || 0,
        );
        let mut edge_values = grow(&mut self.edge_column.words, total(|s| s.edge_values), || 0);

        let (mut first_vertex, mut first_edge) = (existing, first_edge);
        let (mut first_vertex_value, mut first_edge_value) = first_values;
        let mut windows = Vec::with_capacity(parts.len());
        for (size, part) in parts {
            let (v, v_rest) = std::mem::take(&mut vertices).split_at_mut(size.vertices);
            let (e, e_rest) = std::mem::take(&mut edges).split_at_mut(size.edges);
            let (vv, vv_rest) = std::mem::take(&mut vertex_values).split_at_mut(size.vertex_values);
            let (ev, ev_rest) = std::mem::take(&mut edge_values).split_at_mut(size.edge_values);
            (vertices, edges, vertex_values, edge_values) = (v_rest, e_rest, vv_rest, ev_rest);
            let window = GraphWindow {
                existing,
                first_vertex,
                first_edge,
                vertices: v,
                edges: e,
                filled_vertices: 0,
                filled_edges: 0,
                vertex_values: ValueRun {
                    first: first_vertex_value,
                    words: vv,
                    filled: 0,
                    strings: Vec::new(),
                },
                edge_values: ValueRun {
                    first: first_edge_value,
                    words: ev,
                    filled: 0,
                    strings: Vec::new(),
                },
                vertex_labels: &vertex_labels,
                edge_labels: &edge_labels,
                vertex_shapes: &vertex_shapes,
                edge_shapes: &edge_shapes,
                log: StitchLog {
                    runs: vec![Vec::new(); vertex_labels.len()],
                    edge_counts: vec![0; edge_labels.len()],
                    strings: Default::default(),
                },
            };
            first_vertex += size.vertices;
            first_edge += size.edges;
            first_vertex_value += size.vertex_values;
            first_edge_value += size.edge_values;
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

    /// Fold the filled windows' logs into the label index, the edge-label
    /// counts and the columns' string tables, in window order. Each label's
    /// vertex list and each string table grows once, by exactly the
    /// windows' entries, and those are copied rather than adopted: a run a
    /// window thread grew lives in that thread's malloc arena, and keeping
    /// it would pin the memory the thread freed there (its scene records)
    /// in the resident set.
    fn stitch(&mut self, vertex_labels: &[LabelId], edge_labels: &[LabelId], logs: Vec<StitchLog>) {
        for (slot, &label) in vertex_labels.iter().enumerate() {
            let ids = self.label_index.value_mut(label);
            ids.reserve_exact(logs.iter().map(|log| log.runs[slot].len()).sum());
            for log in &logs {
                ids.extend_from_slice(&log.runs[slot]);
            }
        }
        for log in &logs {
            for (&label, count) in edge_labels.iter().zip(&log.edge_counts) {
                *self.edge_label_counts.value_mut(label) += count;
            }
        }
        for (c, column) in [&mut self.vertex_column, &mut self.edge_column]
            .into_iter()
            .enumerate()
        {
            column
                .strings
                .reserve_exact(logs.iter().map(|log| log.strings[c].len()).sum());
            for (at, s) in logs.iter().flat_map(|log| &log.strings[c]) {
                column.words[*at] = column.string(s) as Word;
            }
            column.strings = exact(std::mem::take(&mut column.strings));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio;

    const SLOTS: WindowSlots<'static> = WindowSlots {
        vertex_labels: &["a", "b"],
        edge_labels: &["x", "same as"],
        vertex_shapes: &[
            Shape {
                keys: &[],
                kinds: &[],
            },
            Shape {
                keys: &["image", "x"],
                kinds: &[Kind::Int, Kind::Float],
            },
        ],
        edge_shapes: &[
            Shape {
                keys: &[],
                kinds: &[],
            },
            Shape {
                keys: &["score"],
                kinds: &[Kind::Float],
            },
        ],
    };

    /// Part `p` is a chain of `n` vertices labeled `"a"`/`"b"` with `"x"`
    /// edges, each vertex also linked both ways to pre-existing vertex 0.
    /// The `"a"` vertices carry an image and an `x`, the chain edges a
    /// score; the `"b"` vertices and the links carry nothing.
    fn chain(n: usize) -> WindowSize {
        WindowSize {
            vertices: n,
            edges: n.saturating_sub(1) + 2 * n,
            vertex_values: 2 * n.div_ceil(2),
            edge_values: n.saturating_sub(1),
        }
    }

    fn vertex_values(i: usize) -> Vec<Value<'static>> {
        match i % 2 {
            0 => vec![Value::Int(i as i64), Value::Float(0.5)],
            _ => Vec::new(),
        }
    }

    fn fill_chain(n: usize, w: &mut GraphWindow<'_>) {
        let hub = VertexId::from_index(0);
        let first = w.next_vertex().index();
        for i in 0..n {
            w.push_vertex(i % 2, 1 - i % 2, vertex_values(i));
        }
        for i in 1..n {
            let (a, b) = (
                VertexId::from_index(first + i - 1),
                VertexId::from_index(first + i),
            );
            w.push_edge(a, b, 0, 1, [Value::Float(i as f64)]).unwrap();
        }
        for i in 0..n {
            let v = VertexId::from_index(first + i);
            w.push_edge(v, hub, 1, 0, []).unwrap();
            w.push_edge(hub, v, 1, 0, []).unwrap();
        }
    }

    /// The same chains added one element at a time.
    fn sequential(base: &Graph, lens: &[usize]) -> Graph {
        let mut g = base.clone();
        let hub = VertexId::from_index(0);
        for &n in lens {
            let first = g.vertex_count();
            for i in 0..n {
                let shape = SLOTS.vertex_shapes[1 - i % 2];
                g.add_vertex_with_props(["a", "b"][i % 2], shape, vertex_values(i));
            }
            for i in 1..n {
                let (a, b) = (
                    VertexId::from_index(first + i - 1),
                    VertexId::from_index(first + i),
                );
                let score = [Value::Float(i as f64)];
                g.add_edge_with_props(a, b, "x", SLOTS.edge_shapes[1], score)
                    .unwrap();
            }
            for i in 0..n {
                let v = VertexId::from_index(first + i);
                g.add_edge(v, hub, "same as").unwrap();
                g.add_edge(hub, v, "same as").unwrap();
            }
        }
        g
    }

    fn base() -> Graph {
        let mut g = Graph::with_capacity(2, 1);
        let image = Shape {
            keys: &["image"],
            kinds: &[Kind::Int],
        };
        let hub = g.add_vertex_with_props("a", image, [Value::Int(7)]);
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
        // "image, x" is one shape in the graph, and both windows use it.
        assert_eq!(g.vertices[2].props.shape, g.vertices[4].props.shape);
        assert_eq!(g.vertex_column.shape_count(), 3);
    }

    #[test]
    fn unused_slot_labels_stay_out_of_the_counts() {
        let mut g = base();
        let slots = WindowSlots {
            vertex_labels: &["a", "b", "unused"],
            edge_labels: &["x", "same as", "idle"],
            ..SLOTS
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
            let result = (n == 0).then(|| w.push_edge(outside, outside, 0, 0, []));
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
    #[should_panic(expected = "a value of kind Float where the shape holds Int")]
    fn values_must_fill_the_shape() {
        // Too few values for `[image, x]`, too many, one of the wrong kind,
        // and keys out of order, added to a graph directly.
        let shape = SLOTS.vertex_shapes[1];
        let unsorted = Shape {
            keys: &["x", "image"],
            kinds: &[Kind::Float, Kind::Int],
        };
        let short = vec![Value::Int(1)];
        let long = vec![Value::Int(1), Value::Float(0.5), Value::Bool(true)];
        let wrong = vec![Value::Float(1.0), Value::Float(0.5)];
        let swapped = vec![Value::Float(0.5), Value::Int(1)];
        for (shape, values, want) in [
            (shape, &short, "one value per shape key"),
            (shape, &long, "one value per shape key"),
            (
                shape,
                &wrong,
                "a value of kind Float where the shape holds Int",
            ),
            (unsorted, &swapped, "shape keys must be strictly ascending"),
        ] {
            let message = panic_message(|| {
                base().add_vertex_with_props("a", shape, values.iter().copied());
            });
            assert!(message.contains(want), "{message}");
        }
        // Too few and too many in a window.
        for values in [short, long] {
            let message = panic_message(|| {
                base().append_windows(&SLOTS, vec![(chain(1), ())], |(), w| {
                    w.push_vertex(0, 1, values.iter().copied());
                });
            });
            assert!(message.contains("one value per shape key"), "{message}");
        }
        // One value per key, but `image` is an Int in this shape.
        let mut g = base();
        g.append_windows(&SLOTS, vec![(chain(1), ())], |(), w| {
            w.push_vertex(0, 1, [Value::Float(1.0), Value::Float(0.5)]);
        });
    }

    #[test]
    fn strings_are_stitched_in_window_order() {
        const NOTE: WindowSlots<'static> = WindowSlots {
            vertex_shapes: &[Shape {
                keys: &["note"],
                kinds: &[Kind::Str],
            }],
            edge_shapes: &[Shape {
                keys: &["note", "score"],
                kinds: &[Kind::Str, Kind::Float],
            }],
            ..SLOTS
        };
        let size = WindowSize {
            vertices: 2,
            edges: 1,
            vertex_values: 2,
            edge_values: 2,
        };
        let mut g = base();
        g.append_windows(&NOTE, vec![(size, 0), (size, 1)], |part, w| {
            let [a, b] = ["first", "second"].map(|n| {
                let note = format!("{n} of {part}");
                w.push_vertex(0, 0, [Value::Str(&note)])
            });
            let note = format!("edge of {part}");
            w.push_edge(a, b, 0, 0, [Value::Str(&note), Value::Float(0.5)])
                .unwrap();
        });
        let mut want = base();
        for part in 0..2 {
            let [a, b] = ["first", "second"].map(|n| {
                let note = format!("{n} of {part}");
                want.add_vertex_with_props("a", NOTE.vertex_shapes[0], [Value::Str(&note)])
            });
            let note = format!("edge of {part}");
            let values = [Value::Str(&note), Value::Float(0.5)];
            want.add_edge_with_props(a, b, "x", NOTE.edge_shapes[0], values)
                .unwrap();
        }
        g.validate().unwrap();
        assert_eq!(
            binio::to_bytes(&g).unwrap(),
            binio::to_bytes(&want).unwrap()
        );
        assert_eq!(
            g.vertex_props(VertexId::from_index(4)).get("note"),
            Some(Value::Str("first of 1"))
        );
        assert_eq!(g.vertex_column.strings.len(), 4);
        assert_eq!(g.vertex_column.strings.capacity(), 4);
        assert_eq!(g.edge_column.strings.len(), 2);
    }
}

//! Bulk appends filled in parallel windows.
//!
//! Merging thousands of scene graphs appends tens of thousands of vertices
//! and edges whose counts are known before the first one is written.
//! [`Graph::append_windows`] grows the arenas once by the exact total,
//! splits the new slots into one disjoint [`GraphWindow`] per part, and
//! fills each window on its own thread with final ids. A short serial
//! stitch then folds what a window cannot write itself — its label-index
//! runs, its edge-label counts and the adjacency of vertices that existed
//! before the append — into the graph in window order. The result is the
//! graph that `add_vertex_with_props` / `add_edge_with_props` calls in the
//! same order would give, label ids included.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::label::LabelId;
use crate::props::Properties;
use crate::vertex::Vertex;

/// How many vertices and edges one window appends, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSize {
    /// Vertices the window's part appends.
    pub vertices: usize,
    /// Edges the window's part appends.
    pub edges: usize,
}

/// One part's run of new vertex and edge slots, filled in order.
///
/// Labels are given as slots into the label lists passed to
/// [`Graph::append_windows`]. An edge may join the window's own vertices
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
    runs: Vec<Vec<VertexId>>,
    /// Per edge-label slot: the window's edges carrying it.
    edge_counts: Vec<usize>,
    /// `(pre-existing vertex, edge)`, in edge order: out-edges and
    /// in-edges the window adds to vertices outside it.
    existing_out: Vec<(VertexId, EdgeId)>,
    existing_in: Vec<(VertexId, EdgeId)>,
}

impl GraphWindow<'_> {
    /// The id the next [`push_vertex`](Self::push_vertex) returns.
    pub fn next_vertex(&self) -> VertexId {
        VertexId::from_index(self.first_vertex + self.filled_vertices)
    }

    /// Append a vertex labeled with vertex-label slot `label`, its
    /// adjacency lists sized for `out_degree` and `in_degree` edges.
    ///
    /// # Panics
    ///
    /// When the window already holds its declared vertex count, or
    /// `label` is not a slot.
    pub fn push_vertex(
        &mut self,
        label: usize,
        props: Properties,
        out_degree: usize,
        in_degree: usize,
    ) -> VertexId {
        let id = self.next_vertex();
        let slot = self
            .vertices
            .get_mut(self.filled_vertices)
            .expect("window holds its declared vertex count");
        *slot = Vertex::with_degrees(self.vertex_labels[label], props, out_degree, in_degree);
        self.log.runs[label].push(id);
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
        props: Properties,
    ) -> Result<EdgeId, GraphError> {
        let (src_local, dst_local) = (self.local(src)?, self.local(dst)?);
        let id = EdgeId::from_index(self.first_edge + self.filled_edges);
        let slot = self
            .edges
            .get_mut(self.filled_edges)
            .expect("window holds its declared edge count");
        *slot = Edge::new(src, dst, self.edge_labels[label], props);
        self.log.edge_counts[label] += 1;
        self.filled_edges += 1;
        match src_local {
            Some(i) => self.vertices[i].out_edges.push(id),
            None => self.log.existing_out.push((src, id)),
        }
        match dst_local {
            Some(i) => self.vertices[i].in_edges.push(id),
            None => self.log.existing_in.push((dst, id)),
        }
        Ok(id)
    }

    /// `Some(slot)` for a vertex this window pushed, `None` for one that
    /// existed before the append.
    fn local(&self, v: VertexId) -> Result<Option<usize>, GraphError> {
        let i = v.index();
        if i < self.existing {
            Ok(None)
        } else if (self.first_vertex..self.first_vertex + self.filled_vertices).contains(&i) {
            Ok(Some(i - self.first_vertex))
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
            self.edges.len()
        );
        self.log
    }
}

impl Graph {
    /// Append `parts` in parallel windows: grow the arenas by exactly the
    /// summed [`WindowSize`]s, then run `fill(part, window)` for each part
    /// — the first on the calling thread, the rest on scoped threads — and
    /// stitch the windows in part order. Returns `fill`'s results in part
    /// order.
    ///
    /// `vertex_labels` and `edge_labels` are the label texts the windows
    /// refer to by slot; each is resolved once to its id in this graph's
    /// label tables, and windows copy ids.
    /// The graph ends up as if every vertex and edge had been added one by
    /// one, window after window.
    ///
    /// # Panics
    ///
    /// When `fill` leaves its window short of the declared size, or
    /// panics itself (the panic is resumed on the calling thread). Either
    /// is a bug in the caller, and it leaves the graph unusable: unfilled
    /// slots hold placeholders and nothing is stitched.
    pub fn append_windows<P, R, F>(
        &mut self,
        vertex_labels: &[&str],
        edge_labels: &[&str],
        parts: Vec<(WindowSize, P)>,
        fill: F,
    ) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P, &mut GraphWindow<'_>) -> R + Sync,
    {
        let vertex_labels: Vec<LabelId> = vertex_labels
            .iter()
            .map(|text| self.label_index.intern(text))
            .collect();
        let edge_labels: Vec<LabelId> = edge_labels
            .iter()
            .map(|text| self.edge_label_counts.intern(text))
            .collect();
        let (existing, existing_edges) = (self.vertices.len(), self.edges.len());
        let new_vertices = parts.iter().map(|(size, _)| size.vertices).sum();
        let new_edges = parts.iter().map(|(size, _)| size.edges).sum();
        // Placeholders until the windows fill their slots; they allocate
        // nothing.
        let placeholder = LabelId(0);
        self.vertices.reserve_exact(new_vertices);
        self.vertices.extend(
            std::iter::repeat_with(|| Vertex::new(placeholder, Properties::new()))
                .take(new_vertices),
        );
        let nowhere = VertexId::from_index(0);
        self.edges.reserve_exact(new_edges);
        self.edges.extend(
            std::iter::repeat_with(|| Edge::new(nowhere, nowhere, placeholder, Properties::new()))
                .take(new_edges),
        );

        let (mut vertices, mut edges) = (
            &mut self.vertices[existing..],
            &mut self.edges[existing_edges..],
        );
        let (mut first_vertex, mut first_edge) = (existing, existing_edges);
        let mut windows = Vec::with_capacity(parts.len());
        for (size, part) in parts {
            let (v, v_rest) = std::mem::take(&mut vertices).split_at_mut(size.vertices);
            let (e, e_rest) = std::mem::take(&mut edges).split_at_mut(size.edges);
            (vertices, edges) = (v_rest, e_rest);
            let window = GraphWindow {
                existing,
                first_vertex,
                first_edge,
                vertices: v,
                edges: e,
                filled_vertices: 0,
                filled_edges: 0,
                vertex_labels: &vertex_labels,
                edge_labels: &edge_labels,
                log: StitchLog {
                    runs: vec![Vec::new(); vertex_labels.len()],
                    edge_counts: vec![0; edge_labels.len()],
                    existing_out: Vec::new(),
                    existing_in: Vec::new(),
                },
            };
            first_vertex += size.vertices;
            first_edge += size.edges;
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

        filled
            .into_iter()
            .map(|(result, log)| {
                self.stitch(&vertex_labels, &edge_labels, log);
                result
            })
            .collect()
    }

    /// Fold one filled window's log into the indexes and the adjacency of
    /// pre-existing vertices.
    fn stitch(&mut self, vertex_labels: &[LabelId], edge_labels: &[LabelId], log: StitchLog) {
        for (&label, run) in vertex_labels.iter().zip(log.runs) {
            let ids = self.label_index.value_mut(label);
            if ids.is_empty() {
                *ids = run;
            } else {
                ids.extend_from_slice(&run);
            }
        }
        for (&label, count) in edge_labels.iter().zip(log.edge_counts) {
            *self.edge_label_counts.value_mut(label) += count;
        }
        for (v, e) in log.existing_out {
            self.vertices[v.index()].out_edges.push(e);
        }
        for (v, e) in log.existing_in {
            self.vertices[v.index()].in_edges.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;

    /// Part `p` is a chain of `n` vertices labeled `"a"`/`"b"` with `"x"`
    /// edges, each vertex also linked both ways to pre-existing vertex 0.
    fn chain(n: usize) -> WindowSize {
        WindowSize {
            vertices: n,
            edges: n.saturating_sub(1) + 2 * n,
        }
    }

    fn fill_chain(n: usize, w: &mut GraphWindow<'_>) {
        let hub = VertexId::from_index(0);
        let first = w.next_vertex().index();
        for i in 0..n {
            let out = usize::from(i + 1 < n) + 1;
            let inn = usize::from(i > 0) + 1;
            w.push_vertex(i % 2, Properties::new(), out, inn);
        }
        for i in 1..n {
            let (a, b) = (
                VertexId::from_index(first + i - 1),
                VertexId::from_index(first + i),
            );
            w.push_edge(a, b, 0, Properties::new()).unwrap();
        }
        for i in 0..n {
            let v = VertexId::from_index(first + i);
            w.push_edge(v, hub, 1, Properties::new()).unwrap();
            w.push_edge(hub, v, 1, Properties::new()).unwrap();
        }
    }

    /// The same chains added one element at a time.
    fn sequential(base: &Graph, lens: &[usize]) -> Graph {
        let mut g = base.clone();
        let hub = VertexId::from_index(0);
        for &n in lens {
            let first = g.vertex_count();
            for i in 0..n {
                g.add_vertex(["a", "b"][i % 2]);
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

    fn base() -> Graph {
        let mut g = Graph::with_capacity(2, 1);
        let hub = g.add_vertex("a");
        let other = g.add_vertex("kg");
        g.add_edge(hub, other, "same as").unwrap();
        g
    }

    #[test]
    fn windows_build_the_sequential_graph() {
        for lens in [vec![], vec![0], vec![5], vec![3, 0, 7], vec![1, 2, 3, 4]] {
            let mut g = base();
            let parts = lens.iter().map(|&n| (chain(n), n)).collect();
            let firsts = g.append_windows(&["a", "b"], &["x", "same as"], parts, |n, w| {
                let first = w.next_vertex();
                fill_chain(n, w);
                first
            });
            let want = sequential(&base(), &lens);
            assert_eq!(io::to_json(&g), io::to_json(&want), "{lens:?}");
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
            // Exact sizing leaves no spare arena or adjacency capacity.
            assert_eq!(g.vertices.capacity(), g.vertices.len());
            assert_eq!(g.edges.capacity(), g.edges.len());
            for v in &g.vertices[2..] {
                assert_eq!(v.out_edges.capacity(), v.out_edges.len());
                assert_eq!(v.in_edges.capacity(), v.in_edges.len());
            }
        }
    }

    #[test]
    fn labels_are_shared_with_the_graph() {
        let mut g = base();
        g.append_windows(
            &["a", "b"],
            &["x", "same as"],
            vec![(chain(2), 2), (chain(2), 2)],
            fill_chain,
        );
        let label = |v: usize| g.vertices[v].label;
        // "a" was known: every new "a" vertex carries the graph's id.
        assert_eq!(label(0), label(2));
        // "b" was new: both windows carry the one id it was given.
        assert_eq!(label(3), label(5));
        assert_eq!(g.vertex_label_id("b"), Some(label(3)));
        assert_eq!(g.label_index.len(), 3);
        assert_eq!(g.edges[0].label, g.edges[2].label);
        assert_eq!(g.edge_label_id("same as"), Some(g.edges[0].label));
    }

    #[test]
    fn unused_slot_labels_stay_out_of_the_counts() {
        let mut g = base();
        g.append_windows(
            &["a", "b", "unused"],
            &["x", "same as", "idle"],
            vec![(chain(1), 1)],
            fill_chain,
        );
        assert!(g.vertices_with_label("unused").is_empty());
        assert!(g.vertex_label_counts().all(|(l, n)| l != "unused" && n > 0));
        assert!(g.edge_label_counts().all(|(l, n)| l != "idle" && n > 0));
    }

    #[test]
    fn edges_into_another_window_are_rejected() {
        let mut g = base();
        let parts = vec![
            (chain(1), 1),
            (
                WindowSize {
                    vertices: 0,
                    edges: 0,
                },
                0,
            ),
        ];
        let errors = g.append_windows(&["a", "b"], &["x", "same as"], parts, |n, w| {
            // Part 0's vertex, seen from part 1.
            let outside = VertexId::from_index(2);
            let result = (n == 0).then(|| w.push_edge(outside, outside, 0, Properties::new()));
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
        g.append_windows(&["a"], &["x"], vec![(chain(1), ())], |(), _| ());
    }
}

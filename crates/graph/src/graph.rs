//! The directed labeled property graph.

use crate::adjacency::Adjacency;
use crate::edge::Edge;
use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::label::{LabelId, LabelTable};
use crate::props::{exact, ColumnSize, PropColumn, Props, Shape, Value};
use crate::vertex::Vertex;
use std::ops::Range;

/// A directed labeled graph `G = (V, E, L)` (§II of the paper).
///
/// Vertices and edges are append-only: SVQA builds scene graphs, merges them
/// into the merged graph, and attaches cache indexes, but never deletes
/// structure mid-query; dropping deletion keeps ids stable and the arenas
/// dense.
///
/// The two label indexes double as the graph's label tables: each distinct
/// vertex (edge) label's text is stored once in `label_index`
/// (`edge_label_counts`), and every vertex (edge) holds only its label's
/// [`LabelId`] there.
///
/// A graph keeps its properties in two columns, one for vertices and one
/// for edges (see [`crate::props`]). An element holds nothing of them:
/// each column's run table gives every element's shape and first word by
/// the element's index, and [`Graph::vertex_props`] / [`Graph::edge_props`]
/// read them.
///
/// Adjacency is derived from the edge arena: one compressed index per
/// direction holds every vertex's incident edge ids as a run of one flat
/// array, in ascending order ([`Graph::out_edge_ids`] /
/// [`Graph::in_edge_ids`]). The bulk mutations ([`Graph::absorb_where`],
/// [`Graph::append_windows`], [`crate::binio::from_bytes`]) build both
/// indexes with one counting sort when they finish.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub(crate) vertices: Vec<Vertex>,
    pub(crate) edges: Vec<Edge>,
    /// Each vertex's out-edges.
    pub(crate) outgoing: Adjacency,
    /// Each vertex's in-edges.
    pub(crate) incoming: Adjacency,
    /// Vertex label → vertex ids carrying that label (in insertion order).
    pub(crate) label_index: LabelTable<Vec<VertexId>>,
    /// Edge label → number of edges carrying it (Algorithm 3's
    /// `getLabels(E_mg)` reads this).
    pub(crate) edge_label_counts: LabelTable<usize>,
    /// Every vertex's properties.
    pub(crate) vertex_column: PropColumn,
    /// Every edge's properties.
    pub(crate) edge_column: PropColumn,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// An empty graph with pre-sized arenas, for bulk loads such as merging
    /// 4,233 scene graphs.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Graph {
            vertices: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            ..Graph::default()
        }
    }

    /// Number of vertices `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Add a vertex with the given label and no properties.
    pub fn add_vertex(&mut self, label: impl AsRef<str>) -> VertexId {
        self.add_vertex_with_props(label, Shape::default(), [])
    }

    /// Add a vertex with the given label and properties: `values`, one per
    /// key of `shape` and of that key's kind, in key order. A label or a
    /// shape some vertex already carries is referred to by id, not copied.
    ///
    /// # Panics
    ///
    /// When `shape`'s keys are not strictly ascending or its kinds are not
    /// one per key, or `values` does not give one value of each kind.
    pub fn add_vertex_with_props(
        &mut self,
        label: impl AsRef<str>,
        shape: Shape<'_>,
        values: impl IntoIterator<Item = Value>,
    ) -> VertexId {
        let label = self.label_index.intern(label.as_ref());
        self.vertex_column
            .append(self.vertices.len(), shape, values);
        self.outgoing.push_vertex();
        self.incoming.push_vertex();
        self.push_vertex(label)
    }

    /// Append a vertex whose label is already in the vertex-label table and
    /// whose properties the vertex column already holds. The adjacency
    /// indexes do not cover it until they are rebuilt.
    pub(crate) fn push_vertex(&mut self, label: LabelId) -> VertexId {
        let id = VertexId::from_index(self.vertices.len());
        self.label_index.value_mut(label).push(id);
        self.vertices.push(Vertex::new(label));
        id
    }

    /// Add a directed edge `src → dst` with the given label.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: impl AsRef<str>,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_with_props(src, dst, label, Shape::default(), [])
    }

    /// Add a directed edge `src → dst` with the given label and properties,
    /// as [`Graph::add_vertex_with_props`] takes them. A label or a shape
    /// some edge already carries is referred to by id, not copied.
    ///
    /// The edge goes to the end of `src`'s out-run and `dst`'s in-run,
    /// which shifts every later entry of both adjacency arrays: one call
    /// costs O(V + E). The bulk paths ([`Graph::absorb_where`],
    /// [`Graph::append_windows`], [`crate::binio::from_bytes`]) do not use
    /// it; they index every edge at once when they finish.
    ///
    /// # Panics
    ///
    /// As [`Graph::add_vertex_with_props`] does, for an edge whose
    /// endpoints exist.
    pub fn add_edge_with_props(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: impl AsRef<str>,
        shape: Shape<'_>,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<EdgeId, GraphError> {
        let id = self.append_edge(src, dst, label.as_ref(), shape, values)?;
        self.outgoing.insert(src, id);
        self.incoming.insert(dst, id);
        Ok(id)
    }

    /// Append a directed edge `src → dst` to the edge arena without
    /// indexing it, for a bulk path that rebuilds the adjacency indexes
    /// when it finishes ([`Graph::index_adjacency`]).
    pub(crate) fn append_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: &str,
        shape: Shape<'_>,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(src));
        }
        if dst.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(dst));
        }
        let label = self.edge_label_counts.intern(label);
        self.edge_column.append(self.edges.len(), shape, values);
        Ok(self.push_edge(src, dst, label))
    }

    /// Append an edge between existing vertices whose label is already in
    /// the edge-label table and whose properties the edge column already
    /// holds. The adjacency indexes do not cover it until they are rebuilt.
    fn push_edge(&mut self, src: VertexId, dst: VertexId, label: LabelId) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        *self.edge_label_counts.value_mut(label) += 1;
        self.edges.push(Edge::new(src, dst, label));
        id
    }

    /// Rebuild both adjacency indexes from the edge arena, each with one
    /// counting sort into exactly sized arrays: the last step of every
    /// bulk mutation.
    pub(crate) fn index_adjacency(&mut self) {
        let vertices = self.vertices.len();
        self.outgoing = Adjacency::build(vertices, &self.edges, Edge::src);
        self.incoming = Adjacency::build(vertices, &self.edges, Edge::dst);
    }

    /// Look up a vertex by id.
    pub fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(id.index())
    }

    /// Look up an edge by id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index())
    }

    /// The properties of a vertex, borrowed from the vertex column; empty
    /// for a foreign id.
    pub fn vertex_props(&self, id: VertexId) -> Props<'_> {
        self.vertex(id)
            .map_or_else(Props::default, |_| self.vertex_column.props(id.index()))
    }

    /// The properties of an edge, borrowed from the edge column; empty for
    /// a foreign id.
    pub fn edge_props(&self, id: EdgeId) -> Props<'_> {
        self.edge(id)
            .map_or_else(Props::default, |_| self.edge_column.props(id.index()))
    }

    /// The vertex column's run table: each maximal stretch of consecutive
    /// vertices sharing a property shape, as its vertex index range and
    /// the shape, in vertex order.
    pub fn vertex_shape_runs(&self) -> impl Iterator<Item = (Range<usize>, Shape<'_>)> {
        shape_runs(&self.vertex_column, self.vertices.len())
    }

    /// The edge column's run table, as [`Graph::vertex_shape_runs`] gives
    /// the vertex column's.
    pub fn edge_shape_runs(&self) -> impl Iterator<Item = (Range<usize>, Shape<'_>)> {
        shape_runs(&self.edge_column, self.edges.len())
    }

    /// The length and capacity of the vertex and the edge value columns'
    /// word arenas, in that order.
    pub fn value_columns(&self) -> [ColumnSize; 2] {
        [&self.vertex_column, &self.edge_column].map(|column| ColumnSize {
            len: column.words.len(),
            capacity: column.words.capacity(),
        })
    }

    /// Label `L(v)` of a vertex; `None` for a foreign id.
    pub fn vertex_label(&self, id: VertexId) -> Option<&str> {
        self.vertex(id).map(|v| self.label_index.text(v.label))
    }

    /// Label `L(e)` of an edge; `None` for a foreign id.
    pub fn edge_label(&self, id: EdgeId) -> Option<&str> {
        self.edge(id).map(|e| self.edge_label_counts.text(e.label))
    }

    /// The text of a vertex label id ([`Vertex::label_id`]).
    ///
    /// # Panics
    ///
    /// When `id` is not from this graph's vertex-label table.
    pub fn vertex_label_text(&self, id: LabelId) -> &str {
        self.label_index.text(id)
    }

    /// The text of an edge label id ([`Edge::label_id`]).
    ///
    /// # Panics
    ///
    /// When `id` is not from this graph's edge-label table.
    pub fn edge_label_text(&self, id: LabelId) -> &str {
        self.edge_label_counts.text(id)
    }

    /// The id of a vertex label: `Some` for every label a vertex carries
    /// (and for a label [`Graph::append_windows`] was handed but no
    /// window used), `None` otherwise.
    pub fn vertex_label_id(&self, label: &str) -> Option<LabelId> {
        self.label_index.id(label)
    }

    /// The id of an edge label, as [`Graph::vertex_label_id`] for vertex
    /// labels: resolve a label once, then test edges with
    /// [`Edge::label_id`], an integer compare.
    pub fn edge_label_id(&self, label: &str) -> Option<LabelId> {
        self.edge_label_counts.id(label)
    }

    /// Iterate all vertices with their ids.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &Vertex)> {
        self.vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (VertexId::from_index(i), v))
    }

    /// Iterate all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Vertices carrying exactly this label, in insertion order. This is the
    /// index behind `matchVertex` (§V) and Algorithm 1's `find(t_sg, V)`.
    pub fn vertices_with_label(&self, label: &str) -> &[VertexId] {
        self.label_index
            .id(label)
            .map_or(&[], |id| self.label_index.value(id).as_slice())
    }

    /// Distinct vertex labels with their vertex counts.
    pub fn vertex_label_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.label_index
            .iter()
            .map(|(l, ids)| (l, ids.len()))
            .filter(|&(_, n)| n > 0)
    }

    /// Distinct edge labels with their edge counts — Algorithm 3's
    /// `T ← getLabels(E_mg)`.
    pub fn edge_label_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.edge_label_counts
            .iter()
            .map(|(l, &n)| (l, n))
            .filter(|&(_, n)| n > 0)
    }

    /// The ids of `v`'s outgoing edges, ascending; empty for a foreign id.
    pub fn out_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        self.outgoing.run(v)
    }

    /// The ids of `v`'s incoming edges, ascending; empty for a foreign id.
    pub fn in_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        self.incoming.run(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edge_ids(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edge_ids(v).len()
    }

    /// Total degree of `v` (in + out).
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Outgoing edges of `v` as `(edge id, edge)` pairs.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out_edge_ids(v)
            .iter()
            .map(move |&eid| (eid, &self.edges[eid.index()]))
    }

    /// Incoming edges of `v` as `(edge id, edge)` pairs.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.in_edge_ids(v)
            .iter()
            .map(move |&eid| (eid, &self.edges[eid.index()]))
    }

    /// Successor vertices of `v` (targets of its out-edges; may repeat under
    /// parallel edges).
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_edges(v).map(|(_, e)| e.dst())
    }

    /// Predecessor vertices of `v`.
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_edges(v).map(|(_, e)| e.src())
    }

    /// Neighbours in either direction (the paper's k-hop neighbourhoods are
    /// taken over the undirected structure — see Example 3, where both
    /// `Fence → Man` and `Man → Fence` land in `S("Fence", 1)`).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_neighbors(v).chain(self.in_neighbors(v))
    }

    /// Edges from `src` to `dst` (directed), as `(edge id, edge)` pairs.
    pub fn edges_between(
        &self,
        src: VertexId,
        dst: VertexId,
    ) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out_edges(src).filter(move |(_, e)| e.dst() == dst)
    }

    /// Whether an edge `src → dst` with this label exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId, label: &str) -> bool {
        let Some(label) = self.edge_label_id(label) else {
            return false;
        };
        self.edges_between(src, dst).any(|(_, e)| e.label == label)
    }

    /// Validate internal consistency, in one pass over each arena, each
    /// adjacency index and each property column: every edge endpoint
    /// resolves; each index holds, for every vertex, exactly the ascending
    /// ids of the edges leaving (entering) it; and each column's run table
    /// is minimal and covers exactly its elements and its words. Used after
    /// deserialization and available to tests.
    pub fn validate(&self) -> Result<(), GraphError> {
        let corrupt = |msg: String| Err(GraphError::CorruptGraph(msg));
        let vertices = self.vertices.len();
        for (eid, e) in self.edges() {
            if e.src().index() >= vertices {
                return corrupt(format!("edge {eid} has dangling src"));
            }
            if e.dst().index() >= vertices {
                return corrupt(format!("edge {eid} has dangling dst"));
            }
        }
        for (column, len, what) in [
            (&self.vertex_column, vertices, "vertex"),
            (&self.edge_column, self.edges.len(), "edge"),
        ] {
            if let Err(msg) = column.check(len) {
                return corrupt(format!("{what} column: {msg}"));
            }
        }
        self.outgoing
            .check(vertices, &self.edges, Edge::src, "out-edge")
            .and_then(|()| {
                self.incoming
                    .check(vertices, &self.edges, Edge::dst, "in-edge")
            })
            .or_else(corrupt)
    }

    /// Copy every vertex and edge of `other` into `self`, returning the
    /// vertex id translation table (`other` id index → new id). The basis of
    /// scene-graph merging in the aggregator.
    pub fn absorb(&mut self, other: &Graph) -> Vec<VertexId> {
        self.absorb_where(other, |_| true)
            .into_iter()
            .map(|id| id.expect("every vertex is kept"))
            .collect()
    }

    /// Copy the subgraph of `other` induced by the vertices `keep` accepts
    /// into `self`, with their labels and properties. Returns the vertex id
    /// translation table (`None` for dropped vertices); edges with a
    /// dropped endpoint are dropped. Each of `other`'s labels and property
    /// shapes is looked up in this graph's tables once, each column's
    /// words and run table grow once, by exactly what the kept elements
    /// carry, and both adjacency indexes are rebuilt once at the end. `other`'s run tables are walked, not searched per element.
    pub fn absorb_where(
        &mut self,
        other: &Graph,
        keep: impl Fn(VertexId) -> bool,
    ) -> Vec<Option<VertexId>> {
        let mut next = self.vertices.len();
        let mapping: Vec<Option<VertexId>> = (0..other.vertex_count())
            .map(|i| {
                keep(VertexId::from_index(i)).then(|| {
                    next += 1;
                    VertexId::from_index(next - 1)
                })
            })
            .collect();
        let kept = |e: &Edge| mapping[e.src().index()].zip(mapping[e.dst().index()]);
        self.vertex_column.reserve_exact(
            &other.vertex_column,
            other
                .vertex_column
                .slots(other.vertices.len())
                .zip(&mapping)
                .filter(|(_, new)| new.is_some())
                .map(|(slot, _)| slot),
        );
        self.edge_column.reserve_exact(
            &other.edge_column,
            other
                .edge_column
                .slots(other.edges.len())
                .zip(&other.edges)
                .filter(|(_, e)| kept(e).is_some())
                .map(|(slot, _)| slot),
        );

        let mut labels = vec![None; other.label_index.len()];
        let mut shapes = vec![None; other.vertex_column.shape_count()];
        let slots = other.vertex_column.slots(other.vertices.len());
        for ((v, new), slot) in other.vertices.iter().zip(&mapping).zip(slots) {
            if let Some(new) = new {
                let label = *labels[v.label.index()].get_or_insert_with(|| {
                    self.label_index.intern(other.label_index.text(v.label))
                });
                self.vertex_column
                    .copy(new.index(), &other.vertex_column, slot, &mut shapes);
                self.push_vertex(label);
            }
        }
        let mut labels = vec![None; other.edge_label_counts.len()];
        let mut shapes = vec![None; other.edge_column.shape_count()];
        let slots = other.edge_column.slots(other.edges.len());
        for (e, slot) in other.edges.iter().zip(slots) {
            if let Some((src, dst)) = kept(e) {
                let label = *labels[e.label.index()].get_or_insert_with(|| {
                    self.edge_label_counts
                        .intern(other.edge_label_counts.text(e.label))
                });
                self.edge_column
                    .copy(self.edges.len(), &other.edge_column, slot, &mut shapes);
                self.push_edge(src, dst, label);
            }
        }
        // No spare room stays in a run table: room it had before, or the
        // entry left over when the first copied run folded into its last.
        for column in [&mut self.vertex_column, &mut self.edge_column] {
            column.runs = exact(std::mem::take(&mut column.runs));
        }
        self.index_adjacency();
        mapping
    }
}

/// `column`'s runs over its `len` elements, each shape resolved.
fn shape_runs(column: &PropColumn, len: usize) -> impl Iterator<Item = (Range<usize>, Shape<'_>)> {
    column.run_ranges(len).map(|(elements, shape, _)| {
        let shape = column.shape_of(shape).expect("run shape is in range");
        (elements, shape)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, VertexId, VertexId, VertexId) {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        g.add_edge(a, b, "ab").unwrap();
        g.add_edge(b, c, "bc").unwrap();
        g.add_edge(c, a, "ca").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, a, b, _) = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vertex_label(a), Some("a"));
        assert!(g.has_edge(a, b, "ab"));
        assert!(!g.has_edge(b, a, "ab"));
    }

    #[test]
    fn unknown_endpoints_rejected() {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let ghost = VertexId::from_index(99);
        assert_eq!(
            g.add_edge(a, ghost, "x"),
            Err(GraphError::UnknownVertex(ghost))
        );
        assert_eq!(
            g.add_edge(ghost, a, "x"),
            Err(GraphError::UnknownVertex(ghost))
        );
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn label_index_tracks_duplicates() {
        let mut g = Graph::new();
        let d1 = g.add_vertex("dog");
        let d2 = g.add_vertex("dog");
        g.add_vertex("man");
        assert_eq!(g.vertices_with_label("dog"), &[d1, d2]);
        assert_eq!(g.vertices_with_label("cat"), &[] as &[VertexId]);
        let mut counts: Vec<_> = g.vertex_label_counts().collect();
        counts.sort();
        assert_eq!(counts, vec![("dog", 2), ("man", 1)]);
    }

    #[test]
    fn adjacency_directions() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.out_neighbors(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.in_neighbors(a).collect::<Vec<_>>(), vec![c]);
        let mut both: Vec<_> = g.neighbors(a).collect();
        both.sort();
        assert_eq!(both, vec![b, c]);
    }

    #[test]
    fn edge_label_statistics() {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, "near").unwrap();
        g.add_edge(b, a, "near").unwrap();
        g.add_edge(a, b, "wearing").unwrap();
        let mut labels: Vec<_> = g.edge_label_counts().collect();
        labels.sort();
        assert_eq!(labels, vec![("near", 2), ("wearing", 1)]);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, "x").unwrap();
        g.add_edge(a, b, "y").unwrap();
        assert_eq!(g.edges_between(a, b).count(), 2);
    }

    #[test]
    fn absorb_preserves_structure() {
        let (g1, _, _, _) = triangle();
        let mut g2 = Graph::new();
        let z = g2.add_vertex("z");
        let mapping = g2.absorb(&g1);
        assert_eq!(g2.vertex_count(), 4);
        assert_eq!(g2.edge_count(), 3);
        assert_eq!(mapping.len(), 3);
        assert_ne!(mapping[0], z);
        assert_eq!(g2.vertex_label(mapping[0]), Some("a"));
        assert!(g2.has_edge(mapping[0], mapping[1], "ab"));
        g2.validate().unwrap();
    }

    #[test]
    fn absorb_where_keeps_the_induced_subgraph() {
        let (g1, a, b, c) = triangle();
        let mut g2 = Graph::new();
        let mapping = g2.absorb_where(&g1, |v| v != b);
        assert_eq!(mapping[b.index()], None);
        let (na, nc) = (mapping[a.index()].unwrap(), mapping[c.index()].unwrap());
        assert_eq!(g2.vertex_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        assert!(g2.has_edge(nc, na, "ca"));
        g2.validate().unwrap();
    }

    #[test]
    fn labels_are_stored_once_per_graph() {
        let mut g = Graph::new();
        let a = g.add_vertex("dog");
        let b = g.add_vertex(String::from("dog"));
        let e1 = g.add_edge(a, b, "near").unwrap();
        let e2 = g.add_edge(b, a, "near").unwrap();
        assert_eq!(g.vertices[a.index()].label, g.vertices[b.index()].label);
        assert_eq!(g.edges[e1.index()].label, g.edges[e2.index()].label);
        assert_eq!((g.label_index.len(), g.edge_label_counts.len()), (1, 1));
        let dog = g.vertex_label_id("dog").unwrap();
        assert_eq!(g.vertex_label_text(dog), "dog");
        assert_eq!(
            g.edge_label_id("near"),
            Some(g.edges[e1.index()].label_id())
        );
        assert_eq!(g.edge_label_id("dog"), None);

        // Absorbing reuses the target's id of a label it knows and numbers
        // one it does not.
        let mut h = Graph::new();
        h.add_vertex("cat");
        let known = h.add_vertex("dog");
        let mapping = h.absorb(&g);
        assert_eq!(
            h.vertices[known.index()].label,
            h.vertices[mapping[0].index()].label
        );
        assert_eq!((h.label_index.len(), h.edge_label_counts.len()), (2, 1));
        assert_eq!(h.edge_label(EdgeId::from_index(0)), Some("near"));

        // Loaded graphs number their labels again.
        let back = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        assert_eq!(back.vertices[0].label, back.vertices[1].label);
        assert_eq!(
            (back.label_index.len(), back.edge_label_counts.len()),
            (1, 1)
        );
    }

    #[test]
    fn elements_are_packed() {
        // A vertex is its label id, 4 bytes, and an edge its endpoints and
        // label id, 12. Adjacency lives in the graph's indexes, each
        // property value is one 8-byte word of a column, and which shape an
        // element has is one 12-byte run per stretch of elements.
        assert_eq!(std::mem::size_of::<Vertex>(), 4);
        assert_eq!(std::mem::size_of::<Edge>(), 12);
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
        assert_eq!(std::mem::size_of::<crate::props::Run>(), 12);
        assert_eq!(std::mem::size_of::<crate::props::Word>(), 8);
    }

    /// Two vertex shapes holding both value kinds, a vertex without
    /// properties between them, and `score` edges around a bare one.
    fn shaped() -> Graph {
        use crate::props::Kind;
        let bbox = Shape {
            keys: &["image", "x", "y"],
            kinds: &[Kind::Int, Kind::Float, Kind::Float],
        };
        let wool = Shape {
            keys: &["kind", "seen"],
            kinds: &[Kind::Int, Kind::Float],
        };
        let score = Shape {
            keys: &["score"],
            kinds: &[Kind::Float],
        };
        let mut g = Graph::new();
        let dog = g.add_vertex_with_props(
            "dog",
            bbox,
            [Value::Int(3), Value::Float(0.25), Value::Float(0.5)],
        );
        let man = g.add_vertex("man");
        let hat = g.add_vertex_with_props("hat", wool, [Value::Int(-2), Value::Float(1.0)]);
        let dog2 = g.add_vertex_with_props(
            "dog",
            bbox,
            [Value::Int(4), Value::Float(0.125), Value::Float(0.75)],
        );
        g.add_edge_with_props(dog, man, "near", score, [Value::Float(0.75)])
            .unwrap();
        g.add_edge(man, hat, "wearing").unwrap();
        g.add_edge_with_props(dog2, man, "near", score, [Value::Float(0.5)])
            .unwrap();
        g
    }

    /// `g`'s snapshot bytes as lowercase hex.
    fn snapshot_hex(g: &Graph) -> String {
        crate::binio::to_bytes(g)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn property_bytes_are_pinned() {
        // The snapshot as the per-element property lists wrote it.
        let g = shaped();
        assert_eq!(
            snapshot_hex(&g),
            concat!(
                "5356514701000400000003000000050000000300646f6703006d616e030068617404006e6561",
                "72070077656172696e670000000003000500696d616765010300000000000000010078020000",
                "00000000d03f01007902000000000000e03f01000000000002000000020004006b696e6401fe",
                "ffffffffffffff04007365656e02000000000000f03f0000000003000500696d616765010400",
                "00000000000001007802000000000000c03f01007902000000000000e83f0000000001000000",
                "030000000100050073636f726502000000000000e83f01000000020000000400000000000300",
                "000001000000030000000100050073636f726502000000000000e03f"
            )
        );

        // Every element's properties survive the snapshot.
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let loaded = crate::binio::from_bytes(bytes.clone()).unwrap();
        assert_eq!(crate::binio::to_bytes(&loaded).unwrap(), bytes);
        for (id, _) in g.vertices() {
            assert_eq!(loaded.vertex_props(id), g.vertex_props(id), "{id}");
        }
        for (id, _) in g.edges() {
            assert_eq!(loaded.edge_props(id), g.edge_props(id), "{id}");
        }
        assert_eq!(
            loaded.value_columns(),
            g.value_columns().map(|c| ColumnSize {
                capacity: c.len,
                ..c
            })
        );
        // One shape per distinct key list: the two bbox vertices share one.
        assert_eq!(g.vertex_column.shape_count(), 3);
        assert_eq!(g.edge_column.shape_count(), 2);
        assert_eq!(
            g.vertex_props(VertexId::from_index(3)).get("image"),
            Some(crate::Value::Int(4))
        );
    }

    #[test]
    fn snapshot_layout_is_pinned() {
        // Labels in first-seen order, then each vertex's label id and each
        // edge's endpoints and label id; adjacency is not written.
        let (g, _, _, _) = triangle();
        assert_eq!(
            snapshot_hex(&g),
            concat!(
                "5356514701000300000003000000060000000100610100620100630200616202006263020063",
                "6100000000000001000000000002000000000000000000010000000300000000000100000002",
                "0000000400000000000200000000000000050000000000"
            )
        );
        g.validate().unwrap();
        // `from_bytes` validates what it loads.
        let back = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        for (id, _) in g.vertices() {
            assert_eq!(back.out_edge_ids(id), g.out_edge_ids(id), "{id}");
            assert_eq!(back.in_edge_ids(id), g.in_edge_ids(id), "{id}");
        }
    }

    #[test]
    fn validate_passes_on_well_formed_graph() {
        let (g, _, _, _) = triangle();
        g.validate().unwrap();
        shaped().validate().unwrap();
    }

    /// `g`'s validation error, which must be the corrupt-graph error a
    /// `binio` load of `g` would return.
    fn corruption(g: &Graph) -> String {
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphError::CorruptGraph(_)), "{err}");
        let message = err.to_string();
        assert!(message.starts_with("corrupt graph: "), "{message}");
        message
    }

    /// The run tables of [`shaped`], as (first element, shape, first word)
    /// triples: vertices bbox, bare, wool, bbox; edges score, bare, score.
    #[test]
    fn run_tables_are_minimal_and_cover_the_words() {
        let g = shaped();
        let table = |column: &PropColumn| {
            column
                .runs
                .iter()
                .map(|run| (run.first, run.shape, run.start))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            table(&g.vertex_column),
            [(0, 1, 0), (1, 0, 3), (2, 2, 3), (3, 1, 5)]
        );
        assert_eq!(table(&g.edge_column), [(0, 1, 0), (1, 0, 1), (2, 1, 1)]);
        let back = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        assert_eq!(table(&back.vertex_column), table(&g.vertex_column));
        assert_eq!(table(&back.edge_column), table(&g.edge_column));
        let runs: Vec<_> = g
            .vertex_shape_runs()
            .map(|(range, s)| (range, s.keys.len()))
            .collect();
        assert_eq!(runs, [(0..1, 3), (1..2, 0), (2..3, 2), (3..4, 3)]);
    }

    #[test]
    fn runs_must_start_at_element_0() {
        let mut g = shaped();
        g.vertex_column.runs[0].first = 1;
        assert!(corruption(&g).contains("vertex column: run 0 starts at element 1, not 0"));
        // No run at all over elements that exist.
        let mut g = shaped();
        g.edge_column.runs.clear();
        assert!(corruption(&g).contains("edge column: no run starts at element 0"));
    }

    #[test]
    fn run_first_elements_must_strictly_ascend() {
        let mut g = shaped();
        g.vertex_column.runs[2].first = 1;
        assert!(corruption(&g).contains("vertex column: run 2 does not start after run 1"));
        // A run past the last element is empty, and so is every run after
        // it.
        let mut g = shaped();
        g.edge_column.runs[2].first = 3;
        assert!(corruption(&g).contains("edge column: run 2 starts at element 3, past 3"));
    }

    #[test]
    fn run_shapes_must_be_in_range() {
        let mut g = shaped();
        g.vertex_column.runs[1].shape = 9;
        assert!(corruption(&g).contains("vertex column: run 1 has shape 9 out of range"));
    }

    #[test]
    fn adjacent_runs_must_differ_in_shape() {
        // The bare edge's run given the score shape: a table that would
        // read the same elements with one run fewer.
        let mut g = shaped();
        g.edge_column.runs[1].shape = 1;
        assert!(corruption(&g).contains("edge column: runs 0 and 1 share shape 1"));
    }

    #[test]
    fn runs_must_start_where_the_previous_run_ends() {
        let mut g = shaped();
        g.vertex_column.runs[2].start = 4;
        assert!(corruption(&g).contains("vertex column: run 2 starts at word 4, not at 3"));
    }

    #[test]
    fn the_last_run_must_end_at_the_last_word() {
        let mut g = shaped();
        g.vertex_column.words.push(0);
        assert!(corruption(&g).contains("vertex column: runs end at word 8, not at 9"));
        let mut g = shaped();
        g.edge_column.words.pop();
        assert!(corruption(&g).contains("edge column: runs end at word 2, not at 1"));
    }

    #[test]
    fn repeated_adjacency_entry_is_detected() {
        // Two self-loops, the first listed twice in the out-run: every
        // entry names an edge the vertex owns, and the offsets still end at
        // E, but the run is not the ascending ids of its edges.
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let e = g.add_edge(a, a, "x").unwrap();
        g.add_edge(a, a, "y").unwrap();
        g.validate().unwrap();
        g.outgoing.ids[1] = e;
        assert!(corruption(&g).contains("vertex v0 lists out-edge e0 twice"));
    }

    #[test]
    fn unordered_adjacency_is_detected() {
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, "x").unwrap();
        g.add_edge(a, b, "y").unwrap();
        g.validate().unwrap();
        g.outgoing.ids.reverse();
        assert!(corruption(&g).contains("vertex v0 lists out-edge e0 out of ascending order"));
        g.outgoing.ids.reverse();
        g.incoming.ids.reverse();
        assert!(corruption(&g).contains("vertex v1 lists in-edge e0 out of ascending order"));
    }

    #[test]
    fn inconsistent_adjacency_is_detected() {
        // An entry in the wrong vertex's run: `a → b`'s id moved from b's
        // in-run to a's, with the offsets still ending at E.
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, "x").unwrap();
        g.incoming.offsets = vec![0, 1, 1];
        assert!(corruption(&g).contains("vertex v0 lists in-edge e0 it does not own"));
        // Offsets that do not end at E: the triangle's last in-run is cut
        // short, which leaves its edge in no run.
        let (mut g, _, _, _) = triangle();
        g.incoming.offsets[3] = 2;
        assert!(corruption(&g).contains("in-edge offsets do not run from 0 to 3"));
        // Offsets that fall, with the right end and length.
        let (mut g, _, _, _) = triangle();
        g.outgoing.offsets[2] = 0;
        assert!(corruption(&g).contains("out-edge offsets fall at vertex v1"));
        // An index that misses a vertex.
        let (mut g, _, _, _) = triangle();
        g.incoming.offsets.pop();
        assert!(corruption(&g).contains("in-edge offsets"));
    }

    #[test]
    fn absorb_copies_properties_into_exact_columns() {
        let g = shaped();
        let mut h = Graph::new();
        let mapping = h.absorb_where(&g, |v| v.index() != 0);
        assert_eq!(mapping[0], None);
        for (id, _) in g.vertices().skip(1) {
            let new = mapping[id.index()].unwrap();
            assert_eq!(h.vertex_props(new), g.vertex_props(id));
        }
        // Only the bare edge and the second score edge survive.
        assert_eq!(h.edge_count(), 2);
        assert_eq!(
            h.edge_props(EdgeId::from_index(1)).get("score"),
            Some(crate::Value::Float(0.5))
        );
        assert_eq!(
            h.value_columns(),
            [
                ColumnSize {
                    len: 5,
                    capacity: 5
                },
                ColumnSize {
                    len: 1,
                    capacity: 1
                }
            ]
        );
        // The run tables too: vertices bare, wool, bbox; edges bare, score.
        for (column, runs) in [(&h.vertex_column, 3), (&h.edge_column, 2)] {
            assert_eq!((column.runs.len(), column.runs.capacity()), (runs, runs));
        }
        h.validate().unwrap();
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = Graph::with_capacity(100, 200);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}

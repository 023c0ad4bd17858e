//! The directed labeled graph.

use crate::adjacency::Adjacency;
use crate::edge::Edge;
use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::label::{LabelId, LabelTable};
use crate::vertex::Vertex;

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
/// A vertex's one property, the image id of a scene vertex, sits in the
/// [`Vertex`] itself ([`Graph::add_scene_vertex`], read by
/// [`crate::scene_image`]); edges carry none.
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

    /// Add a vertex with the given label and no image: a knowledge-graph
    /// vertex. A label some vertex already carries is referred to by id,
    /// not copied.
    pub fn add_vertex(&mut self, label: impl AsRef<str>) -> VertexId {
        self.insert_vertex(label.as_ref(), None)
    }

    /// Add a scene vertex: the given label, detected in image `image`.
    ///
    /// # Panics
    ///
    /// When `image` is `u32::MAX`, the one id a vertex cannot hold.
    pub fn add_scene_vertex(&mut self, label: impl AsRef<str>, image: u32) -> VertexId {
        self.insert_vertex(label.as_ref(), Some(image))
    }

    fn insert_vertex(&mut self, label: &str, image: Option<u32>) -> VertexId {
        let label = self.label_index.intern(label);
        self.outgoing.push_vertex();
        self.incoming.push_vertex();
        self.push_vertex(Vertex::new(label, image))
    }

    /// Append `vertex`, whose label is already in the vertex-label table.
    /// The adjacency indexes do not cover it until they are rebuilt.
    pub(crate) fn push_vertex(&mut self, vertex: Vertex) -> VertexId {
        let id = VertexId::from_index(self.vertices.len());
        self.label_index.value_mut(vertex.label).push(id);
        self.vertices.push(vertex);
        id
    }

    /// Add a directed edge `src → dst` with the given label. A label some
    /// edge already carries is referred to by id, not copied.
    ///
    /// The edge goes to the end of `src`'s out-run and `dst`'s in-run,
    /// which shifts every later entry of both adjacency arrays: one call
    /// costs O(V + E). The bulk paths ([`Graph::absorb_where`],
    /// [`Graph::append_windows`], [`crate::binio::from_bytes`]) do not use
    /// it; they index every edge at once when they finish.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: impl AsRef<str>,
    ) -> Result<EdgeId, GraphError> {
        let id = self.append_edge(src, dst, label.as_ref())?;
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
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(src));
        }
        if dst.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(dst));
        }
        let label = self.edge_label_counts.intern(label);
        Ok(self.push_edge(src, dst, label))
    }

    /// Append an edge between existing vertices whose label is already in
    /// the edge-label table. The adjacency indexes do not cover it until
    /// they are rebuilt.
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

    /// Validate internal consistency, in one pass over the edge arena and
    /// each adjacency index: every edge endpoint resolves, and each index
    /// holds, for every vertex, exactly the ascending ids of the edges
    /// leaving (entering) it. Used after deserialization and available to
    /// tests.
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
    /// into `self`, each vertex with its label and image id. Returns the
    /// vertex id translation table (`None` for dropped vertices); edges
    /// with a dropped endpoint are dropped. Each of `other`'s labels is
    /// looked up in this graph's tables once, and both adjacency indexes
    /// are rebuilt once at the end.
    pub fn absorb_where(
        &mut self,
        other: &Graph,
        keep: impl Fn(VertexId) -> bool,
    ) -> Vec<Option<VertexId>> {
        let mut labels = vec![None; other.label_index.len()];
        let mapping: Vec<Option<VertexId>> = other
            .vertices()
            .map(|(id, &v)| {
                keep(id).then(|| {
                    let label = *labels[v.label.index()].get_or_insert_with(|| {
                        self.label_index.intern(other.label_index.text(v.label))
                    });
                    self.push_vertex(v.relabeled(label))
                })
            })
            .collect();
        let mut labels = vec![None; other.edge_label_counts.len()];
        for e in &other.edges {
            if let Some((src, dst)) = mapping[e.src().index()].zip(mapping[e.dst().index()]) {
                let label = *labels[e.label.index()].get_or_insert_with(|| {
                    self.edge_label_counts
                        .intern(other.edge_label_counts.text(e.label))
                });
                self.push_edge(src, dst, label);
            }
        }
        self.index_adjacency();
        mapping
    }
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
        // A vertex is its label id and its image id plus one, 8 bytes (a
        // knowledge-graph vertex's `None` is the zero the id plus one never
        // is), and an edge its endpoints and label id, 12. Adjacency lives
        // in the graph's indexes.
        assert_eq!(std::mem::size_of::<Vertex>(), 8);
        assert_eq!(std::mem::size_of::<Edge>(), 12);
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
    }

    /// Two scene vertices with a bare vertex between them and one after,
    /// and bare edges.
    fn shaped() -> Graph {
        let mut g = Graph::new();
        let dog = g.add_scene_vertex("dog", 3);
        let man = g.add_vertex("man");
        let hat = g.add_vertex("hat");
        let dog2 = g.add_scene_vertex("dog", 4);
        g.add_edge(dog, man, "near").unwrap();
        g.add_edge(man, hat, "wearing").unwrap();
        g.add_edge(dog2, man, "near").unwrap();
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
        // The snapshot as the per-element property lists wrote it: a scene
        // vertex's list is its `image` key, tag 1 and the id's 8 bytes, and
        // every other list is empty.
        let g = shaped();
        assert_eq!(
            snapshot_hex(&g),
            concat!(
                "5356514701000400000003000000050000000300646f6703006d616e030068617404006e6561",
                "72070077656172696e670000000001000500696d616765010300000000000000010000000000",
                "0200000000000000000001000500696d61676501040000000000000000000000010000000300",
                "0000000001000000020000000400000000000300000001000000030000000000"
            )
        );

        // Every vertex's image id survives the snapshot.
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let loaded = crate::binio::from_bytes(bytes.clone()).unwrap();
        assert_eq!(crate::binio::to_bytes(&loaded).unwrap(), bytes);
        let images = |g: &Graph| {
            g.vertices()
                .map(|(id, _)| crate::scene_image(g, id))
                .collect::<Vec<_>>()
        };
        assert_eq!(images(&g), [Some(3), None, None, Some(4)]);
        assert_eq!(images(&loaded), images(&g));
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
        // Each kept vertex takes its image id with it; the edges stay bare.
        let g = shaped();
        let mut h = Graph::new();
        h.add_scene_vertex("cat", 9);
        let mapping = h.absorb_where(&g, |v| v.index() != 0);
        assert_eq!(mapping[0], None);
        for (id, _) in g.vertices().skip(1) {
            let new = mapping[id.index()].unwrap();
            assert_eq!(crate::scene_image(&h, new), crate::scene_image(&g, id));
            assert_eq!(h.vertex_label(new), g.vertex_label(id));
        }
        assert_eq!(crate::scene_image(&h, VertexId::from_index(0)), Some(9));
        // Only the wearing edge and the second near edge survive.
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(mapping[3].unwrap(), mapping[1].unwrap(), "near"));
        h.validate().unwrap();
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = Graph::with_capacity(100, 200);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}

//! The directed labeled property graph.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::label::{LabelId, LabelTable};
use crate::props::Properties;
use crate::vertex::Vertex;
use serde::{Deserialize, Error, Map, Serialize, Value};

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
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub(crate) vertices: Vec<Vertex>,
    pub(crate) edges: Vec<Edge>,
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

    /// Add a vertex with the given label and no properties.
    pub fn add_vertex(&mut self, label: impl AsRef<str>) -> VertexId {
        self.add_vertex_with_props(label, Properties::new())
    }

    /// Add a vertex with the given label and properties. A label some
    /// vertex already carries is referred to by id, not copied.
    pub fn add_vertex_with_props(
        &mut self,
        label: impl AsRef<str>,
        props: Properties,
    ) -> VertexId {
        let label = self.label_index.intern(label.as_ref());
        self.push_vertex(label, props)
    }

    /// Append a vertex whose label is already in the vertex-label table.
    pub(crate) fn push_vertex(&mut self, label: LabelId, props: Properties) -> VertexId {
        let id = VertexId::from_index(self.vertices.len());
        self.label_index.value_mut(label).push(id);
        self.vertices.push(Vertex::new(label, props));
        id
    }

    /// Add a directed edge `src → dst` with the given label.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: impl AsRef<str>,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_with_props(src, dst, label, Properties::new())
    }

    /// Add a directed edge `src → dst` with the given label and properties.
    /// A label some edge already carries is referred to by id, not copied.
    pub fn add_edge_with_props(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: impl AsRef<str>,
        props: Properties,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(src));
        }
        if dst.index() >= self.vertices.len() {
            return Err(GraphError::UnknownVertex(dst));
        }
        let label = self.edge_label_counts.intern(label.as_ref());
        Ok(self.push_edge(src, dst, label, props))
    }

    /// Append an edge between existing vertices whose label is already in
    /// the edge-label table.
    fn push_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: LabelId,
        props: Properties,
    ) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        *self.edge_label_counts.value_mut(label) += 1;
        self.edges.push(Edge::new(src, dst, label, props));
        self.vertices[src.index()].out_edges.push(id);
        self.vertices[dst.index()].in_edges.push(id);
        id
    }

    /// Look up a vertex by id.
    pub fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(id.index())
    }

    /// Mutable vertex lookup.
    pub fn vertex_mut(&mut self, id: VertexId) -> Option<&mut Vertex> {
        self.vertices.get_mut(id.index())
    }

    /// Look up an edge by id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index())
    }

    /// Mutable edge lookup.
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut Edge> {
        self.edges.get_mut(id.index())
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

    /// Outgoing edges of `v` as `(edge id, edge)` pairs.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.vertex(v)
            .map(|vx| vx.out_edge_ids())
            .unwrap_or(&[])
            .iter()
            .map(move |&eid| (eid, &self.edges[eid.index()]))
    }

    /// Incoming edges of `v` as `(edge id, edge)` pairs.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.vertex(v)
            .map(|vx| vx.in_edge_ids())
            .unwrap_or(&[])
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

    /// Validate internal consistency: every edge endpoint resolves, and every
    /// adjacency entry points back at the right vertex. Used after
    /// deserialization and available to tests.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, e) in self.edges.iter().enumerate() {
            let eid = EdgeId::from_index(i);
            let src = self
                .vertex(e.src())
                .ok_or(GraphError::CorruptGraph(format!("edge {eid} has dangling src")))?;
            if !src.out_edge_ids().contains(&eid) {
                return Err(GraphError::CorruptGraph(format!(
                    "edge {eid} missing from src adjacency"
                )));
            }
            let dst = self
                .vertex(e.dst())
                .ok_or(GraphError::CorruptGraph(format!("edge {eid} has dangling dst")))?;
            if !dst.in_edge_ids().contains(&eid) {
                return Err(GraphError::CorruptGraph(format!(
                    "edge {eid} missing from dst adjacency"
                )));
            }
        }
        for (vid, v) in self.vertices() {
            for &eid in v.out_edge_ids() {
                match self.edge(eid) {
                    Some(e) if e.src() == vid => {}
                    _ => {
                        return Err(GraphError::CorruptGraph(format!(
                            "vertex {vid} lists out-edge {eid} it does not own"
                        )))
                    }
                }
            }
            for &eid in v.in_edge_ids() {
                match self.edge(eid) {
                    Some(e) if e.dst() == vid => {}
                    _ => {
                        return Err(GraphError::CorruptGraph(format!(
                            "vertex {vid} lists in-edge {eid} it does not own"
                        )))
                    }
                }
            }
        }
        Ok(())
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
    /// dropped endpoint are dropped. Each of `other`'s labels is looked up
    /// in this graph's tables once.
    pub fn absorb_where(
        &mut self,
        other: &Graph,
        keep: impl Fn(VertexId) -> bool,
    ) -> Vec<Option<VertexId>> {
        let mut labels = vec![None; other.label_index.len()];
        let mut mapping = Vec::with_capacity(other.vertex_count());
        for (id, v) in other.vertices() {
            mapping.push(keep(id).then(|| {
                let label = *labels[v.label.index()].get_or_insert_with(|| {
                    self.label_index.intern(other.label_index.text(v.label))
                });
                self.push_vertex(label, v.props().clone())
            }));
        }
        let mut labels = vec![None; other.edge_label_counts.len()];
        for (_, e) in other.edges() {
            if let (Some(src), Some(dst)) = (mapping[e.src().index()], mapping[e.dst().index()]) {
                let label = *labels[e.label.index()].get_or_insert_with(|| {
                    self.edge_label_counts
                        .intern(other.edge_label_counts.text(e.label))
                });
                self.push_edge(src, dst, label, e.props().clone());
            }
        }
        mapping
    }
}

/// The JSON object of `fields`, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect::<Map>(),
    )
}

/// Serializes the arenas as `{"vertices": [...], "edges": [...]}`, each
/// element with its label's text; the label tables are rebuilt on load.
impl Serialize for Graph {
    fn to_value(&self) -> Value {
        let vertices = self
            .vertices
            .iter()
            .map(|v| {
                object([
                    (
                        "label",
                        Value::String(self.label_index.text(v.label).to_owned()),
                    ),
                    ("props", v.props().to_value()),
                    ("out_edges", v.out_edges.to_value()),
                    ("in_edges", v.in_edges.to_value()),
                ])
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                object([
                    ("src", e.src().to_value()),
                    ("dst", e.dst().to_value()),
                    (
                        "label",
                        Value::String(self.edge_label_counts.text(e.label).to_owned()),
                    ),
                    ("props", e.props().to_value()),
                ])
            })
            .collect();
        object([
            ("vertices", Value::Array(vertices)),
            ("edges", Value::Array(edges)),
        ])
    }
}

/// Reads the arenas and builds the label tables and indexes. Endpoints and
/// adjacency are taken as written: [`Graph::validate`] checks them.
impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fn field<'v>(v: &'v Value, what: &str, name: &str) -> Result<&'v Value, Error> {
            v.get(name)
                .ok_or_else(|| Error::custom(format!("{what}: missing field `{name}`")))
        }
        fn elements<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], Error> {
            field(v, "Graph", name)?
                .as_array()
                .map(Vec::as_slice)
                .ok_or_else(|| Error::custom(format!("Graph.{name}: expected an array")))
        }
        fn label<'v>(v: &'v Value, what: &str) -> Result<&'v str, Error> {
            let label = field(v, what, "label")?;
            label.as_str().ok_or_else(|| {
                Error::custom(format!(
                    "{what}.label: expected a string, found {}",
                    label.kind()
                ))
            })
        }
        let (vertices, edges) = (elements(v, "vertices")?, elements(v, "edges")?);
        let mut graph = Graph::with_capacity(vertices.len(), edges.len());
        for v in vertices {
            let label = graph.label_index.intern(label(v, "Vertex")?);
            let props = Properties::from_value(field(v, "Vertex", "props")?)?;
            let id = graph.push_vertex(label, props);
            let vertex = &mut graph.vertices[id.index()];
            vertex.out_edges = Deserialize::from_value(field(v, "Vertex", "out_edges")?)?;
            vertex.in_edges = Deserialize::from_value(field(v, "Vertex", "in_edges")?)?;
        }
        for e in edges {
            let label = graph.edge_label_counts.intern(label(e, "Edge")?);
            *graph.edge_label_counts.value_mut(label) += 1;
            graph.edges.push(Edge::new(
                VertexId::from_value(field(e, "Edge", "src")?)?,
                VertexId::from_value(field(e, "Edge", "dst")?)?,
                label,
                Properties::from_value(field(e, "Edge", "props")?)?,
            ));
        }
        Ok(graph)
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

        // Deserialized graphs number their labels again.
        let back = crate::io::from_json(&crate::io::to_json(&g)).unwrap();
        assert_eq!(back.vertices[0].label, back.vertices[1].label);
        assert_eq!(
            (back.label_index.len(), back.edge_label_counts.len()),
            (1, 1)
        );
    }

    #[test]
    fn elements_are_packed() {
        // A label id and an exactly sized property slice: a vertex is its
        // two adjacency lists plus 24 bytes, an edge 32 bytes.
        let (vertex, edge) = (std::mem::size_of::<Vertex>(), std::mem::size_of::<Edge>());
        assert!(vertex <= 72, "{vertex}");
        assert!(edge <= 32, "{edge}");
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
    }

    #[test]
    fn json_layout_is_pinned() {
        let (g, _, _, _) = triangle();
        let json = crate::io::to_json(&g);
        assert!(json.starts_with(concat!(
            r#"{"vertices":[{"label":"a","props":{"entries":[]},"out_edges":[0],"in_edges":[2]},"#,
            r#"{"label":"b","#
        )));
        assert!(json.ends_with(r#"{"src":2,"dst":0,"label":"ca","props":{"entries":[]}}]}"#));
        for missing in [
            r#"{"edges":[]}"#,
            r#"{"vertices":[{"label":"a","props":{"entries":[]},"out_edges":[]}],"edges":[]}"#,
            r#"{"vertices":[],"edges":[{"src":0,"dst":0,"props":{"entries":[]}}]}"#,
        ] {
            assert!(crate::io::from_json(missing).is_err(), "{missing}");
        }
    }

    #[test]
    fn validate_passes_on_well_formed_graph() {
        let (g, _, _, _) = triangle();
        g.validate().unwrap();
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = Graph::with_capacity(100, 200);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}

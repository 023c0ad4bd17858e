//! The directed labeled property graph.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::label::Label;
use crate::props::Properties;
use crate::vertex::Vertex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A directed labeled graph `G = (V, E, L)` (§II of the paper).
///
/// Vertices and edges are append-only: SVQA builds scene graphs, merges them
/// into the merged graph, and attaches cache indexes, but never deletes
/// structure mid-query; dropping deletion keeps ids stable and the arenas
/// dense.
///
/// The two label indexes double as the graph's label interner: every vertex
/// (edge) holds a clone of its label's key in `label_index`
/// (`edge_label_counts`), so a label's text is stored once per graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) vertices: Vec<Vertex>,
    pub(crate) edges: Vec<Edge>,
    /// label → vertex ids carrying that label (in insertion order).
    #[serde(skip)]
    pub(crate) label_index: HashMap<Label, Vec<VertexId>>,
    /// edge label → number of edges carrying it (Algorithm 3's
    /// `getLabels(E_mg)` reads this).
    #[serde(skip)]
    pub(crate) edge_label_counts: HashMap<Label, usize>,
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
            label_index: HashMap::new(),
            edge_label_counts: HashMap::new(),
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
    /// vertex already carries is shared, not copied.
    pub fn add_vertex_with_props(
        &mut self,
        label: impl AsRef<str>,
        props: Properties,
    ) -> VertexId {
        let label = label.as_ref();
        let label = shared(&self.label_index, label, || Label::from(label));
        self.push_vertex(label, props)
    }

    /// Append a vertex whose label is already this graph's shared copy (or
    /// new to it).
    fn push_vertex(&mut self, label: Label, props: Properties) -> VertexId {
        let id = VertexId::from_index(self.vertices.len());
        match self.label_index.get_mut(label.as_str()) {
            Some(ids) => ids.push(id),
            None => {
                self.label_index.insert(label.clone(), vec![id]);
            }
        }
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
    /// A label some edge already carries is shared, not copied.
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
        let label = label.as_ref();
        let label = shared(&self.edge_label_counts, label, || Label::from(label));
        Ok(self.push_edge(src, dst, label, props))
    }

    /// Append an edge between existing vertices whose label is already
    /// this graph's shared copy (or new to it).
    fn push_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: Label,
        props: Properties,
    ) -> EdgeId {
        let id = EdgeId::from_index(self.edges.len());
        match self.edge_label_counts.get_mut(label.as_str()) {
            Some(count) => *count += 1,
            None => {
                self.edge_label_counts.insert(label.clone(), 1);
            }
        }
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
        self.vertex(id).map(Vertex::label)
    }

    /// Label `L(e)` of an edge; `None` for a foreign id.
    pub fn edge_label(&self, id: EdgeId) -> Option<&str> {
        self.edge(id).map(Edge::label)
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
            .get(label)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Distinct vertex labels with their vertex counts.
    pub fn vertex_label_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.label_index.iter().map(|(l, ids)| (l.as_str(), ids.len()))
    }

    /// Distinct edge labels with their edge counts — Algorithm 3's
    /// `T ← getLabels(E_mg)`.
    pub fn edge_label_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.edge_label_counts.iter().map(|(l, c)| (l.as_str(), *c))
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
        self.edges_between(src, dst).any(|(_, e)| e.label() == label)
    }

    /// Rebuild the label and edge-label indexes from the arenas, re-pointing
    /// every element at one shared copy of its label. Called after
    /// deserialization (the indexes are not persisted).
    pub(crate) fn rebuild_indexes(&mut self) {
        self.label_index.clear();
        self.edge_label_counts.clear();
        for (i, v) in self.vertices.iter_mut().enumerate() {
            v.label = shared(&self.label_index, v.label.as_str(), || v.label.clone());
            self.label_index
                .entry(v.label.clone())
                .or_default()
                .push(VertexId::from_index(i));
        }
        for e in &mut self.edges {
            e.label = shared(&self.edge_label_counts, e.label.as_str(), || {
                e.label.clone()
            });
            *self.edge_label_counts.entry(e.label.clone()).or_insert(0) += 1;
        }
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
    /// dropped endpoint are dropped. Labels are shared, never copied: each
    /// one is this graph's copy when it has one, `other`'s otherwise.
    pub fn absorb_where(
        &mut self,
        other: &Graph,
        keep: impl Fn(VertexId) -> bool,
    ) -> Vec<Option<VertexId>> {
        let mut mapping = Vec::with_capacity(other.vertex_count());
        for (id, v) in other.vertices() {
            mapping.push(keep(id).then(|| {
                let label = shared(&self.label_index, v.label(), || v.label.clone());
                self.push_vertex(label, v.props().clone())
            }));
        }
        for (_, e) in other.edges() {
            if let (Some(src), Some(dst)) = (mapping[e.src().index()], mapping[e.dst().index()]) {
                let label = shared(&self.edge_label_counts, e.label(), || e.label.clone());
                self.push_edge(src, dst, label, e.props().clone());
            }
        }
        mapping
    }
}

/// The shared copy of `label` among `index`'s keys, or `fresh()` when no
/// element carries it yet. Probing by `&str` means a known label costs a
/// reference-count bump, never an allocation.
pub(crate) fn shared<V>(index: &HashMap<Label, V>, label: &str, fresh: impl FnOnce() -> Label) -> Label {
    match index.get_key_value(label) {
        Some((known, _)) => known.clone(),
        None => fresh(),
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
        let shares = |x: &Label, y: &Label| std::ptr::eq(x.as_str(), y.as_str());
        assert!(shares(
            &g.vertices[a.index()].label,
            &g.vertices[b.index()].label
        ));
        assert!(shares(
            &g.edges[e1.index()].label,
            &g.edges[e2.index()].label
        ));

        // Absorbing reuses the target's copy of a label it knows and the
        // source's copy of one it does not.
        let mut h = Graph::new();
        let known = h.add_vertex("dog");
        let mapping = h.absorb(&g);
        assert!(shares(
            &h.vertices[known.index()].label,
            &h.vertices[mapping[0].index()].label
        ));
        assert!(shares(&h.edges[0].label, &g.edges[e1.index()].label));

        // Deserialized graphs get their labels shared again.
        let back = crate::io::from_json(&crate::io::to_json(&g)).unwrap();
        assert!(shares(&back.vertices[0].label, &back.vertices[1].label));
        assert!(shares(&back.edges[0].label, &back.edges[1].label));
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

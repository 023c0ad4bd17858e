//! The compressed adjacency index of one edge direction.

use crate::edge::Edge;
use crate::ids::{EdgeId, VertexId};

/// Every vertex's incident edges in one direction, in two flat arrays:
/// vertex `v`'s run is `ids[offsets[v]..offsets[v + 1]]`, its edge ids in
/// ascending order. A [`crate::Graph`] holds one index for out-edges and
/// one for in-edges, both derived from its edge arena.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// `V + 1` run boundaries, from 0 up to `E`.
    pub(crate) offsets: Vec<u32>,
    /// `E` edge ids, grouped into runs by vertex.
    pub(crate) ids: Vec<EdgeId>,
}

impl Default for Adjacency {
    /// The index of a graph without vertices.
    fn default() -> Self {
        Adjacency {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

impl Adjacency {
    /// Index `edges` by `endpoint` over `vertices` vertices with one
    /// counting sort. Edges are placed in arena order, so each run comes
    /// out ascending; both arrays are sized exactly.
    pub(crate) fn build(vertices: usize, edges: &[Edge], endpoint: fn(&Edge) -> VertexId) -> Self {
        let mut offsets = vec![0u32; vertices + 1];
        for e in edges {
            offsets[endpoint(e).index() + 1] += 1;
        }
        for v in 0..vertices {
            offsets[v + 1] += offsets[v];
        }
        // Each vertex's start doubles as its write cursor. Once every edge
        // is placed, each cursor sits at its run's end, which is the next
        // run's start: shifting the array one place up restores the starts.
        let mut ids = vec![EdgeId::from_index(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let cursor = &mut offsets[endpoint(e).index()];
            ids[*cursor as usize] = EdgeId::from_index(i);
            *cursor += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        Adjacency { offsets, ids }
    }

    /// The run of `v`; empty for a vertex the index does not cover.
    pub(crate) fn run(&self, v: VertexId) -> &[EdgeId] {
        match self.offsets.get(v.index()..v.index() + 2) {
            Some(&[start, end]) => &self.ids[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Open an empty run for a new last vertex.
    pub(crate) fn push_vertex(&mut self) {
        self.offsets.push(self.ids.len() as u32);
    }

    /// Append `id`, the graph's newest edge, to the end of `v`'s run. This
    /// shifts every later entry and offset: O(V + E).
    pub(crate) fn insert(&mut self, v: VertexId, id: EdgeId) {
        let end = self.offsets[v.index() + 1];
        self.ids.insert(end as usize, id);
        for offset in &mut self.offsets[v.index() + 1..] {
            *offset += 1;
        }
    }

    /// Check the index against the arena in one pass: `V + 1` offsets that
    /// rise from 0 to `E`, `E` ids, and each run strictly ascending and
    /// naming only edges whose `endpoint` is its vertex. Together these
    /// make the ids a permutation of the edges, so no edge is missing or
    /// listed twice. `direction` names the index in the error.
    pub(crate) fn check(
        &self,
        vertices: usize,
        edges: &[Edge],
        endpoint: fn(&Edge) -> VertexId,
        direction: &str,
    ) -> Result<(), String> {
        if self.offsets.len() != vertices + 1
            || self.offsets[0] != 0
            || self.offsets[vertices] as usize != edges.len()
            || self.ids.len() != edges.len()
        {
            return Err(format!(
                "{direction} offsets do not run from 0 to {} over {vertices} vertices",
                edges.len()
            ));
        }
        for (v, bounds) in self.offsets.windows(2).enumerate() {
            let v = VertexId::from_index(v);
            let Some(run) = self.ids.get(bounds[0] as usize..bounds[1] as usize) else {
                return Err(format!("{direction} offsets fall at vertex {v}"));
            };
            let mut last = None;
            for &eid in run {
                if edges.get(eid.index()).map(endpoint) != Some(v) {
                    return Err(format!(
                        "vertex {v} lists {direction} {eid} it does not own"
                    ));
                }
                if last == Some(eid) {
                    return Err(format!("vertex {v} lists {direction} {eid} twice"));
                }
                if last > Some(eid) {
                    return Err(format!(
                        "vertex {v} lists {direction} {eid} out of ascending order"
                    ));
                }
                last = Some(eid);
            }
        }
        Ok(())
    }
}

//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use svqa_graph::{
    binio, induced_subgraph, k_hop_neighborhood, Bfs, Edge, EdgeId, Graph, GraphBuilder,
    LabelHistogram, VertexId,
};

/// Strategy: a random small graph as (vertex labels, edge index pairs).
fn arb_graph() -> impl Strategy<Value = Graph> {
    arb_graph_of(1..40, 0..120)
}

/// Strategy: a graph of `vertices` vertices and `edges` edges, added one
/// `add_edge` at a time between endpoints drawn at random.
fn arb_graph_of(
    vertices: std::ops::Range<usize>,
    edges: std::ops::Range<usize>,
) -> impl Strategy<Value = Graph> {
    vertices.prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u8..12, n);
        let edges = proptest::collection::vec((0..n, 0..n, 0u8..5), edges.clone());
        (labels, edges).prop_map(|(labels, edges)| {
            let mut g = Graph::new();
            let ids: Vec<_> = labels
                .into_iter()
                .map(|l| g.add_vertex(format!("l{l}")))
                .collect();
            for (a, b, e) in edges {
                g.add_edge(ids[a], ids[b], format!("e{e}")).unwrap();
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn built_graphs_always_validate(g in arb_graph()) {
        g.validate().unwrap();
    }

    #[test]
    fn binio_roundtrip_preserves_everything(g in arb_graph()) {
        // The snapshot holds every label, endpoint and edge order, and
        // `from_bytes` validates the adjacency it derives from them.
        let bytes = binio::to_bytes(&g).unwrap();
        let back = binio::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(binio::to_bytes(&back).unwrap(), bytes);
        prop_assert_eq!(back.vertex_count(), g.vertex_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for (vid, _) in g.vertices() {
            prop_assert_eq!(back.vertex_label(vid), g.vertex_label(vid));
        }
        // Rebuilt label index answers identically.
        for (label, count) in g.vertex_label_counts() {
            prop_assert_eq!(back.vertices_with_label(label).len(), count);
        }
    }

    #[test]
    fn adjacency_is_the_ascending_incident_edges(g in arb_graph_of(1..6, 0..80)) {
        // Up to 80 edges over at most 6 vertices, added one at a time:
        // self-loops and parallel edges are common. The snapshot's load
        // indexes all of them at once.
        let back = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
        for (vid, _) in g.vertices() {
            let incident = |end: fn(&Edge) -> VertexId| -> Vec<EdgeId> {
                g.edges().filter(|(_, e)| end(e) == vid).map(|(id, _)| id).collect()
            };
            let (outs, ins) = (incident(Edge::src), incident(Edge::dst));
            prop_assert_eq!(g.out_edge_ids(vid), outs.as_slice());
            prop_assert_eq!(g.in_edge_ids(vid), ins.as_slice());
            prop_assert_eq!(back.out_edge_ids(vid), outs.as_slice());
            prop_assert_eq!(back.in_edge_ids(vid), ins.as_slice());
        }
    }

    #[test]
    fn absorb_is_additive(g1 in arb_graph(), g2 in arb_graph()) {
        let mut merged = g1.clone();
        let mapping = merged.absorb(&g2);
        prop_assert_eq!(merged.vertex_count(), g1.vertex_count() + g2.vertex_count());
        prop_assert_eq!(merged.edge_count(), g1.edge_count() + g2.edge_count());
        prop_assert_eq!(mapping.len(), g2.vertex_count());
        merged.validate().unwrap();
        // Labels preserved through the mapping.
        for (vid, _) in g2.vertices() {
            prop_assert_eq!(merged.vertex_label(mapping[vid.index()]), g2.vertex_label(vid));
        }
    }

    #[test]
    fn bfs_visits_each_vertex_at_most_once(g in arb_graph()) {
        let start = VertexId::from_index(0);
        let visited: Vec<_> = Bfs::new(&g, start).map(|(v, _)| v).collect();
        let mut dedup = visited.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), visited.len());
        prop_assert!(visited.len() <= g.vertex_count());
    }

    #[test]
    fn bfs_depths_are_monotone(g in arb_graph()) {
        let start = VertexId::from_index(0);
        let depths: Vec<_> = Bfs::new(&g, start).map(|(_, d)| d).collect();
        for w in depths.windows(2) {
            prop_assert!(w[1] >= w[0], "BFS yields non-decreasing depths");
            prop_assert!(w[1] <= w[0] + 1, "depths increase by at most one");
        }
    }

    #[test]
    fn k_hop_is_monotone_in_k(g in arb_graph(), k in 0usize..6) {
        let start = VertexId::from_index(0);
        let smaller = k_hop_neighborhood(&g, start, k);
        let larger = k_hop_neighborhood(&g, start, k + 1);
        prop_assert!(smaller.len() <= larger.len());
        for v in &smaller {
            prop_assert!(larger.contains(v));
        }
    }

    #[test]
    fn induced_subgraph_edges_stay_internal(g in arb_graph(), k in 0usize..4) {
        let start = VertexId::from_index(0);
        let view = induced_subgraph(&g, start, k);
        for &eid in view.edge_ids() {
            let e = g.edge(eid).unwrap();
            prop_assert!(view.contains_vertex(e.src()));
            prop_assert!(view.contains_vertex(e.dst()));
        }
        for &v in view.vertex_ids() {
            prop_assert!(view.contains_vertex(v));
        }
    }

    #[test]
    fn histogram_total_equals_vertex_count(g in arb_graph()) {
        let h = LabelHistogram::from_vertex_labels([&g]);
        prop_assert_eq!(h.total(), g.vertex_count());
        // Entries are sorted descending.
        let entries = h.entries();
        for w in entries.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // Coverage fractions are proper fractions.
        for t in 0..5 {
            let f = h.fraction_of_items_above(t);
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn builder_never_duplicates_label_vertices(
        triples in proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..60)
    ) {
        let mut b = GraphBuilder::new();
        for (s, p, o) in &triples {
            b.triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
        }
        let g = b.build();
        for (label, count) in g.vertex_label_counts() {
            prop_assert_eq!(count, 1, "label {} duplicated", label);
        }
        g.validate().unwrap();
    }
}

//! A model-based test of vertex image ids through every writer.
//!
//! Random sequences of bare and scene vertices and bare edges go through
//! every writer of a graph: `add_vertex` / `add_scene_vertex` and
//! `add_edge` one at a time, `append_windows` with one to four windows
//! (empty ones included) over a prefix written one at a time, a `binio`
//! round trip, and `absorb_where` with a random filter. Every writer must
//! give the same bytes as the one-at-a-time build, and every vertex's
//! `scene_image` must equal a naive model: a list of each vertex's label
//! and image id.

use proptest::prelude::*;
use svqa_graph::{binio, scene_image, EdgeId, Graph, VertexId, WindowSize, WindowSlots};

const VERTEX_LABELS: [&str; 3] = ["dog", "man", "hat"];
const EDGE_LABELS: [&str; 2] = ["near", "wearing"];

/// One vertex as the model holds it: its label slot and its image id.
type Element = (usize, Option<u32>);

/// One part of a graph: vertices, then edges (endpoint draws, label). An
/// edge's endpoints are drawn among the vertices that existed before the
/// part and the part's own.
#[derive(Debug, Clone)]
struct Part {
    vertices: Vec<Element>,
    edges: Vec<(usize, usize, usize)>,
}

impl Part {
    /// The endpoint `draw` picks among `existing` earlier vertices and the
    /// part's own, which start at `first`.
    fn endpoint(&self, draw: usize, existing: usize, first: usize) -> VertexId {
        let i = draw % (existing + self.vertices.len());
        VertexId::from_index(if i < existing {
            i
        } else {
            first + i - existing
        })
    }

    /// The part's edges, their endpoints resolved; none when there is no
    /// vertex to join.
    fn resolved(
        &self,
        existing: usize,
        first: usize,
    ) -> impl Iterator<Item = (VertexId, VertexId, usize)> + '_ {
        let any = existing + self.vertices.len() > 0;
        self.edges
            .iter()
            .filter(move |_| any)
            .map(move |&(a, b, label)| {
                (
                    self.endpoint(a, existing, first),
                    self.endpoint(b, existing, first),
                    label,
                )
            })
    }

    fn size(&self, existing: usize) -> WindowSize {
        WindowSize {
            vertices: self.vertices.len(),
            edges: self.resolved(existing, 0).count(),
        }
    }
}

/// What a graph should hold: each vertex's element, and each edge's
/// endpoints and label slot.
#[derive(Debug, Clone, Default)]
struct Model {
    vertices: Vec<Element>,
    edges: Vec<(VertexId, VertexId, usize)>,
}

/// Add `part` to `g` one element at a time, and to `model`; its edges
/// join its own vertices and the first `existing` of `g`.
fn add(g: &mut Graph, model: &mut Model, part: &Part, existing: usize) {
    let first = g.vertex_count();
    for &(label, image) in &part.vertices {
        match image {
            Some(image) => g.add_scene_vertex(VERTEX_LABELS[label], image),
            None => g.add_vertex(VERTEX_LABELS[label]),
        };
        model.vertices.push((label, image));
    }
    for (src, dst, label) in part.resolved(existing, first) {
        g.add_edge(src, dst, EDGE_LABELS[label]).unwrap();
        model.edges.push((src, dst, label));
    }
}

/// `g` holds exactly `model`: every vertex's label and image id, and every
/// edge's endpoints and label.
fn check(g: &Graph, model: &Model, what: &str) {
    g.validate().unwrap();
    assert_eq!(g.vertex_count(), model.vertices.len(), "{what}");
    assert_eq!(g.edge_count(), model.edges.len(), "{what}");
    for (i, &(label, image)) in model.vertices.iter().enumerate() {
        let v = VertexId::from_index(i);
        assert_eq!(g.vertex_label(v), Some(VERTEX_LABELS[label]), "{what}: {v}");
        assert_eq!(scene_image(g, v), image, "{what}: {v}");
    }
    let past = VertexId::from_index(model.vertices.len());
    assert_eq!(scene_image(g, past), None, "{what}: a foreign id");
    for (i, &(src, dst, label)) in model.edges.iter().enumerate() {
        let id = EdgeId::from_index(i);
        let edge = g.edge(id).unwrap();
        assert_eq!((edge.src(), edge.dst()), (src, dst), "{what}: {id}");
        assert_eq!(g.edge_label(id), Some(EDGE_LABELS[label]), "{what}: {id}");
    }
}

/// Strategy: an image id, or none. The ids at the ends of the range a
/// vertex holds come up often.
fn arb_image() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        Just(None),
        Just(None),
        Just(Some(0)),
        Just(Some(u32::MAX - 1)),
        (0..u32::MAX).prop_map(Some),
    ]
}

/// Strategy: a part of `vertices` vertices and `edges` edges.
fn arb_part(
    vertices: std::ops::Range<usize>,
    edges: std::ops::Range<usize>,
) -> impl Strategy<Value = Part> {
    (
        proptest::collection::vec((0usize..3, arb_image()), vertices),
        proptest::collection::vec((any::<u16>(), any::<u16>(), 0usize..2), edges),
    )
        .prop_map(|(vertices, edges)| Part {
            vertices,
            edges: edges
                .into_iter()
                .map(|(a, b, label)| (usize::from(a), usize::from(b), label))
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_writer_keeps_each_vertex_image(
        prefix in arb_part(0..6, 0..6),
        parts in proptest::collection::vec(arb_part(0..8, 0..12), 1..5),
        keep in proptest::collection::vec(any::<bool>(), 50),
    ) {
        // One element at a time: the prefix, then every part.
        let (mut base, mut base_model) = (Graph::new(), Model::default());
        add(&mut base, &mut base_model, &prefix, 0);
        check(&base, &base_model, "add, prefix");
        // A window's edges may join its own vertices and the prefix's.
        let before = base.vertex_count();
        let (mut sequential, mut model) = (base.clone(), base_model.clone());
        for part in &parts {
            add(&mut sequential, &mut model, part, before);
        }
        check(&sequential, &model, "add");
        let bytes = binio::to_bytes(&sequential).unwrap();

        // The same parts in parallel windows over the prefix.
        let slots = WindowSlots {
            vertex_labels: &VERTEX_LABELS,
            edge_labels: &EDGE_LABELS,
        };
        let mut windows = base.clone();
        let sized: Vec<_> = parts.iter().map(|part| (part.size(before), part)).collect();
        windows.append_windows(&slots, sized, |part, w| {
            let first = w.next_vertex().index();
            for &(label, image) in &part.vertices {
                w.push_vertex(label, image);
            }
            for (src, dst, label) in part.resolved(before, first) {
                w.push_edge(src, dst, label).unwrap();
            }
        });
        check(&windows, &model, "append_windows");
        prop_assert_eq!(binio::to_bytes(&windows).unwrap(), bytes.clone());

        // A snapshot round trip.
        let loaded = binio::from_bytes(bytes.clone()).unwrap();
        check(&loaded, &model, "binio");
        prop_assert_eq!(binio::to_bytes(&loaded).unwrap(), bytes.clone());

        // The subgraph a random filter keeps, copied after the prefix, is
        // the graph its kept elements added one at a time give.
        let kept = |v: VertexId| keep[v.index() % keep.len()];
        let mut absorbed = base.clone();
        let mapping = absorbed.absorb_where(&sequential, kept);
        let (mut one_by_one, mut want) = (base.clone(), base_model.clone());
        for (i, &(label, image)) in model.vertices.iter().enumerate() {
            if kept(VertexId::from_index(i)) {
                match image {
                    Some(image) => one_by_one.add_scene_vertex(VERTEX_LABELS[label], image),
                    None => one_by_one.add_vertex(VERTEX_LABELS[label]),
                };
                want.vertices.push((label, image));
            }
        }
        for &(src, dst, label) in &model.edges {
            if let (Some(src), Some(dst)) = (mapping[src.index()], mapping[dst.index()]) {
                one_by_one.add_edge(src, dst, EDGE_LABELS[label]).unwrap();
                want.edges.push((src, dst, label));
            }
        }
        check(&absorbed, &want, "absorb_where");
        prop_assert_eq!(
            binio::to_bytes(&absorbed).unwrap(),
            binio::to_bytes(&one_by_one).unwrap()
        );
    }
}

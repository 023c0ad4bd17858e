//! A model-based test of the property columns' run tables.
//!
//! Random sequences of elements over five shapes (none, `[score]` as a
//! float, the five-key scene vertex shape, `[score]` as an integer: one key
//! list under two kinds, and `IMAGE_SHAPE`) go through every writer of a
//! column: `add_*_with_props`, `absorb_where` with a random filter,
//! `append_windows` with one to four windows (empty ones included), and a
//! `binio` round trip. A prefix of elements of every shape comes first,
//! written one at a time. The parts after it are what a window can write:
//! vertices bare or under `IMAGE_SHAPE`, and bare edges. So the windows'
//! runs follow runs of each shape, and the same parts added one element at
//! a time must give the same graph, byte for byte. Every element's
//! properties must equal a naive per-element list of `(key, value)` pairs,
//! and every run table must be minimal: one run per maximal stretch of
//! elements sharing a shape.

use proptest::prelude::*;
use std::ops::Range;
use svqa_graph::{
    binio, Graph, Kind, Shape, Value, VertexId, WindowSize, WindowSlots, IMAGE_SHAPE,
};

/// The shapes elements are drawn from, by index.
const SHAPES: [Shape<'static>; 5] = [
    Shape {
        keys: &[],
        kinds: &[],
    },
    Shape {
        keys: &["score"],
        kinds: &[Kind::Float],
    },
    Shape {
        keys: &["h", "image", "w", "x", "y"],
        kinds: &[
            Kind::Float,
            Kind::Int,
            Kind::Float,
            Kind::Float,
            Kind::Float,
        ],
    },
    Shape {
        keys: &["score"],
        kinds: &[Kind::Int],
    },
    IMAGE_SHAPE,
];

/// The index of [`IMAGE_SHAPE`] in [`SHAPES`].
const IMAGE: usize = 4;

/// The shapes a window writes a vertex under: bare, or [`IMAGE_SHAPE`].
const WINDOW_SHAPES: [usize; 2] = [0, IMAGE];

const VERTEX_LABELS: [&str; 3] = ["dog", "man", "hat"];
const EDGE_LABELS: [&str; 2] = ["near", "wearing"];

/// One element as the model holds it: its shape's index and its
/// properties, key by key.
#[derive(Debug, Clone, PartialEq)]
struct Element {
    shape: usize,
    props: Vec<(&'static str, Value)>,
}

impl Element {
    /// The element of shape `shape` whose values `seed` fixes.
    fn new(shape: usize, seed: u16) -> Self {
        let Shape { keys, kinds } = SHAPES[shape];
        let props = keys
            .iter()
            .zip(kinds)
            .enumerate()
            .map(|(i, (&key, kind))| {
                let n = i64::from(seed) + i as i64;
                let value = match kind {
                    Kind::Int => Value::Int(n),
                    Kind::Float => Value::Float(n as f64 / 4.0),
                };
                (key, value)
            })
            .collect();
        Element { shape, props }
    }

    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.props.iter().map(|&(_, value)| value)
    }

    /// The image id a window writes this element with: `None` for a bare
    /// one.
    fn image(&self) -> Option<i64> {
        match self.shape {
            0 => None,
            IMAGE => self.props[0].1.as_int(),
            shape => unreachable!("a window writes no shape {shape}"),
        }
    }
}

/// One part of a graph: vertices (label, element), then edges (endpoint
/// draws, label, element). An edge's endpoints are drawn among the
/// vertices that existed before the part and the part's own.
#[derive(Debug, Clone)]
struct Part {
    vertices: Vec<(usize, Element)>,
    edges: Vec<(usize, usize, usize, Element)>,
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
    ) -> impl Iterator<Item = (VertexId, VertexId, usize, &Element)> + '_ {
        let any = existing + self.vertices.len() > 0;
        self.edges
            .iter()
            .filter(move |_| any)
            .map(move |(a, b, label, e)| {
                (
                    self.endpoint(*a, existing, first),
                    self.endpoint(*b, existing, first),
                    *label,
                    e,
                )
            })
    }

    fn size(&self, existing: usize) -> WindowSize {
        let width = |e: &Element| SHAPES[e.shape].keys.len();
        let edges: Vec<_> = self.resolved(existing, 0).collect();
        WindowSize {
            vertices: self.vertices.len(),
            edges: edges.len(),
            vertex_values: self.vertices.iter().map(|(_, e)| width(e)).sum(),
        }
    }
}

/// What a graph should hold: each vertex's and each edge's element, and
/// each edge's endpoints.
#[derive(Debug, Clone, Default)]
struct Model {
    vertices: Vec<Element>,
    edges: Vec<(VertexId, VertexId, Element)>,
}

/// Add `part` to `g` one element at a time, and to `model`; its edges
/// join its own vertices and the first `existing` of `g`.
fn add(g: &mut Graph, model: &mut Model, part: &Part, existing: usize) {
    let first = g.vertex_count();
    for (label, e) in &part.vertices {
        g.add_vertex_with_props(VERTEX_LABELS[*label], SHAPES[e.shape], e.values());
        model.vertices.push(e.clone());
    }
    for (src, dst, label, e) in part.resolved(existing, first) {
        g.add_edge_with_props(src, dst, EDGE_LABELS[label], SHAPES[e.shape], e.values())
            .unwrap();
        model.edges.push((src, dst, e.clone()));
    }
}

/// The ranges of `shapes`' maximal stretches of one value.
fn stretches(shapes: &[usize]) -> Vec<(Range<usize>, usize)> {
    let mut out: Vec<(Range<usize>, usize)> = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        match out.last_mut() {
            Some((range, last)) if *last == shape => range.end = i + 1,
            _ => out.push((i..i + 1, shape)),
        }
    }
    out
}

/// `g` holds exactly `model`: every element's properties, and run tables
/// of one run per maximal stretch of elements sharing a shape.
fn check(g: &Graph, model: &Model, what: &str) {
    g.validate().unwrap();
    assert_eq!(g.vertex_count(), model.vertices.len(), "{what}");
    assert_eq!(g.edge_count(), model.edges.len(), "{what}");
    let same = |props: svqa_graph::Props<'_>, e: &Element| props.iter().eq(e.props.iter().copied());
    for (i, e) in model.vertices.iter().enumerate() {
        let props = g.vertex_props(VertexId::from_index(i));
        assert!(
            same(props, e),
            "{what}: vertex {i}: {props:?} against {e:?}"
        );
    }
    for (i, (src, dst, e)) in model.edges.iter().enumerate() {
        let id = svqa_graph::EdgeId::from_index(i);
        let edge = g.edge(id).unwrap();
        assert_eq!((edge.src(), edge.dst()), (*src, *dst), "{what}: edge {i}");
        let props = g.edge_props(id);
        assert!(same(props, e), "{what}: edge {i}: {props:?} against {e:?}");
    }
    let runs = |runs: Vec<(Range<usize>, Shape<'_>)>| {
        runs.into_iter()
            .map(|(range, shape)| {
                let index = SHAPES.iter().position(|s| *s == shape).unwrap();
                (range, index)
            })
            .collect::<Vec<_>>()
    };
    let vertex_shape_ids: Vec<usize> = model.vertices.iter().map(|e| e.shape).collect();
    let edge_shape_ids: Vec<usize> = model.edges.iter().map(|(_, _, e)| e.shape).collect();
    assert_eq!(
        runs(g.vertex_shape_runs().collect()),
        stretches(&vertex_shape_ids),
        "{what}: vertex runs"
    );
    assert_eq!(
        runs(g.edge_shape_runs().collect()),
        stretches(&edge_shape_ids),
        "{what}: edge runs"
    );
}

/// Strategy: elements whose shapes are drawn from `shapes` (indexes into
/// [`SHAPES`]), often repeating the last one so that stretches form: a
/// draw past the end of `shapes` means "the same as before".
fn arb_elements(
    len: Range<usize>,
    shapes: &'static [usize],
) -> impl Strategy<Value = Vec<(usize, Element)>> {
    let draws = 0..2 * shapes.len();
    proptest::collection::vec((0usize..3, draws, any::<u16>()), len).prop_map(move |draws| {
        let mut last = shapes[0];
        draws
            .into_iter()
            .map(|(label, shape, seed)| {
                if let Some(&shape) = shapes.get(shape) {
                    last = shape;
                }
                (label, Element::new(last, seed))
            })
            .collect()
    })
}

/// Strategy: a part whose vertices take `vertex_shape_ids` and whose edges
/// take `edge_shape_ids`.
fn arb_part(
    vertices: Range<usize>,
    edges: Range<usize>,
    vertex_shape_ids: &'static [usize],
    edge_shape_ids: &'static [usize],
) -> impl Strategy<Value = Part> {
    let edge = (any::<u16>(), any::<u16>(), 0usize..2);
    (
        arb_elements(vertices, vertex_shape_ids),
        arb_elements(edges.clone(), edge_shape_ids),
        proptest::collection::vec(edge, edges.end),
    )
        .prop_map(move |(vertices, elements, ends)| Part {
            vertices,
            edges: elements
                .into_iter()
                .zip(ends)
                .map(|((_, e), (a, b, label))| (usize::from(a), usize::from(b), label, e))
                .collect(),
        })
}

/// Every index of [`SHAPES`].
const ALL_SHAPES: [usize; 5] = [0, 1, 2, 3, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_writer_keeps_minimal_run_tables(
        prefix in arb_part(0..6, 0..6, &ALL_SHAPES, &ALL_SHAPES),
        parts in proptest::collection::vec(arb_part(0..8, 0..12, &WINDOW_SHAPES, &[0]), 1..5),
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

        // The same parts in parallel windows over the prefix.
        let slots = WindowSlots {
            vertex_labels: &VERTEX_LABELS,
            edge_labels: &EDGE_LABELS,
        };
        let mut windows = base.clone();
        let sized: Vec<_> = parts.iter().map(|part| (part.size(before), part)).collect();
        windows.append_windows(&slots, sized, |part, w| {
            let first = w.next_vertex().index();
            for (label, e) in &part.vertices {
                w.push_vertex(*label, e.image());
            }
            for (src, dst, label, _) in part.resolved(before, first) {
                w.push_edge(src, dst, label).unwrap();
            }
        });
        check(&windows, &model, "append_windows");
        let bytes = binio::to_bytes(&sequential).unwrap();
        prop_assert_eq!(binio::to_bytes(&windows).unwrap(), bytes.clone());

        // A snapshot round trip.
        let loaded = binio::from_bytes(bytes.clone()).unwrap();
        check(&loaded, &model, "binio");
        prop_assert_eq!(binio::to_bytes(&loaded).unwrap(), bytes);

        // The subgraph a random filter keeps, copied after the prefix.
        let kept = |v: VertexId| keep[v.index() % keep.len()];
        let mut absorbed = base.clone();
        let mapping = absorbed.absorb_where(&sequential, kept);
        let mut want = base_model.clone();
        for (i, e) in model.vertices.iter().enumerate() {
            if kept(VertexId::from_index(i)) {
                want.vertices.push(e.clone());
            }
        }
        for (src, dst, e) in &model.edges {
            if let (Some(src), Some(dst)) = (mapping[src.index()], mapping[dst.index()]) {
                want.edges.push((src, dst, e.clone()));
            }
        }
        check(&absorbed, &want, "absorb_where");
    }
}

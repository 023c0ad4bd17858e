//! Flat scene records: the scene graphs of a run of images without a
//! `Graph` per image.
//!
//! The offline build generates one scene graph per image only to copy it
//! into the merged graph `G_mg` and drop it. [`SceneRecords`] holds the
//! same scene graphs for a whole chunk of images in three flat buffers —
//! vertex labels, vertices (image id and box) and argmax edges — so the
//! aggregator can append them straight into `G_mg`.
//!
//! A record keeps its properties as plain fields. [`RecordVertex::values`]
//! and [`RecordEdge::values`] give them as fixed arrays in the key order of
//! [`VERTEX_SHAPE`] and [`EDGE_SHAPE`], the shapes the attach writes them
//! under, straight into the merged graph's value columns and with no
//! allocation per element. [`crate::sgg::SceneGraphGenerator::generate`]
//! adds each per-image vertex and edge under the same shapes with the same
//! value arrays, so both outputs merge into the same bytes.

use crate::bbox::BBox;
use crate::relation::RELATION_VOCAB;
use svqa_graph::{Kind, Shape, Value, IMAGE};

/// One detected object of a scene record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordVertex {
    /// End offset of this vertex's label in the chunk's label buffer (the
    /// label starts where the previous vertex's ends).
    label_end: u32,
    /// Id of the image the object was detected in.
    pub(crate) image: u32,
    /// Detected bounding box.
    pub(crate) bbox: BBox,
}

impl RecordVertex {
    /// The property values of a scene-graph vertex, in the key order of
    /// [`VERTEX_SHAPE`].
    pub fn values(&self) -> [Value<'static>; 5] {
        vertex_values(self.image, &self.bbox)
    }
}

/// One argmax edge of a scene record: `sub —relation→ obj`, endpoints as
/// indexes into the image's own vertices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordEdge {
    /// Subject vertex, local to the image.
    pub sub: u32,
    /// Object vertex, local to the image.
    pub obj: u32,
    /// Predicate, as an index into [`RELATION_VOCAB`].
    pub(crate) relation: u8,
    /// The predicate's score.
    pub(crate) score: f64,
}

impl RecordEdge {
    /// The edge label (the predicate).
    pub fn label(&self) -> &'static str {
        RELATION_VOCAB[self.relation()]
    }

    /// The predicate's index in [`RELATION_VOCAB`].
    pub fn relation(&self) -> usize {
        usize::from(self.relation)
    }

    /// The property values of a scene-graph edge, in the key order of
    /// [`EDGE_SHAPE`].
    pub fn values(&self) -> [Value<'static>; 1] {
        edge_values(self.score)
    }
}

/// The property keys of a scene-graph vertex, sorted: the bounding box and
/// the image the object was detected in.
pub const VERTEX_KEYS: [&str; 5] = ["h", IMAGE, "w", "x", "y"];

/// The property key of a scene-graph edge: the predicate's score.
pub const EDGE_KEYS: [&str; 1] = ["score"];

/// The shape of a scene-graph vertex's properties: a float per box
/// coordinate and the integer image id.
pub const VERTEX_SHAPE: Shape<'static> = Shape {
    keys: &VERTEX_KEYS,
    kinds: &[
        Kind::Float,
        Kind::Int,
        Kind::Float,
        Kind::Float,
        Kind::Float,
    ],
};

/// The shape of a scene-graph edge's properties: a float score.
pub const EDGE_SHAPE: Shape<'static> = Shape {
    keys: &EDGE_KEYS,
    kinds: &[Kind::Float],
};

/// The property values of a scene-graph vertex, in the key order of
/// [`VERTEX_SHAPE`].
pub(crate) fn vertex_values(image: u32, bbox: &BBox) -> [Value<'static>; 5] {
    [
        Value::Float(bbox.h),
        Value::Int(i64::from(image)),
        Value::Float(bbox.w),
        Value::Float(bbox.x),
        Value::Float(bbox.y),
    ]
}

/// The property values of a scene-graph edge, in the key order of
/// [`EDGE_SHAPE`].
pub(crate) fn edge_values(score: f64) -> [Value<'static>; 1] {
    [Value::Float(score)]
}

/// The scene graphs of a contiguous run of images, in image order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneRecords {
    /// Every vertex label, concatenated.
    labels: String,
    vertices: Vec<RecordVertex>,
    edges: Vec<RecordEdge>,
    /// Per image: end offsets into `vertices` and `edges`.
    ends: Vec<(u32, u32)>,
}

impl SceneRecords {
    /// An empty record set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of images recorded.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no image is recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total vertices over all images.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Total scene edges over all images.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Every vertex label, in vertex order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.vertices.iter().scan(0usize, |start, v| {
            let label = &self.labels[*start..v.label_end as usize];
            *start = v.label_end as usize;
            Some(label)
        })
    }

    /// The per-image scene graphs, in image order.
    pub fn scenes(&self) -> impl Iterator<Item = SceneRecord<'_>> {
        self.ends
            .iter()
            .scan((0usize, 0usize), |(v0, e0), &(v1, e1)| {
                let (v1, e1) = (v1 as usize, e1 as usize);
                let label_start = match *v0 {
                    0 => 0,
                    v => self.vertices[v - 1].label_end as usize,
                };
                let scene = SceneRecord {
                    labels: &self.labels,
                    label_start,
                    vertices: &self.vertices[*v0..v1],
                    edges: &self.edges[*e0..e1],
                };
                (*v0, *e0) = (v1, e1);
                Some(scene)
            })
    }

    /// Append a vertex to the image being recorded.
    pub(crate) fn push_vertex(&mut self, label: &str, image: u32, bbox: BBox) {
        self.labels.push_str(label);
        self.vertices.push(RecordVertex {
            label_end: to_u32(self.labels.len()),
            image,
            bbox,
        });
    }

    /// Append an edge to the image being recorded.
    pub(crate) fn push_edge(&mut self, edge: RecordEdge) {
        self.edges.push(edge);
    }

    /// Close the image being recorded.
    pub(crate) fn end_image(&mut self) {
        self.ends
            .push((to_u32(self.vertices.len()), to_u32(self.edges.len())));
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a scene-record chunk holds fewer than 2^32 items")
}

/// One image's scene graph inside a [`SceneRecords`].
#[derive(Debug, Clone, Copy)]
pub struct SceneRecord<'a> {
    labels: &'a str,
    label_start: usize,
    vertices: &'a [RecordVertex],
    edges: &'a [RecordEdge],
}

impl<'a> SceneRecord<'a> {
    /// The image's vertices with their labels, in detection order.
    pub fn vertices(&self) -> impl Iterator<Item = (&'a str, &'a RecordVertex)> {
        let labels = self.labels;
        self.vertices
            .iter()
            .scan(self.label_start, move |start, v| {
                let label = &labels[*start..v.label_end as usize];
                *start = v.label_end as usize;
                Some((label, v))
            })
    }

    /// Number of vertices (detections) in the image.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The image's argmax edges, in pair order.
    pub fn edges(&self) -> &'a [RecordEdge] {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SceneRecords {
        let mut r = SceneRecords::new();
        r.push_vertex("dog", 4, BBox::new(0.1, 0.2, 0.3, 0.4));
        r.push_vertex("harry potter", 4, BBox::new(0.5, 0.5, 0.1, 0.1));
        r.push_edge(RecordEdge {
            sub: 1,
            obj: 0,
            relation: 2,
            score: 0.75,
        });
        r.end_image();
        r.end_image(); // an image that yielded nothing
        r.push_vertex("grass", 9, BBox::new(0.0, 0.8, 1.0, 0.2));
        r.end_image();
        r
    }

    #[test]
    fn scenes_slice_the_flat_buffers_per_image() {
        let r = sample();
        assert_eq!((r.len(), r.vertex_count(), r.edge_count()), (3, 3, 1));
        assert_eq!(
            r.labels().collect::<Vec<_>>(),
            ["dog", "harry potter", "grass"]
        );
        let scenes: Vec<_> = r.scenes().collect();
        let labels = |s: &SceneRecord| s.vertices().map(|(l, _)| l.to_owned()).collect::<Vec<_>>();
        assert_eq!(labels(&scenes[0]), ["dog", "harry potter"]);
        assert!(labels(&scenes[1]).is_empty());
        assert_eq!(labels(&scenes[2]), ["grass"]);
        assert_eq!(scenes[0].edges()[0].label(), "near");
        assert!(scenes[1].edges().is_empty() && scenes[2].edges().is_empty());
        assert_eq!(scenes[2].vertices().next().unwrap().1.image, 9);
    }

    #[test]
    fn props_are_exactly_sized() {
        let r = sample();
        let scene = r.scenes().next().unwrap();
        let (_, v) = scene.vertices().next().unwrap();
        // Fixed arrays of borrowed values, one per key of the shape and of
        // its kind: nothing to size.
        for shape in [VERTEX_SHAPE, EDGE_SHAPE] {
            let keys = shape.keys;
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
            assert_eq!(keys.len(), shape.kinds.len());
        }
        assert!(v.values().map(Value::kind).iter().eq(VERTEX_SHAPE.kinds));
        let e = &scene.edges()[0];
        assert!(e.values().map(Value::kind).iter().eq(EDGE_SHAPE.kinds));
        // Each value reads back under its key.
        let mut g = svqa_graph::Graph::new();
        let dog = g.add_vertex_with_props("dog", VERTEX_SHAPE, v.values());
        let near = g
            .add_edge_with_props(dog, dog, e.label(), EDGE_SHAPE, e.values())
            .unwrap();
        let props = g.vertex_props(dog);
        assert_eq!(props.len(), 5);
        assert_eq!(props.get(IMAGE).and_then(Value::as_int), Some(4));
        assert_eq!(props.get("w").and_then(Value::as_float), Some(0.3));
        assert!(props.iter().eq(VERTEX_KEYS.into_iter().zip(v.values())));
        let props = g.edge_props(near);
        assert_eq!(props.get("score").and_then(Value::as_float), Some(0.75));
        assert!(props.iter().eq(EDGE_KEYS.into_iter().zip(e.values())));
    }
}

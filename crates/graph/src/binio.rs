//! Compact binary graph snapshots.
//!
//! The one persistence format of a [`Graph`]: `svqa-cli build` saves the
//! merged graph `G_mg` as `merged.svqg` in this format, and `--world`
//! commands load it (the offline/online split of Fig. 2).
//!
//! Format (little-endian):
//! ```text
//! magic "SVQG" | u16 version | u32 vertex count | u32 edge count
//! label table:  u32 count, then (u16 len, bytes) per label
//! vertices:     u32 label-id, u16 prop count, props
//! edges:        u32 src, u32 dst, u32 label-id, u16 prop count, props
//! prop:         u16 key-len, key bytes, u8 tag, payload
//! ```
//! Vertex/edge labels are interned in a shared label table (scene graphs
//! repeat "dog" thousands of times). A property's tag is the [`Kind`] its
//! element's shape records for the key, 1 for an int and 2 for a float,
//! and its payload is the column's word: the `i64`'s or the `f64`'s 8
//! bytes. Tags 0 (a string) and 3 (a bool) are refused as unknown: no
//! writer of the program ever stored one. Adjacency is not written: the
//! edge records hold endpoints in edge order, and the load appends them to
//! the arena, then builds both adjacency indexes with one counting sort.
//! The label index and the property columns are rebuilt too: the load reads
//! each element's keys, kinds and values into one reused list and appends
//! them to its column as the shape they state, which extends the column's
//! run table or folds the element into its last run. It then copies each
//! column's runs and words into their final size, and the result is checked
//! with [`Graph::validate`].
//!
//! Lengths and the property count are `u16`s: [`to_bytes`] refuses a graph
//! with a label or key over [`u16::MAX`] bytes, or more properties on one
//! element, rather than write a snapshot it could not load. The load
//! refuses a list whose keys are not strictly ascending, which `to_bytes`
//! never writes, and header counts the rest of the snapshot is too short to
//! hold.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::props::{exact, intern, Kind, Props, Shape, Value};
use crate::VertexId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"SVQG";
const VERSION: u16 = 1;

/// `len` as a `u16` length field, or the error naming `field`.
fn u16_len(field: &'static str, len: usize) -> Result<u16, GraphError> {
    u16::try_from(len).map_err(|_| GraphError::FieldTooLong { field, len })
}

/// Serialize a graph into the binary snapshot format.
///
/// # Errors
///
/// [`GraphError::FieldTooLong`] when a label or property key is longer
/// than [`u16::MAX`] bytes, or an element has more properties.
pub fn to_bytes(graph: &Graph) -> Result<Bytes, GraphError> {
    // Intern every label into a shared table (one pass over vertices, then
    // edges), in first-seen order.
    let mut labels: Vec<&str> = Vec::new();
    let mut label_ids: HashMap<&str, u32> = HashMap::new();
    let element_label_ids: Vec<u32> = graph
        .vertices()
        .map(|(_, v)| graph.vertex_label_text(v.label_id()))
        .chain(
            graph
                .edges()
                .map(|(_, e)| graph.edge_label_text(e.label_id())),
        )
        .map(|label| {
            *label_ids.entry(label).or_insert_with(|| {
                labels.push(label);
                labels.len() as u32 - 1
            })
        })
        .collect();
    let (vertex_label_ids, edge_label_ids) = element_label_ids.split_at(graph.vertex_count());

    let mut buf = BytesMut::with_capacity(64 + graph.vertex_count() * 8 + graph.edge_count() * 16);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(graph.vertex_count() as u32);
    buf.put_u32_le(graph.edge_count() as u32);
    buf.put_u32_le(labels.len() as u32);
    for label in &labels {
        buf.put_u16_le(u16_len("label", label.len())?);
        buf.put_slice(label.as_bytes());
    }
    for ((id, _), &lid) in graph.vertices().zip(vertex_label_ids) {
        buf.put_u32_le(lid);
        write_props(&mut buf, graph.vertex_props(id))?;
    }
    for ((id, e), &lid) in graph.edges().zip(edge_label_ids) {
        buf.put_u32_le(e.src().index() as u32);
        buf.put_u32_le(e.dst().index() as u32);
        buf.put_u32_le(lid);
        write_props(&mut buf, graph.edge_props(id))?;
    }
    Ok(buf.freeze())
}

fn write_props(buf: &mut BytesMut, props: Props<'_>) -> Result<(), GraphError> {
    buf.put_u16_le(u16_len("property count", props.len())?);
    for (key, value) in props.iter() {
        buf.put_u16_le(u16_len("property key", key.len())?);
        buf.put_slice(key.as_bytes());
        buf.put_u8(match value.kind() {
            Kind::Int => 1,
            Kind::Float => 2,
        });
        buf.put_u64_le(value.word());
    }
    Ok(())
}

/// The fewest bytes a label table entry takes: its length.
const MIN_LABEL: u64 = 2;
/// The fewest bytes a vertex record takes: a label id and a property count.
const MIN_VERTEX: u64 = 4 + 2;
/// The fewest bytes an edge record takes: endpoints, a label id and a
/// property count.
const MIN_EDGE: u64 = 4 + 4 + 4 + 2;

/// Deserialize a binary snapshot, rebuild the indexes and exactly sized
/// property columns, and validate. Linear in the snapshot's size: edges
/// are indexed all at once, not inserted one by one. Nothing is sized by a
/// count the remaining bytes could not hold, so a corrupt header is an
/// error, not an allocation failure.
pub fn from_bytes(snapshot: Bytes) -> Result<Graph, GraphError> {
    let corrupt = |msg: &str| GraphError::CorruptGraph(msg.to_owned());
    let need = |data: &[u8], n: u64, what: &str| -> Result<(), GraphError> {
        if (data.len() as u64) < n {
            Err(GraphError::CorruptGraph(format!(
                "truncated snapshot at {what}: {n} bytes needed, {} remain",
                data.len()
            )))
        } else {
            Ok(())
        }
    };
    let mut data: &[u8] = &snapshot;

    need(data, 4 + 2 + 4 + 4 + 4, "header")?;
    if take(&mut data, MAGIC.len()) != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(GraphError::CorruptGraph(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let vertex_count = data.get_u32_le();
    let edge_count = data.get_u32_le();
    let label_count = data.get_u32_le();

    need(data, u64::from(label_count) * MIN_LABEL, "the labels")?;
    let mut labels = Vec::with_capacity(label_count as usize);
    for _ in 0..label_count {
        need(data, 2, "label length")?;
        let len = data.get_u16_le() as usize;
        need(data, len as u64, "label body")?;
        labels.push(
            std::str::from_utf8(take(&mut data, len)).map_err(|_| corrupt("label not UTF-8"))?,
        );
    }
    let label = |id: u32| -> Result<&str, GraphError> {
        labels
            .get(id as usize)
            .copied()
            .ok_or_else(|| corrupt("label id out of range"))
    };

    need(
        data,
        u64::from(vertex_count) * MIN_VERTEX + u64::from(edge_count) * MIN_EDGE,
        "the vertices and edges",
    )?;
    let mut graph = Graph::with_capacity(vertex_count as usize, edge_count as usize);
    let mut list = PropList::default();
    for _ in 0..vertex_count {
        need(data, 4, "vertex label id")?;
        let lid = data.get_u32_le();
        read_props(&mut data, &mut list)?;
        let label = graph.label_index.intern(label(lid)?);
        graph.vertex_column.append(
            graph.vertices.len(),
            list.shape(),
            list.values.iter().copied(),
        );
        graph.push_vertex(label);
    }
    for _ in 0..edge_count {
        need(data, 12, "edge header")?;
        let src = data.get_u32_le() as usize;
        let dst = data.get_u32_le() as usize;
        let lid = data.get_u32_le();
        read_props(&mut data, &mut list)?;
        graph
            .append_edge(
                VertexId::from_index(src),
                VertexId::from_index(dst),
                label(lid)?,
                list.shape(),
                list.values.iter().copied(),
            )
            .map_err(|e| GraphError::CorruptGraph(format!("dangling edge: {e}")))?;
    }
    // The snapshot stores no adjacency: both indexes are built from the
    // edge arena in one pass. It does not store value or run totals either:
    // the columns grew while loading, and are copied into their final size
    // now.
    graph.index_adjacency();
    for column in [&mut graph.vertex_column, &mut graph.edge_column] {
        column.runs = exact(std::mem::take(&mut column.runs));
        column.words = exact(std::mem::take(&mut column.words));
    }
    graph.validate()?;
    Ok(graph)
}

/// The next `n` bytes of `data`, which holds at least that many.
fn take<'a>(data: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = data.split_at(n);
    *data = rest;
    head
}

/// One element's property list as a snapshot states it, reused from
/// element to element: its keys, their kinds and its values.
#[derive(Default)]
struct PropList {
    keys: Vec<&'static str>,
    kinds: Vec<Kind>,
    values: Vec<Value>,
}

impl PropList {
    fn shape(&self) -> Shape<'_> {
        Shape {
            keys: &self.keys,
            kinds: &self.kinds,
        }
    }
}

/// Read one element's property list into `list`, replacing what it held.
/// A list whose keys are not strictly ascending, or a value of a tag other
/// than 1 or 2, is refused: [`to_bytes`] never writes one.
fn read_props(data: &mut &[u8], list: &mut PropList) -> Result<(), GraphError> {
    let corrupt = |msg: &str| GraphError::CorruptGraph(msg.to_owned());
    list.keys.clear();
    list.kinds.clear();
    list.values.clear();
    if data.remaining() < 2 {
        return Err(corrupt("truncated props"));
    }
    let count = data.get_u16_le() as usize;
    for _ in 0..count {
        if data.remaining() < 2 {
            return Err(corrupt("truncated prop key length"));
        }
        let klen = data.get_u16_le() as usize;
        if data.remaining() < klen + 1 {
            return Err(corrupt("truncated prop key"));
        }
        let key =
            std::str::from_utf8(take(data, klen)).map_err(|_| corrupt("prop key not UTF-8"))?;
        if let Some(&last) = list.keys.last() {
            if key == last {
                return Err(GraphError::CorruptGraph(format!(
                    "property key {key:?} repeated"
                )));
            }
            if key < last {
                return Err(GraphError::CorruptGraph(format!(
                    "property keys out of order: {key:?} after {last:?}"
                )));
            }
        }
        let kind = match data.get_u8() {
            1 => Kind::Int,
            2 => Kind::Float,
            other => {
                return Err(GraphError::CorruptGraph(format!(
                    "unknown prop tag {other}"
                )))
            }
        };
        if data.remaining() < 8 {
            return Err(corrupt("truncated prop value"));
        }
        list.keys.push(intern(key));
        list.kinds.push(kind);
        list.values.push(kind.read(data.get_u64_le()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let shape = Shape {
            keys: &["flag", "image", "note", "x"],
            kinds: &[Kind::Int, Kind::Int, Kind::Float, Kind::Float],
        };
        let d = g.add_vertex_with_props(
            "dog",
            shape,
            [
                Value::Int(1),
                Value::Int(3),
                Value::Float(-2.5),
                Value::Float(0.25),
            ],
        );
        let m = g.add_vertex("man");
        let c = g.add_vertex("dog"); // repeated label exercises interning
        g.add_edge(d, m, "near").unwrap();
        g.add_edge(c, m, "near").unwrap();
        g.add_edge(m, d, "watching").unwrap();
        g
    }

    #[test]
    fn roundtrip_preserves_structure_labels_and_props() {
        let g = sample();
        let back = from_bytes(to_bytes(&g).unwrap()).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for (vid, _) in g.vertices() {
            assert_eq!(back.vertex_label(vid), g.vertex_label(vid));
            assert_eq!(back.vertex_props(vid), g.vertex_props(vid));
            assert_eq!(back.out_edge_ids(vid), g.out_edge_ids(vid));
            assert_eq!(back.in_edge_ids(vid), g.in_edge_ids(vid));
        }
        for (eid, e) in g.edges() {
            let be = back.edge(eid).unwrap();
            assert_eq!((be.src(), be.dst()), (e.src(), e.dst()));
            assert_eq!(back.edge_label(eid), g.edge_label(eid));
        }
        // Indexes rebuilt; the adjacency all at once, into exactly sized
        // arrays, not one edge at a time.
        assert_eq!(back.vertices_with_label("dog").len(), 2);
        for index in [&back.outgoing, &back.incoming] {
            assert_eq!(index.offsets.capacity(), g.vertex_count() + 1);
            assert_eq!(index.ids.capacity(), g.edge_count());
        }
        // So are the run tables: vertices flagged, then bare; edges bare.
        for (column, runs) in [(&back.vertex_column, 2), (&back.edge_column, 1)] {
            assert_eq!((column.runs.len(), column.runs.capacity()), (runs, runs));
        }
    }

    #[test]
    fn repeated_labels_are_written_once() {
        let mut g = Graph::new();
        let hub = g.add_vertex("dog");
        for _ in 0..500 {
            let v = g.add_vertex("dog");
            g.add_edge(v, hub, "near").unwrap();
        }
        // Header, one table entry per distinct label, then a label id and
        // an empty property count per vertex, and endpoints too per edge.
        let header = 4 + 2 + 4 + 4 + 4;
        let table = (2 + "dog".len()) + (2 + "near".len());
        assert_eq!(
            to_bytes(&g).unwrap().len(),
            header + table + 501 * (4 + 2) + 500 * (12 + 2)
        );
    }

    /// A snapshot header followed by a label table of `labels`.
    fn header(vertices: u32, edges: u32, labels: &[&str]) -> BytesMut {
        let mut data = BytesMut::new();
        data.put_slice(MAGIC);
        data.put_u16_le(VERSION);
        data.put_u32_le(vertices);
        data.put_u32_le(edges);
        data.put_u32_le(labels.len() as u32);
        for label in labels {
            data.put_u16_le(label.len() as u16);
            data.put_slice(label.as_bytes());
        }
        data
    }

    #[test]
    fn dangling_edge_is_detected() {
        // One vertex, and an edge from it to vertex 5, which does not exist.
        let mut data = header(1, 1, &["a", "x"]);
        data.put_u32_le(0);
        data.put_u16_le(0);
        for field in [0, 5, 1] {
            data.put_u32_le(field);
        }
        data.put_u16_le(0);
        let err = from_bytes(data.freeze()).unwrap_err();
        assert!(matches!(err, GraphError::CorruptGraph(_)), "{err}");
        assert!(err.to_string().contains("dangling edge"), "{err}");
    }

    #[test]
    fn out_of_range_label_id_is_detected() {
        // A vertex naming label 3 of a one-label table.
        let mut data = header(1, 0, &["a"]);
        data.put_u32_le(3);
        data.put_u16_le(0);
        let err = from_bytes(data.freeze()).unwrap_err();
        assert_eq!(
            err,
            GraphError::CorruptGraph("label id out of range".to_owned())
        );
        // So does an edge's.
        let mut data = header(1, 1, &["a"]);
        data.put_u32_le(0);
        data.put_u16_le(0);
        for field in [0, 0, 1] {
            data.put_u32_le(field);
        }
        data.put_u16_le(0);
        assert!(matches!(
            from_bytes(data.freeze()),
            Err(GraphError::CorruptGraph(_))
        ));
    }

    #[test]
    fn counts_the_snapshot_cannot_hold_are_refused() {
        // Headers claiming u32::MAX vertices, edges or labels, over far too
        // few bytes: an error, not an allocation of that many elements.
        let mut huge_labels = BytesMut::new();
        huge_labels.put_slice(MAGIC);
        huge_labels.put_u16_le(VERSION);
        for count in [0, 0, u32::MAX] {
            huge_labels.put_u32_le(count);
        }
        for data in [
            header(u32::MAX, 0, &["a"]),
            header(0, u32::MAX, &["a"]),
            header(u32::MAX, u32::MAX, &[]),
            huge_labels,
        ] {
            let err = from_bytes(data.freeze()).unwrap_err();
            assert!(matches!(err, GraphError::CorruptGraph(_)), "{err}");
            assert!(err.to_string().contains("remain"), "{err}");
        }
        // A vertex takes at least 6 bytes and an edge 14: one vertex record
        // cannot hold two vertices, or one vertex and an edge.
        let vertex = |vertices, edges| {
            let mut data = header(vertices, edges, &["a"]);
            data.put_u32_le(0);
            data.put_u16_le(0);
            from_bytes(data.freeze())
        };
        assert_eq!(
            vertex(2, 0).unwrap_err(),
            GraphError::CorruptGraph(
                "truncated snapshot at the vertices and edges: 12 bytes needed, 6 remain"
                    .to_owned()
            )
        );
        assert!(vertex(1, 1)
            .unwrap_err()
            .to_string()
            .contains("20 bytes needed"));
        assert_eq!(vertex(1, 0).unwrap().vertex_count(), 1);
    }

    #[test]
    fn repeated_property_key_is_refused() {
        // One vertex whose list holds `keys`, each an int.
        let load = |keys: &[&str]| {
            let mut data = header(1, 0, &["a"]);
            data.put_u32_le(0);
            data.put_u16_le(keys.len() as u16);
            for (i, key) in keys.iter().enumerate() {
                data.put_u16_le(key.len() as u16);
                data.put_slice(key.as_bytes());
                data.put_u8(1);
                data.put_i64_le(i as i64);
            }
            from_bytes(data.freeze())
        };
        assert_eq!(
            load(&["k", "k"]).unwrap_err(),
            GraphError::CorruptGraph("property key \"k\" repeated".to_owned())
        );
        assert!(load(&["j", "k", "j"]).is_err());
        // Keys out of order: loading them sorted would hold another list
        // than the snapshot states.
        assert_eq!(
            load(&["k", "j"]).unwrap_err(),
            GraphError::CorruptGraph("property keys out of order: \"j\" after \"k\"".to_owned())
        );
        let g = load(&["j", "k"]).unwrap();
        let props = g.vertex_props(VertexId::from_index(0));
        assert_eq!(props.shape().keys, ["j", "k"]);
        assert_eq!(props.get("k"), Some(Value::Int(1)));
    }

    #[test]
    fn removed_value_tags_are_refused() {
        // One vertex whose one property is a string (tag 0: a length and
        // its bytes) or a bool (tag 3: one byte), each payload complete.
        let load = |tag: u8, payload: &[u8]| {
            let mut data = header(1, 0, &["a"]);
            data.put_u32_le(0);
            data.put_u16_le(1);
            data.put_u16_le(4);
            data.put_slice(b"note");
            data.put_u8(tag);
            data.put_slice(payload);
            from_bytes(data.freeze())
        };
        for (tag, payload) in [(0, &b"\x04\x00lake"[..]), (3, &b"\x01"[..])] {
            assert_eq!(
                load(tag, payload).unwrap_err(),
                GraphError::CorruptGraph(format!("unknown prop tag {tag}"))
            );
        }
        // The two tags a snapshot holds still load.
        let g = load(1, &7i64.to_le_bytes()).unwrap();
        assert_eq!(
            g.vertex_props(VertexId::from_index(0)).get("note"),
            Some(Value::Int(7))
        );
        let g = load(2, &0.5f64.to_le_bytes()).unwrap();
        assert_eq!(
            g.vertex_props(VertexId::from_index(0)).get("note"),
            Some(Value::Float(0.5))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(Bytes::from_static(b"NOPE\x01\x00")).unwrap_err();
        assert!(matches!(err, GraphError::CorruptGraph(_)));
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let full = to_bytes(&sample()).unwrap();
        for cut in 0..full.len() {
            let sliced = full.slice(..cut);
            assert!(from_bytes(sliced).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut data = BytesMut::new();
        data.put_slice(MAGIC);
        data.put_u16_le(99);
        data.put_u32_le(0);
        data.put_u32_le(0);
        data.put_u32_le(0);
        let err = from_bytes(data.freeze()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn oversized_fields_are_refused_not_written() {
        let long = "x".repeat(70_000);
        let mut g = Graph::new();
        g.add_vertex(&long[..70_000]);
        assert_eq!(
            to_bytes(&g).unwrap_err(),
            GraphError::FieldTooLong {
                field: "label",
                len: 70_000
            }
        );

        let mut g = Graph::new();
        let a = g.add_vertex("dog");
        let shape = Shape {
            keys: &[long.clone().leak()],
            kinds: &[Kind::Int],
        };
        g.add_edge_with_props(a, a, "near", shape, [Value::Int(1)])
            .unwrap();
        assert!(matches!(
            to_bytes(&g),
            Err(GraphError::FieldTooLong {
                field: "property key",
                ..
            })
        ));

        // The limits themselves still round-trip.
        let at_limit = &long[..usize::from(u16::MAX)];
        let key = Shape {
            keys: &[at_limit.to_owned().leak()],
            kinds: &[Kind::Int],
        };
        let mut g = Graph::new();
        g.add_vertex_with_props(at_limit, key, [Value::Int(1)]);
        let back = from_bytes(to_bytes(&g).unwrap()).unwrap();
        let v = VertexId::from_index(0);
        assert_eq!(back.vertex_label(v), Some(at_limit));
        assert_eq!(back.vertex_props(v).get(at_limit), Some(Value::Int(1)));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let back = from_bytes(to_bytes(&g).unwrap()).unwrap();
        assert!(back.is_empty());
    }
}

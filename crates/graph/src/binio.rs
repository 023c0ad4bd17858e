//! Compact binary graph snapshots.
//!
//! A 4,233-image merged graph serialized as JSON is tens of megabytes; the
//! binary snapshot format here is a fraction of that and loads without
//! parsing overhead — the right format for shipping a prebuilt `G_mg`
//! alongside a deployment (the offline/online split of Fig. 2).
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
//! repeat "dog" thousands of times). Adjacency and indexes are rebuilt on
//! load, and the result is validated like the JSON path.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::props::{PropValue, Properties};
use crate::VertexId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"SVQG";
const VERSION: u16 = 1;

/// Serialize a graph into the binary snapshot format.
pub fn to_bytes(graph: &Graph) -> Bytes {
    // Intern every label into a shared table (one pass over vertices, then
    // edges), in first-seen order.
    let mut labels: Vec<&str> = Vec::new();
    let mut label_ids: HashMap<&str, u32> = HashMap::new();
    let element_label_ids: Vec<u32> = graph
        .vertices()
        .map(|(_, v)| v.label())
        .chain(graph.edges().map(|(_, e)| e.label()))
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
        buf.put_u16_le(label.len() as u16);
        buf.put_slice(label.as_bytes());
    }
    for ((_, v), &lid) in graph.vertices().zip(vertex_label_ids) {
        buf.put_u32_le(lid);
        write_props(&mut buf, v.props());
    }
    for ((_, e), &lid) in graph.edges().zip(edge_label_ids) {
        buf.put_u32_le(e.src().index() as u32);
        buf.put_u32_le(e.dst().index() as u32);
        buf.put_u32_le(lid);
        write_props(&mut buf, e.props());
    }
    buf.freeze()
}

fn write_props(buf: &mut BytesMut, props: &Properties) {
    buf.put_u16_le(props.len() as u16);
    for (key, value) in props.iter() {
        buf.put_u16_le(key.len() as u16);
        buf.put_slice(key.as_bytes());
        match value {
            PropValue::Str(s) => {
                buf.put_u8(0);
                buf.put_u16_le(s.len() as u16);
                buf.put_slice(s.as_bytes());
            }
            PropValue::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(*i);
            }
            PropValue::Float(f) => {
                buf.put_u8(2);
                buf.put_f64_le(*f);
            }
            PropValue::Bool(b) => {
                buf.put_u8(3);
                buf.put_u8(u8::from(*b));
            }
        }
    }
}

/// Deserialize a binary snapshot, rebuild indexes, and validate.
pub fn from_bytes(mut data: Bytes) -> Result<Graph, GraphError> {
    let corrupt = |msg: &str| GraphError::CorruptGraph(msg.to_owned());
    let need = |data: &Bytes, n: usize, what: &str| -> Result<(), GraphError> {
        if data.remaining() < n {
            Err(GraphError::CorruptGraph(format!("truncated snapshot at {what}")))
        } else {
            Ok(())
        }
    };

    need(&data, 4 + 2 + 4 + 4 + 4, "header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(GraphError::CorruptGraph(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let vertex_count = data.get_u32_le() as usize;
    let edge_count = data.get_u32_le() as usize;
    let label_count = data.get_u32_le() as usize;

    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        need(&data, 2, "label length")?;
        let len = data.get_u16_le() as usize;
        need(&data, len, "label body")?;
        let bytes = data.copy_to_bytes(len);
        labels.push(
            String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("label not UTF-8"))?,
        );
    }
    let label = |id: u32| -> Result<&str, GraphError> {
        labels
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| corrupt("label id out of range"))
    };

    let mut graph = Graph::with_capacity(vertex_count, edge_count);
    for _ in 0..vertex_count {
        need(&data, 4, "vertex label id")?;
        let lid = data.get_u32_le();
        let props = read_props(&mut data)?;
        graph.add_vertex_with_props(label(lid)?, props);
    }
    for _ in 0..edge_count {
        need(&data, 12, "edge header")?;
        let src = data.get_u32_le() as usize;
        let dst = data.get_u32_le() as usize;
        let lid = data.get_u32_le();
        let props = read_props(&mut data)?;
        graph
            .add_edge_with_props(
                VertexId::from_index(src),
                VertexId::from_index(dst),
                label(lid)?,
                props,
            )
            .map_err(|e| GraphError::CorruptGraph(format!("dangling edge: {e}")))?;
    }
    graph.validate()?;
    Ok(graph)
}

fn read_props(data: &mut Bytes) -> Result<Properties, GraphError> {
    let corrupt = |msg: &str| GraphError::CorruptGraph(msg.to_owned());
    if data.remaining() < 2 {
        return Err(corrupt("truncated props"));
    }
    let count = data.get_u16_le() as usize;
    let mut props = Properties::new();
    for _ in 0..count {
        if data.remaining() < 2 {
            return Err(corrupt("truncated prop key length"));
        }
        let klen = data.get_u16_le() as usize;
        if data.remaining() < klen + 1 {
            return Err(corrupt("truncated prop key"));
        }
        let key = String::from_utf8(data.copy_to_bytes(klen).to_vec())
            .map_err(|_| corrupt("prop key not UTF-8"))?;
        let tag = data.get_u8();
        let value = match tag {
            0 => {
                if data.remaining() < 2 {
                    return Err(corrupt("truncated string prop"));
                }
                let len = data.get_u16_le() as usize;
                if data.remaining() < len {
                    return Err(corrupt("truncated string prop body"));
                }
                PropValue::Str(
                    String::from_utf8(data.copy_to_bytes(len).to_vec())
                        .map_err(|_| corrupt("prop value not UTF-8"))?,
                )
            }
            1 => {
                if data.remaining() < 8 {
                    return Err(corrupt("truncated int prop"));
                }
                PropValue::Int(data.get_i64_le())
            }
            2 => {
                if data.remaining() < 8 {
                    return Err(corrupt("truncated float prop"));
                }
                PropValue::Float(data.get_f64_le())
            }
            3 => {
                if data.remaining() < 1 {
                    return Err(corrupt("truncated bool prop"));
                }
                PropValue::Bool(data.get_u8() != 0)
            }
            other => {
                return Err(GraphError::CorruptGraph(format!(
                    "unknown prop tag {other}"
                )))
            }
        };
        props.set(key, value);
    }
    Ok(props)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let props: Properties = [
            ("image", PropValue::Int(3)),
            ("x", PropValue::Float(0.25)),
            ("flag", PropValue::Bool(true)),
            ("note", PropValue::Str("hello".into())),
        ]
        .into_iter()
        .collect();
        let d = g.add_vertex_with_props("dog", props);
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
        let back = from_bytes(to_bytes(&g)).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for (vid, v) in g.vertices() {
            let bv = back.vertex(vid).unwrap();
            assert_eq!(bv.label(), v.label());
            assert_eq!(bv.props(), v.props());
        }
        for (eid, e) in g.edges() {
            let be = back.edge(eid).unwrap();
            assert_eq!((be.src(), be.dst(), be.label()), (e.src(), e.dst(), e.label()));
        }
        // Indexes rebuilt.
        assert_eq!(back.vertices_with_label("dog").len(), 2);
    }

    #[test]
    fn binary_is_smaller_than_json_for_label_heavy_graphs() {
        let mut g = Graph::new();
        let hub = g.add_vertex("dog");
        for _ in 0..500 {
            let v = g.add_vertex("dog");
            g.add_edge(v, hub, "near").unwrap();
        }
        let bin = to_bytes(&g);
        let json = crate::io::to_json(&g);
        assert!(
            bin.len() * 2 < json.len(),
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(Bytes::from_static(b"NOPE\x01\x00")).unwrap_err();
        assert!(matches!(err, GraphError::CorruptGraph(_)));
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let full = to_bytes(&sample());
        for cut in 0..full.len() {
            let sliced = full.slice(..cut);
            assert!(
                from_bytes(sliced).is_err(),
                "truncation at {cut} accepted"
            );
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
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let back = from_bytes(to_bytes(&g)).unwrap();
        assert!(back.is_empty());
    }
}

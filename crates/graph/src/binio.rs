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
//! edges:        u32 src, u32 dst, u32 label-id, u16 prop count (0)
//! prop:         u16 key-len, key bytes, u8 tag, payload
//! ```
//! Vertex/edge labels are interned in a shared label table (scene graphs
//! repeat "dog" thousands of times). The property lists are what a vertex
//! holds besides its label: a scene vertex's list is one property, the key
//! `image`, tag 1 (an integer) and the image id as an `i64`'s 8 bytes; a
//! knowledge-graph vertex's list and every edge's are empty. The load
//! accepts exactly that and refuses anything else as a corrupt graph that
//! names the cause: another key, more than one property, a tag other than
//! 1, an id a vertex cannot hold, or an edge property. A snapshot that
//! still holds the boxes and scores earlier builds wrote is refused that
//! way too, and `svqa-cli build` rewrites it. Adjacency is not written: the
//! edge records hold endpoints in edge order, and the load appends them to
//! the arena, then builds both adjacency indexes with one counting sort.
//! The label index is rebuilt too, and the result is checked with
//! [`Graph::validate`].
//!
//! Label lengths are `u16`s: [`to_bytes`] refuses a graph with a label over
//! [`u16::MAX`] bytes rather than write a snapshot it could not load. The
//! load refuses header counts the rest of the snapshot is too short to
//! hold.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::vertex::{Vertex, MAX_IMAGE};
use crate::VertexId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"SVQG";
const VERSION: u16 = 1;

/// `len` as a `u16` length field, or the error naming `field`.
fn u16_len(field: &'static str, len: usize) -> Result<u16, GraphError> {
    u16::try_from(len).map_err(|_| GraphError::FieldTooLong { field, len })
}

/// The key of a scene vertex's one property, its image id.
const IMAGE: &[u8] = b"image";
/// The tag of an integer value.
const INT: u8 = 1;

/// What a refused property list adds to its cause.
const REBUILD: &str = "vertices hold only their image id and edges nothing; \
                       rebuild the world with `svqa-cli build`";

/// Serialize a graph into the binary snapshot format.
///
/// # Errors
///
/// [`GraphError::FieldTooLong`] when a label is longer than [`u16::MAX`]
/// bytes.
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
    for ((_, v), &lid) in graph.vertices().zip(vertex_label_ids) {
        buf.put_u32_le(lid);
        match v.image() {
            Some(image) => {
                buf.put_u16_le(1);
                buf.put_u16_le(IMAGE.len() as u16);
                buf.put_slice(IMAGE);
                buf.put_u8(INT);
                buf.put_i64_le(i64::from(image));
            }
            None => buf.put_u16_le(0),
        }
    }
    for ((_, e), &lid) in graph.edges().zip(edge_label_ids) {
        buf.put_u32_le(e.src().index() as u32);
        buf.put_u32_le(e.dst().index() as u32);
        buf.put_u32_le(lid);
        buf.put_u16_le(0);
    }
    Ok(buf.freeze())
}

/// The fewest bytes a label table entry takes: its length.
const MIN_LABEL: u64 = 2;
/// The fewest bytes a vertex record takes: a label id and a property count.
const MIN_VERTEX: u64 = 4 + 2;
/// The fewest bytes an edge record takes: endpoints, a label id and a
/// property count.
const MIN_EDGE: u64 = 4 + 4 + 4 + 2;

/// Deserialize a binary snapshot, rebuild the indexes, and validate.
/// Linear in the snapshot's size: edges are indexed all at once, not
/// inserted one by one. Nothing is sized by a count the remaining bytes
/// could not hold, so a corrupt header is an error, not an allocation
/// failure.
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
    for v in 0..vertex_count {
        need(data, 4, "vertex label id")?;
        let lid = data.get_u32_le();
        let image = read_image(&mut data).map_err(|cause| {
            GraphError::CorruptGraph(format!(
                "vertex {}: {cause}",
                VertexId::from_index(v as usize)
            ))
        })?;
        let label = graph.label_index.intern(label(lid)?);
        graph.push_vertex(Vertex::new(label, image));
    }
    for e in 0..edge_count {
        need(data, 12 + 2, "edge header")?;
        let src = data.get_u32_le() as usize;
        let dst = data.get_u32_le() as usize;
        let lid = data.get_u32_le();
        let count = data.get_u16_le();
        if count != 0 {
            return Err(GraphError::CorruptGraph(format!(
                "edge e{e}: {count} properties; {REBUILD}"
            )));
        }
        graph
            .append_edge(
                VertexId::from_index(src),
                VertexId::from_index(dst),
                label(lid)?,
            )
            .map_err(|e| GraphError::CorruptGraph(format!("dangling edge: {e}")))?;
    }
    // The snapshot stores no adjacency: both indexes are built from the
    // edge arena in one pass.
    graph.index_adjacency();
    graph.validate()?;
    Ok(graph)
}

/// The next `n` bytes of `data`, which holds at least that many.
fn take<'a>(data: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = data.split_at(n);
    *data = rest;
    head
}

/// Read one vertex's property list: empty, or its image id alone, exactly
/// as [`to_bytes`] writes them. The error is the cause of a refusal.
fn read_image(data: &mut &[u8]) -> Result<Option<u32>, String> {
    if data.remaining() < 2 {
        return Err("truncated props".to_owned());
    }
    match data.get_u16_le() {
        0 => return Ok(None),
        1 => {}
        count => return Err(format!("{count} properties; {REBUILD}")),
    }
    if data.remaining() < 2 {
        return Err("truncated prop key length".to_owned());
    }
    let klen = data.get_u16_le() as usize;
    if data.remaining() < klen + 1 {
        return Err("truncated prop key".to_owned());
    }
    let key = take(data, klen);
    if key != IMAGE {
        let key = String::from_utf8_lossy(key);
        return Err(format!("property {key:?}; {REBUILD}"));
    }
    match data.get_u8() {
        INT => {}
        2 => return Err("image id under tag 2, a float, not an int".to_owned()),
        other => return Err(format!("unknown prop tag {other}")),
    }
    if data.remaining() < 8 {
        return Err("truncated prop value".to_owned());
    }
    let value = data.get_i64_le();
    u32::try_from(value)
        .ok()
        .filter(|&id| id <= MAX_IMAGE)
        .map(Some)
        .ok_or_else(|| {
            format!("image id {value} out of the range a vertex holds (0 to {MAX_IMAGE})")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene_image;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let d = g.add_scene_vertex("dog", 3);
        let m = g.add_vertex("man");
        let c = g.add_scene_vertex("dog", 0); // repeated label exercises interning
        g.add_vertex("hat");
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
            assert_eq!(scene_image(&back, vid), scene_image(&g, vid));
            assert_eq!(back.out_edge_ids(vid), g.out_edge_ids(vid));
            assert_eq!(back.in_edge_ids(vid), g.in_edge_ids(vid));
        }
        let images: Vec<_> = back
            .vertices()
            .map(|(v, _)| scene_image(&back, v))
            .collect();
        assert_eq!(images, [Some(3), None, Some(0), None]);
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

    /// A property list of `props`, each a key, a tag and an 8-byte value.
    fn put_props(data: &mut BytesMut, props: &[(&str, u8, i64)]) {
        data.put_u16_le(props.len() as u16);
        for &(key, tag, value) in props {
            data.put_u16_le(key.len() as u16);
            data.put_slice(key.as_bytes());
            data.put_u8(tag);
            data.put_i64_le(value);
        }
    }

    /// Load a snapshot of one vertex labeled `a` whose property list is
    /// `props`.
    fn load_vertex(props: &[(&str, u8, i64)]) -> Result<Graph, GraphError> {
        let mut data = header(1, 0, &["a"]);
        data.put_u32_le(0);
        put_props(&mut data, props);
        from_bytes(data.freeze())
    }

    /// The cause `result` was refused for, which must be a corrupt graph.
    fn refusal(result: Result<Graph, GraphError>) -> String {
        match result {
            Err(GraphError::CorruptGraph(cause)) => cause,
            other => panic!("loaded or failed otherwise: {other:?}"),
        }
    }

    #[test]
    fn box_keys_are_refused() {
        // A vertex whose one property is a box coordinate, as snapshots
        // saved with boxes and scores hold.
        let cause = refusal(load_vertex(&[("h", 2, 0.25f64.to_bits() as i64)]));
        assert!(cause.starts_with("vertex v0: property \"h\""), "{cause}");
        assert!(cause.contains("svqa-cli build"), "{cause}");
    }

    #[test]
    fn repeated_property_key_is_refused() {
        // Two properties on one vertex: its image id twice, or the id and
        // a box coordinate, in or out of key order.
        for props in [
            &[("image", 1, 3), ("image", 1, 3)][..],
            &[("image", 1, 3), ("x", 2, 0)],
            &[("h", 2, 0), ("image", 1, 3)],
        ] {
            let cause = refusal(load_vertex(props));
            assert!(cause.starts_with("vertex v0: 2 properties;"), "{cause}");
            assert!(cause.contains("svqa-cli build"), "{cause}");
        }
    }

    #[test]
    fn float_images_are_refused() {
        assert_eq!(
            refusal(load_vertex(&[("image", 2, 3.0f64.to_bits() as i64)])),
            "vertex v0: image id under tag 2, a float, not an int"
        );
    }

    #[test]
    fn image_ids_a_vertex_cannot_hold_are_refused() {
        for id in [-1, 1 << 40, i64::from(u32::MAX)] {
            assert_eq!(
                refusal(load_vertex(&[("image", 1, id)])),
                format!(
                    "vertex v0: image id {id} out of the range a vertex holds (0 to 4294967294)"
                )
            );
        }
        let g = load_vertex(&[("image", 1, i64::from(u32::MAX) - 1)]).unwrap();
        assert_eq!(scene_image(&g, VertexId::from_index(0)), Some(u32::MAX - 1));
    }

    #[test]
    fn edge_properties_are_refused() {
        // Two vertices and an edge between them carrying a score.
        let mut data = header(2, 1, &["a", "near"]);
        for _ in 0..2 {
            data.put_u32_le(0);
            data.put_u16_le(0);
        }
        for field in [0, 1, 1] {
            data.put_u32_le(field);
        }
        put_props(&mut data, &[("score", 2, 0.5f64.to_bits() as i64)]);
        let cause = refusal(from_bytes(data.freeze()));
        assert!(cause.starts_with("edge e0: 1 properties;"), "{cause}");
        assert!(cause.contains("svqa-cli build"), "{cause}");
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
    fn removed_value_tags_are_refused() {
        // A vertex whose image id is a string (tag 0: a length and its
        // bytes) or a bool (tag 3: one byte), each payload complete.
        let load = |tag: u8, payload: &[u8]| {
            let mut data = header(1, 0, &["a"]);
            data.put_u32_le(0);
            data.put_u16_le(1);
            data.put_u16_le(5);
            data.put_slice(b"image");
            data.put_u8(tag);
            data.put_slice(payload);
            from_bytes(data.freeze())
        };
        for (tag, payload) in [(0, &b"\x04\x00lake"[..]), (3, &b"\x01"[..])] {
            assert_eq!(
                load(tag, payload).unwrap_err(),
                GraphError::CorruptGraph(format!("vertex v0: unknown prop tag {tag}"))
            );
        }
        // The one tag a snapshot holds still loads.
        let g = load(1, &7i64.to_le_bytes()).unwrap();
        assert_eq!(scene_image(&g, VertexId::from_index(0)), Some(7));
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

        // The limit itself still round-trips.
        let at_limit = &long[..usize::from(u16::MAX)];
        let mut g = Graph::new();
        g.add_scene_vertex(at_limit, 1);
        let back = from_bytes(to_bytes(&g).unwrap()).unwrap();
        let v = VertexId::from_index(0);
        assert_eq!(back.vertex_label(v), Some(at_limit));
        assert_eq!(scene_image(&back, v), Some(1));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let back = from_bytes(to_bytes(&g).unwrap()).unwrap();
        assert!(back.is_empty());
    }
}

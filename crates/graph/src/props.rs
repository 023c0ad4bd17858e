//! Property storage for vertices and edges.
//!
//! Scene-graph vertices carry bounding boxes and image provenance, knowledge
//! graph vertices carry entity metadata, and scene edges carry their
//! predicate's score. An element's properties are a small key-sorted list
//! (≤ 8 entries), and almost every element of a merged graph repeats one of
//! a few key lists: `[h, image, w, x, y]` on scene vertices, `[score]` on
//! scene edges, none on links and knowledge-graph vertices.
//!
//! So a graph does not store a list per element. It keeps one
//! `PropColumn` for its vertices and one for its edges. A column interns
//! each distinct sorted key list once as a *shape* (shape 0 is the empty
//! list) and holds every element's values, in key order, in one exactly
//! sized `Vec<PropValue>`. An element keeps only a `PropSlot`: its shape
//! and where its values start. [`Props`] is the borrowed view a graph hands
//! out ([`crate::Graph::vertex_props`]), and [`Properties`] the owned list a
//! caller builds and passes to `add_*_with_props`.
//!
//! Keys are `&'static str`: the fixed keys the pipeline writes ([`IMAGE`],
//! `"x"`, …, `"score"`) are string literals used as they are, and a key only
//! known at run time (a deserialized file, a caller-chosen name) is interned
//! once per process. A value is two words: string payloads are boxed.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

/// The vertex property holding the id of the image a scene-graph vertex
/// was detected in. Knowledge-graph vertices have none.
pub const IMAGE: &str = "image";

/// The process-wide copy of a run-time key, leaked once on first sight so
/// every property list that carries it shares one `&'static str`.
pub(crate) fn intern(key: &str) -> &'static str {
    static KEYS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut keys = KEYS
        .lock()
        .expect("no code panics while holding the key interner");
    if let Some(&known) = keys.get(key) {
        return known;
    }
    let leaked: &'static str = Box::leak(Box::from(key));
    keys.insert(leaked);
    leaked
}

/// A static key as it is, an owned one interned.
fn static_key(key: Cow<'static, str>) -> &'static str {
    match key {
        Cow::Borrowed(key) => key,
        Cow::Owned(key) => intern(&key),
    }
}

/// `values` at exactly its length. A vector with spare room is copied to a
/// fresh allocation of the final length rather than shrunk in place, which
/// would leave the freed tail behind as a heap fragment.
pub(crate) fn exact<T>(values: Vec<T>) -> Vec<T> {
    if values.len() == values.capacity() {
        return values;
    }
    let mut exact = Vec::with_capacity(values.len());
    exact.extend(values);
    exact
}
/// A property value. The variants cover everything SVQA stores on the graph:
/// strings (labels, categories), integers (image ids, counts), floats
/// (bounding-box coordinates, confidences) and booleans (flags such as
/// "cached").
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// UTF-8 string value, boxed so that every value is two words.
    Str(Box<String>),
    /// Signed integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
}

impl PropValue {
    /// Borrow the string payload, if this is a [`PropValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Extract the integer payload, if this is a [`PropValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract the float payload; integers are widened for convenience.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            PropValue::Float(f) => Some(*f),
            PropValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract the boolean payload, if this is a [`PropValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Str(s) => write!(f, "{s}"),
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x}"),
            PropValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for PropValue {
    fn from(s: &str) -> Self {
        PropValue::Str(Box::new(s.to_owned()))
    }
}

impl From<String> for PropValue {
    fn from(s: String) -> Self {
        PropValue::Str(Box::new(s))
    }
}

impl From<i64> for PropValue {
    fn from(i: i64) -> Self {
        PropValue::Int(i)
    }
}

impl From<u32> for PropValue {
    fn from(i: u32) -> Self {
        PropValue::Int(i64::from(i))
    }
}

impl From<f64> for PropValue {
    fn from(f: f64) -> Self {
        PropValue::Float(f)
    }
}

impl From<bool> for PropValue {
    fn from(b: bool) -> Self {
        PropValue::Bool(b)
    }
}

/// An owned key-sorted property list: what a caller builds and hands to
/// [`crate::Graph::add_vertex_with_props`] or
/// [`crate::Graph::add_edge_with_props`], which move its values into the
/// graph's column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Properties {
    keys: Vec<&'static str>,
    values: Vec<PropValue>,
}

impl Properties {
    /// An empty property set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A property set of `entries` in any order. Of two entries with one
    /// key the later wins, as if each were `set` in turn.
    pub(crate) fn from_entries(mut entries: Vec<(&'static str, PropValue)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        let (keys, values) = entries.into_iter().unzip();
        Properties { keys, values }
    }

    /// Number of stored properties.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no properties are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Insert or overwrite a property. Returns the previous value if the key
    /// was already present.
    pub fn set(
        &mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<PropValue>,
    ) -> Option<PropValue> {
        let key = key.into();
        let value = value.into();
        match self.keys.binary_search(&&*key) {
            Ok(pos) => Some(std::mem::replace(&mut self.values[pos], value)),
            Err(pos) => {
                self.keys.insert(pos, static_key(key));
                self.values.insert(pos, value);
                None
            }
        }
    }

    /// Look up a property by key.
    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.as_props().get(key)
    }

    /// Remove a property by key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        let pos = self.keys.binary_search(&key).ok()?;
        self.keys.remove(pos);
        Some(self.values.remove(pos))
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &PropValue)> {
        self.keys.iter().copied().zip(&self.values)
    }

    /// The list as the view a graph hands out.
    fn as_props(&self) -> Props<'_> {
        Props {
            keys: &self.keys,
            values: &self.values,
        }
    }
}

/// Static keys are kept as they are and owned ones interned.
impl<K: Into<Cow<'static, str>>, V: Into<PropValue>> FromIterator<(K, V)> for Properties {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut entries = Vec::with_capacity(iter.size_hint().0);
        entries.extend(iter.map(|(k, v)| (static_key(k.into()), v.into())));
        Properties::from_entries(entries)
    }
}

/// One element's properties, borrowed from its graph's column: the keys of
/// its shape and its run of values, both in key order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Props<'g> {
    keys: &'g [&'static str],
    values: &'g [PropValue],
}

impl<'g> Props<'g> {
    /// Number of stored properties.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no properties are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Look up a property by key.
    pub fn get(&self, key: &str) -> Option<&'g PropValue> {
        let pos = self.keys.binary_search(&key).ok()?;
        Some(&self.values[pos])
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'g PropValue)> + 'g {
        self.keys.iter().copied().zip(self.values)
    }

    /// The keys, sorted: the element's shape.
    pub fn keys(&self) -> &'g [&'static str] {
        self.keys
    }

    /// An owned copy of the list.
    pub fn to_owned(&self) -> Properties {
        Properties {
            keys: self.keys.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

/// Where one element's properties sit in its graph's [`PropColumn`]: its
/// shape, and the index of its first value. Eight bytes, with no heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PropSlot {
    pub(crate) shape: u32,
    pub(crate) start: u32,
}

impl PropSlot {
    pub(crate) fn new(shape: u32, start: usize) -> Self {
        PropSlot {
            shape,
            start: u32::try_from(start).expect("a column holds under 2^32 values"),
        }
    }
}

/// One kind of element's properties in one graph: the interned key shapes
/// and one value arena that every element's values are a run of.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropColumn {
    /// Shape `s > 0` is `shapes[s - 1]`, a strictly ascending key list;
    /// shape 0, the empty list, is implicit.
    shapes: Vec<Box<[&'static str]>>,
    /// Key list → shape id, for every non-empty shape.
    ids: HashMap<Box<[&'static str]>, u32>,
    /// Every element's values, element after element.
    pub(crate) values: Vec<PropValue>,
}

impl PropColumn {
    /// The shape id of the key list `keys`, numbering it when new.
    ///
    /// # Panics
    ///
    /// When `keys` is not strictly ascending.
    pub(crate) fn shape(&mut self, keys: &[&'static str]) -> u32 {
        if keys.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(keys) {
            return id;
        }
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "shape keys must be strictly ascending: {keys:?}"
        );
        self.shapes.push(keys.into());
        let id = u32::try_from(self.shapes.len()).expect("under 2^32 shapes");
        self.ids.insert(keys.into(), id);
        id
    }

    /// The keys of shape `shape`; `None` for an id this column never issued.
    pub(crate) fn keys(&self, shape: u32) -> Option<&[&'static str]> {
        match shape {
            0 => Some(&[]),
            s => self.shapes.get(s as usize - 1).map(|keys| &**keys),
        }
    }

    /// The properties in `slot`.
    ///
    /// # Panics
    ///
    /// When `slot` is not from this column; [`crate::Graph::validate`]
    /// checks every slot of a loaded graph.
    pub(crate) fn props(&self, slot: PropSlot) -> Props<'_> {
        let keys = self.keys(slot.shape).expect("slot shape is in range");
        let start = slot.start as usize;
        Props {
            keys,
            values: &self.values[start..start + keys.len()],
        }
    }

    /// Whether `slot`'s shape is in range and its values fit the column.
    pub(crate) fn holds(&self, slot: PropSlot) -> bool {
        self.keys(slot.shape)
            .is_some_and(|keys| slot.start as usize + keys.len() <= self.values.len())
    }

    /// Append an owned list, moving its values into the arena.
    pub(crate) fn push(&mut self, props: Properties) -> PropSlot {
        let shape = self.shape(&props.keys);
        let start = self.values.len();
        self.values.extend(props.values);
        PropSlot::new(shape, start)
    }

    /// Append a copy of `from`'s `slot`; `shapes` maps `from`'s shape ids
    /// to this column's, filled as shapes are first seen.
    pub(crate) fn copy(
        &mut self,
        from: &PropColumn,
        slot: PropSlot,
        shapes: &mut [Option<u32>],
    ) -> PropSlot {
        let props = from.props(slot);
        let shape = *shapes[slot.shape as usize].get_or_insert_with(|| self.shape(props.keys));
        let start = self.values.len();
        self.values.extend_from_slice(props.values);
        PropSlot::new(shape, start)
    }

    /// Number of shapes, the empty one included.
    pub(crate) fn shape_count(&self) -> usize {
        self.shapes.len() + 1
    }
}

/// How many values a property column holds and has room for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnSize {
    /// Values stored.
    pub len: usize,
    /// Values the arena has room for; equal to `len` after every bulk
    /// build or load.
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut p = Properties::new();
        assert!(p.is_empty());
        assert_eq!(p.set("image", 3u32), None);
        assert_eq!(p.set("category", "dog"), None);
        assert_eq!(p.get("image").and_then(PropValue::as_int), Some(3));
        assert_eq!(p.get("category").and_then(PropValue::as_str), Some("dog"));
        assert_eq!(p.len(), 2);
        let prev = p.set("image", 4u32);
        assert_eq!(prev.and_then(|v| v.as_int()), Some(3));
        assert_eq!(p.remove("image").and_then(|v| v.as_int()), Some(4));
        assert_eq!(p.get("image"), None);
    }

    #[test]
    fn keys_stay_sorted() {
        let mut p = Properties::new();
        p.set("z", 1i64);
        p.set("a", 2i64);
        p.set("m", 3i64);
        let keys: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
        assert_eq!(p.remove("m").and_then(|v| v.as_int()), Some(3));
        let keys: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }

    #[test]
    fn float_widening() {
        let v = PropValue::Int(7);
        assert_eq!(v.as_float(), Some(7.0));
        assert_eq!(PropValue::Float(1.5).as_float(), Some(1.5));
        assert_eq!(PropValue::from("x").as_float(), None);
    }

    #[test]
    fn from_iterator_dedups_keys() {
        let p: Properties = [("k", 1i64), ("k", 2i64)].into_iter().collect();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("k").and_then(PropValue::as_int), Some(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PropValue::from("dog").to_string(), "dog");
        assert_eq!(PropValue::from(3i64).to_string(), "3");
        assert_eq!(PropValue::from(true).to_string(), "true");
    }

    #[test]
    fn loaded_maps_are_sized_to_their_entries() {
        // Each column is an exactly sized arena of two-word values, and an
        // element holds an eight-byte slot into it.
        assert_eq!(std::mem::size_of::<PropValue>(), 16);
        assert_eq!(std::mem::size_of::<PropSlot>(), 8);
        let mut score = Properties::new();
        score.set("score", 0.5);
        let mut g = crate::Graph::new();
        let bbox: Properties = [("x", 0.1), ("y", 0.2), ("w", 0.3)].into_iter().collect();
        let dog = g.add_vertex_with_props("dog", bbox.clone());
        let man = g.add_vertex("man");
        let near = g
            .add_edge_with_props(dog, man, "near", score.clone())
            .unwrap();

        let loaded = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        assert_eq!(loaded.vertex_props(dog).to_owned(), bbox);
        assert!(loaded.vertex_props(man).is_empty());
        assert_eq!(loaded.edge_props(near).to_owned(), score);
        assert_eq!(
            loaded.value_columns(),
            [
                ColumnSize {
                    len: 3,
                    capacity: 3
                },
                ColumnSize {
                    len: 1,
                    capacity: 1
                }
            ]
        );
    }

    #[test]
    fn runtime_keys_are_interned_once() {
        let key = |p: &Properties| p.iter().next().unwrap().0;
        let mut a = Properties::new();
        a.set(format!("{}_{}", "tag", 9), 1i64);
        let b: Properties = [(String::from("tag_9"), 2i64)].into_iter().collect();
        assert!(std::ptr::eq(key(&a), key(&b)));

        // A key loaded twice from a snapshot is the same one string.
        let mut g = crate::Graph::new();
        g.add_vertex_with_props("dog", a);
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let [first, second] = [0, 1].map(|_| crate::binio::from_bytes(bytes.clone()).unwrap());
        let loaded = |g: &crate::Graph| {
            let props = g.vertex_props(crate::VertexId::from_index(0));
            props.iter().next().unwrap().0
        };
        assert_eq!(loaded(&first), "tag_9");
        assert!(std::ptr::eq(loaded(&first), loaded(&second)));
        assert!(std::ptr::eq(loaded(&first), key(&b)));
    }

    #[test]
    fn static_and_runtime_keys_serialize_alike() {
        let snapshot = |p: Properties| {
            let mut g = crate::Graph::new();
            g.add_vertex_with_props("dog", p);
            crate::binio::to_bytes(&g).unwrap()
        };
        let mut p = Properties::new();
        p.set("score", 0.5);
        p.set(String::from("source"), "lake");
        let mut q = Properties::new();
        q.set(String::from("score"), 0.5);
        q.set("source", "lake");
        let bytes = snapshot(p.clone());
        assert_eq!(bytes, snapshot(q));
        let back = crate::binio::from_bytes(bytes).unwrap();
        assert_eq!(
            back.vertex_props(crate::VertexId::from_index(0)).to_owned(),
            p
        );
    }
}

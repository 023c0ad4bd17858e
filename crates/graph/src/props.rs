//! Property storage for vertices and edges.
//!
//! Scene-graph vertices carry bounding boxes and image provenance, knowledge
//! graph vertices carry entity metadata, and the aggregator marks vertices
//! with the subgraph-cache index (Algorithm 1). Properties are a small sorted
//! `(key, value)` list: the observed property counts are tiny (≤ 8), where a
//! sorted slice beats a hash map on both memory and lookup cost.
//!
//! A merged graph holds one property list per vertex and edge, so the list
//! is packed: an exactly sized boxed slice of 32-byte entries. Keys are
//! `&'static str`: the fixed keys the pipeline writes ([`IMAGE`], `"x"`, …,
//! `"score"`) are string literals used as they are, and a key only known at
//! run time (a deserialized file, a caller-chosen name) is interned once per
//! process. A value is two words: string payloads are boxed.

use serde::{Deserialize, Error, Map, Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeSet;
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

/// `entries` as an exactly sized boxed slice. A vector with spare room is
/// copied to a fresh allocation of the final length rather than shrunk in
/// place, which would leave the freed tail behind as a heap fragment.
fn exact<T>(entries: Vec<T>) -> Box<[T]> {
    if entries.len() == entries.capacity() {
        return entries.into_boxed_slice();
    }
    let mut exact = Vec::with_capacity(entries.len());
    exact.extend(entries);
    exact.into_boxed_slice()
}

/// A property value. The variants cover everything SVQA stores on the graph:
/// strings (labels, categories), integers (image ids, counts), floats
/// (bounding-box coordinates, confidences) and booleans (flags such as
/// "cached").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A small key-sorted property map, exactly sized. Serializes as
/// `{"entries": [[key, value], ...]}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Properties {
    entries: Box<[(&'static str, PropValue)]>,
}

impl Properties {
    /// An empty property set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A property set of `entries` in any order, at exactly its length.
    /// Of two entries with one key the later wins, as if each were `set`
    /// in turn.
    pub(crate) fn from_entries(mut entries: Vec<(&'static str, PropValue)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Properties {
            entries: exact(entries),
        }
    }

    /// Number of stored properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no properties are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (*k).cmp(key))
    }

    /// Insert or overwrite a property. Returns the previous value if the key
    /// was already present. A new key reallocates the list at its new
    /// length.
    pub fn set(
        &mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<PropValue>,
    ) -> Option<PropValue> {
        let key = key.into();
        let value = value.into();
        match self.position(&key) {
            Ok(pos) => Some(std::mem::replace(&mut self.entries[pos].1, value)),
            Err(pos) => {
                let key = static_key(key);
                let mut entries = Vec::with_capacity(self.entries.len() + 1);
                let mut old = std::mem::take(&mut self.entries).into_vec().into_iter();
                entries.extend(old.by_ref().take(pos));
                entries.push((key, value));
                entries.extend(old);
                self.entries = entries.into_boxed_slice();
                None
            }
        }
    }

    /// Look up a property by key.
    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.position(key).ok().map(|pos| &self.entries[pos].1)
    }

    /// Remove a property by key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        let pos = self.position(key).ok()?;
        let mut entries = std::mem::take(&mut self.entries).into_vec();
        let (_, value) = entries.remove(pos);
        self.entries = exact(entries);
        Some(value)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &PropValue)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

impl Serialize for Properties {
    fn to_value(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| Value::Array(vec![Value::String((*k).to_owned()), v.to_value()]))
            .collect();
        let mut m = Map::new();
        m.insert("entries".to_owned(), Value::Array(entries));
        Value::Object(m)
    }
}

impl Deserialize for Properties {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::custom("Properties: expected {\"entries\": [...]}"))?;
        let mut props = Vec::with_capacity(entries.len());
        for entry in entries {
            let (key, value) = <(String, PropValue)>::from_value(entry)
                .map_err(|e| Error::custom(format!("Properties.entries: {e}")))?;
            props.push((intern(&key), value));
        }
        Ok(Properties::from_entries(props))
    }
}

/// Static keys are kept as they are and owned ones interned. The list is
/// built at the iterator's lower size bound, which is exact for arrays.
impl<K: Into<Cow<'static, str>>, V: Into<PropValue>> FromIterator<(K, V)> for Properties {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut entries = Vec::with_capacity(iter.size_hint().0);
        entries.extend(iter.map(|(k, v)| (static_key(k.into()), v.into())));
        Properties::from_entries(entries)
    }
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
    fn serde_roundtrip() {
        let p: Properties = [("category", "dog")].into_iter().collect();
        let json = serde_json::to_string(&p).unwrap();
        let back: Properties = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn loaded_maps_are_sized_to_their_entries() {
        // Every list is an exactly sized slice of 32-byte entries: a
        // static key and a two-word value.
        assert_eq!(std::mem::size_of::<PropValue>(), 16);
        assert_eq!(std::mem::size_of::<(&'static str, PropValue)>(), 32);
        assert_eq!(std::mem::size_of::<Properties>(), 16);
        let mut score = Properties::new();
        score.set("score", 0.5);
        let mut g = crate::Graph::new();
        let bbox: Properties = [("x", 0.1), ("y", 0.2), ("w", 0.3)].into_iter().collect();
        let dog = g.add_vertex_with_props("dog", bbox.clone());
        let man = g.add_vertex("man");
        let near = g
            .add_edge_with_props(dog, man, "near", score.clone())
            .unwrap();

        let from_json = crate::io::from_json(&crate::io::to_json(&g)).unwrap();
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let from_bytes = crate::binio::from_bytes(bytes).unwrap();
        for loaded in [&from_json, &from_bytes] {
            assert_eq!(loaded.vertex(dog).unwrap().props(), &bbox);
            assert!(loaded.vertex(man).unwrap().props().is_empty());
            assert_eq!(loaded.edge(near).unwrap().props(), &score);
        }
    }

    #[test]
    fn runtime_keys_are_interned_once() {
        let key = |p: &Properties| p.iter().next().unwrap().0;
        let mut a = Properties::new();
        a.set(format!("{}_{}", "tag", 9), 1i64);
        let b: Properties = [(String::from("tag_9"), 2i64)].into_iter().collect();
        assert!(std::ptr::eq(key(&a), key(&b)));

        // A key loaded twice, through JSON and through the binary
        // snapshot, is one string.
        let mut g = crate::Graph::new();
        g.add_vertex_with_props("dog", a);
        let from_json = crate::io::from_json(&crate::io::to_json(&g)).unwrap();
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let from_bytes = crate::binio::from_bytes(bytes).unwrap();
        let loaded = |g: &crate::Graph| key(g.vertices().next().unwrap().1.props());
        assert_eq!(loaded(&from_json), "tag_9");
        assert!(std::ptr::eq(loaded(&from_json), loaded(&from_bytes)));
        assert!(std::ptr::eq(loaded(&from_json), key(&b)));
    }

    #[test]
    fn static_and_runtime_keys_serialize_alike() {
        let mut p = Properties::new();
        p.set("score", 0.5);
        p.set(String::from("source"), "lake");
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(
            json,
            r#"{"entries":[["score",{"Float":0.5}],["source",{"Str":"lake"}]]}"#
        );
        let back: Properties = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert!(serde_json::from_str::<Properties>(r#"{"entries":[["k"]]}"#).is_err());
        assert!(serde_json::from_str::<Properties>("[]").is_err());
    }
}

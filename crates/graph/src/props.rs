//! Property storage for vertices and edges.
//!
//! Scene-graph vertices carry bounding boxes and image provenance, knowledge
//! graph vertices carry entity metadata, and the aggregator marks vertices
//! with the subgraph-cache index (Algorithm 1). Properties are a small sorted
//! `(key, value)` list: the observed property counts are tiny (≤ 8), where a
//! sorted vec beats a hash map on both memory and lookup cost.
//!
//! Keys are `Cow<'static, str>`: the fixed keys the pipeline writes
//! (`"image"`, `"x"`, …, `"score"`) are borrowed string literals and cost no
//! allocation, while keys only known at run time (deserialized files,
//! caller-chosen names) are owned.

use serde::{Deserialize, Error, Map, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// A property value. The variants cover everything SVQA stores on the graph:
/// strings (labels, categories), integers (image ids, counts), floats
/// (bounding-box coordinates, confidences) and booleans (flags such as
/// "cached").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropValue {
    /// UTF-8 string value.
    Str(String),
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
            PropValue::Str(s) => Some(s),
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
        PropValue::Str(s.to_owned())
    }
}

impl From<String> for PropValue {
    fn from(s: String) -> Self {
        PropValue::Str(s)
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

/// A small key-sorted property map. Serializes as
/// `{"entries": [[key, value], ...]}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Properties {
    entries: Vec<(Cow<'static, str>, PropValue)>,
}

impl Properties {
    /// An empty property set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty property set with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Properties {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries the set holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of stored properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no properties are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        match self.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key.as_ref())) {
            Ok(pos) => Some(std::mem::replace(&mut self.entries[pos].1, value)),
            Err(pos) => {
                self.entries.insert(pos, (key, value));
                None
            }
        }
    }

    /// Look up a property by key.
    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|pos| &self.entries[pos].1)
    }

    /// Remove a property by key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        match self.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
            Ok(pos) => Some(self.entries.remove(pos).1),
            Err(_) => None,
        }
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

impl Serialize for Properties {
    fn to_value(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| Value::Array(vec![Value::String(k.as_ref().to_owned()), v.to_value()]))
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
        let mut props = Properties::with_capacity(entries.len());
        for entry in entries {
            let (key, value) = <(String, PropValue)>::from_value(entry)
                .map_err(|e| Error::custom(format!("Properties.entries: {e}")))?;
            props.set(key, value);
        }
        Ok(props)
    }
}

impl<K: Into<Cow<'static, str>>, V: Into<PropValue>> FromIterator<(K, V)> for Properties {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut props = Properties::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            props.set(k, v);
        }
        props
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
    }

    #[test]
    fn float_widening() {
        let v = PropValue::Int(7);
        assert_eq!(v.as_float(), Some(7.0));
        assert_eq!(PropValue::Float(1.5).as_float(), Some(1.5));
        assert_eq!(PropValue::Str("x".into()).as_float(), None);
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
        // Built by `set`, a one-entry map reserves room for several.
        let mut score = Properties::new();
        score.set("score", 0.5);
        assert!(score.capacity() > 1);
        let mut g = crate::Graph::new();
        let bbox: Properties = [("x", 0.1), ("y", 0.2), ("w", 0.3)].into_iter().collect();
        let dog = g.add_vertex_with_props("dog", bbox);
        let man = g.add_vertex("man");
        g.add_edge_with_props(dog, man, "near", score).unwrap();

        let from_json = crate::io::from_json(&crate::io::to_json(&g)).unwrap();
        let from_bytes = crate::binio::from_bytes(crate::binio::to_bytes(&g)).unwrap();
        for loaded in [&from_json, &from_bytes] {
            for (_, v) in loaded.vertices() {
                assert_eq!(v.props().capacity(), v.props().len(), "{}", v.label());
            }
            for (_, e) in loaded.edges() {
                assert_eq!((e.props().len(), e.props().capacity()), (1, 1));
            }
        }
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
        assert!(matches!(p.entries[0].0, Cow::Borrowed(_)));
        let back: Properties = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert!(serde_json::from_str::<Properties>(r#"{"entries":[["k"]]}"#).is_err());
        assert!(serde_json::from_str::<Properties>("[]").is_err());
    }
}

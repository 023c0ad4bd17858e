//! Shared vertex and edge labels.
//!
//! A merged graph repeats a few hundred distinct labels across tens of
//! thousands of vertices and edges ("dog", "near", "same as"). A [`Label`]
//! is a reference-counted string: the graph's label indexes own one copy
//! per distinct label, and every vertex or edge carrying it holds a clone
//! of that copy, so adding an element with a known label allocates nothing
//! (the integer-indexed label idea of GraphVQA, applied to storage).

use serde::{Deserialize, Error, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// The edge label linking a scene instance to its knowledge-graph
/// counterpart, in both directions (Algorithm 1's link edges).
pub const SAME_AS: &str = "same as";

/// The knowledge graph's taxonomy edge label (`dog —is a→ pet`).
pub const IS_A: &str = "is a";

/// An immutable, cheaply clonable label string. Compares, hashes and
/// serializes exactly like the `str` it holds, so label-keyed maps can be
/// probed with a plain `&str`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct Label(Arc<str>);

impl Label {
    /// The label text.
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label(Arc::from(s))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for Label {
    fn to_value(&self) -> Value {
        Value::String(self.0.as_ref().to_owned())
    }
}

impl Deserialize for Label {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(Label::from)
            .ok_or_else(|| Error::custom(format!("expected label string, found {}", v.kind())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn behaves_like_its_text() {
        let l = Label::from("in front of");
        assert_eq!(l.as_str(), "in front of");
        assert_eq!(format!("{l:?}"), "\"in front of\"");
        assert_eq!(l, Label::from("in front of"));
    }

    #[test]
    fn maps_are_probed_with_str() {
        let mut m = HashMap::new();
        m.insert(Label::from("dog"), 2);
        assert_eq!(m.get("dog"), Some(&2));
        let (k, _) = m.get_key_value("dog").unwrap();
        let shared = k.clone();
        assert!(Arc::ptr_eq(&shared.0, &k.0));
    }

    #[test]
    fn serializes_as_a_plain_string() {
        let l = Label::from("same as");
        let json = serde_json::to_string(&l).unwrap();
        assert_eq!(json, serde_json::to_string("same as").unwrap());
        let back: Label = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert!(serde_json::from_str::<Label>("3").is_err());
    }
}

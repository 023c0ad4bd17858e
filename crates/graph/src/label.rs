//! Label ids and the per-graph label tables.
//!
//! A merged graph repeats a few hundred distinct labels across tens of
//! thousands of vertices and edges ("dog", "near", "same as"). Each graph
//! keeps two [`LabelTable`]s, one for vertex labels and one for edge
//! labels, that store every distinct text once and number it. A vertex or
//! edge holds only its label's [`LabelId`], four bytes, and comparing two
//! labels of one table is an integer compare (the integer-indexed
//! scene-graph representation of GraphVQA).

use std::collections::HashMap;
use std::sync::Arc;

/// The edge label linking a scene instance to its knowledge-graph
/// counterpart, in both directions (Algorithm 1's link edges).
pub const SAME_AS: &str = "same as";

/// The knowledge graph's taxonomy edge label (`dog —is a→ pet`).
pub const IS_A: &str = "is a";

/// A label's slot in one graph's vertex-label or edge-label table.
///
/// Ids are only meaningful relative to the graph and the table (vertex or
/// edge labels) that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// Numeric index of this label in its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One graph's distinct labels of one kind, numbered in first-seen order,
/// each with a value `T` (the vertices carrying it, or the number of edges
/// carrying it). The text is stored once, shared by the id → text list and
/// the text → id map.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelTable<T> {
    entries: Vec<(Arc<str>, T)>,
    ids: HashMap<Arc<str>, LabelId>,
}

impl<T: Default> LabelTable<T> {
    /// The id of `text`, if it has been numbered.
    pub(crate) fn id(&self, text: &str) -> Option<LabelId> {
        self.ids.get(text).copied()
    }

    /// The id of `text`, numbering it (with a default value) when new.
    pub(crate) fn intern(&mut self, text: &str) -> LabelId {
        if let Some(id) = self.id(text) {
            return id;
        }
        let id = LabelId(u32::try_from(self.entries.len()).expect("under 2^32 labels"));
        let text: Arc<str> = Arc::from(text);
        self.ids.insert(Arc::clone(&text), id);
        self.entries.push((text, T::default()));
        id
    }

    /// Number of distinct labels numbered so far.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The text of label `id`.
    ///
    /// # Panics
    ///
    /// When `id` was not issued by this table.
    pub(crate) fn text(&self, id: LabelId) -> &str {
        &self.entries[id.index()].0
    }

    /// The value of label `id`.
    pub(crate) fn value(&self, id: LabelId) -> &T {
        &self.entries[id.index()].1
    }

    /// The value of label `id`, mutably.
    pub(crate) fn value_mut(&mut self, id: LabelId) -> &mut T {
        &mut self.entries[id.index()].1
    }

    /// Every label's text and value, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.entries.iter().map(|(text, value)| (&**text, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_its_text() {
        let mut t = LabelTable::<usize>::default();
        let id = t.intern("in front of");
        assert_eq!(t.text(id), "in front of");
        assert_eq!(t.intern("in front of"), id);
        assert_eq!(t.len(), 1);
        let other = t.intern("near");
        assert_ne!(other, id);
        assert_eq!((id.index(), other.index()), (0, 1));
    }

    #[test]
    fn maps_are_probed_with_str() {
        let mut t = LabelTable::<usize>::default();
        let dog = t.intern("dog");
        *t.value_mut(dog) += 2;
        assert_eq!(t.id("dog"), Some(dog));
        assert_eq!(t.id("cat"), None);
        assert_eq!(*t.value(dog), 2);
        // The id list and the text map share one copy of the text.
        let (text, _) = &t.entries[dog.index()];
        let (key, _) = t.ids.get_key_value("dog").unwrap();
        assert!(Arc::ptr_eq(text, key));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![("dog", &2)]);
    }

    #[test]
    fn serializes_as_a_plain_string() {
        let mut g = crate::Graph::new();
        let a = g.add_vertex("same as");
        g.add_edge(a, a, SAME_AS).unwrap();
        // The snapshot's one label table holds the text once, as its
        // length and its UTF-8 bytes, for the vertex and the edge alike.
        let bytes = crate::binio::to_bytes(&g).unwrap();
        let text = b"\x07\x00same as";
        assert_eq!(bytes.windows(text.len()).filter(|w| w == text).count(), 1);
        let back = crate::binio::from_bytes(bytes).unwrap();
        assert_eq!(back.vertex_label(a), Some("same as"));
        assert_eq!(back.edge_label(crate::EdgeId::from_index(0)), Some(SAME_AS));
    }
}

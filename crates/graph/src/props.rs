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
//! each distinct [`Shape`] once: a sorted key list together with the
//! [`Kind`] of each key's value, so one key list under two kinds is two
//! shapes (shape 0 is the empty list). Every element's values sit, in key
//! order, in one exactly sized arena of 8-byte words: a float's bits, an
//! integer's bits, 0 or 1 for a boolean, or the index of a string in the
//! column's string table. The kinds are stored once per shape, not once per
//! value. An element keeps only a `PropSlot`: its shape and where its words
//! start. [`Props`] is the borrowed view a graph hands out
//! ([`crate::Graph::vertex_props`]), which reads each word back as a
//! [`Value`], and [`Properties`] the owned list of [`PropValue`]s a caller
//! builds and passes to `add_*_with_props`.
//!
//! Keys are `&'static str`: the fixed keys the pipeline writes ([`IMAGE`],
//! `"x"`, …, `"score"`) are string literals used as they are, and a key only
//! known at run time (a deserialized file, a caller-chosen name) is interned
//! once per process.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
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
/// "cached"). This is the owned form a [`Properties`] list holds; a graph
/// hands its values out as [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// UTF-8 string value.
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
        self.as_value().as_str()
    }

    /// Extract the integer payload, if this is a [`PropValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        self.as_value().as_int()
    }

    /// Extract the float payload; integers are widened for convenience.
    pub fn as_float(&self) -> Option<f64> {
        self.as_value().as_float()
    }

    /// Extract the boolean payload, if this is a [`PropValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        self.as_value().as_bool()
    }

    /// The value as a borrowed view.
    pub fn as_value(&self) -> Value<'_> {
        match self {
            PropValue::Str(s) => Value::Str(s),
            PropValue::Int(i) => Value::Int(*i),
            PropValue::Float(f) => Value::Float(*f),
            PropValue::Bool(b) => Value::Bool(*b),
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_value().fmt(f)
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

impl From<Value<'_>> for PropValue {
    fn from(value: Value<'_>) -> Self {
        match value {
            Value::Str(s) => s.into(),
            Value::Int(i) => PropValue::Int(i),
            Value::Float(f) => PropValue::Float(f),
            Value::Bool(b) => PropValue::Bool(b),
        }
    }
}

/// The kind of a property value: what its 8-byte word in a column holds.
/// A [`Shape`] fixes one kind per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The index of a string in the column's string table.
    Str,
    /// An `i64`'s bits.
    Int,
    /// An `f64`'s bits.
    Float,
    /// 0 or 1.
    Bool,
}

impl Kind {
    /// The value `word` holds, its strings looked up in `strings`.
    fn read(self, word: Word, strings: &[Box<str>]) -> Value<'_> {
        match self {
            Kind::Str => Value::Str(&strings[word as usize]),
            Kind::Int => Value::Int(word as i64),
            Kind::Float => Value::Float(f64::from_bits(word)),
            Kind::Bool => Value::Bool(word != 0),
        }
    }
}

/// One property value in a column: see [`Kind`] for what it holds.
pub(crate) type Word = u64;

/// A property value borrowed from a graph's column (or from a
/// [`PropValue`]): a string is a slice of the column's string table, every
/// other value a copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'g> {
    /// UTF-8 string value.
    Str(&'g str),
    /// Signed integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
}

impl<'g> Value<'g> {
    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(self) -> Option<&'g str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`Value::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The float payload; integers are widened for convenience.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// What kind of value this is.
    pub fn kind(self) -> Kind {
        match self {
            Value::Str(_) => Kind::Str,
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Bool(_) => Kind::Bool,
        }
    }

    /// The value's word; a string is handed to `string`, which stores it
    /// and returns its index.
    pub(crate) fn word(self, string: impl FnOnce(&str) -> usize) -> Word {
        match self {
            Value::Str(s) => string(s) as Word,
            Value::Int(i) => i as Word,
            Value::Float(f) => f.to_bits(),
            Value::Bool(b) => Word::from(b),
        }
    }
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A property shape: the strictly ascending keys of an element's
/// properties and the kind of each key's value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shape<'a> {
    /// The keys, strictly ascending.
    pub keys: &'a [&'static str],
    /// One kind per key.
    pub kinds: &'a [Kind],
}

/// Hashes the keys alone. Shapes that differ only in kinds are rare, and
/// hashing the kinds as well would add about a sixth to the attach of
/// per-image scene graphs, which looks up every element's shape twice.
impl Hash for Shape<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.keys.hash(state);
    }
}

/// An owned key-sorted property list: what a caller builds and hands to
/// [`crate::Graph::add_vertex_with_props`] or
/// [`crate::Graph::add_edge_with_props`], which copy its values into the
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
    fn from_entries(mut entries: Vec<(&'static str, PropValue)>) -> Self {
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
        let pos = self.keys.binary_search(&key).ok()?;
        Some(&self.values[pos])
    }

    /// Remove a property by key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        let pos = self.keys.binary_search(&key).ok()?;
        self.keys.remove(pos);
        Some(self.values.remove(pos))
    }

    /// Remove every property, keeping the room they took.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &PropValue)> {
        self.keys.iter().copied().zip(&self.values)
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

/// One element's properties, borrowed from its graph's column: the keys
/// and kinds of its shape and its run of words, in key order.
#[derive(Clone, Copy, Default)]
pub struct Props<'g> {
    shape: Shape<'g>,
    words: &'g [Word],
    /// The column's whole string table, which string words index.
    strings: &'g [Box<str>],
}

impl<'g> Props<'g> {
    /// Number of stored properties.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no properties are stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Look up a property by key.
    pub fn get(&self, key: &str) -> Option<Value<'g>> {
        let pos = self.shape.keys.binary_search(&key).ok()?;
        Some(self.value(pos))
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value<'g>)> + 'g {
        let props = *self;
        (0..self.len()).map(move |pos| (props.shape.keys[pos], props.value(pos)))
    }

    /// The keys and their values' kinds: the element's shape.
    pub fn shape(&self) -> Shape<'g> {
        self.shape
    }

    /// An owned copy of the list.
    pub fn to_owned(&self) -> Properties {
        Properties {
            keys: self.shape.keys.to_vec(),
            values: self.iter().map(|(_, value)| value.into()).collect(),
        }
    }

    /// The value at `pos` in key order.
    fn value(&self, pos: usize) -> Value<'g> {
        self.shape.kinds[pos].read(self.words[pos], self.strings)
    }
}

/// Equal keys and equal values, whichever columns the two lists sit in.
impl PartialEq for Props<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Props<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Where one element's properties sit in its graph's [`PropColumn`]: its
/// shape, and the index of its first word. Eight bytes, with no heap.
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

/// An interned shape: its keys and their kinds.
type ShapeBox = (Box<[&'static str]>, Box<[Kind]>);

/// One kind of element's properties in one graph: the interned shapes, one
/// word arena that every element's values are a run of, and the strings
/// the string words index.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropColumn {
    /// Shape `s > 0` is `shapes[s - 1]`: a strictly ascending key list and
    /// one kind per key. Shape 0, the empty list, is implicit.
    shapes: Vec<ShapeBox>,
    /// Key list → the ids of the shapes with those keys, one per distinct
    /// kind list, for every non-empty key list.
    ids: HashMap<Box<[&'static str]>, Vec<u32>>,
    /// Every element's values, element after element.
    pub(crate) words: Vec<Word>,
    /// Every string value, in the order they were written.
    pub(crate) strings: Vec<Box<str>>,
}

impl PropColumn {
    /// The id of the shape of `keys` with `kinds`, numbering it when new.
    ///
    /// # Panics
    ///
    /// When `keys` is not strictly ascending or `kinds` does not give one
    /// kind per key.
    pub(crate) fn shape(
        &mut self,
        keys: &[&'static str],
        kinds: impl ExactSizeIterator<Item = Kind> + Clone,
    ) -> u32 {
        assert_eq!(keys.len(), kinds.len(), "one kind per shape key");
        if keys.is_empty() {
            return 0;
        }
        let shapes = &self.shapes;
        let same = |id: u32| shapes[id as usize - 1].1.iter().copied().eq(kinds.clone());
        if let Some(&id) = self
            .ids
            .get(keys)
            .and_then(|ids| ids.iter().find(|&&id| same(id)))
        {
            return id;
        }
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "shape keys must be strictly ascending: {keys:?}"
        );
        self.shapes.push((keys.into(), kinds.collect()));
        let id = u32::try_from(self.shapes.len()).expect("under 2^32 shapes");
        self.ids.entry(keys.into()).or_default().push(id);
        id
    }

    /// Shape `shape`; `None` for an id this column never issued.
    pub(crate) fn shape_of(&self, shape: u32) -> Option<Shape<'_>> {
        match shape {
            0 => Some(Shape::default()),
            s => self
                .shapes
                .get(s as usize - 1)
                .map(|(keys, kinds)| Shape { keys, kinds }),
        }
    }

    /// The properties in `slot`.
    ///
    /// # Panics
    ///
    /// When `slot` is not from this column; [`crate::Graph::validate`]
    /// checks every slot of a loaded graph.
    pub(crate) fn props(&self, slot: PropSlot) -> Props<'_> {
        let shape = self.shape_of(slot.shape).expect("slot shape is in range");
        let start = slot.start as usize;
        Props {
            shape,
            words: &self.words[start..start + shape.keys.len()],
            strings: &self.strings,
        }
    }

    /// Whether `slot`'s shape is in range, its words fit the column and
    /// each of its string words indexes the string table.
    pub(crate) fn holds(&self, slot: PropSlot) -> bool {
        let Some(shape) = self.shape_of(slot.shape) else {
            return false;
        };
        let start = slot.start as usize;
        self.words
            .get(start..start + shape.kinds.len())
            .is_some_and(|words| {
                words
                    .iter()
                    .zip(shape.kinds)
                    .all(|(&word, &kind)| kind != Kind::Str || (word as usize) < self.strings.len())
            })
    }

    /// Append a copy of an owned list.
    pub(crate) fn push(&mut self, props: &Properties) -> PropSlot {
        let values = props.values.iter().map(PropValue::as_value);
        let shape = self.shape(&props.keys, values.clone().map(Value::kind));
        PropSlot::new(shape, self.append(values))
    }

    /// Append a copy of `from`'s `slot`; `shapes` maps `from`'s shape ids
    /// to this column's, filled as shapes are first seen. Words are copied
    /// and strings stored again in this column's table.
    pub(crate) fn copy(
        &mut self,
        from: &PropColumn,
        slot: PropSlot,
        shapes: &mut [Option<u32>],
    ) -> PropSlot {
        let props = from.props(slot);
        let Shape { keys, kinds } = props.shape;
        let shape = *shapes[slot.shape as usize]
            .get_or_insert_with(|| self.shape(keys, kinds.iter().copied()));
        PropSlot::new(shape, self.append(props.iter().map(|(_, value)| value)))
    }

    /// Append the words of `values`; the index of the first.
    fn append<'v>(&mut self, values: impl Iterator<Item = Value<'v>>) -> usize {
        let start = self.words.len();
        for value in values {
            let word = value.word(|s| self.string(s));
            self.words.push(word);
        }
        start
    }

    /// Make room for exactly the words and strings of `from`'s `slots`.
    pub(crate) fn reserve_exact(
        &mut self,
        from: &PropColumn,
        slots: impl Iterator<Item = PropSlot>,
    ) {
        let (mut words, mut strings) = (0, 0);
        for slot in slots {
            let kinds = from.props(slot).shape.kinds;
            words += kinds.len();
            strings += kinds.iter().filter(|&&kind| kind == Kind::Str).count();
        }
        self.words.reserve_exact(words);
        self.strings.reserve_exact(strings);
    }

    /// Store a string value; its index in the string table.
    pub(crate) fn string(&mut self, s: &str) -> usize {
        self.strings.push(s.into());
        self.strings.len() - 1
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
        // Each column is an exactly sized arena of one-word values, and an
        // element holds an eight-byte slot into it.
        assert_eq!(std::mem::size_of::<Word>(), 8);
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

    /// Whether `got` is `want`, floats compared by their bits.
    fn same_bits(got: Value<'_>, want: &PropValue) -> bool {
        match (got, want) {
            (Value::Float(x), PropValue::Float(y)) => x.to_bits() == y.to_bits(),
            (got, want) => got == want.as_value(),
        }
    }

    #[test]
    fn edge_bit_patterns_round_trip() {
        let long = "x".repeat(usize::from(u16::MAX));
        let props: Properties = [
            ("neg_zero", PropValue::Float(-0.0)),
            (
                "nan",
                PropValue::Float(f64::from_bits(0x7ff8_0000_dead_beef)),
            ),
            ("subnormal", PropValue::Float(f64::from_bits(1))),
            ("inf", PropValue::Float(f64::INFINITY)),
            ("neg_inf", PropValue::Float(f64::NEG_INFINITY)),
            ("min", PropValue::Int(i64::MIN)),
            ("max", PropValue::Int(i64::MAX)),
            ("empty", PropValue::from("")),
            ("long", PropValue::from(long.as_str())),
            ("yes", PropValue::Bool(true)),
            ("no", PropValue::Bool(false)),
        ]
        .into_iter()
        .collect();
        let mut g = crate::Graph::new();
        let v = g.add_vertex_with_props("dog", props.clone());
        let e = g.add_edge_with_props(v, v, "near", props.clone()).unwrap();
        let loaded = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        for g in [&g, &loaded] {
            for read in [g.vertex_props(v), g.edge_props(e)] {
                assert_eq!(read.len(), props.len());
                for ((key, got), (want_key, want)) in read.iter().zip(props.iter()) {
                    assert_eq!(key, want_key);
                    assert!(same_bits(got, want), "{key}: {got:?} against {want:?}");
                    assert!(read.get(key).is_some_and(|again| same_bits(again, want)));
                }
            }
            assert_eq!(
                g.edge_props(e)
                    .get("long")
                    .and_then(Value::as_str)
                    .map(str::len),
                Some(usize::from(u16::MAX))
            );
        }
        assert_eq!(loaded.edge_column.strings.len(), 2);
        assert_eq!(loaded.edge_column.strings.capacity(), 2);
    }

    #[test]
    fn one_key_list_under_two_kinds_is_two_shapes() {
        let int: Properties = [("score", 3i64)].into_iter().collect();
        let float: Properties = [("score", 0.5)].into_iter().collect();
        let mut g = crate::Graph::new();
        let a = g.add_vertex("a");
        let edges =
            [&int, &float, &int].map(|p| g.add_edge_with_props(a, a, "x", p.clone()).unwrap());
        let shape = |g: &crate::Graph, e: crate::EdgeId| g.edges[e.index()].props.shape;
        assert_eq!(g.edge_column.shape_count(), 3);
        assert_eq!(shape(&g, edges[0]), shape(&g, edges[2]));
        assert_ne!(shape(&g, edges[0]), shape(&g, edges[1]));

        let loaded = crate::binio::from_bytes(crate::binio::to_bytes(&g).unwrap()).unwrap();
        let mut absorbed = crate::Graph::new();
        absorbed.absorb(&g);
        for g in [&g, &loaded, &absorbed] {
            let score = |i: usize| g.edge_props(edges[i]).get("score");
            assert_eq!(score(0), Some(Value::Int(3)));
            assert_eq!(score(1), Some(Value::Float(0.5)));
            assert_eq!(score(2), Some(Value::Int(3)));
            assert_eq!(g.edge_column.shape_count(), 3);
            assert_eq!(g.edge_props(edges[1]).shape().kinds, [Kind::Float]);
        }
    }
}

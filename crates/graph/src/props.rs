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
//! start. [`Value`] is the one form a value takes on either side: a caller
//! hands a graph a [`Shape`] and one `Value` per key
//! ([`crate::Graph::add_vertex_with_props`],
//! [`crate::GraphWindow::push_vertex`]), and [`Props`], the borrowed view a
//! graph hands out ([`crate::Graph::vertex_props`]), reads each word back
//! as a `Value`.
//!
//! Keys are `&'static str`: the fixed keys the pipeline writes ([`IMAGE`],
//! `"x"`, …, `"score"`) are string literals used as they are, and a key
//! that arrives at run time, from a [`crate::binio`] load, is interned once
//! per process.

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

/// A property value, as a caller hands it to a graph and as a graph's
/// column hands it back: there a string is a slice of the column's string
/// table, every other value a copy.
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

/// `values`, checked against `kinds` as they are read: one value per kind,
/// each of that kind. Every write into a property column reads its values
/// through this.
///
/// # Panics
///
/// While reading, at the first value that is missing, of another kind, or
/// left over after the last kind.
pub(crate) fn checked<'k, 'v, I: IntoIterator<Item = Value<'v>>>(
    kinds: &'k [Kind],
    values: I,
) -> impl Iterator<Item = Value<'v>> + use<'k, 'v, I> {
    let mut values = values.into_iter();
    let mut kinds = kinds.iter();
    std::iter::from_fn(move || match kinds.next() {
        Some(&kind) => {
            let value = values.next().expect("one value per shape key");
            assert!(
                value.kind() == kind,
                "a value of kind {:?} where the shape holds {kind:?}",
                value.kind()
            );
            Some(value)
        }
        None => {
            assert!(values.next().is_none(), "one value per shape key");
            None
        }
    })
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

    /// Append one element's `values` under `shape`, interning the shape;
    /// the element's slot.
    ///
    /// # Panics
    ///
    /// When `shape`'s keys are not strictly ascending or its kinds are not
    /// one per key, or `values` does not give one value of each kind, in
    /// key order.
    pub(crate) fn append<'v>(
        &mut self,
        shape: Shape<'_>,
        values: impl IntoIterator<Item = Value<'v>>,
    ) -> PropSlot {
        let id = self.shape(shape.keys, shape.kinds.iter().copied());
        self.append_to(id, shape.kinds, values)
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
        self.append_to(shape, kinds, props.iter().map(|(_, value)| value))
    }

    /// Append the words of `values` under shape `id`, whose kinds are
    /// `kinds`, checked as [`checked`] does; the element's slot.
    fn append_to<'v>(
        &mut self,
        id: u32,
        kinds: &[Kind],
        values: impl IntoIterator<Item = Value<'v>>,
    ) -> PropSlot {
        let start = self.words.len();
        for value in checked(kinds, values) {
            let word = value.word(|s| self.string(s));
            self.words.push(word);
        }
        PropSlot::new(id, start)
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
    use crate::{binio, Graph, VertexId};

    #[test]
    fn float_widening() {
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Str("x").as_float(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Str("dog").to_string(), "dog");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    const SCORE: Shape<'static> = Shape {
        keys: &["score"],
        kinds: &[Kind::Float],
    };

    #[test]
    fn loaded_maps_are_sized_to_their_entries() {
        // Each column is an exactly sized arena of one-word values, and an
        // element holds an eight-byte slot into it.
        assert_eq!(std::mem::size_of::<Word>(), 8);
        assert_eq!(std::mem::size_of::<PropSlot>(), 8);
        let mut g = Graph::new();
        let bbox = [Value::Float(0.3), Value::Float(0.1), Value::Float(0.2)];
        let shape = Shape {
            keys: &["w", "x", "y"],
            kinds: &[Kind::Float; 3],
        };
        let dog = g.add_vertex_with_props("dog", shape, bbox);
        let man = g.add_vertex("man");
        let score = [Value::Float(0.5)];
        let near = g
            .add_edge_with_props(dog, man, "near", SCORE, score)
            .unwrap();

        let loaded = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
        let holds = |props: Props<'_>, want: &[Value<'_>]| {
            props.iter().map(|(_, v)| v).eq(want.iter().copied())
        };
        assert!(holds(loaded.vertex_props(dog), &bbox));
        assert!(loaded.vertex_props(man).is_empty());
        assert!(holds(loaded.edge_props(near), &score));
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
        let key: &'static str = format!("{}_{}", "tag", 9).leak();
        assert!(std::ptr::eq(intern(key), intern("tag_9")));

        // A key loaded twice from a snapshot is the same one string.
        let mut g = Graph::new();
        let shape = Shape {
            keys: &[key],
            kinds: &[Kind::Int],
        };
        g.add_vertex_with_props("dog", shape, [Value::Int(1)]);
        let bytes = binio::to_bytes(&g).unwrap();
        let [first, second] = [0, 1].map(|_| binio::from_bytes(bytes.clone()).unwrap());
        let loaded = |g: &Graph| g.vertex_props(VertexId::from_index(0)).shape().keys[0];
        assert_eq!(loaded(&first), "tag_9");
        assert!(std::ptr::eq(loaded(&first), loaded(&second)));
        assert!(std::ptr::eq(loaded(&first), intern("tag_9")));
    }

    #[test]
    fn static_and_runtime_keys_serialize_alike() {
        let snapshot = |keys: &[&'static str]| {
            let shape = Shape {
                keys,
                kinds: &[Kind::Float, Kind::Str],
            };
            let mut g = Graph::new();
            g.add_vertex_with_props("dog", shape, [Value::Float(0.5), Value::Str("lake")]);
            binio::to_bytes(&g).unwrap()
        };
        let runtime = |key: &str| -> &'static str { key.to_owned().leak() };
        let bytes = snapshot(&["score", "source"]);
        assert_eq!(bytes, snapshot(&[runtime("score"), "source"]));
        assert_eq!(bytes, snapshot(&["score", runtime("source")]));
        let back = binio::from_bytes(bytes).unwrap();
        assert_eq!(
            back.vertex_props(VertexId::from_index(0))
                .iter()
                .collect::<Vec<_>>(),
            [("score", Value::Float(0.5)), ("source", Value::Str("lake"))]
        );
    }

    /// Whether `got` is `want`, floats compared by their bits.
    fn same_bits(got: Value<'_>, want: Value<'_>) -> bool {
        match (got, want) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (got, want) => got == want,
        }
    }

    #[test]
    fn edge_bit_patterns_round_trip() {
        let long = "x".repeat(usize::from(u16::MAX));
        let props = [
            ("empty", Value::Str("")),
            ("inf", Value::Float(f64::INFINITY)),
            ("long", Value::Str(&long)),
            ("max", Value::Int(i64::MAX)),
            ("min", Value::Int(i64::MIN)),
            ("nan", Value::Float(f64::from_bits(0x7ff8_0000_dead_beef))),
            ("neg_inf", Value::Float(f64::NEG_INFINITY)),
            ("neg_zero", Value::Float(-0.0)),
            ("no", Value::Bool(false)),
            ("subnormal", Value::Float(f64::from_bits(1))),
            ("yes", Value::Bool(true)),
        ];
        let keys = props.map(|(key, _)| key);
        let kinds = props.map(|(_, value)| value.kind());
        let shape = Shape {
            keys: &keys,
            kinds: &kinds,
        };
        let values = props.map(|(_, value)| value);
        let mut g = Graph::new();
        let v = g.add_vertex_with_props("dog", shape, values);
        let e = g.add_edge_with_props(v, v, "near", shape, values).unwrap();
        let loaded = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
        for g in [&g, &loaded] {
            for read in [g.vertex_props(v), g.edge_props(e)] {
                assert_eq!(read.len(), props.len());
                for ((key, got), (want_key, want)) in read.iter().zip(props) {
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
        let int_score = Shape {
            kinds: &[Kind::Int],
            ..SCORE
        };
        let (int, float) = ((int_score, Value::Int(3)), (SCORE, Value::Float(0.5)));
        let mut g = Graph::new();
        let a = g.add_vertex("a");
        let edges = [int, float, int]
            .map(|(shape, value)| g.add_edge_with_props(a, a, "x", shape, [value]).unwrap());
        let shape = |g: &Graph, e: crate::EdgeId| g.edges[e.index()].props.shape;
        assert_eq!(g.edge_column.shape_count(), 3);
        assert_eq!(shape(&g, edges[0]), shape(&g, edges[2]));
        assert_ne!(shape(&g, edges[0]), shape(&g, edges[1]));

        let loaded = binio::from_bytes(binio::to_bytes(&g).unwrap()).unwrap();
        let mut absorbed = Graph::new();
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

//! Property storage for vertices and edges.
//!
//! A per-image scene graph's vertices carry their bounding box and image
//! id, and its edges their predicate's score. The merged graph `G_mg`
//! keeps only what the query path reads: a scene vertex carries its image
//! id alone ([`IMAGE_SHAPE`], read through [`scene_image`]), and
//! knowledge-graph vertices and every edge carry nothing. Every value the
//! program writes is a number, so a value is an integer or a float. An
//! element's properties are a small key-sorted list (≤ 8 entries), and
//! almost every element of a graph repeats one of a few key lists.
//!
//! So a graph does not store a list per element. It keeps one
//! `PropColumn` for its vertices and one for its edges. A column interns
//! each distinct [`Shape`] once: a sorted key list together with the
//! [`Kind`] of each key's value, so one key list under two kinds is two
//! shapes (shape 0 is the empty list). Every element's values sit, in key
//! order, in one exactly sized arena of 8-byte words, each an integer's or
//! a float's bits. The kinds are stored once per shape, not once per
//! value. An element stores nothing of its properties: the column keeps a
//! run table, one 12-byte entry per maximal stretch of consecutive elements
//! sharing a shape (its first element, its shape and its first word), and
//! finds element `i`'s words by a binary search of that table. A merged
//! graph holds a handful of such stretches, against thousands of elements.
//! [`Value`] is the one form a value takes on either side: a caller hands
//! a graph a [`Shape`] and one `Value` per key
//! ([`crate::Graph::add_vertex_with_props`]), and [`Props`], the borrowed
//! view a graph hands out ([`crate::Graph::vertex_props`]), reads each word
//! back as a `Value`.
//!
//! Keys are `&'static str`: the fixed keys the pipeline writes ([`IMAGE`],
//! `"x"`, …, `"score"`) are string literals used as they are, and a key
//! that arrives at run time, from a [`crate::binio`] load, is interned once
//! per process.

use crate::{Graph, VertexId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Mutex;

/// The vertex property holding the id of the image a scene-graph vertex
/// was detected in. Knowledge-graph vertices have none.
pub const IMAGE: &str = "image";

/// The shape of a scene vertex's properties in the merged graph: its
/// [`IMAGE`] id, as an integer, and nothing else.
pub const IMAGE_SHAPE: Shape<'static> = Shape {
    keys: &[IMAGE],
    kinds: &[Kind::Int],
};

/// The id of the image vertex `v` of `graph` was detected in: `Some` for a
/// scene vertex, `None` for a knowledge-graph vertex or a foreign id. The
/// one place that knows how a vertex's image is stored.
pub fn scene_image(graph: &Graph, v: VertexId) -> Option<i64> {
    graph.vertex_props(v).get(IMAGE).and_then(Value::as_int)
}

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
    /// An `i64`'s bits.
    Int,
    /// An `f64`'s bits.
    Float,
}

impl Kind {
    /// The value `word` holds.
    pub(crate) fn read(self, word: Word) -> Value {
        match self {
            Kind::Int => Value::Int(word as i64),
            Kind::Float => Value::Float(f64::from_bits(word)),
        }
    }
}

/// One property value in a column: see [`Kind`] for what it holds.
pub(crate) type Word = u64;

/// A property value, as a caller hands it to a graph and as a graph's
/// column hands it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Signed integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
}

impl Value {
    /// The integer payload, if this is a [`Value::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Float(_) => None,
        }
    }

    /// The float payload, if this is a [`Value::Float`].
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(f),
            Value::Int(_) => None,
        }
    }

    /// What kind of value this is.
    pub fn kind(self) -> Kind {
        match self {
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
        }
    }

    /// The value's word.
    pub(crate) fn word(self) -> Word {
        match self {
            Value::Int(i) => i as Word,
            Value::Float(f) => f.to_bits(),
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

/// Hashes the keys alone: shapes that differ only in kinds are rare, and
/// share a bucket.
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
    pub fn get(&self, key: &str) -> Option<Value> {
        let pos = self.shape.keys.binary_search(&key).ok()?;
        Some(self.value(pos))
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value)> + 'g {
        let props = *self;
        (0..self.len()).map(move |pos| (props.shape.keys[pos], props.value(pos)))
    }

    /// The keys and their values' kinds: the element's shape.
    pub fn shape(&self) -> Shape<'g> {
        self.shape
    }

    /// The value at `pos` in key order.
    fn value(&self, pos: usize) -> Value {
        self.shape.kinds[pos].read(self.words[pos])
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

/// One maximal stretch of consecutive elements of a [`PropColumn`] that
/// share a shape: its first element, the shape, and the index of the first
/// element's first word. The stretch's elements' words follow one another,
/// the shape's key count of them per element. Twelve bytes, with no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) first: u32,
    pub(crate) shape: u32,
    pub(crate) start: u32,
}

impl Run {
    pub(crate) fn new(first: usize, shape: u32, start: usize) -> Self {
        Run {
            first: u32::try_from(first).expect("a column holds under 2^32 elements"),
            shape,
            start: u32::try_from(start).expect("a column holds under 2^32 values"),
        }
    }
}

/// Append `run` to `runs`, or fold it into the last run when that has the
/// same shape: the one way a run table grows, so every table stays
/// minimal.
pub(crate) fn push_run(runs: &mut Vec<Run>, run: Run) {
    if runs.last().is_none_or(|last| last.shape != run.shape) {
        runs.push(run);
    }
}

/// How many runs `runs` leave once [`push_run`] folds each into its
/// predecessor of the same shape.
pub(crate) fn folded_len<'r>(runs: impl IntoIterator<Item = &'r Run>) -> usize {
    let mut last = None;
    runs.into_iter()
        .filter(|run| last.replace(run.shape) != Some(run.shape))
        .count()
}

/// An interned shape: its keys and their kinds.
type ShapeBox = (Box<[&'static str]>, Box<[Kind]>);

/// One kind of element's properties in one graph: the interned shapes, one
/// word arena that every element's values are a run of, and the run table
/// that says which shape each element has and where its words start.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropColumn {
    /// Shape `s > 0` is `shapes[s - 1]`: a strictly ascending key list and
    /// one kind per key. Shape 0, the empty list, is implicit.
    shapes: Vec<ShapeBox>,
    /// Key list → the ids of the shapes with those keys, one per distinct
    /// kind list, for every non-empty key list.
    ids: HashMap<Box<[&'static str]>, Vec<u32>>,
    /// One entry per maximal stretch of elements sharing a shape, in
    /// element order; the first starts at element 0.
    pub(crate) runs: Vec<Run>,
    /// Every element's values, element after element.
    pub(crate) words: Vec<Word>,
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

    /// The number of words an element of shape `shape` takes.
    fn width(&self, shape: u32) -> usize {
        self.shape_of(shape).map_or(0, |s| s.keys.len())
    }

    /// The properties of element `element`: the last run starting at or
    /// before it names the shape, and its words follow the run's earlier
    /// elements'.
    ///
    /// # Panics
    ///
    /// When no run covers `element`; [`crate::Graph::validate`] checks the
    /// run table of a loaded graph.
    pub(crate) fn props(&self, element: usize) -> Props<'_> {
        let at = self
            .runs
            .partition_point(|run| run.first as usize <= element);
        let run = self.runs[at.checked_sub(1).expect("a run covers every element")];
        self.props_at(
            run.shape,
            run.start as usize + (element - run.first as usize) * self.width(run.shape),
        )
    }

    /// The properties of shape `shape` whose words start at `start`.
    fn props_at(&self, shape: u32, start: usize) -> Props<'_> {
        let shape = self.shape_of(shape).expect("run shape is in range");
        Props {
            shape,
            words: &self.words[start..start + shape.keys.len()],
        }
    }

    /// The column's runs over its first `len` elements: each one's element
    /// range, shape id and first word.
    pub(crate) fn run_ranges(
        &self,
        len: usize,
    ) -> impl Iterator<Item = (Range<usize>, u32, usize)> + '_ {
        let ends = self.runs.iter().skip(1).map(|run| run.first as usize);
        self.runs
            .iter()
            .zip(ends.chain([len]))
            .map(|(run, end)| (run.first as usize..end, run.shape, run.start as usize))
    }

    /// Each of the first `len` elements' shape id and first word, in
    /// element order: one walk of the run table, no search per element.
    pub(crate) fn slots(&self, len: usize) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.run_ranges(len).flat_map(|(elements, shape, start)| {
            let width = self.width(shape);
            (0..elements.len()).map(move |i| (shape, start + i * width))
        })
    }

    /// Check the run table against `len` elements, as
    /// [`crate::Graph::validate`] does: the first run starts at element 0,
    /// first elements strictly ascend below `len`, every shape is in range
    /// and differs from the previous run's, each run's words start where
    /// the previous run's end, and the last run ends exactly at the end of
    /// the words. The error names the run at fault.
    pub(crate) fn check(&self, len: usize) -> Result<(), String> {
        if len > 0 && self.runs.is_empty() {
            return Err("no run starts at element 0".to_owned());
        }
        let mut words = 0;
        for (r, run) in self.runs.iter().enumerate() {
            let first = run.first as usize;
            if r == 0 && first != 0 {
                return Err(format!("run 0 starts at element {first}, not 0"));
            }
            let end = match self.runs.get(r + 1) {
                Some(next) if next.first <= run.first => {
                    return Err(format!("run {} does not start after run {r}", r + 1))
                }
                Some(next) => next.first as usize,
                None if first >= len => {
                    return Err(format!("run {r} starts at element {first}, past {len}"))
                }
                None => len,
            };
            if r > 0 && self.runs[r - 1].shape == run.shape {
                return Err(format!("runs {} and {r} share shape {}", r - 1, run.shape));
            }
            let Some(shape) = self.shape_of(run.shape) else {
                return Err(format!("run {r} has shape {} out of range", run.shape));
            };
            if run.start as usize != words {
                return Err(format!(
                    "run {r} starts at word {}, not at {words}",
                    run.start
                ));
            }
            words += (end - first) * shape.kinds.len();
        }
        if words != self.words.len() {
            return Err(format!(
                "runs end at word {words}, not at {}",
                self.words.len()
            ));
        }
        Ok(())
    }

    /// Append element `element`'s `values` under `shape`, interning the
    /// shape. `element` is the column's element count: elements are
    /// appended in order.
    ///
    /// # Panics
    ///
    /// When `shape`'s keys are not strictly ascending or its kinds are not
    /// one per key, or `values` does not give one value of each kind, in
    /// key order.
    pub(crate) fn append(
        &mut self,
        element: usize,
        shape: Shape<'_>,
        values: impl IntoIterator<Item = Value>,
    ) {
        let id = self.shape(shape.keys, shape.kinds.iter().copied());
        push_run(&mut self.runs, Run::new(element, id, self.words.len()));
        let mut values = values.into_iter();
        for &kind in shape.kinds {
            let value = values.next().expect("one value per shape key");
            assert!(
                value.kind() == kind,
                "a value of kind {:?} where the shape holds {kind:?}",
                value.kind()
            );
            self.words.push(value.word());
        }
        assert!(values.next().is_none(), "one value per shape key");
    }

    /// Append, as element `element`, a copy of `from`'s properties of
    /// shape `shape` whose words start at `start`; `shapes` maps `from`'s
    /// shape ids to this column's, filled as shapes are first seen.
    pub(crate) fn copy(
        &mut self,
        element: usize,
        from: &PropColumn,
        (shape, start): (u32, usize),
        shapes: &mut [Option<u32>],
    ) {
        let Shape { keys, kinds } = from.shape_of(shape).expect("run shape is in range");
        let id =
            *shapes[shape as usize].get_or_insert_with(|| self.shape(keys, kinds.iter().copied()));
        push_run(&mut self.runs, Run::new(element, id, self.words.len()));
        self.words
            .extend_from_slice(&from.words[start..start + keys.len()]);
    }

    /// Make room for exactly the words of `from`'s elements at `slots`
    /// (shape id and first word each, in element order), and for one run
    /// per stretch of them sharing a shape.
    pub(crate) fn reserve_exact(
        &mut self,
        from: &PropColumn,
        slots: impl Iterator<Item = (u32, usize)>,
    ) {
        let (mut words, mut runs) = (0, 0);
        let mut last = None;
        for (shape, _) in slots {
            words += from.width(shape);
            runs += usize::from(last.replace(shape) != Some(shape));
        }
        self.words.reserve_exact(words);
        self.runs.reserve_exact(runs);
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
        // No widening: each accessor reads its own kind only.
        assert_eq!(Value::Int(7).as_float(), None);
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(7.0).as_int(), None);
    }

    const SCORE: Shape<'static> = Shape {
        keys: &["score"],
        kinds: &[Kind::Float],
    };

    #[test]
    fn loaded_maps_are_sized_to_their_entries() {
        // Each column is an exactly sized arena of one-word values, and its
        // run table holds a 12-byte entry per stretch of one shape.
        assert_eq!(std::mem::size_of::<Word>(), 8);
        assert_eq!(std::mem::size_of::<Run>(), 12);
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
        let holds = |props: Props<'_>, want: &[Value]| {
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
                kinds: &[Kind::Float, Kind::Int],
            };
            let mut g = Graph::new();
            g.add_vertex_with_props("dog", shape, [Value::Float(0.5), Value::Int(-7)]);
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
            [("score", Value::Float(0.5)), ("source", Value::Int(-7))]
        );
    }

    /// Whether `got` is `want`, floats compared by their bits.
    fn same_bits(got: Value, want: Value) -> bool {
        match (got, want) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (got, want) => got == want,
        }
    }

    #[test]
    fn edge_bit_patterns_round_trip() {
        let props = [
            ("inf", Value::Float(f64::INFINITY)),
            ("max", Value::Int(i64::MAX)),
            ("min", Value::Int(i64::MIN)),
            ("nan", Value::Float(f64::from_bits(0x7ff8_0000_dead_beef))),
            ("neg_inf", Value::Float(f64::NEG_INFINITY)),
            ("neg_one", Value::Int(-1)),
            ("neg_zero", Value::Float(-0.0)),
            ("subnormal", Value::Float(f64::from_bits(1))),
            ("zero", Value::Int(0)),
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
        }
        for column in loaded.value_columns() {
            assert_eq!((column.len, column.capacity), (props.len(), props.len()));
        }
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
        // Each edge is a run of its own, of its own shape id.
        let shapes: Vec<u32> = g.edge_column.runs.iter().map(|run| run.shape).collect();
        assert_eq!(g.edge_column.shape_count(), 3);
        assert_eq!(shapes.len(), 3);
        assert_eq!(shapes[0], shapes[2]);
        assert_ne!(shapes[0], shapes[1]);

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

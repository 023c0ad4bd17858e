//! Name → index tables over the fixed vocabularies ([`crate::scene::CATEGORIES`],
//! [`crate::relation::RELATION_VOCAB`]), so the per-object and
//! per-relation lookups of scene-graph generation and the prior fit are
//! one hash of a short string instead of a scan of string comparisons.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a: a few multiply-xors per byte, which beats SipHash on the short
/// category and predicate names these tables hold. The names are fixed
/// program constants, so hash flooding is not a concern.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The index of each name in a fixed list; a name listed twice keeps its
/// first index, as a linear `position` scan would find it.
#[derive(Debug)]
pub(crate) struct NameTable(HashMap<&'static str, usize, BuildHasherDefault<Fnv1a>>);

impl NameTable {
    pub(crate) fn new(names: impl IntoIterator<Item = &'static str>) -> Self {
        let mut table = HashMap::default();
        for (i, name) in names.into_iter().enumerate() {
            table.entry(name).or_insert(i);
        }
        NameTable(table)
    }

    /// The first index of `name`, if listed.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_first_index_of_each_name() {
        let names = ["on", "near", "on", "in front of", ""];
        let table = NameTable::new(names);
        for name in names {
            assert_eq!(table.get(name), names.iter().position(|&n| n == name));
        }
        assert_eq!(table.get("under"), None);
        assert_eq!(table.get("o"), None);
    }
}

//! Key-centric caching (§V-B).
//!
//! Two item kinds, named as in the paper:
//! * **scope** — the result of `matchVertex` (+ semantic expansion) for a
//!   noun phrase: "matchVertex requires to compare with all the labels of
//!   V_mg to obtain the corresponding vertex set Sub and Obj, and we named
//!   it as 'scope'";
//! * **path** — the relation pairs `RP` between two scopes: "getRelationpairs
//!   needs to traverse all neighbors … so that all relation pairs RP are
//!   returned, and we named it as 'path'".
//!
//! The pool is bounded by a total *item count* (Fig. 11 sizes pools this
//! way) shared across both kinds, with LFU (the paper's choice) or LRU
//! eviction over every cached item. An item's kind is named by what it
//! holds: [`VertexId`]s for a scope, [`RelationPair`]s for a path, so one
//! [`get`](KeyCentricCache::get) and one [`put`](KeyCentricCache::put)
//! serve both.

use crate::matching::RelationPair;
use parking_lot::Mutex;
use pool::{Item, Pools};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use svqa_graph::VertexId;
pub use svqa_telemetry::CacheStats;

/// Eviction policy for the bounded pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least-frequently-used (the paper's default).
    Lfu,
    /// Least-recently-used (the Fig. 11 comparison point).
    Lru,
}

/// Which item kinds are cached — the Fig. 10(b) ablation axis
/// (No / Scope / Path / Both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheGranularity {
    /// Caching disabled.
    None,
    /// Only scope items.
    Scope,
    /// Only path items.
    Path,
    /// Both (the paper's full mechanism).
    Both,
}

/// The bounded pools behind the cache's lock. Private: the cache's
/// methods are the only way in.
mod pool {
    use super::{CacheGranularity, CacheStats, EvictionPolicy, RelationPair, VertexId};
    use std::collections::HashMap;
    use std::sync::Arc;

    #[derive(Debug)]
    struct Entry<V> {
        value: Arc<Vec<V>>,
        freq: u64,
        last_used: u64,
    }

    impl<V> Entry<V> {
        /// The eviction order under `policy`: the smallest rank goes first.
        /// Every get and put stamps its entry with a fresh tick, so no two
        /// entries share a rank.
        fn rank(&self, policy: EvictionPolicy) -> (u64, u64) {
            match policy {
                EvictionPolicy::Lfu => (self.freq, self.last_used),
                EvictionPolicy::Lru => (self.last_used, self.freq),
            }
        }
    }

    /// One item kind's bounded key-value store.
    #[derive(Debug)]
    pub struct Pool<V> {
        map: HashMap<String, Entry<V>>,
    }

    impl<V> Default for Pool<V> {
        fn default() -> Self {
            Pool {
                map: HashMap::new(),
            }
        }
    }

    impl<V> Pool<V> {
        /// The rank and key of the entry `policy` would evict first.
        fn victim(&self, policy: EvictionPolicy) -> Option<((u64, u64), String)> {
            self.map
                .iter()
                .min_by_key(|(_, e)| e.rank(policy))
                .map(|(k, e)| (e.rank(policy), k.clone()))
        }

        fn value_bytes(&self) -> usize {
            self.map
                .values()
                .map(|e| e.value.len() * std::mem::size_of::<V>())
                .sum()
        }
    }

    /// A cacheable item kind, named by its element type. Sealed: only
    /// [`VertexId`] (scope) and [`RelationPair`] (path) implement it.
    pub trait Item: Sized {
        /// This kind's pool.
        fn pool(pools: &mut Pools) -> &mut Pool<Self>;
        /// Whether `granularity` caches this kind.
        fn cached_under(granularity: CacheGranularity) -> bool;
        /// Count one lookup of this kind into `stats`.
        fn count(stats: &mut CacheStats, hit: bool);
    }

    impl Item for VertexId {
        fn pool(pools: &mut Pools) -> &mut Pool<Self> {
            &mut pools.scope
        }

        fn cached_under(granularity: CacheGranularity) -> bool {
            matches!(
                granularity,
                CacheGranularity::Scope | CacheGranularity::Both
            )
        }

        fn count(stats: &mut CacheStats, hit: bool) {
            *if hit {
                &mut stats.scope_hits
            } else {
                &mut stats.scope_misses
            } += 1;
        }
    }

    impl Item for RelationPair {
        fn pool(pools: &mut Pools) -> &mut Pool<Self> {
            &mut pools.path
        }

        fn cached_under(granularity: CacheGranularity) -> bool {
            matches!(granularity, CacheGranularity::Path | CacheGranularity::Both)
        }

        fn count(stats: &mut CacheStats, hit: bool) {
            *if hit {
                &mut stats.path_hits
            } else {
                &mut stats.path_misses
            } += 1;
        }
    }

    /// Both pools, the tick clock they share, and the lifetime counters.
    #[derive(Debug, Default)]
    pub struct Pools {
        scope: Pool<VertexId>,
        path: Pool<RelationPair>,
        tick: u64,
        /// Every counted lookup since construction.
        pub stats: CacheStats,
    }

    impl Pools {
        fn tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        /// Look `key` up: a hit counts as one use of the entry.
        pub fn get<V: Item>(&mut self, key: &str) -> Option<Arc<Vec<V>>> {
            let tick = self.tick();
            let e = V::pool(self).map.get_mut(key)?;
            e.freq += 1;
            e.last_used = tick;
            Some(Arc::clone(&e.value))
        }

        /// Store `value` under `key` in a pool of `budget > 0` items.
        /// Overwriting an existing key updates the value in place —
        /// preserving its LFU frequency history and evicting nothing, since
        /// the pool does not grow.
        pub fn put<V: Item>(
            &mut self,
            key: &str,
            value: Arc<Vec<V>>,
            policy: EvictionPolicy,
            budget: usize,
        ) {
            let tick = self.tick();
            if let Some(e) = V::pool(self).map.get_mut(key) {
                e.value = value;
                e.last_used = tick;
                return;
            }
            while self.len() >= budget {
                self.evict(policy);
            }
            let entry = Entry {
                value,
                freq: 1,
                last_used: tick,
            };
            V::pool(self).map.insert(key.to_owned(), entry);
        }

        /// Evict the entry with the smallest rank across both pools.
        fn evict(&mut self, policy: EvictionPolicy) {
            match (self.scope.victim(policy), self.path.victim(policy)) {
                (Some((s, key)), Some((p, _))) if s <= p => {
                    self.scope.map.remove(&key);
                }
                (Some((_, key)), None) => {
                    self.scope.map.remove(&key);
                }
                (_, Some((_, key))) => {
                    self.path.map.remove(&key);
                }
                (None, None) => {}
            }
        }

        /// The LFU frequency of `key`, without touching it.
        pub fn frequency<V: Item>(&mut self, key: &str) -> Option<u64> {
            V::pool(self).map.get(key).map(|e| e.freq)
        }

        pub fn len(&self) -> usize {
            self.scope.map.len() + self.path.map.len()
        }

        pub fn value_bytes(&self) -> usize {
            self.scope.value_bytes() + self.path.value_bytes()
        }
    }
}

/// The shared scope + path cache: one pool behind one lock, so a single
/// long-lived cache backs the query service and parallel scheduler
/// workers alike. Every method takes `&self`.
#[derive(Debug)]
pub struct KeyCentricCache {
    granularity: CacheGranularity,
    policy: EvictionPolicy,
    /// Total item budget across both kinds.
    pool_size: usize,
    pools: Mutex<Pools>,
}

/// Former name of [`KeyCentricCache`] from when it was split into
/// key-hashed shards; `svqabench` still names it.
pub type ShardedCache = KeyCentricCache;

impl KeyCentricCache {
    /// Build a cache of `pool_size` items.
    pub fn new(granularity: CacheGranularity, policy: EvictionPolicy, pool_size: usize) -> Self {
        KeyCentricCache {
            granularity,
            policy,
            pool_size,
            pools: Mutex::new(Pools::default()),
        }
    }

    /// Look up a scope (`V = VertexId`) or path (`V = RelationPair`) item —
    /// a cheap `Arc` clone, since the vertex sets over a 4,233-image merged
    /// graph run to tens of thousands of ids. The lookup counts into
    /// `tally` exactly when it moves the cache's own counters: a lookup the
    /// granularity skips, or a miss a fault forces, counts in neither. This
    /// attributes shared-cache traffic to one query exactly, however many
    /// queries run against the cache at once.
    pub fn get<V: Item>(&self, key: &str, tally: &mut CacheStats) -> Option<Arc<Vec<V>>> {
        if faulted(svqa_fault::site::CACHE_GET) || !V::cached_under(self.granularity) {
            return None;
        }
        let mut pools = self.pools.lock();
        let hit = pools.get(key);
        V::count(&mut pools.stats, hit.is_some());
        V::count(tally, hit.is_some());
        hit
    }

    /// Store a scope or path item. Overwriting an existing key keeps its
    /// LFU history and evicts nothing; a new key in a full pool evicts the
    /// policy's minimum over every cached item of either kind.
    pub fn put<V: Item>(&self, key: &str, value: Arc<Vec<V>>) {
        if faulted(svqa_fault::site::CACHE_PUT)
            || !V::cached_under(self.granularity)
            || self.pool_size == 0
        {
            return;
        }
        self.pools
            .lock()
            .put(key, value, self.policy, self.pool_size);
    }

    /// Items currently held (scope + path).
    pub fn len(&self) -> usize {
        self.pools.lock().len()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters for both kinds since construction.
    pub fn stats(&self) -> CacheStats {
        self.pools.lock().stats
    }

    /// Approximate heap bytes held by cached values (a scope item is a
    /// vertex-id vector; a path item a relation-pair vector — the paper
    /// reports ≈6 KB and ≈96 KB per item on MVQA).
    pub fn value_bytes(&self) -> usize {
        self.pools.lock().value_bytes()
    }

    /// The LFU frequency of a scope or path entry, without touching it
    /// (does not count as a use and does not bump hit/miss counters).
    /// `None` when the key is absent. Exposed so tests and cache
    /// introspection can verify eviction history survives overwrites.
    pub fn frequency<V: Item>(&self, key: &str) -> Option<u64> {
        self.pools.lock().frequency::<V>(key)
    }
}

/// Injection gate shared by the cache's get and put, drawn once per call
/// before the lock. Lookups and inserts are infallible, so `Error` and
/// `DropResult` both degrade to "the cache did nothing" (forced miss /
/// dropped insert); `Latency` stalls the caller; `CorruptLabel` has no
/// cache meaning and is inert.
fn faulted(site: &'static str) -> bool {
    match svqa_fault::draw(site) {
        Some(svqa_fault::FaultKind::Error | svqa_fault::FaultKind::DropResult) => true,
        Some(svqa_fault::FaultKind::Latency(ms)) => {
            svqa_fault::apply_latency(ms, None);
            false
        }
        Some(svqa_fault::FaultKind::CorruptLabel) | None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn scope(c: &KeyCentricCache, key: &str) -> Option<Arc<Vec<VertexId>>> {
        c.get(key, &mut CacheStats::new())
    }

    fn path(c: &KeyCentricCache, key: &str) -> Option<Arc<Vec<RelationPair>>> {
        c.get(key, &mut CacheStats::new())
    }

    fn no_pairs() -> Arc<Vec<RelationPair>> {
        Arc::new(Vec::new())
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = KeyCentricCache::new(CacheGranularity::None, EvictionPolicy::Lfu, 0);
        c.put("dog", Arc::new(vec![vid(1)]));
        c.put("dog|car", no_pairs());
        assert!(c.is_empty());
        let mut tally = CacheStats::new();
        assert_eq!(c.get::<VertexId>("dog", &mut tally), None);
        assert_eq!(tally, CacheStats::new());
        assert_eq!(c.stats(), CacheStats::new());
    }

    #[test]
    fn scope_roundtrip_and_stats() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 10);
        assert_eq!(scope(&c, "dog"), None); // miss
        c.put("dog", Arc::new(vec![vid(1), vid(2)]));
        assert_eq!(scope(&c, "dog"), Some(Arc::new(vec![vid(1), vid(2)]))); // hit
        let stats = c.stats();
        assert_eq!((stats.scope_hits, stats.scope_misses), (1, 1));
        assert!((stats.scope_hit_rate() - 0.5).abs() < 1e-12);
        assert!(c.value_bytes() > 0);
    }

    #[test]
    fn path_roundtrip_counts_as_path_traffic() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 10);
        c.put("dog", Arc::new(vec![vid(1)]));
        c.put("dog|car", no_pairs());
        assert!(path(&c, "dog|car").is_some());
        // Scope and path keys live apart: the same string is a miss in the
        // other kind.
        assert!(path(&c, "dog").is_none());
        assert_eq!(c.len(), 2);
        let stats = c.stats();
        assert_eq!((stats.scope_hits, stats.scope_misses), (0, 0));
        assert_eq!((stats.path_hits, stats.path_misses), (1, 1));
    }

    #[test]
    fn granularity_scope_only() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 10);
        c.put("dog", Arc::new(vec![vid(1)]));
        c.put("k", no_pairs());
        assert_eq!(c.len(), 1);
        assert!(scope(&c, "dog").is_some());
        assert!(path(&c, "k").is_none());
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.put("a", Arc::new(vec![vid(1)]));
        c.put("b", Arc::new(vec![vid(2)]));
        // Touch "a" twice so "b" is least frequent.
        scope(&c, "a");
        scope(&c, "a");
        c.put("c", Arc::new(vec![vid(3)]));
        assert!(scope(&c, "a").is_some());
        assert!(scope(&c, "b").is_none());
        assert!(scope(&c, "c").is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lru, 2);
        c.put("a", Arc::new(vec![vid(1)]));
        c.put("b", Arc::new(vec![vid(2)]));
        // "a" used many times long ago; "b" used once, recently.
        scope(&c, "a");
        scope(&c, "a");
        scope(&c, "b");
        c.put("c", Arc::new(vec![vid(3)]));
        // LRU evicts "a" (older last_used) despite higher frequency.
        assert!(scope(&c, "a").is_none());
        assert!(scope(&c, "b").is_some());
    }

    #[test]
    fn shared_budget_across_pools() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.put("a", Arc::new(vec![vid(1)]));
        c.put("p", no_pairs());
        assert_eq!(c.len(), 2);
        c.put("b", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 2); // one of the old entries was evicted
    }

    #[test]
    fn zero_pool_accepts_nothing() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 0);
        c.put("a", Arc::new(vec![vid(1)]));
        assert!(c.is_empty());
    }

    #[test]
    fn overwrite_same_key_keeps_len() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 5);
        c.put("a", Arc::new(vec![vid(1)]));
        c.put("a", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 1);
        assert_eq!(scope(&c, "a"), Some(Arc::new(vec![vid(2)])));
    }

    /// Regression: overwriting a key in a *full* cache used to call
    /// `make_room()` and evict an unrelated entry even though the pool was
    /// not growing.
    #[test]
    fn overwrite_in_full_cache_evicts_nothing() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.put("a", Arc::new(vec![vid(1)]));
        c.put("p", no_pairs());
        assert_eq!(c.len(), 2); // full
        c.put("a", Arc::new(vec![vid(9)]));
        assert_eq!(c.len(), 2);
        assert!(c.frequency::<VertexId>("a").is_some());
        assert!(
            c.frequency::<RelationPair>("p").is_some(),
            "unrelated entry evicted"
        );
        assert_eq!(scope(&c, "a"), Some(Arc::new(vec![vid(9)])));
    }

    /// Regression: overwriting used to reset `freq` to 1, destroying the
    /// LFU history that decides the next eviction.
    #[test]
    fn overwrite_preserves_lfu_history() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.put("hot", Arc::new(vec![vid(1)]));
        scope(&c, "hot");
        scope(&c, "hot"); // freq 3
        c.put("cold", Arc::new(vec![vid(2)])); // freq 1
        c.put("hot", Arc::new(vec![vid(3)])); // overwrite, freq stays 3
        assert_eq!(c.frequency::<VertexId>("hot"), Some(3));
        c.put("new", Arc::new(vec![vid(4)]));
        // LFU must evict "cold" (freq 1), not "hot".
        assert!(c.frequency::<VertexId>("hot").is_some());
        assert!(c.frequency::<VertexId>("cold").is_none());
    }

    #[test]
    fn tallied_lookups_count_exactly_what_the_cache_counts() {
        // Scope-only: path lookups are skipped by the granularity and must
        // count nowhere; scope hits and misses count in both places.
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 16);
        let mut tally = CacheStats::new();
        assert_eq!(c.get::<VertexId>("dog", &mut tally), None);
        c.put("dog", Arc::new(vec![vid(1)]));
        assert!(c.get::<VertexId>("dog", &mut tally).is_some());
        assert!(c.get::<RelationPair>("dog|car", &mut tally).is_none());
        assert_eq!(tally, c.stats());
        assert_eq!((tally.scope_hits, tally.scope_misses), (1, 1));
        assert_eq!((tally.path_hits, tally.path_misses), (0, 0));
    }
}

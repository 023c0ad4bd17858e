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
//! eviction.

use crate::matching::RelationPair;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    freq: u64,
    last_used: u64,
}

/// One bounded key-value store.
#[derive(Debug)]
struct Pool<V> {
    map: HashMap<String, Entry<V>>,
    hits: u64,
    misses: u64,
}

impl<V> Pool<V> {
    fn new() -> Self {
        Pool {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: &str, tick: u64) -> Option<&V> {
        match self.map.get_mut(key) {
            Some(e) => {
                e.freq += 1;
                e.last_used = tick;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// `(key, freq, last_used)` of the eviction candidate under `policy`.
    fn eviction_candidate(&self, policy: EvictionPolicy) -> Option<(String, u64, u64)> {
        self.map
            .iter()
            .min_by_key(|(_, e)| match policy {
                EvictionPolicy::Lfu => (e.freq, e.last_used),
                EvictionPolicy::Lru => (e.last_used, e.freq),
            })
            .map(|(k, e)| (k.clone(), e.freq, e.last_used))
    }
}

/// The shared scope + path cache.
#[derive(Debug)]
pub struct KeyCentricCache {
    granularity: CacheGranularity,
    policy: EvictionPolicy,
    /// Total item budget across both pools.
    pool_size: usize,
    scope: Pool<Arc<Vec<VertexId>>>,
    path: Pool<Arc<Vec<RelationPair>>>,
    tick: u64,
}

impl KeyCentricCache {
    /// Build a cache.
    pub fn new(granularity: CacheGranularity, policy: EvictionPolicy, pool_size: usize) -> Self {
        KeyCentricCache {
            granularity,
            policy,
            pool_size,
            scope: Pool::new(),
            path: Pool::new(),
            tick: 0,
        }
    }

    /// A disabled cache (granularity `None`).
    pub fn disabled() -> Self {
        Self::new(CacheGranularity::None, EvictionPolicy::Lfu, 0)
    }

    fn scope_enabled(&self) -> bool {
        matches!(
            self.granularity,
            CacheGranularity::Scope | CacheGranularity::Both
        )
    }

    fn path_enabled(&self) -> bool {
        matches!(
            self.granularity,
            CacheGranularity::Path | CacheGranularity::Both
        )
    }

    /// Look up a scope item (cheap `Arc` clone — the vertex sets over a
    /// 4,233-image merged graph run to tens of thousands of ids, and deep
    /// copies on every hit would eat the savings).
    pub fn scope_get(&mut self, key: &str) -> Option<Arc<Vec<VertexId>>> {
        if !self.scope_enabled() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        self.scope.get(key, tick).cloned()
    }

    /// Store a scope item. Overwriting an existing key updates the value
    /// in place — preserving its LFU frequency history and evicting
    /// nothing, since the pool does not grow.
    pub fn scope_put(&mut self, key: &str, value: Arc<Vec<VertexId>>) {
        if !self.scope_enabled() || self.pool_size == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.scope.map.get_mut(key) {
            e.value = value;
            e.last_used = tick;
            return;
        }
        self.make_room();
        self.scope.map.insert(
            key.to_owned(),
            Entry {
                value,
                freq: 1,
                last_used: tick,
            },
        );
    }

    /// Look up a path item (cheap `Arc` clone).
    pub fn path_get(&mut self, key: &str) -> Option<Arc<Vec<RelationPair>>> {
        if !self.path_enabled() {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        self.path.get(key, tick).cloned()
    }

    /// Store a path item. Overwrites update in place (frequency preserved,
    /// no eviction), exactly like [`scope_put`](Self::scope_put).
    pub fn path_put(&mut self, key: &str, value: Arc<Vec<RelationPair>>) {
        if !self.path_enabled() || self.pool_size == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.path.map.get_mut(key) {
            e.value = value;
            e.last_used = tick;
            return;
        }
        self.make_room();
        self.path.map.insert(
            key.to_owned(),
            Entry {
                value,
                freq: 1,
                last_used: tick,
            },
        );
    }

    /// Evict until one slot is free, choosing the globally least-valuable
    /// entry under the policy.
    fn make_room(&mut self) {
        while self.len() >= self.pool_size && !self.is_empty() {
            let scope_cand = self.scope.eviction_candidate(self.policy);
            let path_cand = self.path.eviction_candidate(self.policy);
            let evict_scope = match (&scope_cand, &path_cand) {
                (Some(s), Some(p)) => match self.policy {
                    EvictionPolicy::Lfu => (s.1, s.2) <= (p.1, p.2),
                    EvictionPolicy::Lru => (s.2, s.1) <= (p.2, p.1),
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            if evict_scope {
                let key = scope_cand.expect("checked above").0;
                self.scope.map.remove(&key);
            } else {
                let key = path_cand.expect("checked above").0;
                self.path.map.remove(&key);
            }
        }
    }

    /// Items currently held (scope + path).
    pub fn len(&self) -> usize {
        self.scope.map.len() + self.path.map.len()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters for both pools since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            scope_hits: self.scope.hits,
            scope_misses: self.scope.misses,
            path_hits: self.path.hits,
            path_misses: self.path.misses,
        }
    }

    /// Approximate heap bytes held by cached values (a scope item is a
    /// vertex-id vector; a path item a relation-pair vector — the paper
    /// reports ≈6 KB and ≈96 KB per item on MVQA).
    pub fn value_bytes(&self) -> usize {
        let scope: usize = self
            .scope
            .map
            .values()
            .map(|e| e.value.len() * std::mem::size_of::<VertexId>())
            .sum();
        let path: usize = self
            .path
            .map
            .values()
            .map(|e| e.value.len() * std::mem::size_of::<RelationPair>())
            .sum();
        scope + path
    }

    /// The configured granularity.
    pub fn granularity(&self) -> CacheGranularity {
        self.granularity
    }

    /// The configured policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The LFU frequency of a scope entry, without touching it (does not
    /// count as a use and does not bump hit/miss counters). `None` when the
    /// key is absent. Exposed so tests and cache introspection can verify
    /// eviction history survives overwrites.
    pub fn scope_frequency(&self, key: &str) -> Option<u64> {
        self.scope.map.get(key).map(|e| e.freq)
    }

    /// The LFU frequency of a path entry, without touching it.
    pub fn path_frequency(&self, key: &str) -> Option<u64> {
        self.path.map.get(key).map(|e| e.freq)
    }

    /// The configured item budget.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Every key currently resident in either pool (scope first). Only the
    /// debug-assertions [`invariants`] read it.
    #[cfg(debug_assertions)]
    fn resident_keys(&self) -> impl Iterator<Item = &str> {
        self.scope
            .map
            .keys()
            .chain(self.path.map.keys())
            .map(String::as_str)
    }
}

/// A key-hashed, shard-per-lock view of the key-centric cache.
///
/// The paper's single pool (§V-B) is kept per shard: keys are hashed to one
/// of `N` shards, each holding its own [`KeyCentricCache`] behind its own
/// mutex, with the total item budget split across shards. Callers see the
/// same scope/path API as the single pool but with `&self` methods, so one
/// long-lived `ShardedCache` can back the query service and parallel
/// scheduler workers without serializing every lookup on a single lock.
///
/// Stats are the merge of per-shard counters
/// ([`CacheStats::merge`]); eviction stays shard-local, which approximates
/// the paper's global LFU/LRU minimum (documented in DESIGN.md).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<KeyCentricCache>>,
    /// The caller's total item budget (what the shard budgets must sum to).
    /// Only the debug-assertions [`invariants`] read it.
    #[cfg(debug_assertions)]
    pool_size: usize,
}

impl ShardedCache {
    /// Build a sharded cache: `pool_size` items total, split as evenly as
    /// possible across `shards` key-hashed shards (the first
    /// `pool_size % shards` shards take the remainder). The shard count is
    /// clamped to `max(1, min(shards, pool_size))` so no shard gets a zero
    /// budget while the total budget is non-zero.
    pub fn new(
        granularity: CacheGranularity,
        policy: EvictionPolicy,
        pool_size: usize,
        shards: usize,
    ) -> Self {
        let n = shards.min(pool_size).max(1);
        let base = pool_size / n;
        let remainder = pool_size % n;
        let cache = ShardedCache {
            shards: (0..n)
                .map(|i| {
                    let budget = base + usize::from(i < remainder);
                    Mutex::new(KeyCentricCache::new(granularity, policy, budget))
                })
                .collect(),
            #[cfg(debug_assertions)]
            pool_size,
        };
        cache.debug_assert_invariants();
        cache
    }

    /// A single-shard cache — the exact semantics of the paper's one pool,
    /// behind the shared-handle API.
    pub fn single(granularity: CacheGranularity, policy: EvictionPolicy, pool_size: usize) -> Self {
        Self::new(granularity, policy, pool_size, 1)
    }

    /// A disabled cache (granularity `None`, zero budget).
    pub fn disabled() -> Self {
        Self::new(CacheGranularity::None, EvictionPolicy::Lfu, 0, 1)
    }

    fn shard_index(&self, key: &str) -> usize {
        // SipHash with the default (fixed) keys: deterministic across runs,
        // well-mixed across shards.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &str) -> &Mutex<KeyCentricCache> {
        &self.shards[self.shard_index(key)]
    }

    /// Injection gate shared by the four cache entry points. Lookups and
    /// inserts are infallible, so `Error` and `DropResult` both degrade to
    /// "the cache did nothing" (forced miss / dropped insert); `Latency`
    /// stalls the caller; `CorruptLabel` has no cache meaning and is inert.
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

    /// Look up a scope item in the key's shard.
    pub fn scope_get(&self, key: &str) -> Option<Arc<Vec<VertexId>>> {
        if Self::faulted(svqa_fault::site::CACHE_GET) {
            return None;
        }
        self.shard(key).lock().scope_get(key)
    }

    /// Store a scope item in the key's shard.
    pub fn scope_put(&self, key: &str, value: Arc<Vec<VertexId>>) {
        if Self::faulted(svqa_fault::site::CACHE_PUT) {
            return;
        }
        self.shard(key).lock().scope_put(key, value);
    }

    /// Look up a path item in the key's shard.
    pub fn path_get(&self, key: &str) -> Option<Arc<Vec<RelationPair>>> {
        if Self::faulted(svqa_fault::site::CACHE_GET) {
            return None;
        }
        self.shard(key).lock().path_get(key)
    }

    /// Store a path item in the key's shard.
    pub fn path_put(&self, key: &str, value: Arc<Vec<RelationPair>>) {
        if Self::faulted(svqa_fault::site::CACHE_PUT) {
            return;
        }
        self.shard(key).lock().path_put(key, value);
    }

    /// Hit/miss counters merged across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for shard in &self.shards {
            total.merge(&shard.lock().stats());
        }
        total
    }

    /// Items currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by cached values, across all shards.
    pub fn value_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().value_bytes()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The LFU frequency of a scope entry (non-touching; see
    /// [`KeyCentricCache::scope_frequency`]).
    pub fn scope_frequency(&self, key: &str) -> Option<u64> {
        self.shard(key).lock().scope_frequency(key)
    }

    /// The LFU frequency of a path entry (non-touching).
    pub fn path_frequency(&self, key: &str) -> Option<u64> {
        self.shard(key).lock().path_frequency(key)
    }

    /// Run the [`invariants`] suite. Compiles to a no-op in release builds;
    /// under `debug_assertions` a violation panics with the broken
    /// invariant. Called at construction and by the property tests after
    /// every mutation.
    pub fn debug_assert_invariants(&self) {
        #[cfg(debug_assertions)]
        invariants::check(self);
    }
}

/// Debug-assertions invariants for [`ShardedCache`] — the structural
/// properties the sharding layer must preserve over the paper's single
/// pool, checked exhaustively in debug builds (proptests run them after
/// every operation) and compiled out of release binaries.
#[cfg(debug_assertions)]
mod invariants {
    use super::ShardedCache;

    /// All invariants, in one sweep over the shards.
    pub(super) fn check(cache: &ShardedCache) {
        budget_conserved(cache);
        no_cross_shard_leakage(cache);
    }

    /// The per-shard budgets sum exactly to the configured pool size, no
    /// shard has a zero budget while the pool is non-empty, and no shard
    /// holds more items than its own budget (so the global `len() ≤
    /// pool_size` bound follows shard-locally).
    fn budget_conserved(cache: &ShardedCache) {
        let mut total_budget = 0;
        for (i, shard) in cache.shards.iter().enumerate() {
            let shard = shard.lock();
            assert!(
                cache.pool_size == 0 || shard.pool_size() > 0,
                "shard {i} has a zero budget inside a pool of {}",
                cache.pool_size
            );
            assert!(
                shard.len() <= shard.pool_size(),
                "shard {i} holds {} items over its budget of {}",
                shard.len(),
                shard.pool_size()
            );
            total_budget += shard.pool_size();
        }
        assert_eq!(
            total_budget, cache.pool_size,
            "shard budgets sum to {total_budget}, configured pool is {}",
            cache.pool_size
        );
    }

    /// Every resident key hashes back to the shard that holds it: routing
    /// is a function of the key alone, so a key can never be resident in
    /// two shards at once (no stale aliases after eviction/overwrite).
    fn no_cross_shard_leakage(cache: &ShardedCache) {
        for (i, shard) in cache.shards.iter().enumerate() {
            let shard = shard.lock();
            for key in shard.resident_keys() {
                assert_eq!(
                    cache.shard_index(key),
                    i,
                    "key {key:?} resident in shard {i} but routes to shard {}",
                    cache.shard_index(key)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = KeyCentricCache::disabled();
        c.scope_put("dog", Arc::new(vec![vid(1)]));
        c.path_put("dog|car", Arc::new(vec![]));
        assert!(c.is_empty());
        assert_eq!(c.scope_get("dog"), None);
    }

    #[test]
    fn scope_roundtrip_and_stats() {
        let mut c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 10);
        assert_eq!(c.scope_get("dog"), None); // miss
        c.scope_put("dog", Arc::new(vec![vid(1), vid(2)]));
        assert_eq!(c.scope_get("dog"), Some(Arc::new(vec![vid(1), vid(2)]))); // hit
        let stats = c.stats();
        assert_eq!((stats.scope_hits, stats.scope_misses), (1, 1));
        assert!((stats.scope_hit_rate() - 0.5).abs() < 1e-12);
        assert!(c.value_bytes() > 0);
    }

    #[test]
    fn granularity_scope_only() {
        let mut c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 10);
        c.scope_put("dog", Arc::new(vec![vid(1)]));
        c.path_put("k", Arc::new(vec![]));
        assert_eq!(c.len(), 1);
        assert!(c.scope_get("dog").is_some());
        assert!(c.path_get("k").is_none());
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("b", Arc::new(vec![vid(2)]));
        // Touch "a" twice so "b" is least frequent.
        c.scope_get("a");
        c.scope_get("a");
        c.scope_put("c", Arc::new(vec![vid(3)]));
        assert!(c.scope_get("a").is_some());
        assert!(c.scope_get("b").is_none());
        assert!(c.scope_get("c").is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lru, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("b", Arc::new(vec![vid(2)]));
        // "a" used many times long ago; "b" used once, recently.
        c.scope_get("a");
        c.scope_get("a");
        c.scope_get("b");
        c.scope_put("c", Arc::new(vec![vid(3)]));
        // LRU evicts "a" (older last_used) despite higher frequency.
        assert!(c.scope_get("a").is_none());
        assert!(c.scope_get("b").is_some());
    }

    #[test]
    fn shared_budget_across_pools() {
        let mut c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.path_put("p", Arc::new(vec![]));
        assert_eq!(c.len(), 2);
        c.scope_put("b", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 2); // one of the old entries was evicted
    }

    #[test]
    fn zero_pool_accepts_nothing() {
        let mut c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 0);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        assert!(c.is_empty());
    }

    #[test]
    fn overwrite_same_key_keeps_len() {
        let mut c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 5);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("a", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.scope_get("a"), Some(Arc::new(vec![vid(2)])));
    }

    /// Regression: overwriting a key in a *full* cache used to call
    /// `make_room()` and evict an unrelated entry even though the pool was
    /// not growing.
    #[test]
    fn overwrite_in_full_cache_evicts_nothing() {
        let mut c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.path_put("p", Arc::new(vec![]));
        assert_eq!(c.len(), 2); // full
        c.scope_put("a", Arc::new(vec![vid(9)]));
        assert_eq!(c.len(), 2);
        assert!(c.scope_frequency("a").is_some());
        assert!(c.path_frequency("p").is_some(), "unrelated entry evicted");
        assert_eq!(c.scope_get("a"), Some(Arc::new(vec![vid(9)])));
    }

    /// Regression: overwriting used to reset `freq` to 1, destroying the
    /// LFU history that decides the next eviction.
    #[test]
    fn overwrite_preserves_lfu_history() {
        let mut c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.scope_put("hot", Arc::new(vec![vid(1)]));
        c.scope_get("hot");
        c.scope_get("hot"); // freq 3
        c.scope_put("cold", Arc::new(vec![vid(2)])); // freq 1
        c.scope_put("hot", Arc::new(vec![vid(3)])); // overwrite, freq stays 3
        assert_eq!(c.scope_frequency("hot"), Some(3));
        c.scope_put("new", Arc::new(vec![vid(4)]));
        // LFU must evict "cold" (freq 1), not "hot".
        assert!(c.scope_frequency("hot").is_some());
        assert!(c.scope_frequency("cold").is_none());
    }

    #[test]
    fn sharded_cache_roundtrip_and_merged_stats() {
        let c = ShardedCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 64, 4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.scope_get("dog"), None); // miss
        c.scope_put("dog", Arc::new(vec![vid(1)]));
        c.path_put("dog|car", Arc::new(vec![]));
        assert_eq!(c.scope_get("dog"), Some(Arc::new(vec![vid(1)])));
        assert!(c.path_get("dog|car").is_some());
        assert_eq!(c.len(), 2);
        assert!(c.value_bytes() > 0);
        let stats = c.stats();
        assert_eq!((stats.scope_hits, stats.scope_misses), (1, 1));
        assert_eq!((stats.path_hits, stats.path_misses), (1, 0));
    }

    #[test]
    fn sharded_cache_budget_split_covers_pool_size() {
        // 10 items over 4 shards: budgets 3,3,2,2 — total exactly 10.
        let c = ShardedCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 10, 4);
        for i in 0..100 {
            c.scope_put(&format!("k{i}"), Arc::new(vec![vid(i)]));
        }
        assert!(c.len() <= 10, "len {} exceeds total budget", c.len());
        // Shard count clamps so no shard gets a zero budget.
        let tiny = ShardedCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2, 8);
        assert_eq!(tiny.shard_count(), 2);
        tiny.scope_put("a", Arc::new(vec![vid(1)]));
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn sharded_disabled_accepts_nothing() {
        let c = ShardedCache::disabled();
        c.scope_put("a", Arc::new(vec![vid(1)]));
        assert!(c.is_empty());
        assert_eq!(c.scope_get("a"), None);
    }
}

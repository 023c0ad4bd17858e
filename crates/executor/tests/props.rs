//! Property-based tests for the executor: cache invariants, matcher
//! behaviour, and answer-shape guarantees.

use std::sync::Arc;
use proptest::prelude::*;
use svqa_executor::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache};
use svqa_executor::executor::QueryGraphExecutor;
use svqa_executor::matching::{RelationPair, VertexMatcher};
use svqa_executor::{Answer, CacheStats};
use svqa_graph::{Graph, VertexId};
use svqa_qparser::{NounPhrase, QueryGraph, QuestionType, Spoc};

/// A cache operation script.
#[derive(Debug, Clone)]
enum Op {
    ScopeGet(u8),
    ScopePut(u8, u8),
    PathGet(u8),
    PathPut(u8),
}

/// Apply one scripted operation.
fn apply(cache: &KeyCentricCache, op: &Op) {
    let mut tally = CacheStats::new();
    match *op {
        Op::ScopeGet(k) => {
            cache.get::<VertexId>(&format!("s{k}"), &mut tally);
        }
        Op::ScopePut(k, v) => {
            cache.put(
                &format!("s{k}"),
                Arc::new(vec![VertexId::from_index(v as usize)]),
            );
        }
        Op::PathGet(k) => {
            cache.get::<RelationPair>(&format!("p{k}"), &mut tally);
        }
        Op::PathPut(k) => cache.put(&format!("p{k}"), Arc::new(Vec::<RelationPair>::new())),
    }
}

fn scope_get(cache: &KeyCentricCache, key: &str) -> Option<Arc<Vec<VertexId>>> {
    cache.get(key, &mut CacheStats::new())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16).prop_map(Op::ScopeGet),
        (0u8..16, 0u8..8).prop_map(|(k, v)| Op::ScopePut(k, v)),
        (0u8..16).prop_map(Op::PathGet),
        (0u8..16).prop_map(Op::PathPut),
    ]
}

proptest! {
    #[test]
    fn cache_never_exceeds_pool_size(
        ops in proptest::collection::vec(arb_op(), 0..200),
        pool in 0usize..12,
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let cache = KeyCentricCache::new(CacheGranularity::Both, policy, pool);
        for op in &ops {
            apply(&cache, op);
            prop_assert!(cache.len() <= pool, "len {} > pool {}", cache.len(), pool);
        }
        // Value accounting never goes negative/overflows.
        let _ = cache.value_bytes();
    }

    #[test]
    fn cache_get_returns_last_put(
        key in 0u8..8,
        values in proptest::collection::vec(0u8..32, 1..10),
    ) {
        let cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 64);
        let k = format!("s{key}");
        let mut last = None;
        for v in values {
            let stored = Arc::new(vec![VertexId::from_index(v as usize)]);
            cache.put(&k, Arc::clone(&stored));
            last = Some(stored);
        }
        prop_assert_eq!(scope_get(&cache, &k), last);
    }

    #[test]
    fn disabled_granularities_store_nothing(keys in proptest::collection::vec(0u8..8, 0..20)) {
        let cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lru, 16);
        for &k in &keys {
            apply(&cache, &Op::PathPut(k));
        }
        for k in &keys {
            let got = cache.get::<RelationPair>(&format!("p{}", k), &mut CacheStats::new());
            prop_assert!(got.is_none());
        }
    }
}

proptest! {
    /// Overwriting a key that is already cached must not evict anything
    /// and must keep the entry's LFU frequency history (the seed version
    /// called `make_room()` unconditionally and re-inserted with freq 1).
    #[test]
    fn overwrite_preserves_frequency_and_length(
        pool in 1usize..6,
        touches in 0usize..5,
    ) {
        let cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, pool);
        for i in 0..pool {
            cache.put(&format!("k{i}"), Arc::new(Vec::<VertexId>::new()));
        }
        for _ in 0..touches {
            prop_assert!(scope_get(&cache, "k0").is_some());
        }
        let freq_before = cache.frequency::<VertexId>("k0").unwrap();
        let len_before = cache.len();

        let replacement = Arc::new(vec![VertexId::from_index(9)]);
        cache.put("k0", Arc::clone(&replacement));

        prop_assert_eq!(cache.frequency::<VertexId>("k0"), Some(freq_before));
        prop_assert_eq!(cache.len(), len_before);
        prop_assert_eq!(scope_get(&cache, "k0"), Some(replacement));
        // No unrelated entry paid for the overwrite.
        for i in 1..pool {
            prop_assert!(cache.frequency::<VertexId>(&format!("k{i}")).is_some(), "k{} evicted", i);
        }
    }

    /// When a fresh insert forces an eviction, the victim is exactly the
    /// policy minimum: min (freq, last_used) under LFU, min (last_used,
    /// freq) under LRU. Ticks are unique, so the minimum is unambiguous
    /// and the model predicts the victim exactly.
    #[test]
    fn eviction_picks_the_policy_minimum(
        pool in 2usize..8,
        gets in proptest::collection::vec(0usize..8, 0..40),
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let cache = KeyCentricCache::new(CacheGranularity::Scope, policy, pool);
        // Model: (key, freq, last_used), mirroring the cache's tick clock
        // (every get and put advances it by one).
        let mut tick = 0u64;
        let mut model: Vec<(String, u64, u64)> = Vec::new();
        for i in 0..pool {
            let k = format!("k{i}");
            tick += 1;
            cache.put(&k, Arc::new(Vec::<VertexId>::new()));
            model.push((k, 1, tick));
        }
        for g in gets {
            let idx = g % pool;
            tick += 1;
            prop_assert!(scope_get(&cache, &model[idx].0).is_some());
            model[idx].1 += 1;
            model[idx].2 = tick;
        }

        cache.put("fresh", Arc::new(Vec::<VertexId>::new()));

        let victim = model
            .iter()
            .min_by_key(|(_, f, t)| match policy {
                EvictionPolicy::Lfu => (*f, *t),
                EvictionPolicy::Lru => (*t, *f),
            })
            .unwrap()
            .0
            .clone();
        prop_assert!(cache.frequency::<VertexId>(&victim).is_none(), "{} should be the victim", victim);
        prop_assert!(cache.frequency::<VertexId>("fresh").is_some());
        for (k, _, _) in model.iter().filter(|(k, _, _)| *k != victim) {
            prop_assert!(cache.frequency::<VertexId>(k).is_some(), "{} wrongly evicted", k);
        }
        prop_assert_eq!(cache.len(), pool);
    }

    /// Under mixed scope and path traffic, total length never exceeds the
    /// budget, and any key still resident returns the last value put for
    /// it.
    #[test]
    fn mixed_traffic_respects_budget_and_last_put(
        ops in proptest::collection::vec(arb_op(), 0..200),
        pool in 0usize..16,
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let cache = KeyCentricCache::new(CacheGranularity::Both, policy, pool);
        let mut last_scope: std::collections::HashMap<String, Arc<Vec<VertexId>>> =
            std::collections::HashMap::new();
        for op in &ops {
            apply(&cache, op);
            if let Op::ScopePut(k, v) = *op {
                last_scope.insert(format!("s{k}"), Arc::new(vec![VertexId::from_index(v as usize)]));
            }
            prop_assert!(cache.len() <= pool, "len {} > pool {}", cache.len(), pool);
        }
        for (key, value) in &last_scope {
            if let Some(got) = scope_get(&cache, key) {
                prop_assert_eq!(&got, value, "stale value for {}", key);
            }
        }
        // The stats account for every lookup made above.
        let _ = cache.stats().total_lookups();
        let _ = cache.value_bytes();
    }
}

/// A small random merged-graph-like world for executor properties.
fn arb_world() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0usize..6, 0usize..6, 0usize..4), 1..30).prop_map(|edges| {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let mut g = Graph::new();
        let ids: Vec<_> = LABELS.iter().map(|l| g.add_vertex(*l)).collect();
        for (a, b, p) in edges {
            if a != b {
                g.add_edge(ids[a], ids[b], PREDS[p]).unwrap();
            }
        }
        g
    })
}

fn spoc(s: &str, p: &str, o: &str) -> Spoc {
    Spoc {
        subject: if s.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(s)
        },
        predicate: p.to_owned(),
        object: if o.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(o)
        },
        ..Spoc::default()
    }
}

proptest! {
    #[test]
    fn judgment_answers_are_always_boolean(
        g in arb_world(),
        si in 0usize..6, pi in 0usize..4, oi in 0usize..6,
    ) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let gq = QueryGraph {
            vertices: vec![spoc(LABELS[si], PREDS[pi], LABELS[oi])],
            edges: vec![],
            question_type: QuestionType::Judgment,
            question: String::new(),
        };
        let ex = QueryGraphExecutor::new(&g);
        let a = ex.run(&gq, None, &mut CacheStats::new()).unwrap().answer;
        prop_assert!(matches!(a, Answer::Judgment(_)));
    }

    #[test]
    fn cached_execution_equals_uncached(
        g in arb_world(),
        si in 0usize..6, pi in 0usize..4, oi in 0usize..6,
    ) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let gq = QueryGraph {
            vertices: vec![spoc(LABELS[si], PREDS[pi], LABELS[oi])],
            edges: vec![],
            question_type: QuestionType::Counting,
            question: String::new(),
        };
        let ex = QueryGraphExecutor::new(&g);
        let plain = ex.run(&gq, None, &mut CacheStats::new()).unwrap().answer;
        let cache = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 64);
        // Run twice so the second pass reads from a warm cache.
        let first = ex.run(&gq, Some(&cache), &mut CacheStats::new()).unwrap().answer;
        let second = ex.run(&gq, Some(&cache), &mut CacheStats::new()).unwrap().answer;
        prop_assert_eq!(&plain, &first);
        prop_assert_eq!(&first, &second);
    }

    #[test]
    fn matcher_exact_labels_always_match(g in arb_world(), li in 0usize..6) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        let m = VertexMatcher::new(&g);
        let (found, _) = m.match_vertex(LABELS[li], LABELS[li]);
        prop_assert!(!found.is_empty());
        for v in &found {
            prop_assert_eq!(g.vertex_label(*v), Some(LABELS[li]));
        }
        // Expansion is a superset and idempotent.
        let once = m.expand_semantic(&found);
        for v in &found {
            prop_assert!(once.contains(v));
        }
        prop_assert_eq!(m.expand_semantic(&once), once);
    }
}

//! Multi-query scheduling and key-centric caching — the paper's Figure 6.
//!
//! Runs a batch of questions through `Svqa::run_batch` (the §V-B
//! optimized scheduler on the request path) and prints the
//! frequency-sorted execution order, the latency difference against an
//! uncached run, and the cached run's statistics.
//!
//! ```text
//! cargo run -p svqa --example multi_query --release
//! ```

use svqa::executor::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache};
use svqa::executor::scheduler::QueryScheduler;
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

fn main() {
    println!("building a 1,500-image world...");
    let mvqa = Mvqa::generate_small(1500, 42);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());

    // A batch with deliberately shared SPOC vertices (Fig. 6's premise).
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();

    // The frequency-ratio ordering over the questions that parse.
    let graphs: Vec<_> = questions
        .iter()
        .filter_map(|q| system.prepare(q).query)
        .collect();
    println!("parsed {} of {} questions", graphs.len(), questions.len());
    let order = QueryScheduler::order(&graphs);
    println!(
        "scheduler order (first 10 of {}): {:?}",
        order.len(),
        &order[..order.len().min(10)]
    );

    // No cache vs the key-centric cache, both through the request path.
    let run = |granularity| {
        let cache = KeyCentricCache::new(granularity, EvictionPolicy::Lfu, 100);
        system.run_batch(&questions, &cache, None)
    };
    let plain = run(CacheGranularity::None);
    let cached = run(CacheGranularity::Both);
    assert_eq!(
        plain.answers, cached.answers,
        "the cache must not change answers"
    );
    let stats = cached.cache_stats;
    println!("\nno cache:                      {:?}", plain.total);
    println!("key-centric cache + schedule:  {:?}", cached.total);
    println!(
        "reduction: {:.1}%  (paper reports ≈48.9%)",
        (1.0 - cached.total.as_secs_f64() / plain.total.as_secs_f64()) * 100.0
    );
    println!(
        "cache stats: scope {} hits / {} misses, path {} hits / {} misses ({:.0}% hit overall)",
        stats.scope_hits,
        stats.scope_misses,
        stats.path_hits,
        stats.path_misses,
        stats.hit_rate() * 100.0
    );
}

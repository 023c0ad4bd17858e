//! Ablation benches for the design choices DESIGN.md calls out:
//! frequency-sorted vs FIFO scheduling, Algorithm 1's subgraph-cache
//! thresholds, and sequential vs parallel execution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use svqa::aggregator::{AggregatorConfig, DataAggregator};
use svqa::executor::scheduler::{QueryScheduler, SchedulerConfig};
use svqa::qparser::QueryGraphGenerator;
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::{SceneGraphGenerator, SggConfig};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::{build_knowledge_graph, Mvqa};

fn bench_ablations(c: &mut Criterion) {
    let mvqa = Mvqa::generate_small(500, 21);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let generator = QueryGraphGenerator::new();
    let graphs: Vec<_> = mvqa
        .questions
        .iter()
        .filter_map(|q| generator.generate(&q.question).ok())
        .collect();

    // Scheduler ordering ablation.
    for (label, sort) in [("freq_sorted", true), ("fifo", false)] {
        let scheduler = QueryScheduler::new(SchedulerConfig {
            frequency_sort: sort,
            ..SchedulerConfig::default()
        });
        c.bench_function(&format!("ablation/scheduler_{label}"), |b| {
            b.iter(|| black_box(scheduler.run(system.merged_graph(), &graphs).answers.len()))
        });
    }

    // Parallelism ablation.
    for threads in [1usize, 2, 4] {
        let scheduler = QueryScheduler::new(SchedulerConfig {
            threads,
            ..SchedulerConfig::default()
        });
        c.bench_function(&format!("ablation/threads_{threads}"), |b| {
            b.iter(|| black_box(scheduler.run(system.merged_graph(), &graphs).answers.len()))
        });
    }

    // Algorithm 1 thresholds (c' frequency threshold, k radius).
    let kg = build_knowledge_graph();
    let prior = PairPrior::fit(&mvqa.images);
    let sgg = SceneGraphGenerator::new(SggConfig::default(), prior);
    let scene_graphs: Vec<_> = mvqa
        .images
        .iter()
        .take(300)
        .map(|i| sgg.generate(i).graph)
        .collect();
    for (label, c_threshold, k) in [
        ("paper_c5_k2", 5usize, 2usize),
        ("no_cache_c_huge", usize::MAX / 2, 2),
        ("deep_c5_k4", 5, 4),
    ] {
        let aggregator = DataAggregator::new(AggregatorConfig {
            frequency_threshold: c_threshold,
            k,
        });
        c.bench_function(&format!("ablation/aggregator_{label}"), |b| {
            b.iter(|| black_box(aggregator.merge(&scene_graphs, &kg).graph.edge_count()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);

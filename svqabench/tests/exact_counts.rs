//! The traced run's work counters are exact: replaying the same request
//! sequence on the same world twice gives identical counts.

use svqa::{Svqa, SvqaConfig};
use svqabench::rng::{poisson_schedule, Mix, Sampler};
use svqabench::run::executor_replay;
use svqabench::trace::Tracer;
use svqabench::world::{build_world, spec};

#[test]
fn replay_counts_repeat_exactly() {
    let mut small = spec("ask-hot").expect("ask-hot is a workload");
    small.images = 300;
    let world = build_world(&small, &Tracer::new(false));
    assert!(!world.questions.is_empty());
    let sampler = Sampler::new(Mix::Zipf(1.0), world.questions.len());
    let items: Vec<usize> = poisson_schedule(9, 1000.0, 0.4, &sampler)
        .iter()
        .map(|p| p.item)
        .collect();

    let run = || {
        let system = Svqa::build(&world.images, &world.kg, SvqaConfig::default());
        executor_replay(&system, &world, &items, Some(&Tracer::new(true))).counts
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.queries > 0);
    assert!(first.edges_scanned > 0);
    assert!(first.scope_hits + first.path_hits > 0, "{first:?}");
    assert!(first.path_misses > 0);
    assert!(first.rung_exact > 0);
}

//! Workload definitions: the world each one serves, its question pool,
//! its traffic, and the correctness oracle every response is checked
//! against.

use crate::rng::{Mix, SplitMix64};
use crate::trace::Tracer;
use svqa::dataset::groundtruth::GroundTruth;
use svqa::dataset::mvqa::{Mvqa, MvqaConfig};
use svqa::dataset::questions::{generate_questions, QuestionCounts};
use svqa::dataset::{build_knowledge_graph, generate_images, QaPair, QuestionSpec};
use svqa::{Svqa, SvqaError};

/// World seed shared by every workload (the MVQA default), so the inputs
/// a run serves never depend on `--seed`; the seed drives only the
/// request schedule and batch order.
pub const WORLD_SEED: u64 = 0x4d56_5141;

/// Question seeds whose corpora `ask-wide` unions into its pool.
const WIDE_QUESTION_SEEDS: [u64; 3] = [0, 1, 2];

/// Images whose scenes `ask-wide` authors questions from. Question
/// generation grows super-linearly in the image count (≈24 s for the
/// whole 4,233-image world), so the pool is written over a prefix and
/// then answered, and its ground truth re-evaluated, over every image.
const WIDE_QUESTION_PREFIX: usize = 800;

/// One workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Images in the world.
    pub images: usize,
    /// Whether the pool is the union of several question seeds over an
    /// image prefix (`ask-wide`) rather than the world's own corpus.
    pub wide_pool: bool,
    /// How `/ask` requests pick questions.
    pub mix: Mix,
    /// Fixed offered `/ask` rate, requests per second: 15–30% of the rate
    /// at which p99 breaks away on the 2-core reference box, so queueing
    /// does not amplify the box's own speed drift.
    pub rate_per_s: f64,
    /// Latency limit on p99, ms: above the p99 this box shows at low
    /// load, below what it shows once the server saturates. A run whose
    /// generator lateness nears it is invalid.
    pub p99_limit_ms: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
}

/// The workloads.
pub fn specs() -> [Spec; 2] {
    [
        Spec {
            name: "ask-hot",
            images: 500,
            wide_pool: false,
            mix: Mix::Zipf(1.0),
            rate_per_s: 300.0,
            p99_limit_ms: 30.0,
            setup_reps: 15,
        },
        Spec {
            name: "ask-wide",
            images: 4233,
            wide_pool: true,
            mix: Mix::Uniform,
            rate_per_s: 220.0,
            p99_limit_ms: 80.0,
            setup_reps: 7,
        },
    ]
}

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Build the world a workload serves: images, knowledge graph and the
/// question pool with ground truth, in a fixed pool order (pool index =
/// Zipf rank). Each dataset-layer call is timed on `tracer`.
pub fn build_world(spec: &Spec, tracer: &Tracer) -> Mvqa {
    let config = MvqaConfig {
        image_count: spec.images,
        seed: WORLD_SEED,
        counts: QuestionCounts::default(),
    };
    let images = tracer.time("dataset.images", || {
        generate_images(config.image_count, config.seed)
    });
    let kg = tracer.time("dataset.kg", build_knowledge_graph);
    let (questions, specs) = tracer.time("dataset.questions", || {
        if spec.wide_pool {
            wide_pool(&images, &kg, config.counts)
        } else {
            // Exactly what `Mvqa::generate` does for this configuration.
            generate_questions(&images, &kg, config.seed ^ 0x51, config.counts)
        }
    });
    let mut mvqa = Mvqa {
        images,
        kg,
        questions,
        specs,
        config,
    };
    shuffle_pool(&mut mvqa);
    mvqa
}

/// The union of several seeds' corpora over the image prefix, with each
/// answer re-evaluated over the whole world.
fn wide_pool(
    images: &[svqa::vision::scene::SyntheticImage],
    kg: &svqa::graph::Graph,
    counts: QuestionCounts,
) -> (Vec<QaPair>, Vec<QuestionSpec>) {
    let prefix = &images[..WIDE_QUESTION_PREFIX.min(images.len())];
    let mut seen = std::collections::HashSet::new();
    let (mut pairs, mut specs) = (Vec::new(), Vec::new());
    for seed in WIDE_QUESTION_SEEDS {
        let (qs, ss) = generate_questions(prefix, kg, seed, counts);
        for (q, s) in qs.into_iter().zip(ss) {
            if seen.insert(q.question.clone()) {
                pairs.push(q);
                specs.push(s);
            }
        }
    }
    let truth = GroundTruth::new(images, kg);
    for (q, s) in pairs.iter_mut().zip(&specs) {
        q.answer = truth.eval(&s.chain, &s.links, s.qtype, s.answer_side);
    }
    (pairs, specs)
}

/// Fixed (world-seeded) permutation of the pool, so Zipf rank 0 is not
/// simply the first question the generator wrote.
fn shuffle_pool(mvqa: &mut Mvqa) {
    let mut rng = SplitMix64::new(WORLD_SEED);
    let n = mvqa.questions.len();
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        mvqa.questions.swap(i, j);
        mvqa.specs.swap(i, j);
    }
}

/// What a correct server answers for one pool question.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// HTTP status of `/ask`.
    pub status: u16,
    /// The `answer` field of a 200 body.
    pub answer: Option<serde_json::Value>,
}

/// The oracle: each pool question's outcome on the uncached
/// [`Svqa::answer`] path. A parse or lint rejection is a correct 400.
pub fn oracle(system: &Svqa, pool: &[QaPair]) -> Vec<Expected> {
    pool.iter()
        .map(|q| match system.answer(&q.question) {
            Ok(a) => Expected {
                status: 200,
                answer: Some(serde_json::to_value(&a)),
            },
            Err(e) => Expected {
                status: match e {
                    SvqaError::Parse(_) | SvqaError::Lint(_) => 400,
                    SvqaError::Exec(_) => 500,
                    SvqaError::Unavailable { .. } => 503,
                },
                answer: None,
            },
        })
        .collect()
}

/// FNV-1a over every (question, status, answer) triple in pool order:
/// any answer change across commits changes it.
pub fn digest(pool: &[QaPair], expected: &[Expected]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (q, e) in pool.iter().zip(expected) {
        let answer = e
            .answer
            .as_ref()
            .map(|a| serde_json::to_string(a).expect("JSON values serialize"))
            .unwrap_or_default();
        let line = format!("{}\t{}\t{}\n", q.question, e.status, answer);
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

//! Table V predictions are derived on demand from the per-pair scores that
//! scene-graph generation keeps. The derived list must be exactly the
//! eager ranking: every (ordered pair, predicate) triple, sorted by
//! descending score with ties in generation order, with bit-identical
//! scores. The checksums were taken from the eager implementation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use svqa_vision::detector::DetectorConfig;
use svqa_vision::eval::RelationPrediction;
use svqa_vision::prior::PairPrior;
use svqa_vision::relation::RELATION_VOCAB;
use svqa_vision::scene::{SceneBuilder, SyntheticImage};
use svqa_vision::sgg::{SceneGraphGenerator, SceneGraphOutput, SggConfig};

fn predictions(out: &SceneGraphOutput) -> Vec<RelationPrediction> {
    out.predictions()
}

/// A corpus with a skewed relation mix, so the fitted prior is far from
/// uniform and unseen supertype pairs fall back to the marginal.
fn corpus() -> Vec<SyntheticImage> {
    let mut rng = StdRng::seed_from_u64(4242);
    (0..40u32)
        .map(|id| {
            let mut b = SceneBuilder::new(id, &mut rng);
            let man = b.add_object("man");
            let dog = b.add_object("dog");
            let grass = b.add_object("grass");
            let hat = b.add_object("hat");
            let car = b.add_object("car");
            b.relate(dog, "on", grass);
            b.relate(man, "wearing", hat);
            b.relate(man, "watching", dog);
            if id % 3 == 0 {
                b.relate(car, "near", man);
            }
            b.build()
        })
        .collect()
}

/// FNV-1a over every prediction's `(sub, obj, relation, score bits)`.
fn checksum(preds: &[RelationPrediction]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in preds {
        for word in [
            p.sub as u64,
            p.obj as u64,
            p.relation as u64,
            p.score.to_bits(),
        ] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn run(config: SggConfig) -> (usize, u64) {
    let images = corpus();
    let sgg = SceneGraphGenerator::new(config, PairPrior::fit(&images));
    let mut total = 0;
    let mut h: u64 = 0;
    for img in &images {
        let out = sgg.generate(img);
        let preds = predictions(&out);
        let n = out.detections.len();
        assert_eq!(preds.len(), n * n.saturating_sub(1) * RELATION_VOCAB.len());
        for w in preds.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        total += preds.len();
        h = h.rotate_left(7) ^ checksum(&preds);
    }
    (total, h)
}

#[test]
fn tde_predictions_match_the_eager_ranking() {
    assert_eq!(run(SggConfig::default()), (11340, 0x7e0a_14f0_1fb8_1cdf));
}

#[test]
fn original_predictions_match_the_eager_ranking() {
    let config = SggConfig {
        use_tde: false,
        ..SggConfig::default()
    };
    assert_eq!(run(config), (11340, 0xb5a0_a541_8ea6_cb2d));
}

#[test]
fn oracle_predictions_match_the_eager_ranking() {
    let config = SggConfig {
        detector: DetectorConfig::oracle(),
        ..SggConfig::default()
    };
    assert_eq!(run(config), (12000, 0x9d20_55d4_46ab_441a));
}

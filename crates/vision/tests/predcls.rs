//! PredCls vs SGDet: with oracle detections (the PredCls protocol), mean
//! recall must not be worse than with the noisy detector (SGDet), since
//! the only remaining error source is the relation model.

use svqa_vision::detector::DetectorConfig;
use svqa_vision::eval::RecallAccumulator;
use svqa_vision::prior::PairPrior;
use svqa_vision::scene::SceneBuilder;
use svqa_vision::sgg::{SceneGraphGenerator, SggConfig};

fn scenes() -> Vec<svqa_vision::scene::SyntheticImage> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    (0..120u32)
        .map(|id| {
            let mut b = SceneBuilder::new(id, &mut rng);
            let person = b.add_object("man");
            let dog = b.add_object("dog");
            let grass = b.add_object("grass");
            let hat = b.add_object("hat");
            b.relate(dog, "on", grass);
            b.relate(person, "standing on", grass);
            b.relate(person, "wearing", hat);
            b.relate(person, "watching", dog);
            b.build()
        })
        .collect()
}

fn mr20(config: SggConfig, images: &[svqa_vision::scene::SyntheticImage]) -> f64 {
    let prior = PairPrior::fit(images);
    let sgg = SceneGraphGenerator::new(config, prior);
    let mut acc = RecallAccumulator::exact();
    for img in images {
        let out = sgg.generate(img);
        acc.add_image(img, &out.detections, &out.predictions(), 20);
    }
    acc.mean_recall()
}

#[test]
fn oracle_detection_does_not_hurt_recall() {
    let images = scenes();
    let sgdet = mr20(SggConfig::default(), &images);
    let predcls = mr20(
        SggConfig {
            detector: DetectorConfig::oracle(),
            ..SggConfig::default()
        },
        &images,
    );
    assert!(
        predcls + 0.02 >= sgdet,
        "PredCls {predcls} should be at least SGDet {sgdet}"
    );
    assert!(predcls > 0.2, "PredCls mR@20 too low: {predcls}");
}

#[test]
fn oracle_detector_sees_every_object() {
    use rand::SeedableRng;
    let images = scenes();
    let det = svqa_vision::detector::Detector::new(DetectorConfig::oracle());
    for img in &images {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = det.detect(img, &mut rng);
        assert_eq!(ds.len(), img.objects.len());
        assert!(ds.iter().all(|d| d.gt_index.is_some()));
        for (d, o) in ds.iter().zip(&img.objects) {
            assert_eq!(d.label, *o.scene_label());
            assert_eq!(d.bbox, o.bbox);
        }
    }
}

//! Property-based tests for the vision substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use svqa_vision::bbox::BBox;
use svqa_vision::detector::{Detector, DetectorConfig};
use svqa_vision::prior::PairPrior;
use svqa_vision::relation::{geometric_evidence_boxes, RELATION_VOCAB};
use svqa_vision::scene::{SceneBuilder, CATEGORIES};
use svqa_vision::sgg::{SceneGraphGenerator, SggConfig};

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (0.0f64..0.8, 0.0f64..0.8, 0.01f64..0.3, 0.01f64..0.3)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, w, h))
}

proptest! {
    // ---------------- BBox geometry ----------------
    #[test]
    fn iou_is_symmetric_and_bounded(a in arb_bbox(), b in arb_bbox()) {
        let i1 = a.iou(&b);
        let i2 = b.iou(&a);
        prop_assert!((i1 - i2).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&i1));
    }

    #[test]
    fn self_iou_is_one(a in arb_bbox()) {
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intersection_bounded_by_smaller_area(a in arb_bbox(), b in arb_bbox()) {
        let inter = a.intersection_area(&b);
        prop_assert!(inter <= a.area() + 1e-12);
        prop_assert!(inter <= b.area() + 1e-12);
        prop_assert!(inter >= 0.0);
    }

    #[test]
    fn containment_is_a_fraction(a in arb_bbox(), b in arb_bbox()) {
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a.containment_in(&b)));
    }

    // ---------------- Evidence functions ----------------
    #[test]
    fn geometric_evidence_is_bounded(
        a in arb_bbox(), b in arb_bbox(),
        da in 0.0f64..1.0, db in 0.0f64..1.0,
    ) {
        let ev = geometric_evidence_boxes(a, da, b, db);
        prop_assert_eq!(ev.len(), RELATION_VOCAB.len());
        for (&e, name) in ev.iter().zip(RELATION_VOCAB) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&e), "{name} = {e}");
            prop_assert!(e.is_finite());
        }
    }

    // ---------------- Scene building ----------------
    #[test]
    fn scenes_keep_boxes_in_frame(seed in 0u64..500, cat1 in 0usize..20, cat2 in 0usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SceneBuilder::new(0, &mut rng);
        let a = b.add_object(CATEGORIES[cat1 % CATEGORIES.len()].0);
        let t = b.add_object(CATEGORIES[cat2 % CATEGORIES.len()].0);
        for pred in ["on", "in", "near", "behind", "in front of", "under",
                     "wearing", "holding", "riding", "jumping over", "watching"] {
            b.relate(a, pred, t);
        }
        let img = b.build();
        for o in &img.objects {
            prop_assert!(o.bbox.x >= -1e-9 && o.bbox.y >= -1e-9);
            prop_assert!(o.bbox.right() <= 1.0 + 1e-9);
            prop_assert!(o.bbox.bottom() <= 1.0 + 1e-9);
            prop_assert!((0.0..=1.0).contains(&o.depth));
        }
    }

    #[test]
    fn declared_relations_survive_into_ground_truth(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SceneBuilder::new(0, &mut rng);
        let dog = b.add_object("dog");
        let grass = b.add_object("grass");
        b.relate(dog, "on", grass);
        let img = b.build();
        prop_assert!(img.relations.iter().any(|r| r.sub == dog && r.obj == grass && !r.emergent));
        // Emergent relations never duplicate a declared pair.
        for r in img.relations.iter().filter(|r| r.emergent) {
            prop_assert!(!img.relations.iter().any(|d| !d.emergent && d.sub == r.sub && d.obj == r.obj));
        }
    }

    // ---------------- Detector channel ----------------
    #[test]
    fn detection_count_bounded_by_objects_plus_ghosts(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SceneBuilder::new(0, &mut rng);
        let a = b.add_object("dog");
        let t = b.add_object("grass");
        b.relate(a, "on", t);
        let img = b.build();
        let det = Detector::new(DetectorConfig::default());
        let ds = det.detect(&img, &mut rng);
        let real = ds.iter().filter(|d| d.gt_index.is_some()).count();
        prop_assert!(real <= img.objects.len());
        for d in &ds {
            prop_assert!((0.5..1.0).contains(&d.score));
            if let Some(gi) = d.gt_index {
                prop_assert!(gi < img.objects.len());
            }
        }
    }

    // ---------------- SGG output invariants ----------------
    #[test]
    fn scene_graph_predictions_are_sorted_and_complete(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SceneBuilder::new(seed as u32, &mut rng);
        let dog = b.add_object("dog");
        let grass = b.add_object("grass");
        let man = b.add_object("man");
        b.relate(dog, "on", grass);
        b.relate(man, "watching", dog);
        let img = b.build();
        let sgg = SceneGraphGenerator::new(SggConfig::default(), PairPrior::uniform());
        let out = sgg.generate(&img);
        let n = out.detections.len();
        let predictions = out.predictions();
        prop_assert_eq!(predictions.len(), n * n.saturating_sub(1) * RELATION_VOCAB.len());
        for w in predictions.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        out.graph.validate().unwrap();
        // At most one edge per ordered detection pair.
        let mut pairs = std::collections::HashSet::new();
        for (_, e) in out.graph.edges() {
            prop_assert!(pairs.insert((e.src(), e.dst())), "duplicate pair edge");
        }
    }
}

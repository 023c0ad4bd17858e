//! Scene-graph evaluation: Mean Recall@K.
//!
//! Exp-3 (Table V) scores SGG with mR@20/50/100: for each image, take the
//! top-K scored triple predictions; per relation class, recall is the
//! fraction of ground-truth triples of that class recovered; mR@K is the
//! mean over classes (this is the metric that exposes bias — a model that
//! only ever predicts "near" has high plain recall but terrible *mean*
//! recall).

use crate::detector::Detection;
use crate::relation::{relation_index, RELATION_VOCAB};
use crate::scene::SyntheticImage;
use serde::{Deserialize, Serialize};

/// A scored triple prediction over detection indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationPrediction {
    /// Subject detection index.
    pub sub: usize,
    /// Object detection index.
    pub obj: usize,
    /// Relation index into [`RELATION_VOCAB`].
    pub relation: usize,
    /// Prediction score (higher = more confident).
    pub score: f64,
}

/// Per-class recall tallies accumulated across images.
#[derive(Debug, Clone, Default)]
pub struct RecallAccumulator {
    /// `(recovered, total)` ground-truth triples per relation class.
    per_class: Vec<(usize, usize)>,
    /// Whether predicate alias groups count as matches (pipeline-style) or
    /// only exact classes (strict SGG benchmarking — Table V).
    exact: bool,
}

impl RecallAccumulator {
    /// Fresh accumulator with alias-group matching.
    pub fn new() -> Self {
        RecallAccumulator {
            per_class: vec![(0, 0); RELATION_VOCAB.len()],
            exact: false,
        }
    }

    /// Strict accumulator: only the exact predicate class counts (the
    /// regime of the paper's Table V, where the 50-class benchmark gives no
    /// alias credit).
    pub fn exact() -> Self {
        RecallAccumulator {
            per_class: vec![(0, 0); RELATION_VOCAB.len()],
            exact: true,
        }
    }

    /// Score one image's predictions (sorted descending; only the top `k`
    /// are considered) against its ground truth.
    pub fn add_image(
        &mut self,
        image: &SyntheticImage,
        detections: &[Detection],
        predictions: &[RelationPrediction],
        k: usize,
    ) {
        let top_k = &predictions[..predictions.len().min(k)];
        for gt in &image.relations {
            let Some(class) = relation_index(&gt.pred) else {
                continue;
            };
            self.per_class[class].1 += 1;
            // Aliased contact predicates count for each other: "sitting on"
            // ground truth is recovered by an "on" prediction and vice
            // versa (standard predicate-cluster matching in SGG evals).
            let recovered = top_k.iter().any(|p| {
                detections.get(p.sub).and_then(|d| d.gt_index) == Some(gt.sub)
                    && detections.get(p.obj).and_then(|d| d.gt_index) == Some(gt.obj)
                    && if self.exact {
                        p.relation == class
                    } else {
                        predicates_match(p.relation, class)
                    }
            });
            if recovered {
                self.per_class[class].0 += 1;
            }
        }
    }

    /// Mean recall over the classes that appeared in ground truth.
    pub fn mean_recall(&self) -> f64 {
        let mut sum = 0.0;
        let mut classes = 0usize;
        for &(hit, total) in &self.per_class {
            if total > 0 {
                sum += hit as f64 / total as f64;
                classes += 1;
            }
        }
        if classes == 0 {
            0.0
        } else {
            sum / classes as f64
        }
    }
}

/// Contact-predicate clusters considered equivalent at eval time (shared
/// with the rest of the pipeline via [`crate::relation::ALIAS_GROUPS`]).
fn predicates_match(predicted: usize, gold: usize) -> bool {
    crate::relation::predicates_aliased(RELATION_VOCAB[predicted], RELATION_VOCAB[gold])
}

/// Convenience wrapper: mR@K over a corpus for one generator output stream.
pub fn mean_recall_at_k<'a>(
    items: impl IntoIterator<Item = (&'a SyntheticImage, &'a [Detection], &'a [RelationPrediction])>,
    k: usize,
) -> f64 {
    let mut acc = RecallAccumulator::new();
    for (img, dets, preds) in items {
        acc.add_image(img, dets, preds, k);
    }
    acc.mean_recall()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;
    use crate::feature::FeatureMap;
    use crate::scene::{GroundTruthRelation, SceneObject};

    fn obj(cat: &str) -> SceneObject {
        SceneObject {
            category: cat.to_owned(),
            bbox: BBox::new(0.1, 0.1, 0.2, 0.2),
            depth: 0.5,
            entity: None,
            attributes: Vec::new(),
        }
    }

    fn det(gt: usize) -> Detection {
        Detection {
            bbox: BBox::new(0.1, 0.1, 0.2, 0.2),
            features: FeatureMap::masked(),
            label: "dog".to_owned(),
            score: 1.0,
            gt_index: Some(gt),
        }
    }

    fn image_with(pred: &str) -> SyntheticImage {
        SyntheticImage {
            id: 0,
            objects: vec![obj("dog"), obj("grass")],
            relations: vec![GroundTruthRelation {
                sub: 0,
                pred: pred.to_owned(),
                obj: 1,
                emergent: false,
            }],
            caption: String::new(),
        }
    }

    #[test]
    fn perfect_prediction_gives_full_recall() {
        let img = image_with("on");
        let dets = vec![det(0), det(1)];
        let preds = vec![RelationPrediction {
            sub: 0,
            obj: 1,
            relation: relation_index("on").unwrap(),
            score: 0.9,
        }];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 20);
        assert_eq!(acc.mean_recall(), 1.0);
    }

    #[test]
    fn wrong_relation_gives_zero() {
        let img = image_with("on");
        let dets = vec![det(0), det(1)];
        let preds = vec![RelationPrediction {
            sub: 0,
            obj: 1,
            relation: relation_index("behind").unwrap(),
            score: 0.9,
        }];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 20);
        assert_eq!(acc.mean_recall(), 0.0);
    }

    #[test]
    fn k_truncation_applies() {
        let img = image_with("on");
        let dets = vec![det(0), det(1)];
        let preds = vec![
            RelationPrediction {
                sub: 1,
                obj: 0,
                relation: relation_index("near").unwrap(),
                score: 0.95,
            },
            RelationPrediction {
                sub: 0,
                obj: 1,
                relation: relation_index("on").unwrap(),
                score: 0.9,
            },
        ];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 1);
        assert_eq!(acc.mean_recall(), 0.0);
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 2);
        assert_eq!(acc.mean_recall(), 1.0);
    }

    #[test]
    fn contact_cluster_aliases_count() {
        let img = image_with("sitting on");
        let dets = vec![det(0), det(1)];
        let preds = vec![RelationPrediction {
            sub: 0,
            obj: 1,
            relation: relation_index("on").unwrap(),
            score: 0.9,
        }];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 20);
        assert_eq!(acc.mean_recall(), 1.0);
    }

    #[test]
    fn mean_is_over_classes_not_triples() {
        // 10 "near" triples recovered, 1 "wearing" missed → mean = 0.5, not
        // 10/11.
        let mut img = image_with("near");
        img.relations = Vec::new();
        for _ in 0..10 {
            img.relations.push(GroundTruthRelation {
                sub: 0,
                pred: "near".into(),
                obj: 1,
                emergent: false,
            });
        }
        img.relations.push(GroundTruthRelation {
            sub: 1,
            pred: "wearing".into(),
            obj: 0,
            emergent: false,
        });
        let dets = vec![det(0), det(1)];
        let preds = vec![RelationPrediction {
            sub: 0,
            obj: 1,
            relation: relation_index("near").unwrap(),
            score: 0.9,
        }];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 20);
        assert!((acc.mean_recall() - 0.5).abs() < 1e-12);
        let classes = acc.per_class.iter().filter(|(_, total)| *total > 0).count();
        assert_eq!(classes, 2);
    }

    #[test]
    fn missed_detection_blocks_recovery() {
        let img = image_with("on");
        // Only the subject was detected.
        let dets = vec![det(0)];
        let preds = vec![RelationPrediction {
            sub: 0,
            obj: 1, // out of range — no such detection
            relation: relation_index("on").unwrap(),
            score: 0.9,
        }];
        let mut acc = RecallAccumulator::new();
        acc.add_image(&img, &dets, &preds, 20);
        assert_eq!(acc.mean_recall(), 0.0);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(RecallAccumulator::new().mean_recall(), 0.0);
        assert_eq!(mean_recall_at_k(std::iter::empty(), 20), 0.0);
    }
}

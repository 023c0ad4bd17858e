//! Relation (linkage) prediction — the MOTIFNET stand-in.
//!
//! Implements §III-A "Linkage Generation" faithfully:
//!
//! * Eq. (1): `{(b_i, m_i, l_i), (b_j, m_j, l_j)} → {p_rij}` — the relation
//!   probability is a blend of *feature evidence* (geometric compatibility
//!   decoded from the feature maps) and the *label-pair prior* (the
//!   training bias);
//! * Eq. (2): the same pass with `Mask(m)` zero feature maps — the evidence
//!   term vanishes and only the prior survives;
//! * Eq. (3): `r_ij = argmax(p_rij − p′_rij)` — the Total Direct Effect,
//!   which strips the bias and recovers the explicit predicate.

use crate::bbox::BBox;
use crate::feature::{decode_bbox, FeatureMap};
use crate::lookup::NameTable;
use crate::prior::PairPrior;
use crate::scene::{supertype_id, SUPERTYPES};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Number of predicates in [`RELATION_VOCAB`].
pub const RELATION_COUNT: usize = 15;

/// One score per predicate, indexed like [`RELATION_VOCAB`].
pub type RelationScores = [f64; RELATION_COUNT];

/// The relation vocabulary (scene-graph predicates).
pub const RELATION_VOCAB: &[&str; RELATION_COUNT] = &[
    "on",
    "in",
    "near",
    "behind",
    "in front of",
    "under",
    "holding",
    "wearing",
    "riding",
    "carrying",
    "watching",
    "sitting on",
    "standing on",
    "looking at",
    "jumping over",
];

/// Index of a predicate in [`RELATION_VOCAB`], from a table built once.
pub fn relation_index(pred: &str) -> Option<usize> {
    static TABLE: OnceLock<NameTable> = OnceLock::new();
    TABLE
        .get_or_init(|| NameTable::new(RELATION_VOCAB.iter().copied()))
        .get(pred)
}

/// Predicate equivalence classes. Some predicates are geometrically
/// indistinguishable ("on" / "sitting on" / "standing on"; "holding" /
/// "carrying"; "watching" / "looking at") — standard SGG practice treats
/// them as aliases at evaluation time, and the reproduction applies the
/// same equivalence end-to-end (SGG eval, ground-truth answering, and the
/// executor's predicate matching all agree).
pub const ALIAS_GROUPS: &[&[&str]] = &[
    &["on", "sitting on", "standing on"],
    &["holding", "carrying"],
    &["watching", "looking at"],
];

/// Whether two predicates are equal or aliases of each other.
pub fn predicates_aliased(a: &str, b: &str) -> bool {
    a == b
        || ALIAS_GROUPS
            .iter()
            .any(|g| g.contains(&a) && g.contains(&b))
}

/// Parameters of the simulated relation model. The three SGG frameworks of
/// Table V are three parameterisations (see [`crate::sgg::SggModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelationModelParams {
    /// Weight of the feature-evidence term — how well the model reads
    /// geometry out of the feature maps.
    pub fidelity: f64,
    /// Weight of the label-pair prior term — the strength of the training
    /// bias baked into the model.
    pub prior_weight: f64,
    /// Amplitude of per-pair prediction noise.
    pub noise: f64,
}

/// What the relation model reads from one detection — its decoded box and
/// depth, whether its feature map is masked, and the supertype of its
/// label — resolved once per detection rather than once per pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PairOperand {
    bbox: BBox,
    depth: f64,
    masked: bool,
    supertype: usize,
}

impl PairOperand {
    /// Decode a region's feature map and resolve its label's supertype.
    pub(crate) fn new(features: &FeatureMap, label: &str) -> Self {
        PairOperand {
            bbox: features.bbox(),
            depth: features.depth(),
            masked: features.is_masked(),
            supertype: supertype_id(label),
        }
    }

    /// The operand of a map whose geometry dims are `geometry`, as
    /// [`new`](Self::new) decodes them, with the map's mask state and the
    /// label's supertype already known.
    pub(crate) fn decoded(geometry: &[f32], masked: bool, supertype: usize) -> Self {
        PairOperand {
            bbox: decode_bbox(geometry),
            depth: f64::from(geometry[4]),
            masked,
            supertype,
        }
    }
}

/// The feature evidence of an ordered operand pair: none when either map
/// is masked (Eq. (2)).
fn operand_evidence(sub: &PairOperand, obj: &PairOperand) -> RelationScores {
    if sub.masked || obj.masked {
        [0.0; RELATION_COUNT]
    } else {
        geometric_evidence_boxes(sub.bbox, sub.depth, obj.bbox, obj.depth)
    }
}

/// The feature evidence of every ordered pair of `operands`, row-major
/// (`out[i * n + j]` for `i ≠ j`; the diagonal holds zeros). Each
/// unordered pair's symmetric terms are computed once for both orders.
pub(crate) fn evidence_matrix(operands: &[PairOperand], out: &mut Vec<RelationScores>) {
    let n = operands.len();
    out.clear();
    out.resize(n * n, [0.0; RELATION_COUNT]);
    for (i, a) in operands.iter().enumerate() {
        for (j, b) in operands.iter().enumerate().skip(i + 1) {
            if a.masked || b.masked {
                continue;
            }
            let terms = PairTerms::new(a.bbox, a.depth, b.bbox, b.depth);
            out[i * n + j] = terms.directed(a.bbox, b.bbox);
            out[j * n + i] = terms.flipped().directed(b.bbox, a.bbox);
        }
    }
}

/// The relation predictor.
#[derive(Debug, Clone)]
pub struct RelationPredictor {
    params: RelationModelParams,
    /// The fitted prior as a dense supertype × supertype table (row-major
    /// over [`SUPERTYPES`]), so a pair's prior is one index, not a lookup.
    prior_table: Vec<PriorRow>,
}

/// One supertype pair's share of the raw scores, weighted once when the
/// predictor is built: `prior_weight · prior`, and the whole noiseless
/// score of a masked pass, `fidelity · 0 + prior_weight · prior`. Each is
/// the same expression the per-pair sum would evaluate, so the sums that
/// start from them are bit for bit the same.
#[derive(Debug, Clone)]
struct PriorRow {
    weighted: RelationScores,
    masked: RelationScores,
}

impl RelationPredictor {
    /// Build a predictor from model parameters and a fitted prior.
    pub fn new(params: RelationModelParams, prior: PairPrior) -> Self {
        let n = SUPERTYPES.len();
        let prior_table = (0..n)
            .flat_map(|sub| (0..n).map(move |obj| (sub, obj)))
            .map(|(sub, obj)| {
                let prior = prior.supertype_distribution(sub, obj);
                let weighted = std::array::from_fn(|r| params.prior_weight * prior[r]);
                PriorRow {
                    weighted,
                    masked: weighted.map(|w| params.fidelity * 0.0 + w),
                }
            })
            .collect();
        RelationPredictor {
            params,
            prior_table,
        }
    }

    /// Model parameters.
    pub fn params(&self) -> &RelationModelParams {
        &self.params
    }

    /// Raw (pre-softmax) relation scores for an ordered pair — the "logit"
    /// space in which real TDE implementations take the Eq. (3) difference.
    /// Pass [`FeatureMap::masked`] maps to obtain the Eq. (2) biased pass.
    pub fn predict_raw(
        &self,
        sub_features: &FeatureMap,
        sub_label: &str,
        obj_features: &FeatureMap,
        obj_label: &str,
        rng: &mut StdRng,
    ) -> RelationScores {
        let (sub, obj) = (
            PairOperand::new(sub_features, sub_label),
            PairOperand::new(obj_features, obj_label),
        );
        self.raw_scores(
            &operand_evidence(&sub, &obj),
            self.prior_row(&sub, &obj),
            rng,
        )
    }

    /// The prior terms of an ordered operand pair.
    fn prior_row(&self, sub: &PairOperand, obj: &PairOperand) -> &PriorRow {
        &self.prior_table[sub.supertype * SUPERTYPES.len() + obj.supertype]
    }

    /// [`predict_raw`](Self::predict_raw) on resolved operands, given
    /// their feature evidence and prior terms: evidence plus label prior
    /// plus one noise draw per predicate, in vocabulary order.
    fn raw_scores(
        &self,
        evidence: &RelationScores,
        prior: &PriorRow,
        rng: &mut StdRng,
    ) -> RelationScores {
        let mut scores = [0.0; RELATION_COUNT];
        for (r, score) in scores.iter_mut().enumerate() {
            *score = self.params.fidelity * evidence[r]
                + prior.weighted[r]
                + self.params.noise * rng.gen::<f64>();
        }
        scores
    }

    /// [`raw_scores`](Self::raw_scores) of the masked pass (Eq. (2)),
    /// whose evidence is all zeros.
    fn masked_scores(&self, prior: &PriorRow, rng: &mut StdRng) -> RelationScores {
        let mut scores = [0.0; RELATION_COUNT];
        for (r, score) in scores.iter_mut().enumerate() {
            *score = prior.masked[r] + self.params.noise * rng.gen::<f64>();
        }
        scores
    }

    /// Eq. (1) / Eq. (2): the normalized relation distribution `p_rij`.
    pub fn predict(
        &self,
        sub_features: &FeatureMap,
        sub_label: &str,
        obj_features: &FeatureMap,
        obj_label: &str,
        rng: &mut StdRng,
    ) -> RelationScores {
        let mut scores = self.predict_raw(sub_features, sub_label, obj_features, obj_label, rng);
        let sum: f64 = scores.iter().sum();
        if sum > 0.0 {
            for s in &mut scores {
                *s /= sum;
            }
        }
        scores
    }

    /// The scores scene-graph generation ranks for one ordered pair whose
    /// feature evidence is `evidence` (see [`evidence_matrix`]): Eq. (3)'s
    /// Total-Direct-Effect difference `p − p′` when `use_tde`, otherwise
    /// the biased Eq. (1) scores alone. Both are taken in raw score space
    /// (subtracting *normalized* distributions with different normalizers
    /// would over-subtract exactly the prior-dominant relations TDE is
    /// meant to recover; the raw Eq. (1) argmax equals the normalized
    /// one).
    pub(crate) fn pair_scores(
        &self,
        evidence: &RelationScores,
        sub: &PairOperand,
        obj: &PairOperand,
        use_tde: bool,
        rng: &mut StdRng,
    ) -> RelationScores {
        let prior = self.prior_row(sub, obj);
        let p = self.raw_scores(evidence, prior, rng);
        if !use_tde {
            return p;
        }
        // Masked maps: no feature evidence, the same label prior.
        let p_prime = self.masked_scores(prior, rng);
        std::array::from_fn(|r| p[r] - p_prime[r])
    }
}

/// Geometric compatibility of each predicate for an ordered region pair,
/// from its boxes and depths. Values in `[0, 1]`. Used both by the relation
/// model (on the geometry decoded from feature maps) and by the scene
/// generator to derive the *emergent* ground-truth relations implied by
/// final object placement.
pub fn geometric_evidence_boxes(sb: BBox, sd: f64, ob: BBox, od: f64) -> RelationScores {
    PairTerms::new(sb, sd, ob, od).directed(sb, ob)
}

// How the evidence is evaluated. Each predicate's score is a product of
// factors, every one finite, and all but a few "1 − x" factors
// non-negative (a containment read from rounded box edges can exceed 1 by
// an ulp). When a factor is exactly zero the product is a zero whose sign
// is the product of the factors' signs, and the gaussians and smooth steps
// (`exp`-based, never negative) cannot change it: such a product is
// computed from its other sign-carrying factors alone, with no `exp`.
// Every other product is computed factor for factor, in the original
// order. The terms symmetric in the pair (center distance, edge gap,
// x-overlap, the gaussians of the depth gap, and the occlusion pair
// behind(s, o) = in front of(o, s)) are computed once per unordered pair:
// swapping the boxes negates the coordinate differences they square or
// compare, which IEEE arithmetic does exactly, and `min`/`max` over box
// edges are symmetric for the (never negative-zero) coordinates boxes
// hold.

/// The evidence terms shared by both orders of a region pair, oriented
/// subject → object.
#[derive(Debug, Clone, Copy)]
struct PairTerms {
    /// Subject depth minus object depth.
    depth_gap: f64,
    /// Horizontal overlap over the narrower width (symmetric).
    x_overlap_frac: f64,
    /// `(1 − x_overlap_frac).max(0)`: how far the pair sits side by side.
    side_by_side: f64,
    /// Edge-gap and depth gaussians of "near" and "watching"; only when
    /// `side_by_side` is non-zero.
    near_gap: f64,
    near_depth: f64,
    watch_gap: f64,
    watch_depth: f64,
    /// `gauss(depth_gap, 0.1)`, when `x_overlap_frac` is non-zero.
    same_depth: Option<f64>,
    /// "behind" and "in front of" for this orientation.
    behind: f64,
    in_front: f64,
}

impl PairTerms {
    fn new(sb: BBox, sd: f64, ob: BBox, od: f64) -> Self {
        // Edge-to-edge gap: adjacency for big regions is about separation
        // between box edges, not centers.
        let dx = (sb.x.max(ob.x) - sb.right().min(ob.right())).max(0.0);
        let dy = (sb.y.max(ob.y) - sb.bottom().min(ob.bottom())).max(0.0);
        let gap = (dx * dx + dy * dy).sqrt();
        let x_overlap_frac = if sb.w.min(ob.w) > 0.0 {
            sb.x_overlap(&ob) / sb.w.min(ob.w)
        } else {
            0.0
        };
        let depth_gap = sd - od;
        let side_by_side = (1.0 - x_overlap_frac).max(0.0);
        let mut terms = PairTerms {
            depth_gap,
            x_overlap_frac,
            side_by_side,
            near_gap: 0.0,
            near_depth: 0.0,
            watch_gap: 0.0,
            watch_depth: 0.0,
            same_depth: None,
            behind: x_overlap_frac,
            in_front: x_overlap_frac,
        };
        if side_by_side != 0.0 {
            terms.near_gap = gauss(gap, 0.05);
            terms.near_depth = gauss(depth_gap, 0.15);
            terms.watch_gap = gauss(gap - 0.2, 0.09);
            terms.watch_depth = gauss(depth_gap, 0.2);
        }
        if x_overlap_frac != 0.0 {
            terms.same_depth = Some(gauss(depth_gap, 0.1));
            // Occlusion-order predicates need a clear depth gap *and*
            // line-of-sight alignment (x-overlap) — depth alone would
            // relate every pair of objects at different distances.
            let aligned = gauss(sb.center_distance(&ob), 0.35);
            terms.behind = gauss_above(depth_gap - 0.15, 0.07) * x_overlap_frac * aligned;
            terms.in_front = gauss_above(-depth_gap - 0.15, 0.07) * x_overlap_frac * aligned;
        }
        terms
    }

    /// The same terms for the pair read object → subject.
    fn flipped(self) -> Self {
        PairTerms {
            depth_gap: -self.depth_gap,
            behind: self.in_front,
            in_front: self.behind,
            ..self
        }
    }

    /// The evidence vector of subject box `sb` and object box `ob`, the
    /// pair these terms were oriented for.
    fn directed(&self, sb: BBox, ob: BBox) -> RelationScores {
        let x_overlap_frac = self.x_overlap_frac;
        let side_by_side = self.side_by_side;
        let containment = sb.containment_in(&ob);
        let rev_containment = ob.containment_in(&sb);
        let size_ratio = sb.area() / (ob.area() + 1e-9);
        let obj_overlap = ob.intersection_area(&sb) / (ob.area() + 1e-9);

        // Vertical contact: subject bottom at object top.
        let on = if x_overlap_frac == 0.0 {
            x_overlap_frac
        } else {
            gauss(sb.bottom() - ob.y, 0.04) * x_overlap_frac
        };
        // Containment reads as "in" only at matching depth (a region
        // overlapped by something *behind* it is occlusion, not
        // containment) and unless the subject dwarfs the object.
        let inn = if containment == 0.0 {
            containment
        } else {
            let same_depth = self
                .same_depth
                .unwrap_or_else(|| gauss(self.depth_gap, 0.1));
            containment * same_depth * (1.0 - gauss_above(size_ratio - 1.5, 0.5))
        };
        // Adjacency at touching distance; attention ("watching") lives at
        // a characteristic standoff distance instead, and overlapping
        // regions are grips/garments, not neighbours. Neighbours sit side
        // by side: horizontal separation with vertical range overlap.
        // Vertically stacked pairs (x-overlapping) are "on"/"under", not
        // "near".
        let near = if side_by_side == 0.0 {
            side_by_side * (1.0 - containment) * (1.0 - obj_overlap) * (1.0 - obj_overlap)
        } else {
            self.near_gap
                * side_by_side
                * (1.0 - containment)
                * (1.0 - obj_overlap)
                * (1.0 - obj_overlap)
                * self.near_depth
        };
        // Subject below object.
        let under = if x_overlap_frac == 0.0 {
            x_overlap_frac
        } else {
            gauss(sb.y - ob.bottom(), 0.06) * x_overlap_frac
        };
        // Holding/carrying: a small object overlapping the subject's mid
        // region at its *side* (where hands/mouths are); wearing: a
        // garment centred on the subject's frame. The horizontal offset is
        // the main discriminator between the two.
        let grip = rev_containment.max(obj_overlap);
        let (holding, wearing) = if grip == 0.0 {
            // A zero grip means a zero reverse containment as well.
            (grip, rev_containment)
        } else {
            // ≈1 when the subject region dwarfs the object region (a
            // person holding a cup), ≈0 the other way around.
            let subject_dominates = gauss_above(size_ratio - 1.0, 1.0);
            let (ocx, ocy) = ob.center();
            let side_offset = (ocx - sb.right()) / (sb.w + 1e-9);
            let holding = grip
                * subject_dominates
                * gauss((ocy - (sb.y + sb.h * 0.5)) / (sb.h + 1e-9), 0.25)
                * gauss(side_offset, 0.35);
            let wearing = if rev_containment == 0.0 {
                rev_containment
            } else {
                let center_offset = (ocx - sb.center().0) / (sb.w + 1e-9);
                rev_containment
                    * subject_dominates
                    * gauss((ocy - (sb.y + sb.h * 0.3)) / (sb.h + 1e-9), 0.3)
                    * gauss(center_offset, 0.25)
            };
            (holding, wearing)
        };
        // Riding: subject overlapping the object's top, bottom inside it,
        // at the same depth (an occluding figure farther back is "behind",
        // not a rider). Jumping requires a clear air gap between the
        // subject's bottom and the object's top (contact means "on", not
        // "jumping over").
        let (riding, jumping_over) = match self.same_depth {
            Some(same_depth) if x_overlap_frac != 0.0 => (
                x_overlap_frac
                    * gauss(sb.bottom() - (ob.y + ob.h * 0.4), 0.12)
                    * gauss_above(ob.y - sb.y, 0.05)
                    * same_depth,
                x_overlap_frac * gauss(ob.y - sb.bottom() - 0.06, 0.035),
            ),
            _ => (x_overlap_frac, x_overlap_frac),
        };
        let watching = if side_by_side == 0.0 {
            side_by_side * (1.0 - containment) * (1.0 - rev_containment)
        } else {
            self.watch_gap
                * side_by_side
                * (1.0 - containment)
                * (1.0 - rev_containment)
                * self.watch_depth
        };

        [
            on,
            inn,
            near,
            self.behind,
            self.in_front,
            under,
            holding,
            wearing,
            riding,
            holding, // carrying
            watching,
            on,       // sitting on
            on,       // standing on
            watching, // looking at
            jumping_over,
        ]
    }
}

/// Gaussian bump centred at zero.
fn gauss(x: f64, sigma: f64) -> f64 {
    (-x * x / (2.0 * sigma * sigma)).exp()
}

/// Smooth step: ≈1 when `x ≫ 0`, ≈0 when `x ≪ 0`.
fn gauss_above(x: f64, sigma: f64) -> f64 {
    1.0 / (1.0 + (-x / sigma).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detection, Detector, DetectorConfig};
    use crate::scene::SceneBuilder;
    use rand::SeedableRng;

    fn perfect_detector() -> Detector {
        Detector::new(DetectorConfig {
            detect_prob: 1.0,
            confusion_prob: 0.0,
            bbox_jitter: 0.0,
            spurious_rate: 0.0,
        })
    }

    /// Build detections for a two-object scene with the given relation.
    fn pair_scene(sub_cat: &str, pred: &str, obj_cat: &str, seed: u64) -> (Detection, Detection) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SceneBuilder::new(0, &mut rng);
        let s = b.add_object(sub_cat);
        let o = b.add_object(obj_cat);
        b.relate(s, pred, o);
        let img = b.build();
        let ds = perfect_detector().detect(&img, &mut rng);
        let sub = ds.iter().find(|d| d.gt_index == Some(s)).unwrap().clone();
        let obj = ds.iter().find(|d| d.gt_index == Some(o)).unwrap().clone();
        (sub, obj)
    }

    #[test]
    fn vocabulary_lookup() {
        assert_eq!(relation_index("on"), Some(0));
        assert_eq!(relation_index("jumping over"), Some(14));
        assert_eq!(relation_index("unknown"), None);
    }

    #[test]
    fn geometric_evidence_favors_the_placed_relation() {
        // Seeds are tuned so each placement is geometrically unambiguous
        // (e.g. a "near" scene where the boxes don't accidentally overlap
        // into an "in" reading).
        for (pred, seed) in [("on", 1), ("in", 2), ("under", 3), ("near", 5)] {
            let (sub, obj) = pair_scene("dog", pred, "bench", seed);
            let (s, o) = (&sub.features, &obj.features);
            let ev = geometric_evidence_boxes(s.bbox(), s.depth(), o.bbox(), o.depth());
            let placed = ev[relation_index(pred).unwrap()];
            // The placed predicate must score in the top tier (some
            // predicates share evidence, e.g. on/sitting on).
            let max = ev.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                placed > 0.3 && placed >= max * 0.6,
                "{pred}: placed={placed:.3} max={max:.3} ev={ev:?}"
            );
        }
    }

    #[test]
    fn masked_features_kill_the_evidence() {
        let (sub, obj) = pair_scene("dog", "on", "grass", 7);
        let prior = PairPrior::uniform();
        let params = RelationModelParams {
            fidelity: 1.0,
            prior_weight: 1.0,
            noise: 0.0,
        };
        let model = RelationPredictor::new(params, prior);
        let mut rng = StdRng::seed_from_u64(1);
        let masked = FeatureMap::masked();
        let p_prime = model.predict(&masked, &sub.label, &masked, &obj.label, &mut rng);
        // Uniform prior + no evidence + no noise = uniform distribution.
        let expected = 1.0 / RELATION_VOCAB.len() as f64;
        for &p in &p_prime {
            assert!((p - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn tde_recovers_explicit_predicate_under_strong_bias() {
        // Reproduce Example 2: a biased prior says animal-near-scenery, but
        // the dog is ON the grass. Original argmax follows the bias, TDE
        // argmax recovers "on".
        let mut rng = StdRng::seed_from_u64(21);
        let mut train = Vec::new();
        for i in 0..50 {
            let mut b = SceneBuilder::new(i, &mut rng);
            let dog = b.add_object("dog");
            let grass = b.add_object("grass");
            b.relate(dog, "near", grass);
            train.push(b.build());
        }
        let prior = PairPrior::fit(&train);
        let params = RelationModelParams {
            fidelity: 0.5,
            prior_weight: 1.0,
            noise: 0.0,
        };
        let model = RelationPredictor::new(params, prior);
        let (sub, obj) = pair_scene("dog", "on", "grass", 8);

        let sub = PairOperand::new(&sub.features, &sub.label);
        let obj = PairOperand::new(&obj.features, &obj.label);
        let evidence = operand_evidence(&sub, &obj);
        let mut rng = StdRng::seed_from_u64(3);
        let p = model.pair_scores(&evidence, &sub, &obj, false, &mut rng);
        let original_argmax = argmax(&p);
        assert_eq!(
            RELATION_VOCAB[original_argmax], "near",
            "bias should win: {p:?}"
        );

        let mut rng = StdRng::seed_from_u64(3);
        let tde = model.pair_scores(&evidence, &sub, &obj, true, &mut rng);
        let tde_argmax = argmax(&tde);
        // on / sitting on / standing on share geometry; any of them counts
        // as recovering the explicit contact predicate.
        assert!(
            matches!(
                RELATION_VOCAB[tde_argmax],
                "on" | "sitting on" | "standing on"
            ),
            "TDE picked {} ({tde:?})",
            RELATION_VOCAB[tde_argmax]
        );
    }

    #[test]
    fn distributions_are_normalized() {
        let (sub, obj) = pair_scene("man", "near", "fence", 9);
        let model = RelationPredictor::new(
            RelationModelParams {
                fidelity: 0.8,
                prior_weight: 0.5,
                noise: 0.1,
            },
            PairPrior::uniform(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let p = model.predict(
            &sub.features,
            &sub.label,
            &obj.features,
            &obj.label,
            &mut rng,
        );
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn evidence_matrix_matches_each_ordered_pair_bit_for_bit() {
        // Boxes that overlap, nest, touch, repeat and stand apart, at
        // equal and different depths, plus one masked operand.
        let mut rng = StdRng::seed_from_u64(12);
        let mut operands: Vec<PairOperand> = (0..9)
            .map(|i| {
                let x = if i == 4 {
                    0.25
                } else {
                    rng.gen_range(0.0..0.7)
                };
                let bbox = BBox::new(x, rng.gen_range(0.0..0.7), 0.05 * i as f64, 0.25);
                PairOperand {
                    bbox,
                    depth: [0.3, 0.5][i % 2],
                    masked: false,
                    supertype: i % SUPERTYPES.len(),
                }
            })
            .collect();
        operands.push(operands[3]);
        operands.push(PairOperand {
            bbox: BBox::new(operands[2].bbox.right(), 0.1, 0.1, 0.1),
            ..operands[2]
        });
        operands.push(PairOperand {
            masked: true,
            ..operands[5]
        });
        let mut matrix = Vec::new();
        evidence_matrix(&operands, &mut matrix);
        let n = operands.len();
        for (i, a) in operands.iter().enumerate() {
            for (j, b) in operands.iter().enumerate().filter(|&(j, _)| j != i) {
                let want = operand_evidence(a, b).map(f64::to_bits);
                assert_eq!(matrix[i * n + j].map(f64::to_bits), want, "({i}, {j})");
            }
        }
    }

    fn argmax(xs: &[f64]) -> usize {
        xs.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }
}

//! `geometric_evidence_boxes` skips products with an exactly-zero factor,
//! computes each repeated term once and shares the terms that are
//! symmetric in the pair. None of that may change a single bit: the
//! function must equal, under `f64::to_bits`, the straightforward formula
//! kept below verbatim, on random pairs and on the degenerate ones the
//! shortcuts hinge on (zero-size boxes, identical boxes, full
//! containment, touching edges, no x-overlap at all).

use proptest::prelude::*;
use svqa_vision::bbox::BBox;
use svqa_vision::relation::{geometric_evidence_boxes, RelationScores};

/// The evidence formula as written before the shortcuts, term for term.
fn reference_evidence(sb: BBox, sd: f64, ob: BBox, od: f64) -> RelationScores {
    let dist = sb.center_distance(&ob);
    let dx = (sb.x.max(ob.x) - sb.right().min(ob.right())).max(0.0);
    let dy = (sb.y.max(ob.y) - sb.bottom().min(ob.bottom())).max(0.0);
    let gap = (dx * dx + dy * dy).sqrt();
    let x_overlap_frac = if sb.w.min(ob.w) > 0.0 {
        sb.x_overlap(&ob) / sb.w.min(ob.w)
    } else {
        0.0
    };
    let contact_top = gauss(sb.bottom() - ob.y, 0.04);
    let below = gauss(sb.y - ob.bottom(), 0.06);
    let containment = sb.containment_in(&ob);
    let rev_containment = ob.containment_in(&sb);
    let depth_gap = sd - od;
    let subject_dominates = gauss_above(sb.area() / (ob.area() + 1e-9) - 1.0, 1.0);
    let size_ratio = sb.area() / (ob.area() + 1e-9);

    let on = contact_top * x_overlap_frac;
    let inn = containment * gauss(depth_gap, 0.1) * (1.0 - gauss_above(size_ratio - 1.5, 0.5));
    let obj_overlap = ob.intersection_area(&sb) / (ob.area() + 1e-9);
    let near = gauss(gap, 0.05)
        * (1.0 - x_overlap_frac).max(0.0)
        * (1.0 - containment)
        * (1.0 - obj_overlap)
        * (1.0 - obj_overlap)
        * gauss(depth_gap, 0.15);
    let behind = gauss_above(depth_gap - 0.15, 0.07) * x_overlap_frac * gauss(dist, 0.35);
    let in_front = gauss_above(-depth_gap - 0.15, 0.07) * x_overlap_frac * gauss(dist, 0.35);
    let under = below * x_overlap_frac;
    let grip = ob.containment_in(&sb).max(obj_overlap);
    let side_offset = (ob.center().0 - sb.right()) / (sb.w + 1e-9);
    let center_offset = (ob.center().0 - sb.center().0) / (sb.w + 1e-9);
    let holding = grip
        * subject_dominates
        * gauss((ob.center().1 - (sb.y + sb.h * 0.5)) / (sb.h + 1e-9), 0.25)
        * gauss(side_offset, 0.35);
    let carrying = holding;
    let wearing = ob.containment_in(&sb)
        * subject_dominates
        * gauss((ob.center().1 - (sb.y + sb.h * 0.3)) / (sb.h + 1e-9), 0.3)
        * gauss(center_offset, 0.25);
    let riding = x_overlap_frac
        * gauss(sb.bottom() - (ob.y + ob.h * 0.4), 0.12)
        * gauss_above(ob.y - sb.y, 0.05)
        * gauss(depth_gap, 0.1);
    let watching = gauss(gap - 0.2, 0.09)
        * (1.0 - x_overlap_frac).max(0.0)
        * (1.0 - containment)
        * (1.0 - rev_containment)
        * gauss(depth_gap, 0.2);
    let sitting_on = on;
    let standing_on = on;
    let looking_at = watching;
    let jumping_over = x_overlap_frac * gauss(ob.y - sb.bottom() - 0.06, 0.035);

    [
        on,
        inn,
        near,
        behind,
        in_front,
        under,
        holding,
        wearing,
        riding,
        carrying,
        watching,
        sitting_on,
        standing_on,
        looking_at,
        jumping_over,
    ]
}

fn gauss(x: f64, sigma: f64) -> f64 {
    (-x * x / (2.0 * sigma * sigma)).exp()
}

fn gauss_above(x: f64, sigma: f64) -> f64 {
    1.0 / (1.0 + (-x / sigma).exp())
}

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.6, 0.0f64..0.6)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, w, h))
}

/// Depths as the detector decodes them (f32 round trips) or exact
/// multiples that put `depth_gap` on the smooth steps' offsets.
fn arb_depth() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0.0f64..1.0).prop_map(|d| f64::from(d as f32)),
        (0u32..=20).prop_map(|k| f64::from(k) * 0.05),
    ]
}

/// A subject box and an object box related by one degenerate case, or
/// two independent random boxes.
fn arb_pair() -> impl Strategy<Value = (BBox, BBox)> {
    (0u32..8, arb_bbox(), arb_bbox(), 0.0f64..1.0).prop_map(|(case, a, b, t)| match case {
        // Zero width, then zero height, on either side.
        0 => (BBox::new(a.x, a.y, 0.0, a.h), b),
        1 => (a, BBox::new(b.x, b.y, b.w, 0.0)),
        // The same box twice.
        2 => (a, a),
        // The object fully inside the subject.
        3 => (
            a,
            BBox::new(
                a.x + a.w * t * 0.5,
                a.y + a.h * t * 0.5,
                a.w * 0.5,
                a.h * 0.5,
            ),
        ),
        // Touching edges: the object starts where the subject ends.
        4 => (a, BBox::new(a.right(), a.bottom(), b.w, b.h)),
        // Side by side with a gap: x-overlap exactly 0.
        5 => (a, BBox::new(a.right() + t * 0.3, b.y, b.w, b.h)),
        // Stacked: the subject's bottom on the object's top.
        6 => (a, BBox::new(a.x + a.w * t, a.bottom(), b.w, b.h)),
        _ => (a, b),
    })
}

fn bits(scores: &RelationScores) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn evidence_equals_the_reference_formula_bit_for_bit(
        (sb, ob) in arb_pair(),
        sd in arb_depth(),
        od in arb_depth(),
    ) {
        prop_assert_eq!(
            bits(&geometric_evidence_boxes(sb, sd, ob, od)),
            bits(&reference_evidence(sb, sd, ob, od)),
            "{:?} at {} vs {:?} at {}", sb, sd, ob, od
        );
        // Both orders of the pair, as scene-graph generation scores them.
        prop_assert_eq!(
            bits(&geometric_evidence_boxes(ob, od, sb, sd)),
            bits(&reference_evidence(ob, od, sb, sd)),
            "{:?} at {} vs {:?} at {}", ob, od, sb, sd
        );
    }
}

//! Feature maps.
//!
//! The paper's Eq. (1) feeds `(b_i, m_i, l_i)` into the relation model;
//! Eq. (2) repeats the pass with `Mask(m_i)` — zeroed feature maps. Here a
//! feature map is a fixed-width vector: the geometry of a region (center,
//! size) and its depth, then an appearance signature of the *true* object
//! it shows. The relation model reads only the geometry and depth dims,
//! plus the supertype of the detection's label (see [`crate::relation`]);
//! masking the map is what removes its feature evidence, leaving the label
//! prior, and that difference is what lets TDE recover explicit
//! predicates. The appearance dims describe the region for inspection and
//! play no part in relation scores; scene-graph generation's record path
//! builds no feature map at all, only the decoded geometry.

use crate::bbox::BBox;
use crate::scene::SceneObject;
use serde::{Deserialize, Serialize};

/// Feature vector width: 5 geometry dims + 11 appearance dims.
pub const FEATURE_DIM: usize = 16;
/// Leading geometry dims: center, size and depth.
pub(crate) const GEOM_DIMS: usize = 5;

/// A region feature map `m_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMap(pub Vec<f32>);

impl FeatureMap {
    /// Extract the feature map of a ground-truth object (what the RPN would
    /// compute for its region).
    pub fn extract(obj: &SceneObject, bbox: &BBox) -> Self {
        Self::of_region(&obj.category, &obj.attributes, bbox, obj.depth)
    }

    /// The feature map of a region: its geometry, then the appearance
    /// signature of the object it shows.
    pub(crate) fn of_region(
        category: &str,
        attributes: &[(String, String)],
        bbox: &BBox,
        depth: f64,
    ) -> Self {
        let mut v = vec![0.0f32; FEATURE_DIM];
        v[..GEOM_DIMS].copy_from_slice(&geometry(bbox, depth));
        // Appearance signature: seeded by the true category and attributes.
        let mut seed = fnv1a(category);
        for (k, val) in attributes {
            seed ^= fnv1a(k).rotate_left(17) ^ fnv1a(val);
        }
        let mut state = seed;
        for slot in v.iter_mut().skip(GEOM_DIMS) {
            state = splitmix64(state);
            *slot = ((state >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0;
        }
        FeatureMap(v)
    }

    /// `Mask(m)`: the zero vector (Eq. (2)).
    pub fn masked() -> Self {
        FeatureMap(vec![0.0; FEATURE_DIM])
    }

    /// Whether this map has been masked.
    pub fn is_masked(&self) -> bool {
        self.0.iter().all(|&x| x == 0.0)
    }

    /// Decoded region center `(cx, cy)`.
    pub fn center(&self) -> (f64, f64) {
        (f64::from(self.0[0]), f64::from(self.0[1]))
    }

    /// Decoded region size `(w, h)`.
    pub fn size(&self) -> (f64, f64) {
        (f64::from(self.0[2]), f64::from(self.0[3]))
    }

    /// Decoded depth.
    pub fn depth(&self) -> f64 {
        f64::from(self.0[4])
    }

    /// Decoded bounding box.
    pub fn bbox(&self) -> BBox {
        decode_bbox(&self.0)
    }
}

/// The geometry dims of a region's feature map, as the map stores them:
/// center, size and depth, each rounded to `f32`.
pub(crate) fn geometry(bbox: &BBox, depth: f64) -> [f32; GEOM_DIMS] {
    let (cx, cy) = bbox.center();
    [
        cx as f32,
        cy as f32,
        bbox.w as f32,
        bbox.h as f32,
        depth as f32,
    ]
}

/// The box a map's geometry dims decode to ([`FeatureMap::bbox`]).
pub(crate) fn decode_bbox(geometry: &[f32]) -> BBox {
    let (cx, cy) = (f64::from(geometry[0]), f64::from(geometry[1]));
    let (w, h) = (f64::from(geometry[2]), f64::from(geometry[3]));
    BBox::new(cx - w / 2.0, cy - h / 2.0, w, h)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cosine similarity of two maps' appearance signature dims.
    fn appearance_similarity(a: &FeatureMap, b: &FeatureMap) -> f32 {
        let (a, b) = (&a.0[GEOM_DIMS..], &b.0[GEOM_DIMS..]);
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn obj(category: &str, bbox: BBox) -> SceneObject {
        SceneObject {
            category: category.to_owned(),
            bbox,
            depth: 0.4,
            entity: None,
            attributes: Vec::new(),
        }
    }

    #[test]
    fn geometry_roundtrips() {
        let b = BBox::new(0.1, 0.2, 0.3, 0.4);
        let o = obj("dog", b);
        let f = FeatureMap::extract(&o, &b);
        let back = f.bbox();
        assert!((back.x - b.x).abs() < 1e-5);
        assert!((back.w - b.w).abs() < 1e-5);
        assert!((f.depth() - 0.4).abs() < 1e-5);
    }

    #[test]
    fn masked_map_is_zero() {
        let m = FeatureMap::masked();
        assert!(m.is_masked());
        assert_eq!(m.0.len(), FEATURE_DIM);
        assert_eq!(m.bbox().area(), 0.0);
    }

    #[test]
    fn same_category_same_appearance() {
        let b1 = BBox::new(0.1, 0.1, 0.2, 0.2);
        let b2 = BBox::new(0.6, 0.6, 0.3, 0.3);
        let f1 = FeatureMap::extract(&obj("dog", b1), &b1);
        let f2 = FeatureMap::extract(&obj("dog", b2), &b2);
        assert!(appearance_similarity(&f1, &f2) > 0.99);
    }

    #[test]
    fn different_category_different_appearance() {
        let b = BBox::new(0.1, 0.1, 0.2, 0.2);
        let f1 = FeatureMap::extract(&obj("dog", b), &b);
        let f2 = FeatureMap::extract(&obj("car", b), &b);
        assert!(appearance_similarity(&f1, &f2).abs() < 0.8);
    }

    #[test]
    fn attributes_shift_appearance() {
        let b = BBox::new(0.1, 0.1, 0.2, 0.2);
        let plain = obj("bear", b);
        let mut toy = obj("bear", b);
        toy.attributes.push(("kind".into(), "toy".into()));
        let f1 = FeatureMap::extract(&plain, &b);
        let f2 = FeatureMap::extract(&toy, &b);
        assert!(appearance_similarity(&f1, &f2) < 0.99);
    }

    #[test]
    fn extraction_is_deterministic() {
        let b = BBox::new(0.2, 0.2, 0.1, 0.1);
        let o = obj("cat", b);
        assert_eq!(FeatureMap::extract(&o, &b), FeatureMap::extract(&o, &b));
    }
}

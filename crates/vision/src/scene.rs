//! Synthetic images: ground-truth scenes.
//!
//! A [`SyntheticImage`] is what a COCO image *means*: a set of objects with
//! categories, bounding boxes, depths and attributes, plus the true
//! relations between them. The detector and relation predictor observe this
//! ground truth through noise channels; SVQA itself never sees it.
//!
//! [`SceneBuilder`] constructs scenes whose geometry is *consistent with*
//! the requested relations (an object placed "on" another really does rest
//! on top of it), so the relation predictor's geometric evidence is real
//! signal, not a lookup of the answer.

use crate::bbox::BBox;
use crate::lookup::NameTable;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Category metadata: `(name, supertype, default width, default height)`.
/// Supertypes follow §VI-B: "humans, animals, vehicles, and buildings,
/// which have the highest proportion and crossover rate in COCO", plus the
/// supporting prop categories scenes need.
pub const CATEGORIES: &[(&str, &str, f64, f64)] = &[
    // humans
    ("person", "human", 0.14, 0.38),
    ("man", "human", 0.14, 0.38),
    ("woman", "human", 0.13, 0.36),
    ("child", "human", 0.10, 0.24),
    ("wizard", "human", 0.14, 0.40),
    ("player", "human", 0.14, 0.38),
    // animals
    ("dog", "animal", 0.16, 0.14),
    ("cat", "animal", 0.12, 0.10),
    ("bird", "animal", 0.06, 0.05),
    ("horse", "animal", 0.26, 0.24),
    ("sheep", "animal", 0.18, 0.14),
    ("cow", "animal", 0.26, 0.20),
    ("elephant", "animal", 0.34, 0.28),
    ("bear", "animal", 0.22, 0.20),
    ("teddy bear", "animal", 0.08, 0.09),
    ("zebra", "animal", 0.24, 0.20),
    ("giraffe", "animal", 0.20, 0.36),
    // vehicles
    ("car", "vehicle", 0.30, 0.16),
    ("bus", "vehicle", 0.42, 0.26),
    ("truck", "vehicle", 0.40, 0.24),
    ("motorcycle", "vehicle", 0.22, 0.16),
    ("bicycle", "vehicle", 0.20, 0.16),
    ("train", "vehicle", 0.55, 0.22),
    ("boat", "vehicle", 0.30, 0.14),
    ("airplane", "vehicle", 0.44, 0.14),
    // buildings / structures
    ("building", "building", 0.40, 0.55),
    ("house", "building", 0.34, 0.38),
    ("fence", "building", 0.45, 0.12),
    ("bench", "building", 0.24, 0.12),
    ("tower", "building", 0.16, 0.60),
    ("bridge", "building", 0.55, 0.16),
    // clothing
    ("hat", "clothing", 0.07, 0.05),
    ("shirt", "clothing", 0.12, 0.14),
    ("jacket", "clothing", 0.13, 0.16),
    ("robe", "clothing", 0.14, 0.26),
    ("helmet", "clothing", 0.07, 0.06),
    ("dress", "clothing", 0.12, 0.22),
    // everyday objects
    ("frisbee", "object", 0.06, 0.03),
    ("ball", "object", 0.05, 0.05),
    ("umbrella", "object", 0.14, 0.10),
    ("backpack", "object", 0.09, 0.11),
    ("bottle", "object", 0.03, 0.08),
    ("cup", "object", 0.04, 0.05),
    ("book", "object", 0.06, 0.05),
    ("phone", "object", 0.03, 0.05),
    ("laptop", "object", 0.10, 0.08),
    ("tv", "object", 0.16, 0.12),
    ("kite", "object", 0.10, 0.07),
    ("skateboard", "object", 0.12, 0.04),
    ("surfboard", "object", 0.16, 0.05),
    // furniture
    ("bed", "furniture", 0.34, 0.20),
    ("chair", "furniture", 0.14, 0.18),
    ("table", "furniture", 0.28, 0.16),
    ("couch", "furniture", 0.32, 0.18),
    ("window", "furniture", 0.14, 0.18),
    ("door", "furniture", 0.12, 0.30),
    // scenery
    ("grass", "scenery", 0.70, 0.18),
    ("tree", "scenery", 0.18, 0.40),
    ("road", "scenery", 0.80, 0.16),
    ("sky", "scenery", 0.95, 0.25),
    ("water", "scenery", 0.70, 0.20),
    ("beach", "scenery", 0.70, 0.18),
];

/// Index of a category in [`CATEGORIES`], from a table built once.
pub fn category_index(category: &str) -> Option<usize> {
    category_table().names.get(category)
}

/// Look up `(supertype, default width, default height)` for a category.
pub fn category_info(category: &str) -> Option<(&'static str, f64, f64)> {
    category_index(category).map(|i| {
        let (_, s, w, h) = CATEGORIES[i];
        (s, w, h)
    })
}

/// Supertype of a category ("human", "animal", "vehicle", "building",
/// "clothing", "object", "furniture", "scenery").
pub fn supertype(category: &str) -> &'static str {
    category_info(category).map_or("object", |(s, ..)| s)
}

/// Every supertype [`supertype`] can return, in a fixed order.
pub(crate) const SUPERTYPES: &[&str] = &[
    "human",
    "animal",
    "vehicle",
    "building",
    "clothing",
    "object",
    "furniture",
    "scenery",
];

/// Index of a category's supertype in [`SUPERTYPES`].
pub(crate) fn supertype_id(category: &str) -> usize {
    category_supertype_id(category_index(category))
}

/// [`supertype_id`] of the category at `category` in [`CATEGORIES`], or
/// of a name that is no category (`None`), which reads as "object".
pub(crate) fn category_supertype_id(category: Option<usize>) -> usize {
    let table = category_table();
    category.map_or(table.object, |i| table.supertypes[i])
}

/// [`CATEGORIES`] indexed by name, and each category's supertype id.
struct CategoryTable {
    names: NameTable,
    supertypes: Vec<usize>,
    /// The supertype id of "object", the fallback of [`supertype`].
    object: usize,
}

fn category_table() -> &'static CategoryTable {
    static TABLE: OnceLock<CategoryTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let id = |st: &str| {
            SUPERTYPES
                .iter()
                .position(|&s| s == st)
                .expect("every category supertype is listed in SUPERTYPES")
        };
        CategoryTable {
            names: NameTable::new(CATEGORIES.iter().map(|&(n, ..)| n)),
            supertypes: CATEGORIES.iter().map(|&(_, st, ..)| id(st)).collect(),
            object: id("object"),
        }
    })
}

/// A ground-truth object in a scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneObject {
    /// COCO-style category name.
    pub category: String,
    /// Normalized bounding box.
    pub bbox: BBox,
    /// Depth in `[0, 1]`; larger = farther from the camera. Drives
    /// "behind" / "in front of" ground truth.
    pub depth: f64,
    /// Named identity, when the object is a recognizable entity that also
    /// lives in the knowledge graph ("harry potter"). Empty for anonymous
    /// objects.
    pub entity: Option<String>,
    /// Attribute pairs, e.g. `("color", "red")`.
    pub attributes: Vec<(String, String)>,
}

impl SceneObject {
    /// The label this object contributes to the scene graph: its entity
    /// name when recognized, otherwise its category.
    pub fn scene_label(&self) -> &str {
        self.entity.as_deref().unwrap_or(&self.category)
    }

    /// Attribute lookup.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A ground-truth relation `subject —predicate→ object` (indexes into the
/// image's object list).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruthRelation {
    /// Subject object index.
    pub sub: usize,
    /// Predicate (one of [`crate::relation::RELATION_VOCAB`]).
    pub pred: String,
    /// Object object index.
    pub obj: usize,
    /// Whether this relation was *derived* from final geometry rather than
    /// declared by the scene script. Emergent relations are real (they are
    /// answered and scored like any other) but question generation avoids
    /// building questions around them.
    #[serde(default)]
    pub emergent: bool,
}

/// A synthetic image: ground-truth objects plus relations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticImage {
    /// Image id (unique within a dataset).
    pub id: u32,
    /// Ground-truth objects.
    pub objects: Vec<SceneObject>,
    /// Ground-truth relations.
    pub relations: Vec<GroundTruthRelation>,
    /// A caption describing the scene (MVQA questions were authored from
    /// COCO captions; the dataset generator mirrors that).
    pub caption: String,
}

/// Builds a scene whose geometry realizes the requested relations.
pub struct SceneBuilder<'r> {
    id: u32,
    objects: Vec<SceneObject>,
    relations: Vec<GroundTruthRelation>,
    rng: &'r mut StdRng,
}

impl<'r> SceneBuilder<'r> {
    /// Start a scene.
    pub fn new(id: u32, rng: &'r mut StdRng) -> Self {
        SceneBuilder {
            id,
            objects: Vec::new(),
            relations: Vec::new(),
            rng,
        }
    }

    /// Access the builder's random stream (scene composition decisions in
    /// callers share the stream so a scene is one deterministic draw).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Add an object at a random free position, with default size for its
    /// category (jittered ±15%).
    pub fn add_object(&mut self, category: &str) -> usize {
        self.add_entity_object(category, None)
    }

    /// Add an object whose category is drawn uniformly from `options`.
    pub fn add_object_from(&mut self, options: &[&str]) -> usize {
        let category = options[self.rng.gen_range(0..options.len())];
        self.add_object(category)
    }

    /// Add an object with a named identity.
    pub fn add_entity_object(&mut self, category: &str, entity: Option<&str>) -> usize {
        let (_, w0, h0) = category_info(category).unwrap_or(("object", 0.1, 0.1));
        let jw = w0 * self.rng.gen_range(0.85..1.15);
        let jh = h0 * self.rng.gen_range(0.85..1.15);
        let x = self.rng.gen_range(0.0..(1.0 - jw).max(0.001));
        // Ground objects sit in the lower half by default.
        let y = self.rng.gen_range(0.3..(1.0 - jh).max(0.31));
        let depth = self.rng.gen_range(0.2..0.8);
        self.objects.push(SceneObject {
            category: category.to_owned(),
            bbox: BBox::new(x, y, jw, jh),
            depth,
            entity: entity.map(str::to_owned),
            attributes: Vec::new(),
        });
        self.objects.len() - 1
    }

    /// Attach an attribute to an object.
    pub fn set_attribute(&mut self, idx: usize, key: &str, value: &str) {
        self.objects[idx]
            .attributes
            .push((key.to_owned(), value.to_owned()));
    }

    /// Record `sub —pred→ obj` and move `sub` so the geometry realizes the
    /// predicate relative to `obj`'s current position.
    pub fn relate(&mut self, sub: usize, pred: &str, obj: usize) {
        let target = self.objects[obj].bbox;
        let target_depth = self.objects[obj].depth;
        let b = self.objects[sub].bbox;
        let eps = self.rng.gen_range(-0.01..0.01);
        let (bbox, depth) = match pred {
            "on" | "sitting on" | "standing on" => (
                BBox::new(
                    target.x + (target.w - b.w) / 2.0 + eps,
                    target.y - b.h + 0.01,
                    b.w,
                    b.h,
                ),
                target_depth,
            ),
            "in" => {
                let w = b.w.min(target.w * 0.8);
                let h = b.h.min(target.h * 0.8);
                (
                    BBox::new(
                        target.x + (target.w - w) / 2.0 + eps,
                        target.y + (target.h - h) / 2.0,
                        w,
                        h,
                    ),
                    target_depth,
                )
            }
            "near" => (
                BBox::new(
                    (target.right() + 0.03 + eps.abs()).min(1.0 - b.w),
                    target.bottom() - b.h,
                    b.w,
                    b.h,
                ),
                target_depth + self.rng.gen_range(-0.05..0.05),
            ),
            // Watchers stand off at a characteristic distance — the
            // geometric signature that separates attention from adjacency.
            "looking at" | "watching" => (
                BBox::new(
                    (target.right() + 0.22 + eps.abs()).min(1.0 - b.w),
                    target.bottom() - b.h,
                    b.w,
                    b.h,
                ),
                target_depth + self.rng.gen_range(-0.05..0.05),
            ),
            "behind" => (
                BBox::new(target.x + eps, target.y - b.h * 0.3, b.w, b.h),
                target_depth + 0.25,
            ),
            "in front of" => (
                BBox::new(target.x + eps, target.bottom() - b.h * 0.8, b.w, b.h),
                (target_depth - 0.25).max(0.0),
            ),
            "under" => (
                BBox::new(
                    target.x + (target.w - b.w) / 2.0 + eps,
                    (target.bottom() + 0.02).min(1.0 - b.h),
                    b.w,
                    b.h,
                ),
                target_depth,
            ),
            "wearing" => {
                // subject (person) wears object — move the *object* onto the
                // subject instead; `relate(person, "wearing", hat)` keeps the
                // person still and dresses them.
                let wearer = self.objects[sub].bbox;
                let c = self.objects[obj].bbox;
                self.objects[obj].bbox = clamp_bbox(BBox::new(
                    wearer.x + (wearer.w - c.w) / 2.0,
                    wearer.y + wearer.h * 0.05,
                    c.w.min(wearer.w),
                    c.h.min(wearer.h * 0.6),
                ));
                self.objects[obj].depth = self.objects[sub].depth;
                self.relations.push(GroundTruthRelation {
                    sub,
                    pred: pred.to_owned(),
                    obj,
                    emergent: false,
                });
                return;
            }
            "holding" | "carrying" => {
                // Move the carried object to the subject's mid-side.
                let holder = self.objects[sub].bbox;
                let c = self.objects[obj].bbox;
                self.objects[obj].bbox = clamp_bbox(BBox::new(
                    (holder.right() - c.w * 0.5).min(1.0 - c.w),
                    holder.y + holder.h * 0.45,
                    c.w,
                    c.h,
                ));
                self.objects[obj].depth = self.objects[sub].depth;
                self.relations.push(GroundTruthRelation {
                    sub,
                    pred: pred.to_owned(),
                    obj,
                    emergent: false,
                });
                return;
            }
            "riding" => (
                BBox::new(
                    target.x + (target.w - b.w) / 2.0 + eps,
                    target.y - b.h * 0.6,
                    b.w,
                    b.h,
                ),
                target_depth,
            ),
            "jumping over" => (
                BBox::new(
                    target.x + (target.w - b.w) / 2.0 + eps,
                    (target.y - b.h - 0.06).max(0.0),
                    b.w,
                    b.h,
                ),
                target_depth,
            ),
            _ => (b, target_depth),
        };
        self.objects[sub].bbox = clamp_bbox(bbox);
        self.objects[sub].depth = depth.clamp(0.0, 1.0);
        self.relations.push(GroundTruthRelation {
            sub,
            pred: pred.to_owned(),
            obj,
            emergent: false,
        });
    }

    /// Record `sub —pred→ obj` keeping `sub` where it is and moving `obj`
    /// to realize the relation (the inverse of [`SceneBuilder::relate`]).
    /// Needed when the subject already participates in earlier relations
    /// whose geometry must survive.
    pub fn relate_anchored(&mut self, sub: usize, pred: &str, obj: usize) {
        let anchor = self.objects[sub].bbox;
        let anchor_depth = self.objects[sub].depth;
        let b = self.objects[obj].bbox;
        let eps = self.rng.gen_range(-0.01..0.01);
        let (bbox, depth) = match pred {
            // sub in front of obj ⇒ obj sits behind sub.
            "in front of" => (
                BBox::new(anchor.x + eps, anchor.y - b.h * 0.3, b.w, b.h),
                (anchor_depth + 0.25).min(1.0),
            ),
            "behind" => (
                BBox::new(anchor.x + eps, anchor.bottom() - b.h * 0.8, b.w, b.h),
                (anchor_depth - 0.25).max(0.0),
            ),
            "near" => (
                BBox::new(
                    (anchor.right() + 0.03 + eps.abs()).min(1.0 - b.w),
                    anchor.bottom() - b.h,
                    b.w,
                    b.h,
                ),
                anchor_depth + self.rng.gen_range(-0.05..0.05),
            ),
            "watching" | "looking at" => (
                BBox::new(
                    (anchor.right() + 0.22 + eps.abs()).min(1.0 - b.w),
                    anchor.bottom() - b.h,
                    b.w,
                    b.h,
                ),
                anchor_depth + self.rng.gen_range(-0.05..0.05),
            ),
            // sub on obj ⇒ obj slides under sub.
            "on" | "sitting on" | "standing on" => (
                BBox::new(
                    anchor.x + (anchor.w - b.w) / 2.0 + eps,
                    (anchor.bottom() - 0.01).min(1.0 - b.h),
                    b.w,
                    b.h,
                ),
                anchor_depth,
            ),
            "under" => (
                BBox::new(
                    anchor.x + (anchor.w - b.w) / 2.0 + eps,
                    (anchor.y - b.h - 0.02).max(0.0),
                    b.w,
                    b.h,
                ),
                anchor_depth,
            ),
            _ => (b, anchor_depth),
        };
        self.objects[obj].bbox = clamp_bbox(bbox);
        self.objects[obj].depth = depth.clamp(0.0, 1.0);
        self.relations.push(GroundTruthRelation {
            sub,
            pred: pred.to_owned(),
            obj,
            emergent: false,
        });
    }

    /// Finish the scene with a generated caption. Beyond the *declared*
    /// relations, any pair whose final geometry confidently implies a
    /// predicate gets an **emergent** ground-truth relation (a person
    /// placed to watch a dog on the grass really is standing on that
    /// grass): ground truth describes the scene as it is, so a faithful
    /// perception pipeline is scored against what it can actually see.
    pub fn build(self) -> SyntheticImage {
        let caption = self
            .relations
            .iter()
            .map(|r| {
                format!(
                    "a {} {} a {}",
                    self.objects[r.sub].scene_label(),
                    r.pred,
                    self.objects[r.obj].scene_label()
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let mut relations = self.relations;
        for i in 0..self.objects.len() {
            for j in 0..self.objects.len() {
                if i == j || relations.iter().any(|r| r.sub == i && r.obj == j) {
                    continue;
                }
                let evidence = crate::relation::geometric_evidence_boxes(
                    self.objects[i].bbox,
                    self.objects[i].depth,
                    self.objects[j].bbox,
                    self.objects[j].depth,
                );
                let (best, &score) = evidence
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .expect("non-empty vocabulary");
                // Only decisively implied relations become ground truth:
                // high absolute evidence and a clear winner over the
                // runner-up (ignoring the winner's own alias group).
                let runner_up = evidence
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| {
                        !crate::relation::predicates_aliased(
                            crate::relation::RELATION_VOCAB[*r],
                            crate::relation::RELATION_VOCAB[best],
                        )
                    })
                    .map(|(_, &s)| s)
                    .fold(0.0f64, f64::max);
                if score >= 0.65 && score >= 1.7 * runner_up {
                    relations.push(GroundTruthRelation {
                        sub: i,
                        pred: crate::relation::RELATION_VOCAB[best].to_owned(),
                        obj: j,
                        emergent: true,
                    });
                }
            }
        }
        SyntheticImage {
            id: self.id,
            objects: self.objects,
            relations,
            caption,
        }
    }
}

fn clamp_bbox(b: BBox) -> BBox {
    let w = b.w.min(1.0);
    let h = b.h.min(1.0);
    BBox::new(b.x.clamp(0.0, 1.0 - w), b.y.clamp(0.0, 1.0 - h), w, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn category_table_lookup() {
        assert_eq!(supertype("dog"), "animal");
        assert_eq!(supertype("wizard"), "human");
        assert_eq!(supertype("unknown-thing"), "object");
        assert!(category_info("car").is_some());
    }

    #[test]
    fn supertype_ids_cover_every_category() {
        for (i, &(name, st, ..)) in CATEGORIES.iter().enumerate() {
            assert_eq!(SUPERTYPES[supertype_id(name)], st);
            // Each name is listed once, so its index is its own.
            assert_eq!(category_index(name), Some(i));
        }
        assert_eq!(SUPERTYPES[supertype_id("harry potter")], "object");
        assert_eq!(category_index("harry potter"), None);
        assert_eq!(category_index("teddy"), None);
    }

    #[test]
    fn on_relation_places_subject_atop_object() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let dog = b.add_object("dog");
        let grass = b.add_object("grass");
        b.relate(dog, "on", grass);
        let img = b.build();
        let d = &img.objects[dog].bbox;
        let g = &img.objects[grass].bbox;
        assert!(
            d.bottom() <= g.y + 0.05,
            "dog bottom {} vs grass top {}",
            d.bottom(),
            g.y
        );
        assert!(d.x_overlap(g) > 0.0);
        assert!(img
            .relations
            .iter()
            .any(|r| r.sub == dog && r.obj == grass && r.pred == "on"));
    }

    #[test]
    fn in_relation_contains_subject() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let dog = b.add_object("dog");
        let car = b.add_object("car");
        b.relate(dog, "in", car);
        let img = b.build();
        assert!(img.objects[dog].bbox.containment_in(&img.objects[car].bbox) > 0.9);
    }

    #[test]
    fn behind_increases_depth() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let man = b.add_object("man");
        let dog = b.add_object("dog");
        b.relate(man, "behind", dog);
        let img = b.build();
        assert!(img.objects[man].depth > img.objects[dog].depth);
    }

    #[test]
    fn wearing_moves_the_garment() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let man = b.add_object("man");
        let before = b.objects[man].bbox;
        let hat = b.add_object("hat");
        b.relate(man, "wearing", hat);
        let img = b.build();
        // The wearer did not move; the garment is inside the wearer.
        assert_eq!(img.objects[man].bbox, before);
        assert!(img.objects[hat].bbox.containment_in(&img.objects[man].bbox) > 0.8);
    }

    #[test]
    fn entity_objects_use_entity_label() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let g = b.add_entity_object("woman", Some("ginny weasley"));
        let img = b.build();
        assert_eq!(img.objects[g].scene_label(), "ginny weasley");
        assert_eq!(img.objects[g].category, "woman");
    }

    #[test]
    fn attributes() {
        let mut r = rng();
        let mut b = SceneBuilder::new(0, &mut r);
        let bear = b.add_object("teddy bear");
        b.set_attribute(bear, "kind", "toy");
        let img = b.build();
        assert_eq!(img.objects[bear].attribute("kind"), Some("toy"));
        assert_eq!(img.objects[bear].attribute("color"), None);
    }

    #[test]
    fn caption_mentions_relations() {
        let mut r = rng();
        let mut b = SceneBuilder::new(3, &mut r);
        let dog = b.add_object("dog");
        let car = b.add_object("car");
        b.relate(dog, "in", car);
        let img = b.build();
        assert!(img.caption.contains("dog in a car"), "{}", img.caption);
        assert_eq!(img.id, 3);
    }

    #[test]
    fn bboxes_stay_in_frame() {
        let mut r = rng();
        for seed_obj in ["dog", "elephant", "bus"] {
            let mut b = SceneBuilder::new(0, &mut r);
            let a = b.add_object(seed_obj);
            let t = b.add_object("building");
            for pred in [
                "on",
                "in",
                "near",
                "behind",
                "in front of",
                "under",
                "riding",
                "jumping over",
            ] {
                b.relate(a, pred, t);
            }
            let img = b.build();
            for o in &img.objects {
                assert!(o.bbox.x >= 0.0 && o.bbox.y >= 0.0);
                assert!(o.bbox.right() <= 1.0 + 1e-9 && o.bbox.bottom() <= 1.0 + 1e-9);
            }
        }
    }
}

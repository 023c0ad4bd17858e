//! Synthetic image generation (§VI-B "Image Selection").
//!
//! The paper selects 4,233 COCO images across "humans, animals, vehicles,
//! and buildings … which have the highest proportion and crossover rate",
//! filtering out single-object images. The generator mirrors that with
//! weighted *scene archetypes*, each producing a multi-object scene whose
//! relations are geometrically realized by
//! [`svqa_vision::scene::SceneBuilder`]. A small fraction of scenes feature
//! named characters from the knowledge graph (the Example 1 world).

use crate::kg::CHARACTERS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svqa_vision::scene::{SceneBuilder, SyntheticImage};

const PEOPLE: &[&str] = &["man", "woman", "child", "person", "player"];
const PETS: &[&str] = &["dog", "cat"];
const FARM_ANIMALS: &[&str] = &["horse", "sheep", "cow", "zebra", "giraffe", "elephant"];
const VEHICLES: &[&str] = &[
    "car",
    "bus",
    "truck",
    "motorcycle",
    "bicycle",
    "train",
    "boat",
];
const RIDEABLE: &[&str] = &["horse", "bicycle", "motorcycle", "skateboard"];
const HEADWEAR: &[&str] = &["hat", "helmet"];
const GARMENTS: &[&str] = &["hat", "shirt", "jacket", "dress"];
const WIZARD_GARMENTS: &[&str] = &["robe", "hat"];
const CARRIED: &[&str] = &["frisbee", "ball", "backpack", "umbrella", "book", "bottle"];
const FURNITURE_SEATS: &[&str] = &["bed", "couch", "chair"];
const STRUCTURES: &[&str] = &["building", "house", "fence", "bench", "tower", "bridge"];

/// Generate `count` images with the base `seed`.
pub fn generate_images(count: usize, seed: u64) -> Vec<SyntheticImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| generate_one(i as u32, &mut rng))
        .collect()
}

/// Generate `count` *crowded* scenes (10-14 objects, many relations of
/// diverse predicates) — the Visual-Genome-density split used to benchmark
/// scene-graph generation (Exp-3, Table V). Ordinary MVQA scenes are too
/// sparse for Recall@K to bite.
pub fn generate_crowded_images(count: usize, seed: u64) -> Vec<SyntheticImage> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    (0..count)
        .map(|i| {
            let mut b = SceneBuilder::new(i as u32, &mut rng);
            // Ground layer.
            let ground = b.add_object_from(&["grass", "road", "beach"]);
            // People with garments and carried objects.
            let n_people = b.rng().gen_range(2..4usize);
            for _ in 0..n_people {
                let p = b.add_object_from(PEOPLE);
                b.relate(p, "standing on", ground);
                if b.rng().gen_bool(0.7) {
                    let g = b.add_object_from(GARMENTS);
                    b.relate(p, "wearing", g);
                }
                if b.rng().gen_bool(0.5) {
                    let c = b.add_object_from(CARRIED);
                    b.relate(p, "carrying", c);
                }
            }
            // Animals engaging objects.
            let n_animals = b.rng().gen_range(1..3usize);
            for _ in 0..n_animals {
                let a = b.add_object_from(PETS);
                b.relate(a, "on", ground);
                if b.rng().gen_bool(0.5) {
                    let toy = b.add_object_from(&["frisbee", "ball"]);
                    b.relate(a, "holding", toy);
                }
            }
            // A vehicle, a structure, a rider.
            let v = b.add_object_from(VEHICLES);
            b.relate(v, "on", ground);
            let s = b.add_object_from(STRUCTURES);
            b.relate(s, "behind", v);
            if b.rng().gen_bool(0.6) {
                let rider = b.add_object_from(PEOPLE);
                let mount = b.add_object_from(RIDEABLE);
                b.relate(rider, "riding", mount);
                let hw = b.add_object_from(HEADWEAR);
                b.relate(rider, "wearing", hw);
            }
            b.build()
        })
        .collect()
}

/// Generate a single image by sampling an archetype.
pub fn generate_one(id: u32, rng: &mut StdRng) -> SyntheticImage {
    // Archetype weights sum to 100.
    let roll = rng.gen_range(0..100u32);
    match roll {
        0..=15 => park_scene(id, rng),
        16..=29 => street_scene(id, rng),
        30..=41 => pets_in_vehicle_scene(id, rng),
        42..=53 => indoor_scene(id, rng),
        54..=63 => riding_scene(id, rng),
        64..=73 => carrying_scene(id, rng),
        74..=83 => wearing_scene(id, rng),
        84..=91 => farm_scene(id, rng),
        _ => character_scene(id, rng),
    }
}

/// Park: person and pet on grass, pet engaging a toy, person watching.
fn park_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let person = b.add_object_from(PEOPLE);
    let pet = b.add_object_from(PETS);
    let grass = b.add_object("grass");
    let toy = b.add_object_from(&["frisbee", "ball", "kite"]);
    b.relate(pet, "on", grass);
    b.relate(pet, "holding", toy);
    b.relate(person, "watching", pet);
    if b.rng().gen_bool(0.5) {
        let tree = b.add_object("tree");
        b.relate(tree, "behind", person);
    }
    b.build()
}

/// Street: person near vehicle on a road, structure behind.
fn street_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let person = b.add_object_from(PEOPLE);
    let vehicle = b.add_object_from(VEHICLES);
    let road = b.add_object("road");
    b.relate(vehicle, "on", road);
    b.relate(person, "near", vehicle);
    let structure = b.add_object_from(STRUCTURES);
    b.relate(structure, "behind", vehicle);
    if b.rng().gen_bool(0.4) {
        let garment = b.add_object_from(GARMENTS);
        b.relate(person, "wearing", garment);
    }
    b.build()
}

/// Pets in vehicles (the Fig. 7 world: "a dog is looking out of a window
/// from a car").
fn pets_in_vehicle_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let pet = b.add_object_from(PETS);
    let vehicle = b.add_object_from(&["car", "truck", "bus"]);
    b.relate(pet, "in", vehicle);
    let person = b.add_object_from(PEOPLE);
    b.relate(person, "near", vehicle);
    if b.rng().gen_bool(0.35) {
        let carried = b.add_object("bird");
        b.relate(pet, "carrying", carried);
    }
    b.build()
}

/// Indoor: pet on furniture, tv in front, person watching.
fn indoor_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let pet = b.add_object_from(&["cat", "dog", "teddy bear"]);
    if b.rng().gen_bool(0.2) {
        b.set_attribute(pet, "kind", "toy");
    }
    let seat = b.add_object_from(FURNITURE_SEATS);
    b.relate(pet, "sitting on", seat);
    let tv = b.add_object("tv");
    b.relate_anchored(pet, "in front of", tv);
    if b.rng().gen_bool(0.5) {
        let person = b.add_object_from(PEOPLE);
        b.relate(person, "watching", tv);
    }
    b.build()
}

/// Riding: person riding something, wearing headwear.
fn riding_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let person = b.add_object_from(PEOPLE);
    let mount = b.add_object_from(RIDEABLE);
    let road = b.add_object_from(&["road", "grass", "beach"]);
    b.relate(mount, "on", road);
    b.relate(person, "riding", mount);
    let headwear = b.add_object_from(HEADWEAR);
    b.relate(person, "wearing", headwear);
    b.build()
}

/// Carrying: a carrier (person or dog) carrying something.
fn carrying_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let carrier_is_pet = b.rng().gen_bool(0.4);
    let carrier = if carrier_is_pet {
        b.add_object("dog")
    } else {
        b.add_object_from(PEOPLE)
    };
    let cargo = if carrier_is_pet {
        b.add_object_from(&["bird", "ball", "frisbee"])
    } else {
        b.add_object_from(CARRIED)
    };
    let ground = b.add_object_from(&["grass", "road", "beach"]);
    b.relate(carrier, "on", ground);
    b.relate(carrier, "carrying", cargo);
    if b.rng().gen_bool(0.4) {
        let other = b.add_object_from(PEOPLE);
        b.relate(other, "behind", carrier);
    }
    b.build()
}

/// Wearing: two people, garments, proximity.
fn wearing_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let a = b.add_object_from(PEOPLE);
    if b.rng().gen_bool(0.5) {
        let bench = b.add_object("bench");
        b.relate(a, "sitting on", bench);
    }
    let garment = b.add_object_from(GARMENTS);
    b.relate(a, "wearing", garment);
    let other = b.add_object_from(PEOPLE);
    b.relate(other, "near", a);
    b.build()
}

/// Farm / outdoor animals.
fn farm_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let animal = b.add_object_from(FARM_ANIMALS);
    let grass = b.add_object("grass");
    b.relate(animal, "standing on", grass);
    let fence = b.add_object("fence");
    b.relate(fence, "behind", animal);
    if b.rng().gen_bool(0.5) {
        let second = b.add_object_from(FARM_ANIMALS);
        b.relate(second, "near", animal);
    }
    if b.rng().gen_bool(0.4) {
        let person = b.add_object_from(PEOPLE);
        b.relate(person, "watching", animal);
    }
    b.build()
}

/// Character scene: named wizards co-appearing, one dressed distinctively.
///
/// Co-appearance statistics are *biased by a deterministic pairing table*
/// so Example-1-style "most frequently hanging out" questions have stable
/// answers: each character has one preferred companion they appear with in
/// ~70% of their scenes.
fn character_scene(id: u32, rng: &mut StdRng) -> SyntheticImage {
    let mut b = SceneBuilder::new(id, rng);
    let a_idx = b.rng().gen_range(0..CHARACTERS.len());
    let a_name = CHARACTERS[a_idx];
    // Preferred companion: the next character in the ring.
    let companion = if b.rng().gen_bool(0.7) {
        CHARACTERS[(a_idx + 1) % CHARACTERS.len()]
    } else {
        let mut other = b.rng().gen_range(0..CHARACTERS.len());
        if other == a_idx {
            other = (other + 2) % CHARACTERS.len();
        }
        CHARACTERS[other]
    };
    let a = b.add_entity_object("wizard", Some(a_name));
    let c = b.add_entity_object("wizard", Some(companion));
    b.relate(a, "near", c);
    // Each character has a signature garment: even ring index → robe,
    // odd → hat. Deterministic so "what is X wearing" is stable.
    let garment_cat = WIZARD_GARMENTS[a_idx % 2];
    let garment = b.add_object(garment_cat);
    b.relate(a, "wearing", garment);
    if b.rng().gen_bool(0.4) {
        let structure = b.add_object_from(STRUCTURES);
        b.relate(structure, "behind", a);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generates_requested_count_with_unique_ids() {
        let imgs = generate_images(200, 42);
        assert_eq!(imgs.len(), 200);
        let ids: HashSet<u32> = imgs.iter().map(|i| i.id).collect();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn no_single_object_images() {
        // §VI-B: "we manually filter out images that contain only a single
        // object" — the generator never produces them.
        for img in generate_images(300, 7) {
            assert!(img.objects.len() >= 2, "image {} too small", img.id);
            assert!(!img.relations.is_empty());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_images(50, 9);
        let b = generate_images(50, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.caption, y.caption);
            assert_eq!(x.objects.len(), y.objects.len());
        }
        let c = generate_images(50, 10);
        assert!(a.iter().zip(&c).any(|(x, y)| x.caption != y.caption));
    }

    #[test]
    fn covers_the_four_macro_categories() {
        let imgs = generate_images(500, 11);
        let mut supertypes: HashSet<&str> = HashSet::new();
        for img in &imgs {
            for o in &img.objects {
                supertypes.insert(svqa_vision::scene::supertype(&o.category));
            }
        }
        for needed in ["human", "animal", "vehicle", "building"] {
            assert!(supertypes.contains(needed), "missing {needed}");
        }
    }

    #[test]
    fn character_scenes_appear() {
        let imgs = generate_images(500, 13);
        let named = imgs
            .iter()
            .filter(|i| i.objects.iter().any(|o| o.entity.is_some()))
            .count();
        assert!(named > 10, "only {named} character scenes in 500");
    }

    #[test]
    fn preferred_companions_dominate() {
        // The ring pairing makes (character, next) the modal co-appearance.
        let imgs = generate_images(3000, 5);
        let mut together = 0usize;
        let mut apart = 0usize;
        for img in &imgs {
            let names: Vec<&str> = img
                .objects
                .iter()
                .filter_map(|o| o.entity.as_deref())
                .collect();
            if names.len() == 2 {
                let i = CHARACTERS.iter().position(|&c| c == names[0]).unwrap();
                if CHARACTERS[(i + 1) % CHARACTERS.len()] == names[1] {
                    together += 1;
                } else {
                    apart += 1;
                }
            }
        }
        assert!(together > apart, "{together} vs {apart}");
    }

    #[test]
    fn all_relations_use_known_predicates() {
        use svqa_vision::relation::relation_index;
        for img in generate_images(300, 17) {
            for r in &img.relations {
                assert!(
                    relation_index(&r.pred).is_some(),
                    "unknown predicate {}",
                    r.pred
                );
            }
        }
    }
}

//! `PairPrior::fit` works on supertype ids, a coarse-predicate table and a
//! dense pair table. It must give bit for bit the prior the string-keyed
//! fit below gives: every distribution receives the same additions in the
//! same order.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use svqa_dataset::{generate_images, MvqaConfig};
use svqa_vision::prior::PairPrior;
use svqa_vision::relation::{relation_index, RELATION_VOCAB};
use svqa_vision::scene::{
    supertype, GroundTruthRelation, SceneBuilder, SyntheticImage, CATEGORIES,
};

/// The string-keyed fit, as it was before the dense table: supertype
/// names per relation endpoint, the coarse predicate found by name, and a
/// map keyed by the pair of supertype names. Returns the pair
/// distributions and the marginal.
#[allow(clippy::type_complexity)]
fn reference_fit(images: &[SyntheticImage]) -> (HashMap<(String, String), Vec<f64>>, Vec<f64>) {
    const ANNOTATION_BIAS: f64 = 0.85;
    fn ubiquitous_for(r: usize) -> usize {
        const VERTICALISH: [&str; 7] = [
            "on",
            "sitting on",
            "standing on",
            "riding",
            "jumping over",
            "under",
            "in",
        ];
        if VERTICALISH.contains(&RELATION_VOCAB[r]) {
            relation_index("on").expect("in vocab")
        } else {
            relation_index("near").expect("in vocab")
        }
    }
    fn normalize(dist: &mut [f64]) {
        let sum: f64 = dist.iter().sum();
        if sum > 0.0 {
            for x in dist.iter_mut() {
                *x /= sum;
            }
        } else {
            let n = dist.len();
            dist.fill(1.0 / n as f64);
        }
    }
    let mut by_pair: HashMap<(String, String), Vec<f64>> = HashMap::new();
    let mut marginal = vec![0.0; RELATION_VOCAB.len()];
    for img in images {
        for rel in &img.relations {
            let Some(r) = relation_index(&rel.pred) else {
                continue;
            };
            let key = (
                supertype(&img.objects[rel.sub].category).to_owned(),
                supertype(&img.objects[rel.obj].category).to_owned(),
            );
            let dist = by_pair
                .entry(key)
                .or_insert_with(|| vec![0.0; RELATION_VOCAB.len()]);
            dist[r] += 1.0 - ANNOTATION_BIAS;
            dist[ubiquitous_for(r)] += ANNOTATION_BIAS;
            marginal[r] += 1.0 - ANNOTATION_BIAS;
            marginal[ubiquitous_for(r)] += ANNOTATION_BIAS;
        }
    }
    normalize(&mut marginal);
    for dist in by_pair.values_mut() {
        normalize(dist);
    }
    (by_pair, marginal)
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|p| p.to_bits()).collect()
}

/// The fit equals the reference on the marginal and on every supertype
/// pair, each probed through one category of that supertype.
fn assert_fit_matches_reference(images: &[SyntheticImage]) {
    let prior = PairPrior::fit(images);
    let (by_pair, marginal) = reference_fit(images);
    assert_eq!(bits(prior.marginal()), bits(&marginal), "marginal");
    assert_eq!(prior.pair_count(), by_pair.len(), "pairs seen");
    let mut representatives: Vec<(&str, &str)> = Vec::new();
    for &(category, st, ..) in CATEGORIES {
        if !representatives.iter().any(|&(_, seen)| seen == st) {
            representatives.push((category, st));
        }
    }
    assert_eq!(representatives.len(), 8, "every supertype has a category");
    for &(sub, sub_st) in &representatives {
        for &(obj, obj_st) in &representatives {
            let want = by_pair
                .get(&(sub_st.to_owned(), obj_st.to_owned()))
                .unwrap_or(&marginal);
            assert_eq!(
                bits(prior.distribution(sub, obj)),
                bits(want),
                "({sub_st}, {obj_st})"
            );
        }
    }
}

#[test]
fn fit_matches_the_string_keyed_fit_on_the_image_world() {
    let images = generate_images(300, MvqaConfig::default().seed);
    assert!(images.iter().map(|i| i.relations.len()).sum::<usize>() > 300);
    assert_fit_matches_reference(&images);
}

#[test]
fn fit_matches_the_string_keyed_fit_with_unknown_names() {
    let mut rng = StdRng::seed_from_u64(17);
    let images: Vec<SyntheticImage> = (0..12u32)
        .map(|id| {
            let mut b = SceneBuilder::new(id, &mut rng);
            let dog = b.add_object("dog");
            let man = b.add_object("man");
            // Not a category: its supertype falls back to "object".
            let thing = b.add_object("flux capacitor");
            b.relate(dog, if id % 3 == 0 { "on" } else { "near" }, man);
            b.relate(thing, "under", man);
            let mut img = b.build();
            // Not a predicate: the fit skips it.
            img.relations.push(GroundTruthRelation {
                sub: man,
                pred: "levitating above".to_owned(),
                obj: thing,
                emergent: false,
            });
            img
        })
        .collect();
    assert_fit_matches_reference(&images);
    assert_fit_matches_reference(&[]);
}

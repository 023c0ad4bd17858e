//! The label-pair co-occurrence prior — the "training bias".
//!
//! §III-A (2): "the explicit relationship between the objects may be
//! obscured by the ubiquitous relationships that exist within the `l_i` and
//! `l_j`. Such a training bias thus needs to be deducted". In a trained
//! MOTIFNET the bias lives in the weights; here it is made explicit: a
//! conditional distribution `P(relation | supertype(l_i), supertype(l_j))`
//! fitted on ground-truth scenes. The relation model adds this prior to its
//! feature evidence (Eq. (1)); the masked pass returns *only* the prior
//! (Eq. (2)); TDE subtracts it (Eq. (3)).

use crate::relation::{relation_index, RELATION_VOCAB};
use crate::scene::{supertype, SyntheticImage};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Conditional relation distribution keyed by supertype pairs, with a
/// global marginal fallback for unseen pairs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PairPrior {
    by_pair: HashMap<(String, String), Vec<f64>>,
    marginal: Vec<f64>,
}

/// How much of the training annotation mass collapses onto the ubiquitous
/// predicates ("on"/"near"). Visual Genome's predicate distribution is
/// annotation-biased — annotators overwhelmingly write the easy coarse
/// predicate — and this is precisely the "training bias" §III-A says TDE
/// must deduct. 0.0 would be an oracle-annotated corpus.
const ANNOTATION_BIAS: f64 = 0.85;

/// The coarse predicate a lazy annotator writes instead of `r`.
fn ubiquitous_for(r: usize) -> usize {
    const VERTICALISH: [&str; 7] = [
        "on", "sitting on", "standing on", "riding", "jumping over", "under", "in",
    ];
    if VERTICALISH.contains(&RELATION_VOCAB[r]) {
        relation_index("on").expect("in vocab")
    } else {
        relation_index("near").expect("in vocab")
    }
}

impl PairPrior {
    /// Fit the prior on a corpus of scenes as a *biased annotator* would
    /// label them: each true relation contributes most of its mass to the
    /// ubiquitous coarse predicate and only the remainder to its true
    /// class. The resulting prior is exactly the training bias the paper's
    /// Eq. (2)/(3) machinery exists to remove.
    pub fn fit<'a>(images: impl IntoIterator<Item = &'a SyntheticImage>) -> Self {
        // Supertypes are static strings; only the distinct pairs are copied
        // into the owned (serializable) map at the end.
        let mut by_pair: HashMap<(&'static str, &'static str), Vec<f64>> = HashMap::new();
        let mut marginal = vec![0.0; RELATION_VOCAB.len()];
        for img in images {
            for rel in &img.relations {
                let Some(r) = relation_index(&rel.pred) else {
                    continue;
                };
                let key = (
                    supertype(&img.objects[rel.sub].category),
                    supertype(&img.objects[rel.obj].category),
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
        let by_pair = by_pair
            .into_iter()
            .map(|((sub, obj), mut dist)| {
                normalize(&mut dist);
                ((sub.to_owned(), obj.to_owned()), dist)
            })
            .collect();
        PairPrior { by_pair, marginal }
    }

    /// A uniform prior (used when no training corpus is supplied).
    pub fn uniform() -> Self {
        let n = RELATION_VOCAB.len();
        PairPrior {
            by_pair: HashMap::new(),
            marginal: vec![1.0 / n as f64; n],
        }
    }

    /// `P(relation | l_sub, l_obj)` as a dense vector over the relation
    /// vocabulary (categories are reduced to supertypes; unseen pairs fall
    /// back to the marginal).
    pub fn distribution(&self, sub_label: &str, obj_label: &str) -> &[f64] {
        self.supertype_distribution(supertype(sub_label), supertype(obj_label))
    }

    /// [`distribution`](Self::distribution) keyed by the supertypes
    /// themselves (see [`crate::scene::SUPERTYPES`]).
    pub(crate) fn supertype_distribution(&self, sub: &str, obj: &str) -> &[f64] {
        self.by_pair
            .get(&(sub.to_owned(), obj.to_owned()))
            .map(Vec::as_slice)
            .unwrap_or(&self.marginal)
    }

    /// Number of distinct supertype pairs seen at fit time.
    pub fn pair_count(&self) -> usize {
        self.by_pair.len()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> Vec<SyntheticImage> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut images = Vec::new();
        // Bias: animals are overwhelmingly "near" humans, rarely "in front
        // of" them.
        for i in 0..20 {
            let mut b = SceneBuilder::new(i, &mut rng);
            let dog = b.add_object("dog");
            let man = b.add_object("man");
            let pred = if i % 10 == 0 { "in front of" } else { "near" };
            b.relate(dog, pred, man);
            images.push(b.build());
        }
        images
    }

    #[test]
    fn fitted_prior_reflects_corpus_bias() {
        let imgs = corpus();
        let prior = PairPrior::fit(&imgs);
        let dist = prior.distribution("dog", "man");
        let near = dist[relation_index("near").unwrap()];
        let front = dist[relation_index("in front of").unwrap()];
        assert!(near > 0.7, "near = {near}");
        assert!(front < 0.25, "front = {front}");
        // At least the declared (animal, human) pair; emergent ground-truth
        // relations may add more supertype pairs.
        assert!(prior.pair_count() >= 1);
    }

    #[test]
    fn distributions_sum_to_one() {
        let imgs = corpus();
        let prior = PairPrior::fit(&imgs);
        let sum: f64 = prior.distribution("dog", "man").iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let sum: f64 = prior.distribution("car", "building").iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn supertype_generalization() {
        // A cat/woman pair falls in the same (animal, human) bucket as the
        // dog/man training pairs.
        let imgs = corpus();
        let prior = PairPrior::fit(&imgs);
        let dist = prior.distribution("cat", "woman");
        assert!(dist[relation_index("near").unwrap()] > 0.8);
    }

    #[test]
    fn unseen_pair_falls_back_to_marginal() {
        let imgs = corpus();
        let prior = PairPrior::fit(&imgs);
        let dist = prior.distribution("car", "tower");
        // Marginal equals the overall relation frequencies.
        assert!(dist[relation_index("near").unwrap()] > 0.8);
    }

    #[test]
    fn uniform_prior() {
        let prior = PairPrior::uniform();
        let dist = prior.distribution("dog", "man");
        let expected = 1.0 / RELATION_VOCAB.len() as f64;
        for &p in dist {
            assert!((p - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_corpus_yields_uniform_marginal() {
        let prior = PairPrior::fit(std::iter::empty());
        let sum: f64 = prior.distribution("dog", "man").iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

//! Deterministic concept-cluster word embeddings.
//!
//! Algorithm 3's `maxScore` "works by converting the inputs to embeddings
//! and filtering out the most similar type based on cosine similarity"
//! (§V-A, citing word2vec). Pre-trained vectors are replaced here by a
//! deterministic construction over the concept taxonomy in [`crate::vocab`]:
//!
//! * every concept cluster gets a unit direction seeded by its name;
//! * every parent field gets a unit direction seeded by its name;
//! * a word's vector is `w_field · field_dir + w_cluster · cluster_dir +
//!   w_word · word_dir`, normalized.
//!
//! The weights are chosen so that, in expectation over the pseudo-random
//! directions: same-cluster pairs score ≈ 0.87, same-field pairs ≈ 0.35,
//! and unrelated pairs ≈ 0. That is all `maxScore` needs — synonyms beat
//! siblings beat strangers — and it is bit-reproducible across runs.
//!
//! Multi-word phrases ("in front of", "girlfriend of") that appear as
//! cluster members embed as members; other phrases fall back to the mean of
//! their word vectors.

use crate::vocab;
use serde::{Deserialize, Serialize};

/// Embedding dimensionality. 64 keeps random directions nearly orthogonal
/// (expected |cos| ≈ 1/√64 ≈ 0.125) while staying cheap to compare.
pub const DIM: usize = 64;

const W_FIELD: f32 = 0.45;
const W_CLUSTER: f32 = 1.0;
const W_WORD: f32 = 0.45;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// The zero vector (embedding of the empty string).
    pub fn zero() -> Self {
        Embedding(vec![0.0; DIM])
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Normalize in place to unit length (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for x in &mut self.0 {
                *x /= n;
            }
        }
    }
}

/// Cosine similarity between two embeddings; 0.0 when either is zero.
pub fn cosine_similarity(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a.0.iter().zip(&b.0).map(|(x, y)| x * y).sum();
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// The embedder: maps words and phrases to vectors.
#[derive(Debug, Default, Clone)]
pub struct Embedder;

impl Embedder {
    /// Create an embedder.
    pub fn new() -> Self {
        Embedder
    }

    /// Embed a word or phrase.
    pub fn embed(&self, text: &str) -> Embedding {
        let text = text.trim().to_lowercase();
        if text.is_empty() {
            return Embedding::zero();
        }
        if let Some(cluster) = vocab::cluster_of(&text) {
            return member_vector(cluster, &text);
        }
        // Phrase fallback: mean of word vectors.
        let words: Vec<&str> = text.split_whitespace().collect();
        if words.len() > 1 {
            let mut acc = Embedding::zero();
            for w in &words {
                let v = self.embed(w);
                for (a, b) in acc.0.iter_mut().zip(&v.0) {
                    *a += b;
                }
            }
            acc.normalize();
            return acc;
        }
        // Unknown single word: its own pseudo-random direction.
        let mut v = seeded_direction(&format!("word:{text}"));
        v.normalize();
        v
    }

    /// Cosine similarity between the embeddings of two strings — the
    /// `maxScore` comparison primitive.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine_similarity(&self.embed(a), &self.embed(b))
    }

    /// `maxScore` (§V-A): among `candidates`, the one whose embedding is
    /// most similar to `query`; ties break to the earliest candidate.
    /// Returns `(index, similarity)`.
    pub fn max_score<'a>(
        &self,
        query: &str,
        candidates: impl IntoIterator<Item = &'a str>,
    ) -> Option<(usize, f32)> {
        let q = self.embed(query);
        let mut best: Option<(usize, f32)> = None;
        for (i, cand) in candidates.into_iter().enumerate() {
            let s = cosine_similarity(&q, &self.embed(cand));
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        best
    }
}

/// Composite vector for a member of a cluster.
fn member_vector(cluster: &vocab::ConceptCluster, word: &str) -> Embedding {
    let field = seeded_direction(&format!("field:{}", cluster.parent));
    let cluster_dir = seeded_direction(&format!("cluster:{}", cluster.name));
    let word_dir = seeded_direction(&format!("word:{word}"));
    let mut v = Embedding::zero();
    for i in 0..DIM {
        v.0[i] = W_FIELD * field.0[i] + W_CLUSTER * cluster_dir.0[i] + W_WORD * word_dir.0[i];
    }
    v.normalize();
    v
}

/// A deterministic pseudo-random unit direction derived from a seed string
/// (splitmix64 over the FNV-1a hash of the seed).
fn seeded_direction(seed: &str) -> Embedding {
    let mut state = fnv1a(seed);
    let mut v = Embedding::zero();
    for x in &mut v.0 {
        state = splitmix64(state);
        // Map to roughly standard normal via sum of uniforms.
        let u1 = (state >> 11) as f32 / (1u64 << 53) as f32;
        state = splitmix64(state);
        let u2 = (state >> 11) as f32 / (1u64 << 53) as f32;
        *x = (u1 + u2) - 1.0;
    }
    v.normalize();
    v
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

    #[test]
    fn synonyms_score_high() {
        let e = Embedder::new();
        // The paper's example: "dog" vs "puppy" must be considered
        // consistent (§VII experimental setting).
        assert!(e.similarity("dog", "puppy") > 0.7);
        assert!(e.similarity("worn", "wear") > 0.7);
        assert!(e.similarity("sofa", "couch") > 0.7);
    }

    #[test]
    fn siblings_score_moderate() {
        let e = Embedder::new();
        let dog_cat = e.similarity("dog", "cat");
        assert!(dog_cat > 0.1 && dog_cat < 0.7, "dog/cat = {dog_cat}");
    }

    #[test]
    fn strangers_score_low() {
        let e = Embedder::new();
        assert!(e.similarity("dog", "fence").abs() < 0.45);
        assert!(e.similarity("wear", "car").abs() < 0.45);
    }

    #[test]
    fn synonyms_beat_siblings_beat_strangers() {
        let e = Embedder::new();
        let syn = e.similarity("dog", "puppy");
        let sib = e.similarity("dog", "horse");
        let stranger = e.similarity("dog", "window");
        assert!(syn > sib, "{syn} !> {sib}");
        assert!(sib > stranger, "{sib} !> {stranger}");
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = Embedder::new();
        assert_eq!(e.embed("wizard"), e.embed("wizard"));
        assert_eq!(e.embed("in front of"), e.embed("in front of"));
    }

    #[test]
    fn phrase_members_hit_their_cluster() {
        let e = Embedder::new();
        // "in front of" is a cluster member, "facing" too.
        assert!(e.similarity("in front of", "facing") > 0.7);
        // near≈beside
        assert!(e.similarity("near", "beside") > 0.7);
    }

    #[test]
    fn unknown_phrase_falls_back_to_word_mean() {
        let e = Embedder::new();
        let v = e.embed("purple dog");
        assert!((v.norm() - 1.0).abs() < 1e-5);
        // Still closer to "dog" than to an unrelated word.
        assert!(
            cosine_similarity(&v, &e.embed("puppy")) > cosine_similarity(&v, &e.embed("window"))
        );
    }

    #[test]
    fn max_score_picks_best_candidate() {
        let e = Embedder::new();
        let cands = ["near", "wearing", "in front of", "holding"];
        let (idx, score) = e.max_score("facing", cands).unwrap();
        assert_eq!(cands[idx], "in front of");
        assert!(score > 0.6);
    }

    #[test]
    fn max_score_of_empty_candidates_is_none() {
        let e = Embedder::new();
        assert!(e.max_score("dog", std::iter::empty()).is_none());
    }

    #[test]
    fn empty_string_embeds_to_zero() {
        let e = Embedder::new();
        assert_eq!(e.embed(""), Embedding::zero());
        assert_eq!(e.similarity("", "dog"), 0.0);
    }

    #[test]
    fn unit_norm_invariant() {
        let e = Embedder::new();
        for w in ["dog", "wizard", "in front of", "zzz-unknown"] {
            let n = e.embed(w).norm();
            assert!((n - 1.0).abs() < 1e-5, "{w}: {n}");
        }
    }
}

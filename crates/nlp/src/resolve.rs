//! The §V-A `matchVertex` label ladder and the `maxScore` predicate score,
//! written once: the executor binds phrases with them, and the linter
//! predicts from them whether that binding comes back empty and how many
//! vertices it seeds.

use crate::embedding::{cosine_similarity, Embedder, Embedding};
use crate::lev::levenshtein_similarity;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimum Levenshtein similarity for a label to match a phrase.
pub const LEV_THRESHOLD: f64 = 0.8;

/// Minimum embedding cosine similarity for the embedding fallback.
pub const EMBED_THRESHOLD: f32 = 0.6;

/// Minimum similarity between a predicate and an edge label for that label
/// to carry the predicate. Without it, a query whose true predicate is
/// absent would keep every relation of the best *wrong* label.
pub const PREDICATE_FLOOR: f32 = 0.45;

/// Which rung of the `matchVertex` ladder produced a match — recorded in
/// execution profiles so `EXPLAIN ANALYZE` can say *how* a phrase reached
/// the graph, not just how many vertices it hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchMethod {
    /// Exact label match on the full phrase.
    Exact,
    /// Levenshtein similarity over distinct labels.
    Levenshtein,
    /// Exact match after falling back to the main noun.
    HeadExact,
    /// Levenshtein match on the main noun.
    HeadLevenshtein,
    /// Embedding cosine-similarity fallback.
    Embedding,
    /// Every rung failed: empty candidate set.
    #[default]
    NoMatch,
}

impl fmt::Display for MatchMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MatchMethod::Exact => "exact",
            MatchMethod::Levenshtein => "levenshtein",
            MatchMethod::HeadExact => "head-exact",
            MatchMethod::HeadLevenshtein => "head-levenshtein",
            MatchMethod::Embedding => "embedding",
            MatchMethod::NoMatch => "no-match",
        })
    }
}

/// A label vocabulary with in-scope counts: what [`resolve`] matches
/// against.
pub trait LabelCounts {
    /// Every distinct label (its in-scope count may be 0).
    fn labels(&self) -> impl Iterator<Item = &str>;

    /// How many in-scope items carry exactly `label`; 0 when none do.
    fn count(&self, label: &str) -> usize;
}

/// What [`resolve`] bound a phrase to.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolution<'a> {
    /// The matched labels with their in-scope counts (each count ≥ 1);
    /// embedding matches by descending similarity, then ascending label.
    pub labels: Vec<(&'a str, usize)>,
    /// The rung that matched; [`MatchMethod::NoMatch`] when `labels` is
    /// empty.
    pub rung: MatchMethod,
}

impl Resolution<'_> {
    /// How many in-scope items the matched labels carry: the size of the
    /// seed set `matchVertex` returns.
    pub fn count(&self) -> usize {
        self.labels.iter().map(|&(_, n)| n).sum()
    }
}

/// `matchVertex`'s label ladder (§V-A): the labels of `vocabulary` that
/// `phrase` (with main noun `head`) binds to, and the rung that bound them.
/// Each rung runs only when the ones before it found nothing: exact label,
/// then Levenshtein similarity ≥ [`LEV_THRESHOLD`], on the phrase and then
/// on a differing main noun; last, embedding similarity ≥
/// [`EMBED_THRESHOLD`] to the main noun. Labels without an in-scope item
/// never match.
pub fn resolve<'a, L: LabelCounts>(
    phrase: &'a str,
    head: &'a str,
    vocabulary: &'a L,
) -> Resolution<'a> {
    let probes = [
        (phrase, MatchMethod::Exact, MatchMethod::Levenshtein),
        (head, MatchMethod::HeadExact, MatchMethod::HeadLevenshtein),
    ];
    let head_differs = head != phrase && !head.is_empty();
    for (probe, exact_rung, lev_rung) in probes.into_iter().take(1 + usize::from(head_differs)) {
        let exact = vocabulary.count(probe);
        if exact > 0 {
            return Resolution {
                labels: vec![(probe, exact)],
                rung: exact_rung,
            };
        }
        let labels: Vec<(&str, usize)> = vocabulary
            .labels()
            .filter(|label| levenshtein_similarity(label, probe) >= LEV_THRESHOLD)
            .map(|label| (label, vocabulary.count(label)))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !labels.is_empty() {
            return Resolution {
                labels,
                rung: lev_rung,
            };
        }
    }
    // Embedding fallback on the main noun.
    let query = Embedder.embed(if head.is_empty() { phrase } else { head });
    let mut scored: Vec<(f32, &str, usize)> = Vec::new();
    for label in vocabulary.labels() {
        let sim = cosine_similarity(&query, &Embedder.embed(label));
        if sim >= EMBED_THRESHOLD {
            let n = vocabulary.count(label);
            if n > 0 {
                scored.push((sim, label, n));
            }
        }
    }
    // `total_cmp` never panics (a NaN similarity is an ordinary — if
    // worthless — value, not a crash), and the label tie-break makes
    // equal-similarity candidates independent of the vocabulary's
    // iteration order.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    let labels: Vec<(&str, usize)> = scored.into_iter().map(|(_, l, n)| (l, n)).collect();
    let rung = if labels.is_empty() {
        MatchMethod::NoMatch
    } else {
        MatchMethod::Embedding
    };
    Resolution { labels, rung }
}

/// `maxScore`'s comparison for one predicate (§V-A): the predicate is
/// embedded once, then each edge label is scored against it.
#[derive(Debug, Clone)]
pub struct PredicateScorer(Embedding);

impl PredicateScorer {
    /// A scorer for `predicate`.
    pub fn new(predicate: &str) -> Self {
        PredicateScorer(Embedder.embed(predicate))
    }

    /// Cosine similarity between the predicate and `label`.
    pub fn score(&self, label: &str) -> f32 {
        cosine_similarity(&self.0, &Embedder.embed(label))
    }

    /// Whether `label` clears [`PREDICATE_FLOOR`], i.e. can carry the
    /// predicate at all.
    pub fn clears(&self, label: &str) -> bool {
        self.score(label) >= PREDICATE_FLOOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Vocab(HashMap<&'static str, usize>);

    impl LabelCounts for Vocab {
        fn labels(&self) -> impl Iterator<Item = &str> {
            self.0.keys().copied()
        }

        fn count(&self, label: &str) -> usize {
            self.0.get(label).copied().unwrap_or(0)
        }
    }

    fn vocab(entries: &[(&'static str, usize)]) -> Vocab {
        Vocab(entries.iter().copied().collect())
    }

    #[test]
    fn rungs_in_ladder_order() {
        let v = vocab(&[("dog", 2), ("car", 1), ("wizard", 1)]);
        let r = resolve("dog", "dog", &v);
        assert_eq!((r.labels, r.rung), (vec![("dog", 2)], MatchMethod::Exact));
        assert_eq!(
            resolve("wizards", "wizards", &v).rung,
            MatchMethod::Levenshtein
        );
        assert_eq!(
            resolve("kind of dog", "dog", &v).rung,
            MatchMethod::HeadExact
        );
        assert_eq!(
            resolve("kind of wizards", "wizards", &v).rung,
            MatchMethod::HeadLevenshtein
        );
        let r = resolve("puppy", "puppy", &v);
        assert_eq!((r.count(), r.rung), (2, MatchMethod::Embedding));
        let r = resolve("spaceship", "spaceship", &v);
        assert_eq!((r.count(), r.rung), (0, MatchMethod::NoMatch));
    }

    #[test]
    fn labels_without_in_scope_items_never_match() {
        let v = vocab(&[("dog", 0), ("dogs", 0), ("puppy", 0), ("car", 3)]);
        let r = resolve("dog", "dog", &v);
        assert_eq!((r.labels, r.rung), (vec![], MatchMethod::NoMatch));
    }

    #[test]
    fn predicate_scorer_matches_similarity_and_applies_the_floor() {
        let embedder = Embedder::new();
        let s = PredicateScorer::new("wear");
        for label in ["wearing", "on", "holding", "wear"] {
            assert_eq!(s.score(label), embedder.similarity("wear", label));
        }
        assert!(s.clears("wearing"));
        assert!(!PredicateScorer::new("xqzvv").clears("wearing"));
    }
}

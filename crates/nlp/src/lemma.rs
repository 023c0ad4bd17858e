//! Lemmatization and voice normalization.
//!
//! The paper's Example 4 ends with "we change the passive voice (*are
//! worn*) to simple present (*wear*)" — SPOC predicates are stored in lemma
//! form so the executor's `maxScore` compares like with like.

use crate::vocab;
use std::collections::HashMap;

/// Lemmatizer with irregular-form tables and regular suffix stripping.
pub struct Lemmatizer {
    irregular_verbs: HashMap<&'static str, &'static str>,
    irregular_plurals: HashMap<&'static str, &'static str>,
}

impl Default for Lemmatizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Lemmatizer {
    /// Build the lemmatizer from the shared vocabulary tables.
    pub fn new() -> Self {
        Lemmatizer {
            irregular_verbs: vocab::IRREGULAR_VERBS.iter().copied().collect(),
            irregular_plurals: vocab::IRREGULAR_PLURALS.iter().copied().collect(),
        }
    }

    /// Lemma of a verb form ("worn" → "wear", "carried" → "carry",
    /// "sitting" → "sit").
    pub fn verb_lemma(&self, form: &str) -> String {
        if let Some(lemma) = self.irregular_verbs.get(form) {
            return (*lemma).to_owned();
        }
        if let Some(stem) = form.strip_suffix("ing") {
            return undouble(restore_e(stem, form));
        }
        if let Some(stem) = form.strip_suffix("ied") {
            return format!("{stem}y");
        }
        if let Some(stem) = form.strip_suffix("ed") {
            return undouble(restore_e(stem, form));
        }
        if let Some(stem) = form.strip_suffix("ies") {
            return format!("{stem}y");
        }
        if let Some(stem) = form.strip_suffix("es") {
            if stem.ends_with("ch")
                || stem.ends_with("sh")
                || stem.ends_with('x')
                || stem.ends_with('s')
            {
                return stem.to_owned();
            }
        }
        if let Some(stem) = form.strip_suffix('s') {
            if !form.ends_with("ss") {
                return stem.to_owned();
            }
        }
        form.to_owned()
    }

    /// Singular of a noun ("dogs" → "dog", "people" → "person").
    pub fn noun_lemma(&self, form: &str) -> String {
        if let Some(singular) = self.irregular_plurals.get(form) {
            return (*singular).to_owned();
        }
        if let Some(stem) = form.strip_suffix("ies") {
            return format!("{stem}y");
        }
        if let Some(stem) = form.strip_suffix("es") {
            if stem.ends_with("ch")
                || stem.ends_with("sh")
                || stem.ends_with('x')
                || stem.ends_with('s')
            {
                return stem.to_owned();
            }
        }
        if let Some(stem) = form.strip_suffix('s') {
            if !form.ends_with("ss") && !form.ends_with("us") && !form.ends_with("is") {
                return stem.to_owned();
            }
        }
        form.to_owned()
    }
}

/// Restore a dropped final "e" for stems that need it: "riding" → "rid" →
/// "ride"; decided by whether the bare stem is a known verb.
fn restore_e(stem: &str, _original: &str) -> String {
    let known: bool = vocab::known_verb_forms().any(|v| v == stem);
    if known {
        return stem.to_owned();
    }
    let with_e = format!("{stem}e");
    if vocab::known_verb_forms().any(|v| v == with_e) {
        return with_e;
    }
    stem.to_owned()
}

/// Undo consonant doubling: "sitting" → "sitt" → "sit".
fn undouble(stem: String) -> String {
    let bytes = stem.as_bytes();
    if bytes.len() >= 2
        && bytes[bytes.len() - 1] == bytes[bytes.len() - 2]
        && !matches!(bytes[bytes.len() - 1], b'l' | b's' | b'e')
    {
        let undoubled = &stem[..stem.len() - 1];
        if vocab::known_verb_forms().any(|v| v == undoubled) {
            return undoubled.to_owned();
        }
    }
    stem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_to_simple_present() {
        // The paper's Example 4: "are worn" → "wear".
        let l = Lemmatizer::new();
        assert_eq!(l.verb_lemma("worn"), "wear");
    }

    #[test]
    fn regular_verb_suffixes() {
        let l = Lemmatizer::new();
        assert_eq!(l.verb_lemma("jumped"), "jump");
        assert_eq!(l.verb_lemma("carried"), "carry");
        assert_eq!(l.verb_lemma("carries"), "carry");
        assert_eq!(l.verb_lemma("watches"), "watch");
        assert_eq!(l.verb_lemma("wears"), "wear");
    }

    #[test]
    fn gerunds() {
        let l = Lemmatizer::new();
        assert_eq!(l.verb_lemma("sitting"), "sit");
        assert_eq!(l.verb_lemma("riding"), "ride");
        assert_eq!(l.verb_lemma("jumping"), "jump");
        assert_eq!(l.verb_lemma("hanging"), "hang");
        assert_eq!(l.verb_lemma("running"), "run");
    }

    #[test]
    fn irregular_verbs() {
        let l = Lemmatizer::new();
        assert_eq!(l.verb_lemma("caught"), "catch");
        assert_eq!(l.verb_lemma("held"), "hold");
        assert_eq!(l.verb_lemma("sat"), "sit");
        assert_eq!(l.verb_lemma("were"), "be");
        assert_eq!(l.verb_lemma("is"), "be");
    }

    #[test]
    fn noun_plurals() {
        let l = Lemmatizer::new();
        assert_eq!(l.noun_lemma("dogs"), "dog");
        assert_eq!(l.noun_lemma("fences"), "fence");
        assert_eq!(l.noun_lemma("ladies"), "lady");
        assert_eq!(l.noun_lemma("people"), "person");
        assert_eq!(l.noun_lemma("children"), "child");
        // -ss / -us / -is words are not plurals.
        assert_eq!(l.noun_lemma("grass"), "grass");
        assert_eq!(l.noun_lemma("bus"), "bus");
    }

    #[test]
    fn already_lemma_forms_are_stable() {
        let l = Lemmatizer::new();
        assert_eq!(l.verb_lemma("wear"), "wear");
        assert_eq!(l.noun_lemma("dog"), "dog");
    }
}

//! SPOC quadruples and noun-phrase rendering.
//!
//! §II: "The SPOC is a quadruple abstract structure whose subject, predict,
//! object, and constraint are denoted by `v_s`, `v_p`, `v_o`, and `v_c`".

use serde::{Deserialize, Serialize};

/// Which SPOC slot carries the question's answer variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnswerRole {
    /// The subject is asked for.
    Subject,
    /// The object is asked for.
    Object,
}

/// A rendered noun phrase: the full surface phrase plus its lemmatized head
/// noun (what `matchVertex` keys on — "for non-simple nouns, the function
/// obtains its main noun", §V-A).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NounPhrase {
    /// Full phrase in lemma-normalized form, e.g. "kind of clothes",
    /// "harry potter's girlfriend".
    pub phrase: String,
    /// The lemmatized main noun, e.g. "clothes" → "clothing"-head "clothes";
    /// for "kind of X" phrases this is X's head (the aggregator word "kind"
    /// asks for the matched vertex's label, it is not itself an entity).
    pub head: String,
}

impl NounPhrase {
    /// A phrase made of a bare head noun.
    pub fn simple(head: impl Into<String>) -> Self {
        let head = head.into();
        NounPhrase {
            phrase: head.clone(),
            head,
        }
    }

    /// Whether the phrase is empty (missing SPOC slot).
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }
}

/// A SPOC quadruple — one vertex of the query graph.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Spoc {
    /// `c_s` — the (voice-normalized, semantic) subject.
    pub subject: NounPhrase,
    /// `c_p` — the predicate, lemmatized ("are worn" → "wear"); phrasal
    /// particles are kept ("hang out").
    pub predicate: String,
    /// `c_o` — the object.
    pub object: NounPhrase,
    /// `c_c` — the constraint, when present ("most frequently").
    pub constraint: Option<String>,
    /// Which slot the question asks for, if this clause carries the
    /// answer variable.
    pub answer_role: Option<AnswerRole>,
    /// Whether the answer asks for the *category* of the matched entity
    /// ("what kind of ...") rather than its identity.
    pub asks_kind: bool,
}

impl Spoc {
    /// Human-readable `⟨s, p, o, c⟩` rendering for logs and examples.
    pub fn display(&self) -> String {
        match &self.constraint {
            Some(c) => format!(
                "⟨{}, {}, {}, {}⟩",
                self.subject.phrase, self.predicate, self.object.phrase, c
            ),
            None => format!(
                "⟨{}, {}, {}⟩",
                self.subject.phrase, self.predicate, self.object.phrase
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_phrase() {
        let np = NounPhrase::simple("dog");
        assert_eq!(np.phrase, "dog");
        assert_eq!(np.head, "dog");
        assert!(!np.is_empty());
        assert!(NounPhrase::default().is_empty());
    }

    #[test]
    fn display_with_and_without_constraint() {
        let mut spoc = Spoc {
            subject: NounPhrase::simple("wizard"),
            predicate: "hang out".into(),
            object: NounPhrase::simple("girlfriend"),
            ..Spoc::default()
        };
        assert_eq!(spoc.display(), "⟨wizard, hang out, girlfriend⟩");
        spoc.constraint = Some("most frequently".into());
        assert_eq!(
            spoc.display(),
            "⟨wizard, hang out, girlfriend, most frequently⟩"
        );
    }
}

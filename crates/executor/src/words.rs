//! The predefined constraint word set `𝕊` (Algorithm 3 input, after
//! Luo et al.'s complex-query-graph encoding cited by the paper).

use serde::{Deserialize, Serialize};
use svqa_nlp::Embedder;

/// A recognized constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Constraint {
    /// Keep the answer(s) whose supporting evidence is most frequent.
    MostFrequent,
    /// Keep the answer(s) whose supporting evidence is least frequent.
    LeastFrequent,
    /// Frequency comparison `≥ n` (kept for extension queries).
    AtLeast,
    /// Frequency comparison `≤ n`.
    AtMost,
    /// Frequency comparison `= n`.
    Exactly,
}

impl Constraint {
    /// The canonical phrase of each constraint — the members of `𝕊`.
    pub fn phrase(self) -> &'static str {
        match self {
            Constraint::MostFrequent => "most frequently",
            Constraint::LeastFrequent => "least frequently",
            Constraint::AtLeast => "at least",
            Constraint::AtMost => "at most",
            Constraint::Exactly => "exactly",
        }
    }

    /// All constraints, i.e. the word set `𝕊`.
    pub const ALL: [Constraint; 5] = [
        Constraint::MostFrequent,
        Constraint::LeastFrequent,
        Constraint::AtLeast,
        Constraint::AtMost,
        Constraint::Exactly,
    ];

    /// `maxScore(L(c_c), 𝕊)` — Algorithm 3 line 9: the constraint keyword
    /// most similar to the query's `c_c`.
    pub fn max_score(text: &str, embedder: &Embedder) -> Constraint {
        // The numeric operand is parsed separately; keeping it in the
        // embedded phrase would drag "at least 2" away from "at least".
        let keyword_only: String = text
            .split_whitespace()
            .filter(|t| t.parse::<usize>().is_err() && Self::parse_operand(t).is_none())
            .collect::<Vec<_>>()
            .join(" ");
        let probe = if keyword_only.is_empty() {
            text
        } else {
            &keyword_only
        };
        let (idx, _) = embedder
            .max_score(probe, Constraint::ALL.iter().map(|c| c.phrase()))
            .expect("𝕊 is non-empty");
        Constraint::ALL[idx]
    }

    /// Extract the numeric operand of a comparative constraint ("at least
    /// three times" → 3). Digits and the common number words both work;
    /// `None` when the constraint carries no number (the frequency
    /// superlatives never do).
    pub fn parse_operand(text: &str) -> Option<usize> {
        const WORDS: [(&str, usize); 12] = [
            ("one", 1),
            ("two", 2),
            ("three", 3),
            ("four", 4),
            ("five", 5),
            ("six", 6),
            ("seven", 7),
            ("eight", 8),
            ("nine", 9),
            ("ten", 10),
            ("once", 1),
            ("twice", 2),
        ];
        for token in text.split_whitespace() {
            if let Ok(n) = token.parse::<usize>() {
                return Some(n);
            }
            if let Some(&(_, n)) = WORDS.iter().find(|(w, _)| *w == token) {
                return Some(n);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_phrases_resolve_to_themselves() {
        let e = Embedder::new();
        for c in Constraint::ALL {
            assert_eq!(Constraint::max_score(c.phrase(), &e), c);
        }
    }

    #[test]
    fn operand_extraction() {
        assert_eq!(Constraint::parse_operand("at least three times"), Some(3));
        assert_eq!(Constraint::parse_operand("at most 5"), Some(5));
        assert_eq!(Constraint::parse_operand("exactly twice"), Some(2));
        assert_eq!(Constraint::parse_operand("most frequently"), None);
    }

    #[test]
    fn paraphrases_resolve() {
        let e = Embedder::new();
        assert_eq!(
            Constraint::max_score("most often", &e),
            Constraint::MostFrequent
        );
        assert_eq!(
            Constraint::max_score("least often", &e),
            Constraint::LeastFrequent
        );
    }
}

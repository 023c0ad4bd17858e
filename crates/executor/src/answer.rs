//! Answer forms.
//!
//! §V: "We have three types of questions: counting, reasoning, and
//! judgment questions … corresponding to answers in the form of a number,
//! an entity, and a judgment word (i.e., Yes/No)".

use serde::{Deserialize, Serialize};
use std::fmt;

/// The answer to a complex query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Answer {
    /// Yes/no (judgment questions).
    Judgment(bool),
    /// A number (counting questions).
    Count(usize),
    /// An entity (reasoning questions): the top label plus lower-ranked
    /// alternatives.
    Entity {
        /// The selected answer label.
        label: String,
        /// Other candidate labels, best first.
        alternatives: Vec<String>,
    },
    /// The query executed but matched nothing (distinct from "No": the
    /// evidence was absent, not negative).
    Unknown,
}

impl Answer {
    /// Build an entity answer from ranked labels.
    pub fn entity_from_ranked(mut labels: Vec<String>) -> Answer {
        if labels.is_empty() {
            return Answer::Unknown;
        }
        let label = labels.remove(0);
        Answer::Entity {
            label,
            alternatives: labels,
        }
    }

    /// The count, if this is a counting answer.
    pub fn count(&self) -> Option<usize> {
        match self {
            Answer::Count(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Judgment(true) => write!(f, "Yes"),
            Answer::Judgment(false) => write!(f, "No"),
            Answer::Count(n) => write!(f, "{n}"),
            Answer::Entity { label, .. } => write!(f, "{label}"),
            Answer::Unknown => write!(f, "Unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Answer::Judgment(true).to_string(), "Yes");
        assert_eq!(Answer::Judgment(false).to_string(), "No");
        assert_eq!(Answer::Count(3).to_string(), "3");
        assert_eq!(
            Answer::Entity {
                label: "dog".into(),
                alternatives: vec![]
            }
            .to_string(),
            "dog"
        );
        assert_eq!(Answer::Unknown.to_string(), "Unknown");
    }

    #[test]
    fn entity_from_ranked() {
        let a = Answer::entity_from_ranked(vec!["robe".into(), "hat".into()]);
        match a {
            Answer::Entity {
                label,
                alternatives,
            } => {
                assert_eq!(label, "robe");
                assert_eq!(alternatives, vec!["hat"]);
            }
            _ => panic!(),
        }
        assert_eq!(Answer::entity_from_ranked(vec![]), Answer::Unknown);
    }

    #[test]
    fn accessors() {
        assert_eq!(Answer::Count(7).count(), Some(7));
        assert_eq!(Answer::Judgment(true).count(), None);
    }
}

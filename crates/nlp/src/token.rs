//! Tokenization.
//!
//! Splits a question into word and punctuation tokens. Two details matter
//! for SVQA's questions:
//!
//! * possessives are split PTB-style: `Harry Potter's girlfriend` →
//!   `Harry`, `Potter`, `'s`, `girlfriend` (the `'s` is tagged `POS` and the
//!   dependency parser turns it into an `nmod:poss` relation);
//! * all words are case-folded — the merged graph's labels are lower-case,
//!   and the tagger's lexicon is keyed on folded forms (proper-noun evidence
//!   is carried by the original casing on the token).

use serde::{Deserialize, Serialize};

/// A single token with its original surface form and position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// The case-folded text used by the tagger and parser.
    pub text: String,
    /// The surface form as written in the question.
    pub surface: String,
    /// Byte offset of the first character in the original question.
    pub offset: usize,
    /// Whether the surface form started with an upper-case letter while not
    /// being sentence-initial (a proper-noun hint for the tagger).
    pub mid_sentence_capitalized: bool,
}

impl Token {
    fn new(surface: &str, offset: usize, sentence_initial: bool) -> Self {
        let first_upper = surface.chars().next().is_some_and(char::is_uppercase);
        Token {
            text: surface.to_lowercase(),
            surface: surface.to_owned(),
            offset,
            mid_sentence_capitalized: first_upper && !sentence_initial,
        }
    }

    /// Whether this token is a single punctuation mark.
    pub fn is_punct(&self) -> bool {
        self.text.chars().all(|c| c.is_ascii_punctuation()) && self.text != "'s"
    }
}

/// Tokenize a question into words and punctuation.
pub fn tokenize(input: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut word_start: Option<usize> = None;
    let mut saw_word = false;

    let flush =
        |tokens: &mut Vec<Token>, input: &str, start: usize, end: usize, saw_word: &mut bool| {
            if start >= end {
                return;
            }
            let raw = &input[start..end];
            // Split trailing possessive: "Potter's" → "Potter" + "'s";
            // plain trailing apostrophe ("dogs'") → "dogs" + "'s".
            if let Some(stem_len) = possessive_split(raw) {
                tokens.push(Token::new(&raw[..stem_len], start, !*saw_word));
                *saw_word = true;
                tokens.push(Token {
                    text: "'s".to_owned(),
                    surface: raw[stem_len..].to_owned(),
                    offset: start + stem_len,
                    mid_sentence_capitalized: false,
                });
            } else {
                tokens.push(Token::new(raw, start, !*saw_word));
                *saw_word = true;
            }
        };

    for (i, ch) in input.char_indices() {
        if ch.is_alphanumeric() || ch == '-' || ch == '\'' {
            if word_start.is_none() {
                word_start = Some(i);
            }
        } else {
            if let Some(start) = word_start.take() {
                flush(&mut tokens, input, start, i, &mut saw_word);
            }
            if !ch.is_whitespace() {
                let end = i + ch.len_utf8();
                tokens.push(Token::new(&input[i..end], i, false));
            }
        }
    }
    if let Some(start) = word_start.take() {
        flush(&mut tokens, input, start, input.len(), &mut saw_word);
    }
    tokens
}

/// If `raw` ends in a possessive marker, return the stem length.
fn possessive_split(raw: &str) -> Option<usize> {
    if raw.len() > 2 && raw.ends_with("'s") {
        Some(raw.len() - 2)
    } else if raw.len() > 1 && raw.ends_with('\'') && !raw.ends_with("''") {
        Some(raw.len() - 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(input: &str) -> Vec<String> {
        tokenize(input).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn simple_sentence() {
        assert_eq!(
            texts("What kind of clothes are worn?"),
            vec!["what", "kind", "of", "clothes", "are", "worn", "?"]
        );
    }

    #[test]
    fn possessive_is_split() {
        assert_eq!(
            texts("Harry Potter's girlfriend"),
            vec!["harry", "potter", "'s", "girlfriend"]
        );
    }

    #[test]
    fn plural_possessive() {
        assert_eq!(texts("the dogs' owner"), vec!["the", "dogs", "'s", "owner"]);
    }

    #[test]
    fn proper_noun_hint_set_mid_sentence_only() {
        let toks = tokenize("Harry met Sally");
        assert!(!toks[0].mid_sentence_capitalized); // sentence-initial
        assert!(!toks[1].mid_sentence_capitalized);
        assert!(toks[2].mid_sentence_capitalized);
    }

    #[test]
    fn offsets_point_into_input() {
        let input = "a dog, a man";
        for t in tokenize(input) {
            assert!(input[t.offset..].starts_with(&t.surface));
        }
    }

    #[test]
    fn hyphenated_words_stay_together() {
        assert_eq!(
            texts("a well-known wizard"),
            vec!["a", "well-known", "wizard"]
        );
    }

    #[test]
    fn punctuation_tokens() {
        let toks = tokenize("who, me?");
        assert_eq!(
            toks.iter().map(|t| t.is_punct()).collect::<Vec<_>>(),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t ").is_empty());
    }

    #[test]
    fn case_folding_preserves_surface() {
        let toks = tokenize("Ginny Weasley");
        assert_eq!(toks[0].text, "ginny");
        assert_eq!(toks[0].surface, "Ginny");
    }
}

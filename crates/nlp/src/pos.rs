//! Part-of-speech tagging over the Penn Treebank tag set.
//!
//! The stand-in for the Stanford MaxEnt tagger (Eq. (4) of the paper). The
//! MaxEnt model's `arg max_y exp(Σ λ_i f_i(x, y)) / Z(x)` is replaced by a
//! deterministic pipeline with the same shape: a lexicon proposes candidate
//! tags per word (the feature templates), a contextual disambiguation pass
//! picks the arg-max candidate (the weights, here encoded as rule
//! priorities), and a morphological guesser covers unknown words.
//!
//! The guesser intentionally reproduces the paper's Fig. 8a failure mode:
//! a lexicon-unknown word with a Latinate ending (the paper's example is
//! *canis*) is tagged `FW` (foreign word), which later derails SPOC
//! extraction exactly as described in the error analysis.

use crate::tags::PosTag;
use crate::token::{tokenize, Token};
use crate::vocab;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A token paired with its assigned POS tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedToken {
    /// The underlying token.
    pub token: Token,
    /// The assigned Penn Treebank tag.
    pub tag: PosTag,
}

impl TaggedToken {
    /// The case-folded text of the token.
    pub fn text(&self) -> &str {
        &self.token.text
    }
}

/// Candidate tags for a word, in lexical priority order.
type Candidates = Vec<PosTag>;

/// Words that exist in the concept taxonomy (so the *embedder* knows them)
/// but are deliberately absent from the tagger lexicon — reproducing the
/// Fig. 8a error where "canis" is parsed as a foreign word.
const TAGGER_UNKNOWN: &[&str] = &["canis"];

/// The rule-based PTB tagger.
pub struct PosTagger {
    lexicon: &'static HashMap<&'static str, Candidates>,
}

impl Default for PosTagger {
    fn default() -> Self {
        Self::new()
    }
}

impl PosTagger {
    /// Build the tagger. The lexicon is constructed from the shared
    /// vocabulary once per process and shared by every tagger.
    pub fn new() -> Self {
        static LEXICON: OnceLock<HashMap<&'static str, Candidates>> = OnceLock::new();
        PosTagger {
            lexicon: LEXICON.get_or_init(Self::build_lexicon),
        }
    }

    /// The tagger lexicon: candidate tags per known word, in lexical priority
    /// order.
    fn build_lexicon() -> HashMap<&'static str, Candidates> {
        let mut lexicon: HashMap<&'static str, Candidates> = HashMap::new();
        let mut add = |w: &'static str, t: PosTag| {
            let entry = lexicon.entry(w).or_default();
            if !entry.contains(&t) {
                entry.push(t);
            }
        };

        for &w in vocab::DETERMINERS {
            add(w, PosTag::DT);
        }
        for &w in vocab::PREPOSITIONS {
            add(w, PosTag::IN);
        }
        for &w in vocab::PRONOUNS {
            add(w, PosTag::PRP);
        }
        for &w in vocab::POSSESSIVE_PRONOUNS {
            add(w, PosTag::PRPS);
        }
        for &w in vocab::WH_PRONOUNS {
            add(w, PosTag::WP);
        }
        for &w in vocab::WH_DETERMINERS {
            add(w, PosTag::WDT);
        }
        for &w in vocab::WH_ADVERBS {
            add(w, PosTag::WRB);
        }
        for &w in vocab::MODALS {
            add(w, PosTag::MD);
        }
        for &w in vocab::CONJUNCTIONS {
            add(w, PosTag::CC);
        }
        for &w in vocab::ADVERBS {
            add(w, PosTag::RB);
        }
        for &w in vocab::SUPERLATIVE_ADVERBS {
            add(w, PosTag::RBS);
        }
        for &w in vocab::ADJECTIVES {
            add(w, PosTag::JJ);
        }
        for &w in vocab::NUMBER_WORDS {
            add(w, PosTag::CD);
        }
        // Auxiliaries / copulas with their inflection-specific tags.
        for (w, t) in [
            ("is", PosTag::VBZ), ("are", PosTag::VBP), ("am", PosTag::VBP),
            ("was", PosTag::VBD), ("were", PosTag::VBD),
            ("be", PosTag::VB), ("been", PosTag::VBN), ("being", PosTag::VBG),
            ("does", PosTag::VBZ), ("do", PosTag::VBP), ("did", PosTag::VBD),
            ("has", PosTag::VBZ), ("have", PosTag::VBP), ("had", PosTag::VBD),
            ("there", PosTag::EX),
        ] {
            add(w, t);
        }
        // Open-class verbs with morphology-derived candidates.
        for form in vocab::known_verb_forms() {
            for t in verb_form_tags(form) {
                add(form, t);
            }
        }
        // Open-class nouns (minus the deliberate unknowns).
        for noun in vocab::known_nouns() {
            if TAGGER_UNKNOWN.contains(&noun) {
                continue;
            }
            let tag = if noun.ends_with('s') && !noun.ends_with("ss") && noun != "bus" {
                PosTag::NNS
            } else {
                PosTag::NN
            };
            add(noun, tag);
            // Regular plural of every known singular noun. The plurals are
            // leaked once per process: the lexicon is built once and the
            // plural set is finite (the fixed taxonomy).
            if tag == PosTag::NN {
                let plural: &'static str = Box::leak(regular_plural(noun).into_boxed_str());
                add(plural, PosTag::NNS);
            }
        }
        lexicon
    }

    /// Tokenize and tag a question.
    pub fn tag(&self, question: &str) -> Vec<TaggedToken> {
        self.tag_tokens(tokenize(question))
    }

    /// Tag a pre-tokenized question.
    pub fn tag_tokens(&self, tokens: Vec<Token>) -> Vec<TaggedToken> {
        let candidates: Vec<Candidates> = tokens
            .iter()
            .map(|t| self.candidates_for(t))
            .collect();
        let mut tags = Vec::with_capacity(tokens.len());
        for i in 0..tokens.len() {
            let tag = self.disambiguate(&tokens, &candidates, &tags, i);
            tags.push(tag);
        }
        tokens
            .into_iter()
            .zip(tags)
            .map(|(token, tag)| TaggedToken { token, tag })
            .collect()
    }

    /// Candidate tags for a token: lexicon hit or morphological guess.
    fn candidates_for(&self, token: &Token) -> Candidates {
        if token.text == "'s" {
            return vec![PosTag::POS];
        }
        if let Some(punct) = punct_tag(&token.text) {
            return vec![punct];
        }
        if let Some(c) = self.lexicon.get(token.text.as_str()) {
            return c.clone();
        }
        vec![guess_unknown(token)]
    }

    /// Pick the contextual arg-max among a token's candidates (the stand-in
    /// for Eq. (4)'s weighted feature sum).
    fn disambiguate(
        &self,
        tokens: &[Token],
        candidates: &[Candidates],
        assigned: &[PosTag],
        i: usize,
    ) -> PosTag {
        let cands = &candidates[i];
        if cands.len() == 1 {
            return self.contextual_fixups(tokens, candidates, assigned, i, cands[0]);
        }
        let prev = last_non_adverb(assigned);
        let text = tokens[i].text.as_str();

        // Noun/verb ambiguity: nominal context forces the noun reading.
        let has_noun = cands.iter().any(|t| t.is_noun());
        let has_verb = cands.iter().any(|t| t.is_verb());
        if has_noun && has_verb {
            let nominal_context = matches!(
                prev,
                Some(PosTag::DT | PosTag::JJ | PosTag::JJR | PosTag::JJS | PosTag::PRPS
                    | PosTag::CD | PosTag::POS | PosTag::WDT)
            );
            let chosen = if nominal_context {
                *cands.iter().find(|t| t.is_noun()).expect("has noun")
            } else {
                *cands.iter().find(|t| t.is_verb()).expect("has verb")
            };
            return self.contextual_fixups(tokens, candidates, assigned, i, chosen);
        }

        // VB vs VBP: infinitival/do-support context selects the base form.
        if cands.contains(&PosTag::VB) && cands.contains(&PosTag::VBP) {
            let base_context = matches!(prev, Some(PosTag::TO | PosTag::MD))
                || prev_is_do_form(tokens, assigned);
            let chosen = if base_context { PosTag::VB } else { PosTag::VBP };
            return self.contextual_fixups(tokens, candidates, assigned, i, chosen);
        }

        // VBD vs VBN: a preceding be/have auxiliary selects the participle.
        if cands.contains(&PosTag::VBD) && cands.contains(&PosTag::VBN) {
            let chosen = if prev_is_aux(tokens, assigned) {
                PosTag::VBN
            } else {
                PosTag::VBD
            };
            return self.contextual_fixups(tokens, candidates, assigned, i, chosen);
        }

        let _ = text;
        self.contextual_fixups(tokens, candidates, assigned, i, cands[0])
    }

    /// Brill-style transformations applied after the lexical choice.
    fn contextual_fixups(
        &self,
        tokens: &[Token],
        candidates: &[Candidates],
        assigned: &[PosTag],
        i: usize,
        tag: PosTag,
    ) -> PosTag {
        let text = tokens[i].text.as_str();
        let next_cands = candidates.get(i + 1);

        // "that" heading a relative clause is WDT, not DT/IN:
        // "the pets that were situated ..." — next word is a verb or aux.
        if text == "that" {
            let next_is_verbal = next_cands
                .is_some_and(|c| c.iter().any(|t| t.is_verb() || *t == PosTag::MD));
            return if next_is_verbal { PosTag::WDT } else { PosTag::DT };
        }
        // "what kind ..." — WP becomes WDT before a nominal.
        if text == "what" && tag == PosTag::WP {
            let next_is_nominal = next_cands
                .is_some_and(|c| c.iter().any(|t| t.is_noun() || t.is_adjective()));
            if next_is_nominal {
                return PosTag::WDT;
            }
        }
        // "many"/"few" after "how" are JJ (the tagger may know them already,
        // this guards the guesser path).
        if matches!(assigned.last(), Some(PosTag::WRB)) && (text == "many" || text == "few") {
            return PosTag::JJ;
        }
        // Participle after be/have even when the lexicon only offered VBD
        // (covers irregulars listed once).
        if tag == PosTag::VBD && prev_is_aux(tokens, assigned) {
            return PosTag::VBN;
        }
        // A base/present verb form directly after a nominal determiner is a
        // noun conversion ("the watch", "a run").
        if matches!(tag, PosTag::VB | PosTag::VBP)
            && matches!(
                last_non_adverb(assigned),
                Some(PosTag::DT | PosTag::PRPS | PosTag::JJ | PosTag::CD | PosTag::POS)
            )
        {
            return PosTag::NN;
        }
        tag
    }
}

/// Tags a verb form can take, inferred from its morphology.
fn verb_form_tags(form: &str) -> Candidates {
    if form.ends_with("ing") {
        vec![PosTag::VBG]
    } else if vocab::IRREGULAR_VERBS
        .iter()
        .any(|(f, _)| *f == form)
    {
        // Irregular inflected form: past/participle, disambiguated in
        // context.
        vec![PosTag::VBD, PosTag::VBN]
    } else if form.ends_with("ed") {
        vec![PosTag::VBD, PosTag::VBN]
    } else if form.ends_with('s') {
        vec![PosTag::VBZ]
    } else {
        vec![PosTag::VBP, PosTag::VB]
    }
}

/// Regular plural formation (used to extend the noun lexicon).
fn regular_plural(noun: &str) -> String {
    if noun.ends_with('s')
        || noun.ends_with('x')
        || noun.ends_with("ch")
        || noun.ends_with("sh")
    {
        format!("{noun}es")
    } else if noun.ends_with('y')
        && !noun.ends_with("ay")
        && !noun.ends_with("ey")
        && !noun.ends_with("oy")
    {
        format!("{}ies", &noun[..noun.len() - 1])
    } else {
        format!("{noun}s")
    }
}

/// Tag for punctuation tokens.
fn punct_tag(text: &str) -> Option<PosTag> {
    match text {
        "." | "?" | "!" => Some(PosTag::Period),
        "," => Some(PosTag::Comma),
        ":" | ";" => Some(PosTag::Colon),
        "(" => Some(PosTag::LParen),
        ")" => Some(PosTag::RParen),
        "\"" | "``" => Some(PosTag::OpenQuote),
        "''" => Some(PosTag::CloseQuote),
        "$" => Some(PosTag::Dollar),
        "#" => Some(PosTag::Hash),
        _ => None,
    }
}

/// Morphological guesser for lexicon-unknown words.
fn guess_unknown(token: &Token) -> PosTag {
    let text = token.text.as_str();
    if text.chars().all(|c| c.is_ascii_digit()) {
        return PosTag::CD;
    }
    if text.ends_with("ly") {
        return PosTag::RB;
    }
    if text.ends_with("ing") && text.len() > 4 {
        return PosTag::VBG;
    }
    if text.ends_with("ed") && text.len() > 3 {
        return PosTag::VBD;
    }
    // Fig. 8a: unknown Latinate word → FW.
    if vocab::FOREIGN_ENDINGS.iter().any(|e| text.ends_with(e)) && text.len() > 3 {
        return PosTag::FW;
    }
    // Capitalized unknown words are proper nouns; a sentence-initial
    // capital also counts here because closed-class sentence starters
    // ("Does", "What", "The") are all lexicon-known and never reach the
    // guesser.
    if token.surface.chars().next().is_some_and(char::is_uppercase) {
        return if text.ends_with('s') {
            PosTag::NNPS
        } else {
            PosTag::NNP
        };
    }
    if text.ends_with('s') && text.len() > 2 {
        return PosTag::NNS;
    }
    PosTag::NN
}

/// The most recent assigned tag that is not an adverb (adverbs are
/// transparent for agreement contexts: "is most frequently hanging").
fn last_non_adverb(assigned: &[PosTag]) -> Option<PosTag> {
    assigned.iter().rev().copied().find(|t| !t.is_adverb())
}

/// Whether the closest preceding non-adverb word is a be/have auxiliary.
fn prev_is_aux(tokens: &[Token], assigned: &[PosTag]) -> bool {
    for j in (0..assigned.len()).rev() {
        if assigned[j].is_adverb() {
            continue;
        }
        let w = tokens[j].text.as_str();
        return matches!(
            w,
            "is" | "are" | "am" | "was" | "were" | "be" | "been" | "being"
                | "has" | "have" | "had"
        );
    }
    false
}

/// Whether a preceding do-form governs this position ("does the dog ...
/// appear"). Do-support skips the whole subject NP, including embedded
/// relative clauses ("does the dog that is sitting on the bed appear").
fn prev_is_do_form(tokens: &[Token], assigned: &[PosTag]) -> bool {
    for j in (0..assigned.len()).rev() {
        let t = assigned[j];
        let w = tokens[j].text.as_str();
        let transparent = t.is_adverb()
            || t.is_noun()
            || t.is_adjective()
            || t.is_wh()
            || matches!(
                t,
                PosTag::DT | PosTag::IN | PosTag::POS | PosTag::PRPS | PosTag::CD
                    | PosTag::VBG | PosTag::VBN
            )
            || matches!(w, "is" | "are" | "was" | "were" | "be" | "been" | "being");
        if transparent {
            continue;
        }
        return matches!(w, "does" | "do" | "did");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag_strs(q: &str) -> Vec<(String, PosTag)> {
        PosTagger::new()
            .tag(q)
            .into_iter()
            .map(|t| (t.token.text.clone(), t.tag))
            .collect()
    }

    fn tags_of(q: &str) -> Vec<PosTag> {
        tag_strs(q).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn example4_passive_main_clause() {
        // "What kind of clothes are worn by the wizard"
        let tags = tag_strs("What kind of clothes are worn by the wizard?");
        let expect = [
            ("what", PosTag::WDT),
            ("kind", PosTag::NN),
            ("of", PosTag::IN),
            ("clothes", PosTag::NNS),
            ("are", PosTag::VBP),
            ("worn", PosTag::VBN),
            ("by", PosTag::IN),
            ("the", PosTag::DT),
            ("wizard", PosTag::NN),
            ("?", PosTag::Period),
        ];
        for (got, want) in tags.iter().zip(expect.iter()) {
            assert_eq!((got.0.as_str(), got.1), *want, "full: {tags:?}");
        }
    }

    #[test]
    fn relative_that_is_wdt() {
        let tags = tag_strs("the pets that were situated in the car");
        let that = tags.iter().find(|(w, _)| w == "that").unwrap();
        assert_eq!(that.1, PosTag::WDT);
        let situated = tags.iter().find(|(w, _)| w == "situated").unwrap();
        assert_eq!(situated.1, PosTag::VBN);
    }

    #[test]
    fn demonstrative_that_is_dt() {
        let tags = tag_strs("that dog is near the man");
        assert_eq!(tags[0], ("that".to_owned(), PosTag::DT));
    }

    #[test]
    fn progressive_with_adverbs() {
        // "is most frequently hanging out with"
        let tags = tag_strs("the wizard is most frequently hanging out with her");
        let pairs: Vec<_> = tags.iter().map(|(w, t)| (w.as_str(), *t)).collect();
        assert!(pairs.contains(&("most", PosTag::RBS)));
        assert!(pairs.contains(&("frequently", PosTag::RB)));
        assert!(pairs.contains(&("hanging", PosTag::VBG)));
        assert!(pairs.contains(&("out", PosTag::RB)));
    }

    #[test]
    fn canis_is_foreign_word() {
        // Fig. 8a: "the kind of canis that is sitting on the bed".
        let tags = tag_strs("Does the kind of canis that is sitting on the bed appear?");
        let canis = tags.iter().find(|(w, _)| w == "canis").unwrap();
        assert_eq!(canis.1, PosTag::FW);
    }

    #[test]
    fn how_many_counting_question() {
        let tags = tag_strs("How many dogs are sitting on the grass?");
        let pairs: Vec<_> = tags.iter().map(|(w, t)| (w.as_str(), *t)).collect();
        assert!(pairs.contains(&("how", PosTag::WRB)));
        assert!(pairs.contains(&("many", PosTag::JJ)));
        assert!(pairs.contains(&("dogs", PosTag::NNS)));
        assert!(pairs.contains(&("sitting", PosTag::VBG)));
    }

    #[test]
    fn do_support_base_verb() {
        let tags = tag_strs("Does the dog appear in front of the car?");
        let pairs: Vec<_> = tags.iter().map(|(w, t)| (w.as_str(), *t)).collect();
        assert!(pairs.contains(&("does", PosTag::VBZ)));
        assert!(pairs.contains(&("appear", PosTag::VB)), "{pairs:?}");
    }

    #[test]
    fn possessive_tagging() {
        let tags = tag_strs("Harry Potter's girlfriend");
        let pairs: Vec<_> = tags.iter().map(|(w, t)| (w.as_str(), *t)).collect();
        assert_eq!(pairs[0], ("harry", PosTag::NNP));
        assert_eq!(pairs[1], ("potter", PosTag::NNP));
        assert_eq!(pairs[2], ("'s", PosTag::POS));
        assert_eq!(pairs[3].1, PosTag::NN);
    }

    #[test]
    fn noun_verb_ambiguity_resolved_by_context() {
        // "watch" is noun after a determiner, verb otherwise.
        let noun_read = tag_strs("the watch is on the table");
        assert_eq!(noun_read[1], ("watch".to_owned(), PosTag::NN));
        let verb_read = tag_strs("they watch the dog");
        assert_eq!(verb_read[1].1, PosTag::VBP);
    }

    #[test]
    fn plural_nouns_from_regular_morphology() {
        let tags = tag_strs("the wizards and the fences");
        let pairs: Vec<_> = tags.iter().map(|(w, t)| (w.as_str(), *t)).collect();
        assert!(pairs.contains(&("wizards", PosTag::NNS)));
        assert!(pairs.contains(&("fences", PosTag::NNS)));
        assert!(pairs.contains(&("and", PosTag::CC)));
    }

    #[test]
    fn digits_are_cd() {
        assert_eq!(tags_of("3 dogs")[0], PosTag::CD);
        assert_eq!(tags_of("two dogs")[0], PosTag::CD);
    }

    #[test]
    fn unknown_capitalized_word_is_proper_noun() {
        let tags = tag_strs("a dog near Hogwarts");
        let h = tags.iter().find(|(w, _)| w == "hogwarts").unwrap();
        // ends in 's' and mid-sentence capitalized → NNPS;
        assert!(matches!(h.1, PosTag::NNP | PosTag::NNPS));
    }

    #[test]
    fn taggers_share_one_lexicon_and_agree() {
        let q = "How many dogs and horses are near the buses, benches and \
                 umbrellas that the wizards and children are watching?";
        let (a, b) = (PosTagger::new(), PosTagger::new());
        assert!(std::ptr::eq(a.lexicon, b.lexicon));
        let tagged = a.tag(q);
        assert_eq!(tagged, b.tag(q));
        for plural in ["dogs", "horses", "buses", "benches", "umbrellas", "wizards"] {
            let t = tagged.iter().find(|t| t.text() == plural).unwrap();
            assert_eq!(t.tag, PosTag::NNS, "{plural}");
        }
    }

    #[test]
    fn every_question_word_gets_some_tag() {
        // Smoke test: no panics, one tag per token on a long question.
        let q = "What kind of clothes are worn by the wizard who is most \
                 frequently hanging out with Harry Potter's girlfriend?";
        let tagged = PosTagger::new().tag(q);
        assert_eq!(tagged.len(), tokenize(q).len());
    }
}

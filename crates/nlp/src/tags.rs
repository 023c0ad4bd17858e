//! The Penn Treebank part-of-speech tag set.
//!
//! The paper (§IV-B) observes that "there are 45 tags produced by Stanford
//! POS Tagger" and that only four coarse classes (nouns, verbs, adjectives,
//! adverbs) are needed to segment clauses. This module carries the full tag
//! set so that observation is reproducible, plus the coarse-class predicates
//! the clause splitter uses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A Penn Treebank POS tag (36 word tags + 9 punctuation/symbol tags = 45).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the standard PTB inventory
pub enum PosTag {
    // --- word tags ---
    CC, CD, DT, EX, FW, IN, JJ, JJR, JJS, LS, MD,
    NN, NNS, NNP, NNPS, PDT, POS, PRP, PRPS, // PRPS = PRP$
    RB, RBR, RBS, RP, SYM, TO, UH,
    VB, VBD, VBG, VBN, VBP, VBZ,
    WDT, WP, WPS, // WPS = WP$
    WRB,
    // --- punctuation / symbol tags ---
    Period, Comma, Colon, LParen, RParen, OpenQuote, CloseQuote, Dollar, Hash,
}

impl PosTag {
    /// All 45 tags, in canonical order.
    pub const ALL: [PosTag; 45] = [
        PosTag::CC, PosTag::CD, PosTag::DT, PosTag::EX, PosTag::FW, PosTag::IN,
        PosTag::JJ, PosTag::JJR, PosTag::JJS, PosTag::LS, PosTag::MD,
        PosTag::NN, PosTag::NNS, PosTag::NNP, PosTag::NNPS, PosTag::PDT,
        PosTag::POS, PosTag::PRP, PosTag::PRPS, PosTag::RB, PosTag::RBR,
        PosTag::RBS, PosTag::RP, PosTag::SYM, PosTag::TO, PosTag::UH,
        PosTag::VB, PosTag::VBD, PosTag::VBG, PosTag::VBN, PosTag::VBP,
        PosTag::VBZ, PosTag::WDT, PosTag::WP, PosTag::WPS, PosTag::WRB,
        PosTag::Period, PosTag::Comma, PosTag::Colon, PosTag::LParen,
        PosTag::RParen, PosTag::OpenQuote, PosTag::CloseQuote, PosTag::Dollar,
        PosTag::Hash,
    ];

    /// The PTB surface string of this tag.
    pub fn as_str(self) -> &'static str {
        match self {
            PosTag::CC => "CC", PosTag::CD => "CD", PosTag::DT => "DT",
            PosTag::EX => "EX", PosTag::FW => "FW", PosTag::IN => "IN",
            PosTag::JJ => "JJ", PosTag::JJR => "JJR", PosTag::JJS => "JJS",
            PosTag::LS => "LS", PosTag::MD => "MD", PosTag::NN => "NN",
            PosTag::NNS => "NNS", PosTag::NNP => "NNP", PosTag::NNPS => "NNPS",
            PosTag::PDT => "PDT", PosTag::POS => "POS", PosTag::PRP => "PRP",
            PosTag::PRPS => "PRP$", PosTag::RB => "RB", PosTag::RBR => "RBR",
            PosTag::RBS => "RBS", PosTag::RP => "RP", PosTag::SYM => "SYM",
            PosTag::TO => "TO", PosTag::UH => "UH", PosTag::VB => "VB",
            PosTag::VBD => "VBD", PosTag::VBG => "VBG", PosTag::VBN => "VBN",
            PosTag::VBP => "VBP", PosTag::VBZ => "VBZ", PosTag::WDT => "WDT",
            PosTag::WP => "WP", PosTag::WPS => "WP$", PosTag::WRB => "WRB",
            PosTag::Period => ".", PosTag::Comma => ",", PosTag::Colon => ":",
            PosTag::LParen => "-LRB-", PosTag::RParen => "-RRB-",
            PosTag::OpenQuote => "``", PosTag::CloseQuote => "''",
            PosTag::Dollar => "$", PosTag::Hash => "#",
        }
    }

    /// Noun-class tag (NN, NNS, NNP, NNPS) — one of the paper's four
    /// segmentation classes.
    pub fn is_noun(self) -> bool {
        matches!(self, PosTag::NN | PosTag::NNS | PosTag::NNP | PosTag::NNPS)
    }

    /// Verb-class tag (VB, VBD, VBG, VBN, VBP, VBZ).
    pub fn is_verb(self) -> bool {
        matches!(
            self,
            PosTag::VB | PosTag::VBD | PosTag::VBG | PosTag::VBN | PosTag::VBP | PosTag::VBZ
        )
    }

    /// Adjective-class tag (JJ, JJR, JJS).
    pub fn is_adjective(self) -> bool {
        matches!(self, PosTag::JJ | PosTag::JJR | PosTag::JJS)
    }

    /// Adverb-class tag (RB, RBR, RBS, WRB).
    pub fn is_adverb(self) -> bool {
        matches!(self, PosTag::RB | PosTag::RBR | PosTag::RBS | PosTag::WRB)
    }

    /// One of the paper's four clause-segmentation classes (§IV-B strategy
    /// (1): "we only use 4 tags ... out of 45").
    pub fn is_segmentation_class(self) -> bool {
        self.is_noun() || self.is_verb() || self.is_adjective() || self.is_adverb()
    }

    /// WH-word tag (WDT, WP, WP$, WRB).
    pub fn is_wh(self) -> bool {
        matches!(self, PosTag::WDT | PosTag::WP | PosTag::WPS | PosTag::WRB)
    }

    /// Punctuation or symbol tag.
    pub fn is_punct(self) -> bool {
        matches!(
            self,
            PosTag::Period
                | PosTag::Comma
                | PosTag::Colon
                | PosTag::LParen
                | PosTag::RParen
                | PosTag::OpenQuote
                | PosTag::CloseQuote
                | PosTag::Dollar
                | PosTag::Hash
        )
    }
}

impl fmt::Display for PosTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_45_tags() {
        // The paper: "There are 45 tags produced by Stanford POS Tagger".
        assert_eq!(PosTag::ALL.len(), 45);
        // And they are distinct.
        let mut strings: Vec<_> = PosTag::ALL.iter().map(|t| t.as_str()).collect();
        strings.sort();
        strings.dedup();
        assert_eq!(strings.len(), 45);
    }

    #[test]
    fn string_roundtrip() {
        // Every tag's surface string names that tag alone.
        for tag in PosTag::ALL {
            let named: Vec<_> = PosTag::ALL
                .iter()
                .filter(|t| t.as_str() == tag.as_str())
                .collect();
            assert_eq!(named, vec![&tag]);
        }
    }

    #[test]
    fn coarse_classes() {
        assert!(PosTag::NNS.is_noun());
        assert!(PosTag::VBN.is_verb());
        assert!(PosTag::JJS.is_adjective());
        assert!(PosTag::RBS.is_adverb());
        assert!(!PosTag::IN.is_segmentation_class());
        assert!(PosTag::NN.is_segmentation_class());
    }

    #[test]
    fn only_four_coarse_classes_count_for_segmentation() {
        let seg: Vec<_> = PosTag::ALL
            .iter()
            .filter(|t| t.is_segmentation_class())
            .collect();
        // 4 noun + 6 verb + 3 adjective + 4 adverb (incl. WRB) tags.
        assert_eq!(seg.len(), 17);
    }

    #[test]
    fn wh_and_punct_predicates() {
        assert!(PosTag::WP.is_wh());
        assert!(PosTag::WRB.is_wh());
        assert!(!PosTag::NN.is_wh());
        assert!(PosTag::Period.is_punct());
        assert!(!PosTag::FW.is_punct());
    }
}

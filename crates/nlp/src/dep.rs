//! Dependency parsing.
//!
//! The stand-in for the Stanford transition-based neural parser (Eq. (5) of
//! the paper). The neural action scorer is replaced by deterministic
//! linguistic attachment rules; the output is a Universal-Dependencies tree
//! over the tagged question, carrying exactly the relations §IV consumes:
//! `nsubj`, `nsubj:pass`, `obj`, `obl`, `nmod`, `nmod:poss`, `case`, `det`,
//! `amod`, `compound`, `advmod`, `aux`, `aux:pass`, `acl:relcl`, `fixed`.
//!
//! The parser runs a fixed cascade of passes (multiword prepositions →
//! auxiliaries → noun-phrase internals → prepositional attachment →
//! relative clauses → subjects → objects → root selection); each pass only
//! attaches still-headless tokens, so the cascade is confluent and the
//! result is a single-rooted tree (validated before returning). The
//! companion [`crate::transition`] module replays any produced tree as an
//! arc-standard derivation, which doubles as a projectivity check.

use crate::pos::TaggedToken;
use crate::tags::PosTag;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Universal-Dependencies relation labels used by SVQA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DepLabel {
    Root,
    Nsubj,
    NsubjPass,
    Obj,
    Obl,
    Nmod,
    NmodPoss,
    Case,
    Det,
    Amod,
    Compound,
    Advmod,
    Aux,
    AuxPass,
    AclRelcl,
    Fixed,
    /// Coordinated clause ("... and the man watches the dog").
    Conj,
    /// The coordinating conjunction word itself.
    Cc,
    Punct,
    /// Fallback attachment for tokens no rule claimed.
    Dep,
}

impl DepLabel {
    /// The UD surface string.
    pub fn as_str(self) -> &'static str {
        match self {
            DepLabel::Root => "root",
            DepLabel::Nsubj => "nsubj",
            DepLabel::NsubjPass => "nsubj:pass",
            DepLabel::Obj => "obj",
            DepLabel::Obl => "obl",
            DepLabel::Nmod => "nmod",
            DepLabel::NmodPoss => "nmod:poss",
            DepLabel::Case => "case",
            DepLabel::Det => "det",
            DepLabel::Amod => "amod",
            DepLabel::Compound => "compound",
            DepLabel::Advmod => "advmod",
            DepLabel::Aux => "aux",
            DepLabel::AuxPass => "aux:pass",
            DepLabel::AclRelcl => "acl:relcl",
            DepLabel::Fixed => "fixed",
            DepLabel::Conj => "conj",
            DepLabel::Cc => "cc",
            DepLabel::Punct => "punct",
            DepLabel::Dep => "dep",
        }
    }
}

impl fmt::Display for DepLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors from parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The question contains no verb, so no clause structure exists.
    NoVerb,
    /// The sentence is empty.
    Empty,
    /// Internal invariant failure (cycle / multiple roots); carries a
    /// description. Should be unreachable; surfaced instead of panicking.
    Inconsistent(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NoVerb => write!(f, "no verb found in question"),
            ParseError::Empty => write!(f, "empty question"),
            ParseError::Inconsistent(m) => write!(f, "inconsistent parse: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A dependency tree over a tagged sentence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepTree {
    tokens: Vec<TaggedToken>,
    /// `heads[i]` is the head index of token `i`; `None` only for the root.
    heads: Vec<Option<usize>>,
    labels: Vec<DepLabel>,
    root: usize,
}

impl DepTree {
    /// The tagged tokens.
    pub fn tokens(&self) -> &[TaggedToken] {
        &self.tokens
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Index of the root token (the main-clause predicate).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Head of token `i` (`None` for the root).
    pub fn head_of(&self, i: usize) -> Option<usize> {
        self.heads[i]
    }

    /// Label of the arc into token `i` (`Root` for the root).
    pub fn label_of(&self, i: usize) -> DepLabel {
        self.labels[i]
    }

    /// Children of token `i`, in surface order.
    pub fn children_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&j| self.heads[j] == Some(i))
    }

    /// Children of `i` attached with `label`.
    pub fn children_with_label(
        &self,
        i: usize,
        label: DepLabel,
    ) -> impl Iterator<Item = usize> + '_ {
        self.children_of(i)
            .filter(move |&j| self.labels[j] == label)
    }

    /// First child of `i` with `label`, if any.
    pub fn child_with_label(&self, i: usize, label: DepLabel) -> Option<usize> {
        self.children_with_label(i, label).next()
    }

    /// The case-folded text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        &self.tokens[i].token.text
    }

    /// The POS tag of token `i`.
    pub fn tag(&self, i: usize) -> PosTag {
        self.tokens[i].tag
    }

    /// Check single-rootedness and acyclicity.
    fn validate(&self) -> Result<(), ParseError> {
        let roots = self.heads.iter().filter(|h| h.is_none()).count();
        if roots != 1 {
            return Err(ParseError::Inconsistent(format!("{roots} roots")));
        }
        for start in 0..self.len() {
            let mut seen = 0usize;
            let mut cur = start;
            while let Some(h) = self.heads[cur] {
                cur = h;
                seen += 1;
                if seen > self.len() {
                    return Err(ParseError::Inconsistent(format!(
                        "cycle reachable from token {start}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Multiword prepositions recognized as fixed expressions ("in front of").
const MULTIWORD_PREPS: &[&[&str]] = &[
    &["in", "front", "of"],
    &["in", "back", "of"],
    &["on", "top", "of"],
    &["next", "to"],
    &["close", "to"],
];

/// The rule-based dependency parser.
#[derive(Debug, Default, Clone)]
pub struct RuleDependencyParser;

impl RuleDependencyParser {
    /// Create a parser.
    pub fn new() -> Self {
        RuleDependencyParser
    }

    /// Parse a tagged sentence into a dependency tree.
    pub fn parse(&self, tokens: &[TaggedToken]) -> Result<DepTree, ParseError> {
        if tokens.is_empty() {
            return Err(ParseError::Empty);
        }
        let n = tokens.len();
        let mut p = Parser {
            toks: tokens,
            heads: vec![None; n],
            labels: vec![DepLabel::Dep; n],
            is_mwe_cont: vec![false; n],
            content_verb: vec![false; n],
        };
        p.mark_multiword_preps();
        p.attach_auxiliaries();
        p.attach_np_internals();
        p.attach_adverbs();
        p.attach_prepositional_phrases();
        p.attach_relative_clauses();
        // Objects before subjects: an inner clause's object ("dogs that are
        // holding THE BALL are …") must be claimed before the outer
        // clause's subject scan walks left past it.
        p.attach_objects();
        p.attach_subjects();
        let root = p.select_root()?;
        p.attach_leftovers(root);

        let tree = DepTree {
            tokens: tokens.to_vec(),
            heads: p.heads,
            labels: p.labels,
            root,
        };
        tree.validate()?;
        Ok(tree)
    }
}

/// Working state for one parse.
struct Parser<'a> {
    toks: &'a [TaggedToken],
    heads: Vec<Option<usize>>,
    labels: Vec<DepLabel>,
    /// Token is a non-initial word of a multiword preposition.
    is_mwe_cont: Vec<bool>,
    /// Token is a content (non-auxiliary) verb.
    content_verb: Vec<bool>,
}

impl Parser<'_> {
    fn n(&self) -> usize {
        self.toks.len()
    }

    fn text(&self, i: usize) -> &str {
        &self.toks[i].token.text
    }

    fn tag(&self, i: usize) -> PosTag {
        self.toks[i].tag
    }

    fn attached(&self, i: usize) -> bool {
        self.heads[i].is_some()
    }

    fn attach(&mut self, dep: usize, head: usize, label: DepLabel) {
        debug_assert!(self.heads[dep].is_none(), "token {dep} already attached");
        debug_assert_ne!(dep, head);
        self.heads[dep] = Some(head);
        self.labels[dep] = label;
    }

    fn is_be_form(&self, i: usize) -> bool {
        matches!(
            self.text(i),
            "is" | "are" | "am" | "was" | "were" | "be" | "been" | "being"
        )
    }

    fn is_do_form(&self, i: usize) -> bool {
        matches!(self.text(i), "does" | "do" | "did")
    }

    fn is_have_form(&self, i: usize) -> bool {
        matches!(self.text(i), "has" | "have" | "had")
    }

    fn is_aux_word(&self, i: usize) -> bool {
        self.is_be_form(i)
            || self.is_do_form(i)
            || self.is_have_form(i)
            || self.tag(i) == PosTag::MD
    }

    /// Pass 0: recognize multiword prepositions; continuation words get
    /// `fixed` arcs to the first word and stop participating in other rules.
    fn mark_multiword_preps(&mut self) {
        let mut i = 0;
        while i < self.n() {
            let mut matched = 0usize;
            for pat in MULTIWORD_PREPS {
                if pat.len() <= self.n() - i
                    && pat
                        .iter()
                        .enumerate()
                        .all(|(k, w)| self.text(i + k) == *w && !self.is_mwe_cont[i + k])
                {
                    matched = matched.max(pat.len());
                }
            }
            if matched >= 2 {
                for k in 1..matched {
                    self.attach(i + k, i, DepLabel::Fixed);
                    self.is_mwe_cont[i + k] = true;
                }
                i += matched;
            } else {
                i += 1;
            }
        }
    }

    /// Pass 1: attach auxiliaries to their content verbs and record which
    /// verbs are content verbs.
    fn attach_auxiliaries(&mut self) {
        // Mark every verb as content until claimed as aux.
        for i in 0..self.n() {
            if self.tag(i).is_verb() || self.tag(i) == PosTag::MD {
                self.content_verb[i] = true;
            }
        }
        for i in 0..self.n() {
            if !(self.is_aux_word(i) && self.content_verb[i]) {
                continue;
            }
            // Search right for the content verb this auxiliary supports.
            // The inverted subject NP may contain a whole relative clause
            // ("does the dog THAT IS SITTING ON THE BED appear"), which is
            // skipped as a unit: a WH word opens it, its own verb group
            // closes it.
            let is_do = self.is_do_form(i);
            let mut j = i + 1;
            let mut found: Option<usize> = None;
            let mut in_relclause = false;
            while j < self.n() {
                let t = self.tag(j);
                if t.is_punct() || t == PosTag::CC {
                    break;
                }
                if t.is_wh() {
                    in_relclause = true;
                    j += 1;
                    continue;
                }
                if t.is_verb() || t == PosTag::MD {
                    if in_relclause {
                        // Consume the relative clause's verb group. An aux
                        // followed (modulo adverbs) by a participle keeps
                        // the clause open ("that is sitting on …"); a
                        // copular aux closes it ("that is on the grass").
                        if self.is_aux_word(j) {
                            let next_participle = (j + 1..self.n())
                                .find(|&k| !self.tag(k).is_adverb())
                                .is_some_and(|k| matches!(self.tag(k), PosTag::VBG | PosTag::VBN));
                            if !next_participle {
                                in_relclause = false;
                            }
                        } else {
                            in_relclause = false;
                        }
                        j += 1;
                        continue;
                    }
                    if self.is_aux_word(j) {
                        break; // another auxiliary chain begins
                    }
                    let acceptable = matches!(t, PosTag::VBG | PosTag::VBN | PosTag::VB)
                        || (is_do && t == PosTag::VBP);
                    if acceptable {
                        found = Some(j);
                    }
                    break;
                }
                // Skip over the subject NP's words, adverbs, adjectives and
                // (inside or after a relative clause) prepositional phrases.
                if t.is_noun()
                    || t.is_adjective()
                    || t.is_adverb()
                    || matches!(
                        t,
                        PosTag::DT | PosTag::PRPS | PosTag::CD | PosTag::POS | PosTag::PRP
                    )
                    || (t == PosTag::IN && (in_relclause || is_do))
                {
                    j += 1;
                    continue;
                }
                break;
            }
            if let Some(v) = found {
                let label = if self.is_be_form(i) && self.tag(v) == PosTag::VBN {
                    DepLabel::AuxPass
                } else {
                    DepLabel::Aux
                };
                self.attach(i, v, label);
                self.content_verb[i] = false;
            }
        }
    }

    /// Pass 2: noun-phrase internals — determiners, adjectives, compounds,
    /// possessives, WH-determiners.
    fn attach_np_internals(&mut self) {
        // Possessives first: [NNP...] NNP POS NN → compound chain + case +
        // nmod:poss.
        for i in 0..self.n() {
            if self.tag(i) != PosTag::POS || self.attached(i) {
                continue;
            }
            // possessor = nearest noun to the left.
            let Some(possessor) = (0..i).rev().find(|&j| self.tag(j).is_noun()) else {
                continue;
            };
            // possessed = nearest noun head to the right.
            let Some(possessed) = (i + 1..self.n()).find(|&j| self.tag(j).is_noun()) else {
                continue;
            };
            self.attach(i, possessor, DepLabel::Case);
            if !self.attached(possessor) {
                self.attach(possessor, possessed, DepLabel::NmodPoss);
            }
            // Proper-noun compounds to the left of the possessor
            // ("harry potter 's").
            let mut k = possessor;
            while k > 0 && self.tag(k - 1).is_noun() && !self.attached(k - 1) {
                self.attach(k - 1, possessor, DepLabel::Compound);
                k -= 1;
            }
        }
        // Determiners, WH-determiners, adjectives, numbers, noun compounds:
        // attach to the nearest noun head to the right.
        for i in 0..self.n() {
            if self.attached(i) {
                continue;
            }
            let t = self.tag(i);
            let wants_noun = matches!(
                t,
                PosTag::DT | PosTag::WDT | PosTag::PRPS | PosTag::CD | PosTag::PDT
            ) || t.is_adjective()
                || (t.is_noun() && self.next_is_noun(i));
            if !wants_noun {
                continue;
            }
            // WDT heading a relative clause ("that were situated", "which
            // the man wears") must not be eaten here; only attach WDT when
            // its noun follows without an intervening determiner.
            if t == PosTag::WDT
                && (i + 1..self.n())
                    .find(|&j| !self.is_mwe_cont[j])
                    .is_some_and(|j| matches!(self.tag(j), PosTag::DT | PosTag::PRPS))
            {
                continue;
            }
            let Some(head) = self.nearest_noun_head_right(i) else {
                continue;
            };
            let label = if t.is_adjective() {
                DepLabel::Amod
            } else if t.is_noun() {
                DepLabel::Compound
            } else if t == PosTag::PRPS {
                DepLabel::NmodPoss
            } else {
                DepLabel::Det
            };
            self.attach(i, head, label);
        }
    }

    /// Whether the next unattached token is a noun (for compound detection).
    fn next_is_noun(&self, i: usize) -> bool {
        (i + 1..self.n())
            .find(|&j| !self.is_mwe_cont[j])
            .is_some_and(|j| self.tag(j).is_noun())
    }

    /// The nearest noun to the right of `i` with no verb, punctuation or WH
    /// boundary in between. Skips attached tokens for boundary purposes but
    /// the found noun may be pre-attached (compound chains) — in that case
    /// follow to its head noun.
    fn nearest_noun_head_right(&self, i: usize) -> Option<usize> {
        for j in i + 1..self.n() {
            let t = self.tag(j);
            if t.is_noun() {
                return Some(self.noun_phrase_head(j));
            }
            if t.is_verb() || t.is_punct() || t.is_wh() || t == PosTag::IN || t == PosTag::CC {
                return None;
            }
        }
        None
    }

    /// Follow compound/nmod:poss arcs from a noun to its phrase head.
    fn noun_phrase_head(&self, mut j: usize) -> usize {
        while let Some(h) = self.heads[j] {
            if matches!(self.labels[j], DepLabel::Compound | DepLabel::NmodPoss)
                && self.tag(h).is_noun()
            {
                j = h;
            } else {
                break;
            }
        }
        j
    }

    /// Pass 3: adverbs attach to the nearest verb (rightward first, then
    /// leftward — "most frequently *hanging*" vs "hanging *out*"); "most"
    /// (RBS) attaches to a following adverb/adjective when present.
    fn attach_adverbs(&mut self) {
        for i in 0..self.n() {
            if self.attached(i) || !self.tag(i).is_adverb() || self.tag(i) == PosTag::WRB {
                continue;
            }
            // RBS before RB/JJ: "most frequently", "most famous".
            if self.tag(i) == PosTag::RBS && i + 1 < self.n() {
                let t = self.tag(i + 1);
                if (t.is_adverb() && t != PosTag::WRB) || t.is_adjective() {
                    self.attach(i, i + 1, DepLabel::Advmod);
                    continue;
                }
            }
            if let Some(v) = self.nearest_verb(i) {
                self.attach(i, v, DepLabel::Advmod);
            }
        }
        // WRB ("how") attaches to a following adjective/adverb ("how many")
        // or the clause verb.
        for i in 0..self.n() {
            if self.attached(i) || self.tag(i) != PosTag::WRB {
                continue;
            }
            if i + 1 < self.n() && (self.tag(i + 1).is_adjective() || self.tag(i + 1).is_adverb()) {
                self.attach(i, i + 1, DepLabel::Advmod);
            } else if let Some(v) = self.nearest_verb(i) {
                self.attach(i, v, DepLabel::Advmod);
            }
        }
    }

    /// Nearest content verb, preferring rightward within the clause.
    fn nearest_verb(&self, i: usize) -> Option<usize> {
        for j in i + 1..self.n() {
            if self.content_verb[j] {
                return Some(j);
            }
            if self.tag(j).is_punct() || self.tag(j).is_wh() {
                break;
            }
        }
        (0..i).rev().find(|&j| self.content_verb[j])
    }

    /// Pass 4: prepositional phrases. Prepositions become `case` children of
    /// their noun; the noun attaches `obl` to a preceding verb or `nmod` to
    /// a preceding noun ("of" is always `nmod`).
    fn attach_prepositional_phrases(&mut self) {
        for i in 0..self.n() {
            if self.attached(i) || self.tag(i) != PosTag::IN || self.is_mwe_cont[i] {
                continue;
            }
            // The object of the preposition: nearest noun head to the right.
            let mut obj = None;
            for j in i + 1..self.n() {
                if self.is_mwe_cont[j] {
                    continue;
                }
                let t = self.tag(j);
                if t.is_noun() {
                    obj = Some(self.noun_phrase_head(j));
                    break;
                }
                if t.is_verb() || t.is_punct() || t.is_wh() || t == PosTag::IN {
                    break;
                }
            }
            let Some(obj) = obj else { continue };
            // Attachment site: scan left skipping attached/function tokens.
            let mut site = None;
            for j in (0..i).rev() {
                if self.content_verb[j] {
                    site = Some((j, DepLabel::Obl));
                    break;
                }
                if self.tag(j).is_noun()
                    && self.heads[j].is_none_or(|_| !matches!(self.labels[j], DepLabel::Compound))
                {
                    site = Some((self.noun_phrase_head(j), DepLabel::Nmod));
                    break;
                }
            }
            // "of" strongly prefers the noun reading ("kind of clothes");
            // other prepositions take whatever came first (verb wins when
            // adjacent: "worn by ...").
            if self.text(i) == "of" {
                if let Some(noun_site) = (0..i).rev().find(|&j| self.tag(j).is_noun()) {
                    site = Some((self.noun_phrase_head(noun_site), DepLabel::Nmod));
                }
            }
            let Some((head, label)) = site else { continue };
            if self.attached(obj) || obj == head {
                continue;
            }
            self.attach(i, obj, DepLabel::Case);
            self.attach(obj, head, label);
        }
    }

    /// Pass 5: relative clauses. A WH pronoun/determiner following a noun
    /// introduces a relative clause: the clause verb attaches `acl:relcl`
    /// to the antecedent and the WH word becomes its subject (or object when
    /// a subject noun intervenes).
    fn attach_relative_clauses(&mut self) {
        for i in 0..self.n() {
            if self.attached(i) || !(self.tag(i) == PosTag::WDT || self.tag(i) == PosTag::WP) {
                continue;
            }
            // Antecedent: nearest noun head to the left.
            let antecedent = (0..i)
                .rev()
                .find(|&j| self.tag(j).is_noun())
                .map(|j| self.noun_phrase_head(j));
            // Relative-clause verb: nearest content verb to the right.
            let rel_verb = (i + 1..self.n()).find(|&j| self.content_verb[j]);
            let (Some(ant), Some(v)) = (antecedent, rel_verb) else {
                continue;
            };
            // Subject or object relative? A noun strictly between the WH
            // word and the verb that is not inside a PP means the WH word is
            // the object ("the hat which the man wears").
            let has_inner_subject = (i + 1..v).any(|j| {
                self.tag(j).is_noun() && !matches!(self.labels[j], DepLabel::Nmod | DepLabel::Obl)
            });
            let passive = self.is_passive(v);
            let wh_label = if has_inner_subject {
                DepLabel::Obj
            } else if passive {
                DepLabel::NsubjPass
            } else {
                DepLabel::Nsubj
            };
            self.attach(i, v, wh_label);
            if !self.attached(v) && v != ant {
                self.attach(v, ant, DepLabel::AclRelcl);
            }
        }
    }

    /// Whether verb `v` has a passive auxiliary child.
    fn is_passive(&self, v: usize) -> bool {
        (0..self.n()).any(|j| self.heads[j] == Some(v) && self.labels[j] == DepLabel::AuxPass)
    }

    /// Pass 6: subjects. Each content verb without a subject takes the
    /// nearest unattached noun head to its left (within the clause).
    fn attach_subjects(&mut self) {
        for v in 0..self.n() {
            if !self.content_verb[v] || self.has_subject(v) {
                continue;
            }
            let mut j = v;
            while j > 0 {
                j -= 1;
                let t = self.tag(j);
                // Attached content verbs are relative-clause predicates —
                // transparent when looking for the outer clause's subject
                // ("the dog [that is sitting on the bed] appears").
                if t.is_punct() || (t.is_verb() && self.content_verb[j] && !self.attached(j)) {
                    break;
                }
                if t.is_noun() && !self.attached(j) {
                    let label = if self.is_passive(v) {
                        DepLabel::NsubjPass
                    } else {
                        DepLabel::Nsubj
                    };
                    self.attach(j, v, label);
                    break;
                }
            }
        }
    }

    fn has_subject(&self, v: usize) -> bool {
        (0..self.n()).any(|j| {
            self.heads[j] == Some(v)
                && matches!(self.labels[j], DepLabel::Nsubj | DepLabel::NsubjPass)
        })
    }

    /// Pass 7: objects. Each content verb takes the nearest unattached noun
    /// head to its right (before the next clause boundary) as `obj`.
    fn attach_objects(&mut self) {
        for v in 0..self.n() {
            if !self.content_verb[v] {
                continue;
            }
            for j in v + 1..self.n() {
                let t = self.tag(j);
                if t.is_punct()
                    || t.is_wh()
                    || (t.is_verb() && self.content_verb[j])
                    || t == PosTag::IN
                {
                    break;
                }
                if t.is_noun() && !self.attached(j) {
                    self.attach(j, v, DepLabel::Obj);
                    break;
                }
            }
        }
    }

    /// Pass 8: root selection — the first unattached content verb; as a
    /// fallback (verbless fragments are rejected earlier) the first
    /// unattached token.
    fn select_root(&mut self) -> Result<usize, ParseError> {
        if !self.content_verb.iter().any(|&c| c) {
            return Err(ParseError::NoVerb);
        }
        let root = (0..self.n())
            .find(|&i| self.content_verb[i] && !self.attached(i))
            .or_else(|| (0..self.n()).find(|&i| !self.attached(i)))
            .ok_or_else(|| ParseError::Inconsistent("no root candidate".into()))?;
        self.labels[root] = DepLabel::Root;
        Ok(root)
    }

    /// Pass 9: attach every remaining headless token to the root.
    /// Coordinated clauses ("... AND the man watches ...") get `conj` arcs
    /// with the conjunction word as a `cc` child of the conjunct verb.
    fn attach_leftovers(&mut self, root: usize) {
        // Conjunct verbs first so the CC can attach to them.
        let conj_verbs: Vec<usize> = (root + 1..self.n())
            .filter(|&i| {
                !self.attached(i)
                    && self.tag(i).is_verb()
                    && self.content_verb[i]
                    && (root + 1..i).any(|j| self.tag(j) == PosTag::CC)
            })
            .collect();
        for v in conj_verbs {
            self.attach(v, root, DepLabel::Conj);
            if let Some(cc) = (root + 1..v)
                .rev()
                .find(|&j| self.tag(j) == PosTag::CC && !self.attached(j))
            {
                self.attach(cc, v, DepLabel::Cc);
            }
        }
        for i in 0..self.n() {
            if i == root || self.attached(i) {
                continue;
            }
            let label = if self.tag(i).is_punct() {
                DepLabel::Punct
            } else {
                DepLabel::Dep
            };
            self.attach(i, root, label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::PosTagger;

    fn parse(q: &str) -> DepTree {
        let tagger = PosTagger::new();
        RuleDependencyParser::new()
            .parse(&tagger.tag(q))
            .unwrap_or_else(|e| panic!("parse failed for {q:?}: {e}"))
    }

    fn find(tree: &DepTree, word: &str) -> usize {
        (0..tree.len())
            .find(|&i| tree.text(i) == word)
            .unwrap_or_else(|| panic!("{word:?} not in {tree:?}"))
    }

    fn arc(tree: &DepTree, dep: &str) -> (Option<String>, DepLabel) {
        let i = find(tree, dep);
        (
            tree.head_of(i).map(|h| tree.text(h).to_owned()),
            tree.label_of(i),
        )
    }

    #[test]
    fn example4_main_clause() {
        // Figure 4: "What kind of clothes are worn by the wizard ..."
        let t = parse("What kind of clothes are worn by the wizard?");
        assert_eq!(arc(&t, "kind"), (Some("worn".into()), DepLabel::NsubjPass));
        assert_eq!(arc(&t, "clothes"), (Some("kind".into()), DepLabel::Nmod));
        assert_eq!(arc(&t, "of"), (Some("clothes".into()), DepLabel::Case));
        assert_eq!(arc(&t, "are"), (Some("worn".into()), DepLabel::AuxPass));
        assert_eq!(arc(&t, "wizard"), (Some("worn".into()), DepLabel::Obl));
        assert_eq!(arc(&t, "by"), (Some("wizard".into()), DepLabel::Case));
        assert_eq!(arc(&t, "what"), (Some("kind".into()), DepLabel::Det));
        assert_eq!(t.text(t.root()), "worn");
    }

    #[test]
    fn example4_relative_clause_acl() {
        // "... the wizard who is most frequently hanging out with the girl"
        let t = parse(
            "What kind of clothes are worn by the wizard who is most frequently hanging out with the girl?",
        );
        // The acl edge connects "hanging" to "wizard" (paper: "the acl edge
        // connects from hanging to wizard").
        assert_eq!(
            arc(&t, "hanging"),
            (Some("wizard".into()), DepLabel::AclRelcl)
        );
        assert_eq!(arc(&t, "who"), (Some("hanging".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "is"), (Some("hanging".into()), DepLabel::Aux));
        assert_eq!(
            arc(&t, "frequently"),
            (Some("hanging".into()), DepLabel::Advmod)
        );
        assert_eq!(
            arc(&t, "most"),
            (Some("frequently".into()), DepLabel::Advmod)
        );
        assert_eq!(arc(&t, "girl"), (Some("hanging".into()), DepLabel::Obl));
        assert_eq!(arc(&t, "with"), (Some("girl".into()), DepLabel::Case));
    }

    #[test]
    fn passive_relative_clause() {
        // Figure 7: "What kind of animals is carried by the pets that were
        // situated in the car?"
        let t = parse("What kind of animals is carried by the pets that were situated in the car?");
        assert_eq!(arc(&t, "animals"), (Some("kind".into()), DepLabel::Nmod));
        assert_eq!(
            arc(&t, "kind"),
            (Some("carried".into()), DepLabel::NsubjPass)
        );
        assert_eq!(arc(&t, "pets"), (Some("carried".into()), DepLabel::Obl));
        assert_eq!(
            arc(&t, "situated"),
            (Some("pets".into()), DepLabel::AclRelcl)
        );
        assert_eq!(
            arc(&t, "that"),
            (Some("situated".into()), DepLabel::NsubjPass)
        );
        assert_eq!(arc(&t, "car"), (Some("situated".into()), DepLabel::Obl));
    }

    #[test]
    fn multiword_preposition_in_front_of() {
        let t = parse("Does the dog appear in front of the car?");
        let front = find(&t, "front");
        let of = find(&t, "of");
        let inn = find(&t, "in");
        assert_eq!(t.label_of(front), DepLabel::Fixed);
        assert_eq!(t.head_of(front), Some(inn));
        assert_eq!(t.label_of(of), DepLabel::Fixed);
        assert_eq!(arc(&t, "car"), (Some("appear".into()), DepLabel::Obl));
        assert_eq!(arc(&t, "dog"), (Some("appear".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "does"), (Some("appear".into()), DepLabel::Aux));
    }

    #[test]
    fn possessive_chain() {
        // "Harry Potter's girlfriend is holding a bag"
        let t = parse("Harry Potter's girlfriend is holding a bag");
        assert_eq!(
            arc(&t, "harry"),
            (Some("potter".into()), DepLabel::Compound)
        );
        assert_eq!(
            arc(&t, "potter"),
            (Some("girlfriend".into()), DepLabel::NmodPoss)
        );
        assert_eq!(arc(&t, "'s"), (Some("potter".into()), DepLabel::Case));
        assert_eq!(
            arc(&t, "girlfriend"),
            (Some("holding".into()), DepLabel::Nsubj)
        );
        assert_eq!(arc(&t, "bag"), (Some("holding".into()), DepLabel::Obj));
    }

    #[test]
    fn counting_question() {
        let t = parse("How many dogs are sitting on the grass?");
        assert_eq!(arc(&t, "how"), (Some("many".into()), DepLabel::Advmod));
        assert_eq!(arc(&t, "many"), (Some("dogs".into()), DepLabel::Amod));
        assert_eq!(arc(&t, "dogs"), (Some("sitting".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "grass"), (Some("sitting".into()), DepLabel::Obl));
        assert_eq!(t.text(t.root()), "sitting");
    }

    #[test]
    fn object_relative_clause() {
        let t = parse("the hat which the man wears is red");
        assert_eq!(arc(&t, "which"), (Some("wears".into()), DepLabel::Obj));
        assert_eq!(arc(&t, "man"), (Some("wears".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "wears"), (Some("hat".into()), DepLabel::AclRelcl));
    }

    #[test]
    fn copular_sentence() {
        let t = parse("the dog is near the man");
        // "is" is the only verb → root; "man" obl with case "near".
        assert_eq!(t.text(t.root()), "is");
        assert_eq!(arc(&t, "dog"), (Some("is".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "man"), (Some("is".into()), DepLabel::Obl));
        assert_eq!(arc(&t, "near"), (Some("man".into()), DepLabel::Case));
    }

    #[test]
    fn simple_transitive() {
        let t = parse("the dog catches the frisbee");
        assert_eq!(arc(&t, "dog"), (Some("catches".into()), DepLabel::Nsubj));
        assert_eq!(arc(&t, "frisbee"), (Some("catches".into()), DepLabel::Obj));
    }

    #[test]
    fn empty_input_is_error() {
        let parser = RuleDependencyParser::new();
        assert!(matches!(parser.parse(&[]), Err(ParseError::Empty)));
    }

    #[test]
    fn verbless_input_is_no_verb_error() {
        let tagger = PosTagger::new();
        let toks = tagger.tag("the red dog");
        assert!(matches!(
            RuleDependencyParser::new().parse(&toks),
            Err(ParseError::NoVerb)
        ));
    }

    #[test]
    fn every_tree_is_single_rooted_and_acyclic() {
        // validate() runs inside parse(); exercise a batch of shapes.
        for q in [
            "What kind of clothes are worn by the wizard?",
            "How many dogs are sitting on the grass near the man?",
            "Does the dog that is sitting on the bed appear in front of the tv?",
            "the man is wearing a hat and watching the dog",
            "Is the bird carried by the dog that is looking out of the window?",
        ] {
            parse(q);
        }
    }

    #[test]
    fn children_accessors() {
        let t = parse("the dog catches the frisbee");
        let root = t.root();
        let subj = t.child_with_label(root, DepLabel::Nsubj).unwrap();
        assert_eq!(t.text(subj), "dog");
        assert_eq!(t.children_of(root).count(), 2);
        assert_eq!(t.children_with_label(subj, DepLabel::Det).count(), 1);
    }
}

//! # svqa-nlp
//!
//! The natural-language substrate of the SVQA reproduction: everything §IV
//! ("Query Graph Generator") and §V ("maxScore" / "matchVertex") of the
//! paper consume from Stanford CoreNLP and word2vec, rebuilt from scratch:
//!
//! * a tokenizer ([`token`]) that splits questions into words, handling
//!   possessives ("Harry Potter's girlfriend") and punctuation;
//! * a Penn-Treebank part-of-speech tagger ([`pos`]) over the full 45-tag
//!   set the paper mentions, with lexicon, morphological-suffix and
//!   contextual rules — the deterministic stand-in for the Stanford MaxEnt
//!   tagger of Eq. (4);
//! * a rule-driven dependency parser ([`dep`]) emitting Universal
//!   Dependencies (`nsubj`, `nsubj:pass`, `obj`, `obl`, `nmod`, `case`,
//!   `acl:relcl`, ...) — the stand-in for the Stanford transition-based
//!   parser of Eq. (5), together with an arc-standard transition system that
//!   can replay any produced tree (so projectivity/derivability is testable);
//! * a lemmatizer and passive→active voice normalizer ([`lemma`])
//!   ("are worn" → "wear", as in the paper's Example 4);
//! * deterministic concept-cluster word embeddings with cosine similarity
//!   ([`embedding`]) — the stand-in for word2vec in `maxScore`;
//! * Levenshtein edit distance ([`lev`]) used by `matchVertex`;
//! * the `matchVertex` label ladder and the `maxScore` predicate score
//!   ([`resolve`]), shared by the executor and the linter.
//!
//! The substitutions are documented in the repository's `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dep;
pub mod embedding;
pub mod lemma;
pub mod lev;
pub mod pos;
pub mod resolve;
pub mod tags;
pub mod token;
pub mod transition;
pub mod vocab;

pub use dep::{DepLabel, DepTree, RuleDependencyParser};
pub use embedding::{cosine_similarity, Embedder, Embedding};
pub use lemma::Lemmatizer;
pub use lev::{levenshtein, normalized_levenshtein};
pub use pos::{PosTagger, TaggedToken};
pub use tags::PosTag;
pub use token::{tokenize, Token};

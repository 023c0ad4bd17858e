//! Programmatic query construction.
//!
//! Natural language is one front-end to the query engine; applications
//! embedding SVQA (the paper's data-lake motivation, §I) often know their
//! query structurally. [`QueryBuilder`] assembles the same query graphs
//! Algorithm 2 produces, without going through the NLP stack — handy for
//! tests, for programmatic clients, and for replaying the structured specs
//! the dataset generator stores.
//!
//! ```
//! use svqa_qparser::builder::QueryBuilder;
//! use svqa_qparser::{Dependency, QuestionType};
//!
//! // "What kind of clothes are worn by the wizard who is most frequently
//! //  hanging out with Harry Potter's girlfriend?"
//! let gq = QueryBuilder::reasoning()
//!     .clause("wizard", "wearing", "clothes")
//!     .asks_kind_of_object()
//!     .clause("wizard", "near", "girlfriend")
//!     .constraint("most frequently")
//!     .wildcard_subject_clause("girlfriend of", "harry potter")
//!     .depend(2, 1, Dependency::O2S)
//!     .depend(1, 0, Dependency::S2S)
//!     .build()
//!     .unwrap();
//! assert_eq!(gq.question_type, QuestionType::Reasoning);
//! assert_eq!(gq.len(), 3);
//! ```

use crate::qgraph::{Dependency, QueryEdge, QueryGraph, QuestionType};
use crate::spoc::{AnswerRole, NounPhrase, Spoc};
use std::fmt;

/// Errors from building a query graph by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No clauses were added.
    Empty,
    /// A dependency edge references a clause index that does not exist.
    UnknownClause(usize),
    /// The dependency edges form a cycle.
    Cyclic,
    /// A modifier was applied before any clause existed.
    NoCurrentClause,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Empty => write!(f, "query has no clauses"),
            BuildError::UnknownClause(i) => write!(f, "dependency references unknown clause {i}"),
            BuildError::Cyclic => write!(f, "dependency edges form a cycle"),
            BuildError::NoCurrentClause => write!(f, "modifier applied before any clause"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent builder for [`QueryGraph`]s.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    question_type: QuestionType,
    vertices: Vec<Spoc>,
    edges: Vec<QueryEdge>,
    description: String,
}

impl QueryBuilder {
    /// Start a reasoning query (entity answer).
    pub fn reasoning() -> Self {
        Self::new(QuestionType::Reasoning)
    }

    /// Start a judgment query (yes/no answer).
    pub fn judgment() -> Self {
        Self::new(QuestionType::Judgment)
    }

    /// Start a counting query (numeric answer).
    pub fn counting() -> Self {
        Self::new(QuestionType::Counting)
    }

    fn new(question_type: QuestionType) -> Self {
        QueryBuilder {
            question_type,
            vertices: Vec::new(),
            edges: Vec::new(),
            description: String::new(),
        }
    }

    /// Add a clause `⟨subject, predicate, object⟩`. The first clause added
    /// is the answer clause (query-graph vertex 0).
    pub fn clause(mut self, subject: &str, predicate: &str, object: &str) -> Self {
        self.vertices.push(Spoc {
            subject: NounPhrase::simple(subject),
            predicate: predicate.to_owned(),
            object: NounPhrase::simple(object),
            ..Spoc::default()
        });
        self
    }

    /// Add a clause with a wildcard subject (`⟨*, predicate, object⟩`) —
    /// the shape of knowledge-graph sub-queries like
    /// `⟨*, girlfriend of, harry potter⟩`.
    pub fn wildcard_subject_clause(mut self, predicate: &str, object: &str) -> Self {
        self.vertices.push(Spoc {
            subject: NounPhrase::default(),
            predicate: predicate.to_owned(),
            object: NounPhrase::simple(object),
            ..Spoc::default()
        });
        self
    }

    /// Attach a constraint ("most frequently", …) to the last clause.
    pub fn constraint(mut self, constraint: &str) -> Self {
        if let Some(last) = self.vertices.last_mut() {
            last.constraint = Some(constraint.to_owned());
        }
        self
    }

    /// Mark the last clause's subject as the answer variable.
    pub fn answer_is_subject(mut self) -> Self {
        if let Some(last) = self.vertices.last_mut() {
            last.answer_role = Some(AnswerRole::Subject);
        }
        self
    }

    /// Mark the last clause as asking for the *kind* of its object
    /// ("what kind of clothes …").
    pub fn asks_kind_of_object(mut self) -> Self {
        if let Some(last) = self.vertices.last_mut() {
            last.answer_role = Some(AnswerRole::Object);
            last.asks_kind = true;
        }
        self
    }

    /// Add a dependency edge: `provider`'s answers flow into `consumer`'s
    /// slot per `dependency` (Algorithm 3's table convention).
    pub fn depend(mut self, provider: usize, consumer: usize, dependency: Dependency) -> Self {
        self.edges.push(QueryEdge {
            provider,
            consumer,
            dependency,
        });
        self
    }

    /// Set the human-readable description stored on the graph.
    pub fn describe(mut self, text: &str) -> Self {
        self.description = text.to_owned();
        self
    }

    /// Validate and produce the query graph.
    pub fn build(self) -> Result<QueryGraph, BuildError> {
        if self.vertices.is_empty() {
            return Err(BuildError::Empty);
        }
        for e in &self.edges {
            if e.provider >= self.vertices.len() {
                return Err(BuildError::UnknownClause(e.provider));
            }
            if e.consumer >= self.vertices.len() {
                return Err(BuildError::UnknownClause(e.consumer));
            }
        }
        let gq = QueryGraph {
            vertices: self.vertices,
            edges: self.edges,
            question_type: self.question_type,
            question: self.description,
        };
        if gq.execution_order().is_none() {
            return Err(BuildError::Cyclic);
        }
        Ok(gq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_chain() {
        let gq = QueryBuilder::counting()
            .clause("dog", "near", "man")
            .answer_is_subject()
            .clause("dog", "on", "grass")
            .depend(1, 0, Dependency::S2S)
            .describe("how many dogs on the grass are near the man")
            .build()
            .unwrap();
        assert_eq!(gq.len(), 2);
        assert_eq!(gq.execution_order(), Some(vec![1, 0]));
        assert_eq!(gq.answer_vertex(), 0);
        assert_eq!(gq.question, "how many dogs on the grass are near the man");
    }

    #[test]
    fn empty_build_fails() {
        assert_eq!(QueryBuilder::judgment().build(), Err(BuildError::Empty));
    }

    #[test]
    fn unknown_clause_reference_fails() {
        let err = QueryBuilder::judgment()
            .clause("dog", "in", "car")
            .depend(3, 0, Dependency::S2S)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownClause(3));
    }

    #[test]
    fn cycles_are_rejected() {
        let err = QueryBuilder::judgment()
            .clause("dog", "in", "car")
            .clause("dog", "on", "grass")
            .depend(0, 1, Dependency::S2S)
            .depend(1, 0, Dependency::S2S)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::Cyclic);
    }

    #[test]
    fn modifiers_apply_to_last_clause() {
        let gq = QueryBuilder::reasoning()
            .clause("wizard", "wearing", "clothes")
            .asks_kind_of_object()
            .clause("wizard", "near", "girl")
            .constraint("most frequently")
            .build()
            .unwrap();
        assert!(gq.vertices[0].asks_kind);
        assert_eq!(
            gq.vertices[1].constraint.as_deref(),
            Some("most frequently")
        );
        assert_eq!(gq.vertices[0].constraint, None);
    }

    #[test]
    fn builder_matches_nlp_parse_semantics() {
        // The builder graph for the Fig. 7 question should execute like the
        // NLP-parsed one: same vertex count and answer structure.
        let nlp = crate::QueryGraphGenerator::new()
            .generate("What kind of animals is carried by the pets that were situated in the car?")
            .unwrap();
        let built = QueryBuilder::reasoning()
            .clause("pet", "carry", "animal")
            .asks_kind_of_object()
            .clause("pet", "situated in", "car")
            .depend(1, 0, Dependency::S2S)
            .build()
            .unwrap();
        assert_eq!(nlp.len(), built.len());
        assert_eq!(nlp.edges.len(), built.edges.len());
        assert_eq!(nlp.vertices[0].subject.head, built.vertices[0].subject.head);
    }
}

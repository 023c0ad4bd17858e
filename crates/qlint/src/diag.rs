//! Typed diagnostics: severity, codes, and the lint report.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable diagnostic codes. Tests and tooling match on these strings, so
/// they are constants rather than ad-hoc literals.
pub mod codes {
    /// The query graph has no vertices at all.
    pub const EMPTY_QUERY_GRAPH: &str = "empty-query-graph";
    /// A dependency edge points at a vertex index that does not exist, or
    /// loops a vertex onto itself.
    pub const DANGLING_EDGE: &str = "dangling-edge";
    /// The dependency edges form a cycle: no execution order exists.
    pub const CYCLIC_DEPENDENCY: &str = "cyclic-dependency";
    /// Both the subject and the object slot of a quad are empty.
    pub const EMPTY_QUAD: &str = "empty-quad";
    /// A reasoning/counting question has no vertex marked with an answer
    /// role, so the executor falls back to guessing the answer slot.
    pub const UNBOUND_ANSWER_SLOT: &str = "unbound-answer-slot";
    /// A quad's answers never flow into the answer vertex.
    pub const UNREACHABLE_QUAD: &str = "unreachable-quad";
    /// A category head word is unknown to both the merged graph and the
    /// vocabulary: the executor's matcher cannot bind it.
    pub const UNKNOWN_CATEGORY: &str = "unknown-category";
    /// A vocabulary-known category with no counterpart in this merged
    /// graph: matches will be empty.
    pub const CATEGORY_NOT_IN_GRAPH: &str = "category-not-in-graph";
    /// A predicate unknown to both the merged graph's edge labels and the
    /// verb vocabulary: no relation can pass the similarity filter.
    pub const UNKNOWN_PREDICATE: &str = "unknown-predicate";
    /// A vocabulary-known predicate with no sufficiently similar edge label
    /// in this merged graph.
    pub const PREDICATE_NOT_IN_GRAPH: &str = "predicate-not-in-graph";
    /// A constraint string that matches none of the known constraint forms.
    pub const UNKNOWN_CONSTRAINT: &str = "unknown-constraint";
    /// The estimated subject×object pair scan for a quad is far above the
    /// vertex count: a cartesian blowup.
    pub const CARTESIAN_BLOWUP: &str = "cartesian-blowup";
    /// An unbound wildcard slot paired with a non-selective named slot:
    /// executable, but the scan is avoidably wide.
    pub const EXPENSIVE_WILDCARD: &str = "expensive-wildcard";
}

/// Diagnostic severity, ordered so `Error > Warning > Hint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Planner guidance; the plan is fine.
    Hint,
    /// The plan is suspicious or expensive but can produce answers.
    Warning,
    /// The plan cannot produce answers; execution is pointless.
    Error,
}

impl Severity {
    /// Lower-case display name ("error" / "warning" / "hint").
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Hint => "hint",
        }
    }
}

/// Which SPOC slot a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Slot {
    /// The subject noun phrase.
    Subject,
    /// The predicate.
    Predicate,
    /// The object noun phrase.
    Object,
    /// The constraint.
    Constraint,
}

impl Slot {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Slot::Subject => "subject",
            Slot::Predicate => "predicate",
            Slot::Object => "object",
            Slot::Constraint => "constraint",
        }
    }
}

/// One typed finding from a lint pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable machine-readable code (see [`codes`]).
    pub code: String,
    /// How bad it is.
    pub severity: Severity,
    /// The query-graph vertex the finding points at, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub vertex: Option<usize>,
    /// The SPOC slot within that vertex, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slot: Option<Slot>,
    /// Human-readable explanation.
    pub message: String,
    /// "Did you mean …?" replacement, when a near-miss exists.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Construct a diagnostic with no vertex/slot/suggestion attached.
    pub fn new(code: &str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_owned(),
            severity,
            vertex: None,
            slot: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach the vertex index the finding points at.
    pub fn at_vertex(mut self, vertex: usize) -> Self {
        self.vertex = Some(vertex);
        self
    }

    /// Attach the SPOC slot the finding points at.
    pub fn at_slot(mut self, slot: Slot) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Attach a "did you mean" replacement.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.name(), self.code)?;
        if let Some(v) = self.vertex {
            write!(f, " v{v}")?;
            if let Some(s) = self.slot {
                write!(f, ".{}", s.name())?;
            }
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (did you mean \"{s}\"?)")?;
        }
        Ok(())
    }
}

/// Every diagnostic the linter produced for one query graph, sorted most
/// severe first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// The findings, sorted by descending severity then vertex.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an [`Severity::Error`] (execution would be
    /// pointless).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The error-severity findings, in report order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// One-line-per-diagnostic human rendering; "no diagnostics" when
    /// clean.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "no diagnostics".to_owned();
        }
        let lines: Vec<String> = self.diagnostics.iter().map(|d| d.to_string()).collect();
        lines.join("\n")
    }

    /// Summary like "2 errors, 1 warning, 0 hints".
    pub fn summary(&self) -> String {
        fn plural(n: usize, word: &str) -> String {
            format!("{n} {word}{}", if n == 1 { "" } else { "s" })
        }
        format!(
            "{}, {}, {}",
            plural(self.count(Severity::Error), "error"),
            plural(self.count(Severity::Warning), "warning"),
            plural(self.count(Severity::Hint), "hint"),
        )
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

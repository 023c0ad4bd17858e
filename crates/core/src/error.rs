//! Pipeline error type.

use std::fmt;
use svqa_executor::executor::ExecError;
use svqa_qlint::LintReport;
use svqa_qparser::QueryParseError;

/// Errors from answering a question end-to-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvqaError {
    /// The question could not be parsed into a query graph (§IV).
    Parse(QueryParseError),
    /// The query graph was rejected by the static linter before execution:
    /// at least one error-severity diagnostic says the plan cannot produce
    /// answers. Carries the full report (including any warnings/hints).
    Lint(LintReport),
    /// The query graph could not be executed (§V).
    Exec(ExecError),
    /// Every evidence source is unavailable (all circuit breakers open):
    /// not even a degraded answer is possible. Servers map this to 503.
    Unavailable {
        /// Names of the unavailable sources.
        missing: Vec<String>,
        /// Suggested client backoff before retrying, in milliseconds (the
        /// longest remaining breaker cooldown).
        retry_after_ms: u64,
    },
}

impl fmt::Display for SvqaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvqaError::Parse(e) => write!(f, "query parse failed: {e}"),
            SvqaError::Lint(report) => {
                write!(f, "query rejected by lint ({})", report.summary())?;
                for d in report.errors() {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            SvqaError::Exec(e) => write!(f, "query execution failed: {e}"),
            SvqaError::Unavailable {
                missing,
                retry_after_ms,
            } => write!(
                f,
                "no evidence source available (missing: {}; retry after {retry_after_ms}ms)",
                missing.join(", ")
            ),
        }
    }
}

impl std::error::Error for SvqaError {}

impl From<QueryParseError> for SvqaError {
    fn from(e: QueryParseError) -> Self {
        SvqaError::Parse(e)
    }
}

impl From<ExecError> for SvqaError {
    fn from(e: ExecError) -> Self {
        SvqaError::Exec(e)
    }
}

impl From<LintReport> for SvqaError {
    fn from(report: LintReport) -> Self {
        SvqaError::Lint(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: SvqaError = ExecError::EmptyQueryGraph.into();
        assert!(e.to_string().contains("execution"));
        let e: SvqaError = QueryParseError::EmptySpoc { clause: 1 }.into();
        assert!(e.to_string().contains("parse"));
        let mut report = LintReport::default();
        report.diagnostics.push(svqa_qlint::Diagnostic::new(
            svqa_qlint::codes::CYCLIC_DEPENDENCY,
            svqa_qlint::Severity::Error,
            "cycle",
        ));
        let e: SvqaError = report.into();
        let text = e.to_string();
        assert!(
            text.contains("lint") && text.contains("cyclic-dependency"),
            "{text}"
        );
    }
}

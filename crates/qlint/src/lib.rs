//! `svqa-qlint`: static analysis of query graphs before execution.
//!
//! The parser (§IV-B) emits SPOC query graphs that the executor would
//! otherwise run blindly — a typo'd predicate, a cyclic dependency edge, or
//! an unbound answer slot costs a full sub-graph-matching scan before
//! returning an empty answer. This crate lints a [`QueryGraph`] against the
//! merged graph's [`Schema`] (its vocabulary of categories and predicates,
//! extracted once after aggregation) and produces typed [`Diagnostic`]s in
//! microseconds, so garbage plans are rejected at the door.
//!
//! Three pass families:
//!
//! 1. **structural** — dangling/cyclic dependency edges, empty SPOC slots,
//!    unbound answer slots, quads unreachable from the answer vertex;
//! 2. **semantic** — subject/object categories and predicates checked
//!    against the schema, with edit-distance "did you mean" suggestions;
//! 3. **cost** — per-quad cardinality estimates from schema statistics,
//!    flagging cartesian blowups and feeding join-order hints to the
//!    scheduler.
//!
//! Both semantic and cost passes read one resolution per unbound category
//! slot, made by the executor's own `matchVertex` ladder
//! ([`svqa_nlp::resolve`]) over the schema's labels: a slot is unmatched
//! when its rung is `NoMatch`, and its cardinality is the sum of the
//! resolved label counts, i.e. the size of the executor's seed set.
//!
//! Severity policy: [`Severity::Error`] means the plan *cannot* produce
//! answers (the executor runs the same ladder and comes back empty),
//! [`Severity::Warning`] means the plan is suspicious or expensive but
//! executable, [`Severity::Hint`] is planner guidance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod diag;
mod schema;
mod semantic;
mod structural;

pub use cost::{query_cost, QuadCost, QueryCost};
pub use diag::{codes, Diagnostic, LintReport, Severity, Slot};
pub use schema::Schema;

use structural::bound_slot;
use svqa_nlp::resolve::{resolve, Resolution};
use svqa_qparser::QueryGraph;

/// The query-graph linter: a [`Schema`], reused across questions.
#[derive(Debug, Clone)]
pub struct Linter {
    schema: Schema,
}

impl Linter {
    /// Build a linter over an extracted schema.
    pub fn new(schema: Schema) -> Self {
        Linter { schema }
    }

    /// The schema this linter checks against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Run all three pass families over a query graph.
    pub fn lint(&self, gq: &QueryGraph) -> LintReport {
        let mut diagnostics = Vec::new();
        let structurally_sound = structural::check(gq, &mut diagnostics);
        // Semantic and cost checks index slots and walk execution order;
        // both are only meaningful on a structurally sound graph.
        if structurally_sound {
            let resolved = resolve_slots(&self.schema, gq);
            semantic::check(&self.schema, gq, &resolved, &mut diagnostics);
            cost::check(&self.schema, gq, &resolved, &mut diagnostics);
        }
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.vertex.cmp(&b.vertex))
                .then(a.code.cmp(&b.code))
        });
        LintReport { diagnostics }
    }

    /// Per-quad cost estimates for a query graph (the scheduler-hint feed);
    /// independent of diagnostics.
    pub fn cost(&self, gq: &QueryGraph) -> QueryCost {
        cost::query_cost(&self.schema, gq)
    }
}

/// Per quad, the resolutions of its `[subject, object]`.
type SlotResolutions<'a> = Vec<[Option<Resolution<'a>>; 2]>;

/// The `matchVertex` resolution of every category slot against the
/// schema's labels, once per lint. `None` for a wildcard slot and for a
/// slot fed by a dependency edge, which Algorithm 3 rewrites with the
/// provider's answers instead of matching its surface text (the
/// "girlfriend" in ⟨wizard, hang out with, girlfriend⟩).
fn resolve_slots<'a>(schema: &'a Schema, gq: &'a QueryGraph) -> SlotResolutions<'a> {
    let bound = |v: usize, slot: Slot| gq.in_edges(v).any(|e| bound_slot(e.dependency) == slot);
    gq.vertices
        .iter()
        .enumerate()
        .map(|(v, spoc)| {
            [(Slot::Subject, &spoc.subject), (Slot::Object, &spoc.object)].map(|(slot, np)| {
                (!np.is_empty() && !bound(v, slot)).then(|| resolve(&np.phrase, &np.head, schema))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests;

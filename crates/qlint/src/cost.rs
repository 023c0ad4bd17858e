//! Pass 3: per-quad cardinality estimation from schema statistics — the
//! cartesian-blowup check and the scheduler's join-order hint feed.

use crate::diag::{codes, Diagnostic, Severity, Slot};
use crate::schema::Schema;
use crate::{resolve_slots, structural::bound_slot, SlotResolutions};
use svqa_qparser::{Dependency, QueryGraph};

/// A quad whose estimated pair scan exceeds this many times the graph's
/// vertex count draws a cartesian-blowup warning.
const BLOWUP_FACTOR: f64 = 64.0;

/// Estimated work for one quad: the candidate-set sizes of both slots and
/// the implied pair-scan size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadCost {
    /// Query-graph vertex index.
    pub vertex: usize,
    /// Estimated subject candidate count.
    pub subject_card: usize,
    /// Estimated object candidate count.
    pub object_card: usize,
    /// `subject_card × object_card`, the pair-scan bound.
    pub pairs: f64,
}

/// Estimated work for a whole query graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryCost {
    /// Per-quad estimates, indexed like `gq.vertices`.
    pub quads: Vec<QuadCost>,
    /// Sum of all pair scans — the scalar the scheduler sorts on.
    pub total: f64,
}

/// Estimate the cost of every quad. Bound slots inherit the provider's
/// answer-side estimate (walked in execution order); wildcard slots scan
/// every vertex; named slots seed as many vertices as `matchVertex`
/// resolves them to.
pub fn query_cost(schema: &Schema, gq: &QueryGraph) -> QueryCost {
    costs(schema, gq, &resolve_slots(schema, gq))
}

fn costs(schema: &Schema, gq: &QueryGraph, resolved: &SlotResolutions<'_>) -> QueryCost {
    let Some(order) = gq.execution_order() else {
        // Cyclic/dangling graphs are rejected by the structural pass; a
        // zero cost keeps this function total for direct callers.
        return QueryCost::default();
    };

    // Per quad, the resolved `[subject, object]` cardinalities, filled
    // providers-first.
    let mut cards = vec![[0usize; 2]; gq.len()];
    for v in order {
        for (side, slot) in [Slot::Subject, Slot::Object].into_iter().enumerate() {
            let fed_by: Option<usize> = gq
                .in_edges(v)
                .filter(|e| bound_slot(e.dependency) == slot)
                .map(|e| {
                    let provider_side =
                        usize::from(!matches!(e.dependency, Dependency::S2S | Dependency::O2S));
                    cards[e.provider][provider_side]
                })
                .min();
            cards[v][side] = fed_by.unwrap_or_else(|| {
                resolved[v][side]
                    .as_ref()
                    // Unresolved and unbound: a wildcard scans every vertex.
                    .map_or(schema.vertex_total(), |r| r.count())
            });
        }
    }
    let quads: Vec<QuadCost> = cards
        .iter()
        .enumerate()
        .map(|(vertex, &[subject_card, object_card])| QuadCost {
            vertex,
            subject_card,
            object_card,
            pairs: subject_card as f64 * object_card as f64,
        })
        .collect();
    let total = quads.iter().map(|q| q.pairs).sum();
    QueryCost { quads, total }
}

pub(crate) fn check(
    schema: &Schema,
    gq: &QueryGraph,
    resolved: &SlotResolutions<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let vertex_total = schema.vertex_total().max(1);
    let blowup = BLOWUP_FACTOR * vertex_total as f64;
    let wide = (vertex_total / 10).max(64);

    for q in &costs(schema, gq, resolved).quads {
        let spoc = &gq.vertices[q.vertex];
        if q.pairs > blowup && q.subject_card > 1 && q.object_card > 1 {
            out.push(
                Diagnostic::new(
                    codes::CARTESIAN_BLOWUP,
                    Severity::Warning,
                    format!(
                        "estimated {}×{} pair scan (~{:.0} pairs) over a \
                         {vertex_total}-vertex graph",
                        q.subject_card, q.object_card, q.pairs
                    ),
                )
                .at_vertex(q.vertex),
            );
        }
        for (slot, np, own, other) in [
            (Slot::Subject, &spoc.subject, q.subject_card, q.object_card),
            (Slot::Object, &spoc.object, q.object_card, q.subject_card),
        ] {
            // A wildcard that survived cost resolution at full vertex count
            // (i.e. not narrowed by a dependency edge) against a wide other
            // side: executable, but the scan is avoidably broad.
            if np.is_empty() && own == schema.vertex_total() && other >= wide {
                out.push(
                    Diagnostic::new(
                        codes::EXPENSIVE_WILDCARD,
                        Severity::Hint,
                        format!(
                            "wildcard {} scans all {vertex_total} vertices \
                             against {other} candidates on the other side",
                            slot.name()
                        ),
                    )
                    .at_vertex(q.vertex)
                    .at_slot(slot),
                );
            }
        }
    }
}

//! Unit tests: exact diagnostic codes for hand-built malformed graphs and
//! clean bills of health for well-formed ones.

use crate::{codes, query_cost, Linter, Schema, Severity};
use svqa_graph::Graph;
use svqa_qparser::{AnswerRole, Dependency, NounPhrase, QueryEdge, QueryGraph, QuestionType, Spoc};

fn small_world() -> Graph {
    let mut g = Graph::new();
    let d = g.add_vertex("dog");
    let c = g.add_vertex("car");
    let m = g.add_vertex("man");
    let h = g.add_vertex("hat");
    g.add_edge(d, c, "in").unwrap();
    g.add_edge(m, h, "wearing").unwrap();
    g
}

fn linter() -> Linter {
    Linter::new(Schema::extract(&small_world()))
}

fn spoc(s: &str, p: &str, o: &str) -> Spoc {
    Spoc {
        subject: if s.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(s)
        },
        predicate: p.to_owned(),
        object: if o.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(o)
        },
        ..Spoc::default()
    }
}

fn judgment(vertices: Vec<Spoc>, edges: Vec<QueryEdge>) -> QueryGraph {
    QueryGraph {
        vertices,
        edges,
        question_type: QuestionType::Judgment,
        question: "test".into(),
    }
}

fn codes_of(gq: &QueryGraph) -> Vec<String> {
    linter()
        .lint(gq)
        .diagnostics
        .iter()
        .map(|d| d.code.clone())
        .collect()
}

#[test]
fn clean_judgment_question_has_no_diagnostics() {
    let gq = judgment(vec![spoc("dog", "in", "car")], vec![]);
    let report = linter().lint(&gq);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn empty_graph_is_an_error() {
    let gq = judgment(vec![], vec![]);
    assert_eq!(codes_of(&gq), vec![codes::EMPTY_QUERY_GRAPH]);
}

#[test]
fn cyclic_dependency_is_detected() {
    let gq = judgment(
        vec![spoc("dog", "in", "car"), spoc("man", "wearing", "hat")],
        vec![
            QueryEdge {
                provider: 0,
                consumer: 1,
                dependency: Dependency::S2S,
            },
            QueryEdge {
                provider: 1,
                consumer: 0,
                dependency: Dependency::O2O,
            },
        ],
    );
    assert_eq!(codes_of(&gq), vec![codes::CYCLIC_DEPENDENCY]);
}

#[test]
fn dangling_and_self_loop_edges_are_errors() {
    let gq = judgment(
        vec![spoc("dog", "in", "car")],
        vec![QueryEdge {
            provider: 0,
            consumer: 7,
            dependency: Dependency::S2S,
        }],
    );
    assert_eq!(codes_of(&gq), vec![codes::DANGLING_EDGE]);

    let gq = judgment(
        vec![spoc("dog", "in", "car")],
        vec![QueryEdge {
            provider: 0,
            consumer: 0,
            dependency: Dependency::S2S,
        }],
    );
    assert_eq!(codes_of(&gq), vec![codes::DANGLING_EDGE]);
}

#[test]
fn empty_quad_is_an_error() {
    let gq = judgment(vec![spoc("", "in", "")], vec![]);
    let report = linter().lint(&gq);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::EMPTY_QUAD),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
}

#[test]
fn unbound_answer_slot_warns_on_reasoning_questions() {
    let gq = QueryGraph {
        vertices: vec![spoc("dog", "in", "car")],
        edges: vec![],
        question_type: QuestionType::Reasoning,
        question: "test".into(),
    };
    let report = linter().lint(&gq);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNBOUND_ANSWER_SLOT)
        .expect("unbound-answer-slot diagnostic");
    assert_eq!(d.severity, Severity::Warning);

    // The same graph with a marked answer slot is clean.
    let mut bound = gq;
    bound.vertices[0].answer_role = Some(AnswerRole::Subject);
    assert!(linter().lint(&bound).is_clean());
}

#[test]
fn quad_disconnected_from_answer_vertex_warns() {
    let mut gq = QueryGraph {
        vertices: vec![spoc("dog", "in", "car"), spoc("man", "wearing", "hat")],
        edges: vec![],
        question_type: QuestionType::Reasoning,
        question: "test".into(),
    };
    gq.vertices[0].answer_role = Some(AnswerRole::Subject);
    let report = linter().lint(&gq);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNREACHABLE_QUAD)
        .expect("unreachable-quad diagnostic");
    assert_eq!(d.vertex, Some(1));
}

#[test]
fn typo_category_is_an_error_with_a_suggestion() {
    let gq = judgment(vec![spoc("dgo", "in", "car")], vec![]);
    let report = linter().lint(&gq);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNKNOWN_CATEGORY)
        .expect("unknown-category diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.suggestion.as_deref(), Some("dog"));
    assert!(report.has_errors());
}

#[test]
fn known_word_absent_from_world_is_a_warning_not_an_error() {
    // "kitten" is in the vocabulary (cat cluster) but this world has no
    // cats: the executor would legitimately scan and find nothing.
    let gq = judgment(vec![spoc("kitten", "in", "car")], vec![]);
    let report = linter().lint(&gq);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::CATEGORY_NOT_IN_GRAPH)
        .expect("category-not-in-graph diagnostic");
    assert_eq!(d.severity, Severity::Warning);
    assert!(!report.has_errors());
}

#[test]
fn typo_predicate_is_an_error_with_a_suggestion() {
    let gq = judgment(vec![spoc("man", "weer", "hat")], vec![]);
    let report = linter().lint(&gq);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNKNOWN_PREDICATE)
        .expect("unknown-predicate diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.suggestion.as_deref(), Some("wear"));
}

#[test]
fn bound_slots_are_not_vocabulary_checked() {
    // ⟨wizard, hang out with, girlfriend⟩ ← the "girlfriend" object is fed
    // by the provider's answers; its surface text must not be linted.
    let mut g = Graph::new();
    let w = g.add_vertex("harry potter");
    let x = g.add_vertex("cho chang");
    g.add_edge(x, w, "girlfriend of").unwrap();
    let linter = Linter::new(Schema::extract(&g));

    let gq = QueryGraph {
        vertices: vec![
            spoc("", "girlfriend of", "harry potter"),
            spoc("harry potter", "girlfriend of", "girlfriend"),
        ],
        edges: vec![QueryEdge {
            provider: 0,
            consumer: 1,
            dependency: Dependency::O2S,
        }],
        question_type: QuestionType::Judgment,
        question: "test".into(),
    };
    let report = linter.lint(&gq);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::UNKNOWN_CATEGORY),
        "{}",
        report.render()
    );
}

#[test]
fn unknown_constraint_warns() {
    let mut v = spoc("dog", "in", "car");
    v.constraint = Some("upside down".into());
    let report = linter().lint(&judgment(vec![v], vec![]));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::UNKNOWN_CONSTRAINT),
        "{}",
        report.render()
    );
    let mut v = spoc("dog", "in", "car");
    v.constraint = Some("at least 2".into());
    assert!(linter().lint(&judgment(vec![v], vec![])).is_clean());
}

fn wide_world() -> Graph {
    let mut g = Graph::new();
    for _ in 0..300 {
        g.add_vertex("dog");
        g.add_vertex("car");
    }
    g
}

#[test]
fn cartesian_blowup_warns_on_wide_pair_scans() {
    let linter = Linter::new(Schema::extract(&wide_world()));
    let report = linter.lint(&judgment(vec![spoc("dog", "in", "car")], vec![]));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::CARTESIAN_BLOWUP),
        "{}",
        report.render()
    );
    assert!(!report.has_errors(), "cost findings must stay warnings");
}

#[test]
fn wide_wildcard_scan_gets_a_hint() {
    let linter = Linter::new(Schema::extract(&wide_world()));
    let report = linter.lint(&judgment(vec![spoc("", "in", "car")], vec![]));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::EXPENSIVE_WILDCARD && d.severity == Severity::Hint),
        "{}",
        report.render()
    );
}

#[test]
fn query_cost_orders_cheap_before_expensive() {
    let schema = Schema::extract(&wide_world());
    let cheap = judgment(vec![spoc("dog", "in", "dog")], vec![]);
    let wide = judgment(vec![spoc("", "in", "")], vec![]);
    let c = query_cost(&schema, &cheap).total;
    let w = query_cost(&schema, &wide).total;
    assert!(c < w, "cheap {c} should undercut wildcard {w}");
    assert_eq!(query_cost(&schema, &wide).quads[0].pairs, 600.0 * 600.0);
}

#[test]
fn bound_slot_inherits_provider_cardinality() {
    let schema = Schema::extract(&wide_world());
    let gq = QueryGraph {
        vertices: vec![
            spoc("dog", "in", "car"),
            // Subject fed by provider 0's subject answers (≤300 dogs), so
            // this quad is not a 600-wide wildcard scan.
            spoc("", "in", "car"),
        ],
        edges: vec![QueryEdge {
            provider: 0,
            consumer: 1,
            dependency: Dependency::S2S,
        }],
        question_type: QuestionType::Reasoning,
        question: "test".into(),
    };
    let qc = query_cost(&schema, &gq);
    assert_eq!(qc.quads[1].subject_card, 300);
}

#[test]
fn report_sorts_errors_first_and_renders_summary() {
    let gq = QueryGraph {
        vertices: vec![spoc("dgo", "in", "car"), spoc("man", "wearing", "hat")],
        edges: vec![],
        question_type: QuestionType::Reasoning,
        question: "test".into(),
    };
    let report = linter().lint(&gq);
    assert!(report.has_errors());
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
    assert!(report.summary().contains("1 error"), "{}", report.summary());
    assert!(
        report.render().contains("did you mean"),
        "{}",
        report.render()
    );

    // Diagnostics survive a serde round trip (the serve path ships them).
    let json = serde_json::to_string(&report).unwrap();
    let back: crate::LintReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

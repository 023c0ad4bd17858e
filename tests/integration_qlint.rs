//! Integration tests for the static query linter (`svqa-qlint`) wired
//! through the full pipeline: typo'd questions are refused before the
//! executor runs, clean questions are untouched, and the generated MVQA
//! corpus stays statically clean.

use svqa::executor::executor::QueryGraphExecutor;
use svqa::qlint::{codes, Severity};
use svqa::qparser::{Dependency, NounPhrase, QueryEdge, QueryGraph, QuestionType, Spoc};
use svqa::{Svqa, SvqaConfig, SvqaError};
use svqa_dataset::Mvqa;

fn world() -> (Svqa, Mvqa) {
    let mvqa = Mvqa::generate_small(60, 3);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    (system, mvqa)
}

#[test]
fn typo_predicate_is_rejected_before_execution_with_a_suggestion() {
    let (system, _) = world();

    let report = system.lint("Is the dog weering the hat?").expect("parses");
    assert!(report.has_errors(), "{}", report.render());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNKNOWN_PREDICATE)
        .expect("unknown-predicate diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.suggestion.as_deref(), Some("wear"), "{}", report.render());

    // The same question through `answer` short-circuits with the report.
    match system.answer("Is the dog weering the hat?") {
        Err(SvqaError::Lint(rejected)) => assert_eq!(rejected, report),
        other => panic!("expected a lint rejection, got {other:?}"),
    }
}

#[test]
fn clean_question_lints_clean_and_answers_exactly_like_the_bare_executor() {
    let (system, _) = world();
    let question = "Does the dog appear in the car?";

    let report = system.lint(question).expect("parses");
    assert!(report.is_clean(), "{}", report.render());

    // The lint gate must not perturb answers: the pipeline's result equals
    // a direct executor run over the same query graph.
    let gq = svqa::qparser::QueryGraphGenerator::new()
        .generate(question)
        .expect("parses");
    let bare = QueryGraphExecutor::new(system.merged_graph())
        .run(&gq, None, &mut svqa::executor::CacheStats::new())
        .expect("executes")
        .answer;
    assert_eq!(system.answer(question).expect("answers"), bare);
}

#[test]
fn generated_corpus_stays_statically_clean() {
    let (system, mvqa) = world();
    for q in &mvqa.questions {
        // Questions the parser rejects are the parser's business; every
        // parsed one must clear the lint gate, so answering never trips
        // over a lint rejection.
        if let Ok(report) = system.lint(&q.question) {
            assert!(!report.has_errors(), "{}: {}", q.question, report.render());
            assert!(
                !matches!(system.answer(&q.question), Err(SvqaError::Lint(_))),
                "{} was lint-rejected",
                q.question
            );
        }
    }
}

#[test]
fn hand_built_malformed_graphs_get_exact_codes() {
    let (system, _) = world();
    let spoc = |s: &str, p: &str, o: &str| Spoc {
        subject: if s.is_empty() { NounPhrase::default() } else { NounPhrase::simple(s) },
        predicate: p.to_owned(),
        object: if o.is_empty() { NounPhrase::default() } else { NounPhrase::simple(o) },
        ..Spoc::default()
    };

    // A dependency cycle: neither quad can execute first.
    let cyclic = QueryGraph {
        vertices: vec![spoc("dog", "in", "car"), spoc("man", "wear", "hat")],
        edges: vec![
            QueryEdge { provider: 0, consumer: 1, dependency: Dependency::S2S },
            QueryEdge { provider: 1, consumer: 0, dependency: Dependency::O2O },
        ],
        question_type: QuestionType::Judgment,
        question: "cyclic".into(),
    };
    let report = system.lint_graph(&cyclic);
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
    assert_eq!(report.diagnostics[0].code, codes::CYCLIC_DEPENDENCY);
    assert!(report.has_errors());

    // A reasoning question with no marked answer slot: suspicious but
    // executable (the executor has a fallback), so Warning not Error.
    let unbound = QueryGraph {
        vertices: vec![spoc("dog", "in", "car")],
        edges: vec![],
        question_type: QuestionType::Reasoning,
        question: "unbound".into(),
    };
    let report = system.lint_graph(&unbound);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::UNBOUND_ANSWER_SLOT)
        .expect("unbound-answer-slot diagnostic");
    assert_eq!(d.severity, Severity::Warning);
    assert!(!report.has_errors());

    // An edge pointing at a vertex that does not exist.
    let dangling = QueryGraph {
        vertices: vec![spoc("dog", "in", "car")],
        edges: vec![QueryEdge { provider: 0, consumer: 9, dependency: Dependency::S2S }],
        question_type: QuestionType::Judgment,
        question: "dangling".into(),
    };
    let report = system.lint_graph(&dangling);
    assert_eq!(report.diagnostics[0].code, codes::DANGLING_EDGE);
    assert!(report.has_errors());
}

#[test]
fn batch_isolates_lint_rejections_per_question() {
    let (system, _) = world();
    let cache = svqa::executor::KeyCentricCache::new(
        svqa::executor::CacheGranularity::Both,
        svqa::executor::EvictionPolicy::Lfu,
        64,
    );
    let questions = [
        "Does the dog appear in the car?",
        "Is the dog weering the hat?",
        "Does the dog appear in the car?",
    ];
    let outcome = system.run_batch(&questions, &cache, None);
    assert_eq!(outcome.answers.len(), 3);
    assert!(outcome.answers[0].is_ok(), "{:?}", outcome.answers[0]);
    assert!(
        matches!(&outcome.answers[1], Err(SvqaError::Lint(r)) if r.has_errors()),
        "{:?}",
        outcome.answers[1]
    );
    assert!(outcome.answers[2].is_ok(), "{:?}", outcome.answers[2]);
}

#[test]
fn profiled_run_carries_lint_stage_and_diagnostics() {
    let (system, _) = world();

    // A clean question records the lint stage but attaches no diagnostics.
    let run = system.run(system.prepare("Does the dog appear in the car?"), None, None);
    run.result.as_ref().expect("answers");
    let profile = run.profile().expect("profiled");
    assert!(
        profile.stages.iter().any(|s| s.stage == "lint"),
        "no lint stage in profile"
    );
    assert!(profile.lint.is_empty());

    // A warning-level finding rides along in the profile (and the tree).
    let run = system.run(system.prepare("How many dogs are in the car?"), None, None);
    run.result.as_ref().expect("answers");
    let tree = run.profile().expect("profiled").render_tree();
    assert!(tree.contains("stage lint"), "{tree}");
}

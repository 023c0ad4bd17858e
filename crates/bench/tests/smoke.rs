//! Smoke tests: every experiment runner executes end-to-end on a tiny
//! world and produces structurally sane reports.

use svqa::dataset::mvqa::{Mvqa, MvqaConfig};
use svqa::dataset::questions::QuestionCounts;
use svqa_bench::{run_exp1, run_exp4, table_1_and_2};

fn tiny_mvqa() -> Mvqa {
    Mvqa::generate(MvqaConfig {
        image_count: 250,
        seed: 0xbeef,
        counts: QuestionCounts::default(),
    })
}

#[test]
fn tables_1_and_2_render() {
    let mvqa = tiny_mvqa();
    let (t1, t2) = table_1_and_2(&mvqa);
    let r1 = t1.render();
    let r2 = t2.render();
    assert!(r1.contains("MVQA"));
    assert!(r1.contains("16.9")); // paper reference present
    assert!(r2.contains("Judgement"));
    assert!(r2.contains("219")); // total clauses
}

#[test]
fn exp1_reports_accuracies_and_latency() {
    let mvqa = tiny_mvqa();
    let (report, table) = run_exp1(&mvqa);
    assert!((0.0..=1.0).contains(&report.outcome.overall));
    assert!(report.outcome.total_latency.as_nanos() > 0);
    let rendered = table.render();
    assert!(rendered.contains("SVQA (ours)"));
    assert!(rendered.contains("SVQA (paper)"));
}

#[test]
fn exp4_series_are_monotone_for_baselines() {
    let mvqa = tiny_mvqa();
    let (report, t9a, t9b) = run_exp4(&mvqa);
    assert_eq!(report.series.len(), 4); // ours + 3 baselines
                                        // Baselines' simulated latency strictly grows with N.
    for (name, ys) in report.series.iter().skip(1) {
        for w in ys.windows(2) {
            assert!(w[1] > w[0], "{name} not monotone: {ys:?}");
        }
    }
    // Clause-count groups cover A–D.
    assert_eq!(report.by_clause.len(), 4);
    assert!(t9a.render().contains("DisSim"));
    assert!(t9b.render().contains("clause"));
}

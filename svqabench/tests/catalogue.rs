//! Every metric `BENCHMARK.json` names is printed, by name and with its
//! unit, in the run's result.

use svqabench::report::{Report, END_TO_END, PER_LAYER};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<(String, String)> {
    let doc: serde_json::Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    assert_eq!(owned(END_TO_END), declared("end_to_end"));
    assert_eq!(owned(PER_LAYER), declared("per_layer"));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for traced in [false, true] {
        let mut report = Report::default();
        report.tally(10, 0);
        for (i, &(name, _)) in Report::catalogue(traced).iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        let out = report.render(traced);
        let lines: Vec<&str> = out.lines().collect();
        let result: serde_json::Value =
            serde_json::from_str(lines.last().expect("output")).expect("last line is JSON");
        assert_eq!(result["correct"].as_bool(), Some(true));
        assert_eq!(result["attempted"].as_u64(), Some(10));
        assert_eq!(result["failed"].as_u64(), Some(0));
        let metrics = result["metrics"].as_object().expect("metrics object");
        assert_eq!(metrics.len(), Report::catalogue(traced).len());
        for (i, &(name, unit)) in Report::catalogue(traced).iter().enumerate() {
            let value = 1.5 + i as f64;
            assert_eq!(
                metrics.get(name).and_then(|m| m["unit"].as_str()),
                Some(unit)
            );
            assert_eq!(
                metrics.get(name).and_then(|m| m["value"].as_f64()),
                Some(value)
            );
            let line = format!("{name} {value} {unit}");
            assert!(lines.contains(&line.as_str()), "missing line {line}");
        }
    }
}

#[test]
fn a_failed_check_makes_the_result_incorrect() {
    let mut report = Report::default();
    report.tally(4, 1);
    for &(name, _) in END_TO_END {
        report.set(name, 1.0);
    }
    assert!(!report.correct());
    assert!(report.render(false).contains("fail_ratio 0.25 ratio"));
}

#[test]
fn an_invalid_run_is_not_correct() {
    let mut report = Report::default();
    report.tally(4, 0);
    for &(name, _) in END_TO_END {
        report.set(name, 1.0);
    }
    assert!(report.correct());
    report.invalidate("the generator fell behind".to_owned());
    assert!(!report.correct());
    let out = report.render(false);
    assert!(out.contains("# invalid run: the generator fell behind"));
    assert!(out.lines().last().unwrap().contains("\"correct\":false"));
}

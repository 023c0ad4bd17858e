//! End-to-end `EXPLAIN ANALYZE`: the CLI must render a plan tree with
//! candidate counts, cache classification and wall times, and the
//! `--trace-out` / `--profile-out` artifacts must be well-formed JSON
//! (the Chrome trace loadable by chrome://tracing, the profile
//! deserializable back into an `ExecutionProfile`).

use std::path::PathBuf;
use std::process::Command;

const QUESTION: &str = "Does the dog appear in the car?";

/// Build a small world once into a per-process temp dir, shared by all
/// the CLI invocations below.
fn world_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svqa_explain_world_{}", std::process::id()));
    if !dir.join("merged.svqg").exists() {
        let status = Command::new(env!("CARGO_BIN_EXE_svqa-cli"))
            .args([
                "build",
                "--images",
                "60",
                "--seed",
                "11",
                "--out",
                dir.to_str().unwrap(),
            ])
            .status()
            .expect("svqa-cli runs");
        assert!(status.success(), "build failed: {status:?}");
    }
    dir
}

fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_svqa-cli"))
        .args(args)
        .output()
        .expect("svqa-cli runs");
    assert!(
        out.status.success(),
        "svqa-cli {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn explain_renders_the_plan_tree() {
    let world = world_dir();
    let text = run_cli(&["explain", "--world", world.to_str().unwrap(), QUESTION]);

    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains(QUESTION), "{text}");
    assert!(text.contains("type: Judgment"), "{text}");
    assert!(text.contains("answer:"), "{text}");
    assert!(text.contains("plan (execution order:"), "{text}");
    // Per-quadruple details: slot provenance, cache classification, the
    // pruning funnel, and a wall time on every plan node.
    assert!(text.contains("sub:"), "{text}");
    assert!(text.contains("path cache:"), "{text}");
    assert!(text.contains("edges scanned:"), "{text}");
    assert!(text.contains("after predicate"), "{text}");
    assert!(text.contains("stage parse:"), "{text}");
}

#[test]
fn explain_json_is_a_machine_readable_profile() {
    let world = world_dir();
    let text = run_cli(&[
        "explain",
        "--json",
        "--world",
        world.to_str().unwrap(),
        QUESTION,
    ]);
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON profile");

    assert_eq!(v["question"].as_str(), Some(QUESTION));
    assert_eq!(v["question_type"].as_str(), Some("Judgment"));
    assert!(v["total_ns"].as_u64().unwrap_or(0) > 0, "{v:?}");
    let quads = v["quads"].as_array().expect("quads array");
    assert!(!quads.is_empty());
    for q in quads {
        let t = &q["trace"];
        assert!(t["elapsed_ns"].as_u64().is_some(), "{q:?}");
        assert!(t["edges_scanned"].as_u64().is_some(), "{q:?}");
        assert!(t["path_cache"].as_str().is_some(), "{q:?}");
    }
    // The parse stage was prepended ahead of the match stage.
    let stages = v["stages"].as_array().expect("stages array");
    assert_eq!(stages[0]["stage"].as_str(), Some("parse"));
}

#[test]
fn ask_explain_writes_chrome_trace_and_profile_json() {
    let world = world_dir();
    let trace_path = world.join("trace.json");
    let profile_path = world.join("profile.json");
    let text = run_cli(&[
        "ask",
        "--world",
        world.to_str().unwrap(),
        "--explain",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--profile-out",
        profile_path.to_str().unwrap(),
        QUESTION,
    ]);
    // The boolean `--explain` must not swallow the question, and the
    // answer line precedes the plan tree.
    assert!(text.contains("answer:"), "{text}");
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");

    // Chrome trace-event checker: a JSON array of complete ("X") events
    // with microsecond ts/dur — the shape chrome://tracing and Perfetto
    // require.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace is valid JSON");
    let events = trace.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty(), "trace has no events");
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
        assert!(e["ts"].as_f64().is_some(), "{e:?}");
        assert!(e["dur"].as_f64().is_some(), "{e:?}");
        assert!(e["pid"].as_u64().is_some(), "{e:?}");
        assert!(e["tid"].as_u64().is_some(), "{e:?}");
        assert!(e["name"].as_str().is_some(), "{e:?}");
    }
    // Both recorded stages made it into the trace.
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"match"), "{names:?}");

    // Profile checker: parses and matches the question asked.
    let profile: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&profile_path).unwrap())
            .expect("profile is valid JSON");
    assert_eq!(profile["question"].as_str(), Some(QUESTION));
    assert!(profile["quads"].as_array().is_some_and(|q| !q.is_empty()));
}

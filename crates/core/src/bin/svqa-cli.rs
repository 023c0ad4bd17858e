//! `svqa-cli` — build, persist, query and evaluate SVQA worlds from the
//! command line.
//!
//! ```text
//! svqa-cli build --images 1000 --seed 7 --out world/     # offline phase
//! svqa-cli ask   --world world/ "How many dogs are in the car?"
//! svqa-cli ask   --world world/ --explain --trace-out t.json "…"
//! svqa-cli explain --world world/ "How many dogs are in the car?"
//! svqa-cli eval  --world world/                          # Table-III style report
//! svqa-cli eval  --images 200 --metrics out.json         # in-process build + metrics dump
//! svqa-cli repl  --images 500 --verbose                  # interactive loop with traces
//! svqa-cli stats --images 200                            # build stats + telemetry summary
//! svqa-cli serve --images 200 --port 7878                # query service + /metrics
//! ```
//!
//! `--metrics <file.json>` (on `ask` and `eval`) writes the process-global
//! telemetry snapshot — per-stage latency histograms with p50/p95/p99,
//! counters, and cache hit rates — as pretty-printed JSON.
//!
//! `explain` (or `ask --explain`) prints the `EXPLAIN ANALYZE` plan tree:
//! per-quadruple candidate counts through each pruning step, cache
//! hit/miss/bypass classification, edges scanned, and wall times.
//! `--trace-out FILE` writes a Chrome trace-event file (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>); `--profile-out FILE`
//! writes the machine-readable profile JSON. `serve` also exposes the live
//! registry at `/metrics`, `/metrics.json` and `/profiles/recent`.
//!
//! The world directory holds the merged graph as a binary snapshot
//! (`merged.svqg`, see `svqa_graph::binio`) plus the generated questions
//! with their ground truth (`questions.json`). `--world` commands load it
//! with `Svqa::from_graph` and answer on the same request path as every
//! other entry point.

use std::io::{BufRead, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use svqa::dataset::mvqa::{Mvqa, MvqaConfig};
use svqa::dataset::questions::{QaPair, QuestionCounts};
use svqa::executor::ExecutionProfile;
use svqa::qlint::Severity;
use svqa::telemetry::ChromeTrace;
use svqa::{Svqa, SvqaConfig};

const USAGE: &str = "usage: svqa-cli <build|ask|explain|lint|eval|repl|stats|serve|chaos> \
     [--images N] [--seed S] [--out DIR] [--world DIR] [--metrics FILE] \
     [--corpus FILE] [--explain] [--json] [--trace-out FILE] [--profile-out FILE] \
     [--port N] [--workers N] [--queue-depth N] [--deadline-ms N] \
     [--cache-pool N] [--fault-plan FILE] [--fault-seed S] \
     [--rates R1,R2,...] [--verbose] [question]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = unknown_flag(&args) {
        eprintln!("error: unknown flag {unknown}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("ask") => cmd_ask(&args[1..], false),
        Some("explain") => cmd_ask(&args[1..], true),
        Some("lint") => cmd_lint(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: [&str; 16] = [
    "--images",
    "--seed",
    "--out",
    "--world",
    "--metrics",
    "--corpus",
    "--trace-out",
    "--profile-out",
    "--port",
    "--workers",
    "--queue-depth",
    "--deadline-ms",
    "--cache-pool",
    "--fault-plan",
    "--fault-seed",
    "--rates",
];

/// Flags that stand alone.
const SWITCHES: [&str; 3] = ["--explain", "--json", "--verbose"];

/// The first `--` argument that names neither a value flag nor a switch.
/// Rejecting it up front keeps a misspelled value flag from passing its
/// value off as the question.
fn unknown_flag(args: &[String]) -> Option<&str> {
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !VALUE_FLAGS.contains(a) && !SWITCHES.contains(a))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn positional(args: &[String]) -> Option<String> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = VALUE_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a.clone());
    }
    None
}

fn build_world(images: usize, seed: u64, config: SvqaConfig) -> (Svqa, Mvqa) {
    eprintln!("generating {images} images (seed {seed})...");
    let mvqa = Mvqa::generate(MvqaConfig {
        image_count: images,
        seed,
        counts: QuestionCounts::default(),
    });
    eprintln!("building the merged graph...");
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    eprintln!("build: {}", system.build_stats().summary_line());
    (system, mvqa)
}

fn cmd_build(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(1000), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let out = PathBuf::from(flag(args, "--out").unwrap_or_else(|| "world".to_owned()));
    std::fs::create_dir_all(&out)?;

    let (system, mvqa) = build_world(images, seed, SvqaConfig::default());
    std::fs::write(
        out.join("merged.svqg"),
        svqa::graph::binio::to_bytes(system.merged_graph())?,
    )?;
    std::fs::write(
        out.join("questions.json"),
        serde_json::to_string_pretty(&mvqa.questions)?,
    )?;
    std::fs::write(
        out.join("meta.json"),
        serde_json::to_string_pretty(&serde_json::json!({
            "images": images,
            "seed": seed,
            "config": system.config().summary(),
        }))?,
    )?;
    println!("world written to {}", out.display());
    Ok(())
}

/// Load the world `build` saved in `--world`: the system over its merged
/// graph, and its questions with their ground truth.
fn load_world(args: &[String]) -> Result<(Svqa, Vec<QaPair>), AnyError> {
    let dir = PathBuf::from(flag(args, "--world").unwrap_or_else(|| "world".to_owned()));
    let snapshot = std::fs::read(dir.join("merged.svqg"))?;
    let graph = svqa::graph::binio::from_bytes(snapshot.into())?;
    let questions: Vec<QaPair> =
        serde_json::from_str(&std::fs::read_to_string(dir.join("questions.json"))?)?;
    Ok((Svqa::from_graph(graph, SvqaConfig::default()), questions))
}

/// Write the process-global telemetry snapshot as pretty JSON, if asked.
fn write_metrics(path: Option<&str>) -> Result<(), AnyError> {
    if let Some(path) = path {
        std::fs::write(path, svqa::telemetry::global().snapshot().to_json_pretty())?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// Honour `--trace-out` / `--profile-out` for a profiled run.
fn write_profile_outputs(args: &[String], profile: &ExecutionProfile) -> Result<(), AnyError> {
    if let Some(path) = flag(args, "--trace-out") {
        let trace = ChromeTrace::from_query_traces(&[profile.query_trace()]);
        std::fs::write(&path, trace.to_json())?;
        eprintln!("chrome trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = flag(args, "--profile-out") {
        std::fs::write(&path, profile.to_json_pretty())?;
        eprintln!("profile written to {path}");
    }
    Ok(())
}

/// `ask` — answer one question over a saved world, with its query graph,
/// lint findings and evidence, or with `--explain` the `EXPLAIN ANALYZE`
/// plan tree. `explain` prints only the plan tree (or the JSON profile
/// with `--json`).
fn cmd_ask(args: &[String], explain_only: bool) -> Result<(), AnyError> {
    let metrics = flag(args, "--metrics");
    let explain = explain_only || args.iter().any(|a| a == "--explain");
    let wants_profile =
        explain || flag(args, "--trace-out").is_some() || flag(args, "--profile-out").is_some();
    let question = positional(args).ok_or("no question given")?;
    let (system, _) = load_world(args)?;
    let prepared = system.prepare(&question);
    if !wants_profile {
        if let Some(gq) = &prepared.query {
            println!("query graph ({:?}):", gq.question_type);
            for (i, v) in gq.vertices.iter().enumerate() {
                println!("  v{i}: {}", v.display());
            }
        }
        if let Ok(report) = &prepared.gate {
            for d in &report.diagnostics {
                println!("lint: {d}");
            }
        }
    }
    let run = system.run(prepared, None, None);
    write_metrics(metrics.as_deref())?;
    let guarded = run.result.clone()?;
    if !explain_only {
        println!("answer: {}", guarded.answer);
    }
    if wants_profile {
        let profile = run.profile().expect("an answered question executed");
        if explain_only && args.iter().any(|a| a == "--json") {
            println!("{}", profile.to_json_pretty());
        } else if explain {
            print!("{}", profile.render_tree());
        }
        return write_profile_outputs(args, &profile);
    }
    let explanation = run.explanation().expect("an answered question executed");
    let support = explanation.answer_support();
    if !support.is_empty() {
        println!("evidence ({} facts):", support.len());
        for fact in support.iter().take(8) {
            println!("  {}", fact.display());
        }
        if support.len() > 8 {
            println!("  ... and {} more", support.len() - 8);
        }
    }
    Ok(())
}

/// `lint` — static analysis of query graphs without executing them: one
/// question (positional) or a whole corpus (`--corpus questions.json`).
/// Prints every diagnostic (or a JSON report with `--json`) and exits
/// nonzero iff any question produced an `Error`-severity diagnostic — the
/// CI gate for "the bundled corpus stays statically clean". Questions the
/// parser rejects are reported but do not fail the gate: parse coverage
/// is the parser's business, not the linter's.
fn cmd_lint(args: &[String]) -> Result<(), AnyError> {
    let json = args.iter().any(|a| a == "--json");
    let (system, _) = load_world(args)?;

    let questions: Vec<String> = match flag(args, "--corpus") {
        Some(path) => {
            let pairs: Vec<QaPair> = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
            pairs.into_iter().map(|p| p.question).collect()
        }
        None => vec![positional(args).ok_or("no question or --corpus FILE given")?],
    };

    let (mut errors, mut warnings, mut hints, mut parse_failures) =
        (0usize, 0usize, 0usize, 0usize);
    let mut reports = Vec::with_capacity(questions.len());
    for question in &questions {
        reports.push(match system.lint(question) {
            Err(e) => {
                parse_failures += 1;
                if !json {
                    println!("{question}\n  parse failed: {e}");
                }
                serde_json::json!({ "question": question, "parse_error": e.to_string() })
            }
            Ok(report) => {
                errors += report.count(Severity::Error);
                warnings += report.count(Severity::Warning);
                hints += report.count(Severity::Hint);
                if !json && !report.is_clean() {
                    println!("{question}");
                    for d in &report.diagnostics {
                        println!("  {d}");
                    }
                }
                serde_json::json!({ "question": question, "diagnostics": report.diagnostics })
            }
        });
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "questions": reports,
                "errors": errors,
                "warnings": warnings,
                "hints": hints,
                "parse_failures": parse_failures,
            }))?
        );
    } else {
        println!(
            "linted {} question(s): {errors} errors, {warnings} warnings, \
             {hints} hints, {parse_failures} parse failures",
            questions.len()
        );
    }
    if errors > 0 {
        return Err(format!("{errors} error-severity diagnostic(s)").into());
    }
    Ok(())
}

/// `serve` — build a world in process and run the query service on it:
/// `POST /ask` and `/batch` behind an admission gate of `--workers`
/// permits with per-request deadlines, plus `/healthz`, `/shutdown`, and the
/// metrics routes, all on one port. Returns after a graceful drain.
fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(200), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let port: u16 = flag(args, "--port").map_or(Ok(7878), |s| s.parse())?;

    let mut serve_config = svqa::ServeConfig::default();
    if let Some(w) = flag(args, "--workers") {
        serve_config.workers = w.parse()?;
    }
    if let Some(d) = flag(args, "--queue-depth") {
        serve_config.queue_depth = d.parse()?;
    }
    if let Some(ms) = flag(args, "--deadline-ms") {
        serve_config.default_deadline = std::time::Duration::from_millis(ms.parse()?);
    }
    let mut config = SvqaConfig::default();
    if let Some(p) = flag(args, "--cache-pool") {
        config.scheduler.pool_size = p.parse()?;
    }

    let (system, _) = build_world(images, seed, config);
    // Arm the fault plan only after the build: chaos targets the online
    // phase, not world construction.
    let fault_guard = match flag(args, "--fault-plan") {
        Some(path) => {
            let plan = svqa::fault::FaultPlan::from_json(&std::fs::read_to_string(&path)?)?;
            eprintln!("fault plan armed from {path} (seed {})", plan.seed);
            Some(svqa::fault::install(plan))
        }
        None => None,
    };
    let server = svqa::QueryServer::bind(system, &format!("127.0.0.1:{port}"), serve_config)?;
    let addr = server.local_addr()?;
    println!("serving on http://{addr}");
    println!("  POST /ask, /batch, /shutdown; GET /healthz, /metrics");
    server.serve()?;
    drop(fault_guard);
    println!("drained, exiting");
    Ok(())
}

/// `chaos` — measure graceful degradation: build a world once, then sweep
/// fault rates, each time installing a seeded plan that drops the
/// knowledge-graph source with the given probability and re-scoring every
/// generated question through `answer_guarded`. Writes the
/// accuracy-vs-fault-rate curve to `--out` (default
/// `results/chaos_s<fault-seed>.json`).
///
/// The same `--fault-seed` across rates makes the fault sets *nested*: a
/// question whose KG probe fails at rate r also fails at every rate above
/// r, so the degraded-question count is exactly monotone in the rate and
/// the curve is reproducible run to run. The circuit breaker is disabled
/// for the sweep (threshold `u32::MAX`) so the curve measures the pure
/// per-question policy, not wall-clock-dependent breaker dynamics.
fn cmd_chaos(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(120), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let fault_seed: u64 = flag(args, "--fault-seed").map_or(Ok(0xc4a05), |s| s.parse())?;
    let deadline_ms: u64 = flag(args, "--deadline-ms").map_or(Ok(2000), |s| s.parse())?;
    let rates: Vec<f64> = match flag(args, "--rates") {
        Some(list) => list
            .split(',')
            .map(|r| r.trim().parse())
            .collect::<Result<_, _>>()?,
        None => vec![0.0, 0.05, 0.1, 0.2, 0.35, 0.5],
    };
    let out = PathBuf::from(
        flag(args, "--out").unwrap_or_else(|| format!("results/chaos_s{fault_seed}.json")),
    );

    let mut config = SvqaConfig::default();
    config.degrade.breaker.failure_threshold = u32::MAX;
    let (system, mvqa) = build_world(images, seed, config);
    let per_question = std::time::Duration::from_millis(deadline_ms);

    let baseline = svqa::evaluate_on_mvqa_guarded(&system, &mvqa, per_question);
    println!(
        "baseline (no plan): accuracy {:.1}% over {} questions",
        baseline.overall * 100.0,
        mvqa.questions.len()
    );

    let mut points = Vec::with_capacity(rates.len());
    for &rate in &rates {
        let plan = svqa::fault::FaultPlan::new(fault_seed).with_fault(
            svqa::fault::site::SOURCE_KG,
            svqa::fault::SiteFault::new(svqa::fault::FaultKind::DropResult, rate),
        );
        let guard = svqa::fault::install(plan);
        let outcome = svqa::evaluate_on_mvqa_guarded(&system, &mvqa, per_question);
        drop(guard);
        println!(
            "rate {rate:5.2}: accuracy {:6.1}%  full {:4}  degraded {:4}  unavailable {:4}",
            outcome.overall * 100.0,
            outcome.full,
            outcome.degraded,
            outcome.unavailable
        );
        points.push(serde_json::json!({ "rate": rate, "outcome": outcome }));
    }

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&serde_json::json!({
            "images": images,
            "seed": seed,
            "fault_seed": fault_seed,
            "fault_site": svqa::fault::site::SOURCE_KG,
            "fault_kind": "DropResult",
            "questions": mvqa.questions.len(),
            "deadline_ms": deadline_ms,
            "baseline": baseline,
            "points": points,
        }))?,
    )?;
    println!("chaos curve written to {}", out.display());
    Ok(())
}

/// `eval` — score the generated questions: over a world built in process
/// with `--images` (so `--metrics` captures the offline stages too), or
/// over a saved `--world`.
fn cmd_eval(args: &[String]) -> Result<(), AnyError> {
    let metrics = flag(args, "--metrics");
    let (system, questions) = match flag(args, "--images") {
        Some(images) => {
            let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
            let (system, mvqa) = build_world(images.parse()?, seed, SvqaConfig::default());
            (system, mvqa.questions)
        }
        None => load_world(args)?,
    };
    let outcome = svqa::evaluate(&system, &questions);
    println!("{:10} {:.1}%", "Judgment", outcome.judgment * 100.0);
    println!("{:10} {:.1}%", "Counting", outcome.counting * 100.0);
    println!("{:10} {:.1}%", "Reasoning", outcome.reasoning * 100.0);
    println!("{:10} {:.1}%", "Overall", outcome.overall * 100.0);
    println!(
        "{} questions in {:.3}s ({} parse failures)",
        questions.len(),
        outcome.total_latency.as_secs_f64(),
        outcome.parse_failures
    );
    println!(
        "per-question latency: mean {:.1}µs, p50 {:.1}µs, p95 {:.1}µs",
        outcome.mean_latency.as_secs_f64() * 1e6,
        outcome.p50_latency.as_secs_f64() * 1e6,
        outcome.p95_latency.as_secs_f64() * 1e6
    );
    write_metrics(metrics.as_deref())
}

/// `stats` — build (or rebuild) a world in process and print the offline
/// build statistics plus the telemetry snapshot accumulated doing it.
fn cmd_stats(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(200), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let (system, mvqa) = build_world(images, seed, SvqaConfig::default());
    let stats = system.build_stats();
    println!("build: {}", stats.summary_line());
    println!(
        "questions generated: {} ({} images, seed {seed})",
        mvqa.questions.len(),
        images
    );
    println!("{}", svqa::telemetry::global().snapshot().to_json_pretty());
    Ok(())
}

fn cmd_repl(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(500), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(7), |s| s.parse())?;
    let verbose = args.iter().any(|a| a == "--verbose");
    let (system, _) = build_world(images, seed, SvqaConfig::default());
    // A session-lived cache, shaped like the query server's, so repeat
    // questions show up as hits in the per-question summaries.
    let cache = svqa::executor::QueryScheduler::new(system.config().scheduler).build_cache();
    println!("ready — type a question (empty line to quit)");
    let stdin = std::io::stdin();
    loop {
        print!("svqa> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let question = line.trim();
        if question.is_empty() {
            break;
        }
        let run = system.run(system.prepare(question), Some(&cache), None);
        match &run.result {
            Ok(guarded) => println!("answer: {}", guarded.answer),
            Err(e) => println!("could not answer: {e}"),
        }
        if verbose {
            println!("  {}", run.trace.summary_line());
        } else if let Some(explanation) = run.explanation() {
            for fact in explanation.answer_support().iter().take(5) {
                println!("  {}", fact.display());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn unknown_flags_are_named_and_known_ones_pass() {
        let typo = args("ask --world w --imgaes 5 Does the dog appear in the car?");
        assert_eq!(unknown_flag(&typo), Some("--imgaes"));
        assert_eq!(
            unknown_flag(&args("serve --port 0 --cache-size 8")),
            Some("--cache-size")
        );
        let known = args("ask --world w --explain --json --verbose --trace-out t.json q");
        assert_eq!(unknown_flag(&known), None);
        for flag in VALUE_FLAGS {
            assert_eq!(
                unknown_flag(&args(&format!("serve {flag} 1"))),
                None,
                "{flag}"
            );
        }
    }
}

//! One benchmark run: set-up, then the measured phases of an untraced
//! run (end-to-end metrics) or of a traced run (per-layer metrics).

use crate::http::{self, Reply};
use crate::loadgen::{closed_loop, fell_behind, open_loop, Sample, LATE_LIMIT_SHARE};
use crate::report::Report;
use crate::rng::{derive, poisson_schedule, Planned, Sampler, SplitMix64};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::Tracer;
use crate::world::{build_world, digest, oracle, Expected, Spec};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use svqa::dataset::Mvqa;
use svqa::executor::executor::{CacheOutcome, QueryGraphExecutor};
use svqa::executor::scheduler::QueryScheduler;
use svqa::executor::{MatchMethod, ShardedCache};
use svqa::qlint::{Linter, Schema};
use svqa::{AnswerStatus, QueryServer, ServeConfig, Svqa, SvqaConfig, SvqaError};

/// Generator threads: one per core of the 2-core reference box. Each has
/// at most one connection open.
const GENERATOR_THREADS: usize = 2;

/// Client-side timeout for one request; a reply slower than this counts
/// as a failure.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(15);

/// Requests replayed in-process for the per-layer parse, lint and
/// executor metrics of a traced run.
const REPLAY_REQUESTS: usize = 2000;

/// Sequential round trips timed for `serve.ask_rtt_us` and
/// `serve.http_rtt_us`.
const SEQUENTIAL_REQUESTS: usize = 400;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Seed for every schedule and batch order.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// The inputs of a run and what is checked against them.
struct Ready {
    world: Mvqa,
    /// A system over the same world for in-process work (oracle, the
    /// eval batch, replays); each server builds its own.
    local: Svqa,
    /// Each pool question's expected outcome.
    expected: Vec<Expected>,
}

/// Set-up as `setup_s` times it: `Svqa::build` over the world, then
/// `QueryServer::bind` exactly as shipped.
fn build_server(world: &Mvqa) -> QueryServer {
    let system = Svqa::build(&world.images, &world.kg, SvqaConfig::default());
    QueryServer::bind(system, "127.0.0.1:0", ServeConfig::default())
        .expect("binding a free localhost port")
}

/// Run one workload and return its report.
pub fn run(opts: &Options) -> Report {
    let tracer = Tracer::new(opts.trace);
    let spec = &opts.spec;
    let world = build_world(spec, &tracer);
    let local = Svqa::build(&world.images, &world.kg, SvqaConfig::default());
    let expected = tracer.time("core.oracle", || oracle(&local, &world.questions));
    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} seed {} pool {} questions, {} expected 400; answer digest {:016x}",
        spec.name,
        opts.seed,
        world.questions.len(),
        expected.iter().filter(|e| e.status == 400).count(),
        digest(&world.questions, &expected)
    ));
    let ready = Ready {
        world,
        local,
        expected,
    };
    if opts.trace {
        traced(
            opts,
            &ready,
            &build_server(&ready.world),
            &tracer,
            &mut report,
        );
        if let Err(e) = write_trace(opts, &tracer) {
            report.notes.push(format!("trace not written: {e}"));
        }
    } else {
        untraced(opts, &ready, &mut report);
    }
    report
}

fn write_trace(opts: &Options, tracer: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", opts.spec.name, opts.seed));
    std::fs::write(path, tracer.to_chrome_json())
}

/// A size field of `/proc/self/status` (`VmRSS`, `VmHWM`), MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset this process's peak RSS (`VmHWM`) to its current RSS, by writing
/// `5` to `/proc/self/clear_refs`, and return that RSS in MB.
fn reset_peak_rss() -> std::io::Result<f64> {
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(status_mb("VmRSS"))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------
// Checking responses
// ---------------------------------------------------------------------

/// What one `/ask` reply amounted to.
#[derive(Debug, Clone, Copy, Default)]
struct Verdict {
    correct: bool,
    status: u16,
    /// Scope plus path hits the response body reports.
    cache_hits: u64,
}

fn ask(addr: SocketAddr, question: &str) -> Result<Reply, String> {
    let body = serde_json::to_string(&serde_json::json!({ "question": question }))
        .expect("JSON values serialize");
    http::request(addr, "POST", "/ask", &body, REQUEST_TIMEOUT).map_err(|e| e.to_string())
}

fn judge(reply: &Result<Reply, String>, expected: &Expected) -> Verdict {
    let Ok(reply) = reply else {
        return Verdict::default();
    };
    let mut verdict = Verdict {
        correct: reply.status == expected.status,
        status: reply.status,
        cache_hits: 0,
    };
    if reply.status == 200 {
        let body: serde_json::Value = serde_json::from_str(&reply.body).unwrap_or_default();
        verdict.correct &= body.get("status").and_then(|s| s.as_str())
            == Some(AnswerStatus::Full.label())
            && body.get("answer") == expected.answer.as_ref();
        let cache = body.get("cache");
        let field = |k: &str| {
            cache
                .and_then(|c| c.get(k))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        verdict.cache_hits = field("scope_hits") + field("path_hits");
    }
    verdict
}

/// `/ask` for pool item `item`, judged against the oracle.
fn ask_item(addr: SocketAddr, ready: &Ready, item: usize) -> Verdict {
    judge(
        &ask(addr, &ready.world.questions[item].question),
        &ready.expected[item],
    )
}

/// Open-loop `/ask` over `plan`; each sample carries its verdict.
fn ask_open_loop(
    addr: SocketAddr,
    ready: &Ready,
    plan: &[Planned],
    tracer: Option<&Tracer>,
) -> Vec<Sample<Verdict>> {
    open_loop(plan, GENERATOR_THREADS, |seq, item| {
        let start = Instant::now();
        let reply = ask(addr, &ready.world.questions[item].question);
        if let Some(t) = tracer {
            t.record("serve.ask", seq as u64, None, start, Instant::now());
        }
        judge(&reply, &ready.expected[item])
    })
}

/// Latencies from due time, ms; a failed request counts as missing every
/// limit (infinite latency).
fn latencies_ms(samples: &[Sample<Verdict>]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.outcome.correct {
                ms(s.latency_ns())
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn lateness_ms<T>(samples: &[Sample<T>]) -> Vec<f64> {
    samples.iter().map(|s| ms(s.late_ns())).collect()
}

fn count_wrong(samples: &[Sample<Verdict>]) -> u64 {
    samples.iter().filter(|s| !s.outcome.correct).count() as u64
}

/// Mark the run invalid if the generator's lateness shows it fell behind
/// its schedule.
fn check_generator(late_ms: &[f64], spec: &Spec, report: &mut Report) {
    if let Some(p99) = fell_behind(late_ms, spec.p99_limit_ms) {
        report.invalidate(format!(
            "the generator fell behind: lateness p99 {p99:.3} ms is over \
             {LATE_LIMIT_SHARE} of the {} ms p99 limit",
            spec.p99_limit_ms
        ));
    }
}

/// Sequential `/ask` over the whole pool: warms the server's cache and
/// checks every pool question once.
fn warm_up(addr: SocketAddr, ready: &Ready, report: &mut Report) {
    let n = ready.expected.len();
    let wrong = (0..n)
        .filter(|&item| !ask_item(addr, ready, item).correct)
        .count() as u64;
    report.tally(n as u64, wrong);
}

/// Serve `server` on a scoped thread for the duration of `body`, then
/// shut it down gracefully and join it.
fn serving<R>(server: &QueryServer, body: impl FnOnce(SocketAddr) -> R) -> R {
    let addr = server.local_addr().expect("bound server has an address");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve());
        // Shut down even if `body` panics, or the scope would never join.
        struct Shutdown(SocketAddr);
        impl Drop for Shutdown {
            fn drop(&mut self) {
                let _ = http::request(self.0, "POST", "/shutdown", "", Duration::from_secs(5));
            }
        }
        let guard = Shutdown(addr);
        let out = body(addr);
        drop(guard);
        handle
            .join()
            .expect("server thread panicked")
            .expect("server exited with an error");
        out
    })
}

fn schedule(opts: &Options, tag: u64, rate: f64, seconds: f64, n: usize) -> Vec<Planned> {
    let sampler = Sampler::new(opts.spec.mix, n);
    poisson_schedule(derive(opts.seed, tag), rate, seconds, &sampler)
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

/// Share of `--seconds` given to the fixed-rate windows; the closed-loop
/// bursts take the rest.
///
/// The closed-loop throughput, the fixed-rate latencies and the eval
/// batch times are printed but not declared: on the 2-vCPU reference box their ten-seed spread reached
/// 0.3–0.4 in some sets, as the host's cache and memory contention
/// drifted, which is over the widest bound (0.25) a regression gate may
/// use.
const FIXED_SHARE: f64 = 0.5;

/// Rounds the measuring time is cut into. Each round runs one window of
/// the fixed-rate schedule and one closed-loop burst, so each metric
/// samples the whole run rather than one stretch of it: this box's speed
/// drifts by ±15% from one second to the next. Per-round figures are
/// reduced to their median over rounds, so one stalled round does not
/// set them.
const ROUNDS: usize = 5;

/// Length of the seeded question sequence a closed-loop burst cycles
/// through.
const CLOSED_ITEMS: usize = 4096;

fn untraced(opts: &Options, ready: &Ready, report: &mut Report) {
    let spec = &opts.spec;
    let n = ready.world.questions.len();
    eval_once(opts.seed, ready, report);

    // From here on the peak RSS grows only with the served system: the
    // world and the in-process system are already resident.
    let rss_base_mb = reset_peak_rss().unwrap_or_else(|e| {
        report.notes.push(format!(
            "peak RSS not reset ({e}): rss_mb includes the world"
        ));
        0.0
    });
    let t0 = Instant::now();
    let server = build_server(&ready.world);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    serving(&server, |addr| {
        warm_up(addr, ready, report);
        let fixed_s = opts.seconds * FIXED_SHARE;
        let plan = schedule(opts, 1, spec.rate_per_s, fixed_s, n);
        let window_ns = (fixed_s * 1e9 / ROUNDS as f64) as u64;
        let burst = Duration::from_secs_f64(opts.seconds * (1.0 - FIXED_SHARE) / ROUNDS as f64);
        let sampler = Sampler::new(spec.mix, n);
        let (mut p50s, mut p99s, mut late, mut qps) = (vec![], vec![], vec![], vec![]);
        let mut smallest_round = usize::MAX;
        let (mut requests, mut closed_requests) = (0u64, 0u64);
        for round in 0..ROUNDS as u64 {
            let window: Vec<Planned> = plan
                .iter()
                .filter(|p| p.due_ns / window_ns == round)
                .map(|p| Planned {
                    due_ns: p.due_ns - round * window_ns,
                    item: p.item,
                })
                .collect();
            let samples = ask_open_loop(addr, ready, &window, None);
            report.tally(samples.len() as u64, count_wrong(&samples));
            requests += samples.len() as u64;
            smallest_round = smallest_round.min(samples.len());
            let lat = latencies_ms(&samples);
            p50s.push(percentile(&lat, 0.5).unwrap_or(f64::INFINITY));
            p99s.push(percentile(&lat, 0.99).unwrap_or(f64::INFINITY));
            late.extend(lateness_ms(&samples));

            let mut rng = SplitMix64::new(derive(opts.seed, 10 + round));
            let items: Vec<usize> = (0..CLOSED_ITEMS).map(|_| sampler.draw(&mut rng)).collect();
            let (correct, elapsed) = closed_loop(&items, GENERATOR_THREADS, burst, |item| {
                ask_item(addr, ready, item).correct
            });
            let answered = correct.iter().filter(|&&ok| ok).count() as u64;
            report.tally(correct.len() as u64, correct.len() as u64 - answered);
            closed_requests += correct.len() as u64;
            qps.push(answered as f64 / elapsed.as_secs_f64());
        }
        report.note_metric("ask_qps", median(&qps).expect("rounds ran"), "1/s");
        report.notes.push(format!(
            "closed loop: {GENERATOR_THREADS} threads back to back, {closed_requests} requests \
             in {ROUNDS} bursts of {:.1} s",
            burst.as_secs_f64()
        ));
        report.note_metric("ask_p50_ms", median(&p50s).expect("rounds ran"), "ms");
        report.note_metric("ask_p99_ms", median(&p99s).expect("rounds ran"), "ms");
        report.notes.push(format!(
            "fixed rate {} /s for {fixed_s:.1} s: {requests} requests, at least {smallest_round} \
             per round (highest supported percentile {:?}), generator late p99 {:.3} ms",
            spec.rate_per_s,
            supported_tail(smallest_round),
            percentile(&late, 0.99).unwrap_or(0.0)
        ));
        check_generator(&late, spec, report);
    });
    report.set("rss_mb", status_mb("VmHWM") - rss_base_mb);
    drop(server);

    // The other set-up repetitions come after the run, so the system each
    // one builds stays out of `rss_mb`.
    for _ in 1..spec.setup_reps {
        let t0 = Instant::now();
        let server = build_server(&ready.world);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(server);
    }
    report.set("setup_s", median(&setup_s).expect("set-up ran"));
}

/// One `Svqa::answer_batch` over the pool in a seeded order, from a
/// fresh cache, checked against the oracle. Its answers give
/// `eval_accuracy`.
fn eval_once(seed: u64, ready: &Ready, report: &mut Report) {
    let pool = &ready.world.questions;
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut rng = SplitMix64::new(derive(seed, 2));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let questions: Vec<&str> = order.iter().map(|&i| pool[i].question.as_str()).collect();
    let out = ready.local.answer_batch(&questions);
    let mut predicted = vec![None; pool.len()];
    let mut wrong = 0;
    for (answer, &i) in out.answers.iter().zip(&order) {
        if !batch_answer_matches(answer, &ready.expected[i]) {
            wrong += 1;
        }
        predicted[i] = answer.as_ref().ok().and_then(svqa::eval::to_predicted);
    }
    report.tally(pool.len() as u64, wrong);
    report.set("eval_accuracy", ready.world.score_answers(&predicted).3);
    let per_question: Vec<f64> = out
        .per_query
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    report.note_metric("eval_batch_ms", out.total.as_secs_f64() * 1e3, "ms");
    report.note_metric(
        "eval_batch_p95_ms",
        percentile(&per_question, 0.95).expect("the pool is not empty"),
        "ms",
    );
}

fn batch_answer_matches(answer: &Result<svqa::Answer, SvqaError>, expected: &Expected) -> bool {
    match answer {
        Ok(a) => {
            expected.status == 200 && expected.answer.as_ref() == Some(&serde_json::to_value(a))
        }
        Err(SvqaError::Parse(_) | SvqaError::Lint(_)) => expected.status == 400,
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

fn traced(
    opts: &Options,
    ready: &Ready,
    server: &QueryServer,
    tracer: &Tracer,
    report: &mut Report,
) {
    let spec = &opts.spec;
    let pool = &ready.world;
    let expected = &ready.expected;
    let n = pool.questions.len();
    let fixed_s = opts.seconds * FIXED_SHARE / 2.0;
    let plan = schedule(opts, 1, spec.rate_per_s, fixed_s, n);
    let replay: Vec<usize> = plan.iter().take(REPLAY_REQUESTS).map(|p| p.item).collect();

    build_layers(spec, pool, tracer, report);
    for (name, span) in [
        ("dataset.images_ms", "dataset.images"),
        ("dataset.kg_ms", "dataset.kg"),
    ] {
        report.set(
            name,
            median(&tracer.durations_ns(span)).unwrap_or(0.0) / 1e6,
        );
    }
    report.set(
        "dataset.questions_s",
        median(&tracer.durations_ns("dataset.questions")).unwrap_or(0.0) / 1e9,
    );

    parse_lint_layers(&ready.local, pool, &replay, tracer, report);
    let counts = executor_replay(&ready.local, pool, &replay, Some(tracer));
    counts.report_into(report);
    scheduler_layers(&ready.local, pool, tracer, report);

    serving(server, |addr| {
        let health: Vec<f64> = (0..SEQUENTIAL_REQUESTS)
            .map(|_| {
                let t0 = Instant::now();
                let r = http::request(addr, "GET", "/healthz", "", REQUEST_TIMEOUT);
                let t1 = Instant::now();
                tracer.record("serve.healthz", 0, None, t0, t1);
                report.tally(1, u64::from(!matches!(r, Ok(ref r) if r.status == 200)));
                (t1 - t0).as_secs_f64() * 1e6
            })
            .collect();
        report.set("serve.http_rtt_us", median(&health).expect("healthz ran"));

        warm_up(addr, ready, report);
        // `/metrics` cross-check: one sequential pass over the questions
        // the server accepts, scraped before and after, so span counts
        // divide exactly by the requests that reached a worker.
        let accepted: Vec<usize> = (0..n).filter(|&i| expected[i].status == 200).collect();
        let before = scrape(addr);
        let mut body_hits = 0u64;
        for &item in &accepted {
            let verdict = ask_item(addr, ready, item);
            report.tally(1, u64::from(!verdict.correct));
            body_hits += verdict.cache_hits;
        }
        let after = scrape(addr);
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
        };
        let per_ask = |stage: &str| {
            delta(&format!(
                "svqa_span_duration_seconds_count{{stage=\"{stage}\"}}"
            )) / accepted.len().max(1) as f64
        };
        report.set("serve.parse_per_ask", per_ask("parse"));
        report.set("serve.lint_per_ask", per_ask("lint"));
        report.set("serve.match_per_ask", per_ask("match"));
        report.set(
            "serve.metrics_cache_hits",
            delta("svqa_cache_scope_hits_total") + delta("svqa_cache_path_hits_total"),
        );
        report.set("serve.body_cache_hits", body_hits as f64);

        let sequence = &replay[..SEQUENTIAL_REQUESTS.min(replay.len())];
        let rtt: Vec<f64> = sequence
            .iter()
            .enumerate()
            .map(|(request, &item)| {
                let t0 = Instant::now();
                let verdict = ask_item(addr, ready, item);
                let t1 = Instant::now();
                tracer.record("serve.ask_sequential", request as u64, None, t0, t1);
                report.tally(1, u64::from(!verdict.correct));
                (t1 - t0).as_secs_f64() * 1e6
            })
            .collect();
        // The same passes in-process, on a cache of the server's shape
        // (so both caches hold the same entries): what remains of the
        // round trip is the serving path's own cost.
        let cache = server_shaped_cache(&ready.local);
        let guarded = |item: usize| {
            let q = &pool.questions[item].question;
            std::hint::black_box(ready.local.answer_guarded(q, Some(&cache), None)).ok();
        };
        (0..n).for_each(guarded);
        accepted.iter().copied().for_each(guarded);
        let inproc: Vec<f64> = sequence
            .iter()
            .enumerate()
            .map(|(request, &item)| {
                let t0 = Instant::now();
                guarded(item);
                let t1 = Instant::now();
                tracer.record("core.answer_guarded", request as u64, None, t0, t1);
                (t1 - t0).as_secs_f64() * 1e6
            })
            .collect();
        let rtt_p50 = median(&rtt).expect("sequence ran");
        report.set("serve.ask_rtt_us", rtt_p50);
        report.set(
            "serve.self_us",
            rtt_p50 - median(&inproc).expect("sequence ran"),
        );

        // Fixed-rate load twice on the same schedule, untraced then
        // traced: the difference is the tracing overhead.
        let plain = ask_open_loop(addr, ready, &plan, None);
        report.tally(plain.len() as u64, count_wrong(&plain));
        let samples = ask_open_loop(addr, ready, &plan, Some(tracer));
        report.tally(samples.len() as u64, count_wrong(&samples));

        let plain_p50 = percentile(&latencies_ms(&plain), 0.5).unwrap_or(f64::INFINITY);
        let traced_p50 = percentile(&latencies_ms(&samples), 0.5).unwrap_or(f64::INFINITY);
        report.set("trace.ask_p50_ms", traced_p50);
        report.set("trace.overhead_p50_ms", traced_p50 - plain_p50);
        report.set("serve.wait_ms_p50", traced_p50 - rtt_p50 / 1e3);
        let late = lateness_ms(&samples);
        report.set(
            "loadgen.late_p99_ms",
            percentile(&late, 0.99).unwrap_or(0.0),
        );
        check_generator(&late, spec, report);
        let status =
            |f: &dyn Fn(u16) -> bool| samples.iter().filter(|s| f(s.outcome.status)).count() as f64;
        report.set("serve.status_429", status(&|s| s == 429));
        report.set("serve.status_504", status(&|s| s == 504));
        report.set("serve.status_5xx", status(&|s| s >= 500 && s != 504));
    });
}

/// A fresh cache shaped like the one `QueryServer` builds.
fn server_shaped_cache(system: &Svqa) -> ShardedCache {
    QueryScheduler::new(system.config().scheduler).build_cache()
}

/// `GET /metrics` parsed into `series → value` (comments skipped).
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let reply =
        http::request(addr, "GET", "/metrics", "", REQUEST_TIMEOUT).expect("scraping /metrics");
    reply
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// The offline build's layers, timed separately through their public
/// APIs in the order `Svqa::build` runs them: scene-graph generation
/// (prior fit included), Algorithm 1's merge, and schema extraction.
fn build_layers(spec: &Spec, world: &Mvqa, tracer: &Tracer, report: &mut Report) {
    use svqa::aggregator::DataAggregator;
    use svqa::vision::prior::PairPrior;
    use svqa::vision::sgg::SceneGraphGenerator;
    let config = SvqaConfig::default();
    for _ in 0..spec.setup_reps.max(1) {
        let graphs = tracer.time("vision.sgg", || {
            let sgg = SceneGraphGenerator::new(config.sgg.clone(), PairPrior::fit(&world.images));
            world
                .images
                .iter()
                .map(|i| sgg.generate(i).graph)
                .collect::<Vec<_>>()
        });
        let merged = tracer.time("aggregator.merge", || {
            DataAggregator::new(config.aggregator.clone()).merge(&graphs, &world.kg)
        });
        let schema = tracer.time("qlint.schema", || Schema::extract(&merged.graph));
        std::hint::black_box(schema);
    }
    for (name, span) in [
        ("vision.sgg_ms", "vision.sgg"),
        ("aggregator.merge_ms", "aggregator.merge"),
        ("qlint.schema_ms", "qlint.schema"),
    ] {
        report.set(
            name,
            median(&tracer.durations_ns(span)).unwrap_or(0.0) / 1e6,
        );
    }
}

/// Parse and lint each replayed request, as the server does (twice per
/// request today; timed once here).
fn parse_lint_layers(
    system: &Svqa,
    world: &Mvqa,
    replay: &[usize],
    tracer: &Tracer,
    report: &mut Report,
) {
    for (request, &item) in replay.iter().enumerate() {
        let q = &world.questions[item].question;
        let t0 = Instant::now();
        let parsed = system.parse(q);
        let t1 = Instant::now();
        tracer.record("qparser.parse", request as u64, None, t0, t1);
        if let Ok(gq) = parsed {
            let t2 = Instant::now();
            std::hint::black_box(system.lint_graph(&gq));
            tracer.record("qlint.lint", request as u64, None, t2, Instant::now());
        }
    }
    for (name, span, q) in [
        ("qparser.parse_us_p50", "qparser.parse", 0.5),
        ("qparser.parse_us_p99", "qparser.parse", 0.99),
        ("qlint.lint_us_p50", "qlint.lint", 0.5),
        ("qlint.lint_us_p99", "qlint.lint", 0.99),
    ] {
        report.set(
            name,
            percentile(&tracer.durations_ns(span), q).unwrap_or(0.0) / 1e3,
        );
    }
}

/// The scheduler's two steps over the parsed, lint-clean pool: the
/// frequency ordering alone, and a whole batch on a fresh cache.
fn scheduler_layers(system: &Svqa, world: &Mvqa, tracer: &Tracer, report: &mut Report) {
    let graphs: Vec<_> = world
        .questions
        .iter()
        .filter_map(|q| system.parse(&q.question).ok())
        .filter(|g| !system.lint_graph(g).has_errors())
        .collect();
    let linter = Linter::new(system.schema().clone());
    let hints: Vec<f64> = graphs.iter().map(|g| linter.cost(g).total).collect();
    for _ in 0..200 {
        tracer.time("scheduler.order", || {
            std::hint::black_box(QueryScheduler::order_with_scores_hinted(
                &graphs,
                Some(&hints),
            ))
        });
    }
    let scheduler = QueryScheduler::new(system.config().scheduler);
    for _ in 0..5 {
        let cache = scheduler.build_cache();
        tracer.time("scheduler.batch_match", || {
            std::hint::black_box(scheduler.run_with_cache_hinted(
                system.merged_graph(),
                &graphs,
                &cache,
                Some(&hints),
            ))
        });
    }
    report.set(
        "scheduler.order_us",
        median(&tracer.durations_ns("scheduler.order")).unwrap_or(0.0) / 1e3,
    );
    report.set(
        "scheduler.batch_match_ms",
        median(&tracer.durations_ns("scheduler.batch_match")).unwrap_or(0.0) / 1e6,
    );
}

/// Work counts of an executor replay. For a given world and request
/// sequence they repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Queries executed (lint-clean requests).
    pub queries: u64,
    /// Quadruples executed.
    pub quads: u64,
    /// Merged-graph edges examined while collecting relation pairs.
    pub edges_scanned: u64,
    /// Subject candidates after expansion, summed over quads.
    pub sub_candidates: u64,
    /// Object candidates after expansion.
    pub obj_candidates: u64,
    /// Relation pairs before the predicate filter.
    pub rp_pairs: u64,
    /// Relation pairs accepted (`AP`).
    pub ap_pairs: u64,
    /// Slots matched by an exact rung (full phrase or head noun).
    pub rung_exact: u64,
    /// Slots matched by a Levenshtein rung.
    pub rung_lev: u64,
    /// Slots matched by the embedding rung.
    pub rung_embed: u64,
    /// Scope-cache hits.
    pub scope_hits: u64,
    /// Scope-cache misses.
    pub scope_misses: u64,
    /// Path-cache hits.
    pub path_hits: u64,
    /// Path-cache misses.
    pub path_misses: u64,
    /// Quads whose path lookup a binding made non-reusable.
    pub path_bypassed: u64,
    /// Items resident in the cache at the end.
    pub entries: u64,
    /// Bytes of cached values at the end.
    pub value_bytes: u64,
}

/// An executor replay: exact work counts plus the timings beside them.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Counts that repeat exactly for a given world and sequence.
    pub counts: ReplayCounts,
    /// Per-query match time, ns.
    pub(crate) match_ns: Vec<f64>,
    /// Per-quadruple time, ns.
    pub(crate) quad_ns: Vec<f64>,
}

impl Replay {
    fn report_into(&self, report: &mut Report) {
        let c = &self.counts;
        let pct = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0) / 1e3;
        report.set("executor.match_us_p50", pct(&self.match_ns, 0.5));
        report.set("executor.match_us_p99", pct(&self.match_ns, 0.99));
        report.set("executor.quad_us_p50", pct(&self.quad_ns, 0.5));
        report.set("executor.quad_us_p99", pct(&self.quad_ns, 0.99));
        report.set("executor.edges_scanned", c.edges_scanned as f64);
        let quad_total: f64 = self.quad_ns.iter().sum();
        report.set(
            "executor.ns_per_edge",
            quad_total / (c.edges_scanned.max(1)) as f64,
        );
        report.set("executor.sub_candidates", c.sub_candidates as f64);
        report.set("executor.obj_candidates", c.obj_candidates as f64);
        report.set("executor.rp_pairs", c.rp_pairs as f64);
        report.set("executor.ap_pairs", c.ap_pairs as f64);
        report.set(
            "executor.ap_per_rp",
            c.ap_pairs as f64 / c.rp_pairs.max(1) as f64,
        );
        report.set("executor.rung_exact", c.rung_exact as f64);
        report.set("executor.rung_lev", c.rung_lev as f64);
        report.set("executor.rung_embed", c.rung_embed as f64);
        let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
        report.set("cache.scope_hit_ratio", ratio(c.scope_hits, c.scope_misses));
        report.set("cache.path_hit_ratio", ratio(c.path_hits, c.path_misses));
        report.set("cache.path_bypassed", c.path_bypassed as f64);
        report.set("cache.entries", c.entries as f64);
        report.set("cache.value_bytes", c.value_bytes as f64);
    }
}

/// Replay `items` in order through parse, lint and `execute_profiled`
/// on one fresh cache of the server's shape, counting the work each
/// quadruple did.
pub fn executor_replay(
    system: &Svqa,
    world: &Mvqa,
    items: &[usize],
    tracer: Option<&Tracer>,
) -> Replay {
    let cache = server_shaped_cache(system);
    let executor = QueryGraphExecutor::with_config(system.merged_graph(), system.config().executor);
    let mut replay = Replay::default();
    let c = &mut replay.counts;
    for (request, &item) in items.iter().enumerate() {
        let Ok(gq) = system.parse(&world.questions[item].question) else {
            continue;
        };
        if system.lint_graph(&gq).has_errors() {
            continue;
        }
        let t0 = Instant::now();
        let Ok(run) = executor.execute_profiled(&gq, Some(&cache)) else {
            continue;
        };
        let t1 = Instant::now();
        let parent =
            tracer.map(|t| t.record("executor.execute_profiled", request as u64, None, t0, t1));
        let profile = &run.profile;
        c.queries += 1;
        replay.match_ns.push(profile.total_ns as f64);
        c.scope_hits += profile.cache.scope_hits;
        c.scope_misses += profile.cache.scope_misses;
        c.path_hits += profile.cache.path_hits;
        c.path_misses += profile.cache.path_misses;
        for quad in &profile.quads {
            let t = &quad.trace;
            c.quads += 1;
            replay.quad_ns.push(t.elapsed_ns as f64);
            if let Some(tr) = tracer {
                let start = t0 + Duration::from_nanos(t.start_ns);
                tr.record(
                    "executor.quad",
                    request as u64,
                    parent,
                    start,
                    start + Duration::from_nanos(t.elapsed_ns),
                );
            }
            c.edges_scanned += t.edges_scanned as u64;
            c.sub_candidates += t.sub_count as u64;
            c.obj_candidates += t.obj_count as u64;
            c.rp_pairs += t.rp_count as u64;
            c.ap_pairs += t.ap_count as u64;
            if t.path_cache == CacheOutcome::Bypassed {
                c.path_bypassed += 1;
            }
            for slot in [&t.sub, &t.obj] {
                match slot.method {
                    Some(MatchMethod::Exact | MatchMethod::HeadExact) => c.rung_exact += 1,
                    Some(MatchMethod::Levenshtein | MatchMethod::HeadLevenshtein) => {
                        c.rung_lev += 1
                    }
                    Some(MatchMethod::Embedding) => c.rung_embed += 1,
                    Some(MatchMethod::NoMatch) | None => {}
                }
            }
        }
    }
    c.entries = cache.len() as u64;
    c.value_bytes = cache.value_bytes() as u64;
    replay
}

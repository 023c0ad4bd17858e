//! Experiment runners — one per paper table/figure.

use crate::report::{pct, Table};
use serde::Serialize;
use std::time::Instant;
use svqa::aggregator::{AggregatorConfig, MergeStats};
use svqa::baselines::splitters::{SentenceSplitter, SplitterModel};
use svqa::baselines::vqa_models::{BaselineVqa, VqaModel};
use svqa::dataset::groundtruth::GroundTruth;
use svqa::dataset::mvqa::{Mvqa, MvqaConfig};
use svqa::dataset::questions::QuestionCounts;
use svqa::dataset::vqav2::{generate_vqav2, VqaV2, VqaV2Config};
use svqa::executor::cache::{CacheGranularity, CacheStats, EvictionPolicy, KeyCentricCache};
use svqa::executor::scheduler::SchedulerConfig;
use svqa::qparser::QueryGraphGenerator;
use svqa::vision::eval::RecallAccumulator;
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::{SceneGraphGenerator, SggConfig, SggModel};
use svqa::{evaluate_on_mvqa, BatchOutcome, EvalOutcome, Svqa, SvqaConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-size dataset (4,233 images) — minutes.
    Full,
    /// Reduced dataset (1,000 images) — seconds; same shapes.
    Quick,
}

impl Scale {
    /// Image count at this scale.
    pub fn image_count(self) -> usize {
        match self {
            Scale::Full => 4233,
            Scale::Quick => 1000,
        }
    }
}

/// Build the MVQA dataset at a scale.
pub fn build_mvqa(scale: Scale) -> Mvqa {
    Mvqa::generate(MvqaConfig {
        image_count: scale.image_count(),
        seed: 0x4d56_5141,
        counts: QuestionCounts::default(),
    })
}

/// Build the modified VQAv2 at a scale.
pub fn build_vqav2(scale: Scale) -> VqaV2 {
    generate_vqav2(VqaV2Config {
        image_count: scale.image_count().min(1200),
        per_type: 20,
        seed: 0x5651_4132,
    })
}

// ---------------------------------------------------------------- Table I/II

/// Tables I and II: dataset statistics.
pub fn table_1_and_2(mvqa: &Mvqa) -> (Table, Table) {
    let stats = mvqa.stats();
    let mut t1 = Table::new(
        "Table I — VQA dataset comparison (literature rows are the paper's constants)",
        &["Dataset", "Images", "Knowledge?", "Cross-image?", "Avg. query length"],
    );
    for (name, images, kb, cross, len) in [
        ("DAQUR", "1,449", "no", "no", "11.5"),
        ("Visual 7W", "47,300", "no", "no", "6.9"),
        ("VQA(2.0)", "200K", "no", "no", "6.1"),
        ("KB-VQA", "700", "given", "no", "6.8"),
        ("FVQA", "2,190", "given", "no", "9.5"),
        ("OK-VQA", "14,031", "open", "no", "8.1"),
    ] {
        t1.row(&[
            name.into(),
            images.into(),
            kb.into(),
            cross.into(),
            len.into(),
        ]);
    }
    t1.row(&[
        "MVQA (ours, generated)".into(),
        format!("{}", stats.image_count),
        "yes".into(),
        "yes".into(),
        format!("{:.1} (paper: 16.9)", stats.avg_query_length),
    ]);

    let mut t2 = Table::new(
        "Table II — MVQA composition (paper: 40/16/44 questions, 94/35/90 clauses, 58/28/70 SPOs, 1593/2182/1201 avg images)",
        &["Type", "Questions", "Clauses", "Unique SPOs", "Avg. images"],
    );
    for (name, row) in [
        ("Judgement", &stats.judgment),
        ("Counting", &stats.counting),
        ("Reasoning", &stats.reasoning),
    ] {
        t2.row(&[
            name.into(),
            row.questions.to_string(),
            row.clauses.to_string(),
            row.unique_spos.to_string(),
            format!("{:.0}", row.avg_images),
        ]);
    }
    t2.row(&[
        "Total".into(),
        stats.question_count.to_string(),
        stats.total_clauses.to_string(),
        stats.unique_spos_total.to_string(),
        String::new(),
    ]);
    (t1, t2)
}

// ------------------------------------------------------------------- Exp-1

/// Exp-1 report data.
#[derive(Debug, Clone, Serialize)]
pub struct Exp1Report {
    /// Measured outcome.
    pub outcome: EvalOutcome,
    /// Offline build time (not part of the paper's query latency).
    pub build_secs: f64,
}

/// Exp-1 (Table III): SVQA on MVQA.
pub fn run_exp1(mvqa: &Mvqa) -> (Exp1Report, Table) {
    let t0 = Instant::now();
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let build_secs = t0.elapsed().as_secs_f64();
    let outcome = evaluate_on_mvqa(&system, mvqa);
    let mut t = Table::new(
        "Table III — Exp-1: answering complex queries on MVQA",
        &["Method", "Latency (100 q)", "Judgment", "Counting", "Reasoning", "Overall"],
    );
    t.row(&[
        "SVQA (ours)".into(),
        format!("{:.3}s", outcome.total_latency.as_secs_f64()),
        pct(outcome.judgment),
        pct(outcome.counting),
        pct(outcome.reasoning),
        pct(outcome.overall),
    ]);
    t.row(&[
        "SVQA (paper)".into(),
        "10.38s".into(),
        "90.0%".into(),
        "80.0%".into(),
        "87.5%".into(),
        "85.8%".into(),
    ]);
    (
        Exp1Report {
            outcome,
            build_secs,
        },
        t,
    )
}

// ------------------------------------------------------------------- Exp-2

/// One Exp-2 row.
#[derive(Debug, Clone, Serialize)]
pub struct Exp2Row {
    /// System name.
    pub method: String,
    /// Latency in seconds (simulated for the baselines, wall for SVQA).
    pub latency_secs: f64,
    /// Judgment accuracy.
    pub judgment: f64,
    /// Counting accuracy.
    pub counting: f64,
    /// Reasoning accuracy.
    pub reasoning: f64,
}

/// Exp-2 (Table IV): SVQA vs VisualBert/ViLT/OFA on modified VQAv2.
pub fn run_exp2(vqav2: &VqaV2) -> (Vec<Exp2Row>, Table) {
    let as_mvqa = Mvqa {
        images: vqav2.images.clone(),
        kg: vqav2.kg.clone(),
        questions: vqav2.questions.clone(),
        specs: vqav2.specs.clone(),
        config: MvqaConfig::default(),
    };
    let gt = GroundTruth::new(&vqav2.images, &vqav2.kg);
    let mut rows = Vec::new();
    for model in VqaModel::ALL {
        let baseline = BaselineVqa::new(model, 0xb5e);
        let (answers, clock) = baseline.answer_dataset(&gt, &vqav2.specs, vqav2.images.len());
        let (j, c, r, _) = as_mvqa.score_answers(&answers);
        rows.push(Exp2Row {
            method: model.name().to_owned(),
            latency_secs: clock.elapsed().as_secs_f64(),
            judgment: j,
            counting: c,
            reasoning: r,
        });
    }
    // SVQA itself.
    let system = Svqa::build(&vqav2.images, &vqav2.kg, SvqaConfig::default());
    let outcome = evaluate_on_mvqa(&system, &as_mvqa);
    rows.push(Exp2Row {
        method: "SVQA".to_owned(),
        latency_secs: outcome.total_latency.as_secs_f64(),
        judgment: outcome.judgment,
        counting: outcome.counting,
        reasoning: outcome.reasoning,
    });

    let mut t = Table::new(
        "Table IV — Exp-2: modified VQAv2 (baseline latencies are simulated-clock; paper row order: VisualBert 3375.56s/72.0/60.0/68.5, Vilt 4216.34s/76.5/77.4/67.0, OFA 866.36s/95.5/87.0/79.0, SVQA 10.38s/93.0/83.8/83.2)",
        &["Method", "Latency", "Judgment", "Counting", "Reasoning"],
    );
    for row in &rows {
        t.row(&[
            row.method.clone(),
            format!("{:.2}s", row.latency_secs),
            pct(row.judgment),
            pct(row.counting),
            pct(row.reasoning),
        ]);
    }
    (rows, t)
}

// ------------------------------------------------------------------- Exp-3

/// One Exp-3 row.
#[derive(Debug, Clone, Serialize)]
pub struct Exp3Row {
    /// SGG framework.
    pub model: String,
    /// "Original" or "TDE".
    pub method: String,
    /// mR@20.
    pub mr20: f64,
    /// mR@50.
    pub mr50: f64,
    /// mR@100.
    pub mr100: f64,
    /// End-to-end SVQA accuracy with this SGG configuration.
    pub svqa_accuracy: f64,
}

/// Exp-3 (Table V): SGG framework × {Original, TDE} → mR@K + SVQA accuracy.
pub fn run_exp3(mvqa: &Mvqa) -> (Vec<Exp3Row>, Table) {
    let prior = PairPrior::fit(&mvqa.images);
    // mR@K is benchmarked on a crowded (Visual-Genome-density) split —
    // ordinary MVQA scenes are too sparse for Recall@K to discriminate.
    let crowded = svqa::dataset::generate_crowded_images(200, 0x5661);
    let sample: Vec<_> = crowded.iter().collect();
    let mut rows = Vec::new();
    for model in SggModel::ALL {
        for use_tde in [false, true] {
            let sgg_config = SggConfig {
                model,
                use_tde,
                ..SggConfig::default()
            };
            let sgg = SceneGraphGenerator::new(sgg_config.clone(), prior.clone());
            let mut acc20 = RecallAccumulator::exact();
            let mut acc50 = RecallAccumulator::exact();
            let mut acc100 = RecallAccumulator::exact();
            for img in &sample {
                let out = sgg.generate(img);
                let predictions = out.predictions();
                acc20.add_image(img, &out.detections, &predictions, 20);
                acc50.add_image(img, &out.detections, &predictions, 50);
                acc100.add_image(img, &out.detections, &predictions, 100);
            }
            // End-to-end accuracy with this SGG config.
            let config = SvqaConfig {
                sgg: sgg_config,
                ..SvqaConfig::default()
            };
            let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
            let outcome = evaluate_on_mvqa(&system, mvqa);
            rows.push(Exp3Row {
                model: model.name().to_owned(),
                method: if use_tde { "TDE" } else { "Original" }.to_owned(),
                mr20: acc20.mean_recall(),
                mr50: acc50.mean_recall(),
                mr100: acc100.mean_recall(),
                svqa_accuracy: outcome.overall,
            });
        }
    }
    let mut t = Table::new(
        "Table V — Exp-3: SGG relation prediction (paper: VTransE 3.7/5.1/6.1→72.2, +TDE 5.8/8.1/9.9→84.1; VCTree 4.2/5.8/6.9→74.1, +TDE 6.3/8.6/10.5→86.3; Neural-Motifs 4.2/5.3/6.9→75.4, +TDE 6.9/9.5/11.3→87.2)",
        &["Model", "Method", "mR@20", "mR@50", "mR@100", "SVQA accuracy"],
    );
    for row in &rows {
        t.row(&[
            row.model.clone(),
            row.method.clone(),
            pct(row.mr20),
            pct(row.mr50),
            pct(row.mr100),
            pct(row.svqa_accuracy),
        ]);
    }
    (rows, t)
}

// ------------------------------------------------------------------- Exp-4

/// Exp-4 report: parse latency series.
#[derive(Debug, Clone, Serialize)]
pub struct Exp4Report {
    /// Question counts on the x-axis.
    pub n_questions: Vec<usize>,
    /// `(method, seconds per x)` series for Fig. 9a.
    pub series: Vec<(String, Vec<f64>)>,
    /// Fig. 9b: (label, mean seconds) for A=all, B/C/D = 1/2/3-clause.
    pub by_clause: Vec<(String, f64)>,
}

/// Exp-4 (Fig. 9a/9b): query-parse latency vs the split baselines.
pub fn run_exp4(mvqa: &Mvqa) -> (Exp4Report, Table, Table) {
    let questions: Vec<&str> = mvqa
        .questions
        .iter()
        .map(|q| q.question.as_str())
        .collect();
    let ns: Vec<usize> = vec![1, 5, 10, 15, 20, 25, 30];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();

    // Ours: generator construction (the "model load") + parsing N questions,
    // wall clock.
    let mut ours = Vec::new();
    for &n in &ns {
        let t0 = Instant::now();
        let generator = QueryGraphGenerator::new();
        for q in questions.iter().cycle().take(n) {
            let _ = generator.generate(q);
        }
        ours.push(t0.elapsed().as_secs_f64());
    }
    series.push(("SVQA (ours, wall)".to_owned(), ours));

    // Baselines: simulated clock (load + per-question).
    for model in SplitterModel::ALL {
        let splitter = SentenceSplitter::new(model);
        let mut ys = Vec::new();
        for &n in &ns {
            let batch: Vec<&str> = questions.iter().copied().cycle().take(n).collect();
            let (_, clock) = splitter.split_batch(&batch);
            ys.push(clock.elapsed().as_secs_f64());
        }
        series.push((format!("{} (sim)", model.name()), ys));
    }

    let mut t9a = Table::new(
        "Fig. 9a — Exp-4: split latency vs number of questions (baselines on the simulated clock)",
        &["N", "SVQA (ours)", "ABCD-MLP", "ABCD-bilinear", "DisSim"],
    );
    for (i, &n) in ns.iter().enumerate() {
        t9a.row(&[
            n.to_string(),
            format!("{:.4}s", series[0].1[i]),
            format!("{:.2}s", series[1].1[i]),
            format!("{:.2}s", series[2].1[i]),
            format!("{:.2}s", series[3].1[i]),
        ]);
    }

    // Fig. 9b: latency by clause count.
    let generator = QueryGraphGenerator::new();
    let mut by_clause: Vec<(String, f64)> = Vec::new();
    type ClauseFilter = Box<dyn Fn(usize) -> bool>;
    let mut groups: Vec<(&str, ClauseFilter)> = vec![
        ("A (all)", Box::new(|_| true)),
        ("B (1 clause)", Box::new(|c| c == 1)),
        ("C (2 clauses)", Box::new(|c| c == 2)),
        ("D (3 clauses)", Box::new(|c| c >= 3)),
    ];
    for (label, filter) in groups.drain(..) {
        let subset: Vec<&str> = mvqa
            .questions
            .iter()
            .filter(|q| filter(q.clauses))
            .map(|q| q.question.as_str())
            .collect();
        if subset.is_empty() {
            by_clause.push((label.to_owned(), 0.0));
            continue;
        }
        // Repeat for a stable measurement.
        let reps = 20usize;
        let t0 = Instant::now();
        for _ in 0..reps {
            for q in &subset {
                let _ = generator.generate(q);
            }
        }
        let mean = t0.elapsed().as_secs_f64() / (reps * subset.len()) as f64;
        by_clause.push((label.to_owned(), mean));
    }
    let mut t9b = Table::new(
        "Fig. 9b — Exp-4: query-graph generation latency by question complexity (paper average: 0.63s with CoreNLP models; ours has no model inference)",
        &["Group", "Mean latency / question"],
    );
    for (label, secs) in &by_clause {
        t9b.row(&[label.clone(), format!("{:.1}µs", secs * 1e6)]);
    }

    (
        Exp4Report {
            n_questions: ns,
            series,
            by_clause,
        },
        t9a,
        t9b,
    )
}

// ------------------------------------------------------------------- Exp-5

/// One Exp-5 batch: its cache configuration, the fastest of its
/// repetitions' wall time, and that batch's own cache traffic — a
/// deterministic counter that shows what the cache did without timing
/// noise.
#[derive(Debug, Clone, Serialize)]
pub struct BatchRow {
    /// Questions in the batch.
    pub n: usize,
    /// Which item kinds were cached.
    pub granularity: CacheGranularity,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Cache pool size in items.
    pub pool: usize,
    /// Whether the batch ran in §V-B frequency-ratio order (off = FIFO).
    pub frequency_sort: bool,
    /// Wall time of the fastest repetition, in seconds.
    pub secs: f64,
    /// Scope and path hits and misses of that batch.
    pub cache: CacheStats,
}

/// One Algorithm 1 threshold setting and what the build did with it.
#[derive(Debug, Clone, Serialize)]
pub struct AggregatorRow {
    /// Frequency threshold `c′`.
    pub frequency_threshold: usize,
    /// Neighbourhood radius `k`.
    pub k: usize,
    /// Wall time of the whole `Svqa::build`, in seconds.
    pub build_secs: f64,
    /// Wall time of the merge phase alone, in seconds.
    pub merge_secs: f64,
    /// The merge's accounting: cached subgraphs, attach hits and misses,
    /// links created.
    pub merge: MergeStats,
}

/// Exp-5 report.
#[derive(Debug, Clone, Serialize)]
pub struct Exp5Report {
    /// Fig. 10a: per N, the no-cache batch then the cached one.
    pub cache_onoff: Vec<BatchRow>,
    /// Fig. 10b: each granularity at N = all questions, pool 100.
    pub granularity: Vec<BatchRow>,
    /// Fig. 11: policy × pool size × N.
    pub pool_sweep: Vec<BatchRow>,
    /// §V-B ablation: frequency-sorted vs FIFO, all questions, pools 100
    /// and 10.
    pub schedule: Vec<BatchRow>,
    /// Algorithm 1 ablation: `c′`/`k` settings.
    pub aggregator: Vec<AggregatorRow>,
}

/// Run `questions` through [`Svqa::run_batch`] `reps` times, each on a
/// fresh cache of the given shape, and keep the fastest batch.
pub fn best_batch(
    system: &Svqa,
    questions: &[&str],
    granularity: CacheGranularity,
    policy: EvictionPolicy,
    pool: usize,
    reps: usize,
) -> BatchOutcome {
    (0..reps.max(1))
        .map(|_| {
            let cache = KeyCentricCache::new(granularity, policy, pool);
            system.run_batch(questions, &cache, None)
        })
        .min_by_key(|outcome| outcome.total)
        .expect("at least one repetition")
}

fn batch_row(
    system: &Svqa,
    questions: &[&str],
    granularity: CacheGranularity,
    policy: EvictionPolicy,
    pool: usize,
) -> BatchRow {
    let outcome = best_batch(system, questions, granularity, policy, pool, 3);
    BatchRow {
        n: questions.len(),
        granularity,
        policy,
        pool,
        frequency_sort: system.config().scheduler.frequency_sort,
        secs: outcome.total.as_secs_f64(),
        cache: outcome.cache_stats,
    }
}

fn ms(row: &BatchRow) -> String {
    format!("{:.2}ms", row.secs * 1e3)
}

fn hits(row: &BatchRow) -> String {
    let c = &row.cache;
    format!("{}/{}", c.scope_hits + c.path_hits, c.total_lookups())
}

fn scope_path(row: &BatchRow) -> [String; 2] {
    let c = &row.cache;
    [
        format!("{}/{}", c.scope_hits, c.scope_misses),
        format!("{}/{}", c.path_hits, c.path_misses),
    ]
}

/// Exp-5 (Figs. 10a, 10b, 11) on the request path, plus the §V-B ordering
/// and Algorithm 1 threshold ablations. Tables in print order: Figs. 10a,
/// 10b and 11, then the two ablations.
pub fn run_exp5(mvqa: &Mvqa, system: &Svqa) -> (Exp5Report, Vec<Table>) {
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    let first = |n: usize| -> Vec<&str> { questions.iter().copied().cycle().take(n).collect() };
    let lfu = EvictionPolicy::Lfu;

    // Fig. 10a: cache on/off over N.
    let mut cache_onoff = Vec::new();
    for n in [20usize, 40, 60, 80, 100] {
        let subset = first(n);
        cache_onoff.push(batch_row(system, &subset, CacheGranularity::None, lfu, 0));
        cache_onoff.push(batch_row(system, &subset, CacheGranularity::Both, lfu, 100));
    }
    let mut t10a = Table::new(
        "Fig. 10a — Exp-5: latency with vs without the key-centric cache (paper: −48.89% on average)",
        &["N", "No cache", "Cache", "Reduction", "Scope hits/misses", "Path hits/misses"],
    );
    for pair in cache_onoff.chunks(2) {
        let (off, on) = (&pair[0], &pair[1]);
        let [scope, path] = scope_path(on);
        t10a.row(&[
            on.n.to_string(),
            ms(off),
            ms(on),
            pct(1.0 - on.secs / off.secs.max(1e-12)),
            scope,
            path,
        ]);
    }

    // Fig. 10b: granularity at full batch, pool 100.
    let granularity: Vec<BatchRow> = [
        CacheGranularity::None,
        CacheGranularity::Scope,
        CacheGranularity::Path,
        CacheGranularity::Both,
    ]
    .into_iter()
    .map(|g| batch_row(system, &questions, g, lfu, 100))
    .collect();
    let mut t10b = Table::new(
        "Fig. 10b — Exp-5: cache granularity, 100 questions, pool 100 (paper reductions: Scope −13.46%, Path −27.61%, Both −38.72%)",
        &["Granularity", "Latency", "Reduction vs No", "Scope hits/misses", "Path hits/misses"],
    );
    let no_cache = granularity[0].secs;
    for (label, row) in ["No", "Scope", "Path", "Both"].iter().zip(&granularity) {
        let [scope, path] = scope_path(row);
        t10b.row(&[
            (*label).to_owned(),
            ms(row),
            pct(1.0 - row.secs / no_cache.max(1e-12)),
            scope,
            path,
        ]);
    }

    // Fig. 11: pool-size sweep × policy × N.
    let pools = [10usize, 25, 50, 75, 100];
    let ns = [20usize, 60, 100];
    let mut pool_sweep = Vec::new();
    for policy in [EvictionPolicy::Lfu, EvictionPolicy::Lru] {
        for pool in pools {
            for n in ns {
                pool_sweep.push(batch_row(
                    system,
                    &first(n),
                    CacheGranularity::Both,
                    policy,
                    pool,
                ));
            }
        }
    }
    let mut t11 = Table::new(
        "Fig. 11 — Exp-5: cache pool size vs latency, cells are latency · hits/lookups (paper: plateau past pool ≈ 50 at N = 20; LFU slightly ahead of LRU)",
        &["Policy", "Pool", "N=20", "N=60", "N=100"],
    );
    for row in pool_sweep.chunks(ns.len()) {
        let mut cells = vec![
            format!("{:?}", row[0].policy).to_uppercase(),
            row[0].pool.to_string(),
        ];
        cells.extend(row.iter().map(|r| format!("{} · {}", ms(r), hits(r))));
        t11.row(&cells);
    }

    // §V-B ablation: the same batch and cache, frequency-sorted vs FIFO.
    let fifo = Svqa::build(
        &mvqa.images,
        &mvqa.kg,
        SvqaConfig {
            scheduler: SchedulerConfig {
                frequency_sort: false,
                ..system.config().scheduler
            },
            ..system.config().clone()
        },
    );
    let mut schedule = Vec::new();
    for pool in [100usize, 10] {
        for s in [system, &fifo] {
            schedule.push(batch_row(s, &questions, CacheGranularity::Both, lfu, pool));
        }
    }
    let mut tsched = Table::new(
        "Ablation — §V-B execution order, all questions, LFU (counters are deterministic)",
        &[
            "Order",
            "Pool",
            "Latency",
            "Scope hits/misses",
            "Path hits/misses",
        ],
    );
    for row in &schedule {
        let [scope, path] = scope_path(row);
        let order = if row.frequency_sort {
            "Frequency-sorted"
        } else {
            "FIFO"
        };
        tsched.row(&[order.to_owned(), row.pool.to_string(), ms(row), scope, path]);
    }

    // Algorithm 1 ablation: the paper's (c′, k) = (5, 2), no subgraph
    // cache, and a deeper radius.
    let aggregator: Vec<AggregatorRow> = [(5usize, 2usize), (usize::MAX / 2, 2), (5, 4)]
        .into_iter()
        .map(|(frequency_threshold, k)| {
            let config = SvqaConfig {
                aggregator: AggregatorConfig {
                    frequency_threshold,
                    k,
                },
                ..system.config().clone()
            };
            let t0 = Instant::now();
            let built = Svqa::build(&mvqa.images, &mvqa.kg, config);
            let build_secs = t0.elapsed().as_secs_f64();
            let stats = built.build_stats();
            AggregatorRow {
                frequency_threshold,
                k,
                build_secs,
                merge_secs: stats.merge_time.as_secs_f64(),
                merge: stats.merge.clone(),
            }
        })
        .collect();
    let mut tagg = Table::new(
        "Ablation — Algorithm 1 thresholds c′/k (paper: c′ = 5, k = 2; counters are deterministic)",
        &[
            "c′",
            "k",
            "Build",
            "Merge",
            "Cached subgraphs",
            "Attach hits",
            "Attach misses",
            "Links",
        ],
    );
    for row in &aggregator {
        let c = if row.frequency_threshold == usize::MAX / 2 {
            "∞".to_owned()
        } else {
            row.frequency_threshold.to_string()
        };
        tagg.row(&[
            c,
            row.k.to_string(),
            format!("{:.1}ms", row.build_secs * 1e3),
            format!("{:.1}ms", row.merge_secs * 1e3),
            row.merge.cached_subgraphs.to_string(),
            row.merge.cache_hits.to_string(),
            row.merge.cache_misses.to_string(),
            row.merge.links_created.to_string(),
        ]);
    }

    (
        Exp5Report {
            cache_onoff,
            granularity,
            pool_sweep,
            schedule,
            aggregator,
        },
        vec![t10a, t10b, t11, tsched, tagg],
    )
}

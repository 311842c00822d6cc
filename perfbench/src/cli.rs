//! The `cli_rank` workload: `fairrank rank --algorithm mallows` on a
//! generated CSV of 10⁵ candidates, alternating between the plain file
//! and a `.frix`-indexed copy read with `--jobs 2`.

use crate::procs;
use crate::serve::SETUPS;
use crate::stats::{median, percentile};
use crate::trace::{self, time, Reconcile, Spans};
use crate::{gen, Opts, Report, Result};
use fair_baselines::weakly_fair_ranking;
use fair_mallows::{Criterion, MallowsFairRanker};
use fairness_metrics::infeasible::{pfair_percentage, two_sided_infeasible_index};
use fairness_metrics::FairnessBounds;
use fairrank_cli::args::Args;
use fairrank_cli::commands;
use fairrank_cli::csv::CandidateTable;
use fairrank_engine::job::{JobInput, JobParams, RankJob};
use fairrank_engine::registry::Registry;
use fairrank_engine::tables::{ExecContext, TableCache};
use mallows_model::tables::SamplerTables;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 100_000;
/// Latency limit of `slo_met_share`, ms: about twice the p50 on a 2-vCPU
/// host, whose speed drifts by up to 40% over an hour; at 400 ms the p99
/// came within 10% of the limit.
const SLO_MS: f64 = 600.0;
const THETA: f64 = 0.6;
const SAMPLES: usize = 8;
/// The CLI's default `--seed` and `--tolerance`, which the workload
/// leaves unset.
const CLI_SEED: u64 = 42;
const CLI_TOLERANCE: f64 = 0.1;
/// In-process repetitions of each traced call.
const TRACE_REPEATS: usize = 3;

/// The run's working files, removed when dropped.
struct Files {
    dir: PathBuf,
    plain: String,
    indexed: String,
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // the shared parent goes too once no other run uses it
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Files {
    /// Arguments of invocation `i`: even ones read the plain CSV, odd
    /// ones the indexed copy on two threads.
    fn args(&self, i: usize) -> Vec<String> {
        let mut args: Vec<String> = ["rank", "--algorithm", "mallows"]
            .iter()
            .map(ToString::to_string)
            .collect();
        args.extend([
            "--samples".to_string(),
            SAMPLES.to_string(),
            "--theta".to_string(),
            THETA.to_string(),
            "--input".to_string(),
        ]);
        if i.is_multiple_of(2) {
            args.push(self.plain.clone());
        } else {
            args.extend([self.indexed.clone(), "--jobs".to_string(), "2".to_string()]);
        }
        args
    }
}

/// `commands::rank` in-process on the same arguments as invocation `i`.
fn in_process(files: &Files, i: usize) -> Result<String> {
    let args = Args::parse(files.args(i)).map_err(|e| e.to_string())?;
    commands::rank(&args).map_err(|e| e.to_string())
}

fn invoke(opts: &Opts, files: &Files, i: usize) -> Result<Vec<u8>> {
    let args = files.args(i);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    procs::run(&opts.fairrank, &args)
}

/// One set-up: write the CSV and its indexed copy, build the `.frix`,
/// and warm up until the first correct answer.
fn set_up(opts: &Opts) -> Result<(Files, String, f64)> {
    let started = Instant::now();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("cli_rank-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let files = Files {
        plain: dir.join("plain.csv").to_string_lossy().into_owned(),
        indexed: dir.join("indexed.csv").to_string_lossy().into_owned(),
        dir,
    };
    let csv = gen::candidate_csv(&mut gen::rng(opts.seed, 6), ROWS);
    for path in [&files.plain, &files.indexed] {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    procs::run(
        &opts.fairrank,
        &["index", "--input", &files.indexed, "--force", "true"],
    )?;
    let expected = in_process(&files, 0)?;
    if invoke(opts, &files, 0)? != expected.as_bytes() {
        return Err("the warm-up output differs from the in-process result".to_string());
    }
    Ok((files, expected, started.elapsed().as_secs_f64()))
}

/// A footer value `# name,value` of the rank output.
fn footer(output: &str, name: &str) -> Result<f64> {
    output
        .lines()
        .find_map(|l| l.strip_prefix("# ")?.strip_prefix(name)?.strip_prefix(','))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no `# {name}` line in the rank output"))
}

pub fn run(opts: &Opts) -> Result<Report> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current = None;
    for _ in 0..SETUPS {
        drop(current.take());
        let (files, expected, seconds) = set_up(opts)?;
        setups.push(seconds);
        current = Some((files, expected));
    }
    let (files, expected) = current.expect("at least one set-up");

    let mut report = Report::default();
    let mut latencies = Vec::new();
    let mut met = 0usize;
    let mut correct = 0usize;
    let started = Instant::now();
    // at least one invocation of each form
    while started.elapsed().as_secs_f64() < opts.seconds || latencies.len() < 2 {
        let i = latencies.len();
        let sent = Instant::now();
        let output = invoke(opts, &files, i);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        report.attempted += 1;
        match output {
            Ok(bytes) if bytes == expected.as_bytes() => {
                correct += 1;
                met += usize::from(ms <= SLO_MS);
            }
            Ok(_) => {
                report.failed += 1;
                report.wrong += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                report.failed += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    report.samples.insert("setup_s", setups.clone());
    report.samples.insert("latency_ms", latencies.clone());
    // the plain and the indexed invocations take different times, and the
    // pooled median of the two modes jumps between them from run to run:
    // the p50 is the mean of the two forms' medians
    let form =
        |parity: usize| -> Vec<f64> { latencies.iter().skip(parity).step_by(2).copied().collect() };
    let p50 = (median(&form(0)) + median(&form(1))) / 2.0;

    if opts.trace {
        report.metrics = layers(&files, &expected, p50 * 1e3)?;
        return Ok(report);
    }
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("latency_p50_ms", p50);
    m.insert("latency_p99_ms", percentile(&latencies, 99.0));
    m.insert("slo_met_share", met as f64 / latencies.len() as f64);
    m.insert("throughput_rps", correct as f64 / elapsed);
    m.insert("items_per_s", (correct * ROWS) as f64 / elapsed);
    m.insert("peak_rss_mb", procs::children_peak_rss_mb());
    m.insert("ndcg_vs_pool", footer(&expected, "ndcg_vs_pool")?);
    m.insert("pfair_percentage", footer(&expected, "pfair_percentage")?);
    m.insert("infeasible_index", footer(&expected, "infeasible_index")?);
    Ok(report)
}

/// The traced replay: ingest, the CLI command, the algorithm layers
/// and the render, each called in-process on the run's own files.
fn layers(files: &Files, expected: &str, e2e_p50_us: f64) -> Result<trace::Layers> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut spans = Spans::default();
    for _ in 0..TRACE_REPEATS {
        let (table, us) = time(|| CandidateTable::read_with_jobs(&files.plain, 0));
        table.map_err(|e| err(&e))?;
        spans.push("dataset.ingest_us", us);
        let (table, us) = time(|| CandidateTable::read_with_jobs(&files.indexed, 2));
        table.map_err(|e| err(&e))?;
        spans.push("dataset.ingest_indexed_us", us);
    }
    for i in 0..2 * TRACE_REPEATS {
        let (output, us) = time(|| in_process(files, i));
        if output? != expected {
            return Err("commands::rank answered differently on the indexed copy".to_string());
        }
        spans.push("cli.rank_us", us);
    }

    // Algorithm::run on the same job the CLI runs, then its layers
    let table = CandidateTable::read_with_jobs(&files.plain, 0).map_err(|e| err(&e))?;
    let params = JobParams {
        theta: THETA,
        samples: SAMPLES,
        seed: CLI_SEED,
        tolerance: CLI_TOLERANCE,
        ..JobParams::default()
    };
    let job = RankJob {
        algorithm: "mallows".to_string(),
        input: JobInput::Scores {
            scores: table.scores.clone(),
            groups: table.groups.as_slice().to_vec(),
        },
        params: params.clone(),
    };
    let registry = Registry::standard();
    let algorithm = registry.get("mallows").ok_or("no mallows algorithm")?;
    let ctx = ExecContext::new(Arc::new(TableCache::new(64)));
    for _ in 0..TRACE_REPEATS {
        let mut rng = StdRng::seed_from_u64(CLI_SEED);
        let (result, run_us) = time(|| algorithm.run(&job, &ctx, &mut rng));
        let result = result.map_err(|e| err(&e))?;
        spans.push("registry.run_us", run_us);
        trace::mallows_layers(
            &table.scores,
            &table.groups,
            &params,
            &ctx.tables,
            run_us,
            &result.ranking,
            &mut spans,
        )?;
        let (rendered, us) = time(|| table.render_ranking(&result.ranking));
        if !expected.starts_with(&rendered) {
            return Err("the engine's mallows winner differs from the CLI's".to_string());
        }
        spans.push("cli.render_us", us);
    }

    // the CLI path composed from its layers, untraced and traced
    let mut rec = Reconcile::default();
    let (mut untraced_us, mut traced_us) = (0.0, 0.0);
    for _ in 0..TRACE_REPEATS {
        untraced_us += composed(files, false, &mut rec)?;
        traced_us += composed(files, true, &mut rec)?;
    }

    let mut layers = trace::zeroed();
    for name in [
        "dataset.ingest_us",
        "dataset.ingest_indexed_us",
        "cli.rank_us",
        "cli.render_us",
    ] {
        layers.insert(name, spans.median(name));
    }
    trace::algorithm_layers(&spans, &mut layers);
    layers.insert("cli.process_us", e2e_p50_us - spans.median("cli.rank_us"));
    layers.insert("bench.trace_overhead_share", traced_us / untraced_us - 1.0);
    layers.insert("bench.reconcile_error_share", rec.check()?);
    Ok(layers)
}

/// One `fairrank rank` of the plain CSV as a sequence of layer calls:
/// ingest, centre, table build, kernel, render and the fairness footer.
/// Returns the root time; traced, each call is also a span under the
/// root, fed to the reconciliation.
fn composed(files: &Files, traced: bool, rec: &mut Reconcile) -> Result<f64> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut children = Vec::with_capacity(7);
    let mut span = |f: &mut dyn FnMut()| {
        if traced {
            let ((), us) = time(f);
            children.push(us);
        } else {
            f();
        }
    };
    let root = Instant::now();
    let mut table = None;
    span(&mut || table = Some(CandidateTable::read_with_jobs(&files.plain, 0)));
    let table = table.expect("ran").map_err(|e| err(&e))?;
    let bounds = FairnessBounds::from_assignment_with_tolerance(&table.groups, CLI_TOLERANCE);
    let ranker = MallowsFairRanker::new(THETA, SAMPLES, Criterion::MaxNdcg(table.scores.clone()))
        .map_err(|e| err(&e))?;
    let mut center = None;
    span(&mut || center = Some(weakly_fair_ranking(&table.scores, &table.groups, &bounds)));
    let center = center.expect("ran");
    let mut tables = None;
    span(&mut || tables = Some(SamplerTables::new(table.len(), THETA)));
    let tables = Arc::new(tables.expect("ran").map_err(|e| err(&e))?);
    let mut out = None;
    span(&mut || {
        out = Some(ranker.rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(CLI_SEED)));
    });
    let winner = out.expect("ran").map_err(|e| err(&e))?.ranking;
    span(&mut || {
        black_box(table.render_ranking(winner.as_order()));
    });
    span(&mut || {
        black_box(two_sided_infeasible_index(&winner, &table.groups, &bounds).is_ok());
    });
    span(&mut || {
        black_box(pfair_percentage(&winner, &table.groups, &bounds).is_ok());
    });
    let root_us = root.elapsed().as_secs_f64() * 1e6;
    if traced {
        rec.root(root_us, &children);
    }
    Ok(root_us)
}

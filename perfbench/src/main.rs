//! End-to-end benchmark of the `fairrank` binary.
//!
//! Four seeded workloads run against spawned `fairrank serve`, `router`
//! and `rank` processes, and every output is checked against the
//! in-process result of the same job. With `--trace 1` the run also
//! replays the workload's exact inputs in-process, timing the calls into
//! each layer, and reports per-layer metrics instead.
//!
//! ```text
//! perfbench --fairrank PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! run's provenance. See `README.md` for the workloads and metrics.

mod check;
mod cli;
mod drive;
mod gen;
mod http;
mod procs;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

pub type Result<T> = std::result::Result<T, String>;

/// Metrics printed with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_met_share", "share"),
    ("throughput_rps", "req/s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
    ("ndcg_vs_pool", "ratio"),
    ("pfair_percentage", "%"),
    ("infeasible_index", "count"),
];

/// Metrics printed with `--trace 1`, with their units. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("json.parse_us", "us"),
    ("server.ring_key_us", "us"),
    ("server.decode_us", "us"),
    ("server.frame_us", "us"),
    ("server.io_us", "us"),
    ("job.digest_us", "us"),
    ("job.canonical_bytes", "count"),
    ("job.serialize_us", "us"),
    ("job.response_bytes", "count"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced", "count"),
    ("pool.queue_wait_us", "us"),
    ("pool.rejections", "count"),
    ("registry.run_us", "us"),
    ("baselines.centre_us", "us"),
    ("tables.fetch_us", "us"),
    ("tables.build_us", "us"),
    ("tables.hit_ratio", "ratio"),
    ("mallows.kernel_us", "us"),
    ("mallows.samples_drawn", "count"),
    ("mallows.abandon_rate", "ratio"),
    ("fairness.infeasible_us", "us"),
    ("fairness.pfair_us", "us"),
    ("fairness.report_us", "us"),
    ("dataset.ingest_us", "us"),
    ("dataset.ingest_indexed_us", "us"),
    ("cli.rank_us", "us"),
    ("cli.render_us", "us"),
    ("cli.process_us", "us"),
    ("router.ring_key_us", "us"),
    ("router.owner_us", "us"),
    ("router.forward_us", "us"),
    ("router.hop_us", "us"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.reconcile_error_share", "share"),
];

/// Command-line options.
pub struct Opts {
    pub fairrank: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run of a workload reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Requests or invocations that failed or returned a wrong output.
    pub failed: u64,
    /// Outputs that differed from the in-process result.
    pub wrong: u64,
    /// Metric values by name: end-to-end ones untraced, per-layer ones
    /// traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The samples behind a metric, summarised in the provenance line.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let opts = parse_args(std::env::args().skip(1))?;
    if !opts.fairrank.is_file() {
        return Err(format!("no fairrank binary at {}", opts.fairrank.display()));
    }
    let report = match opts.workload.as_str() {
        "serve_cold" | "serve_reuse" | "router_reuse" => serve::run(&opts)?,
        "cli_rank" => cli::run(&opts)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    println!("{}", provenance(&opts, &report));
    println!("{}", result_line(&opts, &report)?);
    Ok(())
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Opts> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = raw.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?
            .to_string();
        let value = raw
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let positive = |name: &str, v: String| {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--{name} expects a positive number, got `{v}`"))
    };
    let opts = Opts {
        fairrank: PathBuf::from(take("fairrank")?),
        workload: take("workload")?,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed expects a whole number".to_string())?,
        seconds: positive("seconds", take("seconds")?)?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(opts)
}

/// The last stdout line: exactly the metrics of the run's kind, each
/// with its unit.
fn result_line(opts: &Opts, report: &Report) -> Result<String> {
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = report
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.wrong == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    ))
}

/// Where and how the run was made, and the spread of each metric's
/// samples within it.
fn provenance(opts: &Opts, report: &Report) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let summaries: Vec<String> = report
        .samples
        .iter()
        .map(|(name, values)| format!("\"{name}\":{}", stats::summary_json(values)))
        .collect();
    format!(
        "{{\"provenance\":{{\"cpus\":{cpus},\"commit\":\"{commit}\",\"rustc\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"samples\":{{{}}}}}}}",
        command_line("rustc", &["--version"]),
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        summaries.join(",")
    )
}

/// First line of a command's stdout, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".to_string())
}

//! Subcommand implementations: pure functions from [`Args`] to output
//! text, so every command is unit-testable.

use crate::args::Args;
use crate::csv::{CandidateTable, VoteProfile};
use crate::{CliError, Result};
use fairness_metrics::{divergence, exposure, infeasible, FairnessBounds};
use fairrank_engine::job::{Criterion, JobInput, JobParams, RankJob, RankResult};
use fairrank_engine::num;
use fairrank_engine::registry::{self, AlgorithmKind, Registry};
use fairrank_engine::tables::ExecContext;
use mallows_model::MallowsModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::{self, Discount};
use ranking_core::Permutation;

fn algo_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> CliError {
    CliError::Algorithm(Box::new(e))
}

/// Dispatch a parsed command line to its implementation.
pub fn dispatch(args: &Args) -> Result<String> {
    match args.command() {
        "rank" => rank(args),
        "metrics" => metrics(args),
        "sample" => sample(args),
        "aggregate" => aggregate(args),
        "pipeline" => pipeline(args),
        "index" => index(args),
        "experiment" => crate::experiment::experiment(args),
        "serve" => serve(args),
        "router" => router(args),
        "analyze" => analyze(args),
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// `fairrank serve`: run the batch-serving engine's HTTP JSON API.
///
/// Binds `--host:--port` (port 0 picks an ephemeral port, printed on
/// stdout before serving), builds an engine with `--workers` threads, a
/// `--queue`-bounded job queue and a `--cache`-sized LRU result cache,
/// and serves keep-alive HTTP/1.1 on a fixed pool of `--io-threads`
/// I/O workers (0 = one per CPU). SIGTERM (or SIGINT) starts a
/// graceful drain: readiness (`GET /readyz`) flips to 503, in-flight
/// keep-alive requests finish and close, new connections are shed with
/// 503, queued batch jobs are cancelled and running ones complete —
/// then the process exits cleanly. `--access-log FILE` (or `-` for
/// stderr) writes one JSON line per request; the sink is flushed and
/// fsynced before exit so the tail of the log survives the drain.
/// Every request is traced (see `GET /debug/traces`): `--trace-recent`
/// and `--trace-slow` size the flight recorder's two tracks, and
/// `--trace-slow-us` is the slow-request threshold in microseconds.
pub fn serve(args: &Args) -> Result<String> {
    use fairrank_engine::server::{AccessLog, Server, ServerConfig};
    use fairrank_engine::{Engine, EngineConfig};
    use std::sync::Arc;

    let host = args.get("host").unwrap_or("127.0.0.1");
    let port = args.get_usize("port", 8080)?;
    if port > u16::MAX as usize {
        return Err(CliError::Usage(format!("--port {port} is out of range")));
    }
    let config = EngineConfig {
        workers: args.get_usize("workers", 4)?,
        queue_capacity: args.get_usize("queue", 256)?,
        cache_capacity: args.get_usize("cache", 1024)?,
        table_cache_capacity: args.get_usize("table-cache", 64)?,
        cache_shards: args.get_usize("cache-shards", 0)?,
        job_runners: args.get_usize("job-runners", 2)?.max(1),
        job_capacity: args.get_usize("job-capacity", 256)?.max(1),
        trace_recent: args.get_usize("trace-recent", 128)?,
        trace_slow: args.get_usize("trace-slow", 32)?,
        trace_slow_us: args.get_u64("trace-slow-us", 10_000)?,
    };
    let access_log = match args.get("access-log") {
        None => None,
        Some("-") => Some(AccessLog::stderr()),
        Some(path) => Some(
            AccessLog::create(path)
                .map_err(|e| CliError::Input(format!("cannot open access log `{path}`: {e}")))?,
        ),
    };
    // kept for the post-drain sync below (the server's own drain path
    // also syncs; this covers the window between that and exit)
    let access_log_handle = access_log.clone();
    let server_config = ServerConfig {
        io_threads: args.get_usize("io-threads", 0)?,
        max_requests_per_conn: args.get_usize("max-conn-requests", 1024)?.max(1),
        idle_timeout: std::time::Duration::from_millis(
            args.get_u64("idle-timeout-ms", 5_000)?.max(1),
        ),
        pending_connections: args.get_usize("pending", 1024)?.max(1),
        access_log,
    };
    let workers = config.workers;
    let io_threads = server_config.io_threads;
    let engine = Engine::new(config);
    let server = Server::bind_with(
        &format!("{host}:{port}"),
        Arc::clone(&engine),
        server_config,
    )
    .map_err(|e| CliError::Input(format!("cannot bind {host}:{port}: {e}")))?;

    // SIGTERM/SIGINT → graceful drain, via a minimal self-pipe: the
    // handler writes one byte, the watcher thread reads it and starts
    // the drain; `server.run()` then returns once the HTTP side has
    // wound down, and the batch tail is awaited below
    let control = server.drain_control();
    if let Some(wait_for_signal) = crate::signals::install() {
        std::thread::Builder::new()
            .name("fairrank-signal".to_string())
            .spawn(move || {
                wait_for_signal();
                control.begin_drain();
            })
            .map_err(|e| CliError::Input(format!("cannot spawn the signal watcher: {e}")))?;
    }

    // announce the bound address eagerly (and flushed) so scripts and
    // tests targeting `--port 0` can discover the ephemeral port
    println!(
        "fairrank: serving on http://{} ({workers} workers, {} io threads)",
        server.local_addr(),
        if io_threads == 0 {
            "auto".to_string()
        } else {
            io_threads.to_string()
        }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    // HTTP drained; let running batch jobs finish before exiting
    engine.wait_batches_idle();
    if let Some(log) = &access_log_handle {
        log.sync();
    }
    Ok("fairrank: drained, exiting\n".to_string())
}

/// `fairrank router`: consistent-hash front for N `fairrank serve`
/// replicas.
///
/// Binds `--host:--port` (port 0 picks an ephemeral port, printed on
/// stdout before serving) and shards `/rank|/aggregate|/pipeline|/jobs`
/// traffic across the `--backend` replicas (repeatable, or one
/// comma-separated list) by the same algorithm+input digest the
/// engine's result cache is keyed by. Membership is health-gated: each
/// backend's `/readyz` is probed every `--probe-ms`; a draining or
/// dead replica leaves the ring and its queued batch jobs are
/// resubmitted to the next owner. `--hedge-after-us N` (0 = off)
/// duplicates a still-unanswered request to the key's next owner
/// after N microseconds and takes whichever answers first. SIGTERM
/// (or SIGINT) stops accepting, finishes in-flight requests and
/// exits. See `docs/CLUSTER.md` for ring and failure semantics.
pub fn router(args: &Args) -> Result<String> {
    use fairrank_router::server::RouterServer;
    use fairrank_router::{RouterConfig, RouterCore};
    use std::time::Duration;

    let host = args.get("host").unwrap_or("127.0.0.1");
    let port = args.get_usize("port", 8088)?;
    if port > u16::MAX as usize {
        return Err(CliError::Usage(format!("--port {port} is out of range")));
    }
    let backends = args.get_all("backend");
    if backends.is_empty() {
        return Err(CliError::Usage(
            "router needs at least one --backend host:port".to_string(),
        ));
    }
    {
        let mut sorted = backends.clone();
        sorted.sort();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(CliError::Usage("duplicate --backend address".to_string()));
        }
    }
    let probe_ms = args.get_u64("probe-ms", 200)?.max(1);
    let hedge_after_us = args.get_u64("hedge-after-us", 0)?;
    let request_timeout = Duration::from_millis(args.get_u64("request-timeout-ms", 30_000)?.max(1));
    let backend_count = backends.len();
    let core = RouterCore::new(RouterConfig {
        backends,
        probe_interval: Duration::from_millis(probe_ms),
        hedge_after: (hedge_after_us > 0).then(|| Duration::from_micros(hedge_after_us)),
        request_timeout,
    });
    let server = RouterServer::bind(&format!("{host}:{port}"), core)
        .map_err(|e| CliError::Input(format!("cannot bind {host}:{port}: {e}")))?;
    let handle = server
        .spawn()
        .map_err(|e| CliError::Input(format!("cannot start the router: {e}")))?;

    // announce the bound address eagerly (and flushed) so scripts and
    // tests targeting `--port 0` can discover the ephemeral port
    println!(
        "fairrank: routing on http://{} ({backend_count} backends, probe {probe_ms}ms)",
        handle.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // block until SIGTERM/SIGINT, then stop accepting and finish
    // in-flight requests. Without signal support (non-unix), serve
    // until the process is killed.
    match crate::signals::install() {
        Some(wait_for_signal) => wait_for_signal(),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    handle.shutdown();
    Ok("fairrank: router drained, exiting\n".to_string())
}

/// `fairrank analyze`: static-analysis pass over the workspace's own
/// sources (see `docs/ANALYSIS.md` for the lint set).
///
/// Prints diagnostics to stdout (text or `--format json`) and fails
/// with [`CliError::Analysis`] — exit code 1 — when any diagnostic is
/// not covered by a justified allowlist entry, which is what makes the
/// CI step a hard gate.
pub fn analyze(args: &Args) -> Result<String> {
    use fairrank_analyze::lints::LintConfig;
    use std::path::PathBuf;

    let root = match args.get("root") {
        Some(p) => PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| CliError::Input(format!("cannot read current directory: {e}")))?;
            fairrank_analyze::walker::find_workspace_root(&cwd).ok_or_else(|| {
                CliError::Input(format!(
                    "no [workspace] Cargo.toml at or above {} (pass --root)",
                    cwd.display()
                ))
            })?
        }
    };
    let allowlist = args.get("allowlist").map(PathBuf::from);
    let format = args.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(CliError::Usage(format!(
            "--format expects text or json, got `{format}`"
        )));
    }
    let report = fairrank_analyze::run(
        &root,
        allowlist.as_deref(),
        &LintConfig::workspace_default(),
    )
    .map_err(CliError::Input)?;
    let rendered = match format {
        "json" => report.render_json(),
        _ => report.render_text(),
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        // print the findings before failing: the Err carries only the
        // count, the diagnostics themselves go to stdout either way
        print!("{rendered}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        Err(CliError::Analysis(report.diagnostics.len()))
    }
}

/// The job parameters every job-running command (`rank`, `aggregate`,
/// `pipeline`) reads from its flags, with the engine's defaults except
/// `--samples`, whose default each command passes in.
fn job_params(args: &Args, default_samples: usize) -> Result<JobParams> {
    let defaults = JobParams::default();
    let criterion = args.get("criterion").unwrap_or(defaults.criterion.as_str());
    Ok(JobParams {
        theta: args.get_f64("theta", defaults.theta)?,
        samples: args.get_usize("samples", default_samples)?,
        criterion: Criterion::parse(criterion).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown criterion `{criterion}` (expected ndcg, infeasible or kendall)"
            ))
        })?,
        tolerance: args.get_f64("tolerance", defaults.tolerance)?,
        k: args.get("k").map(|_| args.get_usize("k", 0)).transpose()?,
        seed: args.get_u64("seed", defaults.seed)?,
        proportion: args
            .get("proportion")
            .map(|_| args.get_f64("proportion", 0.0))
            .transpose()?,
        alpha: args.get_f64("alpha", defaults.alpha)?,
        ..defaults
    })
}

/// Run `job` in-process through the engine's registry, by the same
/// [`registry::execute`] step the engine's workers run, so the result
/// is the one `POST /rank` (`/aggregate`, `/pipeline`) returns for the
/// job. A name that is not an algorithm of `kind` is a usage error
/// naming the command's `flag`.
fn run_job(job: &RankJob, kind: AlgorithmKind, flag: &str) -> Result<RankResult> {
    let registry = Registry::standard();
    let algorithm = registry
        .get(&job.algorithm)
        .filter(|a| a.kind() == kind)
        .ok_or_else(|| CliError::Usage(format!("unknown {flag} `{}`", job.algorithm)))?;
    Ok(registry::execute(
        &*algorithm,
        job,
        &ExecContext::default(),
    )?)
}

/// Append a result's metrics as `# name,value` footer lines, in order:
/// NDCG values to 6 decimals, the P-fair percentage to 2, counts as
/// plain integers.
fn render_footer(metrics: &[(String, f64)], out: &mut String) {
    use std::fmt::Write as _;
    for (name, value) in metrics {
        out.push_str("# ");
        out.push_str(name);
        out.push(',');
        match name.as_str() {
            n if n.starts_with("ndcg_") => {
                let _ = write!(out, "{value:.6}");
            }
            "pfair_percentage" => {
                let _ = write!(out, "{value:.2}");
            }
            _ => num::write_f64(*value, out),
        }
        out.push('\n');
    }
}

/// `fairrank rank`: fair post-processing of a candidate CSV.
pub fn rank(args: &Args) -> Result<String> {
    let table = CandidateTable::read_with_jobs(args.require("input")?, args.get_usize("jobs", 0)?)?;
    let protected = match args.get("protected") {
        None => 0,
        Some(label) => table
            .group_labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| CliError::Usage(format!("unknown group label `{label}`")))?,
    };
    let job = RankJob {
        algorithm: args.require("algorithm")?.to_string(),
        input: JobInput::Scores {
            scores: table.scores.clone(),
            groups: table.groups.as_slice().to_vec(),
        },
        params: JobParams {
            protected,
            ..job_params(args, 1)?
        },
    };
    let result = run_job(&job, AlgorithmKind::PostProcessor, "algorithm")?;
    let mut out = table.render_ranking(&result.ranking);
    render_footer(&result.metrics, &mut out);
    Ok(out)
}

/// `fairrank metrics`: report on an already-ranked candidate CSV (file
/// order is the ranking).
pub fn metrics(args: &Args) -> Result<String> {
    let table = CandidateTable::read_with_jobs(args.require("input")?, args.get_usize("jobs", 0)?)?;
    let tolerance = args.get_f64("tolerance", 0.1)?;
    let n = table.len();
    let at = args.get_usize("at", n.div_ceil(2))?.clamp(1, n);
    let pi = Permutation::identity(n); // file order is the ranking
    let bounds = FairnessBounds::from_assignment_with_tolerance(&table.groups, tolerance);

    let ndcg = quality::ndcg(&pi, &table.scores).map_err(algo_err)?;
    let ii =
        infeasible::two_sided_infeasible_index(&pi, &table.groups, &bounds).map_err(algo_err)?;
    let pf = infeasible::pfair_from_index(ii, n);
    let ndkl = divergence::ndkl(&pi, &table.groups).map_err(algo_err)?;
    let min_skew = divergence::min_skew_at(&pi, &table.groups, at).map_err(algo_err)?;
    let max_skew = divergence::max_skew_at(&pi, &table.groups, at).map_err(algo_err)?;
    let parity =
        exposure::exposure_parity_ratio(&pi, &table.groups, Discount::Log2).map_err(algo_err)?;
    let dtr =
        exposure::disparate_treatment_ratio(&pi, &table.scores, &table.groups, Discount::Log2)
            .map_err(algo_err)?;

    let mut out = String::from("metric,value\n");
    out.push_str(&format!("candidates,{n}\n"));
    out.push_str(&format!("groups,{}\n", table.groups.num_groups()));
    out.push_str(&format!("ndcg,{ndcg:.6}\n"));
    out.push_str(&format!("infeasible_index,{ii}\n"));
    out.push_str(&format!("pfair_percentage,{pf:.2}\n"));
    out.push_str(&format!("ndkl,{ndkl:.6}\n"));
    out.push_str(&format!("min_skew@{at},{min_skew:.6}\n"));
    out.push_str(&format!("max_skew@{at},{max_skew:.6}\n"));
    out.push_str(&format!("exposure_parity_ratio,{parity:.6}\n"));
    out.push_str(&format!("disparate_treatment_ratio,{dtr:.6}\n"));
    Ok(out)
}

/// `fairrank sample`: draw Mallows permutations around the identity (or
/// around a candidate file's score ordering with `--input`).
pub fn sample(args: &Args) -> Result<String> {
    let theta = args.get_f64("theta", 1.0)?;
    let count = args.get_usize("count", 1)?;
    let seed = args.get_u64("seed", 42)?;
    let center = match args.get("input") {
        Some(path) => {
            let table = CandidateTable::read_with_jobs(path, args.get_usize("jobs", 0)?)?;
            Permutation::sorted_by_scores_desc(&table.scores)
        }
        None => {
            let n = args.get_usize("n", 0)?;
            if n == 0 {
                return Err(CliError::Usage(
                    "sample needs --n N or --input FILE".to_string(),
                ));
            }
            Permutation::identity(n)
        }
    };
    let model = MallowsModel::new(center, theta).map_err(algo_err)?;
    // one table + reused buffers across all --count draws
    let mut sampler = model.sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let mut s = Permutation::identity(0);
    for _ in 0..count {
        sampler.sample_into(&mut s, &mut rng);
        for (rank, &item) in s.as_order().iter().enumerate() {
            if rank > 0 {
                out.push(',');
            }
            num::write_usize(item, &mut out);
        }
        out.push('\n');
    }
    Ok(out)
}

/// `fairrank pipeline`: aggregate a vote profile and fair post-process
/// the consensus in one call.
///
/// `--groups` maps vote labels to protected groups (`label,group` rows);
/// `--post` picks the fairness stage.
pub fn pipeline(args: &Args) -> Result<String> {
    let profile = VoteProfile::read_with_jobs(args.require("input")?, args.get_usize("jobs", 0)?)?;
    let groups = read_group_map(args.require("groups")?, &profile.labels)?;
    let job = RankJob {
        algorithm: "pipeline".to_string(),
        input: JobInput::Votes {
            votes: profile.vote_orders(),
            groups,
        },
        params: JobParams {
            method: args.get("method").unwrap_or("kemeny").to_string(),
            post: args.get("post").unwrap_or("mallows").to_string(),
            ..job_params(args, 15)?
        },
    };
    let result = run_job(&job, AlgorithmKind::Pipeline, "algorithm")?;
    let consensus = result.consensus.as_deref().unwrap_or_default();
    let mut text = String::from("consensus,");
    profile.render(consensus, &mut text);
    text.push_str("\nfair,");
    profile.render(&result.ranking, &mut text);
    text.push('\n');
    render_footer(&result.metrics, &mut text);
    Ok(text)
}

/// `fairrank index`: build (or refresh) the `.frix` sidecar index for
/// a dataset file, enabling O(1) record seeks and `--jobs`
/// chunk-parallel ingest everywhere the file is read.
///
/// The dialect follows `--format` (`csv` = comma fields with `#`
/// comments — candidate, vote and interchange files; `statlog` =
/// space-separated UCI `german.data`; sniffed from the extension by
/// default, matching `fairrank experiment`). A fresh existing index is
/// reused unless `--force true`. See `docs/DATASET.md`.
pub fn index(args: &Args) -> Result<String> {
    use fairrank_dataset::index::{sidecar_path, CsvIndex};
    let path = args.require("input")?;
    let dialect = match crate::experiment::dataset_format(args, path)? {
        crate::experiment::DataFormat::Statlog => fairrank_dataset::Dialect::space_separated(),
        crate::experiment::DataFormat::Csv => crate::csv::cli_dialect(),
    };
    let input_err = |e: fairrank_dataset::CsvError| CliError::Input(e.to_string());
    let force = args.get("force").is_some_and(|v| v == "true");
    let sidecar = sidecar_path(path);
    if !force && sidecar.exists() {
        if let Ok(existing) = CsvIndex::load(&sidecar) {
            if existing.dialect() == dialect && existing.is_fresh(path) {
                return Ok(format!(
                    "index {} is fresh ({} records); pass --force true to rebuild\n",
                    sidecar.display(),
                    existing.record_count()
                ));
            }
        }
    }
    let start = std::time::Instant::now();
    let built = CsvIndex::build(path, dialect).map_err(input_err)?;
    let written = built.write_sidecar(path).map_err(input_err)?;
    let bytes = std::fs::metadata(&written).map_or(0, |m| m.len());
    Ok(format!(
        "indexed {path}: {} records -> {} ({bytes} bytes, {:.1} ms)\n",
        built.record_count(),
        written.display(),
        start.elapsed().as_secs_f64() * 1e3
    ))
}

/// Parse a `label,group` CSV mapping each vote label to a dense group
/// id (in order of first appearance), streaming through the shared
/// reader.
fn read_group_map(path: &str, labels: &[String]) -> Result<Vec<usize>> {
    let src = fairrank_dataset::open_file(path).map_err(|e| CliError::Input(e.to_string()))?;
    let mut reader = fairrank_dataset::CsvReader::new(src).comment(b'#');
    let mut group_of: Vec<Option<usize>> = vec![None; labels.len()];
    let mut group_labels: Vec<String> = Vec::new();
    while let Some(record) = reader
        .read_record()
        .map_err(|e| CliError::Input(e.to_string()))?
    {
        if record.len() != 2 {
            return Err(CliError::Input(format!(
                "line {}: expected `label,group`",
                record.line()
            )));
        }
        let label = record.get(0).expect("two fields");
        let group = record.get(1).expect("two fields");
        let Some(item) = labels.iter().position(|l| l == label) else {
            continue; // extra labels not in the vote universe are ignored
        };
        let gid = match group_labels.iter().position(|g| g == group) {
            Some(g) => g,
            None => {
                group_labels.push(group.to_string());
                group_labels.len() - 1
            }
        };
        group_of[item] = Some(gid);
    }
    group_of
        .iter()
        .enumerate()
        .map(|(i, g)| {
            g.ok_or_else(|| {
                CliError::Input(format!("label `{}` has no group assignment", labels[i]))
            })
        })
        .collect()
}

/// `fairrank aggregate`: consensus ranking of a vote profile.
pub fn aggregate(args: &Args) -> Result<String> {
    let profile = VoteProfile::read_with_jobs(args.require("input")?, args.get_usize("jobs", 0)?)?;
    let job = RankJob {
        algorithm: args.require("method")?.to_string(),
        input: JobInput::Votes {
            votes: profile.vote_orders(),
            groups: Vec::new(),
        },
        params: job_params(args, 15)?,
    };
    let result = run_job(&job, AlgorithmKind::Aggregator, "method")?;
    let mut out = String::new();
    profile.render(&result.ranking, &mut out);
    out.push('\n');
    render_footer(&result.metrics, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(std::string::ToString::to_string)).unwrap()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("fairrank_test_{name}"));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const CANDIDATES: &str = "id,score,group\n\
                              a,0.95,g1\nb,0.90,g1\nc,0.85,g1\nd,0.80,g1\n\
                              e,0.60,g2\nf,0.55,g2\ng,0.50,g2\nh,0.45,g2\n";

    #[test]
    fn dispatch_help_and_unknown() {
        assert!(dispatch(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(matches!(
            dispatch(&args(&["bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rank_weakly_fair_produces_all_rows_and_footer() {
        let input = write_temp("rank_wf.csv", CANDIDATES);
        let out = rank(&args(&[
            "rank",
            "--input",
            &input,
            "--algorithm",
            "weakly-fair",
        ]))
        .unwrap();
        assert_eq!(out.lines().filter(|l| !l.starts_with('#')).count(), 9); // header + 8
        assert!(out.contains("# infeasible_index,"));
        assert!(out.contains("# pfair_percentage,"));
    }

    #[test]
    fn rank_each_algorithm_runs() {
        let input = write_temp("rank_all.csv", CANDIDATES);
        for algo in [
            "mallows",
            "detconstsort",
            "ipf",
            "ilp",
            "exact-kt",
            "gr-binary",
            "weakly-fair",
        ] {
            let out = rank(&args(&[
                "rank",
                "--input",
                &input,
                "--algorithm",
                algo,
                "--samples",
                "5",
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.starts_with("rank,id,score,group"), "{algo}");
        }
    }

    #[test]
    fn rank_fair_top_k_truncates() {
        let input = write_temp("rank_topk.csv", CANDIDATES);
        let out = rank(&args(&[
            "rank",
            "--input",
            &input,
            "--algorithm",
            "fair-top-k",
            "--k",
            "4",
        ]))
        .unwrap();
        assert_eq!(out.lines().filter(|l| !l.starts_with('#')).count(), 5);
    }

    #[test]
    fn rank_fa_ir_promotes_protected_group() {
        let input = write_temp("rank_fair.csv", CANDIDATES);
        let out = rank(&args(&[
            "rank",
            "--input",
            &input,
            "--algorithm",
            "fa-ir",
            "--protected",
            "g2",
            "--proportion",
            "0.5",
        ]))
        .unwrap();
        // some g2 candidate must appear in the top half
        let top: Vec<&str> = out.lines().skip(1).take(4).collect();
        assert!(top.iter().any(|l| l.ends_with("g2")), "top-4: {top:?}");
    }

    #[test]
    fn rank_unknown_algorithm_is_usage_error() {
        let input = write_temp("rank_unknown.csv", CANDIDATES);
        assert!(matches!(
            rank(&args(&["rank", "--input", &input, "--algorithm", "magic"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_reports_all_rows() {
        let input = write_temp("metrics.csv", CANDIDATES);
        let out = metrics(&args(&["metrics", "--input", &input])).unwrap();
        for key in [
            "ndcg,",
            "infeasible_index,",
            "pfair_percentage,",
            "ndkl,",
            "exposure_parity_ratio,",
            "disparate_treatment_ratio,",
        ] {
            assert!(out.contains(key), "missing {key} in:\n{out}");
        }
        // file order is score-descending → NDCG = 1
        assert!(out.contains("ndcg,1.000000"));
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let a = sample(&args(&[
            "sample", "--n", "6", "--count", "3", "--seed", "9",
        ]))
        .unwrap();
        let b = sample(&args(&[
            "sample", "--n", "6", "--count", "3", "--seed", "9",
        ]))
        .unwrap();
        let c = sample(&args(&[
            "sample", "--n", "6", "--count", "3", "--seed", "10",
        ]))
        .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn sample_requires_size_or_input() {
        assert!(matches!(
            sample(&args(&["sample"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn aggregate_unanimous_profile() {
        let input = write_temp("votes.csv", "x,y,z\nx,y,z\nx,z,y\n");
        for method in ["borda", "copeland", "footrule", "kemeny", "markov"] {
            let out = aggregate(&args(&["aggregate", "--input", &input, "--method", method]))
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert!(out.starts_with("x,"), "{method}: {out}");
            assert!(out.contains("# total_kendall_distance,"));
        }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let votes = write_temp("pl_votes.csv", "a,b,c,d\na,b,d,c\nb,a,c,d\n");
        let groups = write_temp("pl_groups.csv", "a,x\nb,x\nc,y\nd,y\n");
        for post in ["none", "mallows", "gr-binary", "exact-kt", "ipf"] {
            let out = pipeline(&args(&[
                "pipeline",
                "--input",
                &votes,
                "--groups",
                &groups,
                "--post",
                post,
                "--tolerance",
                "0.2",
            ]))
            .unwrap_or_else(|e| panic!("{post}: {e}"));
            assert!(out.starts_with("consensus,"), "{post}: {out}");
            assert!(out.contains("# fair_infeasible,"), "{post}");
        }
    }

    #[test]
    fn pipeline_missing_group_label_errors() {
        let votes = write_temp("pl_votes2.csv", "a,b\nb,a\n");
        let groups = write_temp("pl_groups2.csv", "a,x\n");
        assert!(matches!(
            pipeline(&args(&["pipeline", "--input", &votes, "--groups", &groups])),
            Err(CliError::Input(_))
        ));
    }

    #[test]
    fn aggregate_unknown_method_errors() {
        let input = write_temp("votes2.csv", "x,y\ny,x\n");
        assert!(matches!(
            aggregate(&args(&[
                "aggregate",
                "--input",
                &input,
                "--method",
                "psychic"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_file_is_input_error() {
        assert!(matches!(
            rank(&args(&[
                "rank",
                "--input",
                "/nonexistent.csv",
                "--algorithm",
                "ilp"
            ])),
            Err(CliError::Input(_))
        ));
    }
}

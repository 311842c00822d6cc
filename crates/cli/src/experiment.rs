//! `fairrank experiment` — the German-Credit evaluation pipeline
//! (Figs. 5–7 of the paper) run as **one asynchronous batch job on the
//! serving engine**.
//!
//! This replaces the ad-hoc argument handling of the per-figure
//! binaries (`experiments::Options::from_env`) with a first-class CLI
//! command: the dataset is generated (or **streamed** from disk via
//! the shared `fairrank_dataset` reader — Statlog `german.data` or the
//! workspace's `age,sex,housing,credit_amount` CSV), every
//! (size, repetition, algorithm) cell becomes a
//! [`RankJob`](fairrank_engine::job::RankJob) chunk, and
//! the whole sweep is submitted through [`Engine::submit_batch`] — the
//! exact subsystem behind `POST /jobs` — then summarized per size and
//! algorithm.

use crate::args::Args;
use crate::{CliError, Result};
use experiments::credit_pipeline::{cell_job, Algorithm, Panel};
use fair_datasets::{uci, GermanCredit};
use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use fairrank_engine::batch::{BatchSpec, JobState};
use fairrank_engine::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ranking_core::quality;
use ranking_core::Permutation;

/// Per-repetition bookkeeping the engine does not need to know about:
/// the subsample's attribute columns, shared by all six of that
/// repetition's chunks (stored once, not per chunk).
struct RepData {
    size_idx: usize,
    scores: Vec<f64>,
    known: GroupAssignment,
    unknown: GroupAssignment,
}

/// `fairrank experiment`: run the credit pipeline as an engine batch.
pub fn experiment(args: &Args) -> Result<String> {
    let seed = args.get_u64("seed", 42)?;
    let reps = args.get_usize("reps", 5)?.max(1);
    let panel = Panel {
        theta: args.get_f64("theta", 1.0)?,
        noise_sd: args.get_f64("noise", 0.0)?,
    };
    let mallows_samples = args.get_usize("samples", 15)?.max(1);
    let sizes = parse_sizes(args.get("sizes").unwrap_or("10,20,30,40,50"))?;

    // the dataset: streamed from disk when --data is given, synthetic
    // otherwise (seeded, so runs are reproducible end to end)
    let data = load_data(args, seed)?;

    // build the batch: one chunk per (size, repetition, algorithm)
    let algorithms = Algorithm::all();
    let mut chunks = Vec::new();
    let mut rep_data: Vec<RepData> = Vec::new();
    // chunk index → (repetition, algorithm) cell
    let mut meta: Vec<(usize, usize)> = Vec::new();
    let all_scores = data.credit_amounts();
    let sex_age = data.sex_age_groups();
    let housing = data.housing_groups();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE9E2_81A7_21C5_7D00);
    for (size_idx, &n) in sizes.iter().enumerate() {
        for _rep in 0..reps {
            let idx = data.sample_indices(n.min(data.len()), &mut rng);
            let rep = RepData {
                size_idx,
                scores: idx.iter().map(|&i| all_scores[i]).collect(),
                known: sex_age.subset(&idx),
                unknown: housing.subset(&idx),
            };
            for (alg_idx, alg) in algorithms.iter().enumerate() {
                let chunk_seed: u64 = rng.random();
                chunks.push(cell_job(
                    *alg,
                    rep.scores.clone(),
                    rep.known.as_slice().to_vec(),
                    panel,
                    mallows_samples,
                    chunk_seed,
                ));
                meta.push((rep_data.len(), alg_idx));
            }
            rep_data.push(rep);
        }
    }

    // submit to an in-process engine — the same execution core (and
    // job-store bookkeeping) `fairrank serve` exposes over HTTP
    let engine = Engine::new(EngineConfig {
        workers: args.get_usize("workers", 2)?.max(1),
        job_runners: 1,
        job_capacity: 4,
        ..EngineConfig::default()
    });
    let total = chunks.len();
    let job = engine
        .submit_batch(BatchSpec { chunks })
        .map_err(|e| CliError::Algorithm(Box::new(e)))?;
    // poll for progress like an HTTP client would, then collect
    loop {
        let snapshot = job.snapshot();
        if snapshot.state.is_terminal() {
            break;
        }
        eprint!("\rexperiment: {}/{} chunks", snapshot.chunks_done, total);
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprint!("\r");
    let snapshot = job.wait();
    match snapshot.state {
        JobState::Done => {}
        JobState::Failed => {
            let (chunk, message) = snapshot.error.unwrap_or((0, "unknown".to_string()));
            return Err(CliError::Input(format!(
                "experiment chunk {chunk} failed: {message}"
            )));
        }
        state => {
            return Err(CliError::Input(format!(
                "experiment job ended in state `{}`",
                state.as_str()
            )));
        }
    }

    // score every chunk's ranking against both attributes
    let mut sums = vec![vec![[0.0f64; 3]; algorithms.len()]; sizes.len()];
    let mut counts = vec![vec![0usize; algorithms.len()]; sizes.len()];
    for (&(rep_idx, alg_idx), result) in meta.iter().zip(&snapshot.results) {
        let rep = &rep_data[rep_idx];
        let ranking = Permutation::from_order(result.ranking.clone())
            .map_err(|e| CliError::Algorithm(Box::new(e)))?;
        let known_bounds = FairnessBounds::from_assignment(&rep.known);
        let unknown_bounds = FairnessBounds::from_assignment(&rep.unknown);
        let ndcg =
            quality::ndcg(&ranking, &rep.scores).map_err(|e| CliError::Algorithm(Box::new(e)))?;
        let pfair_known = infeasible::pfair_percentage(&ranking, &rep.known, &known_bounds)
            .map_err(|e| CliError::Algorithm(Box::new(e)))?;
        let pfair_unknown = infeasible::pfair_percentage(&ranking, &rep.unknown, &unknown_bounds)
            .map_err(|e| CliError::Algorithm(Box::new(e)))?;
        let entry = &mut sums[rep.size_idx][alg_idx];
        entry[0] += ndcg;
        entry[1] += pfair_known;
        entry[2] += pfair_unknown;
        counts[rep.size_idx][alg_idx] += 1;
    }

    let mut out = format!(
        "experiment: {} sizes x {reps} reps x {} algorithms = {total} chunks (job {}, {})\n\n",
        sizes.len(),
        algorithms.len(),
        snapshot.id,
        panel.caption()
    );
    let metric_names = [
        ("NDCG (mean)", 0usize, 4usize),
        ("% P-fair, known Sex-Age (mean)", 1, 1),
        ("% P-fair, unknown Housing (mean)", 2, 1),
    ];
    let csv = args.get("csv").is_some_and(|v| v == "true");
    for (title, metric, decimals) in metric_names {
        let mut headers = vec!["n".to_string()];
        headers.extend(algorithms.iter().map(|a| a.label().to_string()));
        let mut table = eval_stats::table::Table::new(headers).with_title(title.to_string());
        for (size_idx, &n) in sizes.iter().enumerate() {
            let mut row = vec![n.to_string()];
            for alg_idx in 0..algorithms.len() {
                let mean = sums[size_idx][alg_idx][metric] / counts[size_idx][alg_idx] as f64;
                row.push(format!("{mean:.decimals$}"));
            }
            table.add_row(row);
        }
        if csv {
            out.push_str(&table.render_csv());
        } else {
            out.push_str(&table.render());
            out.push('\n');
        }
    }
    Ok(out)
}

/// Parse `--sizes 10,20,30`.
fn parse_sizes(text: &str) -> Result<Vec<usize>> {
    let sizes: Vec<usize> = text
        .split(',')
        .map(|tok| tok.trim().parse::<usize>())
        .collect::<std::result::Result<_, _>>()
        .map_err(|_| {
            CliError::Usage(format!(
                "--sizes expects a comma-separated list of integers, got `{text}`"
            ))
        })?;
    if sizes.is_empty() || sizes.contains(&0) {
        return Err(CliError::Usage(
            "--sizes needs at least one positive size".to_string(),
        ));
    }
    Ok(sizes)
}

/// Load the dataset: `--data` streams a file through the shared
/// reader (`--format statlog|csv`, sniffed from the extension by
/// default); otherwise the seeded synthetic generator. A fresh `.frix`
/// sidecar next to the file (see `fairrank index`) switches ingest to
/// the chunk-parallel path on up to `--jobs` threads (0 = one per
/// CPU) — the loaded dataset is identical either way.
fn load_data(args: &Args, seed: u64) -> Result<GermanCredit> {
    match args.get("data") {
        None => Ok(GermanCredit::generate(&mut StdRng::seed_from_u64(
            seed ^ 0xDA7A,
        ))),
        Some(path) => {
            let jobs = args.get_usize("jobs", 0)?;
            let loaded = match dataset_format(args, path)? {
                DataFormat::Statlog => uci::load_statlog_with_jobs(path, jobs),
                DataFormat::Csv => GermanCredit::load_csv_with_jobs(path, jobs),
            };
            loaded.map_err(|e| CliError::Input(e.to_string()))
        }
    }
}

/// The two on-disk dataset formats `--data` accepts.
pub(crate) enum DataFormat {
    /// UCI Statlog `german.data` (space-separated).
    Statlog,
    /// The `age,sex,housing,credit_amount` interchange CSV.
    Csv,
}

/// Resolve `--format` (sniffed from the extension when absent) — also
/// used by `fairrank index` so both commands agree on the dialect.
pub(crate) fn dataset_format(args: &Args, path: &str) -> Result<DataFormat> {
    match args.get("format") {
        Some("statlog") => Ok(DataFormat::Statlog),
        Some("csv") => Ok(DataFormat::Csv),
        Some(other) => Err(CliError::Usage(format!(
            "--format must be `statlog` or `csv`, got `{other}`"
        ))),
        None if path.ends_with(".csv") => Ok(DataFormat::Csv),
        None => Ok(DataFormat::Statlog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(std::string::ToString::to_string)).unwrap()
    }

    #[test]
    fn runs_a_tiny_synthetic_sweep() {
        let out = experiment(&args(&[
            "experiment",
            "--sizes",
            "10,20",
            "--reps",
            "2",
            "--samples",
            "3",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("NDCG (mean)"), "{out}");
        assert!(out.contains("% P-fair, unknown Housing (mean)"), "{out}");
        assert!(out.contains("Mallows(15)"), "{out}");
        assert!(
            out.contains("2 sizes x 2 reps x 6 algorithms = 24 chunks"),
            "{out}"
        );
    }

    #[test]
    fn equal_seeds_give_equal_output() {
        let run = |seed: &str| {
            experiment(&args(&[
                "experiment",
                "--sizes",
                "10",
                "--reps",
                "2",
                "--samples",
                "2",
                "--seed",
                seed,
            ]))
            .unwrap()
        };
        let a = run("9");
        let b = run("9");
        let c = run("10");
        // strip the job-id line: ids are engine-local
        let strip = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&a), strip(&b));
        assert_ne!(strip(&a), strip(&c));
    }

    #[test]
    fn streams_a_csv_dataset_from_disk() {
        let data = GermanCredit::generate(&mut StdRng::seed_from_u64(3));
        let path = std::env::temp_dir().join("fairrank_experiment_data.csv");
        std::fs::write(&path, data.to_csv()).unwrap();
        let out = experiment(&args(&[
            "experiment",
            "--data",
            path.to_str().unwrap(),
            "--sizes",
            "10",
            "--reps",
            "1",
            "--samples",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("NDCG"), "{out}");
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(matches!(
            experiment(&args(&["experiment", "--sizes", "ten"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            experiment(&args(&["experiment", "--sizes", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            experiment(&args(&[
                "experiment",
                "--data",
                "/nonexistent",
                "--format",
                "weird"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            experiment(&args(&["experiment", "--data", "/nonexistent.csv"])),
            Err(CliError::Input(_))
        ));
    }
}

//! The German-Credit evaluation pipeline shared by Figs. 5, 6 and 7 —
//! re-expressed as **job specs executed on the engine core**.
//!
//! Per repetition (15 at paper scale):
//!
//! 1. sample `n` records from the German Credit dataset (synthetic, or
//!    streamed from disk by the caller);
//! 2. build one [`RankJob`] chunk per algorithm — DetConstSort,
//!    ApproxMultiValuedIPF, the ILP/DP, Mallows (1 sample), Mallows
//!    (best of 15 by NDCG) — in the panel's configuration
//!    (θ ∈ {0.5, 1}, constraint noise σ ∈ {0, 1}) via [`cell_job`];
//! 3. execute every chunk through the engine's algorithm
//!    [`Registry`] — the same `RankJob → RankResult` core behind
//!    `POST /rank` and `POST /jobs` — so experiment cells and served
//!    requests are literally the same computation;
//! 4. record, per output ranking:
//!    * `% P-fair positions` w.r.t. Sex-Age (Fig. 5, known attribute),
//!    * `% P-fair positions` w.r.t. Housing (Fig. 6, unknown attribute),
//!    * NDCG against the credit amounts (Fig. 7).

use fair_baselines as baselines;
use fair_datasets::GermanCredit;
use fairness_metrics::{infeasible, FairnessBounds};
use fairrank_engine::job::{JobInput, JobParams, RankJob};
use fairrank_engine::registry::Registry;
use fairrank_engine::tables::ExecContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_core::quality;
use ranking_core::Permutation;

/// The algorithms evaluated in Figs. 5–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The weakly-fair input ranking itself (reference row).
    WeaklyFairInput,
    /// DetConstSort (Geyik et al.).
    DetConstSort,
    /// ApproxMultiValuedIPF (Wei et al.).
    ApproxIpf,
    /// The DCG-optimal ILP (via the exact DP solver).
    Ilp,
    /// Algorithm 1, single Mallows sample.
    MallowsSingle,
    /// Algorithm 1, best of 15 samples by NDCG.
    MallowsBestOf15,
}

impl Algorithm {
    /// All algorithms in display order.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::WeaklyFairInput,
            Algorithm::DetConstSort,
            Algorithm::ApproxIpf,
            Algorithm::Ilp,
            Algorithm::MallowsSingle,
            Algorithm::MallowsBestOf15,
        ]
    }

    /// Short column label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::WeaklyFairInput => "input",
            Algorithm::DetConstSort => "DetConstSort",
            Algorithm::ApproxIpf => "ApproxIPF",
            Algorithm::Ilp => "ILP",
            Algorithm::MallowsSingle => "Mallows(1)",
            Algorithm::MallowsBestOf15 => "Mallows(15)",
        }
    }
}

/// One panel of Figs. 5–7 (a θ/σ combination).
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    /// Mallows dispersion θ.
    pub theta: f64,
    /// Constraint-noise standard deviation σ.
    pub noise_sd: f64,
}

impl Panel {
    /// The four panels (a)–(d) of the paper's Figs. 5–7.
    fn paper_panels() -> [Panel; 4] {
        [
            Panel {
                theta: 0.5,
                noise_sd: 0.0,
            },
            Panel {
                theta: 1.0,
                noise_sd: 0.0,
            },
            Panel {
                theta: 0.5,
                noise_sd: 1.0,
            },
            Panel {
                theta: 1.0,
                noise_sd: 1.0,
            },
        ]
    }

    /// Panel caption, e.g. `θ = 0.5, σ = 1`.
    pub fn caption(&self) -> String {
        if self.noise_sd == 0.0 {
            format!("theta = {}, no constraint noise", self.theta)
        } else {
            format!(
                "theta = {}, constraint noise sigma = {}",
                self.theta, self.noise_sd
            )
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
struct PipelineConfig {
    /// Ranking sizes to sweep (paper: 10, 20, …, 100).
    pub sizes: Vec<usize>,
    /// Repetitions per size (paper: 15).
    pub repetitions: usize,
    /// Samples for the best-of Mallows variant (paper: 15).
    pub mallows_samples: usize,
}

impl PipelineConfig {
    /// Paper-scale configuration.
    pub fn paper() -> Self {
        PipelineConfig {
            sizes: (1..=10).map(|i| i * 10).collect(),
            repetitions: 15,
            mallows_samples: 15,
        }
    }

    /// Quick configuration for smoke runs and benches.
    pub fn quick() -> Self {
        PipelineConfig {
            sizes: vec![10, 20, 30, 40, 50],
            repetitions: 5,
            mallows_samples: 15,
        }
    }
}

/// Per-(size, algorithm) raw measurements across repetitions.
#[derive(Debug, Clone, Default)]
struct Measurements {
    /// `% P-fair positions` w.r.t. the known Sex-Age attribute.
    pub ppfair_known: Vec<f64>,
    /// `% P-fair positions` w.r.t. the unknown Housing attribute.
    pub ppfair_unknown: Vec<f64>,
    /// NDCG against credit amounts.
    pub ndcg: Vec<f64>,
}

/// Results of one panel: `per_size[size_idx][algorithm_idx]`.
#[derive(Debug, Clone)]
struct PanelResults {
    /// The sizes swept.
    pub sizes: Vec<usize>,
    /// Raw measurements per size per algorithm (see [`Algorithm::all`]).
    pub per_size: Vec<Vec<Measurements>>,
    /// Number of repetitions where the exact ILP was infeasible and fell
    /// back to the input ranking (expected 0; tracked for transparency).
    pub ilp_fallbacks: usize,
}

/// Build the [`RankJob`] chunk for one experiment cell — the same job
/// shape `POST /rank` and `POST /jobs` accept, so an experiment cell
/// can be served, queued, cached and cancelled like any other engine
/// work. `groups` is the *known* attribute column; the unknown
/// attribute never enters the job, mirroring the paper's setup.
pub fn cell_job(
    alg: Algorithm,
    scores: Vec<f64>,
    groups: Vec<usize>,
    panel: Panel,
    mallows_samples: usize,
    seed: u64,
) -> RankJob {
    let (algorithm, samples) = match alg {
        Algorithm::WeaklyFairInput => ("weakly-fair", 1),
        Algorithm::DetConstSort => ("detconstsort", 1),
        Algorithm::ApproxIpf => ("ipf", 1),
        Algorithm::Ilp => ("ilp", 1),
        Algorithm::MallowsSingle => ("mallows", 1),
        Algorithm::MallowsBestOf15 => ("mallows", mallows_samples),
    };
    RankJob {
        algorithm: algorithm.to_string(),
        input: JobInput::Scores { scores, groups },
        params: JobParams {
            theta: panel.theta,
            samples,
            // exact proportional bounds, as the paper's pipeline uses
            tolerance: 0.0,
            noise_sd: panel.noise_sd,
            seed,
            ..JobParams::default()
        },
    }
}

/// Run one panel of the German-Credit pipeline through the engine's
/// algorithm registry (one [`RankJob`] per cell, executed on the same
/// core as the HTTP endpoints).
fn run_panel(
    data: &GermanCredit,
    config: &PipelineConfig,
    panel: Panel,
    rng: &mut StdRng,
) -> PanelResults {
    let algorithms = Algorithm::all();
    let registry = Registry::standard();
    let ctx = ExecContext::default();
    let mut per_size = Vec::with_capacity(config.sizes.len());
    let mut ilp_fallbacks = 0usize;

    let all_scores = data.credit_amounts();
    let sex_age = data.sex_age_groups();
    let housing = data.housing_groups();

    for &n in &config.sizes {
        let mut cell: Vec<Measurements> = vec![Measurements::default(); algorithms.len()];
        for _rep in 0..config.repetitions {
            let idx = data.sample_indices(n, rng);
            let scores: Vec<f64> = idx.iter().map(|&i| all_scores[i]).collect();
            let known = sex_age.subset(&idx);
            let unknown = housing.subset(&idx);
            let known_bounds = FairnessBounds::from_assignment(&known);
            let unknown_bounds = FairnessBounds::from_assignment(&unknown);

            let input = baselines::weakly_fair_ranking(&scores, &known, &known_bounds);

            for (a_idx, alg) in algorithms.iter().enumerate() {
                let seed: u64 = rng.random();
                let job = cell_job(
                    *alg,
                    scores.clone(),
                    known.as_slice().to_vec(),
                    panel,
                    config.mallows_samples,
                    seed,
                );
                let algorithm = registry.get(&job.algorithm).expect("registered algorithm");
                // same per-job seeding discipline as `Engine::submit`
                let mut job_rng = StdRng::seed_from_u64(seed);
                let ranking = match algorithm.run(&job, &ctx, &mut job_rng) {
                    Ok(result) => Permutation::from_order(result.ranking)
                        .expect("registry returns permutations"),
                    Err(_) if *alg == Algorithm::Ilp => {
                        // noisy constraints can be infeasible: fall
                        // back to the input ranking, as the paper does
                        ilp_fallbacks += 1;
                        input.clone()
                    }
                    Err(e) => panic!("{}: {e}", alg.label()),
                };
                let m = &mut cell[a_idx];
                m.ppfair_known.push(
                    infeasible::pfair_percentage(&ranking, &known, &known_bounds)
                        .expect("consistent shapes"),
                );
                m.ppfair_unknown.push(
                    infeasible::pfair_percentage(&ranking, &unknown, &unknown_bounds)
                        .expect("consistent shapes"),
                );
                m.ndcg
                    .push(quality::ndcg(&ranking, &scores).expect("consistent shapes"));
            }
        }
        per_size.push(cell);
    }
    PanelResults {
        sizes: config.sizes.clone(),
        per_size,
        ilp_fallbacks,
    }
}

/// Which measurement a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fig. 5: `% P-fair positions` w.r.t. the known Sex-Age attribute
    /// (median, as in the paper).
    PpfairKnown,
    /// Fig. 6: `% P-fair positions` w.r.t. the unknown Housing attribute
    /// (median).
    PpfairUnknown,
    /// Fig. 7: NDCG of the output rankings (mean ± std).
    Ndcg,
}

impl Metric {
    fn select<'m>(&self, m: &'m Measurements) -> &'m [f64] {
        match self {
            Metric::PpfairKnown => &m.ppfair_known,
            Metric::PpfairUnknown => &m.ppfair_unknown,
            Metric::Ndcg => &m.ndcg,
        }
    }

    fn statistic(&self) -> eval_stats::Statistic {
        match self {
            Metric::Ndcg => eval_stats::Statistic::Mean,
            _ => eval_stats::Statistic::Median,
        }
    }

    fn decimals(&self) -> usize {
        match self {
            Metric::Ndcg => 4,
            _ => 1,
        }
    }
}

/// Run all four paper panels and print one table per panel for the given
/// metric — the shared driver behind the `fig5`, `fig6` and `fig7`
/// binaries.
pub fn run_and_print(opts: &crate::Options, metric: Metric, figure_name: &str) {
    use eval_stats::table::{pm, Table};

    let config = if opts.full {
        PipelineConfig::paper()
    } else {
        PipelineConfig::quick()
    };
    println!(
        "{figure_name}: sizes {:?}, {} repetitions, bootstrap resamples {}\n",
        config.sizes,
        config.repetitions,
        opts.bootstrap_n()
    );

    let mut data_rng = opts.rng(0xDA7A);
    let data = GermanCredit::generate(&mut data_rng);

    for (p_idx, panel) in Panel::paper_panels().into_iter().enumerate() {
        let mut rng = opts.rng(0x5000 | p_idx as u64);
        let results = run_panel(&data, &config, panel, &mut rng);

        let mut headers = vec!["n".to_string()];
        headers.extend(Algorithm::all().iter().map(|a| a.label().to_string()));
        let mut table = Table::new(headers).with_title(format!(
            "Panel ({}): {}",
            (b'a' + p_idx as u8) as char,
            panel.caption()
        ));

        for (s_idx, &n) in results.sizes.iter().enumerate() {
            let mut row = vec![n.to_string()];
            for (a_idx, _) in Algorithm::all().iter().enumerate() {
                let values = metric.select(&results.per_size[s_idx][a_idx]);
                let stream = (p_idx as u64) << 16 | (s_idx as u64) << 8 | a_idx as u64;
                let ci = opts.ci(values, metric.statistic(), stream);
                row.push(pm(ci.point, ci.half_width(), metric.decimals()));
            }
            table.add_row(row);
        }
        opts.print_table(&table);
        if results.ilp_fallbacks > 0 {
            println!(
                "note: ILP infeasible fallbacks in this panel: {}",
                results.ilp_fallbacks
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            sizes: vec![10, 20],
            repetitions: 2,
            mallows_samples: 3,
        }
    }

    #[test]
    fn panel_produces_all_measurements() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = GermanCredit::generate(&mut rng);
        let res = run_panel(
            &data,
            &tiny_config(),
            Panel {
                theta: 1.0,
                noise_sd: 0.0,
            },
            &mut rng,
        );
        assert_eq!(res.sizes, vec![10, 20]);
        assert_eq!(res.per_size.len(), 2);
        for cell in &res.per_size {
            assert_eq!(cell.len(), Algorithm::all().len());
            for m in cell {
                assert_eq!(m.ppfair_known.len(), 2);
                assert_eq!(m.ppfair_unknown.len(), 2);
                assert_eq!(m.ndcg.len(), 2);
                for &v in &m.ndcg {
                    assert!((0.0..=1.0 + 1e-9).contains(&v));
                }
                for &v in m.ppfair_known.iter().chain(&m.ppfair_unknown) {
                    assert!((0.0..=100.0).contains(&v));
                }
            }
        }
    }

    #[test]
    fn ilp_row_dominates_ndcg_without_noise() {
        // the exact DCG-optimal fair ranking cannot lose to the other
        // *fairness-enforcing* algorithms on NDCG (Mallows may exceed it
        // since Mallows does not enforce the constraints)
        let mut rng = StdRng::seed_from_u64(2);
        let data = GermanCredit::generate(&mut rng);
        let res = run_panel(
            &data,
            &tiny_config(),
            Panel {
                theta: 1.0,
                noise_sd: 0.0,
            },
            &mut rng,
        );
        assert_eq!(
            res.ilp_fallbacks, 0,
            "exact proportional bounds must be feasible"
        );
        for cell in &res.per_size {
            let ilp_mean = eval_stats::stats::mean(&cell[3].ndcg);
            let ipf_mean = eval_stats::stats::mean(&cell[2].ndcg);
            assert!(
                ilp_mean + 1e-9 >= ipf_mean,
                "ILP {ilp_mean} vs IPF {ipf_mean}"
            );
        }
    }

    #[test]
    fn noisy_panel_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = GermanCredit::generate(&mut rng);
        let res = run_panel(
            &data,
            &tiny_config(),
            Panel {
                theta: 0.5,
                noise_sd: 1.0,
            },
            &mut rng,
        );
        assert_eq!(res.per_size.len(), 2);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = Algorithm::all()
            .iter()
            .map(super::Algorithm::label)
            .collect();
        assert_eq!(labels.len(), Algorithm::all().len());
    }
}

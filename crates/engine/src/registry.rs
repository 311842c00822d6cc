//! The algorithm registry: every aggregator and fair post-processor in
//! the workspace, registered by its canonical name behind a common
//! `RankJob → RankResult` trait object.
//!
//! Pipeline stage names are shared with the umbrella crate's
//! [`fairness_ranking::pipeline::PipelineSpec`]. The `fairrank` CLI
//! runs its `rank`, `aggregate` and `pipeline` commands through this
//! registry too (via [`execute`], the step the engine's workers run),
//! so a job gives the same result from the command line, `POST /rank`,
//! a `/jobs` chunk or the router.

use crate::job::{Criterion, JobInput, RankJob, RankResult};
use crate::plan::ScorePlan;
use crate::tables::ExecContext;
use crate::EngineError;
use fair_baselines::{
    approx_multi_valued_ipf, det_const_sort, fa_ir, fair_top_k, gr_binary_ipf,
    optimal_fair_ranking_dp, optimal_fair_ranking_kt, DetConstSortConfig, FaIrConfig, FairnessMode,
    IpfConfig,
};
use fair_mallows::MallowsFairRanker;
use fairness_metrics::{FairnessBounds, GroupAssignment};
use fairness_ranking::pipeline::{Aggregator, PipelineSpec, PostProcessor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::Discount;
use ranking_core::Permutation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a registered algorithm consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Consumes a vote profile, produces a consensus.
    Aggregator,
    /// Consumes a scored candidate pool, produces a fair(er) ranking.
    PostProcessor,
    /// Consumes a vote profile, produces consensus + fair ranking.
    Pipeline,
}

/// A named algorithm the engine can execute. Implementations must be
/// [`Send`]`+`[`Sync`]: one instance is shared by every worker thread.
pub trait Algorithm: Send + Sync {
    /// Registry name.
    fn name(&self) -> &str;

    /// Input contract.
    fn kind(&self) -> AlgorithmKind;

    /// Execute a job. `rng` is seeded per job by the engine, so equal
    /// jobs produce equal results regardless of worker interleaving;
    /// `ctx` carries engine-wide shared resources (the sampler-table
    /// cache).
    fn run(
        &self,
        job: &RankJob,
        ctx: &ExecContext,
        rng: &mut StdRng,
    ) -> Result<RankResult, EngineError>;
}

/// Run `job` on `algorithm` with an RNG seeded from `job.params.seed`:
/// the one execution step behind every entry point (the engine's
/// workers and the in-process CLI), so equal jobs give equal results
/// wherever they are submitted.
pub fn execute(
    algorithm: &dyn Algorithm,
    job: &RankJob,
    ctx: &ExecContext,
) -> Result<RankResult, EngineError> {
    let mut rng = StdRng::seed_from_u64(job.params.seed);
    algorithm.run(job, ctx, &mut rng)
}

type RunFn = Box<
    dyn Fn(&RankJob, &ExecContext, &mut StdRng) -> Result<RankResult, EngineError> + Send + Sync,
>;

struct FnAlgorithm {
    name: &'static str,
    kind: AlgorithmKind,
    run: RunFn,
}

impl Algorithm for FnAlgorithm {
    fn name(&self) -> &str {
        self.name
    }

    fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    fn run(
        &self,
        job: &RankJob,
        ctx: &ExecContext,
        rng: &mut StdRng,
    ) -> Result<RankResult, EngineError> {
        (self.run)(job, ctx, rng)
    }
}

/// Name → algorithm map.
pub struct Registry {
    map: BTreeMap<String, Arc<dyn Algorithm>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            map: BTreeMap::new(),
        }
    }

    /// The standard registry: all five aggregators, all fair
    /// post-processors and baselines, and the two-stage pipeline.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        for agg in Aggregator::ALL {
            r.register_fn(
                agg.name(),
                AlgorithmKind::Aggregator,
                move |job, _ctx, rng| run_aggregator(agg, job, rng),
            );
        }
        r.register_fn("pipeline", AlgorithmKind::Pipeline, |job, _ctx, rng| {
            run_pipeline(job, rng)
        });
        for name in SCORE_ALGORITHMS {
            r.register_fn(name, AlgorithmKind::PostProcessor, move |job, ctx, rng| {
                run_score_algorithm(name, job, ctx, rng)
            });
        }
        r
    }

    fn register_fn(
        &mut self,
        name: &'static str,
        kind: AlgorithmKind,
        run: impl Fn(&RankJob, &ExecContext, &mut StdRng) -> Result<RankResult, EngineError>
            + Send
            + Sync
            + 'static,
    ) {
        self.register(Arc::new(FnAlgorithm {
            name,
            kind,
            run: Box::new(run),
        }));
    }

    /// Register an algorithm under its own name (replacing any previous
    /// entry with that name).
    pub fn register(&mut self, algorithm: Arc<dyn Algorithm>) {
        self.map.insert(algorithm.name().to_string(), algorithm);
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Algorithm>> {
        self.map.get(name).cloned()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }

    /// Registered names of one kind, sorted.
    pub fn names_of_kind(&self, kind: AlgorithmKind) -> Vec<&str> {
        self.map
            .iter()
            .filter(|(_, a)| a.kind() == kind)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

/// Score-pool algorithms (`POST /rank`, `fairrank rank --algorithm …`).
const SCORE_ALGORITHMS: [&str; 9] = [
    "weakly-fair",
    "mallows",
    "detconstsort",
    "ipf",
    "exact-kt",
    "gr-binary",
    "ilp",
    "fair-top-k",
    "fa-ir",
];

fn invalid(message: impl Into<String>) -> EngineError {
    EngineError::InvalidJob(message.into())
}

fn algo_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> EngineError {
    EngineError::Algorithm(Box::new(e))
}

/// Dense group assignment from a job's `groups` column (empty ⇒ one
/// group containing everything).
///
/// The group count is the largest id + 1, and bounds, steps and centre
/// allocate and loop per group, so an id is bounded by the pool size:
/// a pool of `n` items has at most `n` non-empty groups.
fn group_assignment(groups: &[usize], n: usize) -> Result<GroupAssignment, EngineError> {
    if groups.is_empty() {
        return GroupAssignment::new(vec![0; n], 1).map_err(algo_err);
    }
    if groups.len() != n {
        return Err(invalid(format!(
            "groups has {} entries, expected {n}",
            groups.len()
        )));
    }
    if let Some(&id) = groups.iter().find(|&&g| g >= n) {
        return Err(invalid(format!(
            "group id {id} is out of range: {n} items have ids 0..{n}"
        )));
    }
    let num_groups = groups.iter().max().map_or(1, |&g| g + 1);
    GroupAssignment::new(groups.to_vec(), num_groups).map_err(algo_err)
}

fn votes_input(job: &RankJob) -> Result<(Vec<Permutation>, GroupAssignment), EngineError> {
    let JobInput::Votes { votes, groups } = &job.input else {
        return Err(invalid(format!(
            "algorithm `{}` expects a vote profile",
            job.algorithm
        )));
    };
    if votes.is_empty() {
        return Err(invalid("empty vote profile"));
    }
    let parsed: Vec<Permutation> = votes
        .iter()
        .map(|v| Permutation::from_order(v.clone()))
        .collect::<Result<_, _>>()
        .map_err(algo_err)?;
    let n = parsed[0].len();
    if parsed.iter().any(|p| p.len() != n) {
        return Err(invalid("votes have mismatched lengths"));
    }
    Ok((parsed, group_assignment(groups, n)?))
}

fn scores_input(job: &RankJob) -> Result<(&[f64], GroupAssignment), EngineError> {
    let JobInput::Scores { scores, groups } = &job.input else {
        return Err(invalid(format!(
            "algorithm `{}` expects a scored candidate pool",
            job.algorithm
        )));
    };
    if scores.is_empty() {
        return Err(invalid("empty candidate pool"));
    }
    if scores.iter().any(|s| !s.is_finite()) {
        return Err(invalid("scores must be finite"));
    }
    // every DCG the job computes is bounded by Σ|s| (discounts are at
    // most 1), so a finite sum keeps every reported metric finite
    if !scores.iter().map(|s| s.abs()).sum::<f64>().is_finite() {
        return Err(invalid(
            "scores are too large: their absolute sum overflows",
        ));
    }
    Ok((scores, group_assignment(groups, scores.len())?))
}

fn run_aggregator(
    aggregator: Aggregator,
    job: &RankJob,
    rng: &mut StdRng,
) -> Result<RankResult, EngineError> {
    let (votes, groups) = votes_input(job)?;
    let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, job.params.tolerance);
    let out = PipelineSpec {
        aggregator,
        post: PostProcessor::None,
    }
    .build()
    .run(&votes, &groups, &bounds, rng)
    .map_err(algo_err)?;
    Ok(RankResult {
        algorithm: job.algorithm.clone(),
        ranking: out.consensus.as_order().to_vec(),
        consensus: None,
        metrics: vec![
            (
                "total_kendall_distance".into(),
                out.consensus_total_kt as f64,
            ),
            ("infeasible_index".into(), out.consensus_infeasible as f64),
        ],
    })
}

fn run_pipeline(job: &RankJob, rng: &mut StdRng) -> Result<RankResult, EngineError> {
    let (votes, groups) = votes_input(job)?;
    let p = &job.params;
    let spec = PipelineSpec::parse(&p.method, &p.post, p.theta, p.samples).ok_or_else(|| {
        invalid(format!(
            "unknown pipeline stage `{}` + `{}`",
            p.method, p.post
        ))
    })?;
    let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, p.tolerance);
    let out = spec
        .build()
        .run(&votes, &groups, &bounds, rng)
        .map_err(algo_err)?;
    Ok(RankResult {
        algorithm: job.algorithm.clone(),
        ranking: out.fair_ranking.as_order().to_vec(),
        consensus: Some(out.consensus.as_order().to_vec()),
        metrics: vec![
            ("consensus_total_kt".into(), out.consensus_total_kt as f64),
            ("fair_total_kt".into(), out.fair_total_kt as f64),
            (
                "consensus_infeasible".into(),
                out.consensus_infeasible as f64,
            ),
            ("fair_infeasible".into(), out.fair_infeasible as f64),
        ],
    })
}

/// Sample counts at or above this run Algorithm 1 in parallel batches
/// (deterministic per job — the batch split depends only on `samples`).
const PARALLEL_SAMPLE_THRESHOLD: usize = 64;

/// Batch count for a parallel mallows job: ~16 samples per batch,
/// capped so small machines are not oversubscribed.
fn mallows_batches(samples: usize) -> usize {
    samples.div_ceil(16).min(8)
}

fn run_score_algorithm(
    name: &str,
    job: &RankJob,
    ctx: &ExecContext,
    rng: &mut StdRng,
) -> Result<RankResult, EngineError> {
    let (scores, groups) = scores_input(job)?;
    let p = &job.params;
    let n = scores.len();
    let k = p.k.unwrap_or(n).min(n);
    // one sort and one bound compile, read by the centre, the kernel
    // and the report
    let mut plan = ScorePlan::new(scores, groups, p.tolerance);
    let (groups, bounds) = (plan.groups(), plan.bounds());
    // per-algorithm extras appended after the shared utility/fairness
    // report (e.g. the mallows early-abandon counter surfaced in
    // `/stats` as `criterion_samples_abandoned`)
    let mut extra_metrics: Vec<(String, f64)> = Vec::new();
    let order: Vec<usize> = match name {
        "weakly-fair" => plan.centre().into_order(),
        "mallows" => {
            let criterion = match p.criterion {
                Criterion::Ndcg => fair_mallows::Criterion::MaxNdcg(scores.to_vec()),
                Criterion::Infeasible => fair_mallows::Criterion::MinInfeasibleIndex {
                    groups: groups.clone(),
                    bounds: bounds.clone(),
                },
                Criterion::Kendall => fair_mallows::Criterion::MinKendallTau,
            };
            let ranker = MallowsFairRanker::new(p.theta, p.samples, criterion).map_err(algo_err)?;
            let center = plan.centre();
            // the insertion-CDF table is cached across requests keyed
            // on (n, θ); wide sample counts fan out across threads, and
            // the sequential loop may evaluate on a second one
            let tables = ctx
                .tables
                .get_or_build(center.len(), p.theta)
                .map_err(algo_err)?;
            let pre = plan.precomputed();
            let out = if p.samples >= PARALLEL_SAMPLE_THRESHOLD {
                ranker.rank_batched_precomputed(
                    &center,
                    &tables,
                    pre,
                    p.seed,
                    mallows_batches(p.samples),
                    ctx.batch_threads,
                )
            } else {
                ranker.rank_precomputed(&center, &tables, pre, ctx.batch_threads, rng)
            };
            let out = out.map_err(algo_err)?;
            extra_metrics.push((
                "criterion_samples_abandoned".to_string(),
                out.samples_abandoned as f64,
            ));
            out.ranking.into_order()
        }
        "detconstsort" => det_const_sort(
            scores,
            groups,
            bounds,
            &DetConstSortConfig {
                noise_sd: p.noise_sd,
            },
            rng,
        )
        .map_err(algo_err)?
        .into_order(),
        "ipf" => {
            // IPF post-processes the weakly-fair ranking (the paper's
            // pipeline input), not the raw score order
            approx_multi_valued_ipf(
                &plan.centre(),
                groups,
                bounds,
                &IpfConfig {
                    noise_sd: p.noise_sd,
                },
                rng,
            )
            .map_err(algo_err)?
            .ranking
            .into_order()
        }
        "exact-kt" => optimal_fair_ranking_kt(plan.order(), groups, &bounds.tables(n))
            .map_err(algo_err)?
            .into_order(),
        "gr-binary" => gr_binary_ipf(plan.order(), groups, bounds)
            .map_err(algo_err)?
            .into_order(),
        "ilp" => {
            let tables = if p.noise_sd > 0.0 {
                fair_baselines::noisy_tables(bounds, n, p.noise_sd, rng)
            } else {
                bounds.tables(n)
            };
            optimal_fair_ranking_dp(scores, groups, &tables, Discount::Log2)
                .map_err(algo_err)?
                .into_order()
        }
        "fair-top-k" => fair_top_k(
            scores,
            groups,
            bounds,
            k,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .map_err(algo_err)?,
        "fa-ir" => {
            if p.protected >= groups.num_groups() {
                return Err(invalid(format!(
                    "protected group {} out of range ({} groups)",
                    p.protected,
                    groups.num_groups()
                )));
            }
            let share = groups.proportions()[p.protected];
            let config = FaIrConfig {
                min_proportion: p.proportion.unwrap_or(share),
                significance: p.alpha,
                adjust: true,
            };
            fa_ir(scores, groups, p.protected, k, &config).map_err(algo_err)?
        }
        other => return Err(EngineError::UnknownAlgorithm(other.to_string())),
    };
    let mut metrics = plan.report(&order);
    metrics.extend(extra_metrics);
    Ok(RankResult {
        algorithm: job.algorithm.clone(),
        ranking: order,
        consensus: None,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobParams;
    use fair_baselines::weakly_fair_ranking;

    fn scores_job(algorithm: &str) -> RankJob {
        RankJob {
            algorithm: algorithm.to_string(),
            input: JobInput::Scores {
                scores: vec![0.95, 0.9, 0.85, 0.8, 0.6, 0.55, 0.5, 0.45],
                groups: vec![0, 0, 0, 0, 1, 1, 1, 1],
            },
            params: JobParams {
                samples: 5,
                ..JobParams::default()
            },
        }
    }

    fn votes_job(algorithm: &str) -> RankJob {
        RankJob {
            algorithm: algorithm.to_string(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1, 2, 3], vec![0, 1, 3, 2], vec![1, 0, 2, 3]],
                groups: vec![0, 0, 1, 1],
            },
            params: JobParams {
                tolerance: 0.2,
                ..JobParams::default()
            },
        }
    }

    #[test]
    fn standard_registry_has_all_names() {
        let r = Registry::standard();
        for name in ["borda", "copeland", "footrule", "kemeny", "markov"] {
            assert_eq!(
                r.get(name).unwrap().kind(),
                AlgorithmKind::Aggregator,
                "{name}"
            );
        }
        for name in SCORE_ALGORITHMS {
            assert_eq!(
                r.get(name).unwrap().kind(),
                AlgorithmKind::PostProcessor,
                "{name}"
            );
        }
        assert_eq!(r.get("pipeline").unwrap().kind(), AlgorithmKind::Pipeline);
        assert!(r.get("nope").is_none());
        assert_eq!(r.names().len(), 15);
    }

    #[test]
    fn every_score_algorithm_produces_a_valid_ranking() {
        let r = Registry::standard();
        for name in SCORE_ALGORITHMS {
            let job = scores_job(name);
            let mut rng = StdRng::seed_from_u64(7);
            let out = r
                .get(name)
                .unwrap()
                .run(&job, &ExecContext::default(), &mut rng)
                .unwrap_or_else(|e| {
                    panic!("{name}: {e}");
                });
            let mut sorted = out.ranking.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.ranking.len(), "{name}: duplicate items");
            assert!(out.ranking.len() <= 8, "{name}");
            assert!(out.metric("ndcg_within_selection").is_some(), "{name}");
        }
    }

    #[test]
    fn every_aggregator_recovers_unanimity() {
        let r = Registry::standard();
        let votes = vec![vec![2, 0, 3, 1]; 4];
        for name in ["borda", "copeland", "footrule", "kemeny", "markov"] {
            let job = RankJob {
                algorithm: name.to_string(),
                input: JobInput::Votes {
                    votes: votes.clone(),
                    groups: vec![],
                },
                params: JobParams::default(),
            };
            let mut rng = StdRng::seed_from_u64(3);
            let out = r
                .get(name)
                .unwrap()
                .run(&job, &ExecContext::default(), &mut rng)
                .unwrap();
            assert_eq!(out.ranking, vec![2, 0, 3, 1], "{name}");
            assert_eq!(out.metric("total_kendall_distance"), Some(0.0), "{name}");
        }
    }

    #[test]
    fn pipeline_matches_direct_library_call() {
        use fairness_ranking::pipeline::FairAggregationPipeline;

        let job = RankJob {
            algorithm: "pipeline".to_string(),
            params: JobParams {
                method: "borda".into(),
                post: "mallows".into(),
                theta: 1.0,
                samples: 15,
                tolerance: 0.2,
                seed: 11,
                ..JobParams::default()
            },
            ..votes_job("pipeline")
        };
        let r = Registry::standard();
        let mut rng = StdRng::seed_from_u64(job.params.seed);
        let out = r
            .get("pipeline")
            .unwrap()
            .run(&job, &ExecContext::default(), &mut rng)
            .unwrap();

        // identical library call with the same seed
        let votes: Vec<Permutation> = [[0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 2, 3]]
            .iter()
            .map(|v| Permutation::from_order(v.to_vec()).unwrap())
            .collect();
        let groups = GroupAssignment::new(vec![0, 0, 1, 1], 2).unwrap();
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
        let mut lib_rng = StdRng::seed_from_u64(11);
        let lib = FairAggregationPipeline::new(
            Aggregator::Borda,
            PostProcessor::Mallows {
                theta: 1.0,
                samples: 15,
            },
        )
        .run(&votes, &groups, &bounds, &mut lib_rng)
        .unwrap();
        assert_eq!(out.ranking, lib.fair_ranking.as_order());
        assert_eq!(out.consensus.as_deref(), Some(lib.consensus.as_order()));
        assert_eq!(out.metric("fair_total_kt"), Some(lib.fair_total_kt as f64));
        assert_eq!(
            out.metric("consensus_infeasible"),
            Some(lib.consensus_infeasible as f64)
        );
    }

    #[test]
    fn kind_mismatch_is_invalid_job() {
        let r = Registry::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let err = r
            .get("borda")
            .unwrap()
            .run(&scores_job("borda"), &ExecContext::default(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidJob(_)), "{err}");
        let err = r
            .get("mallows")
            .unwrap()
            .run(&votes_job("mallows"), &ExecContext::default(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidJob(_)), "{err}");
    }

    #[test]
    fn malformed_votes_rejected() {
        let r = Registry::standard();
        let mut rng = StdRng::seed_from_u64(1);
        for votes in [
            vec![vec![0usize, 0, 1]],        // duplicate
            vec![vec![0, 1, 2], vec![0, 1]], // length mismatch
            vec![],                          // empty profile
        ] {
            let job = RankJob {
                algorithm: "borda".to_string(),
                input: JobInput::Votes {
                    votes,
                    groups: vec![],
                },
                params: JobParams::default(),
            };
            assert!(r
                .get("borda")
                .unwrap()
                .run(&job, &ExecContext::default(), &mut rng)
                .is_err());
        }
    }

    #[test]
    fn sparse_group_ids_and_overflowing_scores_are_invalid() {
        // every entry point runs jobs through `execute`, so these are
        // the checks the CLI, the HTTP routes and `/jobs` all apply
        let r = Registry::standard();
        let ctx = ExecContext::default();
        let sparse = |algorithm: &str| {
            let mut job = scores_job(algorithm);
            job.input = JobInput::Scores {
                scores: vec![0.9, 0.8, 0.4, 0.3],
                groups: vec![0, 1, 2, 10_000_000],
            };
            job
        };
        for name in SCORE_ALGORITHMS {
            let err = execute(&*r.get(name).unwrap(), &sparse(name), &ctx).unwrap_err();
            assert!(matches!(err, EngineError::InvalidJob(_)), "{name}: {err}");
            assert!(
                err.to_string().contains("group id 10000000"),
                "{name}: {err}"
            );
            // ±1e308 are finite, but their absolute sum is not
            let mut huge = scores_job(name);
            huge.input = JobInput::Scores {
                scores: vec![1e308, -1e308, 0.5, 0.25],
                groups: vec![0, 0, 1, 1],
            };
            let err = execute(&*r.get(name).unwrap(), &huge, &ctx).unwrap_err();
            assert!(matches!(err, EngineError::InvalidJob(_)), "{name}: {err}");
        }
        // a group id of n − 1 is the densest sparse assignment allowed
        let mut edge = scores_job("mallows");
        edge.input = JobInput::Scores {
            scores: vec![0.9, 0.8, 0.4, 0.3],
            groups: vec![0, 0, 3, 3],
        };
        assert!(execute(&*r.get("mallows").unwrap(), &edge, &ctx).is_ok());
        // vote jobs take their group column through the same check
        let mut votes = votes_job("borda");
        votes.input = JobInput::Votes {
            votes: vec![vec![0, 1, 2, 3]],
            groups: vec![0, 0, 1, 4],
        };
        let err = execute(&*r.get("borda").unwrap(), &votes, &ctx).unwrap_err();
        assert!(matches!(err, EngineError::InvalidJob(_)), "{err}");
    }

    #[test]
    fn fa_ir_protected_out_of_range_rejected() {
        let r = Registry::standard();
        let mut job = scores_job("fa-ir");
        job.params.protected = 5;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            r.get("fa-ir")
                .unwrap()
                .run(&job, &ExecContext::default(), &mut rng),
            Err(EngineError::InvalidJob(_))
        ));
    }

    #[test]
    fn fair_top_k_truncates() {
        let r = Registry::standard();
        let mut job = scores_job("fair-top-k");
        job.params.k = Some(4);
        let mut rng = StdRng::seed_from_u64(1);
        let out = r
            .get("fair-top-k")
            .unwrap()
            .run(&job, &ExecContext::default(), &mut rng)
            .unwrap();
        assert_eq!(out.ranking.len(), 4);
    }

    #[test]
    fn wide_mallows_jobs_fan_out_deterministically() {
        // samples ≥ PARALLEL_SAMPLE_THRESHOLD takes the batched path:
        // results must not depend on scheduling, only on the job
        let r = Registry::standard();
        let ctx = ExecContext::default();
        let mut job = scores_job("mallows");
        job.params.samples = 128;
        let runs: Vec<_> = (0..3)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(job.params.seed);
                r.get("mallows").unwrap().run(&job, &ctx, &mut rng).unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        let mut sorted = runs[0].ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // both (narrow, wide) jobs shared one cached (n, θ) table
        assert_eq!(ctx.tables.misses(), 1);
        assert_eq!(ctx.tables.hits(), 2);
    }

    #[test]
    fn mallows_runs_the_job_criterion() {
        // each job criterion selects with the matching library criterion
        let mut job = scores_job("mallows");
        job.params.theta = 0.3;
        job.params.samples = 20;
        let (scores, groups) = scores_input(&job).unwrap();
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, job.params.tolerance);
        let center = weakly_fair_ranking(scores, &groups, &bounds);
        let mallows = Registry::standard().get("mallows").unwrap();
        let mut winners = Vec::new();
        for (criterion, library) in [
            (
                Criterion::Ndcg,
                fair_mallows::Criterion::MaxNdcg(scores.to_vec()),
            ),
            (
                Criterion::Infeasible,
                fair_mallows::Criterion::MinInfeasibleIndex {
                    groups: groups.clone(),
                    bounds: bounds.clone(),
                },
            ),
            (Criterion::Kendall, fair_mallows::Criterion::MinKendallTau),
        ] {
            let mut job = job.clone();
            job.params.criterion = criterion;
            let out = execute(&*mallows, &job, &ExecContext::default()).unwrap();
            let lib = MallowsFairRanker::new(job.params.theta, job.params.samples, library)
                .unwrap()
                .rank(&center, &mut StdRng::seed_from_u64(job.params.seed))
                .unwrap();
            assert_eq!(out.ranking, lib.ranking.as_order(), "{criterion:?}");
            winners.push(out.ranking);
        }
        assert!(
            winners[0] != winners[1] || winners[1] != winners[2],
            "the criteria must not all pick the same sample here"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let r = Registry::standard();
        let job = scores_job("mallows");
        let mut a_rng = StdRng::seed_from_u64(job.params.seed);
        let mut b_rng = StdRng::seed_from_u64(job.params.seed);
        let a = r
            .get("mallows")
            .unwrap()
            .run(&job, &ExecContext::default(), &mut a_rng)
            .unwrap();
        let b = r
            .get("mallows")
            .unwrap()
            .run(&job, &ExecContext::default(), &mut b_rng)
            .unwrap();
        assert_eq!(a, b);
    }
}

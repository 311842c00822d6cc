//! The per-request score plan against independent oracles.
//!
//! The registry sorts each scored pool once and reads the order, the
//! discount table, the IDCG and the compiled bounds from that one plan
//! for the weakly-fair centre, the Mallows kernel and the metrics
//! report. Each planned step must equal, bit for bit, the version that
//! recomputes everything on its own:
//!
//! 1. the report of every score algorithm against `score_metrics`, the
//!    report as it was before the plan (sort the selection's scores,
//!    rebuild its bounds, run the naive infeasible scan) — over ties,
//!    ±0.0, one group, top-k selections (`fair-top-k`, `fa-ir`),
//!    all-zero scores and one-item pools;
//! 2. the centre against `float_bound_centre`, the greedy with per-group
//!    sorts and float `min_count`/`max_count` at every prefix;
//! 3. the mallows winner against the library ranker without
//!    precomputed constants, for every criterion;
//! 4. the packed-key score sort against the `partial_cmp` comparator
//!    on NaN-free scores; with NaN (which the comparator does not order
//!    totally) the key sort must not panic and must rank NaN last.

use fair_baselines::weakly_fair_ranking;
use fair_mallows::MallowsFairRanker;
use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use fairrank_engine::job::{Criterion, JobInput, JobParams, RankJob};
use fairrank_engine::registry::{execute, Registry};
use fairrank_engine::tables::ExecContext;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::{self, Discount};
use ranking_core::Permutation;

/// The metrics report as computed before the score plan: NDCG within
/// the selection and versus the pool ideal, infeasible index and
/// P-fair percentage over the selected items.
fn score_metrics(
    order: &[usize],
    scores: &[f64],
    groups: &GroupAssignment,
    tolerance: f64,
) -> Vec<(String, f64)> {
    let sub_scores: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
    let sub_groups = groups.subset(order);
    let sub_bounds = FairnessBounds::from_assignment_with_tolerance(&sub_groups, tolerance);
    let pi = Permutation::identity(order.len());
    let ndcg = quality::ndcg(&pi, &sub_scores).unwrap();
    let mut ideal = scores.to_vec();
    ideal.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let pool_idcg: f64 = ideal
        .iter()
        .take(order.len())
        .enumerate()
        .map(|(i, s)| s * Discount::Log2.at(i + 1))
        .sum();
    let dcg: f64 = sub_scores
        .iter()
        .enumerate()
        .map(|(i, s)| s * Discount::Log2.at(i + 1))
        .sum();
    let ii = infeasible::infeasible_breakdown_naive(&pi, &sub_groups, &sub_bounds)
        .unwrap()
        .total();
    let pf = if order.is_empty() {
        100.0
    } else {
        (100.0 * (1.0 - ii as f64 / order.len() as f64)).max(0.0)
    };
    let mut metrics = vec![
        ("ndcg_within_selection".to_string(), ndcg),
        ("infeasible_index".to_string(), ii as f64),
        ("pfair_percentage".to_string(), pf),
    ];
    if pool_idcg > 0.0 {
        metrics.insert(1, ("ndcg_vs_pool".to_string(), dcg / pool_idcg));
    }
    metrics
}

/// The weakly-fair greedy as written before the score plan: per-group
/// comparator sorts and the float bounds recomputed at every prefix.
fn float_bound_centre(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Vec<usize> {
    let n = scores.len();
    let g = groups.num_groups();
    let mut queues: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for q in &mut queues {
        q.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        q.reverse();
    }
    let mut counts = vec![0usize; g];
    let mut order = Vec::with_capacity(n);
    for k in 1..=n {
        let mut pick: Option<usize> = None;
        let mut worst_deficit = 0isize;
        for p in 0..g {
            if queues[p].is_empty() {
                continue;
            }
            let deficit = bounds.min_count(p, k) as isize - counts[p] as isize;
            if deficit > worst_deficit {
                worst_deficit = deficit;
                pick = Some(p);
            }
        }
        for bounded in [true, false] {
            if pick.is_some() {
                break;
            }
            let mut best: Option<(f64, usize)> = None;
            for p in 0..g {
                let Some(&head) = queues[p].last() else {
                    continue;
                };
                if bounded && counts[p] + 1 > bounds.max_count(p, k) {
                    continue;
                }
                let s = scores[head];
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, p));
                }
            }
            pick = best.map(|(_, p)| p);
        }
        let p = pick.expect("a non-empty queue");
        order.push(queues[p].pop().expect("picked group has a head"));
        counts[p] += 1;
    }
    order
}

/// Scores drawn from a tie-heavy palette (±0.0 included) or spread
/// uniformly; `zeros` forces an all-zero pool of mixed-sign zeros.
fn pool(draws: &[u64], palette: bool, zeros: bool) -> Vec<f64> {
    const PALETTE: [f64; 8] = [-1.5, -0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 3.0];
    draws
        .iter()
        .map(|&d| {
            if zeros {
                [0.0, -0.0][(d % 2) as usize]
            } else if palette {
                PALETTE[(d % 8) as usize]
            } else {
                (d >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 1.0
            }
        })
        .collect()
}

fn job(algorithm: &str, scores: Vec<f64>, groups: Vec<usize>, params: JobParams) -> RankJob {
    RankJob {
        algorithm: algorithm.to_string(),
        input: JobInput::Scores { scores, groups },
        params,
    }
}

fn same_bits(a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

const ALGORITHMS: [&str; 9] = [
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

proptest! {
    #[test]
    fn plan_report_matches_the_recomputing_oracle(
        draws in prop::collection::vec(any::<u64>(), 1..10),
        group_draws in prop::collection::vec(any::<u64>(), 10),
        num_groups in 1usize..4,
        shape in 0u32..4,
        k in 0usize..11,
        tolerance in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = draws.len();
        let groups: Vec<usize> = group_draws[..n]
            .iter()
            .map(|&d| (d % num_groups as u64) as usize)
            .collect();
        let mut scores = pool(&draws, shape == 1, shape == 3);
        if shape == 2 {
            // scores biased by group, so fair selections leave the
            // pool's top k
            for (s, &g) in scores.iter_mut().zip(&groups) {
                *s -= 2.0 * g as f64;
            }
        }
        let registry = Registry::standard();
        let ctx = ExecContext::default();
        for algorithm in ALGORITHMS {
            let params = JobParams {
                samples: 6,
                tolerance: [0.0, 0.05, 0.1, 0.3][tolerance],
                k: Some(k),
                seed,
                ..JobParams::default()
            };
            let job = job(algorithm, scores.clone(), groups.clone(), params);
            let Ok(out) = execute(&*registry.get(algorithm).unwrap(), &job, &ctx) else {
                // an algorithm may reject a pool (gr-binary wants two
                // groups); the report is only compared where it runs
                continue;
            };
            let assignment = GroupAssignment::new(
                groups.clone(),
                groups.iter().max().map_or(1, |&g| g + 1),
            )
            .unwrap();
            let oracle = score_metrics(&out.ranking, &scores, &assignment, job.params.tolerance);
            let report = &out.metrics[..oracle.len().min(out.metrics.len())];
            prop_assert!(
                same_bits(report, &oracle),
                "{algorithm} on {scores:?} / {groups:?}: {report:?} vs {oracle:?}"
            );
        }
    }

    #[test]
    fn planned_centre_matches_the_float_bound_greedy(
        draws in prop::collection::vec(any::<u64>(), 1..40),
        group_draws in prop::collection::vec(any::<u64>(), 40),
        num_groups in 1usize..5,
        palette in any::<bool>(),
        bound_draws in prop::collection::vec(0usize..11, 8),
    ) {
        let n = draws.len();
        let scores = pool(&draws, palette, false);
        let ids: Vec<usize> = group_draws[..n]
            .iter()
            .map(|&d| (d % num_groups as u64) as usize)
            .collect();
        let groups = GroupAssignment::new(ids, num_groups).unwrap();
        // proportional bounds with tolerance, and arbitrary (possibly
        // unsatisfiable) ones that drive the fallback
        let arbitrary = FairnessBounds::new(
            (0..num_groups).map(|p| bound_draws[p] as f64 / 20.0).collect(),
            (0..num_groups)
                .map(|p| (bound_draws[p] as f64 / 20.0 + bound_draws[p + 4] as f64 / 10.0).min(1.0))
                .collect(),
        )
        .unwrap();
        for bounds in [
            FairnessBounds::from_assignment_with_tolerance(&groups, 0.1),
            FairnessBounds::from_assignment(&groups),
            arbitrary,
        ] {
            let planned = weakly_fair_ranking(&scores, &groups, &bounds);
            prop_assert_eq!(
                planned.as_order(),
                &float_bound_centre(&scores, &groups, &bounds)[..]
            );
        }
    }

    #[test]
    fn planned_mallows_matches_the_library_ranker(
        draws in prop::collection::vec(any::<u64>(), 2..30),
        group_draws in prop::collection::vec(any::<u64>(), 30),
        criterion in 0usize..3,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = draws.len();
        let scores = pool(&draws, draws[0] % 2 == 0, false);
        // group ids stay below the pool size, as the registry requires
        let ids: Vec<usize> = group_draws[..n].iter().map(|&d| (d % 3) as usize % n).collect();
        let groups = GroupAssignment::new(ids.clone(), 3).unwrap();
        let params = JobParams {
            samples: if wide { 64 } else { 7 },
            criterion: [Criterion::Ndcg, Criterion::Infeasible, Criterion::Kendall][criterion],
            seed,
            ..JobParams::default()
        };
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, params.tolerance);
        let library = match params.criterion {
            Criterion::Ndcg => fair_mallows::Criterion::MaxNdcg(scores.clone()),
            Criterion::Infeasible => fair_mallows::Criterion::MinInfeasibleIndex {
                groups: groups.clone(),
                bounds: bounds.clone(),
            },
            Criterion::Kendall => fair_mallows::Criterion::MinKendallTau,
        };
        let ranker = MallowsFairRanker::new(params.theta, params.samples, library).unwrap();
        let center = weakly_fair_ranking(&scores, &groups, &bounds);
        let ctx = ExecContext::default();
        let tables = ctx.tables.get_or_build(n, params.theta).unwrap();
        let expected = if wide {
            ranker.rank_batched(&center, &tables, seed, 4, ctx.batch_threads)
        } else {
            ranker.rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(seed))
        }
        .unwrap();
        let job = job("mallows", scores, ids, params);
        let out = execute(&*Registry::standard().get("mallows").unwrap(), &job, &ctx).unwrap();
        prop_assert_eq!(&out.ranking[..], expected.ranking.as_order());
    }

    #[test]
    fn key_sort_matches_the_comparator(
        draws in prop::collection::vec(any::<u64>(), 0..60),
        kind in 0u32..4,
    ) {
        let mut scores = pool(&draws, kind % 2 == 0, false);
        if kind == 3 {
            // raw bit patterns: subnormals, infinities and NaN too
            scores = draws.iter().map(|&d| f64::from_bits(d)).collect();
        }
        if kind == 2 && !scores.is_empty() {
            scores[draws[0] as usize % draws.len()] = f64::NAN;
        }
        let keyed = std::panic::catch_unwind(|| {
            Permutation::sorted_by_scores_desc(&scores).into_order()
        });
        prop_assert!(keyed.is_ok(), "the key sort panicked on {scores:?}");
        let got = keyed.unwrap();
        // the numbers in comparator order, then the NaNs by index
        let (nans, mut numbers): (Vec<usize>, Vec<usize>) =
            (0..scores.len()).partition(|&i| scores[i].is_nan());
        numbers.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("NaN-free")
                .then(a.cmp(&b))
        });
        numbers.extend(nans);
        prop_assert_eq!(got, numbers);
    }
}

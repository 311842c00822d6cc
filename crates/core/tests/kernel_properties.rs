//! Property tests pinning the compiled criterion kernels to the
//! unabridged scalar reference path: for every criterion shape, seed,
//! batch split and thread count, the fast path (precompiled tables,
//! one reused decode buffer, exact early abandon) must pick the
//! byte-identical winner and report the byte-identical objective.

use fair_mallows::{Criterion, MallowsFairRanker};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use mallows_model::SamplerTables;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::Permutation;
use std::sync::Arc;

const N: usize = 12;

fn scores() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..10.0, N)
}

fn assignment() -> impl Strategy<Value = GroupAssignment> {
    prop::collection::vec(0..4usize, N)
        .prop_map(|v| GroupAssignment::new(v, 4).expect("groups in range"))
}

/// Random criterion over `N` items: one of the paper's four selection
/// criteria, or a weighted mix (non-negative weights, so the abandon
/// machinery is active).
fn criterion() -> impl Strategy<Value = Criterion> {
    (
        (scores(), assignment()),
        0usize..5,
        0.0f64..2.0,
        0.0f64..2.0,
    )
        .prop_map(|((s, groups), shape, w1, w2)| {
            let bounds = FairnessBounds::from_assignment(&groups);
            match shape {
                0 => Criterion::FirstSample,
                1 => Criterion::MaxNdcg(s),
                2 => Criterion::MinKendallTau,
                3 => Criterion::MinInfeasibleIndex { groups, bounds },
                _ => Criterion::Weighted(vec![
                    (w1, Criterion::MaxNdcg(s)),
                    (w2, Criterion::MinInfeasibleIndex { groups, bounds }),
                    (0.25, Criterion::MinKendallTau),
                ]),
            }
        })
}

proptest! {
    #[test]
    fn streaming_path_matches_scalar_reference_byte_for_byte(
        criterion in criterion(),
        samples in 1usize..40,
        theta in 0.05f64..2.0,
        seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let fast = ranker
            .rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let reference = ranker
            .rank_with_tables_reference(&center, &tables, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(fast.ranking, reference.ranking);
        prop_assert_eq!(
            fast.criterion_value.to_bits(),
            reference.criterion_value.to_bits()
        );
        prop_assert_eq!(fast.samples_drawn, reference.samples_drawn);
    }

    #[test]
    fn batched_path_matches_per_batch_scalar_reference(
        criterion in criterion(),
        samples in 1usize..48,
        batches in 1usize..6,
        threads in 1usize..5,
        theta in 0.05f64..2.0,
        base_seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion.clone()).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let fast = ranker
            .rank_batched(&center, &tables, base_seed, batches, threads)
            .unwrap();

        // replicate rank_batched's deterministic batch split with the
        // unabridged scalar path: same per-batch seeds, same per-batch
        // sample counts, same batch-order strict-< reduction
        let m = match criterion {
            Criterion::FirstSample => 1,
            _ => samples,
        };
        let batches = batches.clamp(1, m);
        let mut best: Option<(f64, Permutation)> = None;
        for b in 0..batches {
            let seed =
                base_seed.wrapping_add((b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let batch_m = m / batches + usize::from(b < m % batches);
            let batch_ranker =
                MallowsFairRanker::new(theta, batch_m, criterion.clone()).unwrap();
            let out = batch_ranker
                .rank_with_tables_reference(&center, &tables, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            // recover the raw lower-is-better objective exactly as the
            // reduction sees it
            let obj = criterion
                .objective_value(&out.ranking, &center)
                .unwrap();
            if best.as_ref().is_none_or(|(cur, _)| obj < *cur) {
                best = Some((obj, out.ranking));
            }
        }
        let (_, expected) = best.expect("at least one batch");
        prop_assert_eq!(fast.ranking, expected);
    }

    #[test]
    fn batched_winner_is_thread_count_independent(
        criterion in criterion(),
        samples in 1usize..64,
        batches in 1usize..8,
        theta in 0.05f64..2.0,
        base_seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let single = ranker
            .rank_batched(&center, &tables, base_seed, batches, 1)
            .unwrap();
        for threads in [2usize, 3, 4] {
            let multi = ranker
                .rank_batched(&center, &tables, base_seed, batches, threads)
                .unwrap();
            prop_assert_eq!(&multi.ranking, &single.ranking);
            prop_assert_eq!(
                multi.criterion_value.to_bits(),
                single.criterion_value.to_bits()
            );
            prop_assert_eq!(multi.samples_abandoned, single.samples_abandoned);
        }
    }
}

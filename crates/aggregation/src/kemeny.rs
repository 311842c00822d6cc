//! Kemeny consensus: minimize the total Kendall tau distance to the
//! votes.
//!
//! Exact Kemeny is NP-hard; this module provides the exact enumerator
//! for small `n` (tests, small committees), the randomized KwikSort
//! pivot algorithm of Ailon, Charikar & Newman (expected constant-factor
//! approximation) and an adjacent-transposition local-search polish that
//! never worsens the objective.

use crate::{pairwise_wins, validate, Result, WinsMatrix};
use rand::Rng;
use ranking_core::{distance, Permutation};

/// Total Kendall tau distance from `pi` to all votes — the Kemeny
/// objective. `O(v · n log n)`: one merge-sort-based distance per
/// vote. Kept as the reference implementation (and test oracle) for
/// `total_kendall_distance_from_wins`, which is the one to call when
/// evaluating many candidate rankings against the same votes.
pub fn total_kendall_distance(pi: &Permutation, votes: &[Permutation]) -> Result<u64> {
    validate(votes)?;
    let mut total = 0u64;
    for v in votes {
        total +=
            distance::kendall_tau(pi, v).map_err(|_| crate::AggregationError::LengthMismatch {
                expected: pi.len(),
                got: v.len(),
            })?;
    }
    Ok(total)
}

/// The Kemeny objective read off a precomputed [`pairwise_wins`]
/// matrix in `O(n²)`, independent of the number of votes: each ordered
/// pair `(a, b)` with `a` ranked before `b` in `order` costs one
/// inversion per vote preferring `b` — that is, `wins.at(b, a)`.
///
/// Equal to [`total_kendall_distance`] whenever `wins` came from
/// `pairwise_wins(votes)` and `order` is a permutation of `0..n`;
/// evaluating `k` candidates costs `O(v·n² + k·n²)` instead of
/// `O(k · v · n log n)`, which is what makes exhaustive enumeration
/// and repeated local-search scoring affordable.
fn total_kendall_distance_from_wins(wins: &WinsMatrix, order: &[usize]) -> u64 {
    let mut total = 0u64;
    for (pos, &a) in order.iter().enumerate() {
        for &b in &order[pos + 1..] {
            total += wins.at(b, a) as u64;
        }
    }
    total
}

/// Exact Kemeny consensus by enumeration — `O(n!)` candidates, each
/// scored in `O(n²)` off the pairwise-wins matrix (instead of the old
/// `O(v · n log n)` per-vote merge sorts per candidate); intended for
/// `n ≤ 9` (oracle in tests, exact answers for tiny instances).
pub fn kemeny_exact(votes: &[Permutation]) -> Result<Permutation> {
    let n = validate(votes)?;
    let wins = pairwise_wins(votes)?;
    let mut best: Option<(u64, Permutation)> = None;
    for pi in Permutation::enumerate_all(n) {
        let d = total_kendall_distance_from_wins(&wins, pi.as_order());
        if best.as_ref().is_none_or(|(b, _)| d < *b) {
            best = Some((d, pi));
        }
    }
    Ok(best.expect("n! ≥ 1 candidates").1)
}

/// KwikSort: quicksort on the majority tournament with a random pivot
/// (Ailon, Charikar & Newman). Expected 11/7-approximation for
/// aggregation instances; combine with [`local_search`] for best
/// results.
pub fn kwik_sort<R: Rng + ?Sized>(votes: &[Permutation], rng: &mut R) -> Result<Permutation> {
    let n = validate(votes)?;
    let wins = pairwise_wins(votes)?;
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    quicksort(&mut items, &wins, rng, &mut out);
    Ok(Permutation::from_order_unchecked(out))
}

fn quicksort<R: Rng + ?Sized>(
    items: &mut Vec<usize>,
    wins: &WinsMatrix,
    rng: &mut R,
    out: &mut Vec<usize>,
) {
    if items.len() <= 1 {
        out.append(items);
        return;
    }
    let pivot = items[rng.random_range(0..items.len())];
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &x in items.iter() {
        if x == pivot {
            continue;
        }
        // x before pivot iff a majority of votes put it there;
        // ties go right for determinism of the partition rule.
        if wins.at(x, pivot) > wins.at(pivot, x) {
            left.push(x);
        } else {
            right.push(x);
        }
    }
    quicksort(&mut left, wins, rng, out);
    out.push(pivot);
    quicksort(&mut right, wins, rng, out);
    items.clear();
}

/// Adjacent-transposition local search: repeatedly apply the best
/// improving adjacent swap until a local optimum. Never worsens the
/// Kemeny objective; `O(passes · n²)` off the pairwise-wins matrix —
/// no per-candidate distance recomputation.
pub fn local_search(start: &Permutation, votes: &[Permutation]) -> Result<Permutation> {
    validate(votes)?;
    let n = start.len();
    let wins = pairwise_wins(votes)?;
    let mut order = start.as_order().to_vec();
    let mut objective = total_kendall_distance_from_wins(&wins, &order);
    // Swapping adjacent (a at k, b at k+1) changes the objective by
    // wins(a,b) − wins(b,a) (votes preferring a before b now pay one
    // more inversion each, the others one fewer).
    loop {
        let mut improved = false;
        for k in 0..n.saturating_sub(1) {
            let (a, b) = (order[k], order[k + 1]);
            if wins.at(b, a) > wins.at(a, b) {
                order.swap(k, k + 1);
                objective -= (wins.at(b, a) - wins.at(a, b)) as u64;
                improved = true;
            }
        }
        // the running objective must agree with a from-scratch O(n²)
        // evaluation after every pass — cheap insurance that the
        // incremental deltas stay sound
        debug_assert_eq!(objective, total_kendall_distance_from_wins(&wins, &order));
        if !improved {
            break;
        }
    }
    let _ = objective;
    Ok(Permutation::from_order_unchecked(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn votes_small() -> Vec<Permutation> {
        vec![
            Permutation::from_order(vec![0, 1, 2, 3]).unwrap(),
            Permutation::from_order(vec![1, 0, 2, 3]).unwrap(),
            Permutation::from_order(vec![0, 1, 3, 2]).unwrap(),
        ]
    }

    #[test]
    fn exact_kemeny_minimizes_total_distance() {
        let votes = votes_small();
        let best = kemeny_exact(&votes).unwrap();
        let best_d = total_kendall_distance(&best, &votes).unwrap();
        for pi in Permutation::enumerate_all(4) {
            assert!(total_kendall_distance(&pi, &votes).unwrap() >= best_d);
        }
    }

    #[test]
    fn unanimous_votes_are_their_own_consensus() {
        let v = Permutation::from_order(vec![3, 0, 2, 1]).unwrap();
        let votes = vec![v.clone(); 5];
        assert_eq!(kemeny_exact(&votes).unwrap(), v);
        assert_eq!(total_kendall_distance(&v, &votes).unwrap(), 0);
    }

    #[test]
    fn kwiksort_plus_local_search_matches_exact_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..15 {
            let n = 6;
            let votes: Vec<Permutation> =
                (0..5).map(|_| Permutation::random(n, &mut rng)).collect();
            let exact = kemeny_exact(&votes).unwrap();
            let exact_d = total_kendall_distance(&exact, &votes).unwrap();
            let approx = kwik_sort(&votes, &mut rng).unwrap();
            let polished = local_search(&approx, &votes).unwrap();
            let got = total_kendall_distance(&polished, &votes).unwrap();
            // local optimum within 1.3x of optimal on these small instances
            assert!(
                got as f64 <= exact_d as f64 * 1.3 + 1.0,
                "trial {trial}: {got} vs exact {exact_d}"
            );
        }
    }

    #[test]
    fn local_search_never_worsens() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let votes: Vec<Permutation> =
                (0..4).map(|_| Permutation::random(8, &mut rng)).collect();
            let start = Permutation::random(8, &mut rng);
            let before = total_kendall_distance(&start, &votes).unwrap();
            let after =
                total_kendall_distance(&local_search(&start, &votes).unwrap(), &votes).unwrap();
            assert!(after <= before);
        }
    }

    #[test]
    fn kwiksort_produces_valid_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let votes: Vec<Permutation> = (0..7).map(|_| Permutation::random(20, &mut rng)).collect();
        let out = kwik_sort(&votes, &mut rng).unwrap();
        let mut sorted = out.as_order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn wins_matrix_objective_matches_per_vote_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 5, 9, 14] {
            for votes_count in [1usize, 4, 7] {
                let votes: Vec<Permutation> = (0..votes_count)
                    .map(|_| Permutation::random(n, &mut rng))
                    .collect();
                let wins = crate::pairwise_wins(&votes).unwrap();
                for _ in 0..5 {
                    let pi = Permutation::random(n, &mut rng);
                    assert_eq!(
                        total_kendall_distance_from_wins(&wins, pi.as_order()),
                        total_kendall_distance(&pi, &votes).unwrap(),
                        "n = {n}, votes = {votes_count}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_kemeny_agrees_with_per_vote_oracle_scoring() {
        // kemeny_exact now scores candidates off the wins matrix; the
        // winner must still minimize the per-vote oracle objective
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let votes: Vec<Permutation> =
                (0..5).map(|_| Permutation::random(5, &mut rng)).collect();
            let best = kemeny_exact(&votes).unwrap();
            let best_d = total_kendall_distance(&best, &votes).unwrap();
            for pi in Permutation::enumerate_all(5) {
                assert!(total_kendall_distance(&pi, &votes).unwrap() >= best_d);
            }
        }
    }

    #[test]
    fn empty_votes_error_everywhere() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(kemeny_exact(&[]).is_err());
        assert!(kwik_sort(&[], &mut rng).is_err());
        assert!(local_search(&Permutation::identity(3), &[]).is_err());
    }
}

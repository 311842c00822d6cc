//! Distance metrics between rankings (paper Section III-C).
//!
//! All distances are right-invariant: `d(π, σ) = d(π∘ρ, σ∘ρ)`, so each is
//! computed on the relabelled sequence `π` relative to `σ` (see
//! [`Permutation::relative_to`]) against the identity.

use crate::{Permutation, RankingError, Result};

/// Kendall tau distance: number of discordant pairs between `pi` and
/// `sigma`. `O(n log n)` via inversion counting (merge sort).
///
/// ```
/// use ranking_core::{Permutation, distance::kendall_tau};
/// let id = Permutation::identity(3);
/// let rev = Permutation::from_order(vec![2, 1, 0]).unwrap();
/// assert_eq!(kendall_tau(&rev, &id).unwrap(), 3);
/// ```
pub fn kendall_tau(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    let rel = pi.relative_to(sigma)?;
    Ok(count_inversions(&rel))
}

/// Naive `O(n²)` Kendall tau used as a test oracle and for tiny inputs
/// where it beats the merge-sort constant factor.
pub fn kendall_tau_naive(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    let rel = pi.relative_to(sigma)?;
    let mut d = 0u64;
    for i in 0..rel.len() {
        for j in (i + 1)..rel.len() {
            if rel[i] > rel[j] {
                d += 1;
            }
        }
    }
    Ok(d)
}

/// Maximum possible Kendall tau distance for `n` items: `n(n−1)/2`.
pub fn max_kendall_tau(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

/// Spearman footrule `d₁(π, σ) = Σᵢ |π(i) − σ(i)|` over item positions.
/// This is the efficiency objective of ApproxMultiValuedIPF (Wei et al.).
pub fn footrule(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    if pi.len() != sigma.len() {
        return Err(RankingError::LengthMismatch {
            left: pi.len(),
            right: sigma.len(),
        });
    }
    let pp = pi.positions();
    let sp = sigma.positions();
    Ok(pp
        .iter()
        .zip(&sp)
        .map(|(&a, &b)| a.abs_diff(b) as u64)
        .sum())
}

/// Ulam distance: `n` minus the length of the longest increasing
/// subsequence of `π` relative to `σ` (minimum number of
/// delete-and-reinsert moves). `O(n log n)` patience sorting.
pub fn ulam(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    let rel = pi.relative_to(sigma)?;
    let lis = longest_increasing_subsequence_len(&rel);
    Ok((rel.len() - lis) as u64)
}

/// Cayley distance: minimum number of transpositions transforming `σ`
/// into `π`, i.e. `n` minus the number of cycles of `π∘σ⁻¹`.
pub fn cayley(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    let rel = pi.relative_to(sigma)?;
    let n = rel.len();
    let mut seen = vec![false; n];
    let mut cycles = 0usize;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        cycles += 1;
        let mut cur = start;
        while !seen[cur] {
            seen[cur] = true;
            cur = rel[cur];
        }
    }
    Ok((n - cycles) as u64)
}

/// Hamming distance: number of positions holding different items.
pub fn hamming(pi: &Permutation, sigma: &Permutation) -> Result<u64> {
    if pi.len() != sigma.len() {
        return Err(RankingError::LengthMismatch {
            left: pi.len(),
            right: sigma.len(),
        });
    }
    Ok(pi
        .as_order()
        .iter()
        .zip(sigma.as_order())
        .filter(|(a, b)| a != b)
        .count() as u64)
}

/// Count inversions of an integer sequence in `O(n log n)` with an
/// iterative bottom-up merge sort over index buffers.
fn count_inversions(seq: &[usize]) -> u64 {
    let n = seq.len();
    if n < 2 {
        return 0;
    }
    let mut buf: Vec<usize> = seq.to_vec();
    let mut tmp: Vec<usize> = vec![0; n];
    let mut inversions = 0u64;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let mid = lo + width;
            let hi = (lo + 2 * width).min(n);
            inversions += merge_count(&buf[lo..mid], &buf[mid..hi], &mut tmp[lo..hi]);
            buf[lo..hi].copy_from_slice(&tmp[lo..hi]);
            lo += 2 * width;
        }
        width *= 2;
    }
    inversions
}

fn merge_count(left: &[usize], right: &[usize], out: &mut [usize]) -> u64 {
    let (mut i, mut j, mut k) = (0, 0, 0);
    let mut inv = 0u64;
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            out[k] = left[i];
            i += 1;
        } else {
            out[k] = right[j];
            j += 1;
            inv += (left.len() - i) as u64;
        }
        k += 1;
    }
    while i < left.len() {
        out[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        out[k] = right[j];
        j += 1;
        k += 1;
    }
    inv
}

/// Length of the longest strictly increasing subsequence (patience
/// sorting with binary search).
fn longest_increasing_subsequence_len(seq: &[usize]) -> usize {
    let mut tails: Vec<usize> = Vec::new();
    for &x in seq {
        match tails.binary_search(&x) {
            // strictly increasing: equal elements replace
            Ok(pos) | Err(pos) => {
                if pos == tails.len() {
                    tails.push(x);
                } else {
                    tails[pos] = x;
                }
            }
        }
    }
    tails.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn perm(v: Vec<usize>) -> Permutation {
        Permutation::from_order(v).unwrap()
    }

    #[test]
    fn kendall_identity_is_zero() {
        let p = perm(vec![2, 0, 1, 3]);
        assert_eq!(kendall_tau(&p, &p).unwrap(), 0);
    }

    #[test]
    fn kendall_reverse_is_max() {
        let id = Permutation::identity(6);
        let rev = perm((0..6).rev().collect());
        assert_eq!(kendall_tau(&rev, &id).unwrap(), max_kendall_tau(6));
    }

    #[test]
    fn kendall_is_symmetric() {
        let a = perm(vec![3, 1, 4, 0, 2]);
        let b = perm(vec![0, 4, 2, 3, 1]);
        assert_eq!(kendall_tau(&a, &b).unwrap(), kendall_tau(&b, &a).unwrap());
    }

    #[test]
    fn kendall_fast_matches_naive_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [0usize, 1, 2, 5, 17, 64] {
            for _ in 0..20 {
                let a = Permutation::random(n, &mut rng);
                let b = Permutation::random(n, &mut rng);
                assert_eq!(
                    kendall_tau(&a, &b).unwrap(),
                    kendall_tau_naive(&a, &b).unwrap(),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn footrule_known_value() {
        let id = Permutation::identity(3);
        let rev = perm(vec![2, 1, 0]);
        assert_eq!(footrule(&rev, &id).unwrap(), 4);
    }

    #[test]
    fn footrule_diaconis_graham_sandwich() {
        // d_KT ≤ footrule ≤ 2 d_KT (Diaconis–Graham inequality)
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = Permutation::random(12, &mut rng);
            let b = Permutation::random(12, &mut rng);
            let kt = kendall_tau(&a, &b).unwrap();
            let fr = footrule(&a, &b).unwrap();
            assert!(kt <= fr && fr <= 2 * kt, "kt={kt} fr={fr}");
        }
    }

    #[test]
    fn ulam_single_move() {
        // moving one item: [1,2,3,0] relative to identity → LIS = 3 → d = 1
        let id = Permutation::identity(4);
        let moved = perm(vec![1, 2, 3, 0]);
        assert_eq!(ulam(&moved, &id).unwrap(), 1);
    }

    #[test]
    fn ulam_identity_zero_reverse_max() {
        let id = Permutation::identity(5);
        let rev = perm((0..5).rev().collect());
        assert_eq!(ulam(&id, &id).unwrap(), 0);
        assert_eq!(ulam(&rev, &id).unwrap(), 4);
    }

    #[test]
    fn cayley_one_swap() {
        let id = Permutation::identity(4);
        let mut sw = Permutation::identity(4);
        sw.swap_positions(1, 3);
        assert_eq!(cayley(&sw, &id).unwrap(), 1);
    }

    #[test]
    fn cayley_at_most_n_minus_one() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let a = Permutation::random(9, &mut rng);
            let b = Permutation::random(9, &mut rng);
            assert!(cayley(&a, &b).unwrap() <= 8);
        }
    }

    #[test]
    fn hamming_counts_mismatches() {
        let id = Permutation::identity(4);
        let p = perm(vec![0, 2, 1, 3]);
        assert_eq!(hamming(&p, &id).unwrap(), 2);
    }

    #[test]
    fn distances_error_on_length_mismatch() {
        let a = Permutation::identity(3);
        let b = Permutation::identity(4);
        assert!(kendall_tau(&a, &b).is_err());
        assert!(footrule(&a, &b).is_err());
        assert!(ulam(&a, &b).is_err());
        assert!(cayley(&a, &b).is_err());
        assert!(hamming(&a, &b).is_err());
    }

    #[test]
    fn count_inversions_empty_and_single() {
        assert_eq!(count_inversions(&[]), 0);
        assert_eq!(count_inversions(&[5]), 0);
    }

    #[test]
    fn lis_handles_decreasing() {
        assert_eq!(longest_increasing_subsequence_len(&[4, 3, 2, 1, 0]), 1);
        assert_eq!(longest_increasing_subsequence_len(&[0, 1, 2]), 3);
    }
}

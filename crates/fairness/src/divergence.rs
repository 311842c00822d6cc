//! Divergence-based fairness measures: KL divergence, NDKL and skew.
//!
//! The paper's robustness claim is that Mallows randomization improves
//! fairness *across* measures, not only the infeasible index its ILP
//! optimizes. This module provides the divergence family used by the
//! literature the paper compares against:
//!
//! * [`ndkl`] — Normalized Discounted KL divergence of Geyik et al.
//!   (KDD'19, the DetConstSort paper): position-discounted KL divergence
//!   between each prefix's group distribution and the overall one.
//! * [`rkl`] — the rKL measure of Yang & Stoyanovich (SSDBM'17, the
//!   paper's reference \[29\]): KL divergence accumulated at coarse
//!   cut-points (every 10 positions by default).
//! * `skew_at`, [`min_skew_at`], [`max_skew_at`] — the logarithmic
//!   over/under-representation of a group in the top-`k`.
//!
//! All divergences compare against the *overall* group distribution of
//! the ranked population, so a group with zero overall probability also
//! has zero prefix probability and the KL terms stay finite (the
//! `0·log(0/0) = 0` convention applies).

use crate::{FairnessError, GroupAssignment, Result};
use ranking_core::Permutation;

/// Kullback–Leibler divergence `Σ p_i · log₂(p_i / q_i)` between two
/// discrete distributions given as probability vectors.
///
/// Terms with `p_i = 0` contribute zero. A term with `p_i > 0` and
/// `q_i = 0` makes the divergence `+∞` (returned as `f64::INFINITY`).
///
/// Errors when the vectors differ in length.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> Result<f64> {
    if p.len() != q.len() {
        return Err(FairnessError::BoundsShapeMismatch {
            got: q.len(),
            expected: p.len(),
        });
    }
    let mut total = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            if qi <= 0.0 {
                return Ok(f64::INFINITY);
            }
            total += pi * (pi / qi).log2();
        }
    }
    Ok(total)
}

/// Group distribution of the top-`k` prefix of `pi` as a probability
/// vector over all declared groups.
fn prefix_distribution(pi: &Permutation, groups: &GroupAssignment, k: usize) -> Vec<f64> {
    let k = k.min(pi.len()).max(1);
    let mut counts = vec![0usize; groups.num_groups()];
    for &item in pi.prefix(k) {
        counts[groups.group_of(item)] += 1;
    }
    counts.into_iter().map(|c| c as f64 / k as f64).collect()
}

fn check_lengths(pi: &Permutation, groups: &GroupAssignment) -> Result<()> {
    if pi.len() != groups.len() {
        return Err(FairnessError::LengthMismatch {
            ranking: pi.len(),
            groups: groups.len(),
        });
    }
    Ok(())
}

/// Normalized Discounted KL divergence (Geyik et al., KDD'19).
///
/// ```text
/// NDKL(π) = (1/Z) · Σ_{i=1}^{n} d_KL(D_{π,i} ‖ D) / log₂(i + 1)
/// Z       = Σ_{i=1}^{n} 1 / log₂(i + 1)
/// ```
///
/// where `D_{π,i}` is the group distribution of the top-`i` prefix and
/// `D` the overall group distribution. `0` means every prefix mirrors
/// the population exactly; larger is less fair. Always finite because
/// prefix support is contained in overall support.
///
/// ```
/// use fairness_metrics::{divergence::ndkl, GroupAssignment};
/// use ranking_core::Permutation;
/// // alternating groups mirror the population in every even prefix
/// let groups = GroupAssignment::new(vec![0, 1, 0, 1], 2).unwrap();
/// let alternating = Permutation::identity(4);
/// let segregated = Permutation::from_order(vec![0, 2, 1, 3]).unwrap();
/// assert!(ndkl(&alternating, &groups).unwrap() < ndkl(&segregated, &groups).unwrap());
/// ```
pub fn ndkl(pi: &Permutation, groups: &GroupAssignment) -> Result<f64> {
    check_lengths(pi, groups)?;
    if pi.is_empty() {
        return Ok(0.0);
    }
    let overall = groups.proportions();
    let mut counts = vec![0usize; groups.num_groups()];
    let mut total = 0.0;
    let mut z = 0.0;
    let mut dist = vec![0.0; groups.num_groups()];
    for (idx, &item) in pi.as_order().iter().enumerate() {
        counts[groups.group_of(item)] += 1;
        let k = (idx + 1) as f64;
        for (d, &c) in dist.iter_mut().zip(&counts) {
            *d = c as f64 / k;
        }
        let w = 1.0 / (k + 1.0).log2();
        total += w * kl_divergence(&dist, &overall)?;
        z += w;
    }
    Ok(total / z)
}

/// Cut-points at which [`rkl`] evaluates the prefix divergence: every
/// `step` positions plus the final position.
fn cutpoints(n: usize, step: usize) -> Vec<usize> {
    let step = step.max(1);
    let mut cuts: Vec<usize> = (step..=n).step_by(step).collect();
    if cuts.last() != Some(&n) && n > 0 {
        cuts.push(n);
    }
    cuts
}

/// rKL of Yang & Stoyanovich (the paper's reference \[29\]) with the
/// conventional cut-point step of 10.
///
/// See `rkl_with_step` for the definition.
pub fn rkl(pi: &Permutation, groups: &GroupAssignment) -> Result<f64> {
    rkl_with_step(pi, groups, 10)
}

/// rKL with configurable cut-point step:
///
/// ```text
/// rKL(π) = Σ_{i ∈ {step, 2·step, …, n}} d_KL(D_{π,i} ‖ D) / log₂(i + 1)
/// ```
///
/// Unlike [`ndkl`] this is **not** normalized — the original measure is
/// reported raw so that values are comparable with the fairness-in-
/// ranked-outputs literature. `0` is perfectly fair.
fn rkl_with_step(pi: &Permutation, groups: &GroupAssignment, step: usize) -> Result<f64> {
    check_lengths(pi, groups)?;
    if pi.is_empty() {
        return Ok(0.0);
    }
    let overall = groups.proportions();
    let mut total = 0.0;
    for k in cutpoints(pi.len(), step) {
        let dist = prefix_distribution(pi, groups, k);
        total += kl_divergence(&dist, &overall)? / ((k + 1) as f64).log2();
    }
    Ok(total)
}

/// Skew of `group` at `k` (Geyik et al.):
/// `log₂( (count_k(G, π)/k) / p_G )`, the logarithmic factor by which
/// the group is over- (`> 0`) or under-represented (`< 0`) in the
/// top-`k` relative to its overall proportion `p_G`.
///
/// Returns `-∞` when the group is absent from a prefix where it has
/// positive overall proportion, and `0` for a group that is empty
/// overall (it cannot be misrepresented).
fn skew_at(pi: &Permutation, groups: &GroupAssignment, k: usize, group: usize) -> Result<f64> {
    check_lengths(pi, groups)?;
    if group >= groups.num_groups() {
        return Err(FairnessError::InvalidGroup {
            group,
            num_groups: groups.num_groups(),
        });
    }
    let overall = groups.proportions()[group];
    if overall == 0.0 {
        return Ok(0.0);
    }
    let k = k.min(pi.len()).max(1);
    let count = groups.count_in_prefix(pi.as_order(), k, group);
    if count == 0 {
        return Ok(f64::NEG_INFINITY);
    }
    Ok(((count as f64 / k as f64) / overall).log2())
}

/// Minimum skew over all groups at `k` — the most under-represented
/// group's skew. `0` is ideal; very negative means some group is
/// heavily pushed out of the top-`k`.
pub fn min_skew_at(pi: &Permutation, groups: &GroupAssignment, k: usize) -> Result<f64> {
    fold_skew(pi, groups, k, f64::min, f64::INFINITY)
}

/// Maximum skew over all groups at `k` — the most over-represented
/// group's skew. `0` is ideal.
pub fn max_skew_at(pi: &Permutation, groups: &GroupAssignment, k: usize) -> Result<f64> {
    fold_skew(pi, groups, k, f64::max, f64::NEG_INFINITY)
}

fn fold_skew(
    pi: &Permutation,
    groups: &GroupAssignment,
    k: usize,
    combine: fn(f64, f64) -> f64,
    init: f64,
) -> Result<f64> {
    check_lengths(pi, groups)?;
    let mut acc = init;
    let mut any = false;
    for g in 0..groups.num_groups() {
        if groups.proportions()[g] > 0.0 {
            acc = combine(acc, skew_at(pi, groups, k, g)?);
            any = true;
        }
    }
    Ok(if any { acc } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_and_half(n: usize) -> GroupAssignment {
        GroupAssignment::binary_split(n, n / 2)
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let p = [0.25, 0.75];
        assert!((kl_divergence(&p, &p).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn kl_is_nonnegative() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        assert!(kl_divergence(&p, &q).unwrap() > 0.0);
    }

    #[test]
    fn kl_infinite_when_support_escapes() {
        assert!(kl_divergence(&[1.0, 0.0], &[0.0, 1.0])
            .unwrap()
            .is_infinite());
    }

    #[test]
    fn kl_zero_p_term_contributes_nothing() {
        let v = kl_divergence(&[0.0, 1.0], &[0.5, 0.5]).unwrap();
        assert!((v - 1.0).abs() < 1e-12); // 1·log2(1/0.5) = 1
    }

    #[test]
    fn kl_length_mismatch_errors() {
        assert!(kl_divergence(&[1.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn ndkl_zero_for_perfectly_alternating() {
        // groups 0,1,0,1 and ranking 0,1,2,3: prefixes of even length are
        // exactly proportional; odd prefixes are not, so NDKL is small but
        // positive. Compare against full segregation.
        let groups = GroupAssignment::new(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let alternating = Permutation::identity(6);
        let segregated = Permutation::from_order(vec![0, 2, 4, 1, 3, 5]).unwrap();
        let a = ndkl(&alternating, &groups).unwrap();
        let s = ndkl(&segregated, &groups).unwrap();
        assert!(a < s, "alternating {a} vs segregated {s}");
        assert!(a >= 0.0 && s.is_finite());
    }

    #[test]
    fn ndkl_single_group_is_zero() {
        let groups = GroupAssignment::new(vec![0; 5], 1).unwrap();
        let pi = Permutation::identity(5);
        assert!((ndkl(&pi, &groups).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn ndkl_empty_ranking_is_zero() {
        let groups = GroupAssignment::new(vec![], 2).unwrap();
        let pi = Permutation::identity(0);
        assert_eq!(ndkl(&pi, &groups).unwrap(), 0.0);
    }

    #[test]
    fn ndkl_length_mismatch_errors() {
        let groups = half_and_half(4);
        let pi = Permutation::identity(6);
        assert!(ndkl(&pi, &groups).is_err());
    }

    #[test]
    fn rkl_cutpoints_include_final_position() {
        assert_eq!(cutpoints(25, 10), vec![10, 20, 25]);
        assert_eq!(cutpoints(20, 10), vec![10, 20]);
        assert_eq!(cutpoints(5, 10), vec![5]);
        assert_eq!(cutpoints(0, 10), Vec::<usize>::new());
    }

    #[test]
    fn rkl_orders_fair_before_unfair() {
        let groups = half_and_half(20);
        // identity: first half all group 0 → very unfair prefixes
        let unfair = Permutation::identity(20);
        let fair_order: Vec<usize> = (0..10).flat_map(|i| [i, i + 10]).collect();
        let fair = Permutation::from_order(fair_order).unwrap();
        let u = rkl(&unfair, &groups).unwrap();
        let f = rkl(&fair, &groups).unwrap();
        assert!(f < u, "fair {f} vs unfair {u}");
    }

    #[test]
    fn rkl_with_step_one_matches_unnormalized_ndkl_weighting() {
        // step 1 visits every prefix; sanity: nonnegative and finite.
        let groups = half_and_half(8);
        let pi = Permutation::identity(8);
        let v = rkl_with_step(&pi, &groups, 1).unwrap();
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn skew_balanced_prefix_is_zero() {
        let groups = GroupAssignment::new(vec![0, 1, 0, 1], 2).unwrap();
        let pi = Permutation::identity(4);
        assert!((skew_at(&pi, &groups, 4, 0).unwrap()).abs() < 1e-12);
        assert!((skew_at(&pi, &groups, 4, 1).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn skew_overrepresented_positive_underrepresented_negative() {
        let groups = half_and_half(10);
        let pi = Permutation::identity(10); // top-5 all group 0
        assert!(skew_at(&pi, &groups, 5, 0).unwrap() > 0.0);
        assert!(skew_at(&pi, &groups, 5, 1).unwrap().is_infinite());
        assert!(skew_at(&pi, &groups, 5, 1).unwrap() < 0.0);
    }

    #[test]
    fn skew_empty_group_is_zero() {
        let groups = GroupAssignment::new(vec![0, 0, 0], 2).unwrap();
        let pi = Permutation::identity(3);
        assert_eq!(skew_at(&pi, &groups, 2, 1).unwrap(), 0.0);
    }

    #[test]
    fn skew_invalid_group_errors() {
        let groups = half_and_half(4);
        let pi = Permutation::identity(4);
        assert!(skew_at(&pi, &groups, 2, 7).is_err());
    }

    #[test]
    fn min_max_skew_bracket_zero_for_any_prefix() {
        // some group is always ≥ its proportion and some ≤ in any prefix,
        // so min ≤ 0 ≤ max.
        let groups = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let pi = Permutation::from_order(vec![3, 1, 5, 0, 4, 2]).unwrap();
        for k in 1..=6 {
            let lo = min_skew_at(&pi, &groups, k).unwrap();
            let hi = max_skew_at(&pi, &groups, k).unwrap();
            assert!(lo <= 1e-12, "k={k} lo={lo}");
            assert!(hi >= -1e-12, "k={k} hi={hi}");
            assert!(lo <= hi);
        }
    }

    #[test]
    fn skew_of_full_ranking_is_zero() {
        let groups = GroupAssignment::new(vec![0, 1, 1, 0, 1], 2).unwrap();
        let pi = Permutation::from_order(vec![4, 2, 0, 1, 3]).unwrap();
        let n = pi.len();
        assert!((min_skew_at(&pi, &groups, n).unwrap()).abs() < 1e-12);
        assert!((max_skew_at(&pi, &groups, n).unwrap()).abs() < 1e-12);
    }
}

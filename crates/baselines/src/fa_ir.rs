//! FA*IR (Zehlike et al., CIKM'17): statistically-tested fair top-k.
//!
//! FA*IR targets a *single* protected group with minimum proportion `p`
//! and significance level `α`. A top-`k` ranking passes the **ranked
//! group fairness test** when every prefix of length `i` contains at
//! least `m(i; p, α)` protected candidates, where `m` is the smallest
//! count whose binomial tail is not statistically significantly below
//! proportionality:
//!
//! ```text
//! m(i; p, α) = min { m : F_binom(m; i, p) > α }
//! ```
//!
//! Because the test is applied at every prefix, the family-wise
//! significance deteriorates; `adjusted_significance` computes the
//! corrected per-test level `α_c` whose family-wise failure probability
//! equals `α` (the paper's multiple-test correction), via an exact
//! `O(k²)` dynamic program over binomial paths and bisection on `α_c`.
//!
//! The [`fa_ir`] algorithm itself greedily merges the score-sorted
//! protected and non-protected lists: wherever the m-table forces a
//! protected candidate, the best remaining protected one is emitted;
//! otherwise the overall best remaining candidate is.
//!
//! This baseline extends the paper's comparison set: like DetConstSort
//! and ApproxMultiValuedIPF it *requires* the protected attribute, which
//! is exactly what the Mallows randomization avoids.

use crate::{BaselineError, Result};
use fairness_metrics::GroupAssignment;
use ranking_core::Permutation;

/// Cumulative distribution function `F(m; n, p) = P[Binom(n, p) ≤ m]`.
///
/// Computed by a numerically stable forward recurrence on the pmf; exact
/// to f64 round-off for the `n ≤ 10⁴` sizes used in ranking prefixes.
fn binomial_cdf(m: usize, n: usize, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if m >= n { 1.0 } else { 0.0 };
    }
    let ratio = p / (1.0 - p);
    // pmf(0) = (1-p)^n computed in log space to survive large n.
    let mut pmf = ((n as f64) * (1.0 - p).ln()).exp();
    let mut cdf = pmf;
    for i in 0..m.min(n) {
        pmf *= ratio * (n - i) as f64 / (i + 1) as f64;
        cdf += pmf;
    }
    cdf.min(1.0)
}

/// The m-table `m(1..=k; p, α)`: entry `t[i-1]` is the minimum protected
/// count required in every prefix of length `i`.
///
/// ```
/// use fair_baselines::fa_ir::mtable;
/// // p = 0.5, α = 0.1: first forced protected slot appears at i = 4
/// let t = mtable(6, 0.5, 0.1);
/// assert_eq!(t, vec![0, 0, 0, 1, 1, 1]);
/// ```
pub fn mtable(k: usize, p: f64, alpha: f64) -> Vec<usize> {
    let mut table = Vec::with_capacity(k);
    let mut m = 0usize;
    for i in 1..=k {
        // monotone: restart the scan from the previous value.
        while m <= i && binomial_cdf(m, i, p) <= alpha {
            m += 1;
        }
        table.push(m.min(i));
    }
    table
}

/// Probability that a random group-blind process (each of `k` positions
/// protected independently with probability `p`) **fails** the ranked
/// group fairness test against the given m-table.
///
/// This is the family-wise type-I error of the per-prefix binomial
/// tests; the FA*IR correction chooses the per-test level so that this
/// quantity equals the desired `α`. Exact `O(k²)` dynamic program over
/// (prefix length, protected count) states.
pub fn mtable_failure_probability(table: &[usize], p: f64) -> f64 {
    let k = table.len();
    // pass[s] = P[s protected in the prefix so far and all tests passed]
    let mut pass = vec![0.0f64; k + 1];
    pass[0] = 1.0;
    let mut len = 0usize; // current prefix length
    for &required in table {
        let mut next = vec![0.0f64; k + 1];
        for s in 0..=len {
            let mass = pass[s];
            if mass == 0.0 {
                continue;
            }
            next[s + 1] += mass * p;
            next[s] += mass * (1.0 - p);
        }
        len += 1;
        for (s, slot) in next.iter_mut().enumerate().take(len + 1) {
            if s < required {
                *slot = 0.0; // test failed at this prefix
            }
        }
        pass = next;
    }
    (1.0 - pass.iter().sum::<f64>()).clamp(0.0, 1.0)
}

/// The corrected per-test significance `α_c ≤ α` whose family-wise
/// failure probability over all `k` prefix tests equals `α`, found by
/// bisection (the paper's Algorithm 3, "AdjustSignificance").
///
/// Returns `α` unchanged when even the uncorrected table already has
/// failure probability below `α` (e.g. tiny `k` or extreme `p`).
fn adjusted_significance(k: usize, p: f64, alpha: f64) -> f64 {
    if k == 0 || p <= 0.0 || p >= 1.0 {
        return alpha;
    }
    let fail = |a: f64| mtable_failure_probability(&mtable(k, p, a), p);
    if fail(alpha) <= alpha {
        return alpha;
    }
    let (mut lo, mut hi) = (0.0f64, alpha);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if fail(mid) > alpha {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    lo
}

/// FA*IR configuration.
#[derive(Debug, Clone, Copy)]
pub struct FaIrConfig {
    /// Minimum target proportion `p` of the protected group.
    pub min_proportion: f64,
    /// Family-wise significance level `α`.
    pub significance: f64,
    /// Apply the multiple-test correction (`adjusted_significance`).
    pub adjust: bool,
}

impl Default for FaIrConfig {
    fn default() -> Self {
        FaIrConfig {
            min_proportion: 0.5,
            significance: 0.1,
            adjust: true,
        }
    }
}

/// FA*IR fair top-`k` (Zehlike et al., Algorithm 2 "FA*IR").
///
/// Returns the selected items in ranked order. `protected` designates
/// the protected group id within `groups`; all other groups are treated
/// as non-protected (the original algorithm is binary).
///
/// Errors with [`BaselineError::Infeasible`] when the protected group
/// has too few members to satisfy the m-table at some prefix, and with
/// [`BaselineError::ShapeMismatch`] on inconsistent input sizes.
pub fn fa_ir(
    scores: &[f64],
    groups: &GroupAssignment,
    protected: usize,
    k: usize,
    config: &FaIrConfig,
) -> Result<Vec<usize>> {
    if scores.len() != groups.len() {
        return Err(BaselineError::ShapeMismatch {
            what: "scores vs groups length",
        });
    }
    if k > scores.len() {
        return Err(BaselineError::ShapeMismatch {
            what: "k exceeds number of candidates",
        });
    }
    if protected >= groups.num_groups() {
        return Err(BaselineError::Fairness(
            fairness_metrics::FairnessError::InvalidGroup {
                group: protected,
                num_groups: groups.num_groups(),
            },
        ));
    }
    let alpha = if config.adjust {
        adjusted_significance(k, config.min_proportion, config.significance)
    } else {
        config.significance
    };
    let table = mtable(k, config.min_proportion, alpha);

    // Score-sorted queues per side (descending score, ties by item id).
    let by_score = Permutation::sorted_by_scores_desc(scores);
    let mut protected_queue: Vec<usize> = Vec::new();
    let mut open_queue: Vec<usize> = Vec::new();
    for &item in by_score.as_order() {
        if groups.group_of(item) == protected {
            protected_queue.push(item);
        } else {
            open_queue.push(item);
        }
    }
    let (mut pi, mut oi) = (0usize, 0usize); // queue cursors
    let mut taken_protected = 0usize;
    let mut out = Vec::with_capacity(k);
    for (pos, &required) in table.iter().enumerate() {
        let need_protected = taken_protected < required;
        let next_protected = protected_queue.get(pi).copied();
        let next_open = open_queue.get(oi).copied();
        let choice = if need_protected {
            match next_protected {
                Some(item) => {
                    pi += 1;
                    taken_protected += 1;
                    item
                }
                None => return Err(BaselineError::Infeasible),
            }
        } else {
            // best remaining overall: compare queue heads by score.
            match (next_protected, next_open) {
                (Some(a), Some(b)) => {
                    let take_protected = scores[a] > scores[b] || (scores[a] == scores[b] && a < b);
                    if take_protected {
                        pi += 1;
                        taken_protected += 1;
                        a
                    } else {
                        oi += 1;
                        b
                    }
                }
                (Some(a), None) => {
                    pi += 1;
                    taken_protected += 1;
                    a
                }
                (None, Some(b)) => {
                    oi += 1;
                    b
                }
                (None, None) => {
                    debug_assert!(false, "k ≤ n guarantees a remaining candidate");
                    return Err(BaselineError::Infeasible);
                }
            }
        };
        out.push(choice);
        debug_assert_eq!(out.len(), pos + 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum number of protected candidates required at prefix length `i`:
    /// the smallest `m` with `F_binom(m; i, p) > α`.
    fn minimum_protected(i: usize, p: f64, alpha: f64) -> usize {
        // m is nondecreasing in i and bounded by ⌈p·i⌉; linear scan is cheap.
        let mut m = 0usize;
        while m <= i {
            if binomial_cdf(m, i, p) > alpha {
                return m;
            }
            m += 1;
        }
        i
    }

    /// Does the top-`k` of `pi` pass the ranked group fairness test?
    fn ranked_group_fairness_test(
        pi: &Permutation,
        groups: &GroupAssignment,
        protected: usize,
        p: f64,
        alpha: f64,
    ) -> Result<bool> {
        if pi.len() != groups.len() {
            return Err(BaselineError::ShapeMismatch {
                what: "ranking vs groups length",
            });
        }
        let table = mtable(pi.len(), p, alpha);
        let mut count = 0usize;
        for (idx, &item) in pi.as_order().iter().enumerate() {
            if groups.group_of(item) == protected {
                count += 1;
            }
            if count < table[idx] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn groups_from(bits: &[usize]) -> GroupAssignment {
        GroupAssignment::new(bits.to_vec(), 2).unwrap()
    }

    #[test]
    fn binomial_cdf_degenerate_p() {
        assert_eq!(binomial_cdf(0, 10, 0.0), 1.0);
        assert_eq!(binomial_cdf(9, 10, 1.0), 0.0);
        assert_eq!(binomial_cdf(10, 10, 1.0), 1.0);
    }

    #[test]
    fn binomial_cdf_matches_hand_computation() {
        // Binom(4, 0.5): pmf = 1/16, 4/16, 6/16, 4/16, 1/16
        assert!((binomial_cdf(0, 4, 0.5) - 1.0 / 16.0).abs() < 1e-12);
        assert!((binomial_cdf(1, 4, 0.5) - 5.0 / 16.0).abs() < 1e-12);
        assert!((binomial_cdf(4, 4, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_cdf_monotone_in_m() {
        for m in 0..20 {
            assert!(binomial_cdf(m, 20, 0.3) <= binomial_cdf(m + 1, 20, 0.3) + 1e-15);
        }
    }

    #[test]
    fn mtable_known_values_p_half_alpha_point1() {
        // F(0;1,.5)=.5>.1 → 0; F(0;4,.5)=.0625≤.1, F(1;4,.5)=.3125>.1 → 1
        let t = mtable(10, 0.5, 0.1);
        assert_eq!(t[..4], [0, 0, 0, 1]);
        assert!(
            t.windows(2).all(|w| w[0] <= w[1]),
            "m-table must be monotone"
        );
        assert!(t.iter().enumerate().all(|(i, &m)| m <= i + 1));
    }

    #[test]
    fn mtable_zero_proportion_is_all_zero() {
        assert!(mtable(8, 0.0, 0.1).iter().all(|&m| m == 0));
    }

    #[test]
    fn mtable_matches_minimum_protected_pointwise() {
        let t = mtable(15, 0.3, 0.05);
        for (i, &m) in t.iter().enumerate() {
            assert_eq!(m, minimum_protected(i + 1, 0.3, 0.05));
        }
    }

    #[test]
    fn failure_probability_zero_for_all_zero_table() {
        assert_eq!(mtable_failure_probability(&[0, 0, 0], 0.5), 0.0);
    }

    #[test]
    fn failure_probability_exact_small_case() {
        // table [1]: prefix of length 1 must be protected → fail prob 1-p.
        let f = mtable_failure_probability(&[1], 0.3);
        assert!((f - 0.7).abs() < 1e-12);
        // table [0, 1]: fail iff first two both unprotected: (1-p)^2
        let f2 = mtable_failure_probability(&[0, 1], 0.3);
        assert!((f2 - 0.49).abs() < 1e-12);
    }

    #[test]
    fn failure_probability_grows_with_table() {
        let p = 0.4;
        let loose = mtable(12, p, 0.05);
        let tight = mtable(12, p, 0.3);
        assert!(mtable_failure_probability(&tight, p) >= mtable_failure_probability(&loose, p));
    }

    #[test]
    fn adjusted_significance_controls_family_wise_error() {
        let (k, p, alpha) = (30, 0.5, 0.1);
        let ac = adjusted_significance(k, p, alpha);
        assert!(ac <= alpha);
        let fail = mtable_failure_probability(&mtable(k, p, ac), p);
        assert!(
            fail <= alpha + 1e-6,
            "corrected failure prob {fail} exceeds α"
        );
        // and the correction is not vacuous: uncorrected fails more often.
        let uncorrected = mtable_failure_probability(&mtable(k, p, alpha), p);
        assert!(
            uncorrected > alpha,
            "test only meaningful when correction needed"
        );
    }

    #[test]
    fn fa_ir_without_constraint_is_plain_top_k() {
        let scores = [0.9, 0.1, 0.8, 0.3, 0.7];
        let groups = groups_from(&[0, 1, 0, 1, 0]);
        let cfg = FaIrConfig {
            min_proportion: 0.0,
            significance: 0.1,
            adjust: false,
        };
        let out = fa_ir(&scores, &groups, 1, 3, &cfg).unwrap();
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn fa_ir_promotes_protected_when_required() {
        // protected items score low: without the constraint none appear.
        let scores = [0.9, 0.8, 0.7, 0.6, 0.2, 0.1];
        let groups = groups_from(&[0, 0, 0, 0, 1, 1]);
        let cfg = FaIrConfig {
            min_proportion: 0.5,
            significance: 0.1,
            adjust: false,
        };
        let out = fa_ir(&scores, &groups, 1, 6, &cfg).unwrap();
        // output passes its own test by construction
        let table = mtable(6, 0.5, 0.1);
        let mut count = 0;
        for (idx, &item) in out.iter().enumerate() {
            if groups.group_of(item) == 1 {
                count += 1;
            }
            assert!(count >= table[idx], "prefix {} violates m-table", idx + 1);
        }
        // and the protected items were pulled up relative to score order
        let first_protected = out.iter().position(|&i| groups.group_of(i) == 1).unwrap();
        assert!(first_protected < 4);
    }

    #[test]
    fn fa_ir_output_passes_ranked_group_fairness_test() {
        let scores = [0.95, 0.9, 0.85, 0.8, 0.75, 0.5, 0.4, 0.3];
        let groups = groups_from(&[0, 0, 0, 1, 0, 1, 1, 0]);
        let cfg = FaIrConfig::default();
        let out = fa_ir(&scores, &groups, 1, 8, &cfg).unwrap();
        let pi = Permutation::from_order(out).unwrap();
        let alpha = adjusted_significance(8, 0.5, 0.1);
        assert!(ranked_group_fairness_test(&pi, &groups, 1, 0.5, alpha).unwrap());
    }

    #[test]
    fn fa_ir_respects_score_order_within_each_side() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3, 0.8];
        let groups = groups_from(&[1, 0, 1, 0, 1, 0]);
        let cfg = FaIrConfig {
            min_proportion: 0.5,
            significance: 0.1,
            adjust: false,
        };
        let out = fa_ir(&scores, &groups, 1, 6, &cfg).unwrap();
        // protected items 0, 2, 4 must appear in descending-score order
        let prot_order: Vec<usize> = out
            .iter()
            .copied()
            .filter(|&i| groups.group_of(i) == 1)
            .collect();
        assert_eq!(prot_order, vec![2, 4, 0]);
        let open_order: Vec<usize> = out
            .iter()
            .copied()
            .filter(|&i| groups.group_of(i) == 0)
            .collect();
        assert_eq!(open_order, vec![1, 5, 3]);
    }

    #[test]
    fn fa_ir_infeasible_when_protected_pool_too_small() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let groups = groups_from(&[0, 0, 0, 1]);
        // demand essentially all-protected prefixes
        let cfg = FaIrConfig {
            min_proportion: 0.99,
            significance: 0.5,
            adjust: false,
        };
        assert!(matches!(
            fa_ir(&scores, &groups, 1, 4, &cfg),
            Err(BaselineError::Infeasible)
        ));
    }

    #[test]
    fn fa_ir_shape_errors() {
        let groups = groups_from(&[0, 1]);
        let cfg = FaIrConfig::default();
        assert!(fa_ir(&[1.0], &groups, 1, 1, &cfg).is_err());
        assert!(fa_ir(&[1.0, 0.5], &groups, 1, 3, &cfg).is_err());
        assert!(fa_ir(&[1.0, 0.5], &groups, 5, 2, &cfg).is_err());
    }

    #[test]
    fn ranked_group_fairness_test_detects_violation() {
        let groups = groups_from(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let segregated = Permutation::identity(8); // protected all at bottom
        assert!(!ranked_group_fairness_test(&segregated, &groups, 1, 0.5, 0.1).unwrap());
        let interleaved = Permutation::from_order(vec![4, 0, 5, 1, 6, 2, 7, 3]).unwrap();
        assert!(ranked_group_fairness_test(&interleaved, &groups, 1, 0.5, 0.1).unwrap());
    }
}

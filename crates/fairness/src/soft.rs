//! Probabilistic (soft) group membership.
//!
//! The paper's German-Credit study stresses *imperfect knowledge* of
//! the protected attribute: algorithms receive noisy constraints, and
//! fairness is judged against an attribute they never see. This module
//! models the uncertainty itself: a [`SoftGroupAssignment`] gives each
//! item a probability distribution over groups (e.g. inferred from a
//! noisy proxy such as name or zip code), supporting
//!
//! * [`SoftGroupAssignment::expected_prefix_counts`] — expected group
//!   counts per prefix;
//! * [`SoftGroupAssignment::expected_infeasible_index`] — the expected
//!   two-sided infeasible index under independent memberships, computed
//!   exactly by a per-prefix Poisson-binomial dynamic program;
//! * [`SoftGroupAssignment::sample`] — draw a hard [`GroupAssignment`];
//! * [`SoftGroupAssignment::from_noisy_labels`] — the standard label-
//!   noise channel (true label kept with probability `1 − ε`, otherwise
//!   uniform over the other groups).

use crate::{FairnessBounds, FairnessError, GroupAssignment, Result};
use rand::Rng;
use ranking_core::Permutation;

/// Per-item probability distributions over `g` groups.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftGroupAssignment {
    /// `probs[i][p]` = probability that item `i` belongs to group `p`.
    probs: Vec<Vec<f64>>,
    num_groups: usize,
}

impl SoftGroupAssignment {
    /// Build from explicit per-item distributions. Each row must have
    /// one entry per group, entries in `[0, 1]` summing to 1 (±1e-9).
    pub fn new(probs: Vec<Vec<f64>>, num_groups: usize) -> Result<Self> {
        for (item, row) in probs.iter().enumerate() {
            if row.len() != num_groups {
                return Err(FairnessError::BoundsShapeMismatch {
                    got: row.len(),
                    expected: num_groups,
                });
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p)) || (sum - 1.0).abs() > 1e-9 {
                return Err(FairnessError::InvalidProportion {
                    group: item,
                    lower: sum,
                    upper: sum,
                });
            }
        }
        Ok(SoftGroupAssignment { probs, num_groups })
    }

    /// Deterministic embedding of a hard assignment (each row is an
    /// indicator vector).
    pub fn from_hard(groups: &GroupAssignment) -> Self {
        let g = groups.num_groups();
        let probs = groups
            .as_slice()
            .iter()
            .map(|&gi| {
                let mut row = vec![0.0; g];
                row[gi] = 1.0;
                row
            })
            .collect();
        SoftGroupAssignment {
            probs,
            num_groups: g,
        }
    }

    /// Label-noise channel: each item keeps its true group with
    /// probability `1 − ε` and otherwise is uniform over the remaining
    /// `g − 1` groups. `ε = 0` is [`Self::from_hard`]; `ε = (g−1)/g`
    /// makes every row uniform.
    pub fn from_noisy_labels(groups: &GroupAssignment, epsilon: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(FairnessError::InvalidProportion {
                group: 0,
                lower: epsilon,
                upper: epsilon,
            });
        }
        let g = groups.num_groups();
        if g < 2 {
            return Ok(Self::from_hard(groups));
        }
        let off = epsilon / (g - 1) as f64;
        let probs = groups
            .as_slice()
            .iter()
            .map(|&gi| {
                (0..g)
                    .map(|p| if p == gi { 1.0 - epsilon } else { off })
                    .collect()
            })
            .collect();
        Ok(SoftGroupAssignment {
            probs,
            num_groups: g,
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Expected per-group counts over every prefix of `pi`:
    /// `out[k][p]` = `E[count_{k+1}(G_p, π)]`.
    pub fn expected_prefix_counts(&self, pi: &Permutation) -> Result<Vec<Vec<f64>>> {
        self.check(pi)?;
        let mut running = vec![0.0; self.num_groups];
        let mut out = Vec::with_capacity(pi.len());
        for &item in pi.as_order() {
            for (r, &p) in running.iter_mut().zip(&self.probs[item]) {
                *r += p;
            }
            out.push(running.clone());
        }
        Ok(out)
    }

    /// Exact expected two-sided infeasible index of `pi` under
    /// independent group memberships.
    ///
    /// For each prefix `k` and group `p`, the count of group-`p` members
    /// is Poisson-binomial with the prefix's membership probabilities;
    /// the violation probability `P[count < min] + P[count > max]` is
    /// read off an incrementally-maintained count distribution
    /// (`O(n²·g)` total). By linearity the expected index is the sum of
    /// per-prefix probabilities that *some* group violates — which is
    /// **not** a sum of independent events, so an inclusion–exclusion-
    /// free upper bound would be wrong; instead we use the union bound
    /// only when `g > 2` and exact complement-counting for `g ≤ 2`
    /// (binary membership makes the two groups' counts complementary).
    /// The returned value is exact for `g ≤ 2` and an upper bound
    /// otherwise (documented by tests).
    pub fn expected_infeasible_index(
        &self,
        pi: &Permutation,
        bounds: &FairnessBounds,
    ) -> Result<f64> {
        self.check(pi)?;
        if bounds.num_groups() != self.num_groups {
            return Err(FairnessError::BoundsShapeMismatch {
                got: bounds.num_groups(),
                expected: self.num_groups,
            });
        }
        let n = pi.len();
        // dist[p] = probability vector over counts for group p in the
        // current prefix, updated one item at a time.
        let mut dist: Vec<Vec<f64>> = vec![vec![1.0]; self.num_groups];
        let mut expected = 0.0;
        for (idx, &item) in pi.as_order().iter().enumerate() {
            let k = idx + 1;
            for (p, d) in dist.iter_mut().enumerate() {
                let q = self.probs[item][p];
                let mut next = vec![0.0; k + 1];
                for (c, &mass) in d.iter().enumerate() {
                    next[c] += mass * (1.0 - q);
                    next[c + 1] += mass * q;
                }
                *d = next;
            }
            // The two-sided index adds one unit per prefix with a lower
            // violation and one per prefix with an upper violation
            // (Definition 3 sums the two indicators), so the two sides
            // are accumulated separately.
            if self.num_groups == 2 {
                // counts are complementary: count₁ = k − count₀, so
                // each side's violation event is an exact window on
                // count₀.
                let lo0 = bounds.min_count(0, k);
                let hi0 = bounds.max_count(0, k);
                let lo1 = bounds.min_count(1, k);
                let hi1 = bounds.max_count(1, k);
                // lower viol: count₀ < lo0 OR count₁ < lo1 ⇔
                //             count₀ < lo0 OR count₀ > k − lo1
                let lower_ok_lo = lo0;
                let lower_ok_hi = k.saturating_sub(lo1).min(k);
                let ok_lower: f64 = if lower_ok_lo > lower_ok_hi {
                    0.0
                } else {
                    dist[0][lower_ok_lo..=lower_ok_hi].iter().sum()
                };
                // upper viol: count₀ > hi0 OR count₁ > hi1 ⇔
                //             count₀ > hi0 OR count₀ < k − hi1
                let upper_ok_lo = k.saturating_sub(hi1);
                let upper_ok_hi = hi0.min(k);
                let ok_upper: f64 = if upper_ok_lo > upper_ok_hi {
                    0.0
                } else {
                    dist[0][upper_ok_lo..=upper_ok_hi].iter().sum()
                };
                expected += (1.0 - ok_lower) + (1.0 - ok_upper);
            } else {
                // union bound per side over the groups, each clamped
                // to 1 (exact for g ≤ 2; an upper bound otherwise).
                let (mut lower, mut upper) = (0.0f64, 0.0f64);
                for (p, d) in dist.iter().enumerate() {
                    let lo = bounds.min_count(p, k);
                    let hi = bounds.max_count(p, k);
                    let p_low: f64 = d.iter().take(lo.min(k + 1)).sum();
                    let p_high: f64 = if hi < k {
                        d[hi + 1..=k].iter().sum()
                    } else {
                        0.0
                    };
                    lower += p_low;
                    upper += p_high;
                }
                expected += lower.min(1.0) + upper.min(1.0);
            }
        }
        let _ = n;
        Ok(expected)
    }

    /// Draw a hard assignment (independent per item).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GroupAssignment {
        let groups = self
            .probs
            .iter()
            .map(|row| {
                let mut u: f64 = rng.random();
                for (p, &q) in row.iter().enumerate() {
                    if u < q {
                        return p;
                    }
                    u -= q;
                }
                row.len() - 1
            })
            .collect();
        GroupAssignment::new(groups, self.num_groups)
            .expect("sampled ids are in range by construction")
    }

    /// Most-likely hard assignment (per-item argmax, ties to the lower
    /// group id).
    pub fn map_assignment(&self) -> GroupAssignment {
        let groups = self
            .probs
            .iter()
            .map(|row| {
                let mut best = 0usize;
                for (p, &q) in row.iter().enumerate().skip(1) {
                    if q > row[best] {
                        best = p;
                    }
                }
                best
            })
            .collect();
        GroupAssignment::new(groups, self.num_groups)
            .expect("argmax ids are in range by construction")
    }

    fn check(&self, pi: &Permutation) -> Result<()> {
        if pi.len() != self.len() {
            return Err(FairnessError::LengthMismatch {
                ranking: pi.len(),
                groups: self.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infeasible;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hard(bits: &[usize]) -> GroupAssignment {
        GroupAssignment::new(bits.to_vec(), 2).unwrap()
    }

    #[test]
    fn new_validates_rows() {
        assert!(SoftGroupAssignment::new(vec![vec![0.5, 0.5]], 2).is_ok());
        assert!(SoftGroupAssignment::new(vec![vec![0.5, 0.4]], 2).is_err());
        assert!(SoftGroupAssignment::new(vec![vec![1.5, -0.5]], 2).is_err());
        assert!(SoftGroupAssignment::new(vec![vec![1.0]], 2).is_err());
    }

    #[test]
    fn from_hard_is_indicator() {
        let g = hard(&[0, 1, 0]);
        let s = SoftGroupAssignment::from_hard(&g);
        assert_eq!(s.probs, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]);
    }

    #[test]
    fn noisy_labels_zero_epsilon_is_hard() {
        let g = hard(&[0, 1, 1, 0]);
        let s = SoftGroupAssignment::from_noisy_labels(&g, 0.0).unwrap();
        assert_eq!(s, SoftGroupAssignment::from_hard(&g));
    }

    #[test]
    fn noisy_labels_rows_are_distributions() {
        let g = GroupAssignment::new(vec![0, 1, 2, 1], 3).unwrap();
        let s = SoftGroupAssignment::from_noisy_labels(&g, 0.3).unwrap();
        for i in 0..4 {
            let row = &s.probs[i];
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!((row[g.group_of(i)] - 0.7).abs() < 1e-12);
        }
        assert!(SoftGroupAssignment::from_noisy_labels(&g, 1.5).is_err());
    }

    #[test]
    fn expected_prefix_counts_match_hard_counts_when_deterministic() {
        let g = hard(&[0, 1, 0, 1, 1]);
        let s = SoftGroupAssignment::from_hard(&g);
        let pi = Permutation::from_order(vec![4, 0, 3, 1, 2]).unwrap();
        let soft = s.expected_prefix_counts(&pi).unwrap();
        let hard_counts = g.prefix_counts(pi.as_order());
        for (k, row) in soft.iter().enumerate() {
            for p in 0..2 {
                assert!((row[p] - hard_counts[k][p] as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expected_ii_matches_hard_ii_when_deterministic() {
        let g = hard(&[0, 0, 0, 1, 1, 1]);
        let s = SoftGroupAssignment::from_hard(&g);
        let bounds = FairnessBounds::from_assignment(&g);
        for pi in [
            Permutation::identity(6),
            Permutation::from_order(vec![3, 0, 4, 1, 5, 2]).unwrap(),
        ] {
            let exact = infeasible::two_sided_infeasible_index(&pi, &g, &bounds).unwrap() as f64;
            let expected = s.expected_infeasible_index(&pi, &bounds).unwrap();
            assert!(
                (exact - expected).abs() < 1e-9,
                "hard II {exact} vs soft expectation {expected}"
            );
        }
    }

    #[test]
    fn expected_ii_matches_monte_carlo_binary() {
        let g = hard(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let s = SoftGroupAssignment::from_noisy_labels(&g, 0.25).unwrap();
        let bounds = FairnessBounds::from_assignment(&g);
        let pi = Permutation::identity(8);
        let analytic = s.expected_infeasible_index(&pi, &bounds).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let draws = 20_000;
        let mc: f64 = (0..draws)
            .map(|_| {
                let hard = s.sample(&mut rng);
                infeasible::two_sided_infeasible_index(&pi, &hard, &bounds).unwrap() as f64
            })
            .sum::<f64>()
            / draws as f64;
        assert!(
            (analytic - mc).abs() < 0.08,
            "analytic {analytic:.4} vs Monte Carlo {mc:.4}"
        );
    }

    #[test]
    fn expected_ii_union_bound_dominates_monte_carlo_multigroup() {
        let g = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2], 3).unwrap();
        let s = SoftGroupAssignment::from_noisy_labels(&g, 0.2).unwrap();
        let bounds = FairnessBounds::from_assignment(&g);
        let pi = Permutation::identity(6);
        let upper = s.expected_infeasible_index(&pi, &bounds).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 20_000;
        let mc: f64 = (0..draws)
            .map(|_| {
                let hard = s.sample(&mut rng);
                infeasible::two_sided_infeasible_index(&pi, &hard, &bounds).unwrap() as f64
            })
            .sum::<f64>()
            / draws as f64;
        assert!(
            upper >= mc - 0.05,
            "union bound {upper:.4} must dominate Monte Carlo {mc:.4}"
        );
    }

    #[test]
    fn sample_marginals_match_probs() {
        let s = SoftGroupAssignment::new(vec![vec![0.8, 0.2], vec![0.3, 0.7], vec![0.5, 0.5]], 2)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 30_000;
        let mut count0 = [0usize; 3];
        for _ in 0..draws {
            let h = s.sample(&mut rng);
            for i in 0..3 {
                if h.group_of(i) == 0 {
                    count0[i] += 1;
                }
            }
        }
        for (i, expect) in [(0usize, 0.8f64), (1, 0.3), (2, 0.5)] {
            let obs = count0[i] as f64 / draws as f64;
            assert!((obs - expect).abs() < 0.02, "item {i}: {obs} vs {expect}");
        }
    }

    #[test]
    fn map_assignment_takes_argmax() {
        let s = SoftGroupAssignment::new(vec![vec![0.9, 0.1], vec![0.4, 0.6], vec![0.5, 0.5]], 2)
            .unwrap();
        let m = s.map_assignment();
        assert_eq!(m.as_slice(), &[0, 1, 0]); // tie → lower id
    }

    #[test]
    fn length_mismatch_errors() {
        let s = SoftGroupAssignment::from_hard(&hard(&[0, 1]));
        let pi = Permutation::identity(3);
        assert!(s.expected_prefix_counts(&pi).is_err());
        let bounds = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(s.expected_infeasible_index(&pi, &bounds).is_err());
    }
}

//! Exposure-based fairness measures (Singh & Joachims, KDD'18 family).
//!
//! P-fairness constrains group *counts* per prefix; exposure measures
//! instead weigh each position by the attention it receives (the same
//! `1/log₂(1+i)` position bias that powers DCG) and ask whether groups
//! receive attention proportionally. The paper's robustness study
//! motivates evaluating a ranking under fairness measures it was *not*
//! optimized for — this module supplies that second family:
//!
//! * [`group_exposures`] — total position-bias attention per group;
//! * `mean_group_exposures` — attention per group member;
//! * [`exposure_parity_ratio`] — min/max ratio of mean exposures
//!   (demographic parity of exposure; `1` is perfect parity);
//! * [`disparate_treatment_ratio`] — min/max ratio of exposure-per-
//!   utility across groups (merit-adjusted parity).

use crate::{FairnessError, GroupAssignment, Result};
use ranking_core::quality::Discount;
use ranking_core::Permutation;

fn check_lengths(pi: &Permutation, groups: &GroupAssignment) -> Result<()> {
    if pi.len() != groups.len() {
        return Err(FairnessError::LengthMismatch {
            ranking: pi.len(),
            groups: groups.len(),
        });
    }
    Ok(())
}

/// Total exposure received by each group: the sum over its members of
/// the position bias `discount.at(rank)` at their (1-based) ranks.
pub fn group_exposures(
    pi: &Permutation,
    groups: &GroupAssignment,
    discount: Discount,
) -> Result<Vec<f64>> {
    check_lengths(pi, groups)?;
    let mut exposure = vec![0.0; groups.num_groups()];
    for (idx, &item) in pi.as_order().iter().enumerate() {
        exposure[groups.group_of(item)] += discount.at(idx + 1);
    }
    Ok(exposure)
}

/// Mean exposure per member of each group. Empty groups report `0`.
fn mean_group_exposures(
    pi: &Permutation,
    groups: &GroupAssignment,
    discount: Discount,
) -> Result<Vec<f64>> {
    let totals = group_exposures(pi, groups, discount)?;
    let sizes = groups.group_sizes();
    Ok(totals
        .into_iter()
        .zip(sizes)
        .map(|(e, s)| if s == 0 { 0.0 } else { e / s as f64 })
        .collect())
}

/// Demographic parity of exposure as a single ratio in `[0, 1]`:
/// the minimum mean group exposure divided by the maximum, over
/// non-empty groups. `1` means all groups receive identical average
/// attention; `0` means some group receives none.
///
/// Rankings with fewer than two non-empty groups are trivially fair
/// (`1`).
///
/// ```
/// use fairness_metrics::{exposure::exposure_parity_ratio, GroupAssignment};
/// use ranking_core::{quality::Discount, Permutation};
/// let groups = GroupAssignment::binary_split(4, 2);
/// // both group-0 items on top → group 1 under-exposed
/// let top_heavy = Permutation::identity(4);
/// let ratio = exposure_parity_ratio(&top_heavy, &groups, Discount::Log2).unwrap();
/// assert!(ratio < 1.0);
/// ```
pub fn exposure_parity_ratio(
    pi: &Permutation,
    groups: &GroupAssignment,
    discount: Discount,
) -> Result<f64> {
    let means = mean_group_exposures(pi, groups, discount)?;
    let sizes = groups.group_sizes();
    min_over_max(
        means
            .iter()
            .zip(&sizes)
            .filter(|(_, &s)| s > 0)
            .map(|(&m, _)| m),
    )
}

/// Disparate-treatment ratio: min/max over non-empty groups of
/// *exposure per unit of utility* `Exposure(G) / U(G)`, where `U(G)` is
/// the group's total score. `1` means attention is allocated exactly
/// proportionally to merit (the disparate-treatment constraint of Singh
/// & Joachims); smaller means some group is under-exposed relative to
/// its merit.
///
/// Groups with zero total utility are skipped (their merited exposure
/// is undefined); if fewer than two groups remain the ranking is
/// trivially fair (`1`). Errors when `scores` length mismatches.
pub fn disparate_treatment_ratio(
    pi: &Permutation,
    scores: &[f64],
    groups: &GroupAssignment,
    discount: Discount,
) -> Result<f64> {
    if scores.len() != pi.len() {
        return Err(FairnessError::LengthMismatch {
            ranking: pi.len(),
            groups: scores.len(),
        });
    }
    let exposures = group_exposures(pi, groups, discount)?;
    let mut utility = vec![0.0; groups.num_groups()];
    for (item, &s) in scores.iter().enumerate() {
        utility[groups.group_of(item)] += s;
    }
    min_over_max(
        exposures
            .iter()
            .zip(&utility)
            .filter(|(_, &u)| u > 0.0)
            .map(|(&e, &u)| e / u),
    )
}

/// min/max of an iterator of non-negative values; `1` when fewer than
/// two values (trivial parity) and `0` when the max is positive but the
/// min is zero.
fn min_over_max(values: impl Iterator<Item = f64>) -> Result<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut count = 0usize;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
        count += 1;
    }
    if count < 2 || hi <= 0.0 {
        return Ok(1.0);
    }
    Ok(lo / hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposures_sum_to_total_discount_mass() {
        let groups = GroupAssignment::new(vec![0, 1, 0, 1, 1], 2).unwrap();
        let pi = Permutation::from_order(vec![2, 4, 0, 1, 3]).unwrap();
        let e = group_exposures(&pi, &groups, Discount::Log2).unwrap();
        let total: f64 = (1..=5).map(|i| Discount::Log2.at(i)).sum();
        assert!(((e[0] + e[1]) - total).abs() < 1e-12);
    }

    #[test]
    fn top_positions_carry_more_exposure() {
        let groups = GroupAssignment::binary_split(4, 2);
        let top_heavy = Permutation::identity(4); // group 0 at ranks 1–2
        let e = group_exposures(&top_heavy, &groups, Discount::Log2).unwrap();
        assert!(e[0] > e[1]);
    }

    #[test]
    fn mean_exposure_handles_unequal_sizes() {
        let groups = GroupAssignment::new(vec![0, 1, 1, 1], 2).unwrap();
        let pi = Permutation::identity(4);
        let m = mean_group_exposures(&pi, &groups, Discount::Log2).unwrap();
        // group 0 has its single member at rank 1 (exposure 1.0)
        assert!((m[0] - 1.0).abs() < 1e-12);
        assert!(m[1] < m[0]);
    }

    #[test]
    fn mean_exposure_empty_group_is_zero() {
        let groups = GroupAssignment::new(vec![0, 0], 2).unwrap();
        let pi = Permutation::identity(2);
        let m = mean_group_exposures(&pi, &groups, Discount::Log2).unwrap();
        assert_eq!(m[1], 0.0);
    }

    #[test]
    fn parity_ratio_one_for_symmetric_interleaving() {
        // 0,1 alternate and group sizes equal at even n with the *same*
        // rank multiset per group when we interleave twice symmetrically:
        // ranks {1,4} vs {2,3} are not equal-exposure, so build an exactly
        // symmetric case instead: two items, one per group.
        let groups = GroupAssignment::new(vec![0, 1], 2).unwrap();
        let pi = Permutation::identity(2);
        let r = exposure_parity_ratio(&pi, &groups, Discount::None).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parity_ratio_decreases_with_segregation() {
        let groups = GroupAssignment::binary_split(10, 5);
        let segregated = Permutation::identity(10);
        let interleaved =
            Permutation::from_order((0..5).flat_map(|i| [i, i + 5]).collect::<Vec<_>>()).unwrap();
        let rs = exposure_parity_ratio(&segregated, &groups, Discount::Log2).unwrap();
        let ri = exposure_parity_ratio(&interleaved, &groups, Discount::Log2).unwrap();
        assert!(rs < ri, "segregated {rs} vs interleaved {ri}");
        assert!(ri <= 1.0 + 1e-12);
    }

    #[test]
    fn parity_ratio_single_group_is_one() {
        let groups = GroupAssignment::new(vec![0; 4], 1).unwrap();
        let pi = Permutation::identity(4);
        assert_eq!(
            exposure_parity_ratio(&pi, &groups, Discount::Log2).unwrap(),
            1.0
        );
    }

    #[test]
    fn dtr_is_one_when_exposure_tracks_merit_exactly() {
        // Two items, equal scores, Discount::None → equal exposure and
        // equal utility per group.
        let groups = GroupAssignment::new(vec![0, 1], 2).unwrap();
        let pi = Permutation::identity(2);
        let dtr = disparate_treatment_ratio(&pi, &[1.0, 1.0], &groups, Discount::None).unwrap();
        assert!((dtr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dtr_penalizes_meritorious_group_buried_below() {
        // group 1 has all the merit but sits at the bottom.
        let groups = GroupAssignment::binary_split(6, 3);
        let scores = [0.1, 0.1, 0.1, 1.0, 1.0, 1.0];
        let buried = Permutation::identity(6); // low-merit group on top
        let ideal = Permutation::sorted_by_scores_desc(&scores);
        let d_buried =
            disparate_treatment_ratio(&buried, &scores, &groups, Discount::Log2).unwrap();
        let d_ideal = disparate_treatment_ratio(&ideal, &scores, &groups, Discount::Log2).unwrap();
        assert!(d_buried < d_ideal, "buried {d_buried} vs ideal {d_ideal}");
    }

    #[test]
    fn dtr_skips_zero_utility_groups() {
        let groups = GroupAssignment::binary_split(4, 2);
        let scores = [1.0, 1.0, 0.0, 0.0]; // group 1 has zero utility
        let pi = Permutation::identity(4);
        assert_eq!(
            disparate_treatment_ratio(&pi, &scores, &groups, Discount::Log2).unwrap(),
            1.0
        );
    }

    #[test]
    fn dtr_score_length_mismatch_errors() {
        let groups = GroupAssignment::binary_split(4, 2);
        let pi = Permutation::identity(4);
        assert!(disparate_treatment_ratio(&pi, &[1.0], &groups, Discount::Log2).is_err());
    }

    #[test]
    fn exposure_length_mismatch_errors() {
        let groups = GroupAssignment::binary_split(4, 2);
        let pi = Permutation::identity(5);
        assert!(group_exposures(&pi, &groups, Discount::Log2).is_err());
    }
}

//! Exhaustive reference solvers (test oracles, `n ≤ 9`).
//!
//! These enumerate all `n!` rankings, filter by P-fairness and optimize
//! the requested objective. They exist so every polynomial algorithm in
//! this crate can be validated against ground truth on small instances.

use fairness_metrics::{bounds::BoundTables, FairnessBounds, GroupAssignment};
use ranking_core::quality::Discount;
use ranking_core::{distance, Permutation};

/// Whether `pi` satisfies `bounds` at every prefix (Definition 1 with
/// `k = 1`).
fn is_fair(pi: &Permutation, groups: &GroupAssignment, bounds: &FairnessBounds) -> bool {
    fairness_metrics::pfair::is_k_fair(pi, groups, bounds, 1).unwrap_or(false)
}

/// Whether `pi` satisfies explicit integer bound tables at every prefix.
pub fn is_fair_tables(pi: &Permutation, groups: &GroupAssignment, tables: &BoundTables) -> bool {
    let counts = groups.prefix_counts(pi.as_order());
    for (k, row) in counts.iter().enumerate() {
        for p in 0..groups.num_groups() {
            if row[p] < tables.min[k][p] || row[p] > tables.max[k][p] {
                return false;
            }
        }
    }
    true
}

/// Minimum-footrule fair ranking, or `None` when no fair ranking exists.
pub fn min_footrule_fair(
    sigma: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Option<(Permutation, u64)> {
    argbest(groups.len(), |pi| {
        is_fair(pi, groups, bounds).then(|| distance::footrule(pi, sigma).unwrap())
    })
}

/// Minimum-Kendall-tau fair ranking, or `None` when no fair ranking
/// exists.
pub fn min_kendall_fair(
    sigma: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Option<(Permutation, u64)> {
    argbest(groups.len(), |pi| {
        is_fair(pi, groups, bounds).then(|| distance::kendall_tau(pi, sigma).unwrap())
    })
}

/// Maximum-DCG fair ranking under explicit bound tables, or `None` when
/// no feasible ranking exists. DCG uses the given discount.
pub fn max_dcg_fair(
    scores: &[f64],
    groups: &GroupAssignment,
    tables: &BoundTables,
    discount: Discount,
) -> Option<(Permutation, f64)> {
    let mut best: Option<(Permutation, f64)> = None;
    for pi in Permutation::enumerate_all(groups.len()) {
        if !is_fair_tables(&pi, groups, tables) {
            continue;
        }
        let d = ranking_core::quality::dcg_at(&pi, scores, scores.len(), discount).unwrap();
        if best.as_ref().is_none_or(|(_, b)| d > *b) {
            best = Some((pi, d));
        }
    }
    best
}

fn argbest(
    n: usize,
    mut objective: impl FnMut(&Permutation) -> Option<u64>,
) -> Option<(Permutation, u64)> {
    let mut best: Option<(Permutation, u64)> = None;
    for pi in Permutation::enumerate_all(n) {
        if let Some(v) = objective(&pi) {
            if best.as_ref().is_none_or(|(_, b)| v < *b) {
                best = Some((pi, v));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_identity_costs_zero() {
        let groups = GroupAssignment::alternating(6);
        let bounds = FairnessBounds::from_assignment(&groups);
        let sigma = Permutation::identity(6);
        let (pi, d) = min_kendall_fair(&sigma, &groups, &bounds).unwrap();
        assert_eq!(d, 0);
        assert_eq!(pi, sigma);
    }

    #[test]
    fn impossible_bounds_give_none() {
        let groups = GroupAssignment::new(vec![0, 1, 1, 1], 2).unwrap();
        let bounds = FairnessBounds::new(vec![0.9, 0.0], vec![1.0, 1.0]).unwrap();
        let sigma = Permutation::identity(4);
        assert!(min_kendall_fair(&sigma, &groups, &bounds).is_none());
        assert!(min_footrule_fair(&sigma, &groups, &bounds).is_none());
    }

    #[test]
    fn dcg_oracle_prefers_high_scores_up_front() {
        let groups = GroupAssignment::alternating(4);
        let tables = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap()
            .tables(4);
        let scores = [0.1, 0.9, 0.2, 0.8];
        let (pi, _) = max_dcg_fair(&scores, &groups, &tables, Discount::Log2).unwrap();
        assert_eq!(
            pi.as_order(),
            Permutation::sorted_by_scores_desc(&scores).as_order()
        );
    }

    #[test]
    fn tables_check_matches_bounds_check() {
        let groups = GroupAssignment::binary_split(6, 3);
        let bounds = FairnessBounds::from_assignment(&groups);
        let tables = bounds.tables(6);
        for pi in Permutation::enumerate_all(6) {
            assert_eq!(
                is_fair(&pi, &groups, &bounds),
                is_fair_tables(&pi, &groups, &tables)
            );
        }
    }
}

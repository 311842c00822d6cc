//! Fair top-k selection: the shortlist problem.
//!
//! The paper's motivating HR scenario ranks hundreds of applicants to
//! shortlist the best `k`. This module solves the selection variant of
//! the ILP exactly: choose and order `k` of `n` items maximizing DCG@k
//! subject to P-fairness, under either
//!
//! * [`FairnessMode::Weak`] — Definition 2: only the full length-`k`
//!   prefix must satisfy the bounds, or
//! * [`FairnessMode::Strong`] — Definition 1 with threshold 1: every
//!   prefix of the shortlist satisfies the bounds.
//!
//! The same group-count DP as `ilp_ranking` applies, truncated at level
//! `k`, with the bounds checked per mode.

use crate::{BaselineError, Result};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use ranking_core::quality::Discount;
use ranking_core::Permutation;
use std::collections::BTreeMap;

/// Which prefixes of the shortlist must satisfy the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessMode {
    /// Only the length-`k` prefix (Definition 2, weak k-fairness).
    Weak,
    /// Every prefix `1..=k` (Definition 1 restricted to the shortlist).
    Strong,
}

/// Exact DCG-optimal fair shortlist of `k` items (see module docs).
///
/// Returns the selected items in ranked order (a length-`k` sequence of
/// original item indices). Errors with [`BaselineError::Infeasible`]
/// when no shortlist satisfies the bounds.
pub fn fair_top_k(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
    k: usize,
    mode: FairnessMode,
    discount: Discount,
) -> Result<Vec<usize>> {
    let n = scores.len();
    if n != groups.len() {
        return Err(BaselineError::ShapeMismatch {
            what: "scores vs groups",
        });
    }
    if bounds.num_groups() != groups.num_groups() {
        return Err(BaselineError::ShapeMismatch {
            what: "bounds vs groups",
        });
    }
    if k > n {
        return Err(BaselineError::ShapeMismatch {
            what: "k exceeds item count",
        });
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let g = groups.num_groups();
    let sizes = groups.group_sizes();

    let mut members: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for m in &mut members {
        m.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    type State = Vec<u16>;
    // ordered maps: equal-value paths tie-break by state order, so the
    // result is the same in every process (hash order is per-process)
    let mut frontier: BTreeMap<State, f64> = BTreeMap::new();
    frontier.insert(vec![0u16; g], 0.0);
    let mut parents: Vec<BTreeMap<State, usize>> = Vec::with_capacity(k);

    for l in 0..k {
        let enforce = mode == FairnessMode::Strong || l + 1 == k;
        let mut next: BTreeMap<State, f64> = BTreeMap::new();
        let mut parent: BTreeMap<State, usize> = BTreeMap::new();
        for (state, value) in &frontier {
            for p in 0..g {
                let cnt = state[p] as usize;
                if cnt >= sizes[p] {
                    continue;
                }
                if enforce {
                    let prefix = l + 1;
                    let mut ok = true;
                    for q in 0..g {
                        let c = state[q] as usize + usize::from(q == p);
                        if c < bounds.min_count(q, prefix) || c > bounds.max_count(q, prefix) {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        continue;
                    }
                }
                let gain = scores[members[p][cnt]] * discount.at(l + 1);
                let mut new_state = state.clone();
                new_state[p] += 1;
                let v = value + gain;
                match next.get(&new_state) {
                    Some(existing) if *existing >= v => {}
                    _ => {
                        next.insert(new_state.clone(), v);
                        parent.insert(new_state, p);
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(BaselineError::Infeasible);
        }
        frontier = next;
        parents.push(parent);
    }

    // Best final state (many states can reach level k, unlike the full
    // ranking DP).
    let (mut state, _) = frontier
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty frontier");
    let mut group_seq = vec![0usize; k];
    for l in (0..k).rev() {
        let p = *parents[l]
            .get(&state)
            .expect("backpointer for reachable state");
        group_seq[l] = p;
        state[p] -= 1;
    }
    let mut taken = vec![0usize; g];
    let mut out = Vec::with_capacity(k);
    for p in group_seq {
        out.push(members[p][taken[p]]);
        taken[p] += 1;
    }
    Ok(out)
}

/// Convenience: full fair ranking of the shortlist padded with the
/// remaining items by descending score (useful when downstream expects
/// a complete permutation but only the top-`k` is constrained).
pub fn fair_top_k_ranking(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
    k: usize,
    mode: FairnessMode,
    discount: Discount,
) -> Result<Permutation> {
    let head = fair_top_k(scores, groups, bounds, k, mode, discount)?;
    let chosen: std::collections::BTreeSet<usize> = head.iter().copied().collect();
    let mut rest: Vec<usize> = (0..scores.len()).filter(|i| !chosen.contains(i)).collect();
    rest.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut order = head;
    order.extend(rest);
    Ok(Permutation::from_order_unchecked(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_metrics::pfair;

    fn setup() -> (Vec<f64>, GroupAssignment, FairnessBounds) {
        // group 0 (items 0..5) dominates the scores
        let scores = vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5];
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        (scores, groups, bounds)
    }

    #[test]
    fn score_ties_break_the_same_way_every_run() {
        // equal scores leave many optimal shortlists; the chosen one
        // must not depend on map iteration order
        let scores = vec![1.0; 10];
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        let run = || {
            fair_top_k(
                &scores,
                &groups,
                &bounds,
                6,
                FairnessMode::Weak,
                Discount::Log2,
            )
        };
        let first = run().unwrap();
        for _ in 0..16 {
            assert_eq!(run().unwrap(), first);
        }
    }

    #[test]
    fn weak_selection_balances_the_shortlist() {
        let (scores, groups, bounds) = setup();
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            4,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        assert_eq!(top.len(), 4);
        let g1 = top.iter().filter(|&&i| groups.group_of(i) == 1).count();
        assert_eq!(
            g1, 2,
            "weak 4-fairness with 50/50 bounds needs 2 from each group"
        );
    }

    #[test]
    fn weak_mode_orders_by_score_within_the_shortlist_constraint() {
        let (scores, groups, bounds) = setup();
        // DCG maximal: best items of each group first
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            4,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        // scores of selected: 9, 8 (group 0 best) and 4, 3 (group 1 best);
        // DCG-optimal order is descending score
        assert_eq!(top, vec![0, 1, 5, 6]);
    }

    #[test]
    fn strong_mode_interleaves() {
        let (scores, groups, bounds) = setup();
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        let ranking = Permutation::from_order_unchecked(
            top.iter()
                .copied()
                .chain((0..10).filter(|i| !top.contains(i)))
                .collect(),
        );
        // every prefix of the shortlist satisfies the bounds
        let counts = groups.prefix_counts(ranking.as_order());
        for prefix in 1..=6 {
            for p in 0..2 {
                let c = counts[prefix - 1][p];
                assert!(c >= bounds.min_count(p, prefix));
                assert!(c <= bounds.max_count(p, prefix));
            }
        }
    }

    #[test]
    fn strong_is_at_most_as_good_as_weak() {
        let (scores, groups, bounds) = setup();
        let dcg = |items: &[usize]| -> f64 {
            items
                .iter()
                .enumerate()
                .map(|(idx, &i)| scores[i] * Discount::Log2.at(idx + 1))
                .sum()
        };
        let weak = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        let strong = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        assert!(dcg(&weak) + 1e-9 >= dcg(&strong));
    }

    #[test]
    fn infeasible_when_group_too_small() {
        let scores = vec![1.0, 2.0, 3.0, 4.0];
        let groups = GroupAssignment::new(vec![0, 1, 1, 1], 2).unwrap();
        // demand half of the shortlist from group 0 (one member) at k = 4
        let bounds = FairnessBounds::new(vec![0.5, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(
            fair_top_k(
                &scores,
                &groups,
                &bounds,
                4,
                FairnessMode::Weak,
                Discount::Log2
            ),
            Err(BaselineError::Infeasible)
        );
    }

    #[test]
    fn k_zero_and_k_equals_n() {
        let (scores, groups, bounds) = setup();
        assert!(fair_top_k(
            &scores,
            &groups,
            &bounds,
            0,
            FairnessMode::Weak,
            Discount::Log2
        )
        .unwrap()
        .is_empty());
        let full = fair_top_k(
            &scores,
            &groups,
            &bounds,
            10,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn oversized_k_rejected() {
        let (scores, groups, bounds) = setup();
        assert!(matches!(
            fair_top_k(
                &scores,
                &groups,
                &bounds,
                11,
                FairnessMode::Weak,
                Discount::Log2
            ),
            Err(BaselineError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn padded_ranking_is_weakly_fair_and_complete() {
        let (scores, groups, bounds) = setup();
        let pi = fair_top_k_ranking(
            &scores,
            &groups,
            &bounds,
            4,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        assert_eq!(pi.len(), 10);
        assert!(pfair::is_weak_k_fair(&pi, &groups, &bounds, 4).unwrap());
    }

    #[test]
    fn strong_full_length_matches_full_dp() {
        // strong top-n selection solves the same problem as the full DP
        let (scores, groups, bounds) = setup();
        let tables = bounds.tables(10);
        let full_dp =
            crate::ilp_ranking::optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2)
                .unwrap();
        let topn = fair_top_k(
            &scores,
            &groups,
            &bounds,
            10,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        let dcg = |order: &[usize]| -> f64 {
            order
                .iter()
                .enumerate()
                .map(|(idx, &i)| scores[i] * Discount::Log2.at(idx + 1))
                .sum()
        };
        assert!((dcg(full_dp.as_order()) - dcg(&topn)).abs() < 1e-9);
    }
}

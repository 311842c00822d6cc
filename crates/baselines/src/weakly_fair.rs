//! Construction of the weakly-P-fair initial ranking.
//!
//! The paper feeds every post-processing algorithm "a weakly-p-fair
//! ranking of candidates ordered by their descending score" (Sections
//! IV-A and V-C2). This greedy constructor fills positions top-down:
//!
//! 1. if some group is about to fall below its lower bound at the next
//!    prefix, the highest-scored remaining member of a deficient group is
//!    placed (most-deficient group first);
//! 2. otherwise the highest-scored remaining item whose group stays
//!    within its upper bound is placed;
//! 3. if nothing is feasible (possible under adversarial bounds), the
//!    globally highest-scored remaining item is placed — the violation is
//!    tolerated exactly like the reference implementation does.

use fairness_metrics::{BoundSteps, FairnessBounds, GroupAssignment};
use ranking_core::Permutation;

/// Greedy weakly-fair ranking by descending score (see module docs).
///
/// Always returns a complete ranking; callers needing a fairness
/// certificate should check it with `fairness_metrics::pfair`.
///
/// Sorts the scores and compiles the bound steps, then runs
/// [`weakly_fair_from_order`]; a caller already holding both passes
/// them there directly.
///
/// # Panics
/// Panics when `scores.len() != groups.len()` or the bounds cover a
/// different number of groups — these are programming errors, not data
/// conditions.
pub fn weakly_fair_ranking(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Permutation {
    let order = Permutation::sorted_by_scores_desc(scores);
    weakly_fair_from_order(
        scores,
        groups,
        order.as_order(),
        &bounds.steps(scores.len()),
    )
}

/// [`weakly_fair_ranking`] from the score order `order`
/// (`Permutation::sorted_by_scores_desc(scores)`) and the bound steps
/// `bounds.steps(n)`. Each group's queue is the score order filtered to
/// its members, and the integer bounds of each prefix replay the step
/// events instead of recomputing `⌊β_p·k⌋` / `⌈α_p·k⌉`.
///
/// # Panics
/// Panics when `scores`, `groups`, `order` and `steps` disagree on the
/// item or group count.
pub fn weakly_fair_from_order(
    scores: &[f64],
    groups: &GroupAssignment,
    order: &[usize],
    steps: &BoundSteps,
) -> Permutation {
    let n = scores.len();
    assert_eq!(n, groups.len(), "scores and groups must align");
    assert_eq!(order.len(), n, "the score order must rank every item");
    assert_eq!(steps.n(), n, "bound steps must cover every prefix");
    assert_eq!(
        steps.num_groups(),
        groups.num_groups(),
        "bounds must cover all groups"
    );
    let g = groups.num_groups();
    let ids = groups.as_slice();

    // Every group's members by descending score, back to back: group p
    // holds queue[head[p]..end[p]], its best remaining item at head[p].
    let mut end = groups.group_sizes();
    let mut head = vec![0usize; g];
    let mut total = 0;
    for p in 0..g {
        head[p] = total;
        total += end[p];
        end[p] = total;
    }
    let mut queue = vec![0usize; n];
    let mut fill = head.clone();
    for &item in order {
        let p = ids[item];
        queue[fill[p]] = item;
        fill[p] += 1;
    }
    let mut counts = vec![0usize; g];
    let mut min_count = vec![0usize; g];
    let mut max_count = vec![0usize; g];
    let (min_steps, max_steps) = (steps.min_steps(), steps.max_steps());
    let (mut mi, mut xi) = (0, 0);
    let mut ranking = Vec::with_capacity(n);

    for k in 1..=n {
        while mi < min_steps.len() && min_steps[mi].0 as usize == k {
            min_count[min_steps[mi].1 as usize] += 1;
            mi += 1;
        }
        while xi < max_steps.len() && max_steps[xi].0 as usize == k {
            max_count[max_steps[xi].1 as usize] += 1;
            xi += 1;
        }
        // one pass over the non-empty queues finds all three candidates:
        // 1. the most deficient group under lower-bound pressure,
        // 2. the best-scored head whose group stays within its upper
        //    bound, 3. the best-scored head ignoring bounds (fallback)
        let mut deficient: Option<usize> = None;
        let mut worst_deficit = 0usize;
        let mut feasible: Option<(f64, usize)> = None;
        let mut any: Option<(f64, usize)> = None;
        for p in 0..g {
            if head[p] == end[p] {
                continue;
            }
            let deficit = min_count[p].saturating_sub(counts[p]);
            if deficit > worst_deficit {
                worst_deficit = deficit;
                deficient = Some(p);
            }
            let s = scores[queue[head[p]]];
            if counts[p] < max_count[p] && feasible.is_none_or(|(bs, _)| s > bs) {
                feasible = Some((s, p));
            }
            if any.is_none_or(|(bs, _)| s > bs) {
                any = Some((s, p));
            }
        }
        let pick = deficient
            .or(feasible.map(|(_, p)| p))
            .or(any.map(|(_, p)| p))
            .expect("some queue is non-empty while k <= n");
        ranking.push(queue[head[pick]]);
        head[pick] += 1;
        counts[pick] += 1;
    }
    Permutation::from_order_unchecked(ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_metrics::{infeasible, pfair};

    #[test]
    fn balanced_two_groups_alternate() {
        // group 0 items have higher scores; fairness forces alternation
        let scores = [10.0, 9.0, 8.0, 2.0, 1.5, 1.0];
        let groups = GroupAssignment::binary_split(6, 3);
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert!(pfair::is_k_fair(&pi, &groups, &bounds, 1).unwrap());
        // within each group, order follows score
        let pos = pi.positions();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
        assert!(pos[3] < pos[4] && pos[4] < pos[5]);
    }

    #[test]
    fn unconstrained_bounds_give_pure_score_order() {
        let scores = [0.2, 0.9, 0.5, 0.7];
        let groups = GroupAssignment::alternating(4);
        let bounds = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(
            pi.as_order(),
            Permutation::sorted_by_scores_desc(&scores).as_order()
        );
    }

    #[test]
    fn infeasible_bounds_still_return_complete_ranking() {
        // demand 90 % of both groups: impossible, fallback must fire
        let scores = [1.0, 2.0, 3.0, 4.0];
        let groups = GroupAssignment::binary_split(4, 2);
        let bounds = FairnessBounds::new(vec![0.9, 0.9], vec![1.0, 1.0]).unwrap();
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(pi.len(), 4);
    }

    #[test]
    fn output_is_zero_infeasible_for_proportional_bounds() {
        // proportional bounds on mixed sizes must be satisfiable greedily
        let scores: Vec<f64> = (0..12).map(|i| (i * 7 % 13) as f64).collect();
        let groups = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], 3).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(
            infeasible::two_sided_infeasible_index(&pi, &groups, &bounds).unwrap(),
            0
        );
    }

    #[test]
    fn single_group_degenerates_to_score_order() {
        let scores = [0.4, 0.8, 0.1];
        let groups = GroupAssignment::new(vec![0, 0, 0], 1).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(pi.as_order(), &[1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let groups = GroupAssignment::alternating(3);
        let bounds = FairnessBounds::from_assignment(&groups);
        weakly_fair_ranking(&[1.0, 2.0], &groups, &bounds);
    }
}

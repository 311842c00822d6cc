//! Synthetic score workloads (paper Sections V-A and V-B).

use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use rand::Rng;
use ranking_core::Permutation;

/// The two-group uniform score workload of Section V-B:
/// group 0 scores `S₁ ∼ U(0, 1)`, group 1 scores `S₂ ∼ U(δ, 1 + δ)`.
/// As the mean gap `δ` grows, the score-sorted ranking segregates and
/// its infeasible index rises (the paper's Fig. 2).
#[derive(Debug, Clone, Copy)]
pub struct TwoGroupUniform {
    /// Items per group.
    pub per_group: usize,
    /// Mean score gap δ between the groups.
    pub delta: f64,
}

impl TwoGroupUniform {
    /// The paper's setting: five individuals per group.
    pub fn paper(delta: f64) -> Self {
        TwoGroupUniform {
            per_group: 5,
            delta,
        }
    }

    /// Group assignment: items `0..per_group` in group 0, the rest in
    /// group 1.
    pub fn groups(&self) -> GroupAssignment {
        GroupAssignment::binary_split(2 * self.per_group, self.per_group)
    }

    /// Equal-proportion fairness bounds for the two groups.
    pub fn bounds(&self) -> FairnessBounds {
        FairnessBounds::exact(vec![0.5, 0.5]).expect("valid proportions")
    }

    /// Draw one score vector.
    fn sample_scores<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let n = self.per_group;
        (0..2 * n)
            .map(|i| {
                if i < n {
                    rng.random::<f64>()
                } else {
                    self.delta + rng.random::<f64>()
                }
            })
            .collect()
    }

    /// Draw scores and return the score-sorted central ranking with its
    /// infeasible index against [`TwoGroupUniform::bounds`].
    pub fn sample_central<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<f64>, Permutation, usize) {
        let scores = self.sample_scores(rng);
        let center = Permutation::sorted_by_scores_desc(&scores);
        let ii = infeasible::two_sided_infeasible_index(&center, &self.groups(), &self.bounds())
            .expect("consistent shapes");
        (scores, center, ii)
    }
}

/// Deterministically construct a ranking whose two-sided infeasible
/// index is as close as possible to `target` (the Fig. 1 workload:
/// "multiple rankings … adjusting the placement of candidates from each
/// group to produce diverse values of the Infeasible Index").
///
/// Starts from the perfectly alternating ranking (index 0) and greedily
/// applies the adjacent transposition that moves the index closest to
/// the target until no move improves. Returns the ranking and its
/// achieved index.
pub fn ranking_with_infeasible_index(
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
    target: usize,
) -> (Permutation, usize) {
    let n = groups.len();
    // start: interleave groups round-robin (lowest achievable index)
    let mut queues: Vec<Vec<usize>> = (0..groups.num_groups())
        .map(|p| groups.members(p))
        .collect();
    for q in &mut queues {
        q.reverse();
    }
    let mut order = Vec::with_capacity(n);
    let mut counts = vec![0usize; groups.num_groups()];
    for k in 1..=n {
        // pick the group with the largest remaining deficit vs its proportion
        let mut pick = None;
        let mut best_gap = f64::NEG_INFINITY;
        for (p, q) in queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let gap = bounds.lower(p) * k as f64 - counts[p] as f64;
            if gap > best_gap {
                best_gap = gap;
                pick = Some(p);
            }
        }
        let p = pick.expect("items remain");
        order.push(queues[p].pop().expect("queue non-empty"));
        counts[p] += 1;
    }
    let mut current = Permutation::from_order_unchecked(order);
    let mut current_ii = infeasible::two_sided_infeasible_index(&current, groups, bounds)
        .expect("consistent shapes");

    // greedy adjacent-swap hill climb towards the target
    loop {
        if current_ii == target {
            break;
        }
        let mut best: Option<(usize, usize)> = None; // (swap pos, new ii)
        for pos in 0..n.saturating_sub(1) {
            let mut cand = current.clone();
            cand.swap_positions(pos, pos + 1);
            let ii = infeasible::two_sided_infeasible_index(&cand, groups, bounds)
                .expect("consistent shapes");
            let better = best.is_none_or(|(_, b)| {
                (ii as isize - target as isize).abs() < (b as isize - target as isize).abs()
            });
            if better {
                best = Some((pos, ii));
            }
        }
        match best {
            Some((pos, ii))
                if (ii as isize - target as isize).abs()
                    < (current_ii as isize - target as isize).abs() =>
            {
                current.swap_positions(pos, pos + 1);
                current_ii = ii;
            }
            _ => break, // no move improves
        }
    }
    (current, current_ii)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_workload_has_ten_items() {
        let w = TwoGroupUniform::paper(0.5);
        assert_eq!(w.groups().len(), 10);
        assert_eq!(w.groups().group_sizes(), vec![5, 5]);
    }

    #[test]
    fn scores_respect_group_ranges() {
        let w = TwoGroupUniform {
            per_group: 50,
            delta: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let s = w.sample_scores(&mut rng);
        for (i, &v) in s.iter().enumerate() {
            if i < 50 {
                assert!((0.0..1.0).contains(&v));
            } else {
                assert!((0.3..1.3).contains(&v));
            }
        }
    }

    #[test]
    fn infeasible_index_grows_with_delta() {
        // average over draws: δ=1 guarantees full segregation
        let mut rng = StdRng::seed_from_u64(2);
        let mean_ii = |delta: f64, rng: &mut StdRng| -> f64 {
            let w = TwoGroupUniform::paper(delta);
            (0..200)
                .map(|_| w.sample_central(rng).2 as f64)
                .sum::<f64>()
                / 200.0
        };
        let low = mean_ii(0.0, &mut rng);
        let high = mean_ii(1.0, &mut rng);
        assert!(high > low + 2.0, "II should rise with δ: {low} vs {high}");
    }

    #[test]
    fn delta_one_fully_segregates() {
        let w = TwoGroupUniform::paper(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let (_, center, _) = w.sample_central(&mut rng);
        // all group-1 items (ids 5..10) must precede group-0 items
        let pos = center.positions();
        for hi in 5..10 {
            for lo in 0..5 {
                assert!(pos[hi] < pos[lo]);
            }
        }
    }

    #[test]
    fn target_index_zero_is_exact() {
        let groups = GroupAssignment::alternating(10);
        let bounds = FairnessBounds::from_assignment(&groups);
        let (pi, achieved) = ranking_with_infeasible_index(&groups, &bounds, 0);
        assert_eq!(achieved, 0);
        assert_eq!(
            infeasible::two_sided_infeasible_index(&pi, &groups, &bounds).unwrap(),
            0
        );
    }

    #[test]
    fn target_indices_are_reached_for_fig1_range() {
        // the Fig. 1 subplot targets on 10 items / two groups of 5
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        for target in [0usize, 2, 4, 6, 8] {
            let (_, achieved) = ranking_with_infeasible_index(&groups, &bounds, target);
            assert!(
                (achieved as isize - target as isize).abs() <= 1,
                "target {target} → achieved {achieved}"
            );
        }
    }

    #[test]
    fn achieved_matches_reported() {
        let groups = GroupAssignment::binary_split(12, 6);
        let bounds = FairnessBounds::from_assignment(&groups);
        for target in 0..10 {
            let (pi, achieved) = ranking_with_infeasible_index(&groups, &bounds, target);
            assert_eq!(
                infeasible::two_sided_infeasible_index(&pi, &groups, &bounds).unwrap(),
                achieved
            );
        }
    }
}

//! Infeasible Index and P-fair position percentage (Definitions 3–4).
//!
//! Two evaluation paths produce identical integers:
//!
//! * [`infeasible_breakdown_naive`] — the direct Definition 3 scan:
//!   for every prefix `k` recompute `⌊β_p·k⌋` / `⌈α_p·k⌉` for all `g`
//!   groups (`O(n·g)` float multiply/floor/ceil per ranking). Kept as
//!   the independent oracle and the baseline the criterion-kernel
//!   bench measures against.
//! * [`CompiledInfeasible`] — bounds compiled once into
//!   [`BoundSteps`](crate::BoundSteps) event lists, then each ranking
//!   replays `O(n + steps)` integer increments while tracking the
//!   violating-group *counters* incrementally instead of rescanning
//!   all groups at every prefix. This is the hot path of the best-of-`m`
//!   selection loop, where one compile is amortized over `m` samples,
//!   and the path every public entry point below runs. The serving
//!   engine compiles one per request and shares it between the
//!   weakly-fair centre, the kernel and the metrics report.

use crate::bounds::BoundSteps;
use crate::pfair::validate;
use crate::{FairnessBounds, GroupAssignment, Result};
use ranking_core::Permutation;

/// Lower and upper violation counts of Definition 3, kept separate so
/// experiments can report them individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfeasibleBreakdown {
    /// Number of prefixes where some group falls below `⌊β_p·k⌋`.
    pub lower_violations: usize,
    /// Number of prefixes where some group exceeds `⌈α_p·k⌉`.
    pub upper_violations: usize,
}

impl InfeasibleBreakdown {
    /// `TwoSidedInfInd = LowerViol + UpperViol`.
    pub fn total(&self) -> usize {
        self.lower_violations + self.upper_violations
    }
}

/// Definition 3 split into its two terms.
///
/// `LowerViol(π)` counts prefixes `k ∈ 1..=n` where **some** group's count
/// falls below its lower bound; `UpperViol(π)` counts prefixes where some
/// group exceeds its upper bound. A prefix can contribute to both terms.
pub fn infeasible_breakdown(
    pi: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Result<InfeasibleBreakdown> {
    validate(pi, groups, bounds)?;
    Ok(CompiledInfeasible::compile(bounds, pi.len()).breakdown(pi, groups))
}

/// The direct Definition 3 scan: recompute every group's float bounds
/// at every prefix, `O(n·g)` per ranking.
///
/// This is the reference path — [`CompiledInfeasible`] must produce the
/// same integers (pinned by unit and property tests), and the
/// `criterion_kernels` bench reports `infeasible_speedup` against it.
pub fn infeasible_breakdown_naive(
    pi: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Result<InfeasibleBreakdown> {
    validate(pi, groups, bounds)?;
    let g = groups.num_groups();
    let mut running = vec![0usize; g];
    let mut lower = 0usize;
    let mut upper = 0usize;
    for (idx, &item) in pi.as_order().iter().enumerate() {
        running[groups.group_of(item)] += 1;
        let k = idx + 1;
        let mut lo_violated = false;
        let mut hi_violated = false;
        for p in 0..g {
            if running[p] < bounds.min_count(p, k) {
                lo_violated = true;
            }
            if running[p] > bounds.max_count(p, k) {
                hi_violated = true;
            }
        }
        lower += usize::from(lo_violated);
        upper += usize::from(hi_violated);
    }
    Ok(InfeasibleBreakdown {
        lower_violations: lower,
        upper_violations: upper,
    })
}

/// Bounds compiled to [`BoundSteps`] plus the per-scan scratch: the
/// event-driven infeasible-index kernel.
///
/// One compile (`O(n·g)`, the cost of a single naive evaluation) is
/// amortized over every ranking evaluated against the same
/// `(bounds, n)`. A scan then costs `O(n + steps)` with integer
/// compares only: instead of rescanning all `g` groups at each prefix,
/// it tracks *how many* groups currently violate their lower/upper
/// bound and updates those two counters on the (rare) transitions — a
/// bound stepping past a running count, or a placed item stepping its
/// group's count past a bound.
///
/// The scan is resumable position by position ([`CompiledInfeasible::begin`],
/// [`CompiledInfeasible::place`]) so the criterion kernels in
/// `fair_mallows` can fuse it with the NDCG scan and read
/// [`CompiledInfeasible::total`] mid-ranking as an exact lower bound
/// for early abandoning.
#[derive(Debug, Clone)]
pub struct CompiledInfeasible {
    steps: BoundSteps,
    running: Vec<u32>,
    cur_min: Vec<u32>,
    cur_max: Vec<u32>,
    min_pos: usize,
    max_pos: usize,
    lower_violators: u32,
    upper_violators: u32,
    lower: usize,
    upper: usize,
    k: u32,
}

impl CompiledInfeasible {
    /// Compile `bounds` for rankings of `n` items.
    pub fn compile(bounds: &FairnessBounds, n: usize) -> Self {
        let g = bounds.num_groups();
        CompiledInfeasible {
            steps: bounds.steps(n),
            running: vec![0; g],
            cur_min: vec![0; g],
            cur_max: vec![0; g],
            min_pos: 0,
            max_pos: 0,
            lower_violators: 0,
            upper_violators: 0,
            lower: 0,
            upper: 0,
            k: 0,
        }
    }

    /// The bound steps the kernel replays.
    pub fn steps(&self) -> &BoundSteps {
        &self.steps
    }

    /// Ranking length the kernel was compiled for.
    pub fn n(&self) -> usize {
        self.steps.n()
    }

    /// Number of groups the kernel was compiled for.
    pub fn num_groups(&self) -> usize {
        self.running.len()
    }

    /// Reset the scan state for a fresh ranking.
    pub fn begin(&mut self) {
        self.running.fill(0);
        self.cur_min.fill(0);
        self.cur_max.fill(0);
        self.min_pos = 0;
        self.max_pos = 0;
        self.lower_violators = 0;
        self.upper_violators = 0;
        self.lower = 0;
        self.upper = 0;
        self.k = 0;
    }

    /// Process the next ranked item (its group id) — extends the scanned
    /// prefix by one position and tallies its violations. Requires
    /// `group < num_groups()` and at most `n()` calls since
    /// [`CompiledInfeasible::begin`].
    #[inline]
    pub fn place(&mut self, group: usize) {
        self.k += 1;
        let k = self.k;
        // advance the integer bounds from prefix k−1 to prefix k; a
        // group newly outgrown by its lower bound starts violating, a
        // group caught up to by its upper bound stops
        let min_steps = self.steps.min_steps();
        while self.min_pos < min_steps.len() && min_steps[self.min_pos].0 == k {
            let p = min_steps[self.min_pos].1 as usize;
            self.lower_violators += u32::from(self.running[p] == self.cur_min[p]);
            self.cur_min[p] += 1;
            self.min_pos += 1;
        }
        let max_steps = self.steps.max_steps();
        while self.max_pos < max_steps.len() && max_steps[self.max_pos].0 == k {
            let p = max_steps[self.max_pos].1 as usize;
            self.upper_violators -= u32::from(self.running[p] == self.cur_max[p] + 1);
            self.cur_max[p] += 1;
            self.max_pos += 1;
        }
        // place the item: its group may satisfy its lower bound or
        // overshoot its upper bound
        self.lower_violators -= u32::from(self.running[group] + 1 == self.cur_min[group]);
        self.upper_violators += u32::from(self.running[group] == self.cur_max[group]);
        self.running[group] += 1;
        self.lower += usize::from(self.lower_violators > 0);
        self.upper += usize::from(self.upper_violators > 0);
    }

    /// Lower violations of the prefixes scanned so far.
    pub fn lower_violations(&self) -> usize {
        self.lower
    }

    /// Upper violations of the prefixes scanned so far.
    pub fn upper_violations(&self) -> usize {
        self.upper
    }

    /// Violations of the prefixes scanned so far. After `n` calls to
    /// [`CompiledInfeasible::place`] this is `TwoSidedInfInd(π)`;
    /// mid-scan it is an exact lower bound of the final value (the
    /// index only accumulates).
    pub fn total(&self) -> usize {
        self.lower + self.upper
    }

    /// Full-ranking breakdown: `begin` + `place` each item. Caller
    /// guarantees shape compatibility (see [`crate::pfair`] validation).
    pub fn breakdown(&mut self, pi: &Permutation, groups: &GroupAssignment) -> InfeasibleBreakdown {
        debug_assert_eq!(pi.len(), self.n());
        debug_assert_eq!(groups.num_groups(), self.num_groups());
        let ids = groups.as_slice();
        self.scan(pi.as_order().iter().map(|&item| ids[item]))
    }

    /// Breakdown of the ranking whose items' group ids, top first, are
    /// `ranked_groups`: `begin` + `place` each. Caller guarantees
    /// exactly `n()` ids, each below `num_groups()`.
    pub fn scan(&mut self, ranked_groups: impl IntoIterator<Item = usize>) -> InfeasibleBreakdown {
        self.begin();
        for group in ranked_groups {
            self.place(group);
        }
        InfeasibleBreakdown {
            lower_violations: self.lower,
            upper_violations: self.upper,
        }
    }
}

/// Definition 3 — `TwoSidedInfInd(π) ∈ [0, 2n]`.
pub fn two_sided_infeasible_index(
    pi: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Result<usize> {
    Ok(infeasible_breakdown(pi, groups, bounds)?.total())
}

/// Definition 4 — percentage of P-fair positions:
/// `PPfair(π) = 100 · (1 − TwoSidedInfInd(π) / |π|)`.
///
/// Note that because a prefix can violate both bounds, the raw value can
/// in principle go negative; the paper reports it as a percentage of fair
/// positions, so we clamp at 0.
pub fn pfair_percentage(
    pi: &Permutation,
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Result<f64> {
    let ii = two_sided_infeasible_index(pi, groups, bounds)?;
    Ok(pfair_from_index(ii, pi.len()))
}

/// Definition 4 from an already computed `TwoSidedInfInd` `ii` of a
/// ranking of `n` items (100 for the empty ranking, clamped at 0).
pub fn pfair_from_index(ii: usize, n: usize) -> f64 {
    if n == 0 {
        return 100.0;
    }
    (100.0 * (1.0 - ii as f64 / n as f64)).max(0.0)
}

/// Convenience: infeasible index measured against bounds equal to the
/// groups' own proportions (the setting of the paper's synthetic
/// experiments, Figs. 1–4).
pub fn infeasible_index_proportional(pi: &Permutation, groups: &GroupAssignment) -> Result<usize> {
    let bounds = FairnessBounds::from_assignment(groups);
    two_sided_infeasible_index(pi, groups, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> FairnessBounds {
        FairnessBounds::exact(vec![0.5, 0.5]).unwrap()
    }

    #[test]
    fn alternating_ranking_has_zero_index() {
        let g = GroupAssignment::alternating(10);
        let pi = Permutation::identity(10);
        assert_eq!(two_sided_infeasible_index(&pi, &g, &half()).unwrap(), 0);
    }

    #[test]
    fn fully_segregated_ranking_has_high_index() {
        // groups 0..5 then 5..10: prefixes 2..=5 violate lower bound of
        // group 1 and upper bound of group 0 where applicable
        let g = GroupAssignment::binary_split(10, 5);
        let pi = Permutation::identity(10);
        let b = infeasible_breakdown(&pi, &g, &half()).unwrap();
        assert!(b.lower_violations > 0);
        assert!(b.upper_violations > 0);
        assert!(b.total() >= 8, "got {}", b.total());
    }

    #[test]
    fn index_bounded_by_two_n() {
        let g = GroupAssignment::binary_split(8, 4);
        for pi in Permutation::enumerate_all(8).into_iter().step_by(997) {
            let ii = two_sided_infeasible_index(&pi, &g, &half()).unwrap();
            assert!(ii <= 16);
        }
    }

    #[test]
    fn known_small_example() {
        // n = 4, groups [0,0,1,1], ranking 0,1,2,3:
        // k=1: counts (1,0); min = floor(.5)=0 → ok; max = ceil(.5)=1 → ok
        // k=2: counts (2,0); min(1,1): group1 has 0 < 1 → lower viol;
        //       max: group0 has 2 > 1 → upper viol
        // k=3: counts (2,1); min=floor(1.5)=1 ok; max=ceil(1.5)=2 ok
        // k=4: counts (2,2) ok
        let g = GroupAssignment::binary_split(4, 2);
        let pi = Permutation::identity(4);
        let b = infeasible_breakdown(&pi, &g, &half()).unwrap();
        assert_eq!(b.lower_violations, 1);
        assert_eq!(b.upper_violations, 1);
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn pfair_percentage_complements_index() {
        let g = GroupAssignment::binary_split(4, 2);
        let pi = Permutation::identity(4);
        // II = 2 over 4 positions → 50 %
        assert!((pfair_percentage(&pi, &g, &half()).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn pfair_percentage_clamps_at_zero() {
        // adversarial bounds that are violated twice at every prefix
        let g = GroupAssignment::binary_split(4, 2);
        let b = FairnessBounds::new(vec![0.9, 0.9], vec![0.95, 0.95]).unwrap();
        let pi = Permutation::identity(4);
        let v = pfair_percentage(&pi, &g, &b).unwrap();
        assert!((0.0..=100.0).contains(&v));
    }

    #[test]
    fn empty_ranking_is_fully_fair() {
        let g = GroupAssignment::new(vec![], 2).unwrap();
        let pi = Permutation::identity(0);
        assert_eq!(two_sided_infeasible_index(&pi, &g, &half()).unwrap(), 0);
        assert_eq!(pfair_percentage(&pi, &g, &half()).unwrap(), 100.0);
    }

    #[test]
    fn proportional_convenience_matches_explicit() {
        let g = GroupAssignment::new(vec![0, 1, 1, 0, 1, 0], 2).unwrap();
        let pi = Permutation::from_order(vec![1, 0, 2, 5, 4, 3]).unwrap();
        let explicit =
            two_sided_infeasible_index(&pi, &g, &FairnessBounds::from_assignment(&g)).unwrap();
        assert_eq!(infeasible_index_proportional(&pi, &g).unwrap(), explicit);
    }

    #[test]
    fn compiled_kernel_matches_naive_on_exhaustive_small_cases() {
        let assignments = [
            GroupAssignment::binary_split(6, 3),
            GroupAssignment::alternating(6),
            GroupAssignment::new(vec![0, 2, 1, 2, 0, 1], 3).unwrap(),
        ];
        let bounds_list = [
            FairnessBounds::exact(vec![0.5, 0.5]).unwrap(),
            FairnessBounds::new(vec![0.2, 0.1], vec![0.9, 0.8]).unwrap(),
            FairnessBounds::new(vec![0.0, 0.3, 0.2], vec![0.5, 1.0, 0.4]).unwrap(),
        ];
        for groups in &assignments {
            for bounds in &bounds_list {
                if bounds.num_groups() != groups.num_groups() {
                    continue;
                }
                let mut kernel = CompiledInfeasible::compile(bounds, 6);
                for pi in Permutation::enumerate_all(6) {
                    let naive = infeasible_breakdown_naive(&pi, groups, bounds).unwrap();
                    assert_eq!(kernel.breakdown(&pi, groups), naive, "pi {pi:?}");
                }
            }
        }
    }

    #[test]
    fn compiled_total_is_a_monotone_lower_bound_mid_scan() {
        let groups = GroupAssignment::new(vec![0, 0, 1, 1, 2, 2, 0, 1], 3).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = Permutation::from_order(vec![0, 1, 6, 2, 3, 7, 4, 5]).unwrap();
        let final_total = infeasible_breakdown_naive(&pi, &groups, &bounds)
            .unwrap()
            .total();
        let mut kernel = CompiledInfeasible::compile(&bounds, 8);
        kernel.begin();
        let mut prev = 0;
        for &item in pi.as_order() {
            kernel.place(groups.group_of(item));
            assert!(kernel.total() >= prev, "index only accumulates");
            assert!(kernel.total() <= final_total);
            prev = kernel.total();
        }
        assert_eq!(kernel.total(), final_total);
    }

    #[test]
    fn compiled_kernel_is_reusable_across_rankings() {
        // one compile per (bounds, n), replayed over several rankings:
        // `breakdown` must reset its counters between them
        let g6 = GroupAssignment::binary_split(6, 3);
        let g4 = GroupAssignment::binary_split(4, 2);
        let tight = half();
        let loose = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        for (groups, bounds) in [(&g6, &tight), (&g6, &loose), (&g4, &tight)] {
            let mut kernel = CompiledInfeasible::compile(bounds, groups.len());
            for pi in Permutation::enumerate_all(groups.len()) {
                assert_eq!(
                    kernel.breakdown(&pi, groups),
                    infeasible_breakdown_naive(&pi, groups, bounds).unwrap()
                );
            }
        }
    }

    #[test]
    fn swapping_adjacent_cross_group_items_changes_index_by_at_most_two() {
        let g = GroupAssignment::alternating(8);
        let mut pi = Permutation::identity(8);
        let before = infeasible_index_proportional(&pi, &g).unwrap() as isize;
        pi.swap_positions(2, 3);
        let after = infeasible_index_proportional(&pi, &g).unwrap() as isize;
        assert!((before - after).abs() <= 2);
    }
}

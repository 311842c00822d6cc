//! Per-group representation bounds (the paper's `α⃗` and `β⃗`).

use crate::{FairnessError, GroupAssignment, Result};

/// Proportional representation bounds for `g` groups.
///
/// For a prefix of length `k`, group `p` must contribute at least
/// `⌊lower[p]·k⌋` and at most `⌈upper[p]·k⌉` items. In the paper's
/// notation `lower = β⃗` and `upper = α⃗` (see the convention note on the
/// crate root).
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessBounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl FairnessBounds {
    /// Build from explicit per-group proportions. Validates
    /// `0 ≤ lower[p] ≤ upper[p] ≤ 1` for every group.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Result<Self> {
        if lower.len() != upper.len() {
            return Err(FairnessError::BoundsShapeMismatch {
                got: lower.len(),
                expected: upper.len(),
            });
        }
        for (p, (&lo, &hi)) in lower.iter().zip(&upper).enumerate() {
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                return Err(FairnessError::InvalidProportion {
                    group: p,
                    lower: lo,
                    upper: hi,
                });
            }
        }
        Ok(FairnessBounds { lower, upper })
    }

    /// Equal lower and upper proportions `p⃗` (the common "match the
    /// population proportions" setting: at least `⌊p·k⌋`, at most
    /// `⌈p·k⌉` per prefix).
    pub fn exact(proportions: Vec<f64>) -> Result<Self> {
        FairnessBounds::new(proportions.clone(), proportions)
    }

    /// Bounds matching the empirical proportions of a group assignment.
    pub fn from_assignment(groups: &GroupAssignment) -> Self {
        let p = groups.proportions();
        FairnessBounds {
            lower: p.clone(),
            upper: p,
        }
    }

    /// Bounds matching the empirical proportions relaxed by ±`tolerance`
    /// (clamped to `[0, 1]`).
    pub fn from_assignment_with_tolerance(groups: &GroupAssignment, tolerance: f64) -> Self {
        let p = groups.proportions();
        FairnessBounds {
            lower: p.iter().map(|&x| (x - tolerance).max(0.0)).collect(),
            upper: p.iter().map(|&x| (x + tolerance).min(1.0)).collect(),
        }
    }

    /// Number of groups covered.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.lower.len()
    }

    /// Lower proportion `β_p`.
    #[inline]
    pub fn lower(&self, p: usize) -> f64 {
        self.lower[p]
    }

    /// Upper proportion `α_p`.
    #[inline]
    pub fn upper(&self, p: usize) -> f64 {
        self.upper[p]
    }

    /// Integer lower bound for group `p` in a prefix of length `k`:
    /// `⌊β_p·k⌋`.
    #[inline]
    pub fn min_count(&self, p: usize, k: usize) -> usize {
        floor_count(self.lower[p] * k as f64)
    }

    /// Integer upper bound for group `p` in a prefix of length `k`:
    /// `⌈α_p·k⌉`.
    #[inline]
    pub fn max_count(&self, p: usize, k: usize) -> usize {
        ceil_count(self.upper[p] * k as f64)
    }

    /// Compile the integer bound-*step* tables for prefixes `1..=n`:
    /// the sorted event list of prefixes where `⌊β_p·k⌋` / `⌈α_p·k⌉`
    /// actually increment. Both are non-decreasing in `k`, so replaying
    /// the events reconstructs [`FairnessBounds::tables`] exactly —
    /// hot evaluators (the compiled infeasible-index kernel) track the
    /// bounds with `O(steps)` integer increments instead of `O(n·g)`
    /// float multiply/floor/ceil per sample.
    pub fn steps(&self, n: usize) -> BoundSteps {
        let g = self.num_groups();
        // the bounds only grow, so the events of group p number exactly
        // its bounds at prefix n
        let mut min_steps = Vec::with_capacity((0..g).map(|p| self.min_count(p, n)).sum());
        let mut max_steps = Vec::with_capacity((0..g).map(|p| self.max_count(p, n)).sum());
        let mut cur_min = vec![0usize; g];
        let mut cur_max = vec![0usize; g];
        for k in 1..=n {
            let kf = k as f64;
            for p in 0..g {
                // the very same float expressions as `min_count` and
                // `max_count`, so replay is exactly identical
                let mn = floor_count(self.lower[p] * kf);
                for _ in cur_min[p]..mn {
                    min_steps.push((k as u32, p as u32));
                }
                cur_min[p] = mn;
                let mx = ceil_count(self.upper[p] * kf);
                for _ in cur_max[p]..mx {
                    max_steps.push((k as u32, p as u32));
                }
                cur_max[p] = mx;
            }
        }
        BoundSteps {
            n,
            num_groups: g,
            min_steps,
            max_steps,
        }
    }

    /// Materialize the integer bound tables for prefixes `1..=n`:
    /// `(min[k-1][p], max[k-1][p])`. Used by solvers that want to perturb
    /// the constraints (the paper's noisy-constraint experiments).
    pub fn tables(&self, n: usize) -> BoundTables {
        let g = self.num_groups();
        let mut min = vec![vec![0usize; g]; n];
        let mut max = vec![vec![0usize; g]; n];
        for k in 1..=n {
            for p in 0..g {
                min[k - 1][p] = self.min_count(p, k);
                max[k - 1][p] = self.max_count(p, k);
            }
        }
        BoundTables { min, max }
    }
}

/// `⌊x⌋` of a non-negative product `x`: the truncating cast, without
/// the libm call `f64::floor` compiles to on baseline x86-64.
#[inline]
fn floor_count(x: f64) -> usize {
    x as usize
}

/// `⌈x⌉` of a non-negative product `x` through the truncating cast: a
/// fractional part exists only below 2⁵², where `t as f64` is exact.
#[inline]
fn ceil_count(x: f64) -> usize {
    let t = x as usize;
    t + usize::from((t as f64) < x)
}

/// Explicit integer bound tables for prefixes `1..=n`, as produced by
/// [`FairnessBounds::tables`]. `min[k-1][p]` / `max[k-1][p]` bound the
/// count of group `p` in the length-`k` prefix. Solvers accept these so
/// that noisy variants can perturb individual entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTables {
    /// Per-prefix minimum counts.
    pub min: Vec<Vec<usize>>,
    /// Per-prefix maximum counts.
    pub max: Vec<Vec<usize>>,
}

impl BoundTables {
    /// Number of prefixes covered (= ranking length).
    pub fn len(&self) -> usize {
        self.min.len()
    }

    /// True when no prefixes are covered.
    pub fn is_empty(&self) -> bool {
        self.min.is_empty()
    }

    /// Clamp every entry to be consistent: `min ≤ max`, `min ≤ k`,
    /// monotone repairs are **not** applied — callers that add noise use
    /// this to keep tables well-formed without hiding the noise.
    pub fn clamp(&mut self) {
        for (k, (min_row, max_row)) in self.min.iter_mut().zip(self.max.iter_mut()).enumerate() {
            let prefix = k + 1;
            for (mn, mx) in min_row.iter_mut().zip(max_row.iter_mut()) {
                *mn = (*mn).min(prefix);
                *mx = (*mx).min(prefix).max(*mn);
            }
        }
    }
}

/// Compiled bound-step event lists, as produced by
/// [`FairnessBounds::steps`].
///
/// `min_steps` / `max_steps` hold `(k, p)` pairs sorted by `k` (the
/// order they were emitted): at prefix `k`, the integer lower (resp.
/// upper) bound of group `p` increments by one. A jump of `d > 1`
/// between consecutive prefixes (possible only through float rounding
/// of extreme proportions) is recorded as `d` consecutive pairs, so
/// replaying every event reconstructs the bounds exactly.
///
/// Total events are `Σ_p ⌊β_p·n⌋ + Σ_p ⌈α_p·n⌉ ≤ 2·n·g` in the worst
/// case but `O(n)` for proportions summing to ≈ 1 — the common case —
/// which is what makes an event-driven evaluator `O(n + steps)`
/// amortized instead of `O(n·g)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundSteps {
    n: usize,
    num_groups: usize,
    min_steps: Vec<(u32, u32)>,
    max_steps: Vec<(u32, u32)>,
}

impl BoundSteps {
    /// Number of prefixes covered (= ranking length).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of groups covered.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Lower-bound increment events `(k, p)`, sorted by `k`.
    pub fn min_steps(&self) -> &[(u32, u32)] {
        &self.min_steps
    }

    /// Upper-bound increment events `(k, p)`, sorted by `k`.
    pub fn max_steps(&self) -> &[(u32, u32)] {
        &self.max_steps
    }

    /// Replay the events into explicit [`BoundTables`] — the oracle
    /// check that compilation lost nothing: this must equal
    /// [`FairnessBounds::tables`] for the same `(bounds, n)`.
    pub fn materialize(&self) -> BoundTables {
        let g = self.num_groups;
        let mut min = vec![vec![0usize; g]; self.n];
        let mut max = vec![vec![0usize; g]; self.n];
        let mut cur_min = vec![0usize; g];
        let mut cur_max = vec![0usize; g];
        let mut mi = 0usize;
        let mut xi = 0usize;
        for k in 1..=self.n {
            while mi < self.min_steps.len() && self.min_steps[mi].0 as usize == k {
                cur_min[self.min_steps[mi].1 as usize] += 1;
                mi += 1;
            }
            while xi < self.max_steps.len() && self.max_steps[xi].0 as usize == k {
                cur_max[self.max_steps[xi].1 as usize] += 1;
                xi += 1;
            }
            min[k - 1].copy_from_slice(&cur_min);
            max[k - 1].copy_from_slice(&cur_max);
        }
        BoundTables { min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shapes() {
        assert!(FairnessBounds::new(vec![0.1], vec![0.5, 0.6]).is_err());
    }

    #[test]
    fn new_validates_ordering() {
        assert!(matches!(
            FairnessBounds::new(vec![0.7], vec![0.3]),
            Err(FairnessError::InvalidProportion { group: 0, .. })
        ));
    }

    #[test]
    fn new_validates_range() {
        assert!(FairnessBounds::new(vec![-0.1], vec![0.5]).is_err());
        assert!(FairnessBounds::new(vec![0.1], vec![1.5]).is_err());
    }

    #[test]
    fn integer_bounds_floor_and_ceil() {
        let b = FairnessBounds::exact(vec![0.5, 0.5]).unwrap();
        assert_eq!(b.min_count(0, 3), 1); // floor(1.5)
        assert_eq!(b.max_count(0, 3), 2); // ceil(1.5)
        assert_eq!(b.min_count(0, 4), 2);
        assert_eq!(b.max_count(0, 4), 2);
    }

    #[test]
    fn integer_bounds_equal_the_float_floor_and_ceil() {
        let proportions = [0.0, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.0 - f64::EPSILON, 1.0];
        for &lo in &proportions {
            for &hi in proportions.iter().filter(|&&hi| hi >= lo) {
                let b = FairnessBounds::new(vec![lo], vec![hi]).unwrap();
                for k in (0..200).chain([1 << 40, (1 << 52) + 1, usize::MAX >> 12]) {
                    assert_eq!(b.min_count(0, k), (lo * k as f64).floor() as usize);
                    assert_eq!(b.max_count(0, k), (hi * k as f64).ceil() as usize);
                }
            }
        }
    }

    #[test]
    fn from_assignment_matches_proportions() {
        let g = GroupAssignment::new(vec![0, 0, 0, 1], 2).unwrap();
        let b = FairnessBounds::from_assignment(&g);
        assert!((b.lower(0) - 0.75).abs() < 1e-12);
        assert!((b.upper(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tolerance_clamps_to_unit_interval() {
        let g = GroupAssignment::new(vec![0, 1], 2).unwrap();
        let b = FairnessBounds::from_assignment_with_tolerance(&g, 0.8);
        assert_eq!(b.lower(0), 0.0);
        assert_eq!(b.upper(0), 1.0);
    }

    #[test]
    fn tables_match_pointwise_bounds() {
        let b = FairnessBounds::exact(vec![0.3, 0.7]).unwrap();
        let t = b.tables(10);
        assert_eq!(t.len(), 10);
        for k in 1..=10 {
            for p in 0..2 {
                assert_eq!(t.min[k - 1][p], b.min_count(p, k));
                assert_eq!(t.max[k - 1][p], b.max_count(p, k));
            }
        }
    }

    #[test]
    fn steps_materialize_to_the_exact_tables() {
        for bounds in [
            FairnessBounds::exact(vec![0.3, 0.7]).unwrap(),
            FairnessBounds::new(vec![0.0, 0.1, 0.25], vec![0.4, 0.6, 1.0]).unwrap(),
            FairnessBounds::exact(vec![1.0]).unwrap(),
            FairnessBounds::new(vec![0.0], vec![0.0]).unwrap(),
        ] {
            for n in [0usize, 1, 7, 40] {
                let steps = bounds.steps(n);
                assert_eq!(steps.n(), n);
                assert_eq!(steps.num_groups(), bounds.num_groups());
                assert_eq!(steps.materialize(), bounds.tables(n));
            }
        }
    }

    #[test]
    fn steps_are_sorted_by_prefix() {
        let b = FairnessBounds::new(vec![0.2, 0.3], vec![0.5, 0.9]).unwrap();
        let s = b.steps(25);
        assert!(s.min_steps().windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s.max_steps().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn clamp_repairs_inverted_entries() {
        let b = FairnessBounds::exact(vec![0.5, 0.5]).unwrap();
        let mut t = b.tables(4);
        t.min[2][0] = 9; // corrupt: min beyond prefix length
        t.max[2][0] = 0;
        t.clamp();
        assert!(t.min[2][0] <= 3);
        assert!(t.max[2][0] >= t.min[2][0]);
    }
}

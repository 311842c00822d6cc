//! The attribute-oblivious ("without the protected attribute") API.
//!
//! [`RobustRanker`] is the deployment-facing entry point: it sees only
//! quality scores — never group labels — and trades ranking utility for
//! fairness robustness through the dispersion `θ`. The builder exposes
//! the knob in two forms:
//!
//! * [`RobustRankerBuilder::theta`] — raw Mallows dispersion, as in the
//!   paper's experiments (θ ∈ {0.5, 1});
//! * [`RobustRankerBuilder::target_displacement`] — a size-independent
//!   noise level ("expected Kendall tau distance as a fraction of
//!   maximum"), resolved to θ per ranking length via
//!   `mallows_model::dispersion` — the systematic tuning methodology the
//!   paper's conclusion calls for.

use crate::{Criterion, MallowsFairRanker, RankOutput, Result};
use rand::Rng;
use ranking_core::Permutation;

/// How the dispersion is chosen for a given ranking length.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dispersion {
    /// Fixed θ.
    Fixed(f64),
    /// Resolve θ so that `E[d_KT]` is this fraction of `n(n−1)/2`.
    NormalizedDistance(f64),
}

/// Builder for [`RobustRanker`].
#[derive(Debug, Clone)]
pub struct RobustRankerBuilder {
    dispersion: Dispersion,
}

impl Default for RobustRankerBuilder {
    fn default() -> Self {
        // paper defaults: θ = 1, single sample
        RobustRankerBuilder {
            dispersion: Dispersion::Fixed(1.0),
        }
    }
}

impl RobustRankerBuilder {
    /// Start from the paper defaults (θ = 1, one sample).
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a fixed Mallows dispersion θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.dispersion = Dispersion::Fixed(theta);
        self
    }

    /// Tune θ per ranking length so the expected Kendall tau displacement
    /// is `fraction` of the maximum `n(n−1)/2` (clamped to `[0, 0.5]`,
    /// where 0.5 is the uniform distribution).
    pub fn target_displacement(mut self, fraction: f64) -> Self {
        self.dispersion = Dispersion::NormalizedDistance(fraction.clamp(0.0, 0.5));
        self
    }

    /// Finalize.
    pub fn build(self) -> RobustRanker {
        RobustRanker {
            dispersion: self.dispersion,
        }
    }
}

/// Attribute-oblivious robust ranker (see module docs).
#[derive(Debug, Clone)]
pub struct RobustRanker {
    dispersion: Dispersion,
}

impl RobustRanker {
    /// Builder entry point.
    pub fn builder() -> RobustRankerBuilder {
        RobustRankerBuilder::new()
    }

    /// The θ that will be used for a ranking of `n` items.
    pub fn resolve_theta(&self, n: usize) -> f64 {
        match self.dispersion {
            Dispersion::Fixed(t) => t,
            Dispersion::NormalizedDistance(f) => {
                mallows_model::dispersion::theta_for_normalized_distance(n, f)
            }
        }
    }

    /// Rank items by score, then randomize. Only the scores are seen —
    /// no protected attribute enters the computation.
    pub fn rank<R: Rng + ?Sized>(&self, scores: &[f64], rng: &mut R) -> Result<RankOutput> {
        let center = Permutation::sorted_by_scores_desc(scores);
        let theta = self.resolve_theta(center.len());
        MallowsFairRanker::new(theta, 1, Criterion::FirstSample)?.rank(&center, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_defaults_match_paper() {
        let r = RobustRanker::builder().build();
        assert_eq!(r.resolve_theta(10), 1.0);
    }

    #[test]
    fn target_displacement_resolves_per_length() {
        let r = RobustRanker::builder().target_displacement(0.1).build();
        let t10 = r.resolve_theta(10);
        let t100 = r.resolve_theta(100);
        assert!(t10 > 0.0 && t100 > 0.0);
        // same *normalized* displacement at both sizes
        let f10 = mallows_model::dispersion::normalized_expected_distance(10, t10);
        let f100 = mallows_model::dispersion::normalized_expected_distance(100, t100);
        assert!((f10 - 0.1).abs() < 1e-6);
        assert!((f100 - 0.1).abs() < 1e-6);
    }

    #[test]
    fn oblivious_ranking_improves_fairness_of_biased_scores() {
        // Group 0 (items 0..10) dominates the scores; the ranker never
        // sees the groups, yet the randomized output is markedly fairer
        // in expectation than the deterministic score ranking.
        let n = 20;
        let scores: Vec<f64> = (0..n)
            .map(|i| if i < 10 { 100.0 + i as f64 } else { i as f64 })
            .collect();
        let groups = GroupAssignment::binary_split(n, 10);
        // tolerance bounds: exact floor/ceil bounds are violated by most
        // permutations of 20 items, leaving randomization no headroom
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.15);
        let baseline = Permutation::sorted_by_scores_desc(&scores);
        let base_ii = infeasible::two_sided_infeasible_index(&baseline, &groups, &bounds).unwrap();

        let ranker = RobustRanker::builder().theta(0.05).build();
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 50;
        let mean_ii: f64 = (0..trials)
            .map(|_| {
                let out = ranker.rank(&scores, &mut rng).unwrap();
                infeasible::two_sided_infeasible_index(&out.ranking, &groups, &bounds).unwrap()
                    as f64
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            mean_ii < base_ii as f64 * 0.8,
            "mean II {mean_ii} not meaningfully below baseline {base_ii}"
        );
    }

    #[test]
    fn zero_displacement_returns_center() {
        let scores = vec![3.0, 2.0, 1.0];
        let r = RobustRanker::builder().target_displacement(0.0).build();
        let mut rng = StdRng::seed_from_u64(9);
        // θ saturates at the solver maximum → sample ≡ centre
        let out = r.rank(&scores, &mut rng).unwrap();
        assert_eq!(out.ranking.as_order(), &[0, 1, 2]);
    }
}

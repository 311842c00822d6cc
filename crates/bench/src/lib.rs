//! Shared fixtures for the Criterion benches, plus the [`summary`]
//! module feeding the committed perf-trajectory files.
//!
//! One bench target exists per paper table/figure (regenerating its
//! inner loop at reduced scale) plus ablation benches for the design
//! choices called out in DESIGN.md. Run with `cargo bench`.

#![forbid(unsafe_code)]

pub mod summary;

use fair_datasets::GermanCredit;
use fairness_metrics::{FairnessBounds, GroupAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::Permutation;

/// Deterministic RNG for benches.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xBE7C)
}

/// The synthetic German Credit dataset, generated once per bench.
fn credit_data() -> GermanCredit {
    GermanCredit::generate(&mut bench_rng())
}

/// A size-`n` German-Credit instance: scores, known (Sex-Age) groups,
/// unknown (Housing) groups and the weakly-fair input ranking.
pub struct CreditInstance {
    /// Credit amounts of the sampled records.
    pub scores: Vec<f64>,
    /// Known combined Sex-Age assignment (4 groups).
    pub known: GroupAssignment,
    /// Known-attribute proportional bounds.
    pub known_bounds: FairnessBounds,
    /// Unknown Housing assignment (3 groups).
    pub unknown: GroupAssignment,
    /// Unknown-attribute proportional bounds.
    pub unknown_bounds: FairnessBounds,
    /// Weakly-fair input ranking w.r.t. the known attribute.
    pub input: Permutation,
}

/// Build a reproducible instance of the Figs. 5–7 pipeline input.
pub fn credit_instance(n: usize) -> CreditInstance {
    let data = credit_data();
    let mut rng = bench_rng();
    let idx = data.sample_indices(n, &mut rng);
    let all_scores = data.credit_amounts();
    let scores: Vec<f64> = idx.iter().map(|&i| all_scores[i]).collect();
    let known = data.sex_age_groups().subset(&idx);
    let unknown = data.housing_groups().subset(&idx);
    let known_bounds = FairnessBounds::from_assignment(&known);
    let unknown_bounds = FairnessBounds::from_assignment(&unknown);
    let input = fair_baselines::weakly_fair_ranking(&scores, &known, &known_bounds);
    CreditInstance {
        scores,
        known,
        known_bounds,
        unknown,
        unknown_bounds,
        input,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_instance_is_consistent() {
        let inst = credit_instance(30);
        assert_eq!(inst.scores.len(), 30);
        assert_eq!(inst.known.len(), 30);
        assert_eq!(inst.unknown.len(), 30);
        assert_eq!(inst.input.len(), 30);
        assert_eq!(inst.known.num_groups(), 4);
        assert_eq!(inst.unknown.num_groups(), 3);
    }
}

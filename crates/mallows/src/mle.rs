//! Parameter estimation for the Mallows model.
//!
//! * [`estimate_theta`] — maximum-likelihood dispersion given a known
//!   centre. The log-likelihood of i.i.d. samples is
//!   `−θ Σ d_KT(πᵢ, π₀) − m·ln Z_n(θ)`, whose stationarity condition is
//!   `E_θ[D] = d̄` (mean observed distance). Since `E_θ[D]` is strictly
//!   decreasing in `θ`, bisection solves it to machine precision.
//! * [`estimate_center_borda`] — Borda (mean-rank) centre estimation,
//!   which is a consistent estimator of `π₀` for Mallows data.

use crate::model::expected_kendall_tau;
use crate::{MallowsError, Result};
use ranking_core::{distance, Permutation};

/// Upper bracket for dispersion search; `E[D]` at θ = 30 is numerically 0
/// for any practical `n`.
const THETA_MAX: f64 = 30.0;

/// Maximum-likelihood estimate of `θ` for samples drawn around a known
/// centre. Returns `THETA_MAX` when every sample equals the centre
/// (the MLE diverges) and 0 when the data are at least as dispersed as
/// the uniform distribution.
pub fn estimate_theta(center: &Permutation, samples: &[Permutation]) -> Result<f64> {
    if samples.is_empty() {
        return Err(MallowsError::NoSamples);
    }
    let n = center.len();
    let mut total = 0.0f64;
    for s in samples {
        if s.len() != n {
            return Err(MallowsError::LengthMismatch {
                center: n,
                other: s.len(),
            });
        }
        total += distance::kendall_tau(s, center).expect("lengths checked") as f64;
    }
    let mean = total / samples.len() as f64;
    Ok(solve_theta_for_distance(n, mean))
}

/// Invert `E_θ[D] = target` by bisection (monotone decreasing).
pub fn solve_theta_for_distance(n: usize, target: f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let uniform = n as f64 * (n as f64 - 1.0) / 4.0;
    if target >= uniform {
        return 0.0;
    }
    if target <= expected_kendall_tau(n, THETA_MAX) {
        return THETA_MAX;
    }
    let (mut lo, mut hi) = (0.0f64, THETA_MAX);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if expected_kendall_tau(n, mid) > target {
            lo = mid; // still too dispersed → increase θ
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Borda centre estimation: rank items by their mean position across the
/// samples (ties broken by item index).
pub fn estimate_center_borda(samples: &[Permutation]) -> Result<Permutation> {
    let Some(first) = samples.first() else {
        return Err(MallowsError::NoSamples);
    };
    let n = first.len();
    let mut mean_pos = vec![0.0f64; n];
    for s in samples {
        if s.len() != n {
            return Err(MallowsError::LengthMismatch {
                center: n,
                other: s.len(),
            });
        }
        for (pos, &item) in s.as_order().iter().enumerate() {
            mean_pos[item] += pos as f64;
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    items.sort_by(|&a, &b| {
        mean_pos[a]
            .partial_cmp(&mean_pos[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    Ok(Permutation::from_order_unchecked(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MallowsModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_theta_within_tolerance() {
        let center = Permutation::identity(12);
        for true_theta in [0.3, 0.8, 1.5] {
            let model = MallowsModel::new(center.clone(), true_theta).unwrap();
            let mut rng = StdRng::seed_from_u64(77);
            let samples = model.sample_many(3000, &mut rng);
            let est = estimate_theta(&center, &samples).unwrap();
            assert!(
                (est - true_theta).abs() < 0.15,
                "true θ {true_theta} estimated {est}"
            );
        }
    }

    #[test]
    fn degenerate_samples_give_theta_max() {
        let center = Permutation::identity(6);
        let samples = vec![center.clone(); 10];
        assert_eq!(estimate_theta(&center, &samples).unwrap(), THETA_MAX);
    }

    #[test]
    fn uniform_samples_give_theta_zero() {
        let center = Permutation::identity(8);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<_> = (0..2000)
            .map(|_| Permutation::random(8, &mut rng))
            .collect();
        let est = estimate_theta(&center, &samples).unwrap();
        assert!(est < 0.1, "uniform data must give θ ≈ 0, got {est}");
    }

    #[test]
    fn no_samples_is_an_error() {
        assert!(matches!(
            estimate_theta(&Permutation::identity(3), &[]),
            Err(MallowsError::NoSamples)
        ));
        assert!(matches!(
            estimate_center_borda(&[]),
            Err(MallowsError::NoSamples)
        ));
    }

    #[test]
    fn borda_recovers_center_at_high_theta() {
        let center = Permutation::from_order(vec![4, 2, 0, 3, 1]).unwrap();
        let model = MallowsModel::new(center.clone(), 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let samples = model.sample_many(2000, &mut rng);
        let est = estimate_center_borda(&samples).unwrap();
        assert_eq!(est, center);
    }

    #[test]
    fn borda_length_mismatch_errors() {
        let samples = vec![Permutation::identity(3), Permutation::identity(4)];
        assert!(estimate_center_borda(&samples).is_err());
    }

    #[test]
    fn solve_theta_round_trips_expected_distance() {
        for n in [5usize, 20, 60] {
            for theta in [0.25, 1.0, 2.5] {
                let d = expected_kendall_tau(n, theta);
                let back = solve_theta_for_distance(n, d);
                assert!((back - theta).abs() < 1e-6, "n={n} θ={theta} → {back}");
            }
        }
    }
}

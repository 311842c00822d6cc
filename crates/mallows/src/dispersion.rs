//! Dispersion tuning: pick `θ` to achieve a target noise level.
//!
//! The paper's conclusion proposes "a systematic methodology for
//! incorporating noise into rankings … such as tuning the dispersion in
//! the case of Mallows' model". This module provides the two natural
//! knobs:
//!
//! * `theta_for_expected_distance` — target an absolute expected
//!   Kendall tau distance;
//! * [`theta_for_normalized_distance`] — target a fraction of the maximum
//!   distance `n(n−1)/2`, which transfers across ranking sizes.

use crate::mle::solve_theta_for_distance;
use crate::model::expected_kendall_tau;

/// `θ` such that `E[d_KT]` under `M(·, θ)` equals `target` (clamped to
/// the achievable range `[0, n(n−1)/4]`).
fn theta_for_expected_distance(n: usize, target: f64) -> f64 {
    solve_theta_for_distance(n, target.max(0.0))
}

/// `θ` such that the expected Kendall tau distance is `fraction` of the
/// maximum `n(n−1)/2`. A fraction of `0.5` corresponds to the uniform
/// distribution; fractions above that are unreachable and clamp to
/// `θ = 0`.
pub fn theta_for_normalized_distance(n: usize, fraction: f64) -> f64 {
    let max_d = n as f64 * (n as f64 - 1.0) / 2.0;
    theta_for_expected_distance(n, fraction.clamp(0.0, 1.0) * max_d)
}

/// Expected *normalized* Kendall tau distance (fraction of maximum) at a
/// given dispersion — the inverse view of
/// [`theta_for_normalized_distance`].
pub fn normalized_expected_distance(n: usize, theta: f64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let max_d = n as f64 * (n as f64 - 1.0) / 2.0;
    expected_kendall_tau(n, theta) / max_d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_target_round_trips() {
        let theta = theta_for_expected_distance(20, 30.0);
        assert!((expected_kendall_tau(20, theta) - 30.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_target_round_trips() {
        let theta = theta_for_normalized_distance(15, 0.1);
        assert!((normalized_expected_distance(15, theta) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn unreachable_fraction_clamps_to_zero_theta() {
        assert_eq!(theta_for_normalized_distance(10, 0.9), 0.0);
        assert_eq!(theta_for_normalized_distance(10, 0.5), 0.0);
    }

    #[test]
    fn negative_target_gives_max_concentration() {
        let theta = theta_for_expected_distance(10, -5.0);
        assert!(theta >= 29.0, "θ should saturate, got {theta}");
    }

    #[test]
    fn normalized_distance_monotone_in_theta() {
        let mut last = f64::INFINITY;
        for theta in [0.0, 0.5, 1.0, 2.0, 5.0] {
            let v = normalized_expected_distance(25, theta);
            assert!(v <= last);
            last = v;
        }
    }

    #[test]
    fn tiny_rankings_are_degenerate() {
        assert_eq!(normalized_expected_distance(1, 2.0), 0.0);
        assert_eq!(theta_for_expected_distance(1, 3.0), 0.0);
    }
}

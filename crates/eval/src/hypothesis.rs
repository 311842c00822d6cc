//! Nonparametric hypothesis tests for comparing algorithm outputs.
//!
//! The paper reports bootstrap confidence intervals; when two
//! algorithms' intervals overlap the natural follow-up question is
//! whether their metric distributions differ at all. These tests answer
//! it without normality assumptions:
//!
//! * [`mann_whitney_u`] — two independent samples (e.g. NDCG of
//!   algorithm A vs B across repetitions);
//! * [`chi_square_gof`] — goodness of fit of observed counts to
//!   expected frequencies (used to validate samplers against PMFs).
//!
//! P-values use the standard normal / χ² large-sample approximations
//! (with tie and continuity corrections for the rank tests), accurate
//! for the sample sizes the experiment harness produces (≥ 15
//! repetitions, ≥ 5 expected per χ² cell).

use crate::{EvalError, Result};

/// Outcome of a two-sided hypothesis test.
#[derive(Debug, Clone, Copy)]
pub struct TestResult {
    /// The test statistic (U, W, or χ² respectively).
    pub statistic: f64,
    /// Standardized statistic (z-score; for χ² this is the statistic
    /// itself).
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TestResult {
    /// Is the difference significant at level `alpha`?
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Mann–Whitney U test (Wilcoxon rank-sum): are two independent samples
/// drawn from the same distribution? Two-sided, normal approximation
/// with tie correction and ±½ continuity correction.
///
/// Errors when either sample is empty.
pub fn mann_whitney_u(xs: &[f64], ys: &[f64]) -> Result<TestResult> {
    if xs.is_empty() || ys.is_empty() {
        return Err(EvalError::EmptySample);
    }
    let (n1, n2) = (xs.len() as f64, ys.len() as f64);
    // rank the pooled sample with mid-ranks for ties
    let mut pooled: Vec<(f64, usize)> = xs
        .iter()
        .map(|&v| (v, 0usize))
        .chain(ys.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = mid;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, who), _)| *who == 0)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let mean = n1 * n2 / 2.0;
    let nf = n as f64;
    let var = n1 * n2 / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var <= 0.0 {
        // all observations identical → no evidence of difference
        return Ok(TestResult {
            statistic: u1,
            z: 0.0,
            p_value: 1.0,
        });
    }
    let diff = u1 - mean;
    let cc = 0.5 * diff.signum();
    let z = (diff - cc) / var.sqrt();
    Ok(TestResult {
        statistic: u1,
        z,
        p_value: two_sided_p(z),
    })
}

/// χ² goodness-of-fit: do observed counts match expected frequencies?
/// `expected` may be unnormalized; it is scaled to the observed total.
/// Degrees of freedom = cells − 1.
///
/// Errors on shape mismatch, empty input, or a non-positive expected
/// cell.
pub fn chi_square_gof(observed: &[u64], expected: &[f64]) -> Result<TestResult> {
    if observed.len() != expected.len() {
        return Err(EvalError::LengthMismatch {
            left: observed.len(),
            right: expected.len(),
        });
    }
    if observed.len() < 2 {
        return Err(EvalError::EmptySample);
    }
    let total_obs: f64 = observed.iter().map(|&c| c as f64).sum();
    let total_exp: f64 = expected.iter().sum();
    if total_exp <= 0.0 || expected.iter().any(|&e| e <= 0.0) {
        return Err(EvalError::InvalidExpected);
    }
    let scale = total_obs / total_exp;
    let stat: f64 = observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            let e = e * scale;
            let d = o as f64 - e;
            d * d / e
        })
        .sum();
    let dof = (observed.len() - 1) as f64;
    Ok(TestResult {
        statistic: stat,
        z: stat,
        p_value: chi_square_sf(stat, dof),
    })
}

/// Two-sided p-value from a z-score: `2·(1 − Φ(|z|))`.
fn two_sided_p(z: f64) -> f64 {
    (2.0 * standard_normal_sf(z.abs())).min(1.0)
}

/// Standard normal survival function `1 − Φ(x)` via `erfc`.
fn standard_normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function (Numerical Recipes rational
/// approximation; |error| ≤ 1.2e−7 everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// χ² survival function via the regularized upper incomplete gamma
/// `Q(k/2, x/2)`, computed by series / continued fraction.
fn chi_square_sf(x: f64, dof: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    regularized_gamma_q(dof / 2.0, x / 2.0)
}

/// Regularized upper incomplete gamma `Q(a, x)` (Numerical Recipes
/// `gammq`): series for `x < a + 1`, continued fraction otherwise.
fn regularized_gamma_q(a: f64, x: f64) -> f64 {
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn ln_gamma(x: f64) -> f64 {
    // Lanczos approximation (g = 5, n = 6), |ε| < 2e-10 for x > 0.
    const COEF: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-14 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
    }

    #[test]
    fn normal_sf_known_values() {
        assert!((standard_normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_sf(1.959964) - 0.025).abs() < 1e-5);
    }

    #[test]
    fn chi_square_sf_known_values() {
        // χ²(1): P[X > 3.841] ≈ 0.05; χ²(5): P[X > 11.070] ≈ 0.05
        assert!((chi_square_sf(3.841, 1.0) - 0.05).abs() < 1e-3);
        assert!((chi_square_sf(11.070, 5.0) - 0.05).abs() < 1e-3);
        assert_eq!(chi_square_sf(0.0, 3.0), 1.0);
    }

    #[test]
    fn mann_whitney_identical_samples_not_significant() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let r = mann_whitney_u(&xs, &xs).unwrap();
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn mann_whitney_detects_clear_shift() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64 + 100.0).collect();
        let r = mann_whitney_u(&xs, &ys).unwrap();
        assert!(r.significant_at(0.001), "p = {}", r.p_value);
        assert_eq!(r.statistic, 0.0); // xs all below ys → U₁ = 0
    }

    #[test]
    fn mann_whitney_symmetric_p() {
        let xs = [0.2, 0.5, 0.9, 1.4, 2.2, 0.7];
        let ys = [1.1, 1.9, 2.4, 3.0, 0.8];
        let a = mann_whitney_u(&xs, &ys).unwrap();
        let b = mann_whitney_u(&ys, &xs).unwrap();
        assert!((a.p_value - b.p_value).abs() < 1e-12);
    }

    #[test]
    fn mann_whitney_handles_all_ties() {
        let xs = [1.0; 6];
        let ys = [1.0; 7];
        let r = mann_whitney_u(&xs, &ys).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn mann_whitney_empty_errors() {
        assert!(mann_whitney_u(&[], &[1.0]).is_err());
    }

    #[test]
    fn chi_square_uniform_die() {
        // near-uniform observed counts on a fair die → not significant
        let obs = [98u64, 103, 101, 99, 102, 97];
        let exp = [1.0; 6];
        let r = chi_square_gof(&obs, &exp).unwrap();
        assert!(!r.significant_at(0.05), "p = {}", r.p_value);
        // heavily loaded die → significant
        let obs2 = [300u64, 60, 60, 60, 60, 60];
        let r2 = chi_square_gof(&obs2, &exp).unwrap();
        assert!(r2.significant_at(0.001), "p = {}", r2.p_value);
    }

    #[test]
    fn chi_square_scales_unnormalized_expected() {
        let obs = [50u64, 50];
        let a = chi_square_gof(&obs, &[0.5, 0.5]).unwrap();
        let b = chi_square_gof(&obs, &[7.0, 7.0]).unwrap();
        assert!((a.statistic - b.statistic).abs() < 1e-12);
    }

    #[test]
    fn chi_square_rejects_bad_input() {
        assert!(chi_square_gof(&[1, 2], &[1.0]).is_err());
        assert!(chi_square_gof(&[1], &[1.0]).is_err());
        assert!(chi_square_gof(&[1, 2], &[1.0, 0.0]).is_err());
    }
}

//! Mallows model under the **Cayley distance**.
//!
//! The paper's conclusions propose exploring different "noise
//! distributions" beyond Kendall-tau Mallows; the Cayley variant is the
//! natural first alternative because its partition function and exact
//! sampler are both closed-form:
//!
//! * `P[π | π₀, θ] = e^{−θ·d_C(π, π₀)} / Z_n(θ)` with
//!   `Z_n(θ) = Π_{j=1}^{n−1} (1 + j·e^{−θ})`;
//! * `d_C(π, π₀) = n − cycles(π·π₀⁻¹)`, so with `α = e^{θ}` the model is
//!   the Ewens distribution `P ∝ α^{cycles}` relabelled by the centre,
//!   and the **Chinese restaurant process** with concentration `α`
//!   samples it exactly;
//! * `E[d_C] = Σ_{j=1}^{n−1} j·e^{−θ} / (1 + j·e^{−θ})` — a sum of
//!   independent Bernoulli means, used for dispersion tuning.
//!
//! Swapping [`CayleyMallows`] for [`MallowsModel`](crate::MallowsModel)
//! in Algorithm 1 changes the *geometry* of the noise (transpositions
//! anywhere rather than adjacent-swap mass): the `ext_noise` experiment
//! compares the fairness/utility trade-off of the two.

use crate::{MallowsError, Result};
use rand::Rng;
use ranking_core::{distance, Permutation};

/// A Mallows distribution under Cayley distance (see module docs).
#[derive(Debug, Clone)]
pub struct CayleyMallows {
    center: Permutation,
    theta: f64,
}

impl CayleyMallows {
    /// Create a model with centre `π₀` and dispersion `θ ≥ 0`.
    pub fn new(center: Permutation, theta: f64) -> Result<Self> {
        if !theta.is_finite() || theta < 0.0 {
            return Err(MallowsError::InvalidTheta { theta });
        }
        Ok(CayleyMallows { center, theta })
    }

    /// The centre (location) permutation `π₀`.
    pub fn center(&self) -> &Permutation {
        &self.center
    }

    /// The dispersion parameter `θ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of ranked items.
    pub fn len(&self) -> usize {
        self.center.len()
    }

    /// True for the degenerate empty model.
    pub fn is_empty(&self) -> bool {
        self.center.is_empty()
    }

    /// Draw one exact sample via the Chinese restaurant process with
    /// concentration `α = e^{θ}`.
    ///
    /// The CRP seating of `n` customers induces a permutation `τ` (each
    /// customer maps to the next at their table) with
    /// `P[τ] ∝ α^{cycles(τ)}`; relabelling by the centre turns the cycle
    /// deficit into Cayley distance from `π₀`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Permutation {
        let mut out = Permutation::identity(0);
        self.sample_into(&mut out, rng);
        out
    }

    /// Draw one sample into `out`, reusing its buffer (one transient
    /// CRP seating vector is still allocated per call).
    ///
    /// ```
    /// use mallows_model::CayleyMallows;
    /// use ranking_core::Permutation;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let model = CayleyMallows::new(Permutation::identity(7), 1.0).unwrap();
    /// let mut rng = StdRng::seed_from_u64(2);
    /// let mut out = Permutation::identity(0);
    /// model.sample_into(&mut out, &mut rng);
    /// assert_eq!(out.len(), 7);
    /// ```
    pub fn sample_into<R: Rng + ?Sized>(&self, out: &mut Permutation, rng: &mut R) {
        let n = self.center.len();
        let alpha = self.theta.exp();
        // next[i] = customer to the right of i at its table. (Customers
        // are seated in index order, so "a uniformly random seated
        // customer" is just a uniform draw from 0..i.)
        let mut next: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            let p_new = alpha / (alpha + i as f64);
            if rng.random::<f64>() < p_new {
                next.push(i); // opens a new table: fixed point for now
            } else {
                let j = rng.random_range(0..i);
                next.push(next[j]);
                next[j] = i;
            }
        }
        // π.order[τ[k]] = π₀.order[k] makes relative_to(π, π₀) equal τ.
        out.refill_unchecked(|order| {
            order.clear();
            order.resize(n, usize::MAX);
            for (k, &tk) in next.iter().enumerate() {
                order[tk] = self.center.item_at(k);
            }
        });
    }

    /// Draw `m` independent samples.
    pub fn sample_many<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<Permutation> {
        let mut out = Vec::with_capacity(m);
        for _ in 0..m {
            out.push(self.sample(rng));
        }
        out
    }

    /// Natural log of the partition function
    /// `Z_n(θ) = Π_{j=1}^{n−1} (1 + j·e^{−θ})`.
    pub fn ln_partition(&self) -> f64 {
        ln_partition_cayley(self.center.len(), self.theta)
    }

    /// Probability mass of `pi` under the model.
    pub fn pmf(&self, pi: &Permutation) -> Result<f64> {
        Ok(self.ln_pmf(pi)?.exp())
    }

    /// Log probability mass of `pi` under the model.
    pub fn ln_pmf(&self, pi: &Permutation) -> Result<f64> {
        if pi.len() != self.center.len() {
            return Err(MallowsError::LengthMismatch {
                center: self.center.len(),
                other: pi.len(),
            });
        }
        let d = distance::cayley(pi, &self.center).expect("lengths checked") as f64;
        Ok(-self.theta * d - self.ln_partition())
    }

    /// Closed-form expected Cayley distance from the centre:
    /// `E[d_C] = Σ_{j=1}^{n−1} j·e^{−θ} / (1 + j·e^{−θ})`.
    pub fn expected_cayley(&self) -> f64 {
        expected_cayley(self.center.len(), self.theta)
    }
}

/// `ln Z_n(θ)` for the Cayley model; free function for estimators.
fn ln_partition_cayley(n: usize, theta: f64) -> f64 {
    let e = (-theta).exp();
    (1..n).map(|j| (1.0 + j as f64 * e).ln()).sum()
}

/// Closed-form `E[d_C]` for `n` items at dispersion `theta`.
pub fn expected_cayley(n: usize, theta: f64) -> f64 {
    let e = (-theta).exp();
    (1..n)
        .map(|j| {
            let je = j as f64 * e;
            je / (1.0 + je)
        })
        .sum()
}

/// Dispersion whose expected Cayley distance equals `target`, by
/// bisection on the strictly decreasing map `θ ↦ E[d_C]`. Targets at or
/// above the `θ = 0` mean return `0`; non-positive targets return a
/// large `θ` (concentration).
pub fn theta_for_expected_cayley(n: usize, target: f64) -> f64 {
    const THETA_MAX: f64 = 50.0;
    if n < 2 || target >= expected_cayley(n, 0.0) {
        return 0.0;
    }
    if target <= expected_cayley(n, THETA_MAX) {
        return THETA_MAX;
    }
    let (mut lo, mut hi) = (0.0f64, THETA_MAX);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if expected_cayley(n, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn rejects_invalid_theta() {
        assert!(CayleyMallows::new(Permutation::identity(3), -0.1).is_err());
        assert!(CayleyMallows::new(Permutation::identity(3), f64::INFINITY).is_err());
    }

    #[test]
    fn samples_are_valid_permutations() {
        let m = CayleyMallows::new(Permutation::identity(15), 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = m.sample(&mut rng);
            let mut v = s.as_order().to_vec();
            v.sort_unstable();
            assert_eq!(v, (0..15).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for theta in [0.0, 0.5, 1.5] {
            let m = CayleyMallows::new(Permutation::identity(5), theta).unwrap();
            let total: f64 = Permutation::enumerate_all(5)
                .iter()
                .map(|p| m.pmf(p).unwrap())
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "θ={theta}: Σpmf = {total}");
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let m = CayleyMallows::new(Permutation::identity(3), 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 6000;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(m.sample(&mut rng).into_order()).or_default() += 1;
        }
        assert_eq!(counts.len(), 6);
        for (_, c) in counts {
            let expected = draws as f64 / 6.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "count {c}"
            );
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let center = Permutation::from_order(vec![2, 0, 3, 1]).unwrap();
        let m = CayleyMallows::new(center, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let draws = 40_000;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(m.sample(&mut rng).into_order()).or_default() += 1;
        }
        for pi in Permutation::enumerate_all(4) {
            let p = m.pmf(&pi).unwrap();
            let observed = *counts.get(pi.as_order()).unwrap_or(&0) as f64 / draws as f64;
            let sigma = (p * (1.0 - p) / draws as f64).sqrt();
            assert!(
                (observed - p).abs() < 5.0 * sigma + 1e-4,
                "π={pi}: pmf {p:.5} vs observed {observed:.5}"
            );
        }
    }

    #[test]
    fn high_theta_concentrates_on_center() {
        let center = Permutation::from_order(vec![4, 2, 0, 3, 1]).unwrap();
        let m = CayleyMallows::new(center.clone(), 20.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let same = (0..200).filter(|_| m.sample(&mut rng) == center).count();
        assert!(
            same > 190,
            "only {same}/200 samples equal the centre at θ=20"
        );
    }

    #[test]
    fn expected_cayley_matches_monte_carlo() {
        let n = 12;
        for theta in [0.3, 1.0, 2.0] {
            let m = CayleyMallows::new(Permutation::identity(n), theta).unwrap();
            let mut rng = StdRng::seed_from_u64(41);
            let draws = 4000;
            let mean: f64 = (0..draws)
                .map(|_| distance::cayley(&m.sample(&mut rng), m.center()).unwrap() as f64)
                .sum::<f64>()
                / draws as f64;
            let expect = m.expected_cayley();
            assert!(
                (mean - expect).abs() < 0.08 * expect.max(1.0),
                "θ={theta}: MC {mean:.3} vs closed form {expect:.3}"
            );
        }
    }

    #[test]
    fn partition_at_zero_is_factorial() {
        // Z_n(0) = Π (1+j) = n!
        assert!((ln_partition_cayley(6, 0.0) - 720f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn expected_cayley_decreases_in_theta() {
        let mut last = f64::INFINITY;
        for theta in [0.0, 0.2, 0.5, 1.0, 2.0, 4.0] {
            let v = expected_cayley(10, theta);
            assert!(v < last);
            last = v;
        }
    }

    #[test]
    fn theta_for_expected_cayley_inverts() {
        let n = 30;
        for theta in [0.2, 0.8, 1.7] {
            let target = expected_cayley(n, theta);
            let recovered = theta_for_expected_cayley(n, target);
            assert!(
                (recovered - theta).abs() < 1e-6,
                "θ={theta} got {recovered}"
            );
        }
        assert_eq!(theta_for_expected_cayley(20, 1e9), 0.0);
    }

    #[test]
    fn ln_pmf_length_mismatch_errors() {
        let m = CayleyMallows::new(Permutation::identity(4), 1.0).unwrap();
        assert!(m.ln_pmf(&Permutation::identity(3)).is_err());
    }
}

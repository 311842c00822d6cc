//! The Generalized Mallows Model (Fligner & Verducci, 1986).
//!
//! Instead of one dispersion θ, the GMM carries a vector
//! `θ⃗ = (θ₁, …, θ_{n−1})`, one per insertion stage: stage `j` of the
//! repeated insertion model draws its inversion count `V_j` from the
//! truncated geometric at `θ_j`. Position-dependent dispersion lets the
//! noise concentrate at the top of the ranking (large θ for early
//! stages) or the bottom — the "tuning parameters within the noise
//! distribution" the paper's conclusion proposes to explore.
//!
//! With all components equal the GMM coincides with the standard
//! [`crate::MallowsModel`].

use crate::tables::sample_truncated_geometric;
use crate::{MallowsError, Result};
use rand::Rng;
use ranking_core::Permutation;

/// A generalized Mallows distribution with per-stage dispersions.
#[derive(Debug, Clone)]
pub struct GeneralizedMallows {
    center: Permutation,
    thetas: Vec<f64>,
}

impl GeneralizedMallows {
    /// Create a GMM; `thetas.len()` must be `center.len().saturating_sub(1)`
    /// (stage `j ∈ 2..=n` uses `thetas[j−2]`; stage 1 has no freedom).
    pub fn new(center: Permutation, thetas: Vec<f64>) -> Result<Self> {
        if thetas.len() != center.len().saturating_sub(1) {
            return Err(MallowsError::LengthMismatch {
                center: center.len().saturating_sub(1),
                other: thetas.len(),
            });
        }
        if let Some(&bad) = thetas.iter().find(|t| !t.is_finite() || **t < 0.0) {
            return Err(MallowsError::InvalidTheta { theta: bad });
        }
        Ok(GeneralizedMallows { center, thetas })
    }

    /// Uniform-dispersion constructor (equivalent to the standard model).
    pub fn uniform(center: Permutation, theta: f64) -> Result<Self> {
        let n = center.len();
        GeneralizedMallows::new(center, vec![theta; n.saturating_sub(1)])
    }

    /// Head-mixing dispersion: θ grows geometrically across the
    /// insertion stages, from `theta_max · decay^{n−2}` at stage 2 up to
    /// `theta_max` at the last stage. Late stages (which insert the
    /// low-ranked items) are concentrated, so tail items stay anchored
    /// at the bottom; early stages are loose, so the top items shuffle
    /// *among themselves*. The net effect is localized randomization of
    /// the head — exactly where prefix-fairness metrics bite — while
    /// deep prefixes keep the centre's order. `decay ∈ (0, 1]`.
    pub fn head_mixing(center: Permutation, theta_max: f64, decay: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&decay) || decay == 0.0 {
            return Err(MallowsError::InvalidTheta { theta: decay });
        }
        let n = center.len();
        let thetas = (0..n.saturating_sub(1))
            .map(|i| theta_max * decay.powi((n.saturating_sub(2) - i) as i32))
            .collect();
        GeneralizedMallows::new(center, thetas)
    }

    /// The centre permutation.
    pub fn center(&self) -> &Permutation {
        &self.center
    }

    /// Draw one exact sample via the stage-wise RIM.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Permutation {
        let n = self.center.len();
        let code: Vec<usize> = (1..=n)
            .map(|j| {
                if j == 1 {
                    0
                } else {
                    sample_truncated_geometric((-self.thetas[j - 2]).exp(), j, rng)
                }
            })
            .collect();
        ranking_core::lehmer::decode_insertion_code(&self.center, &code)
            .expect("sampled code is stage-valid by construction")
    }

    /// Draw one sample into `out`, reusing its buffer (no allocation
    /// beyond `out`'s capacity).
    ///
    /// Decodes by streaming insertion, which moves `Σ V_j` elements in
    /// total — cheap at the concentrated dispersions the GMM is used
    /// with, `O(n²)` in the uniform `θ⃗ = 0` worst case.
    ///
    /// ```
    /// use mallows_model::GeneralizedMallows;
    /// use ranking_core::Permutation;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let gmm = GeneralizedMallows::uniform(Permutation::identity(8), 1.5).unwrap();
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let mut out = Permutation::identity(0);
    /// gmm.sample_into(&mut out, &mut rng);
    /// assert_eq!(out.len(), 8);
    /// ```
    pub fn sample_into<R: Rng + ?Sized>(&self, out: &mut Permutation, rng: &mut R) {
        ranking_core::lehmer::decode_streaming_into(&self.center, out, |j| {
            if j == 1 {
                0
            } else {
                sample_truncated_geometric((-self.thetas[j - 2]).exp(), j, rng)
            }
        });
    }

    /// Closed-form expected Kendall tau distance:
    /// `Σ_j E[V_j(θ_j)]` with the truncated-geometric mean per stage.
    pub fn expected_kendall_tau(&self) -> f64 {
        (2..=self.center.len())
            .map(|j| truncated_geometric_mean((-self.thetas[j - 2]).exp(), j))
            .sum()
    }
}

/// Mean of `V ∈ {0..j−1}`, `P(V = v) ∝ q^v`.
fn truncated_geometric_mean(q: f64, j: usize) -> f64 {
    if q >= 1.0 {
        return (j as f64 - 1.0) / 2.0;
    }
    let qj = q.powi(j as i32);
    q / (1.0 - q) - j as f64 * qj / (1.0 - qj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MallowsModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ranking_core::distance;

    #[test]
    fn shape_validation() {
        assert!(GeneralizedMallows::new(Permutation::identity(4), vec![1.0, 1.0]).is_err());
        assert!(GeneralizedMallows::new(Permutation::identity(4), vec![1.0, -1.0, 1.0]).is_err());
        assert!(GeneralizedMallows::new(Permutation::identity(4), vec![1.0, 1.0, 1.0]).is_ok());
    }

    #[test]
    fn uniform_gmm_matches_standard_mallows_statistics() {
        let center = Permutation::identity(10);
        let gmm = GeneralizedMallows::uniform(center.clone(), 0.8).unwrap();
        let std_model = MallowsModel::new(center, 0.8).unwrap();
        assert!((gmm.expected_kendall_tau() - std_model.expected_kendall_tau()).abs() < 1e-9);

        let mut rng = StdRng::seed_from_u64(1);
        let draws = 4000;
        let mean: f64 = (0..draws)
            .map(|_| distance::kendall_tau(&gmm.sample(&mut rng), gmm.center()).unwrap() as f64)
            .sum::<f64>()
            / draws as f64;
        assert!(
            (mean - gmm.expected_kendall_tau()).abs() < 0.1 * gmm.expected_kendall_tau(),
            "MC mean {mean} vs {}",
            gmm.expected_kendall_tau()
        );
    }

    #[test]
    fn samples_are_valid_permutations() {
        let gmm = GeneralizedMallows::head_mixing(Permutation::identity(12), 3.0, 0.6).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let s = gmm.sample(&mut rng);
            let mut v = s.as_order().to_vec();
            v.sort_unstable();
            assert_eq!(v, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn head_mixing_perturbs_the_head_more_than_the_tail() {
        let n = 20;
        let center = Permutation::identity(n);
        let gmm = GeneralizedMallows::head_mixing(center.clone(), 4.0, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 800;
        let mut head_disp = 0.0;
        let mut tail_disp = 0.0;
        for _ in 0..draws {
            let s = gmm.sample(&mut rng);
            let pos = s.positions();
            for i in 0..5 {
                head_disp += (pos[i] as f64 - i as f64).abs();
            }
            for i in n - 5..n {
                tail_disp += (pos[i] as f64 - i as f64).abs();
            }
        }
        assert!(
            tail_disp < head_disp * 0.8,
            "tail displacement {tail_disp} should be well below head {head_disp}"
        );
    }

    #[test]
    fn singleton_and_empty_centers() {
        let g = GeneralizedMallows::uniform(Permutation::identity(1), 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(g.sample(&mut rng).len(), 1);
        assert_eq!(g.expected_kendall_tau(), 0.0);
        let e = GeneralizedMallows::uniform(Permutation::identity(0), 2.0).unwrap();
        assert_eq!(e.sample(&mut rng).len(), 0);
    }
}

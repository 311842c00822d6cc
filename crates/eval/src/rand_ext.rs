//! Gaussian sampling without `rand_distr`.
//!
//! The paper injects `N(0, σ)` noise into fairness constraints and draws
//! log-normal credit amounts; both need a normal sampler. We implement
//! the Marsaglia polar method, which is exact (no series truncation) and
//! needs only a uniform source.

use rand::Rng;

/// A reusable `N(mean, sd)` sampler.
///
/// The polar method produces pairs; the spare value is cached so the
/// amortized cost is one uniform pair per two normals.
#[derive(Debug, Clone)]
pub struct NormalSampler {
    mean: f64,
    sd: f64,
    spare: Option<f64>,
}

impl NormalSampler {
    /// Create a sampler with the given mean and standard deviation
    /// (`sd ≥ 0`; a zero sd is allowed and yields the constant `mean`).
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd >= 0.0 && sd.is_finite(),
            "standard deviation must be finite and ≥ 0"
        );
        NormalSampler {
            mean,
            sd,
            spare: None,
        }
    }

    /// Standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        NormalSampler::new(0.0, 1.0)
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.sd == 0.0 {
            return self.mean;
        }
        let z = if let Some(z) = self.spare.take() {
            z
        } else {
            loop {
                let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let factor = (-2.0 * s.ln() / s).sqrt();
                    self.spare = Some(v * factor);
                    break u * factor;
                }
            }
        };
        self.mean + self.sd * z
    }

    /// Draw one log-normal sample `exp(N(mean, sd))`.
    pub fn sample_lognormal<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.sample(rng).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = NormalSampler::new(3.0, 2.0);
        let xs: Vec<f64> = (0..50_000).map(|_| s.sample(&mut rng)).collect();
        assert!(
            (stats::mean(&xs) - 3.0).abs() < 0.05,
            "mean {}",
            stats::mean(&xs)
        );
        assert!(
            (stats::std_dev(&xs) - 2.0).abs() < 0.05,
            "sd {}",
            stats::std_dev(&xs)
        );
    }

    #[test]
    fn zero_sd_is_constant() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut s = NormalSampler::new(7.0, 0.0);
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 7.0);
        }
    }

    #[test]
    fn symmetric_tail_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut s = NormalSampler::standard();
        let n = 40_000;
        let above = (0..n).filter(|_| s.sample(&mut rng) > 0.0).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "P(X>0) = {frac}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut s = NormalSampler::new(1.0, 0.5);
        for _ in 0..1000 {
            assert!(s.sample_lognormal(&mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn negative_sd_panics() {
        NormalSampler::new(0.0, -1.0);
    }
}

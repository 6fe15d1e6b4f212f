//! Gaussian sampling via the Box–Muller transform.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! normal distribution needed for synchronization-error sampling is
//! implemented here directly.

use rand::Rng;

/// A Box–Muller Gaussian sampler.
///
/// Generates standard-normal variates in pairs and caches the spare, so on
/// average only one pair of uniforms is consumed per two samples.
///
/// # Examples
///
/// ```
/// use noc_faults::GaussianSampler;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut gauss = GaussianSampler::new();
/// let x = gauss.sample(&mut rng, 0.0, 1.0);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one sample from `N(mean, std_dev²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation cannot be negative");
        mean + std_dev * self.sample_standard(rng)
    }

    /// The cached Box–Muller spare, if the last pair draw left one.
    ///
    /// Checkpointing must capture this: losing a cached spare shifts
    /// every later Gaussian draw by one uniform pair.
    pub fn spare(&self) -> Option<f64> {
        self.spare
    }

    /// Rebuilds a sampler around a previously captured spare.
    pub fn from_spare(spare: Option<f64>) -> Self {
        Self { spare }
    }

    /// Draws one standard-normal sample.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "draws from the caller's RNG handed in by the injector; the sampler owns no stream"
    )]
    pub fn sample_standard<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0, 1] to keep ln(u1) finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(radius * theta.sin());
        radius * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut g = GaussianSampler::new();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample_standard(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn mean_and_std_are_applied() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = GaussianSampler::new();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn zero_std_collapses_to_mean() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = GaussianSampler::new();
        for _ in 0..10 {
            assert_eq!(g.sample(&mut rng, 3.5, 0.0), 3.5);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_std_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = GaussianSampler::new();
        let _ = g.sample(&mut rng, 0.0, -1.0);
    }

    #[test]
    fn spare_cache_is_used() {
        // Two consecutive samples consume one Box-Muller pair: the second
        // sample must not advance the RNG.
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut g = GaussianSampler::new();
        let _first = g.sample_standard(&mut rng_a);
        let state_probe_a: u64 = {
            let _second = g.sample_standard(&mut rng_a);
            rng_a.gen()
        };

        let mut rng_b = StdRng::seed_from_u64(8);
        let mut g2 = GaussianSampler::new();
        let _only = g2.sample_standard(&mut rng_b);
        let state_probe_b: u64 = rng_b.gen();

        assert_eq!(state_probe_a, state_probe_b);
    }
}

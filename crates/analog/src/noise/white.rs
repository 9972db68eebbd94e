//! Seeded white Gaussian noise generator.

use crate::noise::standard_normal;
use crate::AnalogError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A white Gaussian noise generator with standard deviation σ.
///
/// "White" here means uncorrelated samples: the one-sided density of a
/// record generated at sample rate `fs` is `σ²/(fs/2)`.
///
/// # Examples
///
/// ```
/// use nfbist_analog::noise::WhiteNoise;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let mut n = WhiteNoise::new(0.5, 42)?;
/// let x = n.generate(10_000);
/// let rms = nfbist_dsp::stats::rms(&x).unwrap();
/// assert!((rms - 0.5).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    sigma: f64,
    rng: StdRng,
}

impl WhiteNoise {
    /// Creates a generator with standard deviation `sigma` and a fixed
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for negative or
    /// non-finite `sigma`.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, AnalogError> {
        if !(sigma >= 0.0) || !sigma.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "sigma",
                reason: "must be non-negative and finite",
            });
        }
        Ok(WhiteNoise {
            sigma,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn next_sample(&mut self) -> f64 {
        self.sigma * standard_normal(&mut self.rng)
    }

    /// Fills `out` with the next `out.len()` samples, the same
    /// sequence [`WhiteNoise::generate`] draws.
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next_sample();
        }
    }

    /// Generates `n` samples.
    pub fn generate(&mut self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.fill(&mut out);
        out
    }

    /// One-sided density `σ²/(fs/2)` this generator exhibits when its
    /// samples are interpreted at sample rate `fs` (V²/Hz).
    pub fn density(&self, sample_rate: f64) -> f64 {
        self.sigma * self.sigma / (sample_rate / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(WhiteNoise::new(-1.0, 0).is_err());
        assert!(WhiteNoise::new(f64::NAN, 0).is_err());
        assert!(WhiteNoise::new(0.0, 0).is_ok());
    }

    #[test]
    fn zero_sigma_is_silent() {
        let mut n = WhiteNoise::new(0.0, 1).unwrap();
        assert!(n.generate(100).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WhiteNoise::new(1.0, 99).unwrap();
        let mut b = WhiteNoise::new(1.0, 99).unwrap();
        assert_eq!(a.generate(64), b.generate(64));
        let mut c = WhiteNoise::new(1.0, 100).unwrap();
        assert_ne!(a.generate(64), c.generate(64));
    }

    #[test]
    fn variance_matches_sigma() {
        let mut n = WhiteNoise::new(2.0, 5).unwrap();
        let x = n.generate(100_000);
        let var = nfbist_dsp::stats::variance(&x).unwrap();
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn samples_are_uncorrelated() {
        let mut n = WhiteNoise::new(1.0, 11).unwrap();
        let x = n.generate(100_000);
        let r = nfbist_dsp::correlation::normalized_autocorrelation(&x, 5).unwrap();
        for (lag, v) in r.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.02, "lag {lag}: {v}");
        }
    }

    #[test]
    fn density_formula() {
        let n = WhiteNoise::new(1.0, 0).unwrap();
        assert_eq!(n.density(2.0), 1.0);
        assert_eq!(n.sigma(), 1.0);
    }

    #[test]
    fn psd_is_flat_at_declared_density() {
        let fs = 10_000.0;
        let mut n = WhiteNoise::new(0.7, 3).unwrap();
        let x = n.generate(100_000);
        let psd = nfbist_dsp::psd::WelchConfig::new(1024)
            .unwrap()
            .estimate(&x, fs)
            .unwrap();
        let d = psd.density();
        let avg = d[1..d.len() - 1].iter().sum::<f64>() / (d.len() - 2) as f64;
        let expected = n.density(fs);
        assert!(
            (avg - expected).abs() / expected < 0.05,
            "avg {avg} vs {expected}"
        );
    }
}

//! Noise synthesis: white Gaussian, thermal (Johnson–Nyquist),
//! arbitrary-PSD shaped, 1/f, and the calibrated hot/cold source the
//! Y-factor method requires.
//!
//! All generators are seeded explicitly so every experiment in the
//! reproduction is deterministic.

mod calibrated;
mod pink;
mod shaped;
mod thermal;
mod white;

pub use calibrated::{CalibratedNoiseSource, NoiseSourceState};
pub use pink::PinkNoise;
pub use shaped::ShapedNoise;
pub use thermal::ThermalNoise;
pub use white::WhiteNoise;

use rand::Rng;

/// Synthesis block length of the circuits' and faults' [`ShapedNoise`]
/// generators: large against the 10³–10⁴-point analysis segments, so
/// block joints stay below the estimator's noise floor.
pub(crate) const SYNTH_BLOCK: usize = 1 << 15;

/// Draws one standard-normal sample by the Box–Muller transform.
///
/// `rand_distr` is deliberately not a dependency, so the offline
/// dependency set stays at the `rand` shim; this is the only Gaussian
/// primitive the simulator needs. Each call returns exactly one sample
/// (the transform's second output is not kept), so a generator's
/// output never depends on how its draws are batched.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = nfbist_analog::noise::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..100_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = nfbist_dsp::stats::mean(&xs).unwrap();
        let var = nfbist_dsp::stats::variance(&xs).unwrap();
        let skew = nfbist_dsp::stats::skewness(&xs).unwrap();
        let kurt = nfbist_dsp::stats::excess_kurtosis(&xs).unwrap();
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
        assert!(kurt.abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn standard_normal_tail_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2sigma as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((frac - 0.0455).abs() < 0.005, "tail fraction {frac}");
    }

    /// `erfc(x)` to a relative error below 1.2e-7 (the Chebyshev fit of
    /// Press et al., *Numerical Recipes*, §6.2).
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * poly.exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    /// The sampler against the exact normal law over 2·10⁶ draws.
    ///
    /// Tails: each two-sided count `#{|Z| > t}` is Binomial(n, p_t) and
    /// must lie within 4.5 standard errors of `n·p_t`. Summing the exact
    /// binomial tails, a correct sampler fails one of the four
    /// thresholds with probability 3.1e-5 (6.8e-6 at 1σ up to 1.1e-5 at
    /// 4σ, where `n·p ≈ 127`).
    ///
    /// Shape: the Kolmogorov–Smirnov distance must satisfy
    /// `√n·D < 2.0`; under the null, `P(√n·D ≥ 2.0) ≈ 2·e^{−8} ≈ 6.7e-4`.
    #[test]
    fn standard_normal_matches_the_normal_law_in_the_tails_and_by_ks() {
        let n = 2_000_000usize;
        let mut rng = StdRng::seed_from_u64(20_000_523);
        let mut xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();

        // Exact P(|Z| > t) (erfc(t/√2) to double precision).
        let tails = [
            (1.0, 0.317_310_507_862_914_15),
            (2.0, 0.045_500_263_896_358_44),
            (3.0, 0.002_699_796_063_260_191_3),
            (4.0, 6.334_248_366_623_993e-5),
        ];
        for (t, p) in tails {
            let count = xs.iter().filter(|v| v.abs() > t).count() as f64;
            let expected = n as f64 * p;
            let se = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (count - expected).abs() < 4.5 * se,
                "P(|Z| > {t}): {count} draws vs {expected:.1} expected (SE {se:.1})"
            );
        }

        xs.sort_by(f64::total_cmp);
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let cdf = 0.5 * erfc(-x / std::f64::consts::SQRT_2);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((cdf - lo).abs()).max((hi - cdf).abs());
        }
        assert!(
            (n as f64).sqrt() * d < 2.0,
            "KS distance {d:e} (critical {:e})",
            2.0 / (n as f64).sqrt()
        );
    }
}

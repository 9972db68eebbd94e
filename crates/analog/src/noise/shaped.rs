//! Gaussian noise with an arbitrary prescribed one-sided PSD, via
//! frequency-domain synthesis.

use crate::noise::standard_normal;
use crate::AnalogError;
use nfbist_dsp::complex::Complex64;
use nfbist_dsp::fft::RealFft;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Synthesizes Gaussian noise whose one-sided PSD follows a caller-
/// supplied density function (V²/Hz vs Hz).
///
/// The op-amp models use this to realize `en(f)² = en_white²·(1 + fc/f)`
/// voltage noise including the 1/f corner.
///
/// Synthesis works block-wise: independent Gaussian spectral coefficients
/// are drawn with variance proportional to the target density and
/// inverse-transformed by a real-input FFT. Blocks are generated
/// independently, which leaves a small spectral discontinuity at block
/// joints; use a block length much larger than the analysis segment (the
/// circuit models' 2¹⁵ against 10³–10⁴-point segments keeps the artifact
/// below the estimator noise floor).
///
/// Everything that does not change from block to block is built once in
/// [`ShapedNoise::new`]: the per-bin amplitudes, the spectrum and sample
/// buffers, and the FFT plan, which generators of the same block length
/// share process-wide. After the first block, [`ShapedNoise::fill`]
/// allocates nothing.
///
/// # Examples
///
/// ```
/// use nfbist_analog::noise::ShapedNoise;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// // Band-limited white noise: 1e-6 V²/Hz below 1 kHz, zero above.
/// let mut src = ShapedNoise::new(
///     |f| if f <= 1_000.0 { 1e-6 } else { 0.0 },
///     20_000.0,
///     1 << 14,
///     7,
/// )?;
/// let x = src.generate(5_000)?;
/// assert_eq!(x.len(), 5_000);
/// # Ok(())
/// # }
/// ```
pub struct ShapedNoise {
    /// Per-bin standard deviation of each drawn spectral component.
    amplitude: Vec<f64>,
    sample_rate: f64,
    plan: Arc<RealFft>,
    rng: StdRng,
    /// One-sided spectrum of the block being synthesized.
    spectrum: Vec<Complex64>,
    /// The current block and the read position in it.
    block: Vec<f64>,
    cursor: usize,
}

impl std::fmt::Debug for ShapedNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapedNoise")
            .field("sample_rate", &self.sample_rate)
            .field("block_len", &self.block.len())
            .finish_non_exhaustive()
    }
}

/// The real-FFT plan for `size` points, planned once per process and
/// shared: the lock covers only the map lookup and insert, never the
/// planning.
fn shared_plan(size: usize) -> Result<Arc<RealFft>, AnalogError> {
    static PLANS: Mutex<BTreeMap<usize, Arc<RealFft>>> = Mutex::new(BTreeMap::new());
    // Every update is one insert of a complete plan, so a poisoned map
    // is still valid.
    let plans = || PLANS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = plans().get(&size) {
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(RealFft::new(size)?);
    Ok(Arc::clone(plans().entry(size).or_insert(plan)))
}

impl ShapedNoise {
    /// Creates a generator for the density function `density(f)` at
    /// `sample_rate` Hz with an internal synthesis block of `block_len`
    /// samples (power of two).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// sample rate or a non-power-of-two block length, and propagates a
    /// negative density as an error.
    pub fn new<F>(
        density: F,
        sample_rate: f64,
        block_len: usize,
        seed: u64,
    ) -> Result<Self, AnalogError>
    where
        F: Fn(f64) -> f64,
    {
        if !(sample_rate > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        if !block_len.is_power_of_two() || block_len < 2 {
            return Err(AnalogError::InvalidParameter {
                name: "block_len",
                reason: "must be a power of two of at least 2",
            });
        }
        // A coefficient X[k] with E|X[k]|² = N·S₂(f_k)·fs reproduces the
        // density after the inverse transform, where the two-sided
        // density S₂ is S₁/2 on interior bins and S₁ at DC and Nyquist.
        // Interior bins split that variance over a real and an
        // imaginary part; DC and Nyquist are real.
        let df = sample_rate / block_len as f64;
        let nyquist = block_len / 2;
        let mut amplitude = Vec::with_capacity(nyquist + 1);
        for k in 0..=nyquist {
            let d = density(k as f64 * df);
            if !(d >= 0.0) || !d.is_finite() {
                return Err(AnalogError::InvalidParameter {
                    name: "density",
                    reason: "must be non-negative and finite at all bin frequencies",
                });
            }
            let var = d * sample_rate * block_len as f64;
            let per_part = if k == 0 || k == nyquist {
                var
            } else {
                var / 4.0
            };
            amplitude.push(per_part.sqrt());
        }
        Ok(ShapedNoise {
            amplitude,
            sample_rate,
            plan: shared_plan(block_len)?,
            rng: StdRng::seed_from_u64(seed),
            spectrum: vec![Complex64::ZERO; nyquist + 1],
            block: vec![0.0; block_len],
            cursor: block_len,
        })
    }

    /// The sample rate the density is defined against.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Fills `out` with the next `out.len()` samples. Successive calls
    /// continue one sequence, so any split of a record into calls
    /// yields the same bits.
    ///
    /// # Errors
    ///
    /// Propagates FFT errors (which cannot occur for a validated
    /// configuration, but the signature stays honest).
    pub fn fill(&mut self, out: &mut [f64]) -> Result<(), AnalogError> {
        let mut rest = out;
        while !rest.is_empty() {
            if self.cursor == self.block.len() {
                self.synthesize_block()?;
            }
            let take = rest.len().min(self.block.len() - self.cursor);
            let (head, tail) = rest.split_at_mut(take);
            head.copy_from_slice(&self.block[self.cursor..self.cursor + take]);
            self.cursor += take;
            rest = tail;
        }
        Ok(())
    }

    /// Generates `n` samples (see [`ShapedNoise::fill`]).
    ///
    /// # Errors
    ///
    /// As [`ShapedNoise::fill`].
    pub fn generate(&mut self, n: usize) -> Result<Vec<f64>, AnalogError> {
        let mut out = vec![0.0; n];
        self.fill(&mut out)?;
        Ok(out)
    }

    /// Draws a fresh one-sided spectrum, DC to Nyquist, real part before
    /// imaginary, and inverse-transforms it into `self.block`.
    fn synthesize_block(&mut self) -> Result<(), AnalogError> {
        let last = self.spectrum.len() - 1;
        let rng = &mut self.rng;
        let amp = &self.amplitude;
        self.spectrum[0] = Complex64::from_real(amp[0] * standard_normal(rng));
        for (bin, &a) in self.spectrum[1..last].iter_mut().zip(&amp[1..last]) {
            let re = a * standard_normal(rng);
            *bin = Complex64::new(re, a * standard_normal(rng));
        }
        self.spectrum[last] = Complex64::from_real(amp[last] * standard_normal(rng));
        self.plan
            .inverse_into(&mut self.spectrum, &mut self.block)?;
        self.cursor = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfbist_dsp::psd::WelchConfig;

    #[test]
    fn validation() {
        assert!(ShapedNoise::new(|_| 1.0, 0.0, 1024, 0).is_err());
        assert!(ShapedNoise::new(|_| 1.0, 1e3, 1000, 0).is_err());
        assert!(ShapedNoise::new(|_| -1.0, 1e3, 1024, 0).is_err());
        assert!(ShapedNoise::new(|f| if f > 0.0 { f64::NAN } else { 1.0 }, 1e3, 1024, 0).is_err());
        assert!(ShapedNoise::new(|_| 1.0, 1e3, 1024, 0).is_ok());
    }

    #[test]
    fn flat_density_reproduces_white_noise() {
        let fs = 10_000.0;
        let target = 2e-4;
        let mut src = ShapedNoise::new(|_| target, fs, 1 << 14, 5).unwrap();
        let x = src.generate(200_000).unwrap();
        let psd = WelchConfig::new(1024).unwrap().estimate(&x, fs).unwrap();
        let d = psd.density();
        let avg = d[1..d.len() - 1].iter().sum::<f64>() / (d.len() - 2) as f64;
        assert!(
            (avg - target).abs() / target < 0.05,
            "avg {avg} vs {target}"
        );
        // Variance equals density × bandwidth.
        let var = nfbist_dsp::stats::variance(&x).unwrap();
        let expected = target * fs / 2.0;
        assert!((var - expected).abs() / expected < 0.05);
    }

    #[test]
    fn band_limited_density_is_respected() {
        let fs = 20_000.0;
        let mut src =
            ShapedNoise::new(|f| if f <= 1_000.0 { 1e-4 } else { 0.0 }, fs, 1 << 14, 11).unwrap();
        let x = src.generate(300_000).unwrap();
        let psd = WelchConfig::new(2048).unwrap().estimate(&x, fs).unwrap();
        let in_band = psd.band_power(100.0, 800.0).unwrap() / 700.0;
        let out_band = psd.band_power(3_000.0, 8_000.0).unwrap() / 5_000.0;
        assert!((in_band - 1e-4).abs() / 1e-4 < 0.1, "in-band {in_band}");
        assert!(out_band < in_band * 1e-3, "out-of-band {out_band}");
    }

    #[test]
    fn one_over_f_slope() {
        let fs = 10_000.0;
        let mut src =
            ShapedNoise::new(|f| if f < 1.0 { 1e-2 } else { 1e-2 / f }, fs, 1 << 15, 13).unwrap();
        let x = src.generate(400_000).unwrap();
        let psd = WelchConfig::new(4096).unwrap().estimate(&x, fs).unwrap();
        // Density at 100 Hz should be ~10× density at 1 kHz.
        let d100 = psd.band_power(80.0, 120.0).unwrap() / 40.0;
        let d1000 = psd.band_power(900.0, 1100.0).unwrap() / 200.0;
        let ratio = d100 / d1000;
        assert!((ratio - 10.0).abs() < 2.0, "1/f ratio {ratio}");
    }

    #[test]
    fn output_is_gaussian() {
        let mut src = ShapedNoise::new(|_| 1e-3, 1e4, 1 << 12, 17).unwrap();
        let x = src.generate(100_000).unwrap();
        let skew = nfbist_dsp::stats::skewness(&x).unwrap();
        let kurt = nfbist_dsp::stats::excess_kurtosis(&x).unwrap();
        assert!(skew.abs() < 0.05, "skew {skew}");
        assert!(kurt.abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn streaming_across_blocks_is_seamless_in_length() {
        let mut src = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 3).unwrap();
        let a = src.generate(1000).unwrap();
        let b = src.generate(1000).unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(b.len(), 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 21).unwrap();
        let mut b = ShapedNoise::new(|_| 1e-3, 1e4, 1024, 21).unwrap();
        assert_eq!(a.generate(256).unwrap(), b.generate(256).unwrap());
    }
}

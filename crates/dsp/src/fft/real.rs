//! Packed real-input FFT: `N` real samples transformed through one
//! `N/2`-point complex FFT plus an `O(N)` untangling pass.
//!
//! Every spectral estimate in this workspace starts from a *real*
//! record (and, in the 1-bit BIST, a ±1-valued one), so a full `N`-point
//! complex transform wastes half its butterflies on the imaginary lane
//! of zeros. [`RealFft`] uses the classic pack/untangle identity
//! instead: place even samples in the real lane and odd samples in the
//! imaginary lane of an `N/2` complex buffer,
//!
//! `z[m] = x[2m] + j·x[2m+1]`,
//!
//! transform once, and split the result with the conjugate symmetry of
//! real-signal spectra. Writing `Z = FFT_{N/2}(z)`, the even- and
//! odd-sample spectra are
//!
//! `E[k] = (Z[k] + Z*[M−k])/2`, `O[k] = −j·(Z[k] − Z*[M−k])/2`,
//!
//! and the one-sided output is `X[k] = E[k] + W_N^k·O[k]` for
//! `k = 0..=M` with `M = N/2` (`X[M−k] = (E[k] − W_N^k·O[k])*` comes
//! for free, which is how the untangle pass runs in place over pairs of
//! bins). The remaining `N/2−1..N` bins are the conjugate mirror and
//! are never materialized.
//!
//! [`RealFft::inverse_into`] runs the same identity backwards: it
//! re-tangles the one-sided bins into `Z`, inverts once at `N/2` points
//! and reads the even and odd samples off the real and imaginary lanes.
//! Shaped-noise synthesis uses it to turn a random one-sided spectrum
//! into a real record.

use crate::complex::Complex64;
use crate::fft::Fft;
use crate::DspError;

/// A planned FFT of real input with one-sided (`N/2 + 1` bin) output,
/// doing half the butterfly work of [`Fft::forward_real`].
///
/// # Examples
///
/// ```
/// use nfbist_dsp::fft::{Fft, RealFft};
///
/// # fn main() -> Result<(), nfbist_dsp::DspError> {
/// let n = 64;
/// let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.31).sin()).collect();
/// let one_sided = RealFft::new(n)?.forward(&x)?;
/// let full = Fft::new(n)?.forward_real(&x)?;
/// assert_eq!(one_sided.len(), n / 2 + 1);
/// for (a, b) in one_sided.iter().zip(&full) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    size: usize,
    /// The half-size complex plan (`None` for the degenerate size 1).
    inner: Option<Fft>,
    /// Untangle twiddles `W_N^k = e^{-j2πk/N}` for `k` in `1..N/4`
    /// (`k = 0` is the DC/Nyquist special case and `k = N/4` is the
    /// self-conjugate bin, both handled without a table lookup).
    twiddles: Vec<Complex64>,
}

impl RealFft {
    /// Plans a real-input FFT of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] unless `size` is a power of
    /// two greater than zero.
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size == 0 {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "fft size must be nonzero",
            });
        }
        if !size.is_power_of_two() {
            return Err(DspError::InvalidFftSize {
                size,
                reason: "real fft size must be a power of two (use ArbitraryFft otherwise)",
            });
        }
        let inner = if size >= 2 {
            Some(Fft::new(size / 2)?)
        } else {
            None
        };
        let twiddles = (1..size / 4)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / size as f64))
            .collect();
        Ok(RealFft {
            size,
            inner,
            twiddles,
        })
    }

    /// The planned (real) input length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of one-sided output bins, `size/2 + 1` (1 for size 1).
    pub fn output_len(&self) -> usize {
        self.size / 2 + 1
    }

    /// Forward transform returning the `N/2 + 1` one-sided bins
    /// (DC through Nyquist, no scaling — matching [`Fft::forward`]
    /// conventions on the retained bins).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<Complex64>, DspError> {
        let mut out = vec![Complex64::ZERO; self.output_len()];
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// Forward transform into a caller-owned one-sided buffer — the
    /// zero-allocation variant used by the PSD workspace hot path. The
    /// first `N/2` slots of `out` double as the packed work buffer, so
    /// no scratch is needed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `x.len() != self.size()`
    /// or `out.len() != self.output_len()`.
    pub fn forward_into(&self, x: &[f64], out: &mut [Complex64]) -> Result<(), DspError> {
        if x.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: x.len(),
                context: "real fft forward_into (input)",
            });
        }
        if out.len() != self.output_len() {
            return Err(DspError::LengthMismatch {
                expected: self.output_len(),
                actual: out.len(),
                context: "real fft forward_into (output)",
            });
        }
        let Some(inner) = &self.inner else {
            // Size 1: the spectrum is the sample itself.
            out[0] = Complex64::from_real(x[0]);
            return Ok(());
        };
        let m = self.size / 2;

        // Pack: z[i] = x[2i] + j·x[2i+1] into the work prefix of `out`.
        for (z, pair) in out[..m].iter_mut().zip(x.chunks_exact(2)) {
            *z = Complex64::new(pair[0], pair[1]);
        }
        inner.forward_in_place(&mut out[..m])?;

        // Untangle in place, pairwise over (k, M−k).
        let z0 = out[0];
        for (k, &w) in (1..).zip(&self.twiddles) {
            let zk = out[k];
            let zc = out[m - k].conj();
            // E[k] = (Z[k] + Z*[M−k])/2, O[k] = −j·(Z[k] − Z*[M−k])/2.
            let e = (zk + zc).scale(0.5);
            let d = zk - zc;
            let o = Complex64::new(0.5 * d.im, -0.5 * d.re);
            let wo = w * o;
            out[k] = e + wo;
            out[m - k] = (e - wo).conj();
        }
        if m >= 2 {
            // Self-conjugate bin k = M/2: W_N^{M/2} = −j collapses the
            // untangle to a conjugation.
            out[m / 2] = out[m / 2].conj();
        }
        // DC and Nyquist, both purely real.
        out[0] = Complex64::from_real(z0.re + z0.im);
        out[m] = Complex64::from_real(z0.re - z0.im);
        Ok(())
    }

    /// Inverse transform of `N/2 + 1` one-sided bins into `N` real
    /// samples (applies the `1/N` scale, matching [`Fft::inverse`] on
    /// the conjugate-symmetric extension of `spec`) — the mirror of
    /// [`RealFft::forward_into`]. The bins are re-tangled into the
    /// packed spectrum `Z[k] = E[k] + j·O[k]`, with
    /// `E[k] = X[k] + X*[M−k]` and `O[k] = W_N^{−k}·(X[k] − X*[M−k])`
    /// (both doubled, which the final `1/N` absorbs), and one `N/2`-point
    /// complex inverse yields `z[m] = x[2m] + j·x[2m+1]`.
    ///
    /// The first `N/2` slots of `spec` are the work buffer, so `spec`
    /// holds no meaningful values on return and no scratch is needed.
    /// The imaginary parts of the DC and Nyquist bins are ignored, as
    /// they are zero for every real signal.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if
    /// `spec.len() != self.output_len()` or `out.len() != self.size()`.
    pub fn inverse_into(&self, spec: &mut [Complex64], out: &mut [f64]) -> Result<(), DspError> {
        if spec.len() != self.output_len() {
            return Err(DspError::LengthMismatch {
                expected: self.output_len(),
                actual: spec.len(),
                context: "real fft inverse_into (input)",
            });
        }
        if out.len() != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: out.len(),
                context: "real fft inverse_into (output)",
            });
        }
        let Some(inner) = &self.inner else {
            out[0] = spec[0].re;
            return Ok(());
        };
        let m = self.size / 2;

        // Re-tangle in place, pairwise over (k, M−k):
        // Z[M−k] = E*[k] + j·O*[k] = (E[k] − j·O[k])*.
        let (x0, xm) = (spec[0].re, spec[m].re);
        for (k, &w) in (1..).zip(&self.twiddles) {
            let xk = spec[k];
            let xc = spec[m - k].conj();
            let e = xk + xc;
            let o = w.conj() * (xk - xc);
            let jo = Complex64::new(-o.im, o.re);
            spec[k] = e + jo;
            spec[m - k] = (e - jo).conj();
        }
        if m >= 2 {
            // Self-conjugate bin k = M/2: the re-tangle collapses to a
            // (doubled) conjugation.
            spec[m / 2] = spec[m / 2].conj().scale(2.0);
        }
        spec[0] = Complex64::new(x0 + xm, x0 - xm);
        super::radix2::inverse(&mut spec[..m], &inner.stage_twiddles, &inner.bit_rev);

        // Unpack even/odd samples with the 1/N scale.
        let scale = 1.0 / self.size as f64;
        for (pair, z) in out.chunks_exact_mut(2).zip(&spec[..m]) {
            pair[0] = z.re * scale;
            pair[1] = z.im * scale;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.47).sin() + 0.3 * (j as f64 * 1.13).cos() - 0.1)
            .collect()
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(RealFft::new(0).is_err());
        assert!(RealFft::new(3).is_err());
        assert!(RealFft::new(24).is_err());
        assert!(RealFft::new(1).is_ok());
        assert!(RealFft::new(2).is_ok());
        assert!(RealFft::new(1024).is_ok());
    }

    #[test]
    fn degenerate_sizes() {
        let x1 = [2.5];
        assert_eq!(
            RealFft::new(1).unwrap().forward(&x1).unwrap(),
            vec![Complex64::from_real(2.5)]
        );
        let x2 = [1.0, -3.0];
        let out = RealFft::new(2).unwrap().forward(&x2).unwrap();
        assert_eq!(out[0], Complex64::from_real(-2.0));
        assert_eq!(out[1], Complex64::from_real(4.0));
    }

    #[test]
    fn matches_naive_dft_one_sided() {
        for n in [2usize, 4, 8, 16, 64, 256] {
            let x = real_signal(n);
            let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            let oracle = dft_naive(&packed);
            let fast = RealFft::new(n).unwrap().forward(&x).unwrap();
            assert_eq!(fast.len(), n / 2 + 1);
            for (k, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-9 * n as f64,
                    "n={n} bin {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_complex_real_transform() {
        for n in [8usize, 32, 128, 1024] {
            let x = real_signal(n);
            let full = Fft::new(n).unwrap().forward_real(&x).unwrap();
            let half = RealFft::new(n).unwrap().forward(&x).unwrap();
            for (k, (a, b)) in half.iter().zip(&full).enumerate() {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "n={n} bin {k}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_are_purely_real() {
        let n = 128;
        let x = real_signal(n);
        let out = RealFft::new(n).unwrap().forward(&x).unwrap();
        assert_eq!(out[0].im, 0.0);
        assert_eq!(out[n / 2].im, 0.0);
        let sum: f64 = x.iter().sum();
        assert!((out[0].re - sum).abs() < 1e-9);
    }

    #[test]
    fn into_variant_matches_allocating_path_bitwise() {
        let n = 256;
        let x = real_signal(n);
        let plan = RealFft::new(n).unwrap();
        let alloc = plan.forward(&x).unwrap();
        // Dirty output must not leak into the result.
        let mut out = vec![Complex64::new(9.0, -9.0); plan.output_len()];
        plan.forward_into(&x, &mut out).unwrap();
        assert_eq!(alloc, out, "into-buffer path must be bit-identical");
    }

    #[test]
    fn length_mismatches_rejected() {
        let plan = RealFft::new(16).unwrap();
        let x = [0.0; 16];
        let mut out = vec![Complex64::ZERO; plan.output_len()];
        assert!(plan.forward_into(&x[..15], &mut out).is_err());
        let mut bad = vec![Complex64::ZERO; plan.output_len() - 1];
        assert!(plan.forward_into(&x, &mut bad).is_err());
        assert!(plan.forward(&x[..3]).is_err());
    }

    #[test]
    fn inverse_into_roundtrips_forward() {
        for n in [1usize, 2, 4, 8, 16, 64, 1024] {
            let x = real_signal(n);
            let plan = RealFft::new(n).unwrap();
            let mut spec = plan.forward(&x).unwrap();
            let mut back = vec![f64::NAN; n];
            plan.inverse_into(&mut spec, &mut back).unwrap();
            for (j, (a, b)) in back.iter().zip(&x).enumerate() {
                assert!((a - b).abs() < 1e-12 * n as f64, "n={n} sample {j}");
            }
        }
    }

    #[test]
    fn inverse_into_matches_complex_inverse_of_hermitian_extension() {
        for n in [2usize, 4, 8, 32, 256] {
            // An arbitrary one-sided spectrum (real DC and Nyquist).
            let half: Vec<Complex64> = (0..=n / 2)
                .map(|k| {
                    let im = if k == 0 || k == n / 2 {
                        0.0
                    } else {
                        (k as f64 * 0.7).cos()
                    };
                    Complex64::new((k as f64 * 0.3).sin() + 0.2, im)
                })
                .collect();
            let mut full = vec![Complex64::ZERO; n];
            for (k, &z) in half.iter().enumerate() {
                full[k] = z;
                if k != 0 && k != n / 2 {
                    full[n - k] = z.conj();
                }
            }
            let oracle = Fft::new(n).unwrap().inverse(&full).unwrap();
            let mut spec = half.clone();
            let mut out = vec![0.0; n];
            RealFft::new(n)
                .unwrap()
                .inverse_into(&mut spec, &mut out)
                .unwrap();
            for (j, (a, b)) in out.iter().zip(&oracle).enumerate() {
                assert!((a - b.re).abs() < 1e-12 * n as f64, "n={n} sample {j}");
            }
        }
    }

    #[test]
    fn inverse_into_rejects_bad_lengths() {
        let plan = RealFft::new(16).unwrap();
        let mut spec = vec![Complex64::ZERO; plan.output_len()];
        let mut out = vec![0.0; 16];
        assert!(plan.inverse_into(&mut spec[..8], &mut out).is_err());
        assert!(plan.inverse_into(&mut spec, &mut out[..15]).is_err());
        assert!(plan.inverse_into(&mut spec, &mut out).is_ok());
    }

    #[test]
    fn parseval_energy_on_one_sided_bins() {
        let n = 512;
        let x = real_signal(n);
        let spec = RealFft::new(n).unwrap().forward(&x).unwrap();
        let time: f64 = x.iter().map(|v| v * v).sum();
        // One-sided Parseval: interior bins count twice.
        let mut freq = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        for z in &spec[1..n / 2] {
            freq += 2.0 * z.norm_sqr();
        }
        freq /= n as f64;
        assert!((time - freq).abs() < 1e-8 * (1.0 + time));
    }
}

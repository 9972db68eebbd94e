//! The paper's DUT: a non-inverting op-amp amplifier with datasheet
//! noise analysis.
//!
//! Paper Fig. 11 uses a non-inverting amplifier with `Av = 101`
//! (`1 + Rf/Rg` with Rf = 10 kΩ, Rg = 100 Ω in our parameterization);
//! "as the equivalent noise voltages are provided by the data-sheets of
//! the components, one is able to calculate the expected nominal value
//! of the noise figure of the circuit" — that calculation (Burr-Brown
//! AB-103 / Motchenbacher & Connelly) is implemented here, and the same
//! densities drive the time-domain noise synthesis, so the *expected*
//! and the *measured* NF in the Table 3 reproduction rest on identical
//! physics.

use crate::noise::{ShapedNoise, SYNTH_BLOCK};
use crate::opamp::OpampModel;
use crate::units::{Kelvin, Ohms};
use crate::AnalogError;

/// A non-inverting op-amp amplifier (gain `1 + Rf/Rg`) with noise
/// analysis against a given source resistance.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::NonInvertingAmplifier;
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let dut = NonInvertingAmplifier::new(
///     OpampModel::op27(),
///     Ohms::new(10_000.0), // Rf
///     Ohms::new(100.0),    // Rg
/// )?;
/// assert!((dut.gain() - 101.0).abs() < 1e-12);
/// let nf = dut.expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)?;
/// assert!(nf > 0.0 && nf < 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NonInvertingAmplifier {
    opamp: OpampModel,
    rf: Ohms,
    rg: Ohms,
    temperature: Kelvin,
}

impl NonInvertingAmplifier {
    /// Builds the amplifier with feedback resistor `rf` and gain-set
    /// resistor `rg` (resistors at 290 K).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive
    /// resistances.
    pub fn new(opamp: OpampModel, rf: Ohms, rg: Ohms) -> Result<Self, AnalogError> {
        if !(rf.value() > 0.0) || !(rg.value() > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "resistors",
                reason: "rf and rg must be positive",
            });
        }
        Ok(NonInvertingAmplifier {
            opamp,
            rf,
            rg,
            temperature: Kelvin::REFERENCE,
        })
    }

    /// Overrides the resistor physical temperature (default 290 K).
    pub fn with_temperature(mut self, t: Kelvin) -> Self {
        self.temperature = t;
        self
    }

    /// The op-amp model.
    pub fn opamp(&self) -> &OpampModel {
        &self.opamp
    }

    /// Closed-loop voltage gain `1 + Rf/Rg`.
    pub fn gain(&self) -> f64 {
        1.0 + self.rf.value() / self.rg.value()
    }

    /// The feedback network's parallel resistance `Rf ∥ Rg` seen by the
    /// inverting input.
    pub fn feedback_parallel(&self) -> Ohms {
        self.rf.parallel(self.rg)
    }

    /// Input-referred noise density **squared** added by the amplifier
    /// (everything except the source's own thermal noise), at frequency
    /// `f`, for source resistance `rs` (V²/Hz):
    ///
    /// `en²(f) + in²(f)·Rs² + in²(f)·Rp² + 4kT·Rp`
    ///
    /// following AB-103 with equal noise currents at both inputs.
    pub fn added_noise_density_sq(&self, rs: Ohms, f: f64) -> f64 {
        let rp = self.feedback_parallel();
        let en2 = self.opamp.voltage_noise_density_sq(f);
        let in2 = self.opamp.current_noise_density_sq(f);
        en2 + in2 * rs.value() * rs.value()
            + in2 * rp.value() * rp.value()
            + rp.thermal_noise_density_sq(self.temperature)
    }

    /// Band-averaged added noise density squared over `[f_lo, f_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] unless
    /// `0 < f_lo < f_hi`.
    pub fn mean_added_noise_density_sq(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        let rp = self.feedback_parallel();
        let en2 = self.opamp.mean_voltage_noise_density_sq(f_lo, f_hi)?;
        let in2 = self.opamp.mean_current_noise_density_sq(f_lo, f_hi)?;
        Ok(en2
            + in2 * rs.value() * rs.value()
            + in2 * rp.value() * rp.value()
            + rp.thermal_noise_density_sq(self.temperature))
    }

    /// Expected noise factor over a band for source resistance `rs`:
    /// `F = 1 + added/(4kT0·Rs)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for a non-positive
    /// source resistance or an invalid band.
    pub fn expected_noise_factor(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        if !(rs.value() > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "rs",
                reason: "source resistance must be positive",
            });
        }
        let source = rs.thermal_noise_density_sq(Kelvin::REFERENCE);
        let added = self.mean_added_noise_density_sq(rs, f_lo, f_hi)?;
        Ok(1.0 + added / source)
    }

    /// Expected noise figure in dB (the "Expected" column of Table 3).
    ///
    /// # Errors
    ///
    /// Same as [`NonInvertingAmplifier::expected_noise_factor`].
    pub fn expected_noise_figure_db(
        &self,
        rs: Ohms,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<f64, AnalogError> {
        Ok(10.0 * self.expected_noise_factor(rs, f_lo, f_hi)?.log10())
    }

    /// Amplifies `input` (the voltage at the non-inverting input,
    /// already containing the source's noise), adding the amplifier's
    /// own input-referred noise synthesized from the model, then
    /// applying the closed-loop gain.
    ///
    /// `rs` is the source resistance the current noise flows through;
    /// `sample_rate` and `seed` control the synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for bad parameters and
    /// propagates synthesis errors.
    pub fn amplify(
        &self,
        input: &[f64],
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        if input.is_empty() {
            return Err(AnalogError::EmptyInput { context: "amplify" });
        }
        let mut noise = self.noise_stream(rs, sample_rate, seed)?;
        let mut out = noise.generate(input.len())?;
        let g = self.gain();
        for (v, &x) in out.iter_mut().zip(input) {
            *v = g * (x + *v);
        }
        Ok(out)
    }

    /// The input-referred noise generator a single
    /// [`NonInvertingAmplifier::amplify`] call draws from — exposed to
    /// the streaming DUT path (`Dut::process_stream`) so chunked
    /// processing synthesizes the *identical* noise sequence.
    ///
    /// DC is zeroed: sub-bin 1/f power would otherwise synthesize as a
    /// spurious per-block offset, and the physical path is AC-coupled
    /// anyway.
    pub(crate) fn noise_stream(
        &self,
        rs: Ohms,
        sample_rate: f64,
        seed: u64,
    ) -> Result<ShapedNoise, AnalogError> {
        if !(rs.value() > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "rs",
                reason: "source resistance must be positive",
            });
        }
        ShapedNoise::new(
            |f| {
                if f == 0.0 {
                    0.0
                } else {
                    self.added_noise_density_sq(rs, f)
                }
            },
            sample_rate,
            SYNTH_BLOCK,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_dut(opamp: OpampModel) -> NonInvertingAmplifier {
        NonInvertingAmplifier::new(opamp, Ohms::new(10_000.0), Ohms::new(100.0)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(
            NonInvertingAmplifier::new(OpampModel::op27(), Ohms::new(0.0), Ohms::new(1.0)).is_err()
        );
        assert!(
            NonInvertingAmplifier::new(OpampModel::op27(), Ohms::new(1.0), Ohms::new(-1.0))
                .is_err()
        );
    }

    #[test]
    fn paper_gain_is_101() {
        let dut = paper_dut(OpampModel::op27());
        assert!((dut.gain() - 101.0).abs() < 1e-12);
        assert!((dut.feedback_parallel().value() - 99.0099).abs() < 1e-3);
    }

    #[test]
    fn noise_factor_ordering_matches_table3() {
        // Table 3's ranking: OP27 < OP07 < TL081 < CA3140.
        let rs = Ohms::new(2_000.0);
        let nfs: Vec<f64> = OpampModel::paper_set()
            .into_iter()
            .map(|m| {
                paper_dut(m)
                    .expected_noise_figure_db(rs, 100.0, 1_000.0)
                    .unwrap()
            })
            .collect();
        for w in nfs.windows(2) {
            assert!(w[1] > w[0], "ordering violated: {nfs:?}");
        }
        // The span should be wide like the paper's 3.7 → 16.2 dB.
        assert!(nfs[3] - nfs[0] > 8.0, "span too narrow: {nfs:?}");
        // CA3140 lands in the teens.
        assert!(nfs[3] > 12.0 && nfs[3] < 22.0, "CA3140 NF {}", nfs[3]);
    }

    #[test]
    fn noiseless_opamp_with_tiny_feedback_approaches_0db() {
        let quiet = OpampModel::new(
            "ideal",
            1e-12,
            crate::units::Hertz::new(0.0),
            0.0,
            crate::units::Hertz::new(0.0),
        )
        .unwrap();
        let dut = NonInvertingAmplifier::new(quiet, Ohms::new(1_000.0), Ohms::new(0.01)).unwrap();
        let nf = dut
            .expected_noise_figure_db(Ohms::new(2_000.0), 100.0, 1_000.0)
            .unwrap();
        assert!(nf < 0.01, "NF {nf}");
    }

    #[test]
    fn smaller_source_resistance_raises_nf_for_voltage_noise_dominated_amp() {
        let dut = paper_dut(OpampModel::tl081());
        let nf_small = dut
            .expected_noise_figure_db(Ohms::new(100.0), 100.0, 1_000.0)
            .unwrap();
        let nf_large = dut
            .expected_noise_figure_db(Ohms::new(10_000.0), 100.0, 1_000.0)
            .unwrap();
        assert!(nf_small > nf_large);
    }

    #[test]
    fn expected_factor_validation() {
        let dut = paper_dut(OpampModel::op27());
        assert!(dut
            .expected_noise_factor(Ohms::new(0.0), 100.0, 1e3)
            .is_err());
        assert!(dut.expected_noise_factor(Ohms::new(1e3), 0.0, 1e3).is_err());
        assert!(dut
            .expected_noise_factor(Ohms::new(1e3), 1e3, 100.0)
            .is_err());
    }

    #[test]
    fn amplify_applies_gain_and_adds_noise() {
        let fs = 20_000.0;
        let dut = paper_dut(OpampModel::ca3140());
        let rs = Ohms::new(2_000.0);
        // Amplify silence: the output spectrum is purely the amp's own
        // noise. Compare the in-band density (away from the 1/f region)
        // against the analytic model.
        let silence = vec![0.0; 200_000];
        let out = dut.amplify(&silence, rs, fs, 3).unwrap();
        let psd = nfbist_dsp::psd::WelchConfig::new(4096)
            .unwrap()
            .estimate(&out, fs)
            .unwrap();
        let measured_density = psd.band_power(2_000.0, 6_000.0).unwrap() / 4_000.0;
        let expected_density = dut.gain().powi(2)
            * dut
                .mean_added_noise_density_sq(rs, 2_000.0, 6_000.0)
                .unwrap();
        assert!(
            (measured_density - expected_density).abs() / expected_density < 0.1,
            "density {measured_density} vs {expected_density}"
        );
        // A deterministic signal passes with the closed-loop gain.
        let tone: Vec<f64> = (0..100_000)
            .map(|i| 0.01 * (std::f64::consts::TAU * 1_000.0 * i as f64 / fs).sin())
            .collect();
        let out = dut.amplify(&tone, rs, fs, 4).unwrap();
        let p_sig = nfbist_dsp::stats::mean_square(&out).unwrap();
        let expected_sig = dut.gain().powi(2) * 0.01f64.powi(2) / 2.0;
        assert!(
            (p_sig - expected_sig).abs() / expected_sig < 0.05,
            "{p_sig} vs {expected_sig}"
        );
    }

    #[test]
    fn amplify_validation() {
        let dut = paper_dut(OpampModel::op27());
        assert!(dut.amplify(&[], Ohms::new(1e3), 1e4, 0).is_err());
        assert!(dut.amplify(&[0.0], Ohms::new(0.0), 1e4, 0).is_err());
    }

    #[test]
    fn hot_resistors_add_more_noise() {
        let cold = paper_dut(OpampModel::op27());
        let hot = paper_dut(OpampModel::op27()).with_temperature(Kelvin::new(400.0));
        let rs = Ohms::new(100.0);
        // Use a huge Rf∥Rg so the feedback thermal term dominates.
        let cold = NonInvertingAmplifier::new(
            cold.opamp().clone(),
            Ohms::new(100_000.0),
            Ohms::new(100_000.0),
        )
        .unwrap();
        let hot = NonInvertingAmplifier::new(
            hot.opamp().clone(),
            Ohms::new(100_000.0),
            Ohms::new(100_000.0),
        )
        .unwrap()
        .with_temperature(Kelvin::new(400.0));
        let dc = cold.added_noise_density_sq(rs, 1_000.0);
        let dh = hot.added_noise_density_sq(rs, 1_000.0);
        assert!(dh > dc);
    }
}

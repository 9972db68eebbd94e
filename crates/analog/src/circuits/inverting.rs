//! Inverting op-amp amplifier with noise analysis.
//!
//! The paper's prototype used the non-inverting topology; the inverting
//! variant is included because it is the other canonical gain stage a
//! BIST-equipped SoC will meet, and its noise analysis differs in an
//! instructive way: the input resistor `Rin` both sets the gain and
//! adds noise, and the source sees a virtual-ground summing node.

use crate::noise::{ShapedNoise, SYNTH_BLOCK};
use crate::opamp::OpampModel;
use crate::units::{Kelvin, Ohms};
use crate::AnalogError;

/// An inverting amplifier: gain `−Rf/Rin`, input through `Rin` into the
/// virtual ground.
///
/// Noise analysis (AB-103 conventions, noise-gain = `1 + Rf/Rin`):
/// output-referred noise collects `en` amplified by the noise gain,
/// `in` through `Rf`, and the thermal noise of both resistors; the
/// input-referred value divides by the signal gain `Rf/Rin`.
///
/// # Examples
///
/// ```
/// use nfbist_analog::circuits::InvertingAmplifier;
/// use nfbist_analog::opamp::OpampModel;
/// use nfbist_analog::units::Ohms;
///
/// # fn main() -> Result<(), nfbist_analog::AnalogError> {
/// let amp = InvertingAmplifier::new(
///     OpampModel::op27(),
///     Ohms::new(10_000.0), // Rf
///     Ohms::new(1_000.0),  // Rin
/// )?;
/// assert_eq!(amp.gain(), -10.0);
/// assert_eq!(amp.noise_gain(), 11.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InvertingAmplifier {
    opamp: OpampModel,
    rf: Ohms,
    rin: Ohms,
    temperature: Kelvin,
}

impl InvertingAmplifier {
    /// Builds the amplifier (resistors at 290 K).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for non-positive
    /// resistances.
    pub fn new(opamp: OpampModel, rf: Ohms, rin: Ohms) -> Result<Self, AnalogError> {
        if !(rf.value() > 0.0) || !(rin.value() > 0.0) {
            return Err(AnalogError::InvalidParameter {
                name: "resistors",
                reason: "rf and rin must be positive",
            });
        }
        Ok(InvertingAmplifier {
            opamp,
            rf,
            rin,
            temperature: Kelvin::REFERENCE,
        })
    }

    /// Overrides the resistor temperature.
    pub fn with_temperature(mut self, t: Kelvin) -> Self {
        self.temperature = t;
        self
    }

    /// The op-amp model.
    pub fn opamp(&self) -> &OpampModel {
        &self.opamp
    }

    /// Signal gain `−Rf/Rin`.
    pub fn gain(&self) -> f64 {
        -self.rf.value() / self.rin.value()
    }

    /// Noise gain `1 + Rf/Rin` (the factor `en` sees).
    pub fn noise_gain(&self) -> f64 {
        1.0 + self.rf.value() / self.rin.value()
    }

    /// Output-referred noise density squared at frequency `f` (V²/Hz),
    /// excluding whatever noise rides on the input signal itself.
    pub fn output_noise_density_sq(&self, f: f64) -> f64 {
        let en2 = self.opamp.voltage_noise_density_sq(f);
        let in2 = self.opamp.current_noise_density_sq(f);
        let ng = self.noise_gain();
        let g = self.rf.value() / self.rin.value();
        en2 * ng * ng
            + in2 * self.rf.value() * self.rf.value()
            + self.rin.thermal_noise_density_sq(self.temperature) * g * g
            + self.rf.thermal_noise_density_sq(self.temperature)
    }

    /// Input-referred added noise density squared at `f`:
    /// the output value divided by the signal power gain. The input
    /// resistor's own thermal noise is *excluded* here (it plays the
    /// role of the source resistance in NF work).
    pub fn added_noise_density_sq(&self, f: f64) -> f64 {
        let g2 = self.gain() * self.gain();
        let rin_term = self.rin.thermal_noise_density_sq(self.temperature) * g2;
        (self.output_noise_density_sq(f) - rin_term) / g2
    }

    /// Expected noise factor over `[f_lo, f_hi]` with `Rin` acting as
    /// the source resistance: `F = 1 + added/(4kT0·Rin)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidParameter`] for an invalid band.
    pub fn expected_noise_factor(&self, f_lo: f64, f_hi: f64) -> Result<f64, AnalogError> {
        if !(f_lo > 0.0 && f_hi > f_lo) {
            return Err(AnalogError::InvalidParameter {
                name: "band",
                reason: "requires 0 < f_lo < f_hi",
            });
        }
        // Band-average the frequency-dependent terms analytically via
        // the op-amp model's mean densities.
        let en2 = self.opamp.mean_voltage_noise_density_sq(f_lo, f_hi)?;
        let in2 = self.opamp.mean_current_noise_density_sq(f_lo, f_hi)?;
        let ng = self.noise_gain();
        let g = self.rf.value() / self.rin.value();
        let g2 = g * g;
        let added_out = en2 * ng * ng
            + in2 * self.rf.value() * self.rf.value()
            + self.rf.thermal_noise_density_sq(self.temperature);
        let added_in = added_out / g2;
        let source = self.rin.thermal_noise_density_sq(Kelvin::REFERENCE);
        Ok(1.0 + added_in / source)
    }

    /// Expected noise figure in dB.
    ///
    /// # Errors
    ///
    /// Same as [`InvertingAmplifier::expected_noise_factor`].
    pub fn expected_noise_figure_db(&self, f_lo: f64, f_hi: f64) -> Result<f64, AnalogError> {
        Ok(10.0 * self.expected_noise_factor(f_lo, f_hi)?.log10())
    }

    /// Amplifies `input` (the voltage ahead of `Rin`), adding the
    /// amplifier's input-referred noise and applying the (negative)
    /// gain.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors; [`AnalogError::EmptyInput`] for an
    /// empty record.
    pub fn amplify(
        &self,
        input: &[f64],
        sample_rate: f64,
        seed: u64,
    ) -> Result<Vec<f64>, AnalogError> {
        if input.is_empty() {
            return Err(AnalogError::EmptyInput { context: "amplify" });
        }
        let mut noise = self.noise_stream(sample_rate, seed)?;
        let mut out = noise.generate(input.len())?;
        let g = self.gain();
        for (v, &x) in out.iter_mut().zip(input) {
            *v = g * (x + *v);
        }
        Ok(out)
    }

    /// The input-referred noise generator a single
    /// [`InvertingAmplifier::amplify`] call draws from — exposed to the
    /// streaming DUT path so chunked processing synthesizes the
    /// *identical* noise sequence (DC zeroed, as in `amplify`).
    pub(crate) fn noise_stream(
        &self,
        sample_rate: f64,
        seed: u64,
    ) -> Result<ShapedNoise, AnalogError> {
        ShapedNoise::new(
            |f| {
                if f == 0.0 {
                    0.0
                } else {
                    self.added_noise_density_sq(f)
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

    fn amp() -> InvertingAmplifier {
        InvertingAmplifier::new(OpampModel::op27(), Ohms::new(10_000.0), Ohms::new(1_000.0))
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(
            InvertingAmplifier::new(OpampModel::op27(), Ohms::new(0.0), Ohms::new(1.0)).is_err()
        );
        assert!(
            InvertingAmplifier::new(OpampModel::op27(), Ohms::new(1.0), Ohms::new(-1.0)).is_err()
        );
        assert!(amp().expected_noise_factor(0.0, 100.0).is_err());
        assert!(amp().expected_noise_factor(100.0, 50.0).is_err());
        assert!(amp().amplify(&[], 1e4, 0).is_err());
    }

    #[test]
    fn gains() {
        let a = amp();
        assert_eq!(a.gain(), -10.0);
        assert_eq!(a.noise_gain(), 11.0);
        assert_eq!(a.opamp().name(), "OP27");
    }

    #[test]
    fn en_penalty_is_noise_gain_over_signal_gain() {
        // The inverting topology's textbook drawback: `en` is amplified
        // by the noise gain `1 + Rf/Rin` but the signal only by
        // `Rf/Rin`, so the input-referred voltage-noise contribution
        // carries a `(1 + Rin/Rf)` penalty relative to the
        // non-inverting stage. Verify with an op-amp whose `en`
        // dominates (resistor and current noise negligible).
        let quiet_resistors = InvertingAmplifier::new(
            OpampModel::new(
                "en-only",
                100e-9,
                crate::units::Hertz::new(0.0),
                0.0,
                crate::units::Hertz::new(0.0),
            )
            .unwrap(),
            Ohms::new(2_000.0),
            Ohms::new(1_000.0), // |G| = 2, NG = 3
        )
        .unwrap();
        let added = quiet_resistors.added_noise_density_sq(10_000.0);
        let en2 = 100e-9f64 * 100e-9;
        // Input-referred en contribution: en²·(NG/G)² = en²·(3/2)².
        let expected = en2 * (3.0f64 / 2.0).powi(2);
        assert!(
            (added - expected).abs() / expected < 0.01,
            "added {added} vs {expected}"
        );
    }

    #[test]
    fn output_density_dominated_by_en_times_noise_gain_for_low_noise_resistors() {
        let a = InvertingAmplifier::new(OpampModel::ca3140(), Ohms::new(1_000.0), Ohms::new(100.0))
            .unwrap();
        let d = a.output_noise_density_sq(10_000.0);
        let en2 = a.opamp().voltage_noise_density_sq(10_000.0);
        let expected = en2 * a.noise_gain() * a.noise_gain();
        assert!((d - expected).abs() / expected < 0.05, "{d} vs {expected}");
    }

    #[test]
    fn amplify_applies_negative_gain() {
        let fs = 20_000.0;
        let a = amp();
        let tone: Vec<f64> = (0..50_000)
            .map(|i| 0.01 * (std::f64::consts::TAU * 1_000.0 * i as f64 / fs).sin())
            .collect();
        let out = a.amplify(&tone, fs, 1).unwrap();
        // Power gain 100, sign inverted: cross-correlate at lag 0.
        let dot: f64 = tone.iter().zip(&out).map(|(x, y)| x * y).sum();
        assert!(dot < 0.0, "sign not inverted");
        let p_out = nfbist_dsp::stats::mean_square(&out).unwrap();
        let p_expected = 100.0 * 0.01f64.powi(2) / 2.0;
        assert!((p_out - p_expected).abs() / p_expected < 0.05);
    }

    #[test]
    fn expected_nf_band_average_reasonable() {
        let nf = amp().expected_noise_figure_db(100.0, 1_000.0).unwrap();
        assert!(nf > 0.0 && nf < 10.0, "NF {nf}");
    }
}

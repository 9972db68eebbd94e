//! `paper_die`: one job measures one die with `MeasurementSession::run`
//! on the batch path at `BistSetup::paper_prototype` — 10⁶ samples, a
//! 10⁴-point Welch, the 1-bit comparator and `OneBitPowerRatio` — on the
//! Av = 101 non-inverting amplifier, cycling through the four Table-3
//! op-amps. Single thread.

use crate::bench::{same_bits, BoxError, Layers, LedgerRow, Tally, Workload};
use crate::probe::{probe_session, stage_table, ProbeSize};
use crate::stats::median;
use crate::trace::{Recorder, Trace};
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::noise::NoiseSourceState;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_core::estimator::NfMeasurement;
use nfbist_soc::session::{derive_seed, Measurement, MeasurementSession, RepeatMeasurement};
use nfbist_soc::setup::BistSetup;

/// The paper's largest measured-vs-expected NF error (Table 3). A
/// single CA3140 die misses it about 1 % of the time (its 1-bit NF spreads
/// with σ ≈ 0.8 dB), so it bounds each op-amp's mean error over a run;
/// single dies are held to [`GROSS_ERROR_DB`].
const MAX_ERROR_DB: f64 = 2.0;
/// A single die's error bound: over 6σ for the CA3140, so it fails only
/// on a broken estimate (a lost reference line, a biased path).
const GROSS_ERROR_DB: f64 = 5.0;
/// The four Table-3 op-amps, cycled by job index.
const OPAMPS: usize = 4;

pub struct PaperDie {
    seed: u64,
    /// The last untraced job's index and measurement, which the traced
    /// replay of the same job must reproduce bit for bit.
    last: Option<(u64, Measurement)>,
    /// NF errors (measured − expected, dB) of the untraced jobs, per
    /// op-amp.
    errors: [Vec<f64>; OPAMPS],
}

fn die(seed: u64, job: u64) -> Result<MeasurementSession, BoxError> {
    let model = OpampModel::paper_set()[job as usize % OPAMPS].clone();
    let amp = NonInvertingAmplifier::new(model, Ohms::new(10_000.0), Ohms::new(100.0))?;
    Ok(MeasurementSession::new(BistSetup::paper_prototype(derive_seed(seed, job)))?.dut(amp))
}

/// Tally of one measured die: a verdict, its samples, and the gross
/// accuracy check against the analytic expectation.
fn verdict(job: u64, session: &MeasurementSession, m: &Measurement) -> Tally {
    let error = m.nf.figure.db() - m.expected_nf_db;
    let mut t = Tally::check(error.abs() <= GROSS_ERROR_DB, || {
        format!(
            "die {job} ({}): NF {:.3} dB is {error:+.3} dB from its expectation",
            m.dut,
            m.nf.figure.db()
        )
    });
    t.verdicts = 1;
    t.samples = 2 * session.setup().samples as u64;
    t
}

impl Workload for PaperDie {
    const WORKERS: usize = 1;

    fn setup(seed: u64) -> Result<Self, BoxError> {
        Ok(PaperDie {
            seed,
            last: None,
            errors: Default::default(),
        })
    }

    fn job(&mut self, job: u64) -> Tally {
        let measured = die(self.seed, job).and_then(|s| {
            let m = s.run()?;
            Ok((s, m))
        });
        match measured {
            Ok((session, m)) => {
                let t = verdict(job, &session, &m);
                self.errors[job as usize % OPAMPS].push(m.nf.figure.db() - m.expected_nf_db);
                self.last = Some((job, m));
                t
            }
            Err(e) => Tally::error(format!("die {job}: {e}")),
        }
    }

    fn traced_job(&mut self, job: u64, rec: &Recorder) -> Tally {
        let session = match die(self.seed, job) {
            Ok(s) => s,
            Err(e) => return Tally::error(format!("die {job}: {e}")),
        };
        let setup = session.setup();
        // `MeasurementSession::run` through its public pieces.
        let replay = rec.span("soc.session", None, job, |root| {
            let acquire = |state| {
                rec.span("soc.acquire", Some(root), job, |_| {
                    session.acquire(state, 0)
                })
            };
            let hot = acquire(NoiseSourceState::Hot)?;
            let cold = acquire(NoiseSourceState::Cold)?;
            let expand = |r: &nfbist_analog::converter::Record| {
                rec.span_work("analog.expand", Some(root), job, r.len() as u64, |_| {
                    r.to_samples()
                })
            };
            let (hot, cold) = (expand(&hot), expand(&cold));
            let work = (hot.len() + cold.len()) as u64;
            let ratio = rec.span_work("core.estimate", Some(root), job, work, |_| {
                session.estimator_ref().estimate(&hot, &cold)
            })?;
            let nf = NfMeasurement::from_y(ratio.ratio, setup.hot_kelvin, setup.cold_kelvin).ok();
            Ok::<_, BoxError>(session.combine(vec![RepeatMeasurement { nf, ratio }])?)
        });
        let m = match replay {
            Ok(m) => m,
            Err(e) => return Tally::error(format!("die {job} replay: {e}")),
        };
        let mut t = verdict(job, &session, &m);
        if let Some((last, run)) = &self.last {
            if *last == job {
                t += Tally::check(same_bits(&m, run), || {
                    format!("die {job}: the traced replay differs from MeasurementSession::run")
                });
            }
        }
        t
    }

    fn probe(&mut self, job: u64, rec: &Recorder) -> Result<(), BoxError> {
        let session = die(self.seed, job)?;
        let n = session.setup().samples;
        let size = ProbeSize {
            len: n,
            chunk: n,
            doubling: false,
            estimate: false,
        };
        probe_session(&session, size, rec, job).map(|_| ())
    }

    fn final_checks(&mut self) -> Tally {
        let mut t = Tally::default();
        for (model, errors) in OpampModel::paper_set().iter().zip(&self.errors) {
            if errors.is_empty() {
                continue;
            }
            let mean = errors.iter().sum::<f64>() / errors.len() as f64;
            t += Tally::check(mean.abs() <= MAX_ERROR_DB, || {
                format!(
                    "{}: mean NF error {mean:+.3} dB over {} dies",
                    model.name(),
                    errors.len()
                )
            });
        }
        // The batch record and the memory-budgeted streaming pipeline
        // must give the same bits.
        let pair = die(self.seed, 0).and_then(|batch| {
            let streaming = die(self.seed, 0)?.memory_budget(1 << 20);
            if !streaming.streaming_active() {
                return Err("a 1 MiB budget must select the streaming path".into());
            }
            Ok((batch.run()?, streaming.run()?))
        });
        t += match pair {
            Ok((batch, streaming)) => Tally::check(same_bits(&batch, &streaming), || {
                "die 0: batch and streaming measurements differ".to_string()
            }),
            Err(e) => Tally::error(format!("die 0 batch/streaming check: {e}")),
        };
        t
    }

    fn record(&self) -> Vec<(String, String)> {
        let dies: usize = self.errors.iter().map(Vec::len).sum();
        let beyond = self
            .errors
            .iter()
            .flatten()
            .filter(|e| e.abs() > MAX_ERROR_DB)
            .count();
        vec![
            ("dies_measured".to_string(), dies.to_string()),
            ("dies_beyond_2db".to_string(), beyond.to_string()),
        ]
    }

    fn layers(&self, trace: &Trace) -> Layers {
        let table = stage_table(trace);
        let ms = |id| trace.span(id).duration_ns() as f64 / 1e6;
        let mut rows: Vec<[f64; 7]> = Vec::new();
        let mut coverage = Vec::new();
        let (mut stage_ms, mut samples) = ([0.0; 5], 0u64);
        for root in trace.roots("soc.session") {
            let sum = |name: &str| -> f64 {
                trace.descendants(root, name).iter().map(|&id| ms(id)).sum()
            };
            let expanded: u64 = trace
                .descendants(root, "analog.expand")
                .iter()
                .map(|&id| trace.span(id).work)
                .sum();
            // The probe of the same die size times the stages inside
            // `acquire` and the Welch inside `estimate`.
            let Some(&[source, dut, digitize, _, welch]) = table.get(&(expanded / 2)) else {
                continue;
            };
            let expand = sum("analog.expand");
            let estimate_self = sum("core.estimate") - welch;
            let session_self = ms(root) - source - dut - digitize - expand - welch - estimate_self;
            rows.push([
                source,
                dut,
                digitize,
                expand,
                welch,
                estimate_self,
                session_self,
            ]);
            for (total, t) in stage_ms
                .iter_mut()
                .zip([source, dut, digitize, expand, welch])
            {
                *total += t;
            }
            samples += expanded;
            coverage.push(trace.covered_ns(root) as f64 / trace.span(root).duration_ns() as f64);
        }
        let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        let totals: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
        let ledger = [
            ("analog.source", "probe"),
            ("analog.dut", "probe"),
            ("analog.digitize", "probe"),
            ("analog.expand", "span"),
            ("dsp.welch", "probe"),
            ("core.estimate.self", "rest"),
            ("soc.session.self", "rest"),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(stage, basis))| LedgerRow {
            stage,
            ms: col(i),
            basis,
        })
        .collect();
        Layers {
            stage_ns_per_sample: stage_ms.map(|t| t * 1e6 / samples.max(1) as f64),
            ledger,
            ledger_total_ms: median(&totals),
            session_self_ms: col(6),
            stage_coverage: median(&coverage),
            samples_per_die: samples as f64 / rows.len().max(1) as f64,
            // One thread runs every stage back to back: no queue, no
            // gate, no idle worker.
            parallel_efficiency: 1.0,
            ..Layers::default()
        }
    }
}

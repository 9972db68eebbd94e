//! Stage probes: the analog and DSP stages called directly through
//! their public functions, at a workload's own record and chunk sizes.
//! Each call runs in a span that counts the samples it processed, so
//! the trace yields each stage's nanoseconds per sample even where the
//! workload's jobs reach the stage only through an opaque call.

use crate::bench::BoxError;
use crate::stats::median;
use crate::trace::{Recorder, Trace};
use nfbist_analog::noise::{CalibratedNoiseSource, NoiseSourceState};
use nfbist_analog::units::Kelvin;
use nfbist_dsp::psd::{DspWorkspace, SlidingWelch, WelchConfig};
use nfbist_soc::session::MeasurementSession;
use std::collections::BTreeMap;

/// Record length and call sizes of one probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSize {
    /// Samples per state.
    pub len: usize,
    /// Samples in the first call; `len` selects the whole-record
    /// (batch) calls.
    pub chunk: usize,
    /// Grow each later call to the samples fed so far, as a sequential
    /// screen's doubling checkpoints do; otherwise every call is
    /// `chunk` samples.
    pub doubling: bool,
    /// Also time the session's estimator on the probe records.
    pub estimate: bool,
}

/// Acquires one hot/cold record pair through the session's source, DUT
/// and digitizer, expands it, and runs the Welch at the session's nfft
/// on both records. The probe's root span counts `len` as its work, and
/// the stream set-up calls are timed with their stage. Returns the
/// expanded records.
pub fn probe_session(
    session: &MeasurementSession,
    size: ProbeSize,
    rec: &Recorder,
    job: u64,
) -> Result<[Vec<f64>; 2], BoxError> {
    rec.span_work("probe", None, job, size.len as u64, |root| {
        let setup = session.setup();
        let (fs, rs) = (setup.sample_rate, setup.source_resistance);
        let (gain, reference) = session.conditioning()?;
        if reference.len() < size.len {
            return Err("probe record longer than the session's reference".into());
        }
        let mut records = [Vec::new(), Vec::new()];
        for (record, (salt, state)) in records
            .iter_mut()
            .zip([(1u64, NoiseSourceState::Hot), (2, NoiseSourceState::Cold)])
        {
            let seed = setup.seed.wrapping_add(salt);
            let mut source = CalibratedNoiseSource::new(
                Kelvin::new(setup.hot_kelvin),
                Kelvin::new(setup.cold_kelvin),
                rs,
                seed,
            )?;
            let mut white = rec.span("analog.source", Some(root), job, |_| {
                source.stream(state, fs)
            })?;
            // Whole-record probes call the batch `Dut::process`, chunked
            // ones feed a `DutStream`, as the sessions do.
            let mut stream = if size.chunk >= size.len {
                None
            } else {
                Some(rec.span("analog.dut", Some(root), job, |_| {
                    session.dut_ref().process_stream(rs, fs, seed)
                })?)
            };
            let mut dut_out = Vec::with_capacity(size.chunk);
            let mut fed = 0;
            while fed < size.len {
                let step = if size.doubling && fed > 0 {
                    fed
                } else {
                    size.chunk
                };
                let n = step.min(size.len - fed);
                let work = n as u64;
                let noise = rec.span_work("analog.source", Some(root), job, work, |_| {
                    white.generate(n)
                });
                dut_out.clear();
                rec.span_work("analog.dut", Some(root), job, work, |_| match &mut stream {
                    Some(dut) => dut.push(&noise, &mut dut_out),
                    None => {
                        dut_out = session.dut_ref().process(&noise, rs, fs, seed)?;
                        Ok(())
                    }
                })?;
                fed += n;
                if dut_out.is_empty() {
                    continue;
                }
                let m = dut_out.len();
                let at = record.len();
                let conditioned: Vec<f64> = dut_out.iter().map(|v| v * gain).collect();
                let captured =
                    rec.span_work("analog.digitize", Some(root), job, m as u64, |_| {
                        session
                            .digitizer_ref()
                            .acquire(&conditioned, &reference[at..at + m])
                    })?;
                record.extend(
                    rec.span_work("analog.expand", Some(root), job, m as u64, |_| {
                        captured.to_samples()
                    }),
                );
            }
        }

        let welch = || -> Result<(), BoxError> {
            let config = WelchConfig::new(setup.nfft)?;
            let mut workspace = DspWorkspace::new();
            let mut psd = vec![0.0; setup.nfft / 2 + 1];
            for record in &records {
                rec.span_work("dsp.welch", Some(root), job, record.len() as u64, |_| {
                    config.estimate_into(record, fs, &mut workspace, &mut psd)
                })?;
            }
            Ok(())
        };
        let estimate = || {
            let work = (records[0].len() + records[1].len()) as u64;
            // Only the time counts: a probe of a gross-reject die may
            // legitimately find no reference line, as its screen does.
            let _ = rec.span_work("core.estimate", Some(root), job, work, |_| {
                session.estimator_ref().estimate(&records[0], &records[1])
            });
        };
        // The estimator runs its own Welch on the same records; the
        // order alternates so neither side always finds warm caches.
        match (size.estimate, job % 2) {
            (false, _) => welch()?,
            (true, 0) => {
                welch()?;
                estimate();
            }
            (true, _) => {
                estimate();
                welch()?;
            }
        }
        Ok(records)
    })
}

/// Times `calls` sliding-window finalizations of an `segments`-segment
/// Welch window at `nfft`, filled from `record`.
pub fn probe_sliding_finalize(
    nfft: usize,
    sample_rate: f64,
    segments: usize,
    record: &[f64],
    calls: usize,
    rec: &Recorder,
    job: u64,
) -> Result<(), BoxError> {
    rec.span("probe", None, job, |root| {
        let mut sliding = SlidingWelch::new(WelchConfig::new(nfft)?, sample_rate, segments)?;
        sliding.push(record)?;
        let mut psd = vec![0.0; nfft / 2 + 1];
        for _ in 0..calls {
            rec.span_work("dsp.sliding.finalize", Some(root), job, 1, |_| {
                sliding.finalize_into(&mut psd)
            })?;
        }
        Ok(())
    })
}

/// The stages a probe times, in pipeline order.
pub const STAGES: [&str; 5] = [
    "analog.source",
    "analog.dut",
    "analog.digitize",
    "analog.expand",
    "dsp.welch",
];

/// Median milliseconds each stage took for one hot/cold record pair,
/// keyed by the probed samples per state.
pub fn stage_table(trace: &Trace) -> BTreeMap<u64, [f64; 5]> {
    let mut runs: BTreeMap<u64, Vec<[f64; 5]>> = BTreeMap::new();
    for root in trace.roots("probe") {
        let mut ms = [0.0; 5];
        for (stage, total) in STAGES.iter().zip(ms.iter_mut()) {
            *total = trace
                .descendants(root, stage)
                .iter()
                .map(|&id| trace.span(id).duration_ns() as f64 / 1e6)
                .sum();
        }
        if ms.iter().any(|&t| t > 0.0) {
            runs.entry(trace.span(root).work).or_default().push(ms);
        }
    }
    runs.into_iter()
        .map(|(len, rows)| {
            let mut med = [0.0; 5];
            for (i, m) in med.iter_mut().enumerate() {
                *m = median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
            }
            (len, med)
        })
        .collect()
}

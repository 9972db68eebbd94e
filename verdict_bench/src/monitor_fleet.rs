//! `monitor_fleet`: one job runs 12 in-field monitoring missions with
//! `MonitorPlan::workers(2).run_fleet`: an OP27 amplifier, a 12-bit
//! `AdcDigitizer` and `PsdRatioEstimator`, an 8-segment sliding Welch
//! window at nfft 1024, one NF emission per 1024 samples through CUSUM,
//! and every other monitor drifting, over 160 × 1024-sample missions.

use crate::bench::{fanout_layers, same_bits, BoxError, Layers, Tally, Workload};
use crate::probe::{probe_session, probe_sliding_finalize, ProbeSize};
use crate::trace::{Recorder, Trace};
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::converter::AdcDigitizer;
use nfbist_analog::fault::{AnalogFault, DriftSchedule, DriftingDut};
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_core::power_ratio::PsdRatioEstimator;
use nfbist_core::streaming::EstimatorWindow;
use nfbist_runtime::monitor::{MonitorFleetReport, MonitorPlan};
use nfbist_runtime::queue::{MemoryGate, WorkQueue};
use nfbist_soc::monitor::{AlarmKind, MonitorReport, MonitorSession};
use nfbist_soc::session::derive_seed;
use nfbist_soc::setup::BistSetup;
use nfbist_soc::SocError;

const MONITORS: usize = 12;
/// Samples per NF emission, and the Welch segment length.
const STRIDE: usize = 1_024;
const NFFT: usize = 1_024;
const MISSION: usize = 160 * STRIDE;
const WINDOW_SEGMENTS: usize = 8;
/// Per-mission admission cost charged at the gate.
const COST: usize = 64 * MISSION;

/// Mission geometry shared by the fleet.
#[derive(Clone, Copy)]
struct Mission {
    seed: u64,
    onset: usize,
    limit_db: f64,
}

fn op27() -> Result<NonInvertingAmplifier, SocError> {
    Ok(NonInvertingAmplifier::new(
        OpampModel::op27(),
        Ohms::new(10_000.0),
        Ohms::new(100.0),
    )?)
}

impl Mission {
    /// Monitor `index`: even slots healthy; odd slots alternate between
    /// a linear 8× excess-noise ramp and an exponential aging curve
    /// (4× excess noise with 1.6× input attenuation).
    fn build(&self, index: usize) -> Result<MonitorSession, SocError> {
        let mut setup = BistSetup::quick(derive_seed(self.seed, index as u64));
        setup.samples = MISSION;
        setup.nfft = NFFT;
        let estimator = PsdRatioEstimator::new(setup.sample_rate, setup.nfft, setup.noise_band)?;
        let monitor = MonitorSession::new(setup)?
            .digitizer(AdcDigitizer::new(12)?)
            .estimator(estimator)
            .window(EstimatorWindow::Sliding {
                segments: WINDOW_SEGMENTS,
            })
            .warmup(8)
            .cusum(0.5, 6.0)
            .nf_limit_db(self.limit_db);
        if index.is_multiple_of(2) {
            return Ok(monitor.dut(op27()?));
        }
        let drifting = if (index / 2).is_multiple_of(2) {
            DriftingDut::new(
                op27()?,
                DriftSchedule::Linear {
                    onset: self.onset,
                    ramp: 5 * MISSION / 8,
                },
            )?
            .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })?
        } else {
            DriftingDut::new(
                op27()?,
                DriftSchedule::Exponential {
                    onset: self.onset,
                    tau: 3 * MISSION / 8,
                },
            )?
            .with_faults([
                AnalogFault::ExcessNoise { factor: 4.0 },
                AnalogFault::InputAttenuation { factor: 1.6 },
            ])?
        };
        Ok(monitor.dut(drifting))
    }
}

pub struct MonitorFleet {
    mission: Mission,
    plan: MonitorPlan,
    /// The first job's fleet; every later job must reproduce its bits.
    reference: Option<MonitorFleetReport>,
    census: DetectorCensus,
}

fn emissions(reports: &[&MonitorReport]) -> u64 {
    reports.iter().map(|r| r.points().len() as u64).sum()
}

/// Detector quality over every fleet a run checked. The library
/// calibrates its CUSUM false-alarm budget (5 % per mission) at 32
/// emissions and h = 8; at this 160-emission, h = 6 operating point it
/// claims no rate, so these are recorded, not failed.
#[derive(Debug, Default, Clone, Copy)]
struct DetectorCensus {
    healthy: u64,
    healthy_false_alarms: u64,
    drifting: u64,
    /// Drifting missions whose drift alarm did not fall after the onset
    /// and before the limit crossing.
    drift_lead_misses: u64,
    /// Fleets whose healthy false alarms exceed a 3-sigma binomial
    /// envelope of the 5 % budget.
    fleets_over_budget: u64,
    fleets: u64,
}

impl MonitorFleet {
    /// Tally of one fleet: its emissions and samples; a quarantined
    /// mission is a failed operation.
    fn tally(&mut self, job: u64, reports: &[Option<&MonitorReport>]) -> Tally {
        let completed: Vec<&MonitorReport> = reports.iter().flatten().copied().collect();
        let census = &mut self.census;
        let (mut healthy, mut false_alarms) = (0u64, 0u64);
        for (i, report) in reports.iter().enumerate() {
            let Some(report) = report else {
                eprintln!("monitor job {job}: mission {i} quarantined");
                continue;
            };
            let drift = report.first_event(AlarmKind::DriftAlarm);
            if i.is_multiple_of(2) {
                healthy += 1;
                false_alarms += u64::from(drift.is_some());
                continue;
            }
            let limit = report.first_event(AlarmKind::LimitViolation);
            let onset = self.mission.onset;
            census.drifting += 1;
            census.drift_lead_misses += u64::from(!matches!((drift, limit), (Some(d), Some(l))
                if d.sample_index > onset && d.sample_index < l.sample_index));
        }
        let n = healthy as f64;
        let bound = (0.05 * n + 3.0 * (0.05 * n * 0.95).sqrt()).max(1.0);
        census.healthy += healthy;
        census.healthy_false_alarms += false_alarms;
        census.fleets += 1;
        census.fleets_over_budget += u64::from(false_alarms as f64 > bound);
        Tally {
            verdicts: emissions(&completed),
            samples: completed
                .iter()
                .map(|r| 2 * r.horizon_samples() as u64)
                .sum(),
            attempted: reports.len() as u64,
            failed: (reports.len() - completed.len()) as u64,
        }
    }
}

impl Workload for MonitorFleet {
    const WORKERS: usize = 2;

    fn setup(seed: u64) -> Result<Self, BoxError> {
        // The hard limit sits 85 % of the way from the healthy
        // expectation to the fully drifted one, so a working trend
        // detector alarms before the slow ramp crosses it.
        let setup = BistSetup::quick(0);
        let (f_lo, f_hi) = setup.noise_band;
        let rs = setup.source_resistance;
        let healthy = op27()?.expected_noise_figure_db(rs, f_lo, f_hi)?;
        let drifted = DriftingDut::new(op27()?, DriftSchedule::Step { at: 0 })?
            .with_fault(AnalogFault::ExcessNoise { factor: 8.0 })?
            .drifting_expected_noise_figure_db_at(0, rs, f_lo, f_hi)?;
        Ok(MonitorFleet {
            mission: Mission {
                seed,
                onset: MISSION / 4,
                limit_db: healthy + 0.85 * (drifted - healthy),
            },
            plan: MonitorPlan::workers(Self::WORKERS),
            reference: None,
            census: DetectorCensus::default(),
        })
    }

    fn job(&mut self, job: u64) -> Tally {
        let mission = self.mission;
        let fleet = self.plan.run_fleet(MONITORS, COST, |i| mission.build(i));
        let reports: Vec<Option<&MonitorReport>> =
            fleet.outcomes().iter().map(|o| o.report()).collect();
        let mut t = self.tally(job, &reports);
        match &self.reference {
            Some(reference) => {
                t += Tally::check(same_bits(&fleet, reference), || {
                    format!("monitor job {job}: fleet differs from the first job's")
                });
            }
            None => self.reference = Some(fleet.clone()),
        }
        t
    }

    fn traced_job(&mut self, job: u64, rec: &Recorder) -> Tally {
        let mission = self.mission;
        // `MonitorPlan::run_fleet` through its public pieces.
        let slots = rec.span("runtime.run_fleet", None, job, |root| {
            let gate = MemoryGate::unbounded();
            WorkQueue::new(Self::WORKERS).run_isolated(MONITORS, |i| {
                rec.span("runtime.task", Some(root), job, |task| {
                    let _admitted = rec.span("runtime.gate", Some(task), job, |_| gate.admit(COST));
                    let session = mission.build(i)?;
                    let work = 2 * session.horizon_samples() as u64;
                    let report =
                        rec.span_work("soc.monitor_run", Some(task), job, work, |_| session.run())?;
                    Ok::<_, BoxError>(report)
                })
            })
        });
        let mut results = Vec::with_capacity(MONITORS);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok(Ok(report)) => results.push(Some(report)),
                Ok(Err(e)) => {
                    eprintln!("traced monitor job {job}: mission {i}: {e}");
                    results.push(None);
                }
                Err(e) => {
                    eprintln!("traced monitor job {job}: mission {i}: {e}");
                    results.push(None);
                }
            }
        }
        let reports: Vec<Option<&MonitorReport>> = results.iter().map(Option::as_ref).collect();
        let mut t = self.tally(job, &reports);
        if let Some(reference) = &self.reference {
            let same = reports
                .iter()
                .zip(reference.outcomes())
                .all(|(traced, run)| same_bits(traced, &run.report()));
            t += Tally::check(same, || {
                format!("monitor job {job}: traced missions differ from MonitorPlan::run_fleet")
            });
        }
        t
    }

    fn probe(&mut self, job: u64, rec: &Recorder) -> Result<(), BoxError> {
        // Healthy and drifting missions in turn.
        let monitor = self.mission.build(job as usize % MONITORS)?;
        let size = ProbeSize {
            len: MISSION,
            chunk: STRIDE,
            doubling: false,
            estimate: true,
        };
        let [hot, _] = probe_session(monitor.session(), size, rec, job)?;
        let fs = monitor.session().setup().sample_rate;
        probe_sliding_finalize(NFFT, fs, WINDOW_SEGMENTS, &hot, 32, rec, job)
    }

    fn final_checks(&mut self) -> Tally {
        let Some(reference) = &self.reference else {
            return Tally::error("no fleet was run");
        };
        let mission = self.mission;
        let sequential = MonitorPlan::sequential().run_fleet(MONITORS, COST, |i| mission.build(i));
        Tally::check(same_bits(&sequential, reference), || {
            "the 2-worker fleet differs from MonitorPlan::sequential()".to_string()
        })
    }

    fn record(&self) -> Vec<(String, String)> {
        let c = self.census;
        [
            ("healthy_missions", c.healthy),
            ("healthy_false_alarms", c.healthy_false_alarms),
            ("drifting_missions", c.drifting),
            ("drift_lead_misses", c.drift_lead_misses),
            ("fleets", c.fleets),
            ("fleets_over_false_alarm_budget", c.fleets_over_budget),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    fn layers(&self, trace: &Trace) -> Layers {
        let emissions_per_fleet = self.reference.as_ref().map_or(0, |f| {
            emissions(
                &f.outcomes()
                    .iter()
                    .filter_map(|o| o.report())
                    .collect::<Vec<_>>(),
            )
        });
        // Probes stream whole missions, so a mission's stages cost what
        // a probe's did; each emission also finalizes the hot and the
        // cold window.
        let finalize_ms = 2.0 * trace.ns_per_work("dsp.sliding.finalize") / 1e6
            * emissions_per_fleet as f64
            / MONITORS as f64;
        let (layers, missions) = fanout_layers(
            trace,
            "runtime.run_fleet",
            "soc.monitor_run",
            "soc.monitor_run.self",
            Some(("dsp.sliding.finalize", finalize_ms)),
            Self::WORKERS,
        );
        Layers {
            monitor_run_ms: missions.iter().map(|&(ms, _)| ms).collect(),
            emissions: emissions_per_fleet as f64,
            ..layers
        }
    }
}

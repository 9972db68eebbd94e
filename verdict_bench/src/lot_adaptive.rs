//! `lot_adaptive`: one job screens a 112-die wafer lot with
//! `FleetPlan::workers(2).memory_budget(2 × die_cost_bytes()).screen_lot`
//! under the sequential early-stopping screen — the production line.
//!
//! How many dies stop early depends on the lot, so a job's cost does
//! too. A run cycles through [`LOTS`] lots drawn from the seed, which
//! keeps its medians from hanging on one lot's defect map.

use crate::bench::{fanout_layers, same_bits, BoxError, Layers, Tally, Workload};
use crate::probe::{probe_session, ProbeSize};
use crate::trace::{Recorder, Trace};
use nfbist_analog::circuits::NonInvertingAmplifier;
use nfbist_analog::fault::AnalogFault;
use nfbist_analog::opamp::OpampModel;
use nfbist_analog::units::Ohms;
use nfbist_analog::wafer::{DefectModel, Lot, ProcessVariation, WaferMap};
use nfbist_runtime::fleet::FleetPlan;
use nfbist_runtime::queue::{MemoryGate, WorkQueue};
use nfbist_soc::coverage::FaultUniverse;
use nfbist_soc::fleet::{LotReport, LotScreen};
use nfbist_soc::screening::{Screen, ScreeningRecipe, SequentialScreen};
use nfbist_soc::session::{derive_seed, MeasurementSession};
use nfbist_soc::setup::BistSetup;

/// Wafer grid: a `disc(12)` map holds 112 dies.
const GRID: usize = 12;
/// Sample cap per acquisition and first sequential checkpoint.
const CAP: usize = 1 << 15;
const FIRST_CHECKPOINT: usize = 1 << 12;
const NFFT: usize = 1_024;
/// Lots per run; job `j` screens lot `j % LOTS`.
const LOTS: usize = 8;

pub struct LotAdaptive {
    lots: Vec<LotScreen>,
    plan: FleetPlan,
    /// Each lot's first report; every later job on the lot must
    /// reproduce its bits.
    references: Vec<Option<LotReport>>,
}

fn tl081() -> Result<NonInvertingAmplifier, BoxError> {
    Ok(NonInvertingAmplifier::new(
        OpampModel::tl081(),
        Ohms::new(10_000.0),
        Ohms::new(100.0),
    )?)
}

impl LotAdaptive {
    /// Die `i` of lot `lot` as a measurement session, built the way
    /// `LotScreen` builds it: the TL081 with the die's process-variation
    /// and defect faults.
    fn die_session(&self, lot: usize, i: usize, job: u64) -> Result<MeasurementSession, BoxError> {
        let screening = &self.lots[lot];
        let die = screening.lot().die(i)?;
        let mut recipe = ScreeningRecipe::new();
        if die.noise_scale > 1.0 {
            recipe = recipe.analog_fault(AnalogFault::ExcessNoise {
                factor: die.noise_scale,
            })?;
        }
        if die.gain_scale != 1.0 {
            recipe = recipe.analog_fault(AnalogFault::GainDeviation {
                factor: die.gain_scale,
            })?;
        }
        if let Some(kind) = die.defect {
            let universe = screening.universe();
            let variant = universe
                .get(1 + kind % (universe.len() - 1))
                .ok_or("defect kind beyond the fault universe")?;
            recipe = recipe
                .analog_faults(variant.analog_faults().iter().copied())?
                .bit_faults(variant.bit_faults().iter().copied())?;
        }
        let mut setup = screening.setup().clone();
        setup.seed = derive_seed(setup.seed, job);
        Ok(recipe.session(setup)?)
    }

    /// Tally of one screened lot: a verdict per surviving die, the
    /// samples taken before each stop, and the per-job checks.
    fn tally(&mut self, job: u64, lot: usize, report: &LotReport) -> Tally {
        let mut t = Tally {
            verdicts: (report.dies() - report.faulted()) as u64,
            samples: report.test_samples(),
            attempted: report.dies() as u64,
            failed: report.faulted() as u64,
        };
        for fault in report.faults() {
            eprintln!("lot job {job}: die {} faulted: {:?}", fault.die, fault.kind);
        }
        t += Tally::check(
            report.mean_test_samples() < self.lots[lot].fixed_die_samples() as f64,
            || format!("lot job {job}: early stopping saved no samples"),
        );
        match &self.references[lot] {
            Some(reference) => {
                t += Tally::check(same_bits(report, reference), || {
                    format!("lot job {job}: report differs from lot {lot}'s first")
                });
            }
            None => self.references[lot] = Some(report.clone()),
        }
        t
    }
}

impl Workload for LotAdaptive {
    const WORKERS: usize = 2;

    fn setup(seed: u64) -> Result<Self, BoxError> {
        let mut setup = BistSetup::quick(0);
        setup.samples = CAP;
        setup.nfft = NFFT;
        let expected = tl081()?.expected_noise_figure_db(
            setup.source_resistance,
            setup.noise_band.0,
            setup.noise_band.1,
        )?;
        let screen = Screen::new(expected + 2.5, 2.0)?;
        let lots = (0..LOTS as u64)
            .map(|k| {
                let lot = Lot::new(
                    WaferMap::disc(GRID)?,
                    ProcessVariation::default(),
                    DefectModel::new().background(0.08)?.edge_gradient(0.20)?,
                    derive_seed(seed, k),
                )?;
                let screening = LotScreen::new(
                    lot,
                    setup.clone(),
                    screen,
                    FaultUniverse::new().excess_noise(&[2.0, 8.0])?,
                )?
                .adaptive(SequentialScreen::new(screen, 0.05, 0.05)?.min_samples(FIRST_CHECKPOINT));
                Ok(screening)
            })
            .collect::<Result<Vec<_>, BoxError>>()?;
        let plan = FleetPlan::workers(Self::WORKERS).memory_budget(2 * lots[0].die_cost_bytes());
        Ok(LotAdaptive {
            lots,
            plan,
            references: vec![None; LOTS],
        })
    }

    fn job(&mut self, job: u64) -> Tally {
        let lot = job as usize % LOTS;
        match self.plan.screen_lot(&self.lots[lot]) {
            Ok(report) => self.tally(job, lot, &report),
            Err(e) => Tally::error(format!("lot job {job}: {e}")),
        }
    }

    fn traced_job(&mut self, job: u64, rec: &Recorder) -> Tally {
        let lot = job as usize % LOTS;
        let screening = &self.lots[lot];
        let cost = screening.die_cost_bytes();
        let budget = self.plan.memory_budget_bytes().unwrap_or(usize::MAX);
        // `FleetPlan::screen_lot` through its public pieces.
        let report = rec.span("runtime.screen_lot", None, job, |root| {
            let gate = MemoryGate::new(budget);
            let slots = WorkQueue::new(Self::WORKERS).run_isolated(screening.dies(), |i| {
                rec.span("runtime.task", Some(root), job, |task| {
                    let _admitted = rec.span("runtime.gate", Some(task), job, |_| gate.admit(cost));
                    rec.span("soc.screen_die", Some(task), job, |id| {
                        let outcome = screening.screen_die(i);
                        if let Ok(o) = &outcome {
                            rec.set_work(id, o.test_samples);
                        }
                        outcome
                    })
                })
            });
            let outcomes = slots
                .into_iter()
                .map(|slot| Ok::<_, BoxError>(slot??))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, BoxError>(screening.assemble(outcomes)?)
        });
        match report {
            Ok(report) => self.tally(job, lot, &report),
            Err(e) => Tally::error(format!("traced lot job {job}: {e}")),
        }
    }

    fn probe(&mut self, job: u64, rec: &Recorder) -> Result<(), BoxError> {
        // Four dies of the lot this job screened, each acquired up to the
        // checkpoint where its screen stopped.
        let lot = job as usize % LOTS;
        let report = self.references[lot]
            .as_ref()
            .ok_or("a lot was probed before it was screened")?;
        for k in 0..4 {
            let die = (4 * job as usize + k) % report.dies();
            let Some(outcome) = report.records()[die].outcome() else {
                continue;
            };
            let len = usize::try_from(outcome.test_samples / 2)?;
            let size = ProbeSize {
                len,
                chunk: FIRST_CHECKPOINT,
                doubling: true,
                estimate: len == CAP,
            };
            probe_session(&self.die_session(lot, die, job)?, size, rec, job)?;
        }
        Ok(())
    }

    fn final_checks(&mut self) -> Tally {
        let Some(reference) = &self.references[0] else {
            return Tally::error("no lot was screened");
        };
        match self.lots[0].run() {
            Ok(sequential) => Tally::check(same_bits(reference, &sequential), || {
                "the 2-worker fleet report differs from LotScreen::run".to_string()
            }),
            Err(e) => Tally::error(format!("LotScreen::run: {e}")),
        }
    }

    fn layers(&self, trace: &Trace) -> Layers {
        // Each die stopped at a checkpoint; the probe of that record
        // length times its stages.
        let (layers, dies) = fanout_layers(
            trace,
            "runtime.screen_lot",
            "soc.screen_die",
            "soc.screen_die.self",
            None,
            Self::WORKERS,
        );
        let fixed = self.lots[0].fixed_die_samples();
        let n = dies.len().max(1) as f64;
        Layers {
            screen_die_ms: dies.iter().map(|&(ms, _)| ms).collect(),
            samples_per_die: dies.iter().map(|&(_, work)| work as f64).sum::<f64>() / n,
            early_stop_ratio: dies.iter().filter(|&&(_, work)| work < fixed).count() as f64 / n,
            ..layers
        }
    }
}

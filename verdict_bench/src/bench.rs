//! The run loop shared by every workload: set-up, a closed loop of jobs
//! for a fixed time, output checks, and the metrics of both run modes.

use crate::host;
use crate::probe;
use crate::stats::{median, tail, Metric, Tail};
use crate::trace::{Recorder, Trace};
use std::time::{Duration, Instant};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Times an untraced run sets the workload up; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 5;

/// Bitwise equality of two outputs: `{:?}` prints every `f64` with the
/// digits that round-trip it, so equal renderings mean equal bits.
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Counts one job or check contributes to the result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// NF verdicts produced: dies measured, dies screened, emissions.
    pub verdicts: u64,
    /// Samples acquired, hot + cold, up to each stop.
    pub samples: u64,
    /// Operations attempted: dies, missions and output checks.
    pub attempted: u64,
    /// `Err` returns, faulted dies, quarantined monitors, failed checks.
    pub failed: u64,
}

impl Tally {
    /// One output check.
    pub fn check(ok: bool, what: impl FnOnce() -> String) -> Tally {
        if !ok {
            eprintln!("check failed: {}", what());
        }
        Tally {
            attempted: 1,
            failed: u64::from(!ok),
            ..Tally::default()
        }
    }

    /// One failed operation.
    pub fn error(what: impl std::fmt::Display) -> Tally {
        eprintln!("operation failed: {what}");
        Tally {
            attempted: 1,
            failed: 1,
            ..Tally::default()
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.verdicts += other.verdicts;
        self.samples += other.samples;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One row of a job's stage ledger: where a median traced job's
/// (worker-)time went.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub stage: &'static str,
    pub ms: f64,
    /// `span` (measured spans), `probe` (the stage's time in probes of
    /// the same record length) or `rest` (a span minus the stages
    /// attributed to it).
    pub basis: &'static str,
}

/// Per-layer figures a workload derives from its trace.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Stage time per acquired sample, in `probe::STAGES` order: what
    /// each stage costs the workload's jobs, probe time attributed to
    /// the samples the jobs acquired.
    pub stage_ns_per_sample: [f64; 5],
    pub ledger: Vec<LedgerRow>,
    /// Median traced job duration × workers: what the ledger sums to.
    pub ledger_total_ms: f64,
    pub session_self_ms: f64,
    pub stage_coverage: f64,
    pub screen_die_ms: Vec<f64>,
    pub samples_per_die: f64,
    pub early_stop_ratio: f64,
    pub monitor_run_ms: Vec<f64>,
    pub emissions: f64,
    pub parallel_efficiency: f64,
    pub gate_wait_ms: f64,
    pub worker_idle_ms: f64,
}

/// Per-layer figures of jobs that fan units (dies, missions) out to
/// workers: each root span `root` holds one `runtime.task` span per
/// unit, and each task a `runtime.gate` span and a `unit` span whose
/// work is the samples the unit acquired (hot + cold). A unit is
/// charged the probe time of its record length, plus `extra_ms` of the
/// stage `extra` when given; the rest of the unit span is `unit_self`.
/// Fills everything but the workload-specific unit figures.
pub fn fanout_layers(
    trace: &Trace,
    root: &str,
    unit: &str,
    unit_self: &'static str,
    extra: Option<(&'static str, f64)>,
    workers: usize,
) -> (Layers, Vec<(f64, u64)>) {
    let table = probe::stage_table(trace);
    let workers = workers as f64;
    let extra_ms = extra.map_or(0.0, |(_, ms)| ms);
    let ms = |id| trace.span(id).duration_ns() as f64 / 1e6;
    let mut units = Vec::new();
    let mut unit_self_ms = Vec::new();
    let (mut stage_ms, mut samples) = ([0.0; 5], 0u64);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let (mut busy, mut capacity) = (0.0, 0.0);
    let (mut gate_ms, mut idle_ms, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    for job in trace.roots(root) {
        let sum =
            |name: &str| -> f64 { trace.descendants(job, name).iter().map(|&id| ms(id)).sum() };
        let (wall, tasks, gate, unit_total) =
            (ms(job), sum("runtime.task"), sum("runtime.gate"), sum(unit));
        let mut attributed = [0.0; 5];
        let mut extra_total = 0.0;
        for id in trace.descendants(job, unit) {
            let work = trace.span(id).work;
            let stages = table.get(&(work / 2)).copied().unwrap_or_default();
            for (total, t) in attributed.iter_mut().zip(stages) {
                *total += t;
            }
            extra_total += extra_ms;
            units.push((ms(id), work));
            unit_self_ms.push(ms(id) - stages.iter().sum::<f64>() - extra_ms);
            samples += work;
        }
        let mut row = attributed.to_vec();
        row.extend([
            extra_total,
            unit_total - attributed.iter().sum::<f64>() - extra_total,
            gate,
            tasks - gate - unit_total,
            workers * wall - tasks,
        ]);
        rows.push(row);
        for (total, t) in stage_ms.iter_mut().zip(attributed) {
            *total += t;
        }
        busy += tasks;
        capacity += workers * wall;
        gate_ms.push(gate);
        idle_ms.push(workers * wall - tasks);
        coverage.push(trace.covered_ns(job) as f64 / trace.span(job).duration_ns() as f64);
    }
    let stages = probe::STAGES.iter().map(|&s| (s, "probe")).chain([
        (extra.map_or("", |(name, _)| name), "probe"),
        (unit_self, "rest"),
        ("runtime.gate", "span"),
        ("runtime.task.self", "rest"),
        ("runtime.worker_idle", "rest"),
    ]);
    let ledger = stages
        .enumerate()
        .filter(|(_, (stage, _))| !stage.is_empty())
        .map(|(i, (stage, basis))| LedgerRow {
            stage,
            ms: median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()),
            basis,
        })
        .collect();
    let totals: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
    let layers = Layers {
        stage_ns_per_sample: stage_ms.map(|t| t * 1e6 / samples.max(1) as f64),
        ledger,
        ledger_total_ms: median(&totals),
        session_self_ms: median(&unit_self_ms),
        stage_coverage: median(&coverage),
        parallel_efficiency: busy / capacity,
        gate_wait_ms: median(&gate_ms),
        worker_idle_ms: median(&idle_ms),
        ..Layers::default()
    };
    (layers, units)
}

/// One workload: its inputs come from the seed alone.
pub trait Workload: Sized {
    /// Worker threads a job uses.
    const WORKERS: usize;

    /// Builds the workload's inputs from `seed`.
    fn setup(seed: u64) -> Result<Self, BoxError>;

    /// One untraced job, its outputs checked.
    fn job(&mut self, job: u64) -> Tally;

    /// The same job replayed through the layers' public functions with
    /// spans around each call; its outputs are checked against the
    /// untraced job's.
    fn traced_job(&mut self, job: u64, rec: &Recorder) -> Tally;

    /// Stage probes at this workload's sizes (traced runs only).
    fn probe(&mut self, job: u64, rec: &Recorder) -> Result<(), BoxError>;

    /// The checks made once per run, after the timed jobs.
    fn final_checks(&mut self) -> Tally;

    /// Per-layer figures from the trace of a traced run.
    fn layers(&self, trace: &Trace) -> Layers;

    /// Workload-specific `"key": value` pairs for the host record.
    fn record(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// `"key": value` pairs for the host record.
    pub record: Vec<(String, String)>,
    /// Lines printed ahead of the result.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

/// Jobs needed for a job-latency tail.
const MIN_JOBS: usize = 11;

/// An untraced run: set-up (repeated), the timed closed loop, checks.
pub fn run_untraced<W: Workload>(
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<Outcome, BoxError> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut tally = Tally::default();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut w = W::setup(seed)?;
        // The warm-up job: plans, caches and first-touch pages.
        let warm = w.job(0);
        setup_s.push(t.elapsed().as_secs_f64());
        tally.attempted += warm.attempted;
        tally.failed += warm.failed;
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;
    let first_job_s = started.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut jobs = Tally::default();
    let loop_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut j = 0u64;
    while loop_start.elapsed() < budget || latencies.len() < MIN_JOBS {
        let t = Instant::now();
        jobs += w.job(j);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        j += 1;
    }
    let wall = loop_start.elapsed().as_secs_f64();
    let rss_mib = host::peak_rss_kib().ok_or("VmHWM unavailable")? as f64 / 1024.0;
    tally += jobs;
    tally += w.final_checks();

    let job_tail = tail(&latencies).ok_or("too few jobs for a latency tail")?;
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("verdicts_per_s", "1/s", jobs.verdicts as f64 / wall),
        Metric::new(
            "msamples_per_s",
            "Msample/s",
            jobs.samples as f64 / wall / 1e6,
        ),
        Metric::new("job_p50_ms", "ms", median(&latencies)),
        Metric::new("job_tail_ms", "ms", job_tail.value),
        Metric::new("peak_rss_mib", "MiB", rss_mib),
        Metric::new(
            "ok_ratio",
            "ratio",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ];
    let mut record = tail_record("job_tail", &job_tail);
    record.extend([
        ("job_p50_jobs".to_string(), latencies.len().to_string()),
        ("setup_runs_s".to_string(), json_list(&setup_s)),
        ("first_job_after_s".to_string(), format!("{first_job_s:?}")),
        ("timed_s".to_string(), format!("{wall:?}")),
        (
            "failed_ratio".to_string(),
            format!("{:?}", tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
    ]);
    record.extend(w.record());
    Ok(Outcome {
        correct: tally.failed == 0,
        tally,
        metrics,
        record,
        notes: Vec::new(),
        trace: None,
    })
}

/// A traced run: untraced and traced jobs alternate (the pair shares a
/// job index, so their outputs must agree bit for bit), each pair
/// followed by the workload's stage probes.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, BoxError> {
    let mut w = W::setup(seed)?;
    let mut tally = w.job(0);
    tally.verdicts = 0;
    tally.samples = 0;

    let rec = Recorder::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let loop_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut j = 0u64;
    while loop_start.elapsed() < budget || traced.len() < MIN_JOBS {
        let t = Instant::now();
        tally += w.job(j);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tally += w.traced_job(j, &rec);
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        w.probe(j, &rec)?;
        j += 1;
    }
    tally += w.final_checks();
    let trace = rec.finish();
    let layers = w.layers(&trace);

    let per_sample = |name: &str| trace.ns_per_work(name);
    let [source, dut, digitize, expand, welch] = layers.stage_ns_per_sample;
    let untraced_p50 = median(&untraced);
    let traced_p50 = median(&traced);
    let overhead = traced_p50 / untraced_p50;
    let screen_die_tail = tail(&layers.screen_die_ms);
    let metrics = vec![
        Metric::new("analog.source.ns_per_sample", "ns", source),
        Metric::new("analog.dut.ns_per_sample", "ns", dut),
        Metric::new("analog.digitize.ns_per_sample", "ns", digitize),
        Metric::new("analog.expand.ns_per_sample", "ns", expand),
        Metric::new("dsp.welch.ns_per_sample", "ns", welch),
        Metric::new(
            "core.estimate.self_ns_per_sample",
            "ns",
            per_sample("core.estimate") - per_sample("dsp.welch"),
        ),
        Metric::new(
            "dsp.sliding.finalize_us",
            "us",
            per_sample("dsp.sliding.finalize") / 1e3,
        ),
        Metric::new("soc.session.self_ms", "ms", layers.session_self_ms),
        Metric::new("soc.stage_coverage", "ratio", layers.stage_coverage),
        Metric::new("soc.screen_die.p50_ms", "ms", median(&layers.screen_die_ms)),
        Metric::new(
            "soc.screen_die.tail_ms",
            "ms",
            screen_die_tail.map_or(0.0, |t| t.value),
        ),
        Metric::new("soc.samples_per_die", "count", layers.samples_per_die),
        Metric::new("soc.early_stop_ratio", "ratio", layers.early_stop_ratio),
        Metric::new(
            "soc.monitor_run.p50_ms",
            "ms",
            median(&layers.monitor_run_ms),
        ),
        Metric::new("soc.emissions", "count", layers.emissions),
        Metric::new(
            "runtime.parallel_efficiency",
            "ratio",
            layers.parallel_efficiency,
        ),
        Metric::new("runtime.gate_wait_ms", "ms", layers.gate_wait_ms),
        Metric::new("runtime.worker_idle_ms", "ms", layers.worker_idle_ms),
        Metric::new("trace.overhead_ratio", "ratio", overhead),
    ];

    let mut record = vec![
        ("traced_jobs".to_string(), traced.len().to_string()),
        ("untraced_jobs".to_string(), untraced.len().to_string()),
        ("traced_job_p50_ms".to_string(), format!("{traced_p50:?}")),
        (
            "untraced_job_p50_ms".to_string(),
            format!("{untraced_p50:?}"),
        ),
        (
            "screen_dies".to_string(),
            layers.screen_die_ms.len().to_string(),
        ),
        (
            "monitor_runs".to_string(),
            layers.monitor_run_ms.len().to_string(),
        ),
    ];
    if let Some(t) = screen_die_tail {
        record.extend(tail_record("screen_die_tail", &t));
    }
    if let Some(t) = tail(&traced) {
        record.extend(tail_record("traced_job_tail", &t));
    }
    record.extend(w.record());
    let notes = ledger_notes(&layers, W::WORKERS, untraced_p50, overhead);
    Ok(Outcome {
        correct: tally.failed == 0,
        tally,
        metrics,
        record,
        notes,
        trace: Some(trace),
    })
}

fn tail_record(key: &str, t: &Tail) -> Vec<(String, String)> {
    vec![
        (format!("{key}_percentile"), format!("{:?}", t.percentile)),
        (format!("{key}_jobs"), t.jobs.to_string()),
    ]
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// The stage ledger as printable lines, with its closure against the
/// untraced job time.
fn ledger_notes(layers: &Layers, workers: usize, untraced_p50: f64, overhead: f64) -> Vec<String> {
    let mut notes = vec![format!(
        "ledger of the median traced job ({workers} worker{} x {:.2} ms = {:.2} ms of worker time):",
        if workers == 1 { "" } else { "s" },
        layers.ledger_total_ms / workers as f64,
        layers.ledger_total_ms,
    )];
    let mut rows = layers.ledger.clone();
    rows.sort_by(|a, b| b.ms.total_cmp(&a.ms));
    for row in &rows {
        notes.push(format!(
            "  {:<28} {:>10.2} ms {:>6.1} %  ({})",
            row.stage,
            row.ms,
            100.0 * row.ms / layers.ledger_total_ms,
            row.basis
        ));
    }
    let sum: f64 = rows.iter().map(|r| r.ms).sum();
    notes.push(format!(
        "  sum {sum:.2} ms; / {workers} worker(s) / tracing overhead {overhead:.4} = {:.2} ms \
         against the untraced job p50 {untraced_p50:.2} ms",
        sum / workers as f64 / overhead
    ));
    notes
}

#[cfg(test)]
mod tests {
    use super::same_bits;

    #[test]
    fn same_bits_compares_bit_patterns() {
        assert!(same_bits(&[1.5, 0.0], &[1.5, 0.0]));
        // `==` holds for these pairs; the bits differ.
        assert!(!same_bits(&0.0f64, &-0.0f64));
        assert!(!same_bits(&0.1f64, &(0.1f64 + f64::EPSILON)));
    }
}

//! NF-verdict benchmark.
//!
//! ```text
//! cargo run --release --manifest-path verdict_bench/Cargo.toml -- \
//!     --workload <paper_die|lot_adaptive|monitor_fleet> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload's jobs in a closed loop with one client for
//! `--seconds`, checks every output, and prints as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, taken from spans the benchmark records
//! around its calls into each layer. A host record and, for traced
//! runs, the spans are written under `.bench_results/`. The exit code
//! is nonzero when an output check failed.

mod bench;
mod host;
mod lot_adaptive;
mod monitor_fleet;
mod paper_die;
mod probe;
mod stats;
mod trace;

use bench::{run_traced, run_untraced, BoxError, Outcome, Workload};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const RESULTS_DIR: &str = ".bench_results";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(args: &Args, started: Instant) -> Result<Outcome, BoxError> {
    if args.trace {
        run_traced::<W>(args.seed, args.seconds)
    } else {
        run_untraced::<W>(args.seed, args.seconds, started)
    }
}

/// The host record: what the result depends on besides the code.
fn host_record(args: &Args, workers: usize, outcome: &Outcome) -> String {
    let mut fields = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"seconds\": {:?}", args.seconds),
        format!("\"cores\": {}", host::cores()),
        format!("\"simd_arm\": \"{}\"", host::simd_arm()),
        format!("\"workers\": {workers}"),
    ];
    fields.extend(outcome.record.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    format!("{{{}}}", fields.join(", "))
}

/// Writes the host record and result line, and the spans of a traced
/// run, under [`RESULTS_DIR`].
fn write_results(args: &Args, record: &str, line: &str, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let stem = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        format!("{stem}.json"),
        format!("{{\"host\": {record}, \"result\": {line}}}\n"),
    )?;
    if let Some(trace) = &outcome.trace {
        let mut out = std::io::BufWriter::new(std::fs::File::create(format!("{stem}-spans.tsv"))?);
        trace.write_tsv(&mut out)?;
        out.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <paper_die|lot_adaptive|monitor_fleet> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, workers) = match args.workload.as_str() {
        "paper_die" => (
            run::<paper_die::PaperDie>(&args, started),
            paper_die::PaperDie::WORKERS,
        ),
        "lot_adaptive" => (
            run::<lot_adaptive::LotAdaptive>(&args, started),
            lot_adaptive::LotAdaptive::WORKERS,
        ),
        "monitor_fleet" => (
            run::<monitor_fleet::MonitorFleet>(&args, started),
            monitor_fleet::MonitorFleet::WORKERS,
        ),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match stats::result_line(
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        &outcome.metrics,
    ) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let record = host_record(&args, workers, &outcome);
    if let Err(e) = write_results(&args, &record, &line, &outcome) {
        eprintln!("writing {RESULTS_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("host: {record}");
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

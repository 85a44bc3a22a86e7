//! The repository benchmark: per-mode access throughput on four sharing
//! regimes (`--trace 0`), or one traced run that splits the time by layer
//! (`--trace 1`). See `README.md` beside this package for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload <low_sharing|high_sharing|read_shared|fleet>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one line per metric (name, unit, workload, value, samples) and, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

#![forbid(unsafe_code)]

mod measure;
mod parallel_probe;
mod plan;
mod spans;
mod timed;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Checks;
use plan::{Plan, WORKLOADS};

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for counts and single measurements).
    pub samples: usize,
    in_result: bool,
}

impl Metric {
    pub fn new(name: String, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            in_result: true,
        }
    }

    /// A metric printed in the log but left out of the result object.
    pub fn log_only(name: String, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            in_result: false,
            ..Metric::new(name, unit, value, samples)
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad("not a number of seconds in (0, 120]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where the traced run writes its spans: under the benchmark build
/// directory, which stays out of version control.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(plan) = Plan::named(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::fingerprint()
    );
    let result = if args.trace {
        traced::run(&plan, args.seconds, &spans_path(&args))
    } else {
        timed::run(&plan, args.seconds)
    };
    let Some((metrics, checks)) = result else {
        eprintln!("perfbench: a warm-up run failed; nothing to measure");
        return ExitCode::FAILURE;
    };
    print_result(plan.name, &metrics, &checks);
    ExitCode::SUCCESS
}

/// One line per metric, then the result object as the last line.
fn print_result(workload: &str, metrics: &[Metric], checks: &Checks) {
    for m in metrics {
        println!(
            "metric {:<36} {:<10} {workload:<13} {:>16.6}  n={}",
            m.name, m.unit, m.value, m.samples
        );
    }
    for message in &checks.messages {
        println!("# check failed: {message}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_result)
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && finite,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
}

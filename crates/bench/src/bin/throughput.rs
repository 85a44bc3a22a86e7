//! Hot-path throughput harness: simulated accesses per second, per mode.
//!
//! Unlike the paper-figure binaries (which report *simulated cycles*), this
//! harness measures the reproduction's own wall-clock performance — how many
//! simulated memory accesses the engine retires per second in each mode. It
//! is the trajectory every perf-focused PR is measured against.
//!
//! ```bash
//! AIKIDO_SCALE=0.05 cargo run --release -p aikido-bench --bin throughput
//! ```
//!
//! Emits a human-readable table on stdout and a machine-readable
//! `BENCH_throughput.json` (path overridable via `BENCH_OUT`) containing,
//! for every benchmark × mode pair: wall time, accesses/sec and the
//! deterministic run counts (`vm_exits`, `shadow_misses`, `races`) so CI can
//! detect both performance and behaviour drift, plus the accesses/sec
//! geomean per mode that the perf-regression gate compares.
//!
//! Exit codes (see [`aikido_bench::exitcode`]): 0 on success, 3 when the
//! output document cannot be written (read-only checkout, bad `BENCH_OUT`).

use std::time::Instant;

use aikido::staticcheck::CoverageStats;
use aikido::{Mode, Simulator, StaticReport, Workload, WorkloadSpec};
use aikido_bench::scale_from_env;
use serde::Serialize;

/// Benchmarks measured by the harness, spanning the paper's sharing spectrum
/// (Figure 6): raytrace (lowest sharing — the unshared fast path dominates,
/// the paper's best case), blackscholes (low), vips (medium) and
/// fluidanimate (highest — the analysis-bound worst case).
const BENCHMARKS: [&str; 4] = ["raytrace", "blackscholes", "vips", "fluidanimate"];

/// One measured benchmark × mode data point.
#[derive(Debug, Serialize)]
struct Sample {
    benchmark: String,
    mode: String,
    threads: u32,
    mem_accesses: u64,
    wall_nanos: u128,
    accesses_per_sec: f64,
    sim_cycles: u64,
    vm_exits: u64,
    shadow_misses: u64,
    races: usize,
}

/// Static pre-analysis coverage for one benchmark (PR 6): how much of the
/// program the escape + lockset verifier proved thread-private before the
/// first simulated instruction ran.
#[derive(Debug, Serialize)]
struct StaticCoverage {
    benchmark: String,
    coverage: CoverageStats,
}

/// The full JSON document written to `BENCH_throughput.json`.
#[derive(Debug, Serialize)]
struct Document {
    scale: f64,
    /// Machine fingerprint (`host=… cores=… scale=…`): absolute throughput
    /// is only comparable same-machine, same-scale, and `perfgate` warns
    /// loudly when the committed baseline's fingerprint differs.
    fingerprint: String,
    /// Timed repetitions per benchmark × mode (the fastest is reported).
    reps: u32,
    samples: Vec<Sample>,
    /// Per-benchmark static pre-analysis coverage (PR 6). Purely
    /// informational for the perf gate (which reads the document leniently),
    /// but tracked in the committed baseline so coverage regressions show up
    /// in review.
    static_coverage: Vec<StaticCoverage>,
    /// Accesses/sec geometric mean across benchmarks, per mode label
    /// (the perf gate's input).
    aikido_geomean: f64,
    full_geomean: f64,
    native_geomean: f64,
}

/// Default timed repetitions per benchmark × mode; the fastest is reported
/// (standard practice for throughput numbers — the minimum is the least
/// noisy estimate of what the code can do). Override via
/// `AIKIDO_BENCH_REPS` (the CI lanes run a single rep to stay fast).
const DEFAULT_REPEATS: u32 = 3;

/// Timed repetitions per benchmark × mode, from `AIKIDO_BENCH_REPS`.
fn repeats() -> u32 {
    std::env::var("AIKIDO_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(DEFAULT_REPEATS)
}

fn measure(workload: &Workload, mode: Mode, reps: u32) -> Sample {
    let sim = Simulator::default();
    // Warm-up run (untimed): page in the workload and the allocator.
    let baseline = sim.run(workload, mode);
    let mut best = None;
    for _ in 0..reps {
        let start = Instant::now();
        let report = sim.run(workload, mode);
        let wall = start.elapsed();
        // Simulation is deterministic: every repeat must reproduce the same
        // counts, cycles and race reports.
        assert_eq!(report.counts, baseline.counts, "non-deterministic counts");
        assert_eq!(report.cycles, baseline.cycles, "non-deterministic cycles");
        assert_eq!(report.vm, baseline.vm, "non-deterministic VM stats");
        assert_eq!(
            report.races.len(),
            baseline.races.len(),
            "non-deterministic races"
        );
        if best.is_none_or(|b| wall < b) {
            best = Some(wall);
        }
    }
    let wall = best.expect("at least one repeat");
    let accesses = baseline.counts.mem_accesses;
    Sample {
        benchmark: workload.spec().name.clone(),
        mode: mode.label().to_string(),
        threads: workload.spec().threads,
        mem_accesses: accesses,
        wall_nanos: wall.as_nanos(),
        accesses_per_sec: accesses as f64 / wall.as_secs_f64().max(1e-9),
        sim_cycles: baseline.cycles,
        vm_exits: baseline.vm.vm_exits,
        shadow_misses: baseline.vm.shadow_misses,
        races: baseline.races.len(),
    }
}

fn main() {
    let scale = scale_from_env();
    let reps = repeats();
    let mut samples = Vec::new();
    let mut static_coverage = Vec::new();
    println!("hot-path throughput (scale {scale}, reps {reps}):");
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>14} {:>9} {:>13}",
        "benchmark", "mode", "accesses", "wall_ms", "accesses/sec", "vm_exits", "shadow_misses"
    );
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name)
            .expect("benchmark list contains only PARSEC presets")
            .scaled(scale);
        let workload = Workload::generate(&spec);
        let coverage = StaticReport::for_workload(&workload).coverage;
        static_coverage.push(StaticCoverage {
            benchmark: name.to_string(),
            coverage,
        });
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let sample = measure(&workload, mode, reps);
            println!(
                "{:<14} {:>8} {:>12} {:>12.2} {:>14.0} {:>9} {:>13}",
                sample.benchmark,
                sample.mode,
                sample.mem_accesses,
                sample.wall_nanos as f64 / 1e6,
                sample.accesses_per_sec,
                sample.vm_exits,
                sample.shadow_misses
            );
            samples.push(sample);
        }
    }

    let geomean = |label: &str| {
        let rates: Vec<f64> = samples
            .iter()
            .filter(|s| s.mode == label)
            .map(|s| s.accesses_per_sec)
            .collect();
        aikido_bench::geometric_mean(&rates)
    };
    let doc = Document {
        scale,
        fingerprint: aikido_bench::machine_fingerprint(scale),
        reps,
        aikido_geomean: geomean("aikido"),
        full_geomean: geomean("full"),
        native_geomean: geomean("native"),
        static_coverage,
        samples,
    };
    println!();
    println!("static pre-analysis coverage (label-free escape + lockset proofs):");
    for sc in &doc.static_coverage {
        let c = &sc.coverage;
        println!(
            "{:<14} {:>4}/{:<4} work blocks proven private ({:>5.1}%)  \
             lock {:>3}  ro {:>3}  init {:>3}  may-share {:>3}  \
             mem instrs statically freed {}/{}",
            sc.benchmark,
            c.proven_private,
            c.work_blocks,
            100.0 * c.proven_private_fraction,
            c.lock_protected,
            c.read_only_shared,
            c.pre_fork_init,
            c.may_share,
            c.proven_private_mem_instrs,
            c.total_mem_instrs
        );
    }
    println!();
    println!(
        "geomean accesses/sec: native {:.0}  full {:.0}  aikido {:.0}",
        doc.native_geomean, doc.full_geomean, doc.aikido_geomean
    );

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    let json = serde_json::to_string(&doc).expect("document serialises");
    // A read-only checkout or a bad BENCH_OUT must not panic the harness
    // after minutes of measurement: the table above already printed, so
    // report the failure and exit with the documented code.
    if let Err(err) = aikido_bench::write_report(&out, &json) {
        eprintln!("throughput: {err}");
        std::process::exit(aikido_bench::exitcode::WRITE_FAILED);
    }
    println!("wrote {out}");
}

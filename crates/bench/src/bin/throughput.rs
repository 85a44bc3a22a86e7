//! Hot-path throughput harness: simulated accesses per second, per mode.
//!
//! Unlike the paper-figure binaries (which report *simulated cycles*), this
//! harness measures the reproduction's own wall-clock performance — how many
//! simulated memory accesses the engine retires per second in each mode. It
//! is the trajectory every perf-focused PR is measured against.
//!
//! ```bash
//! AIKIDO_SCALE=0.05 cargo run --release -p aikido-bench --bin throughput
//! # Parallel epoch engine, per-worker-count samples:
//! AIKIDO_PARALLEL=4 cargo run --release -p aikido-bench --bin throughput
//! cargo run --release -p aikido-bench --bin throughput -- --parallel 4
//! ```
//!
//! Emits a human-readable table on stdout and a machine-readable
//! `BENCH_throughput.json` (path overridable via `BENCH_OUT`) containing,
//! for every benchmark × mode × worker-count triple: wall time, accesses/sec
//! and the deterministic run counts (`vm_exits`, `shadow_misses`, `races`)
//! so CI can detect both performance and behaviour drift. The top-level
//! geomeans are always computed from the sequential (1-worker) samples so
//! the perf-regression gate compares like with like across lanes; the
//! `per_worker_geomeans` array carries the parallel trajectory.
//!
//! In parallel mode every report is asserted equal to the sequential run's —
//! the wall-clock harness doubles as the cheapest equivalence oracle CI runs
//! on every push.
//!
//! Exit codes (see [`aikido_bench::exitcode`]): 0 on success, 3 when the
//! output document cannot be written (read-only checkout, bad `BENCH_OUT`),
//! 1 when `AIKIDO_REQUIRE_SCALING=1` is set and the parallel aikido geomean
//! fails to beat the sequential one on a multi-core machine (the parallel
//! epoch engine's scaling gate; tolerance overridable via
//! `AIKIDO_SCALING_TOLERANCE`, skipped on single-core runners).

use std::time::Instant;

use aikido::staticcheck::CoverageStats;
use aikido::{Mode, RunReport, SimConfig, Simulator, StaticReport, Workload, WorkloadSpec};
use aikido_bench::scale_from_env;
use serde::Serialize;

/// Benchmarks measured by the harness, spanning the paper's sharing spectrum
/// (Figure 6): raytrace (lowest sharing — the unshared fast path dominates,
/// the paper's best case), blackscholes (low), vips (medium) and
/// fluidanimate (highest — the analysis-bound worst case).
const BENCHMARKS: [&str; 4] = ["raytrace", "blackscholes", "vips", "fluidanimate"];

/// One measured benchmark × mode × worker-count data point.
#[derive(Debug, Serialize)]
struct Sample {
    benchmark: String,
    mode: String,
    threads: u32,
    /// Epoch-engine worker threads (1 = the sequential reference path).
    workers: usize,
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

/// Accesses/sec geometric means across benchmarks at one worker count.
#[derive(Debug, Serialize)]
struct WorkerGeomeans {
    workers: usize,
    native: f64,
    full: f64,
    aikido: f64,
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
    /// Highest worker count measured (1 when running sequential only).
    parallel_workers: usize,
    samples: Vec<Sample>,
    /// Per-benchmark static pre-analysis coverage (PR 6). Purely
    /// informational for the perf gate (which reads the document leniently),
    /// but tracked in the committed baseline so coverage regressions show up
    /// in review.
    static_coverage: Vec<StaticCoverage>,
    /// Accesses/sec geometric mean across benchmarks, per mode label,
    /// measured on the sequential path (stable input for the perf gate).
    aikido_geomean: f64,
    full_geomean: f64,
    native_geomean: f64,
    /// The same geomeans per measured worker count (parallel trajectory).
    per_worker_geomeans: Vec<WorkerGeomeans>,
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

fn measure(workload: &Workload, mode: Mode, workers: usize, reps: u32) -> (Sample, RunReport) {
    let sim = Simulator::default().with_workers(workers);
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
    let sample = Sample {
        benchmark: workload.spec().name.clone(),
        mode: mode.label().to_string(),
        threads: workload.spec().threads,
        workers,
        mem_accesses: accesses,
        wall_nanos: wall.as_nanos(),
        accesses_per_sec: accesses as f64 / wall.as_secs_f64().max(1e-9),
        sim_cycles: baseline.cycles,
        vm_exits: baseline.vm.vm_exits,
        shadow_misses: baseline.vm.shadow_misses,
        races: baseline.races.len(),
    };
    (sample, baseline)
}

/// Worker counts to measure: `--parallel N` (or `AIKIDO_PARALLEL=N`) adds a
/// parallel lane next to the sequential reference.
fn worker_counts() -> Vec<usize> {
    let mut parallel = SimConfig::from_env_overrides().workers;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--parallel") {
        if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            parallel = n.max(1);
        }
    }
    if parallel > 1 {
        vec![1, parallel]
    } else {
        vec![1]
    }
}

fn main() {
    let scale = scale_from_env();
    let counts = worker_counts();
    let reps = repeats();
    let parallel_workers = *counts.last().expect("at least one worker count");
    let mut samples = Vec::new();
    let mut static_coverage = Vec::new();
    println!("hot-path throughput (scale {scale}, workers {counts:?}, reps {reps}):");
    println!(
        "{:<14} {:>8} {:>7} {:>12} {:>12} {:>14} {:>9} {:>13}",
        "benchmark",
        "mode",
        "workers",
        "accesses",
        "wall_ms",
        "accesses/sec",
        "vm_exits",
        "shadow_misses"
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
            let mut sequential_report: Option<RunReport> = None;
            for &workers in &counts {
                let (sample, report) = measure(&workload, mode, workers, reps);
                match &sequential_report {
                    None => sequential_report = Some(report),
                    Some(reference) => assert_eq!(
                        &report, reference,
                        "parallel run diverged from the sequential reference \
                         ({name}, {mode:?}, {workers} workers)"
                    ),
                }
                println!(
                    "{:<14} {:>8} {:>7} {:>12} {:>12.2} {:>14.0} {:>9} {:>13}",
                    sample.benchmark,
                    sample.mode,
                    sample.workers,
                    sample.mem_accesses,
                    sample.wall_nanos as f64 / 1e6,
                    sample.accesses_per_sec,
                    sample.vm_exits,
                    sample.shadow_misses
                );
                samples.push(sample);
            }
        }
    }

    let geomean = |label: &str, workers: usize| {
        let rates: Vec<f64> = samples
            .iter()
            .filter(|s| s.mode == label && s.workers == workers)
            .map(|s| s.accesses_per_sec)
            .collect();
        aikido_bench::geometric_mean(&rates)
    };
    let per_worker_geomeans: Vec<WorkerGeomeans> = counts
        .iter()
        .map(|&workers| WorkerGeomeans {
            workers,
            native: geomean("native", workers),
            full: geomean("full", workers),
            aikido: geomean("aikido", workers),
        })
        .collect();
    let doc = Document {
        scale,
        fingerprint: aikido_bench::machine_fingerprint(scale),
        reps,
        parallel_workers,
        aikido_geomean: geomean("aikido", 1),
        full_geomean: geomean("full", 1),
        native_geomean: geomean("native", 1),
        per_worker_geomeans,
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
    for g in &doc.per_worker_geomeans {
        println!(
            "geomean accesses/sec ({} workers): native {:.0}  full {:.0}  aikido {:.0}",
            g.workers, g.native, g.full, g.aikido
        );
    }

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

    enforce_scaling_gate(&doc);
}

/// The parallel epoch engine's scaling gate: with `AIKIDO_REQUIRE_SCALING=1` on a
/// multi-core machine, the parallel-lane aikido geomean must beat the
/// sequential one by more than `AIKIDO_SCALING_TOLERANCE` (a ratio, default
/// 1.0 — any speedup at all). On a single-core runner, or when no parallel
/// lane was measured, the gate prints a skip notice and passes: interleaved
/// workers cannot scale without cores to run on.
fn enforce_scaling_gate(doc: &Document) {
    if std::env::var("AIKIDO_REQUIRE_SCALING").map(|v| v == "1") != Ok(true) {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        println!("scaling gate: skipped (single-core machine — no parallelism to gain)");
        return;
    }
    if doc.parallel_workers <= 1 {
        println!("scaling gate: skipped (no parallel lane measured; set AIKIDO_PARALLEL)");
        return;
    }
    let tolerance = std::env::var("AIKIDO_SCALING_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0)
        .unwrap_or(1.0);
    let find = |workers: usize| {
        doc.per_worker_geomeans
            .iter()
            .find(|g| g.workers == workers)
    };
    let (Some(seq), Some(par)) = (find(1), find(doc.parallel_workers)) else {
        eprintln!("scaling gate: per_worker_geomeans missing a measured lane");
        std::process::exit(aikido_bench::exitcode::REGRESSION);
    };
    let ratio = par.aikido / seq.aikido;
    println!(
        "scaling gate: aikido geomean @{}w / @1w = {ratio:.3} (required > {tolerance:.3}, {cores} cores)",
        doc.parallel_workers
    );
    if ratio <= tolerance || !ratio.is_finite() {
        eprintln!(
            "scaling gate FAILED: the parallel epoch engine at {} workers did not outscale the \
             sequential path ({:.0} vs {:.0} accesses/sec geomean) on a {cores}-core machine",
            doc.parallel_workers, par.aikido, seq.aikido
        );
        std::process::exit(aikido_bench::exitcode::REGRESSION);
    }
}

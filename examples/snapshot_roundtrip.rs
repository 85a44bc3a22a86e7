//! Crash-recovery roundtrip: checkpoint a run at its midpoint, restore the
//! serialized image — optionally in a *fresh process* — and prove the final
//! report is byte-identical to an uninterrupted run.
//!
//! ```bash
//! # In-process demo (what the smoke test pins):
//! cargo run --release --example snapshot_roundtrip
//!
//! # The CI crash-recovery lane splits the phases across processes:
//! cargo run --release --example snapshot_roundtrip -- full uninterrupted.json
//! cargo run --release --example snapshot_roundtrip -- save midpoint.snap
//! cargo run --release --example snapshot_roundtrip -- resume midpoint.snap resumed.json
//! cmp uninterrupted.json resumed.json
//! ```
//!
//! The workload is the `vips` preset (4 threads) under `Mode::Aikido`,
//! scaled by `AIKIDO_SCALE` (default 0.05). Reports are serialized as
//! canonical JSON, so `cmp` on the two report files is a byte-level
//! equivalence check across process boundaries.
//!
//! The simulator is built from [`SimConfig::from_env_overrides`], so the CI
//! lanes can steer each *process* independently: `AIKIDO_PARALLEL=4`
//! produces a parallel run whose report file must `cmp` equal to an
//! `AIKIDO_PARALLEL=1` process's — the cross-process spelling of the epoch
//! engine's parallel-equals-sequential contract.

use aikido::prelude::*;
use aikido::CheckpointOutcome;

fn scale() -> f64 {
    std::env::var("AIKIDO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(0.05)
}

fn workload() -> Workload {
    let spec = WorkloadSpec::parsec("vips")
        .expect("vips is one of the ten PARSEC presets")
        .scaled(scale())
        .with_threads(4);
    Workload::generate(&spec)
}

fn fail(message: String) -> ! {
    eprintln!("snapshot_roundtrip: {message}");
    std::process::exit(1)
}

/// Runs uninterrupted and returns the reference report.
fn run_full(sim: &Simulator, w: &Workload) -> RunReport {
    sim.run(w, Mode::Aikido)
}

/// Checkpoints at the midpoint of the run and returns the serialized image.
fn save_midpoint(sim: &Simulator, w: &Workload) -> Vec<u8> {
    let total = run_full(sim, w).counts.block_execs;
    match sim.checkpoint(w, Mode::Aikido, total / 2) {
        Ok(CheckpointOutcome::Paused(snapshot)) => snapshot.into_bytes(),
        Ok(CheckpointOutcome::Completed(_)) => {
            fail("the workload completed before its own midpoint".to_string())
        }
        Err(err) => fail(format!("checkpoint failed: {err}")),
    }
}

/// Validates `bytes` and resumes the run to completion.
fn resume_bytes(sim: &Simulator, w: &Workload, bytes: Vec<u8>) -> RunReport {
    let snapshot = match Snapshot::from_bytes(bytes) {
        Ok(snapshot) => snapshot,
        Err(err) => fail(format!("snapshot image rejected: {err}")),
    };
    match sim.resume(w, &snapshot) {
        Ok(report) => report,
        Err(err) => fail(format!("resume failed: {err}")),
    }
}

fn write_file(path: &str, bytes: &[u8]) {
    if let Err(err) = std::fs::write(path, bytes) {
        fail(format!("cannot write {path}: {err}"));
    }
}

fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serialises")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Env-driven configuration (AIKIDO_PARALLEL, AIKIDO_SCALE, …) so the
    // CI lanes can compare differently-configured processes byte for byte.
    let sim = match Simulator::from_config(SimConfig::from_env_overrides()) {
        Ok(sim) => sim,
        Err(err) => fail(format!("invalid configuration: {err}")),
    };
    let w = workload();

    match args.get(1).map(String::as_str) {
        // Phase binaries for the CI crash-recovery lane.
        Some("full") => {
            let path = args.get(2).unwrap_or_else(|| {
                fail("usage: snapshot_roundtrip full <report.json>".to_string())
            });
            let report = run_full(&sim, &w);
            write_file(path, report_json(&report).as_bytes());
            println!("wrote uninterrupted report to {path}");
        }
        Some("save") => {
            let path = args
                .get(2)
                .unwrap_or_else(|| fail("usage: snapshot_roundtrip save <snapshot>".to_string()));
            let bytes = save_midpoint(&sim, &w);
            write_file(path, &bytes);
            println!("wrote {}-byte midpoint snapshot to {path}", bytes.len());
        }
        Some("resume") => {
            let (Some(snap_path), Some(report_path)) = (args.get(2), args.get(3)) else {
                fail("usage: snapshot_roundtrip resume <snapshot> <report.json>".to_string())
            };
            let bytes = match std::fs::read(snap_path) {
                Ok(bytes) => bytes,
                Err(err) => fail(format!("cannot read {snap_path}: {err}")),
            };
            let report = resume_bytes(&sim, &w, bytes);
            write_file(report_path, report_json(&report).as_bytes());
            println!("resumed from {snap_path}; wrote final report to {report_path}");
        }
        Some(other) => fail(format!("unknown phase `{other}` (full | save | resume)")),
        // No arguments: the whole roundtrip in one process.
        None => {
            println!(
                "crash-recovery roundtrip: {} ({} threads), mode aikido, scale {}",
                w.spec().name,
                w.spec().threads,
                scale()
            );
            let uninterrupted = run_full(&sim, &w);
            println!(
                "uninterrupted: {} cycles over {} block executions",
                uninterrupted.cycles, uninterrupted.counts.block_execs
            );
            let bytes = save_midpoint(&sim, &w);
            println!(
                "midpoint checkpoint (block {}): {} bytes, checksummed",
                uninterrupted.counts.block_execs / 2,
                bytes.len()
            );
            let resumed = resume_bytes(&sim, &w, bytes);
            assert_eq!(resumed, uninterrupted, "resume diverged");
            assert_eq!(report_json(&resumed), report_json(&uninterrupted));
            println!("resumed report matches the uninterrupted run byte for byte");
        }
    }
}

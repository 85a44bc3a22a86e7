//! Smoke tests that the runnable examples actually run — and that their
//! output is byte-identical to the checked-in golden transcripts.
//!
//! The simulation is a pure function of the workload spec (fixed seeds), so
//! any drift in an example's stdout means observable behaviour changed:
//! different counts, cycles or race reports. Perf-focused PRs must keep these
//! transcripts bit-for-bit stable; refresh a golden file only when a change
//! is *meant* to alter results (and say so in the PR).

use std::path::Path;
use std::process::Command;

/// Runs one example through cargo, asserts a zero exit status and compares
/// stdout against `tests/golden/<name>.stdout`.
fn run_example(name: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        // Golden transcripts are captured at each example's built-in default
        // scale; don't let an inherited AIKIDO_SCALE (e.g. from a CI lane)
        // shift scale-aware examples off their transcript.
        .env_remove("AIKIDO_SCALE")
        .args(["run", "--quiet", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example `{name}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );

    let golden_path = manifest_dir
        .join("tests/golden")
        .join(format!("{name}.stdout"));
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden transcript {}: {e}", golden_path.display()));
    assert!(
        output.stdout == golden,
        "example `{name}` stdout drifted from its golden transcript \
         (tests/golden/{name}.stdout).\n--- got ---\n{}\n--- expected ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&golden),
    );
}

#[test]
fn quickstart_example_runs() {
    run_example("quickstart");
}

#[test]
fn find_races_example_runs() {
    run_example("find_races");
}

#[test]
fn first_access_window_example_runs() {
    run_example("first_access_window");
}

#[test]
fn sharing_profiler_example_runs() {
    run_example("sharing_profiler");
}

#[test]
fn static_report_dump_example_runs() {
    run_example("static_report_dump");
}

#[test]
fn snapshot_roundtrip_example_runs() {
    run_example("snapshot_roundtrip");
}

#[test]
fn snapshot_inspect_example_runs() {
    run_example("snapshot_inspect");
}

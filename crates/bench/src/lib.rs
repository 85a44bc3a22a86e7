//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artefact of the evaluation
//! section (run them with `cargo run --release -p aikido-bench --bin <name>`):
//!
//! | binary   | paper artefact |
//! |----------|----------------|
//! | `fig5`   | Figure 5 — slowdown vs native, FastTrack vs Aikido-FastTrack |
//! | `fig6`   | Figure 6 — % of accesses targeting shared pages |
//! | `table1` | Table 1 — fluidanimate/vips overheads at 2/4/8 threads |
//! | `table2` | Table 2 — instrumentation statistics |
//! | `races`  | §5.3 — races found by both tools |
//! | `ablation` | §3.3/§6 design-choice ablations |
//!
//! The Criterion benches under `benches/` measure the reproduction itself
//! (component microbenchmarks and small end-to-end sweeps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aikido::{Comparison, Mode, RunReport, SimConfig, Simulator, Workload, WorkloadSpec};

/// Workload scale used by the harnesses when the `AIKIDO_SCALE` environment
/// variable is not set. 1.0 is the calibrated default size (a few hundred
/// thousand to a few million simulated accesses per benchmark).
pub const DEFAULT_SCALE: f64 = 1.0;

/// Reads the workload scale from `AIKIDO_SCALE` (falling back to
/// [`DEFAULT_SCALE`]). The harnesses use this so CI can run quick passes.
/// Delegates to [`SimConfig::from_env_overrides`] — the one place the
/// simulator's environment variables are parsed.
pub fn scale_from_env() -> f64 {
    SimConfig::from_env_overrides().scale
}

/// Runs the native / FastTrack / Aikido-FastTrack comparison for one PARSEC
/// preset at `scale`.
///
/// # Panics
///
/// Panics if `name` is not a known PARSEC preset.
pub fn run_benchmark(name: &str, scale: f64) -> Comparison {
    let spec = WorkloadSpec::parsec(name)
        .unwrap_or_else(|| panic!("unknown PARSEC benchmark {name}"))
        .scaled(scale);
    let workload = Workload::generate(&spec);
    Simulator::default().compare(&workload)
}

/// Runs a single mode for one PARSEC preset at `scale`.
///
/// # Panics
///
/// Panics if `name` is not a known PARSEC preset.
pub fn run_mode(name: &str, scale: f64, mode: Mode) -> RunReport {
    let spec = WorkloadSpec::parsec(name)
        .unwrap_or_else(|| panic!("unknown PARSEC benchmark {name}"))
        .scaled(scale);
    let workload = Workload::generate(&spec);
    Simulator::default().run(&workload, mode)
}

/// A fingerprint of the measuring machine and configuration:
/// `host=<hostname> cores=<count> scale=<AIKIDO_SCALE>`. Recorded in
/// `BENCH_throughput.json` so `perfgate` can warn loudly when a fresh run is
/// compared against a baseline from a different machine or scale — absolute
/// throughput numbers are only comparable same-machine, same-scale (the
/// ROADMAP's "mixed machines" caveat, codified).
pub fn machine_fingerprint(scale: f64) -> String {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .or_else(|_| std::fs::read_to_string("/etc/hostname"))
        .map(|h| h.trim().to_string())
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!("host={hostname} cores={cores} scale={scale}")
}

/// Exit codes shared by the bench binaries, so CI can tell failure classes
/// apart without parsing stderr:
///
/// | code | meaning |
/// |------|---------|
/// | 0    | success (including `perfgate` passing with a missing baseline) |
/// | 1    | `perfgate`: throughput regressed beyond the tolerance |
/// | 2    | `perfgate`: the fresh throughput document is unreadable |
/// | 3    | `throughput`: the output document could not be written |
/// | 4    | `perfgate`: the baseline exists but is corrupt (unreadable, unparsable, or missing the gated geomeans) |
/// | 5    | `loadgen`: a service report diverged from its direct run, or a fleet invariant broke |
pub mod exitcode {
    /// Success.
    pub const OK: i32 = 0;
    /// `perfgate`: throughput regressed beyond the tolerance.
    pub const REGRESSION: i32 = 1;
    /// `perfgate`: the fresh throughput document is unreadable.
    pub const FRESH_UNREADABLE: i32 = 2;
    /// `throughput`: the output document could not be written.
    pub const WRITE_FAILED: i32 = 3;
    /// `perfgate`: the baseline exists but is corrupt. Distinct from a
    /// *missing* baseline (a fresh fork or perf machine), which passes with
    /// a warning — a baseline that is present but unreadable means the
    /// committed artifact rotted and the gate would otherwise silently stop
    /// gating.
    pub const BASELINE_CORRUPT: i32 = 4;
    /// `loadgen`: a service-delivered report diverged from the direct
    /// `Simulator` run of the same request, or the fleet violated one of its
    /// invariants (admission determinism, admission accounting).
    pub const SERVICE_MISMATCH: i32 = 5;
}

/// Writes a report document, wrapping any I/O failure in a diagnostic that
/// names the path, the cause, and the usual remedies. The bins map an `Err`
/// to [`exitcode::WRITE_FAILED`] instead of panicking mid-harness.
pub fn write_report(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|err| {
        format!(
            "cannot write report to {path}: {err} \
             (is the directory writable? set BENCH_OUT to redirect the output)"
        )
    })
}

/// Reads a JSON document, distinguishing the three states callers handle
/// differently:
///
/// * `Ok(None)` — the file does not exist,
/// * `Ok(Some(doc))` — the file parsed,
/// * `Err(reason)` — the file exists but could not be read or parsed.
pub fn read_json_document(path: &str) -> Result<Option<serde_json::Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(format!("cannot read {path}: {err}")),
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|err| format!("{path} is not valid JSON: {err}"))
}

/// Geometric mean of a sequence of positive values (0.0 for an empty input).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a slowdown as the paper prints it, e.g. `67.2x`.
pub fn fmt_slowdown(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage, e.g. `22.3%`.
pub fn fmt_percent(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", row.join(" | "));
}

/// Prints a Markdown-style table header (header row plus separator).
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("| {} |", sep.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_constants_is_the_constant() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_slowdown(6.0), "6.00x");
        assert_eq!(fmt_percent(0.113), "11.30%");
    }

    #[test]
    fn machine_fingerprint_has_all_three_components() {
        let fp = machine_fingerprint(0.05);
        assert!(fp.contains("host="), "{fp}");
        assert!(fp.contains("cores="), "{fp}");
        assert!(fp.ends_with("scale=0.05"), "{fp}");
        assert!(!fp.contains('\n'));
    }

    #[test]
    fn write_report_surfaces_io_failures_with_the_path() {
        let err = write_report("/nonexistent-dir/out.json", "{}").unwrap_err();
        assert!(err.contains("/nonexistent-dir/out.json"), "{err}");
        assert!(err.contains("BENCH_OUT"), "{err}");
    }

    #[test]
    fn write_report_round_trips_through_read_json_document() {
        let path =
            std::env::temp_dir().join(format!("aikido-bench-io-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        write_report(&path, r#"{"native_geomean": 1.5}"#).expect("temp dir is writable");
        let doc = read_json_document(&path)
            .expect("readable")
            .expect("present");
        assert_eq!(
            doc.get("native_geomean").and_then(|v| v.as_f64()),
            Some(1.5)
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn read_json_document_distinguishes_missing_from_corrupt() {
        // Missing file (including a missing parent directory): Ok(None).
        assert_eq!(
            read_json_document("/nonexistent-dir/missing.json").expect("missing is not an error"),
            None
        );
        // Present but not JSON: Err naming the path.
        let path =
            std::env::temp_dir().join(format!("aikido-bench-corrupt-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        std::fs::write(&path, "not json {").expect("temp dir is writable");
        let err = read_json_document(&path).expect_err("corrupt must be an error");
        assert!(err.contains(&path), "{err}");
        assert!(err.contains("not valid JSON"), "{err}");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn exit_codes_are_distinct() {
        let codes = [
            exitcode::OK,
            exitcode::REGRESSION,
            exitcode::FRESH_UNREADABLE,
            exitcode::WRITE_FAILED,
            exitcode::BASELINE_CORRUPT,
            exitcode::SERVICE_MISMATCH,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn run_benchmark_smoke_test() {
        let cmp = run_benchmark("blackscholes", 0.02);
        assert!(cmp.full_slowdown() > 1.0);
        assert!(cmp.aikido_slowdown() > 1.0);
    }
}

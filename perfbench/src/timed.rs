//! The end-to-end run: untraced, default `SimConfig` (sequential), which is
//! what users get. Every timing here is a fast-level median over many runs
//! ([`fast_median`]), reported on a reference host ([`HostProbe`]).

use std::time::{Duration, Instant};

use aikido::{Simulator, StaticReport, Workload};

use crate::measure::{fast_median, peak_rss_mb, Checks, HostProbe, References, Submitted};
use crate::plan::{Plan, MODES};
use crate::Metric;

/// Set-ups per process: the first before anything is timed, the rest spread
/// evenly over the measuring time so that they meet the host's fast and slow
/// spells alike. `setup_s` is their fast-level median.
const SETUP_REPS: usize = 11;

/// Measuring rounds made even when the time budget is already spent.
const MIN_ROUNDS: usize = 5;

/// Everything done before the first timed call.
struct Prepared {
    workloads: Vec<Workload>,
    refs: Vec<References>,
    /// The fleet's first batch, already submitted.
    submitted: Option<Submitted>,
}

/// Generates every spec, builds its static report, makes the warm-up runs
/// (the references every timed run is checked against) and, for `fleet`,
/// builds the service and submits the batch.
fn prepare(plan: &Plan, sim: &Simulator, checks: &mut Checks) -> Option<Prepared> {
    let mut workloads = Vec::new();
    let mut refs = Vec::new();
    for spec in &plan.specs {
        let workload = Workload::generate(spec);
        std::hint::black_box(StaticReport::for_workload(&workload));
        refs.push(References::warm_up(sim, &workload, checks)?);
        workloads.push(workload);
    }
    let submitted = plan.is_fleet().then(|| Submitted::new(plan, None));
    Some(Prepared {
        workloads,
        refs,
        submitted,
    })
}

/// The end-to-end run of `plan` for about `seconds`.
pub fn run(plan: &Plan, seconds: f64) -> Option<(Vec<Metric>, Checks)> {
    let sim = Simulator::default();
    let mut checks = Checks::default();
    let mut probe = HostProbe::new();

    let (prepared, ms) = probe.time(|| prepare(plan, &sim, &mut checks));
    let mut setups = vec![ms];
    let Prepared {
        workloads,
        refs,
        mut submitted,
    } = prepared?;

    // Rounds rotate the mode order so slow spells hit every mode alike. On
    // `fleet` each round also drains one submitted batch.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = vec![vec![Vec::new(); MODES.len()]; workloads.len()];
    let mut drains = Vec::new();
    let mut delivered = 0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if setups.len() < SETUP_REPS && start.elapsed() >= due {
            let (again, ms) = probe.time(|| prepare(plan, &sim, &mut checks));
            setups.push(ms);
            // A failed warm-up was counted by `prepare`.
            if let Some(again) = again {
                for (a, b) in refs.iter().zip(&again.refs) {
                    checks.record(a.json == b.json, || {
                        "a repeated set-up changed a report".into()
                    });
                }
            }
        }
        if plan.is_fleet() {
            let mut batch = submitted
                .take()
                .unwrap_or_else(|| Submitted::new(plan, None));
            let (report, ms) = probe.time(|| batch.service.drain());
            drains.push(ms);
            delivered = report.runs.len();
            batch.check(
                plan,
                &report,
                |i| {
                    let planned = &plan.requests[i];
                    refs[planned.spec].json[planned.mode].clone()
                },
                &mut checks,
            );
        }
        for k in 0..MODES.len() {
            let m = (rounds + k) % MODES.len();
            for (i, workload) in workloads.iter().enumerate() {
                let (result, ms) = probe.time(|| sim.try_run(workload, MODES[m]));
                walls[i][m].push(ms);
                checks.same(result, &refs[i].json[m], || {
                    format!("{} {}", workload.spec().name, MODES[m].label())
                });
            }
        }
        rounds += 1;
    }

    // Each timed metric is a function of a fast-level median host time,
    // reported on the reference host; the same figure in host time is
    // printed beside it (`.host`) but left out of the result. `n` is the
    // number of fast-level samples (the smallest count when several series
    // are summed).
    let scale = probe.scale();
    let mut metrics = Vec::new();
    let mut push_timed =
        |name: &str, unit: &'static str, value: &dyn Fn(f64) -> f64, series: &[&[f64]]| {
            let fast: Vec<(f64, usize)> = series.iter().map(|s| fast_median(s)).collect();
            let ms: f64 = fast.iter().map(|f| f.0).sum();
            let n = fast.iter().map(|f| f.1).min().unwrap_or(0);
            metrics.push(Metric::new(name.into(), unit, value(ms * scale), n));
            metrics.push(Metric::log_only(format!("{name}.host"), unit, value(ms), n));
        };
    // Per mode: all specs' accesses over the sum of their run times.
    let mode_series = |m: usize| walls.iter().map(|w| w[m].as_slice()).collect::<Vec<_>>();
    for (m, name) in [
        (0, "native_maccess_per_s"),
        (1, "full_maccess_per_s"),
        (2, "aikido_maccess_per_s"),
    ] {
        let accesses: u64 = refs.iter().map(|r| r.reports[m].counts.mem_accesses).sum();
        let per_s = |ms: f64| accesses as f64 / ms / 1e3;
        push_timed(name, "Maccess/s", &per_s, &mode_series(m));
    }
    if plan.is_fleet() {
        let per_s = |ms: f64| delivered as f64 / ms * 1e3;
        push_timed("fleet_runs_per_s", "1/s", &per_s, &[&drains]);
    } else {
        // One caller making the three runs one at a time.
        let all: Vec<&[f64]> = (0..MODES.len()).flat_map(mode_series).collect();
        let per_s = |ms: f64| (MODES.len() * workloads.len()) as f64 / ms * 1e3;
        push_timed("fleet_runs_per_s", "1/s", &per_s, &all);
    }
    push_timed("setup_s", "s", &|ms| ms / 1e3, &[&setups]);

    let cycles = |m: usize| refs.iter().map(|r| r.reports[m].cycles).sum::<u64>() as f64;
    metrics.push(Metric::new(
        "sim_aikido_speedup".into(),
        "x",
        cycles(1) / cycles(2),
        1,
    ));
    // At the end: on `fleet` the peak depends on which runs happen to share
    // the workers, and more drains let it settle at its maximum.
    metrics.push(Metric::new("peak_rss_mb".into(), "MB", peak_rss_mb(), 1));
    let (probe_ms, probe_n) = fast_median(&probe.probe_ms);
    metrics.push(Metric::log_only(
        "host.probe_ms".into(),
        "ms",
        probe_ms,
        probe_n,
    ));
    // Carried by the result's `attempted` and `failed`; a rate that is 0 on
    // correct code cannot be a bounded metric.
    metrics.push(Metric::log_only(
        "op_failure_rate".into(),
        "frac",
        checks.failure_rate(),
        1,
    ));
    Some((metrics, checks))
}

//! The within-run parallelism probe: every mode at `workers = nproc` (at
//! least 2), each run next to a sequential one. Everything the benchmark
//! measures about `SimConfig::workers` is in this file, so removing that
//! option means removing this file and its two calls in `traced.rs`.

use aikido::{Simulator, Workload};

use crate::measure::{median, nproc, ratio, Checks, References};
use crate::plan::MODES;
use crate::spans::Tracer;
use crate::Metric;

/// Sequential and parallel runs per mode; medians are kept.
const REPS: usize = 3;

/// What the probe measured for one spec. Per-mode arrays follow [`MODES`].
#[derive(Debug, Default)]
pub struct ParallelProbe {
    sequential_ms: [Vec<f64>; 3],
    parallel_ms: [Vec<f64>; 3],
    /// Accesses analysed on a worker shard, and all accesses routed through
    /// the shard plane.
    local: [u64; 3],
    routed: [u64; 3],
}

/// Runs every mode of `workload` sequentially and on the epoch engine with
/// `nproc` workers, alternately; each report must equal the reference.
pub fn measure(
    workload: &Workload,
    refs: &References,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ParallelProbe {
    let sims = [
        Simulator::default(),
        Simulator::default().with_workers(nproc().max(2)),
    ];
    let mut probe = ParallelProbe::default();
    for (m, mode) in MODES.into_iter().enumerate() {
        for _ in 0..REPS {
            for sim in &sims {
                let span = tracer.enter(format!(
                    "sim.try_run_with_occupancy.{}.workers{}",
                    mode.label(),
                    sim.workers()
                ));
                let result = sim.try_run_with_occupancy(workload, mode);
                let ms = tracer.exit(span);
                let (report, occupancy) = match result {
                    Ok((report, occupancy)) => (Ok(report), occupancy),
                    Err(err) => (Err(err), None),
                };
                checks.same(report, &refs.json[m], || {
                    format!(
                        "{} {} at {} workers",
                        workload.spec().name,
                        mode.label(),
                        sim.workers()
                    )
                });
                if sim.workers() == 1 {
                    probe.sequential_ms[m].push(ms);
                } else {
                    probe.parallel_ms[m].push(ms);
                }
                if let Some(occupancy) = occupancy {
                    probe.routed[m] = occupancy.total();
                    probe.local[m] = occupancy.total() - occupancy.escalated;
                }
            }
        }
    }
    probe
}

/// `parallel.wall_ratio.*` (parallel ÷ sequential median run time) and
/// `shard_plane.local_frac.*`, summed over the probes of a workload's specs.
pub fn metrics(probes: &[ParallelProbe]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&ParallelProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let mut out = Vec::new();
    for (m, mode) in MODES.iter().enumerate() {
        out.push(Metric::new(
            format!("parallel.wall_ratio.{}", mode.label()),
            "ratio",
            ratio(
                sum(&|p| median(&p.parallel_ms[m])),
                sum(&|p| median(&p.sequential_ms[m])),
            ),
            REPS,
        ));
    }
    for m in [1, 2] {
        out.push(Metric::new(
            format!("shard_plane.local_frac.{}", MODES[m].label()),
            "frac",
            ratio(sum(&|p| p.local[m] as f64), sum(&|p| p.routed[m] as f64)),
            1,
        ));
    }
    out
}

//! The traced run: a span around every public call the benchmark makes, and
//! the per-layer metrics they give. No end-to-end number comes from here.
//!
//! The spans sit in the benchmark, around calls into the program; the split
//! of `sim` self time into `dbi`, `vm`, `sharing` and `shadow` needs spans
//! inside the program and is not measured.

use std::path::Path;
use std::time::{Duration, Instant};

use aikido::fasttrack::{FastTrackStats, SpillStats};
use aikido::types::{LockId, NullAnalysis};
use aikido::workloads::BlockExec;
use aikido::{
    AccessContext, AccessKind, AnalysisReport, CheckpointOutcome, FastTrack, Mode, RunReport,
    SharedDataAnalysis, SimConfig, Simulator, Snapshot, StaticReport, ThreadId, Vpn, Workload,
    WorkloadSpec,
};

use crate::measure::{json, median, percentile, ratio, Checks, References, Submitted};
use crate::parallel_probe;
use crate::plan::{Plan, MODES};
use crate::spans::Tracer;
use crate::Metric;

/// Rounds of untraced, traced and null runs made even when the time budget
/// is already spent.
const MIN_ROUNDS: usize = 3;

/// Repetitions of generation, trace drains, static reports and snapshot
/// calls; medians are kept.
const REPS: usize = 3;

/// Checkpoint periods of the `run_checkpointed` probe.
const PERIODS: u64 = 8;

/// Forwards every callback to the wrapped analysis and times about one in
/// 32 of them (a xorshift stream picks which, so no periodic pattern in the
/// callbacks biases the choice). Two clock reads per callback would cost
/// about as much as a FastTrack callback itself, so `busy_ns` scales the
/// sampled time up to all callbacks, after taking off what an empty timed
/// interval costs.
struct TimedAnalysis<A> {
    inner: A,
    access_calls: u64,
    sync_calls: u64,
    rng: u64,
    sampled: u64,
    sampled_ns: u64,
    clock_ns: u64,
}

impl<A> TimedAnalysis<A> {
    fn new(inner: A, clock_ns: u64) -> Self {
        TimedAnalysis {
            inner,
            access_calls: 0,
            sync_calls: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            sampled: 0,
            sampled_ns: 0,
            clock_ns,
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng & 31 != 0 {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let result = f(&mut self.inner);
        self.sampled_ns += (start.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        self.sampled += 1;
        result
    }

    fn busy_ns(&self) -> u64 {
        let calls = self.access_calls + self.sync_calls;
        (self.sampled_ns as u128 * calls as u128 / self.sampled.max(1) as u128) as u64
    }
}

impl<A: SharedDataAnalysis> SharedDataAnalysis for TimedAnalysis<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_access(&mut self, cx: AccessContext) {
        self.access_calls += 1;
        self.time(|a| a.on_access(cx));
    }
    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        self.access_calls += 1;
        self.time(|a| a.on_access_batch(run, costs));
    }
    fn on_access_run(
        &mut self,
        page: Vpn,
        kind: AccessKind,
        run: &[AccessContext],
        costs: &mut Vec<u64>,
    ) {
        self.access_calls += 1;
        self.time(|a| a.on_access_run(page, kind, run, costs));
    }
    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.sync_calls += 1;
        self.time(|a| a.on_acquire(thread, lock));
    }
    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.sync_calls += 1;
        self.time(|a| a.on_release(thread, lock));
    }
    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.sync_calls += 1;
        self.time(|a| a.on_fork(parent, child));
    }
    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.sync_calls += 1;
        self.time(|a| a.on_join(parent, child));
    }
    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        self.sync_calls += 1;
        self.time(|a| a.on_barrier(threads, id));
    }
    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.sync_calls += 1;
        self.time(|a| a.on_thread_exit(thread));
    }
    fn reports(&self) -> Vec<AnalysisReport> {
        self.inner.reports()
    }
    fn access_cost_cycles(&self) -> u64 {
        self.inner.access_cost_cycles()
    }
    fn last_access_cost_cycles(&self) -> u64 {
        self.inner.last_access_cost_cycles()
    }
    fn sync_cost_cycles(&self) -> u64 {
        self.inner.sync_cost_cycles()
    }
}

/// The median cost of an empty timed interval, in nanoseconds.
fn clock_cost_ns() -> u64 {
    let mut samples: Vec<f64> = (0..10_001)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] as u64
}

/// The `snapshot` probe of one spec, in aikido mode.
#[derive(Debug, Default)]
struct SnapshotProbe {
    bytes: u64,
    checkpoint_ms: Vec<f64>,
    from_bytes_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    periodic_ms: Vec<f64>,
}

/// Everything the traced run measured for one spec. Per-mode arrays follow
/// [`MODES`].
struct SpecRun {
    workload: Workload,
    refs: References,
    generate_ms: Vec<f64>,
    tracegen_ms: Vec<f64>,
    blocks: u64,
    report_ms: Vec<f64>,
    proven_private: usize,
    work_blocks: usize,
    untraced_ms: [Vec<f64>; 3],
    traced_ms: [Vec<f64>; 3],
    self_ms: [Vec<f64>; 3],
    busy_ms: [Vec<f64>; 3],
    null_ms: [Vec<f64>; 3],
    /// From the first traced round (the counts are deterministic).
    access_calls: [u64; 3],
    sync_calls: u64,
    stats: [FastTrackStats; 3],
    full_spills: SpillStats,
    snapshot: SnapshotProbe,
}

/// Generates `spec`, drains its traces, builds its static report and its
/// reference reports, each under a span.
fn prepare(spec: &WorkloadSpec, tracer: &mut Tracer, checks: &mut Checks) -> Option<SpecRun> {
    let mut generate_ms = Vec::new();
    let mut workload = None;
    for _ in 0..REPS {
        let span = tracer.enter("workloads.generate");
        let generated = Workload::generate(spec);
        generate_ms.push(tracer.exit(span));
        workload = Some(generated);
    }
    let workload = workload.expect("REPS > 0");

    let mut report_ms = Vec::new();
    let mut coverage = None;
    for _ in 0..REPS {
        let span = tracer.enter("staticcheck.report");
        let report = StaticReport::for_workload(&workload);
        report_ms.push(tracer.exit(span));
        coverage = Some(report.coverage);
    }
    let coverage = coverage.expect("REPS > 0");

    let refs = References::warm_up(&Simulator::default(), &workload, checks)?;

    // One untimed drain warms the generator; the timed ones follow.
    let mut blocks = drain_traces(&workload);
    let mut tracegen_ms = Vec::new();
    for _ in 0..REPS {
        let span = tracer.enter("workloads.tracegen");
        blocks = drain_traces(&workload);
        tracegen_ms.push(tracer.exit(span));
    }

    Some(SpecRun {
        workload,
        refs,
        generate_ms,
        tracegen_ms,
        blocks,
        report_ms,
        proven_private: coverage.proven_private,
        work_blocks: coverage.work_blocks,
        untraced_ms: Default::default(),
        traced_ms: Default::default(),
        self_ms: Default::default(),
        busy_ms: Default::default(),
        null_ms: Default::default(),
        access_calls: [0; 3],
        sync_calls: 0,
        stats: Default::default(),
        full_spills: SpillStats::default(),
        snapshot: SnapshotProbe::default(),
    })
}

/// Pulls every block of every thread through `ThreadTrace::next_into`;
/// returns the number of blocks.
fn drain_traces(workload: &Workload) -> u64 {
    let mut exec = BlockExec::default();
    let mut blocks = 0;
    for thread in workload.threads() {
        let mut trace = workload.thread_trace(thread);
        while trace.next_into(&mut exec) {
            blocks += 1;
        }
    }
    std::hint::black_box(&exec);
    blocks
}

/// One untraced, one traced and (in the analysed modes) one null-analysis
/// run of `mode`.
fn round(
    run: &mut SpecRun,
    m: usize,
    first: bool,
    clock_ns: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let sim = Simulator::default();
    let mode = MODES[m];
    let name = &run.workload.spec().name;

    let span = tracer.enter(format!("sim.run.{}", mode.label()));
    let result = sim.try_run(&run.workload, mode);
    run.untraced_ms[m].push(tracer.exit(span));
    checks.same(result, &run.refs.json[m], || {
        format!("{name} {}", mode.label())
    });

    let span = tracer.enter(format!("sim.run_with_analysis.{}", mode.label()));
    let mut analysis = TimedAnalysis::new(FastTrack::new(), clock_ns);
    let result = sim.try_run_with_analysis(&run.workload, mode, &mut analysis);
    run.traced_ms[m].push(tracer.exit(span));
    tracer.aggregate(
        span,
        format!("fasttrack.{}", mode.label()),
        analysis.busy_ns(),
    );
    run.self_ms[m].push(tracer.self_ms(span));
    run.busy_ms[m].push(analysis.busy_ns() as f64 / 1e6);
    let stats = *analysis.inner.stats();
    // run_with_analysis leaves the built-in FastTrack field unset.
    let result = result.map(|mut report| {
        report.fasttrack.get_or_insert(stats);
        report
    });
    checks.same(result, &run.refs.json[m], || {
        format!("{name} traced {}", mode.label())
    });
    if first {
        run.access_calls[m] = analysis.access_calls;
        run.stats[m] = stats;
        if mode == Mode::FullInstrumentation {
            run.sync_calls = analysis.sync_calls;
            run.full_spills = analysis.inner.spill_stats();
        }
    }

    if mode != Mode::Native {
        let span = tracer.enter(format!("sim.run_with_analysis.null.{}", mode.label()));
        let result = sim.try_run_with_analysis(&run.workload, mode, &mut NullAnalysis::new());
        run.null_ms[m].push(tracer.exit(span));
        let counts = run.refs.reports[m].counts;
        checks.record(result.is_ok_and(|r| r.counts == counts), || {
            format!(
                "{name} null-analysis {} changed the run counts",
                mode.label()
            )
        });
    }
}

/// Checkpoints the aikido run halfway, restores the image from its bytes,
/// resumes it, and runs it with `PERIODS` periodic checkpoints.
fn snapshot_probe(run: &mut SpecRun, tracer: &mut Tracer, checks: &mut Checks) {
    let sim = Simulator::default();
    let total = run.refs.reports[2].counts.block_execs;
    let periodic = Simulator::from_config(
        SimConfig::default().with_checkpoint_every(Some(total.div_ceil(PERIODS).max(1))),
    )
    .expect("a periodic checkpoint policy is a valid config");
    let want = &run.refs.json[2];
    let name = &run.workload.spec().name;
    for _ in 0..REPS {
        let span = tracer.enter("sim.checkpoint");
        let outcome = sim.checkpoint(&run.workload, Mode::Aikido, total / 2);
        run.snapshot.checkpoint_ms.push(tracer.exit(span));
        let Ok(CheckpointOutcome::Paused(image)) = outcome else {
            checks.record(false, || format!("{name}: checkpoint did not pause"));
            return;
        };
        let bytes = image.into_bytes();
        run.snapshot.bytes = bytes.len() as u64;

        let span = tracer.enter("snapshot.from_bytes");
        let restored = Snapshot::from_bytes(bytes);
        run.snapshot.from_bytes_ms.push(tracer.exit(span));
        let restored = match restored {
            Ok(restored) => restored,
            Err(err) => {
                checks.record(false, || format!("{name}: image rejected: {err}"));
                return;
            }
        };

        let span = tracer.enter("sim.resume");
        let result = sim.resume(&run.workload, &restored);
        run.snapshot.resume_ms.push(tracer.exit(span));
        checks.same(result, want, || format!("{name} resumed"));

        let span = tracer.enter("sim.run_checkpointed");
        let result = periodic.run_checkpointed(&run.workload, Mode::Aikido);
        run.snapshot.periodic_ms.push(tracer.exit(span));
        checks.same(result, want, || format!("{name} checkpointed"));
    }
}

/// What the `serve` probe measured.
struct ServeProbe {
    submit_us: Vec<f64>,
    drain_ms: Vec<f64>,
    serial_ms: f64,
    workers: usize,
    rejections: usize,
}

/// Runs each admitted request of the plan's batch directly and serially
/// (generate + `run_checkpointed`, what a fleet worker does), then submits
/// and drains the batch `REPS` times, checking each delivered report against
/// its direct run.
fn serve_probe(
    plan: &Plan,
    runs: &[SpecRun],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ServeProbe {
    let mut probe = ServeProbe {
        submit_us: Vec::new(),
        drain_ms: Vec::new(),
        serial_ms: 0.0,
        workers: 0,
        rejections: 0,
    };
    let mut direct = vec![String::new(); plan.requests.len()];
    for rep in 0..REPS {
        let mut submitted = Submitted::new(plan, Some(tracer));
        if rep == 0 {
            for &(_, i) in &submitted.admitted {
                let planned = &plan.requests[i];
                let request = &planned.request;
                let span = tracer.enter(format!("serve.direct.{}", request.mode.label()));
                let workload = Workload::generate(&request.effective_spec());
                let result = Simulator::from_config(request.config.clone())
                    .expect("plan configs are valid")
                    .run_checkpointed(&workload, request.mode);
                probe.serial_ms += tracer.exit(span);
                let want = &runs[planned.spec].refs.json[planned.mode];
                if let Some(report) =
                    checks.same(result, want, || format!("direct run of request {i}"))
                {
                    direct[i] = json(&report);
                }
            }
        }
        let span = tracer.enter("serve.drain");
        let report = submitted.service.drain();
        probe.drain_ms.push(tracer.exit(span));
        submitted.check(plan, &report, |i| direct[i].clone(), checks);
        probe
            .submit_us
            .extend(submitted.submit_ns.iter().map(|ns| ns / 1e3));
        probe.workers = submitted.workers;
        probe.rejections = submitted.rejected;
    }
    probe
}

/// The traced run of `plan` for about `seconds`; spans go to `spans_out`.
pub fn run(plan: &Plan, seconds: f64, spans_out: &Path) -> Option<(Vec<Metric>, Checks)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut runs = Vec::new();
    let mut parallel = Vec::new();
    for (i, spec) in plan.specs.iter().enumerate() {
        tracer.set_trace(i as u32);
        let mut run = prepare(spec, &mut tracer, &mut checks)?;
        parallel.push(parallel_probe::measure(
            &run.workload,
            &run.refs,
            &mut tracer,
            &mut checks,
        ));
        snapshot_probe(&mut run, &mut tracer, &mut checks);
        runs.push(run);
    }
    tracer.set_trace(plan.specs.len() as u32);
    let serve = serve_probe(plan, &runs, &mut tracer, &mut checks);

    let clock_ns = clock_cost_ns();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for (i, run) in runs.iter_mut().enumerate() {
            tracer.set_trace(i as u32);
            for k in 0..MODES.len() {
                let m = (rounds + k) % MODES.len();
                round(run, m, rounds == 0, clock_ns, &mut tracer, &mut checks);
            }
        }
        rounds += 1;
    }

    if let Err(err) = tracer.write(spans_out) {
        eprintln!("perfbench: could not write {}: {err}", spans_out.display());
    }
    for (name, count, total, own) in tracer.profile() {
        println!("span {name:<36} n={count:<5} total_ms={total:<12.3} self_ms={own:.3}");
    }
    let mut metrics = metrics(&runs, &serve);
    metrics.extend(parallel_probe::metrics(&parallel));
    Some((metrics, checks))
}

/// The per-layer metrics. Times are medians over rounds, summed over the
/// plan's specs; fractions are ratios of sums.
fn metrics(runs: &[SpecRun], serve: &ServeProbe) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&SpecRun) -> f64| runs.iter().map(f).sum::<f64>();
    let rounds = runs[0].untraced_ms[0].len();
    let mut out = Vec::new();
    let mut push = |name: String, unit: &'static str, value: f64, samples: usize| {
        out.push(Metric::new(name, unit, value, samples));
    };

    let tracegen = sum(&|r| median(&r.tracegen_ms));
    push(
        "workloads.generate_ms".into(),
        "ms",
        sum(&|r| median(&r.generate_ms)),
        REPS,
    );
    push("workloads.tracegen_ms".into(), "ms", tracegen, REPS);
    push(
        "workloads.blocks".into(),
        "count",
        sum(&|r| r.blocks as f64),
        1,
    );
    push(
        "staticcheck.report_ms".into(),
        "ms",
        sum(&|r| median(&r.report_ms)),
        REPS,
    );
    push(
        "staticcheck.proven_private_frac".into(),
        "frac",
        ratio(
            sum(&|r| r.proven_private as f64),
            sum(&|r| r.work_blocks as f64),
        ),
        1,
    );

    for (m, label) in [(1, "full"), (2, "aikido")] {
        let checked = |r: &SpecRun| (r.stats[m].reads + r.stats[m].writes) as f64;
        let same = |r: &SpecRun| (r.stats[m].read_same_epoch + r.stats[m].write_same_epoch) as f64;
        push(
            format!("fasttrack.busy_ms.{label}"),
            "ms",
            sum(&|r| median(&r.busy_ms[m])),
            rounds,
        );
        push(
            format!("fasttrack.calls.{label}"),
            "count",
            sum(&|r| r.access_calls[m] as f64),
            1,
        );
        push(
            format!("fasttrack.accesses_per_call.{label}"),
            "ratio",
            ratio(sum(&checked), sum(&|r| r.access_calls[m] as f64)),
            1,
        );
        push(
            format!("fasttrack.same_epoch_frac.{label}"),
            "frac",
            ratio(sum(&same), sum(&checked)),
            1,
        );
        push(
            format!("fasttrack.null_delta_ms.{label}"),
            "ms",
            sum(&|r| median(&r.untraced_ms[m]) - median(&r.null_ms[m])),
            rounds,
        );
    }
    push(
        "fasttrack.sync_calls".into(),
        "count",
        sum(&|r| r.sync_calls as f64),
        1,
    );
    push(
        "fasttrack.spills".into(),
        "count",
        sum(&|r| r.full_spills.spills as f64),
        1,
    );
    push(
        "fasttrack.boxed_overflows".into(),
        "count",
        sum(&|r| r.full_spills.boxed_overflows as f64),
        1,
    );

    for (m, mode) in MODES.iter().enumerate() {
        let label = mode.label();
        push(
            format!("sim.self_ms.{label}"),
            "ms",
            sum(&|r| median(&r.self_ms[m])) - tracegen,
            rounds,
        );
        push(
            format!("sim.run_ms_p50.{label}"),
            "ms",
            sum(&|r| median(&r.untraced_ms[m])),
            rounds,
        );
        push(
            format!("sim.run_ms_p90.{label}"),
            "ms",
            sum(&|r| percentile(&r.untraced_ms[m], 0.9)),
            rounds,
        );
        push(
            format!("trace.overhead_ms.{label}"),
            "ms",
            sum(&|r| median(&r.traced_ms[m]) - median(&r.untraced_ms[m])),
            rounds,
        );
    }

    let in_aikido = |f: &dyn Fn(&RunReport) -> u64| sum(&|r| f(&r.refs.reports[2]) as f64);
    push(
        "dbi.dispatches".into(),
        "count",
        in_aikido(&|r| r.code_cache.dispatches),
        1,
    );
    push(
        "dbi.blocks_built".into(),
        "count",
        in_aikido(&|r| r.code_cache.blocks_built),
        1,
    );
    push(
        "dbi.instrumented_frac".into(),
        "frac",
        ratio(
            in_aikido(&|r| r.counts.instrumented_accesses),
            in_aikido(&|r| r.counts.mem_accesses),
        ),
        1,
    );
    push("vm.exits".into(), "count", in_aikido(&|r| r.vm.vm_exits), 1);
    push(
        "vm.aikido_faults".into(),
        "count",
        in_aikido(&|r| r.vm.aikido_faults_delivered),
        1,
    );
    push(
        "vm.shadow_misses".into(),
        "count",
        in_aikido(&|r| r.vm.shadow_misses),
        1,
    );
    push(
        "sharing.faults_handled".into(),
        "count",
        in_aikido(&|r| r.sharing.faults_handled),
        1,
    );
    push(
        "sharing.shared_transitions".into(),
        "count",
        in_aikido(&|r| r.sharing.shared_transitions),
        1,
    );
    push(
        "sharing.shared_frac".into(),
        "frac",
        ratio(
            in_aikido(&|r| r.counts.shared_accesses),
            in_aikido(&|r| r.counts.mem_accesses),
        ),
        1,
    );

    push(
        "snapshot.bytes".into(),
        "bytes",
        sum(&|r| r.snapshot.bytes as f64),
        1,
    );
    push(
        "snapshot.checkpoint_ms".into(),
        "ms",
        sum(&|r| median(&r.snapshot.checkpoint_ms)),
        REPS,
    );
    push(
        "snapshot.from_bytes_ms".into(),
        "ms",
        sum(&|r| median(&r.snapshot.from_bytes_ms)),
        REPS,
    );
    push(
        "snapshot.resume_ms".into(),
        "ms",
        sum(&|r| median(&r.snapshot.resume_ms)),
        REPS,
    );
    push(
        "snapshot.periodic_ratio".into(),
        "ratio",
        ratio(
            sum(&|r| median(&r.snapshot.periodic_ms)),
            sum(&|r| median(&r.untraced_ms[2])),
        ),
        REPS,
    );

    push(
        "serve.submit_us".into(),
        "us",
        median(&serve.submit_us),
        serve.submit_us.len(),
    );
    let drain_ms = median(&serve.drain_ms);
    push("serve.drain_ms".into(), "ms", drain_ms, REPS);
    push(
        "serve.fleet_efficiency".into(),
        "ratio",
        ratio(serve.serial_ms, drain_ms * serve.workers as f64),
        REPS,
    );
    push(
        "serve.rejections".into(),
        "count",
        serve.rejections as f64,
        1,
    );
    out
}

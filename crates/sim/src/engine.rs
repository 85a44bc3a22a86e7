//! The simulator: scheduler, per-mode pipelines and cycle accounting.

use aikido_dbi::{BlockExecution, DbiEngine};
use aikido_fasttrack::FastTrack;
use aikido_shadow::{CacheLevel, DualShadow, RegionId, RegionKind, TranslationCache};
use aikido_sharing::AikidoSd;
use aikido_snapshot::{Snapshot, SnapshotError};
use aikido_types::{
    AccessContext, AccessKind, Addr, InstrId, MemRef, Operation, Prot, SharedDataAnalysis, SyncOp,
    ThreadId, Vpn,
};
use aikido_vm::{AikidoVm, TouchOutcome, VmConfig};
use aikido_workloads::{AccessWord, BlockExec, BlockShape, MemSlot, Step, Workload};

mod checkpoint;

use checkpoint::{
    check_stash, snapshot_meta_json, stashed_op, SchedState, AKSD_VERSION, AKVM_VERSION,
    DBIE_VERSION, FTRK_VERSION, META_VERSION, SCHD_VERSION, TCCH_VERSION,
};

use crate::config::{SimConfig, SimConfigError};
use crate::cost::CostModel;
use crate::epoch::{BlockStream, StreamPos, TraceSource};
use crate::report::{RunCounts, RunReport};

/// A recoverable simulation failure surfaced by the `try_` entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An epoch-engine block producer panicked. The commit thread drained
    /// the surviving lanes and shut the pool down cleanly; nothing from the
    /// failed epoch is merged and the partial run is discarded.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A snapshot failed validation during [`Simulator::resume`] (corrupt
    /// image, or state that does not match the workload being resumed).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::WorkerPanic { message } => {
                write!(f, "pool worker panicked: {message}")
            }
            SimError::Snapshot(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SnapshotError> for SimError {
    fn from(err: SnapshotError) -> Self {
        SimError::Snapshot(err)
    }
}

/// What [`Simulator::checkpoint`] (and [`Simulator::resume_until`]) produced:
/// either the run reached its end before the block target, or it paused at an
/// epoch boundary with its full state serialized.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// The workload ran to completion; no snapshot was taken. (Boxed: a
    /// report is an order of magnitude larger than a snapshot handle.)
    Completed(Box<RunReport>),
    /// The run paused once `counts.block_execs` reached the target; resuming
    /// the snapshot continues it byte-identically.
    Paused(Snapshot),
}

/// The record [`Simulator::try_run_with_occupancy`] pairs with a report:
/// accesses analysed per worker shard and accesses escalated to the commit
/// thread. Analysis always runs on the commit thread, so no run produces
/// one; the type remains only for the benchmark's within-run parallelism
/// probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Accesses analysed locally by each worker shard, indexed by shard.
    pub per_shard: Vec<u64>,
    /// Accesses analysed on the commit thread.
    pub escalated: u64,
}

impl ShardOccupancy {
    /// Total accesses the record covers.
    pub fn total(&self) -> u64 {
        self.per_shard.iter().sum::<u64>() + self.escalated
    }
}

/// How a workload is executed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Uninstrumented native execution (the slowdown baseline).
    Native,
    /// Conventional shared data analysis: every memory access instrumented
    /// (the paper's plain "FastTrack" configuration).
    FullInstrumentation,
    /// The Aikido pipeline: per-thread page protection, sharing detection,
    /// and instrumentation of shared-page instructions only.
    Aikido,
}

impl Mode {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Native => "native",
            Mode::FullInstrumentation => "full",
            Mode::Aikido => "aikido",
        }
    }

    /// Parses a mode from its [`Mode::label`] string — the inverse used by
    /// request-shaped APIs (the service control plane's `RunRequest` carries
    /// the label on the wire).
    pub fn from_label(label: &str) -> Option<Mode> {
        match label {
            "native" => Some(Mode::Native),
            "full" => Some(Mode::FullInstrumentation),
            "aikido" => Some(Mode::Aikido),
            _ => None,
        }
    }
}

impl serde::Serialize for Mode {
    fn json_write(&self, out: &mut String) {
        serde::write_json_string(self.label(), out);
    }
}

/// The three runs the paper compares for every benchmark.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Native (uninstrumented) run.
    pub native: RunReport,
    /// Fully instrumented analysis run.
    pub full: RunReport,
    /// Aikido-accelerated analysis run.
    pub aikido: RunReport,
}

impl Comparison {
    /// Slowdown of the fully instrumented run versus native (a Figure 5 bar).
    pub fn full_slowdown(&self) -> f64 {
        self.full.slowdown_vs(&self.native)
    }

    /// Slowdown of the Aikido run versus native (a Figure 5 bar).
    pub fn aikido_slowdown(&self) -> f64 {
        self.aikido.slowdown_vs(&self.native)
    }

    /// Speedup of Aikido over full instrumentation (>1 means Aikido wins).
    pub fn aikido_speedup(&self) -> f64 {
        if self.aikido.cycles == 0 {
            0.0
        } else {
            self.full.cycles as f64 / self.aikido.cycles as f64
        }
    }
}

/// Drives workloads through the Aikido stack (or its baselines) and produces
/// [`RunReport`]s.
#[derive(Debug, Clone)]
pub struct Simulator {
    cost: CostModel,
    config: SimConfig,
    /// Set only by [`Simulator::reference`]: run the unoptimised executor.
    /// Deliberately outside `config` — it is not serialized, not part of the
    /// snapshot identity, and not settable from JSON or the environment.
    reference: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Simulator {
    /// Entries in each thread's inline-check table (the simulator's model of
    /// the code Aikido emits in front of every access). Direct mapped: pages
    /// this many apart collide in the same slot.
    pub const INLINE_TLB_ENTRIES: usize = SIM_TLB_ENTRIES;

    /// Creates a simulator with the given cost model and the default
    /// [`SimConfig`] (scheduling quantum 8, sequential, all fast paths on).
    pub fn new(cost: CostModel) -> Self {
        Simulator {
            cost,
            config: SimConfig::default(),
            reference: false,
        }
    }

    /// The reference executor: the default configuration with every
    /// behaviour-neutral fast path swapped for its unoptimised counterpart —
    /// the scalar per-access loop instead of the batched block kernels, the
    /// enum `ShadowStore` FastTrack instead of packed shadow words, no
    /// inline-check tables (every access consults the VM) and no static
    /// pre-analysis plan. Every report, detector statistic, race and shadow
    /// state must equal [`Simulator::default`]'s byte for byte; the
    /// `reference_equivalence` suite and the `block_kernels` bench compare
    /// against it. It exists for equivalence checking only, so no
    /// [`SimConfig`], wire form or environment variable can select it.
    pub fn reference() -> Self {
        Simulator {
            reference: true,
            ..Self::default()
        }
    }

    /// Creates a simulator from a validated [`SimConfig`] with the default
    /// cost model. This is the request-shaped entry point: a serialized
    /// config (for example the `config` member of a service `RunRequest`)
    /// fully determines the simulator, and an invalid one is a structured
    /// [`SimConfigError`] instead of a clamp or a panic.
    pub fn from_config(config: SimConfig) -> Result<Self, SimConfigError> {
        Self::from_config_with_cost(config, CostModel::default())
    }

    /// [`Simulator::from_config`] with an explicit cost model.
    pub fn from_config_with_cost(
        config: SimConfig,
        cost: CostModel,
    ) -> Result<Self, SimConfigError> {
        config.validate()?;
        Ok(Simulator {
            cost,
            config,
            reference: false,
        })
    }

    /// The full configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Sets how many basic-block executions a thread runs before the
    /// round-robin scheduler switches to the next thread.
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        self.config.quantum = quantum.max(1);
        self
    }

    /// Sets how many OS worker threads the epoch engine uses for block
    /// production. `1` (the default) is the fully sequential reference path;
    /// any higher count runs trace generation on a worker pool while the
    /// commit thread retires blocks in logical-clock order, so reports are
    /// byte-identical at every worker count (see the `epoch` module docs —
    /// the `parallel_equivalence` integration suite pins this).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// The configured worker count (1 = sequential).
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Sets the periodic checkpoint policy [`Simulator::run_checkpointed`]
    /// follows (`None`, the default, disables it; `Some(0)` is clamped to
    /// `Some(1)` to mirror the other builders' lenient clamping — use
    /// [`SimConfig::validate`] for strict rejection).
    pub fn with_checkpoint_every(mut self, every: Option<u64>) -> Self {
        self.config.checkpoint_every = every.map(|n| n.max(1));
        self
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// A fresh instance of the FastTrack detector the built-in-analysis
    /// entry points construct: packed shadow words, or the enum reference
    /// store under [`Simulator::reference`]. Hand it to
    /// [`Simulator::run_with_analysis`] to inspect the detector after a run.
    pub fn new_fasttrack(&self) -> FastTrack {
        if self.reference {
            FastTrack::new().with_reference_store()
        } else {
            FastTrack::new()
        }
    }

    /// Runs `workload` in `mode` with a FastTrack race detector as the
    /// analysis (the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (see [`Simulator::try_run`] for the
    /// recoverable form).
    pub fn run(&self, workload: &Workload, mode: Mode) -> RunReport {
        self.try_run(workload, mode).expect("simulation failed")
    }

    /// Runs `workload` in `mode` with a FastTrack analysis, surfacing
    /// failures (such as a panicking epoch producer) as a structured
    /// [`SimError`] instead of panicking or hanging.
    pub fn try_run(&self, workload: &Workload, mode: Mode) -> Result<RunReport, SimError> {
        let mut analysis = self.new_fasttrack();
        let mut report = self.try_run_with_analysis(workload, mode, &mut analysis)?;
        report.fasttrack = Some(*analysis.stats());
        Ok(report)
    }

    /// [`Simulator::try_run`] paired with an always-`None` occupancy
    /// record. Analysis runs on the commit thread, so there is no shard
    /// split to report; this method exists only for the benchmark's
    /// within-run parallelism probe and goes when a benchmark change
    /// removes that probe.
    pub fn try_run_with_occupancy(
        &self,
        workload: &Workload,
        mode: Mode,
    ) -> Result<(RunReport, Option<ShardOccupancy>), SimError> {
        Ok((self.try_run(workload, mode)?, None))
    }

    /// Runs `workload` in `mode` with a caller-provided analysis tool.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (see
    /// [`Simulator::try_run_with_analysis`] for the recoverable form).
    pub fn run_with_analysis<A: SharedDataAnalysis>(
        &self,
        workload: &Workload,
        mode: Mode,
        analysis: &mut A,
    ) -> RunReport {
        self.try_run_with_analysis(workload, mode, analysis)
            .expect("simulation failed")
    }

    /// Runs `workload` in `mode` with a caller-provided analysis tool,
    /// surfacing failures as a structured [`SimError`].
    pub fn try_run_with_analysis<A: SharedDataAnalysis>(
        &self,
        workload: &Workload,
        mode: Mode,
        analysis: &mut A,
    ) -> Result<RunReport, SimError> {
        let mut run = Run::new(self, workload, mode, analysis);
        let mut states = run.initial_states();
        self.drive(workload, &mut run, &mut states, None)?;
        Ok(run.into_report())
    }

    /// Runs `workload` in `mode` under the configured periodic checkpoint
    /// policy (`SimConfig::checkpoint_every`, settable from the
    /// `AIKIDO_CHECKPOINT_EVERY` variable via
    /// [`SimConfig::from_env_overrides`]): every `N` block executions the run
    /// pauses at an epoch boundary, serializes its full state, re-validates
    /// the image from its own bytes (every section checksum is re-verified)
    /// and resumes from the *restored* state. With the policy unset this is
    /// exactly [`Simulator::try_run`]; with it set, the final report is
    /// still byte-identical to an uninterrupted run — that equivalence is
    /// what the crash-recovery suite pins.
    pub fn run_checkpointed(&self, workload: &Workload, mode: Mode) -> Result<RunReport, SimError> {
        if self.config.checkpoint_every.is_none() {
            return self.try_run(workload, mode);
        }
        self.run_checkpointed_from(workload, workload, mode)
    }

    /// [`Simulator::run_checkpointed`] with every period's block streams
    /// opened from `source` (the test seam behind the no-replay tests).
    fn run_checkpointed_from<S: TraceSource + ?Sized>(
        &self,
        workload: &Workload,
        source: &S,
        mode: Mode,
    ) -> Result<RunReport, SimError> {
        let every = self
            .config
            .checkpoint_every
            .expect("callers check for a checkpoint policy");
        let mut target = every;
        let mut outcome = self.checkpoint_from(workload, source, mode, target)?;
        loop {
            match outcome {
                CheckpointOutcome::Completed(report) => return Ok(*report),
                CheckpointOutcome::Paused(snapshot) => {
                    // Round-trip through raw bytes so every period re-runs
                    // the full integrity validation a crash recovery would.
                    let snapshot =
                        Snapshot::from_bytes(snapshot.into_bytes()).map_err(SimError::Snapshot)?;
                    target += every;
                    outcome = self.resume_from(workload, source, &snapshot, Some(target))?;
                }
            }
        }
    }

    /// Runs `workload` in `mode` with a FastTrack analysis until the run
    /// retires `after_blocks` block executions (a cumulative count), then
    /// pauses at the next scheduling-round boundary and serializes the full
    /// simulation state — scheduler, analysis clocks, hypervisor, sharing
    /// detector, DBI engine and translation cache. Returns
    /// [`CheckpointOutcome::Completed`] when the workload finishes first.
    pub fn checkpoint(
        &self,
        workload: &Workload,
        mode: Mode,
        after_blocks: u64,
    ) -> Result<CheckpointOutcome, SimError> {
        self.checkpoint_from(workload, workload, mode, after_blocks)
    }

    fn checkpoint_from<S: TraceSource + ?Sized>(
        &self,
        workload: &Workload,
        source: &S,
        mode: Mode,
        after_blocks: u64,
    ) -> Result<CheckpointOutcome, SimError> {
        let mut analysis = self.new_fasttrack();
        let mut run = Run::new(self, workload, mode, &mut analysis);
        let mut states = run.initial_states();
        let status = self.drive(source, &mut run, &mut states, Some(after_blocks))?;
        Ok(match status {
            ExecStatus::Paused => CheckpointOutcome::Paused(run.encode_snapshot(&states)),
            ExecStatus::Completed => {
                let mut report = run.into_report();
                report.fasttrack = Some(*analysis.stats());
                CheckpointOutcome::Completed(Box::new(report))
            }
        })
    }

    /// Resumes a run from `snapshot` and drives it to completion. The final
    /// report is byte-identical to the uninterrupted run's, at any worker
    /// count. The snapshot must have been taken for the same workload,
    /// scheduling quantum and cost model — a mismatch (or any corruption the
    /// container checksums missed) returns a structured
    /// [`SnapshotError`] naming the failing section and offset.
    pub fn resume(&self, workload: &Workload, snapshot: &Snapshot) -> Result<RunReport, SimError> {
        match self.resume_from(workload, workload, snapshot, None)? {
            CheckpointOutcome::Completed(report) => Ok(*report),
            CheckpointOutcome::Paused(_) => unreachable!("no block target was set"),
        }
    }

    /// Resumes a run from `snapshot` until it retires `after_blocks` *total*
    /// block executions (the same cumulative clock
    /// [`Simulator::checkpoint`] uses), pausing again at the next round
    /// boundary. Chained checkpoints compose: pause, serialize, restore,
    /// pause again — the final report never moves.
    pub fn resume_until(
        &self,
        workload: &Workload,
        snapshot: &Snapshot,
        after_blocks: u64,
    ) -> Result<CheckpointOutcome, SimError> {
        self.resume_from(workload, workload, snapshot, Some(after_blocks))
    }

    fn resume_from<S: TraceSource + ?Sized>(
        &self,
        workload: &Workload,
        source: &S,
        snapshot: &Snapshot,
        stop_after: Option<u64>,
    ) -> Result<CheckpointOutcome, SimError> {
        let mut reader = snapshot.reader()?;
        let mut meta = reader.section(*b"META", META_VERSION)?;
        let recorded = meta.get_str()?;
        let mode = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido]
            .into_iter()
            .find(|&mode| snapshot_meta_json(self, workload, mode) == recorded)
            .ok_or_else(|| {
                SnapshotError::new(
                    "META",
                    0,
                    "snapshot metadata does not match this run: workload spec, \
                     scheduling quantum or cost model differ",
                )
            })?;
        meta.finish()?;

        let mut schd = reader.section(*b"SCHD", SCHD_VERSION)?;
        let sched = SchedState::decode(&mut schd, workload)?;
        schd.finish()?;

        let mut ftrk = reader.section(*b"FTRK", FTRK_VERSION)?;
        let mut analysis = FastTrack::decode_snapshot(&mut ftrk)?;
        ftrk.finish()?;

        let mut tcch = reader.section(*b"TCCH", TCCH_VERSION)?;
        let cache = TranslationCache::decode_snapshot(&mut tcch)?;
        tcch.finish()?;

        let engine = if mode == Mode::Native {
            None
        } else {
            let mut dbie = reader.section(*b"DBIE", DBIE_VERSION)?;
            let engine = DbiEngine::decode_snapshot(workload.program_arc(), &mut dbie)?;
            dbie.finish()?;
            Some(engine)
        };
        let (vm, sd) = if mode == Mode::Aikido {
            let mut akvm = reader.section(*b"AKVM", AKVM_VERSION)?;
            let vm = AikidoVm::decode_snapshot(&mut akvm)?;
            akvm.finish()?;
            let mut aksd = reader.section(*b"AKSD", AKSD_VERSION)?;
            let sd = AikidoSd::decode_snapshot(&mut aksd)?;
            aksd.finish()?;
            (Some(vm), Some(sd))
        } else {
            (None, None)
        };
        reader.finish()?;

        let (mut run, mut states) = Run::from_restored(
            self,
            workload,
            mode,
            &mut analysis,
            vm,
            sd,
            engine,
            cache,
            sched,
        );
        let status = self.drive(source, &mut run, &mut states, stop_after)?;
        Ok(match status {
            ExecStatus::Paused => CheckpointOutcome::Paused(run.encode_snapshot(&states)),
            ExecStatus::Completed => {
                let mut report = run.into_report();
                report.fasttrack = Some(*analysis.stats());
                CheckpointOutcome::Completed(Box::new(report))
            }
        })
    }

    /// Drives `run` to completion (or to the `stop_after` block target) over
    /// the configured feed: sequential for one worker, the epoch-parallel
    /// engine otherwise. `source` supplies the per-thread block streams
    /// (always the workload itself outside tests); each slot's stream opens
    /// at its state's recorded position, so resuming a run is a seek, not a
    /// replay of the prefix. On a pause, every state's position is updated
    /// to where its stream stands.
    fn drive<'w, A: SharedDataAnalysis, S: TraceSource + ?Sized>(
        &self,
        source: &S,
        run: &mut Run<'_, 'w, A>,
        states: &mut [ThreadState],
        stop_after: Option<u64>,
    ) -> Result<ExecStatus, SimError> {
        let streams = open_streams(source, run.workload, states)?;
        if self.config.workers <= 1 || states.len() <= 1 {
            let mut feed = SeqFeed { traces: streams };
            let status = run.execute(&mut feed, states, stop_after);
            record_positions(source, &feed, states, status)?;
            return Ok(status);
        }
        let (status, panic) = std::thread::scope(|scope| {
            let mut feed = crate::epoch::spawn_producers(scope, streams, self.config.workers);
            let panic = feed.panic_handle();
            let status = run.execute(&mut feed, states, stop_after);
            let status = record_positions(source, &feed, states, status).map(|()| status);
            // Dropping the feed disconnects every lane, letting any
            // producer that ran ahead of the commit clock exit before the
            // scope joins it.
            drop(feed);
            (status, panic)
        });
        // Every producer has joined: the record is final. A recorded panic
        // outranks whatever the commit side salvaged — the run is truncated.
        let recorded = panic
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(message) = recorded {
            return Err(SimError::WorkerPanic { message });
        }
        Ok(status?)
    }

    /// Test seam: runs `workload` but pulls the per-thread block streams from
    /// `source` instead — how the fault-injection tests plant a panicking
    /// producer without touching the workload generator.
    #[cfg(test)]
    fn try_run_with_source<S: TraceSource + ?Sized>(
        &self,
        workload: &Workload,
        source: &S,
        mode: Mode,
    ) -> Result<RunReport, SimError> {
        let mut analysis = FastTrack::new();
        let mut run = Run::new(self, workload, mode, &mut analysis);
        let mut states = run.initial_states();
        self.drive(source, &mut run, &mut states, None)?;
        Ok(run.into_report())
    }

    /// Runs the native / full / Aikido triple the paper compares for every
    /// benchmark.
    pub fn compare(&self, workload: &Workload) -> Comparison {
        Comparison {
            native: self.run(workload, Mode::Native),
            full: self.run(workload, Mode::FullInstrumentation),
            aikido: self.run(workload, Mode::Aikido),
        }
    }
}

/// Where the scheduler's blocks come from: the sequential path pulls straight
/// from each thread's trace; the parallel path pops batches produced by the
/// epoch worker pool. `slot` indexes the workload's thread list, and every
/// implementation must yield the exact same per-slot stream — the scheduler
/// (and therefore every report) cannot tell the feeds apart.
pub(crate) trait BlockFeed {
    /// Moves `slot`'s next execution into `out` (reusing `out`'s access
    /// buffer); returns `false` once the slot's trace is exhausted.
    fn next_into(&mut self, slot: usize, out: &mut BlockExec) -> bool;

    /// Where `slot`'s stream stands: reopening it there yields exactly the
    /// executions this feed would deliver next.
    fn position(&self, slot: usize) -> StreamPos;
}

/// The sequential feed: one block stream per slot (a
/// [`aikido_workloads::ThreadTrace`] in production), consumed in place on
/// the scheduler thread. This is the reference path the parallel engine is
/// proven byte-identical against.
struct SeqFeed<T> {
    traces: Vec<T>,
}

impl<T: BlockStream> BlockFeed for SeqFeed<T> {
    #[inline]
    fn next_into(&mut self, slot: usize, out: &mut BlockExec) -> bool {
        self.traces[slot].next_into(out)
    }

    fn position(&self, slot: usize) -> StreamPos {
        StreamPos {
            cursor: self.traces[slot].cursor(),
            skip: 0,
        }
    }
}

/// Opens `thread`'s stream at `pos`: at the cursor, then `pos.skip`
/// executions further (regenerated and discarded — at most one epoch batch,
/// see [`StreamPos`]).
fn seek<'s, S: TraceSource + ?Sized>(
    source: &'s S,
    thread: ThreadId,
    pos: &StreamPos,
) -> Result<S::Stream<'s>, SnapshotError> {
    let mut stream = source.stream_at(thread, &pos.cursor);
    let mut scratch = BlockExec::default();
    for n in 0..pos.skip {
        if !stream.next_into(&mut scratch) {
            return Err(SnapshotError::new(
                "SCHD",
                0,
                format!(
                    "{thread}: trace exhausted {n} executions into a {}-execution skip",
                    pos.skip
                ),
            ));
        }
    }
    Ok(stream)
}

/// Opens every slot's stream at its state's position. A restored stashed
/// op is checked here, against the position just past it, which is only
/// known once the skip is regenerated.
fn open_streams<'s, S: TraceSource + ?Sized>(
    source: &'s S,
    workload: &Workload,
    states: &[ThreadState],
) -> Result<Vec<S::Stream<'s>>, SnapshotError> {
    states
        .iter()
        .map(|st| {
            let stream = seek(source, st.id, &st.at)?;
            if st.has_exec {
                check_stash(stashed_op(&st.exec), &stream.cursor().counters, workload).map_err(
                    |reason| SnapshotError::new("SCHD", 0, format!("{}: {reason}", st.id)),
                )?;
            }
            Ok(stream)
        })
        .collect()
}

/// After a pause, records where each slot's stream stands so the snapshot
/// can reopen it there. Positions are canonicalized to the exact cursor
/// (`skip == 0`): the epoch feed's batch-relative positions are regenerated
/// forward here — at most one batch per slot — so a checkpoint image is
/// byte-identical at every worker count.
fn record_positions<S: TraceSource + ?Sized, F: BlockFeed>(
    source: &S,
    feed: &F,
    states: &mut [ThreadState],
    status: ExecStatus,
) -> Result<(), SnapshotError> {
    if status == ExecStatus::Paused {
        for (slot, st) in states.iter_mut().enumerate() {
            let pos = feed.position(slot);
            st.at = StreamPos {
                cursor: match pos.skip {
                    0 => pos.cursor,
                    _ => seek(source, st.id, &pos)?.cursor(),
                },
                skip: 0,
            };
        }
    }
    Ok(())
}

/// Per-thread scheduling state.
///
/// `exec` is a reusable scratch buffer filled through the run's [`BlockFeed`],
/// so the scheduler's steady state performs no per-block allocation.
struct ThreadState {
    id: ThreadId,
    started: bool,
    finished: bool,
    exec: BlockExec,
    /// True if `exec` holds a produced-but-unconsumed execution (a blocked
    /// synchronisation operation waiting to retry).
    has_exec: bool,
    /// Where the slot's stream stands: its opening position when a run
    /// starts or resumes, and — after a pause — the position the snapshot
    /// records (just past `exec` when `has_exec` is set).
    at: StreamPos,
}

/// How [`Run::execute`] returned.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ExecStatus {
    /// Every started thread ran to completion.
    Completed,
    /// The block target was reached; the run paused at a round boundary.
    Paused,
}

struct Run<'a, 'w, A: SharedDataAnalysis> {
    sim: &'a Simulator,
    workload: &'w Workload,
    mode: Mode,
    analysis: &'a mut A,
    threads: Vec<ThreadId>,
    cycles: u64,
    counts: RunCounts,
    // Components (presence depends on mode).
    vm: Option<AikidoVm>,
    sd: Option<AikidoSd>,
    engine: Option<DbiEngine>,
    cache: TranslationCache,
    region_lookup: DualShadow,
    // Shared-region bounds for the contention model and for counting shared
    // accesses under full instrumentation.
    shared_range: (u64, u64),
    contention: f64,
    last_scheduled: Option<ThreadId>,
    /// Per-barrier arrival sets, indexed by barrier id (ids are small
    /// sequential integers). Dense so the scheduler's sync path performs no
    /// hashing.
    barrier_arrivals: Vec<ArrivalSet>,
    /// Completed barriers, indexed by barrier id.
    barriers_done: Vec<bool>,
    /// Which thread currently holds each lock; acquires of a held lock block
    /// the acquiring thread, exactly as a real mutex would. Indexed by raw
    /// lock id (workload lock ids are small sequential integers); the rare
    /// huge id spills into the scanned overflow list.
    lock_owners: Vec<Option<ThreadId>>,
    /// Owners of locks whose raw id exceeds the dense table.
    lock_owner_spill: Vec<(aikido_types::LockId, ThreadId)>,
    fatal_accesses: u64,
    /// The simulator's inline check, mirroring the code Aikido emits in front
    /// of every access (Figure 4): a per-thread direct-mapped table of pages
    /// whose accesses the hypervisor has already proven free. A hit skips the
    /// `vm.touch` call entirely. Sound because a free touch mutates no VM
    /// state, and every VM-mutating interaction clears the table.
    inline_tlb: Vec<[(Vpn, u8); SIM_TLB_ENTRIES]>,
    /// Memo of the last `(analysis base cost → contended cost)` conversion;
    /// the float multiply-and-round is deterministic in the base cost, and
    /// the analysis fast path reports the same base almost every access.
    last_contended_cost: (u64, u64),
    /// Reusable buffer of access contexts for one run, handed to
    /// [`SharedDataAnalysis::on_access_batch`] — no per-run allocation.
    cx_scratch: Vec<AccessContext>,
    /// Reusable buffer receiving the per-access analysis costs of one run.
    cost_scratch: Vec<u64>,
    /// Direct-mapped memo over *shared* pages: page → (region, mirror page).
    /// Pure memoization of monotone facts — sharing is sticky and the region
    /// and mirror displacements are fixed at setup — so entries never need
    /// invalidation, and a hit replaces one page-state read, one region
    /// lookup and one mirror translation per instrumented run with a single
    /// probe. Misses fall through to the authoritative lookups.
    shared_pages: Vec<SharedPageInfo>,
}

/// One [`Run::shared_pages`] entry.
#[derive(Copy, Clone)]
struct SharedPageInfo {
    /// The shared page, or `Vpn::new(u64::MAX)` for an empty slot.
    page: Vpn,
    /// The page's owning region (None: outside every registered region).
    region: Option<RegionId>,
    /// The page's mirror page.
    mirror: Vpn,
}

impl SharedPageInfo {
    const EMPTY: SharedPageInfo = SharedPageInfo {
        page: Vpn::new(u64::MAX),
        region: None,
        mirror: Vpn::new(u64::MAX),
    };
}

/// Which threads have arrived at one barrier: a flag per thread slot plus
/// the arrival count (insertion is idempotent, exactly like the `HashSet`
/// of thread ids it replaces).
#[derive(Clone, Debug, Default)]
struct ArrivalSet {
    arrived: Vec<bool>,
    count: usize,
}

impl ArrivalSet {
    fn insert(&mut self, thread: ThreadId) {
        let idx = thread.index();
        if idx >= self.arrived.len() {
            self.arrived.resize(idx + 1, false);
        }
        if !self.arrived[idx] {
            self.arrived[idx] = true;
            self.count += 1;
        }
    }
}

/// Raw lock ids below this bound use the dense owner table.
const DENSE_LOCKS: u64 = 1 << 12;

const MAX_FAULT_ITERATIONS: usize = 6;
/// Entries in each thread's inline-check table (power of two).
const SIM_TLB_ENTRIES: usize = 64;
/// Entries in the shared-page memo (power of two; comfortably above the
/// shared page count of every preset, so collisions stay rare).
const SHARED_PAGE_ENTRIES: usize = 256;
/// An inline-TLB slot that can never match a real page.
const SIM_TLB_EMPTY: (Vpn, u8) = (Vpn::new(u64::MAX), 0);
/// Runs shorter than this charge translations through the scalar call: the
/// batched cache pass only wins once its setup cost amortizes over the run.
const TRANSLATION_BATCH_MIN: usize = 4;

#[inline]
fn kind_bit(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

impl<'a, 'w, A: SharedDataAnalysis> Run<'a, 'w, A> {
    fn new(sim: &'a Simulator, workload: &'w Workload, mode: Mode, analysis: &'a mut A) -> Self {
        let threads = workload.threads();
        let layout = workload.layout();
        let shared_range = (
            layout.shared_base().raw(),
            layout.shared_base().raw() + layout.shared_bytes(),
        );
        let contention = sim.cost.contention_factor(threads.len() as u32);

        let mut region_lookup = DualShadow::new();
        for (base, pages) in layout.regions() {
            region_lookup
                .register_region(base, pages, RegionKind::Other)
                .expect("workload regions are disjoint");
        }

        let mut run = Run {
            sim,
            workload,
            mode,
            analysis,
            threads,
            cycles: 0,
            counts: RunCounts::default(),
            vm: None,
            sd: None,
            engine: None,
            cache: TranslationCache::new(),
            region_lookup,
            shared_range,
            contention,
            last_scheduled: None,
            barrier_arrivals: Vec::new(),
            barriers_done: Vec::new(),
            lock_owners: Vec::new(),
            lock_owner_spill: Vec::new(),
            fatal_accesses: 0,
            inline_tlb: Vec::new(),
            last_contended_cost: (u64::MAX, 0),
            cx_scratch: Vec::new(),
            cost_scratch: Vec::new(),
            shared_pages: vec![SharedPageInfo::EMPTY; SHARED_PAGE_ENTRIES],
        };
        run.setup();
        run
    }

    fn setup(&mut self) {
        match self.mode {
            Mode::Native => {}
            Mode::FullInstrumentation => {
                // Conventional pipeline: every memory instruction carries
                // instrumentation from the start.
                let mut engine = DbiEngine::new(self.workload.program_arc());
                for block in self.workload.program().iter() {
                    for (id, instr) in block.iter_ids() {
                        if instr.is_mem() {
                            engine.request_instrumentation(id);
                        }
                    }
                }
                self.engine = Some(engine);
            }
            Mode::Aikido => {
                let mut vm = AikidoVm::new(VmConfig::default());
                vm.register_thread(ThreadId::MAIN)
                    .expect("main thread registers once");
                let mut sd = AikidoSd::new();
                for (base, pages) in self.workload.layout().regions() {
                    vm.mmap(base, pages, Prot::RW_USER)
                        .expect("workload regions are disjoint");
                    sd.attach_region(&mut vm, base, pages)
                        .expect("regions attach cleanly");
                }
                let mut engine = DbiEngine::new(self.workload.program_arc());
                if !self.sim.reference {
                    // Run the static pre-analysis and hand its derived plan
                    // to the engine. The plan is advice: it stamps
                    // proven-private bits onto cached blocks (enabling the
                    // wide-block free fast path) and bounds the
                    // instrumentation the detector should ever request, but
                    // it cannot change what the analysis observes.
                    let report = aikido_staticcheck::StaticReport::for_workload(self.workload);
                    engine.install_static_plan(report.plan());
                }
                self.engine = Some(engine);
                self.vm = Some(vm);
                self.sd = Some(sd);
            }
        }
    }

    /// Reassembles a run from restored components, bypassing [`Run::setup`]
    /// entirely — the decoded VM, sharing detector, DBI engine, translation
    /// cache and scheduler state *are* the setup, exactly as they stood at
    /// the pause. Derived structures (region table, shared-range bounds,
    /// contention factor) are rebuilt from the workload, and the droppable
    /// memos (inline-check tables, shared-page memo, contended-cost memo)
    /// restart cold: all of them are pure accelerations whose absence is
    /// proven unobservable, so the resumed run stays byte-identical.
    #[allow(clippy::too_many_arguments)]
    fn from_restored(
        sim: &'a Simulator,
        workload: &'w Workload,
        mode: Mode,
        analysis: &'a mut A,
        vm: Option<AikidoVm>,
        sd: Option<AikidoSd>,
        engine: Option<DbiEngine>,
        cache: TranslationCache,
        sched: SchedState,
    ) -> (Self, Vec<ThreadState>) {
        let threads = workload.threads();
        let layout = workload.layout();
        let shared_range = (
            layout.shared_base().raw(),
            layout.shared_base().raw() + layout.shared_bytes(),
        );
        let contention = sim.cost.contention_factor(threads.len() as u32);
        let mut region_lookup = DualShadow::new();
        for (base, pages) in layout.regions() {
            region_lookup
                .register_region(base, pages, RegionKind::Other)
                .expect("workload regions are disjoint");
        }
        let states = threads
            .iter()
            .zip(&sched.slots)
            .map(|(&id, slot)| {
                let mut exec = BlockExec::default();
                if let Some(op) = slot.stash {
                    exec.block = workload.sync_block(op);
                    exec.step = Step::Sync(op);
                }
                ThreadState {
                    id,
                    started: slot.started,
                    finished: slot.finished,
                    exec,
                    has_exec: slot.stash.is_some(),
                    at: slot.at,
                }
            })
            .collect();
        let run = Run {
            sim,
            workload,
            mode,
            analysis,
            threads,
            cycles: sched.cycles,
            counts: sched.counts,
            vm,
            sd,
            engine,
            cache,
            region_lookup,
            shared_range,
            contention,
            last_scheduled: sched.last_scheduled,
            barrier_arrivals: sched.barrier_arrivals,
            barriers_done: sched.barriers_done,
            lock_owners: sched.lock_owners,
            lock_owner_spill: sched.lock_owner_spill,
            fatal_accesses: sched.fatal_accesses,
            inline_tlb: Vec::new(),
            last_contended_cost: (u64::MAX, 0),
            cx_scratch: Vec::new(),
            cost_scratch: Vec::new(),
            shared_pages: vec![SharedPageInfo::EMPTY; SHARED_PAGE_ENTRIES],
        };
        (run, states)
    }

    /// The per-slot scheduling states a fresh run starts from.
    fn initial_states(&self) -> Vec<ThreadState> {
        self.threads
            .iter()
            .map(|&id| ThreadState {
                id,
                started: id == ThreadId::MAIN,
                finished: false,
                exec: BlockExec::default(),
                has_exec: false,
                at: StreamPos {
                    cursor: self.workload.thread_trace(id).cursor(),
                    skip: 0,
                },
            })
            .collect()
    }

    /// Drives the round-robin scheduler until every started thread finishes
    /// ([`ExecStatus::Completed`]) or — when `stop_after` is set — until the
    /// run has retired that many block executions in total, pausing at the
    /// end of the scheduling round ([`ExecStatus::Paused`]). Pausing only at
    /// round boundaries keeps the checkpoint surface small: no thread is
    /// mid-quantum, so `states` plus the components is the whole state.
    fn execute<F: BlockFeed>(
        &mut self,
        feed: &mut F,
        states: &mut [ThreadState],
        stop_after: Option<u64>,
    ) -> ExecStatus {
        loop {
            let mut progress = false;
            for i in 0..states.len() {
                if !states[i].started || states[i].finished {
                    continue;
                }
                self.context_switch_to(states[i].id);
                let mut executed = 0;
                while executed < self.sim.config.quantum {
                    if !states[i].has_exec {
                        let st = &mut states[i];
                        if !feed.next_into(i, &mut st.exec) {
                            st.finished = true;
                            break;
                        }
                        st.has_exec = true;
                    }
                    match states[i].exec.step {
                        Step::Work => {
                            self.execute_work_block(states[i].id, &states[i].exec);
                            states[i].has_exec = false;
                            executed += 1;
                            progress = true;
                        }
                        step => {
                            let thread = states[i].id;
                            match self.execute_sync(thread, step, &mut *states) {
                                SyncOutcome::Done => {
                                    states[i].has_exec = false;
                                    executed += 1;
                                    progress = true;
                                }
                                SyncOutcome::Blocked => {
                                    // The execution stays stashed in `exec`
                                    // for the next scheduling round.
                                    break;
                                }
                                SyncOutcome::Exited => {
                                    states[i].finished = true;
                                    states[i].has_exec = false;
                                    progress = true;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            if !progress {
                break;
            }
            if let Some(stop) = stop_after {
                if self.counts.block_execs >= stop
                    && states.iter().any(|s| s.started && !s.finished)
                {
                    return ExecStatus::Paused;
                }
            }
        }
        debug_assert!(
            states.iter().all(|s| !s.started || s.finished),
            "scheduler ended with runnable threads (deadlock in the generated workload?)"
        );
        ExecStatus::Completed
    }

    fn context_switch_to(&mut self, thread: ThreadId) {
        if self.last_scheduled == Some(thread) {
            return;
        }
        if let (Some(vm), Some(prev)) = (self.vm.as_mut(), self.last_scheduled) {
            // The guest scheduler notifies the hypervisor of same-address-space
            // context switches through the inserted hypercall (§3.2.3).
            let _ = vm.hypercall(aikido_vm::Hypercall::ContextSwitch {
                from: prev,
                to: thread,
            });
            self.cycles += self.sim.cost.context_switch_cycles;
        }
        self.last_scheduled = Some(thread);
    }

    /// Executes a sync or exit block ([`Step::Work`] never reaches here).
    fn execute_sync(
        &mut self,
        thread: ThreadId,
        step: Step,
        states: &mut [ThreadState],
    ) -> SyncOutcome {
        match step {
            Step::Work => unreachable!("work blocks run through execute_work_block"),
            Step::Exit => {
                self.charge_sync();
                if self.mode != Mode::Native {
                    self.analysis.on_thread_exit(thread);
                }
                SyncOutcome::Exited
            }
            Step::Sync(op) => match op {
                SyncOp::Acquire(lock) => {
                    match self.lock_owner(lock) {
                        Some(owner) if owner != thread => return SyncOutcome::Blocked,
                        _ => {}
                    }
                    self.set_lock_owner(lock, Some(thread));
                    self.charge_sync();
                    if self.mode != Mode::Native {
                        self.analysis.on_acquire(thread, lock);
                        self.cycles += self.analysis.sync_cost_cycles();
                    }
                    SyncOutcome::Done
                }
                SyncOp::Release(lock) => {
                    debug_assert_eq!(self.lock_owner(lock), Some(thread));
                    self.set_lock_owner(lock, None);
                    self.charge_sync();
                    if self.mode != Mode::Native {
                        self.analysis.on_release(thread, lock);
                        self.cycles += self.analysis.sync_cost_cycles();
                    }
                    SyncOutcome::Done
                }
                SyncOp::Fork(child) => {
                    self.charge_sync();
                    if let Some(state) = states.iter_mut().find(|s| s.id == child) {
                        state.started = true;
                    }
                    if self.mode != Mode::Native {
                        self.analysis.on_fork(thread, child);
                        self.cycles += self.analysis.sync_cost_cycles();
                    }
                    if let (Some(vm), Some(sd)) = (self.vm.as_mut(), self.sd.as_mut()) {
                        let before = sd.stats().protection_hypercalls;
                        vm.register_thread(child).expect("forked thread is new");
                        sd.protect_thread(vm, child)
                            .expect("thread protection succeeds");
                        let hypercalls = sd.stats().protection_hypercalls - before + 1;
                        self.cycles += hypercalls * self.sim.cost.hypercall_cycles;
                        // Only the child's protections changed, and its lane
                        // is necessarily empty (fresh thread id).
                        if let Some(lane) = self.inline_tlb.get_mut(child.index()) {
                            *lane = [SIM_TLB_EMPTY; SIM_TLB_ENTRIES];
                        }
                    }
                    SyncOutcome::Done
                }
                SyncOp::Join(child) => {
                    let child_finished = states
                        .iter()
                        .find(|s| s.id == child)
                        .map(|s| s.finished)
                        .unwrap_or(true);
                    if !child_finished {
                        return SyncOutcome::Blocked;
                    }
                    self.charge_sync();
                    if self.mode != Mode::Native {
                        self.analysis.on_join(thread, child);
                        self.cycles += self.analysis.sync_cost_cycles();
                    }
                    SyncOutcome::Done
                }
                SyncOp::Barrier(id) => {
                    let slot = id as usize;
                    if self.barriers_done.get(slot).copied().unwrap_or(false) {
                        self.charge_sync();
                        return SyncOutcome::Done;
                    }
                    if slot >= self.barrier_arrivals.len() {
                        self.barrier_arrivals
                            .resize_with(slot + 1, ArrivalSet::default);
                    }
                    let arrivals = &mut self.barrier_arrivals[slot];
                    arrivals.insert(thread);
                    let count = arrivals.count;
                    let participants = states.iter().filter(|s| s.started && !s.finished).count();
                    if count >= participants {
                        self.barrier_arrivals[slot] = ArrivalSet::default();
                        if slot >= self.barriers_done.len() {
                            self.barriers_done.resize(slot + 1, false);
                        }
                        self.barriers_done[slot] = true;
                        self.charge_sync();
                        if self.mode != Mode::Native {
                            self.analysis.on_barrier(&self.threads, id);
                            self.cycles += self.analysis.sync_cost_cycles();
                        }
                        SyncOutcome::Done
                    } else {
                        SyncOutcome::Blocked
                    }
                }
            },
        }
    }

    /// The current owner of `lock` (dense table for small ids, spill list
    /// for the rest).
    fn lock_owner(&self, lock: aikido_types::LockId) -> Option<ThreadId> {
        if lock.raw() < DENSE_LOCKS {
            self.lock_owners.get(lock.raw() as usize).copied().flatten()
        } else {
            self.lock_owner_spill
                .iter()
                .find(|(l, _)| *l == lock)
                .map(|&(_, owner)| owner)
        }
    }

    /// Sets or clears the owner of `lock`.
    fn set_lock_owner(&mut self, lock: aikido_types::LockId, owner: Option<ThreadId>) {
        if lock.raw() < DENSE_LOCKS {
            let slot = lock.raw() as usize;
            if slot >= self.lock_owners.len() {
                self.lock_owners.resize(slot + 1, None);
            }
            self.lock_owners[slot] = owner;
        } else {
            self.lock_owner_spill.retain(|(l, _)| *l != lock);
            if let Some(owner) = owner {
                self.lock_owner_spill.push((lock, owner));
            }
        }
    }

    fn charge_sync(&mut self) {
        self.counts.sync_ops += 1;
        self.counts.dynamic_instrs += 1;
        self.cycles += self.sim.cost.sync_native_cycles;
        if self.mode != Mode::Native {
            self.cycles += self.sim.cost.dbi_overhead(1);
        }
    }

    /// Executes one work-block: dispatches to the batched per-mode kernel,
    /// or to the scalar loop under [`Simulator::reference`]. Both paths
    /// perform the same additions to the same counters in the same stateful
    /// order, so every report is byte-identical between them — the
    /// `reference_equivalence` suite and the `block_kernels` benchmark rely
    /// on exactly that.
    fn execute_work_block(&mut self, thread: ThreadId, exec: &BlockExec) {
        self.counts.block_execs += 1;
        if self.sim.reference {
            return self.execute_work_block_scalar(thread, exec);
        }
        match self.mode {
            Mode::Native => self.block_kernel_native(exec),
            Mode::FullInstrumentation => self.block_kernel_full(thread, exec),
            Mode::Aikido => self.block_kernel_aikido(thread, exec),
        }
    }

    /// The scalar reference implementation: decodes the execution into one
    /// [`Operation`] per static instruction and pays one mode dispatch, one
    /// engine probe and one `Option` unwrap per access. Runs only under
    /// [`Simulator::reference`], as the oracle the batched kernels are
    /// proven against.
    fn execute_work_block_scalar(&mut self, thread: ThreadId, exec: &BlockExec) {
        if let Some(engine) = self.engine.as_mut() {
            let result = engine.execute_block(exec.block);
            if result.built {
                self.cycles += self.sim.cost.block_build(result.instr_count as u64);
            }
        }

        for op in exec.operations(self.workload) {
            self.counts.dynamic_instrs += op.instruction_count();
            match op {
                Operation::Compute { count } => {
                    let n = count as u64;
                    self.cycles += n * self.sim.cost.alu_cycles;
                    if self.mode != Mode::Native {
                        self.cycles += self.sim.cost.dbi_overhead(n);
                    }
                }
                Operation::Mem(m) => self.execute_mem(thread, &m),
                Operation::Sync(_) | Operation::Exit => {
                    unreachable!("work blocks decode to compute and memory operations only")
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched block kernels
    // ------------------------------------------------------------------
    //
    // The scalar loop above pays a mode dispatch, two `Option` probes, an
    // engine query and a cost-model field walk for *every* access. The
    // monomorphized kernels below hoist all of that to block entry and then
    // walk the block's [`BlockShape`] and the execution's access words
    // together, processing memory accesses in *runs* — maximal groups of
    // consecutive accesses sharing `(page, kind, instrumented)`; compute
    // instructions between them do not split a run — so each run performs
    // one instrumentation-mask test, one sharing-view page-state read, one
    // inline-check probe and one batched analysis delivery. Equivalence with
    // the scalar loop is by construction, not by luck: every charge is the
    // same u64 added the same number of times, and every *stateful* call
    // (translation cache, analysis, VM touch, fault handling) happens in the
    // same order per component. The soundness arguments for each hoist:
    //
    // * instrumentation mask: a fault can only instrument the faulting
    //   access's own instruction, and each static instruction occupies one
    //   slot of the block, so decisions for *other* slots cannot change
    //   mid-block — the mask snapshot at block entry stays exact;
    // * page-state read: `Shared` is sticky and transitions happen only
    //   inside fault handling, so one read covers a run until the next slow
    //   access (see `SharingView::is_shared_page`);
    // * inline-check probe: probes have no side effects, and a hit for
    //   `(page, kind)` covers every remaining access of the run because only
    //   VM interactions (which the hit skips) can invalidate it;
    // * region lookup: the region table is fixed at run construction and
    //   workload regions are page-aligned, so one lookup covers a page.

    /// Native kernel: no engine, no analysis — the block's shape alone
    /// gives the counts and native cycles.
    fn block_kernel_native(&mut self, exec: &BlockExec) {
        let shape = self.workload.shape(exec.block);
        let mems = shape.slots().len() as u64;
        let computes = u64::from(shape.computes());
        self.counts.dynamic_instrs += u64::from(shape.instrs());
        self.counts.mem_accesses += mems;
        self.cycles += computes * self.sim.cost.alu_cycles + mems * self.sim.cost.mem_cycles;
    }

    /// Charges a block's compute instructions under instrumentation (one
    /// dynamic instruction and one DBI dispatch each).
    fn charge_computes(&mut self, shape: &BlockShape) {
        let computes = u64::from(shape.computes());
        self.counts.dynamic_instrs += computes;
        self.cycles += computes * (self.sim.cost.alu_cycles + self.sim.cost.dbi_overhead(1));
    }

    /// Full-instrumentation kernel: every access is instrumented, so runs
    /// need no mask — split on `(page, kind)` and batch the analysis.
    fn block_kernel_full(&mut self, thread: ThreadId, exec: &BlockExec) {
        let engine = self
            .engine
            .as_mut()
            .expect("full instrumentation has a dbi engine");
        let result = engine.execute_block(exec.block);
        if result.built {
            self.cycles += self.sim.cost.block_build(result.instr_count as u64);
        }
        let shape = self.workload.shape(exec.block);
        self.charge_computes(shape);
        let all = AccessRun::of(shape, exec);
        let mut i = 0;
        while i < all.len() {
            let j = all.run_end(i);
            let word = all.words[i];
            self.full_run(thread, all.range(i, j), word.page(), word.kind());
            i = j;
        }
    }

    /// Aikido kernel: runs additionally split on each slot's instrumented
    /// bit, and each run resolves its fast path (free / instrumented-private
    /// / instrumented-shared) once instead of per access.
    fn block_kernel_aikido(&mut self, thread: ThreadId, exec: &BlockExec) {
        let engine = self.engine.as_mut().expect("aikido mode has a dbi engine");
        let result = engine.execute_block(exec.block);
        if result.built {
            self.cycles += self.sim.cost.block_build(result.instr_count as u64);
        }
        let shape = self.workload.shape(exec.block);
        debug_assert_eq!(shape.instrs() as usize, result.instr_count);
        self.charge_computes(shape);
        let all = AccessRun::of(shape, exec);
        // A block is whole-block free when its exact mask is empty, or when
        // the static pre-analysis proved it thread-private and no fault has
        // instrumented any of its memory instructions — the latter covers
        // blocks too wide for an exact mask. The instrumented-count guard
        // keeps the condition delivery-preserving even under an unsound
        // claim: any actually-instrumented block takes the per-slot path,
        // and free runs still probe and fault exactly like it, so reports
        // cannot depend on the claim being true.
        let whole_block_free = (result.mask_exact && result.instr_mask == 0)
            || (result.static_private && result.instrumented_mem_instrs == 0);
        if whole_block_free {
            // The steady state for every block no fault has ever
            // instrumented. Charge the accesses in one batch and probe them
            // with a single borrow of the thread's inline-check lane; only
            // from the first missing run on do runs fall into the
            // per-access machinery. A miss is always at a run start: every
            // access of a run probes the same `(page, kind)`.
            let mems = all.len() as u64;
            self.counts.dynamic_instrs += mems;
            self.counts.mem_accesses += mems;
            self.cycles += mems * (self.sim.cost.mem_cycles + self.sim.cost.dbi_overhead(1));
            let first_miss = match self.inline_tlb.get(thread.index()) {
                Some(lane) => all.words.iter().position(|word| {
                    let page = word.page();
                    let (cached, kinds) = lane[(page.raw() as usize) & (SIM_TLB_ENTRIES - 1)];
                    cached != page || kinds & kind_bit(word.kind()) == 0
                }),
                None => Some(0),
            };
            let mut i = first_miss.unwrap_or(all.len());
            while i < all.len() {
                let j = all.run_end(i);
                let word = all.words[i];
                self.aikido_free_run_slow(thread, all.range(i, j), word.page(), word.kind());
                i = j;
            }
            return;
        }
        let mut i = 0;
        while i < all.len() {
            let key = all.words[i].run_key();
            let instrumented = self.slot_instrumented(&result, all.slots[i].instr);
            let mut j = i + 1;
            while j < all.len()
                && all.words[j].run_key() == key
                && self.slot_instrumented(&result, all.slots[j].instr) == instrumented
            {
                j += 1;
            }
            let word = all.words[i];
            let run = all.range(i, j);
            if instrumented {
                self.aikido_instrumented_run(thread, run, word.page(), word.kind());
            } else {
                self.aikido_free_run(thread, run, word.page(), word.kind());
            }
            i = j;
        }
    }

    /// Whether `instr` of the block `result` describes runs instrumented:
    /// one shift of the block-entry mask when it is exact, the engine's
    /// decision set otherwise (blocks wider than the mask).
    #[inline]
    fn slot_instrumented(&self, result: &BlockExecution, instr: InstrId) -> bool {
        if result.mask_exact {
            (result.instr_mask >> instr.index()) & 1 != 0
        } else {
            self.engine
                .as_ref()
                .expect("aikido mode has a dbi engine")
                .is_instrumented(instr)
        }
    }

    /// One `(page, kind)` run under full instrumentation.
    fn full_run(&mut self, thread: ThreadId, run: AccessRun<'_>, page: Vpn, kind: AccessKind) {
        let n = run.len() as u64;
        self.counts.dynamic_instrs += n;
        self.counts.mem_accesses += n;
        self.counts.instrumented_accesses += n;
        self.cycles += n * (self.sim.cost.mem_cycles + self.sim.cost.dbi_overhead(1));
        let first = run.words[0].addr();
        let shared = self.in_shared_region(first);
        if shared {
            self.counts.shared_accesses += n;
        }
        // One region lookup covers the run (regions are page-aligned), one
        // batched cache pass prices the per-instruction translation levels,
        // and one run delivery lets the analysis resolve its metadata slab
        // once for the whole page.
        let region = self.region_lookup.region_id_of(first);
        self.charge_translation_run(thread, region, run);
        self.charge_analysis_run(thread, run, shared, page, kind);
    }

    /// One uninstrumented run in Aikido mode: the emitted fast path. A
    /// single inline-check probe covers the whole run; only while it misses
    /// do accesses fall into the VM one at a time.
    fn aikido_free_run(
        &mut self,
        thread: ThreadId,
        run: AccessRun<'_>,
        page: Vpn,
        kind: AccessKind,
    ) {
        let n = run.len() as u64;
        self.counts.dynamic_instrs += n;
        self.counts.mem_accesses += n;
        self.cycles += n * (self.sim.cost.mem_cycles + self.sim.cost.dbi_overhead(1));
        self.aikido_free_run_slow(thread, run, page, kind);
    }

    /// The probe-and-fault part of a free run, with the counting already
    /// done by the caller.
    fn aikido_free_run_slow(
        &mut self,
        thread: ThreadId,
        run: AccessRun<'_>,
        page: Vpn,
        kind: AccessKind,
    ) {
        let mut rest = run.iter();
        while !self.inline_tlb_hit(thread, page, kind) {
            let Some(m) = rest.next() else { return };
            self.access_with_fault_handling(thread, &m);
        }
    }

    /// Probes the shared-page memo for `page`.
    #[inline]
    fn shared_page_probe(&self, page: Vpn) -> Option<SharedPageInfo> {
        let entry = self.shared_pages[(page.raw() as usize) & (SHARED_PAGE_ENTRIES - 1)];
        (entry.page == page).then_some(entry)
    }

    /// One instrumented run in Aikido mode. The page-state read happens once
    /// per slow step instead of once per access: a `Shared` answer covers the
    /// whole remaining run (shared is sticky), an unshared answer stays valid
    /// until the next VM interaction.
    fn aikido_instrumented_run(
        &mut self,
        thread: ThreadId,
        run: AccessRun<'_>,
        page: Vpn,
        kind: AccessKind,
    ) {
        let n = run.len() as u64;
        self.counts.dynamic_instrs += n;
        self.counts.mem_accesses += n;
        self.counts.instrumented_accesses += n;
        self.cycles += n * (self.sim.cost.mem_cycles + self.sim.cost.dbi_overhead(1));
        // A memo hit proves the page shared (sharing is sticky) with its
        // region and mirror already resolved — the common steady state for
        // instrumented instructions, since they were instrumented *because*
        // their pages are shared.
        if let Some(info) = self.shared_page_probe(page) {
            self.aikido_shared_tail(thread, run, kind, info);
            return;
        }
        let first = run.words[0].addr();
        let region = self.region_lookup.region_id_of(first);
        for idx in 0..run.len() {
            let shared = self
                .sd
                .as_ref()
                .expect("aikido mode has a sharing detector")
                .read_view()
                .is_shared_page(page);
            if shared {
                let info = self.resolve_shared_page(page, region, first);
                self.aikido_shared_tail(thread, run.range(idx, run.len()), kind, info);
                return;
            }
            let m = run.mem(idx);
            self.charge_translation_resolved(thread, m.instr, region);
            if m.mode.is_indirect() {
                self.cycles += self.sim.cost.indirect_check_cycles;
            }
            if self.inline_tlb_hit(thread, page, kind) {
                // Proven free for (page, kind): the rest of the run charges
                // only its translations and indirect checks — the page cannot
                // become shared without a VM interaction the hit skips.
                let rest = run.range(idx + 1, run.len());
                self.charge_translation_run(thread, region, rest);
                let indirect = rest.slots.iter().filter(|s| s.mode.is_indirect()).count();
                self.cycles += indirect as u64 * self.sim.cost.indirect_check_cycles;
                return;
            }
            self.access_with_fault_handling(thread, &m);
        }
    }

    /// Resolves the mirror page of a page just observed shared and installs
    /// the memo entry (mirror translation failures are never cached — they
    /// keep taking the authoritative per-access path).
    fn resolve_shared_page(
        &mut self,
        page: Vpn,
        region: Option<RegionId>,
        addr: Addr,
    ) -> SharedPageInfo {
        let mirror = self
            .sd
            .as_ref()
            .expect("aikido mode has a sharing detector")
            .mirror_addr(addr)
            .map(|m| m.page());
        match mirror {
            Ok(mirror) => {
                let info = SharedPageInfo {
                    page,
                    region,
                    mirror,
                };
                self.shared_pages[(page.raw() as usize) & (SHARED_PAGE_ENTRIES - 1)] = info;
                info
            }
            Err(_) => SharedPageInfo {
                page,
                region,
                mirror: Vpn::new(u64::MAX),
            },
        }
    }

    /// The shared remainder of an instrumented run: batch-charge translation,
    /// analysis (contended) and redirection, then drive the mirror accesses
    /// through one probe — same app page means same mirror page.
    fn aikido_shared_tail(
        &mut self,
        thread: ThreadId,
        tail: AccessRun<'_>,
        kind: AccessKind,
        info: SharedPageInfo,
    ) {
        let k = tail.len() as u64;
        self.counts.shared_accesses += k;
        self.charge_translation_run(thread, info.region, tail);
        self.charge_analysis_run(thread, tail, true, info.page, kind);
        self.cycles += k * self.sim.cost.mirror_redirect_cycles;
        if info.mirror == Vpn::new(u64::MAX) {
            // No mirror translation exists: each access fails exactly like
            // the scalar loop's per-access `access_via_mirror` would.
            self.fatal_accesses += k;
            return;
        }
        let mut rest = tail.iter();
        while !self.inline_tlb_hit(thread, info.mirror, kind) {
            let Some(m) = rest.next() else { return };
            self.access_via_mirror(thread, &m);
        }
    }

    /// Charges one shadow translation with the region already resolved.
    #[inline]
    fn charge_translation_resolved(
        &mut self,
        thread: ThreadId,
        instr: InstrId,
        region: Option<RegionId>,
    ) {
        match region {
            Some(region) => {
                let level = self.cache.access(thread, instr, region);
                self.cycles += self.sim.cost.shadow_translation(level);
            }
            None => self.cycles += self.sim.cost.shadow_full_cycles,
        }
    }

    /// Charges one run of shadow translations in a single batched cache pass
    /// (one lane lookup instead of one per access). The cache's state
    /// evolution and statistics are identical to the per-access loop by
    /// construction — see [`TranslationCache::access_run`] — and the cycle
    /// total is the same sum grouped by level.
    fn charge_translation_run(
        &mut self,
        thread: ThreadId,
        region: Option<RegionId>,
        run: AccessRun<'_>,
    ) {
        let Some(region) = region else {
            self.cycles += run.len() as u64 * self.sim.cost.shadow_full_cycles;
            return;
        };
        if run.len() < TRANSLATION_BATCH_MIN {
            // Short runs dominate these access patterns; the scalar calls
            // beat the batch setup until the lane hoist amortizes.
            for slot in run.slots {
                let level = self.cache.access(thread, slot.instr, region);
                self.cycles += self.sim.cost.shadow_translation(level);
            }
            return;
        }
        let levels = self
            .cache
            .access_run(thread, region, run.slots.iter().map(|slot| slot.instr));
        self.cycles += levels.inline * self.sim.cost.shadow_translation(CacheLevel::Inline)
            + levels.thread_local * self.sim.cost.shadow_translation(CacheLevel::ThreadLocal)
            + levels.full * self.sim.cost.shadow_translation(CacheLevel::Full);
    }

    /// Delivers one run to the analysis in a single batched call and charges
    /// the per-access costs in access order, preserving the contended-cost
    /// memo's state evolution exactly. The run's page and kind ride along so
    /// slab-backed analyses resolve their metadata slab once per run.
    fn charge_analysis_run(
        &mut self,
        thread: ThreadId,
        run: AccessRun<'_>,
        shared: bool,
        page: Vpn,
        kind: AccessKind,
    ) {
        // A batch of one is the scalar call (the batched analysis entry point
        // delivers its first element through `on_access`); skip the scratch
        // round-trip. This is the common case — consecutive accesses rarely
        // share a page.
        if run.len() == 1 {
            self.charge_analysis_access(thread, &run.mem(0), shared);
            return;
        }
        self.cx_scratch.clear();
        self.cx_scratch.extend(run.iter().map(|m| AccessContext {
            thread,
            addr: m.addr,
            kind: m.kind,
            size: m.size,
            instr: m.instr,
        }));
        self.analysis
            .on_access_run(page, kind, &self.cx_scratch, &mut self.cost_scratch);
        if shared {
            let mut total = 0u64;
            for idx in 0..self.cost_scratch.len() {
                let base = self.cost_scratch[idx];
                let cost = if self.last_contended_cost.0 == base {
                    self.last_contended_cost.1
                } else {
                    let contended = (base as f64 * self.contention).round() as u64;
                    self.last_contended_cost = (base, contended);
                    contended
                };
                total += cost;
            }
            self.cycles += total;
        } else {
            self.cycles += self.cost_scratch.iter().sum::<u64>();
        }
    }

    /// True if the inline check proves this access free (no VM involvement).
    /// Always false for reference runs, whose tables are never filled.
    #[inline]
    fn inline_tlb_hit(&self, thread: ThreadId, page: Vpn, kind: AccessKind) -> bool {
        match self.inline_tlb.get(thread.index()) {
            Some(lane) => {
                let (cached, kinds) = lane[(page.raw() as usize) & (SIM_TLB_ENTRIES - 1)];
                cached == page && kinds & kind_bit(kind) != 0
            }
            None => false,
        }
    }

    /// Records a proven-free `(thread, page, kind)` access (never under
    /// [`Simulator::reference`], which routes every access to `vm.touch`).
    #[inline]
    fn inline_tlb_fill(&mut self, thread: ThreadId, page: Vpn, kind: AccessKind) {
        if self.sim.reference {
            return;
        }
        let idx = thread.index();
        if idx >= self.inline_tlb.len() {
            self.inline_tlb
                .resize_with(idx + 1, || [SIM_TLB_EMPTY; SIM_TLB_ENTRIES]);
        }
        let slot = &mut self.inline_tlb[idx][(page.raw() as usize) & (SIM_TLB_ENTRIES - 1)];
        if slot.0 == page {
            slot.1 |= kind_bit(kind);
        } else {
            *slot = (page, kind_bit(kind));
        }
    }

    /// Drops every inline-check entry; the catch-all for VM-state changes
    /// that are not page-targeted (temporary-unprotection restores).
    fn inline_tlb_clear(&mut self) {
        for lane in &mut self.inline_tlb {
            *lane = [SIM_TLB_EMPTY; SIM_TLB_ENTRIES];
        }
    }

    /// Drops any entry for `page` in every thread's table — used after the
    /// sharing detector changes that page's protections. A page can only live
    /// in its own direct-mapped slot.
    fn inline_tlb_invalidate_page(&mut self, page: Vpn) {
        let slot = (page.raw() as usize) & (SIM_TLB_ENTRIES - 1);
        for lane in &mut self.inline_tlb {
            if lane[slot].0 == page {
                lane[slot] = SIM_TLB_EMPTY;
            }
        }
    }

    fn in_shared_region(&self, addr: Addr) -> bool {
        addr.raw() >= self.shared_range.0 && addr.raw() < self.shared_range.1
    }

    fn charge_analysis_access(&mut self, thread: ThreadId, m: &MemRef, shared: bool) {
        let cx = AccessContext {
            thread,
            addr: m.addr,
            kind: m.kind,
            size: m.size,
            instr: m.instr,
        };
        self.analysis.on_access(cx);
        let base = self.analysis.last_access_cost_cycles();
        let cost = if shared {
            if self.last_contended_cost.0 == base {
                self.last_contended_cost.1
            } else {
                let contended = (base as f64 * self.contention).round() as u64;
                self.last_contended_cost = (base, contended);
                contended
            }
        } else {
            base
        };
        self.cycles += cost;
    }

    fn charge_translation(&mut self, thread: ThreadId, m: &MemRef) {
        if let Some(region) = self.region_lookup.region_id_of(m.addr) {
            let level = self.cache.access(thread, m.instr, region);
            self.cycles += self.sim.cost.shadow_translation(level);
        } else {
            self.cycles += self.sim.cost.shadow_full_cycles;
        }
    }

    fn execute_mem(&mut self, thread: ThreadId, m: &MemRef) {
        self.counts.mem_accesses += 1;
        self.cycles += self.sim.cost.mem_cycles;
        match self.mode {
            Mode::Native => {}
            Mode::FullInstrumentation => {
                self.cycles += self.sim.cost.dbi_overhead(1);
                self.counts.instrumented_accesses += 1;
                let shared = self.in_shared_region(m.addr);
                if shared {
                    self.counts.shared_accesses += 1;
                }
                self.charge_translation(thread, m);
                self.charge_analysis_access(thread, m, shared);
            }
            Mode::Aikido => {
                self.cycles += self.sim.cost.dbi_overhead(1);
                let instrumented = self
                    .engine
                    .as_ref()
                    .map(|e| e.is_instrumented(m.instr))
                    .unwrap_or(false);
                if instrumented {
                    self.counts.instrumented_accesses += 1;
                    // The emitted code translates the address and checks the
                    // page's sharing state before deciding which path to take
                    // (Figure 4 of the paper).
                    self.charge_translation(thread, m);
                    // Lock-free page-state read (Figure 4's emitted check):
                    // the view types the fast path as read-only, transitions
                    // stay serialized on the commit clock.
                    let shared = self
                        .sd
                        .as_ref()
                        .map(|sd| sd.read_view().is_shared_addr(m.addr))
                        .unwrap_or(false);
                    if shared {
                        self.counts.shared_accesses += 1;
                        self.charge_analysis_access(thread, m, true);
                        self.cycles += self.sim.cost.mirror_redirect_cycles;
                        self.access_via_mirror(thread, m);
                    } else {
                        if m.mode.is_indirect() {
                            self.cycles += self.sim.cost.indirect_check_cycles;
                        }
                        self.access_with_fault_handling(thread, m);
                    }
                } else {
                    self.access_with_fault_handling(thread, m);
                }
            }
        }
    }

    fn access_via_mirror(&mut self, thread: ThreadId, m: &MemRef) {
        if self.sd.is_none() || self.vm.is_none() {
            return;
        }
        let mirror = match self.sd.as_ref().expect("checked above").mirror_addr(m.addr) {
            Ok(mirror) => mirror,
            Err(_) => {
                self.fatal_accesses += 1;
                return;
            }
        };
        let page = mirror.page();
        if self.inline_tlb_hit(thread, page, m.kind) {
            return;
        }
        let vm = self.vm.as_mut().expect("checked above");
        match vm.touch(thread, mirror, m.kind) {
            Ok(touch) => {
                if !touch.charges.is_free() {
                    self.cycles += self.sim.cost.vm_charges(&touch.charges);
                    if touch.charges.temp_reprotections > 0 {
                        self.inline_tlb_clear();
                    }
                }
                if matches!(touch.outcome, TouchOutcome::Ok) {
                    // Demand paging only installs entries for this page, so a
                    // successful touch is provably repeatable: record it.
                    self.inline_tlb_fill(thread, page, m.kind);
                } else {
                    // Mirror pages are never protected; anything else is a bug
                    // in the harness rather than in the modelled system.
                    self.fatal_accesses += 1;
                }
            }
            Err(_) => self.fatal_accesses += 1,
        }
    }

    fn access_with_fault_handling(&mut self, thread: ThreadId, m: &MemRef) {
        let page = m.addr.page();
        if self.inline_tlb_hit(thread, page, m.kind) {
            return;
        }
        for _ in 0..MAX_FAULT_ITERATIONS {
            let touch = {
                let vm = self.vm.as_mut().expect("aikido mode has a vm");
                match vm.touch(thread, m.addr, m.kind) {
                    Ok(t) => t,
                    Err(_) => {
                        self.fatal_accesses += 1;
                        return;
                    }
                }
            };
            if !touch.charges.is_free() {
                self.cycles += self.sim.cost.vm_charges(&touch.charges);
                if touch.charges.temp_reprotections > 0 {
                    // Restores touch every temporarily unprotected page.
                    self.inline_tlb_clear();
                }
            }
            match touch.outcome {
                TouchOutcome::Ok => {
                    self.inline_tlb_fill(thread, page, m.kind);
                    return;
                }
                TouchOutcome::Fatal(_) => {
                    self.fatal_accesses += 1;
                    return;
                }
                TouchOutcome::AikidoFault(fault) => {
                    self.counts.segfaults += 1;
                    let (vm, sd, engine) = (
                        self.vm.as_mut().expect("aikido mode has a vm"),
                        self.sd
                            .as_mut()
                            .expect("aikido mode has a sharing detector"),
                        self.engine.as_mut().expect("aikido mode has a dbi engine"),
                    );
                    let hypercalls_before = sd.stats().protection_hypercalls;
                    let disposition = sd
                        .handle_fault(vm, engine, &fault, m.instr)
                        .expect("fault handling succeeds");
                    let hypercalls = sd.stats().protection_hypercalls - hypercalls_before;
                    let rebuilt_instrs = if disposition.instruments_instruction() {
                        self.workload
                            .program()
                            .block(m.instr.block())
                            .map(|b| b.len() as u64)
                            .unwrap_or(0)
                    } else {
                        0
                    };
                    let thread_count = self.threads.len() as u32;
                    self.cycles +=
                        self.sim
                            .cost
                            .aikido_fault(hypercalls, thread_count, rebuilt_instrs);
                    self.inline_tlb_invalidate_page(page);

                    if disposition.instruments_instruction() {
                        // The block has been re-JITed with instrumentation;
                        // this access now runs the instrumented path and goes
                        // through the mirror page.
                        self.counts.instrumented_accesses += 1;
                        self.counts.shared_accesses += 1;
                        self.charge_translation(thread, m);
                        self.charge_analysis_access(thread, m, true);
                        self.cycles += self.sim.cost.mirror_redirect_cycles;
                        self.access_via_mirror(thread, m);
                        return;
                    }
                    // Otherwise the page became private (or was already);
                    // retry the access.
                }
            }
        }
        self.fatal_accesses += 1;
    }

    fn into_report(self) -> RunReport {
        debug_assert_eq!(self.fatal_accesses, 0, "workload produced fatal accesses");
        // The engine honours instrumentation requests even when they
        // contradict the installed static plan, so an unsound claim can never
        // corrupt a run — but in debug builds we refuse to let one pass
        // silently. (The mutation tests exercise unsound claims through the
        // audit wrapper, never through the engine's plan.)
        debug_assert_eq!(
            self.engine
                .as_ref()
                .map(|e| e.static_bound_violations())
                .unwrap_or(0),
            0,
            "static pre-analysis plan contradicted by an instrumentation request"
        );
        RunReport {
            workload: self.workload.spec().name.clone(),
            mode: self.mode.label().to_string(),
            threads: self.workload.spec().threads,
            cycles: self.cycles,
            counts: self.counts,
            vm: self.vm.as_ref().map(|v| *v.stats()).unwrap_or_default(),
            code_cache: self
                .engine
                .as_ref()
                .map(|e| *e.cache_stats())
                .unwrap_or_default(),
            sharing: self.sd.as_ref().map(|s| *s.stats()).unwrap_or_default(),
            fasttrack: None,
            races: self.analysis.reports(),
        }
    }
}

/// A slot range of one work-block execution: the shape's memory slots and
/// the execution's access words over the same range, walked together.
#[derive(Copy, Clone)]
struct AccessRun<'e> {
    slots: &'e [MemSlot],
    words: &'e [AccessWord],
}

impl<'e> AccessRun<'e> {
    /// Every access of `exec`, a work execution of the block `shape`
    /// describes.
    fn of(shape: &'e BlockShape, exec: &'e BlockExec) -> Self {
        debug_assert_eq!(shape.slots().len(), exec.accesses.len());
        AccessRun {
            slots: shape.slots(),
            words: &exec.accesses,
        }
    }

    fn len(self) -> usize {
        self.words.len()
    }

    /// Slots `start..end`.
    fn range(self, start: usize, end: usize) -> Self {
        AccessRun {
            slots: &self.slots[start..end],
            words: &self.words[start..end],
        }
    }

    /// The end of the maximal `(page, kind)` run starting at `start`.
    fn run_end(self, start: usize) -> usize {
        let key = self.words[start].run_key();
        self.words[start + 1..]
            .iter()
            .position(|word| word.run_key() != key)
            .map_or(self.len(), |offset| start + 1 + offset)
    }

    /// The access at `idx` as a [`MemRef`].
    fn mem(self, idx: usize) -> MemRef {
        let (slot, word) = (self.slots[idx], self.words[idx]);
        MemRef::new(slot.instr, word.addr(), word.kind(), slot.mode)
    }

    fn iter(self) -> impl Iterator<Item = MemRef> + 'e {
        (0..self.len()).map(move |idx| self.mem(idx))
    }
}

enum SyncOutcome {
    Done,
    Blocked,
    Exited,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_workloads::{
        producer_consumer_workload, racy_workload, read_only_sharing_workload, WorkloadSpec,
    };
    use std::collections::HashSet;

    fn small(name: &str) -> Workload {
        scaled(name, 0.02)
    }

    fn scaled(name: &str, scale: f64) -> Workload {
        Workload::generate(
            &WorkloadSpec::parsec(name)
                .unwrap()
                .scaled(scale)
                .with_threads(4),
        )
    }

    #[test]
    fn native_mode_counts_accesses_but_never_instruments() {
        let w = small("blackscholes");
        let report = Simulator::default().run(&w, Mode::Native);
        assert!(report.counts.mem_accesses > 0);
        assert_eq!(report.counts.instrumented_accesses, 0);
        assert_eq!(report.counts.segfaults, 0);
        assert_eq!(report.vm.aikido_faults_delivered, 0);
        assert_eq!(report.mode, "native");
    }

    #[test]
    fn full_instrumentation_instruments_every_access() {
        let w = small("blackscholes");
        let report = Simulator::default().run(&w, Mode::FullInstrumentation);
        assert_eq!(
            report.counts.instrumented_accesses,
            report.counts.mem_accesses
        );
        assert!(report.fasttrack.unwrap().reads + report.fasttrack.unwrap().writes > 0);
    }

    #[test]
    fn aikido_instruments_a_strict_subset_on_low_sharing_workloads() {
        let w = small("blackscholes");
        let aikido = Simulator::default().run(&w, Mode::Aikido);
        assert!(aikido.counts.instrumented_accesses < aikido.counts.mem_accesses);
        assert!(aikido.counts.shared_accesses <= aikido.counts.instrumented_accesses);
        assert!(
            aikido.counts.segfaults > 0,
            "sharing detection requires faults"
        );
        assert!(aikido.sharing.faults_handled > 0);
        assert_eq!(aikido.counts.segfaults, aikido.vm.aikido_faults_delivered);
    }

    #[test]
    fn slowdowns_order_as_in_the_paper_for_low_sharing() {
        let w = small("raytrace");
        let cmp = Simulator::default().compare(&w);
        assert!(cmp.full_slowdown() > cmp.aikido_slowdown());
        assert!(cmp.aikido_slowdown() > 1.0);
        assert!(
            cmp.aikido_speedup() > 1.5,
            "raytrace-like workloads are Aikido's best case"
        );
    }

    #[test]
    fn shared_access_fraction_tracks_the_spec() {
        let spec = WorkloadSpec::parsec("vips")
            .unwrap()
            .scaled(0.02)
            .with_threads(4);
        let w = Workload::generate(&spec);
        let report = Simulator::default().run(&w, Mode::Aikido);
        let measured = report.counts.shared_access_fraction();
        let expected = spec.expected_shared_access_fraction();
        assert!(
            (measured - expected).abs() < 0.08,
            "measured {measured:.3} expected {expected:.3}"
        );
    }

    #[test]
    fn race_free_workloads_report_no_races_in_either_mode() {
        let w = Workload::generate(&producer_consumer_workload(4).scaled(0.5));
        let full = Simulator::default().run(&w, Mode::FullInstrumentation);
        let aikido = Simulator::default().run(&w, Mode::Aikido);
        assert_eq!(full.race_count(), 0, "{:?}", full.races);
        assert_eq!(aikido.race_count(), 0, "{:?}", aikido.races);
    }

    #[test]
    fn racy_workloads_are_caught_by_both_modes() {
        let w = Workload::generate(&racy_workload(4));
        let full = Simulator::default().run(&w, Mode::FullInstrumentation);
        let aikido = Simulator::default().run(&w, Mode::Aikido);
        assert!(full.race_count() > 0);
        assert!(aikido.race_count() > 0);
    }

    #[test]
    fn read_only_sharing_is_aikidos_best_case() {
        let w = Workload::generate(&read_only_sharing_workload(4));
        let cmp = Simulator::default().compare(&w);
        assert!(
            cmp.aikido_speedup() > 2.0,
            "speedup {}",
            cmp.aikido_speedup()
        );
    }

    #[test]
    fn deterministic_runs_produce_identical_reports() {
        let w = small("swaptions");
        let a = Simulator::default().run(&w, Mode::Aikido);
        let b = Simulator::default().run(&w, Mode::Aikido);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts.segfaults, b.counts.segfaults);
    }

    // The four tests below pin each fast path against `Simulator::reference()`
    // on the workload that stresses it; `tests/reference_equivalence.rs`
    // covers the rest of the inputs and the detector state.

    #[test]
    fn batched_kernels_reproduce_the_scalar_reference_exactly() {
        for name in ["blackscholes", "fluidanimate", "canneal"] {
            let w = small(name);
            for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
                let batched = Simulator::default().run(&w, mode);
                let scalar = Simulator::reference().run(&w, mode);
                assert_eq!(batched, scalar, "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn batched_kernels_handle_racy_and_barrier_workloads_identically() {
        let racy = Workload::generate(&racy_workload(4));
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let batched = Simulator::default().run(&racy, mode);
            let scalar = Simulator::reference().run(&racy, mode);
            assert_eq!(batched, scalar, "racy {mode:?}");
            assert!(batched.race_count() > 0);
        }
        let mut spec = WorkloadSpec::parsec("bodytrack").unwrap().scaled(0.02);
        spec.barrier_every = 10;
        let barriers = Workload::generate(&spec);
        let batched = Simulator::default().run(&barriers, Mode::Aikido);
        let scalar = Simulator::reference().run(&barriers, Mode::Aikido);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn static_precheck_changes_no_observable_output() {
        // The derived plan only widens the whole-block free fast path, whose
        // charges are identical to the fallback's — so the full report must
        // match the reference executor, which installs no plan.
        for name in ["raytrace", "canneal"] {
            let w = small(name);
            for mode in [Mode::FullInstrumentation, Mode::Aikido] {
                let with_precheck = Simulator::default().run(&w, mode);
                let without = Simulator::reference().run(&w, mode);
                assert_eq!(with_precheck, without, "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn disabling_the_inline_tlb_changes_no_observable_output() {
        // The inline check only ever skips provably free VM touches, so the
        // full report — cycles included — must match the reference
        // executor, which never fills the tables and touches the VM for
        // every access.
        let w = small("vips");
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let with_tlb = Simulator::default().run(&w, mode);
            let without = Simulator::reference().run(&w, mode);
            assert_eq!(with_tlb, without, "{mode:?}");
        }
    }

    #[test]
    fn parallel_workers_reproduce_the_sequential_report() {
        let w = small("swaptions");
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let seq = Simulator::default().run(&w, mode);
            for workers in [2, 3, 8] {
                let par = Simulator::default().with_workers(workers).run(&w, mode);
                assert_eq!(par, seq, "workers={workers} mode={mode:?}");
            }
        }
    }

    #[test]
    fn sharded_analysis_reproduces_the_commit_thread_oracle() {
        // Analysis now runs only on the commit thread, whatever the worker
        // count: the analysed modes must report identically (cycles, stats,
        // races and all) to the one-worker oracle at several worker counts.
        let w = small("streamcluster");
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let oracle = Simulator::default().run(&w, mode);
            for workers in [2, 4, 8] {
                let parallel = Simulator::default().with_workers(workers).run(&w, mode);
                assert_eq!(parallel, oracle, "workers={workers} mode={mode:?}");
            }
        }
    }

    #[test]
    fn env_overrides_parse_every_variable_in_one_place() {
        // The ONLY test that mutates the simulator environment variables —
        // every other path is config-driven — so mutating them here races
        // with nothing.
        let vars = ["AIKIDO_PARALLEL", "AIKIDO_CHECKPOINT_EVERY", "AIKIDO_SCALE"];
        for var in vars {
            std::env::remove_var(var);
        }
        assert_eq!(SimConfig::from_env_overrides(), SimConfig::default());

        std::env::set_var("AIKIDO_PARALLEL", "4");
        std::env::set_var("AIKIDO_CHECKPOINT_EVERY", "300");
        std::env::set_var("AIKIDO_SCALE", "0.25");
        let config = SimConfig::from_env_overrides();
        assert_eq!(config.workers, 4);
        assert_eq!(config.checkpoint_every, Some(300));
        assert_eq!(config.scale, 0.25);

        std::env::set_var("AIKIDO_PARALLEL", "0");
        std::env::set_var("AIKIDO_CHECKPOINT_EVERY", "0");
        std::env::set_var("AIKIDO_SCALE", "-1");
        let config = SimConfig::from_env_overrides();
        assert_eq!(config.workers, 1, "0 is not a worker count");
        assert_eq!(config.checkpoint_every, None, "0 disables the policy");
        assert_eq!(config.scale, 1.0, "non-positive scales are ignored");

        std::env::set_var("AIKIDO_PARALLEL", "not-a-number");
        std::env::set_var("AIKIDO_CHECKPOINT_EVERY", "not-a-number");
        std::env::set_var("AIKIDO_SCALE", "not-a-number");
        assert_eq!(SimConfig::from_env_overrides(), SimConfig::default());

        for var in vars {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn from_config_matches_the_builder_chain_and_rejects_invalid_configs() {
        let w = small("freqmine");
        let config = SimConfig::default().with_quantum(3).with_workers(2);
        let from_config = Simulator::from_config(config).unwrap();
        let chained = Simulator::default().with_quantum(3).with_workers(2);
        assert_eq!(from_config.config(), chained.config());
        assert_eq!(
            from_config.run(&w, Mode::Aikido),
            chained.run(&w, Mode::Aikido)
        );

        let err = Simulator::from_config(SimConfig::default().with_workers(0)).unwrap_err();
        assert_eq!(err.field, "workers");
    }

    #[test]
    fn full_and_aikido_report_the_same_races_on_racy_workloads() {
        let w = Workload::generate(&racy_workload(4));
        let full = Simulator::default().run(&w, Mode::FullInstrumentation);
        let aikido = Simulator::default().run(&w, Mode::Aikido);
        // Aikido may miss races in its documented first-two-accesses window,
        // but every race it reports must be on a block the full tool also
        // flagged (no false positives relative to the full tool).
        let full_blocks: HashSet<u64> = full.races.iter().map(|r| r.addr.raw() / 8).collect();
        for race in &aikido.races {
            assert!(
                full_blocks.contains(&(race.addr.raw() / 8)),
                "aikido reported a race the full tool did not: {race:?}"
            );
        }
    }

    #[test]
    fn custom_analysis_can_be_plugged_in() {
        use aikido_types::NullAnalysis;
        let w = small("canneal");
        let mut null = NullAnalysis::new();
        let report = Simulator::default().run_with_analysis(&w, Mode::Aikido, &mut null);
        assert!(null.accesses() > 0);
        assert_eq!(report.race_count(), 0);
        assert!(report.fasttrack.is_none());
    }

    /// An analysis that checks the caller's side of the `on_access_run`
    /// contract: every access of a run targets the run's page and performs
    /// its kind.
    #[derive(Default)]
    struct RunContract {
        runs: u64,
        longest: usize,
    }

    impl SharedDataAnalysis for RunContract {
        fn name(&self) -> &'static str {
            "run-contract"
        }

        fn on_access(&mut self, _cx: AccessContext) {}

        fn on_access_run(
            &mut self,
            page: Vpn,
            kind: AccessKind,
            run: &[AccessContext],
            costs: &mut Vec<u64>,
        ) {
            for cx in run {
                assert_eq!((cx.addr.page(), cx.kind), (page, kind), "run {run:?}");
            }
            self.runs += 1;
            self.longest = self.longest.max(run.len());
            self.on_access_batch(run, costs);
        }

        fn reports(&self) -> Vec<aikido_types::AnalysisReport> {
            Vec::new()
        }
    }

    #[test]
    fn access_runs_carry_one_page_and_kind() {
        for name in ["fluidanimate", "canneal"] {
            let w = small(name);
            for mode in [Mode::FullInstrumentation, Mode::Aikido] {
                let mut check = RunContract::default();
                Simulator::default().run_with_analysis(&w, mode, &mut check);
                assert!(check.runs > 0 && check.longest > 1, "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn thread_scaling_increases_full_instrumentation_overhead() {
        // Table 1: overheads grow with thread count.
        let spec = WorkloadSpec::parsec("fluidanimate").unwrap().scaled(0.02);
        let slowdown_at = |threads: u32| {
            let w = Workload::generate(&spec.with_threads(threads));
            let cmp = Simulator::default().compare(&w);
            cmp.full_slowdown()
        };
        let two = slowdown_at(2);
        let eight = slowdown_at(8);
        assert!(
            eight > two,
            "8-thread slowdown {eight:.1} <= 2-thread {two:.1}"
        );
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore and fault containment
    // ------------------------------------------------------------------

    use crate::epoch::EPOCH_BLOCKS;
    use aikido_workloads::{ThreadTrace, TraceCursor};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// A [`TraceSource`] that hands out the workload's real streams but makes
    /// one thread's stream panic after a fixed number of pulls — the injected
    /// fault the parallel engine must contain.
    struct PanicSource<'w> {
        workload: &'w Workload,
        victim: ThreadId,
        after: u32,
    }

    struct PanicStream<'s> {
        inner: ThreadTrace<'s>,
        armed: bool,
        remaining: u32,
    }

    impl PanicStream<'_> {
        fn tick(&mut self) {
            if self.armed {
                if self.remaining == 0 {
                    panic!("injected producer panic");
                }
                self.remaining -= 1;
            }
        }
    }

    impl TraceSource for PanicSource<'_> {
        type Stream<'s>
            = PanicStream<'s>
        where
            Self: 's;

        fn stream_at(&self, thread: ThreadId, cursor: &TraceCursor) -> PanicStream<'_> {
            PanicStream {
                inner: self.workload.stream_at(thread, cursor),
                armed: thread == self.victim,
                remaining: self.after,
            }
        }
    }

    impl BlockStream for PanicStream<'_> {
        fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool {
            self.tick();
            self.inner.fill_batch(batch, target)
        }

        fn next_into(&mut self, out: &mut BlockExec) -> bool {
            self.tick();
            self.inner.next_into(out)
        }

        fn cursor(&self) -> TraceCursor {
            self.inner.cursor()
        }
    }

    /// A [`TraceSource`] over the workload's real streams that counts every
    /// block execution generated, across all streams it ever opens — how the
    /// resume tests prove a restored run seeks instead of replaying.
    struct CountingSource<'w> {
        workload: &'w Workload,
        /// Blocks generated one at a time (`next_into`).
        pulled: AtomicU64,
        /// Blocks generated in epoch batches (`fill_batch`).
        batched: AtomicU64,
    }

    impl<'w> CountingSource<'w> {
        fn new(workload: &'w Workload) -> Self {
            CountingSource {
                workload,
                pulled: AtomicU64::new(0),
                batched: AtomicU64::new(0),
            }
        }

        fn generated(&self) -> u64 {
            self.pulled.load(Relaxed) + self.batched.load(Relaxed)
        }
    }

    struct CountingStream<'s> {
        inner: ThreadTrace<'s>,
        pulled: &'s AtomicU64,
        batched: &'s AtomicU64,
    }

    impl TraceSource for CountingSource<'_> {
        type Stream<'s>
            = CountingStream<'s>
        where
            Self: 's;

        fn stream_at(&self, thread: ThreadId, cursor: &TraceCursor) -> CountingStream<'_> {
            CountingStream {
                inner: self.workload.stream_at(thread, cursor),
                pulled: &self.pulled,
                batched: &self.batched,
            }
        }
    }

    impl BlockStream for CountingStream<'_> {
        fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool {
            let more = self.inner.fill_batch(batch, target);
            self.batched.fetch_add(batch.len() as u64, Relaxed);
            more
        }

        fn next_into(&mut self, out: &mut BlockExec) -> bool {
            let produced = self.inner.next_into(out);
            self.pulled.fetch_add(u64::from(produced), Relaxed);
            produced
        }

        fn cursor(&self) -> TraceCursor {
            self.inner.cursor()
        }
    }

    #[test]
    fn a_sequential_resume_generates_no_block_twice() {
        // Every period of a checkpointed run reopens each stream at its
        // recorded cursor, so across all periods the trace generator
        // produces exactly the blocks of one uninterrupted run.
        let w = scaled("blackscholes", 0.1);
        for mode in [Mode::Native, Mode::Aikido] {
            let plain = CountingSource::new(&w);
            let sim = Simulator::default();
            let mut uninterrupted = sim.try_run_with_source(&w, &plain, mode).unwrap();
            let periodic = CountingSource::new(&w);
            let checkpointed = sim
                .clone()
                .with_checkpoint_every(Some(500))
                .run_checkpointed_from(&w, &periodic, mode)
                .unwrap();
            assert!(
                uninterrupted.counts.block_execs > 4 * 500,
                "too few periods to exercise resume"
            );
            assert_eq!(periodic.generated(), plain.generated(), "{mode:?}");
            uninterrupted.fasttrack = checkpointed.fasttrack;
            assert_eq!(checkpointed, uninterrupted, "{mode:?}");
        }
    }

    #[test]
    fn a_parallel_checkpoint_regenerates_at_most_one_batch_per_slot() {
        // Under the epoch feed a slot's position is its batch head cursor
        // plus an offset into that batch; pinning it to an exact cursor
        // regenerates at most one batch per slot per period. The producers
        // generate through `fill_batch`, so every `next_into` pull below is
        // such a regeneration.
        let w = scaled("fluidanimate", 0.1);
        let every = 500;
        let sim = Simulator::default()
            .with_workers(2)
            .with_checkpoint_every(Some(every));
        let uninterrupted = Simulator::default().run(&w, Mode::Aikido);
        let periodic = CountingSource::new(&w);
        let checkpointed = sim
            .run_checkpointed_from(&w, &periodic, Mode::Aikido)
            .unwrap();
        assert_eq!(checkpointed, uninterrupted);
        let periods = uninterrupted.counts.block_execs.div_ceil(every);
        let slots = w.threads().len() as u64;
        assert!(periods >= 4, "too few periods to exercise resume");
        let regenerated = periodic.pulled.load(Relaxed);
        assert!(
            regenerated <= periods * slots * EPOCH_BLOCKS as u64,
            "{regenerated} blocks regenerated over {periods} periods"
        );
    }

    #[test]
    fn a_panicking_producer_surfaces_as_a_structured_error() {
        let w = small("blackscholes");
        // A whole epoch batch can swallow a small trace in one pull, so the
        // panic must be armed for the very first one.
        let source = PanicSource {
            workload: &w,
            victim: w.threads()[1],
            after: 0,
        };
        for workers in [2, 4] {
            let sim = Simulator::default().with_workers(workers);
            let err = sim
                .try_run_with_source(&w, &source, Mode::Aikido)
                .expect_err("the injected panic must fail the run");
            match err {
                SimError::WorkerPanic { ref message } => {
                    assert!(
                        message.contains("injected producer panic"),
                        "panic payload lost: {message:?}"
                    );
                }
                ref other => panic!("expected WorkerPanic, got {other:?}"),
            }
            assert!(err.to_string().contains("injected producer panic"));
        }
    }

    #[test]
    fn an_untampered_source_reproduces_the_production_run() {
        // The test seam itself must be inert: driving the run through the
        // TraceSource indirection (panic disarmed) changes nothing.
        let w = small("canneal");
        let source = PanicSource {
            workload: &w,
            victim: ThreadId::new(u32::MAX),
            after: 0,
        };
        let via_seam = Simulator::default()
            .try_run_with_source(&w, &source, Mode::Aikido)
            .unwrap();
        let mut direct = Simulator::default().run(&w, Mode::Aikido);
        direct.fasttrack = None; // the seam helper runs without stats capture
        assert_eq!(via_seam, direct);
    }

    #[test]
    fn a_recorded_skip_is_regenerated_on_resume() {
        // Images written here always pin exact cursors, but the SCHD format
        // also carries a skip: a position may be an earlier cursor plus up
        // to one epoch batch of executions to regenerate. Re-express every
        // slot's position that way and resume at both feeds.
        let w = small("fluidanimate");
        let sim = Simulator::default();
        let uninterrupted = sim.run(&w, Mode::Aikido);
        let mut analysis = sim.new_fasttrack();
        let mut run = Run::new(&sim, &w, Mode::Aikido, &mut analysis);
        let mut states = run.initial_states();
        let midpoint = Some(uninterrupted.counts.block_execs / 2);
        let status = sim.drive(&w, &mut run, &mut states, midpoint).unwrap();
        assert_eq!(status, ExecStatus::Paused);
        let mut skipped = 0;
        for st in &mut states {
            let mut trace = w.thread_trace(st.id);
            let mut cursors = vec![trace.cursor()];
            while cursors.last() != Some(&st.at.cursor) {
                assert!(trace.next().is_some(), "recorded cursor is on the stream");
                cursors.push(trace.cursor());
            }
            let skip = (cursors.len() - 1).min(EPOCH_BLOCKS);
            st.at = StreamPos {
                cursor: cursors[cursors.len() - 1 - skip],
                skip: skip as u32,
            };
            skipped += skip;
        }
        assert!(skipped > 0);
        let image = Snapshot::from_bytes(run.encode_snapshot(&states).into_bytes()).unwrap();
        for workers in [1, 2] {
            let resumed = sim.clone().with_workers(workers).resume(&w, &image);
            assert_eq!(resumed.unwrap(), uninterrupted, "workers={workers}");
        }
    }

    #[test]
    fn checkpoint_resume_matches_the_uninterrupted_run() {
        let w = small("blackscholes");
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let sim = Simulator::default();
            let uninterrupted = sim.run(&w, mode);
            let midpoint = uninterrupted.counts.block_execs / 2;
            let outcome = sim.checkpoint(&w, mode, midpoint).unwrap();
            let CheckpointOutcome::Paused(snapshot) = outcome else {
                panic!("midpoint checkpoint must pause");
            };
            // Round-trip through raw bytes: resume validates a re-parsed image.
            let snapshot = Snapshot::from_bytes(snapshot.into_bytes()).unwrap();
            let resumed = sim.resume(&w, &snapshot).unwrap();
            assert_eq!(resumed, uninterrupted, "{mode:?}");
        }
    }

    #[test]
    fn snapshots_resume_across_worker_counts() {
        let w = small("fluidanimate");
        let seq = Simulator::default();
        let par = Simulator::default().with_workers(4);
        let uninterrupted = seq.run(&w, Mode::Aikido);
        let midpoint = uninterrupted.counts.block_execs / 2;

        // Sequential checkpoint, parallel resume…
        let CheckpointOutcome::Paused(snap) = seq.checkpoint(&w, Mode::Aikido, midpoint).unwrap()
        else {
            panic!("midpoint checkpoint must pause");
        };
        assert_eq!(par.resume(&w, &snap).unwrap(), uninterrupted);

        // …and parallel checkpoint, sequential resume.
        let CheckpointOutcome::Paused(snap) = par.checkpoint(&w, Mode::Aikido, midpoint).unwrap()
        else {
            panic!("midpoint checkpoint must pause");
        };
        assert_eq!(seq.resume(&w, &snap).unwrap(), uninterrupted);
    }

    #[test]
    fn chained_checkpoints_compose() {
        let w = small("swaptions");
        let sim = Simulator::default();
        let uninterrupted = sim.run(&w, Mode::Aikido);
        let total = uninterrupted.counts.block_execs;
        let mut outcome = sim.checkpoint(&w, Mode::Aikido, total / 4).unwrap();
        let mut target = total / 4;
        let mut pauses = 0;
        let report = loop {
            match outcome {
                CheckpointOutcome::Completed(report) => break *report,
                CheckpointOutcome::Paused(snapshot) => {
                    pauses += 1;
                    let snapshot = Snapshot::from_bytes(snapshot.into_bytes()).unwrap();
                    target += total / 4;
                    outcome = sim.resume_until(&w, &snapshot, target).unwrap();
                }
            }
        };
        assert!(pauses >= 2, "only {pauses} pauses across {total} blocks");
        assert_eq!(report, uninterrupted);
    }

    #[test]
    fn a_checkpoint_past_the_end_completes() {
        let w = small("raytrace");
        let sim = Simulator::default();
        let uninterrupted = sim.run(&w, Mode::Native);
        let outcome = sim
            .checkpoint(&w, Mode::Native, uninterrupted.counts.block_execs * 2)
            .unwrap();
        match outcome {
            CheckpointOutcome::Completed(report) => assert_eq!(*report, uninterrupted),
            CheckpointOutcome::Paused(_) => panic!("nothing left to pause for"),
        }
    }

    #[test]
    fn resume_rejects_a_snapshot_from_a_different_configuration() {
        let w = small("vips");
        let sim = Simulator::default();
        let report = sim.run(&w, Mode::Aikido);
        let CheckpointOutcome::Paused(snapshot) = sim
            .checkpoint(&w, Mode::Aikido, report.counts.block_execs / 2)
            .unwrap()
        else {
            panic!("midpoint checkpoint must pause");
        };

        // Different workload.
        let other = small("canneal");
        let err = sim.resume(&other, &snapshot).unwrap_err();
        let SimError::Snapshot(err) = err else {
            panic!("expected a snapshot error, got {err:?}");
        };
        assert_eq!(err.section, "META");

        // Different scheduling quantum.
        let err = Simulator::default()
            .with_quantum(3)
            .resume(&w, &snapshot)
            .unwrap_err();
        let SimError::Snapshot(err) = err else {
            panic!("expected a snapshot error, got {err:?}");
        };
        assert_eq!(err.section, "META");

        // Worker count is *not* identity: the same snapshot still resumes.
        assert!(Simulator::default()
            .with_workers(3)
            .resume(&w, &snapshot)
            .is_ok());
    }

    #[test]
    fn run_checkpointed_honors_the_configured_policy() {
        let w = small("raytrace");
        let uninterrupted = Simulator::default().run(&w, Mode::Aikido);

        let sim = Simulator::default().with_checkpoint_every(Some(300));
        let checkpointed = sim.run_checkpointed(&w, Mode::Aikido).unwrap();
        assert_eq!(checkpointed, uninterrupted);

        let sim = Simulator::default();
        let plain = sim.run_checkpointed(&w, Mode::Aikido).unwrap();
        assert_eq!(plain, uninterrupted);
    }
}

//! Per-thread trace generation.

use rand::distributions::{Bernoulli, Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use aikido_types::{AccessKind, Addr, BlockId, LockId, Operation, SyncOp, ThreadId, Vpn};

use crate::workload::Workload;

/// A maximal run of consecutive memory operations within one [`BlockExec`]
/// that share their target page and access kind — the unit the simulator's
/// batched block kernels process with one page-state read and one
/// inline-check probe instead of one per access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemRun {
    /// Index of the run's first operation in [`BlockExec::ops`].
    pub start: u16,
    /// Number of consecutive memory operations in the run.
    pub len: u16,
    /// Page every access of the run targets.
    pub page: Vpn,
    /// Kind (read or write) of every access in the run.
    pub kind: AccessKind,
}

/// Per-operation metadata precomputed when a [`BlockExec`] is generated, so
/// the simulator's hot loop never has to re-derive it per access.
///
/// `plain == false` is always safe: consumers must fall back to decoding
/// [`BlockExec::ops`] directly (which is what happens for hand-built
/// executions that never call [`BlockMeta::rebuild`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockMeta {
    /// True when the operation list contains only memory operations and
    /// single-instruction compute operations, **and** `runs`/`mem_ops`/
    /// `compute_ops` faithfully describe it. Kernels may then skip the
    /// per-operation decode entirely.
    pub plain: bool,
    /// Maximal `(page, kind)` runs over the memory operations, in order.
    /// Complete only when `plain` is true.
    pub runs: Vec<MemRun>,
    /// Number of memory operations (valid only when `plain` is true).
    pub mem_ops: u32,
    /// Number of compute operations, each representing exactly one dynamic
    /// instruction (valid only when `plain` is true).
    pub compute_ops: u32,
}

impl BlockMeta {
    /// Recomputes the metadata from `ops`, reusing the `runs` allocation.
    pub fn rebuild(&mut self, ops: &[Operation]) {
        self.runs.clear();
        self.mem_ops = 0;
        self.compute_ops = 0;
        self.plain = ops.len() <= usize::from(u16::MAX);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Operation::Mem(m) => {
                    self.mem_ops += 1;
                    let page = m.addr.page();
                    match self.runs.last_mut() {
                        Some(run)
                            if run.page == page
                                && run.kind == m.kind
                                && usize::from(run.start) + usize::from(run.len) == i =>
                        {
                            run.len += 1;
                        }
                        _ => self.runs.push(MemRun {
                            start: i as u16,
                            len: 1,
                            page,
                            kind: m.kind,
                        }),
                    }
                }
                Operation::Compute { count: 1 } => self.compute_ops += 1,
                _ => self.plain = false,
            }
        }
    }
}

/// One dynamic execution of a static basic block: the block id plus one
/// [`Operation`] per static instruction (aligned by index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockExec {
    /// The static block being executed.
    pub block: BlockId,
    /// One operation per static instruction of the block.
    pub ops: Vec<Operation>,
    /// Precomputed decode of `ops` (see [`BlockMeta`]); generated traces fill
    /// this in, hand-built executions may leave it defaulted.
    pub meta: BlockMeta,
}

impl BlockExec {
    /// Number of memory accesses in this execution.
    pub fn mem_accesses(&self) -> usize {
        self.ops.iter().filter(|o| o.is_mem()).count()
    }

    /// Total dynamic instructions represented.
    pub fn instruction_count(&self) -> u64 {
        self.ops.iter().map(Operation::instruction_count).sum()
    }
}

/// Where a [`ThreadTrace`] stands in its thread's life cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// The main thread writes the read-mostly area before forking.
    Init,
    /// The main thread forks the workers.
    Fork,
    /// Work blocks, critical sections and barriers.
    Work,
    /// The main thread joins the workers.
    Join,
    /// The final exit block is next.
    Exit,
    /// The trace is exhausted.
    Done,
}

impl TracePhase {
    const ALL: [TracePhase; 6] = [
        TracePhase::Init,
        TracePhase::Fork,
        TracePhase::Work,
        TracePhase::Join,
        TracePhase::Exit,
        TracePhase::Done,
    ];

    /// The phase's stable one-byte serialization tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The phase with serialization tag `tag`, if any.
    pub fn from_tag(tag: u8) -> Option<TracePhase> {
        Self::ALL.get(usize::from(tag)).copied()
    }
}

/// An open critical section: the acquire has been emitted, the body blocks
/// and the release are generated on demand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CriticalSection {
    /// Index of the held lock (the lock id is `lock + 1`).
    pub lock: u32,
    /// Body blocks still to emit before the release (fewer when the thread's
    /// access budget runs out first).
    pub bodies_left: u32,
}

/// Every counter of a [`ThreadTrace`]: with the RNG words, the generator's
/// whole state (see [`TraceCursor`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceCounters {
    /// Life-cycle phase.
    pub phase: TracePhase,
    /// Memory accesses the work phase still owes.
    pub remaining_accesses: u64,
    /// Read-mostly initialisation writes still owed (main thread only).
    pub init_remaining: u64,
    /// Next read-mostly slot the initialisation writes.
    pub init_cursor: u64,
    /// Next worker to fork.
    pub fork_next: u32,
    /// Next worker to join.
    pub join_next: u32,
    /// Work blocks emitted so far (drives the barrier cadence).
    pub work_blocks_emitted: u64,
    /// Id of the next barrier.
    pub barrier_counter: u32,
    /// Barriers that became due and are not emitted yet. Barriers that fall
    /// due inside a critical section wait for its release, so no thread ever
    /// blocks on a barrier while holding a lock.
    pub barriers_due: u32,
    /// The next racy-area access is forced (racy workloads make every
    /// thread touch the racy area at least once).
    pub forced_racy_write_pending: bool,
    /// The open critical section, if any.
    pub critical_section: Option<CriticalSection>,
}

/// The complete, plain-data state of a [`ThreadTrace`]: the RNG words plus
/// the counters. [`ThreadTrace::cursor`] takes one and
/// [`Workload::thread_trace_at`] continues the stream from it, so a
/// checkpoint can record where each thread's stream stands in a few dozen
/// bytes instead of re-generating the prefix on resume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceCursor {
    /// The thread RNG's state words.
    pub rng: [u64; 4],
    /// The generator's counters.
    pub counters: TraceCounters,
}

/// A [`TraceCursor`] that cannot belong to the thread it was offered for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CursorError {
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid trace cursor: {}", self.reason)
    }
}

impl std::error::Error for CursorError {}

/// Everything the per-block generation loop would otherwise recompute from
/// the spec and layout on every call, hoisted to trace construction: layout
/// areas, spec constants, and precomputed RNG samplers. Every sampler draws
/// exactly one `next_u64` and yields the exact value the corresponding
/// `gen_bool`/`gen_range` call would have produced, so hoisting changes no
/// trace byte (pinned by the vendored rand's bit-compatibility tests and by
/// `tests/report_regression.rs` downstream).
#[derive(Debug)]
struct GenParams {
    block_mem_instrs: u64,
    barrier_every: u64,
    critical_section_blocks: u32,
    racy_pairs: u32,
    private_base: Addr,
    rm_base: Addr,
    rm_len: u64,
    racy_base: Addr,
    racy_len: u64,
    /// Probability that a work decision picks a shared-touching episode,
    /// corrected for critical-section amortisation (see `next_work`).
    choice: Bernoulli,
    locked: Bernoulli,
    read: Bernoulli,
    shared_within: Bernoulli,
    racy: Bernoulli,
    half: Bernoulli,
    private_block: Uniform<usize>,
    shared_block: Uniform<usize>,
    lock: Uniform<u32>,
    private_slot: Uniform<u64>,
    slice_slot: Uniform<u64>,
    rm_slot: Uniform<u64>,
    racy_pair: Option<Uniform<u32>>,
}

impl GenParams {
    fn new(workload: &Workload, thread: ThreadId) -> Self {
        let spec = workload.spec();
        let layout = workload.layout();
        let (rm_base, rm_len) = layout.read_mostly_area();
        let (racy_base, racy_len) = layout.racy_area();
        let private_base = layout.private_base(thread);
        let private_len = layout.private_pages() * aikido_types::PAGE_SIZE;
        let (_, slice_len) = layout.lock_slice(0);
        // The per-decision probability corrected for the spec's access-level
        // fraction: a locked episode emits `critical_section_blocks` shared
        // blocks while a private/unlocked choice emits one.
        let f = spec.instrumented_exec_fraction;
        let weight = spec.locked_shared_fraction * spec.critical_section_blocks.max(1) as f64
            + (1.0 - spec.locked_shared_fraction);
        let choice_prob = if f <= 0.0 {
            0.0
        } else {
            (f / (weight - weight * f + f)).clamp(0.0, 1.0)
        };
        GenParams {
            block_mem_instrs: spec.block_mem_instrs as u64,
            barrier_every: spec.barrier_every,
            critical_section_blocks: spec.critical_section_blocks,
            racy_pairs: spec.racy_pairs,
            private_base,
            rm_base,
            rm_len,
            racy_base,
            racy_len,
            choice: Bernoulli::new(choice_prob),
            locked: Bernoulli::new(spec.locked_shared_fraction),
            read: Bernoulli::new(spec.read_fraction),
            shared_within: Bernoulli::new(spec.shared_within_instrumented),
            racy: Bernoulli::new(0.02),
            half: Bernoulli::new(0.5),
            private_block: Uniform::new(0, workload.block_sets().private_blocks.len()),
            shared_block: Uniform::new(0, workload.block_sets().shared_blocks.len()),
            lock: Uniform::new(0, spec.locks),
            private_slot: Uniform::new(0, private_len / 8),
            slice_slot: Uniform::new(0, slice_len / 8),
            rm_slot: Uniform::new(0, rm_len / 8),
            racy_pair: (spec.racy_pairs > 0).then(|| Uniform::new(0, spec.racy_pairs)),
        }
    }
}

/// A deterministic iterator over one thread's block executions.
///
/// The generator is a small state machine: every execution — including the
/// body blocks and release of a critical section and any barriers that fall
/// due — is generated on demand from the RNG and the [`TraceCounters`], in
/// strictly sequential RNG order. Its whole state is therefore a
/// [`TraceCursor`].
#[derive(Debug)]
pub struct ThreadTrace<'a> {
    workload: &'a Workload,
    thread: ThreadId,
    rng: SmallRng,
    gen: GenParams,
    at: TraceCounters,
    /// Recycled `(operations, runs)` buffer pairs: the simulator's scheduler
    /// returns each consumed execution's buffers through
    /// [`ThreadTrace::next_into`], so the steady-state trace loop performs no
    /// allocation.
    spare: Vec<(Vec<Operation>, Vec<MemRun>)>,
}

/// The read-mostly initialisation writes the main thread owes at the start.
fn init_writes(workload: &Workload, thread: ThreadId) -> u64 {
    if thread != ThreadId::MAIN {
        return 0;
    }
    let spec = workload.spec();
    let (_, rm_len) = workload.layout().read_mostly_area();
    (rm_len / 64).min((spec.mem_accesses_per_thread / 10).max(64))
}

impl<'a> ThreadTrace<'a> {
    pub(crate) fn new(workload: &'a Workload, thread: ThreadId) -> Self {
        let spec = workload.spec();
        let seed = spec.seed ^ (thread.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = TraceCursor {
            rng: SmallRng::seed_from_u64(seed).state(),
            counters: TraceCounters {
                phase: if thread == ThreadId::MAIN {
                    TracePhase::Init
                } else {
                    TracePhase::Work
                },
                remaining_accesses: spec.mem_accesses_per_thread,
                init_remaining: init_writes(workload, thread),
                init_cursor: 0,
                fork_next: 1,
                join_next: 1,
                work_blocks_emitted: 0,
                barrier_counter: 0,
                barriers_due: 0,
                forced_racy_write_pending: spec.racy_pairs > 0,
                critical_section: None,
            },
        };
        Self::at(workload, thread, &start)
    }

    /// Opens `thread`'s stream at `cursor` (already validated).
    pub(crate) fn at(workload: &'a Workload, thread: ThreadId, cursor: &TraceCursor) -> Self {
        ThreadTrace {
            workload,
            thread,
            rng: SmallRng::from_state(cursor.rng),
            gen: GenParams::new(workload, thread),
            at: cursor.counters,
            spare: Vec::new(),
        }
    }

    /// Checks that `cursor` is a state `thread`'s stream can reach: every
    /// counter within what the workload's spec allows and consistent with
    /// the others. [`Workload::thread_trace_at`] refuses anything else, so a
    /// corrupt cursor can never drive the generator out of bounds.
    pub(crate) fn check(
        workload: &Workload,
        thread: ThreadId,
        cursor: &TraceCursor,
    ) -> Result<(), CursorError> {
        let spec = workload.spec();
        let c = &cursor.counters;
        let fail = |reason: String| Err(CursorError { reason });
        if thread.raw() >= spec.threads {
            return fail(format!(
                "{thread} is not part of this {}-thread workload",
                spec.threads
            ));
        }
        if cursor.rng == [0; 4] {
            return fail("all-zero RNG state".to_string());
        }
        let is_main = thread == ThreadId::MAIN;
        if !is_main
            && matches!(
                c.phase,
                TracePhase::Init | TracePhase::Fork | TracePhase::Join
            )
        {
            return fail(format!(
                "{thread} is not the main thread but is in {:?}",
                c.phase
            ));
        }
        if c.fork_next == 0 || c.fork_next > spec.threads {
            return fail(format!(
                "fork_next {} outside 1..={}",
                c.fork_next, spec.threads
            ));
        }
        if c.join_next == 0 || c.join_next > spec.threads {
            return fail(format!(
                "join_next {} outside 1..={}",
                c.join_next, spec.threads
            ));
        }
        // Every initialisation block writes `block_mem_instrs` consecutive
        // read-mostly slots and charges as many writes.
        let per_block = spec.block_mem_instrs as u64;
        let init_total = init_writes(workload, thread);
        if c.init_remaining > init_total {
            return fail(format!(
                "{} initialisation writes remain, the spec owes {init_total}",
                c.init_remaining
            ));
        }
        if !c.init_cursor.is_multiple_of(per_block)
            || c.init_cursor > init_total.div_ceil(per_block) * per_block
            || c.init_remaining != init_total.saturating_sub(c.init_cursor)
        {
            return fail(format!(
                "initialisation cursor {} does not match {} remaining writes",
                c.init_cursor, c.init_remaining
            ));
        }
        let budget = spec.mem_accesses_per_thread;
        if c.remaining_accesses > budget {
            return fail(format!(
                "remaining access budget {} exceeds the spec's {budget}",
                c.remaining_accesses
            ));
        }
        let charged = c
            .work_blocks_emitted
            .checked_mul(per_block)
            .map(|used| budget.saturating_sub(used));
        if charged != Some(c.remaining_accesses) {
            return fail(format!(
                "{} work blocks emitted but {} accesses remain",
                c.work_blocks_emitted, c.remaining_accesses
            ));
        }
        let barriers = match spec.barrier_every {
            0 => 0,
            every => c.work_blocks_emitted / every,
        };
        if u64::from(c.barrier_counter) + u64::from(c.barriers_due) != barriers {
            return fail(format!(
                "{} barriers emitted and {} due after {} work blocks",
                c.barrier_counter, c.barriers_due, c.work_blocks_emitted
            ));
        }
        if let Some(cs) = c.critical_section {
            if c.phase != TracePhase::Work {
                return fail(format!("critical section open in {:?}", c.phase));
            }
            if cs.lock >= spec.locks {
                return fail(format!("lock index {} outside 0..{}", cs.lock, spec.locks));
            }
            if cs.bodies_left > spec.critical_section_blocks.max(1) {
                return fail(format!(
                    "{} critical-section bodies left, at most {} per section",
                    cs.bodies_left,
                    spec.critical_section_blocks.max(1)
                ));
            }
        }
        Ok(())
    }

    /// The stream's current position: continuing from it with
    /// [`Workload::thread_trace_at`] yields exactly the executions this
    /// trace would yield next.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor {
            rng: self.rng.state(),
            counters: self.at,
        }
    }

    /// Pops a recycled buffer pair (or allocates one on cold start).
    fn grab_buf(&mut self) -> (Vec<Operation>, Vec<MemRun>) {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns an exhausted execution's buffers to the pool.
    fn recycle(&mut self, mut ops: Vec<Operation>, mut runs: Vec<MemRun>) {
        const MAX_SPARE: usize = 32;
        if self.spare.len() < MAX_SPARE {
            ops.clear();
            runs.clear();
            self.spare.push((ops, runs));
        }
    }

    /// Produces the next execution into `out`, reusing `out`'s operation
    /// buffer; returns `false` when the trace is exhausted. This is the
    /// allocation-free interface the simulator's scheduler uses.
    pub fn next_into(&mut self, out: &mut BlockExec) -> bool {
        let ops = std::mem::take(&mut out.ops);
        let runs = std::mem::take(&mut out.meta.runs);
        self.recycle(ops, runs);
        match self.next() {
            Some(exec) => {
                *out = exec;
                true
            }
            None => false,
        }
    }

    /// Fills `batch` with up to `target` executions, reusing the shells
    /// already in `batch` (their operation buffers are recycled in place) and
    /// truncating it to the number actually produced. Returns `false` once
    /// the trace is exhausted (the batch may still hold a final partial run).
    ///
    /// This is the bulk interface the parallel epoch scheduler's producer
    /// workers use: each epoch a worker refills one batch per guest thread it
    /// owns, off the critical commit path.
    pub fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool {
        batch.truncate(target);
        let mut produced = 0;
        while produced < target {
            if produced == batch.len() {
                batch.push(BlockExec::default());
            }
            if !self.next_into(&mut batch[produced]) {
                batch.truncate(produced);
                return false;
            }
            produced += 1;
        }
        batch.truncate(produced);
        true
    }

    fn sync_exec(&mut self, block: BlockId, op: Operation) -> BlockExec {
        let (mut ops, runs) = self.grab_buf();
        ops.push(op);
        // Sync executions never reach the batched work-block kernels (the
        // scheduler classifies them first), so `plain` stays false.
        BlockExec {
            block,
            ops,
            meta: BlockMeta {
                plain: false,
                runs,
                mem_ops: 0,
                compute_ops: 0,
            },
        }
    }

    /// Fills a work block with operations; `pick` chooses the address and
    /// access kind for each memory instruction.
    ///
    /// The block's operation skeleton is precomputed once per workload
    /// ([`crate::workload::BlockTemplate`]): this copies it wholesale and
    /// patches only each memory op's address and kind, building the per-op
    /// run metadata in the same pass.
    fn work_exec<F>(&mut self, block: BlockId, mut pick: F) -> BlockExec
    where
        F: FnMut(&mut SmallRng) -> (Addr, AccessKind),
    {
        let (mut ops, runs) = self.grab_buf();
        let tmpl = self.workload.template(block);
        let mut meta = BlockMeta {
            plain: tmpl.plain,
            runs,
            mem_ops: tmpl.mem_ops,
            compute_ops: tmpl.compute_ops,
        };
        ops.extend_from_slice(&tmpl.ops);
        for (i, op) in ops.iter_mut().enumerate() {
            if let Operation::Mem(m) = op {
                let (addr, kind) = pick(&mut self.rng);
                m.addr = addr;
                m.kind = kind;
                if meta.plain {
                    let page = addr.page();
                    match meta.runs.last_mut() {
                        Some(run)
                            if run.page == page
                                && run.kind == kind
                                && usize::from(run.start) + usize::from(run.len) == i =>
                        {
                            run.len += 1;
                        }
                        _ => meta.runs.push(MemRun {
                            start: i as u16,
                            len: 1,
                            page,
                            kind,
                        }),
                    }
                }
            }
        }
        BlockExec { block, ops, meta }
    }

    fn next_init(&mut self) -> BlockExec {
        let spec_block_mem = self.gen.block_mem_instrs;
        let (rm_base, rm_len) = (self.gen.rm_base, self.gen.rm_len);
        let block = self.workload.block_sets().init_blocks
            [(self.at.init_cursor as usize) % self.workload.block_sets().init_blocks.len()];
        let mut cursor = self.at.init_cursor;
        let exec = self.work_exec(block, |_rng| {
            let addr = rm_base.offset((cursor * 64) % rm_len.max(64));
            cursor += 1;
            (addr, AccessKind::Write)
        });
        self.at.init_cursor = cursor;
        self.at.init_remaining = self.at.init_remaining.saturating_sub(spec_block_mem);
        exec
    }

    fn next_private(&mut self) -> BlockExec {
        let blocks = &self.workload.block_sets().private_blocks;
        let block = blocks[self.gen.private_block.sample(&mut self.rng)];
        let (base, slot, read) = (self.gen.private_base, self.gen.private_slot, self.gen.read);
        self.work_exec(block, |rng| {
            let addr = base.offset(slot.sample(rng) * 8);
            let kind = if read.sample(rng) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            (addr, kind)
        })
    }

    /// Opens a lock-protected episode: draws the lock and returns its
    /// acquire. The body blocks and the release follow on demand
    /// ([`ThreadTrace::next_in_critical_section`]).
    fn next_acquire(&mut self) -> BlockExec {
        let lock = self.gen.lock.sample(&mut self.rng);
        self.at.critical_section = Some(CriticalSection {
            lock,
            bodies_left: self.gen.critical_section_blocks.max(1),
        });
        let acquire_block = self.workload.block_sets().acquire_block;
        self.sync_exec(
            acquire_block,
            Operation::Sync(SyncOp::Acquire(LockId::new(lock as u64 + 1))),
        )
    }

    /// The next execution inside the open critical section `cs`: a shared
    /// body block within the lock's slice, or the release. A critical
    /// section amortises one acquire/release pair over several shared block
    /// executions, but never overruns the thread's access budget (which
    /// would desynchronise barrier cadences across threads): after the first
    /// body, an exhausted budget releases early.
    fn next_in_critical_section(&mut self, cs: CriticalSection) -> BlockExec {
        let first = cs.bodies_left == self.gen.critical_section_blocks.max(1);
        if cs.bodies_left == 0 || (!first && self.at.remaining_accesses == 0) {
            self.at.critical_section = None;
            let release_block = self.workload.block_sets().release_block;
            return self.sync_exec(
                release_block,
                Operation::Sync(SyncOp::Release(LockId::new(cs.lock as u64 + 1))),
            );
        }
        self.at.critical_section = Some(CriticalSection {
            bodies_left: cs.bodies_left - 1,
            ..cs
        });
        let (slice_base, _) = self.workload.layout().lock_slice(cs.lock);
        let (shared_within, read) = (self.gen.shared_within, self.gen.read);
        let (slice_slot, private_slot) = (self.gen.slice_slot, self.gen.private_slot);
        let private_base = self.gen.private_base;
        let blocks = &self.workload.block_sets().shared_blocks;
        let block = blocks[self.gen.shared_block.sample(&mut self.rng)];
        let body = self.work_exec(block, |rng| {
            let addr = if shared_within.sample(rng) {
                slice_base.offset(slice_slot.sample(rng) * 8)
            } else {
                private_base.offset(private_slot.sample(rng) * 8)
            };
            let kind = if read.sample(rng) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            (addr, kind)
        });
        self.charge_work_block();
        body
    }

    /// Accounts one work block against the thread's access budget and barrier
    /// cadence. Barriers are only recorded as *due* here; [`Iterator::next`]
    /// emits them once the thread holds no lock.
    fn charge_work_block(&mut self) {
        self.at.remaining_accesses = self
            .at
            .remaining_accesses
            .saturating_sub(self.gen.block_mem_instrs);
        self.at.work_blocks_emitted += 1;
        if self.gen.barrier_every > 0
            && self
                .at
                .work_blocks_emitted
                .is_multiple_of(self.gen.barrier_every)
        {
            self.at.barriers_due += 1;
        }
    }

    /// Emits the oldest due barrier.
    fn next_barrier(&mut self) -> BlockExec {
        self.at.barriers_due -= 1;
        let barrier = Operation::Sync(SyncOp::Barrier(self.at.barrier_counter));
        self.at.barrier_counter += 1;
        self.sync_exec(self.workload.block_sets().barrier_block, barrier)
    }

    /// An unsynchronised shared block execution: reads of read-mostly data
    /// (race-free because it was written before the fork) plus, for racy
    /// workloads, occasional unprotected accesses to the racy area.
    fn next_unlocked_shared(&mut self) -> BlockExec {
        let blocks = &self.workload.block_sets().shared_blocks;
        let block = blocks[self.gen.shared_block.sample(&mut self.rng)];
        let (racy_pairs, racy_base, racy_len) =
            (self.gen.racy_pairs, self.gen.racy_base, self.gen.racy_len);
        let (rm_base, rm_slot) = (self.gen.rm_base, self.gen.rm_slot);
        let (private_base, private_slot) = (self.gen.private_base, self.gen.private_slot);
        let (shared_within, read, racy, half) = (
            self.gen.shared_within,
            self.gen.read,
            self.gen.racy,
            self.gen.half,
        );
        let racy_pair = self.gen.racy_pair;
        let mut force_racy = self.at.forced_racy_write_pending && racy_len > 0;
        self.at.forced_racy_write_pending = false;
        self.work_exec(block, |rng| {
            if shared_within.sample(rng) {
                if racy_pairs > 0 && racy_len > 0 && (force_racy || racy.sample(rng)) {
                    force_racy = false;
                    let pair = racy_pair.expect("racy_pairs > 0").sample(rng) as u64;
                    let addr = racy_base.offset((pair * 64) % racy_len.max(64));
                    let kind = if half.sample(rng) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (addr, kind)
                } else {
                    (rm_base.offset(rm_slot.sample(rng) * 8), AccessKind::Read)
                }
            } else {
                let addr = private_base.offset(private_slot.sample(rng) * 8);
                let kind = if read.sample(rng) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                (addr, kind)
            }
        })
    }

    fn next_work(&mut self) -> BlockExec {
        // A locked episode emits `critical_section_blocks` shared blocks while
        // a private/unlocked choice emits one, so the per-decision probability
        // is corrected for the spec's *access-level* fraction — precomputed in
        // [`GenParams::new`].
        if self.gen.choice.sample(&mut self.rng) {
            if self.gen.locked.sample(&mut self.rng) {
                // The critical section charges its own body blocks.
                return self.next_acquire();
            }
            let exec = self.next_unlocked_shared();
            self.charge_work_block();
            exec
        } else {
            let exec = self.next_private();
            self.charge_work_block();
            exec
        }
    }
}

// The parallel epoch scheduler ships each thread's trace to a producer
// worker; this keeps the compiler honest that the move stays legal (a trace
// is plain data plus a shared reference to the immutable workload).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ThreadTrace<'static>>();
};

impl Iterator for ThreadTrace<'_> {
    type Item = BlockExec;

    fn next(&mut self) -> Option<BlockExec> {
        if let Some(cs) = self.at.critical_section {
            return Some(self.next_in_critical_section(cs));
        }
        if self.at.barriers_due > 0 {
            return Some(self.next_barrier());
        }
        loop {
            match self.at.phase {
                TracePhase::Init => {
                    if self.at.init_remaining > 0 {
                        return Some(self.next_init());
                    }
                    self.at.phase = TracePhase::Fork;
                }
                TracePhase::Fork => {
                    if self.at.fork_next < self.workload.spec().threads {
                        let child = ThreadId::new(self.at.fork_next);
                        self.at.fork_next += 1;
                        return Some(self.sync_exec(
                            self.workload.block_sets().fork_block,
                            Operation::Sync(SyncOp::Fork(child)),
                        ));
                    }
                    self.at.phase = TracePhase::Work;
                }
                TracePhase::Work => {
                    if self.at.remaining_accesses > 0 {
                        return Some(self.next_work());
                    }
                    self.at.phase = if self.thread == ThreadId::MAIN {
                        TracePhase::Join
                    } else {
                        TracePhase::Exit
                    };
                }
                TracePhase::Join => {
                    if self.at.join_next < self.workload.spec().threads {
                        let child = ThreadId::new(self.at.join_next);
                        self.at.join_next += 1;
                        return Some(self.sync_exec(
                            self.workload.block_sets().join_block,
                            Operation::Sync(SyncOp::Join(child)),
                        ));
                    }
                    self.at.phase = TracePhase::Exit;
                }
                TracePhase::Exit => {
                    self.at.phase = TracePhase::Done;
                    return Some(
                        self.sync_exec(self.workload.block_sets().exit_block, Operation::Exit),
                    );
                }
                TracePhase::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadSpec};
    use aikido_types::MemRef;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            mem_accesses_per_thread: 2_000,
            threads: 4,
            ..WorkloadSpec::default()
        }
    }

    fn trace_of(spec: &WorkloadSpec, thread: u32) -> Vec<BlockExec> {
        let w = Workload::generate(spec);
        w.thread_trace(ThreadId::new(thread)).collect()
    }

    #[test]
    fn fill_batch_reproduces_the_iterator_stream() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let sequential: Vec<BlockExec> = w.thread_trace(ThreadId::new(1)).collect();
        let mut batched = Vec::new();
        let mut trace = w.thread_trace(ThreadId::new(1));
        let mut batch = Vec::new();
        loop {
            let more = trace.fill_batch(&mut batch, 7);
            batched.extend(batch.iter().cloned());
            if !more {
                break;
            }
        }
        assert_eq!(batched, sequential);
        // Exhausted traces keep reporting exhaustion with empty batches.
        assert!(!trace.fill_batch(&mut batch, 7));
        assert!(batch.is_empty());
    }

    #[test]
    fn block_meta_faithfully_describes_generated_work_blocks() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let mut work_blocks = 0;
        for exec in w.thread_trace(ThreadId::new(1)) {
            if exec.ops.len() == 1 && !exec.ops[0].is_mem() {
                assert!(!exec.meta.plain, "sync executions are never plain");
                continue;
            }
            work_blocks += 1;
            assert!(exec.meta.plain);
            assert_eq!(exec.meta.mem_ops as usize, exec.mem_accesses());
            assert_eq!(
                exec.meta.compute_ops as usize,
                exec.ops.len() - exec.mem_accesses()
            );
            // Runs tile the memory ops exactly, in order, with uniform
            // (page, kind) and maximal length.
            let mut covered = vec![false; exec.ops.len()];
            for (r, run) in exec.meta.runs.iter().enumerate() {
                assert!(run.len >= 1);
                for i in run.start..run.start + run.len {
                    let m = exec.ops[usize::from(i)]
                        .as_mem()
                        .expect("run covers mem op");
                    assert_eq!(m.addr.page(), run.page);
                    assert_eq!(m.kind, run.kind);
                    covered[usize::from(i)] = true;
                }
                if r > 0 {
                    let prev = exec.meta.runs[r - 1];
                    let adjacent =
                        usize::from(prev.start) + usize::from(prev.len) == usize::from(run.start);
                    assert!(
                        !adjacent || prev.page != run.page || prev.kind != run.kind,
                        "adjacent runs with equal keys must have been merged"
                    );
                }
            }
            for (i, op) in exec.ops.iter().enumerate() {
                assert_eq!(covered[i], op.is_mem(), "op {i} coverage");
            }
            // The fused single-pass construction must agree with the
            // reference rebuild.
            let mut reference = BlockMeta::default();
            reference.rebuild(&exec.ops);
            assert_eq!(exec.meta, reference);
        }
        assert!(work_blocks > 0);
    }

    #[test]
    fn block_meta_rebuild_flags_non_plain_operation_lists() {
        let mut meta = BlockMeta::default();
        meta.rebuild(&[
            Operation::Compute { count: 2 },
            Operation::Mem(MemRef::new(
                aikido_types::InstrId::new(BlockId::new(0), 1),
                Addr::new(0x1000),
                AccessKind::Read,
                aikido_types::AddrMode::Direct,
            )),
        ]);
        assert!(!meta.plain, "multi-instruction compute ops are not plain");
        assert_eq!(meta.runs.len(), 1);
        meta.rebuild(&[Operation::Exit]);
        assert!(!meta.plain);
        assert!(meta.runs.is_empty());
    }

    #[test]
    fn main_thread_forks_every_worker_and_joins_them() {
        let spec = small_spec();
        let trace = trace_of(&spec, 0);
        let forks: Vec<_> = trace
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Operation::Sync(SyncOp::Fork(t)) => Some(*t),
                _ => None,
            })
            .collect();
        let joins: Vec<_> = trace
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Operation::Sync(SyncOp::Join(t)) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(
            forks,
            vec![ThreadId::new(1), ThreadId::new(2), ThreadId::new(3)]
        );
        assert_eq!(joins, forks);
    }

    #[test]
    fn workers_do_not_fork_or_join() {
        let spec = small_spec();
        let trace = trace_of(&spec, 2);
        assert!(!trace.iter().flat_map(|b| &b.ops).any(|op| matches!(
            op,
            Operation::Sync(SyncOp::Fork(_)) | Operation::Sync(SyncOp::Join(_))
        )));
    }

    #[test]
    fn acquire_and_release_are_balanced_and_well_nested() {
        let spec = small_spec();
        for thread in 0..spec.threads {
            let trace = trace_of(&spec, thread);
            let mut held: Option<LockId> = None;
            let mut acquires = 0;
            for op in trace.iter().flat_map(|b| &b.ops) {
                match op {
                    Operation::Sync(SyncOp::Acquire(l)) => {
                        assert!(held.is_none(), "nested acquire in generated trace");
                        held = Some(*l);
                        acquires += 1;
                    }
                    Operation::Sync(SyncOp::Release(l)) => {
                        assert_eq!(held, Some(*l), "release of a lock not held");
                        held = None;
                    }
                    _ => {}
                }
            }
            assert!(held.is_none(), "trace ends while holding a lock");
            if thread > 0 {
                assert!(acquires > 0, "worker {thread} never used a lock");
            }
        }
    }

    #[test]
    fn per_thread_access_budget_is_respected() {
        let spec = small_spec();
        let trace = trace_of(&spec, 1);
        let accesses: usize = trace.iter().map(BlockExec::mem_accesses).sum();
        let budget = spec.mem_accesses_per_thread as usize;
        assert!(
            accesses >= budget,
            "must perform at least the requested accesses"
        );
        assert!(
            accesses <= budget + spec.block_mem_instrs as usize,
            "must not overshoot by more than one block"
        );
    }

    #[test]
    fn shared_fraction_roughly_matches_spec() {
        let spec = WorkloadSpec {
            mem_accesses_per_thread: 20_000,
            instrumented_exec_fraction: 0.3,
            shared_within_instrumented: 0.9,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(&spec);
        let layout = w.layout();
        let shared_base = layout.shared_base().raw();
        let shared_end = shared_base + layout.shared_bytes();
        let mut total = 0u64;
        let mut shared = 0u64;
        for exec in w.thread_trace(ThreadId::new(1)) {
            for op in &exec.ops {
                if let Operation::Mem(m) = op {
                    total += 1;
                    if m.addr.raw() >= shared_base && m.addr.raw() < shared_end {
                        shared += 1;
                    }
                }
            }
        }
        let measured = shared as f64 / total as f64;
        let expected = spec.expected_shared_access_fraction();
        assert!(
            (measured - expected).abs() < 0.05,
            "measured {measured:.3}, expected {expected:.3}"
        );
    }

    #[test]
    fn locked_accesses_stay_inside_the_held_locks_slice() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let layout = w.layout();
        for thread in 0..spec.threads {
            let mut held: Option<u32> = None;
            for exec in w.thread_trace(ThreadId::new(thread)) {
                for op in &exec.ops {
                    match op {
                        Operation::Sync(SyncOp::Acquire(l)) => held = Some((l.raw() - 1) as u32),
                        Operation::Sync(SyncOp::Release(_)) => held = None,
                        Operation::Mem(m) => {
                            let (lk_base, lk_len) = layout.locked_area();
                            let in_locked_area = m.addr.raw() >= lk_base.raw()
                                && m.addr.raw() < lk_base.raw() + lk_len;
                            if in_locked_area {
                                let lock =
                                    held.expect("locked-area access outside critical section");
                                let (sbase, slen) = layout.lock_slice(lock);
                                assert!(
                                    m.addr.raw() >= sbase.raw()
                                        && m.addr.raw() < sbase.raw() + slen,
                                    "access outside the held lock's slice"
                                );
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn barriers_are_emitted_at_the_same_cadence_on_every_thread() {
        let mut spec = small_spec();
        spec.barrier_every = 20;
        let w = Workload::generate(&spec);
        let barrier_count = |t: u32| {
            w.thread_trace(ThreadId::new(t))
                .flat_map(|b| b.ops)
                .filter(|op| matches!(op, Operation::Sync(SyncOp::Barrier(_))))
                .count()
        };
        let counts: Vec<_> = (0..spec.threads).map(barrier_count).collect();
        assert!(counts[0] > 0);
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn racy_workloads_touch_the_racy_area_from_multiple_threads() {
        let mut spec = small_spec();
        spec.racy_pairs = 1;
        let w = Workload::generate(&spec);
        let (racy_base, racy_len) = w.layout().racy_area();
        assert!(racy_len > 0);
        let mut threads_touching = 0;
        for t in 0..spec.threads {
            let touches = w
                .thread_trace(ThreadId::new(t))
                .flat_map(|b| b.ops)
                .any(|op| match op {
                    Operation::Mem(m) => {
                        m.addr.raw() >= racy_base.raw() && m.addr.raw() < racy_base.raw() + racy_len
                    }
                    _ => false,
                });
            if touches {
                threads_touching += 1;
            }
        }
        assert!(
            threads_touching >= 2,
            "need at least two threads for a race"
        );
    }

    #[test]
    fn read_mostly_area_is_only_written_before_the_fork() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let (rm_base, rm_len) = w.layout().read_mostly_area();
        for t in 0..spec.threads {
            let mut forked = t != 0; // workers run entirely after the fork
            for exec in w.thread_trace(ThreadId::new(t)) {
                for op in &exec.ops {
                    match op {
                        Operation::Sync(SyncOp::Fork(_)) => forked = true,
                        Operation::Mem(m)
                            if forked
                                && m.addr.raw() >= rm_base.raw()
                                && m.addr.raw() < rm_base.raw() + rm_len =>
                        {
                            assert_eq!(
                                m.kind,
                                AccessKind::Read,
                                "read-mostly data written after fork would be a race"
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

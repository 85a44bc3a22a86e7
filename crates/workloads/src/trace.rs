//! Per-thread trace generation.
//!
//! A generated execution carries only what the random draws decide: the
//! block, its [`Step`], and one packed [`AccessWord`] per memory slot of the
//! block. Everything static about a work block lives once per workload in
//! its [`BlockShape`](crate::BlockShape).

use rand::distributions::{Bernoulli, Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use aikido_types::{AccessKind, Addr, BlockId, LockId, MemRef, Operation, SyncOp, ThreadId, Vpn};

use crate::workload::Workload;

/// One memory access packed into a word: the effective address in the low
/// 63 bits, the write flag in the top bit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessWord(u64);

impl AccessWord {
    const WRITE: u64 = 1 << 63;

    /// Addresses must stay below this bound to fit beside the write flag
    /// ([`Workload::generate`] checks the layout against it once).
    pub(crate) const ADDR_LIMIT: u64 = Self::WRITE;

    /// Packs `addr` and `kind`.
    #[inline]
    pub(crate) const fn new(addr: Addr, kind: AccessKind) -> Self {
        debug_assert!(addr.raw() < Self::ADDR_LIMIT);
        AccessWord(addr.raw() | (kind.is_write() as u64) << 63)
    }

    /// The effective address.
    #[inline]
    pub const fn addr(self) -> Addr {
        Addr::new(self.0 & !Self::WRITE)
    }

    /// Read or write.
    #[inline]
    pub const fn kind(self) -> AccessKind {
        if self.0 & Self::WRITE != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// The page the access targets.
    #[inline]
    pub const fn page(self) -> Vpn {
        self.addr().page()
    }
}

/// What a [`BlockExec`] does besides its memory accesses.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Step {
    /// A work block: its accesses, interleaved with the block's compute
    /// instructions as its [`BlockShape`](crate::BlockShape) lays them out.
    Work,
    /// A synchronisation block performing one sync op (no accesses).
    Sync(SyncOp),
    /// The thread's final exit block (no accesses).
    #[default]
    Exit,
}

/// One dynamic execution of a static basic block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockExec {
    /// The static block being executed.
    pub block: BlockId,
    /// What the execution does.
    pub step: Step,
    /// One word per memory slot of the block's shape, in program order
    /// (empty unless `step` is [`Step::Work`]).
    pub accesses: Vec<AccessWord>,
}

impl BlockExec {
    /// The execution as one [`Operation`] per static instruction of its
    /// block — the decoded form the simulator's scalar reference executor
    /// and tests consume. Work blocks yield `Compute { count: 1 }` for every
    /// non-memory instruction; sync and exit blocks yield their one op.
    pub fn operations<'a>(
        &'a self,
        workload: &'a Workload,
    ) -> impl Iterator<Item = Operation> + 'a {
        let shape = workload.shape(self.block);
        let (body, tail) = match self.step {
            Step::Work => (shape.instrs(), None),
            Step::Sync(op) => (0, Some(Operation::Sync(op))),
            Step::Exit => (0, Some(Operation::Exit)),
        };
        let mut mems = shape.slots().iter().zip(&self.accesses).peekable();
        (0..body)
            .map(
                move |i| match mems.next_if(|(slot, _)| u32::from(slot.instr.index()) == i) {
                    Some((slot, word)) => {
                        Operation::Mem(MemRef::new(slot.instr, word.addr(), word.kind(), slot.mode))
                    }
                    None => Operation::Compute { count: 1 },
                },
            )
            .chain(tail)
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
    /// Work blocks left until the next barrier falls due: the barrier
    /// cadence as a countdown, so charging a block needs no division.
    /// Derived from `at.work_blocks_emitted` when the stream opens, so it is
    /// not part of the [`TraceCursor`].
    blocks_to_barrier: u64,
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

/// The packed access word of a private-area or lock-slice access whose kind
/// comes from the read/write draw.
#[inline]
fn with_drawn_kind(addr: Addr, read: Bernoulli, rng: &mut SmallRng) -> AccessWord {
    let kind = if read.sample(rng) {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    AccessWord::new(addr, kind)
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
        // The next barrier falls due at the first multiple of the cadence
        // past the blocks emitted so far. Without barriers the countdown
        // starts at u64::MAX: a stream would need 2^64 - 1 work blocks to
        // run it out.
        let blocks_to_barrier = match workload.spec().barrier_every {
            0 => u64::MAX,
            every => every - cursor.counters.work_blocks_emitted % every,
        };
        ThreadTrace {
            workload,
            thread,
            rng: SmallRng::from_state(cursor.rng),
            gen: GenParams::new(workload, thread),
            at: cursor.counters,
            blocks_to_barrier,
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

    /// Produces the next execution into `out`, overwriting its block and
    /// step and refilling its access vector in place; returns `false` (and
    /// leaves `out` untouched) when the trace is exhausted. Reusing one
    /// `out` keeps the steady-state trace loop free of allocation: this is
    /// the interface the simulator's scheduler drains.
    pub fn next_into(&mut self, out: &mut BlockExec) -> bool {
        if let Some(cs) = self.at.critical_section {
            self.next_in_critical_section(cs, out);
            return true;
        }
        if self.at.barriers_due > 0 {
            self.next_barrier(out);
            return true;
        }
        let sets = self.workload.block_sets();
        loop {
            match self.at.phase {
                TracePhase::Init => {
                    if self.at.init_remaining > 0 {
                        self.next_init(out);
                        return true;
                    }
                    self.at.phase = TracePhase::Fork;
                }
                TracePhase::Fork => {
                    if self.at.fork_next < self.workload.spec().threads {
                        let child = ThreadId::new(self.at.fork_next);
                        self.at.fork_next += 1;
                        sync_exec(out, sets.fork_block, Step::Sync(SyncOp::Fork(child)));
                        return true;
                    }
                    self.at.phase = TracePhase::Work;
                }
                TracePhase::Work => {
                    if self.at.remaining_accesses > 0 {
                        self.next_work(out);
                        return true;
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
                        sync_exec(out, sets.join_block, Step::Sync(SyncOp::Join(child)));
                        return true;
                    }
                    self.at.phase = TracePhase::Exit;
                }
                TracePhase::Exit => {
                    self.at.phase = TracePhase::Done;
                    sync_exec(out, sets.exit_block, Step::Exit);
                    return true;
                }
                TracePhase::Done => return false,
            }
        }
    }

    /// Fills `out` with one execution of work block `block`: one access word
    /// per memory slot of its shape, each drawn by `pick` in slot order.
    #[inline]
    fn work_exec<F>(&mut self, out: &mut BlockExec, block: BlockId, mut pick: F)
    where
        F: FnMut(&mut SmallRng) -> AccessWord,
    {
        let slots = self.workload.shape(block).slots().len();
        out.block = block;
        out.step = Step::Work;
        out.accesses.clear();
        let rng = &mut self.rng;
        out.accesses.extend((0..slots).map(|_| pick(rng)));
    }

    fn next_init(&mut self, out: &mut BlockExec) {
        let spec_block_mem = self.gen.block_mem_instrs;
        let (rm_base, rm_len) = (self.gen.rm_base, self.gen.rm_len);
        let block = self.workload.block_sets().init_blocks
            [(self.at.init_cursor as usize) % self.workload.block_sets().init_blocks.len()];
        let mut cursor = self.at.init_cursor;
        self.work_exec(out, block, |_rng| {
            let addr = rm_base.offset((cursor * 64) % rm_len.max(64));
            cursor += 1;
            AccessWord::new(addr, AccessKind::Write)
        });
        self.at.init_cursor = cursor;
        self.at.init_remaining = self.at.init_remaining.saturating_sub(spec_block_mem);
    }

    fn next_private(&mut self, out: &mut BlockExec) {
        let blocks = &self.workload.block_sets().private_blocks;
        let block = blocks[self.gen.private_block.sample(&mut self.rng)];
        let (base, slot, read) = (self.gen.private_base, self.gen.private_slot, self.gen.read);
        self.work_exec(out, block, |rng| {
            with_drawn_kind(base.offset(slot.sample(rng) * 8), read, rng)
        });
    }

    /// Opens a lock-protected episode: draws the lock and emits its
    /// acquire. The body blocks and the release follow on demand
    /// ([`ThreadTrace::next_in_critical_section`]).
    fn next_acquire(&mut self, out: &mut BlockExec) {
        let lock = self.gen.lock.sample(&mut self.rng);
        self.at.critical_section = Some(CriticalSection {
            lock,
            bodies_left: self.gen.critical_section_blocks.max(1),
        });
        let acquire = Step::Sync(SyncOp::Acquire(LockId::new(lock as u64 + 1)));
        sync_exec(out, self.workload.block_sets().acquire_block, acquire);
    }

    /// The next execution inside the open critical section `cs`: a shared
    /// body block within the lock's slice, or the release. A critical
    /// section amortises one acquire/release pair over several shared block
    /// executions, but never overruns the thread's access budget (which
    /// would desynchronise barrier cadences across threads): after the first
    /// body, an exhausted budget releases early.
    fn next_in_critical_section(&mut self, cs: CriticalSection, out: &mut BlockExec) {
        let first = cs.bodies_left == self.gen.critical_section_blocks.max(1);
        if cs.bodies_left == 0 || (!first && self.at.remaining_accesses == 0) {
            self.at.critical_section = None;
            let release = Step::Sync(SyncOp::Release(LockId::new(cs.lock as u64 + 1)));
            sync_exec(out, self.workload.block_sets().release_block, release);
            return;
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
        self.work_exec(out, block, |rng| {
            let addr = if shared_within.sample(rng) {
                slice_base.offset(slice_slot.sample(rng) * 8)
            } else {
                private_base.offset(private_slot.sample(rng) * 8)
            };
            with_drawn_kind(addr, read, rng)
        });
        self.charge_work_block();
    }

    /// Accounts one work block against the thread's access budget and barrier
    /// cadence. Barriers are only recorded as *due* here;
    /// [`ThreadTrace::next_into`] emits them once the thread holds no lock.
    fn charge_work_block(&mut self) {
        self.at.remaining_accesses = self
            .at
            .remaining_accesses
            .saturating_sub(self.gen.block_mem_instrs);
        self.at.work_blocks_emitted += 1;
        self.blocks_to_barrier -= 1;
        if self.blocks_to_barrier == 0 {
            self.at.barriers_due += 1;
            self.blocks_to_barrier = self.gen.barrier_every;
        }
    }

    /// Emits the oldest due barrier.
    fn next_barrier(&mut self, out: &mut BlockExec) {
        self.at.barriers_due -= 1;
        let barrier = Step::Sync(SyncOp::Barrier(self.at.barrier_counter));
        self.at.barrier_counter += 1;
        sync_exec(out, self.workload.block_sets().barrier_block, barrier);
    }

    /// An unsynchronised shared block execution: reads of read-mostly data
    /// (race-free because it was written before the fork) plus, for racy
    /// workloads, occasional unprotected accesses to the racy area.
    fn next_unlocked_shared(&mut self, out: &mut BlockExec) {
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
        self.work_exec(out, block, |rng| {
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
                    AccessWord::new(addr, kind)
                } else {
                    AccessWord::new(rm_base.offset(rm_slot.sample(rng) * 8), AccessKind::Read)
                }
            } else {
                with_drawn_kind(private_base.offset(private_slot.sample(rng) * 8), read, rng)
            }
        });
    }

    fn next_work(&mut self, out: &mut BlockExec) {
        // A locked episode emits `critical_section_blocks` shared blocks while
        // a private/unlocked choice emits one, so the per-decision probability
        // is corrected for the spec's *access-level* fraction — precomputed in
        // [`GenParams::new`].
        if self.gen.choice.sample(&mut self.rng) {
            if self.gen.locked.sample(&mut self.rng) {
                // The critical section charges its own body blocks.
                return self.next_acquire(out);
            }
            self.next_unlocked_shared(out);
        } else {
            self.next_private(out);
        }
        self.charge_work_block();
    }
}

/// Fills `out` with a sync or exit execution of `block` (no accesses).
fn sync_exec(out: &mut BlockExec, block: BlockId, step: Step) {
    out.block = block;
    out.step = step;
    out.accesses.clear();
}

impl Iterator for ThreadTrace<'_> {
    type Item = BlockExec;

    /// The next execution in a fresh allocation; [`ThreadTrace::next_into`]
    /// is the allocation-free form.
    fn next(&mut self) -> Option<BlockExec> {
        let mut exec = BlockExec::default();
        self.next_into(&mut exec).then_some(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadSpec};

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
    fn work_executions_carry_one_access_word_per_shape_slot() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let mut work_blocks = 0;
        for exec in w.thread_trace(ThreadId::new(1)) {
            let block = w.program().block(exec.block).expect("block exists");
            let ops: Vec<Operation> = exec.operations(&w).collect();
            if exec.step != Step::Work {
                assert!(
                    exec.accesses.is_empty(),
                    "sync executions carry no accesses"
                );
                assert_eq!(ops.len(), 1);
                continue;
            }
            work_blocks += 1;
            let shape = w.shape(exec.block);
            assert_eq!(exec.accesses.len(), shape.slots().len());
            assert_eq!(shape.instrs() as usize, block.len());
            assert_eq!(shape.computes() as usize, block.len() - shape.slots().len());
            // The adapter decodes one op per static instruction, aligned by
            // index, and round-trips every word in slot order.
            assert_eq!(ops.len(), block.len());
            let mems: Vec<MemRef> = ops.iter().filter_map(|op| op.as_mem().copied()).collect();
            assert_eq!(mems.len(), exec.accesses.len());
            for ((m, slot), word) in mems.iter().zip(shape.slots()).zip(&exec.accesses) {
                assert_eq!(m.instr, slot.instr);
                assert_eq!(m.mode, slot.mode);
                assert!(matches!(
                    ops[usize::from(slot.instr.index())],
                    Operation::Mem(_)
                ));
                assert_eq!(AccessWord::new(m.addr, m.kind), *word);
                assert_eq!((word.addr(), word.kind()), (m.addr, m.kind));
                assert_eq!(word.page(), m.addr.page());
            }
        }
        assert!(work_blocks > 0);
    }

    #[test]
    fn access_words_round_trip_up_to_the_address_limit() {
        let top = Addr::new(AccessWord::ADDR_LIMIT - 8);
        let write = AccessWord::new(top, AccessKind::Write);
        assert_eq!((write.addr(), write.kind()), (top, AccessKind::Write));
    }

    #[test]
    fn main_thread_forks_every_worker_and_joins_them() {
        let spec = small_spec();
        let trace = trace_of(&spec, 0);
        let forks: Vec<_> = trace
            .iter()
            .filter_map(|b| match b.step {
                Step::Sync(SyncOp::Fork(t)) => Some(t),
                _ => None,
            })
            .collect();
        let joins: Vec<_> = trace
            .iter()
            .filter_map(|b| match b.step {
                Step::Sync(SyncOp::Join(t)) => Some(t),
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
        assert!(!trace.iter().any(|b| matches!(
            b.step,
            Step::Sync(SyncOp::Fork(_)) | Step::Sync(SyncOp::Join(_))
        )));
    }

    #[test]
    fn acquire_and_release_are_balanced_and_well_nested() {
        let spec = small_spec();
        for thread in 0..spec.threads {
            let trace = trace_of(&spec, thread);
            let mut held: Option<LockId> = None;
            let mut acquires = 0;
            for exec in &trace {
                match exec.step {
                    Step::Sync(SyncOp::Acquire(l)) => {
                        assert!(held.is_none(), "nested acquire in generated trace");
                        held = Some(l);
                        acquires += 1;
                    }
                    Step::Sync(SyncOp::Release(l)) => {
                        assert_eq!(held, Some(l), "release of a lock not held");
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
        let accesses: usize = trace.iter().map(|b| b.accesses.len()).sum();
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
            for word in &exec.accesses {
                total += 1;
                if word.addr().raw() >= shared_base && word.addr().raw() < shared_end {
                    shared += 1;
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
                for op in exec.operations(&w) {
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
                .filter(|b| matches!(b.step, Step::Sync(SyncOp::Barrier(_))))
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
                .flat_map(|b| b.accesses)
                .any(|word| {
                    let addr = word.addr().raw();
                    addr >= racy_base.raw() && addr < racy_base.raw() + racy_len
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
                for op in exec.operations(&w) {
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

//! The FastTrack detector itself.

use std::collections::HashSet;

use aikido_shadow::ShadowStore;
use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{
    AccessContext, AccessKind, Addr, AnalysisReport, InstrId, LockId, ReportKind, ShadowWord,
    SharedDataAnalysis, SlabDirectory, SlabHandle, ThreadId, SLAB_BITS, SLAB_WORDS,
};

use crate::clock::{Epoch, VectorClock};
use crate::config::FastTrackConfig;
use crate::dense::DenseMap;
use crate::packed::{
    decode_word, encode_state, is_canonical_word, pack_epoch, read_word, write_word, PackedVars,
    INLINE_LANES, SPILLED_RECORD,
};
use crate::state::{ReadState, VarState};
use crate::stats::{FastTrackStats, SpillStats};

/// Where per-variable metadata lives. The packed plane (the default) keeps
/// one bit-packed [`ShadowWord`] per block in page-granular dense slabs with
/// a spilled side table; the reference store keeps the full enum
/// representation and is retained as the equivalence oracle behind
/// [`FastTrack::with_reference_store`]. [`read_slow`]/[`write_slow`] are the
/// one update spec: the reference store runs them on every slow access, the
/// packed plane on every slow access except the unspilled exclusive cases,
/// which it decides on the word (`read_word`/`write_word`) to the same
/// outcome and the same re-encoded word.
#[derive(Debug)]
enum VarStorage {
    /// Packed shadow words + spill side table (the hot-path default).
    Packed(PackedVars),
    /// The retained enum-based reference representation.
    Reference(ShadowStore<VarState>),
}

/// The FastTrack happens-before race detector.
///
/// See the crate-level documentation for the algorithm overview and an
/// example. The detector can be driven either directly
/// ([`FastTrack::read`], [`FastTrack::write`], [`FastTrack::acquire`], …) or
/// through the [`SharedDataAnalysis`] trait when plugged into the Aikido or
/// full-instrumentation pipelines.
#[derive(Debug)]
pub struct FastTrack {
    config: FastTrackConfig,
    /// Per-thread vector clocks, keyed by dense thread slot.
    threads: DenseMap<VectorClock>,
    /// Per-lock vector clocks, keyed by dense lock slot.
    locks: DenseMap<VectorClock>,
    /// Per-variable (8-byte block) metadata, in shadow memory.
    vars: VarStorage,
    /// Blocks for which a race has already been reported (deduplication).
    reported_blocks: HashSet<u64>,
    reports: Vec<AnalysisReport>,
    stats: FastTrackStats,
    /// Cycles attributable to the most recent read/write check (depends on
    /// the path taken; used by the simulator's cost model).
    last_cost: u64,
}

/// Cycle costs of the different FastTrack code paths, used to report
/// [`SharedDataAnalysis::last_access_cost_cycles`]. Calibrated so that full
/// instrumentation of every access lands in the paper's tens-to-hundreds-of-x
/// slowdown band, with the vector-clock slow paths (which grow with thread
/// count) substantially more expensive than the epoch fast path.
pub(crate) mod cost {
    /// Same-epoch fast path (one comparison).
    pub const SAME_EPOCH: u64 = 30;
    /// Exclusive-epoch check and update.
    pub const EXCLUSIVE: u64 = 78;
    /// Promotion of a read history to a vector clock.
    pub const PROMOTE_SHARED: u64 = 160;
    /// Per-thread extra cost of any operation over a read-shared vector clock.
    pub const SHARED_PER_THREAD: u64 = 16;
    /// Base cost of an operation over a read-shared vector clock.
    pub const SHARED_BASE: u64 = 95;
    /// Extra cost of constructing and emitting a race report.
    pub const REPORT: u64 = 220;
}

/// True if the access hits FastTrack's same-epoch read fast path: the read
/// history already records this exact epoch. Shared storage-independent
/// logic — the packed word probe is proven equal to this for unspilled
/// states, and spilled states run it directly.
#[inline]
fn read_fast_path(state: &VarState, thread: ThreadId, epoch: Epoch) -> bool {
    match &state.read {
        ReadState::Exclusive(e) => *e == epoch,
        ReadState::Shared(rvc) => rvc.get(thread) == epoch.clock(),
    }
}

/// A thread epoch pre-positioned for every packed fast path: one probe for
/// the unspilled read lane, one for the spilled same-epoch hint, one for
/// the unspilled write lane and one for the spilled *owned*-write check —
/// each a single masked compare — plus the packed field itself, which the
/// unspilled slow paths install. Packed once per call of the access kernel
/// (a batch, or one scalar access). `None` when the epoch exceeds the
/// packing budget — exactly when no packed word can match it.
#[derive(Copy, Clone)]
struct EpochProbes {
    epoch: Epoch,
    field: u64,
    read: u64,
    hint: u64,
    write: u64,
    owned: u64,
}

impl EpochProbes {
    #[inline]
    fn pack(epoch: Epoch) -> Option<EpochProbes> {
        pack_epoch(epoch).map(|field| EpochProbes {
            epoch,
            field,
            read: ShadowWord::read_probe(field),
            hint: ShadowWord::spill_hint_probe(field),
            write: ShadowWord::write_probe(field),
            owned: ShadowWord::owned_write_probe(field),
        })
    }
}

/// The same-epoch hint to leave in a spilled word after a slow access: the
/// epoch field whose read probe would now hit the fast path (0 = none). A
/// read just recorded `epoch` in the read history; a write always leaves an
/// exclusive read history behind, whose epoch answers repeat reads.
#[inline]
fn spill_hint_after(state: &VarState, read_epoch: Option<Epoch>) -> u64 {
    let epoch = match (read_epoch, &state.read) {
        (Some(epoch), _) => epoch,
        (None, ReadState::Exclusive(e)) => *e,
        (None, ReadState::Shared(_)) => return 0,
    };
    pack_epoch(epoch).unwrap_or(0)
}

/// The ownership-tagged word to install on a still-spilled block: `field`
/// is the same-epoch hint and the owner tag is set exactly when the hint
/// epoch equals the block's write epoch — the condition under which the
/// hint's thread *owns* the block and its repeat writes can be answered by
/// the word-level [`ShadowWord::matches_owned_write`] compare without
/// touching the arena (packing is injective, so comparing packed fields
/// compares the epochs).
#[inline]
fn ownership_word(word: ShadowWord, write: Epoch, field: u64) -> ShadowWord {
    let owned = field != 0 && pack_epoch(write) == Some(field);
    word.with_ownership(field, owned)
}

/// The hot front of a packed read, on the kernel's split borrows: the
/// same-epoch word probe and the race-free unspilled word path. Returns the
/// access's cost when it decided the read (statistics and word updated), or
/// `None`, leaving everything else — spilled words, promotions, races — to
/// [`FastTrack::read_packed_tail`] with the word untouched. [`read_slow`]
/// stays the spec: the word path is proven equal to it on unspilled words.
#[inline]
fn read_packed(
    vars: &mut PackedVars,
    stats: &mut FastTrackStats,
    vc: &VectorClock,
    probes: EpochProbes,
    handle: SlabHandle,
    slot: usize,
    word: ShadowWord,
) -> Option<u64> {
    // One masked compare covers "unspilled ∧ exclusive-read epoch equals
    // ours", a second "spilled ∧ same-epoch hint equals ours" (owner tag
    // excluded from the mask, so the hint answers whichever thread it
    // names): either way the side arena is never touched.
    if word.matches_read(probes.read) || word.matches_spill_hint(probes.hint) {
        stats.read_same_epoch += 1;
        return Some(cost::SAME_EPOCH);
    }
    if word.is_spilled() {
        // A hint naming another thread: the slot's epoch lane answers the
        // first INLINE_LANES threads exactly (see `SpillSlot`).
        let lane = probes.epoch.thread().index();
        if lane < INLINE_LANES && vars.spill_slot(word).lane_clock(lane) == probes.epoch.clock() {
            stats.read_same_epoch += 1;
            return Some(cost::SAME_EPOCH);
        }
        return None;
    }
    // The common slow read: the prior read happens-before this one, so our
    // epoch replaces it in the word (two field compares and one store).
    match read_word(word, vc, probes.field) {
        Some((word, out)) if !out.write_race => {
            vars.set_word_at(handle, slot, word);
            Some(out.cost)
        }
        _ => None,
    }
}

/// The hot front of a packed write (see [`read_packed`]): the same-epoch
/// word probe and the race-free unspilled word path, else `None` for
/// [`FastTrack::write_packed_tail`]. [`write_slow`] stays the spec.
#[inline]
fn write_packed(
    vars: &mut PackedVars,
    stats: &mut FastTrackStats,
    vc: &VectorClock,
    probes: EpochProbes,
    handle: SlabHandle,
    slot: usize,
    word: ShadowWord,
) -> Option<u64> {
    // One masked compare against the write lane, plus the ownership-epoch
    // compare for spilled blocks: a spilled word whose owner tag is set
    // carries a hint equal to the block's write epoch, so the owner's
    // repeat write is answered by the word alone.
    if word.matches_write(probes.write) || word.matches_owned_write(probes.owned) {
        stats.write_same_epoch += 1;
        return Some(cost::SAME_EPOCH);
    }
    if word.is_spilled() {
        if vars.spill_slot(word).write_epoch() == probes.epoch {
            stats.write_same_epoch += 1;
            return Some(cost::SAME_EPOCH);
        }
        return None;
    }
    // An unspilled word holds an exclusive read history, so the write only
    // replaces the write field.
    let (word, out) = write_word(word, vc, probes.field);
    if out.write_race || out.read_race {
        return None;
    }
    vars.set_word_at(handle, slot, word);
    Some(out.cost)
}

/// What the slow read path did to a variable's state; the caller applies the
/// statistics, cost and report. Produced by both [`read_slow`] and the spill
/// slot's in-place [`crate::packed::SpillSlot::read_update`].
pub(crate) struct ReadOutcome {
    pub(crate) cost: u64,
    pub(crate) promoted: bool,
    pub(crate) write_race: bool,
    pub(crate) prior_writer: ThreadId,
}

/// The read update: write-read race check plus read-history update, exactly
/// the logic both storage representations share.
#[inline]
fn read_slow(
    state: &mut VarState,
    vc: &VectorClock,
    thread: ThreadId,
    epoch: Epoch,
    use_epochs: bool,
    threads_known: u64,
) -> ReadOutcome {
    let mut cost = cost::EXCLUSIVE;
    let mut promoted = false;

    // Write-read race check: the last write must happen-before this read.
    let write_race = !state.write.happens_before(vc);
    let prior_writer = state.write.thread();

    // Update the read history.
    match (&mut state.read, use_epochs) {
        (ReadState::Exclusive(e), true) if e.happens_before(vc) => {
            *e = epoch;
        }
        (ReadState::Exclusive(e), _) => {
            // Concurrent (or epoch optimisation disabled): promote to a
            // vector clock.
            let mut rvc = VectorClock::new();
            if e.clock() > 0 {
                rvc.set(e.thread(), e.clock());
            }
            rvc.set(thread, epoch.clock());
            state.read = ReadState::Shared(Box::new(rvc));
            promoted = true;
            cost = cost::PROMOTE_SHARED;
        }
        (ReadState::Shared(rvc), _) => {
            rvc.set(thread, epoch.clock());
            cost = cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known;
        }
    }

    ReadOutcome {
        cost,
        promoted,
        write_race,
        prior_writer,
    }
}

/// What the slow write path did to a variable's state. Produced by both
/// [`write_slow`] and [`crate::packed::SpillSlot::write_update`].
pub(crate) struct WriteOutcome {
    pub(crate) cost: u64,
    pub(crate) write_race: bool,
    pub(crate) prior_writer: ThreadId,
    pub(crate) read_race: bool,
    pub(crate) prior_reader: Option<ThreadId>,
}

/// The write update: write-write and read-write race checks plus the write
/// record and read-history collapse, shared by both storages.
#[inline]
fn write_slow(
    state: &mut VarState,
    vc: &VectorClock,
    epoch: Epoch,
    threads_known: u64,
) -> WriteOutcome {
    let cost = if state.read.is_shared() {
        cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known
    } else {
        cost::EXCLUSIVE
    };
    let write_race = !state.write.happens_before(vc);
    let prior_writer = state.write.thread();
    let read_race = !state.read.happens_before(vc);
    let prior_reader = match &state.read {
        ReadState::Exclusive(e) => Some(e.thread()),
        ReadState::Shared(rvc) => rvc.iter().find(|(t, c)| *c > vc.get(*t)).map(|(t, _)| t),
    };

    // Update: record this write; once all concurrent reads have been
    // checked the read history can collapse back to the writer's epoch
    // (FastTrack's "write shared" rule).
    state.write = epoch;
    if state.read.is_shared() {
        state.read = ReadState::Exclusive(epoch);
    }

    WriteOutcome {
        cost,
        write_race,
        prior_writer,
        read_race,
        prior_reader,
    }
}

impl Default for FastTrack {
    fn default() -> Self {
        Self::new()
    }
}

impl FastTrack {
    /// Creates a detector with the default configuration (8-byte blocks,
    /// epoch optimisation enabled).
    pub fn new() -> Self {
        Self::with_config(FastTrackConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured granularity is not a power of two.
    pub fn with_config(config: FastTrackConfig) -> Self {
        FastTrack {
            vars: VarStorage::Packed(PackedVars::new(config.granularity)),
            config,
            threads: DenseMap::default(),
            locks: DenseMap::default(),
            reported_blocks: HashSet::new(),
            reports: Vec::new(),
            stats: FastTrackStats::new(),
            last_cost: 0,
        }
    }

    /// Builder: runs this detector on the enum-based reference store instead
    /// of the packed shadow-word plane. The two are byte-identical by
    /// construction — same statistics, same costs, same races, same
    /// reconstructed states — so the reference store exists only as the
    /// equivalence oracle (the simulator's `Simulator::reference` executor
    /// selects it), not as a user-facing feature. Valid only on a fresh
    /// detector: no state is converted.
    pub fn with_reference_store(mut self) -> Self {
        debug_assert_eq!(
            self.tracked_blocks(),
            0,
            "with_reference_store on a detector that already tracks state"
        );
        self.vars = VarStorage::Reference(ShadowStore::new(self.config.granularity));
        self
    }

    /// A fresh detector with `config` on the packed plane (`packed`) or the
    /// reference store.
    fn with_storage(config: FastTrackConfig, packed: bool) -> Self {
        let ft = FastTrack::with_config(config);
        if packed {
            ft
        } else {
            ft.with_reference_store()
        }
    }

    /// True if the detector runs on the packed metadata plane.
    pub fn packed_words(&self) -> bool {
        matches!(self.vars, VarStorage::Packed(_))
    }

    /// Number of blocks currently holding metadata, independent of the
    /// storage representation.
    pub fn tracked_blocks(&self) -> usize {
        match &self.vars {
            VarStorage::Packed(vars) => vars.len(),
            VarStorage::Reference(store) => store.len(),
        }
    }

    /// Every tracked `(block index, state)` pair in ascending block order,
    /// reconstructed from whichever storage is active. This is the
    /// serialization surface the packed-vs-reference equivalence oracle
    /// compares.
    pub fn var_states(&self) -> Vec<(u64, VarState)> {
        match &self.vars {
            VarStorage::Packed(vars) => vars.states(),
            VarStorage::Reference(store) => {
                let shift = self.config.granularity.trailing_zeros();
                store
                    .iter()
                    .map(|(addr, state)| (addr.raw() >> shift, state.clone()))
                    .collect()
            }
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &FastTrackConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &FastTrackStats {
        &self.stats
    }

    /// Spill/ownership counters of the packed plane's representation —
    /// zeros when the reference store is active (it has no arena). Unlike
    /// [`FastTrack::stats`], these are not part of the packed-vs-reference
    /// equivalence surface.
    pub fn spill_stats(&self) -> SpillStats {
        match &self.vars {
            VarStorage::Packed(vars) => vars.spill_stats(),
            VarStorage::Reference(_) => SpillStats::default(),
        }
    }

    /// All race reports recorded so far.
    pub fn races(&self) -> &[AnalysisReport] {
        &self.reports
    }

    /// Total races detected, including ones deduplicated out of the report
    /// list.
    pub fn races_detected(&self) -> u64 {
        self.stats.races_detected
    }

    /// The vector clock of `thread` (creating it on first use).
    fn thread_vc(&mut self, thread: ThreadId) -> &mut VectorClock {
        self.threads.get_or_insert_with(thread.index() as u64, || {
            let mut vc = VectorClock::new();
            vc.set(thread, 1);
            vc
        })
    }

    /// Ensures a thread exists and returns a snapshot of its vector clock.
    /// Only the (rare) synchronisation operations snapshot; the per-access
    /// paths borrow the clock in place.
    fn thread_vc_snapshot(&mut self, thread: ThreadId) -> VectorClock {
        self.thread_vc(thread).clone()
    }

    /// Processes a read of the block containing `addr` by `thread`.
    pub fn read(&mut self, thread: ThreadId, addr: Addr) {
        self.read_at(thread, addr, None)
    }

    /// Processes a read, recording the static instruction for reports.
    pub fn read_at(&mut self, thread: ThreadId, addr: Addr, instr: Option<InstrId>) {
        self.access_kernel(thread, &[(AccessKind::Read, addr, instr)], |a| a, |_| {});
    }

    /// The single access kernel: runs `run` — accesses by `thread` with no
    /// synchronisation between them, each viewed as `(kind, address,
    /// instruction)` — and hands every access's cost to `sink`, in order.
    ///
    /// The prolog runs once: it ensures the thread's clock, packs the epoch
    /// probes and counts the known threads before and after the ensure.
    /// Accesses never create clocks or advance epochs, so these are exactly
    /// what the scalar path recomputes per access, with one exception: an
    /// access that creates the clock sees the before-ensure count, and only
    /// the first access can be that one.
    ///
    /// On the packed plane with the epoch optimisation and a packable epoch,
    /// the clock is then borrowed once, and every access — the first
    /// included — is located and decided inline by the hot fronts
    /// ([`read_packed`]/[`write_packed`]). An access the fronts leave
    /// undecided, and every access in any other configuration, takes the
    /// out-of-line [`FastTrack::access_slow`].
    #[inline]
    fn access_kernel<I: Copy>(
        &mut self,
        thread: ThreadId,
        run: &[I],
        view: impl Fn(I) -> (AccessKind, Addr, Option<InstrId>),
        mut sink: impl FnMut(u64),
    ) {
        let known_before = self.threads.len().max(1) as u64;
        let epoch = self.thread_vc(thread).epoch_of(thread);
        let known_after = self.threads.len().max(1) as u64;
        let probes = EpochProbes::pack(epoch);
        let hot = probes.filter(|_| self.config.epoch_optimization);
        let mut next = 0;
        while next < run.len() {
            let mut missed = None;
            if let (Some(hot), VarStorage::Packed(vars)) = (hot, &mut self.vars) {
                let vc = self
                    .threads
                    .get(thread.index() as u64)
                    .expect("the prolog ensured the thread clock");
                for &item in &run[next..] {
                    let (kind, addr, _) = view(item);
                    let (handle, slot) = vars.locate(addr);
                    let word = vars.word_at(handle, slot);
                    self.stats.blocks_tracked += u64::from(word.is_empty());
                    let decided = match kind {
                        AccessKind::Read => {
                            self.stats.reads += 1;
                            read_packed(vars, &mut self.stats, vc, hot, handle, slot, word)
                        }
                        AccessKind::Write => {
                            self.stats.writes += 1;
                            write_packed(vars, &mut self.stats, vc, hot, handle, slot, word)
                        }
                    };
                    let Some(cost) = decided else {
                        missed = Some((handle, slot, word));
                        break;
                    };
                    // Both front costs are at least `SAME_EPOCH`, so this is
                    // what `last_access_cost_cycles` reports.
                    self.last_cost = cost;
                    sink(cost);
                    next += 1;
                }
            }
            let Some(&item) = run.get(next) else {
                break;
            };
            let threads_known = if next == 0 { known_before } else { known_after };
            self.access_slow(thread, view(item), epoch, probes, threads_known, missed);
            sink(self.last_access_cost_cycles());
            next += 1;
        }
    }

    /// One access the hot fronts did not decide: everything on the reference
    /// store, every packed access when the epoch optimisation is off or the
    /// epoch does not pack, and the packed fronts' misses. `missed` carries
    /// a front miss's located word, whose statistics the kernel has already
    /// counted; `None` means the access starts here.
    ///
    /// Out of line, but not `#[cold]`: on read_shared two accesses in three
    /// are spilled read-shared updates that come here, and marking this path
    /// cold made that workload's FastTrack replay 5–12% slower.
    #[inline(never)]
    fn access_slow(
        &mut self,
        thread: ThreadId,
        (kind, addr, instr): (AccessKind, Addr, Option<InstrId>),
        epoch: Epoch,
        probes: Option<EpochProbes>,
        threads_known: u64,
        missed: Option<(SlabHandle, usize, ShadowWord)>,
    ) {
        let (handle, slot, word) = match missed {
            Some(located) => located,
            None => {
                match kind {
                    AccessKind::Read => self.stats.reads += 1,
                    AccessKind::Write => self.stats.writes += 1,
                }
                let VarStorage::Packed(vars) = &mut self.vars else {
                    return match kind {
                        AccessKind::Read => {
                            self.read_reference(thread, addr, instr, epoch, threads_known)
                        }
                        AccessKind::Write => {
                            self.write_reference(thread, addr, instr, epoch, threads_known)
                        }
                    };
                };
                let (handle, slot) = vars.locate(addr);
                let word = vars.word_at(handle, slot);
                self.stats.blocks_tracked += u64::from(word.is_empty());
                (handle, slot, word)
            }
        };
        match kind {
            AccessKind::Read => self.read_packed_tail(
                handle,
                slot,
                word,
                thread,
                addr,
                instr,
                epoch,
                probes,
                threads_known,
            ),
            AccessKind::Write => self.write_packed_tail(
                handle,
                slot,
                word,
                thread,
                addr,
                instr,
                epoch,
                probes,
                threads_known,
            ),
        }
    }

    /// One read against the reference (enum) store.
    #[inline]
    fn read_reference(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
        epoch: Epoch,
        threads_known: u64,
    ) {
        let use_epochs = self.config.epoch_optimization;
        let VarStorage::Reference(store) = &mut self.vars else {
            unreachable!("caller matched the reference storage");
        };
        let (is_new, state) = store.get_or_default_tracked(addr);
        if is_new {
            self.stats.blocks_tracked += 1;
        }

        // Same-epoch fast path: decided on the epoch alone — the full thread
        // clock is only fetched on the slow path below.
        if use_epochs && read_fast_path(state, thread, epoch) {
            self.stats.read_same_epoch += 1;
            self.last_cost = cost::SAME_EPOCH;
            return;
        }

        // Field-disjoint borrows: the thread clock is read in place while the
        // variable state is updated — no per-access clone.
        let vc = self
            .threads
            .get(thread.index() as u64)
            .expect("caller ensured the thread clock");
        let out = read_slow(state, vc, thread, epoch, use_epochs, threads_known);
        self.apply_read_outcome(out, thread, addr, instr);
    }

    /// The tail of a packed read, inlined into the out-of-line
    /// [`FastTrack::access_slow`]: everything [`read_packed`] leaves
    /// undecided — spilled words, promotions, races, spill creation — plus
    /// every packed read when the epoch optimisation is off or the epoch
    /// does not pack (`probes` is `None` exactly when it exceeds the packing
    /// budget). `word` is the block's word, already counted if it was
    /// empty. The front's same-epoch word probe applies only when the
    /// optimisation is on and the epoch packs, so it is never repeated here.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn read_packed_tail(
        &mut self,
        handle: SlabHandle,
        slot: usize,
        word: ShadowWord,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
        epoch: Epoch,
        probes: Option<EpochProbes>,
        threads_known: u64,
    ) {
        let use_epochs = self.config.epoch_optimization;
        let VarStorage::Packed(vars) = &mut self.vars else {
            unreachable!("caller matched the packed storage");
        };
        if word.is_spilled() {
            // Full state in the side arena — one direct index, no second
            // probe. The fast path still applies even when the word hint
            // belongs to another thread: for the first INLINE_LANES threads
            // the slot's epoch lane answers it without chasing any vector
            // clock (the lane is exact — see `SpillSlot`).
            let entry = vars.spill_slot_mut(word);
            let fast = use_epochs
                && if thread.index() < INLINE_LANES {
                    entry.lane_clock(thread.index()) == epoch.clock()
                } else {
                    entry.read_fast_path(thread, epoch)
                };
            if fast {
                self.stats.read_same_epoch += 1;
                self.last_cost = cost::SAME_EPOCH;
                return;
            }
            let vc = self
                .threads
                .get(thread.index() as u64)
                .expect("caller ensured the thread clock");
            let was_boxed = entry.is_boxed();
            let out = entry.read_update(vc, thread, epoch, use_epochs, threads_known);
            let repacked = entry.repack();
            // Sticky ownership: when the word's hint belongs to another
            // thread whose fast path is *still* valid after this update
            // (its epoch lane still carries the hinted clock), keep it —
            // the owner's repeat reads stay on the one-compare word path
            // while we pay the arena hop, and the word store is skipped
            // entirely. Otherwise this thread claims the hint.
            let cur = word.spill_hint_field();
            let keep = repacked.is_none() && cur != 0 && {
                let owner = ShadowWord::field_thread(cur) as usize;
                owner != thread.index()
                    && owner < INLINE_LANES
                    && entry.lane_clock(owner) == ShadowWord::field_clock(cur)
            };
            let entry_write = entry.write_epoch();
            let now_boxed = entry.is_boxed();
            match repacked {
                Some(repacked) => {
                    // The state collapsed back into the word: un-spill.
                    vars.unspill(word);
                    vars.set_word_at(handle, slot, repacked);
                }
                None if keep => {
                    // Reads change neither the write epoch nor (when the
                    // keep check passes) the owner's lane, so the word —
                    // hint, owner tag and spill index — stays valid as-is.
                    vars.spill_stats_mut().ownership_keeps += 1;
                }
                None => {
                    // Still spilled: the read just recorded `epoch` in the
                    // read history, so it becomes the new same-epoch hint.
                    let field = pack_epoch(epoch).unwrap_or(0);
                    vars.spill_stats_mut().ownership_claims += 1;
                    vars.set_word_at(handle, slot, ownership_word(word, entry_write, field));
                }
            }
            if now_boxed && !was_boxed {
                vars.spill_stats_mut().boxed_overflows += 1;
            }
            if out.promoted && !now_boxed {
                vars.spill_stats_mut().inline_promotions += 1;
            }
            self.apply_read_outcome(out, thread, addr, instr);
        } else {
            let vc = self
                .threads
                .get(thread.index() as u64)
                .expect("caller ensured the thread clock");
            // The front declined this word, so the read races or promotes.
            // A racy read whose prior read happens-before it still stays in
            // the word. Promotions, unpackable epochs and the epoch-free
            // configuration take `read_slow` below.
            if let Some(probes) = probes.filter(|_| use_epochs) {
                if let Some((word, out)) = read_word(word, vc, probes.field) {
                    vars.set_word_at(handle, slot, word);
                    self.apply_read_outcome(out, thread, addr, instr);
                    return;
                }
            }
            // Every read left here spills: it promoted the history or
            // recorded an epoch that does not pack.
            let mut state = decode_word(word);
            let out = read_slow(&mut state, vc, thread, epoch, use_epochs, threads_known);
            debug_assert!(encode_state(&state).is_none());
            let hint = spill_hint_after(&state, Some(epoch));
            let write = state.write;
            let marker = vars.spill(state);
            if out.promoted && !vars.spill_slot(marker).is_boxed() {
                vars.spill_stats_mut().inline_promotions += 1;
            }
            vars.set_word_at(handle, slot, ownership_word(marker, write, hint));
            self.apply_read_outcome(out, thread, addr, instr);
        }
    }

    /// Applies a slow read's outcome to the statistics, cost and reports.
    #[inline]
    fn apply_read_outcome(
        &mut self,
        out: ReadOutcome,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
    ) {
        self.last_cost = out.cost;
        if out.promoted {
            self.stats.read_share_promotions += 1;
        }
        if out.write_race {
            self.last_cost += cost::REPORT;
            self.report(
                thread,
                addr,
                AccessKind::Read,
                Some(out.prior_writer),
                instr,
                "read is concurrent with a prior write",
            );
        }
    }

    /// Processes a write of the block containing `addr` by `thread`.
    pub fn write(&mut self, thread: ThreadId, addr: Addr) {
        self.write_at(thread, addr, None)
    }

    /// Processes a write, recording the static instruction for reports.
    pub fn write_at(&mut self, thread: ThreadId, addr: Addr, instr: Option<InstrId>) {
        self.access_kernel(thread, &[(AccessKind::Write, addr, instr)], |a| a, |_| {});
    }

    /// One write against the reference (enum) store.
    #[inline]
    fn write_reference(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
        epoch: Epoch,
        threads_known: u64,
    ) {
        let use_epochs = self.config.epoch_optimization;
        let VarStorage::Reference(store) = &mut self.vars else {
            unreachable!("caller matched the reference storage");
        };
        let (is_new, state) = store.get_or_default_tracked(addr);
        if is_new {
            self.stats.blocks_tracked += 1;
        }

        // Same-epoch fast path.
        if use_epochs && state.write == epoch {
            self.stats.write_same_epoch += 1;
            self.last_cost = cost::SAME_EPOCH;
            return;
        }

        let vc = self
            .threads
            .get(thread.index() as u64)
            .expect("caller ensured the thread clock");
        let out = write_slow(state, vc, epoch, threads_known);
        self.apply_write_outcome(out, thread, addr, instr);
    }

    /// The tail of a packed write, inlined into the out-of-line
    /// [`FastTrack::access_slow`]: everything [`write_packed`] leaves
    /// undecided — spilled words, races, spill creation — plus every packed
    /// write when the epoch optimisation is off or the epoch does not pack
    /// (see [`FastTrack::read_packed_tail`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn write_packed_tail(
        &mut self,
        handle: SlabHandle,
        slot: usize,
        word: ShadowWord,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
        epoch: Epoch,
        probes: Option<EpochProbes>,
        threads_known: u64,
    ) {
        let use_epochs = self.config.epoch_optimization;
        let VarStorage::Packed(vars) = &mut self.vars else {
            unreachable!("caller matched the packed storage");
        };
        if word.is_spilled() {
            let entry = vars.spill_slot_mut(word);
            if use_epochs && entry.write_epoch() == epoch {
                self.stats.write_same_epoch += 1;
                self.last_cost = cost::SAME_EPOCH;
                return;
            }
            let vc = self
                .threads
                .get(thread.index() as u64)
                .expect("caller ensured the thread clock");
            let out = entry.write_update(vc, epoch, threads_known);
            let repacked = entry.repack();
            let hint_epoch = entry.exclusive_read_epoch();
            let entry_write = entry.write_epoch();
            match repacked {
                Some(repacked) => {
                    // A write collapses read-shared histories, so the state
                    // usually re-packs here — restoring the word fast path.
                    vars.unspill(word);
                    vars.set_word_at(handle, slot, repacked);
                }
                None => {
                    // Still spilled (an oversized epoch keeps the state in
                    // the arena): the stale hint, owner tag and lanes must
                    // not survive the rewritten read history.
                    let field = hint_epoch.and_then(pack_epoch).unwrap_or(0);
                    vars.set_word_at(handle, slot, ownership_word(word, entry_write, field));
                }
            }
            self.apply_write_outcome(out, thread, addr, instr);
        } else {
            let vc = self
                .threads
                .get(thread.index() as u64)
                .expect("caller ensured the thread clock");
            // An unspilled word holds an exclusive read history, so when our
            // epoch packs the write is decided on the word itself: here a
            // racy write the front declined, or any write with the epoch
            // optimisation off. Only an unpackable epoch (which must spill)
            // takes `write_slow` below.
            if let Some(probes) = probes {
                let (word, out) = write_word(word, vc, probes.field);
                vars.set_word_at(handle, slot, word);
                self.apply_write_outcome(out, thread, addr, instr);
                return;
            }
            let mut state = decode_word(word);
            let out = write_slow(&mut state, vc, epoch, threads_known);
            debug_assert!(encode_state(&state).is_none());
            let hint = spill_hint_after(&state, None);
            let write = state.write;
            let marker = vars.spill(state);
            vars.set_word_at(handle, slot, ownership_word(marker, write, hint));
            self.apply_write_outcome(out, thread, addr, instr);
        }
    }

    /// Applies a slow write's outcome to the statistics, cost and reports.
    #[inline]
    fn apply_write_outcome(
        &mut self,
        out: WriteOutcome,
        thread: ThreadId,
        addr: Addr,
        instr: Option<InstrId>,
    ) {
        self.last_cost = out.cost;
        if out.write_race {
            self.last_cost += cost::REPORT;
            self.report(
                thread,
                addr,
                AccessKind::Write,
                Some(out.prior_writer),
                instr,
                "write is concurrent with a prior write",
            );
        } else if out.read_race {
            self.last_cost += cost::REPORT;
            self.report(
                thread,
                addr,
                AccessKind::Write,
                out.prior_reader,
                instr,
                "write is concurrent with a prior read",
            );
        }
    }

    /// Processes `thread` acquiring `lock`.
    pub fn acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.stats.acquires += 1;
        self.thread_vc(thread);
        let tvc = self
            .threads
            .get_mut(thread.index() as u64)
            .expect("just ensured");
        if let Some(lvc) = self.locks.get(lock.raw()) {
            tvc.join(lvc);
        }
    }

    /// Processes `thread` releasing `lock`.
    pub fn release(&mut self, thread: ThreadId, lock: LockId) {
        self.stats.releases += 1;
        self.thread_vc(thread);
        let tvc = self
            .threads
            .get(thread.index() as u64)
            .expect("just ensured");
        self.locks
            .get_or_insert_with(lock.raw(), VectorClock::new)
            .copy_from(tvc);
        self.thread_vc(thread).increment(thread);
    }

    /// Processes `parent` spawning `child`: the child inherits the parent's
    /// history.
    pub fn fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.stats.forks += 1;
        let pvc = self.thread_vc_snapshot(parent);
        let cvc = self.thread_vc(child);
        cvc.join(&pvc);
        let child_clock = cvc.get(child).max(1);
        cvc.set(child, child_clock);
        self.thread_vc(parent).increment(parent);
    }

    /// Processes `parent` joining `child`: the parent inherits the child's
    /// history.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) {
        self.stats.joins += 1;
        let cvc = self.thread_vc_snapshot(child);
        self.thread_vc(parent).join(&cvc);
        self.thread_vc(child).increment(child);
    }

    /// Processes a barrier joining all `threads`: everyone's history is
    /// merged and every participant starts a new epoch.
    pub fn barrier(&mut self, threads: &[ThreadId]) {
        self.stats.barriers += 1;
        let mut merged = VectorClock::new();
        for &t in threads {
            let vc = self.thread_vc_snapshot(t);
            merged.join(&vc);
        }
        for &t in threads {
            let vc = self.thread_vc(t);
            vc.join(&merged);
            vc.increment(t);
        }
    }

    fn report(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        kind: AccessKind,
        other_thread: Option<ThreadId>,
        instr: Option<InstrId>,
        message: &str,
    ) {
        self.stats.races_detected += 1;
        let block = addr.raw() / self.config.granularity;
        if self.config.dedup_by_block && !self.reported_blocks.insert(block) {
            return;
        }
        if self.reports.len() >= self.config.max_reports {
            return;
        }
        self.reports.push(AnalysisReport {
            kind: ReportKind::DataRace,
            addr: Addr::new(block * self.config.granularity),
            thread,
            other_thread,
            instr,
            message: format!("{kind}: {message}"),
        });
    }

    /// Serializes the detector's complete state — configuration, thread and
    /// lock clocks, every tracked variable state (storage-independent,
    /// written straight from the active storage), dedup set, reports,
    /// statistics and the last-cost memo — into one snapshot section.
    ///
    /// Tracked states follow their count (`u64`) as one record per
    /// non-empty slab of [`SLAB_WORDS`] blocks, slabs in ascending order:
    ///
    /// ```text
    /// chunk  u64   slab index (block >> SLAB_BITS)
    /// count  u16   tracked blocks in the slab (1..=512)
    /// count × (ascending slot order):
    ///   slot   u16   block - (chunk << SLAB_BITS)
    ///   word   u64   the state's canonical packed word, or u64::MAX for a
    ///                spilled state, followed by its explicit record:
    ///                write epoch, read tag (0 epoch | 1 clock), read epoch
    ///                or clock
    /// ```
    ///
    /// An unspilled state costs 10 bytes. Both storages write identical
    /// bytes: the packed plane copies its words, the reference store
    /// encodes each state with `encode_state`.
    pub fn encode_snapshot(&self, out: &mut SectionWriter) {
        out.put_u64(self.config.granularity);
        out.put_bool(self.config.epoch_optimization);
        out.put_usize(self.config.max_reports);
        out.put_bool(self.config.dedup_by_block);
        out.put_bool(self.packed_words());

        for map in [&self.threads, &self.locks] {
            out.put_usize(map.len());
            for (key, vc) in map.iter() {
                out.put_u64(key);
                put_clock(out, vc.raw_clocks());
            }
        }

        out.put_usize(self.tracked_blocks());
        match &self.vars {
            VarStorage::Packed(vars) => vars.encode_states(out),
            VarStorage::Reference(store) => {
                let shift = self.config.granularity.trailing_zeros();
                let states: Vec<(u64, &VarState)> = store
                    .iter()
                    .map(|(addr, state)| (addr.raw() >> shift, state))
                    .collect();
                let chunk = |block: u64| SlabDirectory::split(block).0;
                for slab in states.chunk_by(|a, b| chunk(a.0) == chunk(b.0)) {
                    out.put_u64(chunk(slab[0].0));
                    out.put_u16(slab.len() as u16);
                    for (block, state) in slab {
                        out.put_u16(SlabDirectory::split(*block).1 as u16);
                        match encode_state(state) {
                            Some(word) => out.put_u64(word.raw()),
                            None => {
                                out.put_u64(SPILLED_RECORD);
                                put_spilled_state(out, state);
                            }
                        }
                    }
                }
            }
        }

        let mut reported: Vec<u64> = self.reported_blocks.iter().copied().collect();
        reported.sort_unstable();
        out.put_usize(reported.len());
        for block in reported {
            out.put_u64(block);
        }

        out.put_usize(self.reports.len());
        for report in &self.reports {
            out.put_u8(match report.kind {
                ReportKind::DataRace => 0,
                ReportKind::AtomicityViolation => 1,
                ReportKind::Other => 2,
            });
            out.put_u64(report.addr.raw());
            out.put_u32(report.thread.raw());
            match report.other_thread {
                None => out.put_u8(0),
                Some(t) => {
                    out.put_u8(1);
                    out.put_u32(t.raw());
                }
            }
            match report.instr {
                None => out.put_u8(0),
                Some(i) => {
                    out.put_u8(1);
                    out.put_u32(i.block().raw());
                    out.put_u16(i.index());
                }
            }
            out.put_str(&report.message);
        }

        for v in [
            self.stats.reads,
            self.stats.writes,
            self.stats.read_same_epoch,
            self.stats.write_same_epoch,
            self.stats.read_share_promotions,
            self.stats.acquires,
            self.stats.releases,
            self.stats.forks,
            self.stats.joins,
            self.stats.barriers,
            self.stats.races_detected,
            self.stats.blocks_tracked,
        ] {
            out.put_u64(v);
        }
        out.put_u64(self.last_cost);
    }

    /// Rebuilds a detector from a snapshot section written by
    /// [`FastTrack::encode_snapshot`]. The restored detector is
    /// behavior-identical to the serialized one: same clocks, same variable
    /// states (re-packed into whichever storage was active), same dedup set,
    /// reports, statistics and cost memo.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any malformed payload.
    pub fn decode_snapshot(r: &mut SectionReader<'_>) -> Result<FastTrack, SnapshotError> {
        let granularity = r.get_u64()?;
        let epoch_optimization = r.get_bool()?;
        let max_reports = r.get_usize()?;
        let dedup_by_block = r.get_bool()?;
        let packed = r.get_bool()?;
        if !granularity.is_power_of_two() {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("granularity {granularity} is not a power of two"),
            ));
        }
        let config = FastTrackConfig {
            granularity,
            epoch_optimization,
            max_reports,
            dedup_by_block,
        };
        let mut ft = FastTrack::with_storage(config, packed);

        for map_is_threads in [true, false] {
            let count = r.get_usize()?;
            for _ in 0..count {
                let key = r.get_u64()?;
                let vc = get_clock(r)?;
                let map = if map_is_threads {
                    &mut ft.threads
                } else {
                    &mut ft.locks
                };
                *map.get_or_insert_with(key, VectorClock::new) = vc;
            }
        }

        // Tracked states, slab by slab: each slab resolves once and takes
        // its words as they are, after checking they are canonical.
        let tracked = r.get_usize()?;
        let shift = granularity.trailing_zeros();
        let last_chunk = SlabDirectory::split(u64::MAX >> shift).0;
        let mut remaining = tracked;
        let mut previous_chunk = None;
        while remaining > 0 {
            let chunk = r.get_u64()?;
            if previous_chunk.is_some_and(|p| p >= chunk) || chunk > last_chunk {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("slab {chunk} is out of ascending order or past the address space"),
                ));
            }
            previous_chunk = Some(chunk);
            let count = usize::from(r.get_u16()?);
            if count == 0 || count > remaining {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!(
                        "slab {chunk} holds {count} blocks, but {remaining} of the \
                         {tracked} tracked blocks remain"
                    ),
                ));
            }
            remaining -= count;
            let mut handle = None;
            let mut previous_slot = None;
            for _ in 0..count {
                let slot = usize::from(r.get_u16()?);
                if previous_slot.is_some_and(|p| p >= slot) || slot >= SLAB_WORDS {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("slot {slot} of slab {chunk} is out of ascending order or range"),
                    ));
                }
                previous_slot = Some(slot);
                let entry = get_var_entry(r)?;
                match &mut ft.vars {
                    VarStorage::Packed(vars) => {
                        let handle =
                            *handle.get_or_insert_with(|| vars.resolve_block(chunk << SLAB_BITS));
                        let word = match entry {
                            VarEntry::Word(word) => word,
                            VarEntry::Spilled(state) => vars.spill(state),
                        };
                        vars.set_word_at(handle, slot, word);
                    }
                    VarStorage::Reference(store) => {
                        let state = match entry {
                            VarEntry::Word(word) => decode_word(word),
                            VarEntry::Spilled(state) => state,
                        };
                        let block = (chunk << SLAB_BITS) + slot as u64;
                        store.insert(Addr::new(block << shift), state);
                    }
                }
            }
        }

        // The encoder writes the dedup set sorted and unique; anything else
        // is not a canonical image.
        let reported_count = r.get_usize()?;
        let mut previous_reported = None;
        for _ in 0..reported_count {
            let block = r.get_u64()?;
            if previous_reported.is_some_and(|p| p >= block) {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("reported block {block} is duplicated or out of ascending order"),
                ));
            }
            previous_reported = Some(block);
            ft.reported_blocks.insert(block);
        }

        let report_count = r.get_usize()?;
        for _ in 0..report_count {
            let kind = match r.get_u8()? {
                0 => ReportKind::DataRace,
                1 => ReportKind::AtomicityViolation,
                2 => ReportKind::Other,
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid report kind {other}"),
                    ))
                }
            };
            let addr = Addr::new(r.get_u64()?);
            let thread = ThreadId::new(r.get_u32()?);
            let other_thread = match r.get_u8()? {
                0 => None,
                1 => Some(ThreadId::new(r.get_u32()?)),
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid option tag {other}"),
                    ))
                }
            };
            let instr = match r.get_u8()? {
                0 => None,
                1 => {
                    let block = r.get_u32()?;
                    let index = r.get_u16()?;
                    Some(InstrId::new(aikido_types::BlockId::new(block), index))
                }
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid option tag {other}"),
                    ))
                }
            };
            let message = r.get_str()?;
            ft.reports.push(AnalysisReport {
                kind,
                addr,
                thread,
                other_thread,
                instr,
                message,
            });
        }

        let stats = &mut ft.stats;
        for field in [
            &mut stats.reads,
            &mut stats.writes,
            &mut stats.read_same_epoch,
            &mut stats.write_same_epoch,
            &mut stats.read_share_promotions,
            &mut stats.acquires,
            &mut stats.releases,
            &mut stats.forks,
            &mut stats.joins,
            &mut stats.barriers,
            &mut stats.races_detected,
            &mut stats.blocks_tracked,
        ] {
            *field = r.get_u64()?;
        }
        ft.last_cost = r.get_u64()?;
        Ok(ft)
    }
}

/// Writes a vector clock's exact backing array (FTRK wire layout).
pub(crate) fn put_clock(out: &mut SectionWriter, clocks: &[u32]) {
    out.put_usize(clocks.len());
    for &c in clocks {
        out.put_u32(c);
    }
}

/// Writes an epoch as `(clock, thread)` (FTRK wire layout).
pub(crate) fn put_epoch(out: &mut SectionWriter, e: Epoch) {
    out.put_u32(e.clock());
    out.put_u32(e.thread().raw());
}

/// Writes a spilled state's explicit record (FTRK wire layout): write
/// epoch, then read tag 0 + epoch or tag 1 + clock.
fn put_spilled_state(out: &mut SectionWriter, state: &VarState) {
    put_epoch(out, state.write);
    match &state.read {
        ReadState::Exclusive(e) => {
            out.put_u8(0);
            put_epoch(out, *e);
        }
        ReadState::Shared(rvc) => {
            out.put_u8(1);
            put_clock(out, rvc.raw_clocks());
        }
    }
}

/// One decoded block of the FTRK slab layout.
enum VarEntry {
    /// A canonical unspilled word.
    Word(ShadowWord),
    /// A state that does not fit a word.
    Spilled(VarState),
}

/// Reads one block's word (and explicit record, for a spilled state),
/// refusing anything the encoder would not have written: a word that is
/// not canonical, a bad read tag, or a "spilled" state that fits a word.
fn get_var_entry(r: &mut SectionReader<'_>) -> Result<VarEntry, SnapshotError> {
    let raw = r.get_u64()?;
    if raw != SPILLED_RECORD {
        if !is_canonical_word(raw) {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("{raw:#018x} is not a canonical packed word"),
            ));
        }
        return Ok(VarEntry::Word(ShadowWord::from_raw(raw)));
    }
    let write = get_epoch(r)?;
    let read = match r.get_u8()? {
        0 => ReadState::Exclusive(get_epoch(r)?),
        1 => ReadState::Shared(Box::new(get_clock(r)?)),
        other => {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("invalid read-state tag {other}"),
            ))
        }
    };
    let state = VarState { write, read };
    if encode_state(&state).is_some() {
        return Err(SnapshotError::new(
            r.section_name(),
            r.offset(),
            "a spilled record holds a state that fits a packed word",
        ));
    }
    Ok(VarEntry::Spilled(state))
}

fn get_clock(r: &mut SectionReader<'_>) -> Result<VectorClock, SnapshotError> {
    let len = r.get_usize()?;
    let mut clocks = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        clocks.push(r.get_u32()?);
    }
    Ok(VectorClock::from_raw_clocks(clocks))
}

fn get_epoch(r: &mut SectionReader<'_>) -> Result<Epoch, SnapshotError> {
    let clock = r.get_u32()?;
    let thread = r.get_u32()?;
    Ok(Epoch::new(clock, ThreadId::new(thread)))
}

/// An [`AccessContext`] as the access kernel sees it.
#[inline]
fn context_view(cx: AccessContext) -> (AccessKind, Addr, Option<InstrId>) {
    (cx.kind, cx.addr, Some(cx.instr))
}

impl SharedDataAnalysis for FastTrack {
    fn name(&self) -> &'static str {
        "fasttrack"
    }

    /// A batch of one through the access kernel (see
    /// [`SharedDataAnalysis::on_access_batch`]).
    fn on_access(&mut self, cx: AccessContext) {
        self.access_kernel(cx.thread, &[cx], context_view, |_| {});
    }

    /// The packed store's single access kernel: the thread's clock is
    /// ensured, the epoch probes packed and the clock borrowed once per
    /// batch, and every access — the first no longer special — is located
    /// and decided inline unless it leaves the hot path (spilled words,
    /// promotions, races, unpackable epochs). The known-thread count each
    /// access's cost sees is the scalar path's: before the clock ensure for
    /// the first access, after it for the rest.
    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        costs.clear();
        let Some(first) = run.first() else {
            return;
        };
        debug_assert!(
            run.iter().all(|cx| cx.thread == first.thread),
            "a batch belongs to one thread"
        );
        costs.reserve(run.len());
        self.access_kernel(first.thread, run, context_view, |cost| costs.push(cost));
    }

    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.acquire(thread, lock);
    }

    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.release(thread, lock);
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.fork(parent, child);
    }

    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.join(parent, child);
    }

    fn on_barrier(&mut self, threads: &[ThreadId], _id: u32) {
        self.barrier(threads);
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        self.reports.clone()
    }

    fn access_cost_cycles(&self) -> u64 {
        // Calibrated so that full instrumentation of every memory access lands
        // in the tens-to-hundreds-of-x slowdown band the paper reports for
        // binary-level FastTrack.
        55
    }

    fn last_access_cost_cycles(&self) -> u64 {
        self.last_cost.max(cost::SAME_EPOCH)
    }

    fn sync_cost_cycles(&self) -> u64 {
        120
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    fn addr(raw: u64) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn single_thread_never_races() {
        let mut ft = FastTrack::new();
        for i in 0..100 {
            ft.write(t(0), addr(0x1000 + 8 * i));
            ft.read(t(0), addr(0x1000 + 8 * i));
        }
        assert!(ft.races().is_empty());
        assert_eq!(ft.races_detected(), 0);
    }

    #[test]
    fn write_write_race_is_detected() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x10));
        ft.write(t(1), addr(0x10));
        assert_eq!(ft.races().len(), 1);
        assert_eq!(ft.races()[0].kind, ReportKind::DataRace);
        assert_eq!(ft.races()[0].other_thread, Some(t(0)));
    }

    #[test]
    fn read_write_race_is_detected() {
        let mut ft = FastTrack::new();
        ft.read(t(0), addr(0x20));
        ft.write(t(1), addr(0x20));
        assert_eq!(ft.races().len(), 1);
        assert!(ft.races()[0].message.contains("prior read"));
    }

    #[test]
    fn write_read_race_is_detected() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x30));
        ft.read(t(1), addr(0x30));
        assert_eq!(ft.races().len(), 1);
        assert!(ft.races()[0].message.contains("prior write"));
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut ft = FastTrack::new();
        ft.read(t(0), addr(0x40));
        ft.read(t(1), addr(0x40));
        ft.read(t(2), addr(0x40));
        assert!(ft.races().is_empty());
        assert!(ft.stats().read_share_promotions >= 1);
    }

    #[test]
    fn lock_discipline_prevents_races() {
        let mut ft = FastTrack::new();
        let l = LockId::new(7);
        for round in 0..3 {
            for i in 0..2 {
                let th = t(i);
                ft.acquire(th, l);
                ft.write(th, addr(0x50));
                ft.read(th, addr(0x50));
                ft.release(th, l);
            }
            let _ = round;
        }
        assert!(ft.races().is_empty());
    }

    #[test]
    fn different_locks_do_not_synchronise() {
        let mut ft = FastTrack::new();
        ft.acquire(t(0), LockId::new(1));
        ft.write(t(0), addr(0x60));
        ft.release(t(0), LockId::new(1));
        ft.acquire(t(1), LockId::new(2));
        ft.write(t(1), addr(0x60));
        ft.release(t(1), LockId::new(2));
        assert_eq!(ft.races().len(), 1);
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x70));
        ft.fork(t(0), t(1));
        ft.write(t(1), addr(0x70));
        assert!(ft.races().is_empty());
        // But the parent's *subsequent* write is concurrent with the child's.
        ft.write(t(0), addr(0x78));
        ft.write(t(1), addr(0x78));
        assert_eq!(ft.races().len(), 1);
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut ft = FastTrack::new();
        ft.fork(t(0), t(1));
        ft.write(t(1), addr(0x80));
        ft.join(t(0), t(1));
        ft.write(t(0), addr(0x80));
        assert!(ft.races().is_empty());
    }

    #[test]
    fn barrier_orders_all_participants() {
        let mut ft = FastTrack::new();
        let threads = [t(0), t(1), t(2), t(3)];
        for &th in &threads {
            ft.write(th, addr(0x100 + 8 * th.raw() as u64));
        }
        ft.barrier(&threads);
        // After the barrier any thread may read any slot without racing.
        for &th in &threads {
            for other in 0..4u64 {
                ft.read(th, addr(0x100 + 8 * other));
            }
        }
        assert!(ft.races().is_empty());
    }

    #[test]
    fn accesses_in_same_block_are_conflated() {
        // 8-byte granularity: offsets 0 and 4 share a block, which the paper
        // accepts as a potential source of false positives.
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x200));
        ft.write(t(1), addr(0x204));
        assert_eq!(ft.races().len(), 1);
    }

    #[test]
    fn accesses_in_different_blocks_are_independent() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x200));
        ft.write(t(1), addr(0x208));
        assert!(ft.races().is_empty());
    }

    #[test]
    fn duplicate_races_on_same_block_are_deduplicated() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x300));
        ft.write(t(1), addr(0x300));
        ft.write(t(0), addr(0x300));
        ft.write(t(1), addr(0x300));
        assert_eq!(ft.races().len(), 1);
        assert!(ft.races_detected() >= 2);
    }

    #[test]
    fn same_epoch_fast_path_is_taken_for_repeated_accesses() {
        let mut ft = FastTrack::new();
        ft.write(t(0), addr(0x400));
        ft.write(t(0), addr(0x400));
        ft.write(t(0), addr(0x400));
        ft.read(t(0), addr(0x400));
        // Reads after a write in the same epoch: the first read updates the
        // read epoch, subsequent ones hit the fast path.
        ft.read(t(0), addr(0x400));
        assert_eq!(ft.stats().write_same_epoch, 2);
        assert!(ft.stats().read_same_epoch >= 1);
        assert!(ft.stats().fast_path_rate() > 0.0);
    }

    #[test]
    fn epoch_optimization_can_be_disabled() {
        let mut ft = FastTrack::with_config(FastTrackConfig::without_epochs());
        ft.write(t(0), addr(0x500));
        ft.write(t(0), addr(0x500));
        ft.read(t(0), addr(0x500));
        ft.read(t(0), addr(0x500));
        assert_eq!(ft.stats().write_same_epoch, 0);
        assert_eq!(ft.stats().read_same_epoch, 0);
        assert!(ft.races().is_empty());

        // Races are still detected without the optimisation.
        ft.write(t(1), addr(0x500));
        assert_eq!(ft.races().len(), 1);
    }

    #[test]
    fn release_acquire_chain_transfers_happens_before_transitively() {
        let mut ft = FastTrack::new();
        let l1 = LockId::new(1);
        let l2 = LockId::new(2);
        ft.write(t(0), addr(0x600));
        ft.release(t(0), l1);
        ft.acquire(t(1), l1);
        ft.release(t(1), l2);
        ft.acquire(t(2), l2);
        ft.write(t(2), addr(0x600));
        assert!(ft.races().is_empty());
    }

    #[test]
    fn shared_data_analysis_trait_drives_the_detector() {
        use aikido_types::{BlockId, InstrId};
        let mut ft = FastTrack::new();
        let cx = |thread: u32, kind: AccessKind| AccessContext {
            thread: t(thread),
            addr: addr(0x700),
            kind,
            size: 8,
            instr: InstrId::new(BlockId::new(3), 1),
        };
        ft.on_access(cx(0, AccessKind::Write));
        ft.on_access(cx(1, AccessKind::Write));
        let reports = SharedDataAnalysis::reports(&ft);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].instr, Some(InstrId::new(BlockId::new(3), 1)));
        assert_eq!(ft.name(), "fasttrack");
        assert!(ft.access_cost_cycles() > 0);
    }

    #[test]
    fn batched_delivery_is_byte_identical_to_scalar_delivery() {
        use aikido_types::{BlockId, InstrId};
        let cx = |thread: u32, addr: u64, kind, i: u16| AccessContext {
            thread: t(thread),
            addr: Addr::new(addr),
            kind,
            size: 8,
            instr: InstrId::new(BlockId::new(2), i),
        };
        // A run with same-epoch repeats, a fresh block, mixed kinds, and a
        // cross-thread prefix that makes the final writes race.
        let prefix = [
            cx(0, 0x900, AccessKind::Write, 0),
            cx(0, 0x908, AccessKind::Read, 1),
        ];
        let run = [
            cx(1, 0x900, AccessKind::Write, 2),
            cx(1, 0x900, AccessKind::Write, 3),
            cx(1, 0x908, AccessKind::Read, 0),
            cx(1, 0x910, AccessKind::Read, 1),
            cx(1, 0x910, AccessKind::Write, 2),
        ];
        let mut scalar = FastTrack::new();
        let mut batched = FastTrack::new();
        let mut scalar_costs = Vec::new();
        let mut batched_costs = Vec::new();
        for &p in &prefix {
            scalar.on_access(p);
            batched.on_access(p);
        }
        for &a in &run {
            scalar.on_access(a);
            scalar_costs.push(scalar.last_access_cost_cycles());
        }
        batched.on_access_batch(&run, &mut batched_costs);
        assert_eq!(batched_costs, scalar_costs);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.races(), scalar.races());
        // Delivering the very first accesses of a fresh thread as a batch
        // (the clock-creating case) must also match.
        let mut scalar = FastTrack::new();
        let mut batched = FastTrack::new();
        scalar_costs.clear();
        for &a in &run {
            scalar.on_access(a);
            scalar_costs.push(scalar.last_access_cost_cycles());
        }
        batched.on_access_batch(&run, &mut batched_costs);
        assert_eq!(batched_costs, scalar_costs);
        assert_eq!(batched.stats(), scalar.stats());
    }

    #[test]
    fn batches_spanning_pages_match_scalar_delivery() {
        use aikido_types::{BlockId, InstrId};
        let cx = |thread: u32, a: u64, kind, i: u16| AccessContext {
            thread: t(thread),
            addr: Addr::new(a),
            kind,
            size: 8,
            instr: InstrId::new(BlockId::new(6), i),
        };
        // One block's worth of accesses over three pages and both kinds,
        // after a cross-thread prefix so some of them race. At granularity 4
        // a page spans two slabs, so the batch also crosses slabs in-page.
        let prefix = [
            cx(0, 0x1_0000, AccessKind::Write, 0),
            cx(0, 0x2_0ff8, AccessKind::Read, 1),
        ];
        let batch = [
            cx(1, 0x1_0000, AccessKind::Read, 0),
            cx(1, 0x2_0ff8, AccessKind::Write, 1),
            cx(1, 0x1_0008, AccessKind::Write, 2),
            cx(1, 0x1_0800, AccessKind::Read, 3),
            cx(1, 0x200_0000, AccessKind::Write, 4),
            cx(1, 0x1_0000, AccessKind::Read, 5),
        ];
        for (granularity, packed) in [(8, true), (4, true), (8, false)] {
            let config = FastTrackConfig {
                granularity,
                ..FastTrackConfig::default()
            };
            let mut scalar = FastTrack::with_storage(config.clone(), packed);
            let mut batched = FastTrack::with_storage(config, packed);
            for &p in &prefix {
                scalar.on_access(p);
                batched.on_access(p);
            }
            let mut scalar_costs = Vec::new();
            for &a in &batch {
                scalar.on_access(a);
                scalar_costs.push(scalar.last_access_cost_cycles());
            }
            let mut batched_costs = Vec::new();
            batched.on_access_batch(&batch, &mut batched_costs);
            assert_eq!(batched_costs, scalar_costs, "granularity {granularity}");
            assert_eq!(batched.stats(), scalar.stats());
            assert!(!scalar.races().is_empty());
            assert_eq!(batched.races(), scalar.races());
            assert_eq!(batched.var_states(), scalar.var_states());
        }
    }

    #[test]
    fn batch_that_creates_the_clock_and_promotes_matches_scalar_delivery() {
        use aikido_types::{BlockId, InstrId};
        let cx = |thread: u32, a: u64, kind, i: u16| AccessContext {
            thread: t(thread),
            addr: Addr::new(a),
            kind,
            size: 8,
            instr: InstrId::new(BlockId::new(8), i),
        };
        // Threads 0 and 1 share the read history of 0xa00; thread 0 alone
        // has read 0xa08.
        let prefix = [
            cx(0, 0xa00, AccessKind::Read, 0),
            cx(1, 0xa00, AccessKind::Read, 1),
            cx(0, 0xa08, AccessKind::Read, 2),
        ];
        // Thread 2's first access creates its clock and reads the shared
        // history, whose cost counts the known threads *before* the clock
        // exists. Its second access promotes 0xa08's read history; its
        // write to 0xa00 counts the threads after and races with both
        // readers.
        let batch = [
            cx(2, 0xa00, AccessKind::Read, 0),
            cx(2, 0xa08, AccessKind::Read, 1),
            cx(2, 0xa00, AccessKind::Read, 2),
            cx(2, 0xa10, AccessKind::Write, 3),
            cx(2, 0xa00, AccessKind::Write, 4),
        ];
        for packed in [true, false] {
            let mut scalar = FastTrack::with_storage(FastTrackConfig::default(), packed);
            let mut batched = FastTrack::with_storage(FastTrackConfig::default(), packed);
            for &p in &prefix {
                scalar.on_access(p);
                batched.on_access(p);
            }
            let mut scalar_costs = Vec::new();
            for &a in &batch {
                scalar.on_access(a);
                scalar_costs.push(scalar.last_access_cost_cycles());
            }
            let mut batched_costs = Vec::new();
            batched.on_access_batch(&batch, &mut batched_costs);

            let shared =
                |threads_known| cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known;
            assert_eq!(
                scalar_costs,
                [
                    shared(2),
                    cost::PROMOTE_SHARED,
                    cost::SAME_EPOCH,
                    cost::EXCLUSIVE,
                    shared(3) + cost::REPORT,
                ],
                "packed {packed}"
            );
            assert_eq!(batched_costs, scalar_costs, "packed {packed}");
            assert_eq!(
                batched.last_access_cost_cycles(),
                scalar.last_access_cost_cycles()
            );
            assert_eq!(batched.stats(), scalar.stats());
            assert_eq!(batched.stats().read_share_promotions, 2);
            assert_eq!(batched.var_states(), scalar.var_states());
            assert_eq!(batched.races().len(), 1);
            assert_eq!(batched.races(), scalar.races());
        }
    }

    #[test]
    fn packed_and_reference_storages_agree_on_a_mixed_history() {
        // Reads, writes, promotions, collapses, races, lock discipline and a
        // thread id past the 7-bit packing budget (forcing the spill path).
        let drive = |ft: &mut FastTrack| {
            let l = LockId::new(1);
            ft.write(t(0), addr(0x1000));
            ft.read(t(0), addr(0x1000));
            ft.read(t(1), addr(0x1000)); // write-read race + promotion
            ft.read(t(2), addr(0x1000));
            ft.acquire(t(0), l);
            ft.write(t(0), addr(0x1008));
            ft.release(t(0), l);
            ft.acquire(t(200), l); // thread 200 spills the packed epoch
            ft.write(t(200), addr(0x1008));
            ft.read(t(200), addr(0x1010));
            ft.release(t(200), l);
            ft.barrier(&[t(0), t(1), t(2)]);
            ft.write(t(1), addr(0x1000)); // collapses the shared read state
            ft.write(t(1), addr(0x1000)); // same-epoch fast path
        };
        let mut packed = FastTrack::new();
        assert!(packed.packed_words());
        let mut reference = FastTrack::new().with_reference_store();
        assert!(!reference.packed_words());
        drive(&mut packed);
        drive(&mut reference);
        assert_eq!(packed.stats(), reference.stats());
        assert_eq!(packed.races(), reference.races());
        assert_eq!(packed.var_states(), reference.var_states());
        assert_eq!(packed.tracked_blocks(), reference.tracked_blocks());
    }

    #[test]
    fn batched_run_delivery_is_byte_identical_to_scalar_delivery() {
        use aikido_types::{BlockId, InstrId};
        let cx = |thread: u32, a: u64, kind, i: u16| AccessContext {
            thread: t(thread),
            addr: Addr::new(a),
            kind,
            size: 8,
            instr: InstrId::new(BlockId::new(4), i),
        };
        // One block's delivery: several pages and both kinds, in slot order.
        let batch = [
            cx(1, 0x3000, AccessKind::Write, 0),
            cx(1, 0x3000, AccessKind::Read, 1),
            cx(1, 0x3008, AccessKind::Write, 2),
            cx(1, 0x5ff8, AccessKind::Read, 3),
            cx(1, 0x3ff8, AccessKind::Write, 4),
        ];
        let mut scalar = FastTrack::new();
        let mut batched = FastTrack::new();
        let mut scalar_costs = Vec::new();
        let mut batch_costs = Vec::new();
        for &a in &batch {
            scalar.on_access(a);
            scalar_costs.push(scalar.last_access_cost_cycles());
        }
        batched.on_access_batch(&batch, &mut batch_costs);
        assert_eq!(batch_costs, scalar_costs);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.var_states(), scalar.var_states());
    }

    #[test]
    fn snapshot_roundtrip_preserves_detector_behavior() {
        for packed in [true, false] {
            let mut ft = FastTrack::with_storage(FastTrackConfig::default(), packed);
            let l = LockId::new(3);
            ft.fork(t(0), t(1));
            ft.read(t(0), addr(0x100));
            ft.read(t(1), addr(0x100)); // shared read state
            ft.write(t(0), addr(0x200));
            ft.release(t(0), l);
            ft.acquire(t(1), l);
            ft.write(t(1), addr(0x300));
            ft.read(t(1), addr(0x300));
            // Unsynchronised racy write pair (t0's post-release write is not
            // ordered before t1) so reports/reported_blocks are non-empty.
            ft.write(t(0), addr(0x500));
            ft.write(t(1), addr(0x500));
            assert!(!ft.races().is_empty());

            let mut w = SectionWriter::new(*b"FTRK", 3);
            ft.encode_snapshot(&mut w);
            let section_len = w.len();
            let mut snap = aikido_snapshot::SnapshotBuilder::new();
            snap.push(w);
            let snap = snap.finish();
            let mut reader = snap.reader().expect("valid image");
            let mut section = reader.section(*b"FTRK", 3).expect("section present");
            let mut restored = FastTrack::decode_snapshot(&mut section).expect("decodes");
            section.finish().expect("payload fully consumed");
            reader.finish().expect("no trailing sections");

            assert_eq!(restored.config(), ft.config());
            assert_eq!(restored.packed_words(), packed);
            assert_eq!(restored.var_states(), ft.var_states());
            assert_eq!(restored.races(), ft.races());
            assert_eq!(restored.stats(), ft.stats());
            assert_eq!(restored.last_cost, ft.last_cost);

            // Future events evolve identically (clocks survived exactly).
            for detector in [&mut ft, &mut restored] {
                detector.read(t(0), addr(0x100));
                detector.write(t(1), addr(0x100));
                detector.barrier(&[t(0), t(1)]);
                detector.write(t(0), addr(0x400));
            }
            assert_eq!(restored.var_states(), ft.var_states());
            assert_eq!(restored.races(), ft.races());
            assert_eq!(restored.stats(), ft.stats());

            // Re-encoding the restored detector is byte-stable.
            let mut w2 = SectionWriter::new(*b"FTRK", 3);
            restored.encode_snapshot(&mut w2);
            let mut w3 = SectionWriter::new(*b"FTRK", 3);
            ft.encode_snapshot(&mut w3);
            assert_eq!(w2.len(), w3.len());
            assert!(section_len > 0);
        }
    }

    #[test]
    fn packed_and_reference_storage_encode_identical_state_bytes() {
        // The packed plane encodes straight from its slabs and spill slots;
        // the reference store encodes its enum states. Both must produce the
        // same FTRK bytes (apart from the storage flag), across every word
        // and spill-slot kind: packed words, inline shared lanes, boxed
        // overflow clocks and exclusive states spilled by a wide thread id.
        let image = |packed: bool| {
            let mut ft = FastTrack::with_storage(FastTrackConfig::default(), packed);
            for child in 1..12 {
                ft.fork(t(0), t(child));
            }
            ft.fork(t(0), t(200));
            ft.write(t(0), addr(0x100));
            for reader in 1..4 {
                ft.read(t(reader), addr(0x200)); // inline shared lanes
            }
            for reader in 1..12 {
                ft.read(t(reader), addr(0x1_0000)); // boxed overflow
            }
            ft.write(t(200), addr(0x2_0008)); // wide thread id spills
            ft.read(t(3), addr(0x2_0010));
            let mut w = SectionWriter::new(*b"FTRK", 3);
            ft.encode_snapshot(&mut w);
            let mut builder = aikido_snapshot::SnapshotBuilder::new();
            builder.push(w);
            builder.finish().into_bytes()
        };
        let (packed, reference) = (image(true), image(false));
        // Payload layout: granularity u64, epoch flag, max_reports u64,
        // dedup flag, then the storage flag.
        let storage_flag = 10 + 14 + 8 + 1 + 8 + 1;
        assert_eq!(packed.len(), reference.len());
        let differing: Vec<usize> = (0..packed.len())
            .filter(|&i| packed[i] != reference[i])
            .collect();
        let checksum = packed.len() - 8..packed.len();
        assert!(
            differing
                .iter()
                .all(|&i| i == storage_flag || checksum.contains(&i)),
            "state bytes differ at {differing:?}"
        );
        assert_eq!((packed[storage_flag], reference[storage_flag]), (1, 0));
    }

    #[test]
    fn write_after_shared_reads_collapses_read_state() {
        let mut ft = FastTrack::new();
        let l = LockId::new(9);
        ft.read(t(0), addr(0x800));
        ft.read(t(1), addr(0x800));
        // Synchronise both readers with the writer so the write is ordered.
        ft.release(t(0), l);
        ft.acquire(t(2), l);
        ft.release(t(1), l);
        ft.acquire(t(2), l);
        ft.write(t(2), addr(0x800));
        assert!(ft.races().is_empty());
        // After the write the variable is back in exclusive (epoch) mode.
        assert!(!ft.stats().read_share_promotions.eq(&0));
    }
}

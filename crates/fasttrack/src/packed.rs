//! Packed-word storage for per-variable metadata.
//!
//! The hot-path representation of a variable's [`VarState`] is one 64-bit
//! [`ShadowWord`] in a page-granular dense slab: write epoch and
//! exclusive-read epoch bit-packed side by side. States that no longer fit —
//! a promoted read-shared vector clock, a clock past 2^24 or a thread id
//! past 2^7 — escape through the word's spill tag into a side arena of
//! fixed-stride [`SpillSlot`]s.
//!
//! The spill slot is itself a packed structure: the first [`INLINE_LANES`]
//! per-thread read clocks live as flat *epoch lanes* directly in the slot,
//! so a read-shared history touched only by low-index threads (the
//! overwhelmingly common case — PARSEC-style workloads run a handful of
//! worker threads) is updated and race-checked entirely within the slot's
//! cache lines, never chasing a boxed [`VectorClock`]. Only when a thread
//! past the lane budget participates does the history fall back to the
//! dense boxed clock, preserving exact FastTrack semantics. The enum-based
//! [`aikido_shadow::ShadowStore`] storage is retained as the reference
//! oracle behind [`crate::FastTrack::with_reference_store`]; the two are
//! proven equivalent by the `packed_words_model` property suite and by the
//! end-to-end `reference_equivalence` suite.

use aikido_shadow::ShadowSlabs;
use aikido_snapshot::SectionWriter;
use aikido_types::{Addr, ShadowWord, SlabHandle, ThreadId, SLAB_WORDS};

use crate::clock::{Epoch, VectorClock};
use crate::detector::{cost, put_clock, put_epoch, ReadOutcome, WriteOutcome};
use crate::state::{ReadState, VarState};
use crate::stats::SpillStats;

/// Packs an epoch into a 31-bit word field, or `None` when it exceeds the
/// clock/thread budget (the state must spill).
#[inline]
pub(crate) fn pack_epoch(e: Epoch) -> Option<u64> {
    ShadowWord::pack_field(e.clock(), e.thread().raw())
}

/// Decodes a 31-bit word field back into an epoch.
#[inline]
fn unpack_epoch(field: u64) -> Epoch {
    Epoch::new(ShadowWord::field_clock(field), field_thread(field))
}

/// Encodes a state into an unspilled word, or `None` when it must spill.
/// The default (never-accessed) state encodes to [`ShadowWord::EMPTY`],
/// which is exactly the "untracked" word — consistent because every real
/// access installs an epoch with a non-zero clock.
#[inline]
pub(crate) fn encode_state(state: &VarState) -> Option<ShadowWord> {
    let write = pack_epoch(state.write)?;
    let read = match &state.read {
        ReadState::Exclusive(e) => pack_epoch(*e)?,
        ReadState::Shared(_) => return None,
    };
    Some(ShadowWord::from_fields(write, read))
}

/// Decodes an unspilled word into the state it represents.
#[inline]
pub(crate) fn decode_word(word: ShadowWord) -> VarState {
    debug_assert!(!word.is_spilled());
    VarState {
        write: unpack_epoch(word.write_field()),
        read: ReadState::Exclusive(unpack_epoch(word.read_field())),
    }
}

/// True if the epoch packed in `field` happens-before `vc` —
/// [`Epoch::happens_before`] on the field, without building the epoch.
#[inline]
fn field_happens_before(field: u64, vc: &VectorClock) -> bool {
    ShadowWord::field_clock(field) <= vc.get(field_thread(field))
}

/// The thread of the epoch packed in `field`.
#[inline]
fn field_thread(field: u64) -> ThreadId {
    ThreadId::new(ShadowWord::field_thread(field))
}

/// The detector's `read_slow` decided on an unspilled word, for the
/// case that stays in the word: the read epoch happens-before the reader's
/// clock `vc`, so the reader's epoch (packed as `field`) simply replaces it.
/// Returns the new word and the outcome, or `None` when the reads are
/// concurrent and the history must promote (the generic path's job). The
/// caller has checked that the epoch optimisation is on.
#[inline]
pub(crate) fn read_word(
    word: ShadowWord,
    vc: &VectorClock,
    field: u64,
) -> Option<(ShadowWord, ReadOutcome)> {
    debug_assert!(!word.is_spilled());
    if !field_happens_before(word.read_field(), vc) {
        return None;
    }
    let write = word.write_field();
    let out = ReadOutcome {
        cost: cost::EXCLUSIVE,
        promoted: false,
        write_race: !field_happens_before(write, vc),
        prior_writer: field_thread(write),
    };
    Some((ShadowWord::from_fields(write, field), out))
}

/// The detector's `write_slow` decided on an unspilled word whose new
/// write epoch packs as `field`: an exclusive read history is kept as is,
/// so the write only replaces the write field.
#[inline]
pub(crate) fn write_word(
    word: ShadowWord,
    vc: &VectorClock,
    field: u64,
) -> (ShadowWord, WriteOutcome) {
    debug_assert!(!word.is_spilled());
    let (write, read) = (word.write_field(), word.read_field());
    let out = WriteOutcome {
        cost: cost::EXCLUSIVE,
        write_race: !field_happens_before(write, vc),
        prior_writer: field_thread(write),
        read_race: !field_happens_before(read, vc),
        prior_reader: Some(field_thread(read)),
    };
    (ShadowWord::from_fields(field, read), out)
}

/// The FTRK word written in place of a spilled state, whose explicit record
/// follows it. Never a canonical word: its spill bit is set.
pub(crate) const SPILLED_RECORD: u64 = u64::MAX;

/// True if `raw` is exactly what [`encode_state`] produces for some tracked
/// state: non-zero, spill bit clear, and fixed by a decode/encode round trip
/// (which also rejects stray tag bits outside the two epoch fields).
#[inline]
pub(crate) fn is_canonical_word(raw: u64) -> bool {
    let word = ShadowWord::from_raw(raw);
    !word.is_empty() && !word.is_spilled() && encode_state(&decode_word(word)) == Some(word)
}

/// Thread indices whose read clock is kept inline in a spill slot's epoch
/// lanes.
pub(crate) const INLINE_LANES: usize = 8;

/// How a spill slot represents the read history.
///
/// The slot's `lanes` array carries, for every kind, the fast-path read
/// clock of the first [`INLINE_LANES`] threads; the kind decides what is
/// authoritative:
///
/// * `Exclusive` — reads are totally ordered; the epoch is authoritative
///   and its clock is mirrored into its thread's lane.
/// * `Inline` — read-shared with every participating thread inside the
///   lanes. The lanes *are* the vector clock: `lanes[..width]` is exactly
///   the backing array the reference's boxed clock would hold (`width` =
///   highest set index + 1, so reconstruction is byte-identical, trailing
///   zeros included).
/// * `Boxed` — a thread past the lane budget participates; the dense clock
///   is authoritative and the lanes memoize its first entries.
#[derive(Debug, Clone)]
enum SpillRead {
    /// Totally ordered reads (the state spilled for another reason: an
    /// oversized clock or thread id).
    Exclusive(Epoch),
    /// Read-shared, held entirely in the inline lanes.
    Inline {
        /// Length of the equivalent clock vector (highest set index + 1).
        width: u32,
    },
    /// Read-shared overflow: the boxed dense clock is authoritative.
    Boxed(Box<VectorClock>),
}

/// One spilled entry: write epoch, read-history kind and the inline epoch
/// lanes.
///
/// Invariant (all kinds): `lanes[i]` is the clock at which a read by thread
/// `i < INLINE_LANES` hits FastTrack's same-epoch fast path — `rvc[i]` for
/// read-shared histories, the exclusive epoch's clock on its own thread's
/// lane otherwise, 0 (never matches; live clocks start at 1) elsewhere.
/// Maintained incrementally by every update, so both the fast-path decision
/// *and* (for `Inline`) the full update/race-check logic stay within the
/// slot.
#[derive(Debug, Clone)]
pub(crate) struct SpillSlot {
    write: Epoch,
    read: SpillRead,
    lanes: [u32; INLINE_LANES],
}

impl SpillSlot {
    /// Builds a slot from a canonical state (taking ownership of a shared
    /// history's boxed clock when it overflows the lanes).
    fn new(state: VarState) -> SpillSlot {
        let mut lanes = [0u32; INLINE_LANES];
        let read = match state.read {
            ReadState::Exclusive(e) => {
                if e.thread().index() < INLINE_LANES {
                    lanes[e.thread().index()] = e.clock();
                }
                SpillRead::Exclusive(e)
            }
            ReadState::Shared(rvc) => {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = rvc.get(ThreadId::new(i as u32));
                }
                let width = rvc.raw_clocks().len();
                if width <= INLINE_LANES {
                    SpillRead::Inline {
                        width: width as u32,
                    }
                } else {
                    SpillRead::Boxed(rvc)
                }
            }
        };
        SpillSlot {
            write: state.write,
            read,
            lanes,
        }
    }

    /// Reconstructs the canonical state — byte-identical to what the
    /// reference detector holds, including the exact backing-array length
    /// of a shared history's clock.
    pub fn to_state(&self) -> VarState {
        let read = match &self.read {
            SpillRead::Exclusive(e) => ReadState::Exclusive(*e),
            SpillRead::Inline { width } => ReadState::Shared(Box::new(
                VectorClock::from_raw_clocks(self.lanes[..*width as usize].to_vec()),
            )),
            SpillRead::Boxed(rvc) => ReadState::Shared(rvc.clone()),
        };
        VarState {
            write: self.write,
            read,
        }
    }

    /// The spilled state's write epoch.
    #[inline]
    pub fn write_epoch(&self) -> Epoch {
        self.write
    }

    /// The fast-path read clock of thread index `idx < INLINE_LANES` (see
    /// the slot invariant). Exact: equality with a live probe clock holds
    /// iff [`crate::FastTrack`]'s read fast path would hit.
    #[inline]
    pub fn lane_clock(&self, idx: usize) -> u32 {
        self.lanes[idx]
    }

    /// The general read fast-path check, for threads past the lane budget
    /// (low-index threads use [`SpillSlot::lane_clock`] directly).
    pub fn read_fast_path(&self, thread: ThreadId, epoch: Epoch) -> bool {
        match &self.read {
            SpillRead::Exclusive(e) => *e == epoch,
            // Every participant of an inline history is inside the lanes, so
            // a lane-less thread has clock 0, which no live epoch matches.
            SpillRead::Inline { .. } => {
                thread.index() < INLINE_LANES && self.lanes[thread.index()] == epoch.clock()
            }
            SpillRead::Boxed(rvc) => rvc.get(thread) == epoch.clock(),
        }
    }

    /// The read epoch a still-spilled word's same-epoch hint can point at
    /// after a write (`None` for shared histories).
    #[inline]
    pub fn exclusive_read_epoch(&self) -> Option<Epoch> {
        match &self.read {
            SpillRead::Exclusive(e) => Some(*e),
            _ => None,
        }
    }

    /// True if the read history overflowed the lanes into a boxed clock.
    #[inline]
    pub fn is_boxed(&self) -> bool {
        matches!(self.read, SpillRead::Boxed(_))
    }

    /// Re-encodes the state into an unspilled word when it fits again.
    /// Exactly `encode_state(&self.to_state())`, without materializing the
    /// state.
    pub fn repack(&self) -> Option<ShadowWord> {
        match &self.read {
            SpillRead::Exclusive(e) => {
                let write = pack_epoch(self.write)?;
                let read = pack_epoch(*e)?;
                Some(ShadowWord::from_fields(write, read))
            }
            _ => None,
        }
    }

    /// The slow read update, mirroring the reference `read_slow`
    /// branch-for-branch on the packed representation: write-read race check
    /// plus read-history update. For histories inside the lanes this never
    /// touches (or allocates) a boxed clock.
    pub fn read_update(
        &mut self,
        vc: &VectorClock,
        thread: ThreadId,
        epoch: Epoch,
        use_epochs: bool,
        threads_known: u64,
    ) -> ReadOutcome {
        let mut cost = cost::EXCLUSIVE;
        let mut promoted = false;

        // Write-read race check: the last write must happen-before this read.
        let write_race = !self.write.happens_before(vc);
        let prior_writer = self.write.thread();

        match &mut self.read {
            SpillRead::Exclusive(e) if use_epochs && e.happens_before(vc) => {
                // Still totally ordered: the new epoch replaces the old, and
                // the lane mirror moves with it.
                let old = *e;
                *e = epoch;
                if old.thread().index() < INLINE_LANES {
                    self.lanes[old.thread().index()] = 0;
                }
                if thread.index() < INLINE_LANES {
                    self.lanes[thread.index()] = epoch.clock();
                }
            }
            SpillRead::Exclusive(e) => {
                // Concurrent (or epoch optimisation disabled): promote. The
                // reference builds `rvc` by setting (e.thread, e.clock) when
                // e.clock > 0, then (thread, epoch.clock); the lanes
                // reproduce exactly that vector (including its length) when
                // both indices fit, else the boxed clock is built directly.
                let e = *e;
                promoted = true;
                cost = cost::PROMOTE_SHARED;
                self.lanes = [0; INLINE_LANES];
                let prior_fits = e.clock() == 0 || e.thread().index() < INLINE_LANES;
                if prior_fits && thread.index() < INLINE_LANES {
                    let mut width = 0usize;
                    if e.clock() > 0 {
                        self.lanes[e.thread().index()] = e.clock();
                        width = e.thread().index() + 1;
                    }
                    self.lanes[thread.index()] = epoch.clock();
                    width = width.max(thread.index() + 1);
                    self.read = SpillRead::Inline {
                        width: width as u32,
                    };
                } else {
                    let mut rvc = VectorClock::new();
                    if e.clock() > 0 {
                        rvc.set(e.thread(), e.clock());
                        if e.thread().index() < INLINE_LANES {
                            self.lanes[e.thread().index()] = e.clock();
                        }
                    }
                    rvc.set(thread, epoch.clock());
                    if thread.index() < INLINE_LANES {
                        self.lanes[thread.index()] = epoch.clock();
                    }
                    self.read = SpillRead::Boxed(Box::new(rvc));
                }
            }
            SpillRead::Inline { width } => {
                cost = cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known;
                let idx = thread.index();
                if idx < INLINE_LANES {
                    self.lanes[idx] = epoch.clock();
                    *width = (*width).max(idx as u32 + 1);
                } else {
                    // A thread past the lane budget joined: overflow into
                    // the dense clock (`set` resizes to idx + 1, exactly
                    // like the reference's).
                    let mut rvc =
                        VectorClock::from_raw_clocks(self.lanes[..*width as usize].to_vec());
                    rvc.set(thread, epoch.clock());
                    self.read = SpillRead::Boxed(Box::new(rvc));
                }
            }
            SpillRead::Boxed(rvc) => {
                cost = cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known;
                rvc.set(thread, epoch.clock());
                if thread.index() < INLINE_LANES {
                    self.lanes[thread.index()] = epoch.clock();
                }
            }
        }

        ReadOutcome {
            cost,
            promoted,
            write_race,
            prior_writer,
        }
    }

    /// The detector's hot front's share of [`SpillSlot::read_update`]: a read
    /// by lane thread `lane < INLINE_LANES` at `clock` of an `Inline`
    /// history whose write epoch happens-before the reader's clock `vc`.
    /// Exactly `read_update`'s `Inline` arm for that reader, which races
    /// with nothing: the lane takes the clock and the width covers it.
    /// Returns false, changing nothing, for any other slot or a racing read.
    #[inline]
    pub fn read_inline_lane(&mut self, vc: &VectorClock, lane: usize, clock: u32) -> bool {
        let SpillRead::Inline { width } = &mut self.read else {
            return false;
        };
        if !self.write.happens_before(vc) {
            return false;
        }
        self.lanes[lane] = clock;
        *width = (*width).max(lane as u32 + 1);
        true
    }

    /// The slow write update, mirroring the reference `write_slow`: both
    /// race checks, the write record and the read-history collapse. The
    /// read-write check of an inline history scans the lanes — same
    /// ascending order, same first-concurrent-reader answer as the
    /// reference's clock iteration.
    pub fn write_update(
        &mut self,
        vc: &VectorClock,
        epoch: Epoch,
        threads_known: u64,
    ) -> WriteOutcome {
        let shared = !matches!(self.read, SpillRead::Exclusive(_));
        let cost = if shared {
            cost::SHARED_BASE + cost::SHARED_PER_THREAD * threads_known
        } else {
            cost::EXCLUSIVE
        };
        let write_race = !self.write.happens_before(vc);
        let prior_writer = self.write.thread();
        let (read_race, prior_reader) = match &self.read {
            SpillRead::Exclusive(e) => (!e.happens_before(vc), Some(e.thread())),
            SpillRead::Inline { width } => {
                // First lane whose clock exceeds the writer's view, in
                // ascending thread order (zero lanes can never exceed).
                let concurrent = self.lanes[..*width as usize]
                    .iter()
                    .enumerate()
                    .find(|&(i, &c)| c > vc.get(ThreadId::new(i as u32)))
                    .map(|(i, _)| ThreadId::new(i as u32));
                (concurrent.is_some(), concurrent)
            }
            SpillRead::Boxed(rvc) => (
                !rvc.le(vc),
                rvc.iter().find(|(t, c)| *c > vc.get(*t)).map(|(t, _)| t),
            ),
        };

        // Update: record this write; once all concurrent reads have been
        // checked the read history can collapse back to the writer's epoch
        // (FastTrack's "write shared" rule).
        self.write = epoch;
        if shared {
            self.read = SpillRead::Exclusive(epoch);
            self.lanes = [0; INLINE_LANES];
            if epoch.thread().index() < INLINE_LANES {
                self.lanes[epoch.thread().index()] = epoch.clock();
            }
        }

        WriteOutcome {
            cost,
            write_race,
            prior_writer,
            read_race,
            prior_reader,
        }
    }
}

/// The packed storage: a slab plane of words plus the spilled side arena.
///
/// Spilled states live in a dense `Vec` arena and the word carries the
/// arena slot inline ([`ShadowWord::spill_marker`]), so a spilled access is
/// one slab load plus one direct index — crucially *not* a second keyed
/// probe, because in Aikido mode nearly every delivered access targets
/// shared data whose read history has been promoted (and therefore
/// spilled). Freed slots are recycled through a free list; allocation order
/// is a deterministic function of the event history, and the reconstructed
/// state surface ([`PackedVars::states`]) iterates the slab plane, never
/// the arena, so recycling is unobservable.
#[derive(Debug, Clone)]
pub(crate) struct PackedVars {
    /// log2(granularity), so `block_of` is a shift instead of a division.
    shift: u32,
    /// The dense word plane, keyed by block index.
    slabs: ShadowSlabs,
    /// Arena of spilled states, indexed by the word's spill slot.
    arena: Vec<SpillSlot>,
    /// Recycled arena slots (their stale states are dead until reused).
    free: Vec<u32>,
    /// Representation counters (never part of the equivalence surface).
    stats: SpillStats,
}

impl PackedVars {
    /// Creates empty packed storage at `granularity` bytes per block.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero or not a power of two.
    pub fn new(granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        PackedVars {
            shift: granularity.trailing_zeros(),
            slabs: ShadowSlabs::new(),
            arena: Vec::new(),
            free: Vec::new(),
            stats: SpillStats::default(),
        }
    }

    /// The block index of `addr`.
    #[inline]
    pub fn block_of(&self, addr: Addr) -> u64 {
        addr.raw() >> self.shift
    }

    /// Resolves the slab of `addr`'s block (allocating if needed) and
    /// returns `(handle, slot)`. The handle stays valid until the next
    /// resolve; spill-table operations never invalidate it.
    #[inline]
    pub fn locate(&mut self, addr: Addr) -> (SlabHandle, usize) {
        self.slabs.resolve(self.block_of(addr))
    }

    /// Resolves the slab containing `block` (see [`PackedVars::locate`]).
    #[inline]
    pub fn resolve_block(&mut self, block: u64) -> SlabHandle {
        self.slabs.resolve(block).0
    }

    /// The word at `slot` of a resolved slab.
    #[inline]
    pub fn word_at(&self, handle: SlabHandle, slot: usize) -> ShadowWord {
        self.slabs.word_at(handle, slot)
    }

    /// Stores `word` at `slot` of a resolved slab.
    #[inline]
    pub fn set_word_at(&mut self, handle: SlabHandle, slot: usize, word: ShadowWord) {
        self.slabs.set_word_at(handle, slot, word);
    }

    /// Mutable access to the slot a spilled `word` points at: one direct
    /// arena index, no probing.
    #[inline]
    pub fn spill_slot_mut(&mut self, word: ShadowWord) -> &mut SpillSlot {
        debug_assert!(word.is_spilled());
        &mut self.arena[word.spill_index() as usize]
    }

    /// Shared access to the slot a spilled `word` points at.
    #[inline]
    pub fn spill_slot(&self, word: ShadowWord) -> &SpillSlot {
        debug_assert!(word.is_spilled());
        &self.arena[word.spill_index() as usize]
    }

    /// Moves `state` into the arena and returns the spill marker word to
    /// install in its slab slot.
    #[inline]
    pub fn spill(&mut self, state: VarState) -> ShadowWord {
        self.stats.spills += 1;
        let slot = SpillSlot::new(state);
        if slot.is_boxed() {
            self.stats.boxed_overflows += 1;
        }
        let index = match self.free.pop() {
            Some(index) => {
                self.arena[index as usize] = slot;
                u64::from(index)
            }
            None => {
                self.arena.push(slot);
                (self.arena.len() - 1) as u64
            }
        };
        ShadowWord::spill_marker(index)
    }

    /// Releases a spilled `word`'s arena slot (the state re-packed into its
    /// word). The stale arena entry is dead until the slot is reused.
    #[inline]
    pub fn unspill(&mut self, word: ShadowWord) {
        debug_assert!(word.is_spilled());
        self.stats.unspills += 1;
        self.free.push(word.spill_index() as u32);
    }

    /// Representation counters accumulated so far.
    #[inline]
    pub fn spill_stats(&self) -> SpillStats {
        self.stats
    }

    /// Mutable representation counters (spill bookkeeping only).
    #[inline]
    pub fn spill_stats_mut(&mut self) -> &mut SpillStats {
        &mut self.stats
    }

    /// Number of tracked blocks (every tracked block has a non-empty word;
    /// spilled blocks carry the spill marker).
    pub fn len(&self) -> usize {
        self.slabs.len()
    }

    /// Writes every tracked state in the FTRK slab layout (see
    /// [`crate::FastTrack::encode_snapshot`]): each non-empty slab in
    /// ascending order, its unspilled words copied verbatim (an unspilled
    /// word is exactly [`encode_state`] of its state), its spilled states as
    /// [`SPILLED_RECORD`] plus the explicit record. The same bytes the
    /// reference store writes for the same states.
    pub fn encode_states(&self, out: &mut SectionWriter) {
        for (chunk, words) in self.slabs.slabs() {
            // One occupancy bit per slot, built without branching on the
            // words, so a half-full slab costs no branch mispredictions.
            let mut occupied = [0u64; SLAB_WORDS / 64];
            for (mask, group) in occupied.iter_mut().zip(words.chunks_exact(64)) {
                for (i, &w) in group.iter().enumerate() {
                    *mask |= u64::from(w != 0) << i;
                }
            }
            let count: u32 = occupied.iter().map(|m| m.count_ones()).sum();
            if count == 0 {
                continue;
            }
            out.reserve(10 + 10 * count as usize);
            out.put_u64(chunk);
            out.put_u16(count as u16);
            for (group, mut mask) in occupied.into_iter().enumerate() {
                while mask != 0 {
                    let slot = group * 64 + mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    out.put_u16(slot as u16);
                    self.put_word(out, ShadowWord::from_raw(words[slot]));
                }
            }
        }
    }

    /// Writes one tracked block's word: the word itself when unspilled,
    /// else [`SPILLED_RECORD`] and the spilled state's explicit record.
    fn put_word(&self, out: &mut SectionWriter, word: ShadowWord) {
        if !word.is_spilled() {
            out.put_u64(word.raw());
            return;
        }
        let spilled = self.spill_slot(word);
        debug_assert!(spilled.repack().is_none(), "a spilled state that fits");
        out.put_u64(SPILLED_RECORD);
        put_epoch(out, spilled.write);
        match &spilled.read {
            SpillRead::Exclusive(e) => {
                out.put_u8(0);
                put_epoch(out, *e);
            }
            SpillRead::Inline { width } => {
                out.put_u8(1);
                put_clock(out, &spilled.lanes[..*width as usize]);
            }
            SpillRead::Boxed(rvc) => {
                out.put_u8(1);
                put_clock(out, rvc.raw_clocks());
            }
        }
    }

    /// Reconstructs every tracked `(block, state)` pair in ascending block
    /// order — the serialization surface the equivalence oracle compares.
    pub fn states(&self) -> Vec<(u64, VarState)> {
        self.slabs
            .iter()
            .map(|(block, word)| {
                let state = if word.is_spilled() {
                    self.spill_slot(word).to_state()
                } else {
                    decode_word(word)
                };
                (block, state)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VectorClock;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn packable_states_roundtrip_through_the_word() {
        let state = VarState {
            write: Epoch::new(5, t(2)),
            read: ReadState::Exclusive(Epoch::new(3, t(1))),
        };
        let word = encode_state(&state).expect("fits");
        assert!(!word.is_spilled());
        assert_eq!(decode_word(word), state);
        assert_eq!(encode_state(&VarState::default()), Some(ShadowWord::EMPTY));
    }

    #[test]
    fn shared_and_oversized_states_refuse_to_pack() {
        let shared = VarState {
            write: Epoch::ZERO,
            read: ReadState::Shared(Box::new(VectorClock::new())),
        };
        assert_eq!(encode_state(&shared), None);
        let big_clock = VarState {
            write: Epoch::new(1 << 24, t(0)),
            read: ReadState::default(),
        };
        assert_eq!(encode_state(&big_clock), None);
        let big_thread = VarState {
            write: Epoch::new(1, t(128)),
            read: ReadState::default(),
        };
        assert_eq!(encode_state(&big_thread), None);
    }

    #[test]
    fn insert_state_spills_and_reconstructs() {
        let mut vars = PackedVars::new(8);
        let packable = VarState {
            write: Epoch::new(2, t(1)),
            read: ReadState::Exclusive(Epoch::new(2, t(1))),
        };
        let rvc: VectorClock = [(t(0), 1), (t(1), 2)].into_iter().collect();
        let spilled = VarState {
            write: Epoch::new(4, t(0)),
            read: ReadState::Shared(Box::new(rvc)),
        };
        let (handle, slot) = vars.locate(Addr::new(10 * 8));
        vars.set_word_at(handle, slot, encode_state(&packable).expect("fits"));
        let (handle, slot) = vars.locate(Addr::new(700 * 8));
        let marker = vars.spill(spilled.clone());
        vars.set_word_at(handle, slot, marker);
        assert_eq!(vars.len(), 2);
        assert_eq!(
            vars.states(),
            vec![(10, packable), (700, spilled)],
            "states reconstruct in block order"
        );
    }

    #[test]
    fn small_shared_histories_stay_inline_and_reconstruct_exactly() {
        // A shared clock whose backing array ends in a zero entry: the
        // inline lanes must preserve the exact vector length.
        let rvc: VectorClock = [(t(3), 7), (t(1), 2)].into_iter().collect();
        assert_eq!(rvc.raw_clocks(), &[0, 2, 0, 7]);
        let state = VarState {
            write: Epoch::new(4, t(0)),
            read: ReadState::Shared(Box::new(rvc)),
        };
        let slot = SpillSlot::new(state.clone());
        assert!(
            !slot.is_boxed(),
            "history of low-index threads stays inline"
        );
        assert_eq!(slot.to_state(), state);
        assert_eq!(slot.lane_clock(1), 2);
        assert_eq!(slot.lane_clock(3), 7);
        assert_eq!(slot.lane_clock(0), 0);
    }

    #[test]
    fn lane_overflow_falls_back_to_the_boxed_clock() {
        let rvc: VectorClock = [(t(0), 1), (t(INLINE_LANES as u32), 5)]
            .into_iter()
            .collect();
        let state = VarState {
            write: Epoch::new(2, t(0)),
            read: ReadState::Shared(Box::new(rvc)),
        };
        let slot = SpillSlot::new(state.clone());
        assert!(slot.is_boxed());
        assert_eq!(slot.to_state(), state);
        // The lanes still memoize the low-index entries.
        assert_eq!(slot.lane_clock(0), 1);
        assert!(slot.read_fast_path(
            t(INLINE_LANES as u32),
            Epoch::new(5, t(INLINE_LANES as u32))
        ));
    }

    #[test]
    fn inline_read_update_crossing_the_lane_budget_overflows() {
        let vc_reader: VectorClock = [(t(INLINE_LANES as u32), 3)].into_iter().collect();
        let rvc: VectorClock = [(t(0), 1), (t(1), 2)].into_iter().collect();
        let mut slot = SpillSlot::new(VarState {
            write: Epoch::ZERO,
            read: ReadState::Shared(Box::new(rvc)),
        });
        assert!(!slot.is_boxed());
        let big = t(INLINE_LANES as u32);
        slot.read_update(&vc_reader, big, Epoch::new(3, big), true, 3);
        assert!(slot.is_boxed());
        let expected: VectorClock = [(t(0), 1), (t(1), 2), (big, 3)].into_iter().collect();
        assert_eq!(
            slot.to_state().read,
            ReadState::Shared(Box::new(expected)),
            "overflow preserves the exact clock the reference would hold"
        );
    }

    #[test]
    fn write_update_collapses_shared_lanes_to_the_writer() {
        let rvc: VectorClock = [(t(0), 1), (t(2), 4)].into_iter().collect();
        let mut slot = SpillSlot::new(VarState {
            write: Epoch::ZERO,
            read: ReadState::Shared(Box::new(rvc)),
        });
        // Writer has seen both readers.
        let vc: VectorClock = [(t(0), 1), (t(1), 9), (t(2), 4)].into_iter().collect();
        let out = slot.write_update(&vc, Epoch::new(9, t(1)), 3);
        assert!(!out.read_race);
        assert_eq!(out.prior_reader, None);
        assert_eq!(slot.exclusive_read_epoch(), Some(Epoch::new(9, t(1))));
        assert_eq!(slot.lane_clock(1), 9);
        assert_eq!(slot.lane_clock(0), 0, "collapsed lanes are cleared");
        assert_eq!(slot.repack(), encode_state(&slot.to_state()));
    }

    #[test]
    fn inline_write_race_reports_the_first_concurrent_reader() {
        let rvc: VectorClock = [(t(1), 2), (t(3), 5)].into_iter().collect();
        let mut slot = SpillSlot::new(VarState {
            write: Epoch::ZERO,
            read: ReadState::Shared(Box::new(rvc)),
        });
        // Writer has seen neither reader: ascending thread order picks t1.
        let vc: VectorClock = [(t(0), 7)].into_iter().collect();
        let out = slot.write_update(&vc, Epoch::new(7, t(0)), 3);
        assert!(out.read_race);
        assert_eq!(out.prior_reader, Some(t(1)));
    }

    #[test]
    fn locate_is_stable_across_spill_operations() {
        let mut vars = PackedVars::new(8);
        let (handle, slot) = vars.locate(Addr::new(0x2000));
        let marker = vars.spill(VarState::default());
        vars.set_word_at(handle, slot, marker);
        assert!(vars.word_at(handle, slot).is_spilled());
        vars.unspill(marker);
        vars.set_word_at(handle, slot, ShadowWord::from_fields(1, 1));
        assert_eq!(vars.word_at(handle, slot), ShadowWord::from_fields(1, 1));
        assert_eq!(vars.spill_stats().spills, 1);
        assert_eq!(vars.spill_stats().unspills, 1);
    }

    #[test]
    fn freed_arena_slots_are_recycled() {
        let mut vars = PackedVars::new(8);
        let a = vars.spill(VarState::default());
        let b = vars.spill(VarState::default());
        assert_ne!(a.spill_index(), b.spill_index());
        vars.unspill(a);
        let c = vars.spill(VarState {
            write: Epoch::new(9, t(1)),
            read: ReadState::default(),
        });
        assert_eq!(c.spill_index(), a.spill_index(), "freed slot reused");
        assert_eq!(vars.spill_slot(c).write_epoch(), Epoch::new(9, t(1)));
    }
}

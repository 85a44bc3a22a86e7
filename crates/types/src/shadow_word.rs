//! The packed shadow-word metadata plane: one 64-bit word per variable,
//! stored in page-granular dense slabs.
//!
//! FastTrack's insight is that the common-case metadata of a variable is a
//! single epoch; SmartTrack-style follow-on work collapses the whole
//! per-variable record into one machine word. This module provides the two
//! storage primitives that insight needs:
//!
//! * [`ShadowWord`] — the bit-packing scheme. A word carries the write epoch
//!   and the exclusive-read epoch side by side (31 bits each: 24-bit clock +
//!   7-bit thread), with a tag bit that escapes to a spilled side table when
//!   the state no longer fits (a promoted read-shared vector clock, a clock
//!   past 2^24, or a thread id past 2^7). The all-zero word doubles as
//!   "never tracked", which works because every real access installs an
//!   epoch with a non-zero clock.
//! * [`SlabDirectory`] — dense, page-sized slabs of raw `u64` words keyed by
//!   block index: the word form of the directory [`crate::ChunkMap`] uses.
//!   Unlike the chunk map's `Option<T>` slots, slots are bare words (no enum
//!   tag), so a probe is two loads and the per-entry footprint is exactly 8
//!   bytes. The directory hands out a [`SlabHandle`] so a caller resolves a
//!   slab once and then reads and writes its words by slot (an access's load
//!   and store share one probe).

use std::fmt;

use crate::directory::{Directory, Leaf};

/// log2 of the number of words per slab.
pub const SLAB_BITS: u32 = 9;
/// Words per slab (512 — one 4 KiB page of 8-byte blocks).
pub const SLAB_WORDS: usize = 1 << SLAB_BITS;
const SLAB_MASK: u64 = (SLAB_WORDS as u64) - 1;

/// Bits per packed epoch field (clock + thread).
const FIELD_BITS: u32 = 31;
/// Bits of the clock component within a field.
const CLOCK_BITS: u32 = 24;
/// Bits of the thread component within a field.
const THREAD_BITS: u32 = FIELD_BITS - CLOCK_BITS;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
/// Bit position of the write field (the read field sits at bit 0).
const WRITE_SHIFT: u32 = FIELD_BITS;

/// One packed shadow word.
///
/// Layout (bit 63 down to bit 0):
///
/// ```text
/// | 63: spill tag | 62: owner tag | 61..31: write epoch | 30..0: read epoch |
/// ```
///
/// Each 31-bit epoch field is `clock << 7 | thread` (24-bit clock, 7-bit
/// thread). The zero word means "never tracked"; a word with only the spill
/// tag set means "state lives in the side table".
///
/// On a spilled word the write lane doubles as the *same-epoch hint* (the
/// epoch whose fast-path probe would hit — see
/// [`ShadowWord::with_spill_hint`]) and the owner tag marks an *ownership
/// epoch* in the SmartTrack sense: the hint epoch is also the spilled
/// state's write epoch, so a repeat **write** by that owner in that epoch is
/// answered by one masked compare on the word
/// ([`ShadowWord::matches_owned_write`]) without touching the side table.
#[derive(Copy, Clone, PartialEq, Eq, Default)]
pub struct ShadowWord(u64);

impl ShadowWord {
    /// The spill tag bit: the variable's state lives in the side table.
    pub const SPILL_BIT: u64 = 1 << 63;

    /// The owner tag bit (meaningful only on spilled words): the same-epoch
    /// hint is an *ownership epoch* — it equals the spilled state's write
    /// epoch, so the owner's repeat writes match the word directly.
    pub const OWNED_BIT: u64 = 1 << 62;

    /// The "never tracked" word.
    pub const EMPTY: ShadowWord = ShadowWord(0);

    /// The marker installed in place of a spilled entry whose side table is
    /// keyed externally (by block index).
    pub const SPILLED: ShadowWord = ShadowWord(Self::SPILL_BIT);

    /// A spill marker carrying the side-table slot inline (low 31 bits):
    /// the spilled access costs one slab load plus one direct index, with
    /// no second probe. The write-field lane doubles as a *same-epoch
    /// hint* — see [`ShadowWord::with_spill_hint`].
    #[inline]
    pub const fn spill_marker(index: u64) -> ShadowWord {
        ShadowWord(Self::SPILL_BIT | index)
    }

    /// The side-table slot of a spilled word (valid only when
    /// [`ShadowWord::is_spilled`]).
    #[inline]
    pub const fn spill_index(self) -> u64 {
        self.0 & FIELD_MASK
    }

    /// Replaces the spilled word's same-epoch hint: the epoch field of the
    /// access that last updated the spilled state (0 = no hint). The hint's
    /// contract is "a fast-path probe by exactly this epoch would hit", so
    /// a repeat access by the same thread in the same epoch is satisfied by
    /// one masked compare on the word, without touching the side table.
    /// Clears the owner tag — use [`ShadowWord::with_ownership`] to install
    /// a hint that is also an ownership epoch.
    #[inline]
    pub const fn with_spill_hint(self, field: u64) -> ShadowWord {
        self.with_ownership(field, false)
    }

    /// Replaces the spilled word's same-epoch hint *and* owner tag in one
    /// store. `owned` asserts the hint epoch equals the spilled state's
    /// write epoch (the ownership-epoch invariant behind
    /// [`ShadowWord::matches_owned_write`]); the caller is responsible for
    /// only passing `true` when that holds.
    #[inline]
    pub const fn with_ownership(self, field: u64, owned: bool) -> ShadowWord {
        let cleared = self.0 & !(Self::OWNED_BIT | (FIELD_MASK << WRITE_SHIFT));
        let owner = if owned { Self::OWNED_BIT } else { 0 };
        ShadowWord(cleared | owner | (field << WRITE_SHIFT))
    }

    /// Positions `field` for a one-compare match against a spilled word's
    /// same-epoch hint (see [`ShadowWord::matches_spill_hint`]).
    #[inline]
    pub const fn spill_hint_probe(field: u64) -> u64 {
        Self::SPILL_BIT | (field << WRITE_SHIFT)
    }

    /// True if this word is spilled and its same-epoch hint equals the
    /// probe. An unspilled word can never match because the probe carries
    /// the spill bit; a hintless spilled word (hint 0) can never match
    /// because live epoch fields are non-zero (clocks start at 1). The
    /// mask excludes the owner tag: the read-side hint matches whether or
    /// not the hint is also an ownership epoch.
    #[inline]
    pub const fn matches_spill_hint(self, probe: u64) -> bool {
        self.0 & (Self::SPILL_BIT | (FIELD_MASK << WRITE_SHIFT)) == probe
    }

    /// The spilled word's same-epoch hint field (0 = no hint). Shares the
    /// write lane — meaningful only when [`ShadowWord::is_spilled`].
    #[inline]
    pub const fn spill_hint_field(self) -> u64 {
        (self.0 >> WRITE_SHIFT) & FIELD_MASK
    }

    /// True if the spilled word's hint carries the owner tag.
    #[inline]
    pub const fn is_owned(self) -> bool {
        self.0 & Self::OWNED_BIT != 0
    }

    /// Positions `field` for a one-compare match against a spilled word's
    /// ownership epoch (see [`ShadowWord::matches_owned_write`]).
    #[inline]
    pub const fn owned_write_probe(field: u64) -> u64 {
        Self::SPILL_BIT | Self::OWNED_BIT | (field << WRITE_SHIFT)
    }

    /// True if this word is spilled, owner-tagged, and its ownership epoch
    /// equals the probe — the owner's repeat write in the same epoch,
    /// answered without touching the side table. An unspilled or unowned
    /// word can never match because the probe carries both tag bits.
    #[inline]
    pub const fn matches_owned_write(self, probe: u64) -> bool {
        self.0 & (Self::SPILL_BIT | Self::OWNED_BIT | (FIELD_MASK << WRITE_SHIFT)) == probe
    }

    /// Wraps a raw word.
    pub const fn from_raw(raw: u64) -> Self {
        ShadowWord(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// True for the all-zero "never tracked" word.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the state escaped to the spilled side table.
    pub const fn is_spilled(self) -> bool {
        self.0 & Self::SPILL_BIT != 0
    }

    /// Packs a `(clock, thread)` epoch into a 31-bit field, or `None` when
    /// either component exceeds its budget (the caller must spill).
    #[inline]
    pub const fn pack_field(clock: u32, thread: u32) -> Option<u64> {
        if clock < (1 << CLOCK_BITS) && thread < (1 << THREAD_BITS) {
            Some(((clock as u64) << THREAD_BITS) | thread as u64)
        } else {
            None
        }
    }

    /// The clock component of a packed field.
    #[inline]
    pub const fn field_clock(field: u64) -> u32 {
        (field >> THREAD_BITS) as u32
    }

    /// The thread component of a packed field.
    #[inline]
    pub const fn field_thread(field: u64) -> u32 {
        (field & ((1 << THREAD_BITS) - 1)) as u32
    }

    /// Builds an unspilled word from its write and read fields.
    #[inline]
    pub const fn from_fields(write: u64, read: u64) -> ShadowWord {
        ShadowWord((write << WRITE_SHIFT) | read)
    }

    /// The write epoch field of an unspilled word.
    #[inline]
    pub const fn write_field(self) -> u64 {
        (self.0 >> WRITE_SHIFT) & FIELD_MASK
    }

    /// The read epoch field of an unspilled word.
    #[inline]
    pub const fn read_field(self) -> u64 {
        self.0 & FIELD_MASK
    }

    /// Positions `field` for a one-compare match against the word's *read*
    /// lane (see [`ShadowWord::matches_read`]).
    #[inline]
    pub const fn read_probe(field: u64) -> u64 {
        field
    }

    /// Positions `field` for a one-compare match against the word's *write*
    /// lane (see [`ShadowWord::matches_write`]).
    #[inline]
    pub const fn write_probe(field: u64) -> u64 {
        field << WRITE_SHIFT
    }

    /// True if this word is unspilled and its read field equals the probe.
    /// One masked compare: a spilled word can never match because the probe
    /// carries no spill bit.
    #[inline]
    pub const fn matches_read(self, probe: u64) -> bool {
        self.0 & (Self::SPILL_BIT | FIELD_MASK) == probe
    }

    /// True if this word is unspilled and its write field equals the probe.
    #[inline]
    pub const fn matches_write(self, probe: u64) -> bool {
        self.0 & (Self::SPILL_BIT | (FIELD_MASK << WRITE_SHIFT)) == probe
    }
}

impl fmt::Debug for ShadowWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_spilled() {
            write!(
                f,
                "ShadowWord(spilled slot {}{}, hint {}@{})",
                self.spill_index(),
                if self.is_owned() { ", owned" } else { "" },
                Self::field_clock(self.spill_hint_field()),
                Self::field_thread(self.spill_hint_field()),
            )
        } else {
            write!(
                f,
                "ShadowWord(w={}@{}, r={}@{})",
                Self::field_clock(self.write_field()),
                Self::field_thread(self.write_field()),
                Self::field_clock(self.read_field()),
                Self::field_thread(self.read_field()),
            )
        }
    }
}

impl Leaf for [u64; SLAB_WORDS] {
    fn vacant() -> Box<Self> {
        Box::new([0; SLAB_WORDS])
    }
}

/// A resolved slab: an index into the directory, valid until the next
/// [`SlabDirectory::resolve`] call (which may grow the directory and move
/// slabs). Callers resolve once and then index words by slot; spill-table
/// operations never invalidate a handle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SlabHandle(usize);

/// Dense slabs of [`SLAB_WORDS`] raw words keyed by `key >> SLAB_BITS` —
/// the word form of the page-indexed directory, the storage engine of the
/// packed metadata plane and the sharing detector's page states.
///
/// It shares its directory with [`crate::ChunkMap`] (hashed home slot,
/// linear probing, doubling past 70 % load, ascending-chunk iteration), but
/// its slots hold bare `u64` words (zero = absent) instead of `Option<T>`,
/// so the per-entry footprint is 8 bytes and a lookup never touches an enum
/// tag.
#[derive(Clone)]
pub struct SlabDirectory {
    dir: Directory<[u64; SLAB_WORDS]>,
    /// Number of non-zero words across all slabs.
    entries: usize,
}

impl Default for SlabDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SlabDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlabDirectory({} slabs, {} words)",
            self.dir.chunks(),
            self.entries
        )
    }
}

impl SlabDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        SlabDirectory {
            dir: Directory::new(),
            entries: 0,
        }
    }

    /// Number of non-zero words stored.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if every word is zero.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of slabs allocated.
    pub fn slab_count(&self) -> usize {
        self.dir.chunks()
    }

    /// Splits a word key into `(slab index, slot)`.
    #[inline]
    pub const fn split(key: u64) -> (u64, usize) {
        (key >> SLAB_BITS, (key & SLAB_MASK) as usize)
    }

    /// Resolves (allocating if necessary) the slab for `chunk` and returns
    /// its handle. The probe hit is inline; inserting a slab (and growing
    /// the directory) is out of line. A handle is still valid only until
    /// the next `resolve`, which may grow the directory and move slabs, so
    /// FastTrack's access kernel, whose batches cross pages, locates every
    /// access again instead of carrying a handle from one to the next.
    #[inline]
    pub fn resolve(&mut self, chunk: u64) -> SlabHandle {
        SlabHandle(self.dir.resolve(chunk))
    }

    /// The word at `slot` of a resolved slab: one load, no probing.
    #[inline]
    pub fn word_at(&self, handle: SlabHandle, slot: usize) -> ShadowWord {
        ShadowWord(self.dir.leaf(handle.0)[slot])
    }

    /// Stores `word` at `slot` of a resolved slab.
    #[inline]
    pub fn set_word_at(&mut self, handle: SlabHandle, slot: usize, word: ShadowWord) {
        let old = std::mem::replace(&mut self.dir.leaf_mut(handle.0)[slot], word.raw());
        self.entries += usize::from(old == 0 && word.raw() != 0);
        self.entries -= usize::from(old != 0 && word.raw() == 0);
    }

    /// The word at `key` ([`ShadowWord::EMPTY`] when its slab is absent).
    #[inline]
    pub fn get(&self, key: u64) -> ShadowWord {
        let (chunk, slot) = Self::split(key);
        match self.dir.get(chunk) {
            Some(words) => ShadowWord(words[slot]),
            None => ShadowWord::EMPTY,
        }
    }

    /// Stores `word` at `key`, allocating the slab if needed.
    #[inline]
    pub fn set(&mut self, key: u64, word: ShadowWord) {
        let (chunk, slot) = Self::split(key);
        let h = self.resolve(chunk);
        self.set_word_at(h, slot, word);
    }

    /// Every allocated slab as `(slab index, words)`, in ascending slab
    /// order (a slab's words are its slots' raw values, zero = absent).
    pub fn slabs(&self) -> Vec<(u64, &[u64; SLAB_WORDS])> {
        self.dir.sorted()
    }

    /// Iterates over `(key, word)` pairs with non-zero words, in ascending
    /// key order.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (u64, ShadowWord)> + '_ {
        self.slabs().into_iter().flat_map(|(tag, words)| {
            let base = tag << SLAB_BITS;
            words
                .iter()
                .enumerate()
                .filter(|(_, &w)| w != 0)
                .map(move |(i, &w)| (base + i as u64, ShadowWord::from_raw(w)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips_within_the_field_budget() {
        for (clock, thread) in [(0, 0), (1, 0), (0, 1), ((1 << 24) - 1, (1 << 7) - 1)] {
            let field = ShadowWord::pack_field(clock, thread).expect("fits");
            assert_eq!(ShadowWord::field_clock(field), clock);
            assert_eq!(ShadowWord::field_thread(field), thread);
        }
    }

    #[test]
    fn out_of_budget_components_refuse_to_pack() {
        assert_eq!(ShadowWord::pack_field(1 << 24, 0), None);
        assert_eq!(ShadowWord::pack_field(0, 1 << 7), None);
        assert_eq!(ShadowWord::pack_field(u32::MAX, u32::MAX), None);
    }

    #[test]
    fn fields_occupy_disjoint_lanes() {
        let w = ShadowWord::pack_field(5, 3).unwrap();
        let r = ShadowWord::pack_field(9, 1).unwrap();
        let word = ShadowWord::from_fields(w, r);
        assert_eq!(word.write_field(), w);
        assert_eq!(word.read_field(), r);
        assert!(!word.is_spilled());
        assert!(!word.is_empty());
    }

    #[test]
    fn probes_match_only_unspilled_words() {
        let f = ShadowWord::pack_field(7, 2).unwrap();
        let word = ShadowWord::from_fields(f, f);
        assert!(word.matches_read(ShadowWord::read_probe(f)));
        assert!(word.matches_write(ShadowWord::write_probe(f)));
        let other = ShadowWord::pack_field(8, 2).unwrap();
        assert!(!word.matches_read(ShadowWord::read_probe(other)));
        // A spilled word never matches any probe.
        assert!(!ShadowWord::SPILLED.matches_read(ShadowWord::read_probe(f)));
        assert!(!ShadowWord::SPILLED.matches_write(ShadowWord::write_probe(f)));
        // The empty word only matches the zero probe, which no live epoch
        // produces (clocks start at 1).
        assert!(!ShadowWord::EMPTY.matches_read(ShadowWord::read_probe(f)));
    }

    #[test]
    fn spill_hint_survives_in_the_write_lane() {
        let f = ShadowWord::pack_field(4, 1).unwrap();
        let marker = ShadowWord::spill_marker(17).with_spill_hint(f);
        assert!(marker.is_spilled());
        assert_eq!(marker.spill_index(), 17);
        assert_eq!(marker.spill_hint_field(), f);
        assert!(marker.matches_spill_hint(ShadowWord::spill_hint_probe(f)));
        let other = ShadowWord::pack_field(5, 1).unwrap();
        assert!(!marker.matches_spill_hint(ShadowWord::spill_hint_probe(other)));
        // Replacing the hint keeps the slot index intact.
        let replaced = marker.with_spill_hint(other);
        assert_eq!(replaced.spill_index(), 17);
        assert!(replaced.matches_spill_hint(ShadowWord::spill_hint_probe(other)));
    }

    #[test]
    fn owner_tag_gates_the_owned_write_match() {
        let f = ShadowWord::pack_field(9, 3).unwrap();
        let owned = ShadowWord::spill_marker(5).with_ownership(f, true);
        let unowned = ShadowWord::spill_marker(5).with_ownership(f, false);
        assert!(owned.is_owned());
        assert!(!unowned.is_owned());
        // Both match the read-side hint probe: the owner tag is excluded
        // from that mask.
        let hint = ShadowWord::spill_hint_probe(f);
        assert!(owned.matches_spill_hint(hint));
        assert!(unowned.matches_spill_hint(hint));
        // Only the owner-tagged word matches the owned-write probe.
        let probe = ShadowWord::owned_write_probe(f);
        assert!(owned.matches_owned_write(probe));
        assert!(!unowned.matches_owned_write(probe));
        let other = ShadowWord::pack_field(10, 3).unwrap();
        assert!(!owned.matches_owned_write(ShadowWord::owned_write_probe(other)));
        // An unspilled word never matches: the probe carries the spill bit.
        let word = ShadowWord::from_fields(f, f);
        assert!(!word.matches_owned_write(probe));
        // Installing a plain hint clears a stale owner tag.
        assert!(!owned.with_spill_hint(f).is_owned());
        // The slot index survives ownership changes.
        assert_eq!(owned.spill_index(), 5);
        assert_eq!(owned.with_ownership(other, false).spill_index(), 5);
    }

    #[test]
    fn zero_word_is_empty_and_spill_marker_is_not() {
        assert!(ShadowWord::EMPTY.is_empty());
        assert!(!ShadowWord::SPILLED.is_empty());
        assert!(ShadowWord::SPILLED.is_spilled());
        assert_eq!(ShadowWord::from_fields(0, 0), ShadowWord::EMPTY);
    }

    #[test]
    fn directory_stores_and_reads_words() {
        let mut d = SlabDirectory::new();
        assert!(d.is_empty());
        assert_eq!(d.get(12345), ShadowWord::EMPTY);
        d.set(12345, ShadowWord::from_raw(7));
        d.set(12346, ShadowWord::from_raw(8));
        assert_eq!(d.get(12345).raw(), 7);
        assert_eq!(d.get(12346).raw(), 8);
        assert_eq!(d.len(), 2);
        assert_eq!(d.slab_count(), 1);
        // Overwriting with zero removes the entry from the count.
        d.set(12345, ShadowWord::EMPTY);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(12345), ShadowWord::EMPTY);
    }

    #[test]
    fn handles_index_without_probing() {
        let mut d = SlabDirectory::new();
        let key = 0x40_0000u64;
        let (chunk, slot) = SlabDirectory::split(key);
        let h = d.resolve(chunk);
        assert_eq!(d.word_at(h, slot), ShadowWord::EMPTY);
        d.set_word_at(h, slot, ShadowWord::from_raw(42));
        assert_eq!(d.get(key).raw(), 42);
    }

    #[test]
    fn directory_survives_growth_with_collisions() {
        let mut d = SlabDirectory::new();
        // 200 distinct slabs force at least two doublings from 64 slots;
        // the family shares its low bits, so identity homing would collide.
        for i in 0..200u64 {
            d.set(i * 64 * SLAB_WORDS as u64, ShadowWord::from_raw(i + 1));
        }
        for i in 0..200u64 {
            assert_eq!(d.get(i * 64 * SLAB_WORDS as u64).raw(), i + 1);
        }
        assert_eq!(d.len(), 200);
    }

    #[test]
    fn lookups_on_the_workload_layout_probe_about_once() {
        use crate::directory::tests::{probe_lengths, workload_layout_chunks};
        let chunks = workload_layout_chunks();
        let mut d = SlabDirectory::new();
        for &chunk in &chunks {
            d.set(chunk << SLAB_BITS, ShadowWord::from_raw(chunk));
        }
        let (mean, max) = probe_lengths(&chunks, |chunk| {
            assert_eq!(d.get(chunk << SLAB_BITS).raw(), chunk);
        });
        assert!(mean <= 1.5, "mean probe length {mean}");
        assert!(max <= 8, "max probe length {max}");
    }

    #[test]
    fn iter_nonempty_is_sorted_and_skips_zero_words() {
        let mut d = SlabDirectory::new();
        for &k in &[900u64, 3, 512, 511, 1 << 30] {
            d.set(k, ShadowWord::from_raw(k + 1));
        }
        let got: Vec<u64> = d.iter_nonempty().map(|(k, _)| k).collect();
        assert_eq!(got, vec![3, 511, 512, 900, 1 << 30]);
    }

    #[test]
    fn widely_separated_keys_coexist() {
        let mut d = SlabDirectory::new();
        let keys = [0x10_0000u64 >> 3, 0x5000_0000_0000 >> 3, u64::MAX >> 12];
        for (i, &k) in keys.iter().enumerate() {
            d.set(k, ShadowWord::from_raw(i as u64 + 1));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(d.get(k).raw(), i as u64 + 1, "key {k:#x}");
        }
    }

    #[test]
    fn clone_preserves_contents() {
        let mut d = SlabDirectory::new();
        d.set(9, ShadowWord::from_raw(1));
        d.set(1 << 35, ShadowWord::from_raw(2));
        let c = d.clone();
        assert_eq!(c.get(9).raw(), 1);
        assert_eq!(c.get(1 << 35).raw(), 2);
        assert_eq!(c.len(), 2);
    }
}

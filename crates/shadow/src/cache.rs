//! The layered translation caches Umbra places in front of the full region
//! lookup (§2.2).
//!
//! In the real system the first level is an inline memoization cache patched
//! into the instrumented application code (one entry per instrumented
//! instruction), followed by small thread-local caches consulted in a lean
//! procedure, and finally a full lookup requiring a complete context switch.
//! The simulation models one inline entry per *static instruction* and one
//! small FIFO of recently used regions per thread; everything else is a full
//! lookup. The [`CacheLevel`] returned for each translation lets the cost
//! model charge the right number of cycles.
//!
//! Because `access` runs once per instrumented memory access, the cache is
//! stored as per-thread lanes indexed by [`ThreadId::index`], with the inline
//! level a flat [`ChunkMap`] keyed by `(block, instruction)` — no hashing on
//! the hot path.

use serde::{Deserialize, Serialize};

use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{ChunkMap, InstrId, ThreadId};

use crate::region::RegionId;
use crate::stats::ShadowStats;

/// Which level of the translation machinery satisfied a lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheLevel {
    /// The inline memoization cache embedded at the instrumented instruction.
    Inline,
    /// A thread-local cache consulted without a full context switch.
    ThreadLocal,
    /// The full region-table lookup.
    Full,
}

/// A dense-table entry that can never match a real region (the table stores
/// region ids as bytes; regions with larger ids use the spill map).
const INLINE_EMPTY: u8 = u8::MAX;

/// Dense inline-cache keys below this bound live in a flat, directly indexed
/// table; the rare wider key falls back to the chunked map.
const DENSE_INLINE_KEYS: u64 = 1 << 20;

/// One thread's view of the translation machinery.
#[derive(Debug, Default)]
struct ThreadLane {
    /// Static instruction → raw id of the last region it translated (the
    /// inline cache), directly indexed by the dense instruction key — one
    /// load and one compare on the per-access hot path. Entries are single
    /// bytes so the whole table stays cache-resident (the probe pattern is
    /// random across instructions, so footprint *is* the probe cost);
    /// region ids ≥ 255 — workloads have a handful of regions — spill.
    inline_dense: Vec<u8>,
    /// Inline entries whose key falls outside the dense table (blocks with
    /// huge ids or more than 64 instructions) or whose region id does not
    /// fit a byte; never on real workloads.
    inline_spill: ChunkMap<RegionId>,
    /// Recently used regions (the thread-local caches), most recent last.
    recent: Vec<RegionId>,
}

/// Dense `u64` key for a static instruction. Blocks rarely exceed a few
/// dozen instructions, so packing 64 indices per block keeps many blocks'
/// entries in one leaf chunk (good locality); the rare wider block moves to
/// a disjoint high key range. Injective for every representable id: the
/// narrow range tops out at 2^38 (u32 block << 6), the wide range occupies
/// bit 62 | block << 16 | u16 index, so the two can never meet.
#[inline]
fn instr_key(instr: InstrId) -> u64 {
    let (block, index) = (instr.block().raw() as u64, instr.index() as u64);
    if index < 64 {
        (block << 6) | index
    } else {
        (1 << 62) | (block << 16) | index
    }
}

/// Thread indices below this bound get a dense lane; beyond it (never in
/// practice — workload thread ids are sequential) lanes spill into a scanned
/// list, bounding the allocation against pathological ids.
const MAX_DENSE_LANES: usize = 1 << 16;

/// Resolves (creating if necessary) the lane of thread index `idx`. A free
/// function over the two lane fields so a caller can hold the lane while
/// still updating the cache's statistics (disjoint borrows).
fn lane_mut<'a>(
    lanes: &'a mut Vec<ThreadLane>,
    spill_lanes: &'a mut Vec<(usize, ThreadLane)>,
    idx: usize,
) -> &'a mut ThreadLane {
    if idx < MAX_DENSE_LANES {
        if idx >= lanes.len() {
            lanes.resize_with(idx + 1, ThreadLane::default);
        }
        &mut lanes[idx]
    } else {
        match spill_lanes.iter().position(|(i, _)| *i == idx) {
            Some(pos) => &mut spill_lanes[pos].1,
            None => {
                spill_lanes.push((idx, ThreadLane::default()));
                &mut spill_lanes.last_mut().expect("just pushed").1
            }
        }
    }
}

/// One translation against an already-resolved lane: the exact per-access
/// semantics of [`TranslationCache::access`] minus the lane lookup and the
/// translation count. Out of line: `access` answers the common hit itself.
fn probe_one(
    lane: &mut ThreadLane,
    stats: &mut ShadowStats,
    capacity: usize,
    instr: InstrId,
    region: RegionId,
) -> CacheLevel {
    let key = instr_key(instr);
    let level = if key < DENSE_INLINE_KEYS {
        let key = key as usize;
        if key >= lane.inline_dense.len() {
            lane.inline_dense.resize(key + 1, INLINE_EMPTY);
        }
        let slot = &mut lane.inline_dense[key];
        if u32::from(*slot) == region.raw() && *slot != INLINE_EMPTY {
            stats.inline_hits += 1;
            CacheLevel::Inline
        } else {
            let level = if lane.recent.contains(&region) {
                stats.thread_local_hits += 1;
                CacheLevel::ThreadLocal
            } else {
                stats.full_lookups += 1;
                CacheLevel::Full
            };
            // Install the result in the inline cache on the way out. A
            // region id too large for a byte (255+ registered regions;
            // never on real workloads) records as "empty", i.e. the
            // entry keeps missing rather than aliasing another region.
            *slot = if region.raw() < u32::from(INLINE_EMPTY) {
                region.raw() as u8
            } else {
                INLINE_EMPTY
            };
            level
        }
    } else {
        match lane.inline_spill.get_mut(key) {
            Some(slot) if *slot == region => {
                stats.inline_hits += 1;
                CacheLevel::Inline
            }
            slot => {
                let level = if lane.recent.contains(&region) {
                    stats.thread_local_hits += 1;
                    CacheLevel::ThreadLocal
                } else {
                    stats.full_lookups += 1;
                    CacheLevel::Full
                };
                match slot {
                    Some(slot) => *slot = region,
                    None => {
                        lane.inline_spill.insert(key, region);
                    }
                }
                level
            }
        }
    };

    // Move the region to the back of the thread-local FIFO; when it is
    // already the most recent entry the reorder is a no-op, so skip it.
    if lane.recent.last() != Some(&region) {
        if let Some(pos) = lane.recent.iter().position(|&r| r == region) {
            lane.recent.remove(pos);
        }
        lane.recent.push(region);
        if lane.recent.len() > capacity {
            lane.recent.remove(0);
        }
    }
    level
}

/// Per-thread, per-instruction translation cache model.
#[derive(Debug, Default)]
pub struct TranslationCache {
    lanes: Vec<ThreadLane>,
    /// Lanes for out-of-range thread indices, keyed by index.
    spill_lanes: Vec<(usize, ThreadLane)>,
    stats: ShadowStats,
    thread_local_entries: usize,
}

impl TranslationCache {
    /// Default number of entries in the thread-local cache.
    pub const DEFAULT_THREAD_LOCAL_ENTRIES: usize = 8;

    /// Creates a cache with the default thread-local capacity.
    pub fn new() -> Self {
        Self::with_thread_local_entries(Self::DEFAULT_THREAD_LOCAL_ENTRIES)
    }

    /// Creates a cache with `entries` thread-local slots per thread.
    pub fn with_thread_local_entries(entries: usize) -> Self {
        TranslationCache {
            lanes: Vec::new(),
            spill_lanes: Vec::new(),
            stats: ShadowStats::default(),
            thread_local_entries: entries.max(1),
        }
    }

    /// Records a translation of `instr` on `thread` resolving to `region` and
    /// returns which cache level satisfied it.
    ///
    /// The common case returns inline: the thread's lane exists, the
    /// instruction's dense inline slot already holds `region`, and `region`
    /// is already the FIFO's most recent entry, so nothing moves. Everything
    /// else — a new lane or a spill lane, a dense table to resize, a wide
    /// key, a thread-local or full lookup, an inline hit that reorders the
    /// FIFO — goes out of line.
    #[inline]
    pub fn access(&mut self, thread: ThreadId, instr: InstrId, region: RegionId) -> CacheLevel {
        self.stats.translations += 1;
        let key = instr_key(instr);
        if let (Some(lane), true) = (self.lanes.get(thread.index()), key < DENSE_INLINE_KEYS) {
            let slot = lane.inline_dense.get(key as usize).copied();
            if slot.is_some_and(|slot| slot != INLINE_EMPTY && u32::from(slot) == region.raw())
                && lane.recent.last() == Some(&region)
            {
                self.stats.inline_hits += 1;
                return CacheLevel::Inline;
            }
        }
        self.access_slow(thread, instr, region)
    }

    /// The rest of [`TranslationCache::access`], after the translation count.
    /// Out of line, but not `#[cold]`: how often a thread moves between
    /// regions, and so how often this runs, depends on the workload.
    #[inline(never)]
    fn access_slow(&mut self, thread: ThreadId, instr: InstrId, region: RegionId) -> CacheLevel {
        let capacity = self.thread_local_entries;
        let lane = lane_mut(&mut self.lanes, &mut self.spill_lanes, thread.index());
        probe_one(lane, &mut self.stats, capacity, instr, region)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ShadowStats {
        &self.stats
    }

    /// Drops every cached entry (used when the code cache is flushed).
    pub fn flush(&mut self) {
        self.lanes.clear();
        self.spill_lanes.clear();
    }

    /// Serializes every cache lane (inline tables, spill maps, thread-local
    /// FIFOs, in order), the statistics and the configured FIFO capacity into
    /// a snapshot section. The cache layers are *stateful* accelerators —
    /// which level serves an access decides its simulated cost — so restoring
    /// them exactly is required for resume-equivalence.
    pub fn encode_snapshot(&self, out: &mut SectionWriter) {
        let put_lane = |out: &mut SectionWriter, lane: &ThreadLane| {
            out.put_bytes(&lane.inline_dense);
            out.put_usize(lane.inline_spill.len());
            for (key, region) in lane.inline_spill.iter() {
                out.put_u64(key);
                out.put_u32(region.raw());
            }
            out.put_usize(lane.recent.len());
            for region in &lane.recent {
                out.put_u32(region.raw());
            }
        };
        out.put_usize(self.lanes.len());
        for lane in &self.lanes {
            put_lane(out, lane);
        }
        out.put_usize(self.spill_lanes.len());
        for (idx, lane) in &self.spill_lanes {
            out.put_usize(*idx);
            put_lane(out, lane);
        }
        out.put_u64(self.stats.translations);
        out.put_u64(self.stats.inline_hits);
        out.put_u64(self.stats.thread_local_hits);
        out.put_u64(self.stats.full_lookups);
        out.put_usize(self.thread_local_entries);
    }

    /// Rebuilds a cache from a section written by
    /// [`TranslationCache::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any malformed payload.
    pub fn decode_snapshot(
        r: &mut SectionReader<'_>,
    ) -> std::result::Result<TranslationCache, SnapshotError> {
        fn get_lane(r: &mut SectionReader<'_>) -> std::result::Result<ThreadLane, SnapshotError> {
            let inline_dense = r.get_bytes()?;
            let mut inline_spill = ChunkMap::new();
            let spill_count = r.get_usize()?;
            for _ in 0..spill_count {
                let key = r.get_u64()?;
                let region = RegionId::new(r.get_u32()?);
                inline_spill.insert(key, region);
            }
            let recent_count = r.get_usize()?;
            let mut recent = Vec::with_capacity(recent_count.min(1 << 10));
            for _ in 0..recent_count {
                recent.push(RegionId::new(r.get_u32()?));
            }
            Ok(ThreadLane {
                inline_dense,
                inline_spill,
                recent,
            })
        }
        let lane_count = r.get_usize()?;
        let mut lanes = Vec::with_capacity(lane_count.min(1 << 10));
        for _ in 0..lane_count {
            lanes.push(get_lane(r)?);
        }
        let spill_lane_count = r.get_usize()?;
        let mut spill_lanes = Vec::with_capacity(spill_lane_count.min(1 << 10));
        for _ in 0..spill_lane_count {
            let idx = r.get_usize()?;
            spill_lanes.push((idx, get_lane(r)?));
        }
        let mut stats = ShadowStats::new();
        stats.translations = r.get_u64()?;
        stats.inline_hits = r.get_u64()?;
        stats.thread_local_hits = r.get_u64()?;
        stats.full_lookups = r.get_u64()?;
        let thread_local_entries = r.get_usize()?;
        if thread_local_entries == 0 {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                "thread-local capacity must be at least 1".to_string(),
            ));
        }
        Ok(TranslationCache {
            lanes,
            spill_lanes,
            stats,
            thread_local_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_types::BlockId;

    fn instr(n: u16) -> InstrId {
        InstrId::new(BlockId::new(1), n)
    }

    #[test]
    fn repeated_translation_by_same_instruction_hits_inline() {
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        assert_eq!(c.access(t, instr(0), RegionId::new(0)), CacheLevel::Full);
        assert_eq!(c.access(t, instr(0), RegionId::new(0)), CacheLevel::Inline);
        assert_eq!(c.access(t, instr(0), RegionId::new(0)), CacheLevel::Inline);
        assert_eq!(c.stats().inline_hits, 2);
        assert_eq!(c.stats().full_lookups, 1);
    }

    #[test]
    fn different_instruction_same_region_hits_thread_local() {
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        c.access(t, instr(0), RegionId::new(3));
        assert_eq!(
            c.access(t, instr(1), RegionId::new(3)),
            CacheLevel::ThreadLocal
        );
    }

    #[test]
    fn region_change_misses_inline_cache() {
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        c.access(t, instr(0), RegionId::new(0));
        assert_eq!(c.access(t, instr(0), RegionId::new(1)), CacheLevel::Full);
        // Flip-flopping between regions keeps missing inline but hits the
        // thread-local cache once both regions are recent.
        assert_eq!(
            c.access(t, instr(0), RegionId::new(0)),
            CacheLevel::ThreadLocal
        );
    }

    #[test]
    fn caches_are_per_thread() {
        let mut c = TranslationCache::new();
        c.access(ThreadId::new(0), instr(0), RegionId::new(0));
        assert_eq!(
            c.access(ThreadId::new(1), instr(0), RegionId::new(0)),
            CacheLevel::Full
        );
    }

    #[test]
    fn thread_local_cache_evicts_in_fifo_order() {
        let mut c = TranslationCache::with_thread_local_entries(2);
        let t = ThreadId::new(0);
        c.access(t, instr(0), RegionId::new(0));
        c.access(t, instr(1), RegionId::new(1));
        c.access(t, instr(2), RegionId::new(2)); // evicts region 0
        assert_eq!(c.access(t, instr(3), RegionId::new(0)), CacheLevel::Full);
        assert_eq!(
            c.access(t, instr(4), RegionId::new(2)),
            CacheLevel::ThreadLocal
        );
    }

    #[test]
    fn flush_clears_all_levels() {
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        c.access(t, instr(0), RegionId::new(0));
        c.flush();
        assert_eq!(c.access(t, instr(0), RegionId::new(0)), CacheLevel::Full);
    }

    #[test]
    fn wide_instruction_indices_spill_out_of_the_dense_table() {
        // Index ≥ 64 maps to the high key range, beyond the dense table.
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        let wide = InstrId::new(BlockId::new(2), 907);
        assert_eq!(c.access(t, wide, RegionId::new(4)), CacheLevel::Full);
        assert_eq!(c.access(t, wide, RegionId::new(4)), CacheLevel::Inline);
        assert_eq!(c.access(t, wide, RegionId::new(5)), CacheLevel::Full);
        assert_eq!(
            c.access(t, wide, RegionId::new(4)),
            CacheLevel::ThreadLocal,
            "region change misses inline but region 4 is still recent"
        );
        c.flush();
        assert_eq!(c.access(t, wide, RegionId::new(4)), CacheLevel::Full);
    }

    #[test]
    fn hot_path_edge_cases_match_a_fresh_replay() {
        // Capacity 2, so a missed FIFO reorder shows up as an eviction.
        let fresh = || TranslationCache::with_thread_local_entries(2);
        let t = ThreadId::new(0);
        let r = RegionId::new;
        let steps = [
            (instr(0), r(0), CacheLevel::Full),
            (instr(1), r(1), CacheLevel::Full),
            // Inline slot hit while region 1 is the most recent: still an
            // inline hit, and region 0 moves to the back of the FIFO...
            (instr(0), r(0), CacheLevel::Inline),
            // ...so region 2 evicts region 1, not region 0.
            (instr(2), r(2), CacheLevel::Full),
            (instr(3), r(0), CacheLevel::ThreadLocal),
            (instr(4), r(1), CacheLevel::Full),
            // A key past the dense table's end resizes it and misses, then
            // hits inline on the region that is now most recent.
            (
                InstrId::new(BlockId::new(500), 7),
                r(1),
                CacheLevel::ThreadLocal,
            ),
            (InstrId::new(BlockId::new(500), 7), r(1), CacheLevel::Inline),
            // An inline hit on the older region reorders once more.
            (instr(0), r(0), CacheLevel::Inline),
        ];
        let mut c = fresh();
        for (n, &(i, region, want)) in steps.iter().enumerate() {
            assert_eq!(c.access(t, i, region), want, "step {n}");
            let mut replay = fresh();
            for &(i, region, _) in &steps[..=n] {
                replay.access(t, i, region);
            }
            assert_eq!(c.stats(), replay.stats(), "step {n}");
        }
        assert_eq!(
            c.access(ThreadId::new(5), instr(0), r(0)),
            CacheLevel::Full,
            "a thread without a lane yet"
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_cache_levels() {
        let mut c = TranslationCache::with_thread_local_entries(2);
        for t in 0..3u32 {
            for i in 0..8u16 {
                c.access(ThreadId::new(t), instr(i), RegionId::new(u32::from(i) % 3));
            }
        }
        // A wide-key spill entry too.
        c.access(
            ThreadId::new(0),
            InstrId::new(BlockId::new(2), 907),
            RegionId::new(1),
        );

        let mut w = aikido_snapshot::SectionWriter::new(*b"TCCH", 1);
        c.encode_snapshot(&mut w);
        let mut b = aikido_snapshot::SnapshotBuilder::new();
        b.push(w);
        let snap = b.finish();
        let mut reader = snap.reader().unwrap();
        let mut section = reader.section(*b"TCCH", 1).unwrap();
        let mut restored = TranslationCache::decode_snapshot(&mut section).unwrap();
        section.finish().unwrap();
        reader.finish().unwrap();

        assert_eq!(restored.stats(), c.stats());
        // Every subsequent access must resolve at the same level in both.
        for t in 0..4u32 {
            for i in 0..10u16 {
                let region = RegionId::new(u32::from(i) % 3);
                assert_eq!(
                    restored.access(ThreadId::new(t), instr(i), region),
                    c.access(ThreadId::new(t), instr(i), region),
                    "thread {t} instr {i}"
                );
            }
        }
        let wide = InstrId::new(BlockId::new(2), 907);
        let got = restored.access(ThreadId::new(0), wide, RegionId::new(1));
        assert_eq!(got, c.access(ThreadId::new(0), wide, RegionId::new(1)));
        assert_eq!(got, CacheLevel::Inline);
        assert_eq!(restored.stats(), c.stats());
    }

    #[test]
    fn instructions_in_different_blocks_have_distinct_inline_entries() {
        let mut c = TranslationCache::new();
        let t = ThreadId::new(0);
        let a = InstrId::new(BlockId::new(10), 3);
        let b = InstrId::new(BlockId::new(11), 3);
        c.access(t, a, RegionId::new(0));
        c.access(t, b, RegionId::new(1));
        assert_eq!(c.access(t, a, RegionId::new(0)), CacheLevel::Inline);
        assert_eq!(c.access(t, b, RegionId::new(1)), CacheLevel::Inline);
    }
}

//! A flat, chunked map keyed by `u64` indices — the storage engine behind
//! every per-access table in the reproduction.
//!
//! The per-access hot paths (shadow page-table lookups, per-thread protection
//! checks, shadow-metadata loads, page sharing states) were originally backed
//! by `BTreeMap`/`HashMap`, so every simulated access paid pointer chasing or
//! hashing. [`ChunkMap`] replaces them with index arithmetic:
//!
//! * Keys are split into a *chunk* (`key >> CHUNK_BITS`) and a *slot*
//!   (`key & CHUNK_MASK`). Each chunk owns a lazily boxed leaf array of
//!   [`CHUNK_LEN`] slots — page-granular when keys are 8-byte block indices,
//!   2 MiB-granular when keys are page numbers.
//! * Chunks live in a fixed-size, power-of-two *directory* addressed by
//!   open addressing with linear probing. A chunk's home slot is `home`:
//!   the top bits of a Fibonacci (multiplicative) hash of the chunk index,
//!   so consecutive chunks spread over the whole directory. The directory
//!   doubles when it fills past 70 %.
//!
//! Identity homing (`chunk & mask`) looks free but fails on the simulated
//! layout. In a block-keyed map the chunk is the page number, and the region
//! bases (shared at page `0x10000`, private from page `0x200_0000`) are
//! multiples of every directory size. Every region's chunks then start at
//! slot 0, and all regions pile into one linear-probe cluster: about 20 tag
//! compares per lookup on fluidanimate's full-mode stream. With hashed
//! homes a lookup is one multiply, two array loads and (almost always) one
//! tag compare — no tree descent, no allocation — which is what lets the
//! simulator's fast path approach native speed.

use std::fmt;

/// log2 of the number of slots per leaf chunk.
pub const CHUNK_BITS: u32 = 9;
/// Number of slots per leaf chunk (512 — one page of 8-byte blocks).
pub const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = (CHUNK_LEN as u64) - 1;
/// Initial directory capacity (power of two).
const INITIAL_DIR: usize = 64;
/// Directory load factor (in percent) beyond which it doubles.
const MAX_LOAD_PCT: usize = 70;

/// Directory tag meaning "no chunk here". Keys are full `u64`s but chunk
/// indices are `key >> CHUNK_BITS < 2^55`, so the sentinel can never collide.
const EMPTY_TAG: u64 = u64::MAX;

/// The Fibonacci hashing multiplier: 2^64 divided by the golden ratio.
const FIB_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The home slot of `chunk` in a power-of-two directory of `mask + 1` slots
/// (`mask` ≥ 1): the top `log2(mask + 1)` bits of `chunk` times the Fibonacci
/// multiplier. Shared by [`ChunkMap`] and [`crate::SlabDirectory`].
#[inline]
pub(crate) fn home(chunk: u64, mask: u64) -> usize {
    (chunk.wrapping_mul(FIB_MULTIPLIER) >> mask.leading_zeros()) as usize
}

#[cfg(test)]
thread_local! {
    /// Directory tag compares made on this thread (unit tests only).
    pub(crate) static TAG_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one directory tag compare; compiles to nothing outside unit tests.
#[inline(always)]
pub(crate) fn count_tag_compare() {
    #[cfg(test)]
    TAG_COMPARES.with(|c| c.set(c.get() + 1));
}

fn new_leaf<T>() -> Box<[Option<T>]> {
    let mut slots = Vec::with_capacity(CHUNK_LEN);
    slots.resize_with(CHUNK_LEN, || None);
    slots.into_boxed_slice()
}

/// A sparse `u64 → T` map stored as a fixed directory of flat leaf chunks.
///
/// See the module docs for the layout. The API mirrors the subset of
/// `HashMap` the tables need; iteration is in ascending key order.
pub struct ChunkMap<T> {
    /// Open-addressed chunk tags ([`EMPTY_TAG`] = vacant). Kept separate from
    /// the leaves so probing touches a dense 8-byte lane.
    tags: Vec<u64>,
    /// Leaf arrays, parallel to `tags` (`Some` iff the tag is occupied).
    leaves: Vec<Option<Box<[Option<T>]>>>,
    /// `tags.len() - 1`; the directory length is always a power of two.
    mask: u64,
    chunks: usize,
    entries: usize,
}

impl<T> Default for ChunkMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: Clone> Clone for ChunkMap<T> {
    fn clone(&self) -> Self {
        let mut copy = ChunkMap::new();
        for (k, v) in self.iter() {
            copy.insert(k, v.clone());
        }
        copy
    }
}

impl<T> ChunkMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        let mut leaves = Vec::with_capacity(INITIAL_DIR);
        leaves.resize_with(INITIAL_DIR, || None);
        ChunkMap {
            tags: vec![EMPTY_TAG; INITIAL_DIR],
            leaves,
            mask: (INITIAL_DIR as u64) - 1,
            chunks: 0,
            entries: 0,
        }
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if no key has a value.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Removes every entry but keeps the directory allocation.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY_TAG);
        for leaf in &mut self.leaves {
            *leaf = None;
        }
        self.chunks = 0;
        self.entries = 0;
    }

    #[inline]
    fn split(key: u64) -> (u64, usize) {
        (key >> CHUNK_BITS, (key & CHUNK_MASK) as usize)
    }

    /// Directory index holding `chunk`, or the empty slot where it belongs.
    #[inline]
    fn probe(&self, chunk: u64) -> usize {
        let mut i = home(chunk, self.mask);
        loop {
            count_tag_compare();
            let tag = self.tags[i];
            if tag == chunk || tag == EMPTY_TAG {
                return i;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Shared access to the value at `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        let (chunk, slot) = Self::split(key);
        match &self.leaves[self.probe(chunk)] {
            Some(leaf) => leaf[slot].as_ref(),
            None => None,
        }
    }

    /// Mutable access to the value at `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (chunk, slot) = Self::split(key);
        let i = self.probe(chunk);
        match &mut self.leaves[i] {
            Some(leaf) => leaf[slot].as_mut(),
            None => None,
        }
    }

    /// True if `key` has a value.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    fn grow(&mut self) {
        let new_len = self.tags.len() * 2;
        let mut new_tags = vec![EMPTY_TAG; new_len];
        let mut new_leaves: Vec<Option<Box<[Option<T>]>>> = Vec::with_capacity(new_len);
        new_leaves.resize_with(new_len, || None);
        let new_mask = (new_len as u64) - 1;
        for (tag, leaf) in self.tags.drain(..).zip(self.leaves.drain(..)) {
            if tag != EMPTY_TAG {
                let mut i = home(tag, new_mask);
                while new_tags[i] != EMPTY_TAG {
                    i = (i + 1) & new_mask as usize;
                }
                new_tags[i] = tag;
                new_leaves[i] = leaf;
            }
        }
        self.tags = new_tags;
        self.leaves = new_leaves;
        self.mask = new_mask;
    }

    /// Directory index of the chunk for `key`, allocating the chunk (and
    /// growing the directory) if needed.
    fn chunk_for_insert(&mut self, chunk: u64) -> usize {
        let i = self.probe(chunk);
        if self.tags[i] != EMPTY_TAG {
            return i;
        }
        if (self.chunks + 1) * 100 > self.tags.len() * MAX_LOAD_PCT {
            self.grow();
        }
        let i = self.probe(chunk);
        self.tags[i] = chunk;
        self.leaves[i] = Some(new_leaf());
        self.chunks += 1;
        i
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let (chunk, slot) = Self::split(key);
        let i = self.chunk_for_insert(chunk);
        let leaf = self.leaves[i].as_mut().expect("chunk just ensured");
        let old = leaf[slot].replace(value);
        if old.is_none() {
            self.entries += 1;
        }
        old
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (chunk, slot) = Self::split(key);
        let i = self.probe(chunk);
        let leaf = self.leaves[i].as_mut()?;
        let old = leaf[slot].take();
        if old.is_some() {
            self.entries -= 1;
            // Chunks are kept once allocated (tombstone-free removal would
            // break the probe sequence and churn is rare); an empty chunk
            // still answers lookups correctly.
        }
        old
    }

    /// Mutable access to the value at `key`, inserting `T::default()` first
    /// if the key is vacant.
    #[inline]
    pub fn get_or_default(&mut self, key: u64) -> &mut T
    where
        T: Default,
    {
        self.get_or_default_tracked(key).1
    }

    /// Like [`ChunkMap::get_or_default`], but also reports whether the entry
    /// was newly created — callers tracking "first touch" statistics avoid a
    /// second lookup.
    #[inline]
    pub fn get_or_default_tracked(&mut self, key: u64) -> (bool, &mut T)
    where
        T: Default,
    {
        let (chunk, slot) = Self::split(key);
        let i = self.chunk_for_insert(chunk);
        let leaf = self.leaves[i].as_mut().expect("chunk just ensured");
        let entry = &mut leaf[slot];
        let is_new = entry.is_none();
        if is_new {
            *entry = Some(T::default());
            self.entries += 1;
        }
        (is_new, entry.as_mut().expect("just filled"))
    }

    /// Iterates over `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let mut chunk_order: Vec<(u64, &[Option<T>])> = self
            .tags
            .iter()
            .zip(&self.leaves)
            .filter_map(|(&tag, leaf)| leaf.as_ref().map(|l| (tag, &l[..])))
            .collect();
        chunk_order.sort_by_key(|&(tag, _)| tag);
        chunk_order.into_iter().flat_map(|(tag, slots)| {
            let base = tag << CHUNK_BITS;
            slots
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| v.as_ref().map(|v| (base + i as u64, v)))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn empty_map_answers_lookups() {
        let m: ChunkMap<u32> = ChunkMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(u64::MAX >> 12), None);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = ChunkMap::new();
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(5, "b"), Some("a"));
        assert_eq!(m.get(5), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(5), Some("b"));
        assert_eq!(m.remove(5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn keys_far_apart_land_in_distinct_chunks() {
        let mut m = ChunkMap::new();
        // Page numbers of an app region, the mirror area and the fake fault
        // pages — the realistic extremes.
        let keys = [0x400u64, 0x6_0000_0000, 0x7_ffff_0000, u64::MAX >> 12];
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(&i), "key {k:#x}");
        }
        assert_eq!(m.len(), keys.len());
    }

    #[test]
    fn colliding_directory_slots_probe_linearly() {
        let mut m = ChunkMap::new();
        // Chunks 0, 64, 128 … share their low bits, the family identity
        // homing sent to one slot; they must still round-trip.
        for i in 0..8u64 {
            m.insert(i * 64 * CHUNK_LEN as u64, i);
        }
        for i in 0..8u64 {
            assert_eq!(m.get(i * 64 * CHUNK_LEN as u64), Some(&i));
        }
    }

    #[test]
    fn directory_grows_past_the_load_factor() {
        let mut m = ChunkMap::new();
        // 200 distinct chunks forces at least two doublings from 64 slots.
        for i in 0..200u64 {
            m.insert(i * CHUNK_LEN as u64, i);
        }
        for i in 0..200u64 {
            assert_eq!(m.get(i * CHUNK_LEN as u64), Some(&i));
        }
        assert_eq!(m.len(), 200);
    }

    /// The chunk indices of a high_sharing-shaped address space: 64 shared
    /// pages from page `0x10000`, plus 8 private regions of 16 pages spaced
    /// 32 pages apart from page `0x200_0000`.
    pub(crate) fn workload_layout_chunks() -> Vec<u64> {
        let shared = 0x10000..0x10040u64;
        let private =
            (0..8u64).flat_map(|region| (0..16).map(move |page| 0x200_0000 + region * 32 + page));
        shared.chain(private).collect()
    }

    /// Mean and maximum tag compares of one lookup per chunk.
    pub(crate) fn probe_lengths(chunks: &[u64], mut lookup: impl FnMut(u64)) -> (f64, u64) {
        let mut total = 0;
        let mut max = 0;
        for &chunk in chunks {
            let before = TAG_COMPARES.with(|c| c.get());
            lookup(chunk);
            let compares = TAG_COMPARES.with(|c| c.get()) - before;
            total += compares;
            max = max.max(compares);
        }
        (total as f64 / chunks.len() as f64, max)
    }

    #[test]
    fn lookups_on_the_workload_layout_probe_about_once() {
        let chunks = workload_layout_chunks();
        let mut m = ChunkMap::new();
        for &chunk in &chunks {
            m.insert(chunk << CHUNK_BITS, chunk);
        }
        let (mean, max) = probe_lengths(&chunks, |chunk| {
            assert_eq!(m.get(chunk << CHUNK_BITS), Some(&chunk));
        });
        assert!(mean <= 1.5, "mean probe length {mean}");
        assert!(max <= 8, "max probe length {max}");
    }

    #[test]
    fn get_or_default_creates_then_reuses() {
        let mut m: ChunkMap<u64> = ChunkMap::new();
        *m.get_or_default(77) += 1;
        *m.get_or_default(77) += 1;
        assert_eq!(m.get(77), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut m = ChunkMap::new();
        let keys = [900u64, 3, 512, 511, 1 << 30];
        for &k in &keys {
            m.insert(k, k * 2);
        }
        let got: Vec<(u64, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            got,
            vec![
                (3, 6),
                (511, 1022),
                (512, 1024),
                (900, 1800),
                (1 << 30, 2 << 30)
            ]
        );
    }

    #[test]
    fn clear_empties_but_map_remains_usable() {
        let mut m = ChunkMap::new();
        m.insert(1, 1);
        m.insert(1 << 40, 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.insert(2, 3);
        assert_eq!(m.get(2), Some(&3));
    }

    #[test]
    fn adjacent_keys_share_a_chunk() {
        let mut m = ChunkMap::new();
        for k in 0..CHUNK_LEN as u64 {
            m.insert(k, k);
        }
        assert_eq!(m.len(), CHUNK_LEN);
        assert_eq!(m.get(CHUNK_LEN as u64), None);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut m = ChunkMap::new();
        m.insert(9, "x");
        m.insert(1 << 35, "y");
        let c = m.clone();
        assert_eq!(c.get(9), Some(&"x"));
        assert_eq!(c.get(1 << 35), Some(&"y"));
        assert_eq!(c.len(), 2);
    }
}

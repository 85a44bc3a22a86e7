//! A flat, chunked map keyed by `u64` indices — the typed-slot form of the
//! page-indexed directory behind every per-access table in the reproduction.
//!
//! The per-access hot paths (shadow page-table lookups, per-thread protection
//! checks, shadow-metadata loads) were originally backed by
//! `BTreeMap`/`HashMap`, so every simulated access paid pointer chasing or
//! hashing. [`ChunkMap`] replaces them with index arithmetic: keys split
//! into a *chunk* (`key >> CHUNK_BITS`) and a *slot* (`key & CHUNK_MASK`),
//! and each chunk owns a lazily boxed leaf of [`CHUNK_LEN`] `Option<T>`
//! slots — page-granular when keys are 8-byte block indices, 2 MiB-granular
//! when keys are page numbers. The chunks live in the hashed, open-addressed
//! directory `directory.rs` shares with [`crate::SlabDirectory`], whose
//! leaves are bare words instead; a lookup is one multiply, two array loads
//! and (almost always) one tag compare, which is what lets the simulator's
//! fast path approach native speed.

use std::fmt;

use crate::directory::{Directory, Leaf};

/// log2 of the number of slots per leaf chunk.
pub const CHUNK_BITS: u32 = 9;
/// Number of slots per leaf chunk (512 — one page of 8-byte blocks).
pub const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = (CHUNK_LEN as u64) - 1;

impl<T> Leaf for [Option<T>; CHUNK_LEN] {
    fn vacant() -> Box<Self> {
        let slots: Box<[Option<T>]> = (0..CHUNK_LEN).map(|_| None).collect();
        match slots.try_into() {
            Ok(leaf) => leaf,
            Err(_) => unreachable!("collected exactly CHUNK_LEN slots"),
        }
    }
}

/// A sparse `u64 → T` map stored as a directory of flat leaf chunks.
///
/// See the module docs for the layout. The API mirrors the subset of
/// `HashMap` the tables need; iteration is in ascending key order.
#[derive(Clone)]
pub struct ChunkMap<T> {
    dir: Directory<[Option<T>; CHUNK_LEN]>,
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

impl<T> ChunkMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ChunkMap {
            dir: Directory::new(),
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
        self.dir.clear();
        self.entries = 0;
    }

    #[inline]
    fn split(key: u64) -> (u64, usize) {
        (key >> CHUNK_BITS, (key & CHUNK_MASK) as usize)
    }

    /// Shared access to the value at `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        let (chunk, slot) = Self::split(key);
        self.dir.get(chunk)?[slot].as_ref()
    }

    /// Mutable access to the value at `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (chunk, slot) = Self::split(key);
        self.dir.get_mut(chunk)?[slot].as_mut()
    }

    /// True if `key` has a value.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let (chunk, slot) = Self::split(key);
        let i = self.dir.resolve(chunk);
        let old = self.dir.leaf_mut(i)[slot].replace(value);
        self.entries += usize::from(old.is_none());
        old
    }

    /// Removes and returns the value at `key`. Its chunk stays allocated.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (chunk, slot) = Self::split(key);
        let old = self.dir.get_mut(chunk)?[slot].take();
        self.entries -= usize::from(old.is_some());
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
        let i = self.dir.resolve(chunk);
        let entry = &mut self.dir.leaf_mut(i)[slot];
        let is_new = entry.is_none();
        self.entries += usize::from(is_new);
        (is_new, entry.get_or_insert_with(T::default))
    }

    /// Iterates over `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.dir.sorted().into_iter().flat_map(|(chunk, slots)| {
            let base = chunk << CHUNK_BITS;
            slots
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| v.as_ref().map(|v| (base + i as u64, v)))
        })
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn lookups_on_the_workload_layout_probe_about_once() {
        use crate::directory::tests::{probe_lengths, workload_layout_chunks};
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

//! Dense slot-indexed storage for per-thread and per-lock vector clocks.
//!
//! Thread and lock identities in the simulated workloads are small dense
//! integers, so the detector keys its clock state by direct index instead of
//! hashing a `ThreadId`/`LockId` on every event. Pathologically large ids
//! (possible through the public API) spill into a sorted vector probed by
//! binary search, so the dense array can never be grown unboundedly by a
//! hostile key and a large spill population still costs O(log n) per probe
//! rather than a linear scan.
//!
//! This is deliberately not `aikido_types::ChunkMap`: the clock lookup sits
//! on the per-event critical path and the keys here are guaranteed-dense
//! slots, so a single direct index beats the chunk map's probe-plus-leaf
//! walk.

/// Keys below this bound index the dense array directly.
const MAX_DENSE: u64 = 1 << 16;

/// A `u64 → V` map optimised for small dense keys.
#[derive(Debug, Clone)]
pub(crate) struct DenseMap<V> {
    dense: Vec<Option<V>>,
    /// Entries with keys ≥ [`MAX_DENSE`], kept sorted by key for binary
    /// search.
    spill: Vec<(u64, V)>,
    len: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        DenseMap {
            dense: Vec::new(),
            spill: Vec::new(),
            len: 0,
        }
    }
}

impl<V> DenseMap<V> {
    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Shared access to the value at `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key < MAX_DENSE {
            self.dense.get(key as usize)?.as_ref()
        } else {
            let pos = self.spill.binary_search_by_key(&key, |&(k, _)| k).ok()?;
            Some(&self.spill[pos].1)
        }
    }

    /// Iterates every `(key, value)` pair in ascending key order (dense keys
    /// are all below the spill bound, so dense-then-spill is sorted). This is
    /// the deterministic serialization order of the snapshot plane.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(k, v)| Some((k as u64, v.as_ref()?)));
        let spill = self.spill.iter().map(|(k, v)| (*k, v));
        dense.chain(spill)
    }

    /// Mutable access to the value at `key`, inserting `make()` first if the
    /// key is vacant. The thread-clock lookup drives this once per event, so
    /// a present dense key — a bounds check plus an index — is answered
    /// inline and everything else goes out of line.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let idx = key as usize;
        if key < MAX_DENSE && matches!(self.dense.get(idx), Some(Some(_))) {
            return self.dense[idx].as_mut().expect("just checked");
        }
        self.insert_with(key, make)
    }

    /// [`DenseMap::get_or_insert_with`] past its inline hit: a vacant dense
    /// key, or any key past the dense bound.
    #[cold]
    #[inline(never)]
    fn insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        if key < MAX_DENSE {
            let idx = key as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, || None);
            }
            let slot = &mut self.dense[idx];
            if slot.is_none() {
                *slot = Some(make());
                self.len += 1;
            }
            slot.as_mut().expect("just filled")
        } else {
            let pos = match self.spill.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(pos) => pos,
                Err(pos) => {
                    self.spill.insert(pos, (key, make()));
                    self.len += 1;
                    pos
                }
            };
            &mut self.spill[pos].1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spill_keys_roundtrip() {
        let mut m: DenseMap<u32> = DenseMap::default();
        *m.get_or_insert_with(3, || 30) += 0;
        *m.get_or_insert_with(1 << 40, || 40) += 0;
        assert_eq!(m.get(3), Some(&30));
        assert_eq!(m.get(1 << 40), Some(&40));
        assert_eq!(m.get(4), None);
        assert_eq!(m.len(), 2);
        *m.get_or_insert_with(3, || 0) += 1;
        assert_eq!(m.get(3), Some(&31));
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut m: DenseMap<u32> = DenseMap::default();
        assert_eq!(*m.get_or_insert_with(7, || 1), 1);
        *m.get_or_insert_with(7, || 99) += 1;
        assert_eq!(m.get(7), Some(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get_or_insert_with(1 << 20, || 5), 5);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn spill_stays_sorted_across_out_of_order_inserts() {
        // Keys on and around the dense/spill boundary, inserted in an order
        // chosen to break a push-append spill: binary search must find every
        // key afterwards, and boundary keys must land on the right side.
        let mut m: DenseMap<u64> = DenseMap::default();
        let keys = [
            MAX_DENSE + 7,
            u64::MAX,
            MAX_DENSE,
            MAX_DENSE - 1, // dense side of the boundary
            MAX_DENSE + 3,
            1 << 40,
            MAX_DENSE + 1,
        ];
        for &k in &keys {
            assert_eq!(
                *m.get_or_insert_with(k, || k.wrapping_mul(2)),
                k.wrapping_mul(2),
                "key {k:#x}"
            );
        }
        for &k in &keys {
            assert_eq!(m.get(k), Some(&k.wrapping_mul(2)), "key {k:#x}");
        }
        assert_eq!(m.len(), keys.len());
        // Spill-side misses between present keys resolve to None.
        assert_eq!(m.get(MAX_DENSE + 2), None);
        assert_eq!(m.get(u64::MAX - 1), None);
        // Re-inserting an existing spill key neither duplicates nor reorders.
        assert_eq!(
            *m.get_or_insert_with(MAX_DENSE + 3, || 999),
            (MAX_DENSE + 3) * 2
        );
        assert_eq!(m.len(), keys.len());
    }

    #[test]
    fn overwriting_an_existing_key_does_not_grow_len() {
        let mut m: DenseMap<u32> = DenseMap::default();
        m.get_or_insert_with(2, || 1);
        *m.get_or_insert_with(2, || 9) = 2;
        m.get_or_insert_with(1 << 30, || 3);
        *m.get_or_insert_with(1 << 30, || 9) = 4;
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(2), Some(&2));
        assert_eq!(m.get(1 << 30), Some(&4));
    }
}

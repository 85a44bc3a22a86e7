//! The packed metadata plane's slab directory, keyed by block index.
//!
//! This is the storage half of the unified address→slab translation the
//! shadow framework exposes (the pricing half is
//! [`crate::TranslationCache`]): application addresses divide into fixed
//! 8-byte blocks, blocks group into page-granular slabs of 512 packed
//! [`ShadowWord`]s, and a single open-addressed probe resolves a page's slab
//! — usually one tag compare, because the directory hashes a page's home
//! slot. A caller resolves the [`SlabHandle`] once per access and reads and
//! writes the word by slot, so the model cost (one inline-cache level) and
//! the real metadata access (one slab probe) are priced by one lookup each,
//! instead of a layered probe.
//!
//! The directory is deliberately the same structure for every page-indexed
//! table in the system: FastTrack's packed variable words key it by block
//! index, and the sharing detector's page states key it by page number, so
//! the sharing fast path and the analysis slow path agree on one
//! page-indexed layout.

use aikido_types::{Addr, ShadowWord, SlabDirectory, SlabHandle, SLAB_WORDS};

/// Block-keyed packed-word storage: a [`SlabDirectory`] plus the
/// granularity arithmetic that turns application addresses into
/// `(slab, slot)` coordinates.
#[derive(Debug, Clone, Default)]
pub struct ShadowSlabs {
    dir: SlabDirectory,
}

impl ShadowSlabs {
    /// Creates an empty slab plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks holding a non-empty word (spilled markers included).
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True if no block holds metadata.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Number of slabs allocated.
    pub fn slab_count(&self) -> usize {
        self.dir.slab_count()
    }

    /// Resolves (allocating if necessary) the slab containing `block` and
    /// returns `(handle, slot)`. The handle stays valid until the next
    /// `resolve` call.
    #[inline]
    pub fn resolve(&mut self, block: u64) -> (SlabHandle, usize) {
        let (chunk, slot) = SlabDirectory::split(block);
        (self.dir.resolve(chunk), slot)
    }

    /// The slot of `block` within its slab.
    #[inline]
    pub fn slot_of(block: u64) -> usize {
        SlabDirectory::split(block).1
    }

    /// The word at `slot` of a resolved slab: one load, no probing.
    #[inline]
    pub fn word_at(&self, handle: SlabHandle, slot: usize) -> ShadowWord {
        self.dir.word_at(handle, slot)
    }

    /// Stores `word` at `slot` of a resolved slab.
    #[inline]
    pub fn set_word_at(&mut self, handle: SlabHandle, slot: usize, word: ShadowWord) {
        self.dir.set_word_at(handle, slot, word);
    }

    /// The word of `block` ([`ShadowWord::EMPTY`] when untracked).
    #[inline]
    pub fn word(&self, block: u64) -> ShadowWord {
        self.dir.get(block)
    }

    /// Stores the word of `block`, allocating its slab if needed.
    #[inline]
    pub fn set(&mut self, block: u64, word: ShadowWord) {
        self.dir.set(block, word);
    }

    /// Every allocated slab as `(slab index, words)`, in ascending slab
    /// order; block `(index << SLAB_BITS) + slot` holds `words[slot]`.
    pub fn slabs(&self) -> Vec<(u64, &[u64; SLAB_WORDS])> {
        self.dir.slabs()
    }

    /// Iterates over `(block, word)` pairs with non-empty words in ascending
    /// block order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ShadowWord)> + '_ {
        self.dir.iter_nonempty()
    }

    /// The block index of `addr` at `granularity` bytes per block
    /// (`granularity` must be a power of two; pass its trailing-zero count).
    #[inline]
    pub const fn block_of(addr: Addr, shift: u32) -> u64 {
        addr.raw() >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_then_index_matches_keyed_access() {
        let mut s = ShadowSlabs::new();
        let block = ShadowSlabs::block_of(Addr::new(0x10_0008), 3);
        let (handle, slot) = s.resolve(block);
        assert_eq!(slot, ShadowSlabs::slot_of(block));
        s.set_word_at(handle, slot, ShadowWord::from_raw(9));
        assert_eq!(s.word(block).raw(), 9);
        assert_eq!(s.word_at(handle, slot).raw(), 9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.slab_count(), 1);
    }

    #[test]
    fn same_page_blocks_share_a_slab() {
        let mut s = ShadowSlabs::new();
        // At 8-byte granularity a 4 KiB page holds exactly one slab's worth
        // of blocks, so every block of the page resolves to the same handle.
        let base = Addr::new(0x40_0000);
        let (h0, _) = s.resolve(ShadowSlabs::block_of(base, 3));
        for off in (8..4096).step_by(8) {
            let (h, _) = s.resolve(ShadowSlabs::block_of(base.offset(off), 3));
            assert_eq!(h, h0);
        }
        let (h_next, _) = s.resolve(ShadowSlabs::block_of(base.offset(4096), 3));
        assert_ne!(h_next, h0);
    }

    #[test]
    fn iter_reports_blocks_in_order() {
        let mut s = ShadowSlabs::new();
        for &b in &[700u64, 2, 513] {
            s.set(b, ShadowWord::from_raw(b));
        }
        let got: Vec<u64> = s.iter().map(|(b, _)| b).collect();
        assert_eq!(got, vec![2, 513, 700]);
        assert!(!s.is_empty());
    }
}

//! The open-addressed, page-indexed directory behind [`crate::ChunkMap`] and
//! [`crate::SlabDirectory`].
//!
//! Both tables split a `u64` key into a *chunk* (the key's high bits) and a
//! slot within a lazily boxed 512-slot leaf; they differ only in the leaf.
//! [`Directory`] maps chunks to leaves once for both:
//!
//! * Chunk tags live in a power-of-two lane of `u64`s ([`EMPTY_TAG`] =
//!   vacant), kept apart from the leaves so probing touches a dense 8-byte
//!   lane.
//! * A chunk's home slot is [`home`]: the top bits of a Fibonacci
//!   (multiplicative) hash of the chunk index, so consecutive chunks spread
//!   over the whole directory. Collisions probe linearly.
//! * The directory doubles when it would fill past 70 %. Leaves are never
//!   freed (tombstone-free removal would break the probe sequence and churn
//!   is rare), so a removed entry leaves an allocated, possibly empty leaf.
//!
//! Identity homing (`chunk & mask`) looks free but fails on the simulated
//! layout. In a block-keyed map the chunk is the page number, and the region
//! bases (shared at page `0x10000`, private from page `0x200_0000`) are
//! multiples of every directory size. Every region's chunks then start at
//! slot 0, and all regions pile into one linear-probe cluster: about 20 tag
//! compares per lookup on fluidanimate's full-mode stream. With hashed
//! homes a lookup is one multiply, two array loads and (almost always) one
//! tag compare — no tree descent, no allocation.

/// Initial directory capacity (power of two).
const INITIAL_DIR: usize = 64;
/// Directory load factor (in percent) beyond which it doubles.
const MAX_LOAD_PCT: usize = 70;

/// Directory tag meaning "no chunk here". Chunk indices are a key shifted
/// right by 9 bits (< 2^55), so the sentinel can never collide.
const EMPTY_TAG: u64 = u64::MAX;

/// The Fibonacci hashing multiplier: 2^64 divided by the golden ratio.
const FIB_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The home slot of `chunk` in a power-of-two directory of `mask + 1` slots
/// (`mask` ≥ 1): the top `log2(mask + 1)` bits of `chunk` times the Fibonacci
/// multiplier.
#[inline]
fn home(chunk: u64, mask: u64) -> usize {
    (chunk.wrapping_mul(FIB_MULTIPLIER) >> mask.leading_zeros()) as usize
}

#[cfg(test)]
thread_local! {
    /// Directory tag compares made on this thread (unit tests only).
    static TAG_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one directory tag compare; compiles to nothing outside unit tests.
#[inline(always)]
fn count_tag_compare() {
    #[cfg(test)]
    TAG_COMPARES.with(|c| c.set(c.get() + 1));
}

/// A leaf the directory allocates for each new chunk.
pub(crate) trait Leaf {
    /// A freshly allocated leaf whose every slot is vacant.
    fn vacant() -> Box<Self>;
}

/// Chunk index → boxed leaf, open-addressed (see the module docs).
#[derive(Clone)]
pub(crate) struct Directory<L> {
    /// Chunk tags ([`EMPTY_TAG`] = vacant).
    tags: Vec<u64>,
    /// Leaves, parallel to `tags` (`Some` iff the tag is occupied).
    leaves: Vec<Option<Box<L>>>,
    /// `tags.len() - 1`; the directory length is always a power of two.
    mask: u64,
    chunks: usize,
}

impl<L: Leaf> Directory<L> {
    /// Creates an empty directory.
    pub(crate) fn new() -> Self {
        let mut leaves = Vec::with_capacity(INITIAL_DIR);
        leaves.resize_with(INITIAL_DIR, || None);
        Directory {
            tags: vec![EMPTY_TAG; INITIAL_DIR],
            leaves,
            mask: (INITIAL_DIR as u64) - 1,
            chunks: 0,
        }
    }

    /// Number of leaves allocated.
    pub(crate) fn chunks(&self) -> usize {
        self.chunks
    }

    /// Frees every leaf but keeps the directory allocation.
    pub(crate) fn clear(&mut self) {
        self.tags.fill(EMPTY_TAG);
        self.leaves.fill_with(|| None);
        self.chunks = 0;
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

    /// `chunk`'s leaf, if one has been allocated.
    #[inline]
    pub(crate) fn get(&self, chunk: u64) -> Option<&L> {
        self.leaves[self.probe(chunk)].as_deref()
    }

    /// Mutable access to `chunk`'s leaf, if one has been allocated.
    #[inline]
    pub(crate) fn get_mut(&mut self, chunk: u64) -> Option<&mut L> {
        let i = self.probe(chunk);
        self.leaves[i].as_deref_mut()
    }

    /// The leaf at directory index `i` (from [`Directory::resolve`]).
    #[inline]
    pub(crate) fn leaf(&self, i: usize) -> &L {
        self.leaves[i]
            .as_deref()
            .expect("indices only reference occupied directory slots")
    }

    /// Mutable access to the leaf at directory index `i`.
    #[inline]
    pub(crate) fn leaf_mut(&mut self, i: usize) -> &mut L {
        self.leaves[i]
            .as_deref_mut()
            .expect("indices only reference occupied directory slots")
    }

    /// The directory index of `chunk`'s leaf, allocating the leaf if needed.
    /// The probe hit is inline; inserting a leaf (and growing the directory)
    /// is out of line. An index is valid only until the next `resolve`,
    /// which may grow the directory and move leaves.
    #[inline]
    pub(crate) fn resolve(&mut self, chunk: u64) -> usize {
        let i = self.probe(chunk);
        if self.tags[i] == chunk {
            return i;
        }
        self.insert(chunk)
    }

    /// Allocates the leaf for `chunk`, absent from the directory, growing
    /// the directory first when it would pass the load factor.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, chunk: u64) -> usize {
        if (self.chunks + 1) * 100 > self.tags.len() * MAX_LOAD_PCT {
            self.grow();
        }
        let i = self.probe(chunk);
        self.tags[i] = chunk;
        self.leaves[i] = Some(L::vacant());
        self.chunks += 1;
        i
    }

    fn grow(&mut self) {
        let new_len = self.tags.len() * 2;
        let mut new_tags = vec![EMPTY_TAG; new_len];
        let mut new_leaves = Vec::with_capacity(new_len);
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

    /// Every allocated leaf as `(chunk, leaf)`, in ascending chunk order.
    pub(crate) fn sorted(&self) -> Vec<(u64, &L)> {
        let mut order: Vec<(u64, &L)> = self
            .tags
            .iter()
            .zip(&self.leaves)
            .filter_map(|(&tag, leaf)| leaf.as_deref().map(|l| (tag, l)))
            .collect();
        order.sort_unstable_by_key(|&(tag, _)| tag);
        order
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::TAG_COMPARES;

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
}

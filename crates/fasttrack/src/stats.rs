//! Detector statistics.

use serde::{Deserialize, Serialize};

/// Counters maintained by [`crate::FastTrack`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastTrackStats {
    /// Read checks performed.
    pub reads: u64,
    /// Write checks performed.
    pub writes: u64,
    /// Reads satisfied by the same-epoch fast path.
    pub read_same_epoch: u64,
    /// Writes satisfied by the same-epoch fast path.
    pub write_same_epoch: u64,
    /// Read histories promoted from an epoch to a vector clock.
    pub read_share_promotions: u64,
    /// Lock acquires processed.
    pub acquires: u64,
    /// Lock releases processed.
    pub releases: u64,
    /// Thread forks processed.
    pub forks: u64,
    /// Thread joins processed.
    pub joins: u64,
    /// Barrier episodes processed.
    pub barriers: u64,
    /// Races detected (including ones deduplicated out of the report list).
    pub races_detected: u64,
    /// Distinct variable blocks that ever received metadata.
    pub blocks_tracked: u64,
}

impl FastTrackStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of memory checks (reads + writes) that took a same-epoch fast
    /// path, in `[0, 1]`.
    pub fn fast_path_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            (self.read_same_epoch + self.write_same_epoch) as f64 / total as f64
        }
    }
}

/// Counters for the packed plane's spill-arena *representation*: how often
/// states escape their word, how read-shared histories are laid out (inline
/// epoch lanes vs the boxed overflow clock) and how ownership hints move
/// between threads.
///
/// Deliberately **not** part of [`FastTrackStats`]: that struct is compared
/// whole against the reference detector by the equivalence oracle and is
/// serialized into snapshots, while these counters describe the packed
/// storage representation only (the reference store has no arena — its
/// counters stay zero). Like the arena free list, they are invisible to the
/// equivalence surface: updated wherever the packed plane spills, un-spills
/// or moves a hint (the read front's in-slot shared reads included), never
/// serialized, never costed. `tests/packed_equivalence.rs` pins them for
/// one run instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// States moved from their word into the side arena.
    pub spills: u64,
    /// Spilled states that collapsed back into their word.
    pub unspills: u64,
    /// Read-shared promotions served entirely by the inline epoch lanes
    /// (no boxed clock was built).
    pub inline_promotions: u64,
    /// Read histories that overflowed the inline lanes into a boxed clock
    /// (a participating thread index past the lane budget).
    pub boxed_overflows: u64,
    /// Spilled reads that kept another thread's still-valid ownership hint
    /// on the word instead of claiming it (the hint stays sticky, so the
    /// owner's repeat accesses keep hitting the word).
    pub ownership_keeps: u64,
    /// Hints (re)claimed by the reading thread after a spilled read that
    /// left the block spilled.
    pub ownership_claims: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_rate_is_zero_without_accesses() {
        assert_eq!(FastTrackStats::new().fast_path_rate(), 0.0);
    }

    #[test]
    fn fast_path_rate_counts_reads_and_writes() {
        let s = FastTrackStats {
            reads: 6,
            writes: 4,
            read_same_epoch: 3,
            write_same_epoch: 2,
            ..FastTrackStats::new()
        };
        assert!((s.fast_path_rate() - 0.5).abs() < 1e-12);
    }
}

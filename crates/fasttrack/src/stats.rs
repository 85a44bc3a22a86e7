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

    /// Adds another set of statistics to this one componentwise. Dense
    /// clocks can be partitioned per epoch-engine worker and their counters
    /// handed off at epoch boundaries; the merged result is independent of
    /// merge order.
    pub fn merge(&mut self, other: &FastTrackStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_same_epoch += other.read_same_epoch;
        self.write_same_epoch += other.write_same_epoch;
        self.read_share_promotions += other.read_share_promotions;
        self.acquires += other.acquires;
        self.releases += other.releases;
        self.forks += other.forks;
        self.joins += other.joins;
        self.barriers += other.barriers;
        self.races_detected += other.races_detected;
        self.blocks_tracked += other.blocks_tracked;
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
/// equivalence surface: updated exclusively on slow paths, never serialized,
/// never costed.
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
    /// Slow reads that kept another thread's still-valid ownership hint on
    /// the word instead of claiming it (the hint stays sticky, so the
    /// owner's repeat accesses keep hitting the word).
    pub ownership_keeps: u64,
    /// Hints (re)claimed by the accessing thread after a slow access.
    pub ownership_claims: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise_and_is_order_independent() {
        let a = FastTrackStats {
            reads: 10,
            races_detected: 1,
            ..FastTrackStats::new()
        };
        let b = FastTrackStats {
            reads: 5,
            writes: 4,
            barriers: 2,
            ..FastTrackStats::new()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.reads, 15);
        assert_eq!(ab.writes, 4);
        assert_eq!(ab.races_detected, 1);
    }

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

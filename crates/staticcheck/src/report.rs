//! The static pre-analysis proper: footprints, escape classification, the
//! Eraser-style static lockset pass, and the derived may-share masks.

use serde::{Deserialize, Serialize};

use aikido_dbi::Program;
use aikido_types::{AddrMode, BlockId, ThreadId, PAGE_SIZE};
use aikido_workloads::{AddrWindow, HeldLocks, MemoryLayout, ScenarioModel, UsePhase, Workload};

/// Upper bound on the pages enumerated per block in
/// [`AccessSummary::direct_pages`]; blocks whose windows span more set
/// [`AccessSummary::direct_pages_truncated`] instead of allocating without
/// bound.
pub const MAX_DIRECT_PAGES: usize = 1024;

/// The sharing verdict the static pass reaches for one basic block.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockClass {
    /// The block has no memory-referencing instructions (sync wrappers,
    /// pure compute); there is nothing to instrument.
    SyncOnly,
    /// The scenario model declares no use of the block: it can never
    /// execute, so it can never touch shared memory.
    Unreachable,
    /// Every memory access of the block is proven to target memory private
    /// to the executing thread. These blocks never need instrumentation.
    ProvenPrivate,
    /// The block writes shared memory, but only from the main thread and
    /// strictly before the first `fork` — every access happens-before all
    /// worker activity.
    PreForkInit,
    /// Every shared access of the block is consistently protected by a lock
    /// whose slice the static lockset pass verified (Eraser's discipline,
    /// checked statically).
    LockProtected,
    /// The block's shared accesses only read data written before the fork
    /// (read-mostly sharing).
    ReadOnlyShared,
    /// The pass could not prove anything useful: the block may race, or it
    /// mixes windows the analysis cannot separate. The sharing detector must
    /// keep full authority over it.
    MayShare,
}

/// Which of the workload's memory areas a block's accesses can fall in.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FootprintSet {
    /// The executing thread's own private region.
    pub private_own: bool,
    /// The read-mostly shared area.
    pub read_mostly: bool,
    /// The lock-protected shared area.
    pub locked: bool,
    /// The deliberately racy shared area.
    pub racy: bool,
}

impl FootprintSet {
    /// True if any shared area is in the footprint.
    pub fn touches_shared(&self) -> bool {
        self.read_mostly || self.locked || self.racy
    }
}

/// The per-block access summary: instruction counts by addressing mode, the
/// read and write footprints, and the bounded page enumeration for blocks
/// with direct (immediate-address) instructions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessSummary {
    /// The block summarised.
    pub block: BlockId,
    /// Memory-referencing instructions in the block.
    pub mem_instrs: usize,
    /// Memory instructions with immediate (direct) addresses.
    pub direct_mem_instrs: usize,
    /// Memory instructions with register (indirect) addresses; bounded only
    /// by the reachable regions of the block's windows.
    pub indirect_mem_instrs: usize,
    /// Areas the block's reads can fall in.
    pub reads: FootprintSet,
    /// Areas the block's writes can fall in.
    pub writes: FootprintSet,
    /// Pages a direct instruction's immediate can resolve to, sorted and
    /// deduplicated; capped at [`MAX_DIRECT_PAGES`]. Empty when the block has
    /// no direct memory instructions.
    pub direct_pages: Vec<u64>,
    /// True if the window enumeration hit the cap and `direct_pages` is a
    /// prefix of the real set.
    pub direct_pages_truncated: bool,
}

/// Aggregate coverage of the static pass over one program, for the bench
/// output and the ROADMAP numbers.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Total basic blocks in the program.
    pub total_blocks: usize,
    /// Blocks with no memory instructions.
    pub sync_only: usize,
    /// Blocks without any declared use.
    pub unreachable: usize,
    /// Work blocks: blocks that execute and reference memory
    /// (`total_blocks - sync_only - unreachable`).
    pub work_blocks: usize,
    /// Work blocks proven thread-private.
    pub proven_private: usize,
    /// Work blocks proven pre-fork initialisation.
    pub pre_fork_init: usize,
    /// Work blocks proven consistently lock-protected.
    pub lock_protected: usize,
    /// Work blocks proven read-only sharing.
    pub read_only_shared: usize,
    /// Work blocks left to the dynamic sharing detector.
    pub may_share: usize,
    /// `proven_private / work_blocks` (0.0 for empty programs).
    pub proven_private_fraction: f64,
    /// Total memory instructions in the program.
    pub total_mem_instrs: usize,
    /// Memory instructions inside proven-private blocks — the instrumentation
    /// decisions the static pass rules out.
    pub proven_private_mem_instrs: usize,
}

/// The serialisable product of the static pre-analysis: one summary and one
/// class per block, the derived may-share masks, and aggregate coverage.
///
/// The report is a pure function of `(program, layout, model)`; two runs over
/// the same workload serialise to identical bytes (pinned by tests).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StaticReport {
    /// Threads in the analysed workload.
    pub threads: u32,
    /// Per-block access summaries, indexed by raw block id.
    pub summaries: Vec<AccessSummary>,
    /// Per-block verdicts, indexed by raw block id.
    pub classes: Vec<BlockClass>,
    /// Derived may-share instrumentation masks (bit *i* = instruction *i*
    /// may need instrumentation), indexed by raw block id. Zero for
    /// proven-private, sync-only and unreachable blocks.
    pub masks: Vec<u64>,
    /// Aggregate coverage of the pass.
    pub coverage: CoverageStats,
}

/// What one `(use, pattern)` contribution proves about a block.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Contribution {
    Private,
    Init,
    ReadOnly,
    Locked,
    Unprotected,
}

/// The memory geometry the proofs are checked against, resolved once per
/// analysis from the layout.
struct Geometry {
    read_mostly: (u64, u64),
    locked: (u64, u64),
    racy: (u64, u64),
    privates: Vec<(u64, u64)>,
    /// True if the shared region and every private region are pairwise
    /// disjoint — the precondition for "private window ⇒ never shared".
    privates_sound: bool,
    /// True if every lock's slice lies inside the locked area and the slices
    /// are pairwise disjoint — Eraser's consistent-lock discipline, checked
    /// statically over the layout.
    lock_discipline: bool,
}

fn interval(base: aikido_types::Addr, len: u64) -> (u64, u64) {
    (base.raw(), base.raw() + len)
}

fn within((start, end): (u64, u64), (ostart, oend): (u64, u64)) -> bool {
    start >= ostart && end <= oend && start < end
}

impl Geometry {
    fn resolve(layout: &MemoryLayout, model: &ScenarioModel) -> Self {
        let (rm_base, rm_len) = layout.read_mostly_area();
        let (lk_base, lk_len) = layout.locked_area();
        let (ry_base, ry_len) = layout.racy_area();
        let privates: Vec<(u64, u64)> = (0..layout.threads())
            .map(|t| {
                let base = layout.private_base(ThreadId::new(t));
                interval(base, layout.private_pages() * PAGE_SIZE)
            })
            .collect();

        // Escape precondition: no region overlaps another, so an address in
        // a private region provably is not shared (and not another thread's).
        let regions = layout.regions();
        let mut bounds: Vec<(u64, u64)> = regions
            .iter()
            .map(|&(base, pages)| interval(base, pages * PAGE_SIZE))
            .collect();
        bounds.sort_unstable();
        let privates_sound = bounds.windows(2).all(|w| w[0].1 <= w[1].0);

        // Static lockset discipline: every slice inside the locked area,
        // slices pairwise disjoint. Sorting by base reduces the pairwise
        // check to adjacent pairs.
        let locked_iv = interval(lk_base, lk_len);
        let mut slices: Vec<(u64, u64)> = (0..model.locks)
            .map(|l| {
                let (base, len) = layout.lock_slice(l);
                interval(base, len)
            })
            .collect();
        slices.sort_unstable();
        let lock_discipline = model.locks > 0
            && slices.iter().all(|&s| within(s, locked_iv))
            && slices.windows(2).all(|w| w[0].1 <= w[1].0);

        Geometry {
            read_mostly: interval(rm_base, rm_len),
            locked: locked_iv,
            racy: interval(ry_base, ry_len),
            privates,
            privates_sound,
            lock_discipline,
        }
    }

    /// What one pattern of one use proves, given the use's phase and lock
    /// regime. `writes` is the pattern's write capability.
    fn classify(
        &self,
        phase: UsePhase,
        held: HeldLocks,
        window: AddrWindow,
        writes: bool,
    ) -> Contribution {
        match window {
            AddrWindow::PrivateOfExecutingThread => {
                if self.privates_sound {
                    Contribution::Private
                } else {
                    Contribution::Unprotected
                }
            }
            AddrWindow::Area { base, len } => {
                let iv = interval(base, len);
                if within(iv, self.read_mostly) {
                    match phase {
                        // Main-thread-only, pre-fork: happens-before every
                        // worker access, writes included.
                        UsePhase::PreForkMainOnly => Contribution::Init,
                        UsePhase::Work if !writes => Contribution::ReadOnly,
                        UsePhase::Work => Contribution::Unprotected,
                    }
                } else {
                    // The racy area, a fixed window into the locked area
                    // (no held-lock proof), or a window the geometry cannot
                    // place: nothing provable.
                    Contribution::Unprotected
                }
            }
            AddrWindow::HeldLockSlice => {
                if held == HeldLocks::OneOfAll && self.lock_discipline {
                    Contribution::Locked
                } else {
                    Contribution::Unprotected
                }
            }
        }
    }

    /// Adds the areas `window` can reach to `set`.
    fn footprint(&self, window: AddrWindow, set: &mut FootprintSet) {
        match window {
            AddrWindow::PrivateOfExecutingThread => set.private_own = true,
            AddrWindow::Area { base, len } => {
                let iv = interval(base, len);
                if within(iv, self.read_mostly) {
                    set.read_mostly = true;
                } else if within(iv, self.racy) {
                    set.racy = true;
                } else if within(iv, self.locked) {
                    set.locked = true;
                } else {
                    // Not resolvable to a single area: assume every shared
                    // area is reachable.
                    set.read_mostly = true;
                    set.locked = true;
                    set.racy = true;
                }
            }
            AddrWindow::HeldLockSlice => set.locked = true,
        }
    }

    /// Appends the pages `window` spans to `pages`, up to the cap. Returns
    /// `false` once the cap is hit.
    fn window_pages(&self, window: AddrWindow, pages: &mut Vec<u64>) -> bool {
        let push_range = |(start, end): (u64, u64), pages: &mut Vec<u64>| -> bool {
            if start >= end {
                return true;
            }
            for page in (start / PAGE_SIZE)..=((end - 1) / PAGE_SIZE) {
                if pages.len() >= MAX_DIRECT_PAGES {
                    return false;
                }
                pages.push(page);
            }
            true
        };
        match window {
            AddrWindow::PrivateOfExecutingThread => {
                for &iv in &self.privates {
                    if !push_range(iv, pages) {
                        return false;
                    }
                }
                true
            }
            AddrWindow::Area { base, len } => push_range(interval(base, len), pages),
            AddrWindow::HeldLockSlice => push_range(self.locked, pages),
        }
    }
}

impl StaticReport {
    /// Runs the full static pass: access summaries, escape classification,
    /// static lockset verification and mask derivation. Pure function of its
    /// inputs; never consults generator labels.
    pub fn analyze(program: &Program, layout: &MemoryLayout, model: &ScenarioModel) -> Self {
        let geometry = Geometry::resolve(layout, model);
        let mut summaries = Vec::with_capacity(program.len());
        let mut classes = Vec::with_capacity(program.len());
        let mut masks = Vec::with_capacity(program.len());

        for block in program.iter() {
            let mem_instrs = block.mem_instr_count();
            let direct_mem_instrs = block
                .instrs()
                .iter()
                .filter(
                    |i| matches!(i, aikido_dbi::StaticInstr::Mem { mode, .. } if *mode == AddrMode::Direct),
                )
                .count();

            let uses: Vec<_> = model.uses_of(block.id()).collect();
            let mut reads = FootprintSet::default();
            let mut writes = FootprintSet::default();
            let mut direct_pages = Vec::new();
            let mut truncated = false;
            for u in &uses {
                for p in &u.patterns {
                    if p.reads {
                        geometry.footprint(p.window, &mut reads);
                    }
                    if p.writes {
                        geometry.footprint(p.window, &mut writes);
                    }
                    if direct_mem_instrs > 0 && !geometry.window_pages(p.window, &mut direct_pages)
                    {
                        truncated = true;
                    }
                }
            }
            direct_pages.sort_unstable();
            direct_pages.dedup();

            let class = if mem_instrs == 0 {
                BlockClass::SyncOnly
            } else if uses.is_empty() {
                BlockClass::Unreachable
            } else {
                let mut contributions = Vec::new();
                for u in &uses {
                    if u.patterns.is_empty() {
                        // A use that addresses memory in a way the model
                        // does not describe: assume the worst.
                        contributions.push(Contribution::Unprotected);
                    }
                    for p in &u.patterns {
                        contributions.push(geometry.classify(u.phase, u.held, p.window, p.writes));
                    }
                }
                // Weakest contribution wins: one unprotectable pattern makes
                // the whole block the dynamic detector's problem.
                if contributions.contains(&Contribution::Unprotected) {
                    BlockClass::MayShare
                } else if contributions.contains(&Contribution::ReadOnly) {
                    BlockClass::ReadOnlyShared
                } else if contributions.contains(&Contribution::Locked) {
                    BlockClass::LockProtected
                } else if contributions.contains(&Contribution::Init) {
                    BlockClass::PreForkInit
                } else {
                    BlockClass::ProvenPrivate
                }
            };

            let mask = match class {
                BlockClass::ProvenPrivate | BlockClass::SyncOnly | BlockClass::Unreachable => 0,
                _ => {
                    let mut m = 0u64;
                    for (pos, instr) in block.instrs().iter().enumerate().take(64) {
                        if instr.is_mem() {
                            m |= 1u64 << pos;
                        }
                    }
                    m
                }
            };

            summaries.push(AccessSummary {
                block: block.id(),
                mem_instrs,
                direct_mem_instrs,
                indirect_mem_instrs: mem_instrs - direct_mem_instrs,
                reads,
                writes,
                direct_pages,
                direct_pages_truncated: truncated,
            });
            classes.push(class);
            masks.push(mask);
        }

        let coverage = Self::coverage_of(program, &classes);
        StaticReport {
            threads: model.threads,
            summaries,
            classes,
            masks,
            coverage,
        }
    }

    /// Runs the pass over a generated workload.
    pub fn for_workload(workload: &Workload) -> Self {
        Self::analyze(
            workload.program(),
            workload.layout(),
            workload.scenario_model(),
        )
    }

    fn coverage_of(program: &Program, classes: &[BlockClass]) -> CoverageStats {
        let mut c = CoverageStats {
            total_blocks: classes.len(),
            total_mem_instrs: program.total_mem_instrs(),
            ..CoverageStats::default()
        };
        for (block, class) in program.iter().zip(classes) {
            match class {
                BlockClass::SyncOnly => c.sync_only += 1,
                BlockClass::Unreachable => c.unreachable += 1,
                BlockClass::ProvenPrivate => {
                    c.proven_private += 1;
                    c.proven_private_mem_instrs += block.mem_instr_count();
                }
                BlockClass::PreForkInit => c.pre_fork_init += 1,
                BlockClass::LockProtected => c.lock_protected += 1,
                BlockClass::ReadOnlyShared => c.read_only_shared += 1,
                BlockClass::MayShare => c.may_share += 1,
            }
        }
        c.work_blocks = c.total_blocks - c.sync_only - c.unreachable;
        c.proven_private_fraction = if c.work_blocks > 0 {
            c.proven_private as f64 / c.work_blocks as f64
        } else {
            0.0
        };
        c
    }

    /// The verdict for `block` (`None` if the block is outside the analysed
    /// program).
    pub fn class(&self, block: BlockId) -> Option<BlockClass> {
        self.classes.get(block.raw() as usize).copied()
    }

    /// True if `block` was proven thread-private.
    pub fn is_proven_private(&self, block: BlockId) -> bool {
        self.class(block) == Some(BlockClass::ProvenPrivate)
    }

    /// The pass's no-shared-access claims as a dense bit vector indexed by
    /// raw block id — the shape the runtime audit oracle consumes. A block is
    /// claimed when it was proven thread-private or declared unreachable:
    /// both verdicts say its accesses never target shared memory (and both
    /// get a zero may-share mask).
    pub fn no_shared_access_claims(&self) -> Vec<bool> {
        self.classes
            .iter()
            .map(|c| matches!(c, BlockClass::ProvenPrivate | BlockClass::Unreachable))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_workloads::{aliasing_stress_workload, producer_consumer_workload, WorkloadSpec};

    fn report_for(spec: &WorkloadSpec) -> (Workload, StaticReport) {
        let w = Workload::generate(spec);
        let r = StaticReport::for_workload(&w);
        (w, r)
    }

    #[test]
    fn parsec_private_blocks_are_proven_without_reading_labels() {
        for name in ["raytrace", "blackscholes", "vips", "fluidanimate"] {
            let spec = WorkloadSpec::parsec(name).unwrap().scaled(0.02);
            let (w, r) = report_for(&spec);
            for &b in w.private_block_ids() {
                assert!(
                    r.is_proven_private(b),
                    "{name}: labeled-private {b:?} not proven (class {:?})",
                    r.class(b)
                );
            }
            for &b in w.shared_block_ids() {
                assert!(
                    !r.is_proven_private(b),
                    "{name}: labeled-shared {b:?} claimed private"
                );
            }
        }
    }

    #[test]
    fn race_free_parsec_shared_blocks_are_read_only_shared() {
        let spec = WorkloadSpec::parsec("raytrace").unwrap().scaled(0.02);
        let (w, r) = report_for(&spec);
        for &b in w.shared_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::ReadOnlyShared));
        }
    }

    #[test]
    fn fully_locked_shared_blocks_are_lock_protected() {
        let (w, r) = report_for(&producer_consumer_workload(4));
        for &b in w.shared_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::LockProtected));
        }
        for &b in w.private_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::ProvenPrivate));
        }
    }

    #[test]
    fn racy_workloads_leave_shared_blocks_to_the_detector() {
        let (w, r) = report_for(&aliasing_stress_workload(4));
        for &b in w.shared_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::MayShare));
        }
        // Private blocks stay provable even under aliasing pressure.
        for &b in w.private_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::ProvenPrivate));
        }
    }

    #[test]
    fn overlapping_lock_slices_defeat_the_lockset_pass() {
        // 1024 locks over a one-page locked area: slices are 8 bytes each,
        // 1024 * 8 > 4096, so slices alias and Eraser's discipline cannot be
        // established. The blocks must not be certified lock-protected.
        let spec = WorkloadSpec {
            shared_pages: 2,
            locks: 1024,
            ..producer_consumer_workload(4)
        };
        let (w, r) = report_for(&spec);
        for &b in w.shared_block_ids() {
            assert_eq!(r.class(b), Some(BlockClass::MayShare));
        }
    }

    #[test]
    fn init_blocks_are_pre_fork_and_sync_blocks_are_sync_only() {
        let spec = WorkloadSpec::parsec("raytrace").unwrap().scaled(0.02);
        let (_w, r) = report_for(&spec);
        let first_sync =
            2 + spec.private_static_blocks as usize + spec.shared_static_blocks as usize;
        assert_eq!(r.class(BlockId::new(0)), Some(BlockClass::PreForkInit));
        assert_eq!(r.class(BlockId::new(1)), Some(BlockClass::PreForkInit));
        for i in 0..6 {
            assert_eq!(
                r.class(BlockId::new((first_sync + i) as u32)),
                Some(BlockClass::SyncOnly)
            );
        }
    }

    #[test]
    fn masks_cover_exactly_the_mem_instrs_of_unproven_blocks() {
        let spec = WorkloadSpec::parsec("vips").unwrap().scaled(0.02);
        let (w, r) = report_for(&spec);
        for block in w.program().iter() {
            let mask = r.masks[block.id().raw() as usize];
            match r.class(block.id()).unwrap() {
                BlockClass::ProvenPrivate | BlockClass::SyncOnly | BlockClass::Unreachable => {
                    assert_eq!(mask, 0)
                }
                _ => {
                    for (pos, instr) in block.instrs().iter().enumerate().take(64) {
                        assert_eq!(mask & (1 << pos) != 0, instr.is_mem());
                    }
                }
            }
        }
    }

    #[test]
    fn summaries_footprint_matches_block_roles() {
        let spec = WorkloadSpec::parsec("raytrace").unwrap().scaled(0.02);
        let (w, r) = report_for(&spec);
        for &b in w.private_block_ids() {
            let s = &r.summaries[b.raw() as usize];
            assert!(s.reads.private_own || s.writes.private_own);
            assert!(!s.reads.touches_shared() && !s.writes.touches_shared());
            assert_eq!(s.mem_instrs, s.direct_mem_instrs + s.indirect_mem_instrs);
        }
        for &b in w.shared_block_ids() {
            let s = &r.summaries[b.raw() as usize];
            assert!(s.reads.touches_shared());
            assert!(
                !s.writes.read_mostly,
                "work-phase writes into the read-mostly area would be races"
            );
        }
    }

    #[test]
    fn direct_pages_are_sorted_bounded_and_disjoint_from_shared_for_private_blocks() {
        let spec = WorkloadSpec::parsec("raytrace").unwrap().scaled(0.02);
        let (w, r) = report_for(&spec);
        let shared_start = w.layout().shared_base().raw() / PAGE_SIZE;
        let shared_end = shared_start + w.layout().shared_pages();
        for &b in w.private_block_ids() {
            let s = &r.summaries[b.raw() as usize];
            if s.direct_mem_instrs == 0 {
                assert!(s.direct_pages.is_empty());
                continue;
            }
            assert!(!s.direct_pages.is_empty());
            assert!(s.direct_pages.windows(2).all(|p| p[0] < p[1]));
            assert!(s.direct_pages.len() <= MAX_DIRECT_PAGES);
            assert!(s
                .direct_pages
                .iter()
                .all(|&p| p < shared_start || p >= shared_end));
        }
    }

    #[test]
    fn claims_mirror_classes_and_masks() {
        let spec = WorkloadSpec::parsec("fluidanimate").unwrap().scaled(0.02);
        let (w, r) = report_for(&spec);
        let claims = r.no_shared_access_claims();
        assert_eq!(claims.len(), w.program().len());
        for block in w.program().iter() {
            let b = block.id().raw() as usize;
            let class = r.classes[b];
            assert_eq!(
                claims[b],
                matches!(class, BlockClass::ProvenPrivate | BlockClass::Unreachable),
                "{class:?}"
            );
            if claims[b] {
                assert_eq!(r.masks[b], 0, "claimed blocks may share nothing");
            }
        }
    }

    #[test]
    fn analysis_is_deterministic_down_to_the_serialised_bytes() {
        let spec = WorkloadSpec::parsec("swaptions").unwrap().scaled(0.02);
        let a = StaticReport::for_workload(&Workload::generate(&spec));
        let b = StaticReport::for_workload(&Workload::generate(&spec));
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn coverage_counts_are_consistent() {
        let spec = WorkloadSpec::parsec("canneal").unwrap().scaled(0.02);
        let (_, r) = report_for(&spec);
        let c = &r.coverage;
        assert_eq!(c.total_blocks, r.classes.len());
        assert_eq!(
            c.work_blocks,
            c.proven_private
                + c.pre_fork_init
                + c.lock_protected
                + c.read_only_shared
                + c.may_share
        );
        assert!(c.proven_private_fraction > 0.0);
        assert!(c.proven_private_mem_instrs <= c.total_mem_instrs);
    }
}

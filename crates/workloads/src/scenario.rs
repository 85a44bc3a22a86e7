//! The declarative scenario model: the generator's episode structure exposed
//! as data.
//!
//! The trace generator ([`crate::trace`]) enforces a small set of addressing
//! disciplines — private episodes stay inside the executing thread's private
//! region, locked episodes stay inside the held lock's slice, unlocked shared
//! episodes read data written only before the fork. Those disciplines are the
//! ground truth a static analysis needs, but they were previously implicit in
//! generator code plus the trusted `private_block_ids` label list.
//!
//! [`ScenarioModel`] states them explicitly: for every static block, *under
//! which phase and lock regime it can execute* and *which address windows its
//! memory instructions can target*. It plays the role debug info and symbol
//! tables play for a real binary analyzer — a description of the program the
//! analysis may consume, as opposed to a verdict it must trust. The
//! `aikido-staticcheck` crate derives its sharing proofs purely from this
//! model plus the [`crate::MemoryLayout`] geometry, and the runtime audit
//! oracle checks the derived claims against every delivered access.

use serde::{Deserialize, Serialize};

use aikido_types::{Addr, BlockId};

use crate::layout::MemoryLayout;
use crate::spec::WorkloadSpec;
use crate::workload::BlockSets;

/// Where the addresses of one access pattern can fall.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddrWindow {
    /// Anywhere inside the private region of the thread executing the block.
    PrivateOfExecutingThread,
    /// A fixed address interval `[base, base + len)`.
    Area {
        /// First byte of the window.
        base: Addr,
        /// Window length in bytes.
        len: u64,
    },
    /// The slice of the lock-protected area owned by the lock the executing
    /// thread currently holds (see [`MemoryLayout::lock_slice`]).
    HeldLockSlice,
}

/// One way a block's memory instructions can address memory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessPattern {
    /// The address window the accesses fall in.
    pub window: AddrWindow,
    /// True if the pattern can issue reads.
    pub reads: bool,
    /// True if the pattern can issue writes.
    pub writes: bool,
}

/// Which locks the executing thread holds while the block runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeldLocks {
    /// No lock is held.
    NoneHeld,
    /// Exactly one lock is held, drawn from the workload's full lock set;
    /// [`AddrWindow::HeldLockSlice`] windows refer to that lock's slice.
    OneOfAll,
}

/// When in the workload's lifecycle a block use can execute.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UsePhase {
    /// Only by the main thread, strictly before any `fork` — every access
    /// happens-before everything the workers do.
    PreForkMainOnly,
    /// During the parallel work phase, by any thread.
    Work,
}

/// One context in which a static block executes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockUse {
    /// The block being described.
    pub block: BlockId,
    /// Lifecycle phase of the use.
    pub phase: UsePhase,
    /// Lock regime of the use.
    pub held: HeldLocks,
    /// Every address pattern the use's memory instructions can follow. A
    /// single execution draws each access independently from these patterns.
    pub patterns: Vec<AccessPattern>,
}

/// The complete declarative description of a workload's block usage: which
/// blocks run in which phases, under which locks, addressing which windows.
///
/// Blocks without any [`BlockUse`] are never executed by the generator
/// (statically unreachable); blocks without memory instructions need no uses.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioModel {
    /// Number of threads, including the main thread.
    pub threads: u32,
    /// Number of distinct locks (ids `0..locks` in layout terms).
    pub locks: u32,
    /// Every block use, in deterministic (block-role) order.
    pub uses: Vec<BlockUse>,
}

impl ScenarioModel {
    /// All uses of `block`, in declaration order.
    pub fn uses_of(&self, block: BlockId) -> impl Iterator<Item = &BlockUse> {
        self.uses.iter().filter(move |u| u.block == block)
    }
}

/// Builds the model implied by `spec`'s probabilities: a pattern or use is
/// included iff the generator can actually emit it (probability strictly
/// positive), so the model is tight — nothing a sound analysis would have to
/// assume is left out, and nothing impossible widens the derived footprints.
pub(crate) fn build_model(
    spec: &WorkloadSpec,
    layout: &MemoryLayout,
    blocks: &BlockSets,
) -> ScenarioModel {
    let mut uses = Vec::new();
    let (rm_base, rm_len) = layout.read_mostly_area();
    let (racy_base, racy_len) = layout.racy_area();
    let rf = spec.read_fraction;
    let f = spec.instrumented_exec_fraction;
    let private = AccessPattern {
        window: AddrWindow::PrivateOfExecutingThread,
        reads: rf > 0.0,
        writes: rf < 1.0,
    };

    // Initialisation: the main thread writes the read-mostly area before any
    // fork (`ThreadTrace::next_init`).
    for &block in &blocks.init_blocks {
        uses.push(BlockUse {
            block,
            phase: UsePhase::PreForkMainOnly,
            held: HeldLocks::NoneHeld,
            patterns: vec![AccessPattern {
                window: AddrWindow::Area {
                    base: rm_base,
                    len: rm_len,
                },
                reads: false,
                writes: true,
            }],
        });
    }

    // Private episodes (`next_private`): emitted whenever the work loop can
    // decline the shared-touching choice.
    if f < 1.0 {
        for &block in &blocks.private_blocks {
            uses.push(BlockUse {
                block,
                phase: UsePhase::Work,
                held: HeldLocks::NoneHeld,
                patterns: vec![private],
            });
        }
    }

    // Locked shared episodes (`next_locked_shared`): one lock held, bodies
    // address the held lock's slice or fall back to private data.
    if f > 0.0 && spec.locked_shared_fraction > 0.0 {
        let mut patterns = Vec::new();
        if spec.shared_within_instrumented > 0.0 {
            patterns.push(AccessPattern {
                window: AddrWindow::HeldLockSlice,
                reads: rf > 0.0,
                writes: rf < 1.0,
            });
        }
        if spec.shared_within_instrumented < 1.0 {
            patterns.push(private);
        }
        for &block in &blocks.shared_blocks {
            uses.push(BlockUse {
                block,
                phase: UsePhase::Work,
                held: HeldLocks::OneOfAll,
                patterns: patterns.clone(),
            });
        }
    }

    // Unlocked shared episodes (`next_unlocked_shared`): read-mostly reads,
    // the deliberately racy area for racy workloads, private fallback.
    if f > 0.0 && spec.locked_shared_fraction < 1.0 {
        let mut patterns = Vec::new();
        if spec.shared_within_instrumented > 0.0 {
            if spec.racy_pairs > 0 && racy_len > 0 {
                patterns.push(AccessPattern {
                    window: AddrWindow::Area {
                        base: racy_base,
                        len: racy_len,
                    },
                    reads: true,
                    writes: true,
                });
            }
            patterns.push(AccessPattern {
                window: AddrWindow::Area {
                    base: rm_base,
                    len: rm_len,
                },
                reads: true,
                writes: false,
            });
        }
        if spec.shared_within_instrumented < 1.0 {
            patterns.push(private);
        }
        for &block in &blocks.shared_blocks {
            uses.push(BlockUse {
                block,
                phase: UsePhase::Work,
                held: HeldLocks::NoneHeld,
                patterns: patterns.clone(),
            });
        }
    }

    ScenarioModel {
        threads: spec.threads,
        locks: spec.locks,
        uses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadSpec};
    use aikido_types::{Operation, SyncOp, ThreadId, PAGE_SIZE};

    fn window_contains(
        workload: &Workload,
        window: &AddrWindow,
        thread: ThreadId,
        held: Option<u32>,
        addr: u64,
    ) -> bool {
        let layout = workload.layout();
        match window {
            AddrWindow::PrivateOfExecutingThread => {
                let base = layout.private_base(thread).raw();
                let len = layout.private_pages() * PAGE_SIZE;
                addr >= base && addr < base + len
            }
            AddrWindow::Area { base, len } => addr >= base.raw() && addr < base.raw() + len,
            AddrWindow::HeldLockSlice => match held {
                None => false,
                Some(lock) => {
                    let (base, len) = layout.lock_slice(lock);
                    addr >= base.raw() && addr < base.raw() + len
                }
            },
        }
    }

    /// The model must be an over-approximation of the generated traces: every
    /// dynamic access of every thread falls inside a window of one of its
    /// block's uses, with a matching read/write capability.
    #[test]
    fn every_generated_access_is_covered_by_the_model() {
        for spec in [
            WorkloadSpec::parsec("raytrace").unwrap().scaled(0.02),
            WorkloadSpec::parsec("fluidanimate").unwrap().scaled(0.02),
            WorkloadSpec::parsec("canneal").unwrap().scaled(0.02),
            crate::scenarios::aliasing_stress_workload(4),
        ] {
            let w = Workload::generate(&spec);
            let model = w.scenario_model();
            for thread in w.threads() {
                let mut held: Option<u32> = None;
                let mut forked = thread != ThreadId::MAIN;
                for exec in w.thread_trace(thread) {
                    for op in exec.operations(&w) {
                        match op {
                            Operation::Sync(SyncOp::Acquire(l)) => {
                                held = Some((l.raw() - 1) as u32)
                            }
                            Operation::Sync(SyncOp::Release(_)) => held = None,
                            Operation::Sync(SyncOp::Fork(_)) => forked = true,
                            Operation::Mem(m) => {
                                let covered = model.uses_of(exec.block).any(|u| {
                                    let phase_ok = match u.phase {
                                        UsePhase::PreForkMainOnly => {
                                            thread == ThreadId::MAIN && !forked
                                        }
                                        UsePhase::Work => true,
                                    };
                                    phase_ok
                                        && u.patterns.iter().any(|p| {
                                            let kind_ok =
                                                if m.kind.is_write() { p.writes } else { p.reads };
                                            kind_ok
                                                && window_contains(
                                                    &w,
                                                    &p.window,
                                                    thread,
                                                    held,
                                                    m.addr.raw(),
                                                )
                                        })
                                });
                                assert!(
                                    covered,
                                    "{:?} access at {:#x} by {thread} (held {held:?}) not \
                                     covered by the model for block {:?}",
                                    m.kind,
                                    m.addr.raw(),
                                    exec.block
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn model_is_a_pure_function_of_the_spec() {
        let spec = WorkloadSpec::parsec("vips").unwrap().scaled(0.02);
        let a = Workload::generate(&spec);
        let b = Workload::generate(&spec);
        assert_eq!(a.scenario_model(), b.scenario_model());
    }

    #[test]
    fn fully_locked_workloads_have_no_unlocked_shared_uses() {
        let spec = crate::scenarios::producer_consumer_workload(4);
        assert_eq!(spec.locked_shared_fraction, 1.0);
        let w = Workload::generate(&spec);
        for &shared in w.shared_block_ids() {
            assert!(w
                .scenario_model()
                .uses_of(shared)
                .all(|u| u.held == HeldLocks::OneOfAll));
        }
    }

    #[test]
    fn race_free_workloads_declare_no_racy_windows() {
        // The racy area is the only fixed window used with both reads and
        // writes during the work phase; race-free specs must not declare one.
        let spec = WorkloadSpec::parsec("blackscholes").unwrap();
        let w = Workload::generate(&spec);
        assert_eq!(w.layout().racy_area().1, 0);
        for u in &w.scenario_model().uses {
            if u.phase != UsePhase::Work {
                continue;
            }
            for p in &u.patterns {
                if matches!(p.window, AddrWindow::Area { .. }) {
                    assert!(
                        !(p.reads && p.writes),
                        "read+write fixed window in a race-free model"
                    );
                }
            }
        }
    }
}

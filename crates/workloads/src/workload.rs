//! Workload construction: the static program plus per-thread traces.

use std::sync::Arc;

use aikido_dbi::{Program, StaticInstr};
use aikido_types::{AccessKind, AddrMode, BlockId, InstrId, SyncOp, ThreadId, PAGE_SIZE};

use crate::layout::MemoryLayout;
use crate::scenario::ScenarioModel;
use crate::spec::WorkloadSpec;
use crate::trace::{AccessWord, CursorError, ThreadTrace, TraceCursor};

/// One memory instruction of a [`BlockShape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemSlot {
    /// The static instruction (its index is its position in the block).
    pub instr: InstrId,
    /// Its addressing mode.
    pub mode: AddrMode,
}

/// The static skeleton of one block: everything about an execution that
/// does *not* depend on the random draws. A generated [`BlockExec`]
/// carries one access word per slot, in slot order; the simulator's block
/// kernels walk the slots and the words together.
///
/// [`BlockExec`]: crate::BlockExec
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockShape {
    slots: Vec<MemSlot>,
    instrs: u32,
}

impl BlockShape {
    /// The block's memory instructions, in program order.
    #[inline]
    pub fn slots(&self) -> &[MemSlot] {
        &self.slots
    }

    /// Number of instructions in the block.
    #[inline]
    pub fn instrs(&self) -> u32 {
        self.instrs
    }

    /// Number of non-memory instructions, each one dynamic instruction.
    #[inline]
    pub fn computes(&self) -> u32 {
        self.instrs - self.slots.len() as u32
    }
}

/// The static blocks a workload's threads execute, grouped by role.
#[derive(Clone, Debug)]
pub(crate) struct BlockSets {
    pub(crate) init_blocks: Vec<BlockId>,
    pub(crate) private_blocks: Vec<BlockId>,
    pub(crate) shared_blocks: Vec<BlockId>,
    pub(crate) acquire_block: BlockId,
    pub(crate) release_block: BlockId,
    pub(crate) fork_block: BlockId,
    pub(crate) join_block: BlockId,
    pub(crate) barrier_block: BlockId,
    pub(crate) exit_block: BlockId,
}

/// A fully generated workload: specification, memory layout, static program
/// and the ability to produce each thread's deterministic trace.
#[derive(Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    layout: MemoryLayout,
    /// Shared so DBI engines can reference the program without cloning it.
    program: Arc<Program>,
    blocks: BlockSets,
    /// One skeleton per static block, indexed by raw block id.
    shapes: Vec<BlockShape>,
    /// The declarative episode model implied by the spec (see
    /// [`crate::scenario`]); the input of the static pre-analysis.
    scenario: ScenarioModel,
}

impl Workload {
    /// Generates the workload described by `spec`. The result is a pure
    /// function of the spec (including its seed).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn generate(spec: &WorkloadSpec) -> Self {
        if let Err(problem) = spec.validate() {
            panic!("invalid workload spec: {problem}");
        }
        let layout = MemoryLayout::from_spec(spec);
        let mut program = Program::new();

        let compute_per_block =
            (spec.compute_per_mem * spec.block_mem_instrs as f64).round() as usize;

        // Work blocks interleave compute and memory instructions so that the
        // compute density of the original benchmark is preserved.
        let make_work_block =
            |program: &mut Program, mode: AddrMode, write_bias: bool| -> BlockId {
                let mut instrs = Vec::new();
                let mem = spec.block_mem_instrs as usize;
                for i in 0..mem {
                    // Spread the compute instructions between the memory ones.
                    let computes =
                        (compute_per_block * (i + 1) / mem) - (compute_per_block * i / mem);
                    for _ in 0..computes {
                        instrs.push(StaticInstr::Compute);
                    }
                    // Alternate reads and writes statically; the dynamic trace
                    // decides the actual kind per execution, but keeping both
                    // kinds in the static block mirrors real code.
                    let kind = if write_bias && i % 2 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    instrs.push(StaticInstr::Mem { kind, mode });
                }
                program.add_block(instrs)
            };

        let init_blocks: Vec<BlockId> = (0..2)
            .map(|_| make_work_block(&mut program, AddrMode::Indirect, true))
            .collect();
        let private_blocks: Vec<BlockId> = (0..spec.private_static_blocks)
            .map(|i| {
                let mode = if i % 2 == 0 {
                    AddrMode::Direct
                } else {
                    AddrMode::Indirect
                };
                make_work_block(&mut program, mode, i % 3 == 0)
            })
            .collect();
        let shared_blocks: Vec<BlockId> = (0..spec.shared_static_blocks)
            .map(|i| make_work_block(&mut program, AddrMode::Indirect, i % 2 == 0))
            .collect();

        let sync_block = |program: &mut Program| program.add_block(vec![StaticInstr::Sync]);
        let blocks = BlockSets {
            init_blocks,
            private_blocks,
            shared_blocks,
            acquire_block: sync_block(&mut program),
            release_block: sync_block(&mut program),
            fork_block: sync_block(&mut program),
            join_block: sync_block(&mut program),
            barrier_block: sync_block(&mut program),
            exit_block: sync_block(&mut program),
        };

        let shapes = program
            .iter()
            .map(|block| {
                let slots: Vec<MemSlot> = block
                    .iter_ids()
                    .filter_map(|(instr, static_instr)| match static_instr {
                        StaticInstr::Mem { mode, .. } => Some(MemSlot { instr, mode: *mode }),
                        StaticInstr::Compute | StaticInstr::Sync => None,
                    })
                    .collect();
                BlockShape {
                    slots,
                    instrs: block.len() as u32,
                }
            })
            .collect();
        // Every generated address lies inside a mapped region, and access
        // words keep the top bit for the access kind.
        assert!(
            layout.regions().iter().all(|&(base, pages)| pages
                .checked_mul(PAGE_SIZE)
                .and_then(|len| base.raw().checked_add(len))
                .is_some_and(|end| end <= AccessWord::ADDR_LIMIT)),
            "workload layout exceeds the access-word address range"
        );

        let scenario = crate::scenario::build_model(spec, &layout, &blocks);

        Workload {
            spec: spec.clone(),
            layout,
            program: Arc::new(program),
            blocks,
            shapes,
            scenario,
        }
    }

    /// The specification the workload was generated from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The memory layout (regions to map before running).
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The static program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A shared handle to the static program (free to clone; used to build
    /// DBI engines without copying the program).
    pub fn program_arc(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// Thread ids participating in the workload (`0..threads`).
    pub fn threads(&self) -> Vec<ThreadId> {
        (0..self.spec.threads).map(ThreadId::new).collect()
    }

    /// The deterministic trace of `thread`. Iterating it twice
    /// yields identical block executions.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is not one of [`Workload::threads`].
    pub fn thread_trace(&self, thread: ThreadId) -> ThreadTrace<'_> {
        assert!(
            thread.raw() < self.spec.threads,
            "{thread} is not part of this {}-thread workload",
            self.spec.threads
        );
        ThreadTrace::new(self, thread)
    }

    /// `thread`'s trace continued from `cursor` (taken with
    /// [`ThreadTrace::cursor`]): it yields exactly the executions the
    /// original trace yielded after that point.
    ///
    /// # Errors
    ///
    /// Returns a [`CursorError`] when `cursor` cannot be a state of
    /// `thread`'s trace: an unknown thread, counters outside the spec's
    /// bounds, or counters inconsistent with one another.
    pub fn thread_trace_at(
        &self,
        thread: ThreadId,
        cursor: &TraceCursor,
    ) -> Result<ThreadTrace<'_>, CursorError> {
        ThreadTrace::check(self, thread, cursor)?;
        Ok(ThreadTrace::at(self, thread, cursor))
    }

    /// The static block a generated trace executes `op` in.
    pub fn sync_block(&self, op: SyncOp) -> BlockId {
        match op {
            SyncOp::Acquire(_) => self.blocks.acquire_block,
            SyncOp::Release(_) => self.blocks.release_block,
            SyncOp::Fork(_) => self.blocks.fork_block,
            SyncOp::Join(_) => self.blocks.join_block,
            SyncOp::Barrier(_) => self.blocks.barrier_block,
        }
    }

    /// The declarative scenario model: which blocks execute in which phases,
    /// under which locks, addressing which windows. This — not the label
    /// lists below — is what the static pre-analysis consumes.
    pub fn scenario_model(&self) -> &ScenarioModel {
        &self.scenario
    }

    /// Static blocks the *generator* labels private (memory instructions only
    /// ever target private pages). Ground truth for tests and statistics
    /// only: the instrumentation pipeline never reads these labels — it uses
    /// the facts `aikido-staticcheck` derives from [`Workload::scenario_model`].
    pub fn private_block_ids(&self) -> &[BlockId] {
        &self.blocks.private_blocks
    }

    /// Static blocks the *generator* labels as possibly shared-touching.
    /// Like [`Workload::private_block_ids`], exposed for tests and
    /// statistics, never trusted by the pipeline.
    pub fn shared_block_ids(&self) -> &[BlockId] {
        &self.blocks.shared_blocks
    }

    pub(crate) fn block_sets(&self) -> &BlockSets {
        &self.blocks
    }

    /// The static skeleton of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not part of the program.
    #[inline]
    pub fn shape(&self, block: BlockId) -> &BlockShape {
        &self.shapes[block.raw() as usize]
    }
}

// Concurrent whole runs may share one workload across OS threads (trace
// generation is a pure function of the workload); keep the compiler honest
// that the sharing stays legal.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<Workload>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Step;

    #[test]
    fn generated_program_contains_all_block_groups() {
        let spec = WorkloadSpec::default();
        let w = Workload::generate(&spec);
        assert_eq!(
            w.program().len(),
            2 + spec.private_static_blocks as usize + spec.shared_static_blocks as usize + 6
        );
        assert_eq!(
            w.private_block_ids().len(),
            spec.private_static_blocks as usize
        );
        assert_eq!(
            w.shared_block_ids().len(),
            spec.shared_static_blocks as usize
        );
        assert_eq!(w.threads().len(), spec.threads as usize);
    }

    #[test]
    fn work_blocks_have_requested_memory_density() {
        let spec = WorkloadSpec {
            block_mem_instrs: 4,
            compute_per_mem: 1.5,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(&spec);
        let block = w.program().block(w.shared_block_ids()[0]).unwrap();
        assert_eq!(block.mem_instr_count(), 4);
        assert_eq!(block.len(), 4 + 6); // 4 mem + round(1.5*4) compute
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::parsec("swaptions").unwrap().scaled(0.02);
        let a = Workload::generate(&spec);
        let b = Workload::generate(&spec);
        assert_eq!(a.program().len(), b.program().len());
        let ta: Vec<_> = a.thread_trace(ThreadId::new(1)).collect();
        let tb: Vec<_> = b.thread_trace(ThreadId::new(1)).collect();
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta, tb);
    }

    #[test]
    fn traces_end_with_exit() {
        let spec = WorkloadSpec::default().scaled(0.05);
        let w = Workload::generate(&spec);
        for t in w.threads() {
            let trace: Vec<_> = w.thread_trace(t).collect();
            let last = trace.last().expect("trace is non-empty");
            assert_eq!(last.step, Step::Exit);
        }
    }

    #[test]
    #[should_panic(expected = "not part of this")]
    fn trace_of_unknown_thread_panics() {
        let w = Workload::generate(&WorkloadSpec::default());
        let _ = w.thread_trace(ThreadId::new(99));
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn invalid_spec_panics() {
        let spec = WorkloadSpec {
            shared_pages: 0,
            ..WorkloadSpec::default()
        };
        let _ = Workload::generate(&spec);
    }
}

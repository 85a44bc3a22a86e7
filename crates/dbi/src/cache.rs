//! The basic-block code cache, block linking and trace promotion.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{BlockId, InstrId};

use crate::isa::Program;

/// Statistics maintained by the code cache; the cost model converts these
/// into cycles (block build cost, dispatch cost, flush cost).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeCacheStats {
    /// Blocks copied into the cache (including rebuilds after a flush).
    pub blocks_built: u64,
    /// Instructions emitted while building blocks.
    pub instrs_emitted: u64,
    /// Dispatches, i.e. block executions entering through the cache.
    pub dispatches: u64,
    /// Dispatches that found the block already cached and linked.
    pub linked_dispatches: u64,
    /// Flush requests received.
    pub flush_requests: u64,
    /// Blocks actually removed by flushes.
    pub blocks_flushed: u64,
    /// Blocks promoted into traces.
    pub traces_built: u64,
}

/// A basic block resident in the code cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedBlock {
    /// The static block this cache entry was built from.
    pub block: BlockId,
    /// Per-instruction flag: `true` if instrumentation was emitted for the
    /// instruction when the block was built.
    pub instrumented: Vec<bool>,
    /// The same per-instruction flags packed into a bitmask (bit *i* =
    /// instruction *i*), precomputed at build time so per-access
    /// instrumentation checks on the executing copy are a shift and a test.
    /// Exact only while the block holds at most 64 instructions
    /// ([`CachedBlock::mask_is_exact`]); wider blocks keep the flag vector
    /// authoritative.
    pub instr_mask: u64,
    /// Number of memory instructions carrying instrumentation in this copy
    /// (precomputed at build time so dispatch stays allocation- and scan-free).
    pub instrumented_mem_instrs: usize,
    /// Number of times the cached copy has been executed.
    pub executions: u64,
    /// How many times the block has been (re)built; generation 1 is the first
    /// build.
    pub generation: u32,
    /// True once the block has been stitched into a trace.
    pub in_trace: bool,
}

impl CachedBlock {
    /// Number of instrumented instructions in this cached copy.
    pub fn instrumented_count(&self) -> usize {
        self.instrumented.iter().filter(|&&b| b).count()
    }

    /// True if [`CachedBlock::instr_mask`] covers every instruction of the
    /// block (i.e. the block fits in one 64-bit mask).
    pub fn mask_is_exact(&self) -> bool {
        self.instrumented.len() <= 64
    }

    /// Counts one execution of this copy and promotes it into a trace on
    /// its `hot_threshold`-th; returns true on promotion.
    #[inline]
    fn record_execution(&mut self, hot_threshold: u64) -> bool {
        self.executions += 1;
        let promote = !self.in_trace && self.executions >= hot_threshold;
        self.in_trace |= promote;
        promote
    }
}

/// The thread-shared basic-block code cache.
///
/// Blocks are stored in a vector indexed by the (dense) [`BlockId`], so the
/// per-block-execution dispatch is a bounds check and a load.
#[derive(Debug, Default)]
pub struct CodeCache {
    blocks: Vec<Option<CachedBlock>>,
    generations: Vec<u32>,
    hot_threshold: u64,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Default number of executions after which a block is promoted into a
    /// trace.
    pub const DEFAULT_HOT_THRESHOLD: u64 = 50;

    /// Creates an empty code cache with the default trace-promotion
    /// threshold.
    pub fn new() -> Self {
        Self::with_hot_threshold(Self::DEFAULT_HOT_THRESHOLD)
    }

    /// Creates an empty code cache promoting blocks to traces after
    /// `hot_threshold` executions.
    pub fn with_hot_threshold(hot_threshold: u64) -> Self {
        CodeCache {
            blocks: Vec::new(),
            generations: Vec::new(),
            hot_threshold: hot_threshold.max(1),
            stats: CodeCacheStats::default(),
        }
    }

    /// True if `block` is currently cached.
    pub fn contains(&self, block: BlockId) -> bool {
        self.get(block).is_some()
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CodeCacheStats {
        &self.stats
    }

    /// The cached copy of `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<&CachedBlock> {
        self.blocks.get(block.raw() as usize)?.as_ref()
    }

    /// Executes `block` through the cache, building it first if necessary.
    ///
    /// `should_instrument` is consulted for every instruction when the block
    /// is built (this is the tool callback DynamoRIO gives its clients).
    /// Returns `(was_built, &CachedBlock)`. The resident case — the dispatch
    /// counters, the copy's execution count and trace promotion — is inline;
    /// building a block is out of line.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist in `program`.
    #[inline]
    pub fn execute<F>(
        &mut self,
        program: &Program,
        block: BlockId,
        should_instrument: F,
    ) -> (bool, &CachedBlock)
    where
        F: FnMut(InstrId) -> bool,
    {
        self.stats.dispatches += 1;
        let idx = block.raw() as usize;
        if !matches!(self.blocks.get(idx), Some(Some(_))) {
            return (true, self.build(program, block, should_instrument));
        }
        self.stats.linked_dispatches += 1;
        let entry = self.blocks[idx].as_mut().expect("checked resident");
        self.stats.traces_built += u64::from(entry.record_execution(self.hot_threshold));
        (false, entry)
    }

    /// Builds (and instruments) `block` into its slot, a copy of the next
    /// generation, and records its first execution.
    #[cold]
    #[inline(never)]
    fn build<F>(
        &mut self,
        program: &Program,
        block: BlockId,
        mut should_instrument: F,
    ) -> &CachedBlock
    where
        F: FnMut(InstrId) -> bool,
    {
        let idx = block.raw() as usize;
        let static_block = program
            .block(block)
            .unwrap_or_else(|| panic!("{block:?} not present in program"));
        let mut instrumented_mem_instrs = 0;
        let mut instr_mask = 0u64;
        let instrumented: Vec<bool> = static_block
            .iter_ids()
            .enumerate()
            .map(|(pos, (id, instr))| {
                let inst = should_instrument(id);
                if inst && instr.is_mem() {
                    instrumented_mem_instrs += 1;
                }
                if inst && pos < 64 {
                    instr_mask |= 1u64 << pos;
                }
                inst
            })
            .collect();
        if idx >= self.generations.len() {
            self.generations.resize(idx + 1, 0);
        }
        self.generations[idx] += 1;
        self.stats.blocks_built += 1;
        self.stats.instrs_emitted += static_block.len() as u64;
        if idx >= self.blocks.len() {
            self.blocks.resize_with(idx + 1, || None);
        }
        let entry = self.blocks[idx].insert(CachedBlock {
            block,
            instrumented,
            instr_mask,
            instrumented_mem_instrs,
            executions: 0,
            generation: self.generations[idx],
            in_trace: false,
        });
        self.stats.traces_built += u64::from(entry.record_execution(self.hot_threshold));
        entry
    }

    /// Flushes every cached block containing `instr` (in this model, the one
    /// block the instruction belongs to). Returns the number of blocks
    /// removed.
    pub fn flush_instr(&mut self, instr: InstrId) -> usize {
        self.stats.flush_requests += 1;
        if self.evict(instr.block()) {
            self.stats.blocks_flushed += 1;
            1
        } else {
            0
        }
    }

    fn evict(&mut self, block: BlockId) -> bool {
        match self.blocks.get_mut(block.raw() as usize) {
            Some(slot) => slot.take().is_some(),
            None => false,
        }
    }

    /// Flushes a set of blocks (e.g. every block touching a page whose
    /// contents changed). Returns the number of blocks removed.
    pub fn flush_blocks(&mut self, blocks: &HashSet<BlockId>) -> usize {
        self.stats.flush_requests += 1;
        let mut removed = 0;
        for &b in blocks {
            if self.evict(b) {
                removed += 1;
            }
        }
        self.stats.blocks_flushed += removed as u64;
        removed
    }

    /// Serializes the cache — resident copies, per-slot generation counters,
    /// promotion threshold and statistics — into `out`.
    pub(crate) fn encode_snapshot(&self, out: &mut SectionWriter) {
        out.put_u64(self.hot_threshold);
        out.put_usize(self.generations.len());
        for &g in &self.generations {
            out.put_u32(g);
        }
        out.put_usize(self.blocks.len());
        out.put_usize(self.len());
        for (idx, slot) in self.blocks.iter().enumerate() {
            let Some(b) = slot else { continue };
            out.put_usize(idx);
            out.put_u32(b.block.raw());
            out.put_usize(b.instrumented.len());
            for &flag in &b.instrumented {
                out.put_bool(flag);
            }
            out.put_u64(b.instr_mask);
            out.put_usize(b.instrumented_mem_instrs);
            out.put_u64(b.executions);
            out.put_u32(b.generation);
            out.put_bool(b.in_trace);
        }
        out.put_u64(self.stats.blocks_built);
        out.put_u64(self.stats.instrs_emitted);
        out.put_u64(self.stats.dispatches);
        out.put_u64(self.stats.linked_dispatches);
        out.put_u64(self.stats.flush_requests);
        out.put_u64(self.stats.blocks_flushed);
        out.put_u64(self.stats.traces_built);
    }

    /// Rebuilds a cache from its serialized form. Slots are filled directly
    /// (never through [`CodeCache::execute`]) so statistics and generation
    /// counters come back exactly as recorded. A cache holds at most one
    /// slot per block of the program, so a slot count above
    /// `program_blocks` is refused before anything is allocated for it.
    pub(crate) fn decode_snapshot(
        r: &mut SectionReader,
        program_blocks: usize,
    ) -> Result<Self, SnapshotError> {
        let hot_threshold = r.get_u64()?;
        if hot_threshold == 0 {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                "code cache hot threshold must be non-zero",
            ));
        }
        let gens = r.get_usize()?;
        let mut generations = Vec::with_capacity(gens.min(1 << 20));
        for _ in 0..gens {
            generations.push(r.get_u32()?);
        }
        let slots = r.get_usize()?;
        if slots > program_blocks {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("{slots} code cache slots for a program of {program_blocks} blocks"),
            ));
        }
        let resident = r.get_usize()?;
        let mut blocks: Vec<Option<CachedBlock>> = Vec::new();
        blocks.resize_with(slots, || None);
        for _ in 0..resident {
            let idx = r.get_usize()?;
            let slot = blocks.get_mut(idx).ok_or_else(|| {
                SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("cached block index {idx} out of range (slots {slots})"),
                )
            })?;
            if slot.is_some() {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("duplicate cached block at slot {idx}"),
                ));
            }
            let block = BlockId::new(r.get_u32()?);
            let instr_count = r.get_usize()?;
            let mut instrumented = Vec::with_capacity(instr_count.min(1 << 16));
            for _ in 0..instr_count {
                instrumented.push(r.get_bool()?);
            }
            let instr_mask = r.get_u64()?;
            let instrumented_mem_instrs = r.get_usize()?;
            let executions = r.get_u64()?;
            let generation = r.get_u32()?;
            let in_trace = r.get_bool()?;
            *slot = Some(CachedBlock {
                block,
                instrumented,
                instr_mask,
                instrumented_mem_instrs,
                executions,
                generation,
                in_trace,
            });
        }
        let stats = CodeCacheStats {
            blocks_built: r.get_u64()?,
            instrs_emitted: r.get_u64()?,
            dispatches: r.get_u64()?,
            linked_dispatches: r.get_u64()?,
            flush_requests: r.get_u64()?,
            blocks_flushed: r.get_u64()?,
            traces_built: r.get_u64()?,
        };
        Ok(CodeCache {
            blocks,
            generations,
            hot_threshold,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::StaticInstr;
    use aikido_types::{AccessKind, AddrMode};

    fn program() -> (Program, BlockId) {
        let mut p = Program::new();
        let b = p.add_block(vec![
            StaticInstr::Mem {
                kind: AccessKind::Read,
                mode: AddrMode::Direct,
            },
            StaticInstr::Compute,
            StaticInstr::Mem {
                kind: AccessKind::Write,
                mode: AddrMode::Indirect,
            },
        ]);
        (p, b)
    }

    #[test]
    fn first_execution_builds_then_reuses() {
        let (p, b) = program();
        let mut c = CodeCache::new();
        let (built, _) = c.execute(&p, b, |_| false);
        assert!(built);
        let (built, cached) = c.execute(&p, b, |_| false);
        assert!(!built);
        assert_eq!(cached.executions, 2);
        assert_eq!(c.stats().blocks_built, 1);
        assert_eq!(c.stats().dispatches, 2);
        assert_eq!(c.stats().linked_dispatches, 1);
    }

    #[test]
    fn instrumentation_decisions_are_recorded_at_build_time() {
        let (p, b) = program();
        let mut c = CodeCache::new();
        let target = p.block(b).unwrap().instr_id(2);
        let (_, cached) = c.execute(&p, b, |id| id == target);
        assert_eq!(cached.instrumented, vec![false, false, true]);
        assert_eq!(cached.instrumented_count(), 1);
        assert_eq!(cached.instr_mask, 0b100);
        assert!(cached.mask_is_exact());
    }

    #[test]
    fn instr_mask_mirrors_the_flag_vector_after_rebuilds() {
        let (p, b) = program();
        let mut c = CodeCache::new();
        let (_, cached) = c.execute(&p, b, |_| false);
        assert_eq!(cached.instr_mask, 0);
        let target = p.block(b).unwrap().instr_id(0);
        c.flush_instr(target);
        let (_, cached) = c.execute(&p, b, |id| id == target);
        assert_eq!(cached.instr_mask, 0b001);
        for (i, &flag) in cached.instrumented.clone().iter().enumerate() {
            assert_eq!(cached.instr_mask & (1 << i) != 0, flag);
        }
    }

    #[test]
    fn flush_and_rebuild_bumps_generation() {
        let (p, b) = program();
        let mut c = CodeCache::new();
        c.execute(&p, b, |_| false);
        let target = p.block(b).unwrap().instr_id(0);
        assert_eq!(c.flush_instr(target), 1);
        assert!(!c.contains(b));
        let (built, cached) = c.execute(&p, b, |id| id == target);
        assert!(built);
        assert_eq!(cached.generation, 2);
        assert!(cached.instrumented[0]);
        assert_eq!(c.stats().blocks_flushed, 1);
    }

    #[test]
    fn flushing_uncached_block_is_a_noop() {
        let (_p, _b) = program();
        let mut c = CodeCache::new();
        assert_eq!(c.flush_instr(InstrId::new(BlockId::new(7), 0)), 0);
        assert_eq!(c.stats().blocks_flushed, 0);
        assert_eq!(c.stats().flush_requests, 1);
    }

    #[test]
    fn hot_blocks_are_promoted_to_traces_once() {
        let (p, b) = program();
        let mut c = CodeCache::with_hot_threshold(3);
        for _ in 0..5 {
            c.execute(&p, b, |_| false);
        }
        assert!(c.get(b).unwrap().in_trace);
        assert_eq!(c.stats().traces_built, 1);
    }

    #[test]
    fn flush_blocks_removes_listed_blocks_only() {
        let mut p = Program::new();
        let b0 = p.add_block(vec![StaticInstr::Compute]);
        let b1 = p.add_block(vec![StaticInstr::Compute]);
        let mut c = CodeCache::new();
        c.execute(&p, b0, |_| false);
        c.execute(&p, b1, |_| false);
        let mut set = HashSet::new();
        set.insert(b0);
        assert_eq!(c.flush_blocks(&set), 1);
        assert!(!c.contains(b0));
        assert!(c.contains(b1));
    }
}

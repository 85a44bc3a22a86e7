//! The instrumentation engine: program + code cache + instrumentation
//! decisions.

use std::collections::HashSet;
use std::sync::Arc;

use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{BlockId, InstrId};

use crate::cache::{CodeCache, CodeCacheStats};
use crate::isa::Program;

/// What happened when a block was executed through the engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockExecution {
    /// The block that was executed.
    pub block: BlockId,
    /// True if the block had to be (re)built on this execution.
    pub built: bool,
    /// Number of instructions in the block.
    pub instr_count: usize,
    /// Number of memory instructions carrying instrumentation in the cached
    /// copy that ran.
    pub instrumented_mem_instrs: usize,
    /// True if the cached copy belongs to a trace.
    pub in_trace: bool,
    /// Per-instruction instrumentation bitmask of the copy that ran (bit *i*
    /// = instruction *i* carries instrumentation). Because every new
    /// instrumentation decision flushes the block, the mask of the resident
    /// copy always reflects the engine's *current* decisions, so callers can
    /// answer [`DbiEngine::is_instrumented`] for the whole block with one
    /// shift-and-test per instruction — no per-access engine probe.
    pub instr_mask: u64,
    /// True if `instr_mask` covers every instruction (block length ≤ 64);
    /// when false, fall back to [`DbiEngine::is_instrumented`] per access.
    pub mask_exact: bool,
}

/// Blocks with a raw id below this bound get a dense bitmask slot; beyond it
/// (never in practice — ids are assigned sequentially by [`Program`]) the
/// `instrumented` set remains authoritative, bounding the masks allocation
/// against pathological ids.
const MAX_MASK_BLOCKS: usize = 1 << 20;

/// The per-access instrumentation check: a bitmask probe for in-range ids,
/// the `instrumented` set for everything else. A free function (rather than
/// a method) so `execute_block` can run it while the code cache holds the
/// mutable borrow of the engine — both call sites must stay in lockstep.
#[inline]
fn instr_is_instrumented(masks: &[u64], instrumented: &HashSet<InstrId>, id: InstrId) -> bool {
    let index = id.index();
    let block = id.block().raw() as usize;
    if index < 64 && block < MAX_MASK_BLOCKS {
        masks.get(block).is_some_and(|m| m & (1u64 << index) != 0)
    } else {
        instrumented.contains(&id)
    }
}

/// Mirrors the decision `id` into the per-block bitmasks, growing them as
/// needed; ids outside the mask range stay in the `instrumented` set only.
fn mark_in_masks(masks: &mut Vec<u64>, id: InstrId) {
    let index = id.index();
    let block = id.block().raw() as usize;
    if index < 64 && block < MAX_MASK_BLOCKS {
        if block >= masks.len() {
            masks.resize(block + 1, 0);
        }
        masks[block] |= 1u64 << index;
    }
}

/// The DynamoRIO-style engine driving a [`Program`] through a [`CodeCache`]
/// with a dynamic set of instrumentation decisions.
///
/// The program is held behind an [`Arc`], so constructing an engine from a
/// workload's already-shared program is free. Instrumentation decisions are
/// mirrored into per-block bitmasks so the per-access `is_instrumented` check
/// is two loads and a bit test.
#[derive(Debug)]
pub struct DbiEngine {
    program: Arc<Program>,
    cache: CodeCache,
    instrumented: HashSet<InstrId>,
    /// Per-block instrumentation bitmask (bit *i* = instruction *i*), indexed
    /// by raw block id. Instructions at index ≥ 64 (none in practice) fall
    /// back to the `instrumented` set.
    masks: Vec<u64>,
}

impl DbiEngine {
    /// Creates an engine for `program` (owned or shared) with an empty code
    /// cache and no instrumentation decisions.
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        DbiEngine {
            program: program.into(),
            cache: CodeCache::new(),
            instrumented: HashSet::new(),
            masks: Vec::new(),
        }
    }

    /// The static program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The code cache statistics.
    pub fn cache_stats(&self) -> &CodeCacheStats {
        self.cache.stats()
    }

    /// The set of instructions currently marked for instrumentation.
    pub fn instrumented_instrs(&self) -> &HashSet<InstrId> {
        &self.instrumented
    }

    /// True if `instr` is currently marked for instrumentation.
    #[inline]
    pub fn is_instrumented(&self, instr: InstrId) -> bool {
        instr_is_instrumented(&self.masks, &self.instrumented, instr)
    }

    /// Executes `block` through the code cache, building (and instrumenting
    /// according to current decisions) if needed. A resident block is
    /// answered inline, with no call; only a build leaves the caller.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not part of the program.
    #[inline]
    pub fn execute_block(&mut self, block: BlockId) -> BlockExecution {
        let instrumented = &self.instrumented;
        let masks = &self.masks;
        let (built, cached) = self.cache.execute(&self.program, block, |id| {
            instr_is_instrumented(masks, instrumented, id)
        });
        BlockExecution {
            block,
            built,
            instr_count: cached.instrumented.len(),
            instrumented_mem_instrs: cached.instrumented_mem_instrs,
            in_trace: cached.in_trace,
            instr_mask: cached.instr_mask,
            mask_exact: cached.mask_is_exact(),
        }
    }

    /// Marks `instr` for instrumentation and flushes its block so the next
    /// execution re-JITs it with the instrumentation included. Returns `true`
    /// if this was a new decision (the instruction was not already
    /// instrumented).
    pub fn request_instrumentation(&mut self, instr: InstrId) -> bool {
        let newly = self.instrumented.insert(instr);
        if newly {
            mark_in_masks(&mut self.masks, instr);
            self.cache.flush_instr(instr);
        }
        newly
    }

    /// True if the cached copy of `block` (if any) already carries the
    /// instrumentation for every currently instrumented instruction it
    /// contains — i.e. no rebuild is pending.
    pub fn block_up_to_date(&self, block: BlockId) -> bool {
        match self.cache.get(block) {
            None => false,
            Some(cached) => {
                let static_block = match self.program.block(block) {
                    Some(b) => b,
                    None => return false,
                };
                static_block.iter_ids().all(|(id, _)| {
                    let want = self.instrumented.contains(&id);
                    let have = cached.instrumented[id.index() as usize];
                    have == want
                })
            }
        }
    }

    /// Number of blocks resident in the code cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Serializes the engine's dynamic state — instrumentation decisions
    /// and the code cache — into `out`. The bitmask mirror is derived from
    /// the decisions and rebuilt on decode. The static [`Program`] is
    /// workload input, not state, and is *not* serialized;
    /// [`DbiEngine::decode_snapshot`] takes it back as an argument.
    pub fn encode_snapshot(&self, out: &mut SectionWriter) {
        let mut decisions: Vec<InstrId> = self.instrumented.iter().copied().collect();
        decisions.sort_unstable();
        out.put_usize(decisions.len());
        for id in decisions {
            out.put_u32(id.block().raw());
            out.put_u16(id.index());
        }
        self.cache.encode_snapshot(out);
    }

    /// Rebuilds an engine over `program` from its serialized form. State is
    /// reinstated directly — never through [`DbiEngine::request_instrumentation`]
    /// — so flush statistics and resident cache copies come back exactly as
    /// recorded.
    pub fn decode_snapshot(
        program: impl Into<Arc<Program>>,
        r: &mut SectionReader,
    ) -> Result<Self, SnapshotError> {
        let decisions = r.get_usize()?;
        let mut instrumented = HashSet::with_capacity(decisions.min(1 << 20));
        let mut masks = Vec::new();
        let mut prev: Option<InstrId> = None;
        for _ in 0..decisions {
            let block = BlockId::new(r.get_u32()?);
            let id = InstrId::new(block, r.get_u16()?);
            if prev.is_some_and(|p| p >= id) {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("instrumentation decisions out of order at {id:?}"),
                ));
            }
            prev = Some(id);
            instrumented.insert(id);
            mark_in_masks(&mut masks, id);
        }
        let program: Arc<Program> = program.into();
        let cache = CodeCache::decode_snapshot(r, program.len())?;
        Ok(DbiEngine {
            program,
            cache,
            instrumented,
            masks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::StaticInstr;
    use aikido_types::{AccessKind, AddrMode};

    fn engine() -> (DbiEngine, BlockId) {
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
        (DbiEngine::new(p), b)
    }

    #[test]
    fn execution_before_any_decision_has_no_instrumentation() {
        let (mut e, b) = engine();
        let exec = e.execute_block(b);
        assert!(exec.built);
        assert_eq!(exec.instr_count, 3);
        assert_eq!(exec.instrumented_mem_instrs, 0);
        assert!(e.block_up_to_date(b));
    }

    #[test]
    fn requesting_instrumentation_flushes_and_rebuilds() {
        let (mut e, b) = engine();
        e.execute_block(b);
        let instr = e.program().block(b).unwrap().instr_id(2);
        assert!(e.request_instrumentation(instr));
        assert!(!e.block_up_to_date(b), "flush leaves the block uncached");
        let exec = e.execute_block(b);
        assert!(exec.built);
        assert_eq!(exec.instrumented_mem_instrs, 1);
        assert!(e.is_instrumented(instr));
        assert!(e.block_up_to_date(b));
    }

    #[test]
    fn block_execution_mask_tracks_current_decisions() {
        let (mut e, b) = engine();
        let exec = e.execute_block(b);
        assert_eq!(exec.instr_mask, 0);
        assert!(exec.mask_exact);
        let instr = e.program().block(b).unwrap().instr_id(2);
        e.request_instrumentation(instr);
        let exec = e.execute_block(b);
        assert!(exec.built, "new decision flushes, so the copy is rebuilt");
        assert_eq!(exec.instr_mask, 0b100);
        for (i, _) in e.program().block(b).unwrap().iter_ids().enumerate() {
            let id = e.program().block(b).unwrap().instr_id(i);
            assert_eq!(exec.instr_mask & (1 << i) != 0, e.is_instrumented(id));
        }
    }

    #[test]
    fn dispatch_bookkeeping_counts_hits_builds_and_promotion() {
        let (mut e, b) = engine();
        let hot = CodeCache::DEFAULT_HOT_THRESHOLD;
        for k in 1..=hot + 2 {
            let exec = e.execute_block(b);
            assert_eq!(exec.built, k == 1);
            assert_eq!(exec.in_trace, k >= hot, "promoted on execution {hot}");
            let copy = e.cache.get(b).unwrap();
            assert_eq!(copy.executions, k);
            assert_eq!(copy.in_trace, k >= hot);
            assert_eq!(e.cache_stats().traces_built, u64::from(k >= hot));
        }
        let stats = e.cache_stats();
        assert_eq!(stats.dispatches, hot + 2);
        assert_eq!(stats.linked_dispatches, hot + 1);
        assert_eq!(stats.blocks_built, 1);
        assert_eq!(stats.traces_built, 1);
        assert_eq!(e.cache.get(b).unwrap().generation, 1);

        let instr = e.program().block(b).unwrap().instr_id(0);
        assert!(e.request_instrumentation(instr));
        let exec = e.execute_block(b);
        assert!(exec.built);
        assert!(!exec.in_trace);
        assert_eq!(exec.instrumented_mem_instrs, 1);
        let stats = e.cache_stats();
        assert_eq!(stats.dispatches, hot + 3);
        assert_eq!(stats.linked_dispatches, hot + 1);
        assert_eq!(stats.blocks_built, 2);
        assert_eq!(stats.traces_built, 1);
        let copy = e.cache.get(b).unwrap();
        assert_eq!(copy.executions, 1);
        assert!(!copy.in_trace);
        assert_eq!(copy.generation, 2);
    }

    #[test]
    fn duplicate_instrumentation_requests_do_not_flush_again() {
        let (mut e, b) = engine();
        let instr = e.program().block(b).unwrap().instr_id(0);
        assert!(e.request_instrumentation(instr));
        e.execute_block(b);
        let flushes_before = e.cache_stats().flush_requests;
        assert!(!e.request_instrumentation(instr));
        assert_eq!(e.cache_stats().flush_requests, flushes_before);
        assert!(e.block_up_to_date(b));
    }

    #[test]
    fn instrumented_set_grows_monotonically() {
        let (mut e, b) = engine();
        let i0 = e.program().block(b).unwrap().instr_id(0);
        let i2 = e.program().block(b).unwrap().instr_id(2);
        e.request_instrumentation(i0);
        e.request_instrumentation(i2);
        assert_eq!(e.instrumented_instrs().len(), 2);
        let exec = e.execute_block(b);
        assert_eq!(exec.instrumented_mem_instrs, 2);
    }

    #[test]
    fn up_to_date_is_false_for_never_executed_blocks() {
        let (e, b) = engine();
        assert!(!e.block_up_to_date(b));
        assert_eq!(e.cached_blocks(), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_engine_state() {
        let (mut e, b) = engine();
        // Build up non-trivial state: decisions, several executions (so the
        // copy is hot), and a pending flush.
        for _ in 0..CodeCache::DEFAULT_HOT_THRESHOLD + 2 {
            e.execute_block(b);
        }
        let i0 = e.program().block(b).unwrap().instr_id(0);
        let i1 = e.program().block(b).unwrap().instr_id(1);
        e.request_instrumentation(i0);
        e.execute_block(b);
        e.request_instrumentation(i1); // leaves the block flushed

        let mut w = aikido_snapshot::SectionWriter::new(*b"DBIE", 2);
        e.encode_snapshot(&mut w);
        let mut builder = aikido_snapshot::SnapshotBuilder::new();
        builder.push(w);
        let snap = builder.finish();
        let mut reader = snap.reader().unwrap();
        let mut section = reader.section(*b"DBIE", 2).unwrap();
        let mut restored =
            DbiEngine::decode_snapshot(Arc::clone(&e.program), &mut section).unwrap();
        section.finish().unwrap();
        reader.finish().unwrap();

        assert_eq!(restored.instrumented_instrs(), e.instrumented_instrs());
        assert_eq!(
            restored.masks, e.masks,
            "masks are rebuilt from the decisions"
        );
        assert_eq!(restored.cache_stats(), e.cache_stats());
        assert_eq!(restored.cached_blocks(), e.cached_blocks());
        assert_eq!(restored.block_up_to_date(b), e.block_up_to_date(b));
        // The two engines evolve identically from here.
        assert_eq!(restored.execute_block(b), e.execute_block(b));
        assert_eq!(restored.cache_stats(), e.cache_stats());
        // And re-encoding is byte-stable.
        let mut w1 = aikido_snapshot::SectionWriter::new(*b"DBIE", 2);
        e.encode_snapshot(&mut w1);
        let mut w2 = aikido_snapshot::SectionWriter::new(*b"DBIE", 2);
        restored.encode_snapshot(&mut w2);
        let (mut b1, mut b2) = (
            aikido_snapshot::SnapshotBuilder::new(),
            aikido_snapshot::SnapshotBuilder::new(),
        );
        b1.push(w1);
        b2.push(w2);
        assert_eq!(b1.finish().into_bytes(), b2.finish().into_bytes());
    }
}

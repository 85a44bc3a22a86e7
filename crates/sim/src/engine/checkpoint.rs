//! Checkpoint/restore plumbing: the section versions, the run identity
//! (META), the scheduler section (SCHD) with its trace-cursor and stash
//! codecs, and the encoder that assembles a paused run into an image. The
//! decoder side lives in [`Simulator::resume`](crate::Simulator::resume),
//! which walks the same sections in the same order.

use aikido_fasttrack::FastTrack;
use aikido_snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotBuilder, SnapshotError};
use aikido_types::{LockId, SyncOp, ThreadId};
use aikido_workloads::{
    BlockExec, CriticalSection, Step, TraceCounters, TraceCursor, TracePhase, Workload,
    WorkloadSpec,
};

use super::{ArrivalSet, Mode, Run, Simulator, ThreadState, DENSE_LOCKS};
use crate::cost::CostModel;
use crate::report::RunCounts;

/// Section format versions. Bumped whenever a section's wire layout changes;
/// restore rejects any mismatch with a structured error.
pub(super) const META_VERSION: u16 = 1;
/// v2: each slot records its stream position (a `TraceCursor`, then a
/// reserved `u32` that is always zero) and its stashed blocked sync op
/// instead of a pull count to replay.
pub(super) const SCHD_VERSION: u16 = 2;
/// v3: tracked states are written one record per shadow slab, each block
/// as its slot and canonical packed word (spilled states as a sentinel plus
/// the explicit record), instead of one `(block, epochs)` record per block.
/// v2 images are refused.
pub(super) const FTRK_VERSION: u16 = 3;
pub(super) const TCCH_VERSION: u16 = 1;
/// v2: the instrumentation decisions alone (the per-block masks are rebuilt
/// from them) and no static-plan or private-block stamps. v1 images are
/// refused.
pub(super) const DBIE_VERSION: u16 = 2;
pub(super) const AKVM_VERSION: u16 = 1;
pub(super) const AKSD_VERSION: u16 = 1;

/// The identity a snapshot was taken under, serialized as canonical JSON.
/// Everything that must match for a resumed run to be byte-identical is in
/// here: the full workload spec, the mode, the scheduling quantum and the
/// cost model. Deliberately absent, because each is proven observably inert:
/// `checkpoint_every`, `scale` (the workload spec is
/// recorded already scaled) and whether the simulator is
/// [`Simulator::reference`]. A snapshot resumes cleanly across all of them;
/// the FTRK section's own storage byte keeps a reference image on the
/// reference store.
#[derive(serde::Serialize)]
struct SnapshotMeta {
    format: &'static str,
    workload: WorkloadSpec,
    mode: &'static str,
    quantum: u32,
    cost: CostModel,
}

/// Renders the META payload for `(simulator, workload, mode)`. Restore
/// validates by *string equality* against each candidate mode's rendering:
/// `serde_json` output is deterministic for a fixed struct, so a single
/// comparison covers every field at once.
pub(super) fn snapshot_meta_json(sim: &Simulator, workload: &Workload, mode: Mode) -> String {
    serde_json::to_string(&SnapshotMeta {
        format: "aikido-checkpoint",
        workload: workload.spec().clone(),
        mode: mode.label(),
        quantum: sim.config.quantum,
        cost: sim.cost.clone(),
    })
    .expect("snapshot metadata serializes")
}

/// One [`ThreadState`]'s serializable core: the stream cursor and the
/// stashed blocked sync op stand in for the `exec` shell.
pub(super) struct SlotState {
    pub(super) started: bool,
    pub(super) finished: bool,
    pub(super) at: TraceCursor,
    pub(super) stash: Option<SyncOp>,
}

/// The scheduler's serialized state: everything [`Run`] owns that is not a
/// component, a derived structure, or a droppable memo.
pub(super) struct SchedState {
    pub(super) cycles: u64,
    pub(super) counts: RunCounts,
    pub(super) fatal_accesses: u64,
    pub(super) last_scheduled: Option<ThreadId>,
    pub(super) barriers_done: Vec<bool>,
    pub(super) barrier_arrivals: Vec<ArrivalSet>,
    pub(super) lock_owners: Vec<Option<ThreadId>>,
    pub(super) lock_owner_spill: Vec<(LockId, ThreadId)>,
    pub(super) slots: Vec<SlotState>,
}

impl SchedState {
    /// The state a fresh run of `workload` starts from: nothing charged,
    /// only the main thread started, every stream at its opening cursor.
    pub(super) fn initial(workload: &Workload) -> Self {
        SchedState {
            cycles: 0,
            counts: RunCounts::default(),
            fatal_accesses: 0,
            last_scheduled: None,
            barriers_done: Vec::new(),
            barrier_arrivals: Vec::new(),
            lock_owners: Vec::new(),
            lock_owner_spill: Vec::new(),
            slots: workload
                .threads()
                .into_iter()
                .map(|id| SlotState {
                    started: id == ThreadId::MAIN,
                    finished: false,
                    at: workload.thread_trace(id).cursor(),
                    stash: None,
                })
                .collect(),
        }
    }

    pub(super) fn decode(
        r: &mut SectionReader,
        workload: &Workload,
    ) -> Result<Self, SnapshotError> {
        let cycles = r.get_u64()?;
        let counts = RunCounts {
            dynamic_instrs: r.get_u64()?,
            mem_accesses: r.get_u64()?,
            instrumented_accesses: r.get_u64()?,
            shared_accesses: r.get_u64()?,
            segfaults: r.get_u64()?,
            sync_ops: r.get_u64()?,
            block_execs: r.get_u64()?,
        };
        let fatal_accesses = r.get_u64()?;
        let last_scheduled = match r.get_u8()? {
            0 => None,
            1 => Some(ThreadId::new(r.get_u32()?)),
            tag => {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("unknown last-scheduled tag {tag}"),
                ));
            }
        };
        let done = r.get_usize()?;
        let mut barriers_done = Vec::with_capacity(done.min(1 << 16));
        for _ in 0..done {
            barriers_done.push(r.get_bool()?);
        }
        let arrivals = r.get_usize()?;
        let mut barrier_arrivals = Vec::with_capacity(arrivals.min(1 << 16));
        for _ in 0..arrivals {
            let len = r.get_usize()?;
            let mut arrived = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                arrived.push(r.get_bool()?);
            }
            let count = arrived.iter().filter(|&&a| a).count();
            barrier_arrivals.push(ArrivalSet { arrived, count });
        }
        let owners = r.get_usize()?;
        let mut lock_owners = Vec::with_capacity(owners.min(DENSE_LOCKS as usize));
        for _ in 0..owners {
            lock_owners.push(match r.get_u8()? {
                0 => None,
                1 => Some(ThreadId::new(r.get_u32()?)),
                tag => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("unknown lock-owner tag {tag}"),
                    ));
                }
            });
        }
        let spills = r.get_usize()?;
        let mut lock_owner_spill = Vec::with_capacity(spills.min(1 << 16));
        for _ in 0..spills {
            let lock = LockId::new(r.get_u64()?);
            lock_owner_spill.push((lock, ThreadId::new(r.get_u32()?)));
        }
        let slots = r.get_usize()?;
        let expected_slots = workload.threads().len();
        if slots != expected_slots {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("snapshot holds {slots} thread slots, workload has {expected_slots}"),
            ));
        }
        let mut slot_states = Vec::with_capacity(slots);
        for thread in workload.threads() {
            let started = r.get_bool()?;
            let finished = r.get_bool()?;
            let at_offset = r.offset();
            let at = get_cursor(r)?;
            let reserved = r.get_u32()?;
            let refuse = |reason: String| {
                SnapshotError::new("SCHD", at_offset, format!("{thread}: {reason}"))
            };
            workload
                .thread_trace_at(thread, &at)
                .map_err(|err| refuse(err.to_string()))?;
            if reserved != 0 {
                return Err(refuse(format!(
                    "reserved word after the cursor is {reserved}, not 0"
                )));
            }
            let stash = get_stash(r)?;
            if let Some(op) = stash {
                check_stash(op, &at.counters, workload).map_err(refuse)?;
            }
            slot_states.push(SlotState {
                started,
                finished,
                at,
                stash,
            });
        }
        Ok(SchedState {
            cycles,
            counts,
            fatal_accesses,
            last_scheduled,
            barriers_done,
            barrier_arrivals,
            lock_owners,
            lock_owner_spill,
            slots: slot_states,
        })
    }
}

// Slot wire layout (fixed size, so every field sits at a fixed offset):
// started u8, finished u8, cursor (`put_cursor`), a reserved u32 (always
// 0; it held a regenerate-forward count while a parallel feed could pause
// mid-batch), stash (`put_stash`).

/// Writes a [`TraceCursor`]: the four RNG words, the phase tag, the
/// counters, then the critical section as a presence byte plus lock index
/// and bodies left (zeros when none is open).
fn put_cursor(out: &mut SectionWriter, cursor: &TraceCursor) {
    for word in cursor.rng {
        out.put_u64(word);
    }
    let c = &cursor.counters;
    out.put_u8(c.phase.tag());
    out.put_u64(c.remaining_accesses);
    out.put_u64(c.init_remaining);
    out.put_u64(c.init_cursor);
    out.put_u32(c.fork_next);
    out.put_u32(c.join_next);
    out.put_u64(c.work_blocks_emitted);
    out.put_u32(c.barrier_counter);
    out.put_u32(c.barriers_due);
    out.put_bool(c.forced_racy_write_pending);
    let cs = c.critical_section;
    out.put_bool(cs.is_some());
    out.put_u32(cs.map_or(0, |cs| cs.lock));
    out.put_u32(cs.map_or(0, |cs| cs.bodies_left));
}

fn get_cursor(r: &mut SectionReader) -> Result<TraceCursor, SnapshotError> {
    let mut rng = [0; 4];
    for word in &mut rng {
        *word = r.get_u64()?;
    }
    let tag = r.get_u8()?;
    let phase = TracePhase::from_tag(tag).ok_or_else(|| {
        SnapshotError::new(
            r.section_name(),
            r.offset(),
            format!("unknown trace phase tag {tag}"),
        )
    })?;
    let mut counters = TraceCounters {
        phase,
        remaining_accesses: r.get_u64()?,
        init_remaining: r.get_u64()?,
        init_cursor: r.get_u64()?,
        fork_next: r.get_u32()?,
        join_next: r.get_u32()?,
        work_blocks_emitted: r.get_u64()?,
        barrier_counter: r.get_u32()?,
        barriers_due: r.get_u32()?,
        forced_racy_write_pending: r.get_bool()?,
        critical_section: None,
    };
    let open = r.get_bool()?;
    let (lock, bodies_left) = (r.get_u32()?, r.get_u32()?);
    if open {
        counters.critical_section = Some(CriticalSection { lock, bodies_left });
    } else if (lock, bodies_left) != (0, 0) {
        return Err(SnapshotError::new(
            r.section_name(),
            r.offset(),
            "a closed critical section carries a lock",
        ));
    }
    Ok(TraceCursor { rng, counters })
}

/// Writes a slot's stashed blocked sync op as an op code (0 = none) plus
/// one operand word.
fn put_stash(out: &mut SectionWriter, stash: Option<SyncOp>) {
    let (code, operand) = match stash {
        None => (0, 0),
        Some(SyncOp::Acquire(lock)) => (1, lock.raw()),
        Some(SyncOp::Release(lock)) => (2, lock.raw()),
        Some(SyncOp::Fork(thread)) => (3, u64::from(thread.raw())),
        Some(SyncOp::Join(thread)) => (4, u64::from(thread.raw())),
        Some(SyncOp::Barrier(id)) => (5, u64::from(id)),
    };
    out.put_u8(code);
    out.put_u64(operand);
}

fn get_stash(r: &mut SectionReader) -> Result<Option<SyncOp>, SnapshotError> {
    let code = r.get_u8()?;
    let operand = r.get_u64()?;
    let narrow = u32::try_from(operand);
    Ok(match (code, narrow) {
        (0, Ok(0)) => None,
        (1, _) => Some(SyncOp::Acquire(LockId::new(operand))),
        (2, _) => Some(SyncOp::Release(LockId::new(operand))),
        (3, Ok(thread)) => Some(SyncOp::Fork(ThreadId::new(thread))),
        (4, Ok(thread)) => Some(SyncOp::Join(ThreadId::new(thread))),
        (5, Ok(id)) => Some(SyncOp::Barrier(id)),
        _ => {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                format!("stashed operation (code {code}, operand {operand}) is not a sync op"),
            ))
        }
    })
}

/// The sync op of a stashed execution. Only a blocked sync op stays stashed
/// across a scheduling round (work blocks and exits always complete).
fn stashed_op(exec: &BlockExec) -> SyncOp {
    match exec.step {
        Step::Sync(op) => op,
        Step::Work | Step::Exit => {
            unreachable!("only a blocked sync op stays stashed across a round")
        }
    }
}

/// A stashed op is the execution the slot's stream yielded last, left
/// blocked: it must be an op that can block, and it must agree with the
/// stream position just past it (`c`).
fn check_stash(op: SyncOp, c: &TraceCounters, workload: &Workload) -> Result<(), String> {
    let full_section = workload.spec().critical_section_blocks.max(1);
    let consistent = match op {
        SyncOp::Acquire(lock) => c.critical_section.is_some_and(|cs| {
            u64::from(cs.lock) + 1 == lock.raw() && cs.bodies_left == full_section
        }),
        SyncOp::Join(child) => c.phase == TracePhase::Join && child.raw() + 1 == c.join_next,
        SyncOp::Barrier(id) => u64::from(id) + 1 == u64::from(c.barrier_counter),
        SyncOp::Release(_) | SyncOp::Fork(_) => false,
    };
    if consistent {
        Ok(())
    } else {
        Err(format!(
            "stashed `{op}` is not a blocked op its stream just yielded"
        ))
    }
}

impl<'w> Run<'_, 'w, FastTrack> {
    /// Serializes the paused run — scheduler plus every component — into a
    /// versioned, checksummed snapshot image. Section order is fixed:
    /// `META`, `SCHD`, `FTRK`, `TCCH`, then `DBIE`/`AKVM`/`AKSD` as the
    /// mode requires; restore walks the same order and rejects deviations.
    pub(super) fn encode_snapshot(&self, states: &[ThreadState]) -> Snapshot {
        let mut builder = SnapshotBuilder::new();

        let mut meta = SectionWriter::new(*b"META", META_VERSION);
        meta.put_str(&snapshot_meta_json(self.sim, self.workload, self.mode));
        builder.push(meta);

        let mut schd = SectionWriter::new(*b"SCHD", SCHD_VERSION);
        self.encode_sched(states, &mut schd);
        builder.push(schd);

        let mut ftrk = SectionWriter::new(*b"FTRK", FTRK_VERSION);
        self.analysis.encode_snapshot(&mut ftrk);
        builder.push(ftrk);

        let mut tcch = SectionWriter::new(*b"TCCH", TCCH_VERSION);
        self.cache.encode_snapshot(&mut tcch);
        builder.push(tcch);

        if let Some(engine) = &self.engine {
            let mut dbie = SectionWriter::new(*b"DBIE", DBIE_VERSION);
            engine.encode_snapshot(&mut dbie);
            builder.push(dbie);
        }
        if let Some(vm) = &self.vm {
            let mut akvm = SectionWriter::new(*b"AKVM", AKVM_VERSION);
            vm.encode_snapshot(&mut akvm);
            builder.push(akvm);
        }
        if let Some(sd) = &self.sd {
            let mut aksd = SectionWriter::new(*b"AKSD", AKSD_VERSION);
            sd.encode_snapshot(&mut aksd);
            builder.push(aksd);
        }
        builder.finish()
    }

    fn encode_sched(&self, states: &[ThreadState], out: &mut SectionWriter) {
        out.put_u64(self.cycles);
        out.put_u64(self.counts.dynamic_instrs);
        out.put_u64(self.counts.mem_accesses);
        out.put_u64(self.counts.instrumented_accesses);
        out.put_u64(self.counts.shared_accesses);
        out.put_u64(self.counts.segfaults);
        out.put_u64(self.counts.sync_ops);
        out.put_u64(self.counts.block_execs);
        out.put_u64(self.fatal_accesses);
        match self.last_scheduled {
            None => out.put_u8(0),
            Some(thread) => {
                out.put_u8(1);
                out.put_u32(thread.raw());
            }
        }
        out.put_usize(self.barriers_done.len());
        for &done in &self.barriers_done {
            out.put_bool(done);
        }
        out.put_usize(self.barrier_arrivals.len());
        for set in &self.barrier_arrivals {
            out.put_usize(set.arrived.len());
            for &arrived in &set.arrived {
                out.put_bool(arrived);
            }
        }
        out.put_usize(self.lock_owners.len());
        for owner in &self.lock_owners {
            match owner {
                None => out.put_u8(0),
                Some(thread) => {
                    out.put_u8(1);
                    out.put_u32(thread.raw());
                }
            }
        }
        out.put_usize(self.lock_owner_spill.len());
        for &(lock, owner) in &self.lock_owner_spill {
            out.put_u64(lock.raw());
            out.put_u32(owner.raw());
        }
        out.put_usize(states.len());
        for st in states {
            out.put_bool(st.started);
            out.put_bool(st.finished);
            put_cursor(out, &st.at);
            out.put_u32(0);
            put_stash(out, st.has_exec.then(|| stashed_op(&st.exec)));
        }
    }
}

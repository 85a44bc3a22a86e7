//! The sharing detector proper: glue between the hypervisor's per-thread
//! protection, the page state machine, the dual shadow mapping and the DBI
//! engine.

use aikido_dbi::DbiEngine;
use aikido_shadow::{DualShadow, RegionId, RegionKind};
use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{Addr, InstrId, Prot, Result, ThreadId, Vpn};
use aikido_vm::{AikidoFault, AikidoVm, Hypercall};

use crate::page_state::{PageState, PageStateTable, Transition};
use crate::stats::SharingStats;

/// What the sharing detector did with an Aikido fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultDisposition {
    /// The page was unused; it is now private to the faulting thread and
    /// unprotected for it. The access should simply be retried.
    MadePrivate,
    /// The page was private to another thread; it is now shared, globally
    /// protected, and the faulting instruction has been instrumented.
    MadeShared {
        /// True if this was the first time the instruction was instrumented
        /// (false if it had already been instrumented through another page).
        newly_instrumented: bool,
    },
    /// The page was already shared; the faulting instruction has been
    /// instrumented.
    SharedInstruction {
        /// True if this was the first time the instruction was instrumented.
        newly_instrumented: bool,
    },
    /// The page was already private to the faulting thread (e.g. protections
    /// had been restored after a guest-kernel emulation); it has been
    /// re-unprotected for the thread.
    Spurious,
}

impl FaultDisposition {
    /// True if the faulting instruction ends up instrumented after this
    /// fault.
    pub fn instruments_instruction(self) -> bool {
        matches!(
            self,
            FaultDisposition::MadeShared { .. } | FaultDisposition::SharedInstruction { .. }
        )
    }
}

/// AikidoSD, the Aikido sharing detector.
///
/// See the crate-level documentation for the protocol and an end-to-end
/// example.
#[derive(Debug, Default)]
pub struct AikidoSd {
    pages: PageStateTable,
    shadow: DualShadow,
    stats: SharingStats,
}

impl AikidoSd {
    /// Creates a detector with no attached regions.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dual shadow mapping (metadata + mirror) maintained by the
    /// detector.
    pub fn shadow(&self) -> &DualShadow {
        &self.shadow
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SharingStats {
        &self.stats
    }

    /// The sharing state of `page`.
    pub fn page_state(&self, page: Vpn) -> PageState {
        self.pages.get(page)
    }

    /// True if `page` has been found to be shared.
    ///
    /// This is the page-granular query the simulator's Aikido kernel issues
    /// when its shared-page memo misses. `Shared` is sticky — a page never
    /// leaves the shared state (see [`PageState`]) — so a `true` answer
    /// covers every later access to the page, which is what lets the
    /// simulator memoize it; transitions *into* `Shared` only happen inside
    /// [`AikidoSd::handle_fault`].
    #[inline]
    pub fn is_shared_page(&self, page: Vpn) -> bool {
        self.pages.is_shared(page)
    }

    /// True if the page containing `addr` has been found to be shared.
    #[inline]
    pub fn is_shared_addr(&self, addr: Addr) -> bool {
        self.pages.is_shared(addr.page())
    }

    /// Number of pages currently `(private, shared)`.
    pub fn page_counts(&self) -> (usize, usize) {
        self.pages.counts()
    }

    /// Translates an application address to its mirror address.
    ///
    /// # Errors
    ///
    /// Returns [`aikido_types::AikidoError::NoShadowRegion`] if the address is
    /// not inside any attached region.
    pub fn mirror_addr(&self, addr: Addr) -> Result<Addr> {
        self.shadow.mirror_addr(addr)
    }

    /// Translates an application address to its metadata address.
    ///
    /// # Errors
    ///
    /// Returns [`aikido_types::AikidoError::NoShadowRegion`] if the address is
    /// not inside any attached region.
    pub fn metadata_addr(&self, addr: Addr) -> Result<Addr> {
        self.shadow.metadata_addr(addr)
    }

    /// Attaches a mapped application region to the detector: registers it
    /// with the dual shadow mapping, creates the mirror mapping in the guest,
    /// and protects every page for every thread currently registered with the
    /// hypervisor. This is what AikidoSD does for all mapped modules at
    /// program start and for every intercepted `mmap`/`brk` afterwards
    /// (§3.3.2, §3.3.3).
    ///
    /// # Errors
    ///
    /// Propagates shadow-registration and hypervisor errors (overlapping
    /// regions, unmapped source, unknown threads).
    pub fn attach_region(&mut self, vm: &mut AikidoVm, base: Addr, pages: u64) -> Result<RegionId> {
        let region = self
            .shadow
            .register_region(base, pages, RegionKind::Other)?;
        let mirror_base = self.shadow.mirror_base(region)?;
        vm.mmap_mirror(base, mirror_base)?;
        self.stats.pages_registered += pages;
        for thread in vm.threads() {
            self.protect_range_for_thread(vm, thread, base, pages)?;
        }
        Ok(region)
    }

    /// Protects every attached region for a newly created thread, so that its
    /// first access to any page faults exactly like the initial threads'.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors (e.g. the thread is not registered with
    /// the VM).
    pub fn protect_thread(&mut self, vm: &mut AikidoVm, thread: ThreadId) -> Result<()> {
        let regions: Vec<(Addr, u64)> = self
            .shadow
            .regions()
            .iter()
            .map(|r| (r.base, r.pages))
            .collect();
        for (base, pages) in regions {
            self.protect_range_for_thread(vm, thread, base, pages)?;
        }
        Ok(())
    }

    fn protect_range_for_thread(
        &mut self,
        vm: &mut AikidoVm,
        thread: ThreadId,
        base: Addr,
        pages: u64,
    ) -> Result<()> {
        vm.hypercall(Hypercall::ProtectRange {
            thread,
            base,
            pages,
            prot: Prot::NONE,
        })?;
        self.stats.protection_hypercalls += 1;
        Ok(())
    }

    /// Handles an Aikido fault forwarded by the DynamoRIO master signal
    /// handler. `instr` identifies the faulting application instruction.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors when changing protections.
    pub fn handle_fault(
        &mut self,
        vm: &mut AikidoVm,
        engine: &mut DbiEngine,
        fault: &AikidoFault,
        instr: InstrId,
    ) -> Result<FaultDisposition> {
        self.stats.faults_handled += 1;
        let page = fault.page();
        let base = page.base();
        match self.pages.on_fault(page, fault.thread) {
            Transition::MadePrivate => {
                self.stats.private_transitions += 1;
                vm.hypercall(Hypercall::UnprotectRange {
                    thread: fault.thread,
                    base,
                    pages: 1,
                })?;
                self.stats.protection_hypercalls += 1;
                Ok(FaultDisposition::MadePrivate)
            }
            Transition::AlreadyPrivateToFaultingThread => {
                self.stats.spurious_faults += 1;
                vm.hypercall(Hypercall::UnprotectRange {
                    thread: fault.thread,
                    base,
                    pages: 1,
                })?;
                self.stats.protection_hypercalls += 1;
                Ok(FaultDisposition::Spurious)
            }
            Transition::MadeShared => {
                self.stats.shared_transitions += 1;
                // The page must become inaccessible to *every* thread so that
                // each new instruction touching it is observed exactly once.
                vm.hypercall(Hypercall::ProtectAllThreads {
                    base,
                    pages: 1,
                    prot: Prot::NONE,
                })?;
                self.stats.protection_hypercalls += 1;
                let newly = engine.request_instrumentation(instr);
                if newly {
                    self.stats.instructions_instrumented += 1;
                }
                Ok(FaultDisposition::MadeShared {
                    newly_instrumented: newly,
                })
            }
            Transition::AlreadyShared => {
                self.stats.shared_page_faults += 1;
                let newly = engine.request_instrumentation(instr);
                if newly {
                    self.stats.instructions_instrumented += 1;
                }
                Ok(FaultDisposition::SharedInstruction {
                    newly_instrumented: newly,
                })
            }
        }
    }

    /// Serializes the detector — attached regions, every non-`Unused` page
    /// state, and the statistics — into a snapshot section.
    ///
    /// The dual shadow mapping itself is not serialized byte-by-byte: shadow
    /// displacements are assigned deterministically at registration, so
    /// replaying the region registrations in order reproduces the exact
    /// mapping. Guest-side effects of attachment (mirror mappings, protection
    /// hypercalls) live in the hypervisor and are restored with it.
    pub fn encode_snapshot(&self, out: &mut SectionWriter) {
        let regions: Vec<_> = self.shadow.regions().iter().collect();
        out.put_usize(regions.len());
        for region in regions {
            out.put_u64(region.base.raw());
            out.put_u64(region.pages);
            out.put_u8(match region.kind {
                RegionKind::Stack => 0,
                RegionKind::Heap => 1,
                RegionKind::Data => 2,
                RegionKind::Code => 3,
                RegionKind::Other => 4,
            });
        }
        out.put_usize(self.pages.iter().count());
        for (page, state) in self.pages.iter() {
            out.put_u64(page.raw());
            match state {
                PageState::Unused => out.put_u8(0),
                PageState::Shared => out.put_u8(1),
                PageState::Private(owner) => {
                    out.put_u8(2);
                    out.put_u32(owner.raw());
                }
            }
        }
        for v in [
            self.stats.faults_handled,
            self.stats.private_transitions,
            self.stats.shared_transitions,
            self.stats.shared_page_faults,
            self.stats.spurious_faults,
            self.stats.instructions_instrumented,
            self.stats.pages_registered,
            self.stats.protection_hypercalls,
        ] {
            out.put_u64(v);
        }
    }

    /// Rebuilds a detector from a section written by
    /// [`AikidoSd::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any malformed payload, including region
    /// registrations that fail to replay (overlaps, shadow-area collisions).
    pub fn decode_snapshot(
        r: &mut SectionReader<'_>,
    ) -> std::result::Result<AikidoSd, SnapshotError> {
        let mut sd = AikidoSd::new();
        let region_count = r.get_usize()?;
        for _ in 0..region_count {
            let base = Addr::new(r.get_u64()?);
            let pages = r.get_u64()?;
            let kind = match r.get_u8()? {
                0 => RegionKind::Stack,
                1 => RegionKind::Heap,
                2 => RegionKind::Data,
                3 => RegionKind::Code,
                4 => RegionKind::Other,
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid region kind {other}"),
                    ))
                }
            };
            sd.shadow.register_region(base, pages, kind).map_err(|e| {
                SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("region replay failed: {e}"),
                )
            })?;
        }
        let page_count = r.get_usize()?;
        for _ in 0..page_count {
            let page = Vpn::new(r.get_u64()?);
            let state = match r.get_u8()? {
                0 => PageState::Unused,
                1 => PageState::Shared,
                2 => PageState::Private(ThreadId::new(r.get_u32()?)),
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid page state tag {other}"),
                    ))
                }
            };
            sd.pages.restore(page, state);
        }
        let stats = &mut sd.stats;
        for field in [
            &mut stats.faults_handled,
            &mut stats.private_transitions,
            &mut stats.shared_transitions,
            &mut stats.shared_page_faults,
            &mut stats.spurious_faults,
            &mut stats.instructions_instrumented,
            &mut stats.pages_registered,
            &mut stats.protection_hypercalls,
        ] {
            *field = r.get_u64()?;
        }
        Ok(sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_dbi::{Program, StaticInstr};
    use aikido_types::{AccessKind, AddrMode};
    use aikido_vm::{TouchOutcome, VmConfig};

    struct Rig {
        vm: AikidoVm,
        engine: DbiEngine,
        sd: AikidoSd,
        instrs: Vec<InstrId>,
    }

    fn rig(threads: u32, pages: u64) -> (Rig, Addr) {
        let mut vm = AikidoVm::new(VmConfig::default());
        for i in 0..threads {
            vm.register_thread(ThreadId::new(i)).unwrap();
        }
        let base = Addr::new(0x40_0000);
        vm.mmap(base, pages, Prot::RW_USER).unwrap();

        let mut program = Program::new();
        let block = program.add_block(vec![
            StaticInstr::Mem {
                kind: AccessKind::Write,
                mode: AddrMode::Indirect,
            },
            StaticInstr::Mem {
                kind: AccessKind::Read,
                mode: AddrMode::Indirect,
            },
        ]);
        let instrs = vec![InstrId::new(block, 0), InstrId::new(block, 1)];
        let engine = DbiEngine::new(program);

        let mut sd = AikidoSd::new();
        sd.attach_region(&mut vm, base, pages).unwrap();
        (
            Rig {
                vm,
                engine,
                sd,
                instrs,
            },
            base,
        )
    }

    /// Drives one access through the VM + sharing detector until it succeeds,
    /// returning the number of Aikido faults it took.
    fn access(
        rig: &mut Rig,
        thread: ThreadId,
        addr: Addr,
        kind: AccessKind,
        instr: InstrId,
    ) -> u32 {
        let mut faults = 0;
        for _ in 0..4 {
            let touch = rig.vm.touch(thread, addr, kind).unwrap();
            match touch.outcome {
                TouchOutcome::Ok => return faults,
                TouchOutcome::AikidoFault(fault) => {
                    faults += 1;
                    let disp = rig
                        .sd
                        .handle_fault(&mut rig.vm, &mut rig.engine, &fault, instr)
                        .unwrap();
                    if disp.instruments_instruction() {
                        // The instrumented instruction accesses shared data via
                        // the mirror page from now on.
                        let mirror = rig.sd.mirror_addr(addr).unwrap();
                        let t = rig.vm.touch(thread, mirror, kind).unwrap();
                        assert!(matches!(t.outcome, TouchOutcome::Ok));
                        return faults;
                    }
                }
                TouchOutcome::Fatal(segv) => panic!("unexpected segv: {segv}"),
            }
        }
        panic!("access did not converge");
    }

    #[test]
    fn private_page_costs_one_fault_per_thread_then_runs_free() {
        let (mut rig, base) = rig(2, 4);
        let t0 = ThreadId::new(0);
        let i0 = rig.instrs[0];
        assert_eq!(access(&mut rig, t0, base, AccessKind::Write, i0), 1);
        assert_eq!(rig.sd.page_state(base.page()), PageState::Private(t0));
        // Subsequent accesses by the same thread do not fault.
        for k in 1..10u64 {
            assert_eq!(
                access(&mut rig, t0, base.offset(k * 8), AccessKind::Write, i0),
                0
            );
        }
        assert_eq!(rig.sd.stats().faults_handled, 1);
        assert!(!rig.engine.is_instrumented(i0));
    }

    #[test]
    fn second_thread_makes_page_shared_and_instruments_instruction() {
        let (mut rig, base) = rig(2, 4);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let i0 = rig.instrs[0];
        access(&mut rig, t0, base, AccessKind::Write, i0);
        access(&mut rig, t1, base, AccessKind::Write, i0);
        assert_eq!(rig.sd.page_state(base.page()), PageState::Shared);
        assert!(rig.engine.is_instrumented(i0));
        assert_eq!(rig.sd.stats().shared_transitions, 1);
        assert_eq!(rig.sd.page_counts(), (0, 1));
    }

    #[test]
    fn every_new_instruction_on_a_shared_page_faults_once() {
        let (mut rig, base) = rig(2, 4);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let (i0, i1) = (rig.instrs[0], rig.instrs[1]);
        access(&mut rig, t0, base, AccessKind::Write, i0);
        access(&mut rig, t1, base, AccessKind::Write, i0);
        // A different static instruction touching the shared page faults and
        // is instrumented too.
        let faults = access(&mut rig, t0, base.offset(16), AccessKind::Read, i1);
        assert_eq!(faults, 1);
        assert!(rig.engine.is_instrumented(i1));
        assert_eq!(rig.sd.stats().instructions_instrumented, 2);
        // Once instrumented, accesses go via the mirror and no longer fault.
        let mirror = rig.sd.mirror_addr(base.offset(16)).unwrap();
        let touch = rig.vm.touch(t0, mirror, AccessKind::Read).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::Ok));
    }

    #[test]
    fn pages_touched_by_one_thread_only_never_become_shared() {
        let (mut rig, base) = rig(4, 8);
        let i0 = rig.instrs[0];
        // Each thread gets its own page.
        for i in 0..4u32 {
            let t = ThreadId::new(i);
            let addr = base.offset(i as u64 * 4096);
            access(&mut rig, t, addr, AccessKind::Write, i0);
            access(&mut rig, t, addr.offset(128), AccessKind::Read, i0);
        }
        let (private, shared) = rig.sd.page_counts();
        assert_eq!(private, 4);
        assert_eq!(shared, 0);
        assert_eq!(rig.sd.stats().instructions_instrumented, 0);
    }

    #[test]
    fn new_thread_gets_protected_view_of_existing_regions() {
        let (mut rig, base) = rig(1, 2);
        let i0 = rig.instrs[0];
        let t0 = ThreadId::new(0);
        access(&mut rig, t0, base, AccessKind::Write, i0);

        // A thread created later is registered with the VM and protected by
        // the detector; its first access to the (private) page faults and the
        // page becomes shared.
        let t9 = ThreadId::new(9);
        rig.vm.register_thread(t9).unwrap();
        rig.sd.protect_thread(&mut rig.vm, t9).unwrap();
        let faults = access(&mut rig, t9, base, AccessKind::Read, i0);
        assert_eq!(faults, 1);
        assert!(rig.sd.is_shared_page(base.page()));
    }

    #[test]
    fn mirror_translation_is_exposed() {
        let (rig, base) = rig(1, 2);
        let mirror = rig.sd.mirror_addr(base.offset(24)).unwrap();
        assert_ne!(mirror.page(), base.page());
        let meta = rig.sd.metadata_addr(base.offset(24)).unwrap();
        assert_ne!(meta, mirror);
        assert!(rig.sd.mirror_addr(Addr::new(0x1)).is_err());
    }

    #[test]
    fn shared_state_is_sticky_across_further_faults() {
        // The batched run kernel answers one page-state read for a whole run
        // of accesses; that is only sound because `Shared` can never revert.
        let (mut rig, base) = rig(3, 2);
        let (t0, t1, t2) = (ThreadId::new(0), ThreadId::new(1), ThreadId::new(2));
        let (i0, i1) = (rig.instrs[0], rig.instrs[1]);
        access(&mut rig, t0, base, AccessKind::Write, i0);
        access(&mut rig, t1, base, AccessKind::Write, i0);
        assert!(rig.sd.is_shared_page(base.page()));
        // Every subsequent fault on the page — new thread, new instruction —
        // leaves it shared.
        access(&mut rig, t2, base.offset(8), AccessKind::Read, i1);
        access(&mut rig, t0, base.offset(16), AccessKind::Write, i1);
        assert!(rig.sd.is_shared_page(base.page()));
        assert_eq!(rig.sd.page_state(base.page()), PageState::Shared);
    }

    #[test]
    fn snapshot_roundtrip_preserves_sharing_state() {
        let (mut rig, base) = rig(3, 4);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let (i0, i1) = (rig.instrs[0], rig.instrs[1]);
        access(&mut rig, t0, base, AccessKind::Write, i0); // page 0 shared below
        access(&mut rig, t1, base, AccessKind::Write, i0);
        access(&mut rig, t0, base.offset(4096), AccessKind::Write, i1); // page 1 private

        let mut w = aikido_snapshot::SectionWriter::new(*b"AKSD", 1);
        rig.sd.encode_snapshot(&mut w);
        let mut b = aikido_snapshot::SnapshotBuilder::new();
        b.push(w);
        let snap = b.finish();
        let mut reader = snap.reader().unwrap();
        let mut section = reader.section(*b"AKSD", 1).unwrap();
        let restored = AikidoSd::decode_snapshot(&mut section).unwrap();
        section.finish().unwrap();
        reader.finish().unwrap();

        assert_eq!(restored.stats(), rig.sd.stats());
        assert_eq!(restored.page_counts(), rig.sd.page_counts());
        assert_eq!(restored.page_state(base.page()), PageState::Shared);
        assert_eq!(
            restored.page_state(base.offset(4096).page()),
            PageState::Private(t0)
        );
        // The replayed shadow mapping assigns identical displacements.
        for off in [0u64, 0x123, 4096, 2 * 4096 + 8] {
            assert_eq!(
                restored.mirror_addr(base.offset(off)).unwrap(),
                rig.sd.mirror_addr(base.offset(off)).unwrap()
            );
            assert_eq!(
                restored.metadata_addr(base.offset(off)).unwrap(),
                rig.sd.metadata_addr(base.offset(off)).unwrap()
            );
        }
        // Future fault handling evolves identically.
        let mut restored_rig = Rig {
            vm: rig.vm,
            engine: rig.engine,
            sd: restored,
            instrs: rig.instrs,
        };
        let faults = access(
            &mut restored_rig,
            ThreadId::new(2),
            base.offset(4096),
            AccessKind::Write,
            i0,
        );
        assert_eq!(faults, 1);
        assert!(restored_rig.sd.is_shared_page(base.offset(4096).page()));
    }

    #[test]
    fn shared_state_is_queryable_by_address() {
        let (mut rig, base) = rig(2, 2);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let i0 = rig.instrs[0];
        assert!(!rig.sd.is_shared_addr(base));
        access(&mut rig, t0, base, AccessKind::Write, i0);
        access(&mut rig, t1, base, AccessKind::Write, i0);
        assert!(rig.sd.is_shared_addr(base.offset(100)));
        assert!(!rig.sd.is_shared_addr(base.offset(4096)));
    }
}

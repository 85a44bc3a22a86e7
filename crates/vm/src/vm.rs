//! The AikidoVM hypervisor model itself.
//!
//! # Hot-path layout
//!
//! `touch` is called for every simulated memory access, so the per-thread
//! state is laid out for index arithmetic rather than map lookups:
//!
//! * Threads get a dense *slot* at registration (`ThreadId` → `usize` into a
//!   `Vec<ThreadShard>`); every per-access operation works on slots.
//! * Each thread's shadow page table and protection table are flat chunked
//!   tables ([`ShadowPageTable`], [`ThreadProtTable`]).
//! * Each thread carries a software TLB of [`AikidoVm::TLB_ENTRIES`]
//!   entries, direct-mapped on the page number, caching its recent
//!   successful translations, so the dominant "recent page, access allowed"
//!   case is a compare and two loads before falling into the slow fault
//!   loop.

use aikido_snapshot::{SectionReader, SectionWriter, SnapshotError};
use aikido_types::{AccessKind, Addr, AikidoError, Prot, Result, ThreadId, Vpn};

use crate::fault::{AikidoFault, Segv};
use crate::frames::FrameId;
use crate::hypercall::{AikidoLib, FaultMailbox, Hypercall};
use crate::kernel::{GuestKernel, KernelEvent, KernelFaultResolution, Vma};
use crate::shadow_pt::ShadowPte;
use crate::shard::{ThreadShard, TlbLane};
use crate::snap::{get_kind, get_prot, put_kind, put_prot};
use crate::stats::VmStats;

/// Configuration of the hypervisor model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Page used as the fake address for faulting reads (must not collide
    /// with application mappings).
    pub fake_read_fault_page: Addr,
    /// Page used as the fake address for faulting writes.
    pub fake_write_fault_page: Addr,
    /// Address of the mailbox word holding the true faulting address.
    pub mailbox_addr: Addr,
    /// If true (the default), the `Init` hypercall is issued automatically at
    /// construction.
    pub auto_init: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            fake_read_fault_page: Addr::new(0x7fff_f000_0000),
            fake_write_fault_page: Addr::new(0x7fff_f000_1000),
            mailbox_addr: Addr::new(0x7fff_f000_2000),
            auto_init: true,
        }
    }
}

/// Costable events that occurred while servicing a single access.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Charges {
    /// VM exits taken.
    pub vm_exits: u32,
    /// Shadow page-table entries written.
    pub shadow_syncs: u32,
    /// Native faults resolved by the guest kernel.
    pub native_faults: u32,
    /// Shadow page-table misses filled lazily.
    pub shadow_misses: u32,
    /// Temporary-unprotection restorations triggered.
    pub temp_reprotections: u32,
}

impl Charges {
    /// True if no chargeable event occurred (the access hit the TLB/shadow
    /// table and proceeded at native speed).
    pub fn is_free(&self) -> bool {
        *self == Charges::default()
    }
}

/// Result of a userspace memory access submitted to the hypervisor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The access proceeds.
    Ok,
    /// The access was blocked by an Aikido per-thread protection; the fault
    /// has been delivered to the guest userspace handler.
    AikidoFault(AikidoFault),
    /// The access is fatal (unmapped memory or an unrecoverable protection
    /// violation).
    Fatal(Segv),
}

/// Outcome plus cost information for one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Touch {
    /// What happened to the access.
    pub outcome: TouchOutcome,
    /// Chargeable events incurred while servicing it.
    pub charges: Charges,
}

/// Direct-index slot lookup above this thread-id bound falls back to a scan
/// (guards the dense `ThreadId → slot` vector against pathological ids).
const MAX_DENSE_THREAD_INDEX: usize = 1 << 16;
const NO_SLOT: u32 = u32::MAX;

/// The AikidoVM hypervisor: per-thread shadow page tables, per-thread
/// protection tables, fault classification and delivery.
///
/// See the crate-level documentation for an overview and an example.
#[derive(Debug)]
pub struct AikidoVm {
    config: VmConfig,
    kernel: GuestKernel,
    /// Per-thread state, indexed by registration slot.
    threads: Vec<ThreadShard>,
    /// `ThreadId::index()` → slot (dense ids only; `NO_SLOT` = unregistered).
    slots: Vec<u32>,
    mailbox: FaultMailbox,
    initialized: bool,
    current_thread: Option<ThreadId>,
    /// Pages temporarily unprotected for the guest kernel, kept sorted.
    temp_unprotected: Vec<Vpn>,
    /// Reusable buffer for [`AikidoVm::restore_temp_protections`].
    restore_scratch: Vec<Vpn>,
    stats: VmStats,
}

const MAX_FAULT_RETRIES: usize = 8;

impl AikidoVm {
    /// Entries in each thread's software TLB. Direct-mapped: pages this many
    /// apart share a slot.
    pub const TLB_ENTRIES: usize = crate::shard::TLB_ENTRIES;

    /// Creates a hypervisor instance with the given configuration.
    pub fn new(config: VmConfig) -> Self {
        let mut vm = AikidoVm {
            mailbox: FaultMailbox {
                read_fault_page: config.fake_read_fault_page,
                write_fault_page: config.fake_write_fault_page,
                mailbox: config.mailbox_addr,
                last_true_addr: None,
                last_kind: None,
            },
            initialized: false,
            current_thread: None,
            temp_unprotected: Vec::new(),
            restore_scratch: Vec::new(),
            stats: VmStats::new(),
            kernel: GuestKernel::new(),
            threads: Vec::new(),
            slots: Vec::new(),
            config,
        };
        if vm.config.auto_init {
            vm.initialized = true;
        }
        vm
    }

    /// The guest kernel model (read-only access for inspection).
    pub fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    /// Hypervisor statistics accumulated so far.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The guest-side library view over the fault mailbox.
    pub fn aikido_lib(&self) -> AikidoLib {
        AikidoLib::new(self.mailbox)
    }

    /// Threads registered with the hypervisor, in id order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = self.threads.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// `thread`'s software TLB, read-only, or `None` if the thread is not
    /// registered. See [`TlbLane::hits`] for what a hit guarantees.
    #[inline]
    pub fn tlb(&self, thread: ThreadId) -> Option<TlbLane<'_>> {
        self.slot_of(thread)
            .map(|slot| self.threads[slot].tlb_lane())
    }

    /// The dense slot of `thread`, or `None` if it is not registered.
    #[inline]
    fn slot_of(&self, thread: ThreadId) -> Option<usize> {
        let idx = thread.index();
        if idx < self.slots.len() {
            let slot = self.slots[idx];
            if slot == NO_SLOT {
                None
            } else {
                Some(slot as usize)
            }
        } else if idx >= MAX_DENSE_THREAD_INDEX {
            self.threads.iter().position(|s| s.id == thread)
        } else {
            None
        }
    }

    #[inline]
    fn require_slot(&self, thread: ThreadId) -> Result<usize> {
        self.slot_of(thread)
            .ok_or(AikidoError::UnknownThread { thread })
    }

    /// Issues a hypercall from the guest.
    ///
    /// # Errors
    ///
    /// Returns an error if the interface is used before `Init`, if a thread is
    /// registered twice, or if a protection request names an unknown thread.
    pub fn hypercall(&mut self, call: Hypercall) -> Result<()> {
        self.stats.hypercalls += 1;
        self.stats.vm_exits += 1;
        match call {
            Hypercall::Init {
                read_fault_page,
                write_fault_page,
                mailbox,
            } => {
                self.mailbox.read_fault_page = read_fault_page;
                self.mailbox.write_fault_page = write_fault_page;
                self.mailbox.mailbox = mailbox;
                self.initialized = true;
                Ok(())
            }
            Hypercall::RegisterThread { thread } => {
                self.require_init()?;
                if self.slot_of(thread).is_some() {
                    return Err(AikidoError::ThreadAlreadyRegistered { thread });
                }
                let slot = self.threads.len() as u32;
                let idx = thread.index();
                if idx < MAX_DENSE_THREAD_INDEX {
                    if idx >= self.slots.len() {
                        self.slots.resize(idx + 1, NO_SLOT);
                    }
                    self.slots[idx] = slot;
                }
                self.threads.push(ThreadShard::new(thread));
                if self.current_thread.is_none() {
                    self.current_thread = Some(thread);
                }
                Ok(())
            }
            Hypercall::ProtectRange {
                thread,
                base,
                pages,
                prot,
            } => {
                self.require_init()?;
                let slot = self.require_slot(thread)?;
                for page in base.page().span(pages) {
                    self.set_slot_restriction(slot, page, Some(prot));
                }
                Ok(())
            }
            Hypercall::UnprotectRange {
                thread,
                base,
                pages,
            } => {
                self.require_init()?;
                let slot = self.require_slot(thread)?;
                for page in base.page().span(pages) {
                    self.set_slot_restriction(slot, page, None);
                }
                Ok(())
            }
            Hypercall::ProtectAllThreads { base, pages, prot } => {
                self.require_init()?;
                for page in base.page().span(pages) {
                    // One temp-unprotection and guest-PTE resolution per page,
                    // shared across every thread's table update.
                    if let Ok(pos) = self.temp_unprotected.binary_search(&page) {
                        self.temp_unprotected.remove(pos);
                    }
                    let guest = self.kernel.pte(page);
                    for state in &mut self.threads {
                        state.prot.set(page, prot);
                        if let Some(guest_pte) = guest {
                            let effective = state.prot.effective(page, guest_pte.prot);
                            if state.set_shadow_prot(page, effective) {
                                self.stats.shadow_syncs += 1;
                            }
                        }
                    }
                }
                Ok(())
            }
            Hypercall::ContextSwitch { from, to } => {
                self.require_init()?;
                self.require_slot(from)?;
                self.require_slot(to)?;
                self.stats.context_switches += 1;
                self.current_thread = Some(to);
                Ok(())
            }
        }
    }

    /// Registers a thread (convenience wrapper over the hypercall).
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::ThreadAlreadyRegistered`] if the thread is
    /// already known.
    pub fn register_thread(&mut self, thread: ThreadId) -> Result<()> {
        self.hypercall(Hypercall::RegisterThread { thread })
    }

    /// Creates a new anonymous mapping in the guest process.
    ///
    /// # Errors
    ///
    /// See [`GuestKernel::mmap`].
    pub fn mmap(&mut self, base: Addr, pages: u64, prot: Prot) -> Result<Vma> {
        let vma = self.kernel.mmap(base, pages, prot)?;
        self.sync_kernel_events();
        Ok(vma)
    }

    /// Creates a mirror mapping: `mirror_base` maps the same frames as the
    /// mapping containing `source_base`.
    ///
    /// # Errors
    ///
    /// See [`GuestKernel::mmap_shared_of`].
    pub fn mmap_mirror(&mut self, source_base: Addr, mirror_base: Addr) -> Result<Vma> {
        let vma = self.kernel.mmap_shared_of(source_base, mirror_base)?;
        self.sync_kernel_events();
        Ok(vma)
    }

    /// Removes the mapping starting at `base`.
    ///
    /// # Errors
    ///
    /// See [`GuestKernel::munmap`].
    pub fn munmap(&mut self, base: Addr) -> Result<()> {
        self.kernel.munmap(base)?;
        self.sync_kernel_events();
        Ok(())
    }

    /// Performs a userspace memory access on behalf of `thread`.
    ///
    /// Native faults (demand paging, shadow misses, protection upgrades) are
    /// resolved internally and reported only through [`Charges`]; Aikido
    /// faults and fatal faults are surfaced in the [`TouchOutcome`].
    ///
    /// The fast path — a hit in the thread's direct-mapped software TLB for
    /// a page it recently translated, access allowed — returns a free
    /// [`Touch`] without consulting the shadow table. [`AikidoVm::tlb`]
    /// exposes the same probe without the call.
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::UnknownThread`] if the thread was never
    /// registered.
    #[inline]
    pub fn touch(&mut self, thread: ThreadId, addr: Addr, kind: AccessKind) -> Result<Touch> {
        let slot = self.require_slot(thread)?;
        let page = addr.page();

        // Software-TLB fast path (the dominant case on unshared pages).
        if self.threads[slot].tlb_lane().hits(page, kind) {
            return Ok(Touch {
                outcome: TouchOutcome::Ok,
                charges: Charges::default(),
            });
        }
        self.touch_slow(slot, thread, addr, kind)
    }

    /// The TLB-miss continuation of [`AikidoVm::touch`]: shadow walk, fault
    /// classification and retry loop.
    #[cold]
    fn touch_slow(
        &mut self,
        slot: usize,
        thread: ThreadId,
        addr: Addr,
        kind: AccessKind,
    ) -> Result<Touch> {
        let page = addr.page();
        let mut charges = Charges::default();
        for _ in 0..MAX_FAULT_RETRIES {
            let shadow_pte = self.threads[slot].shadow.lookup(page);
            let Some(pte) = shadow_pte else {
                // Shadow miss: a VM exit to consult the guest page table.
                charges.vm_exits += 1;
                self.stats.vm_exits += 1;
                match self.kernel.pte(page) {
                    Some(guest_pte) => {
                        charges.shadow_misses += 1;
                        self.stats.shadow_misses += 1;
                        self.install_shadow(slot, page, guest_pte.frame, guest_pte.prot);
                        charges.shadow_syncs += 1;
                        continue;
                    }
                    None => match self.kernel.handle_fault(addr, kind) {
                        KernelFaultResolution::Resolved => {
                            charges.native_faults += 1;
                            self.stats.native_faults += 1;
                            self.sync_kernel_events();
                            continue;
                        }
                        KernelFaultResolution::Fatal => {
                            self.stats.fatal_faults += 1;
                            return Ok(Touch {
                                outcome: TouchOutcome::Fatal(Segv { thread, addr, kind }),
                                charges,
                            });
                        }
                    },
                }
            };

            if pte.prot.allows_user(kind) {
                self.threads[slot].tlb_fill(page, pte.prot);
                return Ok(Touch {
                    outcome: TouchOutcome::Ok,
                    charges,
                });
            }

            // The access faults. Classify it.
            charges.vm_exits += 1;
            self.stats.vm_exits += 1;

            if self.is_temp_unprotected(page) {
                // The page had been temporarily unprotected for the guest
                // kernel; restore every temporarily unprotected page and
                // re-evaluate (§3.2.6).
                self.restore_temp_protections();
                charges.temp_reprotections += 1;
                continue;
            }

            let guest_prot = self.kernel.pte(page).map(|g| g.prot).unwrap_or(Prot::NONE);

            if guest_prot.allows_user(kind) {
                // The guest would have allowed it: this is an Aikido fault.
                let fault = self.deliver_aikido_fault(thread, addr, kind);
                return Ok(Touch {
                    outcome: TouchOutcome::AikidoFault(fault),
                    charges,
                });
            }

            // The guest protection itself denies the access: native fault.
            match self.kernel.handle_fault(addr, kind) {
                KernelFaultResolution::Resolved => {
                    charges.native_faults += 1;
                    self.stats.native_faults += 1;
                    self.sync_kernel_events();
                    continue;
                }
                KernelFaultResolution::Fatal => {
                    self.stats.fatal_faults += 1;
                    return Ok(Touch {
                        outcome: TouchOutcome::Fatal(Segv { thread, addr, kind }),
                        charges,
                    });
                }
            }
        }

        // Retry budget exhausted: treat as fatal so callers notice.
        self.stats.fatal_faults += 1;
        Ok(Touch {
            outcome: TouchOutcome::Fatal(Segv { thread, addr, kind }),
            charges,
        })
    }

    /// Models the guest *kernel* accessing a user page on behalf of `thread`
    /// (for example copying a system-call argument). If the page is blocked by
    /// an Aikido protection the hypervisor emulates the kernel instruction and
    /// temporarily unprotects the page with the user bit cleared (§3.2.6).
    ///
    /// Returns `true` if emulation (and temporary unprotection) occurred.
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::UnknownThread`] for unregistered threads and
    /// [`AikidoError::UnmappedAddress`] if the page cannot be demand-paged in.
    pub fn kernel_touch(&mut self, thread: ThreadId, addr: Addr, kind: AccessKind) -> Result<bool> {
        let slot = self.require_slot(thread)?;
        let page = addr.page();

        // Make sure the page exists in the guest page table (the kernel would
        // demand-page it like any other access).
        if self.kernel.pte(page).is_none() {
            match self.kernel.handle_fault(addr, kind) {
                KernelFaultResolution::Resolved => {
                    self.stats.native_faults += 1;
                    self.sync_kernel_events();
                }
                KernelFaultResolution::Fatal => {
                    return Err(AikidoError::UnmappedAddress { addr });
                }
            }
        }
        let guest_prot = self.kernel.pte(page).map(|g| g.prot).unwrap_or(Prot::NONE);

        // A page already temporarily unprotected for the kernel needs no
        // further emulation until a userspace access restores protections.
        if self.is_temp_unprotected(page) && guest_prot.allows_kernel(kind) {
            return Ok(false);
        }

        let effective = self.threads[slot].prot.effective(page, guest_prot);
        if effective.allows_kernel(kind) {
            return Ok(false);
        }

        // Aikido protection blocked the kernel: emulate the access and
        // temporarily unprotect the page, but keep it inaccessible to
        // userspace (clear the USER bit).
        self.stats.vm_exits += 1;
        self.stats.kernel_emulations += 1;
        self.stats.temp_unprotections += 1;
        if let Err(pos) = self.temp_unprotected.binary_search(&page) {
            self.temp_unprotected.insert(pos, page);
        }
        debug_assert!(
            self.temp_unprotected.windows(2).all(|w| w[0] < w[1]),
            "temp-unprotected page list lost its sort order"
        );
        let temp_prot = guest_prot.without_user();
        let frame = self.kernel.pte(page).map(|g| g.frame);
        if let Some(frame) = frame {
            for state in &mut self.threads {
                state.install_shadow(
                    page,
                    ShadowPte {
                        frame,
                        prot: temp_prot,
                    },
                );
            }
            self.stats.shadow_syncs += self.threads.len() as u64;
        }
        Ok(true)
    }

    /// The pages currently temporarily unprotected for the guest kernel, as a
    /// sorted slice (no allocation). Callers must not re-sort it — the list
    /// is maintained in order by binary-search insertion, and the assertion
    /// here keeps that contract honest in debug builds.
    pub fn temp_unprotected_pages(&self) -> &[Vpn] {
        debug_assert!(
            self.temp_unprotected.windows(2).all(|w| w[0] < w[1]),
            "temp-unprotected page list lost its sort order"
        );
        &self.temp_unprotected
    }

    #[inline]
    fn is_temp_unprotected(&self, page: Vpn) -> bool {
        self.temp_unprotected.binary_search(&page).is_ok()
    }

    /// The per-thread restriction installed for `page`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::UnknownThread`] for unregistered threads.
    pub fn thread_restriction(&self, thread: ThreadId, page: Vpn) -> Result<Option<Prot>> {
        let slot = self.require_slot(thread)?;
        Ok(self.threads[slot].prot.get(page))
    }

    /// The effective protection `thread` currently has on `page` (as its
    /// shadow page table would enforce), if the page has a guest mapping.
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::UnknownThread`] for unregistered threads.
    pub fn effective_prot(&self, thread: ThreadId, page: Vpn) -> Result<Option<Prot>> {
        let slot = self.require_slot(thread)?;
        let state = &self.threads[slot];
        if let Some(pte) = state.shadow.lookup(page) {
            return Ok(Some(pte.prot));
        }
        Ok(self
            .kernel
            .pte(page)
            .map(|g| state.prot.effective(page, g.prot)))
    }

    /// Resolves `addr` to the machine frame backing it for `thread`, demand
    /// paging it in if necessary but ignoring protections. Used by tests and
    /// by the mirror-page machinery to verify aliasing.
    ///
    /// # Errors
    ///
    /// Returns [`AikidoError::UnmappedAddress`] if no VMA covers the address.
    pub fn resolve_frame(&mut self, addr: Addr) -> Result<FrameId> {
        let page = addr.page();
        if let Some(pte) = self.kernel.pte(page) {
            return Ok(pte.frame);
        }
        match self.kernel.handle_fault(addr, AccessKind::Read) {
            KernelFaultResolution::Resolved => {
                self.stats.native_faults += 1;
                self.sync_kernel_events();
                Ok(self
                    .kernel
                    .pte(page)
                    .expect("fault resolution installs a PTE")
                    .frame)
            }
            KernelFaultResolution::Fatal => Err(AikidoError::UnmappedAddress { addr }),
        }
    }

    fn require_init(&self) -> Result<()> {
        if self.initialized {
            Ok(())
        } else {
            Err(AikidoError::NotInitialized)
        }
    }

    fn set_slot_restriction(&mut self, slot: usize, page: Vpn, prot: Option<Prot>) {
        // Re-applying a protection means the page is no longer in the
        // "temporarily unprotected for the kernel" state.
        if let Ok(pos) = self.temp_unprotected.binary_search(&page) {
            self.temp_unprotected.remove(pos);
        }
        let guest = self.kernel.pte(page);
        let state = &mut self.threads[slot];
        match prot {
            Some(p) => state.prot.set(page, p),
            None => state.prot.clear(page),
        }
        if let Some(guest_pte) = guest {
            let effective = state.prot.effective(page, guest_pte.prot);
            if state.set_shadow_prot(page, effective) {
                self.stats.shadow_syncs += 1;
            }
        }
    }

    fn install_shadow(&mut self, slot: usize, page: Vpn, frame: FrameId, guest_prot: Prot) {
        let state = &mut self.threads[slot];
        let effective = state.prot.effective(page, guest_prot);
        state.install_shadow(
            page,
            ShadowPte {
                frame,
                prot: effective,
            },
        );
        self.stats.shadow_syncs += 1;
    }

    fn sync_kernel_events(&mut self) {
        for event in self.kernel.drain_events() {
            self.stats.guest_pte_writes += 1;
            match event {
                KernelEvent::PteInstalled { page, pte } => {
                    for state in &mut self.threads {
                        let effective = state.prot.effective(page, pte.prot);
                        state.install_shadow(
                            page,
                            ShadowPte {
                                frame: pte.frame,
                                prot: effective,
                            },
                        );
                    }
                    self.stats.shadow_syncs += self.threads.len() as u64;
                }
                KernelEvent::PteRemoved { page } => {
                    for state in &mut self.threads {
                        state.invalidate_shadow(page);
                    }
                    self.stats.shadow_syncs += self.threads.len() as u64;
                }
            }
        }
    }

    fn restore_temp_protections(&mut self) {
        self.stats.temp_reprotections += 1;
        // Drain in place: swap the page list into the reusable scratch buffer
        // so the retry loop allocates nothing.
        let mut pages = std::mem::take(&mut self.restore_scratch);
        std::mem::swap(&mut pages, &mut self.temp_unprotected);
        for &page in &pages {
            let Some(guest_pte) = self.kernel.pte(page) else {
                continue;
            };
            for state in &mut self.threads {
                let effective = state.prot.effective(page, guest_pte.prot);
                state.install_shadow(
                    page,
                    ShadowPte {
                        frame: guest_pte.frame,
                        prot: effective,
                    },
                );
            }
            self.stats.shadow_syncs += self.threads.len() as u64;
        }
        pages.clear();
        self.restore_scratch = pages;
    }

    fn deliver_aikido_fault(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        kind: AccessKind,
    ) -> AikidoFault {
        self.stats.aikido_faults_delivered += 1;
        self.mailbox.record(addr, kind);
        AikidoFault {
            thread,
            fake_addr: self.mailbox.fake_addr_for(kind),
            true_addr: addr,
            kind,
        }
    }

    /// Serializes the entire hypervisor — configuration, the guest kernel,
    /// every thread shard (shadow page table and protection table; the
    /// per-thread software TLBs are pure accelerators and are rebuilt empty
    /// on restore), the fault mailbox, the temporarily-unprotected page list
    /// and the statistics — into one snapshot section.
    pub fn encode_snapshot(&self, out: &mut SectionWriter) {
        out.put_u64(self.config.fake_read_fault_page.raw());
        out.put_u64(self.config.fake_write_fault_page.raw());
        out.put_u64(self.config.mailbox_addr.raw());
        out.put_bool(self.config.auto_init);

        self.kernel.encode_snapshot(out);

        out.put_usize(self.threads.len());
        for shard in &self.threads {
            out.put_u32(shard.id.raw());
            out.put_usize(shard.shadow.len());
            for (page, pte) in shard.shadow.iter() {
                out.put_u64(page.raw());
                out.put_u64(pte.frame.raw());
                put_prot(out, pte.prot);
            }
            out.put_usize(shard.prot.len());
            for (page, prot) in shard.prot.iter() {
                out.put_u64(page.raw());
                put_prot(out, prot);
            }
        }

        out.put_u64(self.mailbox.read_fault_page.raw());
        out.put_u64(self.mailbox.write_fault_page.raw());
        out.put_u64(self.mailbox.mailbox.raw());
        match self.mailbox.last_true_addr {
            None => out.put_u8(0),
            Some(addr) => {
                out.put_u8(1);
                out.put_u64(addr.raw());
            }
        }
        match self.mailbox.last_kind {
            None => out.put_u8(0),
            Some(kind) => {
                out.put_u8(1);
                put_kind(out, kind);
            }
        }

        out.put_bool(self.initialized);
        match self.current_thread {
            None => out.put_u8(0),
            Some(t) => {
                out.put_u8(1);
                out.put_u32(t.raw());
            }
        }
        out.put_usize(self.temp_unprotected.len());
        for page in &self.temp_unprotected {
            out.put_u64(page.raw());
        }

        for v in [
            self.stats.vm_exits,
            self.stats.aikido_faults_delivered,
            self.stats.native_faults,
            self.stats.fatal_faults,
            self.stats.shadow_syncs,
            self.stats.shadow_misses,
            self.stats.hypercalls,
            self.stats.context_switches,
            self.stats.kernel_emulations,
            self.stats.temp_unprotections,
            self.stats.temp_reprotections,
            self.stats.guest_pte_writes,
        ] {
            out.put_u64(v);
        }
    }

    /// Rebuilds a hypervisor from a section written by
    /// [`AikidoVm::encode_snapshot`]. Thread registration slots are recomputed
    /// from the serialized shard order and every software TLB starts empty
    /// (TLB hits and misses are proven outcome-identical, so this cannot
    /// change behavior).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on any malformed payload.
    pub fn decode_snapshot(
        r: &mut SectionReader<'_>,
    ) -> std::result::Result<AikidoVm, SnapshotError> {
        let config = VmConfig {
            fake_read_fault_page: Addr::new(r.get_u64()?),
            fake_write_fault_page: Addr::new(r.get_u64()?),
            mailbox_addr: Addr::new(r.get_u64()?),
            auto_init: r.get_bool()?,
        };
        let kernel = GuestKernel::decode_snapshot(r)?;

        let shard_count = r.get_usize()?;
        let mut threads = Vec::with_capacity(shard_count.min(1 << 10));
        let mut slots = Vec::new();
        for slot in 0..shard_count {
            let id = ThreadId::new(r.get_u32()?);
            let mut shard = ThreadShard::new(id);
            let shadow_count = r.get_usize()?;
            for _ in 0..shadow_count {
                let page = Vpn::new(r.get_u64()?);
                let frame = FrameId::new(r.get_u64()?);
                let prot = get_prot(r)?;
                shard.shadow.install(page, ShadowPte { frame, prot });
            }
            let prot_count = r.get_usize()?;
            for _ in 0..prot_count {
                let page = Vpn::new(r.get_u64()?);
                let prot = get_prot(r)?;
                shard.prot.set(page, prot);
            }
            let idx = id.index();
            if idx < MAX_DENSE_THREAD_INDEX {
                if idx >= slots.len() {
                    slots.resize(idx + 1, NO_SLOT);
                }
                if slots[idx] != NO_SLOT {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("thread {} appears in two shards", id.raw()),
                    ));
                }
                slots[idx] = slot as u32;
            }
            threads.push(shard);
        }

        let mailbox = FaultMailbox {
            read_fault_page: Addr::new(r.get_u64()?),
            write_fault_page: Addr::new(r.get_u64()?),
            mailbox: Addr::new(r.get_u64()?),
            last_true_addr: match r.get_u8()? {
                0 => None,
                1 => Some(Addr::new(r.get_u64()?)),
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid option tag {other}"),
                    ))
                }
            },
            last_kind: match r.get_u8()? {
                0 => None,
                1 => Some(get_kind(r)?),
                other => {
                    return Err(SnapshotError::new(
                        r.section_name(),
                        r.offset(),
                        format!("invalid option tag {other}"),
                    ))
                }
            },
        };

        let initialized = r.get_bool()?;
        let current_thread = match r.get_u8()? {
            0 => None,
            1 => Some(ThreadId::new(r.get_u32()?)),
            other => {
                return Err(SnapshotError::new(
                    r.section_name(),
                    r.offset(),
                    format!("invalid option tag {other}"),
                ))
            }
        };
        let temp_count = r.get_usize()?;
        let mut temp_unprotected = Vec::with_capacity(temp_count.min(1 << 10));
        for _ in 0..temp_count {
            temp_unprotected.push(Vpn::new(r.get_u64()?));
        }
        if !temp_unprotected.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::new(
                r.section_name(),
                r.offset(),
                "temporarily-unprotected page list is not strictly sorted".to_string(),
            ));
        }

        let mut stats = VmStats::new();
        for field in [
            &mut stats.vm_exits,
            &mut stats.aikido_faults_delivered,
            &mut stats.native_faults,
            &mut stats.fatal_faults,
            &mut stats.shadow_syncs,
            &mut stats.shadow_misses,
            &mut stats.hypercalls,
            &mut stats.context_switches,
            &mut stats.kernel_emulations,
            &mut stats.temp_unprotections,
            &mut stats.temp_reprotections,
            &mut stats.guest_pte_writes,
        ] {
            *field = r.get_u64()?;
        }

        Ok(AikidoVm {
            config,
            kernel,
            threads,
            slots,
            mailbox,
            initialized,
            current_thread,
            temp_unprotected,
            restore_scratch: Vec::new(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: u32) -> (AikidoVm, Vec<ThreadId>) {
        let mut vm = AikidoVm::new(VmConfig::default());
        let tids: Vec<ThreadId> = (0..threads).map(ThreadId::new).collect();
        for &t in &tids {
            vm.register_thread(t).unwrap();
        }
        (vm, tids)
    }

    fn page_addr(n: u64) -> Addr {
        Vpn::new(n).base()
    }

    #[test]
    fn first_touch_demand_pages_then_runs_free() {
        let (mut vm, t) = setup(1);
        vm.mmap(page_addr(100), 4, Prot::RW_USER).unwrap();

        let first = vm.touch(t[0], page_addr(100), AccessKind::Write).unwrap();
        assert!(matches!(first.outcome, TouchOutcome::Ok));
        assert!(first.charges.native_faults >= 1);

        let second = vm
            .touch(t[0], page_addr(100).offset(8), AccessKind::Read)
            .unwrap();
        assert!(matches!(second.outcome, TouchOutcome::Ok));
        assert!(
            second.charges.is_free(),
            "second touch must be free: {:?}",
            second.charges
        );
    }

    #[test]
    fn unmapped_access_is_fatal() {
        let (mut vm, t) = setup(1);
        let touch = vm.touch(t[0], page_addr(999), AccessKind::Read).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::Fatal(_)));
        assert_eq!(vm.stats().fatal_faults, 1);
    }

    #[test]
    fn per_thread_protection_faults_only_the_restricted_thread() {
        let (mut vm, t) = setup(2);
        let base = page_addr(50);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        // Touch once from each thread so shadow entries exist.
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.touch(t[1], base, AccessKind::Write).unwrap();

        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();

        let blocked = vm.touch(t[0], base, AccessKind::Read).unwrap();
        match blocked.outcome {
            TouchOutcome::AikidoFault(f) => {
                assert_eq!(f.true_addr, base);
                assert_eq!(f.thread, t[0]);
                assert_eq!(f.fake_addr, VmConfig::default().fake_read_fault_page);
            }
            other => panic!("expected aikido fault, got {other:?}"),
        }
        let ok = vm.touch(t[1], base, AccessKind::Read).unwrap();
        assert!(matches!(ok.outcome, TouchOutcome::Ok));
        assert_eq!(vm.stats().aikido_faults_delivered, 1);
    }

    #[test]
    fn aikido_fault_reports_true_address_via_library() {
        let (mut vm, t) = setup(1);
        let base = page_addr(70);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        let addr = base.offset(0x123);
        let touch = vm.touch(t[0], addr, AccessKind::Write).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::AikidoFault(_)));
        let lib = vm.aikido_lib();
        assert!(lib.is_aikido_pagefault(VmConfig::default().fake_write_fault_page));
        assert_eq!(lib.true_fault_addr(), Some(addr));
        assert_eq!(lib.last_fault_kind(), Some(AccessKind::Write));
    }

    #[test]
    fn unprotect_restores_access() {
        let (mut vm, t) = setup(1);
        let base = page_addr(60);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Read).unwrap().outcome,
            TouchOutcome::AikidoFault(_)
        ));
        vm.hypercall(Hypercall::UnprotectRange {
            thread: t[0],
            base,
            pages: 1,
        })
        .unwrap();
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Read).unwrap().outcome,
            TouchOutcome::Ok
        ));
    }

    #[test]
    fn read_only_restriction_allows_reads_blocks_writes() {
        let (mut vm, t) = setup(1);
        let base = page_addr(61);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::R_USER,
        })
        .unwrap();
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Read).unwrap().outcome,
            TouchOutcome::Ok
        ));
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Write).unwrap().outcome,
            TouchOutcome::AikidoFault(_)
        ));
    }

    #[test]
    fn protect_all_threads_blocks_every_thread() {
        let (mut vm, t) = setup(3);
        let base = page_addr(80);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        for &tid in &t {
            vm.touch(tid, base, AccessKind::Read).unwrap();
        }
        vm.hypercall(Hypercall::ProtectAllThreads {
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        for &tid in &t {
            assert!(matches!(
                vm.touch(tid, base, AccessKind::Read).unwrap().outcome,
                TouchOutcome::AikidoFault(_)
            ));
        }
        assert_eq!(vm.stats().aikido_faults_delivered, 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_hypervisor_behavior() {
        let (mut vm, t) = setup(2);
        let base = page_addr(300);
        vm.mmap(base, 4, Prot::RW_USER).unwrap();
        vm.mmap_mirror(base, page_addr(4096)).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.touch(t[1], base.offset(0x1000), AccessKind::Read)
            .unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        // Populate the mailbox and the temp-unprotected list.
        assert!(matches!(
            vm.touch(t[0], base.offset(0x8), AccessKind::Read)
                .unwrap()
                .outcome,
            TouchOutcome::AikidoFault(_)
        ));
        assert!(vm.kernel_touch(t[0], base, AccessKind::Read).unwrap());
        assert!(!vm.temp_unprotected_pages().is_empty());

        let mut w = aikido_snapshot::SectionWriter::new(*b"AKVM", 1);
        vm.encode_snapshot(&mut w);
        let mut b = aikido_snapshot::SnapshotBuilder::new();
        b.push(w);
        let snap = b.finish();
        let mut reader = snap.reader().unwrap();
        let mut section = reader.section(*b"AKVM", 1).unwrap();
        let mut restored = AikidoVm::decode_snapshot(&mut section).unwrap();
        section.finish().unwrap();
        reader.finish().unwrap();

        assert_eq!(restored.stats(), vm.stats());
        assert_eq!(restored.threads(), vm.threads());
        assert_eq!(
            restored.temp_unprotected_pages(),
            vm.temp_unprotected_pages()
        );
        assert_eq!(
            restored.aikido_lib().true_fault_addr(),
            vm.aikido_lib().true_fault_addr()
        );
        assert_eq!(
            restored.kernel().installed_ptes(),
            vm.kernel().installed_ptes()
        );
        assert_eq!(restored.kernel().vmas(), vm.kernel().vmas());

        // Future accesses behave identically (including the temp-reprotection
        // path, demand paging of untouched pages, and the Aikido fault path).
        for vm in [&mut vm, &mut restored] {
            let a = vm.touch(t[1], base, AccessKind::Write).unwrap();
            let b = vm.touch(t[0], base, AccessKind::Write).unwrap();
            let c = vm
                .touch(t[0], base.offset(0x3000), AccessKind::Write)
                .unwrap();
            assert!(matches!(a.outcome, TouchOutcome::Ok));
            assert!(matches!(b.outcome, TouchOutcome::AikidoFault(_)));
            assert!(matches!(c.outcome, TouchOutcome::Ok));
        }
        assert_eq!(restored.stats(), vm.stats());
        assert_eq!(
            restored.effective_prot(t[0], base.page()).unwrap(),
            vm.effective_prot(t[0], base.page()).unwrap()
        );
    }

    #[test]
    fn guest_protection_violation_is_not_an_aikido_fault() {
        let (mut vm, t) = setup(1);
        let base = page_addr(90);
        vm.mmap(base, 1, Prot::R_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Read).unwrap();
        let touch = vm.touch(t[0], base, AccessKind::Write).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::Fatal(_)));
        assert_eq!(vm.stats().aikido_faults_delivered, 0);
    }

    #[test]
    fn protection_set_before_first_touch_applies_at_shadow_install() {
        let (mut vm, t) = setup(1);
        let base = page_addr(95);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        let touch = vm.touch(t[0], base, AccessKind::Read).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::AikidoFault(_)));
    }

    #[test]
    fn kernel_access_to_protected_page_is_emulated_and_temporarily_unprotected() {
        let (mut vm, t) = setup(2);
        let base = page_addr(110);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.touch(t[1], base, AccessKind::Write).unwrap();
        vm.hypercall(Hypercall::ProtectAllThreads {
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();

        // Guest kernel copies data into the page on behalf of thread 0.
        let emulated = vm.kernel_touch(t[0], base, AccessKind::Write).unwrap();
        assert!(emulated);
        assert_eq!(vm.stats().kernel_emulations, 1);
        assert_eq!(vm.temp_unprotected_pages(), vec![base.page()]);

        // A second kernel access proceeds without another emulation because
        // the page is temporarily unprotected (user bit cleared only).
        let again = vm.kernel_touch(t[0], base, AccessKind::Write).unwrap();
        assert!(!again);
        assert_eq!(vm.stats().kernel_emulations, 1);

        // The next *userspace* access trips the cleared user bit, the original
        // protections are restored, and the access becomes an Aikido fault.
        let touch = vm.touch(t[1], base, AccessKind::Read).unwrap();
        assert!(matches!(touch.outcome, TouchOutcome::AikidoFault(_)));
        assert!(touch.charges.temp_reprotections >= 1);
        assert!(vm.temp_unprotected_pages().is_empty());
        assert!(vm.stats().temp_reprotections >= 1);
    }

    #[test]
    fn kernel_access_to_unrestricted_page_needs_no_emulation() {
        let (mut vm, t) = setup(1);
        let base = page_addr(120);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        assert!(!vm.kernel_touch(t[0], base, AccessKind::Write).unwrap());
        assert_eq!(vm.stats().kernel_emulations, 0);
    }

    #[test]
    fn mirror_mapping_resolves_to_same_frame() {
        let (mut vm, _t) = setup(1);
        let orig = page_addr(300);
        let mirror = page_addr(5000);
        vm.mmap(orig, 2, Prot::RW_USER).unwrap();
        vm.mmap_mirror(orig, mirror).unwrap();
        let f_orig = vm.resolve_frame(orig.offset(16)).unwrap();
        let f_mirror = vm.resolve_frame(mirror.offset(16)).unwrap();
        assert_eq!(f_orig, f_mirror);
    }

    #[test]
    fn mirror_pages_bypass_aikido_protection() {
        let (mut vm, t) = setup(1);
        let orig = page_addr(400);
        let mirror = page_addr(6000);
        vm.mmap(orig, 1, Prot::RW_USER).unwrap();
        vm.mmap_mirror(orig, mirror).unwrap();
        vm.touch(t[0], orig, AccessKind::Write).unwrap();
        vm.hypercall(Hypercall::ProtectAllThreads {
            base: orig,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        // The original page faults...
        assert!(matches!(
            vm.touch(t[0], orig, AccessKind::Write).unwrap().outcome,
            TouchOutcome::AikidoFault(_)
        ));
        // ...but the mirror page, backed by the same frame, does not.
        assert!(matches!(
            vm.touch(t[0], mirror, AccessKind::Write).unwrap().outcome,
            TouchOutcome::Ok
        ));
    }

    #[test]
    fn guest_pte_writes_update_all_shadow_tables() {
        let (mut vm, t) = setup(4);
        let base = page_addr(500);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        // Demand paging triggered by thread 0 must make the page visible to
        // every thread's shadow table (effective protections recomputed per
        // thread).
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        for &tid in &t {
            let touch = vm.touch(tid, base, AccessKind::Read).unwrap();
            assert!(matches!(touch.outcome, TouchOutcome::Ok));
            assert!(
                touch.charges.is_free(),
                "{tid:?} should not fault: {:?}",
                touch.charges
            );
        }
        assert!(vm.stats().guest_pte_writes >= 1);
    }

    #[test]
    fn context_switch_hypercall_is_counted() {
        let (mut vm, t) = setup(2);
        vm.hypercall(Hypercall::ContextSwitch {
            from: t[0],
            to: t[1],
        })
        .unwrap();
        assert_eq!(vm.stats().context_switches, 1);
    }

    #[test]
    fn duplicate_thread_registration_is_rejected() {
        let (mut vm, t) = setup(1);
        assert!(matches!(
            vm.register_thread(t[0]),
            Err(AikidoError::ThreadAlreadyRegistered { .. })
        ));
    }

    #[test]
    fn unknown_thread_operations_are_rejected() {
        let (mut vm, _t) = setup(1);
        let ghost = ThreadId::new(42);
        assert!(matches!(
            vm.touch(ghost, page_addr(1), AccessKind::Read),
            Err(AikidoError::UnknownThread { .. })
        ));
        assert!(matches!(
            vm.hypercall(Hypercall::ProtectRange {
                thread: ghost,
                base: page_addr(1),
                pages: 1,
                prot: Prot::NONE
            }),
            Err(AikidoError::UnknownThread { .. })
        ));
    }

    #[test]
    fn uninitialized_vm_rejects_hypercalls() {
        let mut vm = AikidoVm::new(VmConfig {
            auto_init: false,
            ..VmConfig::default()
        });
        assert!(matches!(
            vm.register_thread(ThreadId::new(0)),
            Err(AikidoError::NotInitialized)
        ));
        vm.hypercall(Hypercall::Init {
            read_fault_page: Addr::new(0x1000),
            write_fault_page: Addr::new(0x2000),
            mailbox: Addr::new(0x3000),
        })
        .unwrap();
        assert!(vm.register_thread(ThreadId::new(0)).is_ok());
    }

    #[test]
    fn effective_prot_reports_restrictions_before_and_after_shadow_install() {
        let (mut vm, t) = setup(1);
        let base = page_addr(700);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::R_USER,
        })
        .unwrap();
        // Page not yet demand-paged: no effective protection is known.
        assert_eq!(vm.effective_prot(t[0], base.page()).unwrap(), None);
        vm.resolve_frame(base).unwrap();
        assert_eq!(
            vm.effective_prot(t[0], base.page()).unwrap(),
            Some(Prot::R_USER)
        );
        assert_eq!(
            vm.thread_restriction(t[0], base.page()).unwrap(),
            Some(Prot::R_USER)
        );
    }

    #[test]
    fn tlb_fast_path_is_invalidated_by_protection_changes() {
        let (mut vm, t) = setup(1);
        let base = page_addr(130);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        // Warm the TLB.
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        assert!(vm
            .touch(t[0], base, AccessKind::Write)
            .unwrap()
            .charges
            .is_free());
        // A protection change must not be masked by the cached translation.
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[0],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Write).unwrap().outcome,
            TouchOutcome::AikidoFault(_)
        ));
    }

    #[test]
    fn tlb_fast_path_is_invalidated_by_munmap() {
        let (mut vm, t) = setup(1);
        let base = page_addr(140);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        vm.munmap(base).unwrap();
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Read).unwrap().outcome,
            TouchOutcome::Fatal(_)
        ));
    }

    #[test]
    fn tlb_is_per_thread() {
        let (mut vm, t) = setup(2);
        let base = page_addr(150);
        vm.mmap(base, 1, Prot::RW_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Write).unwrap();
        // Thread 1's first touch is free only because the shadow sync from the
        // demand-paging fault installed its entry; protect it for t1 only.
        vm.hypercall(Hypercall::ProtectRange {
            thread: t[1],
            base,
            pages: 1,
            prot: Prot::NONE,
        })
        .unwrap();
        // t0's cached translation still works; t1 faults.
        assert!(vm
            .touch(t[0], base, AccessKind::Write)
            .unwrap()
            .charges
            .is_free());
        assert!(matches!(
            vm.touch(t[1], base, AccessKind::Write).unwrap().outcome,
            TouchOutcome::AikidoFault(_)
        ));
    }

    #[test]
    fn read_tlb_entry_does_not_authorise_writes() {
        let (mut vm, t) = setup(1);
        let base = page_addr(160);
        vm.mmap(base, 1, Prot::R_USER).unwrap();
        vm.touch(t[0], base, AccessKind::Read).unwrap();
        assert!(vm
            .touch(t[0], base, AccessKind::Read)
            .unwrap()
            .charges
            .is_free());
        // The cached (page, R) entry must not satisfy a write.
        assert!(matches!(
            vm.touch(t[0], base, AccessKind::Write).unwrap().outcome,
            TouchOutcome::Fatal(_)
        ));
    }
}

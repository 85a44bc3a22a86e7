//! Per-thread hypervisor state as a self-contained shard.
//!
//! Everything the hypervisor keeps *per guest thread* — the thread's shadow
//! page table, its Aikido protection table, and its direct-mapped software
//! TLB — lives in one [`ThreadShard`]. The shard owns no references into the
//! rest of the VM, so disjoint shards can be updated independently: the VM's
//! broadcast operations (`restore_temp_protections`, guest page-table
//! synchronisation) iterate shards without aliasing.

use aikido_types::{AccessKind, Prot, ThreadId, Vpn};

use crate::prot_table::ThreadProtTable;
use crate::shadow_pt::{ShadowPageTable, ShadowPte};

/// Entries in each thread's direct-mapped software TLB (power of two).
/// Sized to cover a thread's private working set (a few dozen pages) so the
/// steady-state unshared access stays on the two-load fast path.
pub(crate) const TLB_ENTRIES: usize = 64;
/// A TLB slot that can never match a real page.
pub(crate) const TLB_EMPTY: (Vpn, Prot) = (Vpn::new(u64::MAX), Prot::NONE);

/// One guest thread's slice of hypervisor state (shadow page table,
/// protection table, software TLB).
#[derive(Debug)]
pub(crate) struct ThreadShard {
    pub(crate) id: ThreadId,
    pub(crate) shadow: ShadowPageTable,
    pub(crate) prot: ThreadProtTable,
    /// Direct-mapped software TLB over recent successful translations
    /// (page → effective protection). Purely an accelerator: it only serves
    /// accesses the shadow table would allow, so hits and misses produce
    /// byte-identical outcomes and charges. Flash-invalidated whenever the
    /// thread's shadow table changes.
    pub(crate) tlb: [(Vpn, Prot); TLB_ENTRIES],
}

impl ThreadShard {
    pub(crate) fn new(id: ThreadId) -> Self {
        ThreadShard {
            id,
            shadow: ShadowPageTable::new(),
            prot: ThreadProtTable::new(),
            tlb: [TLB_EMPTY; TLB_ENTRIES],
        }
    }

    #[inline]
    pub(crate) fn tlb_slot(page: Vpn) -> usize {
        (page.raw() as usize) & (TLB_ENTRIES - 1)
    }

    #[inline]
    pub(crate) fn tlb_lane(&self) -> TlbLane<'_> {
        TlbLane { entries: &self.tlb }
    }

    #[inline]
    pub(crate) fn tlb_fill(&mut self, page: Vpn, prot: Prot) {
        self.tlb[Self::tlb_slot(page)] = (page, prot);
    }

    /// Drops any cached translation of `page`. A translation of `page` can
    /// only live in its own direct-mapped slot, so this is O(1).
    #[inline]
    pub(crate) fn tlb_invalidate(&mut self, page: Vpn) {
        let slot = Self::tlb_slot(page);
        if self.tlb[slot].0 == page {
            self.tlb[slot] = TLB_EMPTY;
        }
    }

    /// Installs a shadow entry, invalidating the TLB.
    pub(crate) fn install_shadow(&mut self, page: Vpn, pte: ShadowPte) {
        self.tlb_invalidate(page);
        self.shadow.install(page, pte);
    }

    /// Invalidates a shadow entry and the TLB.
    pub(crate) fn invalidate_shadow(&mut self, page: Vpn) {
        self.tlb_invalidate(page);
        self.shadow.invalidate(page);
    }

    /// Updates a shadow entry's protection, invalidating the TLB; returns
    /// `true` if an entry existed.
    pub(crate) fn set_shadow_prot(&mut self, page: Vpn, prot: Prot) -> bool {
        self.tlb_invalidate(page);
        self.shadow.set_prot(page, prot)
    }
}

/// A read-only view of one thread's software TLB, from [`AikidoVm::tlb`].
///
/// [`AikidoVm::tlb`]: crate::AikidoVm::tlb
#[derive(Copy, Clone, Debug)]
pub struct TlbLane<'a> {
    entries: &'a [(Vpn, Prot); TLB_ENTRIES],
}

impl TlbLane<'_> {
    /// True if the lane caches a translation of `page` that allows a user
    /// access of `kind`.
    ///
    /// A hit means [`AikidoVm::touch`] by the lane's thread, at any address
    /// on `page`, with `kind`, would return a free [`TouchOutcome::Ok`] and
    /// change no state: this probe *is* `touch`'s fast path. Entries hold
    /// the protection of the thread's shadow entry at fill time, and every
    /// change to that entry drops the page's slot first.
    ///
    /// [`AikidoVm::touch`]: crate::AikidoVm::touch
    /// [`TouchOutcome::Ok`]: crate::TouchOutcome::Ok
    #[inline]
    pub fn hits(self, page: Vpn, kind: AccessKind) -> bool {
        let (cached, prot) = self.entries[ThreadShard::tlb_slot(page)];
        cached == page && prot.allows_user(kind)
    }
}

//! Hypervisor-level statistics.
//!
//! Every event that would cost a VM exit, a page fault or a page-table
//! synchronisation on real hardware is counted here; the simulator converts
//! the counts into cycles with its cost model, and the Table 2 harness reads
//! `aikido_faults_delivered` as the paper's "Segmentation Faults" column.

use serde::{Deserialize, Serialize};

/// Counters maintained by [`crate::AikidoVm`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmStats {
    /// Total VM exits (any cause).
    pub vm_exits: u64,
    /// Aikido faults delivered to the guest userspace application.
    pub aikido_faults_delivered: u64,
    /// Native faults resolved by the guest kernel (demand paging, protection
    /// upgrades).
    pub native_faults: u64,
    /// Fatal faults (SIGSEGV) observed.
    pub fatal_faults: u64,
    /// Shadow page-table entries created or updated in response to guest
    /// page-table writes or protection changes.
    pub shadow_syncs: u64,
    /// Shadow page-table misses filled in lazily.
    pub shadow_misses: u64,
    /// Hypercalls issued by the guest.
    pub hypercalls: u64,
    /// Context switches between threads of the Aikido-enabled process.
    pub context_switches: u64,
    /// Guest-kernel accesses that hit an Aikido protection and had to be
    /// emulated by the hypervisor (§3.2.6).
    pub kernel_emulations: u64,
    /// Pages temporarily unprotected for the guest kernel.
    pub temp_unprotections: u64,
    /// Times the original protections were restored after a temporary
    /// unprotection (triggered by the next userspace access).
    pub temp_reprotections: u64,
    /// Guest page-table writes intercepted.
    pub guest_pte_writes: u64,
}

impl VmStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total page faults of any kind observed by the hypervisor.
    pub fn total_faults(&self) -> u64 {
        self.aikido_faults_delivered + self.native_faults + self.fatal_faults + self.shadow_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_faults_sums_all_fault_kinds() {
        let s = VmStats {
            aikido_faults_delivered: 3,
            native_faults: 2,
            fatal_faults: 1,
            shadow_misses: 4,
            ..VmStats::new()
        };
        assert_eq!(s.total_faults(), 10);
    }
}

//! The cycle cost model.
//!
//! All calibration constants live here; the field docs of [`CostModel`]
//! say what each one charges. Every experiment records the model it used,
//! so the calibration is explicit and can be overridden — the ablation
//! benchmark does exactly that.

use serde::{Deserialize, Serialize};

/// Cycle charges for every event the simulator models.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One register-only (ALU/branch) instruction.
    pub alu_cycles: u64,
    /// One load or store executing natively.
    pub mem_cycles: u64,
    /// Native cost of a synchronisation operation (uncontended futex path).
    pub sync_native_cycles: u64,
    /// Amortised DynamoRIO overhead per dynamic instruction (code-cache
    /// dispatch, block linking).
    pub dbi_per_instr_milli_cycles: u64,
    /// Building (JITing) one basic block: fixed part.
    pub block_build_cycles: u64,
    /// Building one basic block: per-instruction part.
    pub block_build_per_instr_cycles: u64,
    /// Umbra shadow translation served by the inline memoization cache.
    pub shadow_inline_cycles: u64,
    /// Umbra shadow translation served by a thread-local cache.
    pub shadow_thread_local_cycles: u64,
    /// Umbra shadow translation requiring the full region lookup.
    pub shadow_full_cycles: u64,
    /// Redirecting an instrumented access through its mirror page (the
    /// app-to-mirror translation plus the rewritten access itself).
    pub mirror_redirect_cycles: u64,
    /// The dynamic shared/private check emitted for instrumented *indirect*
    /// memory instructions (taken on the private fast path).
    pub indirect_check_cycles: u64,
    /// One VM exit (world switch into the hypervisor and back).
    pub vm_exit_cycles: u64,
    /// Delivering a page fault to the guest userspace handler (signal frame,
    /// handler, sigreturn) on top of the VM exit.
    pub fault_delivery_cycles: u64,
    /// Hypervisor work to synchronise one shadow page-table entry.
    pub shadow_sync_cycles: u64,
    /// Guest-kernel demand-paging fault (native fault, no Aikido involvement).
    pub native_fault_cycles: u64,
    /// One hypercall from guest userspace.
    pub hypercall_cycles: u64,
    /// Sharing-detector bookkeeping per handled fault (page-state transition,
    /// protection requests), excluding the hypercalls themselves.
    pub sharing_handler_cycles: u64,
    /// Extra serialisation cost multiplier per additional thread applied to
    /// analysis checks on *shared* data (models contention on analysis
    /// metadata; this is what makes overheads grow with thread count as in
    /// Table 1).
    pub contention_per_thread: f64,
    /// Guest context switch intercepted by the hypervisor.
    pub context_switch_cycles: u64,
    /// Per-thread cost of the TLB shootdown triggered by every protection
    /// change (the hypervisor must invalidate the mapping on every core that
    /// may have it cached); charged per protection hypercall and scaled by
    /// the thread count, which is what erodes Aikido's advantage on
    /// fault-heavy, highly shared benchmarks at high thread counts
    /// (fluidanimate in Table 1).
    pub tlb_shootdown_per_thread_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu_cycles: 1,
            mem_cycles: 1,
            sync_native_cycles: 60,
            dbi_per_instr_milli_cycles: 2_200,
            block_build_cycles: 40,
            block_build_per_instr_cycles: 6,
            shadow_inline_cycles: 4,
            shadow_thread_local_cycles: 14,
            shadow_full_cycles: 40,
            mirror_redirect_cycles: 20,
            indirect_check_cycles: 3,
            vm_exit_cycles: 60,
            fault_delivery_cycles: 220,
            shadow_sync_cycles: 20,
            native_fault_cycles: 90,
            hypercall_cycles: 45,
            sharing_handler_cycles: 50,
            contention_per_thread: 0.16,
            context_switch_cycles: 90,
            tlb_shootdown_per_thread_cycles: 60,
        }
    }
}

impl CostModel {
    /// The amortised DBI overhead for `instrs` dynamic instructions.
    ///
    /// The block kernels do not call this per block: a run computes
    /// `dbi_overhead(1)` once, with `alu_cycles + dbi_overhead(1)` and
    /// `mem_cycles + dbi_overhead(1)`, and adds those constants per
    /// instruction. The scalar reference executor still calls it.
    pub fn dbi_overhead(&self, instrs: u64) -> u64 {
        (instrs * self.dbi_per_instr_milli_cycles) / 1_000
    }

    /// Cost of building a basic block of `instrs` instructions.
    pub fn block_build(&self, instrs: u64) -> u64 {
        self.block_build_cycles + instrs * self.block_build_per_instr_cycles
    }

    /// Cost of a shadow translation served at the given Umbra cache level.
    pub fn shadow_translation(&self, level: aikido_shadow::CacheLevel) -> u64 {
        match level {
            aikido_shadow::CacheLevel::Inline => self.shadow_inline_cycles,
            aikido_shadow::CacheLevel::ThreadLocal => self.shadow_thread_local_cycles,
            aikido_shadow::CacheLevel::Full => self.shadow_full_cycles,
        }
    }

    /// The contention multiplier applied to analysis checks on shared data
    /// when `threads` threads are running.
    pub fn contention_factor(&self, threads: u32) -> f64 {
        1.0 + self.contention_per_thread * (threads.saturating_sub(1) as f64)
    }

    /// Cost charged for the hypervisor work reported in a [`aikido_vm::Charges`].
    pub fn vm_charges(&self, charges: &aikido_vm::Charges) -> u64 {
        charges.vm_exits as u64 * self.vm_exit_cycles
            + charges.shadow_syncs as u64 * self.shadow_sync_cycles
            + charges.native_faults as u64 * self.native_fault_cycles
            + charges.shadow_misses as u64 * self.shadow_sync_cycles
            + charges.temp_reprotections as u64 * self.shadow_sync_cycles
    }

    /// Cost of one Aikido fault delivered to userspace and handled by the
    /// sharing detector (fault delivery + handler bookkeeping +
    /// `hypercalls` protection hypercalls, each with a TLB shootdown across
    /// `threads` cores + rebuilding a block of `rebuilt_instrs` instructions
    /// if an instrumentation decision was taken).
    pub fn aikido_fault(&self, hypercalls: u64, threads: u32, rebuilt_instrs: u64) -> u64 {
        self.fault_delivery_cycles
            + self.sharing_handler_cycles
            + hypercalls * self.hypercall_cycles
            + hypercalls * threads as u64 * self.tlb_shootdown_per_thread_cycles
            + if rebuilt_instrs > 0 {
                self.block_build(rebuilt_instrs)
            } else {
                0
            }
    }

    /// A cost model with free hypervisor/fault machinery — used by the
    /// ablation to isolate the cost of page-protection traps.
    pub fn with_free_faults(mut self) -> Self {
        self.vm_exit_cycles = 0;
        self.fault_delivery_cycles = 0;
        self.hypercall_cycles = 0;
        self.sharing_handler_cycles = 0;
        self.shadow_sync_cycles = 0;
        self.native_fault_cycles = 0;
        self.tlb_shootdown_per_thread_cycles = 0;
        self
    }

    /// A cost model without the indirect-instruction private fast path (every
    /// instrumented access pays translation + redirect even when private) —
    /// used by the ablation.
    pub fn without_indirect_fast_path(mut self) -> Self {
        // Charge the full translation + redirect instead of the cheap check;
        // the simulator consults `indirect_check_cycles` only on the private
        // fast path, so making it as expensive as a redirect models removing
        // the branch.
        self.indirect_check_cycles = self.shadow_inline_cycles + self.mirror_redirect_cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_shadow::CacheLevel;

    #[test]
    fn dbi_overhead_is_amortised_per_instruction() {
        let c = CostModel::default();
        assert_eq!(c.dbi_overhead(0), 0);
        assert_eq!(c.dbi_overhead(1_000), c.dbi_per_instr_milli_cycles);
        assert!(c.dbi_overhead(10) < c.dbi_per_instr_milli_cycles);
    }

    #[test]
    fn block_build_scales_with_size() {
        let c = CostModel::default();
        assert!(c.block_build(10) > c.block_build(1));
        assert_eq!(c.block_build(0), c.block_build_cycles);
    }

    #[test]
    fn shadow_translation_costs_increase_with_cache_level() {
        let c = CostModel::default();
        assert!(
            c.shadow_translation(CacheLevel::Inline)
                < c.shadow_translation(CacheLevel::ThreadLocal)
        );
        assert!(
            c.shadow_translation(CacheLevel::ThreadLocal) < c.shadow_translation(CacheLevel::Full)
        );
    }

    #[test]
    fn contention_grows_with_threads() {
        let c = CostModel::default();
        assert_eq!(c.contention_factor(1), 1.0);
        assert!(c.contention_factor(8) > c.contention_factor(2));
    }

    #[test]
    fn vm_charges_cost_reflects_events() {
        let c = CostModel::default();
        let free = aikido_vm::Charges::default();
        assert_eq!(c.vm_charges(&free), 0);
        let charges = aikido_vm::Charges {
            vm_exits: 1,
            native_faults: 1,
            ..aikido_vm::Charges::default()
        };
        assert_eq!(
            c.vm_charges(&charges),
            c.vm_exit_cycles + c.native_fault_cycles
        );
    }

    #[test]
    fn fault_cost_includes_rebuild_only_when_requested() {
        let c = CostModel::default();
        let without = c.aikido_fault(2, 8, 0);
        let with = c.aikido_fault(2, 8, 10);
        assert_eq!(with - without, c.block_build(10));
    }

    #[test]
    fn fault_cost_grows_with_thread_count() {
        let c = CostModel::default();
        assert!(c.aikido_fault(2, 8, 0) > c.aikido_fault(2, 2, 0));
    }

    #[test]
    fn ablation_variants_modify_the_right_knobs() {
        let free = CostModel::default().with_free_faults();
        assert_eq!(free.vm_exit_cycles, 0);
        assert_eq!(free.fault_delivery_cycles, 0);
        assert_eq!(free.alu_cycles, 1);
        let no_fast = CostModel::default().without_indirect_fast_path();
        assert!(no_fast.indirect_check_cycles > CostModel::default().indirect_check_cycles);
    }
}

//! Run reports: everything a single simulated execution measured.

use serde::{Deserialize, Serialize};

use aikido_dbi::CodeCacheStats;
use aikido_fasttrack::FastTrackStats;
use aikido_sharing::SharingStats;
use aikido_types::AnalysisReport;
use aikido_vm::VmStats;

/// Dynamic counts gathered during a run — the quantities behind the paper's
/// Table 2 and Figure 6.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCounts {
    /// Dynamic instructions executed (memory + compute + sync).
    pub dynamic_instrs: u64,
    /// Dynamic memory-referencing instructions executed (Table 2, column 1).
    pub mem_accesses: u64,
    /// Dynamic executions of instructions that carry instrumentation
    /// (Table 2, column 2). Under full instrumentation this equals
    /// `mem_accesses`.
    pub instrumented_accesses: u64,
    /// Accesses that actually targeted a shared page (Table 2, column 3;
    /// Figure 6 is this divided by `mem_accesses`).
    pub shared_accesses: u64,
    /// Aikido page faults delivered and handled (Table 2, column 4).
    pub segfaults: u64,
    /// Synchronisation operations executed.
    pub sync_ops: u64,
    /// Basic-block executions dispatched through the code cache.
    pub block_execs: u64,
}

impl RunCounts {
    /// Fraction of memory accesses that targeted shared pages (Figure 6).
    pub fn shared_access_fraction(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.shared_accesses as f64 / self.mem_accesses as f64
        }
    }

    /// Fraction of memory accesses executed by instrumented instructions.
    pub fn instrumented_fraction(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.instrumented_accesses as f64 / self.mem_accesses as f64
        }
    }
}

/// The result of simulating one workload in one mode.
///
/// Reports compare with `==` field-for-field; the equivalence suites lean on
/// this (plus the serialized JSON) to prove the batched kernels, packed
/// shadow words and checkpoint/resume byte-identical to their references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Execution mode, as a string (`"native"`, `"full"`, `"aikido"`).
    pub mode: String,
    /// Number of threads simulated.
    pub threads: u32,
    /// Total cycles charged across all threads.
    pub cycles: u64,
    /// Dynamic counts.
    pub counts: RunCounts,
    /// Hypervisor statistics (zeroed for modes that do not use the VM).
    pub vm: VmStats,
    /// Code-cache statistics (zeroed for native mode).
    pub code_cache: CodeCacheStats,
    /// Sharing-detector statistics (zeroed unless running under Aikido).
    pub sharing: SharingStats,
    /// Analysis (FastTrack) statistics, if a FastTrack analysis ran.
    pub fasttrack: Option<FastTrackStats>,
    /// Reports produced by the analysis (data races found).
    pub races: Vec<AnalysisReport>,
}

impl RunReport {
    /// Slowdown of this run relative to `baseline` (typically the native
    /// run): ratio of cycle counts.
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            self.cycles as f64 / baseline.cycles as f64
        }
    }

    /// Number of distinct races reported.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> RunReport {
        RunReport {
            workload: "w".into(),
            mode: "native".into(),
            threads: 2,
            cycles,
            counts: RunCounts::default(),
            vm: VmStats::default(),
            code_cache: CodeCacheStats::default(),
            sharing: SharingStats::default(),
            fasttrack: None,
            races: Vec::new(),
        }
    }

    #[test]
    fn slowdown_is_a_cycle_ratio() {
        let base = report(100);
        let slow = report(450);
        assert!((slow.slowdown_vs(&base) - 4.5).abs() < 1e-12);
        assert_eq!(slow.slowdown_vs(&report(0)), 0.0);
    }

    #[test]
    fn fractions_handle_zero_accesses() {
        let c = RunCounts::default();
        assert_eq!(c.shared_access_fraction(), 0.0);
        assert_eq!(c.instrumented_fraction(), 0.0);
    }

    #[test]
    fn fractions_divide_by_total_accesses() {
        let c = RunCounts {
            mem_accesses: 200,
            instrumented_accesses: 50,
            shared_accesses: 40,
            ..RunCounts::default()
        };
        assert!((c.shared_access_fraction() - 0.2).abs() < 1e-12);
        assert!((c.instrumented_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report(10);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"cycles\":10"));
    }
}

//! Aikido: accelerating shared data dynamic analyses — the public facade of
//! the reproduction of Olszewski et al., ASPLOS 2012.
//!
//! Aikido speeds up dynamic analyses that only care about *shared* data (race
//! detectors, atomicity checkers, sharing profilers) by detecting shared
//! pages with per-thread page protection — exposed to unmodified applications
//! by a custom hypervisor — and instrumenting only the instructions that
//! access them. Everything else runs at near-native speed under dynamic
//! binary instrumentation.
//!
//! This crate is the entry point a downstream user programs against. It
//! re-exports the component crates and offers a small, batteries-included API:
//!
//! * [`AikidoSystem`] — configure a simulator (cost model, scheduling
//!   quantum) and run workloads under [`Mode::Native`],
//!   [`Mode::FullInstrumentation`] or [`Mode::Aikido`], with FastTrack or a
//!   custom [`SharedDataAnalysis`].
//! * [`run_parsec_benchmark`] — the paper's experiment in one call: the
//!   native / FastTrack / Aikido-FastTrack triple for one of the ten PARSEC
//!   presets.
//! * [`prelude`] — the types needed by typical users.
//!
//! # Quick start
//!
//! ```
//! use aikido::prelude::*;
//!
//! // Build the workload the paper's blackscholes preset describes (scaled
//! // down so the doctest stays fast) and compare the three configurations.
//! let spec = WorkloadSpec::parsec("blackscholes").unwrap().scaled(0.05);
//! let comparison = AikidoSystem::new().compare_spec(&spec);
//!
//! // Aikido instruments a subset of accesses yet finds the same races
//! // (none, for this race-free benchmark).
//! assert!(comparison.aikido.counts.instrumented_accesses
//!     <= comparison.full.counts.instrumented_accesses);
//! assert_eq!(comparison.aikido.race_count(), comparison.full.race_count());
//! ```
//!
//! # Writing your own shared data analysis
//!
//! Implement [`SharedDataAnalysis`] and hand it to
//! [`AikidoSystem::run_with_analysis`]; the Aikido pipeline will deliver only
//! the accesses that touch shared pages, plus every synchronisation event.
//!
//! ```
//! use aikido::prelude::*;
//!
//! #[derive(Default, Debug)]
//! struct SharingProfiler {
//!     shared_writes: u64,
//! }
//!
//! impl SharedDataAnalysis for SharingProfiler {
//!     fn name(&self) -> &'static str {
//!         "sharing-profiler"
//!     }
//!     fn on_access(&mut self, cx: AccessContext) {
//!         if cx.kind.is_write() {
//!             self.shared_writes += 1;
//!         }
//!     }
//!     fn reports(&self) -> Vec<AnalysisReport> {
//!         Vec::new()
//!     }
//! }
//!
//! let spec = aikido::workloads::producer_consumer_workload(4).scaled(0.2);
//! let workload = Workload::generate(&spec);
//! let mut profiler = SharingProfiler::default();
//! AikidoSystem::new().run_with_analysis(&workload, Mode::Aikido, &mut profiler);
//! assert!(profiler.shared_writes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analyses;

/// The fundamental shared types (re-export of `aikido-types`).
pub use aikido_types as types;

/// The AikidoVM hypervisor model (re-export of `aikido-vm`).
pub use aikido_vm as vm;

/// The Umbra-style shadow memory (re-export of `aikido-shadow`).
pub use aikido_shadow as shadow;

/// The DynamoRIO-style DBI engine (re-export of `aikido-dbi`).
pub use aikido_dbi as dbi;

/// The FastTrack race detector (re-export of `aikido-fasttrack`).
pub use aikido_fasttrack as fasttrack;

/// The AikidoSD sharing detector (re-export of `aikido-sharing`).
pub use aikido_sharing as sharing;

/// Synthetic PARSEC-calibrated workloads (re-export of `aikido-workloads`).
pub use aikido_workloads as workloads;

/// The execution engine and cost model (re-export of `aikido-sim`).
pub use aikido_sim as sim;

/// The checkpoint/restore snapshot plane: versioned, checksummed state
/// images and the fault-injection plans that attack them (re-export of
/// `aikido-snapshot`).
pub use aikido_snapshot as snapshot;

/// The static pre-analysis and its runtime audit oracle (re-export of
/// `aikido-staticcheck`).
pub use aikido_staticcheck as staticcheck;

pub use aikido_fasttrack::{FastTrack, FastTrackConfig};
pub use aikido_sim::{
    CheckpointOutcome, Comparison, CostModel, FaultPlan, Mode, RunCounts, RunReport,
    ShardOccupancy, SimConfig, SimConfigError, SimError, Simulator, Snapshot, SnapshotError,
};
pub use aikido_staticcheck::{StaticAudit, StaticReport};
pub use aikido_types::{
    AccessContext, AccessKind, Addr, AnalysisReport, Prot, ReportKind, SharedDataAnalysis,
    ThreadId, Vpn,
};
pub use aikido_workloads::{Workload, WorkloadSpec, PARSEC_BENCHMARKS};

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use crate::{
        AccessContext, AccessKind, Addr, AikidoSystem, AnalysisReport, CheckpointOutcome,
        Comparison, CostModel, FastTrack, Mode, ReportKind, RunReport, SharedDataAnalysis,
        SimConfig, SimConfigError, SimError, Simulator, Snapshot, SnapshotError, ThreadId,
        Workload, WorkloadSpec,
    };
}

/// A configured Aikido system: the simulator plus its cost model, ready to
/// run workloads in any mode.
///
/// This is a thin, non-consuming builder over [`Simulator`]; see the
/// crate-level examples.
#[derive(Debug, Clone, Default)]
pub struct AikidoSystem {
    simulator: Simulator,
}

impl AikidoSystem {
    /// Creates a system with the default (paper-calibrated) cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a system with a custom cost model.
    pub fn with_cost_model(cost: CostModel) -> Self {
        AikidoSystem {
            simulator: Simulator::new(cost),
        }
    }

    /// Creates a system from a validated [`SimConfig`] (see
    /// [`Simulator::from_config`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] naming the first invalid field.
    pub fn from_config(config: SimConfig) -> Result<Self, SimConfigError> {
        Ok(AikidoSystem {
            simulator: Simulator::from_config(config)?,
        })
    }

    /// Sets the scheduling quantum (basic-block executions per thread before
    /// the simulated scheduler switches threads).
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.simulator = self.simulator.clone().with_quantum(quantum);
        self
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// Runs `workload` in `mode` with the FastTrack race detector.
    pub fn run(&self, workload: &Workload, mode: Mode) -> RunReport {
        self.simulator.run(workload, mode)
    }

    /// Runs `workload` in `mode` with a custom analysis.
    pub fn run_with_analysis<A: SharedDataAnalysis>(
        &self,
        workload: &Workload,
        mode: Mode,
        analysis: &mut A,
    ) -> RunReport {
        self.simulator.run_with_analysis(workload, mode, analysis)
    }

    /// Runs `workload` in `mode`, pausing every `SimConfig::checkpoint_every`
    /// block executions to serialize, re-validate and restore the full
    /// simulation state (see [`Simulator::run_checkpointed`]). Without a
    /// configured policy this is an ordinary run.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a checkpoint image fails its integrity
    /// validation.
    pub fn run_checkpointed(&self, workload: &Workload, mode: Mode) -> Result<RunReport, SimError> {
        self.simulator.run_checkpointed(workload, mode)
    }

    /// Runs `workload` in `mode` until `after_blocks` block executions have
    /// retired, then pauses and serializes the full state (see
    /// [`Simulator::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the run fails before reaching the target.
    pub fn checkpoint(
        &self,
        workload: &Workload,
        mode: Mode,
        after_blocks: u64,
    ) -> Result<CheckpointOutcome, SimError> {
        self.simulator.checkpoint(workload, mode, after_blocks)
    }

    /// Resumes a checkpointed run to completion; the final report is
    /// byte-identical to the uninterrupted run's (see [`Simulator::resume`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] naming the failing section and offset if the
    /// snapshot is corrupt or belongs to a different configuration.
    pub fn resume(&self, workload: &Workload, snapshot: &Snapshot) -> Result<RunReport, SimError> {
        self.simulator.resume(workload, snapshot)
    }

    /// Runs the native / FastTrack / Aikido-FastTrack triple for `workload`.
    pub fn compare(&self, workload: &Workload) -> Comparison {
        self.simulator.compare(workload)
    }

    /// Generates the workload described by `spec` and runs the comparison
    /// triple.
    pub fn compare_spec(&self, spec: &WorkloadSpec) -> Comparison {
        let workload = Workload::generate(spec);
        self.compare(&workload)
    }
}

/// Runs the paper's core experiment for one PARSEC benchmark preset at the
/// given workload scale (1.0 = the default calibrated size), returning the
/// native / FastTrack / Aikido-FastTrack comparison.
///
/// # Errors
///
/// Returns an error if `name` is not one of [`PARSEC_BENCHMARKS`].
pub fn run_parsec_benchmark(name: &str, scale: f64) -> Result<Comparison, types::AikidoError> {
    let spec = WorkloadSpec::parsec(name).ok_or_else(|| types::AikidoError::InvalidConfig {
        reason: format!("unknown PARSEC benchmark '{name}'"),
    })?;
    Ok(AikidoSystem::new().compare_spec(&spec.scaled(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_builder_configures_quantum_and_cost_model() {
        let system = AikidoSystem::with_cost_model(CostModel::default()).quantum(2);
        let spec = WorkloadSpec::parsec("canneal")
            .unwrap()
            .scaled(0.02)
            .with_threads(2);
        let report = system.run(&Workload::generate(&spec), Mode::Aikido);
        assert!(report.cycles > 0);
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn run_parsec_benchmark_rejects_unknown_names() {
        assert!(run_parsec_benchmark("doesnotexist", 1.0).is_err());
    }

    #[test]
    fn run_parsec_benchmark_produces_the_three_reports() {
        let cmp = run_parsec_benchmark("blackscholes", 0.02).unwrap();
        assert_eq!(cmp.native.mode, "native");
        assert_eq!(cmp.full.mode, "full");
        assert_eq!(cmp.aikido.mode, "aikido");
        assert!(cmp.full_slowdown() > 1.0);
    }
}

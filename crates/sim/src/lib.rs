//! The execution engine that ties the Aikido stack together and reproduces
//! the paper's measurements.
//!
//! A [`Simulator`] takes a workload from [`aikido_workloads`], an execution
//! [`Mode`] and a [`CostModel`], drives every thread's operation trace through
//! the appropriate pipeline, and produces a [`RunReport`]:
//!
//! * [`Mode::Native`] — the uninstrumented application: only native cycles.
//!   This is the denominator of every slowdown the paper reports.
//! * [`Mode::FullInstrumentation`] — the conventional shared data analysis:
//!   DynamoRIO dispatch + Umbra shadow translation + the analysis check on
//!   *every* memory access (the paper's "FastTrack" bars in Figure 5).
//! * [`Mode::Aikido`] — the full Aikido stack: the AikidoVM hypervisor
//!   provides per-thread page protection, AikidoSD turns protection faults
//!   into a private/shared page classification, only instructions that touch
//!   shared pages are instrumented (flush + re-JIT), their accesses are
//!   redirected through mirror pages, and everything else runs at near-native
//!   speed under the DBI engine.
//!
//! Wall-clock time is modelled as cycles: every event that costs time on real
//! hardware (instruction execution, analysis checks, shadow translations, VM
//! exits, page faults, block rebuilds, lock contention on analysis metadata)
//! is charged through the [`CostModel`]. Slowdowns are ratios of cycle
//! counts, which is exactly how the paper normalises its measurements, so the
//! *shape* of the results (who wins, by how much, where the crossovers are)
//! carries over even though the absolute constants are calibrated rather than
//! measured on a Xeon X7550.
//!
//! # Examples
//!
//! ```
//! use aikido_sim::{CostModel, Mode, Simulator};
//! use aikido_workloads::{Workload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parsec("blackscholes").unwrap().scaled(0.02);
//! let workload = Workload::generate(&spec);
//! let native = Simulator::new(CostModel::default()).run(&workload, Mode::Native);
//! let aikido = Simulator::new(CostModel::default()).run(&workload, Mode::Aikido);
//! assert!(aikido.cycles > native.cycles);
//! assert!(aikido.slowdown_vs(&native) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod cost;
mod engine;
mod epoch;
mod report;

pub use aikido_snapshot::{FaultPlan, Snapshot, SnapshotError};
pub use config::{SimConfig, SimConfigError};
pub use cost::CostModel;
pub use engine::{CheckpointOutcome, Comparison, Mode, ShardOccupancy, SimError, Simulator};
pub use report::{RunCounts, RunReport};

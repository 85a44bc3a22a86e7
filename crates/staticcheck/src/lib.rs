//! Static guest-program pre-analysis for the Aikido reproduction: an
//! escape-and-lockset verifier whose sharing proofs are audited against
//! every run.
//!
//! Aikido's dynamic pipeline discovers sharing by fault: every instruction
//! is born uninstrumented, and only instructions caught touching a shared
//! page get instrumentation (§3). This crate adds the complementary *static*
//! direction: before the first instruction executes, it analyses the
//! workload's static [`Program`](aikido_dbi::Program), its
//! [`MemoryLayout`](aikido_workloads::MemoryLayout) geometry and its
//! declarative [`ScenarioModel`](aikido_workloads::ScenarioModel) (the
//! reproduction's stand-in for debug info and symbol tables) and proves,
//! per basic block:
//!
//! * **footprints** — which memory areas each block's reads and writes can
//!   target, with direct addresses resolved to concrete pages
//!   ([`AccessSummary`]);
//! * **escape** — which blocks only ever touch memory private to the
//!   executing thread ([`BlockClass::ProvenPrivate`]), given the region
//!   geometry is sound (pairwise-disjoint regions);
//! * **static lockset** — which shared blocks follow Eraser's
//!   consistent-lock discipline, verified against the layout's lock slices
//!   ([`BlockClass::LockProtected`]).
//!
//! The result is a serialisable, deterministic [`StaticReport`] with
//! per-block may-share masks and [`CoverageStats`]. The simulator does not
//! consult it: Aikido finds sharing by itself, so the report cannot change a
//! run. Its one consumer is the audit.
//!
//! Because proofs come from the scenario model and the geometry — never from
//! the workload generator's trusted block labels — the claims are worth
//! auditing: [`StaticAudit`] wraps any
//! [`SharedDataAnalysis`](aikido_types::SharedDataAnalysis) and checks every
//! delivered access against the proven-private and unreachable claims,
//! counting (never acting on) violations. The audit suites run with the
//! oracle installed; the mutation tests inject deliberately unsound claims
//! and assert the oracle catches each one.
//!
//! # Examples
//!
//! ```
//! use aikido_staticcheck::{BlockClass, StaticReport};
//! use aikido_workloads::{Workload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parsec("blackscholes").unwrap().scaled(0.02);
//! let workload = Workload::generate(&spec);
//! let report = StaticReport::for_workload(&workload);
//!
//! // Every generator-labeled private block is proven independently.
//! assert!(workload
//!     .private_block_ids()
//!     .iter()
//!     .all(|&b| report.is_proven_private(b)));
//! // Claims cover proven-private and unreachable blocks; the audit checks them.
//! let claims = report.no_shared_access_claims();
//! assert_eq!(claims.len(), workload.program().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod audit;
mod report;

pub use audit::StaticAudit;
pub use report::{
    AccessSummary, BlockClass, CoverageStats, FootprintSet, StaticReport, MAX_DIRECT_PAGES,
};

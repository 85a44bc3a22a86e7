//! Multi-tenant simulation service: the serving layer over the Aikido
//! reproduction's re-entrant [`Simulator`](aikido_sim::Simulator).
//!
//! The engine itself is safe to run many-at-once (multiple `Simulator`
//! instances on concurrent threads produce byte-identical reports); this
//! crate adds an admission queue with tenant budgets and a worker pool
//! around that property. The request lifecycle is
//!
//! ```text
//!            admit                           run                  aggregate
//! RunRequest ──────► RunTicket ─► FIFO queue ──────► RunOutcome ─────────► FleetReport
//!      │  validate spec+config              bounded scoped        run-id order
//!      │  queue / tenant caps, quota        worker fleet,
//!      └─► AdmitError (structured           Simulator::from_config
//!          rejection, never a               per run
//!          panic or hang)
//! ```
//!
//! * [`RunRequest`] — the unified request API: tenant, workload spec,
//!   mode, and a [`SimConfig`](aikido_sim::SimConfig) embedded verbatim.
//! * [`SimService`] — deterministic admission against per-tenant
//!   [`TenantBudget`]s (backlog, outstanding, cumulative access quota;
//!   structured [`AdmitError`] refusals) into one FIFO queue, plus a bounded
//!   worker fleet (`std::thread::scope` + bounded mpsc): `submit` requests,
//!   `drain` the queue, read the [`FleetReport`].
//! * [`FleetReport`] — per-run reports (each byte-identical to a direct
//!   `Simulator` run of the same request) plus queue depth, per-tenant
//!   spend and the rejection log. Deterministic: timestamps are positions
//!   in the submission sequence, outcomes are applied in run-id order.
//!
//! The `loadgen` harness in `aikido-bench` drives hundreds of concurrent
//! scaled-down runs through a service and `cmp`s every delivered report
//! against a direct run; the `service_equivalence` integration suite pins
//! the same property in-tree.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod budget;
mod control;
mod fleet;
mod report;
mod request;

pub use budget::{AdmitError, TenantBudget};
pub use control::{RunTicket, ServiceConfig};
pub use fleet::SimService;
pub use report::{FleetReport, QueueMetrics, RejectionRecord, RunOutcome, TenantUsage};
pub use request::RunRequest;

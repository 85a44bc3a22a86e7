//! Fleet-level reporting: per-run outcomes plus aggregate metrics, all
//! deterministic and serializable.

use aikido_sim::RunReport;
use serde::Serialize;

/// Admission and spend accounting for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantUsage {
    /// The tenant.
    pub tenant: String,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests refused (every refusal also appears in
    /// [`FleetReport::rejections`]).
    pub rejected: u64,
    /// Admitted runs completed successfully.
    pub completed: u64,
    /// Admitted runs that finished with an error.
    pub failed: u64,
    /// Simulated accesses charged against the quota so far.
    pub spent_accesses: u64,
    /// The tenant's lifetime access quota.
    pub access_quota: u64,
}

/// Global queue statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueueMetrics {
    /// Configured queue capacity.
    pub capacity: usize,
    /// Requests ever submitted (admitted + rejected).
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Highest queue depth ever observed.
    pub peak_depth: usize,
    /// Current queue depth.
    pub depth: usize,
}

/// One refused request: who, when (logical time), and the structured reason.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RejectionRecord {
    /// The refused tenant.
    pub tenant: String,
    /// Logical timestamp of the refusal: the request's position in the
    /// submission sequence.
    pub at: u64,
    /// Machine-readable category (`AdmitError::kind`).
    pub kind: String,
    /// Human-readable reason (`AdmitError`'s display form).
    pub reason: String,
}

/// The delivered result of one admitted run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunOutcome {
    /// Fleet-wide run id (admission order).
    pub run_id: u64,
    /// The tenant billed for the run.
    pub tenant: String,
    /// Workload name (from the spec).
    pub workload: String,
    /// Execution mode label.
    pub mode: String,
    /// Logical admission timestamp.
    pub admitted_at: u64,
    /// The simulation report — byte-identical to a direct
    /// `Simulator::from_config` run of the same request. `None` on failure.
    pub report: Option<RunReport>,
    /// The failure, when the run did not complete.
    pub error: Option<String>,
}

/// Everything the service knows, as one deterministic serializable document:
/// per-run outcomes (in run-id order), per-tenant spend, queue statistics
/// and the full rejection log. Two services fed the
/// same request sequence serialize byte-identical fleet reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantUsage>,
    /// Global queue statistics.
    pub queue: QueueMetrics,
    /// Every refusal, in submission order.
    pub rejections: Vec<RejectionRecord>,
    /// Every delivered run, in run-id order.
    pub runs: Vec<RunOutcome>,
}

impl FleetReport {
    /// The outcomes that completed successfully.
    pub fn successes(&self) -> impl Iterator<Item = &RunOutcome> {
        self.runs.iter().filter(|r| r.report.is_some())
    }

    /// The outcomes that failed.
    pub fn failures(&self) -> impl Iterator<Item = &RunOutcome> {
        self.runs.iter().filter(|r| r.error.is_some())
    }
}

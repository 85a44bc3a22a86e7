//! The worker fleet: bounded, scoped execution of queued runs.
//!
//! The one place the workspace runs simulations in parallel, at the grain
//! where that pays: whole runs. A fixed pool of scoped workers
//! (`std::thread::scope` plus a bounded `sync_channel`) pulls queued runs
//! off a bounded work lane, executes each with a per-run
//! [`Simulator::from_config`], and sends outcomes back on an unbounded
//! results lane. The main thread finishes sending before it starts
//! collecting and drops its sender first, so the drain can neither deadlock
//! nor leak a worker. Outcomes are sorted by run id before they are applied
//! to the control plane, so the fleet report is byte-identical regardless of
//! how the OS scheduled the workers — the simulator's own re-entrancy
//! (multiple instances on concurrent threads produce byte-identical reports)
//! does the rest.

use std::sync::mpsc;
use std::sync::Mutex;

use aikido_sim::Simulator;
use aikido_workloads::Workload;

use crate::budget::{AdmitError, TenantBudget};
use crate::control::{ControlPlane, QueuedRun, RunTicket, ServiceConfig};
use crate::report::{FleetReport, RunOutcome};
use crate::request::RunRequest;

/// The long-running multi-tenant simulation service: an admission queue
/// with tenant budgets, fronted by `submit` and executed by a bounded worker
/// fleet on `drain`.
///
/// ```
/// use aikido_serve::{RunRequest, ServiceConfig, SimService};
/// use aikido_sim::{Mode, SimConfig};
/// use aikido_workloads::WorkloadSpec;
///
/// let mut service = SimService::new(ServiceConfig::default()).unwrap();
/// let spec = WorkloadSpec::parsec("blackscholes").unwrap();
/// let request = RunRequest::new("acme", spec, Mode::Aikido)
///     .with_config(SimConfig::default().with_scale(0.02));
/// service.submit(request).unwrap();
/// let report = service.drain();
/// assert_eq!(report.runs.len(), 1);
/// assert!(report.runs[0].report.is_some());
/// ```
#[derive(Debug)]
pub struct SimService {
    plane: ControlPlane,
}

impl SimService {
    /// An empty service.
    ///
    /// # Errors
    ///
    /// Returns the validation failure if `config` is invalid.
    pub fn new(config: ServiceConfig) -> Result<Self, String> {
        Ok(SimService {
            plane: ControlPlane::new(config)?,
        })
    }

    /// Installs an explicit budget for `tenant` (otherwise the default
    /// budget applies on first contact). Replaces any previous budget;
    /// accounting state is kept.
    pub fn set_budget(&mut self, tenant: impl Into<String>, budget: TenantBudget) {
        self.plane.set_budget(tenant, budget);
    }

    /// Admits or refuses a request. Admission validates the request, checks
    /// the global queue, the tenant's backlog and outstanding caps, and the
    /// tenant's access quota (charged here, at admission), then queues the
    /// run.
    ///
    /// # Errors
    ///
    /// A structured [`AdmitError`], also recorded in the rejection log;
    /// never a panic, never a hang.
    pub fn submit(&mut self, request: RunRequest) -> Result<RunTicket, AdmitError> {
        self.plane.submit(request)
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.plane.queue_depth()
    }

    /// Executes every queued run on the worker fleet, applies the outcomes
    /// to the control plane in run-id order, and returns the aggregated
    /// [`FleetReport`]. Queued and drained batches may alternate; the report
    /// accumulates across drains.
    pub fn drain(&mut self) -> FleetReport {
        let mut jobs = Vec::new();
        while let Some(run) = self.plane.take_queued() {
            jobs.push(run);
        }
        let workers = self.plane.config().fleet_workers.min(jobs.len()).max(1);
        let mut outcomes = execute(jobs, workers);
        outcomes.sort_by_key(|o| o.run_id);
        for outcome in outcomes {
            self.plane.complete(outcome);
        }
        self.plane.report()
    }

    /// The aggregated report without executing anything.
    pub fn report(&self) -> FleetReport {
        self.plane.report()
    }
}

/// Runs `jobs` on `workers` scoped threads and returns the outcomes in
/// arbitrary order.
fn execute(jobs: Vec<QueuedRun>, workers: usize) -> Vec<RunOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let total = jobs.len();
    // Bounded work lane: admission already capped the batch, the bound just
    // keeps the hand-off cheap. Results are unbounded so a worker never
    // blocks on a slow collector.
    let (work_tx, work_rx) = mpsc::sync_channel::<QueuedRun>(workers * 2);
    let work_rx = Mutex::new(work_rx);
    let (result_tx, result_rx) = mpsc::channel::<RunOutcome>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let work_rx = &work_rx;
            let result_tx = result_tx.clone();
            scope.spawn(move || loop {
                // Hold the lock only for the receive, not the run.
                let job = match work_rx.lock() {
                    Ok(rx) => rx.recv(),
                    Err(_) => return,
                };
                match job {
                    Ok(job) => {
                        let outcome = run_one(job);
                        if result_tx.send(outcome).is_err() {
                            return;
                        }
                    }
                    Err(_) => return, // Work lane closed: batch done.
                }
            });
        }
        for job in jobs {
            work_tx
                .send(job)
                .expect("workers outlive the send loop inside the scope");
        }
        drop(work_tx);
    });
    drop(result_tx);
    let outcomes: Vec<RunOutcome> = result_rx.into_iter().collect();
    assert_eq!(
        outcomes.len(),
        total,
        "every queued run must produce exactly one outcome"
    );
    outcomes
}

/// Executes one admitted run: generate the scaled workload, build the
/// simulator from the request's config verbatim, run, and wrap the result.
/// A `SimError` becomes `RunOutcome.error`. A panic is not caught: it ends
/// the drain (release builds abort on panic).
fn run_one(job: QueuedRun) -> RunOutcome {
    let QueuedRun { ticket, request } = job;
    let mut outcome = RunOutcome {
        run_id: ticket.run_id,
        tenant: ticket.tenant,
        workload: request.spec.name.clone(),
        mode: request.mode.label().to_string(),
        admitted_at: ticket.admitted_at,
        report: None,
        error: None,
    };
    let workload = Workload::generate(&request.effective_spec());
    match Simulator::from_config(request.config) {
        // run_checkpointed honours the config's checkpoint policy and is an
        // ordinary run when the policy is unset.
        Ok(sim) => match sim.run_checkpointed(&workload, request.mode) {
            Ok(report) => outcome.report = Some(report),
            Err(err) => outcome.error = Some(err.to_string()),
        },
        // Unreachable through submit (admission validates the config), but
        // the fleet still never panics on a bad job.
        Err(err) => outcome.error = Some(err.to_string()),
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_sim::{Mode, SimConfig};
    use aikido_workloads::WorkloadSpec;

    fn small_request(tenant: &str, preset: &str, mode: Mode) -> RunRequest {
        RunRequest::new(tenant, WorkloadSpec::parsec(preset).unwrap(), mode)
            .with_config(SimConfig::default().with_scale(0.02))
    }

    #[test]
    fn drained_reports_are_byte_identical_to_direct_runs() {
        let mut service = SimService::new(ServiceConfig::default()).unwrap();
        let requests = [
            small_request("a", "blackscholes", Mode::Native),
            small_request("a", "blackscholes", Mode::Aikido),
            small_request("b", "canneal", Mode::FullInstrumentation),
            small_request("c", "swaptions", Mode::Aikido),
        ];
        for request in &requests {
            service.submit(request.clone()).unwrap();
        }
        let report = service.drain();
        assert_eq!(report.runs.len(), requests.len());
        for (outcome, request) in report.runs.iter().zip(&requests) {
            let direct = Simulator::from_config(request.config.clone())
                .unwrap()
                .try_run(&Workload::generate(&request.effective_spec()), request.mode)
                .unwrap();
            let delivered = outcome.report.as_ref().expect("run succeeded");
            assert_eq!(delivered, &direct);
            assert_eq!(
                serde_json::to_string(delivered).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "byte-identical serialization"
            );
        }
    }

    #[test]
    fn fleet_reports_are_deterministic_across_identical_services() {
        let run = || {
            let mut service = SimService::new(ServiceConfig {
                fleet_workers: 3,
                ..ServiceConfig::default()
            })
            .unwrap();
            service.set_budget("broke", TenantBudget::default().with_access_quota(0));
            for i in 0..10 {
                let tenant = ["a", "b", "c", "broke"][i % 4];
                let _ = service.submit(small_request(tenant, "blackscholes", Mode::Native));
            }
            serde_json::to_string(&service.drain()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_and_drain_cycles_accumulate() {
        let mut service = SimService::new(ServiceConfig::default()).unwrap();
        service
            .submit(small_request("a", "blackscholes", Mode::Native))
            .unwrap();
        assert_eq!(service.queue_depth(), 1);
        let report = service.drain();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(service.queue_depth(), 0);

        service
            .submit(small_request("a", "blackscholes", Mode::Aikido))
            .unwrap();
        let report = service.drain();
        assert_eq!(report.runs.len(), 2, "outcomes accumulate across drains");
        assert_eq!(report.queue.admitted, 2);
        assert_eq!(report.queue.depth, 0, "nothing pending after drain");
        let usage = &report.tenants[0];
        assert_eq!(usage.completed + usage.failed, usage.admitted);
    }

    #[test]
    fn draining_an_empty_service_is_a_no_op() {
        let mut service = SimService::new(ServiceConfig::default()).unwrap();
        let report = service.drain();
        assert!(report.runs.is_empty());
        assert_eq!(report.queue.admitted, 0);
    }
}

//! The control plane: a deterministic admission/accounting state machine.
//!
//! The control plane is single-threaded plain data on purpose. Every
//! decision (admit or refuse) and every timestamp is a pure function of the
//! request sequence and the service configuration, which is what makes fleet
//! reports reproducible. The worker fleet
//! ([`SimService`](crate::SimService)) is the only concurrent part, and it
//! reports completions back here in run-id order.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::budget::{AdmitError, TenantBudget};
use crate::report::{FleetReport, QueueMetrics, RejectionRecord, RunOutcome, TenantUsage};
use crate::request::RunRequest;
use serde::Serialize;

/// Static service configuration: pool sizes and the default tenant budget.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceConfig {
    /// OS worker threads the fleet executes runs on.
    pub fleet_workers: usize,
    /// Global queue capacity (across all tenants).
    pub queue_capacity: usize,
    /// Budget applied to tenants without an explicit one.
    pub default_budget: TenantBudget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            fleet_workers: 4,
            queue_capacity: 1024,
            default_budget: TenantBudget::default(),
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.fleet_workers == 0 {
            return Err("fleet_workers must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        Ok(())
    }
}

/// Proof of admission: the identifiers the caller needs to correlate the
/// eventual [`RunOutcome`](crate::RunOutcome) with their request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RunTicket {
    /// Fleet-wide run id (admission order, starting at 0).
    pub run_id: u64,
    /// The tenant billed.
    pub tenant: String,
    /// Logical admission timestamp: the request's position in the
    /// submission sequence (admissions and refusals alike).
    pub admitted_at: u64,
}

/// An admitted run waiting for a fleet worker.
#[derive(Debug, Clone)]
pub(crate) struct QueuedRun {
    /// The admission ticket.
    pub ticket: RunTicket,
    /// The admitted request, verbatim.
    pub request: RunRequest,
}

#[derive(Debug, Default)]
struct TenantState {
    budget: TenantBudget,
    queued: usize,
    in_flight: usize,
    admitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    spent: u64,
}

/// The deterministic admission / accounting state machine.
pub(crate) struct ControlPlane {
    config: ServiceConfig,
    tenants: BTreeMap<String, TenantState>,
    queue: VecDeque<QueuedRun>,
    outcomes: Vec<RunOutcome>,
    rejections: Vec<RejectionRecord>,
    next_run_id: u64,
    submitted: u64,
    peak_queue_depth: usize,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("config", &self.config)
            .field("tenants", &self.tenants.len())
            .field("queue_depth", &self.queue.len())
            .field("next_run_id", &self.next_run_id)
            .finish()
    }
}

impl ControlPlane {
    /// An empty control plane.
    ///
    /// # Errors
    ///
    /// Returns the validation failure if `config` is invalid.
    pub fn new(config: ServiceConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(ControlPlane {
            config,
            tenants: BTreeMap::new(),
            queue: VecDeque::new(),
            outcomes: Vec::new(),
            rejections: Vec::new(),
            next_run_id: 0,
            submitted: 0,
            peak_queue_depth: 0,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// See [`SimService::set_budget`](crate::SimService::set_budget).
    pub fn set_budget(&mut self, tenant: impl Into<String>, budget: TenantBudget) {
        let default = self.config.default_budget.clone();
        self.tenants
            .entry(tenant.into())
            .or_insert_with(|| TenantState {
                budget: default,
                ..TenantState::default()
            })
            .budget = budget;
    }

    /// See [`SimService::submit`](crate::SimService::submit).
    pub fn submit(&mut self, request: RunRequest) -> Result<RunTicket, AdmitError> {
        // Timestamps are logical: a request's position in the submission
        // sequence, never a wall clock.
        let at = self.submitted;
        self.submitted += 1;
        match self.admit(request, at) {
            Ok(ticket) => Ok(ticket),
            Err((tenant, err)) => {
                self.rejections.push(RejectionRecord {
                    tenant: tenant.clone(),
                    at,
                    kind: err.kind().to_string(),
                    reason: err.to_string(),
                });
                let default = self.config.default_budget.clone();
                self.tenants
                    .entry(tenant)
                    .or_insert_with(|| TenantState {
                        budget: default,
                        ..TenantState::default()
                    })
                    .rejected += 1;
                Err(err)
            }
        }
    }

    fn admit(&mut self, request: RunRequest, at: u64) -> Result<RunTicket, (String, AdmitError)> {
        let tenant_name = request.tenant.clone();
        let refuse = |err| (tenant_name.clone(), err);

        if let Err(reason) = request.spec.validate() {
            return Err(refuse(AdmitError::InvalidSpec { reason }));
        }
        if let Err(err) = request.config.validate() {
            return Err(refuse(err.into()));
        }
        if self.queue.len() >= self.config.queue_capacity {
            return Err(refuse(AdmitError::QueueFull {
                capacity: self.config.queue_capacity,
            }));
        }

        let default = self.config.default_budget.clone();
        let tenant = self
            .tenants
            .entry(tenant_name.clone())
            .or_insert_with(|| TenantState {
                budget: default,
                ..TenantState::default()
            });
        if tenant.queued >= tenant.budget.max_queued {
            return Err((
                tenant_name.clone(),
                AdmitError::TenantQueueFull {
                    tenant: tenant_name,
                    max_queued: tenant.budget.max_queued,
                },
            ));
        }
        if tenant.queued + tenant.in_flight >= tenant.budget.max_in_flight {
            return Err((
                tenant_name.clone(),
                AdmitError::TenantInFlightFull {
                    tenant: tenant_name,
                    max_in_flight: tenant.budget.max_in_flight,
                },
            ));
        }
        let cost = request.cost_accesses();
        // The cost saturates at `u64::MAX`, so that value is a count past
        // u64, never a runnable one: refused even under an unlimited quota.
        let within_quota = cost < u64::MAX
            && tenant
                .spent
                .checked_add(cost)
                .is_some_and(|total| total <= tenant.budget.access_quota);
        if !within_quota {
            return Err((
                tenant_name.clone(),
                AdmitError::QuotaExhausted {
                    tenant: tenant_name,
                    quota: tenant.budget.access_quota,
                    spent: tenant.spent,
                    requested: cost,
                },
            ));
        }

        // Admitted: charge the quota now, queue.
        tenant.spent += cost;
        tenant.queued += 1;
        tenant.admitted += 1;

        let ticket = RunTicket {
            run_id: self.next_run_id,
            tenant: tenant_name,
            admitted_at: at,
        };
        self.next_run_id += 1;
        self.queue.push_back(QueuedRun {
            ticket: ticket.clone(),
            request,
        });
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
        Ok(ticket)
    }

    /// Hands the oldest queued run to the fleet, moving the tenant's count
    /// from queued to in-flight.
    pub fn take_queued(&mut self) -> Option<QueuedRun> {
        let run = self.queue.pop_front()?;
        let tenant = self
            .tenants
            .get_mut(&run.ticket.tenant)
            .expect("queued runs belong to known tenants");
        tenant.queued -= 1;
        tenant.in_flight += 1;
        Some(run)
    }

    /// Records a finished run. The fleet calls this in run-id order so the
    /// resulting report is independent of worker scheduling.
    pub fn complete(&mut self, outcome: RunOutcome) {
        let tenant = self
            .tenants
            .get_mut(&outcome.tenant)
            .expect("completions belong to known tenants");
        tenant.in_flight -= 1;
        if outcome.report.is_some() {
            tenant.completed += 1;
        } else {
            tenant.failed += 1;
        }
        self.outcomes.push(outcome);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The aggregated fleet report: every outcome in run-id order plus
    /// tenant / queue metrics and the rejection log. Deterministic for a
    /// fixed request sequence.
    pub fn report(&self) -> FleetReport {
        let mut runs = self.outcomes.clone();
        runs.sort_by_key(|r| r.run_id);
        FleetReport {
            tenants: self
                .tenants
                .iter()
                .map(|(name, t)| TenantUsage {
                    tenant: name.clone(),
                    admitted: t.admitted,
                    rejected: t.rejected,
                    completed: t.completed,
                    failed: t.failed,
                    spent_accesses: t.spent,
                    access_quota: t.budget.access_quota,
                })
                .collect(),
            queue: QueueMetrics {
                capacity: self.config.queue_capacity,
                submitted: self.submitted,
                admitted: self.next_run_id,
                rejected: self.rejections.len() as u64,
                peak_depth: self.peak_queue_depth,
                depth: self.queue.len(),
            },
            rejections: self.rejections.clone(),
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_sim::{Mode, SimConfig};
    use aikido_workloads::WorkloadSpec;

    fn request(tenant: &str) -> RunRequest {
        RunRequest::new(
            tenant,
            WorkloadSpec::parsec("blackscholes").unwrap(),
            Mode::Native,
        )
        .with_config(SimConfig::default().with_scale(0.05))
    }

    fn plane(config: ServiceConfig) -> ControlPlane {
        ControlPlane::new(config).unwrap()
    }

    #[test]
    fn rejects_invalid_service_configs() {
        for config in [
            ServiceConfig {
                fleet_workers: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
        ] {
            assert!(ControlPlane::new(config).is_err());
        }
    }

    #[test]
    fn admissions_and_refusals_are_stamped_with_their_submission_position() {
        let mut plane = plane(ServiceConfig::default());
        plane.set_budget("broke", TenantBudget::default().with_access_quota(0));
        let ticket = plane.submit(request("acme")).unwrap();
        assert_eq!((ticket.run_id, ticket.admitted_at), (0, 0));
        plane.submit(request("broke")).unwrap_err();
        let ticket = plane.submit(request("acme")).unwrap();
        assert_eq!(
            (ticket.run_id, ticket.admitted_at),
            (1, 2),
            "the refusal took position 1"
        );
        assert_eq!(plane.report().rejections[0].at, 1);
    }

    #[test]
    fn invalid_spec_and_config_are_refused_up_front() {
        let mut plane = plane(ServiceConfig::default());
        let mut bad_spec = request("acme");
        bad_spec.spec.threads = 0;
        let err = plane.submit(bad_spec).unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");

        let bad_config = request("acme").with_config(SimConfig::default().with_quantum(0));
        let err = plane.submit(bad_config).unwrap_err();
        assert!(
            matches!(&err, AdmitError::InvalidConfig { field, .. } if field == "quantum"),
            "{err}"
        );

        // Both refusals were logged with the tenant attributed.
        let report = plane.report();
        assert_eq!(report.queue.rejected, 2);
        assert_eq!(report.tenants[0].rejected, 2);
        assert_eq!(report.tenants[0].admitted, 0);
    }

    #[test]
    fn global_queue_capacity_refuses_everyone() {
        let config = ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        };
        let mut plane = plane(config);
        plane.submit(request("a")).unwrap();
        plane.submit(request("b")).unwrap();
        let err = plane.submit(request("c")).unwrap_err();
        assert_eq!(err, AdmitError::QueueFull { capacity: 2 });
    }

    #[test]
    fn tenant_backlog_and_outstanding_caps_apply_per_tenant() {
        let config = ServiceConfig {
            default_budget: TenantBudget::default()
                .with_max_queued(2)
                .with_max_in_flight(3),
            ..ServiceConfig::default()
        };
        let mut plane = plane(config);
        plane.submit(request("greedy")).unwrap();
        plane.submit(request("greedy")).unwrap();
        let err = plane.submit(request("greedy")).unwrap_err();
        assert_eq!(
            err,
            AdmitError::TenantQueueFull {
                tenant: "greedy".into(),
                max_queued: 2
            }
        );
        // Another tenant is unaffected.
        plane.submit(request("patient")).unwrap();

        // Move both greedy runs in flight: the backlog is empty again, but
        // the outstanding cap (queued + in flight) still binds, so the
        // refusal switches to TenantInFlightFull.
        for expected in ["greedy", "greedy"] {
            assert_eq!(plane.take_queued().unwrap().ticket.tenant, expected);
        }
        plane.submit(request("greedy")).unwrap();
        let err = plane.submit(request("greedy")).unwrap_err();
        assert_eq!(
            err,
            AdmitError::TenantInFlightFull {
                tenant: "greedy".into(),
                max_in_flight: 3
            }
        );
    }

    #[test]
    fn quota_is_charged_at_admission_and_refuses_overdraw() {
        let cost = request("umbrella").cost_accesses();
        let config = ServiceConfig {
            default_budget: TenantBudget::default().with_access_quota(cost * 2),
            ..ServiceConfig::default()
        };
        let mut plane = plane(config);
        plane.submit(request("umbrella")).unwrap();
        plane.submit(request("umbrella")).unwrap();
        let err = plane.submit(request("umbrella")).unwrap_err();
        assert_eq!(
            err,
            AdmitError::QuotaExhausted {
                tenant: "umbrella".into(),
                quota: cost * 2,
                spent: cost * 2,
                requested: cost,
            }
        );
        let report = plane.report();
        let usage = &report.tenants[0];
        assert_eq!(usage.spent_accesses, cost * 2);
        assert_eq!(usage.admitted, 2);
        assert_eq!(usage.rejected, 1);
    }

    #[test]
    fn explicit_budgets_override_the_default() {
        let mut plane = plane(ServiceConfig::default());
        plane.set_budget("vip", TenantBudget::default().with_access_quota(0));
        let err = plane.submit(request("vip")).unwrap_err();
        assert_eq!(err.kind(), "quota_exhausted");
    }

    #[test]
    fn an_access_count_past_u64_is_refused_by_quota_not_a_panic() {
        // 2^62 accesses on 4 threads, and a scale that saturates the
        // per-thread count: both costs overflow u64 unless the charge
        // saturates, and the saturated cost is refused under a small quota
        // and under the default, unlimited one alike.
        let wires = [
            r#"{"tenant": "t", "workload": {"preset": "vips", "threads": 4, "mem_accesses_per_thread": 4611686018427387904}, "mode": "native"}"#,
            r#"{"tenant": "t", "workload": {"preset": "vips", "threads": 4}, "mode": "native", "config": {"scale": 1e300}}"#,
        ];
        let budgets = [
            TenantBudget::default().with_access_quota(1000),
            TenantBudget::default(),
        ];
        for (wire, budget) in wires
            .into_iter()
            .flat_map(|wire| budgets.iter().map(move |budget| (wire, budget)))
        {
            let mut plane = plane(ServiceConfig {
                default_budget: budget.clone(),
                ..ServiceConfig::default()
            });
            let err = plane
                .submit(RunRequest::from_json(wire).unwrap())
                .unwrap_err();
            assert_eq!(err.kind(), "quota_exhausted", "{wire}: {err}");
            assert_eq!(plane.queue_depth(), 0);
        }
    }
}

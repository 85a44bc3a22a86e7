//! Service ↔ direct-run equivalence and admission behaviour, end to end.
//!
//! The serving layer must be a transparent multiplexer: a report delivered
//! through admit → run → aggregate is byte-identical to running the same
//! `RunRequest` directly on a `Simulator`, and the whole `FleetReport` is a
//! deterministic function of the request sequence. Budget refusals are
//! structured errors, never panics. Timestamps are positions in the
//! submission sequence, so no wall-clock value can leak into assertions.

use aikido::prelude::*;
use aikido_serve::{AdmitError, RunRequest, ServiceConfig, SimService, TenantBudget};

fn small_config() -> ServiceConfig {
    ServiceConfig {
        fleet_workers: 3,
        queue_capacity: 64,
        default_budget: TenantBudget::default(),
    }
}

/// A mixed request batch from three tenants.
fn requests() -> Vec<RunRequest> {
    let presets = ["blackscholes", "swaptions", "canneal"];
    let tenants = ["acme", "globex", "initech"];
    let modes = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];
    (0..12)
        .map(|i| {
            let spec = WorkloadSpec::parsec(presets[i % presets.len()]).unwrap();
            let config = SimConfig::default().with_scale(0.02);
            RunRequest::new(tenants[i % tenants.len()], spec, modes[i % modes.len()])
                .with_config(config)
        })
        .collect()
}

#[test]
fn delivered_reports_are_byte_identical_to_direct_runs() {
    let mut service = SimService::new(small_config()).unwrap();
    let batch = requests();
    for request in &batch {
        service.submit(request.clone()).expect("within budget");
    }
    let fleet = service.drain();

    assert_eq!(fleet.runs.len(), batch.len());
    for (outcome, request) in fleet.runs.iter().zip(&batch) {
        let delivered = outcome.report.as_ref().expect("run succeeded");
        let direct = Simulator::from_config(request.config.clone())
            .unwrap()
            .try_run(&Workload::generate(&request.effective_spec()), request.mode)
            .unwrap();
        assert_eq!(
            serde_json::to_string(delivered).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "run {} ({}) must match its direct run byte for byte",
            outcome.run_id,
            outcome.workload
        );
    }
}

#[test]
fn the_fleet_report_is_a_deterministic_function_of_the_request_sequence() {
    let run = || {
        let mut service = SimService::new(small_config()).unwrap();
        for request in requests() {
            service.submit(request).expect("within budget");
        }
        serde_json::to_string(&service.drain()).unwrap()
    };
    assert_eq!(
        run(),
        run(),
        "two services fed the same sequence must serialize identical FleetReports"
    );
}

#[test]
fn budget_refusals_are_structured_and_the_fleet_still_drains() {
    let mut service = SimService::new(small_config()).unwrap();
    service.set_budget("umbrella", TenantBudget::default().with_access_quota(0));

    let paying = WorkloadSpec::parsec("blackscholes").unwrap();
    let config = SimConfig::default().with_scale(0.02);
    service
        .submit(RunRequest::new("acme", paying.clone(), Mode::Aikido).with_config(config.clone()))
        .expect("paying tenant admitted");

    let refused = service
        .submit(RunRequest::new("umbrella", paying, Mode::Native).with_config(config))
        .expect_err("zero quota must refuse");
    match &refused {
        AdmitError::QuotaExhausted { tenant, quota, .. } => {
            assert_eq!(tenant, "umbrella");
            assert_eq!(*quota, 0);
        }
        other => panic!("expected QuotaExhausted, got {other:?}"),
    }
    assert_eq!(refused.kind(), "quota_exhausted");

    let fleet = service.drain();
    assert_eq!(fleet.runs.len(), 1, "the admitted run still executes");
    assert!(fleet.failures().next().is_none());
    assert_eq!(fleet.rejections.len(), 1);
    assert_eq!(fleet.rejections[0].tenant, "umbrella");
    assert_eq!(
        fleet.rejections[0].at, 1,
        "the refusal is stamped with its position in the submission sequence"
    );
}

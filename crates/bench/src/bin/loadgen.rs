//! Multi-tenant service load generator and equivalence oracle.
//!
//! Drives a mixed-tenant batch of scaled-down runs through the
//! [`SimService`] — many tenants, benchmarks and modes at once — and then proves, request by request, that the serving layer added
//! *nothing* to the simulation: every delivered report must be
//! byte-identical to a direct `Simulator::from_config` run of the same
//! request, admission must be deterministic for the fixed request sequence,
//! and an over-quota tenant must be refused with a structured error (never a
//! panic or hang).
//!
//! ```bash
//! AIKIDO_SCALE=0.05 cargo run --release -p aikido-bench --bin loadgen
//! LOADGEN_RUNS=512 LOADGEN_WORKERS=8 cargo run --release -p aikido-bench --bin loadgen
//! ```
//!
//! Writes three documents (paths overridable via `LOADGEN_OUT` prefix):
//!
//! * `FLEET_report.json` — the full
//!   [`FleetReport`](aikido_serve::FleetReport);
//! * `FLEET_runs.json` — just the delivered per-run reports, in run order;
//! * `FLEET_direct.json` — the same runs executed directly, bypassing the
//!   service. CI `cmp`s the last two byte-for-byte.
//!
//! Exit codes: 0 on success, 5 (`SERVICE_MISMATCH`) when any delivered
//! report diverges from its direct run or a fleet invariant breaks, 3 when
//! an output document cannot be written.

use aikido::{Mode, SimConfig, Simulator, Workload, WorkloadSpec};
use aikido_bench::{exitcode, scale_from_env};
use aikido_serve::{AdmitError, RunRequest, ServiceConfig, SimService, TenantBudget};

/// Cheap presets the generator cycles through (small access counts, spread
/// across the paper's sharing spectrum).
const BENCHMARKS: [&str; 4] = ["blackscholes", "swaptions", "canneal", "bodytrack"];

/// Paying tenants plus one deliberately under-provisioned tenant whose
/// requests must be refused with a structured quota error.
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "hooli"];
const BROKE_TENANT: &str = "umbrella";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

/// The fixed request sequence: `runs` requests cycling tenants × benchmarks
/// × modes, plus one over-quota request from the broke tenant every 32
/// requests.
fn request_sequence(runs: usize, scale: f64) -> Vec<RunRequest> {
    let modes = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];
    let mut requests = Vec::with_capacity(runs + runs / 32 + 1);
    for i in 0..runs {
        let tenant = TENANTS[i % TENANTS.len()];
        let preset = BENCHMARKS[(i / TENANTS.len()) % BENCHMARKS.len()];
        let mode = modes[i % modes.len()];
        let config = SimConfig::default().with_scale(scale);
        let spec = WorkloadSpec::parsec(preset).expect("known preset");
        requests.push(RunRequest::new(tenant, spec, mode).with_config(config));
        if i % 32 == 0 {
            let spec = WorkloadSpec::parsec("blackscholes").expect("known preset");
            requests.push(
                RunRequest::new(BROKE_TENANT, spec, Mode::Native)
                    .with_config(SimConfig::default().with_scale(scale)),
            );
        }
    }
    requests
}

fn service(runs: usize) -> SimService {
    let config = ServiceConfig {
        fleet_workers: env_usize("LOADGEN_WORKERS", 4),
        queue_capacity: runs * 2,
        default_budget: TenantBudget::default()
            .with_max_queued(runs)
            .with_max_in_flight(runs),
    };
    let mut service = SimService::new(config).expect("static service config is valid");
    service.set_budget(BROKE_TENANT, TenantBudget::default().with_access_quota(0));
    service
}

fn fail(reason: &str) -> ! {
    eprintln!("loadgen: SERVICE MISMATCH: {reason}");
    std::process::exit(exitcode::SERVICE_MISMATCH);
}

fn main() {
    let scale = scale_from_env();
    let runs = env_usize("LOADGEN_RUNS", 256);
    let requests = request_sequence(runs, scale);
    println!(
        "loadgen: {} requests ({} expected admissions) from {} tenants, scale {}",
        requests.len(),
        runs,
        TENANTS.len() + 1,
        scale
    );

    // Submit the fixed sequence. Paying tenants must all be admitted; the
    // broke tenant must be refused with the structured quota error.
    let mut svc = service(runs);
    let mut tickets = Vec::new();
    let mut quota_rejections = 0u64;
    for request in &requests {
        match svc.submit(request.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(AdmitError::QuotaExhausted { tenant, .. }) if tenant == BROKE_TENANT => {
                quota_rejections += 1;
            }
            Err(err) => fail(&format!("unexpected rejection ({}): {err}", err.kind())),
        }
    }
    if tickets.len() != runs {
        fail(&format!(
            "admitted {} of {runs} paying requests",
            tickets.len()
        ));
    }
    if quota_rejections == 0 {
        fail("the zero-quota tenant was never refused");
    }

    // Admission determinism: a second service fed the same sequence must
    // issue identical tickets.
    let mut replay = service(runs);
    let mut replayed = Vec::new();
    for request in &requests {
        if let Ok(ticket) = replay.submit(request.clone()) {
            replayed.push(ticket);
        }
    }
    if replayed != tickets {
        fail("admission is not deterministic for a fixed request sequence");
    }

    // Execute on the fleet.
    let started = std::time::Instant::now();
    let report = svc.drain();
    let wall = started.elapsed();
    println!(
        "loadgen: drained {} runs in {:.2}s ({} rejections logged)",
        report.runs.len(),
        wall.as_secs_f64(),
        report.queue.rejected
    );

    // Fleet invariants.
    if report.runs.len() != runs {
        fail(&format!(
            "{} outcomes for {runs} admissions",
            report.runs.len()
        ));
    }
    if let Some(failure) = report.failures().next() {
        fail(&format!(
            "run {} ({}) failed: {}",
            failure.run_id,
            failure.workload,
            failure.error.as_deref().unwrap_or("?")
        ));
    }
    if report.queue.depth != 0 {
        fail(&format!("{} runs still queued", report.queue.depth));
    }
    if let Some(t) = report
        .tenants
        .iter()
        .find(|t| t.completed + t.failed != t.admitted)
    {
        fail(&format!("tenant {} still has pending runs", t.tenant));
    }
    let admitted_tenants = report.tenants.iter().filter(|t| t.admitted > 0).count();
    if admitted_tenants < 4 {
        fail(&format!("only {admitted_tenants} tenants were admitted"));
    }
    if !report
        .rejections
        .iter()
        .all(|r| r.tenant == BROKE_TENANT && r.kind == "quota_exhausted")
    {
        fail("unexpected rejection records");
    }

    // The oracle: rerun every request directly (same spec, same config, no
    // service in the way) and require byte-identical reports.
    let mut delivered_json = String::from("[");
    let mut direct_json = String::from("[");
    let paying_requests: Vec<&RunRequest> = requests
        .iter()
        .filter(|r| r.tenant != BROKE_TENANT)
        .collect();
    if paying_requests.len() != report.runs.len() {
        fail("outcome count does not match the paying request sequence");
    }
    for (i, (outcome, request)) in report.runs.iter().zip(&paying_requests).enumerate() {
        let delivered = match &outcome.report {
            Some(report) => report,
            None => fail(&format!("run {} delivered no report", outcome.run_id)),
        };
        let direct = Simulator::from_config(request.config.clone())
            .expect("admission validated the config")
            .try_run(&Workload::generate(&request.effective_spec()), request.mode)
            .unwrap_or_else(|err| fail(&format!("direct run {i} failed: {err}")));
        let delivered_s = serde_json::to_string(delivered).expect("report serialises");
        let direct_s = serde_json::to_string(&direct).expect("report serialises");
        if delivered_s != direct_s {
            fail(&format!(
                "run {} ({} {}) diverged from its direct run",
                outcome.run_id, outcome.workload, outcome.mode
            ));
        }
        if i > 0 {
            delivered_json.push(',');
            direct_json.push(',');
        }
        delivered_json.push_str(&delivered_s);
        direct_json.push_str(&direct_s);
    }
    delivered_json.push(']');
    direct_json.push(']');
    println!(
        "loadgen: all {} delivered reports byte-identical to direct runs",
        report.runs.len()
    );

    let prefix = std::env::var("LOADGEN_OUT").unwrap_or_default();
    let fleet_doc = serde_json::to_string(&report).expect("fleet report serialises");
    for (name, contents) in [
        ("FLEET_report.json", fleet_doc.as_str()),
        ("FLEET_runs.json", delivered_json.as_str()),
        ("FLEET_direct.json", direct_json.as_str()),
    ] {
        let path = format!("{prefix}{name}");
        if let Err(err) = aikido_bench::write_report(&path, contents) {
            eprintln!("loadgen: {err}");
            std::process::exit(exitcode::WRITE_FAILED);
        }
        println!("wrote {path}");
    }
}

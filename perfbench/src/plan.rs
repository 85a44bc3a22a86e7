//! The four workloads: which specs each one generates, seeded from the
//! command line, and the request batch each one pushes through `SimService`.

use aikido::workloads::spill_pressure_workload;
use aikido::{Mode, SimConfig, WorkloadSpec};
use aikido_serve::{RunRequest, TenantBudget};

/// The three execution modes, in the order every per-mode array uses.
pub const MODES: [Mode; 3] = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 4] = ["low_sharing", "high_sharing", "read_shared", "fleet"];

/// `read_shared` multiplies `spill_pressure_workload(8)`'s 5 000 accesses
/// per thread by this, so one run is long enough to time.
const READ_SHARED_SCALE: f64 = 8.0;

/// The presets of the `fleet` batch: race-free, mid-sized and spread over
/// the paper's sharing range.
const FLEET_PRESETS: [&str; 4] = ["blackscholes", "swaptions", "x264", "bodytrack"];

/// Block executions between checkpoints for the fleet requests that carry a
/// periodic checkpoint policy (about four periods per run).
const FLEET_CHECKPOINT_EVERY: u64 = 10_000;

/// The tenant whose access quota admits only its first two requests.
const CAPPED_TENANT: &str = "capped";

/// One admitted-or-refused request of a workload's batch.
#[derive(Debug)]
pub struct PlannedRequest {
    /// Index into [`Plan::specs`] of the request's workload.
    pub spec: usize,
    /// Index into [`MODES`].
    pub mode: usize,
    /// The request as submitted.
    pub request: RunRequest,
}

/// A workload: the specs it generates and the service batch it submits.
#[derive(Debug)]
pub struct Plan {
    /// The workload name (`--workload`).
    pub name: &'static str,
    /// The distinct workload specs, seeded. The three simulator workloads
    /// have one; `fleet` has one per preset.
    pub specs: Vec<WorkloadSpec>,
    /// The request batch. It is the whole load of `fleet`; on the other
    /// workloads only the traced run's `serve` probe submits it.
    pub requests: Vec<PlannedRequest>,
    /// Budgets installed before the batch is submitted.
    pub budgets: Vec<(String, TenantBudget)>,
    /// Requests the budgets refuse (expected, not failures).
    pub expected_rejections: usize,
}

/// Applies the command-line seed: 0 keeps the preset's seed, any other value
/// derives a new one from it.
fn seeded(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    let preset = spec.seed;
    spec.with_seed(preset ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

impl Plan {
    /// The workload called `name` under `seed`, or `None` for an unknown name.
    pub fn named(name: &str, seed: u64) -> Option<Plan> {
        let preset = |p: &str| WorkloadSpec::parsec(p).expect("a PARSEC preset");
        let single =
            |name: &'static str, spec: WorkloadSpec| Plan::single(name, seeded(spec, seed));
        match name {
            "low_sharing" => Some(single("low_sharing", preset("raytrace"))),
            "high_sharing" => Some(single("high_sharing", preset("fluidanimate"))),
            "read_shared" => Some(single(
                "read_shared",
                spill_pressure_workload(8).scaled(READ_SHARED_SCALE),
            )),
            "fleet" => Some(Plan::fleet(seed)),
            _ => None,
        }
    }

    /// One spec; its batch is one request per mode plus one the capped
    /// tenant's zero quota refuses.
    fn single(name: &'static str, spec: WorkloadSpec) -> Plan {
        let mut requests: Vec<PlannedRequest> = (0..MODES.len())
            .map(|mode| PlannedRequest {
                spec: 0,
                mode,
                request: RunRequest::new("solo", spec.clone(), MODES[mode]),
            })
            .collect();
        requests.push(PlannedRequest {
            spec: 0,
            mode: 2,
            request: RunRequest::new(CAPPED_TENANT, spec.clone(), Mode::Aikido),
        });
        Plan {
            name,
            specs: vec![spec],
            requests,
            budgets: vec![(
                CAPPED_TENANT.to_string(),
                TenantBudget::default().with_access_quota(0),
            )],
            expected_rejections: 1,
        }
    }

    /// Four presets × three modes × two tenants with default configs; every
    /// request of tenant `beta` checkpoints periodically. The capped tenant
    /// submits one aikido request per preset and its quota admits the first
    /// two.
    fn fleet(seed: u64) -> Plan {
        let specs: Vec<WorkloadSpec> = FLEET_PRESETS
            .iter()
            .map(|p| seeded(WorkloadSpec::parsec(p).expect("a PARSEC preset"), seed))
            .collect();
        let checkpointed = SimConfig::default().with_checkpoint_every(Some(FLEET_CHECKPOINT_EVERY));
        let mut requests = Vec::new();
        for (s, spec) in specs.iter().enumerate() {
            for (mode, &m) in MODES.iter().enumerate() {
                for tenant in ["alpha", "beta"] {
                    let mut request = RunRequest::new(tenant, spec.clone(), m);
                    if tenant == "beta" {
                        request = request.with_config(checkpointed.clone());
                    }
                    requests.push(PlannedRequest {
                        spec: s,
                        mode,
                        request,
                    });
                }
            }
        }
        let capped: Vec<PlannedRequest> = specs
            .iter()
            .enumerate()
            .map(|(s, spec)| PlannedRequest {
                spec: s,
                mode: 2,
                request: RunRequest::new(CAPPED_TENANT, spec.clone(), Mode::Aikido),
            })
            .collect();
        let quota = capped[..2].iter().map(|r| r.request.cost_accesses()).sum();
        let expected_rejections = capped.len() - 2;
        requests.extend(capped);
        Plan {
            name: "fleet",
            specs,
            requests,
            budgets: vec![(
                CAPPED_TENANT.to_string(),
                TenantBudget::default().with_access_quota(quota),
            )],
            expected_rejections,
        }
    }

    /// True for the workload whose end-to-end load is the service batch.
    pub fn is_fleet(&self) -> bool {
        self.name == "fleet"
    }
}

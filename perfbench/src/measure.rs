//! What the timed and traced runs share: correctness bookkeeping, the
//! reference reports every run is checked against, service submission, and
//! small statistics helpers.

use std::time::Instant;

use aikido::{RunReport, SimError, Simulator, Workload};
use aikido_serve::{FleetReport, ServiceConfig, SimService};

use crate::plan::{Plan, MODES};
use crate::spans::Tracer;

/// Counts operations (runs whose result is checked) and the ones that
/// failed a check. A failure is counted, never aborted on.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one operation that passed when `ok` holds.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Records a run that must reproduce `want` byte for byte (serialized
    /// JSON), and returns its report when it ran at all.
    pub fn same(
        &mut self,
        got: Result<RunReport, SimError>,
        want: &str,
        what: impl FnOnce() -> String,
    ) -> Option<RunReport> {
        match got {
            Ok(report) => {
                self.record(json(&report) == want, || format!("{} differs", what()));
                Some(report)
            }
            Err(err) => {
                self.record(false, || format!("{} failed: {err}", what()));
                None
            }
        }
    }

    pub fn failure_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The serialized form reports are compared in.
pub fn json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("run reports serialize")
}

/// The uninterrupted default-config report of one spec in every mode: what
/// every other run of that spec must reproduce.
#[derive(Debug)]
pub struct References {
    pub reports: Vec<RunReport>,
    pub json: Vec<String>,
}

impl References {
    /// Runs `workload` once per mode (these are the warm-up runs) and checks
    /// the cross-mode invariants: shared ≤ instrumented ≤ accesses in every
    /// mode, and full and aikido report the same races.
    pub fn warm_up(sim: &Simulator, workload: &Workload, checks: &mut Checks) -> Option<Self> {
        let mut reports = Vec::new();
        for mode in MODES {
            match sim.try_run(workload, mode) {
                Ok(report) => reports.push(report),
                Err(err) => {
                    checks.record(false, || format!("{mode:?} warm-up failed: {err}"));
                    return None;
                }
            }
        }
        for report in &reports {
            let c = report.counts;
            checks.record(
                c.shared_accesses <= c.instrumented_accesses
                    && c.instrumented_accesses <= c.mem_accesses,
                || {
                    format!(
                        "{} {}: shared ≤ instrumented ≤ accesses broken",
                        report.workload, report.mode
                    )
                },
            );
        }
        checks.record(reports[1].races == reports[2].races, || {
            format!("{}: full and aikido race lists differ", reports[1].workload)
        });
        let json = reports.iter().map(json).collect();
        Some(References { reports, json })
    }
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A service with `fleet_workers = nproc` and the plan's budgets, holding
/// the plan's whole batch.
pub struct Submitted {
    pub service: SimService,
    pub workers: usize,
    /// `(run id, index into plan.requests)` of every admitted request.
    pub admitted: Vec<(u64, usize)>,
    pub rejected: usize,
    /// Wall time of each `submit` call, in nanoseconds.
    pub submit_ns: Vec<f64>,
}

impl Submitted {
    /// Builds the service and submits the batch, with a span around each
    /// `submit` when `tracer` is given.
    pub fn new(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Self {
        let workers = nproc();
        let config = ServiceConfig {
            fleet_workers: workers,
            ..ServiceConfig::default()
        };
        let mut service = SimService::new(config).expect("the default service config is valid");
        for (tenant, budget) in &plan.budgets {
            service.set_budget(tenant.clone(), budget.clone());
        }
        let mut submitted = Submitted {
            service,
            workers,
            admitted: Vec::new(),
            rejected: 0,
            submit_ns: Vec::new(),
        };
        for (i, planned) in plan.requests.iter().enumerate() {
            let span = tracer.as_deref_mut().map(|t| t.enter("serve.submit"));
            let start = Instant::now();
            let result = submitted.service.submit(planned.request.clone());
            submitted.submit_ns.push(start.elapsed().as_nanos() as f64);
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.exit(span);
            }
            match result {
                Ok(ticket) => submitted.admitted.push((ticket.run_id, i)),
                Err(_) => submitted.rejected += 1,
            }
        }
        submitted
    }

    /// Checks a drained report: the expected refusals, one outcome per
    /// admitted request, and each delivered report equal to `want(request)`.
    pub fn check(
        &self,
        plan: &Plan,
        report: &FleetReport,
        want: impl Fn(usize) -> String,
        checks: &mut Checks,
    ) {
        checks.record(self.rejected == plan.expected_rejections, || {
            format!(
                "{} refusals, expected {}",
                self.rejected, plan.expected_rejections
            )
        });
        checks.record(report.runs.len() == self.admitted.len(), || {
            format!(
                "{} outcomes for {} admitted runs",
                report.runs.len(),
                self.admitted.len()
            )
        });
        for outcome in &report.runs {
            let request = self
                .admitted
                .iter()
                .find(|(id, _)| *id == outcome.run_id)
                .map(|&(_, i)| i);
            let ok = match (request, &outcome.report) {
                (Some(i), Some(delivered)) => json(delivered) == want(i),
                _ => false,
            };
            checks.record(ok, || {
                format!(
                    "fleet run {} ({} {}) differs from its direct run",
                    outcome.run_id, outcome.workload, outcome.mode
                )
            });
        }
    }
}

/// Times `f`; returns its result and wall milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, ms_since(start))
}

/// A host-speed probe: a toy shadow-memory interpreter, independent of this
/// repository's code. It dispatches a fixed program of 150 000 ops through a
/// `match`: epoch-compared reads and writes on a 1 MiB shadow table, clock
/// bumps that switch the current thread, and short data-dependent loops.
///
/// The fast level itself drifts from minute to minute (see [`fast_median`]),
/// and the probe's fast level drifts with it. So the untraced metrics report
/// time on a reference host, where the probe's fast-level pass takes
/// [`HostProbe::REFERENCE_MS`]. In the runs quoted at [`fast_median`], the
/// full-mode fast level spread 14% in host time and 3.7% on the reference
/// host. A memory kernel (random read-modify-writes over 4 MiB) tracked the
/// host less well (5.8%). A change to the program leaves the probe alone and
/// so shows in full.
pub struct HostProbe {
    program: Vec<u32>,
    shadow: Vec<u64>,
    /// Wall milliseconds of every probe pass.
    pub probe_ms: Vec<f64>,
}

impl HostProbe {
    /// One fast-level probe pass on the reference host, in milliseconds.
    pub const REFERENCE_MS: f64 = 2.0;

    pub fn new() -> Self {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let program = (0..150_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        HostProbe {
            program,
            shadow: vec![0; 1 << 17],
            probe_ms: Vec::new(),
        }
    }

    /// One pass over the program, from a cleared shadow table so that every
    /// pass does the same work.
    fn pass(&mut self) -> u64 {
        self.shadow.fill(0);
        let mask = self.shadow.len() - 1;
        let mut clocks = [1u32; 8];
        let mut thread = 0;
        let mut acc = 0u64;
        let mut pc = 0;
        while pc < self.program.len() {
            let op = self.program[pc];
            let addr = (op >> 3) as usize & mask;
            match op & 7 {
                0..=3 => {
                    let word = self.shadow[addr];
                    let epoch = ((thread as u64) << 32) | u64::from(clocks[thread]);
                    if word != epoch {
                        if (word >> 32) as usize != thread {
                            acc = acc.wrapping_add(word);
                        }
                        self.shadow[addr] = epoch;
                    }
                }
                4 | 5 => {
                    let word = self.shadow[addr];
                    if word & 1 == 0 {
                        self.shadow[addr] = word.wrapping_mul(31) | 1;
                    } else {
                        acc ^= word;
                    }
                }
                6 => {
                    clocks[thread] = clocks[thread].wrapping_add(1);
                    thread = (op as usize >> 20) & 7;
                }
                _ => {
                    let mut v = u64::from(op);
                    for _ in 0..op >> 28 {
                        v = v.rotate_left(5) ^ 0x9E37;
                    }
                    acc ^= v;
                    pc += (v & 1) as usize;
                }
            }
            pc += 1;
        }
        acc
    }

    /// Runs one probe pass, then times `f`; returns its result and host
    /// milliseconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let (acc, ms) = timed(|| self.pass());
        std::hint::black_box(acc);
        self.probe_ms.push(ms);
        timed(f)
    }

    /// Reference-host milliseconds per host millisecond in this process.
    pub fn scale(&self) -> f64 {
        Self::REFERENCE_MS / fast_median(&self.probe_ms).0
    }
}

/// How far above the fastest sample a sample may lie and still count as
/// taken at the host's fast level (see [`fast_median`]).
pub const FAST_BAND: f64 = 1.2;

/// The median of the samples within [`FAST_BAND`] of the fastest one, and
/// how many there are (0 and 0 when `values` is empty).
///
/// On a 2-vCPU VM on a shared machine, the guest switches every few seconds
/// between a fast level and levels 1.5–2× slower, with no steal time
/// visible to the guest. How much of a run falls in each level changes from
/// run to run, so a median over every sample moves with the host: in eight
/// 12 s runs of `read_shared`, the all-sample median of full-mode runs
/// spread 26% and their fast-level median 14%. Every run does the same
/// deterministic work, so no sample can be faster than the fast level, and
/// a change to the program moves that level in full.
pub fn fast_median(values: &[f64]) -> (f64, usize) {
    let Some(fastest) = values.iter().copied().min_by(f64::total_cmp) else {
        return (0.0, 0);
    };
    let fast: Vec<f64> = values
        .iter()
        .copied()
        .filter(|&v| v <= fastest * FAST_BAND)
        .collect();
    (median(&fast), fast.len())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `p` quantile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine fingerprint printed with every result.
pub fn fingerprint() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!("host={host} nproc={}", nproc())
}

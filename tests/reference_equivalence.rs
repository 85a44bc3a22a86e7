//! The one equivalence oracle: every fast path against `Simulator::reference()`.
//!
//! The default simulator runs the batched per-mode block kernels, which
//! probe the VM's per-thread TLB before calling `vm.touch`, and FastTrack on
//! packed shadow words. `Simulator::reference()` runs the same pipeline with
//! both swapped for their unoptimised counterparts: the scalar per-access
//! loop, with a `vm.touch` for every access, and the enum `ShadowStore`.
//! None of the fast paths may change what a run reports, so one
//! helper requires, for every input here, the same `RunReport` (cycles
//! included, so the per-access cost stream matched access by access), the
//! same detector statistics, the same races, the same reconstructed
//! per-block metadata, serialized and compared as JSON, and the same
//! sequence of delivered accesses. The detector's end state can hide a
//! reordering of accesses to different variables; the delivery log cannot.
//!
//! The inputs are chosen to reach each fast path's edge cases: all six
//! PARSEC presets in every mode, racy and barrier-heavy workloads, the
//! spill-pressure scenario at thread counts straddling the inline-lane
//! budget, lock ids past the dense owner table, blocks too wide for the
//! 64-bit instrumentation mask, and private areas wider than the VM's
//! direct-mapped per-thread TLB.
//!
//! The CI `reference-equivalence` lane runs this file in release mode at
//! `AIKIDO_SCALE=0.05`.

use aikido::fasttrack::FastTrack;
use aikido::types::LockId;
use aikido::vm::AikidoVm;
use aikido::workloads::{racy_workload, spill_pressure_workload};
use aikido::{
    AccessContext, AnalysisReport, Mode, RunReport, SharedDataAnalysis, SimConfig, Simulator,
    ThreadId, Workload, WorkloadSpec,
};
use proptest::prelude::*;

/// The six PARSEC presets the repo's suites exercise end to end.
const BENCHMARKS: [&str; 6] = [
    "raytrace",
    "blackscholes",
    "vips",
    "fluidanimate",
    "swaptions",
    "canneal",
];

const MODES: [Mode; 3] = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];

/// Workload scale: `AIKIDO_SCALE` when set (the CI release lane runs 0.05),
/// a fast default otherwise.
fn scale() -> f64 {
    std::env::var("AIKIDO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.02)
}

/// Wraps the detector, forwarding every call unchanged, and logs each access
/// delivered through `on_access` or `on_access_batch`, in delivery order.
struct Recorder {
    inner: FastTrack,
    log: Vec<AccessContext>,
}

impl SharedDataAnalysis for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, cx: AccessContext) {
        self.log.push(cx);
        self.inner.on_access(cx);
    }

    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        self.log.extend_from_slice(run);
        self.inner.on_access_batch(run, costs);
    }

    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_acquire(thread, lock);
    }

    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_release(thread, lock);
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_fork(parent, child);
    }

    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_join(parent, child);
    }

    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        self.inner.on_barrier(threads, id);
    }

    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.inner.on_thread_exit(thread);
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        self.inner.reports()
    }

    fn access_cost_cycles(&self) -> u64 {
        self.inner.access_cost_cycles()
    }

    fn last_access_cost_cycles(&self) -> u64 {
        self.inner.last_access_cost_cycles()
    }

    fn sync_cost_cycles(&self) -> u64 {
        self.inner.sync_cost_cycles()
    }
}

/// Runs `workload` on `sim` with the detector `sim` itself would build, and
/// hands the detector and its delivery log back for inspection.
fn observe(sim: &Simulator, workload: &Workload, mode: Mode) -> (RunReport, Recorder) {
    let mut recorder = Recorder {
        inner: sim.new_fasttrack(),
        log: Vec::new(),
    };
    let report = sim.run_with_analysis(workload, mode, &mut recorder);
    (report, recorder)
}

/// Requires the default and reference executors to agree on everything
/// observable; returns the (shared) report for further checks.
fn assert_matches_reference(workload: &Workload, mode: Mode, context: &str) -> RunReport {
    let (report, fast) = observe(&Simulator::default(), workload, mode);
    let (reference_report, reference) = observe(&Simulator::reference(), workload, mode);
    assert_eq!(report, reference_report, "report mismatch ({context})");
    let deliveries = fast.log.len().max(reference.log.len());
    if let Some(at) = (0..deliveries).find(|&i| fast.log.get(i) != reference.log.get(i)) {
        panic!(
            "delivered access {at} differs ({context}): {:?}, reference {:?}",
            fast.log.get(at),
            reference.log.get(at)
        );
    }
    let (fast, reference) = (fast.inner, reference.inner);
    assert_eq!(
        fast.stats(),
        reference.stats(),
        "stats mismatch ({context})"
    );
    assert_eq!(
        fast.races(),
        reference.races(),
        "races mismatch ({context})"
    );
    let fast_json = serde_json::to_string(&fast.var_states()).expect("states serialize");
    let reference_json = serde_json::to_string(&reference.var_states()).expect("states serialize");
    assert_eq!(
        fast_json, reference_json,
        "shadow states mismatch ({context})"
    );
    report
}

#[test]
fn the_reference_executor_runs_the_reference_store_outside_the_config() {
    assert!(Simulator::default().new_fasttrack().packed_words());
    assert!(!Simulator::reference().new_fasttrack().packed_words());
    // The reference flag is not configuration: it leaves no trace in the
    // serializable config a request or snapshot could carry.
    assert_eq!(Simulator::reference().config(), &SimConfig::default());
}

#[test]
fn all_six_benchmarks_match_the_reference_in_every_mode() {
    let scale = scale();
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name)
            .expect("benchmark list contains only PARSEC presets")
            .scaled(scale);
        for spec in [spec.clone(), spec.with_threads(4)] {
            let workload = Workload::generate(&spec);
            for mode in MODES {
                let context = format!("{name} x{}, {mode:?}", spec.threads);
                assert_matches_reference(&workload, mode, &context);
            }
        }
    }
}

#[test]
fn racy_and_barrier_workloads_match_the_reference() {
    let racy = Workload::generate(&racy_workload(4));
    for mode in [Mode::FullInstrumentation, Mode::Aikido] {
        let report = assert_matches_reference(&racy, mode, &format!("racy, {mode:?}"));
        assert!(report.race_count() > 0, "racy {mode:?} must report races");
    }
    let mut spec = WorkloadSpec::parsec("bodytrack").unwrap().scaled(0.02);
    spec.barrier_every = 10;
    let barriers = Workload::generate(&spec);
    assert_matches_reference(&barriers, Mode::Aikido, "bodytrack barriers");
}

#[test]
fn spill_pressure_workloads_match_the_reference() {
    // Alternating-thread shared reads in one-access runs with frequent
    // barrier epochs, maximizing word→arena traffic and ownership-hint
    // churn. Thread counts straddle the spill slot's inline-lane budget: 4
    // (inside), 8 (exactly full) and 9 (one thread past the lanes, forcing
    // the boxed overflow clock).
    for threads in [4, 8, 9] {
        let workload = Workload::generate(&spill_pressure_workload(threads));
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let context = format!("spill_pressure x{threads}, {mode:?}");
            assert_matches_reference(&workload, mode, &context);
        }
    }
}

#[test]
fn over_dense_lock_spaces_match_the_reference() {
    // More locks than the scheduler's dense owner table (4096 ids): acquires
    // of the high ids go through the scanned spill list, and mutual
    // exclusion still holds.
    let spec = WorkloadSpec {
        mem_accesses_per_thread: 1_200,
        threads: 4,
        locks: (1 << 12) + 128,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(&spec);
    for mode in MODES {
        let report = assert_matches_reference(&workload, mode, &format!("locks, {mode:?}"));
        assert!(report.counts.sync_ops > 0);
    }
}

#[test]
fn wide_blocks_match_the_reference() {
    // Blocks past the 64-bit exact mask: the Aikido kernel takes the
    // whole-block free path whenever none of their memory instructions is
    // instrumented, and otherwise asks the engine per slot. The synthetic
    // spec has 80 memory instructions per block; the presets at 48 keep
    // their own compute mix, giving blocks of roughly 77–134 instructions.
    let synthetic = WorkloadSpec {
        mem_accesses_per_thread: 2_000,
        threads: 4,
        block_mem_instrs: 80,
        ..WorkloadSpec::default()
    };
    let presets = ["raytrace", "fluidanimate", "canneal"].map(|name| {
        let mut spec = WorkloadSpec::parsec(name)
            .expect("known PARSEC preset")
            .scaled(scale());
        spec.block_mem_instrs = 48;
        spec
    });
    for spec in std::iter::once(synthetic).chain(presets) {
        let workload = Workload::generate(&spec);
        assert!(
            workload.program().iter().any(|b| b.len() > 64),
            "{}: spec must produce mask-inexact blocks",
            spec.name
        );
        for mode in MODES {
            let context = format!("wide blocks {}, {mode:?}", spec.name);
            assert_matches_reference(&workload, mode, &context);
        }
    }
}

/// A spec whose per-thread private area spans more pages than the VM's
/// per-thread TLB has entries, so pages `AikidoVm::TLB_ENTRIES` apart are
/// hit through the same direct-mapped slot.
fn aliasing_spec(seed: u64, threads: u32, extra_pages: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("tlb-alias-{seed}"),
        threads,
        mem_accesses_per_thread: 1_500,
        private_pages_per_thread: AikidoVm::TLB_ENTRIES as u64 + extra_pages,
        ..WorkloadSpec::default()
    }
    .with_seed(seed)
}

#[test]
fn colliding_pages_share_a_direct_mapped_slot() {
    // The premise of the aliasing inputs: addresses one table-span apart
    // collide. (A pure arithmetic fact, pinned so a future table resize
    // keeps the workloads below actually aliasing.)
    let entries = AikidoVm::TLB_ENTRIES;
    let slot = |page: u64| (page as usize) & (entries - 1);
    assert_eq!(slot(7), slot(7 + entries as u64));
    assert_ne!(slot(7), slot(8));
}

#[test]
fn aliased_private_areas_match_the_reference() {
    let workload = Workload::generate(&aliasing_spec(0xA11A5, 4, 1));
    for mode in MODES {
        assert_matches_reference(&workload, mode, &format!("aliased, {mode:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeds, thread counts and area widths: every (thread, page,
    /// kind) stream — including ones that thrash a single TLB slot
    /// from several threads — must be invisible in the report.
    #[test]
    fn aliased_random_workloads_match_the_reference(
        seed in 0u64..1_000_000,
        threads in 2u32..6,
        extra in prop::sample::select(vec![0u64, 1, 3, 64]),
    ) {
        let workload = Workload::generate(&aliasing_spec(seed, threads, extra));
        let context = format!("seed {seed}, x{threads}, +{extra} pages");
        assert_matches_reference(&workload, Mode::Aikido, &context);
    }
}

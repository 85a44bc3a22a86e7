//! The one equivalence oracle: every fast path against `Simulator::reference()`.
//!
//! The default simulator runs the batched per-mode block kernels, FastTrack
//! on packed shadow words, the per-thread inline-check tables and the static
//! pre-analysis plan. `Simulator::reference()` runs the same pipeline with
//! every one of those swapped for its unoptimised counterpart: the scalar
//! per-access loop, the enum `ShadowStore`, a `vm.touch` for every access and
//! no plan. None of the fast paths may change what a run reports, so one
//! helper requires, for every input here, the same `RunReport` (cycles
//! included, so the per-access cost stream matched access by access), the
//! same detector statistics, the same races and the same reconstructed
//! per-block metadata, serialized and compared as JSON.
//!
//! The inputs are chosen to reach each fast path's edge cases: all six
//! PARSEC presets in every mode, racy and barrier-heavy workloads, the
//! spill-pressure scenario at thread counts straddling the inline-lane
//! budget, lock ids past the dense owner table, blocks too wide for the
//! 64-bit instrumentation mask, and private areas wider than the
//! direct-mapped inline-check table.
//!
//! The CI `reference-equivalence` lane runs this file in release mode at
//! `AIKIDO_SCALE=0.05`.

use aikido::fasttrack::FastTrack;
use aikido::workloads::{racy_workload, spill_pressure_workload};
use aikido::{Mode, RunReport, SimConfig, Simulator, Workload, WorkloadSpec};
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

/// Runs `workload` on `sim` with the detector `sim` itself would build, and
/// hands the detector back for inspection.
fn observe(sim: &Simulator, workload: &Workload, mode: Mode) -> (RunReport, FastTrack) {
    let mut ft = sim.new_fasttrack();
    let report = sim.run_with_analysis(workload, mode, &mut ft);
    (report, ft)
}

/// Requires the default and reference executors to agree on everything
/// observable; returns the (shared) report for further checks.
fn assert_matches_reference(workload: &Workload, mode: Mode, context: &str) -> RunReport {
    let (report, fast) = observe(&Simulator::default(), workload, mode);
    let (reference_report, reference) = observe(&Simulator::reference(), workload, mode);
    assert_eq!(report, reference_report, "report mismatch ({context})");
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
    // 80 memory instructions per block pushes every work block past the
    // 64-bit exact mask, so proven-private blocks can only take the
    // whole-block fast path through the static plan the reference omits.
    let spec = WorkloadSpec {
        mem_accesses_per_thread: 2_000,
        threads: 4,
        block_mem_instrs: 80,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(&spec);
    assert!(
        workload.program().iter().any(|b| b.len() > 64),
        "spec must produce mask-inexact blocks"
    );
    for mode in MODES {
        assert_matches_reference(&workload, mode, &format!("wide blocks, {mode:?}"));
    }
}

/// A spec whose per-thread private area spans more pages than the
/// inline-check table has entries, so pages `INLINE_TLB_ENTRIES` apart are
/// hit through the same direct-mapped slot.
fn aliasing_spec(seed: u64, threads: u32, extra_pages: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("tlb-alias-{seed}"),
        threads,
        mem_accesses_per_thread: 1_500,
        private_pages_per_thread: Simulator::INLINE_TLB_ENTRIES as u64 + extra_pages,
        ..WorkloadSpec::default()
    }
    .with_seed(seed)
}

#[test]
fn colliding_pages_share_a_direct_mapped_slot() {
    // The premise of the aliasing inputs: addresses one table-span apart
    // collide. (A pure arithmetic fact, pinned so a future table resize
    // keeps the workloads below actually aliasing.)
    let entries = Simulator::INLINE_TLB_ENTRIES;
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
    /// kind) stream — including ones that thrash a single inline-check slot
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

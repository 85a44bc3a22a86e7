//! The parallel epoch engine's determinism oracle.
//!
//! The epoch-parallel scheduler (PR 3) runs block production on a pool of OS
//! threads while the commit thread retires blocks in logical-clock order.
//! Its contract is absolute: a parallel run is *byte-identical* to the
//! sequential reference at every worker count — same cycles, same counts,
//! same VM/sharing/FastTrack statistics, same races, and the same serialized
//! JSON. These tests prove that contract for all six benchmarks the repo's
//! suites exercise, at 1/2/4/8 workers, in every execution mode, plus a
//! property test over randomly drawn workload spec corners.

use aikido::{Mode, RunReport, Simulator, Workload, WorkloadSpec};
use proptest::prelude::*;

/// The six PARSEC presets the repo's test suites run end to end, spanning
/// the paper's sharing spectrum from raytrace (lowest) to fluidanimate
/// (highest).
const BENCHMARKS: [&str; 6] = [
    "raytrace",
    "blackscholes",
    "vips",
    "fluidanimate",
    "swaptions",
    "canneal",
];

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run(workload: &Workload, mode: Mode, workers: usize) -> RunReport {
    Simulator::default()
        .with_workers(workers)
        .run(workload, mode)
}

/// Field-for-field and serialized-byte equality in one assertion.
fn assert_byte_identical(seq: &RunReport, par: &RunReport, context: &str) {
    assert_eq!(par, seq, "report mismatch ({context})");
    let seq_json = serde_json::to_string(seq).expect("report serializes");
    let par_json = serde_json::to_string(par).expect("report serializes");
    assert_eq!(par_json, seq_json, "serialized bytes differ ({context})");
}

#[test]
fn all_six_benchmarks_are_byte_identical_at_every_worker_count() {
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name)
            .expect("benchmark list contains only PARSEC presets")
            .scaled(0.02);
        let workload = Workload::generate(&spec);
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let seq = run(&workload, mode, 1);
            for workers in WORKER_COUNTS {
                let par = run(&workload, mode, workers);
                assert_byte_identical(&seq, &par, &format!("{name}, {mode:?}, {workers} workers"));
            }
        }
    }
}

#[test]
fn worker_counts_beyond_guest_threads_stay_identical() {
    // More workers than guest threads exercises the pool's clamp (idle
    // workers must not perturb lane assignment).
    let spec = WorkloadSpec::parsec("vips")
        .unwrap()
        .scaled(0.02)
        .with_threads(2);
    let workload = Workload::generate(&spec);
    let seq = run(&workload, Mode::Aikido, 1);
    for workers in [3, 16, 64] {
        let par = run(&workload, Mode::Aikido, workers);
        assert_byte_identical(&seq, &par, &format!("2 threads, {workers} workers"));
    }
}

#[test]
fn racy_and_barrier_heavy_workloads_stay_identical() {
    // Races and barrier cadence are the most schedule-sensitive outputs;
    // drive them explicitly through the parallel path.
    use aikido::workloads::{producer_consumer_workload, racy_workload};
    for spec in [racy_workload(4), producer_consumer_workload(4).scaled(0.5)] {
        let workload = Workload::generate(&spec);
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let seq = run(&workload, mode, 1);
            for workers in WORKER_COUNTS {
                let par = run(&workload, mode, workers);
                assert_byte_identical(&seq, &par, &format!("{}, {mode:?}", spec.name));
            }
        }
    }
}

#[test]
fn spill_pressure_workloads_stay_identical_across_the_lane_boundary() {
    // The packed plane's adversarial scenario (alternating-thread shared
    // reads, maximal spill traffic) at thread counts inside, exactly at,
    // and one past the spill slot's inline-lane budget — the parallel
    // scheduler must not perturb the ownership-hint churn.
    use aikido::workloads::spill_pressure_workload;
    for threads in [4, 8, 9] {
        let workload = Workload::generate(&spill_pressure_workload(threads));
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let seq = run(&workload, mode, 1);
            for workers in WORKER_COUNTS {
                let par = run(&workload, mode, workers);
                assert_byte_identical(
                    &seq,
                    &par,
                    &format!("spill_pressure x{threads}, {mode:?}, {workers} workers"),
                );
            }
        }
    }
}

#[test]
fn analysed_modes_match_the_sequential_report_at_every_worker_count() {
    // Analysis runs on the commit thread at every worker count, so the
    // analysed modes must match the sequential reference byte for byte on
    // the race-heavy presets and on the spill-pressure workloads at thread
    // counts inside, at, and past the inline-lane budget, where the packed
    // plane is under the most churn.
    use aikido::workloads::spill_pressure_workload;
    let mut workloads = vec![
        (
            "fluidanimate".to_string(),
            Workload::generate(&WorkloadSpec::parsec("fluidanimate").unwrap().scaled(0.02)),
        ),
        (
            "canneal".to_string(),
            Workload::generate(&WorkloadSpec::parsec("canneal").unwrap().scaled(0.02)),
        ),
    ];
    for threads in [4, 8, 9] {
        workloads.push((
            format!("spill_pressure x{threads}"),
            Workload::generate(&spill_pressure_workload(threads)),
        ));
    }
    for (name, workload) in &workloads {
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let seq = run(workload, mode, 1);
            for workers in [2, 4, 8] {
                let par = run(workload, mode, workers);
                assert_byte_identical(&seq, &par, &format!("{name}, {mode:?}, {workers} workers"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomly drawn spec corners (thread counts, sharing mix, barriers,
    /// critical sections, racy pairs) stay byte-identical under a parallel
    /// scheduler whose worker count does not divide the thread count.
    #[test]
    fn random_specs_are_parallel_equivalent(
        threads in 2u32..6,
        accesses in 500u64..3_000,
        instr_frac in 0.05f64..0.6,
        locked_frac in 0.0f64..0.8,
        barrier_every in prop::sample::select(vec![0u64, 16, 40]),
        racy_pairs in 0u32..2,
        workers in 2usize..6,
    ) {
        let spec = WorkloadSpec {
            threads,
            mem_accesses_per_thread: accesses,
            instrumented_exec_fraction: instr_frac,
            locked_shared_fraction: locked_frac,
            barrier_every,
            racy_pairs,
            ..WorkloadSpec::default()
        };
        let workload = Workload::generate(&spec);
        let seq = run(&workload, Mode::Aikido, 1);
        let par = run(&workload, Mode::Aikido, workers);
        prop_assert_eq!(&par, &seq);
        let seq_json = serde_json::to_string(&seq).expect("report serializes");
        let par_json = serde_json::to_string(&par).expect("report serializes");
        prop_assert_eq!(par_json, seq_json);
    }
}

//! Property-based integration tests: arbitrary (small) workload
//! specifications must simulate cleanly in every mode, deterministically, and
//! without Aikido inventing races the full tool does not see.

use aikido::prelude::*;
use aikido::{StaticAudit, StaticReport};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        2u32..5,                                  // threads
        800u64..3_000,                            // accesses per thread
        0.0f64..0.8,                              // instrumented fraction
        0.2f64..1.0,                              // shared-within fraction
        0.2f64..0.95,                             // read fraction
        0.0f64..1.0,                              // locked fraction
        0u32..3,                                  // racy pairs
        prop::sample::select(vec![0u64, 16, 40]), // barrier cadence
        any::<u64>(),                             // seed
    )
        .prop_map(
            |(threads, accesses, instr, shared_within, reads, locked, racy, barrier, seed)| {
                WorkloadSpec {
                    name: "prop".to_string(),
                    threads,
                    mem_accesses_per_thread: accesses,
                    instrumented_exec_fraction: instr,
                    shared_within_instrumented: shared_within,
                    read_fraction: reads,
                    compute_per_mem: 1.0,
                    shared_pages: 12,
                    private_pages_per_thread: 8,
                    locks: 4,
                    locked_shared_fraction: locked,
                    critical_section_blocks: 3,
                    racy_pairs: racy,
                    barrier_every: barrier,
                    shared_static_blocks: 8,
                    private_static_blocks: 12,
                    block_mem_instrs: 4,
                    seed,
                }
            },
        )
}

fn race_blocks(report: &RunReport) -> BTreeSet<u64> {
    report.races.iter().map(|r| r.addr.raw() / 8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated workload completes in every mode, with consistent
    /// counters, and the same access totals in all three modes. The Aikido
    /// leg runs under the static-pass audit, which must stay clean.
    #[test]
    fn any_small_workload_simulates_cleanly(spec in arb_spec()) {
        let workload = Workload::generate(&spec);
        let system = AikidoSystem::new();
        let native = system.run(&workload, Mode::Native);
        let full = system.run(&workload, Mode::FullInstrumentation);
        let static_report = StaticReport::for_workload(&workload);
        let mut audited = StaticAudit::new(
            system.simulator().new_fasttrack(),
            &static_report,
            workload.layout(),
        );
        let aikido = system.run_with_analysis(&workload, Mode::Aikido, &mut audited);
        audited.assert_clean();

        prop_assert_eq!(native.counts.mem_accesses, full.counts.mem_accesses);
        prop_assert_eq!(native.counts.mem_accesses, aikido.counts.mem_accesses);
        prop_assert!(aikido.counts.instrumented_accesses <= aikido.counts.mem_accesses);
        prop_assert!(aikido.counts.shared_accesses <= aikido.counts.instrumented_accesses);
        prop_assert!(native.cycles <= full.cycles);
        prop_assert!(native.cycles <= aikido.cycles);
    }

    /// Aikido never reports a racy block the fully instrumented tool does not
    /// report (no false positives added by the acceleration).
    #[test]
    fn aikido_races_are_a_subset_of_full_races(spec in arb_spec()) {
        let workload = Workload::generate(&spec);
        let system = AikidoSystem::new();
        let full = race_blocks(&system.run(&workload, Mode::FullInstrumentation));
        let aikido = race_blocks(&system.run(&workload, Mode::Aikido));
        for block in &aikido {
            prop_assert!(full.contains(block), "aikido-only race at block {:#x}", block);
        }
    }

    /// Race-free specifications (no racy pairs) stay race-free under both
    /// tools — the workload generator's synchronisation discipline and the
    /// detectors agree.
    #[test]
    fn race_free_specs_produce_no_reports(mut spec in arb_spec()) {
        spec.racy_pairs = 0;
        let workload = Workload::generate(&spec);
        let system = AikidoSystem::new();
        prop_assert_eq!(system.run(&workload, Mode::FullInstrumentation).race_count(), 0);
        prop_assert_eq!(system.run(&workload, Mode::Aikido).race_count(), 0);
    }

    /// Simulation is a pure function of the workload spec.
    #[test]
    fn simulation_is_deterministic(spec in arb_spec()) {
        let workload = Workload::generate(&spec);
        let system = AikidoSystem::new();
        let a = system.run(&workload, Mode::Aikido);
        let b = system.run(&workload, Mode::Aikido);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.counts, b.counts);
    }
}

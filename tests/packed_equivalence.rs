//! The packed metadata plane, isolated from the other fast paths.
//!
//! FastTrack's hot-path storage is one packed 64-bit shadow word per block;
//! the enum-based `ShadowStore` representation is kept behind
//! `FastTrack::with_reference_store()`, the store `Simulator::reference()`
//! runs on. `tests/reference_equivalence.rs` swaps every fast path at once;
//! this suite swaps only the store — same default simulator, same kernels
//! — so a mismatch here points at
//! the packed plane alone. It requires the same `RunReport` (cycles
//! included), detector statistics, races and reconstructed per-block
//! metadata, serialized and compared as JSON.
//!
//! The CI `reference-equivalence` lane runs this file in release mode at
//! `AIKIDO_SCALE=0.05`.

use aikido::fasttrack::FastTrack;
use aikido::{Mode, RunReport, Simulator, Workload, WorkloadSpec};

/// The six PARSEC presets the repo's suites exercise end to end.
const BENCHMARKS: [&str; 6] = [
    "raytrace",
    "blackscholes",
    "vips",
    "fluidanimate",
    "swaptions",
    "canneal",
];

/// Workload scale: `AIKIDO_SCALE` when set (the CI release lane runs 0.05),
/// a fast default otherwise.
fn scale() -> f64 {
    std::env::var("AIKIDO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.02)
}

fn run_with(workload: &Workload, mode: Mode, mut ft: FastTrack) -> (RunReport, FastTrack) {
    let report = Simulator::default().run_with_analysis(workload, mode, &mut ft);
    (report, ft)
}

fn assert_equivalent(workload: &Workload, mode: Mode, context: &str) {
    let (packed_report, packed) = run_with(workload, mode, FastTrack::new());
    let (reference_report, reference) =
        run_with(workload, mode, FastTrack::new().with_reference_store());
    assert!(packed.packed_words() && !reference.packed_words());
    assert_eq!(
        packed_report, reference_report,
        "report mismatch ({context})"
    );
    assert_eq!(
        packed.stats(),
        reference.stats(),
        "stats mismatch ({context})"
    );
    assert_eq!(
        packed.races(),
        reference.races(),
        "races mismatch ({context})"
    );
    let packed_json = serde_json::to_string(&packed.var_states()).expect("states serialize");
    let reference_json = serde_json::to_string(&reference.var_states()).expect("states serialize");
    assert_eq!(
        packed_json, reference_json,
        "shadow states mismatch ({context})"
    );
}

#[test]
fn packed_words_match_the_reference_store_on_all_six_benchmarks() {
    let scale = scale();
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name)
            .expect("benchmark list contains only PARSEC presets")
            .scaled(scale);
        let workload = Workload::generate(&spec);
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            assert_equivalent(&workload, mode, &format!("{name}, {mode:?}"));
        }
    }
}

#[test]
fn packed_words_match_the_reference_store_on_racy_and_barrier_workloads() {
    use aikido::workloads::racy_workload;
    let racy = Workload::generate(&racy_workload(4));
    for mode in [Mode::FullInstrumentation, Mode::Aikido] {
        assert_equivalent(&racy, mode, &format!("racy, {mode:?}"));
    }
    let mut spec = WorkloadSpec::parsec("bodytrack").unwrap().scaled(0.02);
    spec.barrier_every = 10;
    let barriers = Workload::generate(&spec);
    assert_equivalent(&barriers, Mode::Aikido, "bodytrack barriers");
}

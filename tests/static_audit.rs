//! End-to-end audit of the static pre-analysis (PR 6).
//!
//! The static pass derives sharing proofs from the scenario model and the
//! layout geometry — never from the generator's trusted labels — so its
//! claims are audited three ways here:
//!
//! * **runtime oracle** — all six benchmarks run in all three modes with a
//!   [`StaticAudit`] wrapper around the FastTrack detector; no access from a
//!   claimed-private block may hit a shared page, and the wrapped run's
//!   report must stay byte-identical to the unwrapped one;
//! * **coverage** — on the four throughput benchmarks the pass must
//!   independently prove at least 95% of the generator-labeled private
//!   blocks (it currently proves 100%), and never claim a labeled-shared
//!   block;
//! * **determinism** — two analysis runs over the same spec serialise to
//!   identical bytes, and the derived plan leaves every report unchanged
//!   (checked against `Simulator::reference()`, which runs without it).
//!
//! The CI `static-audit` lane runs this file in release mode at
//! `AIKIDO_SCALE=0.05`.

use aikido::fasttrack::FastTrack;
use aikido::{Mode, Simulator, StaticAudit, StaticReport, Workload, WorkloadSpec};

/// The six PARSEC presets the repo's suites exercise end to end.
const BENCHMARKS: [&str; 6] = [
    "raytrace",
    "blackscholes",
    "vips",
    "fluidanimate",
    "swaptions",
    "canneal",
];

/// The four presets the throughput bench (and the coverage criterion) uses.
const THROUGHPUT_BENCHMARKS: [&str; 4] = ["raytrace", "blackscholes", "vips", "fluidanimate"];

/// Workload scale: `AIKIDO_SCALE` when set (the CI release lane runs 0.05),
/// a fast default otherwise.
fn scale() -> f64 {
    std::env::var("AIKIDO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.02)
}

fn workload(name: &str) -> Workload {
    let spec = WorkloadSpec::parsec(name)
        .expect("benchmark list contains only PARSEC presets")
        .scaled(scale());
    Workload::generate(&spec)
}

#[test]
fn audited_runs_are_clean_and_byte_identical_on_all_six_benchmarks() {
    for name in BENCHMARKS {
        let w = workload(name);
        let report = StaticReport::for_workload(&w);
        for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
            let mut plain = FastTrack::new();
            let plain_report = Simulator::default().run_with_analysis(&w, mode, &mut plain);

            let mut audited = StaticAudit::new(FastTrack::new(), &report, w.layout());
            let audited_report = Simulator::default().run_with_analysis(&w, mode, &mut audited);

            audited.assert_clean();
            assert_eq!(
                audited_report, plain_report,
                "audit wrapper perturbed the run ({name}, {mode:?})"
            );
            let inner = audited.into_inner();
            assert_eq!(
                inner.races(),
                plain.races(),
                "audit wrapper perturbed the detector ({name}, {mode:?})"
            );
            assert_eq!(inner.stats(), plain.stats());
        }
    }
}

#[test]
fn static_pass_proves_at_least_95_percent_of_labeled_private_blocks() {
    for name in THROUGHPUT_BENCHMARKS {
        let w = workload(name);
        let report = StaticReport::for_workload(&w);
        let labeled = w.private_block_ids();
        let proven = labeled
            .iter()
            .filter(|&&b| report.is_proven_private(b))
            .count();
        assert!(
            proven as f64 >= 0.95 * labeled.len() as f64,
            "{name}: proved only {proven}/{} labeled-private blocks",
            labeled.len()
        );
        for &b in w.shared_block_ids() {
            assert!(
                !report.is_proven_private(b),
                "{name}: labeled-shared {b:?} claimed private"
            );
        }
    }
}

#[test]
fn derived_plan_leaves_reports_byte_identical() {
    for name in BENCHMARKS {
        let w = workload(name);
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let with_precheck = Simulator::default().run(&w, mode);
            let without = Simulator::reference().run(&w, mode);
            assert_eq!(with_precheck, without, "{name}, {mode:?}");
        }
    }
}

#[test]
fn static_reports_are_deterministic_down_to_the_bytes() {
    for name in BENCHMARKS {
        let spec = WorkloadSpec::parsec(name).unwrap().scaled(scale());
        let a = StaticReport::for_workload(&Workload::generate(&spec));
        let b = StaticReport::for_workload(&Workload::generate(&spec));
        assert_eq!(a, b, "{name}: reports differ structurally");
        assert_eq!(
            serde_json::to_string(&a).expect("report serializes"),
            serde_json::to_string(&b).expect("report serializes"),
            "{name}: reports differ in serialised bytes"
        );
    }
}

#[test]
fn adversarial_aliasing_claims_stay_sound_under_audit() {
    // Every shared block of the aliasing workload spends half its accesses
    // in private memory; the pass must still keep them out of the proven set
    // and the oracle confirms the claims it does make.
    let w = Workload::generate(&aikido::workloads::aliasing_stress_workload(4));
    let report = StaticReport::for_workload(&w);
    assert!(w
        .private_block_ids()
        .iter()
        .all(|&b| report.is_proven_private(b)));
    assert!(!w
        .shared_block_ids()
        .iter()
        .any(|&b| report.is_proven_private(b)));
    for mode in [Mode::FullInstrumentation, Mode::Aikido] {
        let mut audited = StaticAudit::new(FastTrack::new(), &report, w.layout());
        Simulator::default().run_with_analysis(&w, mode, &mut audited);
        audited.assert_clean();
    }
}

//! Mutation testing of the static pre-analysis audit oracle.
//!
//! The honest pipeline never trips the oracle (see `static_audit.rs`), so
//! these tests prove the oracle actually *bites*: they record ground truth —
//! exactly which blocks touch the shared region, and how often — with a
//! purpose-built recording analysis, then inject deliberately unsound
//! claims and require the violation count to match the recorded access
//! count **exactly**. Raw "proven private" claims go in through
//! [`StaticAudit::with_claims`]; a tampered report whose sharing blocks are
//! relabelled [`BlockClass::Unreachable`] goes in through
//! [`StaticAudit::new`]. An oracle that misses even one delivery from one
//! tampered block fails the assertion, so every injection must be caught.
//!
//! The oracle is the one soundness check on the static pass: the simulator
//! never consults the pass, so tampered claims cannot change the deliveries
//! the oracle needs to see.

use std::collections::BTreeMap;

use aikido::staticcheck::BlockClass;
use aikido::types::NullAnalysis;
use aikido::{
    AccessContext, AnalysisReport, Mode, SharedDataAnalysis, Simulator, StaticAudit, StaticReport,
    Workload, WorkloadSpec,
};
use proptest::prelude::*;

/// Records, per static block, how many delivered accesses landed in the
/// shared region — the ground truth the injected claims are scored against.
#[derive(Debug)]
struct RecordingAnalysis {
    shared_start: u64,
    shared_end: u64,
    shared_hits: BTreeMap<usize, u64>,
}

impl RecordingAnalysis {
    fn for_workload(w: &Workload) -> Self {
        let shared_start = w.layout().shared_base().raw();
        RecordingAnalysis {
            shared_start,
            shared_end: shared_start + w.layout().shared_bytes(),
            shared_hits: BTreeMap::new(),
        }
    }
}

impl SharedDataAnalysis for RecordingAnalysis {
    fn name(&self) -> &'static str {
        "mutation-ground-truth"
    }

    fn on_access(&mut self, cx: AccessContext) {
        let raw = cx.addr.raw();
        if raw >= self.shared_start && raw < self.shared_end {
            *self
                .shared_hits
                .entry(cx.instr.block().raw() as usize)
                .or_insert(0) += 1;
        }
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        Vec::new()
    }
}

fn small(name: &str) -> Workload {
    let spec = WorkloadSpec::parsec(name)
        .expect("known PARSEC preset")
        .scaled(0.02)
        .with_threads(4);
    Workload::generate(&spec)
}

/// Ground truth for `w` under `mode`: per-block shared-delivery counts.
fn ground_truth(w: &Workload, mode: Mode) -> BTreeMap<usize, u64> {
    let mut rec = RecordingAnalysis::for_workload(w);
    Simulator::default().run_with_analysis(w, mode, &mut rec);
    rec.shared_hits
}

/// Runs `w` under `mode` with `claims` injected into the audit oracle and
/// returns the violation count.
fn violations_with_claims(w: &Workload, mode: Mode, claims: Vec<bool>) -> u64 {
    let mut audited = StaticAudit::with_claims(NullAnalysis::new(), claims, w.layout());
    Simulator::default().run_with_analysis(w, mode, &mut audited);
    audited.violations()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Inject a pseudo-random non-empty subset of the blocks that provably
    /// touch shared memory; the oracle must flag *exactly* the recorded
    /// number of shared deliveries from those blocks — no more, no less.
    #[test]
    fn every_injected_unsound_claim_is_caught(
        name in prop::sample::select(vec![
            "raytrace", "blackscholes", "vips", "fluidanimate", "swaptions", "canneal",
        ]),
        mask in 1u64..u64::MAX,
    ) {
        let w = small(name);
        let truth = ground_truth(&w, Mode::FullInstrumentation);
        prop_assert!(!truth.is_empty(), "{name}: no shared deliveries recorded");

        // Choose the subset by masking the sorted sharing blocks; force the
        // first one in if the mask happens to select none.
        let sharing: Vec<usize> = truth.keys().copied().collect();
        let mut injected: Vec<usize> = sharing
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, b)| *b)
            .collect();
        if injected.is_empty() {
            injected.push(sharing[0]);
        }

        let mut claims = vec![false; sharing.iter().max().unwrap() + 1];
        for &b in &injected {
            claims[b] = true;
        }
        let expected: u64 = injected.iter().map(|b| truth[b]).sum();
        prop_assert!(expected > 0);

        let caught = violations_with_claims(&w, Mode::FullInstrumentation, claims);
        prop_assert_eq!(
            caught, expected,
            "{}: oracle caught {} of {} tampered deliveries", name, caught, expected
        );
    }
}

#[test]
fn injecting_every_labeled_shared_block_is_fully_caught_in_full_mode() {
    for name in ["raytrace", "canneal"] {
        let w = small(name);
        let truth = ground_truth(&w, Mode::FullInstrumentation);
        let max_block = w
            .shared_block_ids()
            .iter()
            .map(|b| b.raw() as usize)
            .max()
            .expect("benchmarks have shared blocks");
        let mut claims = vec![false; max_block + 1];
        for b in w.shared_block_ids() {
            claims[b.raw() as usize] = true;
        }
        let expected: u64 = w
            .shared_block_ids()
            .iter()
            .filter_map(|b| truth.get(&(b.raw() as usize)))
            .sum();
        assert!(expected > 0, "{name}: shared blocks never delivered");
        let caught = violations_with_claims(&w, Mode::FullInstrumentation, claims);
        assert_eq!(caught, expected, "{name}");
    }
}

#[test]
fn aikido_mode_deliveries_are_audited_with_the_same_exactness() {
    // Aikido delivers only shared-page accesses, so the recorded counts are
    // a subset of Full mode's — the oracle must still match them exactly.
    for name in ["raytrace", "canneal"] {
        let w = small(name);
        let truth = ground_truth(&w, Mode::Aikido);
        assert!(!truth.is_empty(), "{name}: Aikido delivered nothing shared");
        let max_block = *truth.keys().max().unwrap();
        let mut claims = vec![false; max_block + 1];
        for &b in truth.keys() {
            claims[b] = true;
        }
        let expected: u64 = truth.values().sum();
        let caught = violations_with_claims(&w, Mode::Aikido, claims);
        assert_eq!(caught, expected, "{name}");
    }
}

#[test]
fn an_injected_unreachable_class_is_caught_exactly() {
    // `StaticAudit::new` takes its claims from the report's classes, and an
    // `Unreachable` verdict claims the block never runs, so it never touches
    // shared memory. Relabel every block that delivered a shared access;
    // the honest claims audit clean, so the oracle must flag exactly the
    // relabelled blocks' recorded deliveries.
    for name in ["raytrace", "canneal"] {
        let w = small(name);
        for mode in [Mode::FullInstrumentation, Mode::Aikido] {
            let truth = ground_truth(&w, mode);
            assert!(!truth.is_empty(), "{name} {mode:?}: nothing shared");
            let mut report = StaticReport::for_workload(&w);
            for &b in truth.keys() {
                assert_ne!(report.classes[b], BlockClass::Unreachable, "{name}: {b}");
                report.classes[b] = BlockClass::Unreachable;
            }
            let mut audited = StaticAudit::new(NullAnalysis::new(), &report, w.layout());
            Simulator::default().run_with_analysis(&w, mode, &mut audited);
            let expected: u64 = truth.values().sum();
            assert_eq!(audited.violations(), expected, "{name} {mode:?}");
        }
    }
}

#[test]
fn unclaimed_blocks_never_trip_the_oracle() {
    let w = small("canneal");
    assert_eq!(
        violations_with_claims(&w, Mode::FullInstrumentation, Vec::new()),
        0,
        "empty claim vector must audit clean"
    );
}

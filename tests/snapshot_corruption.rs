//! Property-based corruption testing of the snapshot plane (PR 7): flip a
//! bit at a *random* offset, or truncate at a *random* length, and restore
//! must return a structured `SnapshotError` — never panic, and never
//! silently diverge from the pinned uninterrupted report.
//!
//! The deterministic sweep in `snapshot_faults.rs` covers every fault family
//! at fixed strides; this suite samples the offset space randomly so the
//! detection claim does not quietly depend on stride-aligned corruption.

use std::sync::OnceLock;

use aikido::{CheckpointOutcome, Mode, RunReport, Simulator, Snapshot, Workload, WorkloadSpec};
use proptest::prelude::*;

/// One shared fixture: the workload, its uninterrupted Aikido report (the
/// pin), and a valid midpoint checkpoint image. Built once — the proptest
/// cases only mutate copies of the image.
struct Fixture {
    workload: Workload,
    uninterrupted: RunReport,
    image: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = WorkloadSpec::parsec("fluidanimate")
            .expect("known PARSEC preset")
            .scaled(0.02)
            .with_threads(4);
        let workload = Workload::generate(&spec);
        let sim = Simulator::default();
        let uninterrupted = sim.run(&workload, Mode::Aikido);
        let midpoint = uninterrupted.counts.block_execs / 2;
        let image = match sim
            .checkpoint(&workload, Mode::Aikido, midpoint)
            .expect("checkpoint")
        {
            CheckpointOutcome::Paused(snapshot) => snapshot.into_bytes(),
            CheckpointOutcome::Completed(_) => panic!("midpoint checkpoint must pause"),
        };
        Fixture {
            workload,
            uninterrupted,
            image,
        }
    })
}

/// The only acceptable outcomes for a tampered image: a structural rejection
/// at parse time or a structured error from the resume. Returns the error
/// description for the assertion message.
fn restore_outcome(bytes: Vec<u8>) -> Result<RunReport, String> {
    let fx = fixture();
    let snapshot = Snapshot::from_bytes(bytes).map_err(|e| e.to_string())?;
    Simulator::default()
        .resume(&fx.workload, &snapshot)
        .map_err(|e| e.to_string())
}

#[test]
fn the_untampered_image_restores_to_the_pinned_report() {
    let fx = fixture();
    let resumed = restore_outcome(fx.image.clone()).expect("clean image restores");
    assert_eq!(resumed, fx.uninterrupted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single bit flip, anywhere in the image, must be detected: every
    /// byte of every section is under the word-wise section checksum, which
    /// always changes on a single-bit flip, and the container header is
    /// validated field by field.
    #[test]
    fn a_random_bit_flip_is_always_detected(offset in 0usize..1_000_000, bit in 0u8..8) {
        let fx = fixture();
        let mut bytes = fx.image.clone();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let outcome = restore_outcome(bytes);
        prop_assert!(
            outcome.is_err(),
            "flip at byte {at} bit {bit} of {} was not detected",
            fx.image.len()
        );
    }

    /// Any strict-prefix truncation must be detected: a section length (or
    /// the container header itself) no longer fits the image.
    #[test]
    fn a_random_truncation_is_always_detected(len in 0usize..1_000_000) {
        let fx = fixture();
        let keep = len % fx.image.len();
        let outcome = restore_outcome(fx.image[..keep].to_vec());
        prop_assert!(
            outcome.is_err(),
            "truncation to {keep} of {} bytes was not detected",
            fx.image.len()
        );
    }

    /// Flipping a bit and then asking for the *full* pipeline (parse plus
    /// resume) must never reproduce the pinned report: detection, not
    /// accidental equality, is the only path to a passing restore.
    #[test]
    fn a_tampered_image_never_reproduces_the_pinned_report(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let fx = fixture();
        let mut bytes = fx.image.clone();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        match restore_outcome(bytes) {
            Err(message) => prop_assert!(!message.is_empty()),
            Ok(report) => prop_assert!(
                false,
                "tampered image restored silently to {:?}",
                report.counts
            ),
        }
    }
}

//! Crash-recovery equivalence: a run paused at a checkpoint, serialized,
//! restored from raw bytes and driven to completion must produce a report
//! **byte-identical** to the uninterrupted run — for every benchmark, every
//! execution mode, every worker count, and arbitrarily chained checkpoints.
//!
//! This is the tentpole invariant of the snapshot plane (PR 7): the report
//! derives from every layer of simulation state (scheduler clocks, FastTrack
//! vector clocks, page protections, sharing classifications, code-cache
//! contents), so byte equality here proves the serialization captured all of
//! it and the restore rebuilt all of it.

use aikido::{CheckpointOutcome, Mode, RunReport, Simulator, Snapshot, Workload, WorkloadSpec};

const BENCHMARKS: [&str; 6] = [
    "raytrace",
    "blackscholes",
    "vips",
    "fluidanimate",
    "swaptions",
    "canneal",
];

const MODES: [Mode; 3] = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];

fn small(name: &str) -> Workload {
    let spec = WorkloadSpec::parsec(name)
        .expect("known PARSEC preset")
        .scaled(0.02)
        .with_threads(4);
    Workload::generate(&spec)
}

/// Checkpoints `w` at `after_blocks` and returns the serialized image; the
/// caller decides how to restore it. Panics if the run completes first.
fn snapshot_at(sim: &Simulator, w: &Workload, mode: Mode, after_blocks: u64) -> Vec<u8> {
    match sim.checkpoint(w, mode, after_blocks).expect("checkpoint") {
        CheckpointOutcome::Paused(snapshot) => snapshot.into_bytes(),
        CheckpointOutcome::Completed(_) => {
            panic!("workload completed before the {after_blocks}-block checkpoint")
        }
    }
}

/// Restores from raw bytes (the full integrity validation path a crash
/// recovery exercises) and resumes to completion.
fn resume_from_bytes(sim: &Simulator, w: &Workload, bytes: Vec<u8>) -> RunReport {
    let snapshot = Snapshot::from_bytes(bytes).expect("image validates");
    sim.resume(w, &snapshot).expect("resume")
}

#[test]
fn resume_is_byte_identical_across_benchmarks_and_modes() {
    for name in BENCHMARKS {
        let w = small(name);
        for mode in MODES {
            let sim = Simulator::default();
            let uninterrupted = sim.run(&w, mode);
            let midpoint = uninterrupted.counts.block_execs / 2;
            let bytes = snapshot_at(&sim, &w, mode, midpoint);
            let resumed = resume_from_bytes(&sim, &w, bytes);
            assert_eq!(resumed, uninterrupted, "{name} {mode:?}");
        }
    }
}

#[test]
fn resume_is_byte_identical_across_worker_counts() {
    // Checkpoint under one worker configuration, resume under another: the
    // snapshot must be worker-agnostic in both directions, because the
    // parallel epoch engine is proven byte-identical to the sequential path.
    let w = small("swaptions");
    for mode in MODES {
        let uninterrupted = Simulator::default().run(&w, mode);
        let midpoint = uninterrupted.counts.block_execs / 2;
        for checkpoint_workers in [1, 4] {
            let bytes = snapshot_at(
                &Simulator::default().with_workers(checkpoint_workers),
                &w,
                mode,
                midpoint,
            );
            for resume_workers in [1, 2, 8] {
                let resumed = resume_from_bytes(
                    &Simulator::default().with_workers(resume_workers),
                    &w,
                    bytes.clone(),
                );
                assert_eq!(
                    resumed, uninterrupted,
                    "{mode:?} checkpoint@{checkpoint_workers}w resume@{resume_workers}w"
                );
            }
        }
    }
}

#[test]
fn parallel_and_sequential_snapshots_cross_resume_byte_identically() {
    // A 4-worker checkpoint pins every slot to its exact stream cursor and
    // analyses on the commit thread, so the image it writes is
    // byte-identical to the sequential one. Both crossings must therefore
    // reproduce the uninterrupted report: checkpoint@4w → resume@sequential,
    // and checkpoint@sequential → resume@4w.
    let parallel_4w = || Simulator::default().with_workers(4);
    let sequential = || Simulator::default().with_workers(1);
    let w = small("fluidanimate");
    for mode in [Mode::FullInstrumentation, Mode::Aikido] {
        let uninterrupted = sequential().run(&w, mode);
        let midpoint = uninterrupted.counts.block_execs / 2;

        let parallel_bytes = snapshot_at(&parallel_4w(), &w, mode, midpoint);
        let sequential_bytes = snapshot_at(&sequential(), &w, mode, midpoint);
        assert_eq!(
            parallel_bytes, sequential_bytes,
            "{mode:?}: parallel and sequential checkpoints diverge on disk"
        );

        let resumed = resume_from_bytes(&sequential(), &w, parallel_bytes);
        assert_eq!(resumed, uninterrupted, "{mode:?} 4w → sequential");

        let resumed = resume_from_bytes(&parallel_4w(), &w, sequential_bytes);
        assert_eq!(resumed, uninterrupted, "{mode:?} sequential → 4w");
    }
}

#[test]
fn chained_checkpoints_converge_on_the_uninterrupted_report() {
    // Pause, serialize, restore, run a quarter, pause again — state that
    // survives one round trip but decays over several would escape the
    // single-checkpoint tests.
    for name in ["vips", "canneal"] {
        let w = small(name);
        let sim = Simulator::default();
        let uninterrupted = sim.run(&w, Mode::Aikido);
        let total = uninterrupted.counts.block_execs;
        let step = (total / 4).max(1);

        let mut target = step;
        let mut outcome = sim
            .checkpoint(&w, Mode::Aikido, target)
            .expect("checkpoint");
        let mut pauses = 0;
        let report = loop {
            match outcome {
                CheckpointOutcome::Completed(report) => break *report,
                CheckpointOutcome::Paused(snapshot) => {
                    pauses += 1;
                    let snapshot =
                        Snapshot::from_bytes(snapshot.into_bytes()).expect("image validates");
                    target += step;
                    outcome = sim
                        .resume_until(&w, &snapshot, target)
                        .expect("resume_until");
                }
            }
        };
        assert!(
            pauses >= 2,
            "{name}: only {pauses} pauses over {total} blocks"
        );
        assert_eq!(report, uninterrupted, "{name}");
    }
}

#[test]
fn early_and_late_checkpoints_both_round_trip() {
    // The first scheduling round and the last stretch of the run hold very
    // different state shapes (nothing classified yet vs. everything hot).
    let w = small("fluidanimate");
    let sim = Simulator::default();
    let uninterrupted = sim.run(&w, Mode::Aikido);
    let total = uninterrupted.counts.block_execs;
    for target in [1, total.saturating_sub(20)] {
        let bytes = snapshot_at(&sim, &w, Mode::Aikido, target);
        let resumed = resume_from_bytes(&sim, &w, bytes);
        assert_eq!(resumed, uninterrupted, "checkpoint after {target} blocks");
    }
}

#[test]
fn stale_ftrk_section_versions_are_rejected_with_a_structured_error() {
    // PR 9 rebuilt the detector's spill plane (inline epoch lanes +
    // ownership epochs) and bumped the FTRK section to v2; a v1 image must
    // be refused by the version validation, not silently restored into the
    // new plane. Hand-patch a valid image's FTRK header back to v1 and fix
    // its checksum, so only the version check can catch the mismatch.
    use aikido::SimError;

    let w = small("raytrace");
    let sim = Simulator::default();
    let report = sim.run(&w, Mode::Aikido);
    let mut bytes = snapshot_at(&sim, &w, Mode::Aikido, report.counts.block_execs / 2);

    // Walk the container framing — magic(8) + container version(2), then
    // tag(4)/version(2)/length(8)/payload/checksum(8) per section — to the
    // FTRK section.
    let mut at = 10;
    let (start, end) = loop {
        assert!(at + 22 <= bytes.len(), "image ended before an FTRK section");
        let len = u64::from_le_bytes(bytes[at + 6..at + 14].try_into().unwrap()) as usize;
        let end = at + 14 + len + 8;
        if &bytes[at..at + 4] == b"FTRK" {
            break (at, end);
        }
        at = end;
    };
    assert_eq!(
        u16::from_le_bytes(bytes[start + 4..start + 6].try_into().unwrap()),
        2,
        "the detector writes FTRK v2 since the spill-plane rebuild"
    );
    bytes[start + 4..start + 6].copy_from_slice(&1u16.to_le_bytes());
    let checksum = aikido::snapshot::fnv1a(&bytes[start..end - 8]);
    bytes[end - 8..end].copy_from_slice(&checksum.to_le_bytes());

    let snapshot = Snapshot::from_bytes(bytes).expect("checksum-valid image");
    let err = sim
        .resume(&w, &snapshot)
        .expect_err("a v1 FTRK section must not restore");
    let SimError::Snapshot(err) = err else {
        panic!("expected a structured snapshot error, got {err:?}");
    };
    assert_eq!(err.section, "FTRK", "{err}");
    assert_eq!(err.offset, (start + 4) as u64, "{err}");
    assert!(err.reason.contains("version 1"), "{err}");
    assert!(err.reason.contains("expected version 2"), "{err}");
}

#[test]
fn snapshot_images_are_deterministic() {
    // Two checkpoints of the same run at the same block target must produce
    // byte-identical images — the property the CI crash-recovery lane's
    // `cmp` relies on.
    let w = small("blackscholes");
    let sim = Simulator::default();
    let report = sim.run(&w, Mode::Aikido);
    let midpoint = report.counts.block_execs / 2;
    let a = snapshot_at(&sim, &w, Mode::Aikido, midpoint);
    let b = snapshot_at(&sim, &w, Mode::Aikido, midpoint);
    assert_eq!(a, b);
}

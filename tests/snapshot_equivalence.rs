//! Crash-recovery equivalence: a run paused at a checkpoint, serialized,
//! restored from raw bytes and driven to completion must produce a report
//! **byte-identical** to the uninterrupted run — for every benchmark, every
//! execution mode, and arbitrarily chained checkpoints.
//!
//! This is the tentpole invariant of the snapshot plane (PR 7): the report
//! derives from every layer of simulation state (scheduler clocks, FastTrack
//! vector clocks, page protections, sharing classifications, code-cache
//! contents), so byte equality here proves the serialization captured all of
//! it and the restore rebuilt all of it.

use aikido::fasttrack::FastTrack;
use aikido::types::SLAB_BITS;
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
    // FTRK v3 groups tracked states by shadow slab, and DBIE v2 drops the
    // static plan and the stored masks; images of the older layouts must be
    // refused by the version validation, not misread. Hand-patch a valid
    // image's section header back one version and fix its checksum, so only
    // the version check can catch the mismatch.
    use aikido::SimError;

    let w = small("raytrace");
    let sim = Simulator::default();
    let report = sim.run(&w, Mode::Aikido);
    let image = snapshot_at(&sim, &w, Mode::Aikido, report.counts.block_execs / 2);

    for (tag, current) in [(*b"FTRK", 3u16), (*b"DBIE", 2)] {
        let name = std::str::from_utf8(&tag).unwrap();
        let stale = current - 1;
        let mut bytes = image.clone();
        // Walk the container framing — magic(8) + container version(2), then
        // tag(4)/version(2)/length(8)/payload/checksum(8) per section — to
        // the section.
        let mut at = 10;
        let (start, end) = loop {
            assert!(
                at + 22 <= bytes.len(),
                "image ended before a {name} section"
            );
            let len = u64::from_le_bytes(bytes[at + 6..at + 14].try_into().unwrap()) as usize;
            let end = at + 14 + len + 8;
            if bytes[at..at + 4] == tag {
                break (at, end);
            }
            at = end;
        };
        assert_eq!(
            u16::from_le_bytes(bytes[start + 4..start + 6].try_into().unwrap()),
            current,
            "the simulator writes {name} v{current}"
        );
        bytes[start + 4..start + 6].copy_from_slice(&stale.to_le_bytes());
        let checksum = aikido::snapshot::checksum(&bytes[start..end - 8]);
        bytes[end - 8..end].copy_from_slice(&checksum.to_le_bytes());

        let snapshot = Snapshot::from_bytes(bytes).expect("checksum-valid image");
        let err = sim
            .resume(&w, &snapshot)
            .expect_err("a stale section must not restore");
        let SimError::Snapshot(err) = err;
        assert_eq!(err.section, name, "{err}");
        assert_eq!(err.offset, (start + 4) as u64, "{err}");
        assert!(err.reason.contains(&format!("version {stale}")), "{err}");
        assert!(
            err.reason.contains(&format!("expected version {current}")),
            "{err}"
        );
    }
}

#[test]
fn ftrk_stores_ten_bytes_per_tracked_block_plus_ten_per_slab() {
    // The blackscholes full-mode midpoint image: walked record by record,
    // its tracked states cost exactly 10 bytes per block (slot + word) and
    // 10 per slab (chunk + count); the rest of the payload is clocks —
    // thread and lock clocks, and the explicit records of the few spilled
    // states — reports and statistics.
    let spec = WorkloadSpec::parsec("blackscholes")
        .expect("known PARSEC preset")
        .scaled(0.05);
    let w = Workload::generate(&spec);
    let sim = Simulator::default();
    let mode = Mode::FullInstrumentation;
    let midpoint = sim.run(&w, mode).counts.block_execs / 2;
    let snapshot = Snapshot::from_bytes(snapshot_at(&sim, &w, mode, midpoint)).expect("valid");

    // Decode the detector through the ordinary section walk.
    let mut reader = snapshot.reader().expect("valid image");
    let (info, ft) = snapshot
        .sections()
        .iter()
        .find_map(|info| {
            let mut section = reader.section(info.tag, info.version).expect("in order");
            (&info.tag == b"FTRK").then(|| {
                let ft = FastTrack::decode_snapshot(&mut section).expect("FTRK decodes");
                section.finish().expect("fully consumed");
                (*info, ft)
            })
        })
        .expect("every image has an FTRK section");
    let tracked = ft.tracked_blocks();
    let mut chunks: Vec<u64> = ft
        .var_states()
        .iter()
        .map(|(b, _)| b >> SLAB_BITS)
        .collect();
    chunks.dedup();
    let slabs = chunks.len();

    // Walk the payload to the tracked-state records: config (19 bytes),
    // then the thread and lock clock maps (count, then key + length +
    // 4-byte entries each), then the tracked count.
    let payload = &snapshot.as_bytes()[info.payload_offset()..][..info.payload_len];
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let u16_at = |at: usize| u16::from_le_bytes(payload[at..at + 2].try_into().unwrap());
    let mut at = 19;
    for _map in 0..2 {
        let entries = u64_at(at);
        at += 8;
        for _ in 0..entries {
            at += 16 + 4 * u64_at(at + 8) as usize;
        }
    }
    assert_eq!(u64_at(at), tracked as u64, "tracked count read back");
    at += 8;
    let records_start = at;
    let (mut walked, mut explicit) = (0, 0);
    while walked < tracked {
        let count = u16_at(at + 8) as usize;
        at += 10;
        for _ in 0..count {
            at += 10;
            if u64_at(at - 8) == u64::MAX {
                // Write epoch, read tag, then an epoch or a clock.
                let read = if payload[at + 8] == 0 {
                    8
                } else {
                    8 + 4 * u64_at(at + 9) as usize
                };
                explicit += 9 + read;
                at += 9 + read;
            }
        }
        walked += count;
    }
    let records = at - records_start;
    assert!(
        tracked > 1000,
        "the image tracks a real heap ({tracked} blocks)"
    );
    assert!(
        explicit < records / 50,
        "spilled states are rare in full mode"
    );
    assert_eq!(
        records - explicit,
        10 * tracked + 10 * slabs,
        "{records} record bytes ({explicit} explicit) for {tracked} blocks in {slabs} slabs"
    );
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

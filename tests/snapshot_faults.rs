//! Fault injection against the snapshot plane (PR 7), in the style of
//! `static_mutation.rs`: take a *valid* checkpoint image, corrupt it with
//! every [`FaultPlan`] family — bit flips, truncation, section reordering,
//! duplicated sections, stale version headers — and require **100%
//! detection**: every injected corruption must surface as a structured
//! [`aikido::SnapshotError`], either when the image is re-parsed or when the
//! resume walks its sections. A single silently-accepted corruption fails
//! the exact-count assertion.
//!
//! Semantic corruption gets the same guarantee: SCHD images whose checksums
//! are fixed up but whose trace cursors are out of range, whose reserved
//! slot word is nonzero, or whose section version is the retired v1, are
//! refused with a structured SCHD error, and a DBIE image claiming more code
//! cache slots than the program has blocks is refused with a structured DBIE
//! error before anything is allocated.

use aikido::snapshot::FaultPlan;
use aikido::{CheckpointOutcome, Mode, Simulator, Snapshot, Workload, WorkloadSpec};

fn small(name: &str) -> Workload {
    let spec = WorkloadSpec::parsec(name)
        .expect("known PARSEC preset")
        .scaled(0.02)
        .with_threads(4);
    Workload::generate(&spec)
}

/// A valid midpoint checkpoint image for `w` under `mode`.
fn midpoint_image(sim: &Simulator, w: &Workload, mode: Mode) -> Vec<u8> {
    let total = sim.run(w, mode).counts.block_execs;
    match sim.checkpoint(w, mode, total / 2).expect("checkpoint") {
        CheckpointOutcome::Paused(snapshot) => snapshot.into_bytes(),
        CheckpointOutcome::Completed(_) => panic!("midpoint checkpoint must pause"),
    }
}

/// True when the corrupted image is *detected*: rejected while re-parsing
/// the container, or rejected by the resume's section walk. A resume that
/// succeeds on tampered bytes is a silent divergence — the one outcome the
/// snapshot plane must never produce.
fn detected(sim: &Simulator, w: &Workload, corrupted: Vec<u8>) -> bool {
    match Snapshot::from_bytes(corrupted) {
        Err(_) => true,
        Ok(snapshot) => sim.resume(w, &snapshot).is_err(),
    }
}

/// The number of sections in a valid image (by magic + walking headers is
/// the snapshot crate's job; here we just need an upper bound to enumerate
/// section-level plans, and 8 covers every mode's layout: META, SCHD, FTRK,
/// TCCH, DBIE, AKVM, AKSD).
const SECTION_BOUND: usize = 8;

#[test]
fn every_fault_family_is_detected_in_every_mode() {
    let w = small("blackscholes");
    for mode in [Mode::Native, Mode::FullInstrumentation, Mode::Aikido] {
        let sim = Simulator::default();
        let image = midpoint_image(&sim, &w, mode);

        // Sanity: the untampered image restores.
        let clean = Snapshot::from_bytes(image.clone()).expect("valid image parses");
        assert!(sim.resume(&w, &clean).is_ok(), "{mode:?}: clean resume");

        let mut plans: Vec<FaultPlan> = Vec::new();
        // Bit flips spread across the whole image, every bit position.
        let stride = (image.len() / 97).max(1);
        for (i, offset) in (0..image.len()).step_by(stride).enumerate() {
            plans.push(FaultPlan::BitFlip {
                offset,
                bit: (i % 8) as u8,
            });
        }
        // Truncations: headers, mid-section, and just short of complete.
        for len in [0, 7, 8, image.len() / 3, image.len() / 2, image.len() - 1] {
            plans.push(FaultPlan::Truncate { len });
        }
        // Every section pair swapped, every section duplicated or staled.
        for a in 0..SECTION_BOUND {
            for b in (a + 1)..SECTION_BOUND {
                plans.push(FaultPlan::SwapSections { a, b });
            }
            plans.push(FaultPlan::DuplicateSection { index: a });
            plans.push(FaultPlan::BumpVersion { index: a });
        }

        let mut injected = 0u32;
        let mut caught = 0u32;
        for plan in &plans {
            // `apply` returns None when the plan degenerates (e.g. a swap
            // whose indices alias the same section) — nothing was injected.
            let Some(corrupted) = plan.apply(&image) else {
                continue;
            };
            assert_ne!(corrupted, image, "{mode:?}: {plan} left the image intact");
            injected += 1;
            if detected(&sim, &w, corrupted) {
                caught += 1;
            } else {
                panic!("{mode:?}: {plan} was NOT detected");
            }
        }
        assert_eq!(caught, injected, "{mode:?}: detection must be 100%");
        assert!(
            injected > 100,
            "{mode:?}: only {injected} faults injected — harness lost coverage"
        );
    }
}

#[test]
fn every_benchmark_rejects_a_corrupted_midpoint_image() {
    // A cheaper cross-benchmark sweep: one representative of each fault
    // family per benchmark, all against the Aikido-mode image (the one with
    // the most sections and the richest state).
    for name in [
        "raytrace",
        "blackscholes",
        "vips",
        "fluidanimate",
        "swaptions",
        "canneal",
    ] {
        let w = small(name);
        let sim = Simulator::default();
        let image = midpoint_image(&sim, &w, Mode::Aikido);
        let plans = [
            FaultPlan::BitFlip {
                offset: image.len() / 2,
                bit: 3,
            },
            FaultPlan::Truncate {
                len: image.len() - 9,
            },
            FaultPlan::SwapSections { a: 1, b: 2 },
            FaultPlan::DuplicateSection { index: 0 },
            FaultPlan::BumpVersion { index: 2 },
        ];
        for plan in &plans {
            let corrupted = plan.apply(&image).expect("plan applies");
            assert!(
                detected(&sim, &w, corrupted),
                "{name}: {plan} was NOT detected"
            );
        }
    }
}

#[test]
fn a_snapshot_for_one_workload_cannot_resume_another() {
    // Cross-restore is a *semantic* corruption: both images are pristine, so
    // only the META identity check can catch the mismatch.
    let sim = Simulator::default();
    let a = small("raytrace");
    let b = small("canneal");
    let image = midpoint_image(&sim, &a, Mode::Aikido);
    let snapshot = Snapshot::from_bytes(image).expect("valid image parses");
    let err = sim.resume(&b, &snapshot).expect_err("must be rejected");
    let aikido::SimError::Snapshot(err) = err;
    assert_eq!(err.section, "META");
    assert!(err.reason.contains("does not match"), "{}", err.reason);
}

#[test]
fn resume_identity_covers_quantum_and_cost_model() {
    // The mode is *recorded in* the snapshot (resume auto-detects it from
    // META), but the scheduling quantum and the cost model are properties of
    // the simulator doing the resuming — both shape the report, so both are
    // part of the snapshot identity and a mismatch must be rejected.
    let w = small("vips");
    let sim = Simulator::default();
    let image = midpoint_image(&sim, &w, Mode::Aikido);
    let snapshot = Snapshot::from_bytes(image).expect("valid image parses");

    let mut skewed_cost = sim.cost_model().clone();
    skewed_cost.vm_exit_cycles += 1;
    for mismatched in [
        Simulator::default().with_quantum(5),
        Simulator::new(skewed_cost),
    ] {
        let err = mismatched
            .resume(&w, &snapshot)
            .expect_err("must be rejected");
        let aikido::SimError::Snapshot(err) = err;
        assert_eq!(err.section, "META");
    }
}

// SCHD v2 slot layout: the thread slots are the payload's last
// `threads × SLOT_BYTES` bytes, each `started u8, finished u8`, the trace
// cursor (four RNG words, phase tag u8, remaining budget u64, init
// remaining u64, init cursor u64, fork_next u32, join_next u32, work blocks
// u64, barrier counter u32, barriers due u32, racy flag u8, critical
// section u8 + u32 + u32), a reserved u32 that must be zero, then the
// stash (op code u8 + operand u64).
const SLOT_BYTES: usize = 106;
const PHASE: usize = 34;
const REMAINING: usize = 35;
const FORK_NEXT: usize = 59;
const RESERVED: usize = 93;
const STASH_CODE: usize = 97;

/// The `tag` entry of a valid image's section table.
fn section(image: &[u8], tag: &[u8; 4]) -> aikido::snapshot::SectionInfo {
    let snapshot = Snapshot::from_bytes(image.to_vec()).expect("valid image parses");
    *snapshot
        .sections()
        .iter()
        .find(|s| &s.tag == tag)
        .expect("the image has the section")
}

/// Recomputes a section's checksum in place, so only the decoder's own
/// validation can catch the tampering.
fn refresh_checksum(image: &mut [u8], section: &aikido::snapshot::SectionInfo) {
    let end = section.end();
    let checksum = aikido::snapshot::checksum(&image[section.offset..end - 8]);
    image[end - 8..end].copy_from_slice(&checksum.to_le_bytes());
}

/// Overwrites `bytes` at field offset `at` of thread slot `slot`.
fn patch_slot(image: &[u8], threads: usize, slot: usize, at: usize, bytes: &[u8]) -> Vec<u8> {
    let schd = section(image, b"SCHD");
    let slot_start = schd.payload_offset() + schd.payload_len - (threads - slot) * SLOT_BYTES;
    let mut out = image.to_vec();
    out[slot_start + at..slot_start + at + bytes.len()].copy_from_slice(bytes);
    refresh_checksum(&mut out, &schd);
    out
}

/// Resumes `image` and requires a structured refusal from section `tag`.
fn refused_by(sim: &Simulator, w: &Workload, image: Vec<u8>, tag: &str, what: &str) -> String {
    let snapshot = Snapshot::from_bytes(image).expect("the checksum was fixed up");
    match sim.resume(w, &snapshot) {
        Err(aikido::SimError::Snapshot(err)) => {
            assert_eq!(err.section, tag, "{what}: {err}");
            err.reason
        }
        Ok(_) => panic!("{what}: the tampered image resumed"),
    }
}

#[test]
fn out_of_range_schd_cursors_are_refused_with_structured_errors() {
    let w = small("fluidanimate");
    let sim = Simulator::default();
    let image = midpoint_image(&sim, &w, Mode::Aikido);
    let threads = w.threads().len();
    let budget = w.spec().mem_accesses_per_thread;
    // The pristine slot fields decode as expected, so each case below
    // tampers with exactly one of them.
    let clean = Snapshot::from_bytes(image.clone()).unwrap();
    assert!(sim.resume(&w, &clean).is_ok());

    let cases: [(&str, usize, usize, Vec<u8>); 5] = [
        ("unknown phase tag", 0, PHASE, vec![0xEE]),
        (
            "fork_next past the thread count",
            0,
            FORK_NEXT,
            (threads as u32 + 1).to_le_bytes().to_vec(),
        ),
        (
            "remaining budget above the spec's",
            1,
            REMAINING,
            (budget + 1).to_le_bytes().to_vec(),
        ),
        (
            "nonzero reserved word",
            2,
            RESERVED,
            1u32.to_le_bytes().to_vec(),
        ),
        (
            "stashed op that is not a sync op",
            3,
            STASH_CODE,
            vec![0xEE],
        ),
    ];
    for (what, slot, at, bytes) in cases {
        let corrupted = patch_slot(&image, threads, slot, at, &bytes);
        assert_ne!(corrupted, image, "{what}: nothing was tampered with");
        let reason = refused_by(&sim, &w, corrupted, "SCHD", what);
        assert!(!reason.is_empty(), "{what}");
    }
}

#[test]
fn a_v1_schd_section_is_refused_by_the_version_check() {
    // SCHD v1 recorded pull counts to replay; v2 records stream cursors. A
    // v1 header must never reach the v2 decoder.
    let w = small("vips");
    let sim = Simulator::default();
    let mut image = midpoint_image(&sim, &w, Mode::Aikido);
    let schd = section(&image, b"SCHD");
    image[schd.offset + 4..schd.offset + 6].copy_from_slice(&1u16.to_le_bytes());
    refresh_checksum(&mut image, &schd);
    let reason = refused_by(&sim, &w, image, "SCHD", "v1 SCHD");
    assert!(reason.contains("version"), "{reason}");
}

#[test]
fn a_dbie_slot_count_past_the_program_is_refused_before_allocating() {
    // DBIE payload: the decision count and its (u32 block, u16 index)
    // records, then the code cache's hot threshold, generation count and
    // u32 generations, then its slot count. A slot count of 2^40 would ask
    // for a 64 TiB slot vector if the decoder trusted it.
    let w = small("blackscholes");
    let sim = Simulator::default();
    let mut image = midpoint_image(&sim, &w, Mode::FullInstrumentation);
    let dbie = section(&image, b"DBIE");
    let u64_at = |image: &[u8], at: usize| {
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize
    };
    let decisions = u64_at(&image, dbie.payload_offset());
    let generations_at = dbie.payload_offset() + 8 + 6 * decisions + 8;
    let slots_at = generations_at + 8 + 4 * u64_at(&image, generations_at);
    let slots = u64_at(&image, slots_at);
    assert!(
        (1..=w.program().len()).contains(&slots),
        "slot count {slots} is not where the layout puts it"
    );
    image[slots_at..slots_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    refresh_checksum(&mut image, &dbie);
    let reason = refused_by(&sim, &w, image, "DBIE", "2^40 code cache slots");
    assert!(reason.contains("slots"), "{reason}");
}

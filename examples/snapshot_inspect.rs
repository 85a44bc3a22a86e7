//! Snapshot inspector: prints the validated section table of a checkpoint
//! image — tag, version, offset, payload length and checksum per section —
//! and the density of its FTRK section: tracked blocks, shadow slabs and
//! payload bytes per tracked block.
//!
//! ```bash
//! # The vips Aikido-mode midpoint image (what the smoke test pins):
//! cargo run --release --example snapshot_inspect
//!
//! # Any image on disk, e.g. the one the crash-recovery lane saves:
//! cargo run --release --example snapshot_roundtrip -- save midpoint.snap
//! cargo run --release --example snapshot_inspect -- midpoint.snap
//! ```
//!
//! Without a path the image is built in process from the `vips` preset
//! (4 threads) under `Mode::Aikido`, scaled by `AIKIDO_SCALE` (default
//! 0.05), checkpointed at its midpoint — the same image
//! `snapshot_roundtrip save` writes. A file that fails validation prints
//! the structured error and exits 1.

use aikido::fasttrack::FastTrack;
use aikido::prelude::*;
use aikido::types::SLAB_BITS;
use aikido::CheckpointOutcome;

fn scale() -> f64 {
    std::env::var("AIKIDO_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(0.05)
}

fn fail(message: String) -> ! {
    eprintln!("snapshot_inspect: {message}");
    std::process::exit(1)
}

/// The vips Aikido-mode midpoint image's bytes and a one-line description.
fn midpoint_image() -> (String, Vec<u8>) {
    let spec = WorkloadSpec::parsec("vips")
        .expect("vips is one of the ten PARSEC presets")
        .scaled(scale())
        .with_threads(4);
    let workload = Workload::generate(&spec);
    let sim = Simulator::default();
    let midpoint = sim.run(&workload, Mode::Aikido).counts.block_execs / 2;
    match sim.checkpoint(&workload, Mode::Aikido, midpoint) {
        Ok(CheckpointOutcome::Paused(snapshot)) => (
            format!(
                "vips ({} threads), mode aikido, scale {}, midpoint block {midpoint}",
                spec.threads,
                scale()
            ),
            snapshot.into_bytes(),
        ),
        Ok(CheckpointOutcome::Completed(_)) => {
            fail("the workload completed before its own midpoint".to_string())
        }
        Err(err) => fail(format!("checkpoint failed: {err}")),
    }
}

fn main() {
    let (origin, bytes) = match std::env::args().nth(1) {
        Some(path) => match std::fs::read(&path) {
            Ok(bytes) => (path, bytes),
            Err(err) => fail(format!("cannot read {path}: {err}")),
        },
        None => midpoint_image(),
    };
    let snapshot = Snapshot::from_bytes(bytes)
        .unwrap_or_else(|err| fail(format!("{origin} is not a valid image: {err}")));
    let sections = snapshot.sections();
    println!("snapshot image: {origin}");
    println!(
        "{} bytes, {} sections, every checksum verified",
        snapshot.as_bytes().len(),
        sections.len()
    );
    println!(
        "{:<4}  {:>7}  {:>8}  {:>8}  checksum",
        "tag", "version", "offset", "payload"
    );
    for section in sections {
        println!(
            "{:<4}  {:>7}  {:>8}  {:>8}  {:#018x}",
            section.tag_string(),
            section.version,
            section.offset,
            section.payload_len,
            section.checksum
        );
    }

    // Walk the sections in order to decode the detector state.
    let mut reader = snapshot
        .reader()
        .unwrap_or_else(|err| fail(format!("{origin}: {err}")));
    for section in sections {
        let mut payload = reader
            .section(section.tag, section.version)
            .unwrap_or_else(|err| fail(format!("{origin}: {err}")));
        if &section.tag != b"FTRK" {
            continue;
        }
        let ft = FastTrack::decode_snapshot(&mut payload)
            .unwrap_or_else(|err| fail(format!("{origin}: {err}")));
        let tracked = ft.tracked_blocks();
        let mut slabs: Vec<u64> = ft
            .var_states()
            .iter()
            .map(|(block, _)| block >> SLAB_BITS)
            .collect();
        slabs.dedup();
        println!(
            "FTRK density: {tracked} tracked blocks in {} slabs, {:.2} payload bytes per block",
            slabs.len(),
            section.payload_len as f64 / tracked.max(1) as f64
        );
    }
}

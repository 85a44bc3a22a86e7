//! FTRK slab-layout decoder tests: every malformed form of the tracked-state
//! records and the dedup set is refused with a structured `SnapshotError`,
//! never a panic, on both storages, so every image the decoder accepts is
//! one the encoder could have written.

use aikido_fasttrack::FastTrack;
use aikido_snapshot::{SectionWriter, SnapshotBuilder, SnapshotError};
use aikido_types::ShadowWord;

/// The word written for a spilled state, ahead of its explicit record.
const SPILLED: u64 = u64::MAX;

/// The canonical packed word of write epoch `w@0` and read epoch `r@0`.
fn word(w: u32, r: u32) -> u64 {
    let field = |clock| ShadowWord::pack_field(clock, 0).expect("fits");
    ShadowWord::from_fields(field(w), field(r)).raw()
}

/// Decodes an FTRK payload with no clocks or reports around `tracked`, the
/// slab records `vars` writes and the dedup set `reported`, then requires
/// the payload to be fully consumed.
fn decode(
    packed: bool,
    tracked: u64,
    vars: impl Fn(&mut SectionWriter),
    reported: &[u64],
    trailing: bool,
) -> Result<FastTrack, SnapshotError> {
    let mut w = SectionWriter::new(*b"FTRK", 3);
    w.put_u64(8); // granularity
    w.put_bool(true); // epoch optimisation
    w.put_usize(100); // max reports
    w.put_bool(true); // dedup by block
    w.put_bool(packed);
    w.put_usize(0); // thread clocks
    w.put_usize(0); // lock clocks
    w.put_u64(tracked);
    vars(&mut w);
    w.put_usize(reported.len());
    for &block in reported {
        w.put_u64(block);
    }
    w.put_usize(0); // reports
    for _ in 0..13 {
        w.put_u64(0); // statistics + last cost
    }
    if trailing {
        w.put_u8(0);
    }
    let mut builder = SnapshotBuilder::new();
    builder.push(w);
    let snapshot = builder.finish();
    let mut reader = snapshot.reader()?;
    let mut section = reader.section(*b"FTRK", 3)?;
    let ft = FastTrack::decode_snapshot(&mut section)?;
    section.finish()?;
    Ok(ft)
}

/// Writes one slab record: chunk, count, then `(slot, word)` pairs.
fn slab(w: &mut SectionWriter, chunk: u64, entries: &[(u16, u64)]) {
    w.put_u64(chunk);
    w.put_u16(entries.len() as u16);
    for &(slot, word) in entries {
        w.put_u16(slot);
        w.put_u64(word);
    }
}

/// Requires a structured FTRK refusal on both storages whose reason
/// contains `why`.
fn refused(tracked: u64, vars: impl Fn(&mut SectionWriter), reported: &[u64], why: &str) {
    for packed in [true, false] {
        let err = decode(packed, tracked, &vars, reported, false)
            .expect_err("a malformed payload must be refused");
        assert_eq!(err.section, "FTRK", "{err}");
        assert!(err.reason.contains(why), "packed={packed}: {err}");
    }
}

#[test]
fn a_well_formed_payload_decodes_on_both_storages() {
    for packed in [true, false] {
        let ft = decode(
            packed,
            4,
            |w| {
                slab(w, 3, &[(0, word(1, 1)), (511, word(2, 0))]);
                slab(w, 9, &[(7, word(0, 5))]);
                slab(w, 10, &[(1, SPILLED)]);
                // Write epoch 1@0, read-shared clock [2, 3].
                w.put_u32(1);
                w.put_u32(0);
                w.put_u8(1);
                w.put_usize(2);
                w.put_u32(2);
                w.put_u32(3);
            },
            &[3 << 9, 9 << 9 | 7],
            false,
        )
        .expect("a well-formed payload decodes");
        assert_eq!(ft.tracked_blocks(), 4);
        let blocks: Vec<u64> = ft.var_states().iter().map(|(b, _)| *b).collect();
        assert_eq!(blocks, [3 << 9, 3 << 9 | 511, 9 << 9 | 7, 10 << 9 | 1]);
    }
}

#[test]
fn slabs_out_of_ascending_order_are_refused() {
    let two = |a, b| {
        move |w: &mut SectionWriter| {
            slab(w, a, &[(0, word(1, 1))]);
            slab(w, b, &[(0, word(1, 1))]);
        }
    };
    refused(2, two(5, 3), &[], "out of ascending order");
    refused(2, two(5, 5), &[], "out of ascending order");
    // A slab past the last block index a byte address can have.
    refused(
        1,
        |w| slab(w, 1 << 52, &[(0, word(1, 1))]),
        &[],
        "address space",
    );
}

#[test]
fn slots_out_of_range_or_order_are_refused() {
    refused(
        1,
        |w| slab(w, 0, &[(512, word(1, 1))]),
        &[],
        "out of ascending order or range",
    );
    for slots in [[7, 7], [7, 3]] {
        let entries = [(slots[0], word(1, 1)), (slots[1], word(1, 1))];
        refused(
            2,
            |w| slab(w, 0, &entries),
            &[],
            "out of ascending order or range",
        );
    }
}

#[test]
fn zero_spilled_and_non_canonical_words_are_refused() {
    let spill_tagged = ShadowWord::spill_marker(1).raw();
    let owner_bit = word(1, 1) | ShadowWord::OWNED_BIT;
    for bad in [0, spill_tagged, owner_bit] {
        refused(
            1,
            |w| slab(w, 0, &[(0, bad)]),
            &[],
            "not a canonical packed word",
        );
    }
}

#[test]
fn malformed_spilled_records_are_refused() {
    let spilled = |tag: u8| {
        move |w: &mut SectionWriter| {
            slab(w, 0, &[(0, SPILLED)]);
            w.put_u32(1);
            w.put_u32(0);
            w.put_u8(tag);
            w.put_u32(1);
            w.put_u32(0);
        }
    };
    refused(1, spilled(2), &[], "invalid read-state tag 2");
    // Tag 0 with epochs that fit: the encoder would have written the word.
    refused(1, spilled(0), &[], "fits a packed word");
}

#[test]
fn tracked_count_mismatches_are_refused() {
    let entries = [(0, word(1, 1)), (1, word(1, 1))];
    // Fewer tracked blocks than the slab holds.
    refused(
        1,
        |w| slab(w, 0, &entries),
        &[],
        "1 of the 1 tracked blocks remain",
    );
    // An empty slab record.
    refused(1, |w| slab(w, 0, &[]), &[], "holds 0 blocks");
    // More tracked blocks than records: the decoder reads on into the dedup
    // set and statistics, and must still refuse structurally.
    for packed in [true, false] {
        let err = decode(packed, 3, |w| slab(w, 0, &entries), &[], false);
        assert!(err.is_err(), "packed={packed}: an overstated count decoded");
    }
}

#[test]
fn trailing_bytes_are_refused() {
    for packed in [true, false] {
        let err = decode(packed, 1, |w| slab(w, 0, &[(0, word(1, 1))]), &[], true)
            .expect_err("a trailing byte must be refused");
        assert!(err.reason.contains("trailing"), "{err}");
    }
}

#[test]
fn duplicate_or_unsorted_reported_blocks_are_refused() {
    let one = |w: &mut SectionWriter| slab(w, 0, &[(0, word(1, 1))]);
    refused(1, one, &[4, 4], "duplicated or out of ascending order");
    refused(1, one, &[9, 4], "duplicated or out of ascending order");
    for packed in [true, false] {
        decode(packed, 1, one, &[4, 9], false).expect("sorted unique dedup set decodes");
    }
}

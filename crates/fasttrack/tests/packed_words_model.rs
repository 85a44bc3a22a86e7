//! Packed-word model tests: the packed shadow-word storage must behave
//! exactly like the retained enum-based reference store under any
//! interleaving of reads, writes and synchronisation — including the spill
//! edges (read-share promotions, thread ids past the 7-bit field, epoch
//! clocks racked up by sync storms) the unit tests cannot reach
//! generically. Mirrors `chunkmap_model.rs` in the types crate.

use aikido_fasttrack::FastTrack;
use aikido_types::{Addr, BlockId, InstrId, LockId, ThreadId};
use proptest::prelude::*;

/// One step of the interleaved history.
#[derive(Clone, Debug)]
enum Event {
    Read(u32, u64),
    Write(u32, u64),
    Acquire(u32, u64),
    Release(u32, u64),
    Fork(u32, u32),
    Join(u32, u32),
    Barrier,
}

/// Threads drawn to cross the packed field's 7-bit budget *and* the spill
/// slot's inline-lane budget: small dense ids, ids either side of the
/// 8-lane boundary (7 fills the last lane, 8 forces the boxed overflow
/// clock), plus one far past 127 so histories mix packable and spilled
/// epochs.
fn arb_thread() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![0u32, 1, 2, 3, 7, 8, 200])
}

/// Addresses clustered on a handful of blocks across two pages plus one far
/// page, so accesses collide on blocks, share slabs, and cross slabs.
fn arb_addr() -> impl Strategy<Value = u64> {
    let base = prop::sample::select(vec![0x1000u64, 0x1ff8, 0x2000, 0x40_0000]);
    let off = prop::sample::select(vec![0u64, 4, 8, 16, 64]);
    (base, off).prop_map(|(b, o)| b + o)
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0u8..7, arb_thread(), arb_thread(), arb_addr()).prop_map(
            |(kind, t, u, addr)| match kind {
                0 => Event::Read(t, addr),
                1 => Event::Write(t, addr),
                2 => Event::Acquire(t, addr % 3),
                3 => Event::Release(t, addr % 3),
                4 => Event::Fork(t, u),
                5 => Event::Join(t, u),
                _ => Event::Barrier,
            },
        ),
        0..300,
    )
}

/// Tracked locks, so releases only follow acquires (the detector tolerates
/// unmatched releases, but matched histories exercise more transfer edges).
fn apply(ft: &mut FastTrack, events: &[Event]) {
    let threads: Vec<ThreadId> = [0u32, 1, 2, 3, 7, 8, 200]
        .iter()
        .map(|&t| ThreadId::new(t))
        .collect();
    for (i, ev) in events.iter().enumerate() {
        let instr = InstrId::new(BlockId::new(1), (i % 40) as u16);
        match *ev {
            Event::Read(t, a) => ft.read_at(ThreadId::new(t), Addr::new(a), Some(instr)),
            Event::Write(t, a) => ft.write_at(ThreadId::new(t), Addr::new(a), Some(instr)),
            Event::Acquire(t, l) => ft.acquire(ThreadId::new(t), LockId::new(l)),
            Event::Release(t, l) => ft.release(ThreadId::new(t), LockId::new(l)),
            Event::Fork(p, c) if p != c => ft.fork(ThreadId::new(p), ThreadId::new(c)),
            Event::Join(p, c) if p != c => ft.join(ThreadId::new(p), ThreadId::new(c)),
            Event::Fork(..) | Event::Join(..) => {}
            Event::Barrier => ft.barrier(&threads),
        }
    }
}

/// Runs the same history through both storages and asserts identical races,
/// statistics, and serialized shadow state.
fn assert_model_equal(events: &[Event]) {
    let mut packed = FastTrack::new();
    let mut reference = FastTrack::new().with_reference_store();
    apply(&mut packed, events);
    apply(&mut reference, events);
    assert_eq!(packed.stats(), reference.stats(), "stats diverged");
    assert_eq!(packed.races(), reference.races(), "races diverged");
    let p = packed.var_states();
    let r = reference.var_states();
    assert_eq!(p, r, "shadow states diverged");
    let p_json = serde_json::to_string(&p).expect("states serialize");
    let r_json = serde_json::to_string(&r).expect("states serialize");
    assert_eq!(p_json, r_json, "serialized states diverged");
}

#[test]
fn spilling_thread_ids_round_trip_through_the_side_table() {
    // Thread 200 exceeds the 7-bit packing budget: every state it touches
    // spills, and a later write by a packable thread re-packs the word.
    let events = vec![
        Event::Write(200, 0x1000),
        Event::Read(200, 0x1000),
        Event::Read(0, 0x1000),
        Event::Write(1, 0x1000),
        Event::Write(1, 0x1000),
        Event::Read(1, 0x1008),
        Event::Read(2, 0x1008),
        Event::Write(200, 0x1008),
    ];
    assert_model_equal(&events);
}

#[test]
fn inline_lanes_exactly_full_stay_off_the_boxed_clock() {
    // Eight reader threads — indices 0..=7, exactly the spill slot's inline
    // lane budget — promote a block to read-shared and keep churning it
    // across barrier epochs. The history must stay in the inline lanes (no
    // boxed overflow) and remain byte-identical to the reference, including
    // after a write collapses it back to an epoch.
    let mut events: Vec<Event> = (0u32..8).map(|t| Event::Read(t, 0x1000)).collect();
    events.push(Event::Barrier);
    events.extend((0u32..8).rev().map(|t| Event::Read(t, 0x1000)));
    events.push(Event::Barrier);
    events.push(Event::Write(3, 0x1000));
    events.push(Event::Write(3, 0x1000));
    assert_model_equal(&events);

    let mut packed = FastTrack::new();
    apply(&mut packed, &events);
    let stats = packed.spill_stats();
    assert!(stats.spills > 0, "the promotion spilled");
    assert!(stats.inline_promotions > 0, "promotion served by the lanes");
    assert_eq!(stats.boxed_overflows, 0, "eight threads fit the lanes");
    assert!(stats.unspills > 0, "the collapse re-packed the word");
}

#[test]
fn a_ninth_thread_overflows_the_inline_lanes_into_the_boxed_clock() {
    // Thread index 8 is one past the lane budget: the moment it joins the
    // read-shared history, the slot must fall back to the dense boxed clock
    // — and still reconstruct the exact vector the reference holds.
    let mut events: Vec<Event> = (0u32..9).map(|t| Event::Read(t, 0x1000)).collect();
    events.push(Event::Barrier);
    // Post-overflow churn: lane-resident and lane-less threads both update
    // the boxed history, then a write collapses it.
    events.push(Event::Read(8, 0x1000));
    events.push(Event::Read(0, 0x1000));
    events.push(Event::Write(8, 0x1000));
    assert_model_equal(&events);

    let mut packed = FastTrack::new();
    apply(&mut packed, &events);
    let stats = packed.spill_stats();
    assert!(stats.boxed_overflows > 0, "the ninth thread overflowed");
}

#[test]
fn barrier_storms_advance_clocks_identically() {
    // Many barriers rack epoch clocks up in lockstep; reads and writes in
    // between keep re-packing fresh epochs into the words.
    let mut events = Vec::new();
    for round in 0..40u64 {
        events.push(Event::Write(0, 0x1000 + 8 * (round % 4)));
        events.push(Event::Read(1, 0x1000 + 8 * (round % 4)));
        events.push(Event::Barrier);
    }
    assert_model_equal(&events);
}

#[test]
fn epoch_free_configurations_agree_too() {
    use aikido_fasttrack::FastTrackConfig;
    // Without the epoch optimisation every read promotes to a vector clock,
    // so virtually every word spills — the packed plane degenerates to the
    // side table and must still match.
    let events = vec![
        Event::Read(0, 0x1000),
        Event::Read(1, 0x1000),
        Event::Write(2, 0x1000),
        Event::Read(0, 0x1008),
        Event::Write(0, 0x1008),
    ];
    let mut packed = FastTrack::with_config(FastTrackConfig::without_epochs());
    let mut reference =
        FastTrack::with_config(FastTrackConfig::without_epochs()).with_reference_store();
    apply(&mut packed, &events);
    apply(&mut reference, &events);
    assert_eq!(packed.stats(), reference.stats());
    assert_eq!(packed.races(), reference.races());
    assert_eq!(packed.var_states(), reference.var_states());
}

#[test]
fn sub_word_granularity_disables_the_slab_run_path_but_not_correctness() {
    use aikido_fasttrack::FastTrackConfig;
    let config = FastTrackConfig {
        granularity: 4,
        ..FastTrackConfig::default()
    };
    let events = vec![
        Event::Write(0, 0x1000),
        Event::Write(1, 0x1004),
        Event::Read(0, 0x1004),
        Event::Read(1, 0x1000),
    ];
    let mut packed = FastTrack::with_config(config.clone());
    let mut reference = FastTrack::with_config(config).with_reference_store();
    apply(&mut packed, &events);
    apply(&mut reference, &events);
    assert_eq!(packed.stats(), reference.stats());
    assert_eq!(packed.var_states(), reference.var_states());
}

proptest! {
    /// Any interleaving of reads, writes and synchronisation produces
    /// identical races, statistics and serialized shadow state in both
    /// storage representations.
    #[test]
    fn random_histories_match_the_reference_model(events in arb_events()) {
        assert_model_equal(&events);
    }
}

//! Packed-word model tests: the packed shadow-word storage must behave
//! exactly like the retained enum-based reference store under any
//! interleaving of reads, writes and synchronisation — including the spill
//! edges (read-share promotions, thread ids past the 7-bit field, epoch
//! clocks racked up by sync storms) the unit tests cannot reach
//! generically. Every history runs four ways — each store, with accesses
//! delivered one at a time and as same-thread batches — and all four must
//! agree on statistics, races, states and the cost of every access. Mirrors
//! `chunkmap_model.rs` in the types crate.

use aikido_fasttrack::{FastTrack, FastTrackConfig};
use aikido_snapshot::{SectionWriter, SnapshotBuilder};
use aikido_types::{
    AccessContext, AccessKind, Addr, BlockId, InstrId, LockId, SharedDataAnalysis, ThreadId,
};
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

/// The access event `i` performs, or `None` for synchronisation.
fn access(i: usize, ev: &Event) -> Option<AccessContext> {
    let (thread, addr, kind) = match *ev {
        Event::Read(t, a) => (t, a, AccessKind::Read),
        Event::Write(t, a) => (t, a, AccessKind::Write),
        _ => return None,
    };
    Some(AccessContext {
        thread: ThreadId::new(thread),
        addr: Addr::new(addr),
        kind,
        size: 8,
        instr: InstrId::new(BlockId::new(1), (i % 40) as u16),
    })
}

/// Applies a synchronisation event. Tracked locks, so releases only follow
/// acquires (the detector tolerates unmatched releases, but matched
/// histories exercise more transfer edges).
fn sync(ft: &mut FastTrack, ev: &Event) {
    let threads: Vec<ThreadId> = [0u32, 1, 2, 3, 7, 8, 200]
        .iter()
        .map(|&t| ThreadId::new(t))
        .collect();
    match *ev {
        Event::Acquire(t, l) => ft.acquire(ThreadId::new(t), LockId::new(l)),
        Event::Release(t, l) => ft.release(ThreadId::new(t), LockId::new(l)),
        Event::Fork(p, c) if p != c => ft.fork(ThreadId::new(p), ThreadId::new(c)),
        Event::Join(p, c) if p != c => ft.join(ThreadId::new(p), ThreadId::new(c)),
        Event::Fork(..) | Event::Join(..) => {}
        Event::Barrier => ft.barrier(&threads),
        Event::Read(..) | Event::Write(..) => unreachable!("accesses are not sync"),
    }
}

/// Runs `events` delivering one access at a time; returns every access's
/// cost in order.
fn apply(ft: &mut FastTrack, events: &[Event]) -> Vec<u64> {
    let mut costs = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match access(i, ev) {
            Some(cx) => {
                ft.on_access(cx);
                costs.push(ft.last_access_cost_cycles());
            }
            None => sync(ft, ev),
        }
    }
    costs
}

/// Runs `events` delivering every maximal same-thread, sync-free run of
/// accesses as one [`SharedDataAnalysis::on_access_batch`] call; returns
/// every access's cost in order.
fn apply_batched(ft: &mut FastTrack, events: &[Event]) -> Vec<u64> {
    let (mut costs, mut batch_costs) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < events.len() {
        let Some(first) = access(i, &events[i]) else {
            sync(ft, &events[i]);
            i += 1;
            continue;
        };
        let mut run = vec![first];
        i += 1;
        while let Some(cx) = events.get(i).and_then(|ev| access(i, ev)) {
            if cx.thread != first.thread {
                break;
            }
            run.push(cx);
            i += 1;
        }
        ft.on_access_batch(&run, &mut batch_costs);
        assert_eq!(batch_costs.len(), run.len(), "one cost per access");
        costs.extend_from_slice(&batch_costs);
    }
    costs
}

/// A way of delivering a history: [`apply`] or [`apply_batched`].
type Delivery = fn(&mut FastTrack, &[Event]) -> Vec<u64>;

/// Runs the same history through both storages from fresh detectors, with
/// scalar and batched delivery, and asserts identical races, statistics,
/// serialized shadow state and per-access costs.
fn assert_model_equal(events: &[Event]) {
    assert_model_equal_from(FastTrack::new, events);
}

/// [`assert_model_equal`] from the detector `fresh` builds: the packed runs
/// use it as is, the reference runs after switching it to the enum store
/// (so `fresh` must track no state yet).
fn assert_model_equal_from(fresh: impl Fn() -> FastTrack, events: &[Event]) {
    let mut packed = fresh();
    let costs = apply(&mut packed, events);
    assert!(packed.packed_words());
    let runs: [(&str, bool, Delivery); 3] = [
        ("reference", false, apply),
        ("packed batched", true, apply_batched),
        ("reference batched", false, apply_batched),
    ];
    for (what, on_packed, run) in runs {
        let mut other = if on_packed {
            fresh()
        } else {
            fresh().with_reference_store()
        };
        let other_costs = run(&mut other, events);
        assert_eq!(costs, other_costs, "{what}: per-access costs diverged");
        assert_eq!(packed.stats(), other.stats(), "{what}: stats diverged");
        assert_eq!(packed.races(), other.races(), "{what}: races diverged");
        let p = packed.var_states();
        let r = other.var_states();
        assert_eq!(p, r, "{what}: shadow states diverged");
        let p_json = serde_json::to_string(&p).expect("states serialize");
        let r_json = serde_json::to_string(&r).expect("states serialize");
        assert_eq!(p_json, r_json, "{what}: serialized states diverged");
    }
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
    // Without the epoch optimisation every read promotes to a vector clock,
    // so virtually every word spills — the packed plane degenerates to the
    // side table and must still match. Writes to a never-read block stay
    // unspilled and are decided on the word.
    let events = vec![
        Event::Read(0, 0x1000),
        Event::Read(1, 0x1000),
        Event::Write(2, 0x1000),
        Event::Read(0, 0x1008),
        Event::Write(0, 0x1008),
        Event::Write(0, 0x1010),
        Event::Write(0, 0x1010),
        Event::Write(1, 0x1010),
        Event::Barrier,
        Event::Write(2, 0x1010),
        Event::Read(2, 0x1010),
    ];
    assert_model_equal_from(
        || FastTrack::with_config(FastTrackConfig::without_epochs()),
        &events,
    );
}

#[test]
fn concurrent_accesses_on_unspilled_words_report_identically() {
    // Threads 1 and 2 never synchronise, so each second access races with
    // the first — decided on the word, since nothing here promotes or
    // spills: a write after a read, a read after a write, a write after a
    // write. The same pairs ordered by barriers are clean.
    let mut events = vec![
        Event::Read(1, 0x1000),
        Event::Write(2, 0x1000),
        Event::Write(1, 0x1008),
        Event::Read(2, 0x1008),
        Event::Write(1, 0x1010),
        Event::Write(2, 0x1010),
        Event::Barrier,
    ];
    for block in [0x1018u64, 0x1020] {
        events.push(Event::Read(1, block));
        events.push(Event::Write(1, block));
    }
    events.push(Event::Barrier);
    events.extend([Event::Write(2, 0x1018), Event::Read(2, 0x1020)]);
    assert_model_equal(&events);

    let mut packed = FastTrack::new();
    apply(&mut packed, &events);
    let spills = packed.spill_stats().spills;
    assert_eq!(spills, 0, "every word stayed unspilled");
    let races: Vec<_> = packed
        .races()
        .iter()
        .map(|r| (r.addr.raw(), r.thread, r.other_thread, r.message.clone()))
        .collect();
    let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
    let expected = [
        (0x1000, "write: write is concurrent with a prior read"),
        (0x1008, "read: read is concurrent with a prior write"),
        (0x1010, "write: write is concurrent with a prior write"),
    ]
    .map(|(addr, message)| (addr, t2, Some(t1), message.to_string()));
    assert_eq!(races, expected);
}

/// A detector whose thread 0 sits at clock `clock`, with no tracked state:
/// built once by releasing a lock over and over, then restored from its
/// snapshot image for every run.
fn detector_at_clock(clock: u32) -> impl Fn() -> FastTrack {
    let mut ft = FastTrack::new();
    let (t0, lock) = (ThreadId::new(0), LockId::new(0));
    for _ in 1..clock {
        ft.release(t0, lock);
    }
    let mut section = SectionWriter::new(*b"FTRK", 3);
    ft.encode_snapshot(&mut section);
    let mut builder = SnapshotBuilder::new();
    builder.push(section);
    let snapshot = builder.finish();
    move || {
        let mut reader = snapshot.reader().expect("image reads");
        let mut section = reader.section(*b"FTRK", 3).expect("FTRK section");
        FastTrack::decode_snapshot(&mut section).expect("FTRK decodes")
    }
}

#[test]
fn epoch_clocks_crossing_the_packing_budget_take_the_generic_path() {
    // Thread 0 starts two releases short of 2^24, the first clock a word
    // field cannot hold. Its accesses at 2^24 - 2 and 2^24 - 1 stay on the
    // word; from 2^24 on its epoch is unpackable, so its reads and writes of
    // unspilled words (fresh, or last touched by thread 1) must spill
    // through the generic path — and then re-pack once a packable writer
    // takes a block back.
    let fresh = detector_at_clock((1 << 24) - 2);
    let events = vec![
        Event::Write(0, 0x1000),
        Event::Read(0, 0x1008),
        Event::Release(0, 0),
        Event::Write(0, 0x1000),
        Event::Read(0, 0x1008),
        Event::Read(1, 0x1010),
        Event::Write(1, 0x1018),
        Event::Release(0, 0),
        Event::Read(0, 0x1000),
        Event::Write(0, 0x1008),
        Event::Write(0, 0x1010),
        Event::Read(0, 0x1018),
        Event::Read(0, 0x1020),
        Event::Write(0, 0x1028),
        Event::Acquire(1, 0),
        Event::Write(1, 0x1000),
        Event::Read(1, 0x1008),
        Event::Write(1, 0x1010),
        Event::Read(1, 0x1020),
    ];
    assert_model_equal_from(&fresh, &events);

    let mut packed = fresh();
    apply(&mut packed, &events);
    let stats = packed.spill_stats();
    assert!(stats.spills >= 6, "unpackable epochs spilled: {stats:?}");
    assert!(stats.unspills > 0, "a packable writer re-packed a block");
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

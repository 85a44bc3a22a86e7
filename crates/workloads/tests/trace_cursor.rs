//! A [`TraceCursor`] taken anywhere in a thread's stream continues it
//! exactly: `Workload::thread_trace_at(thread, &cursor)` must yield the
//! identical remaining executions. Checked at every 97th pull and,
//! explicitly, at the generator's delicate states — right after an acquire,
//! in the middle of a critical section, with barriers due, and in the main
//! thread's Init, Fork and Join phases — on all ten presets, the racy
//! scenario and a barrier preset.

use aikido_types::{SyncOp, ThreadId};
use aikido_workloads::{
    racy_workload, BlockExec, Step, TraceCursor, TracePhase, Workload, WorkloadSpec,
    PARSEC_BENCHMARKS,
};

/// Which delicate states a sweep visited.
#[derive(Default)]
struct Seen {
    after_acquire: bool,
    mid_section: bool,
    barriers_due: bool,
    init: bool,
    fork: bool,
    join: bool,
}

/// The full stream of `thread` plus the cursor before each pull (and one
/// past the end).
fn stream_with_cursors(w: &Workload, thread: ThreadId) -> (Vec<BlockExec>, Vec<TraceCursor>) {
    let mut trace = w.thread_trace(thread);
    let mut execs = Vec::new();
    let mut cursors = vec![trace.cursor()];
    while let Some(exec) = trace.next() {
        execs.push(exec);
        cursors.push(trace.cursor());
    }
    (execs, cursors)
}

fn check_workload(w: &Workload, seen: &mut Seen) {
    let full_section = w.spec().critical_section_blocks.max(1);
    for thread in w.threads() {
        let (execs, cursors) = stream_with_cursors(w, thread);
        for (i, cursor) in cursors.iter().enumerate() {
            let c = &cursor.counters;
            let after_acquire =
                i > 0 && matches!(execs[i - 1].step, Step::Sync(SyncOp::Acquire(_)));
            let mid_section = c
                .critical_section
                .is_some_and(|cs| cs.bodies_left > 0 && cs.bodies_left < full_section);
            let checks = [
                (after_acquire, &mut seen.after_acquire),
                (mid_section, &mut seen.mid_section),
                (c.barriers_due > 0, &mut seen.barriers_due),
                (c.phase == TracePhase::Init, &mut seen.init),
                (c.phase == TracePhase::Fork, &mut seen.fork),
                (c.phase == TracePhase::Join, &mut seen.join),
            ];
            let mut delicate = false;
            for (hit, flag) in checks {
                if hit {
                    *flag = true;
                    delicate = true;
                }
            }
            if !delicate && i % 97 != 0 {
                continue;
            }
            let resumed: Vec<BlockExec> = w
                .thread_trace_at(thread, cursor)
                .unwrap_or_else(|err| panic!("{} {thread} pull {i}: {err}", w.spec().name))
                .collect();
            assert!(
                resumed == execs[i..],
                "{} {thread}: the stream resumed at pull {i} diverges",
                w.spec().name
            );
        }
    }
}

#[test]
fn cursors_continue_every_stream_exactly() {
    let mut seen = Seen::default();
    for name in PARSEC_BENCHMARKS {
        let spec = WorkloadSpec::parsec(name).unwrap().scaled(0.02);
        check_workload(&Workload::generate(&spec), &mut seen);
    }
    check_workload(&Workload::generate(&racy_workload(4)), &mut seen);
    let barriers = WorkloadSpec::parsec("bodytrack")
        .unwrap()
        .scaled(0.02)
        .with_threads(4);
    assert!(barriers.barrier_every > 0, "bodytrack must use barriers");
    check_workload(&Workload::generate(&barriers), &mut seen);

    assert!(seen.after_acquire, "no cursor right after an acquire");
    assert!(seen.mid_section, "no cursor inside a critical section");
    assert!(seen.barriers_due, "no cursor with barriers due");
    assert!(
        seen.init && seen.fork && seen.join,
        "missing an Init/Fork/Join cursor"
    );
}

#[test]
fn out_of_range_cursors_are_refused() {
    let w = Workload::generate(&WorkloadSpec::parsec("bodytrack").unwrap().scaled(0.02));
    let main = ThreadId::MAIN;
    let start = w.thread_trace(main).cursor();
    assert!(w.thread_trace_at(main, &start).is_ok());

    let mut bad = Vec::new();
    let mut c = start;
    c.counters.fork_next = w.spec().threads + 1;
    bad.push(("fork_next past the thread count", main, c));
    let mut c = start;
    c.counters.remaining_accesses = w.spec().mem_accesses_per_thread + 1;
    bad.push(("budget above the spec's", main, c));
    let mut c = start;
    c.counters.barriers_due = 1;
    bad.push(("barrier due before any work", main, c));
    let mut c = start;
    c.rng = [0; 4];
    bad.push(("all-zero RNG", main, c));
    bad.push(("unknown thread", ThreadId::new(w.spec().threads), start));
    let worker = w.thread_trace(ThreadId::new(1)).cursor();
    let mut c = worker;
    c.counters.phase = TracePhase::Join;
    bad.push(("worker in the Join phase", ThreadId::new(1), c));

    for (what, thread, cursor) in bad {
        assert!(
            w.thread_trace_at(thread, &cursor).is_err(),
            "{what} was accepted"
        );
    }
}

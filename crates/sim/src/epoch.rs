//! The parallel epoch engine: a hand-rolled worker pool that generates each
//! guest thread's block executions on real OS threads while the commit thread
//! retires them in deterministic logical-clock order.
//!
//! # Design
//!
//! The simulator's observable state (VM protections, sharing transitions,
//! FastTrack clocks, cycle accounting) is mutated exclusively by the *commit*
//! thread, which runs the exact same round-robin scheduler as sequential
//! mode. What moves onto the worker pool is the stage that needs no global
//! state at all: trace generation. Each guest thread's block stream is a pure
//! function of the workload (seeded RNG per thread), so workers can run
//! arbitrarily far ahead without observing — or perturbing — the simulated
//! execution.
//!
//! ```text
//!              producer workers (guest threads partitioned round-robin)
//!   worker 0: [T0 batch][T2 batch][T0 batch] ──┐ bounded
//!   worker 1: [T1 batch][T3 batch][T1 batch] ──┤ SPSC     commit thread
//!                                              ▼ lanes    (logical clock)
//!                                   lane T0 ▸▸▸▸──────┐
//!                                   lane T1 ▸▸──────┐ │  round-robin epochs:
//!                                   lane T2 ▸▸▸────┐│ │  T0 T1 T2 T3 │ T0 …
//!                                   lane T3 ▸─────┐││ └► VM ▪ sharing ▪
//!                                                 └┴┴──► FastTrack ▪ cycles
//!                     (consumed shells recycle back to their producer)
//! ```
//!
//! Epochs are delimited by batch boundaries: a worker produces one batch of
//! [`EPOCH_BLOCKS`] executions per owned guest thread per round, and the
//! bounded lane (capacity [`LANE_BATCHES`]) acts as the barrier that stops
//! producers from running unboundedly ahead of the commit clock. Because
//! commit order — and therefore every report, race, and example transcript —
//! is fixed by the logical clock rather than by OS scheduling, a parallel run
//! is byte-identical to the sequential one by construction; the
//! `parallel_equivalence` suite proves it per release.
//!
//! Consumed [`BlockExec`] shells flow back to their producer through an
//! unbounded recycle lane, so the steady state allocates nothing on either
//! side (mirroring the sequential scheduler's buffer reuse).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;

use aikido_types::ThreadId;
use aikido_workloads::{BlockExec, ThreadTrace, TraceCursor, Workload};

use crate::engine::BlockFeed;

/// Where a run's per-thread block streams come from. The production
/// implementation is [`Workload`] (each stream is a [`ThreadTrace`]); tests
/// inject faulty or instrumented sources to prove the engine contains
/// producer panics instead of hanging or tearing down the process, and that
/// resume regenerates no trace prefix.
pub(crate) trait TraceSource: Sync {
    /// One guest thread's block stream.
    type Stream<'s>: BlockStream + Send
    where
        Self: 's;

    /// Opens `thread`'s stream at `cursor`, which the caller has validated
    /// against the workload (a fresh run passes each trace's start cursor).
    fn stream_at(&self, thread: ThreadId, cursor: &TraceCursor) -> Self::Stream<'_>;
}

/// One guest thread's stream of block executions (the producer half of
/// [`BlockFeed`]).
pub(crate) trait BlockStream {
    /// Appends up to `target` executions to `batch` (recycling its shells);
    /// returns `false` once the stream is exhausted.
    fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool;

    /// Produces the next execution into `out` (recycling its buffers);
    /// returns `false` once the stream is exhausted.
    fn next_into(&mut self, out: &mut BlockExec) -> bool;

    /// Where the stream stands: the cursor the next execution is generated
    /// from.
    fn cursor(&self) -> TraceCursor;
}

impl TraceSource for Workload {
    type Stream<'s> = ThreadTrace<'s>;

    fn stream_at(&self, thread: ThreadId, cursor: &TraceCursor) -> ThreadTrace<'_> {
        self.thread_trace_at(thread, cursor)
            .expect("stream cursors are validated before a run opens them")
    }
}

impl BlockStream for ThreadTrace<'_> {
    fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool {
        ThreadTrace::fill_batch(self, batch, target)
    }

    fn next_into(&mut self, out: &mut BlockExec) -> bool {
        ThreadTrace::next_into(self, out)
    }

    fn cursor(&self) -> TraceCursor {
        ThreadTrace::cursor(self)
    }
}

/// Where a slot's stream stands: `skip` executions past `cursor`. The
/// sequential feed always reports `skip == 0`; the parallel feed reports the
/// head cursor of the batch the commit thread is consuming plus the offset
/// into it, so `skip <= EPOCH_BLOCKS`. SCHD stores both fields; a pause
/// writes exact cursors (`skip == 0`) so images do not depend on the worker
/// count, and restore accepts any `skip <= EPOCH_BLOCKS`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StreamPos {
    pub(crate) cursor: TraceCursor,
    pub(crate) skip: u32,
}

/// Shared record of the first producer panic: the worker writes it before
/// exiting, the commit side inspects it once every producer has joined.
pub(crate) type PanicRecord = Arc<Mutex<Option<String>>>;

/// Renders a `catch_unwind` payload into the human-readable message carried
/// by [`SimError::WorkerPanic`](crate::SimError::WorkerPanic).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "producer panicked with a non-string payload".to_string()
    }
}

/// Block executions per produced batch (one epoch's worth for one guest
/// thread). Large enough to amortise channel traffic, small enough that the
/// commit thread never waits long for a lane refill.
pub(crate) const EPOCH_BLOCKS: usize = 1024;

/// Batches a lane buffers ahead of the commit clock. Bounds producer
/// run-ahead (the epoch barrier) and with it peak memory.
pub(crate) const LANE_BATCHES: usize = 4;

/// One produced epoch batch and the stream cursor it was generated from.
struct Batch {
    head: TraceCursor,
    execs: Vec<BlockExec>,
}

/// Commit-side view of one guest thread's lane.
struct Lane {
    rx: Receiver<Batch>,
    recycle_tx: SyncSender<Vec<BlockExec>>,
    batch: Vec<BlockExec>,
    cursor: usize,
    /// Head cursor of the batch being consumed (the stream's opening cursor
    /// before the first batch arrives); `cursor` executions past it is where
    /// the slot's stream stands.
    head: TraceCursor,
    exhausted: bool,
}

impl Lane {
    /// Hands the consumed batch's shells back to the producer (best effort —
    /// if the producer already exited, the shells are simply dropped).
    fn recycle_consumed(&mut self) {
        if !self.batch.is_empty() {
            let shells = std::mem::take(&mut self.batch);
            let _ = self.recycle_tx.try_send(shells);
        }
    }
}

/// The commit thread's block source when running parallel: pops each guest
/// thread's next execution from its lane, blocking only when the producers
/// have genuinely not caught up yet.
pub(crate) struct ParallelFeed {
    lanes: Vec<Lane>,
    panic: PanicRecord,
}

impl ParallelFeed {
    /// A handle to the producers' panic record, inspected after every
    /// producer has joined (i.e. outside the thread scope). A closed lane and
    /// a panicked producer are indistinguishable mid-run — both drop the
    /// sender — so only the joined record separates "trace exhausted" from
    /// "producer died".
    pub(crate) fn panic_handle(&self) -> PanicRecord {
        Arc::clone(&self.panic)
    }
}

impl BlockFeed for ParallelFeed {
    fn next_into(&mut self, slot: usize, out: &mut BlockExec) -> bool {
        let lane = &mut self.lanes[slot];
        if lane.cursor == lane.batch.len() {
            if lane.exhausted {
                return false;
            }
            match lane.rx.recv() {
                Ok(batch) => {
                    lane.recycle_consumed();
                    lane.batch = batch.execs;
                    lane.head = batch.head;
                    lane.cursor = 0;
                }
                Err(_) => {
                    // Producer dropped its sender: the trace is exhausted.
                    // The position stays at the end of the last batch.
                    lane.exhausted = true;
                    return false;
                }
            }
        }
        std::mem::swap(out, &mut lane.batch[lane.cursor]);
        lane.cursor += 1;
        true
    }

    fn position(&self, slot: usize) -> StreamPos {
        let lane = &self.lanes[slot];
        StreamPos {
            cursor: lane.head,
            skip: lane.cursor as u32,
        }
    }
}

/// Producer-side state for one owned guest thread.
struct ProducerLane<S> {
    trace: S,
    /// `None` once the trace is exhausted (dropping the sender is what tells
    /// the commit thread the lane is done).
    tx: Option<SyncSender<Batch>>,
    recycle_rx: Receiver<Vec<BlockExec>>,
    /// A produced batch the bounded lane had no room for yet.
    pending: Option<Batch>,
}

/// One worker: round-robins over its owned guest threads, each round
/// producing (or retrying delivery of) one epoch batch per thread. `try_send`
/// keeps a full lane from ever blocking the worker's other lanes, which is
/// what makes the pool deadlock-free: the commit thread only ever waits on a
/// lane whose producer is guaranteed to reach it again.
fn producer_loop<S: BlockStream>(mut lanes: Vec<ProducerLane<S>>) {
    // When every open lane is full the worker has outrun the commit clock by
    // LANE_BATCHES whole epochs; sleep with backoff instead of spinning so an
    // oversubscribed machine (CI runners, the 1-core case) gives the core
    // back to the commit thread.
    const IDLE_MIN: std::time::Duration = std::time::Duration::from_micros(10);
    const IDLE_MAX: std::time::Duration = std::time::Duration::from_micros(500);
    let mut idle = IDLE_MIN;
    let mut open = lanes.len();
    while open > 0 {
        let mut made_progress = false;
        for lane in &mut lanes {
            let Some(tx) = lane.tx.as_ref() else {
                continue;
            };
            // Deliver the stalled batch first; skip the lane if still full.
            if let Some(batch) = lane.pending.take() {
                match tx.try_send(batch) {
                    Ok(()) => made_progress = true,
                    Err(TrySendError::Full(batch)) => {
                        lane.pending = Some(batch);
                        continue;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        // Commit side finished with this lane early.
                        lane.tx = None;
                        open -= 1;
                        continue;
                    }
                }
            }
            // Produce the next epoch batch into recycled shells.
            let head = lane.trace.cursor();
            let mut execs = lane.recycle_rx.try_recv().unwrap_or_default();
            let more = lane.trace.fill_batch(&mut execs, EPOCH_BLOCKS);
            if !execs.is_empty() {
                let batch = Batch { head, execs };
                made_progress = true;
                match lane.tx.as_ref().expect("lane is open").try_send(batch) {
                    Ok(()) => {}
                    Err(TrySendError::Full(batch)) => lane.pending = Some(batch),
                    Err(TrySendError::Disconnected(_)) => {
                        lane.tx = None;
                        open -= 1;
                        continue;
                    }
                }
            }
            if !more && lane.pending.is_none() {
                // Trace exhausted and everything delivered: close the lane.
                lane.tx = None;
                open -= 1;
            }
        }
        if made_progress {
            idle = IDLE_MIN;
        } else {
            std::thread::sleep(idle);
            idle = (idle * 2).min(IDLE_MAX);
        }
    }
}

/// Spawns `workers` producer threads inside `scope`, partitioning the
/// guest threads' opened `streams` round-robin across them, and returns the
/// commit thread's feed. `streams` must be in the scheduler's slot order.
pub(crate) fn spawn_producers<'scope, T: BlockStream + Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    streams: Vec<T>,
    workers: usize,
) -> ParallelFeed {
    let workers = workers.clamp(1, streams.len().max(1));
    let mut commit_lanes = Vec::with_capacity(streams.len());
    let mut producer_lanes: Vec<Vec<ProducerLane<T>>> = (0..workers).map(|_| Vec::new()).collect();
    for (slot, trace) in streams.into_iter().enumerate() {
        let (tx, rx) = sync_channel(LANE_BATCHES);
        // Recycle capacity mirrors the data lane: at most LANE_BATCHES + 1
        // batches are ever in flight per guest thread.
        let (recycle_tx, recycle_rx) = sync_channel(LANE_BATCHES + 1);
        commit_lanes.push(Lane {
            rx,
            recycle_tx,
            batch: Vec::new(),
            cursor: 0,
            head: trace.cursor(),
            exhausted: false,
        });
        producer_lanes[slot % workers].push(ProducerLane {
            trace,
            tx: Some(tx),
            recycle_rx,
            pending: None,
        });
    }
    let panic: PanicRecord = Arc::new(Mutex::new(None));
    for lanes in producer_lanes {
        let record = Arc::clone(&panic);
        scope.spawn(move || {
            // A panicking stream must not tear down the whole process (or
            // deadlock the commit thread): the unwind drops the worker's
            // lanes — disconnecting every owned guest thread, which the
            // commit side reads as exhaustion and drains normally — and the
            // first payload is recorded for `Simulator::try_run` to surface
            // as a structured `SimError::WorkerPanic`.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| producer_loop(lanes))) {
                let message = panic_message(payload);
                let mut slot = record
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if slot.is_none() {
                    *slot = Some(message);
                }
            }
        });
    }
    ParallelFeed {
        lanes: commit_lanes,
        panic,
    }
}

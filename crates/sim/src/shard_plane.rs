//! Sharded parallel analysis: per-page ownership of FastTrack work across
//! the worker pool, merged deterministically on the commit thread.
//!
//! PR 3's epoch engine parallelised block *production* but retired every
//! access through one commit thread that performed all analysis, so the
//! sequential analysis path was the Amdahl ceiling. This module moves the
//! access-check work onto worker shards while keeping results byte-identical
//! to the sequential detector at every worker count:
//!
//! * **Page ownership.** The first guest thread to touch a page assigns the
//!   page to that thread's shard (threads map to shards round-robin, the
//!   same slot order the epoch engine uses). Accesses to a shard-owned page
//!   are analysed by that shard. When a *different* shard's thread touches
//!   the page, ownership escalates to the commit thread's canonical
//!   detector: the page's variable states and dedup entries migrate at the
//!   next flush and every later access is analysed canonically. Pages that
//!   were live in a restored snapshot are commit-owned from the start.
//! * **Broadcast synchronisation.** Accesses never mutate thread or lock
//!   vector clocks — only synchronisation operations do. Every replica
//!   (each shard and the canonical detector) receives the full
//!   synchronisation stream in global program order, so each replica's
//!   clock plane is identical to the sequential detector's at every point
//!   of the stream, and any replica can judge any access it owns exactly
//!   as the sequential detector would have.
//! * **Deterministic merge.** Each access carries the global sequence
//!   number the sequential detector would have given it. Race reports are
//!   collected as `(seq, report)` candidates on every replica and admitted
//!   centrally in sequence order, reproducing the sequential `max_reports`
//!   cutoff. Costs are converted shard-side with the engine's exact
//!   contention expression and summed; statistics merge componentwise with
//!   sync counters taken from the canonical replica alone. Blocks are
//!   page-disjoint, so variable states merge without conflicts.
//!
//! The plane defers work: accesses queue at delivery and are analysed when
//! the queue fills (or at pause/completion), with shard queues processed on
//! scoped worker threads. Shard panics are caught and surfaced as
//! [`SimError::WorkerPanic`](crate::SimError::WorkerPanic) without merging
//! anything from the failed flush.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use aikido_fasttrack::FastTrack;
use aikido_types::{AccessContext, AccessKind, Addr, LockId, SharedDataAnalysis, ThreadId, Vpn};
use serde::Serialize;

use crate::epoch::panic_message;

/// Queued accesses per flush. Small enough to keep shard caches warm,
/// large enough to amortise the scoped-thread fan-out.
const FLUSH_ACCESSES: usize = 16_384;

/// How the analysed/escalated access split landed across shards for one
/// run — the observable record of shard skew.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ShardOccupancy {
    /// Accesses analysed locally by each worker shard, indexed by shard.
    pub per_shard: Vec<u64>,
    /// Accesses escalated to the commit thread's canonical detector:
    /// contended or ownership-migrating pages, plus pages restored from a
    /// snapshot (commit-owned from the start).
    pub escalated: u64,
}

impl ShardOccupancy {
    /// Total accesses routed through the plane.
    pub fn total(&self) -> u64 {
        self.per_shard.iter().sum::<u64>() + self.escalated
    }

    /// Fraction of accesses analysed locally on a shard, in `[0, 1]`.
    /// Zero when the plane saw no accesses.
    pub fn local_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (total - self.escalated) as f64 / total as f64
        }
    }
}

/// Which replica analyses accesses to a page.
#[derive(Copy, Clone, PartialEq, Eq)]
enum PageOwner {
    /// A worker shard owns the page exclusively.
    Shard(usize),
    /// The commit thread's canonical detector owns the page (contended,
    /// migrated, or restored from a snapshot).
    Commit,
}

/// One deferred analysis event. Synchronisation events are broadcast to
/// every replica's queue; access runs go only to the owning replica.
#[derive(Copy, Clone)]
enum Event {
    /// A run of same-page, same-kind accesses by one thread.
    /// `start..start + len` indexes the queue's context buffer; `seq` is
    /// the global sequence number of the run's first access.
    Run {
        start: usize,
        len: usize,
        page: Vpn,
        kind: AccessKind,
        shared: bool,
        seq: u64,
    },
    /// `thread` acquired `lock`.
    Acquire { thread: ThreadId, lock: LockId },
    /// `thread` released `lock`.
    Release { thread: ThreadId, lock: LockId },
    /// `parent` spawned `child`.
    Fork { parent: ThreadId, child: ThreadId },
    /// `parent` joined `child`.
    Join { parent: ThreadId, child: ThreadId },
    /// All workload threads crossed barrier `id`.
    Barrier { id: u32 },
    /// Materialise `thread`'s vector clock. Broadcast to the replicas that
    /// did *not* receive the thread's first delivered event, because the
    /// detector reads the thread population (for `threads_known`) before
    /// ensuring the accessing thread's clock.
    EnsureThread(ThreadId),
}

/// A replica's deferred event stream plus the access contexts its runs
/// index into.
#[derive(Default)]
struct EventQueue {
    events: Vec<Event>,
    cxs: Vec<AccessContext>,
}

impl EventQueue {
    fn clear(&mut self) {
        self.events.clear();
        self.cxs.clear();
    }
}

/// One analysis replica: a detector plus its deferred queue and the cost /
/// merge bookkeeping the plane needs. Worker shards and the canonical
/// detector share this shape; `dead_pages` is only ever non-empty on
/// shards.
struct Replica {
    ft: FastTrack,
    queue: EventQueue,
    /// Pages whose states migrated to the canonical detector. The stale
    /// local metadata they leave behind is excluded from the final merge.
    dead_pages: HashSet<u64>,
    /// Analysis cycles accumulated by this replica's accesses, already
    /// contention-converted with the engine's exact expression.
    cycles: u64,
    /// `(global seq, detector cost memo)` of the last access this replica
    /// processed; the merge elects the globally last one.
    last: Option<(u64, u64)>,
    cost_scratch: Vec<u64>,
}

impl Replica {
    fn new(ft: FastTrack) -> Replica {
        let mut ft = ft;
        ft.set_candidate_mode(true);
        Replica {
            ft,
            queue: EventQueue::default(),
            dead_pages: HashSet::new(),
            cycles: 0,
            last: None,
            cost_scratch: Vec::new(),
        }
    }

    /// Drains this replica's queue through its detector, accumulating
    /// converted cycles and the last-access memo.
    fn process(&mut self, threads: &[ThreadId], contention: f64) {
        for event in &self.queue.events {
            match *event {
                Event::Run {
                    start,
                    len,
                    page,
                    kind,
                    shared,
                    seq,
                } => {
                    self.ft.set_access_seq(seq);
                    if len == 1 {
                        self.ft.on_access(self.queue.cxs[start]);
                        let base = self.ft.last_access_cost_cycles();
                        self.cycles += convert_cost(base, shared, contention);
                    } else {
                        self.ft.on_access_run(
                            page,
                            kind,
                            &self.queue.cxs[start..start + len],
                            &mut self.cost_scratch,
                        );
                        for &base in &self.cost_scratch {
                            self.cycles += convert_cost(base, shared, contention);
                        }
                    }
                    let last_seq = seq + len as u64 - 1;
                    self.last = Some((last_seq, self.ft.last_access_cost_cycles()));
                }
                Event::Acquire { thread, lock } => self.ft.on_acquire(thread, lock),
                Event::Release { thread, lock } => self.ft.on_release(thread, lock),
                Event::Fork { parent, child } => self.ft.on_fork(parent, child),
                Event::Join { parent, child } => self.ft.on_join(parent, child),
                Event::Barrier { id } => self.ft.on_barrier(threads, id),
                Event::EnsureThread(thread) => self.ft.ensure_thread(thread),
            }
        }
        self.queue.clear();
    }
}

/// The engine's shared-access contention conversion, verbatim: replicas
/// convert detector base costs exactly where the sequential engine would.
#[inline]
fn convert_cost(base: u64, shared: bool, contention: f64) -> u64 {
    if shared {
        (base as f64 * contention).round() as u64
    } else {
        base
    }
}

/// The page a detector block lives on, given the detector granularity.
#[inline]
fn page_of_block(block: u64, granularity: u64) -> u64 {
    Addr::new(block * granularity).page().raw()
}

/// The sharded analysis plane: the canonical detector plus one replica per
/// epoch-engine worker, with page-ownership routing and a deterministic
/// merge. Owned by [`Run`](crate::engine) while sharded analysis is active;
/// the run's built-in analysis slot becomes a never-delivered placeholder.
pub(crate) struct ShardPlane {
    canonical: Replica,
    shards: Vec<Replica>,
    /// Which replica owns each page (by raw VPN).
    owners: HashMap<u64, PageOwner>,
    /// Pages whose ownership escalated since the last flush, with the shard
    /// they must migrate out of.
    pending_migrations: Vec<(u64, usize)>,
    /// Threads whose clocks every replica already materialised (or will,
    /// via queued events).
    clocked: HashSet<ThreadId>,
    /// Workload threads in scheduler slot order; slot *i* maps to shard
    /// `i % shards`, mirroring the epoch engine's producer partition.
    threads: Vec<ThreadId>,
    thread_slot: HashMap<ThreadId, usize>,
    /// The run's shared-access contention factor.
    contention: f64,
    /// Next global access sequence number.
    seq: u64,
    /// Accesses queued since the last flush.
    pending_accesses: usize,
    occupancy: ShardOccupancy,
    finalized: bool,
    /// First shard-panic message; sticky so every later flush re-fails.
    failed: Option<String>,
    /// Test seam: panic inside this shard's next non-empty flush.
    #[cfg(test)]
    inject_panic_shard: Option<usize>,
}

impl std::fmt::Debug for ShardPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlane")
            .field("shards", &self.shards.len())
            .field("pages", &self.owners.len())
            .field("pending_accesses", &self.pending_accesses)
            .field("occupancy", &self.occupancy)
            .finish_non_exhaustive()
    }
}

impl ShardPlane {
    /// Builds a plane around `canonical` with one shard replica per worker,
    /// clamped to the guest thread count exactly like the epoch engine's
    /// producer pool: threads map to shards by `slot % shards`, so a replica
    /// past the thread count could never own a page. Handles fresh and
    /// restored canonical detectors uniformly:
    /// pages already tracked (or already reported) by `canonical` are
    /// commit-owned, threads it already knows are pre-clocked, and each
    /// shard forks the canonical clock plane so replicas created
    /// mid-history judge accesses with the right clocks.
    pub(crate) fn new(
        canonical: FastTrack,
        workers: usize,
        threads: Vec<ThreadId>,
        contention: f64,
    ) -> ShardPlane {
        let workers = workers.clamp(1, threads.len().max(1));
        let shards: Vec<Replica> = (0..workers)
            .map(|_| Replica::new(canonical.fork_clock_plane()))
            .collect();
        let granularity = canonical.config().granularity;
        let mut owners = HashMap::new();
        for (block, _) in canonical.var_states() {
            owners.insert(page_of_block(block, granularity), PageOwner::Commit);
        }
        for block in canonical.reported_block_list() {
            owners.insert(page_of_block(block, granularity), PageOwner::Commit);
        }
        let clocked = threads
            .iter()
            .copied()
            .filter(|&t| canonical.knows_thread(t))
            .collect();
        let thread_slot = threads.iter().copied().zip(0..).collect();
        ShardPlane {
            canonical: Replica::new(canonical),
            shards,
            owners,
            pending_migrations: Vec::new(),
            clocked,
            threads,
            thread_slot,
            contention,
            seq: 0,
            pending_accesses: 0,
            occupancy: ShardOccupancy {
                per_shard: vec![0; workers],
                escalated: 0,
            },
            finalized: false,
            failed: None,
            #[cfg(test)]
            inject_panic_shard: None,
        }
    }

    /// Arms the injected-panic test seam for `shard`.
    #[cfg(test)]
    pub(crate) fn inject_panic_in_shard(&mut self, shard: usize) {
        self.inject_panic_shard = Some(shard);
    }

    /// The canonical detector (merged view after [`ShardPlane::finalize`]).
    pub(crate) fn canonical(&self) -> &FastTrack {
        &self.canonical.ft
    }

    /// Consumes the plane, yielding the canonical detector.
    pub(crate) fn into_canonical(self) -> FastTrack {
        self.canonical.ft
    }

    /// The run's shard-occupancy record so far.
    pub(crate) fn occupancy(&self) -> ShardOccupancy {
        self.occupancy.clone()
    }

    /// True once enough accesses queued that the engine should flush at
    /// the next round boundary.
    pub(crate) fn should_flush(&self) -> bool {
        self.pending_accesses >= FLUSH_ACCESSES
    }

    /// Routes an access to `page` by `thread`, updating ownership: first
    /// touch claims the page for the thread's shard, a cross-shard touch
    /// escalates it to the commit thread and schedules the migration.
    fn route(&mut self, page: u64, thread: ThreadId) -> PageOwner {
        let shard = self.thread_slot.get(&thread).copied().unwrap_or(0) % self.shards.len();
        match self.owners.get(&page).copied() {
            None => {
                self.owners.insert(page, PageOwner::Shard(shard));
                PageOwner::Shard(shard)
            }
            Some(PageOwner::Shard(owner)) if owner == shard => PageOwner::Shard(owner),
            Some(PageOwner::Shard(owner)) => {
                self.owners.insert(page, PageOwner::Commit);
                self.pending_migrations.push((page, owner));
                PageOwner::Commit
            }
            Some(PageOwner::Commit) => PageOwner::Commit,
        }
    }

    fn queue_mut(&mut self, dest: PageOwner) -> &mut EventQueue {
        match dest {
            PageOwner::Shard(i) => &mut self.shards[i].queue,
            PageOwner::Commit => &mut self.canonical.queue,
        }
    }

    /// Ensures every replica will materialise `thread`'s clock before its
    /// next event, *except* the replica receiving the thread's first
    /// delivered access: `read_at`/`write_at` count the thread population
    /// before ensuring the accessor, so the destination must see the bare
    /// access exactly like the sequential detector did.
    fn note_thread(&mut self, thread: ThreadId, dest: PageOwner) {
        if !self.clocked.insert(thread) {
            return;
        }
        for (index, shard) in self.shards.iter_mut().enumerate() {
            if dest != PageOwner::Shard(index) {
                shard.queue.events.push(Event::EnsureThread(thread));
            }
        }
        if dest != PageOwner::Commit {
            self.canonical
                .queue
                .events
                .push(Event::EnsureThread(thread));
        }
    }

    fn note_occupancy(&mut self, dest: PageOwner, len: u64) {
        match dest {
            PageOwner::Shard(index) => self.occupancy.per_shard[index] += len,
            PageOwner::Commit => self.occupancy.escalated += len,
        }
    }

    /// Queues a run of same-page, same-kind accesses by one thread.
    pub(crate) fn enqueue_run(
        &mut self,
        thread: ThreadId,
        page: Vpn,
        kind: AccessKind,
        cxs: &[AccessContext],
        shared: bool,
    ) {
        debug_assert!(!cxs.is_empty(), "runs are non-empty");
        let dest = self.route(page.raw(), thread);
        self.note_thread(thread, dest);
        let seq = self.seq;
        self.seq += cxs.len() as u64;
        self.pending_accesses += cxs.len();
        self.note_occupancy(dest, cxs.len() as u64);
        let len = cxs.len();
        let queue = self.queue_mut(dest);
        let start = queue.cxs.len();
        queue.cxs.extend_from_slice(cxs);
        queue.events.push(Event::Run {
            start,
            len,
            page,
            kind,
            shared,
            seq,
        });
    }

    /// Queues a single access.
    pub(crate) fn enqueue_access(&mut self, cx: AccessContext, shared: bool) {
        let page = cx.addr.page();
        let kind = cx.kind;
        self.enqueue_run(cx.thread, page, kind, &[cx], shared);
    }

    /// Broadcasts a synchronisation event to every replica's queue.
    fn broadcast(&mut self, event: Event) {
        for shard in &mut self.shards {
            shard.queue.events.push(event);
        }
        self.canonical.queue.events.push(event);
    }

    /// Queues a lock acquire.
    pub(crate) fn enqueue_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.clocked.insert(thread);
        self.broadcast(Event::Acquire { thread, lock });
    }

    /// Queues a lock release.
    pub(crate) fn enqueue_release(&mut self, thread: ThreadId, lock: LockId) {
        self.clocked.insert(thread);
        self.broadcast(Event::Release { thread, lock });
    }

    /// Queues a thread fork.
    pub(crate) fn enqueue_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.clocked.insert(parent);
        self.clocked.insert(child);
        self.broadcast(Event::Fork { parent, child });
    }

    /// Queues a thread join.
    pub(crate) fn enqueue_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.clocked.insert(parent);
        self.clocked.insert(child);
        self.broadcast(Event::Join { parent, child });
    }

    /// Queues a barrier episode. The detector snapshots every workload
    /// thread's clock, so all of them count as contacted.
    pub(crate) fn enqueue_barrier(&mut self, id: u32) {
        for index in 0..self.threads.len() {
            let thread = self.threads[index];
            self.clocked.insert(thread);
        }
        self.broadcast(Event::Barrier { id });
    }

    /// Drains every queue: shard queues on scoped worker threads (panics
    /// caught and surfaced, nothing merged on failure), then page
    /// migrations, then the canonical queue inline, then globally
    /// seq-ordered candidate admission.
    pub(crate) fn flush(&mut self) -> Result<(), String> {
        if let Some(message) = &self.failed {
            return Err(message.clone());
        }
        self.pending_accesses = 0;
        let threads = &self.threads;
        let contention = self.contention;
        let shards = &mut self.shards;
        #[cfg(test)]
        let inject = self.inject_panic_shard;
        let mut failure: Option<String> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (index, shard) in shards.iter_mut().enumerate() {
                if shard.queue.events.is_empty() {
                    continue;
                }
                #[cfg(test)]
                let inject_here = inject == Some(index);
                #[cfg(not(test))]
                let inject_here = {
                    let _ = index;
                    false
                };
                handles.push(scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        if inject_here {
                            panic!("injected analysis shard panic");
                        }
                        shard.process(threads, contention);
                    }))
                    .map_err(panic_message)
                }));
            }
            for handle in handles {
                let outcome = handle
                    .join()
                    .expect("shard panics are caught inside the worker");
                if let Err(message) = outcome {
                    failure.get_or_insert(message);
                }
            }
        });
        if let Some(message) = failure {
            self.failed = Some(message.clone());
            return Err(message);
        }

        let migrations = std::mem::take(&mut self.pending_migrations);
        if !migrations.is_empty() {
            let granularity = self.canonical.ft.config().granularity;
            let mut by_shard: HashMap<usize, HashSet<u64>> = HashMap::new();
            for (page, shard) in migrations {
                by_shard.entry(shard).or_default().insert(page);
            }
            for (shard_index, pages) in by_shard {
                let shard = &mut self.shards[shard_index];
                for (block, state) in shard.ft.var_states() {
                    if pages.contains(&page_of_block(block, granularity)) {
                        self.canonical.ft.insert_var_state(block, state);
                    }
                }
                let migrated: Vec<u64> = shard
                    .ft
                    .reported_block_list()
                    .into_iter()
                    .filter(|&block| pages.contains(&page_of_block(block, granularity)))
                    .collect();
                self.canonical.ft.extend_reported_blocks(migrated);
                shard.dead_pages.extend(pages);
            }
        }

        self.canonical.process(&self.threads, self.contention);

        let mut candidates = self.canonical.ft.take_candidates();
        for shard in &mut self.shards {
            candidates.extend(shard.ft.take_candidates());
        }
        candidates.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, report) in candidates {
            self.canonical.ft.admit_candidate(report);
        }
        Ok(())
    }

    /// Flushes, then merges every shard into the canonical detector:
    /// variable states (minus migrated pages), dedup entries, per-access
    /// statistics, the globally last access-cost memo, and the plane's
    /// total analysis cycles (returned for the engine to charge).
    /// Idempotent: a second call flushes whatever queued since and
    /// contributes only those new cycles.
    pub(crate) fn finalize(&mut self) -> Result<u64, String> {
        self.flush()?;
        if self.finalized {
            return Ok(0);
        }
        self.finalized = true;
        let granularity = self.canonical.ft.config().granularity;
        let mut last = self.canonical.last;
        for shard_index in 0..self.shards.len() {
            let shard = &mut self.shards[shard_index];
            for (block, state) in shard.ft.var_states() {
                if !shard
                    .dead_pages
                    .contains(&page_of_block(block, granularity))
                {
                    self.canonical.ft.insert_var_state(block, state);
                }
            }
            let reported = shard.ft.reported_block_list();
            self.canonical.ft.extend_reported_blocks(reported);
            self.canonical.ft.merge_access_stats(shard.ft.stats());
            if let Some((seq, cost)) = shard.last {
                if last.map(|(s, _)| seq > s).unwrap_or(true) {
                    last = Some((seq, cost));
                }
            }
        }
        if let Some((_, cost)) = last {
            self.canonical.ft.set_last_cost(cost);
        }
        let cycles =
            self.canonical.cycles + self.shards.iter().map(|shard| shard.cycles).sum::<u64>();
        Ok(cycles)
    }
}

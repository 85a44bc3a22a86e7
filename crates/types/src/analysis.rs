//! The `SharedDataAnalysis` trait — the interface every analysis tool
//! (race detector, atomicity checker, sharing profiler, …) implements in
//! order to be driven either by Aikido (shared accesses only) or by the
//! conventional full-instrumentation pipeline (all accesses).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{AccessKind, Addr, InstrId, LockId, ThreadId, Vpn};

/// Context for an instrumented memory access delivered to an analysis.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessContext {
    /// The thread performing the access.
    pub thread: ThreadId,
    /// The effective address accessed (application address, not mirror).
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Access size in bytes.
    pub size: u8,
    /// Static instruction performing the access.
    pub instr: InstrId,
}

/// The category of a report produced by an analysis.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportKind {
    /// A data race (write/write or read/write without a happens-before edge).
    DataRace,
    /// An atomicity violation.
    AtomicityViolation,
    /// Any other diagnostic.
    Other,
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportKind::DataRace => write!(f, "data race"),
            ReportKind::AtomicityViolation => write!(f, "atomicity violation"),
            ReportKind::Other => write!(f, "diagnostic"),
        }
    }
}

/// A single diagnostic produced by a shared data analysis.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Category of the report.
    pub kind: ReportKind,
    /// Address (variable) involved.
    pub addr: Addr,
    /// Thread performing the access that triggered the report.
    pub thread: ThreadId,
    /// Other thread involved, when known (e.g. the prior conflicting access).
    pub other_thread: Option<ThreadId>,
    /// Static instruction that triggered the report, when known.
    pub instr: Option<InstrId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {} ({})", self.kind, self.addr, self.message)
    }
}

/// A dynamic analysis that operates on shared data.
///
/// Implementations receive callbacks for instrumented memory accesses and for
/// every synchronisation operation. Under Aikido only accesses performed by
/// instructions that touch shared pages are delivered; under the conventional
/// pipeline every memory access is delivered. Synchronisation callbacks are
/// always delivered in both configurations.
///
/// # Examples
///
/// A trivial analysis that counts instrumented accesses:
///
/// ```
/// use aikido_types::{AccessContext, AnalysisReport, SharedDataAnalysis};
///
/// #[derive(Default, Debug)]
/// struct Counter {
///     accesses: u64,
/// }
///
/// impl SharedDataAnalysis for Counter {
///     fn name(&self) -> &'static str {
///         "counter"
///     }
///     fn on_access(&mut self, _cx: AccessContext) {
///         self.accesses += 1;
///     }
///     fn reports(&self) -> Vec<AnalysisReport> {
///         Vec::new()
///     }
/// }
/// ```
pub trait SharedDataAnalysis {
    /// Short name of the analysis (used in reports and statistics).
    fn name(&self) -> &'static str;

    /// Called for every instrumented memory access.
    fn on_access(&mut self, cx: AccessContext);

    /// Called with a *batch* of instrumented accesses delivered back-to-back
    /// by the same thread, with no synchronisation between them. Pushes the
    /// per-access cost — what [`SharedDataAnalysis::last_access_cost_cycles`]
    /// would have returned after each access — into `costs` (cleared
    /// first), in access order.
    ///
    /// Both instrumented modes of the simulator make at most one delivery
    /// per work block execution, in slot order, across pages and kinds:
    /// full instrumentation delivers every access of the block, Aikido mode
    /// the block's shared accesses (including one a fault has just
    /// instrumented). A delivery of more than one access arrives here, a
    /// lone access through [`SharedDataAnalysis::on_access`].
    ///
    /// The default implementation is the scalar loop, so implementing
    /// [`SharedDataAnalysis::on_access`] alone is always enough. Overrides
    /// exist purely for speed (hoisting per-thread state out of the loop) and
    /// **must be observably identical** to the default: same end state, same
    /// reports, same statistics, same costs in the same order. Overrides may
    /// not assume anything about the batch beyond "non-empty slice of
    /// accesses in program order by one thread".
    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        costs.clear();
        costs.reserve(run.len());
        for cx in run {
            self.on_access(*cx);
            costs.push(self.last_access_cost_cycles());
        }
    }

    /// Like [`SharedDataAnalysis::on_access_batch`], for a run whose every
    /// access targets `page` and performs `kind`. The simulator never calls
    /// it. It remains only because the perfbench harness's timing wrapper
    /// overrides it, and it goes with the next change to that harness.
    fn on_access_run(
        &mut self,
        page: Vpn,
        kind: AccessKind,
        run: &[AccessContext],
        costs: &mut Vec<u64>,
    ) {
        let _ = (page, kind);
        self.on_access_batch(run, costs);
    }

    /// Called when `thread` acquires `lock`.
    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        let _ = (thread, lock);
    }

    /// Called when `thread` releases `lock`.
    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        let _ = (thread, lock);
    }

    /// Called when `parent` spawns `child`.
    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        let _ = (parent, child);
    }

    /// Called when `parent` joins `child`.
    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        let _ = (parent, child);
    }

    /// Called when all threads of the workload reach barrier `id`.
    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        let _ = (threads, id);
    }

    /// Called when `thread` exits.
    fn on_thread_exit(&mut self, thread: ThreadId) {
        let _ = thread;
    }

    /// All diagnostics produced so far.
    fn reports(&self) -> Vec<AnalysisReport>;

    /// Cost in cycles charged by the simulator for one instrumented access
    /// (the analysis check itself, excluding shadow translation and
    /// redirection which the simulator charges separately).
    fn access_cost_cycles(&self) -> u64 {
        55
    }

    /// Cost in cycles of the *most recent* [`SharedDataAnalysis::on_access`]
    /// call. Analyses whose per-access work varies (e.g. FastTrack's epoch
    /// fast path versus its vector-clock slow path) override this so the
    /// simulator charges the path actually taken; the default is the flat
    /// [`SharedDataAnalysis::access_cost_cycles`].
    fn last_access_cost_cycles(&self) -> u64 {
        self.access_cost_cycles()
    }

    /// Cost in cycles charged for one synchronisation callback.
    fn sync_cost_cycles(&self) -> u64 {
        120
    }
}

/// An analysis that does nothing; useful for measuring pure framework
/// overhead (DBI dispatch, sharing detection, redirection) without any
/// analysis cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullAnalysis {
    accesses: u64,
}

impl NullAnalysis {
    /// Creates a new null analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accesses delivered to the analysis so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl SharedDataAnalysis for NullAnalysis {
    fn name(&self) -> &'static str {
        "null"
    }

    fn on_access(&mut self, _cx: AccessContext) {
        self.accesses += 1;
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        Vec::new()
    }

    fn access_cost_cycles(&self) -> u64 {
        0
    }

    fn sync_cost_cycles(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, BlockId};

    fn cx() -> AccessContext {
        AccessContext {
            thread: ThreadId::new(1),
            addr: Addr::new(0x2000),
            kind: AccessKind::Write,
            size: 8,
            instr: InstrId::new(BlockId::new(0), 0),
        }
    }

    #[test]
    fn null_analysis_counts_accesses_and_reports_nothing() {
        let mut a = NullAnalysis::new();
        a.on_access(cx());
        a.on_access(cx());
        assert_eq!(a.accesses(), 2);
        assert!(a.reports().is_empty());
        assert_eq!(a.access_cost_cycles(), 0);
        assert_eq!(a.name(), "null");
    }

    #[test]
    fn default_batch_delivery_matches_scalar_delivery() {
        let mut scalar = NullAnalysis::new();
        let mut batched = NullAnalysis::new();
        let run = [cx(), cx(), cx()];
        let mut costs = vec![0xdead];
        for access in run {
            scalar.on_access(access);
        }
        batched.on_access_batch(&run, &mut costs);
        assert_eq!(batched.accesses(), scalar.accesses());
        assert_eq!(costs, vec![0, 0, 0], "stale contents are cleared first");
        batched.on_access_batch(&[], &mut costs);
        assert!(costs.is_empty());
        assert_eq!(batched.accesses(), 3);
    }

    #[test]
    fn default_sync_callbacks_are_noops() {
        let mut a = NullAnalysis::new();
        a.on_acquire(ThreadId::new(0), LockId::new(1));
        a.on_release(ThreadId::new(0), LockId::new(1));
        a.on_fork(ThreadId::new(0), ThreadId::new(1));
        a.on_join(ThreadId::new(0), ThreadId::new(1));
        a.on_barrier(&[ThreadId::new(0)], 0);
        a.on_thread_exit(ThreadId::new(0));
        assert_eq!(a.accesses(), 0);
    }

    #[test]
    fn report_display_mentions_kind_and_addr() {
        let r = AnalysisReport {
            kind: ReportKind::DataRace,
            addr: Addr::new(0x40),
            thread: ThreadId::new(2),
            other_thread: Some(ThreadId::new(3)),
            instr: None,
            message: "write-write conflict".into(),
        };
        let s = r.to_string();
        assert!(s.contains("data race"));
        assert!(s.contains("0x40"));
    }
}

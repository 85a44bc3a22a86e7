//! The runtime audit oracle: checks every delivered access against the
//! static pass's no-shared-access claims.

use aikido_types::{AccessContext, AnalysisReport, LockId, SharedDataAnalysis, ThreadId};
use aikido_workloads::MemoryLayout;

use crate::report::StaticReport;

/// A [`SharedDataAnalysis`] decorator that audits the static pre-analysis.
///
/// The wrapper forwards every callback to the inner analysis unchanged —
/// same deliveries, same costs, byte-identical reports — and on the way
/// through checks the oracle invariant: *no access performed by a block the
/// static pass proved thread-private or unreachable may target a shared
/// page*. Violations are counted, never acted on, so a wrapped run is
/// observably identical to an unwrapped one. It is the one check on the
/// static pass: the audit suites run with the wrapper installed and assert
/// [`StaticAudit::violations`]` == 0` at the end.
///
/// The mutation tests instead inject deliberately unsound claims — raw ones
/// through [`StaticAudit::with_claims`], tampered block classes through
/// [`StaticAudit::new`] — and assert every injected claim is caught.
#[derive(Debug)]
pub struct StaticAudit<A> {
    inner: A,
    /// `claims[b]` — block *b* was declared thread-private.
    claims: Vec<bool>,
    /// The shared region as a half-open raw-address interval.
    shared_start: u64,
    shared_end: u64,
    violations: u64,
}

impl<A: SharedDataAnalysis> StaticAudit<A> {
    /// Wraps `inner`, auditing the claims of `report` against the shared
    /// region of `layout`: every [`BlockClass::ProvenPrivate`] and
    /// [`BlockClass::Unreachable`] block is claimed never to touch shared
    /// memory (see [`StaticReport::no_shared_access_claims`]).
    ///
    /// [`BlockClass::ProvenPrivate`]: crate::BlockClass::ProvenPrivate
    /// [`BlockClass::Unreachable`]: crate::BlockClass::Unreachable
    pub fn new(inner: A, report: &StaticReport, layout: &MemoryLayout) -> Self {
        Self::with_claims(inner, report.no_shared_access_claims(), layout)
    }

    /// Wraps `inner` with raw claims — the injection entry point for the
    /// mutation tests. `claims[b]` asserts block *b* never touches shared
    /// memory; blocks beyond the vector are unclaimed.
    pub fn with_claims(inner: A, claims: Vec<bool>, layout: &MemoryLayout) -> Self {
        let shared_start = layout.shared_base().raw();
        StaticAudit {
            inner,
            claims,
            shared_start,
            shared_end: shared_start + layout.shared_bytes(),
            violations: 0,
        }
    }

    /// Number of audited accesses that contradicted a claim: the access came
    /// from a claimed-private block yet targeted the shared region.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Asserts the oracle saw no violation.
    ///
    /// # Panics
    ///
    /// Panics if any audited access contradicted a claim.
    pub fn assert_clean(&self) {
        assert_eq!(
            self.violations, 0,
            "static pre-analysis audit: {} access(es) from claimed-private blocks hit shared pages",
            self.violations
        );
    }

    /// The wrapped analysis.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> A {
        self.inner
    }

    #[inline]
    fn audit(&mut self, cx: &AccessContext) {
        let block = cx.instr.block().raw() as usize;
        if self.claims.get(block).copied().unwrap_or(false)
            && cx.addr.raw() >= self.shared_start
            && cx.addr.raw() < self.shared_end
        {
            self.violations += 1;
        }
    }
}

impl<A: SharedDataAnalysis> SharedDataAnalysis for StaticAudit<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, cx: AccessContext) {
        self.audit(&cx);
        self.inner.on_access(cx);
    }

    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        for cx in run {
            self.audit(cx);
        }
        // Forward the whole run so the inner analysis keeps its batched
        // entry point (and its batched costs) exactly as without the audit.
        self.inner.on_access_batch(run, costs);
    }

    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_acquire(thread, lock);
    }

    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_release(thread, lock);
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_fork(parent, child);
    }

    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_join(parent, child);
    }

    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        self.inner.on_barrier(threads, id);
    }

    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.inner.on_thread_exit(thread);
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        self.inner.reports()
    }

    fn access_cost_cycles(&self) -> u64 {
        self.inner.access_cost_cycles()
    }

    fn last_access_cost_cycles(&self) -> u64 {
        self.inner.last_access_cost_cycles()
    }

    fn sync_cost_cycles(&self) -> u64 {
        self.inner.sync_cost_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_types::{AccessKind, Addr, BlockId, InstrId, NullAnalysis};
    use aikido_workloads::WorkloadSpec;

    fn layout() -> MemoryLayout {
        MemoryLayout::from_spec(&WorkloadSpec::default())
    }

    fn access(block: u32, addr: u64) -> AccessContext {
        AccessContext {
            thread: ThreadId::new(1),
            addr: Addr::new(addr),
            kind: AccessKind::Write,
            size: 8,
            instr: InstrId::new(BlockId::new(block), 0),
        }
    }

    #[test]
    fn honest_private_accesses_pass_the_audit() {
        let l = layout();
        let private = l.private_base(ThreadId::new(1)).raw();
        let mut audit = StaticAudit::with_claims(NullAnalysis::new(), vec![true, false], &l);
        audit.on_access(access(0, private));
        audit.on_access(access(1, l.shared_base().raw())); // unclaimed block
        assert_eq!(audit.violations(), 0);
        audit.assert_clean();
        assert_eq!(audit.inner().accesses(), 2, "deliveries are forwarded");
    }

    #[test]
    fn shared_access_from_a_claimed_block_is_a_violation() {
        let l = layout();
        let mut audit = StaticAudit::with_claims(NullAnalysis::new(), vec![true], &l);
        audit.on_access(access(0, l.shared_base().raw() + 64));
        assert_eq!(audit.violations(), 1);
        // The access itself is still delivered: the oracle observes, never
        // filters.
        assert_eq!(audit.inner().accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "static pre-analysis audit")]
    fn assert_clean_panics_on_violations() {
        let l = layout();
        let mut audit = StaticAudit::with_claims(NullAnalysis::new(), vec![true], &l);
        audit.on_access(access(0, l.shared_base().raw()));
        audit.assert_clean();
    }

    #[test]
    fn batched_deliveries_are_audited_and_forwarded() {
        let l = layout();
        let shared = l.shared_base().raw();
        let mut audit = StaticAudit::with_claims(NullAnalysis::new(), vec![true], &l);
        let run = [access(0, shared), access(0, shared + 8)];
        let mut costs = Vec::new();
        audit.on_access_batch(&run, &mut costs);
        assert_eq!(audit.violations(), 2);
        assert_eq!(costs, vec![0, 0], "inner batched costs are untouched");
        assert_eq!(audit.into_inner().accesses(), 2);
    }

    #[test]
    fn blocks_beyond_the_claim_vector_are_unclaimed() {
        let l = layout();
        let mut audit = StaticAudit::with_claims(NullAnalysis::new(), Vec::new(), &l);
        audit.on_access(access(40, l.shared_base().raw()));
        assert_eq!(audit.violations(), 0);
    }

    #[test]
    fn audit_of_an_honest_report_is_constructible() {
        let w = aikido_workloads::Workload::generate(
            &WorkloadSpec::parsec("blackscholes").unwrap().scaled(0.02),
        );
        let report = StaticReport::for_workload(&w);
        let audit = StaticAudit::new(NullAnalysis::new(), &report, w.layout());
        assert_eq!(audit.violations(), 0);
    }
}

//! Deterministic synthetic multithreaded workloads, calibrated to the PARSEC
//! benchmarks the Aikido paper evaluates on (§5).
//!
//! The paper runs ten PARSEC 2.1 benchmarks (simsmall inputs, 8 threads) under
//! a FastTrack race detector with and without Aikido. We cannot ship PARSEC,
//! a compiler and a real x86 machine inside this reproduction, so this crate
//! generates *synthetic* workloads whose observable properties — the ones
//! that determine Aikido's win or loss — are calibrated per benchmark from
//! the paper's own measurements (Table 2 and Figure 6):
//!
//! * the number of dynamic memory-referencing instructions,
//! * the fraction of those executed by static instructions that ever touch a
//!   shared page (Table 2, "Instrumented Instrs." / "Instrs. Referencing
//!   Memory"),
//! * the fraction of accesses that actually target shared pages (Table 2,
//!   "Shared Page Accesses"; Figure 6),
//! * thread count, synchronisation style (locks, barriers, fork/join),
//!   read/write mix and compute density.
//!
//! A workload is a static [`Program`] (basic blocks over the synthetic ISA)
//! plus one deterministic, seeded trace per thread
//! ([`Workload::thread_trace`]): per block execution, the block, its
//! [`Step`] and one packed [`AccessWord`] per memory slot of the block's
//! [`BlockShape`]. Threads other than the main thread begin only after the
//! main thread's `fork`, every lock-protected access uses the lock that owns
//! that slice of shared memory, and read-mostly shared data is
//! written only before the fork — so the generated histories are race-free
//! unless a preset deliberately injects racy accesses (`racy_pairs`), which is
//! how the canneal RNG race and the adversarial scenarios are modelled.
//!
//! # Examples
//!
//! ```
//! use aikido_workloads::{Workload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parsec("blackscholes").unwrap().scaled(0.05);
//! let workload = Workload::generate(&spec);
//! let trace: Vec<_> = workload.thread_trace(aikido_types::ThreadId::new(1)).collect();
//! assert!(!trace.is_empty());
//! // The same seed regenerates the same trace.
//! let again: Vec<_> = workload.thread_trace(aikido_types::ThreadId::new(1)).collect();
//! assert_eq!(trace.len(), again.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod layout;
mod scenario;
mod scenarios;
mod spec;
mod trace;
mod workload;

pub use layout::MemoryLayout;
pub use scenario::{AccessPattern, AddrWindow, BlockUse, HeldLocks, ScenarioModel, UsePhase};
pub use scenarios::{
    aliasing_stress_workload, first_access_race_workload, producer_consumer_workload,
    racy_workload, read_only_sharing_workload, spill_pressure_workload,
};
pub use spec::{WorkloadSpec, PARSEC_BENCHMARKS};
pub use trace::{
    AccessWord, BlockExec, CriticalSection, CursorError, Step, ThreadTrace, TraceCounters,
    TraceCursor, TracePhase,
};
pub use workload::{BlockShape, MemSlot, Workload};

// Re-exported so downstream crates can build programs without importing
// aikido-dbi directly.
pub use aikido_dbi::Program;

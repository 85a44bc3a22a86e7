//! AikidoSD — the Aikido sharing detector (§3.3).
//!
//! The sharing detector's goal is that instructions touching only
//! thread-private data run with close to zero overhead. It achieves this with
//! per-thread page protection:
//!
//! 1. When the target application starts, every mapped page is protected for
//!    every thread (and mirrored through the dual shadow mapping).
//! 2. The first access by a thread faults once; the page becomes **private**
//!    to that thread and is unprotected *for that thread only*. All later
//!    accesses by the same thread are full speed.
//! 3. When a *different* thread accesses a private page, the page becomes
//!    **shared** and is protected for *all* threads — permanently, because
//!    Aikido must observe every instruction that touches shared data.
//! 4. From then on every new static instruction that touches the shared page
//!    faults once, is handed to the DBI engine for instrumentation (flush +
//!    re-JIT), and its memory accesses are redirected through mirror pages so
//!    they no longer fault.
//!
//! The detector never downgrades a shared page, and the only false-negative
//! window is the first two accesses that triggered the private→shared
//! transition (§6) — both properties are covered by tests here and in the
//! integration suite.
//!
//! # Examples
//!
//! ```
//! use aikido_sharing::{AikidoSd, PageState};
//! use aikido_types::{AccessKind, Addr, BlockId, InstrId, Prot, ThreadId};
//! use aikido_vm::{AikidoVm, TouchOutcome, VmConfig};
//! use aikido_dbi::{DbiEngine, Program, StaticInstr};
//! use aikido_types::{AddrMode};
//!
//! # fn main() -> aikido_types::Result<()> {
//! let mut vm = AikidoVm::new(VmConfig::default());
//! let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
//! vm.register_thread(t0)?;
//! vm.register_thread(t1)?;
//! let base = Addr::new(0x10_0000);
//! vm.mmap(base, 4, Prot::RW_USER)?;
//!
//! let mut program = Program::new();
//! let block = program.add_block(vec![StaticInstr::Mem {
//!     kind: AccessKind::Write,
//!     mode: AddrMode::Indirect,
//! }]);
//! let mut engine = DbiEngine::new(program);
//! let instr = InstrId::new(block, 0);
//!
//! let mut sd = AikidoSd::new();
//! sd.attach_region(&mut vm, base, 4)?;
//!
//! // Thread 0's first access faults once and the page becomes private.
//! let touch = vm.touch(t0, base, AccessKind::Write)?;
//! if let TouchOutcome::AikidoFault(fault) = touch.outcome {
//!     sd.handle_fault(&mut vm, &mut engine, &fault, instr)?;
//! }
//! assert_eq!(sd.page_state(base.page()), PageState::Private(t0));
//!
//! // Thread 1 touching the same page makes it shared and instruments the
//! // faulting instruction.
//! let touch = vm.touch(t1, base, AccessKind::Write)?;
//! if let TouchOutcome::AikidoFault(fault) = touch.outcome {
//!     sd.handle_fault(&mut vm, &mut engine, &fault, instr)?;
//! }
//! assert_eq!(sd.page_state(base.page()), PageState::Shared);
//! assert!(engine.is_instrumented(instr));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod detector;
mod page_state;
mod stats;

pub use detector::{AikidoSd, FaultDisposition};
pub use page_state::{PageState, PageStateTable, Transition};
pub use stats::SharingStats;

//! A DynamoRIO-style dynamic binary instrumentation engine (§2.1) over a
//! synthetic ISA.
//!
//! The real Aikido runs unmodified x86 binaries through DynamoRIO's code
//! cache: basic blocks are copied into the cache one at a time, tools get a
//! callback to insert instrumentation as each block is built, blocks are
//! linked to avoid returning to the dispatcher, hot sequences are stitched
//! into traces, and — crucially for Aikido — cached blocks can be *flushed*
//! and re-JITed when the sharing detector decides an instruction now needs
//! instrumentation and mirror-page redirection.
//!
//! This crate reproduces that machinery over a synthetic instruction set:
//!
//! * [`StaticInstr`]/[`StaticBlock`]/[`Program`] describe the *static* code
//!   of the target application (the workload generator produces these).
//! * [`CodeCache`] models the thread-shared basic-block cache: building,
//!   executing, linking, trace promotion and flushing, with statistics for
//!   the cost model.
//! * [`DbiEngine`] ties a program, its code cache and the set of
//!   instrumentation decisions together, exposing exactly the operations the
//!   Aikido sharing detector needs: execute a block, request that an
//!   instruction be instrumented from now on (which flushes its block), and
//!   inspect what is currently instrumented.
//! * [`MasterHandler`] models the modified master signal handler (§3.4) that
//!   distinguishes faults raised by the application from faults raised by
//!   DynamoRIO or the tool itself, and tracks the pages that were unprotected
//!   on behalf of the runtime so they can be re-protected when control
//!   returns to the application.
//!
//! # Examples
//!
//! ```
//! use aikido_dbi::{DbiEngine, Program, StaticBlock, StaticInstr};
//! use aikido_types::{AccessKind, AddrMode, BlockId};
//!
//! let mut program = Program::new();
//! let block = program.add_block(vec![
//!     StaticInstr::Compute,
//!     StaticInstr::Mem { kind: AccessKind::Write, mode: AddrMode::Indirect },
//! ]);
//! let mut engine = DbiEngine::new(program);
//!
//! // First execution builds the block; nothing is instrumented yet.
//! let exec = engine.execute_block(block);
//! assert!(exec.built);
//! assert_eq!(exec.instrumented_mem_instrs, 0);
//!
//! // The sharing detector later asks for the store to be instrumented.
//! let instr = engine.program().block(block).unwrap().instr_id(1);
//! engine.request_instrumentation(instr);
//! let exec = engine.execute_block(block);
//! assert!(exec.built, "block was flushed and re-JITed");
//! assert_eq!(exec.instrumented_mem_instrs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cache;
mod engine;
mod isa;
mod signal;

pub use cache::{CachedBlock, CodeCache, CodeCacheStats};
pub use engine::{BlockExecution, DbiEngine};
pub use isa::{Program, StaticBlock, StaticInstr};
pub use signal::{FaultOrigin, MasterHandler};

//! Fundamental types shared by every crate in the Aikido reproduction.
//!
//! The Aikido system (ASPLOS 2012) is a stack of cooperating components — a
//! hypervisor providing per-thread page protection (`aikido-vm`), a dynamic
//! binary instrumentation engine (`aikido-dbi`), a shadow memory framework
//! (`aikido-shadow`), a sharing detector (`aikido-sharing`) and analyses
//! such as FastTrack (`aikido-fasttrack`). This crate holds the vocabulary
//! those components share: addresses and pages, thread and lock identities,
//! protection bits, memory/synchronisation operations, and the
//! [`SharedDataAnalysis`] trait that analysis tools implement.
//!
//! # Examples
//!
//! ```
//! use aikido_types::{Addr, Vpn, PAGE_SIZE};
//!
//! let a = Addr::new(0x7fff_0000_1234);
//! assert_eq!(a.offset_in_page(), 0x234);
//! assert_eq!(a.page().base(), Addr::new(0x7fff_0000_1000));
//! assert_eq!(Vpn::containing(a).size(), PAGE_SIZE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod analysis;
pub mod chunkmap;
mod directory;
mod error;
mod ids;
mod ops;
mod prot;
pub mod shadow_word;

pub use analysis::{AccessContext, AnalysisReport, NullAnalysis, ReportKind, SharedDataAnalysis};
pub use chunkmap::ChunkMap;
pub use error::{AikidoError, Result};
pub use ids::{Addr, BlockId, InstrId, LockId, ThreadId, Vpn, PAGE_SHIFT, PAGE_SIZE};
pub use ops::{AccessKind, AddrMode, MemRef, Operation, SyncOp};
pub use prot::Prot;
pub use shadow_word::{ShadowWord, SlabDirectory, SlabHandle, SLAB_BITS, SLAB_WORDS};

//! FastTrack — an efficient, precise happens-before data-race detector
//! (Flanagan & Freund, PLDI 2009), as used by the Aikido paper (§4).
//!
//! The detector computes a happens-before relation over the memory and
//! synchronisation operations of an execution using vector clocks, with
//! FastTrack's *epoch* optimisation: as long as accesses to a variable are
//! totally ordered, only the last access (a single `clock@thread` epoch) is
//! kept instead of a full vector clock, making the common case O(1).
//!
//! Differences from the Java original, exactly as in the Aikido paper (§4.2):
//!
//! * the detector operates on raw addresses rather than language-level
//!   variables, so the address space is divided into fixed-size 8-byte blocks
//!   that play the role of variables (this can introduce false positives for
//!   tightly packed data, and is configurable);
//! * metadata lives in shadow memory. The hot-path representation is one
//!   packed 64-bit word per block ([`aikido_types::ShadowWord`]: write epoch
//!   and exclusive-read epoch bit-packed side by side) in page-granular
//!   dense slabs ([`aikido_types::SlabDirectory`], the word form of the
//!   page-indexed directory every VM table also uses) whose directory finds
//!   a page's slab in about one probe; states that outgrow the
//!   word — promoted read-shared vector clocks, oversized clocks or thread
//!   ids — escape through a tag bit into a spilled side table. The enum-based
//!   [`aikido_shadow::ShadowStore`] representation is retained as the
//!   equivalence oracle behind [`FastTrack::with_reference_store`];
//! * thread creation is serialised by the harness, and thread/lock clock
//!   state is kept in dense slot-indexed arrays rather than hash tables.
//!
//! The detector implements [`aikido_types::SharedDataAnalysis`], so the same
//! instance can be driven by the conventional full-instrumentation pipeline
//! or by Aikido's sharing detector.
//!
//! # Examples
//!
//! Two unsynchronised writes to the same location from different threads are
//! a race; the same writes separated by a lock are not:
//!
//! ```
//! use aikido_fasttrack::FastTrack;
//! use aikido_types::{AccessKind, Addr, LockId, ThreadId};
//!
//! let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
//! let lock = LockId::new(1);
//! let addr = Addr::new(0x1000);
//!
//! // Racy: no synchronisation between the writes.
//! let mut ft = FastTrack::new();
//! ft.write(t0, addr);
//! ft.write(t1, addr);
//! assert_eq!(ft.races().len(), 1);
//!
//! // Race-free: both writes hold the same lock.
//! let mut ft = FastTrack::new();
//! ft.acquire(t0, lock);
//! ft.write(t0, addr);
//! ft.release(t0, lock);
//! ft.acquire(t1, lock);
//! ft.write(t1, addr);
//! ft.release(t1, lock);
//! assert!(ft.races().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod clock;
mod config;
mod dense;
mod detector;
mod packed;
mod state;
mod stats;

pub use clock::{Epoch, VectorClock};
pub use config::FastTrackConfig;
pub use detector::FastTrack;
pub use state::{ReadState, VarState};
pub use stats::{FastTrackStats, SpillStats};

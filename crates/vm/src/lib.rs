//! AikidoVM — a software model of the hypervisor the Aikido paper builds on
//! Linux KVM (§3.2).
//!
//! The real AikidoVM extends KVM so that each *thread* of an Aikido-enabled
//! guest process gets its own shadow page table, and therefore its own page
//! protections, even though the guest operating system keeps a single page
//! table per process. This crate reproduces that design in a deterministic,
//! fully software-simulated form:
//!
//! * [`GuestKernel`] models the guest operating system: virtual memory areas,
//!   demand paging, a single guest page table per process, and kernel-mode
//!   accesses to user pages (system-call argument copies).
//! * [`AikidoVm`] models the hypervisor: one [`ShadowPageTable`] *per thread*,
//!   a [`ThreadProtTable`] per thread holding the protections requested
//!   through the hypercall interface, reverse maps from guest frames to the
//!   shadow entries that must be kept in sync, interception of guest
//!   page-table writes and context switches, classification of page faults
//!   into *Aikido* faults and *native* faults, delivery of Aikido faults to
//!   userspace through a fake-fault mailbox, and emulation plus temporary
//!   unprotection when the guest kernel itself trips over an Aikido
//!   protection (§3.2.6).
//! * [`AikidoLib`]/[`Hypercall`] model the userspace library that issues
//!   per-thread protection requests, bypassing the guest OS.
//!
//! The enforcement mechanism (hardware MMU + VMX exits) is replaced by an
//! explicit page walk in [`AikidoVm::touch`], and every event that would cost
//! a VM exit or fault on real hardware is counted in [`VmStats`] and in the
//! per-access [`Charges`] so the simulator can convert them into cycles.
//!
//! # Hot-path layout
//!
//! `touch` runs once per simulated memory access, so everything it consults
//! is flat and index-addressed: threads get dense slots into a vector of
//! per-thread `ThreadShard`s at registration (each shard — shadow page
//! table, protection table, TLB — is self-contained, so the per-thread state
//! can be updated shard-wise without aliasing the rest of the VM), the
//! shadow page table, protection table and guest page table are
//! [`aikido_types::ChunkMap`]s (the typed form of the page-indexed directory
//! the sharing detector and FastTrack also sit on), and each thread
//! carries a software TLB over its recent successful translations
//! ([`AikidoVm::TLB_ENTRIES`] entries, direct-mapped on the page number). The
//! TLB is a pure accelerator — it only serves accesses the shadow table would
//! allow, so hits and misses produce byte-identical outcomes, charges and
//! statistics — and it is invalidated per page whenever the thread's shadow
//! state changes. [`AikidoVm::tlb`] exposes a thread's TLB read-only as a
//! [`TlbLane`], so a caller can tell that an access is free without calling
//! `touch`.
//!
//! # Examples
//!
//! ```
//! use aikido_types::{AccessKind, Addr, Prot, ThreadId};
//! use aikido_vm::{AikidoVm, Hypercall, TouchOutcome, VmConfig};
//!
//! # fn main() -> aikido_types::Result<()> {
//! let mut vm = AikidoVm::new(VmConfig::default());
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//! vm.register_thread(t0)?;
//! vm.register_thread(t1)?;
//! let base = Addr::new(0x10_0000);
//! vm.mmap(base, 4, Prot::RW_USER)?;
//!
//! // Thread 0 may access the page normally...
//! assert!(matches!(vm.touch(t0, base, AccessKind::Write)?.outcome, TouchOutcome::Ok));
//!
//! // ...until the Aikido library protects it for thread 0 only.
//! vm.hypercall(Hypercall::ProtectRange {
//!     thread: t0,
//!     base,
//!     pages: 1,
//!     prot: Prot::NONE,
//! })?;
//! assert!(matches!(
//!     vm.touch(t0, base, AccessKind::Read)?.outcome,
//!     TouchOutcome::AikidoFault(_)
//! ));
//! // Thread 1 is unaffected: per-thread protection.
//! assert!(matches!(vm.touch(t1, base, AccessKind::Read)?.outcome, TouchOutcome::Ok));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod fault;
mod frames;
mod hypercall;
mod kernel;
mod prot_table;
mod shadow_pt;
mod shard;
mod snap;
mod stats;
mod vm;

pub use fault::{AikidoFault, FaultCause, PageFault, Segv};
pub use frames::{FrameAllocator, FrameId};
pub use hypercall::{AikidoLib, FaultMailbox, Hypercall};
pub use kernel::{GuestKernel, GuestPte, KernelEvent, Vma, VmaBacking};
pub use prot_table::ThreadProtTable;
pub use shadow_pt::{ShadowPageTable, ShadowPte};
pub use shard::TlbLane;
pub use stats::VmStats;
pub use vm::{AikidoVm, Charges, Touch, TouchOutcome, VmConfig};

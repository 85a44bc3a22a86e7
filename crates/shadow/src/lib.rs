//! Umbra-style shadow memory (§2.2), extended the way Aikido extends it
//! (§3.3.1): every application address translates to **two** shadow
//! addresses — one holding analysis metadata and one *mirror* address that
//! aliases the same physical memory as the application page but is never
//! protected by the sharing detector.
//!
//! Umbra's key observation is that application memory is sparsely populated:
//! a handful of densely populated regions (stack, heap, data, code). Each
//! registered [`Region`] gets a per-region displacement into a reserved
//! shadow area, so translation is a single add once the region is known.
//! Finding the region is the expensive part, so Umbra layers caches in front
//! of the full lookup: an inline memoization cache patched into the
//! instrumented code, then small thread-local caches, then the full region
//! table walk. [`TranslationCache`] models those layers and reports which one
//! hit so the simulator can charge the right cost.
//!
//! Metadata storage sits on the one page-indexed directory of
//! `aikido-types`, in either of its leaf forms. [`ShadowStore`] is the
//! generic typed store: an [`aikido_types::ChunkMap`] of `Option<T>` slots,
//! keyed by application address at a configurable granularity. The *packed*
//! metadata plane is an [`aikido_types::SlabDirectory`] of raw 64-bit
//! [`aikido_types::ShadowWord`]s, which FastTrack keys by block index and
//! resolves in one probe per access; [`TranslationCache::access`] prices
//! that access. One lookup prices the model, one resolves the real
//! metadata. The sharing detector's page-state table keys the same
//! directory by page number, so both planes agree on one page-indexed
//! layout.
//!
//! # Examples
//!
//! ```
//! use aikido_shadow::{DualShadow, RegionKind};
//! use aikido_types::Addr;
//!
//! # fn main() -> aikido_types::Result<()> {
//! let mut shadow = DualShadow::new();
//! let region = shadow.register_region(Addr::new(0x10_0000), 16, RegionKind::Heap)?;
//! let app = Addr::new(0x10_0040);
//! let meta = shadow.metadata_addr(app)?;
//! let mirror = shadow.mirror_addr(app)?;
//! assert_ne!(meta, app);
//! assert_ne!(mirror, app);
//! // Translation preserves the offset within the region.
//! assert_eq!(mirror.raw() - shadow.mirror_base(region)?.raw(), 0x40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cache;
mod dual;
mod region;
mod stats;
mod store;

pub use cache::{CacheLevel, TranslationCache};
pub use dual::DualShadow;
pub use region::{Region, RegionId, RegionKind, RegionTable};
pub use stats::ShadowStats;
pub use store::ShadowStore;

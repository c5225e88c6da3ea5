//! # impulse-core — the Impulse memory controller
//!
//! The paper's primary contribution: a memory controller that (1) remaps
//! otherwise-unused *shadow* physical addresses to real DRAM locations
//! under application/OS control, and (2) prefetches at the controller,
//! both for non-remapped streams (a 2 KB one-block-lookahead SRAM) and for
//! remapped data (a 256-byte buffer per shadow descriptor).
//!
//! Module map (mirroring Figure 3 of the paper):
//!
//! * [`remap`] — the AddrCalc: shadow offset → pseudo-virtual segments
//!   (direct, strided, scatter/gather).
//! * [`pgtbl`] — the PgTbl: pseudo-virtual page → DRAM frame, with an
//!   on-chip TLB whose misses cost DRAM walks.
//! * [`desc`] — shadow descriptors (SDescs) with per-descriptor prefetch
//!   buffers.
//! * [`prefetch`] — the 2 KB prefetch SRAM for non-remapped data.
//! * [`controller`] — the front end tying it all together over the DRAM
//!   scheduler from `impulse-dram`.
//! * [`flight`] — a bounded in-memory flight recorder of MC transactions.
//!
//! # Examples
//!
//! Remap a strided "diagonal" into a dense shadow region and read it:
//!
//! ```
//! use impulse_core::{McConfig, MemController, RemapFn};
//! use impulse_dram::{Dram, DramConfig};
//! use impulse_types::{MAddr, PAddr, PRange, PvAddr};
//!
//! let dram = Dram::new(DramConfig::default());
//! let mut mc = MemController::new(dram, McConfig::default());
//!
//! // A 4 KB shadow region packing 8-byte elements strided 1 KB apart.
//! let region = PRange::new(mc.shadow_base(), 4096);
//! mc.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, 1024))?;
//! for page in 0..256 {
//!     mc.map_page(page, MAddr::new(page << 12)); // identity placement
//! }
//! let done = mc.read_line(mc.shadow_base(), 0);
//! assert!(done > 0);
//! # Ok::<(), impulse_core::McError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Syscall paths must return typed errors, not panic: unwrap/expect are
// confined to #[cfg(test)] code (enforced by CI clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod controller;
pub mod desc;
pub mod flight;
pub mod pgtbl;
pub mod prefetch;
pub mod remap;
pub mod tier;

pub use controller::{DescId, McBreakdown, McConfig, McError, McStats, MemController};
pub use desc::{DescError, DescStats, ShadowDescriptor};
pub use flight::{FlightEvent, FlightGeom, FlightRecorder, HitClass};
pub use pgtbl::{PgTbl, PgTblConfig, PgTblStats};
pub use prefetch::{PrefetchCache, PrefetchStats};
pub use remap::{RemapFn, Segment};
pub use tier::{TierConfig, TierEngine, TierStats};

//! Shared primitives for the Impulse memory-system simulator.
//!
//! The Impulse architecture (Carter et al., HPCA 1999) distinguishes four
//! address spaces, which this crate models as distinct newtypes so they can
//! never be confused:
//!
//! * [`VAddr`] — a process *virtual* address, translated by the CPU MMU.
//! * [`PAddr`] — a *bus* ("physical") address as seen by the caches and the
//!   system bus. On an Impulse system a `PAddr` is either backed by DRAM or
//!   is a *shadow* address: a legitimate bus address with no DRAM behind it,
//!   which the Impulse memory controller remaps.
//! * [`PvAddr`] — a *pseudo-virtual* address, used inside the memory
//!   controller so that remapped data structures may span multiple
//!   (non-contiguous) physical pages.
//! * [`MAddr`] — a *media* (real DRAM) address, always backed by a DRAM
//!   location.
//!
//! The crate also provides line/page geometry helpers ([`geom`]), address
//! ranges ([`range`]), and the access vocabulary shared by the cache, DRAM,
//! controller, and CPU models ([`access`]).
//!
//! # Examples
//!
//! ```
//! use impulse_types::{PAddr, geom::PAGE_SIZE};
//!
//! let a = PAddr::new(0x1234);
//! assert_eq!(a.page_base(), PAddr::new(0x1000));
//! assert_eq!(a.page_offset(), 0x234);
//! assert_eq!(PAGE_SIZE, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod geom;
pub mod hash;
pub mod ident;
pub mod range;
pub mod tier;

pub use access::{Access, AccessKind};
pub use addr::{MAddr, PAddr, PvAddr, VAddr};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use range::{PRange, VRange};
pub use tier::TierPolicy;

/// Simulation time, measured in CPU cycles.
///
/// The simulator is cycle-accounting rather than cycle-by-cycle: components
/// exchange `Cycle` timestamps ("ready at", "done at") and durations.
pub type Cycle = u64;

//! Operating-system model for the Impulse simulator.
//!
//! Impulse needs OS cooperation: shadow addresses and virtual addresses
//! are system resources, and applications configure remappings through
//! system calls that the OS validates and downloads to the controller
//! (paper, Section 2.1). This crate provides:
//!
//! * [`phys`] — the physical frame allocator (sequential or fragmented
//!   placement, plus colored allocation for copy-based baselines),
//! * [`vm`] — per-process page tables and virtual region bookkeeping,
//! * [`kernel`] — the remapping system calls: scatter/gather, strided,
//!   no-copy page recoloring, and superpage construction, together with
//!   the system-call cost model charged by the system simulator.
//!
//! # Examples
//!
//! ```
//! use impulse_core::{McConfig, MemController};
//! use impulse_dram::{Dram, DramConfig};
//! use impulse_os::{Kernel, KernelConfig};
//!
//! let kcfg = KernelConfig::default();
//! let dram = Dram::new(DramConfig { capacity: kcfg.dram_capacity, ..DramConfig::default() });
//! let mut mc = MemController::new(dram, McConfig::default());
//! let mut kernel = Kernel::new(kcfg);
//!
//! // Allocate a vector and recolor it into the first half of the L2.
//! let x = kernel.alloc_region(64 * 1024, 8)?;
//! let colors: Vec<u64> = (0..16).collect();
//! let grant = kernel.remap_recolor(&mut mc, x, &colors)?;
//! assert_eq!(grant.alias.len(), x.len());
//! # Ok::<(), impulse_os::OsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Syscall paths must return typed errors, not panic: unwrap/expect are
// confined to #[cfg(test)] code (enforced by CI clippy with -D warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod kernel;
pub mod phys;
pub mod vm;

pub use kernel::{
    GrantHandle, ImpulseError, Kernel, KernelConfig, KernelStats, OsError, Pid, RemapGrant,
    RevokeOutcome, SyscallCosts,
};
pub use phys::{AllocPolicy, PhysError, PhysMem};
pub use vm::{AddressSpace, VmError};

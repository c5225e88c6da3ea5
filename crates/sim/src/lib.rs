//! Full-system simulator for the Impulse memory architecture.
//!
//! Assembles the substrate crates into the machine the paper evaluates on
//! (the Paint simulator environment): a single-issue CPU, a virtually-
//! indexed L1, a physically-indexed L2, a fully-associative NRU TLB, a
//! Runway-like system bus, and the Impulse memory controller over a
//! multi-bank page-mode DRAM.
//!
//! * [`config`] — [`SystemConfig`], with the [`SystemConfig::paint`]
//!   preset matching the paper's Section 4 parameters.
//! * [`bus`] — the split-transaction bus occupancy model.
//! * [`system`] — the memory hierarchy datapath and demand statistics.
//! * [`machine`] — the CPU + OS harness that workloads run against.
//! * [`report`] — paper-style measurement tables.
//! * [`trace`] — bounded access-trace capture for debugging remappings.
//!
//! # Examples
//!
//! ```
//! use impulse_sim::{Machine, SystemConfig};
//!
//! let mut m = Machine::new(&SystemConfig::paint_small());
//! let data = m.alloc_region(64 * 1024, 8)?;
//! for i in 0..1024 {
//!     m.load(data.start().add(i * 8));
//!     m.compute(2);
//! }
//! let report = m.report("stream");
//! assert_eq!(report.mem.loads, 1024);
//! # Ok::<(), impulse_os::OsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod config;
pub mod machine;
pub mod report;
pub mod system;
pub mod trace;

pub use bus::{Bus, BusConfig, BusStats};
pub use config::SystemConfig;
pub use machine::Machine;
pub use report::Report;
pub use system::{MemStats, MemorySystem};
pub use trace::{TraceEvent, Tracer};

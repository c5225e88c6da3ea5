//! Observability toolkit for the Impulse memory-system simulator.
//!
//! The simulator's components (caches, TLB, bus, memory controller, DRAM)
//! already keep raw event counters; this crate adds the machinery to turn
//! them into an explainable picture of where demand-access time goes:
//!
//! * [`Histogram`] — fixed-size log₂-bucketed latency distributions with
//!   count/sum/min/max and p50/p90/p99 estimates, recorded per memory
//!   level (L1 hit, L2 hit, TLB walk, controller prefetch-SRAM hit,
//!   shadow gather, DRAM row hit/miss) and per access kind.
//! * [`Attribution`] — per-[`Stage`] cycle totals that decompose every
//!   demand access into MMU / cache / bus / controller / DRAM time, with
//!   the invariant that the stage totals sum exactly to the demand-access
//!   cycle count.
//! * [`MetricsRegistry`] and the [`Observe`] trait — a pull-model registry
//!   every component can dump itself into, with epoch snapshot/delta
//!   support.
//! * [`Json`] — a dependency-free JSON value with writer and parser,
//!   backing the report and Chrome-trace exporters.
//!
//! The crate deliberately depends on nothing, not even other workspace
//! crates, so every layer of the simulator can use it.

#![warn(missing_docs)]

pub mod attribution;
pub mod histogram;
pub mod json;
pub mod registry;

pub use attribution::{Attribution, Stage};
pub use histogram::Histogram;
pub use json::Json;
pub use registry::{MetricValue, MetricsRegistry, Observe};

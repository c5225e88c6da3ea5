//! # Impulse — a smarter memory controller, reproduced in Rust
//!
//! Facade crate re-exporting the full Impulse reproduction workspace. See
//! the README for the architecture overview and `DESIGN.md` for the
//! paper-to-module map.

#![forbid(unsafe_code)]

pub use impulse_cache as cache;
pub use impulse_core as core;
pub use impulse_dram as dram;
pub use impulse_fault as fault;
pub use impulse_obs as obs;
pub use impulse_os as os;
pub use impulse_sim as sim;
pub use impulse_types as types;
pub use impulse_workloads as workloads;

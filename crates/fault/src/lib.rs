//! Deterministic fault injection for the Impulse simulator.
//!
//! Impulse moves translation state (the controller page table and its
//! TLB), an indirection-vector fetch path, and prefetch buffers into the
//! memory controller, so a flipped DRAM bit or a corrupted MC-TLB entry
//! can silently poison every gather. This crate models those failure
//! modes *deterministically*: every fault is drawn from a seedable
//! in-tree xorshift stream, so a run with a fixed seed produces the same
//! fault schedule — and therefore the same simulated cycle counts — on
//! every host and at any worker count.
//!
//! The pieces:
//!
//! - [`Trigger`] / [`FaultPlan`]: *when* faults fire — access-count
//!   triggered (`EveryN`), pseudo-randomly per access (`Permille`), or
//!   cycle-triggered (`EveryCycles`).
//! - [`EccConfig`]: a SECDED (single-error-correct, double-error-detect)
//!   ECC model at the controller: singles are corrected for a small
//!   latency penalty, doubles are detected and reported, and with ECC
//!   disabled corruption passes silently (but is still tracked via a
//!   deterministic data signature, [`word_sig`]).
//! - [`FlipInjector`]: per-DRAM-access single/double bit flips.
//! - [`TimeoutInjector`]: bus request timeouts with bounded
//!   exponential-backoff retry.
//! - [`PgTblInjector`]: MC-TLB/page-table entry corruption, recovered by
//!   detect-and-reload from the backing in-memory page table.
//! - [`TierInjector`]: hybrid-tier faults — tag-array corruption
//!   (detect-and-invalidate) and whole DRAM-channel failure, degraded
//!   to SCM bypass or typed `TierDegraded` errors. SCM's own raw
//!   bit-error rate reuses [`FlipInjector`] on an independent stream.
//! - [`FaultConfig`]: the user-facing bundle a full-system config
//!   carries; each injection site derives its own independent stream
//!   from the master seed so sites never perturb each other's draws.
//!
//! The crate depends only on `impulse-types` and injects nothing by
//! itself — components own an injector and consult it at their access
//! points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ecc;
mod inject;
mod plan;
mod rng;

pub use config::FaultConfig;
pub use ecc::{word_sig, BitFlip, EccConfig, EccMode, EccOutcome, EccStats};
pub use inject::{
    BusFaultStats, FlipInjector, FlipStats, PgTblFaultStats, PgTblInjector, TierFaultStats,
    TierInjector, TimeoutInjector,
};
pub use plan::{FaultPlan, Trigger};
pub use rng::XorShift64;

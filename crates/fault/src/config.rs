//! The user-facing fault configuration a full-system config carries.

use impulse_types::Cycle;

use crate::ecc::EccConfig;
use crate::inject::{FlipInjector, PgTblInjector, TierInjector, TimeoutInjector};
use crate::plan::{FaultPlan, Trigger};

// Per-site seed salts: each injection site derives an independent
// xorshift stream from the master seed, so enabling one fault class
// never perturbs another's schedule.
const SALT_DRAM: u64 = 0xD12A_0001;
const SALT_BUS: u64 = 0xB005_0002;
const SALT_PGTBL: u64 = 0x967B_0003;
const SALT_SCM: u64 = 0x5C4D_0005;
const SALT_TAG: u64 = 0x7A60_0006;
const SALT_TIER: u64 = 0x71E4_0007;

/// Everything needed to generate a deterministic fault schedule for one
/// simulated machine. The default is fault-free ([`FaultConfig::none`]),
/// which costs nothing on the hot paths (components skip consulting
/// absent injectors entirely).
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Master seed; each injection site derives its own salted stream.
    pub seed: u64,
    /// When DRAM bit flips fire (per DRAM data access).
    pub dram_flip: Trigger,
    /// Fraction (‰) of fired flips that are double-bit, i.e.
    /// uncorrectable under SECDED. The rest are single-bit.
    pub dram_double_permille: u32,
    /// The controller's ECC model.
    pub ecc: EccConfig,
    /// When bus request timeouts fire (per demand transfer).
    pub bus_timeout: Trigger,
    /// Retry bound per timed-out request (≥ 1; recovery is guaranteed
    /// on the attempt after the last retry).
    pub bus_max_retries: u32,
    /// Base backoff in cycles; attempt `i` waits `backoff << i`.
    pub bus_backoff: Cycle,
    /// When MC-TLB/page-table entry corruption fires (per translation).
    pub pgtbl_corrupt: Trigger,
    /// When SCM bit flips fire (per SCM media access). SCM's raw
    /// bit-error rate is typically set well above DRAM's.
    pub scm_flip: Trigger,
    /// Fraction (‰) of fired SCM flips that are double-bit.
    pub scm_double_permille: u32,
    /// When tier tag-array corruption fires (per cache-mode tag lookup).
    pub tag_corrupt: Trigger,
    /// When the tier-fail trigger kills a DRAM channel (per tier
    /// access). Each firing retires one more channel.
    pub tier_fail: Trigger,
}

impl FaultConfig {
    /// A fault-free configuration (the default).
    pub fn none() -> Self {
        Self {
            seed: 0,
            dram_flip: Trigger::Never,
            dram_double_permille: 0,
            ecc: EccConfig::default(),
            bus_timeout: Trigger::Never,
            bus_max_retries: 3,
            bus_backoff: 16,
            pgtbl_corrupt: Trigger::Never,
            scm_flip: Trigger::Never,
            scm_double_permille: 0,
            tag_corrupt: Trigger::Never,
            tier_fail: Trigger::Never,
        }
    }

    /// True when no fault class can ever fire.
    pub fn is_none(&self) -> bool {
        self.dram_flip.is_never()
            && self.bus_timeout.is_never()
            && self.pgtbl_corrupt.is_never()
            && self.scm_flip.is_never()
            && self.tag_corrupt.is_never()
            && self.tier_fail.is_never()
    }

    /// The DRAM bit-flip injector, or `None` when the class is off.
    pub fn flip_injector(&self) -> Option<FlipInjector> {
        (!self.dram_flip.is_never()).then(|| {
            FlipInjector::new(
                FaultPlan::new(self.dram_flip, self.seed ^ SALT_DRAM),
                self.dram_double_permille,
            )
        })
    }

    /// The bus-timeout injector, or `None` when the class is off.
    pub fn timeout_injector(&self) -> Option<TimeoutInjector> {
        (!self.bus_timeout.is_never()).then(|| {
            TimeoutInjector::new(
                FaultPlan::new(self.bus_timeout, self.seed ^ SALT_BUS),
                self.bus_max_retries,
                self.bus_backoff,
            )
        })
    }

    /// The page-table corruption injector, or `None` when the class is
    /// off.
    pub fn pgtbl_injector(&self) -> Option<PgTblInjector> {
        (!self.pgtbl_corrupt.is_never())
            .then(|| PgTblInjector::new(FaultPlan::new(self.pgtbl_corrupt, self.seed ^ SALT_PGTBL)))
    }

    /// The SCM bit-flip injector, or `None` when the class is off.
    /// Independent of the DRAM flip stream even at the same trigger.
    pub fn scm_flip_injector(&self) -> Option<FlipInjector> {
        (!self.scm_flip.is_never()).then(|| {
            FlipInjector::new(
                FaultPlan::new(self.scm_flip, self.seed ^ SALT_SCM),
                self.scm_double_permille,
            )
        })
    }

    /// The tier injector (tag corruption + channel failure), or `None`
    /// when both classes are off.
    pub fn tier_injector(&self) -> Option<TierInjector> {
        (!self.tag_corrupt.is_never() || !self.tier_fail.is_never()).then(|| {
            TierInjector::new(
                FaultPlan::new(self.tag_corrupt, self.seed ^ SALT_TAG),
                FaultPlan::new(self.tier_fail, self.seed ^ SALT_TIER),
            )
        })
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fault_free() {
        let c = FaultConfig::default();
        assert!(c.is_none());
        assert!(c.flip_injector().is_none());
        assert!(c.timeout_injector().is_none());
        assert!(c.pgtbl_injector().is_none());
        assert!(c.scm_flip_injector().is_none());
        assert!(c.tier_injector().is_none());
    }

    #[test]
    fn tier_classes_build_their_injectors() {
        let c = FaultConfig {
            scm_flip: Trigger::Permille(50),
            tier_fail: Trigger::EveryN {
                every: 1000,
                phase: 0,
            },
            ..FaultConfig::none()
        };
        assert!(!c.is_none());
        assert!(c.scm_flip_injector().is_some());
        assert!(c.tier_injector().is_some());
        assert!(c.flip_injector().is_none());

        let tag_only = FaultConfig {
            tag_corrupt: Trigger::Permille(10),
            ..FaultConfig::none()
        };
        assert!(tag_only.tier_injector().is_some());
    }

    #[test]
    fn scm_and_dram_flip_streams_differ() {
        let c = FaultConfig {
            seed: 7,
            dram_flip: Trigger::Permille(500),
            scm_flip: Trigger::Permille(500),
            ..FaultConfig::none()
        };
        let mut d = c.flip_injector().unwrap();
        let mut s = c.scm_flip_injector().unwrap();
        for t in 0..256 {
            d.on_access(t * 64, t);
            s.on_access(t * 64, t);
        }
        let da: Vec<u64> = d.take().iter().map(|&(a, _)| a).collect();
        let sa: Vec<u64> = s.take().iter().map(|&(a, _)| a).collect();
        assert_ne!(da, sa, "same trigger, independent streams");
    }

    #[test]
    fn enabling_one_class_builds_only_that_injector() {
        let c = FaultConfig {
            bus_timeout: Trigger::EveryN { every: 8, phase: 0 },
            ..FaultConfig::none()
        };
        assert!(!c.is_none());
        assert!(c.flip_injector().is_none());
        assert!(c.timeout_injector().is_some());
        assert!(c.pgtbl_injector().is_none());
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Same master seed, but the DRAM and bus streams differ.
        let c = FaultConfig {
            seed: 99,
            dram_flip: Trigger::Permille(500),
            bus_timeout: Trigger::Permille(500),
            ..FaultConfig::none()
        };
        let mut d = FaultPlan::new(c.dram_flip, c.seed ^ SALT_DRAM);
        let mut b = FaultPlan::new(c.bus_timeout, c.seed ^ SALT_BUS);
        let ds: Vec<bool> = (0..64).map(|t| d.fires(t)).collect();
        let bs: Vec<bool> = (0..64).map(|t| b.fires(t)).collect();
        assert_ne!(ds, bs);
    }
}

//! When faults fire: triggers and the per-site fault plan.

use impulse_types::Cycle;

use crate::rng::XorShift64;

/// Deterministic firing rule for one fault class at one injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Never fires (the default; zero overhead on hot paths).
    Never,
    /// Access-triggered: fires on every access whose index (counted from
    /// 0 at the site) satisfies `(index + phase) % every == 0`.
    EveryN {
        /// Fire every `every` accesses (0 is treated as never).
        every: u64,
        /// Offset applied to the access index before the modulus.
        phase: u64,
    },
    /// Fires pseudo-randomly with probability `permille / 1000` per
    /// access, drawn from the plan's private seeded stream.
    Permille(u32),
    /// Cycle-triggered: fires on the first access at or after each
    /// multiple of `period` simulated cycles (0 is treated as never).
    EveryCycles(Cycle),
}

impl Trigger {
    /// True if this trigger can never fire.
    pub fn is_never(&self) -> bool {
        matches!(
            self,
            Trigger::Never
                | Trigger::EveryN { every: 0, .. }
                | Trigger::Permille(0)
                | Trigger::EveryCycles(0)
        )
    }
}

/// A seeded, stateful instance of a [`Trigger`] at one injection site.
///
/// Each site owns its own plan (derived from the master seed in
/// [`FaultConfig`](crate::FaultConfig)), so draws at one site never
/// perturb another site's schedule — the property that makes fault runs
/// byte-identical across worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    trigger: Trigger,
    rng: XorShift64,
    accesses: u64,
    next_due: Cycle,
    fired: u64,
}

impl FaultPlan {
    /// Creates a plan for `trigger` with its own `seed` stream.
    pub fn new(trigger: Trigger, seed: u64) -> Self {
        let next_due = match trigger {
            Trigger::EveryCycles(p) => p,
            _ => 0,
        };
        Self {
            trigger,
            rng: XorShift64::new(seed),
            accesses: 0,
            next_due,
            fired: 0,
        }
    }

    /// A plan that never fires.
    pub fn never() -> Self {
        Self::new(Trigger::Never, 0)
    }

    /// True if the plan can still fire at all (lets hot paths skip the
    /// bookkeeping entirely when fault injection is off).
    pub fn is_active(&self) -> bool {
        !self.trigger.is_never()
    }

    /// Consults the plan for one access at simulated time `now`.
    /// Advances the access counter and (for `Permille`) the RNG stream.
    pub fn fires(&mut self, now: Cycle) -> bool {
        let idx = self.accesses;
        self.accesses += 1;
        let hit = match self.trigger {
            Trigger::Never => false,
            Trigger::EveryN { every, phase } => every != 0 && (idx + phase).is_multiple_of(every),
            Trigger::Permille(p) => self.rng.permille(p),
            Trigger::EveryCycles(period) => {
                if period != 0 && now >= self.next_due {
                    // Skip whole missed windows so bursty access patterns
                    // don't fire repeatedly to "catch up".
                    self.next_due = (now / period + 1) * period;
                    true
                } else {
                    false
                }
            }
        };
        if hit {
            self.fired += 1;
        }
        hit
    }

    /// How many times the plan has fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Secondary draws for a fault that already fired (e.g. single
    /// vs. double bit flip), from the plan's private stream.
    pub fn rng(&mut self) -> &mut XorShift64 {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_fires() {
        let mut p = FaultPlan::never();
        assert!(!p.is_active());
        for t in 0..100 {
            assert!(!p.fires(t));
        }
        assert_eq!(p.fired(), 0);
    }

    #[test]
    fn every_n_is_access_triggered() {
        let mut p = FaultPlan::new(Trigger::EveryN { every: 4, phase: 0 }, 1);
        let hits: Vec<bool> = (0..8).map(|_| p.fires(0)).collect();
        assert_eq!(hits, [true, false, false, false, true, false, false, false]);
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn phase_shifts_the_schedule() {
        let mut p = FaultPlan::new(Trigger::EveryN { every: 4, phase: 3 }, 1);
        let hits: Vec<bool> = (0..5).map(|_| p.fires(0)).collect();
        assert_eq!(hits, [false, true, false, false, false]);
    }

    #[test]
    fn every_cycles_fires_once_per_window() {
        let mut p = FaultPlan::new(Trigger::EveryCycles(100), 1);
        assert!(!p.fires(10)); // before the first window boundary
        assert!(p.fires(120)); // first access past cycle 100
        assert!(!p.fires(150)); // same window
        assert!(p.fires(430)); // skips missed windows, fires once
        assert!(!p.fires(431));
    }

    #[test]
    fn permille_is_deterministic_per_seed() {
        let schedule = |seed| {
            let mut p = FaultPlan::new(Trigger::Permille(200), seed);
            (0..64).map(|t| p.fires(t)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(9), schedule(9));
        assert_ne!(schedule(9), schedule(10));
    }

    #[test]
    fn zero_rates_are_never() {
        assert!(Trigger::EveryN { every: 0, phase: 1 }.is_never());
        assert!(Trigger::Permille(0).is_never());
        assert!(Trigger::EveryCycles(0).is_never());
        let mut p = FaultPlan::new(Trigger::EveryN { every: 0, phase: 0 }, 1);
        assert!(!p.fires(0));
    }
}

//! Site-specific injectors: owned by a component, consulted at its
//! access points. Each injector wraps its own [`FaultPlan`] stream and
//! keeps its own counters, so components stay decoupled and the
//! schedule stays deterministic.

use impulse_types::snap::SnapWriter;
use impulse_types::Cycle;

use crate::ecc::BitFlip;
use crate::plan::FaultPlan;

/// Snapshot section tags for the five injector types.
const TAG_FLIP: u32 = 0x464C_4950; // "FLIP"
const TAG_BUS: u32 = 0x4255_5346; // "BUSF"
const TAG_PGT: u32 = 0x5047_5446; // "PGTF"
const TAG_TIER: u32 = 0x5449_4552; // "TIER"

/// Counters for the DRAM bit-flip site.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlipStats {
    /// Single-bit flips injected into the array.
    pub injected_single: u64,
    /// Double-bit flips injected into the array.
    pub injected_double: u64,
}

/// Injects single/double bit flips on DRAM accesses. The DRAM model
/// owns one and records flips as they happen; the controller drains
/// them on the return path and runs them through its ECC model.
#[derive(Clone, Debug)]
pub struct FlipInjector {
    plan: FaultPlan,
    double_permille: u32,
    pending: Vec<(u64, BitFlip)>,
    stats: FlipStats,
}

impl FlipInjector {
    /// Creates an injector; `double_permille` of fired flips are
    /// double-bit (uncorrectable under SECDED), the rest single-bit.
    pub fn new(plan: FaultPlan, double_permille: u32) -> Self {
        Self {
            plan,
            double_permille,
            pending: Vec::new(),
            stats: FlipStats::default(),
        }
    }

    /// Called by the DRAM model on each data access. Queues a flip at
    /// `addr` when the plan fires.
    pub fn on_access(&mut self, addr: u64, now: Cycle) {
        if !self.plan.fires(now) {
            return;
        }
        let flip = if self.plan.rng().permille(self.double_permille) {
            self.stats.injected_double += 1;
            BitFlip::Double
        } else {
            self.stats.injected_single += 1;
            BitFlip::Single
        };
        self.pending.push((addr, flip));
    }

    /// Drains the flips queued since the last call (allocation-free
    /// when none are pending — the common case).
    pub fn take(&mut self) -> Vec<(u64, BitFlip)> {
        std::mem::take(&mut self.pending)
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FlipStats {
        self.stats
    }

    /// Serializes the injector's dynamic state: plan position, pending
    /// (undrained) flips, and counters. The trigger/ratio configuration
    /// is not written.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_FLIP);
        self.plan.snap_save(w);
        w.usize(self.pending.len());
        for &(addr, flip) in &self.pending {
            w.u64(addr);
            w.u8(match flip {
                BitFlip::Single => 0,
                BitFlip::Double => 1,
            });
        }
        w.u64(self.stats.injected_single);
        w.u64(self.stats.injected_double);
    }
}

/// Counters for the bus-timeout site.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusFaultStats {
    /// Requests that hit at least one timeout.
    pub timeouts: u64,
    /// Individual retry attempts issued (bounded by
    /// `timeouts * max_retries` — the chaos harness asserts this).
    pub retries: u64,
    /// Total extra delay cycles spent waiting out timeouts and backoff.
    pub recovery_cycles: u64,
}

/// Injects request timeouts at the bus, recovered by bounded retry with
/// exponential backoff: attempt `i` waits `backoff << i` cycles before
/// re-arbitrating, and a request is retried at most `max_retries` times
/// before the (guaranteed) successful attempt.
#[derive(Clone, Debug)]
pub struct TimeoutInjector {
    plan: FaultPlan,
    max_retries: u32,
    backoff: Cycle,
    stats: BusFaultStats,
}

impl TimeoutInjector {
    /// Creates an injector with the given retry bound and base backoff.
    pub fn new(plan: FaultPlan, max_retries: u32, backoff: Cycle) -> Self {
        Self {
            plan,
            max_retries: max_retries.max(1),
            backoff,
            stats: BusFaultStats::default(),
        }
    }

    /// Consulted once per bus request. Returns the extra delay (0 for a
    /// clean request) the requester spends timing out and backing off.
    pub fn delay(&mut self, now: Cycle) -> Cycle {
        if !self.plan.fires(now) {
            return 0;
        }
        self.stats.timeouts += 1;
        // The fault burst spans 1..=max_retries consecutive timeouts;
        // the next attempt succeeds, so recovery is always bounded.
        let attempts = 1 + self.plan.rng().below(u64::from(self.max_retries));
        let mut delay = 0;
        for i in 0..attempts {
            self.stats.retries += 1;
            delay += self.backoff << i.min(16);
        }
        self.stats.recovery_cycles += delay;
        delay
    }

    /// The configured retry bound.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Timeout/retry counters so far.
    pub fn stats(&self) -> BusFaultStats {
        self.stats
    }

    /// Serializes the injector's dynamic state (plan position and
    /// counters); retry bound and backoff are configuration.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_BUS);
        self.plan.snap_save(w);
        w.u64(self.stats.timeouts);
        w.u64(self.stats.retries);
        w.u64(self.stats.recovery_cycles);
    }
}

/// Counters for the MC-TLB/page-table corruption site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PgTblFaultStats {
    /// Cached translation entries corrupted.
    pub corruptions: u64,
    /// Entries recovered by reloading from the backing memory table.
    pub reloads: u64,
    /// Total extra cycles spent detecting and reloading.
    pub recovery_cycles: u64,
}

/// Injects corruption into the controller's cached translation state
/// (the MC-TLB). The page table detects the corruption
/// at use (parity), discards the entry, and reloads from the backing
/// in-memory table — the authoritative copy — charging the walk.
#[derive(Clone, Debug)]
pub struct PgTblInjector {
    plan: FaultPlan,
    stats: PgTblFaultStats,
}

impl PgTblInjector {
    /// Creates an injector driven by `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            stats: PgTblFaultStats::default(),
        }
    }

    /// Consulted once per translation. True when the entry consulted by
    /// this translation should be treated as corrupted.
    pub fn corrupts(&mut self, now: Cycle) -> bool {
        self.plan.fires(now)
    }

    /// Records one detected corruption of a cached entry.
    pub fn note_corruption(&mut self) {
        self.stats.corruptions += 1;
    }

    /// Records the reload walk that recovered a corrupted entry.
    pub fn note_reload(&mut self, cycles: Cycle) {
        self.stats.reloads += 1;
        self.stats.recovery_cycles += cycles;
    }

    /// Corruption/reload counters so far.
    pub fn stats(&self) -> PgTblFaultStats {
        self.stats
    }

    /// Serializes the injector's dynamic state (plan position and
    /// counters).
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_PGT);
        self.plan.snap_save(w);
        w.u64(self.stats.corruptions);
        w.u64(self.stats.reloads);
        w.u64(self.stats.recovery_cycles);
    }
}

/// Counters for the hybrid-tier fault sites (tag array + tier failure).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierFaultStats {
    /// Tag-array entries found corrupted at lookup time.
    pub tag_corruptions: u64,
    /// Cache lines invalidated to recover from tag corruption.
    pub tag_invalidations: u64,
    /// DRAM channels killed by the tier-fail trigger.
    pub channel_kills: u64,
    /// Demand reads served by SCM bypass because their DRAM channel is
    /// dead (cache mode) — degraded but correct.
    pub bypass_reads: u64,
    /// Demand writes routed straight to SCM for the same reason.
    pub bypass_writes: u64,
    /// Dirty cache lines whose contents were lost to a channel kill or a
    /// tag invalidation before writeback (counted, never silent).
    pub lost_dirty_lines: u64,
    /// Total extra cycles spent detecting and recovering tier faults.
    pub recovery_cycles: u64,
}

impl TierFaultStats {
    /// Sum of fault events (not cycles) — the "did anything fire" probe
    /// the chaos harness uses for its zero-on-clean assertion.
    pub fn events(&self) -> u64 {
        self.tag_corruptions + self.channel_kills + self.bypass_reads + self.bypass_writes
    }
}

/// Injects faults into the hybrid-memory tier engine: tag-array
/// corruption (cache mode detects at lookup via parity, invalidates the
/// set, and re-fetches from SCM — the authoritative copy) and whole
/// DRAM-channel failure (`tier-fail`), after which the engine degrades
/// to SCM bypass (cache mode) or surfaces typed `TierDegraded` errors
/// (flat mode). Two independent plan streams keep the schedules
/// decoupled; both clocks are machine cycles at the tier access point.
#[derive(Clone, Debug)]
pub struct TierInjector {
    tag_plan: FaultPlan,
    fail_plan: FaultPlan,
    stats: TierFaultStats,
}

impl TierInjector {
    /// Creates an injector from independent tag-corruption and
    /// tier-failure streams.
    pub fn new(tag_plan: FaultPlan, fail_plan: FaultPlan) -> Self {
        Self {
            tag_plan,
            fail_plan,
            stats: TierFaultStats::default(),
        }
    }

    /// Consulted once per cache-mode tag lookup. True when the entry
    /// read by this lookup should be treated as corrupted.
    pub fn tag_corrupts(&mut self, now: Cycle) -> bool {
        self.tag_plan.fires(now)
    }

    /// Consulted once per tier access. True when a DRAM channel should
    /// die at this instant.
    pub fn channel_fails(&mut self, now: Cycle) -> bool {
        self.fail_plan.fires(now)
    }

    /// Deterministically picks which of `n` channels dies.
    pub fn pick_channel(&mut self, n: u64) -> u64 {
        self.fail_plan.rng().below(n)
    }

    /// Records one detected tag corruption and the invalidation that
    /// recovered it (`lost_dirty` when the victim line was dirty).
    pub fn note_tag_corruption(&mut self, cycles: Cycle, lost_dirty: bool) {
        self.stats.tag_corruptions += 1;
        self.stats.tag_invalidations += 1;
        self.stats.recovery_cycles += cycles;
        if lost_dirty {
            self.stats.lost_dirty_lines += 1;
        }
    }

    /// Records one channel kill and the dirty lines it took down.
    pub fn note_channel_kill(&mut self, lost_dirty: u64) {
        self.stats.channel_kills += 1;
        self.stats.lost_dirty_lines += lost_dirty;
    }

    /// Records a demand access served by SCM bypass on a dead channel.
    pub fn note_bypass(&mut self, write: bool) {
        if write {
            self.stats.bypass_writes += 1;
        } else {
            self.stats.bypass_reads += 1;
        }
    }

    /// Tier fault counters so far.
    pub fn stats(&self) -> TierFaultStats {
        self.stats
    }

    /// Serializes the injector's dynamic state (both plan positions and
    /// counters).
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_TIER);
        self.tag_plan.snap_save(w);
        self.fail_plan.snap_save(w);
        w.u64(self.stats.tag_corruptions);
        w.u64(self.stats.tag_invalidations);
        w.u64(self.stats.channel_kills);
        w.u64(self.stats.bypass_reads);
        w.u64(self.stats.bypass_writes);
        w.u64(self.stats.lost_dirty_lines);
        w.u64(self.stats.recovery_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;

    #[test]
    fn flip_injector_queues_and_drains() {
        let plan = FaultPlan::new(Trigger::EveryN { every: 2, phase: 0 }, 3);
        let mut inj = FlipInjector::new(plan, 0);
        inj.on_access(0x100, 0);
        inj.on_access(0x200, 1);
        inj.on_access(0x300, 2);
        let flips = inj.take();
        assert_eq!(flips.len(), 2);
        assert!(flips.iter().all(|&(_, f)| f == BitFlip::Single));
        assert!(inj.take().is_empty());
        assert_eq!(inj.stats().injected_single, 2);
        assert_eq!(inj.stats().injected_double, 0);
    }

    #[test]
    fn flip_injector_mixes_doubles_deterministically() {
        let mk = || {
            let plan = FaultPlan::new(Trigger::EveryN { every: 1, phase: 0 }, 11);
            let mut inj = FlipInjector::new(plan, 500);
            for a in 0..100 {
                inj.on_access(a * 64, a);
            }
            (inj.stats().injected_single, inj.stats().injected_double)
        };
        let (s, d) = mk();
        assert_eq!(s + d, 100);
        assert!(d > 0, "some doubles at 500 permille");
        assert_eq!(mk(), (s, d), "same seed, same mix");
    }

    #[test]
    fn timeout_delay_is_bounded_by_retry_budget() {
        let plan = FaultPlan::new(Trigger::EveryN { every: 1, phase: 0 }, 5);
        let mut inj = TimeoutInjector::new(plan, 3, 8);
        let mut worst = 0;
        for t in 0..50 {
            worst = worst.max(inj.delay(t));
        }
        let s = inj.stats();
        assert_eq!(s.timeouts, 50);
        assert!(
            s.retries >= s.timeouts,
            "every timeout retries at least once"
        );
        assert!(
            s.retries <= s.timeouts * 3,
            "retries {} exceed bound {}",
            s.retries,
            s.timeouts * 3
        );
        // Worst case: 3 attempts of 8, 16, 32 cycles.
        assert!(worst <= 8 + 16 + 32);
    }

    #[test]
    fn clean_requests_cost_nothing() {
        let mut inj = TimeoutInjector::new(FaultPlan::never(), 3, 8);
        assert_eq!(inj.delay(0), 0);
        assert_eq!(inj.stats().timeouts, 0);
    }

    #[test]
    fn tier_injector_streams_are_independent() {
        let mut inj = TierInjector::new(
            FaultPlan::new(Trigger::EveryN { every: 3, phase: 0 }, 21),
            FaultPlan::new(Trigger::EveryN { every: 7, phase: 2 }, 99),
        );
        let mut kills = 0;
        for t in 0..21 {
            if inj.tag_corrupts(t) {
                inj.note_tag_corruption(12, t % 2 == 0);
            }
            if inj.channel_fails(t) {
                let ch = inj.pick_channel(16);
                assert!(ch < 16);
                inj.note_channel_kill(3);
                kills += 1;
            }
        }
        inj.note_bypass(false);
        inj.note_bypass(true);
        let s = inj.stats();
        assert_eq!(s.tag_corruptions, 7);
        assert_eq!(s.channel_kills, kills);
        assert!(s.events() > 0);
    }

    #[test]
    fn pgtbl_injector_tracks_recovery() {
        let plan = FaultPlan::new(Trigger::EveryN { every: 2, phase: 0 }, 1);
        let mut inj = PgTblInjector::new(plan);
        assert!(inj.corrupts(0));
        inj.note_corruption();
        inj.note_reload(30);
        assert!(!inj.corrupts(1));
        let s = inj.stats();
        assert_eq!((s.corruptions, s.reloads, s.recovery_cycles), (1, 1, 30));
    }
}

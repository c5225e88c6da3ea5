//! Full-system configuration, with the Paint preset from the paper.

use impulse_cache::{CacheConfig, StreamConfig, TlbConfig};
use impulse_core::{McConfig, TierConfig};
use impulse_dram::DramConfig;
use impulse_fault::FaultConfig;
use impulse_os::KernelConfig;
use impulse_types::{Cycle, TierPolicy};

use crate::bus::BusConfig;

/// Everything needed to assemble a simulated machine.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// L1 data cache geometry/policy.
    pub l1: CacheConfig,
    /// L2 data cache geometry/policy.
    pub l2: CacheConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// System bus timing.
    pub bus: BusConfig,
    /// Memory controller configuration (prefetch toggles live here).
    pub mc: McConfig,
    /// DRAM array configuration.
    pub dram: DramConfig,
    /// OS configuration.
    pub kernel: KernelConfig,
    /// L1 hit latency (cycles).
    pub t_l1_hit: Cycle,
    /// L2 hit latency, total from issue (cycles).
    pub t_l2_hit: Cycle,
    /// TLB miss (table walk) penalty (cycles).
    pub t_tlb_miss: Cycle,
    /// Hardware next-line prefetch into the L1, as in the HP PA 7200.
    pub l1_prefetch: bool,
    /// Outstanding load misses the CPU tolerates before stalling (miss
    /// status holding registers). 1 = fully blocking loads (the
    /// conservative default); the Paint L1 was non-blocking, so values
    /// of 2–4 approximate its hit-under-miss/miss-under-miss overlap.
    pub mshr: usize,
    /// Optional CPU-side stream buffers (the Jouppi/McKee related-work
    /// baseline of the paper's Section 5). `None` = absent.
    pub stream: Option<StreamConfig>,
    /// Fault-injection schedule (default: fault-free, zero overhead).
    pub faults: FaultConfig,
    /// Hybrid DRAM/SCM tier configuration (default: no tier — plain
    /// DRAM, zero overhead). Use [`SystemConfig::with_tier`] to enable.
    pub tier: TierConfig,
}

impl SystemConfig {
    /// The paper's simulation environment (Section 4): 120 MHz single
    /// issue, 32 KB direct-mapped VI/PT L1 with 32 B lines (1-cycle hit),
    /// 256 KB 2-way PI/PT L2 with 128 B lines (7-cycle hit), ~40-cycle
    /// memory access, fully-associative NRU TLB. 1 GB installed DRAM.
    pub fn paint() -> Self {
        Self::paint_with_capacity(1 << 30)
    }

    /// Paint configuration with a smaller installed DRAM — identical
    /// timing, lighter for tests and quick runs.
    pub fn paint_small() -> Self {
        Self::paint_with_capacity(1 << 26) // 64 MB
    }

    fn paint_with_capacity(capacity: u64) -> Self {
        let dram = DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_row_hit: 8,
            t_row_miss: 18,
            bus_bytes_per_cycle: 16,
            t_bus_min: 1,
            capacity,
        };
        let kernel = KernelConfig {
            dram_capacity: capacity,
            reserved_top: 1 << 20,
            // A long-running machine's frame pool is fragmented; physical
            // page placement is effectively random. This is the baseline
            // the paper's recoloring optimization assumes (conventional
            // systems "do not typically provide mechanisms for managing
            // physical layout").
            policy: impulse_os::AllocPolicy::Random(0x1999),
            ..KernelConfig::default()
        };
        Self {
            l1: CacheConfig::paint_l1(),
            l2: CacheConfig::paint_l2(),
            tlb: TlbConfig::default(),
            bus: BusConfig::default(),
            mc: McConfig::default(),
            dram,
            kernel,
            t_l1_hit: 1,
            t_l2_hit: 7,
            t_tlb_miss: 30,
            l1_prefetch: false,
            mshr: 1,
            stream: None,
            faults: FaultConfig::none(),
            tier: TierConfig::default(),
        }
    }

    /// Returns this configuration with the prefetch switches set: `mc` =
    /// controller prefetching (both the 2 KB SRAM and the shadow
    /// descriptor buffers), `l1` = cache next-line prefetching. These are
    /// the two knobs the paper's tables sweep.
    #[must_use]
    pub fn with_prefetch(mut self, mc: bool, l1: bool) -> Self {
        self.mc.prefetch_nonshadow = mc;
        self.mc.prefetch_shadow = mc;
        self.l1_prefetch = l1;
        self
    }

    /// Returns this configuration with CPU-side stream buffers attached
    /// (the Section 5 related-work baseline).
    #[must_use]
    pub fn with_stream_buffers(mut self) -> Self {
        self.stream = Some(StreamConfig {
            line: self.l1.line,
            ..StreamConfig::default()
        });
        self
    }

    /// Returns this configuration with `mshr` outstanding load misses
    /// (non-blocking loads).
    #[must_use]
    pub fn with_mshr(mut self, mshr: usize) -> Self {
        assert!(mshr >= 1, "at least one outstanding load is required");
        self.mshr = mshr;
        self
    }

    /// Returns this configuration with a fault-injection schedule
    /// attached; the machine distributes per-site injectors at build
    /// time.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Returns this configuration with a hybrid DRAM/SCM tier attached.
    ///
    /// * [`TierPolicy::Flat`] — the SCM sits above DRAM in one
    ///   address-partitioned space, sized to match the installed DRAM, so
    ///   the visible capacity doubles.
    /// * [`TierPolicy::Cache`] — the SCM takes over the full installed
    ///   capacity and the DRAM shrinks to 1/16 of it, acting as a
    ///   tag-checked dirty-writeback cache in front; the visible capacity
    ///   is the SCM's.
    /// * [`TierPolicy::None`] — removes any tier.
    ///
    /// The kernel's notion of installed memory is kept consistent with
    /// the tier-visible capacity in every case.
    #[must_use]
    pub fn with_tier(mut self, policy: TierPolicy) -> Self {
        self.tier = TierConfig::default();
        self.tier.policy = policy;
        match policy {
            TierPolicy::None => {}
            TierPolicy::Flat => {
                self.tier.scm.capacity = self.dram.capacity;
            }
            TierPolicy::Cache => {
                self.tier.scm.capacity = self.dram.capacity;
                self.dram.capacity =
                    (self.dram.capacity / 16).max(self.dram.banks * self.dram.row_bytes);
            }
        }
        self.kernel.dram_capacity = self.tier.visible_capacity(self.dram.capacity);
        self
    }

    /// Returns this configuration with the memory controller's flight
    /// recorder enabled: a ring of up to `capacity` MC transactions,
    /// exportable as an `impulse-trace-v1` capture. `capacity = 0`
    /// disables recording (the default).
    #[must_use]
    pub fn with_flight(mut self, capacity: usize) -> Self {
        self.mc.flight_capacity = capacity;
        self
    }

    /// Number of L2 page colors implied by the L2 geometry
    /// (`size / ways / page`).
    pub fn l2_colors(&self) -> u64 {
        self.l2.size / self.l2.ways / impulse_types::geom::PAGE_SIZE
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paint_matches_paper_parameters() {
        let c = SystemConfig::paint();
        assert_eq!(c.l1.size, 32 * 1024);
        assert_eq!(c.l1.line, 32);
        assert_eq!(c.l1.ways, 1);
        assert_eq!(c.l2.size, 256 * 1024);
        assert_eq!(c.l2.line, 128);
        assert_eq!(c.l2.ways, 2);
        assert_eq!(c.t_l1_hit, 1);
        assert_eq!(c.t_l2_hit, 7);
        assert_eq!(c.l2_colors(), 32);
        assert!(!c.l1_prefetch);
        assert!(!c.mc.prefetch_nonshadow);
    }

    #[test]
    fn with_prefetch_sets_both_mc_buffers() {
        let c = SystemConfig::paint().with_prefetch(true, true);
        assert!(c.mc.prefetch_nonshadow);
        assert!(c.mc.prefetch_shadow);
        assert!(c.l1_prefetch);
    }

    #[test]
    fn memory_latency_is_near_forty_cycles() {
        // The end-to-end demand-miss path the config implies:
        // L2 lookup + bus request + MC overhead + DRAM row miss +
        // line transfer + critical word.
        let c = SystemConfig::paint();
        let xfer = 128 / c.dram.bus_bytes_per_cycle;
        let total = c.t_l2_hit
            + c.bus.t_request
            + c.mc.t_overhead
            + c.dram.t_row_miss
            + xfer
            + c.bus.t_critical;
        assert!((38..=46).contains(&total), "memory path = {total} cycles");
    }
}

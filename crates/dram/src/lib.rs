//! DRAM timing model for the Impulse simulator.
//!
//! Models a multi-bank page-mode DRAM of the kind behind a late-1990s
//! memory controller: each bank has one open row (the "DRAM page"); an
//! access to the open row costs the row-hit latency, any other access pays
//! precharge + activate. Data returns over a shared DRAM data bus whose
//! occupancy serializes transfers.
//!
//! The paper's published results use a **simple in-order scheduler**
//! (Section 2.2: "the simulation results reported in this paper assume a
//! simple scheduler that issues accesses in order"); the smarter scheduler
//! they were designing — row-locality reordering, bank-level parallelism,
//! CPU-priority — is implemented in [`sched`] and evaluated by the
//! `ablation_dram` bench.
//!
//! # Examples
//!
//! ```
//! use impulse_dram::{Dram, DramConfig};
//! use impulse_types::{AccessKind, MAddr};
//!
//! let mut dram = Dram::new(DramConfig::default());
//! let t1 = dram.access(MAddr::new(0), AccessKind::Load, 8, 0);
//! // Second access to the same row hits the open row buffer: cheaper.
//! let t2 = dram.access(MAddr::new(64), AccessKind::Load, 8, t1);
//! assert!(t2 - t1 < t1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;
pub mod scm;

pub use sched::{SchedulePolicy, Scheduler};
pub use scm::{Scm, ScmConfig, ScmError, ScmStats};

use impulse_fault::{BitFlip, FlipInjector, FlipStats};
use impulse_obs::{Histogram, MetricsRegistry, Observe};
use impulse_types::geom::{is_pow2, log2, shr_ceil};
use impulse_types::{AccessKind, Cycle, MAddr};

/// The row-interleaved split of a DRAM address into bank and in-bank
/// row, as a shift and a mask: the row index is the address above the
/// row offset, its low bits pick the bank (consecutive rows rotate
/// across banks), and the rest is the row within that bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankMap {
    row_shift: u32,
    bank_mask: u64,
    bank_row_shift: u32,
}

impl BankMap {
    /// The split for `banks` banks of `row_bytes`-byte rows.
    ///
    /// # Panics
    ///
    /// Panics unless both are powers of two.
    pub fn new(banks: u64, row_bytes: u64) -> Self {
        let (bank_bits, row_shift) = (log2(banks), log2(row_bytes));
        Self {
            row_shift,
            bank_mask: banks - 1,
            bank_row_shift: row_shift + bank_bits,
        }
    }

    /// Bank index of a byte address.
    #[inline]
    pub fn bank_of(self, addr: u64) -> u64 {
        (addr >> self.row_shift) & self.bank_mask
    }

    /// Row within its bank of a byte address.
    #[inline]
    pub fn row_of(self, addr: u64) -> u64 {
        addr >> self.bank_row_shift
    }
}

/// Configuration of the DRAM array and its timing, in CPU cycles.
///
/// Bank count, row size and bus width must be powers of two, so the
/// address split and transfer time are shifts, as in a controller's
/// address decoder; [`Dram::new`] asserts it.
///
/// Defaults are calibrated so that an isolated row-miss word read completes
/// in ~30 cycles at the controller, which combined with the bus and
/// controller overheads reproduces the Paint simulator's 40-cycle
/// memory-access latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent banks.
    pub banks: u64,
    /// Bytes per row (the unit of page-mode locality).
    pub row_bytes: u64,
    /// Latency of a column access to an already-open row.
    pub t_row_hit: Cycle,
    /// Latency when the wrong row is open (precharge + activate + access).
    pub t_row_miss: Cycle,
    /// Bytes the DRAM data bus moves per cycle.
    pub bus_bytes_per_cycle: u64,
    /// Minimum data-bus occupancy per access, cycles.
    pub t_bus_min: Cycle,
    /// Total capacity in bytes; accesses are debug-checked against it.
    pub capacity: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            banks: 4,
            row_bytes: 2048,
            t_row_hit: 8,
            t_row_miss: 28,
            bus_bytes_per_cycle: 16,
            t_bus_min: 2,
            capacity: 1 << 30, // 1 GB installed DRAM, as in the paper's example
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// Counters maintained by the DRAM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses served.
    pub reads: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to open a row.
    pub row_misses: u64,
    /// Total bytes moved over the DRAM data bus.
    pub bytes: u64,
    /// Cycles spent waiting for a busy bank.
    pub bank_wait: u64,
}

impl DramStats {
    /// Fraction of accesses that hit an open row, or 0 if none occurred.
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Per-bank row-buffer heat counters, the DRAM half of the
/// `impulse-heatmap-v2` export: which banks are being hammered and how
/// much of their traffic is open-row reuse versus row churn.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankHeat {
    /// Accesses that hit this bank's open row.
    pub row_hits: u64,
    /// Accesses that had to open a row in this bank.
    pub row_misses: u64,
    /// The subset of `row_misses` that evicted a *different* open row —
    /// genuine row-buffer conflicts, as opposed to cold first-touches
    /// (a precharged bank has nothing to lose).
    pub row_conflicts: u64,
}

/// The DRAM array: banks, open-row state, and the shared data bus.
#[derive(Clone, Debug, PartialEq)]
pub struct Dram {
    cfg: DramConfig,
    /// The configuration's address split and bus width, resolved to
    /// shifts once at construction.
    map: BankMap,
    bus_shift: u32,
    banks: Vec<Bank>,
    /// Heat counters live apart from [`Bank`] so the per-access open-row
    /// state stays as small as possible.
    heat: Vec<BankHeat>,
    data_bus_free: Cycle,
    stats: DramStats,
    lat_row_hit: Histogram,
    lat_row_miss: Histogram,
    faults: Option<FlipInjector>,
}

impl Dram {
    /// Creates a DRAM array from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks or a zero-byte row, or
    /// if the bank count, row size or bus width is not a power of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks > 0, "DRAM must have at least one bank");
        assert!(cfg.row_bytes > 0, "DRAM rows must be non-empty");
        for (what, v) in [
            ("bank count", cfg.banks),
            ("row size", cfg.row_bytes),
            ("bus width", cfg.bus_bytes_per_cycle),
        ] {
            assert!(is_pow2(v), "DRAM {what} must be a power of two (got {v})");
        }
        let banks = vec![Bank::default(); cfg.banks as usize];
        Self {
            map: BankMap::new(cfg.banks, cfg.row_bytes),
            bus_shift: log2(cfg.bus_bytes_per_cycle),
            heat: vec![BankHeat::default(); banks.len()],
            cfg,
            banks,
            data_bus_free: 0,
            stats: DramStats::default(),
            lat_row_hit: Histogram::new(),
            lat_row_miss: Histogram::new(),
            faults: None,
        }
    }

    /// Attaches a deterministic bit-flip injector. Flips are recorded
    /// as accesses touch the array; the memory controller drains them
    /// with [`Dram::take_flips`] and runs them through its ECC model.
    pub fn set_fault_injector(&mut self, injector: FlipInjector) {
        self.faults = Some(injector);
    }

    /// Drains bit flips injected since the last call (empty, with no
    /// allocation, in the fault-free common case).
    #[inline]
    pub fn take_flips(&mut self) -> Vec<(u64, BitFlip)> {
        match &mut self.faults {
            Some(f) => f.take(),
            None => Vec::new(),
        }
    }

    /// Bit-flip injection counters (zeros when no injector is attached).
    pub fn flip_stats(&self) -> FlipStats {
        self.faults
            .as_ref()
            .map(FlipInjector::stats)
            .unwrap_or_default()
    }

    /// The configuration this array was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The array's bank/row split.
    pub fn bank_map(&self) -> BankMap {
        self.map
    }

    /// Data-bus occupancy for a transfer of `bytes`.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        self.cfg.t_bus_min.max(shr_ceil(bytes, self.bus_shift))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets statistics (open-row and timing state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.heat.fill(BankHeat::default());
        self.lat_row_hit = Histogram::new();
        self.lat_row_miss = Histogram::new();
    }

    /// Per-bank row-buffer heat counters, indexed by bank.
    pub fn bank_heat(&self) -> &[BankHeat] {
        &self.heat
    }

    /// End-to-end latency distribution (bank wait + access + transfer) of
    /// accesses that hit an open row.
    pub fn row_hit_latency(&self) -> &Histogram {
        &self.lat_row_hit
    }

    /// End-to-end latency distribution of accesses that opened a row.
    pub fn row_miss_latency(&self) -> &Histogram {
        &self.lat_row_miss
    }

    /// Performs one access of `bytes` bytes starting at `now`; returns the
    /// cycle at which the data transfer completes.
    ///
    /// The access waits for its bank, pays row-hit or row-miss latency,
    /// then occupies the shared data bus for the transfer.
    pub fn access(&mut self, addr: MAddr, kind: AccessKind, bytes: u64, now: Cycle) -> Cycle {
        debug_assert!(
            addr.raw() < self.cfg.capacity,
            "DRAM access beyond installed capacity: {addr:?}"
        );
        if let Some(f) = &mut self.faults {
            f.on_access(addr.raw(), now);
        }
        let bank_idx = self.map.bank_of(addr.raw()) as usize;
        let row = self.map.row_of(addr.raw());
        let bank = &mut self.banks[bank_idx];

        let start = now.max(bank.busy_until);
        self.stats.bank_wait += start - now;

        let row_hit = bank.open_row == Some(row);
        let heat = &mut self.heat[bank_idx];
        let latency = if row_hit {
            self.stats.row_hits += 1;
            heat.row_hits += 1;
            self.cfg.t_row_hit
        } else {
            self.stats.row_misses += 1;
            heat.row_misses += 1;
            // Classify before the open row is replaced below.
            if bank.open_row.is_some() {
                heat.row_conflicts += 1;
            }
            bank.open_row = Some(row);
            self.cfg.t_row_miss
        };
        let data_ready = start + latency;
        // The bank is free to start another column access once data reaches
        // the row buffer; the shared data bus serializes the transfer out.
        bank.busy_until = data_ready;

        let xfer_start = data_ready.max(self.data_bus_free);
        let done = xfer_start + self.transfer_cycles(bytes);
        self.data_bus_free = done;

        match kind {
            AccessKind::Load => self.stats.reads += 1,
            AccessKind::Store => self.stats.writes += 1,
        }
        self.stats.bytes += bytes;
        if row_hit {
            self.lat_row_hit.record(done - now);
        } else {
            self.lat_row_miss.record(done - now);
        }
        done
    }

    /// Closes all open rows (e.g. across a simulated refresh or barrier).
    pub fn precharge_all(&mut self) {
        for bank in &mut self.banks {
            bank.open_row = None;
        }
    }
}

impl Observe for Dram {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("dram.reads", self.stats.reads);
        m.counter("dram.writes", self.stats.writes);
        m.counter("dram.row_hits", self.stats.row_hits);
        m.counter("dram.row_misses", self.stats.row_misses);
        m.counter("dram.bytes", self.stats.bytes);
        m.counter("dram.bank_wait", self.stats.bank_wait);
        m.gauge("dram.row_hit_ratio", self.stats.row_hit_ratio());
        m.histogram("dram.lat_row_hit", &self.lat_row_hit);
        m.histogram("dram.lat_row_miss", &self.lat_row_miss);
        for (i, h) in self.heat.iter().enumerate() {
            m.counter(&format!("dram.bank{i:02}.row_hits"), h.row_hits);
            m.counter(&format!("dram.bank{i:02}.row_misses"), h.row_misses);
            m.counter(&format!("dram.bank{i:02}.row_conflicts"), h.row_conflicts);
        }
        if self.faults.is_some() {
            let f = self.flip_stats();
            m.counter("dram.fault.injected_single", f.injected_single);
            m.counter("dram.fault.injected_double", f.injected_double);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_fault::XorShift64;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = dram();
        let done = d.access(MAddr::new(0), AccessKind::Load, 8, 0);
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().row_hits, 0);
        let cfg = DramConfig::default();
        assert_eq!(done, cfg.t_row_miss + cfg.t_bus_min);
    }

    #[test]
    fn same_row_hits_open_page() {
        let mut d = dram();
        let t1 = d.access(MAddr::new(0), AccessKind::Load, 8, 0);
        let t2 = d.access(MAddr::new(512), AccessKind::Load, 8, t1);
        assert_eq!(d.stats().row_hits, 1);
        assert!(t2 - t1 < t1, "row hit should be cheaper than row miss");
    }

    #[test]
    fn different_rows_same_bank_miss() {
        let cfg = DramConfig::default();
        let stride = cfg.row_bytes * cfg.banks; // same bank, next row
        let mut d = Dram::new(cfg);
        d.access(MAddr::new(0), AccessKind::Load, 8, 0);
        d.access(MAddr::new(stride), AccessKind::Load, 8, 1000);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn adjacent_rows_use_different_banks() {
        let cfg = DramConfig::default();
        let map = BankMap::new(cfg.banks, cfg.row_bytes);
        assert_ne!(map.bank_of(0), map.bank_of(cfg.row_bytes));
    }

    #[test]
    fn bank_conflicts_wait() {
        let mut d = dram();
        // Two immediate accesses to the same bank, different rows.
        let cfg = DramConfig::default();
        let stride = cfg.row_bytes * cfg.banks;
        d.access(MAddr::new(0), AccessKind::Load, 8, 0);
        d.access(MAddr::new(stride), AccessKind::Load, 8, 0);
        assert!(d.stats().bank_wait > 0);
    }

    #[test]
    fn data_bus_serializes_parallel_banks() {
        let cfg = DramConfig::default();
        let row = cfg.row_bytes;
        let mut d = Dram::new(cfg.clone());
        // Same start time, different banks: banks overlap, bus serializes.
        let t1 = d.access(MAddr::new(0), AccessKind::Load, 128, 0);
        let t2 = d.access(MAddr::new(row), AccessKind::Load, 128, 0);
        assert_eq!(t2 - t1, d.transfer_cycles(128));
    }

    #[test]
    fn transfer_cycles_scale_with_bytes() {
        let cfg = DramConfig::default();
        let d = Dram::new(cfg.clone());
        assert_eq!(d.transfer_cycles(8), cfg.t_bus_min);
        assert_eq!(d.transfer_cycles(128), 128 / cfg.bus_bytes_per_cycle);
    }

    #[test]
    fn stats_track_reads_writes_bytes() {
        let mut d = dram();
        d.access(MAddr::new(0), AccessKind::Load, 32, 0);
        d.access(MAddr::new(32), AccessKind::Store, 32, 100);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 64);
    }

    #[test]
    fn precharge_forces_row_miss() {
        let mut d = dram();
        d.access(MAddr::new(0), AccessKind::Load, 8, 0);
        d.precharge_all();
        d.access(MAddr::new(8), AccessKind::Load, 8, 1000);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn row_hit_ratio_handles_empty() {
        assert_eq!(DramStats::default().row_hit_ratio(), 0.0);
    }

    #[test]
    fn latency_histograms_partition_accesses() {
        let mut d = dram();
        let mut t = 0;
        for i in 0..16u64 {
            t = d.access(MAddr::new(i * 64), AccessKind::Load, 8, t);
        }
        let s = d.stats();
        assert_eq!(d.row_hit_latency().count(), s.row_hits);
        assert_eq!(d.row_miss_latency().count(), s.row_misses);
        assert!(d.row_miss_latency().min() > d.row_hit_latency().min());
        let mut m = MetricsRegistry::new();
        d.observe(&mut m);
        assert_eq!(m.counter_value("dram.reads"), Some(16));
        assert_eq!(
            m.histogram_value("dram.lat_row_hit").unwrap().count(),
            s.row_hits
        );
        d.reset_stats();
        assert_eq!(d.row_hit_latency().count(), 0);
    }

    #[test]
    fn fault_injector_flips_are_drained_by_the_controller_side() {
        use impulse_fault::{FaultPlan, Trigger};
        let mut d = dram();
        d.set_fault_injector(FlipInjector::new(
            FaultPlan::new(Trigger::EveryN { every: 2, phase: 0 }, 1),
            0,
        ));
        let mut t = 0;
        for i in 0..4u64 {
            t = d.access(MAddr::new(i * 64), AccessKind::Load, 8, t);
        }
        assert_eq!(d.flip_stats().injected_single, 2);
        let flips = d.take_flips();
        assert_eq!(flips.len(), 2);
        assert!(d.take_flips().is_empty(), "drain is destructive");
        // Timing is unaffected by injection itself (ECC charges happen
        // at the controller).
        let mut clean = dram();
        let mut tc = 0;
        for i in 0..4u64 {
            tc = clean.access(MAddr::new(i * 64), AccessKind::Load, 8, tc);
        }
        assert_eq!(t, tc);
    }

    #[test]
    fn bank_heat_separates_conflicts_from_cold_misses() {
        let cfg = DramConfig::default();
        let stride = cfg.row_bytes * cfg.banks; // same bank, next row
        let mut d = Dram::new(cfg);
        d.access(MAddr::new(0), AccessKind::Load, 8, 0); // cold miss, bank 0
        d.access(MAddr::new(64), AccessKind::Load, 8, 100); // row hit
        d.access(MAddr::new(stride), AccessKind::Load, 8, 200); // conflict
        d.precharge_all();
        d.access(MAddr::new(0), AccessKind::Load, 8, 300); // cold again
        let h = d.bank_heat()[0];
        assert_eq!(h.row_hits, 1);
        assert_eq!(h.row_misses, 3);
        assert_eq!(h.row_conflicts, 1, "precharged banks have nothing to lose");
        assert_eq!(d.bank_heat()[1], BankHeat::default());
        // Heat is exported per bank and sums to the aggregate stats.
        let mut m = MetricsRegistry::new();
        d.observe(&mut m);
        assert_eq!(m.counter_value("dram.bank00.row_conflicts"), Some(1));
        let s = d.stats();
        let sum: u64 = d
            .bank_heat()
            .iter()
            .map(|h| h.row_hits + h.row_misses)
            .sum();
        assert_eq!(sum, s.row_hits + s.row_misses);
        d.reset_stats();
        assert_eq!(d.bank_heat()[0], BankHeat::default());
    }

    #[test]
    fn shift_mask_geometry_matches_division_reference() {
        let mut rng = XorShift64::new(0x9E37_79B9_7F4A_7C15);
        let shapes =
            (0..=6).flat_map(|b| (8..=13).flat_map(move |r| (0..=5).map(move |w| (b, r, w))));
        for (b, r, w) in shapes {
            let cfg = DramConfig {
                banks: 1 << b,
                row_bytes: 1 << r,
                bus_bytes_per_cycle: 1 << w,
                ..DramConfig::default()
            };
            let d = Dram::new(cfg.clone());
            let map = d.bank_map();
            for _ in 0..64 {
                let (a, bytes) = (rng.next_u64() >> 24, rng.below(1024));
                let rows = a / cfg.row_bytes;
                let split = (rows % cfg.banks, rows / cfg.banks);
                assert_eq!((map.bank_of(a), map.row_of(a)), split, "{cfg:?} @ {a:#x}");
                let xfer = cfg.t_bus_min.max(bytes.div_ceil(cfg.bus_bytes_per_cycle));
                assert_eq!(d.transfer_cycles(bytes), xfer, "{cfg:?}: {bytes} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "DRAM bank count must be a power of two")]
    fn non_pow2_banks_rejected() {
        let _ = Dram::new(DramConfig {
            banks: 12,
            ..DramConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let cfg = DramConfig {
            banks: 0,
            ..DramConfig::default()
        };
        let _ = Dram::new(cfg);
    }
}

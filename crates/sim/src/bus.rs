//! The system bus (HP Runway-like) occupancy model.
//!
//! A split-transaction bus between the CPU/L2 module and the memory
//! controller. Requests cost a fixed latency; data transfers occupy the
//! bus in proportion to their size. Demand fills resume the CPU at the
//! *critical word* rather than the end of the line, as the PA-RISC
//! memory system did; the full transfer still occupies the bus and is
//! charged to bandwidth.

use impulse_fault::{BusFaultStats, TimeoutInjector};
use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::Cycle;

/// Bus timing configuration, in CPU cycles (the Runway and the CPU ran at
/// the same 120 MHz in the paper's configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Address/request phase latency.
    pub t_request: Cycle,
    /// Bytes transferred per cycle (64-bit Runway → 8 B/cycle).
    pub bytes_per_cycle: u64,
    /// Cycles from transfer start until the critical word reaches the CPU.
    pub t_critical: Cycle,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            t_request: 2,
            bytes_per_cycle: 8,
            t_critical: 4,
        }
    }
}

/// Bus statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Data transfers carried.
    pub transfers: u64,
    /// Total data bytes moved.
    pub bytes: u64,
    /// Cycles demand transfers spent waiting for a busy bus.
    pub contention: u64,
}

/// The system bus.
///
/// # Examples
///
/// ```
/// use impulse_sim::{Bus, BusConfig};
///
/// let mut bus = Bus::new(BusConfig::default());
/// // A 128-byte fill whose data is ready at cycle 100: the CPU resumes
/// // at the critical word, before the full line has transferred.
/// let critical = bus.demand_transfer(128, 100);
/// assert!(critical < 100 + 128 / bus.config().bytes_per_cycle);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Bus {
    cfg: BusConfig,
    busy_until: Cycle,
    stats: BusStats,
    faults: Option<TimeoutInjector>,
}

impl Bus {
    /// Builds a bus.
    pub fn new(cfg: BusConfig) -> Self {
        Self {
            cfg,
            busy_until: 0,
            stats: BusStats::default(),
            faults: None,
        }
    }

    /// Attaches a request-timeout injector: demand transfers consult it
    /// and absorb the bounded retry/backoff delay before arbitration.
    pub fn set_fault_injector(&mut self, inj: TimeoutInjector) {
        self.faults = Some(inj);
    }

    /// Timeout/retry counters (zero when no injector is attached).
    pub fn fault_stats(&self) -> BusFaultStats {
        self.faults
            .as_ref()
            .map(TimeoutInjector::stats)
            .unwrap_or_default()
    }

    /// The configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Resets statistics (occupancy state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::default();
    }

    /// Request-phase latency (address out to the controller).
    pub fn request_latency(&self) -> Cycle {
        self.cfg.t_request
    }

    /// Carries a demand fill of `bytes` whose data is ready at the
    /// controller at `data_ready`; returns the cycle the *critical word*
    /// reaches the CPU. The bus stays occupied for the full transfer.
    pub fn demand_transfer(&mut self, bytes: u64, data_ready: Cycle) -> Cycle {
        // A timed-out request burns its retry/backoff budget before it
        // can win arbitration; the delay is bounded by the injector's
        // retry cap, so forward progress is guaranteed.
        let data_ready = match self.faults.as_mut() {
            Some(inj) => data_ready + inj.delay(data_ready),
            None => data_ready,
        };
        let start = data_ready.max(self.busy_until);
        self.stats.contention += start - data_ready;
        let full = start + bytes.div_ceil(self.cfg.bytes_per_cycle);
        self.busy_until = full;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        start + self.cfg.t_critical.min(full - start)
    }

    /// Carries a background transfer (prefetch fill, posted writeback):
    /// occupies the bus but nobody waits on the result.
    pub fn background_transfer(&mut self, bytes: u64, data_ready: Cycle) -> Cycle {
        let start = data_ready.max(self.busy_until);
        let full = start + bytes.div_ceil(self.cfg.bytes_per_cycle);
        self.busy_until = full;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        full
    }
}

impl Observe for Bus {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("bus.transfers", self.stats.transfers);
        m.counter("bus.bytes", self.stats.bytes);
        m.counter("bus.contention", self.stats.contention);
        if self.faults.is_some() {
            let f = self.fault_stats();
            m.counter("bus.fault.timeouts", f.timeouts);
            m.counter("bus.fault.retries", f.retries);
            m.counter("bus.fault.recovery_cycles", f.recovery_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_word_beats_full_transfer() {
        let mut bus = Bus::new(BusConfig::default());
        let crit = bus.demand_transfer(128, 100);
        assert_eq!(crit, 104); // 4-cycle critical word
                               // The bus is busy for the full 16 cycles.
        let crit2 = bus.demand_transfer(128, 100);
        assert_eq!(crit2, 116 + 4);
        assert_eq!(bus.stats().contention, 16);
    }

    #[test]
    fn small_transfer_critical_capped() {
        let mut bus = Bus::new(BusConfig::default());
        // 8 bytes = 1 cycle; critical word cannot arrive after the end.
        let crit = bus.demand_transfer(8, 0);
        assert_eq!(crit, 1);
    }

    #[test]
    fn background_counts_bytes_but_returns_full() {
        let mut bus = Bus::new(BusConfig::default());
        let done = bus.background_transfer(128, 0);
        assert_eq!(done, 16);
        assert_eq!(bus.stats().bytes, 128);
        assert_eq!(bus.stats().transfers, 1);
    }

    #[test]
    fn injected_timeouts_delay_demand_with_bounded_retries() {
        use impulse_fault::{FaultPlan, Trigger};
        let mut bus = Bus::new(BusConfig::default());
        let mut clean = Bus::new(BusConfig::default());
        bus.set_fault_injector(TimeoutInjector::new(
            FaultPlan::new(Trigger::EveryN { every: 1, phase: 0 }, 7),
            3,
            8,
        ));
        for t in 0..20 {
            let faulty = bus.demand_transfer(128, t * 1000);
            let base = clean.demand_transfer(128, t * 1000);
            assert!(faulty > base, "every request times out here");
            // Worst case: 3 attempts of 8, 16, 32 cycles of backoff.
            assert!(faulty - base <= 8 + 16 + 32);
        }
        let f = bus.fault_stats();
        assert_eq!(f.timeouts, 20);
        assert!(f.retries <= f.timeouts * 3, "retry bound holds");
        assert!(f.recovery_cycles > 0);
        // Fault-free buses report zeros without an injector.
        assert_eq!(clean.fault_stats().timeouts, 0);
    }

    #[test]
    fn background_delays_demand() {
        let mut bus = Bus::new(BusConfig::default());
        bus.background_transfer(128, 0); // busy until 16
        let crit = bus.demand_transfer(32, 4);
        assert!(crit > 16);
    }
}

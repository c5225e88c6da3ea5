//! The controller's prefetch SRAM for non-remapped data.
//!
//! Impulse adds "a 2K buffer for prefetching non-remapped data using a
//! simple one-block lookahead prefetcher" (Section 2.2). The SRAM holds
//! whole memory lines; entries carry a `ready_at` timestamp so a demand
//! access arriving before the background fetch completes pays only the
//! remaining time.

use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::{Cycle, PAddr};

/// Statistics for the prefetch SRAM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Demand lookups that found their line in the SRAM.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Prefetches issued into the SRAM.
    pub issued: u64,
    /// Hits that still had to wait for the in-flight fill.
    pub late: u64,
}

impl PrefetchStats {
    /// Fraction of demand lookups that hit.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Slot {
    line: PAddr,
    ready_at: Cycle,
    stamp: u64,
    valid: bool,
}

/// A small fully-associative line buffer with LRU replacement and
/// in-flight ("ready at") tracking.
#[derive(Clone, Debug, PartialEq)]
pub struct PrefetchCache {
    slots: Vec<Slot>,
    line_bytes: u64,
    tick: u64,
    stats: PrefetchStats,
}

impl PrefetchCache {
    /// Builds a prefetch SRAM of `capacity_bytes` holding `line_bytes`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not hold at least one line.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        let n = capacity_bytes / line_bytes;
        assert!(n >= 1, "prefetch SRAM must hold at least one line");
        Self {
            slots: vec![
                Slot {
                    line: PAddr::ZERO,
                    ready_at: 0,
                    stamp: 0,
                    valid: false,
                };
                n as usize
            ],
            line_bytes,
            tick: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Number of line slots.
    pub fn capacity_lines(&self) -> usize {
        self.slots.len()
    }

    /// Line size this SRAM holds, in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PrefetchStats::default();
    }

    #[inline]
    fn line_base(&self, p: PAddr) -> PAddr {
        p.align_down(self.line_bytes)
    }

    /// Demand lookup: on a hit, returns the cycle at which the line's data
    /// is available in the SRAM (which may be in the future if the fill is
    /// still in flight) and consumes the entry's freshness for LRU.
    pub fn demand_lookup(&mut self, p: PAddr, now: Cycle) -> Option<Cycle> {
        let base = self.line_base(p);
        self.tick += 1;
        let tick = self.tick;
        if let Some(s) = self.slots.iter_mut().find(|s| s.valid && s.line == base) {
            s.stamp = tick;
            self.stats.hits += 1;
            if s.ready_at > now {
                self.stats.late += 1;
            }
            Some(s.ready_at)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Whether the line containing `p` is present (no stats/LRU effect).
    pub fn contains(&self, p: PAddr) -> bool {
        let base = self.line_base(p);
        self.slots.iter().any(|s| s.valid && s.line == base)
    }

    /// Records a prefetched line that will be ready at `ready_at`,
    /// evicting the LRU slot if necessary.
    pub fn insert(&mut self, p: PAddr, ready_at: Cycle) {
        let base = self.line_base(p);
        self.tick += 1;
        self.stats.issued += 1;
        if let Some(s) = self.slots.iter_mut().find(|s| s.valid && s.line == base) {
            // Refreshing an existing entry (e.g. re-prefetch after eviction
            // race): keep the earlier ready time.
            s.ready_at = s.ready_at.min(ready_at);
            s.stamp = self.tick;
            return;
        }
        let victim = self.slots.iter().position(|s| !s.valid).unwrap_or_else(|| {
            self.slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("prefetch SRAM has at least one slot")
        });
        self.slots[victim] = Slot {
            line: base,
            ready_at,
            stamp: self.tick,
            valid: true,
        };
    }

    /// Drops the line containing `p`, if present — used when the line is
    /// written so the SRAM never serves stale data.
    pub fn invalidate(&mut self, p: PAddr) -> bool {
        let base = self.line_base(p);
        if let Some(s) = self.slots.iter_mut().find(|s| s.valid && s.line == base) {
            s.valid = false;
            true
        } else {
            false
        }
    }

    /// Drops everything.
    pub fn invalidate_all(&mut self) {
        for s in &mut self.slots {
            s.valid = false;
        }
    }
}

impl Observe for PrefetchCache {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("pf.hits", self.stats.hits);
        m.counter("pf.misses", self.stats.misses);
        m.counter("pf.issued", self.stats.issued);
        m.counter("pf.late", self.stats.late);
        m.gauge("pf.hit_ratio", self.stats.hit_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(x: u64) -> PAddr {
        PAddr::new(x)
    }

    #[test]
    fn paper_sram_holds_sixteen_lines() {
        let pf = PrefetchCache::new(2048, 128);
        assert_eq!(pf.capacity_lines(), 16);
    }

    #[test]
    fn insert_then_hit_with_ready_time() {
        let mut pf = PrefetchCache::new(256, 128);
        pf.insert(pa(0x100), 50);
        assert_eq!(pf.demand_lookup(pa(0x17f), 10), Some(50));
        assert_eq!(pf.stats().hits, 1);
        assert_eq!(pf.stats().late, 1);
        assert_eq!(pf.demand_lookup(pa(0x180), 10), None);
        assert_eq!(pf.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut pf = PrefetchCache::new(256, 128); // 2 slots
        pf.insert(pa(0), 0);
        pf.insert(pa(128), 0);
        pf.demand_lookup(pa(0), 0); // touch line 0
        pf.insert(pa(256), 0); // evicts line 128
        assert!(pf.contains(pa(0)));
        assert!(!pf.contains(pa(128)));
        assert!(pf.contains(pa(256)));
    }

    #[test]
    fn reinsert_keeps_earliest_ready() {
        let mut pf = PrefetchCache::new(256, 128);
        pf.insert(pa(0), 100);
        pf.insert(pa(0), 200);
        assert_eq!(pf.demand_lookup(pa(0), 0), Some(100));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut pf = PrefetchCache::new(256, 128);
        pf.insert(pa(0), 0);
        assert!(pf.invalidate(pa(64)));
        assert!(!pf.contains(pa(0)));
        assert!(!pf.invalidate(pa(0)));
        pf.insert(pa(0), 0);
        pf.invalidate_all();
        assert!(!pf.contains(pa(0)));
    }

    #[test]
    fn hit_ratio_handles_empty() {
        assert_eq!(PrefetchStats::default().hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_rejected() {
        let _ = PrefetchCache::new(64, 128);
    }
}

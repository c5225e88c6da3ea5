//! The hybrid-memory tier engine: DRAM + SCM behind one controller.
//!
//! ROADMAP item 4: a second, slower memory class behind the Impulse
//! controller, run under one of two policies (selected by the
//! `SystemConfig` tier knob):
//!
//! * **Flat** — the visible address space is partitioned: DRAM serves
//!   `[0, dram_capacity)`, SCM serves `[dram_capacity, dram + scm)`.
//!   Placement is the OS's problem; the engine just routes.
//! * **Cache** — the visible space is the SCM's, and the whole DRAM
//!   array runs as a direct-mapped, line-granularity, dirty-writeback
//!   cache in front of it (the HMS organization). A small MC-side
//!   *fill buffer* serves gather-issued loads that miss — an
//!   indirection-vector gather over cold SCM pages would otherwise
//!   thrash the cache with lines that are touched once.
//!
//! Fault behavior is the point of the model, and every plane degrades
//! *gracefully, never silently*:
//!
//! * SCM raw bit errors are drained through the controller's SECDED
//!   model (own stream, own stats) exactly like DRAM flips.
//! * Write wear retires lines onto spares and, once the spares run
//!   out, surfaces typed [`McError::LineRetired`] errors.
//! * Tag-array corruption is detected at lookup (parity), the set is
//!   invalidated and refetched from SCM — the authoritative copy —
//!   and any lost dirty line is counted.
//! * The tier-fail trigger kills a DRAM channel (bank) mid-run: cache
//!   mode degrades the dead sets to SCM *bypass* (slower, still
//!   correct); flat mode rejects accesses to the dead partition with
//!   typed [`McError::TierDegraded`] errors, which the memory system
//!   above counts and NACKs — bounded latency, never a hang.
//!
//! Controller metadata (the PgTbl's memory-resident table) stays
//! pinned in a reserved DRAM region on a dedicated walk path and is
//! not routed through the tier.

use impulse_dram::{Dram, DramConfig, Scm, ScmConfig, ScmError, ScmStats};
use impulse_fault::{EccConfig, EccStats, FaultConfig, TierFaultStats, TierInjector};
use impulse_obs::MetricsRegistry;
use impulse_types::geom::{is_pow2, log2};
use impulse_types::{AccessKind, Cycle, MAddr, TierPolicy};

use crate::controller::McError;

/// Configuration of the hybrid-memory tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierConfig {
    /// How the two memory classes are organized. `None` means no SCM
    /// is attached and no tier engine is built.
    pub policy: TierPolicy,
    /// The SCM part behind (or beside) the DRAM.
    pub scm: ScmConfig,
    /// Capacity of the MC-side fill buffer, in lines (cache mode).
    pub fill_lines: usize,
    /// Tag-array lookup latency, cycles (cache mode).
    pub t_tag: Cycle,
    /// Latency of a fill-buffer hit, cycles (cache mode).
    pub t_fill_hit: Cycle,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            policy: TierPolicy::None,
            scm: ScmConfig::default(),
            fill_lines: 8,
            t_tag: 2,
            t_fill_hit: 4,
        }
    }
}

impl TierConfig {
    /// The bus-visible memory capacity under this tier policy, given
    /// the installed DRAM capacity. Shadow space begins here.
    pub fn visible_capacity(&self, dram_capacity: u64) -> u64 {
        match self.policy {
            TierPolicy::None => dram_capacity,
            TierPolicy::Flat => dram_capacity + self.scm.capacity,
            TierPolicy::Cache => self.scm.capacity,
        }
    }
}

/// Counters maintained by the tier engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Cache-mode accesses served by the DRAM cache.
    pub dram_hits: u64,
    /// Cache-mode demand misses (fetched from SCM and installed).
    pub dram_misses: u64,
    /// Dirty victim lines written back to SCM on eviction.
    pub writebacks: u64,
    /// Writebacks whose victim SCM line was dead — the dirty data is
    /// lost, counted here (and surfaced on the *next* demand access to
    /// that line as a typed error). Never silent.
    pub lost_writebacks: u64,
    /// Gather-issued loads served from the MC-side fill buffer.
    pub fill_hits: u64,
    /// Gather-issued loads that missed and loaded the fill buffer
    /// straight from SCM without installing into the cache.
    pub fill_loads: u64,
    /// Flat-mode accesses routed to the DRAM partition.
    pub flat_dram: u64,
    /// Flat-mode accesses routed to the SCM partition.
    pub flat_scm: u64,
    /// Accesses rejected with a typed error (dead channel in flat
    /// mode, dead SCM line in either mode).
    pub degraded_rejects: u64,
}

/// The tier engine: owns the SCM part, the cache-mode tag array and
/// fill buffer, the dead-channel mask, and the per-tier fault state.
/// The DRAM array stays owned by the controller and is passed into
/// each call, because the controller's gather path destructures itself.
#[derive(Clone, Debug, PartialEq)]
pub struct TierEngine {
    cfg: TierConfig,
    line_bytes: u64,
    /// `log2(line_bytes)`: a visible address's line index is a shift.
    line_shift: u32,
    /// Cache mode: the set of a line is its low bits (`tags.len() - 1`).
    set_mask: u64,
    dram_capacity: u64,
    /// Packed tag array, one entry per DRAM cache set (cache mode;
    /// empty in flat mode): `(scm_line << 2) | dirty << 1 | valid`.
    tags: Vec<u64>,
    /// SCM lines currently held by the fill buffer: a FIFO ring of
    /// `fill_lines.max(1)` slots, filled in order, then overwritten
    /// oldest first.
    fill: Vec<u64>,
    /// The ring slot the next fill-buffer load overwrites once the ring
    /// is full: the oldest line's.
    fill_next: usize,
    /// Bitmask of DRAM banks ("channels") killed by tier-fail.
    dead_banks: u64,
    scm: Scm,
    inj: Option<TierInjector>,
    ecc: EccConfig,
    scm_ecc_stats: EccStats,
    stats: TierStats,
}

impl From<ScmError> for McError {
    fn from(e: ScmError) -> Self {
        match e {
            ScmError::LineRetired { line } => McError::LineRetired { line },
        }
    }
}

impl TierEngine {
    /// Builds a tier engine for `cfg` in front of a DRAM with geometry
    /// `dram_cfg`, serving `line_bytes` controller lines.
    ///
    /// # Panics
    ///
    /// Panics when the policy is [`TierPolicy::None`] (build no engine
    /// instead), when `line_bytes` is not a power of two, or in cache
    /// mode when the DRAM is not strictly smaller than the SCM it caches
    /// or does not hold a power-of-two number of lines (the set index is
    /// a mask).
    pub fn new(cfg: TierConfig, dram_cfg: &DramConfig, line_bytes: u64) -> Self {
        assert!(
            cfg.policy != TierPolicy::None,
            "tier engine requires a tier policy"
        );
        assert!(
            is_pow2(line_bytes),
            "tier line size must be a power of two (got {line_bytes})"
        );
        let line_shift = log2(line_bytes);
        let tags = if cfg.policy == TierPolicy::Cache {
            assert!(
                dram_cfg.capacity <= cfg.scm.capacity,
                "cache mode needs DRAM no larger than the SCM it caches"
            );
            let lines = dram_cfg.capacity >> line_shift;
            assert!(
                is_pow2(lines),
                "tier cache line count must be a power of two (got {lines})"
            );
            vec![0u64; lines as usize]
        } else {
            Vec::new()
        };
        Self {
            line_shift,
            set_mask: (tags.len() as u64).saturating_sub(1),
            scm: Scm::new(cfg.scm.clone()),
            tags,
            fill: Vec::with_capacity(cfg.fill_lines.max(1)),
            fill_next: 0,
            dead_banks: 0,
            inj: None,
            ecc: EccConfig::default(),
            scm_ecc_stats: EccStats::default(),
            stats: TierStats::default(),
            line_bytes,
            dram_capacity: dram_cfg.capacity,
            cfg,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> TierPolicy {
        self.cfg.policy
    }

    /// The bus-visible memory capacity (shadow space begins here).
    pub fn visible_capacity(&self) -> u64 {
        self.cfg.visible_capacity(self.dram_capacity)
    }

    /// Attaches the tier's fault planes from a fault configuration:
    /// the SCM bit-flip injector, the tag/tier-fail injector, and the
    /// ECC model used to scrub SCM flips.
    pub fn set_faults(&mut self, faults: &FaultConfig) {
        self.ecc = faults.ecc;
        if let Some(inj) = faults.scm_flip_injector() {
            self.scm.set_fault_injector(inj);
        }
        self.inj = faults.tier_injector();
    }

    /// Tier engine counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// SCM media counters (wear, retirement, channel occupancy).
    pub fn scm_stats(&self) -> ScmStats {
        self.scm.stats()
    }

    /// The SCM part (wear probes for tests and reports).
    pub fn scm(&self) -> &Scm {
        &self.scm
    }

    /// ECC bookkeeping for the SCM's raw bit-error stream.
    pub fn scm_ecc_stats(&self) -> EccStats {
        self.scm_ecc_stats
    }

    /// Tag-corruption / channel-kill counters (zeros when no tier
    /// fault class is configured).
    pub fn fault_stats(&self) -> TierFaultStats {
        self.inj
            .as_ref()
            .map(TierInjector::stats)
            .unwrap_or_default()
    }

    /// Bitmask of DRAM banks killed so far.
    pub fn dead_banks(&self) -> u64 {
        self.dead_banks
    }

    /// Resets counters. Physical degradation state (wear, dead lines,
    /// dead channels, cache contents) persists — damage is not a
    /// counter artifact.
    pub fn reset_stats(&mut self) {
        self.stats = TierStats::default();
        self.scm_ecc_stats = EccStats::default();
        self.scm.reset_stats();
    }

    /// Drains SCM bit flips through the controller's ECC model; returns
    /// the latency penalty to fold into the current access.
    #[inline]
    fn scrub_scm(&mut self) -> Cycle {
        let mut penalty = 0;
        for (addr, flip) in self.scm.take_flips() {
            let (outcome, t) = self.ecc.check(flip);
            penalty += self.scm_ecc_stats.absorb(outcome, t, addr);
        }
        penalty
    }

    /// Consults the tier-fail plan; on a firing, kills one still-alive
    /// DRAM bank and (cache mode) invalidates every set it backed,
    /// counting lost dirty lines.
    fn maybe_kill_channel(&mut self, dram: &Dram, now: Cycle) {
        let Some(inj) = &mut self.inj else { return };
        if !inj.channel_fails(now) {
            return;
        }
        let banks = dram.config().banks.min(64);
        let alive: Vec<u64> = (0..banks)
            .filter(|b| self.dead_banks & (1 << b) == 0)
            .collect();
        if alive.is_empty() {
            return;
        }
        let ch = alive[inj.pick_channel(alive.len() as u64) as usize];
        self.dead_banks |= 1 << ch;
        let mut lost = 0;
        if self.cfg.policy == TierPolicy::Cache {
            for set in 0..self.tags.len() {
                let entry = self.tags[set];
                if entry & 1 == 0 {
                    continue;
                }
                if dram.bank_map().bank_of((set as u64) << self.line_shift) == ch {
                    if entry & 2 != 0 {
                        lost += 1;
                    }
                    self.tags[set] = 0;
                }
            }
        }
        inj.note_channel_kill(lost);
    }

    /// Routes one access of `bytes` at visible address `addr` starting
    /// at `now`; returns the completion cycle. `gather` marks accesses
    /// issued by the controller's gather path, which are eligible for
    /// the fill buffer in cache mode.
    ///
    /// # Errors
    ///
    /// [`McError::TierDegraded`] for a flat-mode access to a killed
    /// DRAM channel; [`McError::LineRetired`] for an access touching a
    /// worn-out SCM line with no spare left. Both complete in bounded
    /// time at the caller (NACK) — the engine never hangs.
    pub fn access(
        &mut self,
        dram: &mut Dram,
        addr: MAddr,
        kind: AccessKind,
        bytes: u64,
        now: Cycle,
        gather: bool,
    ) -> Result<Cycle, McError> {
        self.maybe_kill_channel(dram, now);
        match self.cfg.policy {
            TierPolicy::Flat => self.access_flat(dram, addr, kind, bytes, now),
            TierPolicy::Cache => self.access_cache(dram, addr, kind, bytes, now, gather),
            TierPolicy::None => unreachable!("tier engine is never built without a policy"),
        }
    }

    /// Issues a gather/scatter batch through the tier in order (one
    /// command slot per cycle, like the in-order DRAM scheduler);
    /// returns when the last request completes. The first typed error
    /// aborts the batch — the controller NACKs the whole line.
    pub fn run_batch(
        &mut self,
        dram: &mut Dram,
        reqs: &[(MAddr, u64)],
        kind: AccessKind,
        now: Cycle,
    ) -> Result<Cycle, McError> {
        let mut done = now;
        for (slot, &(addr, bytes)) in reqs.iter().enumerate() {
            let t = now + slot as Cycle;
            done = done.max(self.access(dram, addr, kind, bytes, t, true)?);
        }
        Ok(done)
    }

    fn access_flat(
        &mut self,
        dram: &mut Dram,
        addr: MAddr,
        kind: AccessKind,
        bytes: u64,
        now: Cycle,
    ) -> Result<Cycle, McError> {
        let raw = addr.raw();
        if raw < self.dram_capacity {
            let channel = dram.bank_map().bank_of(raw);
            if self.dead_banks & (1 << channel) != 0 {
                self.stats.degraded_rejects += 1;
                return Err(McError::TierDegraded { channel });
            }
            self.stats.flat_dram += 1;
            return Ok(dram.access(addr, kind, bytes, now));
        }
        self.stats.flat_scm += 1;
        let done = self
            .scm
            .access(raw - self.dram_capacity, kind, bytes, now)
            .map_err(|e| {
                self.stats.degraded_rejects += 1;
                McError::from(e)
            })?;
        Ok(done + self.scrub_scm())
    }

    fn access_cache(
        &mut self,
        dram: &mut Dram,
        addr: MAddr,
        kind: AccessKind,
        bytes: u64,
        now: Cycle,
        gather: bool,
    ) -> Result<Cycle, McError> {
        let line = addr.raw() >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let dram_addr = MAddr::new((set as u64) << self.line_shift);
        let line_addr = line << self.line_shift;

        // A dead channel takes its sets out of the cache: demand
        // traffic bypasses straight to SCM — slower, still correct.
        if self.dead_banks & (1 << dram.bank_map().bank_of(dram_addr.raw())) != 0 {
            if let Some(inj) = &mut self.inj {
                inj.note_bypass(kind == AccessKind::Store);
            }
            let done = self
                .scm
                .access(line_addr, kind, bytes.max(1), now)
                .map_err(|e| {
                    self.stats.degraded_rejects += 1;
                    McError::from(e)
                })?;
            return Ok(done + self.scrub_scm());
        }

        let mut t = now + self.cfg.t_tag;
        let mut entry = self.tags[set];
        // Tag corruption: parity detects it at lookup; the set is
        // invalidated (a dirty victim is lost, counted) and the access
        // proceeds as a miss against the authoritative SCM copy.
        if entry & 1 == 1 {
            if let Some(inj) = &mut self.inj {
                if inj.tag_corrupts(now) {
                    inj.note_tag_corruption(self.cfg.t_tag, entry & 2 != 0);
                    self.tags[set] = 0;
                    entry = 0;
                    t += self.cfg.t_tag;
                }
            }
        }

        let valid = entry & 1 == 1;
        let dirty = entry & 2 != 0;
        let tag_line = entry >> 2;
        if valid && tag_line == line {
            self.stats.dram_hits += 1;
            let done = dram.access(dram_addr, kind, bytes, t);
            if kind == AccessKind::Store {
                self.tags[set] = entry | 2;
            }
            return Ok(done);
        }

        // Miss. Gather-issued loads go through the fill buffer and do
        // not install — a cold-SCM gather must not thrash the cache.
        if gather && kind == AccessKind::Load {
            if self.fill.contains(&line) {
                self.stats.fill_hits += 1;
                return Ok(t + self.cfg.t_fill_hit);
            }
            let done = self
                .scm
                .access(line_addr, AccessKind::Load, self.line_bytes, t)
                .map_err(|e| {
                    self.stats.degraded_rejects += 1;
                    McError::from(e)
                })?;
            let slots = self.cfg.fill_lines.max(1);
            if self.fill.len() < slots {
                self.fill.push(line);
            } else {
                self.fill[self.fill_next] = line;
                self.fill_next = if self.fill_next + 1 == slots {
                    0
                } else {
                    self.fill_next + 1
                };
            }
            self.stats.fill_loads += 1;
            return Ok(done + self.scrub_scm());
        }

        // Demand miss: evict (writing back a dirty victim), fetch the
        // line from SCM, install it in the DRAM cache.
        self.stats.dram_misses += 1;
        if valid && dirty {
            self.stats.writebacks += 1;
            if self
                .scm
                .access(
                    tag_line << self.line_shift,
                    AccessKind::Store,
                    self.line_bytes,
                    t,
                )
                .is_err()
            {
                // The victim's SCM line is dead: the dirty data is
                // lost. Counted here; the next demand access to that
                // line surfaces the typed error.
                self.stats.lost_writebacks += 1;
            }
        }
        let fetched = self
            .scm
            .access(line_addr, AccessKind::Load, self.line_bytes, t)
            .map_err(|e| {
                self.stats.degraded_rejects += 1;
                McError::from(e)
            })?;
        let done = dram.access(dram_addr, AccessKind::Store, self.line_bytes, fetched);
        let new_dirty = if kind == AccessKind::Store { 2 } else { 0 };
        self.tags[set] = (line << 2) | new_dirty | 1;
        Ok(done + self.scrub_scm())
    }

    /// Emits the tier's counters under `mc.tier.*` / `mc.scm.*`.
    pub fn observe_into(&self, m: &mut MetricsRegistry) {
        let s = self.stats;
        m.counter("mc.tier.dram_hits", s.dram_hits);
        m.counter("mc.tier.dram_misses", s.dram_misses);
        m.counter("mc.tier.writebacks", s.writebacks);
        m.counter("mc.tier.lost_writebacks", s.lost_writebacks);
        m.counter("mc.tier.fill_hits", s.fill_hits);
        m.counter("mc.tier.fill_loads", s.fill_loads);
        m.counter("mc.tier.flat_dram", s.flat_dram);
        m.counter("mc.tier.flat_scm", s.flat_scm);
        m.counter("mc.tier.degraded_rejects", s.degraded_rejects);
        m.counter("mc.tier.dead_banks", self.dead_banks.count_ones().into());
        let f = self.fault_stats();
        m.counter("mc.tier.fault.tag_corruptions", f.tag_corruptions);
        m.counter("mc.tier.fault.channel_kills", f.channel_kills);
        m.counter("mc.tier.fault.bypass_reads", f.bypass_reads);
        m.counter("mc.tier.fault.bypass_writes", f.bypass_writes);
        m.counter("mc.tier.fault.lost_dirty_lines", f.lost_dirty_lines);
        let sc = self.scm.stats();
        m.counter("mc.scm.reads", sc.reads);
        m.counter("mc.scm.writes", sc.writes);
        m.counter("mc.scm.bytes", sc.bytes);
        m.counter("mc.scm.channel_wait", sc.channel_wait);
        m.counter("mc.scm.wear_retirements", sc.wear_retirements);
        m.counter("mc.scm.dead_rejects", sc.dead_rejects);
        let e = self.scm_ecc_stats;
        m.counter("mc.scm.ecc.corrected", e.corrected);
        m.counter("mc.scm.ecc.detected_double", e.detected_double);
        m.counter("mc.scm.ecc.silent", e.silent);
        m.counter("mc.scm.ecc.corrupt_sig", e.corrupt_sig);
        m.counter("mc.scm.ecc.recovery_cycles", e.recovery_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_fault::Trigger;

    const LINE: u64 = 128;

    fn small_dram_cfg() -> DramConfig {
        DramConfig {
            capacity: 1 << 16, // 64 KB cache → 512 sets
            ..DramConfig::default()
        }
    }

    fn cache_engine() -> (TierEngine, Dram) {
        let dcfg = small_dram_cfg();
        let cfg = TierConfig {
            policy: TierPolicy::Cache,
            scm: ScmConfig {
                capacity: 1 << 20,
                ..ScmConfig::default()
            },
            ..TierConfig::default()
        };
        (TierEngine::new(cfg, &dcfg, LINE), Dram::new(dcfg))
    }

    #[test]
    #[should_panic(expected = "tier cache line count must be a power of two")]
    fn non_pow2_cache_geometry_rejected() {
        let dcfg = DramConfig {
            capacity: 3 << 14,
            ..DramConfig::default()
        };
        let cfg = TierConfig {
            policy: TierPolicy::Cache,
            ..TierConfig::default()
        };
        let _ = TierEngine::new(cfg, &dcfg, LINE);
    }

    #[test]
    fn cache_miss_then_hit() {
        let (mut eng, mut dram) = cache_engine();
        let a = MAddr::new(0x4000);
        let t1 = eng
            .access(&mut dram, a, AccessKind::Load, LINE, 0, false)
            .unwrap();
        let t2 = eng
            .access(&mut dram, a, AccessKind::Load, LINE, t1 + 1000, false)
            .unwrap();
        let s = eng.stats();
        assert_eq!((s.dram_misses, s.dram_hits), (1, 1));
        assert!(t1 > t2 - (t1 + 1000), "miss pays SCM latency, hit does not");
        assert_eq!(eng.scm_stats().reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut eng, mut dram) = cache_engine();
        let sets = 1 << 9; // 64 KB / 128 B
        let a = MAddr::new(0);
        let conflict = MAddr::new(sets * LINE); // same set, different line
        eng.access(&mut dram, a, AccessKind::Store, LINE, 0, false)
            .unwrap();
        eng.access(&mut dram, conflict, AccessKind::Load, LINE, 10_000, false)
            .unwrap();
        let s = eng.stats();
        assert_eq!(s.writebacks, 1, "dirty victim must go back to SCM");
        assert_eq!(eng.scm_stats().writes, 1);
    }

    #[test]
    fn gather_misses_use_fill_buffer_without_installing() {
        let (mut eng, mut dram) = cache_engine();
        let a = MAddr::new(0x8000);
        let t1 = eng
            .access(&mut dram, a, AccessKind::Load, 32, 0, true)
            .unwrap();
        // Same line, still a gather: fill-buffer hit, near-free.
        let t2 = eng
            .access(&mut dram, a, AccessKind::Load, 32, t1, true)
            .unwrap();
        let s = eng.stats();
        assert_eq!((s.fill_loads, s.fill_hits), (1, 1));
        assert_eq!(s.dram_misses, 0, "gather misses do not install");
        assert!(t2 - t1 < t1, "fill hit is much cheaper than SCM");
    }

    #[test]
    fn fill_ring_matches_a_fifo_reference() {
        use std::collections::VecDeque;
        for fill_lines in [0, 1, 2, 8, 9] {
            let (mut eng, mut dram) = cache_engine();
            eng.cfg.fill_lines = fill_lines;
            // The reference: the fill buffer as a FIFO queue, and a twin
            // SCM that serves its misses.
            let mut fifo: VecDeque<u64> = VecDeque::new();
            let mut scm = Scm::new(eng.cfg.scm.clone());
            let mut want = TierStats::default();
            let (mut x, mut now) = (0x2545_F491_4F6C_DD1Du64 ^ fill_lines as u64, 0);
            for i in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Twelve lines: every ring size above sees hits, misses
                // and evictions.
                let line = 100 + (x >> 8) % 12;
                let addr = MAddr::new(line * LINE + (x >> 16) % LINE);
                now += (x >> 24) % 64;
                let t = now + eng.cfg.t_tag;
                let expect = if fifo.contains(&line) {
                    want.fill_hits += 1;
                    t + eng.cfg.t_fill_hit
                } else {
                    if fifo.len() >= fill_lines.max(1) {
                        fifo.pop_front();
                    }
                    fifo.push_back(line);
                    want.fill_loads += 1;
                    scm.access(line * LINE, AccessKind::Load, LINE, t).unwrap()
                };
                let done = eng
                    .access(&mut dram, addr, AccessKind::Load, 8, now, true)
                    .unwrap();
                assert_eq!(done, expect, "fill_lines={fill_lines} access {i}");
                assert_eq!(eng.stats(), want, "fill_lines={fill_lines} access {i}");
            }
            assert!(want.fill_hits > 0 && want.fill_loads > 12);
        }
    }

    #[test]
    fn flat_mode_partitions_the_space() {
        let dcfg = small_dram_cfg();
        let cfg = TierConfig {
            policy: TierPolicy::Flat,
            scm: ScmConfig {
                capacity: 1 << 20,
                ..ScmConfig::default()
            },
            ..TierConfig::default()
        };
        assert_eq!(cfg.visible_capacity(dcfg.capacity), (1 << 16) + (1 << 20));
        let mut eng = TierEngine::new(cfg, &dcfg, LINE);
        let mut dram = Dram::new(dcfg);
        eng.access(
            &mut dram,
            MAddr::new(0x100),
            AccessKind::Load,
            LINE,
            0,
            false,
        )
        .unwrap();
        eng.access(
            &mut dram,
            MAddr::new(1 << 16),
            AccessKind::Load,
            LINE,
            0,
            false,
        )
        .unwrap();
        let s = eng.stats();
        assert_eq!((s.flat_dram, s.flat_scm), (1, 1));
        assert_eq!(dram.stats().reads, 1);
        assert_eq!(eng.scm_stats().reads, 1);
    }

    #[test]
    fn channel_kill_degrades_flat_to_typed_error_and_cache_to_bypass() {
        // Flat: the killed channel rejects with TierDegraded.
        let dcfg = small_dram_cfg();
        let mut faults = FaultConfig::none();
        faults.tier_fail = Trigger::EveryN { every: 1, phase: 0 };
        let cfg = TierConfig {
            policy: TierPolicy::Flat,
            scm: ScmConfig {
                capacity: 1 << 20,
                ..ScmConfig::default()
            },
            ..TierConfig::default()
        };
        let mut eng = TierEngine::new(cfg, &dcfg, LINE);
        eng.set_faults(&faults);
        let mut dram = Dram::new(dcfg.clone());
        // First access kills one channel; hammer every bank until the
        // dead one rejects.
        let mut saw_reject = false;
        for b in 0..dcfg.banks {
            let addr = MAddr::new(b * dcfg.row_bytes);
            match eng.access(&mut dram, addr, AccessKind::Load, LINE, b, false) {
                Ok(_) => {}
                Err(McError::TierDegraded { channel }) => {
                    assert_eq!(channel, dram.bank_map().bank_of(addr.raw()));
                    saw_reject = true;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(saw_reject, "some bank must be dead after kills");
        assert!(eng.fault_stats().channel_kills >= 1);
        assert!(eng.stats().degraded_rejects >= 1);

        // Cache: the same schedule degrades to bypass, not errors.
        let cfg = TierConfig {
            policy: TierPolicy::Cache,
            scm: ScmConfig {
                capacity: 1 << 20,
                ..ScmConfig::default()
            },
            ..TierConfig::default()
        };
        let mut eng = TierEngine::new(cfg, &dcfg, LINE);
        eng.set_faults(&faults);
        let mut dram = Dram::new(dcfg.clone());
        for i in 0..64u64 {
            eng.access(
                &mut dram,
                MAddr::new(i * LINE),
                AccessKind::Load,
                LINE,
                i,
                false,
            )
            .expect("cache mode never errors on channel kill");
        }
        let f = eng.fault_stats();
        assert!(f.channel_kills >= 1);
        assert!(f.bypass_reads > 0, "dead sets must be served by bypass");
    }

    #[test]
    fn tag_corruption_is_detected_and_refetched() {
        let (mut eng, mut dram) = cache_engine();
        let mut faults = FaultConfig::none();
        faults.tag_corrupt = Trigger::EveryN { every: 2, phase: 0 };
        eng.set_faults(&faults);
        let a = MAddr::new(0x2000);
        let t = eng
            .access(&mut dram, a, AccessKind::Load, LINE, 0, false)
            .unwrap();
        // Re-access: the tag lookup is corrupted (every=2 fires on the
        // plan's next consultation), detected, and refetched from SCM.
        eng.access(&mut dram, a, AccessKind::Load, LINE, t, false)
            .unwrap();
        let f = eng.fault_stats();
        assert!(f.tag_corruptions >= 1);
        assert_eq!(f.tag_corruptions, f.tag_invalidations);
        assert!(
            eng.scm_stats().reads >= 2,
            "corrupted set refetches from SCM"
        );
    }
}

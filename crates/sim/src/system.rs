//! The memory system: TLB + L1 + L2 + bus + Impulse controller.
//!
//! This is the timing heart of the simulator. A load walks the Paint
//! hierarchy: 1-cycle L1 hit; 7-cycle L2 hit; otherwise a bus round trip
//! to the memory controller (≈40 cycles to DRAM, less on a controller
//! prefetch hit, more for a multi-access gather). Writebacks, write
//! allocations, and prefetch fills are *posted*: they occupy the bus and
//! DRAM (creating real contention) but do not stall the CPU.

use impulse_cache::{
    Cache, CacheStats, FlushOutcome, Outcome, StreamBuffers, StreamOutcome, Tlb, TlbStats,
};
use impulse_core::{McError, MemController, TierEngine};
use impulse_dram::Dram;
use impulse_obs::{Attribution, Histogram, MetricsRegistry, Observe, Stage};
use impulse_types::snap::SnapWriter;
use impulse_types::{AccessKind, Cycle, PAddr, TierPolicy, VAddr};

use crate::bus::Bus;
use crate::config::SystemConfig;

/// Snapshot section tag for [`MemorySystem`] (`"MSYS"`).
const TAG_MSYS: u32 = 0x4D53_5953;

/// Demand-access counters, kept separately from per-cache statistics so
/// the paper's load-based ratios are unambiguous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand loads issued by the CPU.
    pub loads: u64,
    /// Loads that hit the L1.
    pub l1_load_hits: u64,
    /// Loads that missed L1 and hit the L2.
    pub l2_load_hits: u64,
    /// Loads served by the memory controller (DRAM or controller SRAM).
    pub mem_loads: u64,
    /// Total cycles spent in loads (including TLB penalties).
    pub load_cycles: u64,
    /// Demand stores issued by the CPU.
    pub stores: u64,
    /// Stores that hit the L1.
    pub store_l1_hits: u64,
    /// Stores that required a memory-level allocation.
    pub store_mem: u64,
    /// Total cycles spent in stores.
    pub store_cycles: u64,
    /// Next-line prefetches issued into the L1.
    pub l1_prefetches: u64,
    /// Loads served by the stream buffers (when configured).
    pub stream_loads: u64,
    /// Lines written back to memory (L2 victims, flushes).
    pub mem_writebacks: u64,
    /// TLB miss penalties taken.
    pub tlb_penalties: u64,
    /// Demand loads whose remapped (shadow) access was rejected by the
    /// controller and fell back to a NACK-degraded non-remapped access.
    pub remap_faults: u64,
    /// Demand loads rejected by a degraded hybrid tier (dead DRAM
    /// channel in flat mode, worn-out SCM line) and NACK-degraded. The
    /// rejection is typed at the controller and counted here — never
    /// silent.
    pub tier_faults: u64,
}

impl MemStats {
    /// L1 load hit ratio (divisor: total loads, as in the paper).
    pub fn l1_ratio(&self) -> f64 {
        ratio(self.l1_load_hits, self.loads)
    }

    /// L2 load hit ratio (divisor: total loads, as in the paper).
    pub fn l2_ratio(&self) -> f64 {
        ratio(self.l2_load_hits, self.loads)
    }

    /// Memory load ratio (divisor: total loads, as in the paper).
    pub fn mem_ratio(&self) -> f64 {
        ratio(self.mem_loads, self.loads)
    }

    /// Average cycles per load.
    pub fn avg_load_time(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_cycles as f64 / self.loads as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The assembled memory system.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    bus: Bus,
    mc: MemController,
    streams: Option<StreamBuffers>,
    t_stream_hit: Cycle,
    t_l1_hit: Cycle,
    t_l2_hit: Cycle,
    t_tlb_miss: Cycle,
    l1_prefetch: bool,
    l1_line: u64,
    l2_line: u64,
    /// Demand-access counters, except the L1 hits since the last reset:
    /// their `loads`/`stores`, `l1_load_hits`/`store_l1_hits` and
    /// `load_cycles`/`store_cycles` are in `l1_hits` until a read folds
    /// them in.
    stats: MemStats,
    /// Where every demand-access cycle went, except the L1 hits' `L1`
    /// cycles, which `l1_hits` holds the same way. Background traffic
    /// (writebacks, prefetch fills, stream fetches) is deliberately not
    /// attributed — it never stalls the CPU, so the folded total equals
    /// `load_cycles + store_cycles` exactly.
    attr: Attribution,
    lat_stream_hit: Histogram,
    lat_mem: Histogram,
    /// Demand-load latencies, except the L1 hits since the last reset:
    /// those are in `l1_hits` until a read folds them in.
    lat_load: Histogram,
    /// Demand-store latencies, with the same exception as `lat_load`.
    lat_store: Histogram,
    /// L1 hits since the last reset, by `[kind][walked]` (kind [`LOAD`]
    /// or [`STORE`]; walked when the access took a TLB walk). Each one is
    /// an access, an L1 hit, `t_l1_hit` cycles charged to the L1 and a
    /// latency sample of `t_l1_hit`, plus `t_tlb_miss` if walked, so the
    /// hit path adds 1 here and writes no other counter.
    ///
    /// The TLB and the L1 are driven through their uncounted entry
    /// points, so their lookup, hit and demand-access counters are
    /// folded too (see [`MemorySystem::tlb_stats`] and
    /// [`MemorySystem::l1_stats`]).
    l1_hits: [[u64; 2]; 2],
}

/// `l1_hits` row of demand loads.
const LOAD: usize = 0;
/// `l1_hits` row of demand stores.
const STORE: usize = 1;

/// A histogram of `n` samples of the constant `v`.
fn constant_histogram(v: Cycle, n: u64) -> Histogram {
    let mut h = Histogram::new();
    h.record_n(v, n);
    h
}

impl MemorySystem {
    /// Assembles the hierarchy from a configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let dram = Dram::new(cfg.dram.clone());
        let mut mc = MemController::new(dram, cfg.mc.clone());
        if cfg.tier.policy != TierPolicy::None {
            // Attach before set_faults so the tier's fault planes (SCM
            // bit errors, tag corruption, tier-fail) get wired too.
            mc.attach_tier(TierEngine::new(
                cfg.tier.clone(),
                &cfg.dram,
                cfg.mc.line_bytes,
            ));
        }
        let mut bus = Bus::new(cfg.bus);
        if !cfg.faults.is_none() {
            // Distribute per-site injectors: DRAM flips + ECC and pgtbl
            // corruption live behind the controller, timeouts at the bus.
            mc.set_faults(&cfg.faults);
            if let Some(inj) = cfg.faults.timeout_injector() {
                bus.set_fault_injector(inj);
            }
        }
        Self {
            l1: Cache::new(cfg.l1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            tlb: Tlb::new(cfg.tlb),
            bus,
            mc,
            streams: cfg.stream.map(StreamBuffers::new),
            t_stream_hit: 2,
            t_l1_hit: cfg.t_l1_hit,
            t_l2_hit: cfg.t_l2_hit,
            t_tlb_miss: cfg.t_tlb_miss,
            l1_prefetch: cfg.l1_prefetch,
            l1_line: cfg.l1.line,
            l2_line: cfg.l2.line,
            stats: MemStats::default(),
            attr: Attribution::new(),
            lat_stream_hit: Histogram::new(),
            lat_mem: Histogram::new(),
            lat_load: Histogram::new(),
            lat_store: Histogram::new(),
            l1_hits: [[0; 2]; 2],
        }
    }

    /// Demand-access statistics, with the tallied L1 hits folded in.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        let (loads, load_cycles) = self.l1_hits_of(LOAD);
        s.loads += loads;
        s.l1_load_hits += loads;
        s.load_cycles += load_cycles;
        let (stores, store_cycles) = self.l1_hits_of(STORE);
        s.stores += stores;
        s.store_l1_hits += stores;
        s.store_cycles += store_cycles;
        s
    }

    /// TLB miss penalties taken: the one counter the machine reads per
    /// access, without folding the rest of [`MemorySystem::stats`].
    #[inline(always)]
    pub(crate) fn tlb_penalties(&self) -> u64 {
        self.stats.tlb_penalties
    }

    /// The tallied L1 hits of `kind` and their end-to-end cycles:
    /// `t_l1_hit` each, plus `t_tlb_miss` for each walked one.
    fn l1_hits_of(&self, kind: usize) -> (u64, u64) {
        let [plain, walked] = self.l1_hits[kind];
        let hits = plain + walked;
        (hits, hits * self.t_l1_hit + walked * self.t_tlb_miss)
    }

    /// All tallied L1 hits, loads and stores.
    fn l1_hit_count(&self) -> u64 {
        self.l1_hits.iter().flatten().sum()
    }

    /// Demand accesses (loads and stores) since the last reset.
    pub(crate) fn accesses(&self) -> u64 {
        self.stats.loads + self.stats.stores + self.l1_hit_count()
    }

    /// A copy of the L1 whose statistics are [`MemorySystem::l1_stats`].
    pub fn l1(&self) -> Cache {
        self.l1.clone().with_stats(self.l1_stats())
    }

    /// The L1's statistics. Every demand access probes the L1 once, so
    /// its loads, load hits, stores and store hits are the folded
    /// `loads`, `l1_load_hits`, `stores` and `store_l1_hits` of
    /// [`MemorySystem::stats`]; the L1 counts the rest itself.
    pub fn l1_stats(&self) -> CacheStats {
        let s = self.stats();
        CacheStats {
            loads: s.loads,
            load_hits: s.l1_load_hits,
            stores: s.stores,
            store_hits: s.store_l1_hits,
            ..self.l1.stats()
        }
    }

    /// The L1 itself, for its geometry and contents; its demand counters
    /// are not kept (see [`MemorySystem::l1_stats`]).
    pub(crate) fn l1_contents(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (stats & inspection).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Mutable L2 access, for tests that change one piece of its state.
    #[cfg(test)]
    pub(crate) fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// A copy of the TLB whose statistics are [`MemorySystem::tlb_stats`].
    pub fn tlb(&self) -> Tlb {
        self.tlb.clone().with_stats(self.tlb_stats())
    }

    /// The TLB's statistics. Every demand access makes one lookup, and a
    /// lookup misses exactly when the access pays a TLB penalty, so
    /// `lookups` and `hits` are folded from the demand counts; the TLB
    /// counts its inserts and evictions itself.
    pub fn tlb_stats(&self) -> TlbStats {
        let lookups = self.accesses();
        TlbStats {
            lookups,
            hits: lookups - self.stats.tlb_penalties,
            ..self.tlb.stats()
        }
    }

    /// The system bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The memory controller.
    pub fn mc(&self) -> &MemController {
        &self.mc
    }

    /// Mutable controller access — the OS uses this to download
    /// descriptors and page mappings.
    pub fn mc_mut(&mut self) -> &mut MemController {
        &mut self.mc
    }

    /// Resets all statistics (cache/TLB/DRAM contents are preserved, so a
    /// warmed-up machine can be measured from a clean counter baseline).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.tlb.reset_stats();
        self.bus.reset_stats();
        self.mc.dram_mut().reset_stats();
        self.attr.reset();
        self.lat_stream_hit = Histogram::new();
        self.lat_mem = Histogram::new();
        self.lat_load = Histogram::new();
        self.lat_store = Histogram::new();
        self.l1_hits = [[0; 2]; 2];
    }

    /// Per-stage breakdown of where demand-access cycles went this epoch,
    /// with the tallied L1 hits' cycles folded in.
    pub fn attribution(&self) -> Attribution {
        let mut a = self.attr.clone();
        a.charge(Stage::L1, self.l1_hit_count() * self.t_l1_hit);
        a
    }

    /// Latency distribution of demand loads (end to end, incl. TLB).
    pub fn load_latency(&self) -> Histogram {
        self.fold_l1_hits(&self.lat_load, LOAD)
    }

    /// Latency distribution of demand stores (end to end, incl. TLB).
    pub fn store_latency(&self) -> Histogram {
        self.fold_l1_hits(&self.lat_store, STORE)
    }

    /// A copy of `base` with the tallied L1 hits of `kind` recorded.
    fn fold_l1_hits(&self, base: &Histogram, kind: usize) -> Histogram {
        let [plain, walked] = self.l1_hits[kind];
        let mut h = base.clone();
        h.record_n(self.t_l1_hit, plain);
        h.record_n(self.t_l1_hit + self.t_tlb_miss, walked);
        h
    }

    /// Latency distribution of L1 hits: `t_l1_hit` for each, so built
    /// from the tally.
    fn l1_hit_latency(&self) -> Histogram {
        constant_histogram(self.t_l1_hit, self.l1_hit_count())
    }

    /// Latency distribution of L2 load hits: `t_l2_hit` for each.
    fn l2_hit_latency(&self) -> Histogram {
        constant_histogram(self.t_l2_hit, self.stats.l2_load_hits)
    }

    /// Latency distribution of TLB walks: `t_tlb_miss` for each.
    fn tlb_walk_latency(&self) -> Histogram {
        constant_histogram(self.t_tlb_miss, self.stats.tlb_penalties)
    }

    /// Latency distribution of loads that went to the memory controller
    /// (from L2-miss detection to critical word on the bus).
    pub fn mem_latency(&self) -> &Histogram {
        &self.lat_mem
    }

    /// Performs a demand load of the word at `(v, p)`; `span` is the TLB
    /// reach of the page (from the OS, to support superpages). Returns the
    /// completion cycle.
    ///
    /// The L1-hit half is forced inline and adds 1 to the `l1_hits` tally;
    /// everything past an L1 miss is an out-of-line call.
    #[inline(always)]
    pub fn load(&mut self, v: VAddr, p: PAddr, span: (u64, u64), now: Cycle) -> Cycle {
        let t = self.tlb_check(v, span, now);
        match self.l1.access_uncounted(v, p, AccessKind::Load) {
            Outcome::Hit => {
                self.l1_hits[LOAD][usize::from(t != now)] += 1;
                t + self.t_l1_hit
            }
            miss => self.load_miss(miss, v, p, now, t),
        }
    }

    /// The L1-miss half of [`MemorySystem::load`], from TLB-checked time
    /// `t`: the stream buffers or the L2, the victim's writeback and the
    /// next-line prefetch; counts and records the load.
    #[cold]
    #[inline(never)]
    fn load_miss(&mut self, miss: Outcome, v: VAddr, p: PAddr, now: Cycle, t: Cycle) -> Cycle {
        let Outcome::Miss { writeback } = miss else {
            unreachable!("loads never bypass")
        };
        let done = if self.streams.is_some() {
            self.miss_via_streams(v, p, t)
        } else {
            self.fill_from_l2(v, p, t)
        };
        if let Some(wb) = writeback {
            self.writeback_to_l2(wb, done);
        }
        if self.l1_prefetch {
            self.prefetch_next_l1_line(v, p, done);
        }
        self.lat_load.record(done - now);
        self.stats.loads += 1;
        self.stats.load_cycles += done - now;
        done
    }

    /// L1 miss with stream buffers configured: a head match serves the
    /// line from the buffer; otherwise the miss takes the normal path and
    /// allocates a new next-line stream.
    #[inline(never)]
    fn miss_via_streams(&mut self, v: VAddr, p: PAddr, t: Cycle) -> Cycle {
        let streams = self.streams.as_mut().expect("streams configured");
        match streams.lookup(p, t) {
            StreamOutcome::Hit { ready, fetch } => {
                self.stats.stream_loads += 1;
                let done = ready.max(t) + self.t_stream_hit;
                self.attr.charge(Stage::Stream, done - t);
                self.lat_stream_hit.record(done - t);
                // The demand L1 access already allocated the line (the
                // cache model fills on miss), so the rest of the line
                // hits the L1 — Jouppi's transfer-on-hit for free.
                if let Some(line) = fetch {
                    self.stream_fetch(line, done);
                }
                done
            }
            StreamOutcome::Miss { fetches } => {
                let d = self.fill_from_l2(v, p, t);
                for line in fetches.into_iter().flatten() {
                    self.stream_fetch(line, d);
                }
                d
            }
        }
    }

    /// Background fetch of one L1-line-sized block into a stream buffer:
    /// from the L2 if present, else across the bus from the controller
    /// (stream buffers are CPU-side — their traffic pays full bus cost,
    /// which is exactly the contrast with Impulse's remapping).
    fn stream_fetch(&mut self, line: PAddr, start: Cycle) {
        let v = VAddr::new(line.raw()); // L2 is physically indexed
        let ready = if self.l2.probe(v, line) {
            start + self.t_l2_hit
        } else {
            let data_ready = self.mc.read_line(line, start + self.bus.request_latency());
            self.bus.background_transfer(self.l1_line, data_ready)
        };
        if let Some(s) = self.streams.as_mut() {
            s.fill(line, ready);
        }
    }

    /// Programs a McKee-style stream with an explicit physical stride;
    /// returns immediately (fetches run in the background).
    pub fn program_stream(&mut self, base: PAddr, stride: i64, now: Cycle) {
        if self.streams.is_none() {
            return;
        }
        let fetches = self
            .streams
            .as_mut()
            .expect("streams configured")
            .program(base, stride);
        for line in fetches.into_iter().flatten() {
            self.stream_fetch(line, now);
        }
    }

    /// Stream buffer statistics, if configured.
    pub fn stream_stats(&self) -> Option<impulse_cache::StreamStats> {
        self.streams.as_ref().map(|s| s.stats())
    }

    /// Performs a demand store; returns the completion cycle (stores
    /// retire through the write path, so allocations happen in the
    /// background). Split like [`MemorySystem::load`].
    #[inline(always)]
    pub fn store(&mut self, v: VAddr, p: PAddr, span: (u64, u64), now: Cycle) -> Cycle {
        let t = self.tlb_check(v, span, now);
        if let Some(s) = self.streams.as_mut() {
            s.invalidate(p);
        }
        match self.l1.access_uncounted(v, p, AccessKind::Store) {
            Outcome::Hit => {
                self.l1_hits[STORE][usize::from(t != now)] += 1;
                t + self.t_l1_hit
            }
            miss => self.store_miss(miss, v, p, now, t),
        }
    }

    /// The L1-miss half of [`MemorySystem::store`]; counts and records
    /// the store.
    #[cold]
    #[inline(never)]
    fn store_miss(&mut self, miss: Outcome, v: VAddr, p: PAddr, now: Cycle, t: Cycle) -> Cycle {
        let done = match miss {
            // Write-around L1: the store proceeds to the L2.
            Outcome::Bypass => self.store_to_l2(v, p, t),
            // A write-allocate L1 (non-Paint configuration): fill, dirty.
            Outcome::Miss { writeback } => {
                let d = self.fill_from_l2(v, p, t);
                if let Some(wb) = writeback {
                    self.writeback_to_l2(wb, d);
                }
                d
            }
            Outcome::Hit => unreachable!("the hit half handles hits"),
        };
        self.lat_store.record(done - now);
        self.stats.stores += 1;
        self.stats.store_cycles += done - now;
        done
    }

    /// The TLB check of a demand access: returns `now` on a hit, and the
    /// walk's end on a miss.
    #[inline(always)]
    fn tlb_check(&mut self, v: VAddr, span: (u64, u64), now: Cycle) -> Cycle {
        if self.tlb.lookup_uncounted(v.page_number()) {
            now
        } else {
            self.tlb_miss(span, now)
        }
    }

    /// The miss half of [`MemorySystem::tlb_check`]: inserts the page's
    /// entry and charges the walk.
    #[cold]
    #[inline(never)]
    fn tlb_miss(&mut self, span: (u64, u64), now: Cycle) -> Cycle {
        self.tlb.insert(span.0, span.1);
        self.stats.tlb_penalties += 1;
        self.attr.charge(Stage::Mmu, self.t_tlb_miss);
        now + self.t_tlb_miss
    }

    /// Load path below the L1: L2 lookup, then memory on a miss.
    #[inline(never)]
    fn fill_from_l2(&mut self, v: VAddr, p: PAddr, t: Cycle) -> Cycle {
        match self.l2.access(v, p, AccessKind::Load) {
            Outcome::Hit => {
                self.stats.l2_load_hits += 1;
                self.attr.charge(Stage::L2, self.t_l2_hit);
                t + self.t_l2_hit
            }
            Outcome::Miss { writeback } => {
                self.stats.mem_loads += 1;
                self.attr.charge(Stage::L2, self.t_l2_hit);
                self.attr.charge(Stage::Bus, self.bus.request_latency());
                let request = t + self.t_l2_hit + self.bus.request_latency();
                let (data_ready, bd) = match self.mc.try_read_line_attributed(p, request) {
                    Ok(r) => r,
                    Err(e) => {
                        // A misconfigured or torn-down remapping — or a
                        // degraded hybrid tier — degrades to a NACKed
                        // access instead of aborting the machine; the
                        // controller counts the rejection and the
                        // infallible path charges the bounce.
                        match e {
                            McError::TierDegraded { .. } | McError::LineRetired { .. } => {
                                self.stats.tier_faults += 1;
                            }
                            _ => self.stats.remap_faults += 1,
                        }
                        self.mc.read_line_attributed(p, request)
                    }
                };
                self.attr.charge(Stage::McFrontEnd, bd.frontend + bd.sram);
                self.attr.charge(Stage::PgTbl, bd.pgtbl);
                self.attr.charge(Stage::Dram, bd.dram);
                let crit = self.bus.demand_transfer(self.l2_line, data_ready);
                self.attr.charge(Stage::Bus, crit - data_ready);
                self.lat_mem.record(crit - t);
                if let Some(wb) = writeback {
                    self.post_writeback_to_mem(wb, crit);
                }
                crit
            }
            Outcome::Bypass => unreachable!("L2 loads never bypass"),
        }
    }

    /// Store that bypassed the write-around L1 and lands in the
    /// write-allocate L2.
    #[inline(never)]
    fn store_to_l2(&mut self, v: VAddr, p: PAddr, t: Cycle) -> Cycle {
        // Every branch retires the store in `t_l2_hit` cycles (write
        // allocation runs in the background), so the demand cost is L2 time.
        self.attr.charge(Stage::L2, self.t_l2_hit);
        match self.l2.access(v, p, AccessKind::Store) {
            Outcome::Hit => t + self.t_l2_hit,
            Outcome::Miss { writeback } => {
                // Write allocation: fetch the line in the background; the
                // store itself retires through the write buffer.
                self.stats.store_mem += 1;
                let request = t + self.t_l2_hit + self.bus.request_latency();
                let data_ready = self.mc.read_line(p, request);
                self.bus.background_transfer(self.l2_line, data_ready);
                if let Some(wb) = writeback {
                    self.post_writeback_to_mem(wb, data_ready);
                }
                t + self.t_l2_hit
            }
            Outcome::Bypass => t + self.t_l2_hit,
        }
    }

    /// A dirty L1 victim is written into the L2 (physically indexed, so
    /// the victim's virtual address is irrelevant). If the L2 no longer
    /// holds the line, the fragment is posted straight to memory.
    fn writeback_to_l2(&mut self, line: PAddr, t: Cycle) {
        let v = VAddr::new(line.raw());
        if self.l2.probe(v, line) {
            self.l2.access(v, line, AccessKind::Store);
        } else {
            self.post_writeback_to_mem(line, t);
        }
    }

    /// Posts a dirty line to memory: occupies the bus and DRAM, stalls
    /// nobody.
    fn post_writeback_to_mem(&mut self, line: PAddr, t: Cycle) {
        self.stats.mem_writebacks += 1;
        let arrival = self.bus.background_transfer(self.l2_line, t);
        self.mc.write_line(line, arrival);
    }

    /// Hardware next-line prefetch into the L1 (HP PA 7200 style): on a
    /// demand L1 load miss, fetch the next 32-byte line. Never crosses a
    /// page (physical contiguity is only guaranteed within one).
    fn prefetch_next_l1_line(&mut self, v: VAddr, p: PAddr, t: Cycle) {
        let v_next = v.align_down(self.l1_line).add(self.l1_line);
        if v_next.page_number() != v.page_number() {
            return;
        }
        let p_next = p.align_down(self.l1_line).add(self.l1_line);
        if self.l1.probe(v_next, p_next) {
            return;
        }
        self.stats.l1_prefetches += 1;
        if !self.l2.probe(v_next, p_next) {
            // Pull the containing L2 line from memory in the background —
            // this is the L2/bus contention the paper observes when cache
            // prefetching misfires.
            let data_ready = self.mc.read_line(p_next, t + self.bus.request_latency());
            self.bus.background_transfer(self.l2_line, data_ready);
            if let Some(wb) = self.l2.prefetch_fill(v_next, p_next) {
                self.post_writeback_to_mem(wb, data_ready);
            }
        }
        if let Some(wb) = self.l1.prefetch_fill(v_next, p_next) {
            self.writeback_to_l2(wb, t);
        }
    }

    /// Flushes (writes back + invalidates) one L1-line-sized block from
    /// both caches. Returns `true` if anything was present.
    pub fn flush_line(&mut self, v: VAddr, p: PAddr, now: Cycle) -> bool {
        let mut present = false;
        match self.l1.flush_line(v, p) {
            FlushOutcome::Dirty => {
                present = true;
                self.writeback_to_l2(p.align_down(self.l1_line), now);
            }
            FlushOutcome::Clean => present = true,
            FlushOutcome::NotPresent => {}
        }
        match self.l2.flush_line(v, p) {
            FlushOutcome::Dirty => {
                present = true;
                self.post_writeback_to_mem(p.align_down(self.l2_line), now);
            }
            FlushOutcome::Clean => present = true,
            FlushOutcome::NotPresent => {}
        }
        present
    }

    /// Purges (invalidates without writeback) one L1-line-sized block from
    /// both caches.
    pub fn purge_line(&mut self, v: VAddr, p: PAddr) {
        self.l1.purge_line(v, p);
        self.l2.purge_line(v, p);
    }

    /// Drops any TLB entry covering the page of `v` (after the OS changes
    /// a mapping).
    pub fn tlb_shootdown(&mut self, v: VAddr) {
        self.tlb.flush_page(v.page_number());
    }

    /// Flushes the whole TLB (context switch; the model has no ASIDs).
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
    }

    /// Collects every metric in the hierarchy into one registry: the
    /// system's own `mem.*`/`attr.*` namespaces, the caches under
    /// `l1.cache.*`/`l2.cache.*`, and the TLB, bus, controller
    /// (`mc.*`, `mc.pgtbl.*`, `mc.pf.*`, `mc.desc.*`), and DRAM under
    /// their component namespaces.
    pub fn observe_all(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.observe(self);
        let mut tmp = MetricsRegistry::new();
        tmp.observe(&self.l1_stats());
        m.absorb("l1", &tmp);
        let mut tmp = MetricsRegistry::new();
        tmp.observe(&self.l2.stats());
        m.absorb("l2", &tmp);
        m.observe(&self.tlb_stats());
        m.observe(&self.bus);
        m.observe(&self.mc);
        m
    }

    /// Serializes the whole hierarchy: caches, TLB, stream buffers, bus,
    /// controller (with DRAM, page table, and descriptors), demand
    /// statistics, cycle attribution, and every latency histogram.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_MSYS);
        self.l1().snap_save(w);
        self.l2.snap_save(w);
        self.tlb().snap_save(w);
        self.bus.snap_save(w);
        self.mc.snap_save(w);
        w.bool(self.streams.is_some());
        if let Some(s) = &self.streams {
            s.snap_save(w);
        }
        let s = self.stats();
        for v in [
            s.loads,
            s.l1_load_hits,
            s.l2_load_hits,
            s.mem_loads,
            s.load_cycles,
            s.stores,
            s.store_l1_hits,
            s.store_mem,
            s.store_cycles,
            s.l1_prefetches,
            s.stream_loads,
            s.mem_writebacks,
            s.tlb_penalties,
            s.remap_faults,
            s.tier_faults,
        ] {
            w.u64(v);
        }
        let attr = self.attribution();
        for stage in Stage::ALL {
            w.u64(attr.get(stage));
        }
        for h in [
            &self.l1_hit_latency(),
            &self.l2_hit_latency(),
            &self.lat_stream_hit,
            &self.lat_mem,
            &self.tlb_walk_latency(),
            &self.load_latency(),
            &self.store_latency(),
        ] {
            w.u64_slice(&h.state_words());
        }
    }
}

impl Observe for MemorySystem {
    fn observe(&self, m: &mut MetricsRegistry) {
        let s = self.stats();
        m.counter("mem.loads", s.loads);
        m.counter("mem.l1_load_hits", s.l1_load_hits);
        m.counter("mem.l2_load_hits", s.l2_load_hits);
        m.counter("mem.mem_loads", s.mem_loads);
        m.counter("mem.load_cycles", s.load_cycles);
        m.counter("mem.stores", s.stores);
        m.counter("mem.store_l1_hits", s.store_l1_hits);
        m.counter("mem.store_mem", s.store_mem);
        m.counter("mem.store_cycles", s.store_cycles);
        m.counter("mem.l1_prefetches", s.l1_prefetches);
        m.counter("mem.stream_loads", s.stream_loads);
        m.counter("mem.mem_writebacks", s.mem_writebacks);
        m.counter("mem.tlb_penalties", s.tlb_penalties);
        m.counter("mem.remap_faults", s.remap_faults);
        m.counter("mem.tier_faults", s.tier_faults);
        m.gauge("mem.avg_load_time", s.avg_load_time());
        m.histogram("mem.lat_l1_hit", &self.l1_hit_latency());
        m.histogram("mem.lat_l2_hit", &self.l2_hit_latency());
        m.histogram("mem.lat_stream_hit", &self.lat_stream_hit);
        m.histogram("mem.lat_mem", &self.lat_mem);
        m.histogram("mem.lat_tlb_walk", &self.tlb_walk_latency());
        m.histogram("mem.lat_load", &self.load_latency());
        m.histogram("mem.lat_store", &self.store_latency());
        let attr = self.attribution();
        for (stage, cycles) in attr.entries() {
            m.counter(&format!("attr.{}", stage.name()), cycles);
        }
        m.counter("attr.total", attr.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(l1_prefetch: bool, mc_prefetch: bool) -> MemorySystem {
        let cfg = SystemConfig::paint_small().with_prefetch(mc_prefetch, l1_prefetch);
        MemorySystem::new(&cfg)
    }

    fn va(x: u64) -> VAddr {
        VAddr::new(x)
    }
    fn pa(x: u64) -> PAddr {
        PAddr::new(x)
    }
    const NO_SPAN: (u64, u64) = (0, 1);

    fn span_of(v: VAddr) -> (u64, u64) {
        (v.page_number(), 1)
    }

    #[test]
    fn first_load_pays_memory_latency() {
        let mut ms = system(false, false);
        let done = ms.load(va(0x10000), pa(0x10000), span_of(va(0x10000)), 0);
        // TLB miss (30) + memory path (~40).
        assert!((60..=90).contains(&done), "cold load took {done}");
        assert_eq!(ms.stats().mem_loads, 1);
    }

    #[test]
    fn l1_hit_is_single_cycle() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t1 = ms.load(v, pa(0x10000), span_of(v), 0);
        let t2 = ms.load(v, pa(0x10000), span_of(v), t1);
        assert_eq!(t2 - t1, 1);
        assert_eq!(ms.stats().l1_load_hits, 1);
    }

    #[test]
    fn l2_hit_is_seven_cycles() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t1 = ms.load(v, pa(0x10000), span_of(v), 0);
        // Same 128-byte L2 line, different 32-byte L1 line.
        let v2 = va(0x10040);
        let t2 = ms.load(v2, pa(0x10040), span_of(v2), t1);
        assert_eq!(t2 - t1, 7);
        assert_eq!(ms.stats().l2_load_hits, 1);
    }

    #[test]
    fn ratios_sum_to_one_for_loads() {
        let mut ms = system(false, false);
        let mut t = 0;
        for i in 0..1000u64 {
            let v = va(0x10000 + i * 56);
            t = ms.load(v, pa(0x10000 + i * 56), span_of(v), t);
        }
        let s = ms.stats();
        assert_eq!(s.loads, 1000);
        assert_eq!(s.l1_load_hits + s.l2_load_hits + s.mem_loads, s.loads);
        let total = s.l1_ratio() + s.l2_ratio() + s.mem_ratio();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn store_hits_update_in_place() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t1 = ms.load(v, pa(0x10000), span_of(v), 0);
        let t2 = ms.store(v, pa(0x10000), span_of(v), t1);
        assert_eq!(t2 - t1, 1);
        assert_eq!(ms.stats().store_l1_hits, 1);
    }

    #[test]
    fn store_miss_writes_around_l1() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        // Cold store: L1 bypass, L2 write-allocate in background.
        ms.store(v, pa(0x10000), span_of(v), 0);
        assert_eq!(ms.stats().store_mem, 1);
        assert!(
            !ms.l1().probe(v, pa(0x10000)),
            "write-around must not fill L1"
        );
        assert!(ms.l2().probe(v, pa(0x10000)), "write-allocate must fill L2");
    }

    #[test]
    fn l1_prefetch_makes_streams_cheaper() {
        let run = |l1pf: bool| {
            let mut ms = system(l1pf, false);
            let mut t = 0;
            for i in 0..512u64 {
                let v = va(0x10000 + i * 8);
                t = ms.load(v, pa(0x10000 + i * 8), span_of(v), t);
            }
            (t, ms.stats())
        };
        let (t_off, _) = run(false);
        let (t_on, s_on) = run(true);
        assert!(t_on < t_off, "prefetch on: {t_on}, off: {t_off}");
        assert!(s_on.l1_prefetches > 0);
    }

    #[test]
    fn tlb_miss_charged_once_per_page() {
        let mut ms = system(false, false);
        let mut t = 0;
        for i in 0..16u64 {
            let v = va(0x10000 + i * 8);
            t = ms.load(v, pa(0x10000 + i * 8), span_of(v), t);
        }
        assert_eq!(ms.stats().tlb_penalties, 1);
    }

    #[test]
    fn superpage_span_covers_many_pages() {
        let mut ms = system(false, false);
        let mut t = 0;
        // All loads report a 16-page superpage starting at page 16.
        for i in 0..16u64 {
            let v = va((16 + i) * 4096);
            t = ms.load(v, pa(0x100000 + i * 4096), (16, 16), t);
        }
        assert_eq!(ms.stats().tlb_penalties, 1);
    }

    #[test]
    fn flush_line_writes_back_dirty_data() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let p = pa(0x10000);
        let t = ms.load(v, p, span_of(v), 0);
        ms.store(v, p, span_of(v), t);
        let wb_before = ms.stats().mem_writebacks;
        assert!(ms.flush_line(v, p, t));
        assert!(ms.stats().mem_writebacks > wb_before);
        assert!(!ms.l1().probe(v, p));
        assert!(!ms.l2().probe(v, p));
        assert!(!ms.flush_line(v, p, t));
    }

    #[test]
    fn tlb_shootdown_forces_repenalty() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t = ms.load(v, pa(0x10000), span_of(v), 0);
        ms.tlb_shootdown(v);
        ms.load(v, pa(0x10000), span_of(v), t);
        assert_eq!(ms.stats().tlb_penalties, 2);
    }

    #[test]
    fn reset_stats_clears_counters_keeps_contents() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t = ms.load(v, pa(0x10000), span_of(v), 0);
        ms.reset_stats();
        assert_eq!(ms.stats().loads, 0);
        let t2 = ms.load(v, pa(0x10000), span_of(v), t);
        assert_eq!(t2 - t, 1, "contents survive a stats reset");
    }

    #[test]
    fn unused_span_constant_is_single_page() {
        assert_eq!(NO_SPAN.1, 1);
    }

    #[test]
    fn l1_prefetch_stops_at_page_boundary() {
        let mut ms = system(true, false);
        // Miss on the last L1 line of a page: the next line is in another
        // page, whose physical contiguity is unknown — no prefetch.
        let v = va(0x10000 + 4096 - 32);
        ms.load(v, pa(0x20000 + 4096 - 32), span_of(v), 0);
        assert_eq!(ms.stats().l1_prefetches, 0);
        // One line earlier, the prefetch fires.
        let v2 = va(0x20000);
        ms.load(v2, pa(0x30000), span_of(v2), 1000);
        assert_eq!(ms.stats().l1_prefetches, 1);
    }

    #[test]
    fn store_after_load_hits_l1_and_dirties() {
        let mut ms = system(false, false);
        let (v, p) = (va(0x10000), pa(0x10000));
        let t = ms.load(v, p, span_of(v), 0);
        let t2 = ms.store(v, p, span_of(v), t);
        assert_eq!(t2 - t, 1);
        // Evicting via a conflicting line forces the dirty writeback path.
        let (v3, p3) = (va(0x10000 + 32 * 1024), pa(0x10000 + 32 * 1024));
        ms.load(v3, p3, span_of(v3), t2);
        assert!(ms.l1().stats().writebacks > 0);
    }

    #[test]
    fn background_prefetch_consumes_bus_bandwidth() {
        // L1 prefetch fills that miss the L2 pull whole lines over the
        // bus in the background; the bus byte count must show them even
        // though no demand access waited.
        // Touch the *last* L1 line of every other L2 line: each next-line
        // prefetch then drags in an L2 line the program never uses — pure
        // overhead traffic that must show up in the bus counters.
        let run = |l1pf: bool| {
            let mut ms = system(l1pf, false);
            let mut t = 0;
            for i in 0..128u64 {
                let a = 0x100000 + i * 256 + 96;
                t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
            }
            ms.bus().stats()
        };
        let off = run(false);
        let on = run(true);
        assert!(
            on.bytes > off.bytes,
            "prefetch traffic must be visible: {} !> {}",
            on.bytes,
            off.bytes
        );
        assert!(on.transfers > off.transfers);
    }

    #[test]
    fn stream_buffers_serve_sequential_misses() {
        let mk = |streams: bool| {
            let mut cfg = SystemConfig::paint_small();
            if streams {
                cfg = cfg.with_stream_buffers();
            }
            MemorySystem::new(&cfg)
        };
        let run = |mut ms: MemorySystem| {
            let mut t = 0;
            for i in 0..512u64 {
                let a = 0x100000 + i * 8;
                t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
            }
            (t, ms.stats())
        };
        let (t_off, _) = run(mk(false));
        let (t_on, s_on) = run(mk(true));
        assert!(
            s_on.stream_loads > 50,
            "streams serve the walk: {}",
            s_on.stream_loads
        );
        assert!(t_on < t_off, "{t_on} !< {t_off}");
    }

    #[test]
    fn stream_buffers_useless_on_random_accesses() {
        let mut ms = MemorySystem::new(&SystemConfig::paint_small().with_stream_buffers());
        let mut t = 0;
        let mut lcg = 99u64;
        for _ in 0..256 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (0x100000 + ((lcg >> 16) % (1 << 22))) & !7;
            t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
        }
        assert_eq!(
            ms.stats().stream_loads,
            0,
            "irregular access gets no stream hits"
        );
    }

    #[test]
    fn programmed_stream_serves_strided_walk() {
        let mut ms = MemorySystem::new(&SystemConfig::paint_small().with_stream_buffers());
        let stride = 4096i64 + 64; // row-like stride
        ms.program_stream(pa(0x100000), stride, 0);
        let mut t = 1000;
        let mut hits = 0;
        for k in 0..16u64 {
            let a = 0x100000 + k * stride as u64;
            let before = ms.stats().stream_loads;
            t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
            hits += ms.stats().stream_loads - before;
        }
        assert!(hits >= 12, "programmed stream should serve most: {hits}");
    }

    #[test]
    fn store_invalidates_streamed_line() {
        let mut ms = MemorySystem::new(&SystemConfig::paint_small().with_stream_buffers());
        // Allocate a stream, then dirty the next line it holds.
        let t = ms.load(
            va(0x100000),
            pa(0x100000),
            (va(0x100000).page_number(), 1),
            0,
        );
        let t = ms.store(
            va(0x100020),
            pa(0x100020),
            (va(0x100020).page_number(), 1),
            t + 100,
        );
        // The load of the stored line must NOT come from the (stale) buffer.
        let before = ms.stats().stream_loads;
        ms.load(
            va(0x100020),
            pa(0x100020),
            (va(0x100020).page_number(), 1),
            t + 100,
        );
        assert_eq!(ms.stats().stream_loads, before);
    }

    #[test]
    fn attribution_totals_equal_demand_cycles() {
        // Exercise every demand path: cold misses, L1/L2 hits, TLB
        // penalties, stores, prefetch and stream variants.
        for (l1pf, mcpf, streams) in [
            (false, false, false),
            (true, true, false),
            (false, false, true),
        ] {
            let mut cfg = SystemConfig::paint_small().with_prefetch(mcpf, l1pf);
            if streams {
                cfg = cfg.with_stream_buffers();
            }
            let mut ms = MemorySystem::new(&cfg);
            let mut t = 0;
            for i in 0..600u64 {
                let a = 0x100000 + (i * 72) % (1 << 20);
                let v = va(a);
                if i % 5 == 4 {
                    t = ms.store(v, pa(a), span_of(v), t);
                } else {
                    t = ms.load(v, pa(a), span_of(v), t);
                }
            }
            let s = ms.stats();
            assert_eq!(
                ms.attribution().total(),
                s.load_cycles + s.store_cycles,
                "stage totals must sum to demand cycles \
                 (l1pf={l1pf} mcpf={mcpf} streams={streams})"
            );
            assert_eq!(ms.load_latency().count(), s.loads);
            assert_eq!(ms.store_latency().count(), s.stores);
            // Write allocations are background fills, so only demand load
            // fills appear in the memory-path latency distribution.
            assert_eq!(ms.mem_latency().count(), s.mem_loads);
        }
    }

    #[test]
    fn attribution_survives_shadow_gathers() {
        use impulse_core::RemapFn;
        use impulse_types::{MAddr, PvAddr};

        let mut ms = system(false, false);
        let shadow = ms.mc().shadow_base();
        let region = impulse_types::PRange::new(shadow, 4096);
        ms.mc_mut()
            .claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, 1024))
            .unwrap();
        for page in 0..32u64 {
            ms.mc_mut().map_page(page, MAddr::new(page * 4096));
        }
        let mut t = 0;
        for i in 0..16u64 {
            let a = shadow.raw() + i * 32;
            let v = va(a);
            t = ms.load(v, PAddr::new(a), span_of(v), t);
        }
        let s = ms.stats();
        assert_eq!(ms.attribution().total(), s.load_cycles + s.store_cycles);
        assert!(
            ms.attribution().get(Stage::PgTbl) > 0,
            "gathers must charge controller page-table time"
        );
        assert!(ms.attribution().get(Stage::Dram) > 0);
    }

    #[test]
    fn observe_all_collects_every_namespace() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        let t = ms.load(v, pa(0x10000), span_of(v), 0);
        ms.store(v, pa(0x10000), span_of(v), t);

        let reg = ms.observe_all();
        let s = ms.stats();
        assert_eq!(reg.counter_value("mem.loads"), Some(s.loads));
        assert_eq!(
            reg.counter_value("l1.cache.loads"),
            Some(ms.l1().stats().loads)
        );
        assert_eq!(
            reg.counter_value("l2.cache.loads"),
            Some(ms.l2().stats().loads)
        );
        assert_eq!(
            reg.counter_value("tlb.lookups"),
            Some(ms.tlb().stats().lookups)
        );
        assert_eq!(
            reg.counter_value("bus.transfers"),
            Some(ms.bus().stats().transfers)
        );
        assert_eq!(
            reg.counter_value("mc.line_reads"),
            Some(ms.mc().stats().line_reads)
        );
        assert_eq!(
            reg.counter_value("dram.reads"),
            Some(ms.mc().dram().stats().reads)
        );
        assert_eq!(
            reg.counter_value("attr.total"),
            Some(s.load_cycles + s.store_cycles)
        );
        assert!(reg.histogram_value("mem.lat_load").unwrap().count() > 0);
    }

    /// The seven `mem.lat_*` histograms, recorded eagerly: one sample per
    /// access, classified from the [`MemStats`] it moved.
    #[derive(Default)]
    struct EagerLatencies {
        l1_hit: Histogram,
        l2_hit: Histogram,
        stream_hit: Histogram,
        mem: Histogram,
        tlb_walk: Histogram,
        load: Histogram,
        store: Histogram,
    }

    impl EagerLatencies {
        fn record(
            &mut self,
            cfg: &SystemConfig,
            before: MemStats,
            after: MemStats,
            is_load: bool,
            latency: Cycle,
        ) {
            let walk = if after.tlb_penalties > before.tlb_penalties {
                self.tlb_walk.record(cfg.t_tlb_miss);
                cfg.t_tlb_miss
            } else {
                0
            };
            let l1_hits = |s: MemStats| s.l1_load_hits + s.store_l1_hits;
            if l1_hits(after) > l1_hits(before) {
                self.l1_hit.record(cfg.t_l1_hit);
            }
            if after.l2_load_hits > before.l2_load_hits {
                self.l2_hit.record(cfg.t_l2_hit);
            }
            if after.mem_loads > before.mem_loads {
                self.mem.record(latency - walk);
            }
            if after.stream_loads > before.stream_loads {
                self.stream_hit.record(latency - walk);
            }
            if is_load {
                self.load.record(latency);
            } else {
                self.store.record(latency);
            }
        }

        fn assert_matches(&self, ms: &MemorySystem, step: &str) {
            let reg = ms.observe_all();
            for (name, want) in [
                ("mem.lat_l1_hit", &self.l1_hit),
                ("mem.lat_l2_hit", &self.l2_hit),
                ("mem.lat_stream_hit", &self.stream_hit),
                ("mem.lat_mem", &self.mem),
                ("mem.lat_tlb_walk", &self.tlb_walk),
                ("mem.lat_load", &self.load),
                ("mem.lat_store", &self.store),
            ] {
                assert_eq!(reg.histogram_value(name), Some(want), "{name} at {step}");
            }
            assert_eq!(ms.load_latency(), self.load, "load_latency at {step}");
            assert_eq!(ms.store_latency(), self.store, "store_latency at {step}");
        }
    }

    /// The demand counters and `L1` cycles the hit path no longer writes,
    /// counted eagerly: one access per step, classified as an L1 hit by
    /// probing the L1 before the access. They are also the L1's demand
    /// counters.
    #[derive(Default)]
    struct EagerCounts {
        loads: u64,
        l1_load_hits: u64,
        load_cycles: u64,
        stores: u64,
        store_l1_hits: u64,
        store_cycles: u64,
        attr_l1: u64,
    }

    impl EagerCounts {
        fn record(&mut self, cfg: &SystemConfig, l1_hit: bool, is_load: bool, latency: Cycle) {
            let hit = u64::from(l1_hit);
            if is_load {
                self.loads += 1;
                self.l1_load_hits += hit;
                self.load_cycles += latency;
            } else {
                self.stores += 1;
                self.store_l1_hits += hit;
                self.store_cycles += latency;
            }
            self.attr_l1 += hit * cfg.t_l1_hit;
        }

        /// Checks the folds against these counts, and the TLB's against
        /// `tlb`, a twin that took the same lookups, inserts and flushes
        /// through the counting [`Tlb::lookup`].
        fn assert_matches(&self, ms: &MemorySystem, tlb: &Tlb, step: &str) {
            let l1 = ms.l1().stats();
            for (name, got, want) in [
                ("loads", l1.loads, self.loads),
                ("load_hits", l1.load_hits, self.l1_load_hits),
                ("stores", l1.stores, self.stores),
                ("store_hits", l1.store_hits, self.store_l1_hits),
            ] {
                assert_eq!(got, want, "l1().stats().{name} at {step}");
            }
            assert_eq!(ms.l1_stats(), l1, "l1_stats() at {step}");
            let (tlb, want) = (ms.tlb().stats(), tlb.stats());
            assert_eq!(tlb.lookups, want.lookups, "tlb().stats().lookups at {step}");
            assert_eq!(tlb.hits, want.hits, "tlb().stats().hits at {step}");
            assert_eq!(tlb, want, "tlb().stats() at {step}");
            assert_eq!(ms.tlb_stats(), tlb, "tlb_stats() at {step}");
            let s = ms.stats();
            for (name, got, want) in [
                ("loads", s.loads, self.loads),
                ("l1_load_hits", s.l1_load_hits, self.l1_load_hits),
                ("load_cycles", s.load_cycles, self.load_cycles),
                ("stores", s.stores, self.stores),
                ("store_l1_hits", s.store_l1_hits, self.store_l1_hits),
                ("store_cycles", s.store_cycles, self.store_cycles),
            ] {
                assert_eq!(got, want, "stats().{name} at {step}");
            }
            let attr = ms.attribution();
            assert_eq!(attr.get(Stage::L1), self.attr_l1, "attr[L1] at {step}");
            assert_eq!(
                attr.total(),
                self.load_cycles + self.store_cycles,
                "attribution total at {step}"
            );
        }
    }

    #[test]
    fn tallied_and_counter_built_histograms_match_eager_recording() {
        use impulse_types::ident::splitmix64;

        for (n, (l1pf, mcpf, streams)) in [
            (false, false, false),
            (true, true, false),
            (false, false, true),
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = SystemConfig::paint_small().with_prefetch(mcpf, l1pf);
            if streams {
                cfg = cfg.with_stream_buffers();
            }
            let mut ms = MemorySystem::new(&cfg);
            let mut want = EagerLatencies::default();
            let mut counts = EagerCounts::default();
            let mut tlb = Tlb::new(cfg.tlb);
            // Every sample of the run, across resets.
            let mut seen = EagerLatencies::default();
            let mut rng = splitmix64(n as u64);
            let mut next = move || {
                rng = splitmix64(rng);
                rng
            };
            let (mut t, mut cursor) = (0, 0x100000);
            let (mut walked_l1_hits, mut resets) = (0, 0);
            for i in 0..4000u64 {
                let step = format!("config {n}, step {i}");
                let r = next();
                match r % 100 {
                    // A context switch: the next hits on L1-resident
                    // lines take a TLB walk first.
                    0..=2 => {
                        ms.tlb_flush();
                        tlb.flush();
                    }
                    3 => {
                        ms.reset_stats();
                        want = EagerLatencies::default();
                        counts = EagerCounts::default();
                        tlb.reset_stats();
                        resets += 1;
                    }
                    _ => {}
                }
                // Two L1-resident pages, 64 pages that fit the L2, 512 that
                // fit neither, and a sequential walk for the streams.
                let x = next();
                let a = match x % 10 {
                    0..=5 => 0x100000 + x % (2 << 12),
                    6 | 7 => 0x200000 + x % (64 << 12),
                    8 => 0x400000 + x % (512 << 12),
                    _ => {
                        cursor += 32;
                        cursor
                    }
                } & !7;
                let (v, p) = (va(a), pa(a));
                let before = ms.stats();
                let l1_hit = ms.l1_contents().probe(v, p);
                let is_load = x % 4 != 0;
                let done = if is_load {
                    ms.load(v, p, span_of(v), t)
                } else {
                    ms.store(v, p, span_of(v), t)
                };
                let after = ms.stats();
                if !tlb.lookup(v.page_number()) {
                    tlb.insert(v.page_number(), 1);
                }
                counts.record(&cfg, l1_hit, is_load, done - t);
                if after.tlb_penalties > before.tlb_penalties
                    && after.l1_load_hits + after.store_l1_hits
                        > before.l1_load_hits + before.store_l1_hits
                {
                    walked_l1_hits += 1;
                }
                want.record(&cfg, before, after, is_load, done - t);
                seen.record(&cfg, before, after, is_load, done - t);
                t = done;
                // The counts first: `want` is classified from `stats()`.
                counts.assert_matches(&ms, &tlb, &step);
                want.assert_matches(&ms, &step);
            }
            assert!(
                walked_l1_hits > 20 && resets > 20,
                "config {n} exercises too little: {walked_l1_hits} walked L1 hits, \
                 {resets} resets"
            );
            for (name, h) in [
                ("L1 hits", &seen.l1_hit),
                ("L2 hits", &seen.l2_hit),
                ("memory loads", &seen.mem),
                ("stores", &seen.store),
            ] {
                assert!(h.count() > 100, "config {n} has {} {name}", h.count());
            }
            if streams {
                assert!(seen.stream_hit.count() > 0, "config {n} has no stream hits");
            }
        }
    }

    #[test]
    fn reset_clears_attribution_and_histograms() {
        let mut ms = system(false, false);
        let v = va(0x10000);
        ms.load(v, pa(0x10000), span_of(v), 0);
        assert!(ms.attribution().total() > 0);
        ms.reset_stats();
        assert_eq!(ms.attribution().total(), 0);
        assert_eq!(ms.load_latency().count(), 0);
        assert_eq!(ms.mem_latency().count(), 0);
    }

    #[test]
    fn ecc_corrects_injected_singles_with_zero_data_diff() {
        use impulse_fault::{EccConfig, EccMode, FaultConfig, Trigger};
        let run = |faults: FaultConfig| {
            let cfg = SystemConfig::paint_small().with_faults(faults);
            let mut ms = MemorySystem::new(&cfg);
            let mut t = 0;
            for i in 0..256u64 {
                let a = 0x100000 + i * 136;
                t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
            }
            t
        };
        let clean = run(FaultConfig::none());
        let faults = FaultConfig {
            seed: 1999,
            dram_flip: Trigger::EveryN { every: 4, phase: 0 },
            ecc: EccConfig {
                mode: EccMode::Secded,
                ..EccConfig::default()
            },
            ..FaultConfig::none()
        };
        let cfg = SystemConfig::paint_small().with_faults(faults);
        let mut ms = MemorySystem::new(&cfg);
        let mut t = 0;
        for i in 0..256u64 {
            let a = 0x100000 + i * 136;
            t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
        }
        let ecc = ms.mc().ecc_stats();
        assert!(ecc.corrected > 0, "flips must reach the ECC stage");
        assert_eq!(ecc.detected_double, 0);
        assert_eq!(
            ecc.corrupt_sig, 0,
            "SECDED corrects every single: no data diff"
        );
        assert!(t > clean, "correction penalties must cost cycles");
        // The demand attribution invariant survives fault injection.
        let s = ms.stats();
        assert_eq!(ms.attribution().total(), s.load_cycles + s.store_cycles);
    }

    #[test]
    fn bus_timeouts_slow_the_system_but_stay_bounded() {
        use impulse_fault::{FaultConfig, Trigger};
        let run = |faults: FaultConfig| {
            let cfg = SystemConfig::paint_small().with_faults(faults);
            let mut ms = MemorySystem::new(&cfg);
            let mut t = 0;
            for i in 0..256u64 {
                let a = 0x100000 + i * 136;
                t = ms.load(va(a), pa(a), (va(a).page_number(), 1), t);
            }
            (t, ms.bus().fault_stats())
        };
        let (clean, none) = run(FaultConfig::none());
        assert_eq!(none.timeouts, 0);
        let (faulty, f) = run(FaultConfig {
            seed: 7,
            bus_timeout: Trigger::Permille(200),
            ..FaultConfig::none()
        });
        assert!(f.timeouts > 0);
        assert!(f.retries <= f.timeouts * 3, "retry bound holds end to end");
        assert!(faulty > clean);
        assert_eq!(
            faulty - clean,
            f.recovery_cycles,
            "slowdown is exactly the recovery time"
        );
    }

    #[test]
    fn torn_down_remap_degrades_and_counts() {
        use impulse_core::RemapFn;
        use impulse_types::{MAddr, PvAddr};

        let mut ms = system(false, false);
        let shadow = ms.mc().shadow_base();
        let region = impulse_types::PRange::new(shadow, 4096);
        let desc = ms
            .mc_mut()
            .claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, 1024))
            .unwrap();
        for page in 0..32u64 {
            ms.mc_mut().map_page(page, MAddr::new(page * 4096));
        }
        let v = va(shadow.raw());
        let p = PAddr::new(shadow.raw());
        let t = ms.load(v, p, span_of(v), 0);
        assert_eq!(ms.stats().remap_faults, 0);

        // Tear the descriptor down behind the running workload (a
        // misbehaving process, or a chaos schedule): subsequent shadow
        // loads degrade to NACKs instead of aborting the machine.
        ms.mc_mut().release_descriptor(desc).unwrap();
        let v2 = va(shadow.raw() + 4 * 128); // different L2 line
        let done = ms.load(v2, PAddr::new(v2.raw()), span_of(v2), t);
        assert!(done > t, "the NACKed access still costs time");
        assert_eq!(ms.stats().remap_faults, 1);
        assert_eq!(ms.mc().stats().rejected_reads, 1);
        // Accounting parity: attribution still sums to demand cycles.
        let s = ms.stats();
        assert_eq!(ms.attribution().total(), s.load_cycles + s.store_cycles);
        let reg = ms.observe_all();
        assert_eq!(reg.counter_value("mem.remap_faults"), Some(1));
    }

    #[test]
    fn purge_line_discards_dirty_data() {
        let mut ms = system(false, false);
        let (v, p) = (va(0x10000), pa(0x10000));
        let t = ms.load(v, p, span_of(v), 0);
        ms.store(v, p, span_of(v), t);
        let wb = ms.stats().mem_writebacks;
        ms.purge_line(v, p);
        assert_eq!(ms.stats().mem_writebacks, wb, "purge never writes back");
        assert!(!ms.l1().probe(v, p));
    }
}

//! The Impulse memory controller (MC).
//!
//! Implements the datapath of Figure 3 in the paper. An address arriving
//! from the bus is either a real physical address — passed to the DRAM
//! scheduler, optionally through the 2 KB prefetch SRAM — or a *shadow*
//! address, in which case the matching shadow descriptor is selected, the
//! AddrCalc expands it into pseudo-virtual segments, the controller page
//! table (PgTbl) translates those to DRAM addresses, the DRAM scheduler
//! issues the reads, and the descriptor assembles the returned words into
//! a cache line for the bus.
//!
//! A design goal carried over from the paper: accesses to non-shadow
//! memory take the direct path and are never slowed by the remapping
//! machinery.

use core::fmt;

use impulse_dram::{Dram, SchedulePolicy, Scheduler};
use impulse_fault::{EccConfig, EccStats, FaultConfig};
use impulse_obs::{Histogram, Json, MetricsRegistry, Observe};
use impulse_types::geom::{is_pow2, PAGE_SHIFT, PAGE_SIZE};
use impulse_types::{AccessKind, Cycle, MAddr, PAddr, PRange, PvAddr};

use crate::desc::{DescError, DescStats, ShadowDescriptor};
use crate::flight::{self, FlightGeom, FlightRecorder, HitClass};
use crate::pgtbl::{PgTbl, PgTblConfig, PgTblStats};
use crate::prefetch::{PrefetchCache, PrefetchStats};
use crate::remap::{RemapFn, Segment};
use crate::tier::{TierEngine, TierStats};

/// Identifier of a configured shadow descriptor slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DescId(usize);

impl DescId {
    /// The slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors from descriptor management and the remapped datapath.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McError {
    /// All descriptor slots are configured.
    NoFreeDescriptor,
    /// The descriptor id does not name a configured slot.
    InvalidDescriptor(usize),
    /// The region is not entirely within shadow address space.
    RegionNotShadow(PRange),
    /// The region overlaps an already-configured descriptor.
    RegionOverlap(PRange),
    /// The remapping parameters are malformed (see the inner error).
    BadDescriptor(DescError),
    /// A shadow access matched no configured descriptor — a bus error on
    /// real hardware; the infallible entry points NACK it instead.
    NoDescriptor(PAddr),
    /// A gather touched a pseudo-virtual page with no mapping downloaded
    /// to the controller page table.
    PvUnmapped(u64),
    /// A flat-mode tier access targeted a DRAM channel killed by the
    /// tier-fail fault; the partition it served is offline.
    TierDegraded {
        /// The dead DRAM channel (bank) index.
        channel: u64,
    },
    /// The access touched an SCM line permanently retired by write
    /// wear after the spare pool was exhausted.
    LineRetired {
        /// The dead SCM line index.
        line: u64,
    },
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::NoFreeDescriptor => write!(f, "all shadow descriptors are in use"),
            McError::InvalidDescriptor(i) => write!(f, "descriptor slot {i} is not configured"),
            McError::RegionNotShadow(r) => {
                write!(f, "region {r:?} is not entirely in shadow space")
            }
            McError::RegionOverlap(r) => {
                write!(f, "region {r:?} overlaps a configured shadow region")
            }
            McError::BadDescriptor(e) => write!(f, "malformed shadow descriptor: {e}"),
            McError::NoDescriptor(p) => {
                write!(f, "shadow access to {p:?} matches no descriptor")
            }
            McError::PvUnmapped(page) => {
                write!(
                    f,
                    "pseudo-virtual page {page:#x} is not mapped in the controller"
                )
            }
            McError::TierDegraded { channel } => {
                write!(f, "tier degraded: DRAM channel {channel} is offline")
            }
            McError::LineRetired { line } => {
                write!(f, "SCM line {line:#x} is permanently retired")
            }
        }
    }
}

impl std::error::Error for McError {}

/// Configuration of the Impulse memory controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McConfig {
    /// Fixed controller pipeline overhead per request, cycles.
    pub t_overhead: Cycle,
    /// SRAM (prefetch buffer) read latency, cycles.
    pub t_sram: Cycle,
    /// Bus/L2 line size served by the controller, bytes.
    pub line_bytes: u64,
    /// Capacity of the non-shadow prefetch SRAM (the paper's 2 KB buffer).
    pub prefetch_sram_bytes: u64,
    /// Per-descriptor prefetch buffer size (the paper's 256 bytes).
    pub desc_buffer_bytes: u64,
    /// Number of shadow descriptor slots (the paper models eight).
    pub num_descriptors: usize,
    /// Controller page table configuration.
    pub pgtbl: PgTblConfig,
    /// DRAM scheduling policy. The paper's published results use
    /// [`SchedulePolicy::InOrder`].
    pub sched: SchedulePolicy,
    /// Enable one-block-lookahead prefetch of non-remapped data.
    pub prefetch_nonshadow: bool,
    /// Enable per-descriptor prefetch of remapped (shadow) data.
    pub prefetch_shadow: bool,
    /// Granularity of controller reads of indirection vectors, bytes.
    pub vector_block_bytes: u64,
    /// DRAM burst granularity for gather coalescing, bytes: consecutive
    /// gather segments falling in the same aligned burst are served by
    /// one DRAM access (the controller reads whole bursts regardless, so
    /// sub-burst objects — e.g. byte-granularity channel extraction —
    /// cost one access per burst, not one per object).
    pub coalesce_bytes: u64,
    /// Capacity of the MC transaction flight recorder, in events; `0`
    /// (the default) disables recording entirely — no ring is allocated
    /// and the per-access cost is one `Option` check.
    pub flight_capacity: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            t_overhead: 2,
            t_sram: 1,
            line_bytes: 128,
            prefetch_sram_bytes: 2048,
            desc_buffer_bytes: 256,
            num_descriptors: 8,
            pgtbl: PgTblConfig::default(),
            sched: SchedulePolicy::InOrder,
            prefetch_nonshadow: false,
            prefetch_shadow: false,
            vector_block_bytes: 32,
            coalesce_bytes: 32,
            flight_capacity: 0,
        }
    }
}

/// Top-level controller statistics (component stats are exposed through
/// their own accessors).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McStats {
    /// Non-shadow line reads served.
    pub line_reads: u64,
    /// Non-shadow line writes served.
    pub line_writes: u64,
    /// Shadow line reads served.
    pub shadow_line_reads: u64,
    /// Shadow line writes (scatters) served.
    pub shadow_line_writes: u64,
    /// Reads NACKed by the infallible entry points (no descriptor, or a
    /// pseudo-virtual page with no mapping): the caller falls back to
    /// non-remapped access.
    pub rejected_reads: u64,
    /// Writes NACKed by the infallible entry points.
    pub rejected_writes: u64,
}

/// Where the cycles of one controller line read went, stage by stage.
///
/// Produced by [`MemController::read_line_attributed`]; the four fields
/// always sum exactly to the read's total latency (`done - now`), so a
/// caller can fold them into a system-wide cycle-attribution table without
/// double counting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McBreakdown {
    /// Fixed controller pipeline overhead.
    pub frontend: Cycle,
    /// Prefetch-SRAM / descriptor-buffer access (including waiting out an
    /// in-flight background fill).
    pub sram: Cycle,
    /// Controller page-table translation (TLB-miss walks).
    pub pgtbl: Cycle,
    /// DRAM array time (bank wait, row activation, data transfer).
    pub dram: Cycle,
}

impl McBreakdown {
    /// Sum over all stages — equals the read's total latency.
    pub fn total(&self) -> Cycle {
        self.frontend + self.sram + self.pgtbl + self.dram
    }
}

/// The Impulse memory controller.
#[derive(Clone, Debug, PartialEq)]
pub struct MemController {
    cfg: McConfig,
    dram: Dram,
    sched: Scheduler,
    pgtbl: PgTbl,
    pf: PrefetchCache,
    descs: Vec<Option<ShadowDescriptor>>,
    shadow_base: u64,
    stats: McStats,
    seg_scratch: Vec<Segment>,
    merge_scratch: Vec<(MAddr, u64)>,
    lat_direct: Histogram,
    lat_pf_hit: Histogram,
    lat_shadow: Histogram,
    lat_shadow_hit: Histogram,
    ecc: EccConfig,
    ecc_stats: EccStats,
    /// Boxed so the (large, rarely enabled) flight ring costs the common
    /// path one pointer.
    flight: Option<Box<FlightRecorder>>,
    /// The hybrid-memory tier engine (SCM + policy state); `None` on a
    /// classic single-tier machine, which keeps the direct DRAM path.
    tier: Option<Box<TierEngine>>,
}

/// Drains pending injected bit flips from the DRAM array and runs them
/// through the controller's ECC logic. Returns the total latency penalty
/// to charge on the current return path.
/// A descriptor slot index as a flight-recorder nibble. Slots at or
/// above 15 are unrepresentable in the codec and collapse to 14; the
/// paper's controller has eight slots, so this never fires in practice.
fn desc_nibble(idx: usize) -> Option<u8> {
    Some(u8::try_from(idx).map_or(14, |v| v.min(14)))
}

fn scrub_flips(dram: &mut Dram, ecc: &EccConfig, stats: &mut EccStats) -> Cycle {
    let mut penalty = 0;
    for (addr, flip) in dram.take_flips() {
        let (outcome, t) = ecc.check(flip);
        penalty += stats.absorb(outcome, t, addr);
    }
    penalty
}

/// Routes one data access either straight to DRAM (single-tier machine)
/// or through the tier engine. A free function over the two fields so
/// the gather path, which destructures the controller, can use it too.
fn tier_route(
    tier: &mut Option<Box<TierEngine>>,
    dram: &mut Dram,
    addr: MAddr,
    kind: AccessKind,
    bytes: u64,
    now: Cycle,
    gather: bool,
) -> Result<Cycle, McError> {
    match tier.as_deref_mut() {
        Some(t) => t.access(dram, addr, kind, bytes, now, gather),
        None => Ok(dram.access(addr, kind, bytes, now)),
    }
}

impl MemController {
    /// Builds a controller in front of `dram`. Shadow space is every bus
    /// address at or above the installed DRAM capacity.
    ///
    /// # Panics
    ///
    /// Panics unless the line size, burst (coalescing) granule and
    /// indirection-vector block size are powers of two: the controller
    /// aligns addresses to them with masks.
    pub fn new(dram: Dram, cfg: McConfig) -> Self {
        for (what, v) in [
            ("line size", cfg.line_bytes),
            ("coalescing granule", cfg.coalesce_bytes),
            ("vector block size", cfg.vector_block_bytes),
        ] {
            assert!(
                is_pow2(v),
                "controller {what} must be a power of two (got {v})"
            );
        }
        let shadow_base = dram.config().capacity;
        // Keep the memory-resident page table inside installed DRAM even
        // when simulating small memories.
        let mut pg_cfg = cfg.pgtbl;
        if pg_cfg.table_base.raw() >= shadow_base {
            let reserve = (1u64 << 20).min(shadow_base / 2);
            pg_cfg.table_base = MAddr::new(shadow_base - reserve);
        }
        Self {
            sched: Scheduler::new(cfg.sched),
            pgtbl: PgTbl::new(pg_cfg),
            pf: PrefetchCache::new(cfg.prefetch_sram_bytes, cfg.line_bytes),
            descs: (0..cfg.num_descriptors).map(|_| None).collect(),
            shadow_base,
            stats: McStats::default(),
            seg_scratch: Vec::with_capacity(32),
            merge_scratch: Vec::with_capacity(32),
            lat_direct: Histogram::new(),
            lat_pf_hit: Histogram::new(),
            lat_shadow: Histogram::new(),
            lat_shadow_hit: Histogram::new(),
            ecc: EccConfig::default(),
            ecc_stats: EccStats::default(),
            flight: (cfg.flight_capacity > 0).then(|| {
                Box::new(FlightRecorder::new(
                    cfg.flight_capacity,
                    FlightGeom {
                        line_bytes: cfg.line_bytes,
                        banks: dram.config().banks,
                        row_bytes: dram.config().row_bytes,
                    },
                ))
            }),
            tier: None,
            dram,
            cfg,
        }
    }

    /// Attaches a hybrid-memory tier engine. The bus-visible capacity
    /// changes to the tier's (shadow space moves up accordingly), and
    /// every data access routes through the tier from here on; the
    /// controller page table's walk path stays pinned in DRAM. Call
    /// before [`set_faults`](Self::set_faults) so the tier's fault
    /// planes get wired.
    pub fn attach_tier(&mut self, engine: TierEngine) {
        self.shadow_base = engine.visible_capacity();
        self.tier = Some(Box::new(engine));
    }

    /// The tier engine, when one is attached.
    pub fn tier(&self) -> Option<&TierEngine> {
        self.tier.as_deref()
    }

    /// Mutable access to the tier engine, when one is attached (tests).
    pub fn tier_mut(&mut self) -> Option<&mut TierEngine> {
        self.tier.as_deref_mut()
    }

    /// Tier engine counters (zeros on a single-tier machine).
    pub fn tier_stats(&self) -> TierStats {
        self.tier
            .as_deref()
            .map(TierEngine::stats)
            .unwrap_or_default()
    }

    /// Tier fault counters (zeros when no tier or no tier faults).
    pub fn tier_fault_stats(&self) -> impulse_fault::TierFaultStats {
        self.tier
            .as_deref()
            .map(TierEngine::fault_stats)
            .unwrap_or_default()
    }

    /// ECC bookkeeping for the SCM's raw bit-error stream (zeros on a
    /// single-tier machine).
    pub fn scm_ecc_stats(&self) -> EccStats {
        self.tier
            .as_deref()
            .map(TierEngine::scm_ecc_stats)
            .unwrap_or_default()
    }

    /// Feeds one classified transaction to the flight recorder, if any.
    #[inline]
    fn note_access(&mut self, at: Cycle, addr: u64, class: HitClass, desc: Option<u8>) {
        if let Some(f) = self.flight.as_deref_mut() {
            f.record(at, addr, class, desc);
        }
    }

    /// Attaches deterministic fault injection: DRAM bit flips (checked by
    /// the controller's ECC on the return path) and MC-TLB/page-table
    /// entry corruption. Bus-level faults live in the bus model, not
    /// here. With [`FaultConfig::none`] this is a no-op.
    pub fn set_faults(&mut self, faults: &FaultConfig) {
        self.ecc = faults.ecc;
        if let Some(inj) = faults.flip_injector() {
            self.dram.set_fault_injector(inj);
        }
        if let Some(inj) = faults.pgtbl_injector() {
            self.pgtbl.set_fault_injector(inj);
        }
        if let Some(t) = self.tier.as_deref_mut() {
            t.set_faults(faults);
        }
    }

    /// ECC bookkeeping: corrections, detected doubles, silent corruption
    /// signature, and recovery-cycle attribution.
    pub fn ecc_stats(&self) -> EccStats {
        self.ecc_stats
    }

    /// Page-table corruption/reload counters.
    pub fn pgtbl_fault_stats(&self) -> impulse_fault::PgTblFaultStats {
        self.pgtbl.fault_stats()
    }

    /// The controller configuration.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// First shadow address (= installed DRAM capacity).
    pub fn shadow_base(&self) -> PAddr {
        PAddr::new(self.shadow_base)
    }

    /// Whether a bus address falls in shadow space.
    #[inline]
    pub fn is_shadow(&self, p: PAddr) -> bool {
        p.raw() >= self.shadow_base
    }

    /// Top-level statistics.
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// Resets all controller statistics, including the DRAM's, the
    /// prefetch SRAM's, the page table's, and every descriptor's.
    pub fn reset_stats(&mut self) {
        self.stats = McStats::default();
        self.pf.reset_stats();
        self.pgtbl.reset_stats();
        self.dram.reset_stats();
        for d in self.descs.iter_mut().flatten() {
            d.reset_stats();
        }
        self.lat_direct = Histogram::new();
        self.lat_pf_hit = Histogram::new();
        self.lat_shadow = Histogram::new();
        self.lat_shadow_hit = Histogram::new();
        self.ecc_stats = EccStats::default();
        if let Some(t) = self.tier.as_deref_mut() {
            t.reset_stats();
        }
        if let Some(f) = self.flight.as_deref_mut() {
            f.clear();
        }
    }

    /// The MC transaction flight recorder, when
    /// [`McConfig::flight_capacity`] is non-zero.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_deref()
    }

    /// Exports the controller's heat picture as an `impulse-heatmap-v2`
    /// document: per-bank row-buffer hit/miss/conflict counters plus the
    /// `k` lines the flight ring holds most often, with their exact
    /// counts ([`flight::exact_top`]). `"hot"` is `null` when recording
    /// is off; once the ring has wrapped (`overwritten > 0`) the counts
    /// cover only the events it still holds.
    pub fn heatmap_json(&self, k: usize) -> Json {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("impulse-heatmap-v2".into()));
        doc.set("line_bytes", Json::UInt(self.cfg.line_bytes));
        doc.set("row_bytes", Json::UInt(self.dram.config().row_bytes));
        let banks = self
            .dram
            .bank_heat()
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let mut b = Json::obj();
                b.set("bank", Json::UInt(i as u64));
                b.set("row_hits", Json::UInt(h.row_hits));
                b.set("row_misses", Json::UInt(h.row_misses));
                b.set("row_conflicts", Json::UInt(h.row_conflicts));
                b
            })
            .collect();
        doc.set("banks", Json::Arr(banks));
        let hot = match &self.flight {
            None => Json::Null,
            Some(f) => {
                let mut o = Json::obj();
                o.set("recorded", Json::UInt(f.recorded()));
                o.set("overwritten", Json::UInt(f.overwritten()));
                let entries = flight::exact_top(&f.events())
                    .into_iter()
                    .take(k)
                    .map(|(line, count)| {
                        let mut ent = Json::obj();
                        ent.set("line", Json::UInt(line));
                        ent.set("count", Json::UInt(count));
                        ent
                    })
                    .collect();
                o.set("entries", Json::Arr(entries));
                o
            }
        };
        doc.set("hot", hot);
        doc
    }

    /// Latency distribution of non-shadow line reads served from DRAM.
    pub fn direct_latency(&self) -> &Histogram {
        &self.lat_direct
    }

    /// Latency distribution of line reads served from the prefetch SRAM.
    pub fn pf_hit_latency(&self) -> &Histogram {
        &self.lat_pf_hit
    }

    /// Latency distribution of shadow line reads that ran a full gather.
    pub fn shadow_latency(&self) -> &Histogram {
        &self.lat_shadow
    }

    /// Latency distribution of shadow line reads served from a
    /// descriptor's prefetch buffer.
    pub fn shadow_hit_latency(&self) -> &Histogram {
        &self.lat_shadow_hit
    }

    /// Controller page-table statistics.
    pub fn pgtbl_stats(&self) -> PgTblStats {
        self.pgtbl.stats()
    }

    /// Non-shadow prefetch SRAM statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.pf.stats()
    }

    /// Aggregated statistics across all configured descriptors.
    pub fn desc_stats(&self) -> DescStats {
        let mut total = DescStats::default();
        for d in self.descs.iter().flatten() {
            let s = d.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.buffer_hits += s.buffer_hits;
            total.gathers += s.gathers;
            total.dram_requests += s.dram_requests;
        }
        total
    }

    /// The DRAM array behind the controller.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to the DRAM array (tests, OS-level bookkeeping).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Installs a pseudo-virtual page mapping (the OS "downloads a set of
    /// page mappings" during remap setup).
    pub fn map_page(&mut self, pv_page: u64, frame: MAddr) {
        self.pgtbl.map_page(pv_page, frame);
    }

    /// Claims a free descriptor slot for `region` with remapping `remap`.
    ///
    /// # Errors
    ///
    /// Returns an error if no slot is free, the region is not entirely in
    /// shadow space, it overlaps an already-configured region, or the
    /// remapping parameters are malformed ([`McError::BadDescriptor`]).
    pub fn claim_descriptor(&mut self, region: PRange, remap: RemapFn) -> Result<DescId, McError> {
        if region.start().raw() < self.shadow_base {
            return Err(McError::RegionNotShadow(region));
        }
        if self
            .descs
            .iter()
            .flatten()
            .any(|d| d.region().overlaps(&region))
        {
            return Err(McError::RegionOverlap(region));
        }
        let slot = self
            .descs
            .iter()
            .position(Option::is_none)
            .ok_or(McError::NoFreeDescriptor)?;
        let desc = ShadowDescriptor::new(
            region,
            remap,
            self.cfg.line_bytes,
            self.cfg.desc_buffer_bytes,
        )
        .map_err(McError::BadDescriptor)?;
        self.descs[slot] = Some(desc);
        Ok(DescId(slot))
    }

    /// Releases a descriptor slot.
    ///
    /// # Errors
    ///
    /// Returns an error if the slot is not configured.
    pub fn release_descriptor(&mut self, id: DescId) -> Result<(), McError> {
        match self.descs.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                Ok(())
            }
            _ => Err(McError::InvalidDescriptor(id.0)),
        }
    }

    /// Read-only view of a configured descriptor.
    pub fn descriptor(&self, id: DescId) -> Option<&ShadowDescriptor> {
        self.descs.get(id.0).and_then(Option::as_ref)
    }

    /// Resolves a shadow bus address to the DRAM address it currently
    /// remaps to — the full AddrCalc + PgTbl path, with no timing or
    /// statistics effects. Returns `None` if no descriptor matches or the
    /// pseudo-virtual page is unmapped.
    pub fn resolve_shadow(&self, p: PAddr) -> Option<MAddr> {
        let desc = self.descs.iter().flatten().find(|d| d.matches(p))?;
        let soff = desc.offset_of(p);
        let pv = desc.remap().pv_of(soff);
        self.pgtbl.resolve(pv)
    }

    /// Reads the memory line containing `p`; returns the cycle at which
    /// the line's data is at the controller, ready for the bus.
    ///
    /// A shadow access with no configured descriptor or an unmapped
    /// pseudo-virtual page — a bus error on real hardware — is NACKed:
    /// the controller charges its frontend overhead, counts the rejection
    /// in [`McStats::rejected_reads`], and returns. Callers that need the
    /// cause use [`try_read_line_attributed`](Self::try_read_line_attributed).
    pub fn read_line(&mut self, p: PAddr, now: Cycle) -> Cycle {
        self.read_line_attributed(p, now).0
    }

    /// Like [`read_line`](Self::read_line), but also reports where the
    /// cycles went. The returned breakdown's [`McBreakdown::total`] equals
    /// the read latency (`returned cycle - now`) exactly — including on
    /// the NACK path.
    pub fn read_line_attributed(&mut self, p: PAddr, now: Cycle) -> (Cycle, McBreakdown) {
        match self.try_read_line_attributed(p, now) {
            Ok(r) => r,
            Err(_) => {
                self.stats.rejected_reads += 1;
                self.nack(now)
            }
        }
    }

    /// Fallible line read: the typed cause of a remapped-access failure
    /// instead of a NACK, so the memory system above can degrade the
    /// access (fall back to the non-remapped path) and account for it.
    ///
    /// # Errors
    ///
    /// [`McError::NoDescriptor`] when a shadow address matches no
    /// configured descriptor; [`McError::PvUnmapped`] when a gather
    /// touches a pseudo-virtual page with no downloaded mapping;
    /// [`McError::TierDegraded`] / [`McError::LineRetired`] when an
    /// attached hybrid tier rejects the access (dead DRAM channel in
    /// flat mode, worn-out SCM line).
    pub fn try_read_line_attributed(
        &mut self,
        p: PAddr,
        now: Cycle,
    ) -> Result<(Cycle, McBreakdown), McError> {
        let r = if self.is_shadow(p) {
            self.read_shadow(p, now)
        } else {
            self.read_physical(p, now)
        };
        if r.is_err() {
            self.note_access(now, p.raw(), HitClass::NackRead, None);
        }
        r
    }

    /// Writes the memory line containing `p` (an L2 writeback); returns
    /// the completion cycle. Writes are posted — callers need not stall on
    /// the result — but they do occupy the DRAM. Malformed shadow writes
    /// are NACKed and counted like [`read_line`](Self::read_line)
    /// rejections.
    pub fn write_line(&mut self, p: PAddr, now: Cycle) -> Cycle {
        match self.try_write_line(p, now) {
            Ok(done) => done,
            Err(_) => {
                self.stats.rejected_writes += 1;
                now + self.cfg.t_overhead
            }
        }
    }

    /// Fallible line write; see
    /// [`try_read_line_attributed`](Self::try_read_line_attributed).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`try_read_line_attributed`](Self::try_read_line_attributed).
    pub fn try_write_line(&mut self, p: PAddr, now: Cycle) -> Result<Cycle, McError> {
        let r = if self.is_shadow(p) {
            self.write_shadow(p, now)
        } else {
            self.write_physical(p, now)
        };
        if r.is_err() {
            self.note_access(now, p.raw(), HitClass::NackWrite, None);
        }
        r
    }

    /// The timing of a rejected request: the frontend decodes, finds no
    /// descriptor (or no mapping), and NACKs.
    fn nack(&self, now: Cycle) -> (Cycle, McBreakdown) {
        let bd = McBreakdown {
            frontend: self.cfg.t_overhead,
            ..McBreakdown::default()
        };
        (now + self.cfg.t_overhead, bd)
    }

    // ---- non-shadow path -------------------------------------------------

    fn read_physical(&mut self, p: PAddr, now: Cycle) -> Result<(Cycle, McBreakdown), McError> {
        let mut bd = McBreakdown {
            frontend: self.cfg.t_overhead,
            ..McBreakdown::default()
        };
        let t = now + self.cfg.t_overhead;
        let line = p.align_down(self.cfg.line_bytes);
        if self.cfg.prefetch_nonshadow {
            if let Some(ready) = self.pf.demand_lookup(line, t) {
                self.stats.line_reads += 1;
                let data = ready.max(t) + self.cfg.t_sram;
                bd.sram = data - t;
                self.lat_pf_hit.record(data - now);
                self.note_access(now, line.raw(), HitClass::DirectSramHit, None);
                self.obl_prefetch(line.add(self.cfg.line_bytes), data);
                return Ok((data, bd));
            }
        }
        // Tier errors (dead channel, retired line) propagate before the
        // read is counted: the caller NACKs and accounts the rejection.
        let raw_done = tier_route(
            &mut self.tier,
            &mut self.dram,
            MAddr::new(line.raw()),
            AccessKind::Load,
            self.cfg.line_bytes,
            t,
            false,
        )?;
        self.stats.line_reads += 1;
        bd.dram = raw_done - t;
        // ECC sits on the controller's return path: flips that occurred
        // in the array are corrected (or flagged) here, delaying the data.
        let penalty = scrub_flips(&mut self.dram, &self.ecc, &mut self.ecc_stats);
        bd.frontend += penalty;
        let done = raw_done + penalty;
        self.lat_direct.record(done - now);
        self.note_access(now, line.raw(), HitClass::DirectDram, None);
        if self.cfg.prefetch_nonshadow {
            self.obl_prefetch(line.add(self.cfg.line_bytes), done);
        }
        Ok((done, bd))
    }

    fn write_physical(&mut self, p: PAddr, now: Cycle) -> Result<Cycle, McError> {
        let line = p.align_down(self.cfg.line_bytes);
        // Invalidate before the access: conservative and safe even when
        // the write is then rejected by a degraded tier.
        self.pf.invalidate(line);
        let done = tier_route(
            &mut self.tier,
            &mut self.dram,
            MAddr::new(line.raw()),
            AccessKind::Store,
            self.cfg.line_bytes,
            now + self.cfg.t_overhead,
            false,
        )?;
        self.stats.line_writes += 1;
        self.note_access(now, line.raw(), HitClass::StoreDirect, None);
        Ok(done + scrub_flips(&mut self.dram, &self.ecc, &mut self.ecc_stats))
    }

    /// One-block-lookahead prefetch into the 2 KB SRAM. Speculative:
    /// silently abandoned when the tier rejects the access.
    fn obl_prefetch(&mut self, line: PAddr, start: Cycle) {
        if line.raw() + self.cfg.line_bytes > self.shadow_base {
            return; // next line is not backed by visible memory
        }
        if self.pf.contains(line) {
            return;
        }
        let Ok(done) = tier_route(
            &mut self.tier,
            &mut self.dram,
            MAddr::new(line.raw()),
            AccessKind::Load,
            self.cfg.line_bytes,
            start,
            false,
        ) else {
            return; // speculative: silently abandoned
        };
        let done = done + scrub_flips(&mut self.dram, &self.ecc, &mut self.ecc_stats);
        self.pf.insert(line, done);
    }

    // ---- shadow path -----------------------------------------------------

    fn desc_index(&self, p: PAddr) -> Option<usize> {
        self.descs
            .iter()
            .position(|d| d.as_ref().is_some_and(|d| d.matches(p)))
    }

    fn read_shadow(&mut self, p: PAddr, now: Cycle) -> Result<(Cycle, McBreakdown), McError> {
        let idx = self.desc_index(p).ok_or(McError::NoDescriptor(p))?;
        self.stats.shadow_line_reads += 1;
        let mut bd = McBreakdown {
            frontend: self.cfg.t_overhead,
            ..McBreakdown::default()
        };
        let t = now + self.cfg.t_overhead;
        let line = p.align_down(self.cfg.line_bytes);
        let line_bytes = self.cfg.line_bytes;
        let t_sram = self.cfg.t_sram;

        let Some(desc) = self.descs[idx].as_mut() else {
            return Err(McError::InvalidDescriptor(idx));
        };
        desc.note_read();
        if self.cfg.prefetch_shadow {
            if let Some(ready) = desc.buffer_lookup(line, t) {
                let data = ready.max(t) + t_sram;
                bd.sram = data - t;
                self.lat_shadow_hit.record(data - now);
                self.note_access(now, line.raw(), HitClass::ShadowBufHit, desc_nibble(idx));
                self.shadow_prefetch(idx, line.add(line_bytes), data);
                return Ok((data, bd));
            }
        }
        let (done, gd) = self.gather(idx, line, AccessKind::Load, t)?;
        bd.frontend += gd.frontend;
        bd.pgtbl = gd.pgtbl;
        bd.dram = gd.dram;
        self.lat_shadow.record(done - now);
        self.note_access(now, line.raw(), HitClass::ShadowGather, desc_nibble(idx));
        if self.cfg.prefetch_shadow {
            self.shadow_prefetch(idx, line.add(line_bytes), done);
        }
        Ok((done, bd))
    }

    fn write_shadow(&mut self, p: PAddr, now: Cycle) -> Result<Cycle, McError> {
        let idx = self.desc_index(p).ok_or(McError::NoDescriptor(p))?;
        self.stats.shadow_line_writes += 1;
        let line = p.align_down(self.cfg.line_bytes);
        let Some(desc) = self.descs[idx].as_mut() else {
            return Err(McError::InvalidDescriptor(idx));
        };
        desc.note_write();
        desc.buffer_invalidate(line);
        let done = self
            .gather(idx, line, AccessKind::Store, now + self.cfg.t_overhead)?
            .0;
        self.note_access(now, line.raw(), HitClass::StoreShadow, desc_nibble(idx));
        Ok(done)
    }

    /// Background gather of the next shadow line into the descriptor's
    /// 256-byte buffer. Speculative: silently abandoned if the line's
    /// pseudo-virtual pages are not all mapped (e.g. the color-excluded
    /// holes of a recolored region).
    fn shadow_prefetch(&mut self, idx: usize, line: PAddr, start: Cycle) {
        let Some(desc) = self.descs.get(idx).and_then(Option::as_ref) else {
            return;
        };
        if !desc.matches(line) || desc.buffer_contains(line) {
            return;
        }
        if !self.gather_mapped(idx, line) {
            return;
        }
        let Ok((done, _)) = self.gather(idx, line, AccessKind::Load, start) else {
            return; // speculative: silently abandoned
        };
        let Some(desc) = self.descs.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        desc.buffer_insert(line, done);
    }

    /// Whether every pseudo-virtual page a gather of `line` would touch is
    /// mapped in the controller page table. A run of segments on one page
    /// probes it once.
    fn gather_mapped(&mut self, idx: usize, line: PAddr) -> bool {
        let Self {
            descs,
            pgtbl,
            seg_scratch,
            cfg,
            ..
        } = self;
        let Some(desc) = descs.get(idx).and_then(Option::as_ref) else {
            return false;
        };
        let region = desc.region();
        let soff = desc.offset_of(line);
        let len = cfg.line_bytes.min(region.len() - soff);
        // The page last found mapped.
        let mut last = None;
        let mut mapped = |pv: PvAddr| {
            let page = pv.raw() >> PAGE_SHIFT;
            if last == Some(page) {
                return true;
            }
            let found = pgtbl.is_mapped(pv);
            if found {
                last = Some(page);
            }
            found
        };
        if let Some(vseg) = desc.remap().vector_segment(soff, len) {
            if !mapped(vseg.pv) || !mapped(vseg.pv.add(vseg.bytes - 1)) {
                return false;
            }
        }
        desc.remap().segments(soff, len, seg_scratch);
        seg_scratch
            .iter()
            .all(|seg| mapped(seg.pv) && mapped(seg.pv.add(seg.bytes - 1)))
    }

    /// Performs the gather (or scatter) for one shadow line: indirection
    /// vector reads, AddrCalc expansion, PgTbl translation, and a
    /// scheduled batch of DRAM accesses. Returns the completion cycle and
    /// the split of `done - t0` into stage times (ECC penalties land in
    /// `frontend`); the breakdown's total equals `done - t0` exactly.
    fn gather(
        &mut self,
        idx: usize,
        line: PAddr,
        kind: AccessKind,
        t0: Cycle,
    ) -> Result<(Cycle, McBreakdown), McError> {
        self.gather_pieces::<true>(idx, line, kind, t0)
    }

    /// [`MemController::gather`], translating the pieces of a page run
    /// once (`PAGE_RUNS`, see [`PgTbl::translate_in_run`]) or each piece
    /// on its own (the reference the tests hold the runs to).
    fn gather_pieces<const PAGE_RUNS: bool>(
        &mut self,
        idx: usize,
        line: PAddr,
        kind: AccessKind,
        t0: Cycle,
    ) -> Result<(Cycle, McBreakdown), McError> {
        let Self {
            descs,
            pgtbl,
            dram,
            sched,
            seg_scratch,
            merge_scratch,
            cfg,
            ecc,
            ecc_stats,
            tier,
            ..
        } = self;
        let Some(desc) = descs.get_mut(idx).and_then(Option::as_mut) else {
            return Err(McError::InvalidDescriptor(idx));
        };
        let region = desc.region();
        let soff = desc.offset_of(line);
        let len = cfg.line_bytes.min(region.len() - soff);

        let mut t = t0;
        let mut bd = McBreakdown::default();

        // 1. Indirection-vector reads (scatter/gather mappings only). The
        // vector is read at the controller in `vector_block_bytes` blocks;
        // sequential gathers reuse the most recent block for free.
        if let Some(vseg) = desc.remap().vector_segment(soff, len) {
            let vb = cfg.vector_block_bytes;
            let first = vseg.pv.align_down(vb);
            let end = vseg.pv.raw() + vseg.bytes;
            let mut block = first;
            while block.raw() < end {
                if !desc.vector_block_cached(block) {
                    let (m, ready) = pgtbl.translate(block, dram, t)?;
                    bd.pgtbl += ready - t;
                    t = tier_route(tier, dram, m, AccessKind::Load, vb, ready, true)?;
                    bd.dram += t - ready;
                }
                block = block.add(vb);
            }
        }

        // 2. AddrCalc: expand the shadow line into pseudo-virtual segments.
        desc.remap().segments(soff, len, seg_scratch);

        // 3. PgTbl: translate each segment, split at page boundaries,
        // and coalesce in the same pass: consecutive pieces landing in
        // the same aligned DRAM burst are one access (the DRAM returns
        // whole bursts anyway; the descriptor extracts the useful
        // bytes). The issue list is a reused scratch field: gathers run
        // once per shadow line, and a fresh allocation here dominated
        // the profile.
        let granule = cfg.coalesce_bytes;
        merge_scratch.clear();
        let mut run = None;
        for seg in seg_scratch.iter() {
            let mut pv = seg.pv;
            let mut remaining = seg.bytes;
            while remaining > 0 {
                let take = (PAGE_SIZE - pv.page_offset()).min(remaining);
                let (m, ready) = if PAGE_RUNS {
                    pgtbl.translate_in_run(pv, dram, t, &mut run)?
                } else {
                    pgtbl.translate(pv, dram, t)?
                };
                bd.pgtbl += ready.max(t) - t;
                t = t.max(ready);
                match merge_scratch.last_mut() {
                    Some(last) if m.align_down(granule) == last.0.align_down(granule) => {
                        let end = (m.raw() + take).max(last.0.raw() + last.1);
                        last.1 = end - last.0.raw();
                    }
                    _ => merge_scratch.push((m, take)),
                }
                pv = pv.add(take);
                remaining -= take;
            }
        }

        // 4. Issue the batch: through the DRAM scheduler on a
        // single-tier machine, through the tier engine otherwise (which
        // issues in order, like the paper's published scheduler).
        let done = match tier.as_deref_mut() {
            Some(te) => te.run_batch(dram, merge_scratch, kind, t)?,
            None => sched.issue(dram, merge_scratch, kind, t),
        };
        desc.note_gather(merge_scratch.len() as u64);
        bd.dram += done.saturating_sub(t);
        // One ECC drain covers every DRAM access this gather made (vector
        // reads, page-table walks, and the batch itself).
        let penalty = scrub_flips(dram, ecc, ecc_stats);
        bd.frontend += penalty;
        Ok((done + penalty, bd))
    }
}

impl Observe for MemController {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("mc.line_reads", self.stats.line_reads);
        m.counter("mc.line_writes", self.stats.line_writes);
        m.counter("mc.shadow_line_reads", self.stats.shadow_line_reads);
        m.counter("mc.shadow_line_writes", self.stats.shadow_line_writes);
        m.counter("mc.rejected_reads", self.stats.rejected_reads);
        m.counter("mc.rejected_writes", self.stats.rejected_writes);
        let e = self.ecc_stats;
        m.counter("mc.ecc.corrected", e.corrected);
        m.counter("mc.ecc.detected_double", e.detected_double);
        m.counter("mc.ecc.silent", e.silent);
        m.counter("mc.ecc.corrupt_sig", e.corrupt_sig);
        m.counter("mc.ecc.recovery_cycles", e.recovery_cycles);
        m.histogram("mc.lat_direct", &self.lat_direct);
        m.histogram("mc.lat_pf_hit", &self.lat_pf_hit);
        m.histogram("mc.lat_shadow", &self.lat_shadow);
        m.histogram("mc.lat_shadow_hit", &self.lat_shadow_hit);
        let d = self.desc_stats();
        m.counter("mc.desc.reads", d.reads);
        m.counter("mc.desc.writes", d.writes);
        m.counter("mc.desc.buffer_hits", d.buffer_hits);
        m.counter("mc.desc.gathers", d.gathers);
        m.counter("mc.desc.dram_requests", d.dram_requests);
        if let Some(f) = &self.flight {
            m.counter("mc.flight.recorded", f.recorded());
            m.counter("mc.flight.overwritten", f.overwritten());
            m.counter("mc.flight.held", f.len() as u64);
        }
        if let Some(t) = &self.tier {
            t.observe_into(m);
        }
        let mut tmp = MetricsRegistry::new();
        tmp.observe(&self.pgtbl);
        tmp.observe(&self.pf);
        m.absorb("mc", &tmp);
        self.dram.observe(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_dram::DramConfig;
    use std::sync::Arc;

    const SHADOW: u64 = 1 << 30;

    fn small_dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    fn mc(prefetch_nonshadow: bool, prefetch_shadow: bool) -> MemController {
        MemController::new(
            small_dram(),
            McConfig {
                prefetch_nonshadow,
                prefetch_shadow,
                ..McConfig::default()
            },
        )
    }

    fn map_identity(mcc: &mut MemController, pv_base: u64, frame_base: u64, pages: u64) {
        for i in 0..pages {
            mcc.map_page((pv_base >> 12) + i, MAddr::new(frame_base + i * PAGE_SIZE));
        }
    }

    #[test]
    #[should_panic(expected = "controller coalescing granule must be a power of two")]
    fn non_pow2_controller_geometry_rejected() {
        let _ = MemController::new(
            small_dram(),
            McConfig {
                coalesce_bytes: 48,
                ..McConfig::default()
            },
        );
    }

    #[test]
    fn shadow_boundary_is_dram_capacity() {
        let m = mc(false, false);
        assert_eq!(m.shadow_base(), PAddr::new(SHADOW));
        assert!(!m.is_shadow(PAddr::new(SHADOW - 1)));
        assert!(m.is_shadow(PAddr::new(SHADOW)));
    }

    #[test]
    fn physical_read_goes_straight_to_dram() {
        let mut m = mc(false, false);
        let done = m.read_line(PAddr::new(0x1000), 0);
        assert!(done > 0);
        assert_eq!(m.stats().line_reads, 1);
        assert_eq!(m.dram().stats().reads, 1);
        assert_eq!(m.prefetch_stats().issued, 0);
    }

    #[test]
    fn obl_prefetch_speeds_streaming() {
        let mut m_off = mc(false, false);
        let mut m_on = mc(true, false);
        // Stream four lines; with OBL the later lines should be cheaper.
        let mut t_off = 0;
        let mut t_on = 0;
        for i in 0..4u64 {
            let p = PAddr::new(0x10000 + i * 128);
            let now_off = t_off + 100;
            let now_on = t_on + 100;
            t_off = m_off.read_line(p, now_off);
            t_on = m_on.read_line(p, now_on);
        }
        assert!(m_on.prefetch_stats().hits >= 2);
        assert!(t_on < t_off, "prefetching stream should finish earlier");
    }

    #[test]
    fn obl_does_not_prefetch_into_shadow() {
        let mut m = mc(true, false);
        // Demand the last DRAM line: lookahead would cross into shadow.
        let p = PAddr::new(SHADOW - 128);
        m.read_line(p, 0);
        assert_eq!(m.prefetch_stats().issued, 0);
    }

    #[test]
    fn write_invalidates_prefetched_line() {
        let mut m = mc(true, false);
        let p = PAddr::new(0x2000);
        m.read_line(p, 0); // prefetches 0x2080
        let t = m.read_line(PAddr::new(0x2080), 1000);
        assert_eq!(m.prefetch_stats().hits, 1);
        m.write_line(PAddr::new(0x2080), t);
        // After the write, a read must go to DRAM again (no stale SRAM hit).
        m.read_line(PAddr::new(0x2080), t + 1000);
        assert_eq!(m.prefetch_stats().hits, 1);
    }

    #[test]
    fn claim_validates_regions() {
        let mut m = mc(false, false);
        let not_shadow = PRange::new(PAddr::new(0x1000), 4096);
        assert_eq!(
            m.claim_descriptor(not_shadow, RemapFn::direct(PvAddr::new(0))),
            Err(McError::RegionNotShadow(not_shadow))
        );
        let r1 = PRange::new(PAddr::new(SHADOW), 4096);
        let id = m
            .claim_descriptor(r1, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        let r2 = PRange::new(PAddr::new(SHADOW + 2048), 4096);
        assert_eq!(
            m.claim_descriptor(r2, RemapFn::direct(PvAddr::new(0))),
            Err(McError::RegionOverlap(r2))
        );
        m.release_descriptor(id).unwrap();
        assert!(m
            .claim_descriptor(r2, RemapFn::direct(PvAddr::new(0)))
            .is_ok());
        assert_eq!(
            m.release_descriptor(DescId(7)),
            Err(McError::InvalidDescriptor(7))
        );
    }

    #[test]
    fn descriptor_slots_exhaust() {
        let mut m = mc(false, false);
        for i in 0..8 {
            let r = PRange::new(PAddr::new(SHADOW + i * 4096), 4096);
            m.claim_descriptor(r, RemapFn::direct(PvAddr::new(0)))
                .unwrap();
        }
        let r = PRange::new(PAddr::new(SHADOW + 8 * 4096), 4096);
        assert_eq!(
            m.claim_descriptor(r, RemapFn::direct(PvAddr::new(0))),
            Err(McError::NoFreeDescriptor)
        );
    }

    #[test]
    fn direct_shadow_read_translates_through_pgtbl() {
        let mut m = mc(false, false);
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::direct(PvAddr::new(0x10_0000)))
            .unwrap();
        map_identity(&mut m, 0x10_0000, 0x40_0000, 1);
        let done = m.read_line(PAddr::new(SHADOW + 128), 0);
        assert!(done > 0);
        assert_eq!(m.stats().shadow_line_reads, 1);
        assert_eq!(m.desc_stats().gathers, 1);
        // Direct mapping of a line = a single DRAM request.
        assert_eq!(m.desc_stats().dram_requests, 1);
        assert_eq!(m.pgtbl_stats().walks, 1);
    }

    #[test]
    fn adjacent_gather_segments_coalesce_into_bursts() {
        let mut m = mc(false, false);
        // Byte-granularity channel extraction: 1-byte objects, 4-byte
        // stride. A 128-byte shadow line covers 128 objects spanning 512
        // bytes of DRAM = 16 bursts of 32 bytes, not 128 word reads.
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 1, 4))
            .unwrap();
        map_identity(&mut m, 0, 0, 8);
        m.read_line(PAddr::new(SHADOW), 0);
        assert_eq!(m.desc_stats().dram_requests, 16);
    }

    #[test]
    fn strided_gather_issues_one_request_per_object() {
        let mut m = mc(false, false);
        // 8-byte objects, 1 KB apart: a 128-byte line needs 16 reads.
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, 1024))
            .unwrap();
        map_identity(&mut m, 0, 0, 8); // 16 objects * 1 KB = 4 pages + slack
        m.read_line(PAddr::new(SHADOW), 0);
        assert_eq!(m.desc_stats().dram_requests, 16);
    }

    #[test]
    fn gather_reads_indirection_vector_blocks() {
        let mut m = mc(false, false);
        // Elements 40 bytes apart: never two in one 32-byte burst, so no
        // coalescing — one DRAM read per element.
        let indices = Arc::new((0..64u64).map(|i| (i * 5) % 64).collect::<Vec<_>>());
        let remap = RemapFn::gather(PvAddr::new(0), 8, indices, PvAddr::new(0x8000), 4);
        let region = PRange::new(PAddr::new(SHADOW), 512);
        m.claim_descriptor(region, remap).unwrap();
        map_identity(&mut m, 0, 0, 1); // data page
        map_identity(&mut m, 0x8000, PAGE_SIZE, 1); // vector page
        m.read_line(PAddr::new(SHADOW), 0);
        // 16 element reads + 2 vector block reads (16 elems * 4 B = 64 B).
        assert_eq!(m.dram().stats().reads, 16 + 2 + m.pgtbl_stats().walks);
    }

    #[test]
    fn shadow_prefetch_hides_gather_latency() {
        let mut none = mc(false, false);
        let mut pf = mc(false, true);
        for m in [&mut none, &mut pf] {
            let region = PRange::new(PAddr::new(SHADOW), 4096);
            m.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, 1024))
                .unwrap();
            map_identity(m, 0, 0, 256);
        }
        // Sequential shadow lines far apart in time: the prefetched case
        // should serve the second line almost instantly.
        let mut lat_none = Vec::new();
        let mut lat_pf = Vec::new();
        for i in 0..4u64 {
            let p = PAddr::new(SHADOW + i * 128);
            let now = 10_000 * (i + 1);
            lat_none.push(none.read_line(p, now) - now);
            lat_pf.push(pf.read_line(p, now) - now);
        }
        assert!(lat_pf[1] < lat_none[1] / 2, "{lat_pf:?} vs {lat_none:?}");
        assert!(pf.desc_stats().buffer_hits >= 3);
    }

    #[test]
    fn scatter_write_invalidates_buffer() {
        let mut m = mc(false, true);
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        map_identity(&mut m, 0, 0, 1);
        let t = m.read_line(PAddr::new(SHADOW), 0); // prefetches line 1
        let before = m.desc_stats().buffer_hits;
        m.write_line(PAddr::new(SHADOW + 128), t); // dirties prefetched line
        m.read_line(PAddr::new(SHADOW + 128), t + 10_000);
        // The read after the write may NOT be served from the stale buffer.
        assert_eq!(m.desc_stats().buffer_hits, before);
        assert_eq!(m.stats().shadow_line_writes, 1);
    }

    #[test]
    fn unmapped_shadow_access_degrades_to_nack() {
        let mut m = mc(false, false);
        let p = PAddr::new(SHADOW + 0x100000);
        assert_eq!(
            m.try_read_line_attributed(p, 100),
            Err(McError::NoDescriptor(p))
        );
        // The infallible entry point NACKs: frontend overhead only, no
        // DRAM traffic, rejection counted.
        let (done, bd) = m.read_line_attributed(p, 100);
        assert_eq!(done, 100 + m.config().t_overhead);
        assert_eq!(bd.total(), done - 100);
        assert_eq!(m.stats().rejected_reads, 1);
        assert_eq!(m.stats().shadow_line_reads, 0);
        assert_eq!(m.dram().stats().reads, 0);
    }

    #[test]
    fn unmapped_shadow_write_degrades_to_nack() {
        let mut m = mc(false, false);
        let p = PAddr::new(SHADOW + 0x100000);
        assert_eq!(m.try_write_line(p, 7), Err(McError::NoDescriptor(p)));
        let done = m.write_line(p, 7);
        assert_eq!(done, 7 + m.config().t_overhead);
        assert_eq!(m.stats().rejected_writes, 1);
        assert_eq!(m.dram().stats().writes, 0);
    }

    #[test]
    fn unmapped_pv_page_is_reported_not_fatal() {
        // Descriptor configured, but the OS never downloaded the page
        // mappings: the gather fails with a typed error and the
        // infallible path NACKs instead of aborting the simulation.
        let mut m = mc(false, false);
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::direct(PvAddr::new(0x10_0000)))
            .unwrap();
        let p = PAddr::new(SHADOW + 128);
        assert_eq!(
            m.try_read_line_attributed(p, 0),
            Err(McError::PvUnmapped(0x100))
        );
        let done = m.read_line(p, 0);
        assert_eq!(done, m.config().t_overhead);
        assert_eq!(m.stats().rejected_reads, 1);
    }

    #[test]
    fn claim_rejects_malformed_descriptor_params() {
        let mut m = mc(false, false);
        let misaligned = PRange::new(PAddr::new(SHADOW + 3), 4096);
        assert!(matches!(
            m.claim_descriptor(misaligned, RemapFn::direct(PvAddr::new(0))),
            Err(McError::BadDescriptor(DescError::MisalignedRegion(_)))
        ));
        // The failed claim must not leak its slot: all eight remain free.
        for i in 0..8u64 {
            let r = PRange::new(PAddr::new(SHADOW + i * 4096), 4096);
            m.claim_descriptor(r, RemapFn::direct(PvAddr::new(0)))
                .unwrap();
        }
    }

    #[test]
    fn injected_singles_are_corrected_with_zero_data_diff() {
        use impulse_fault::{FaultConfig, Trigger};
        let mut clean = mc(false, false);
        let mut faulty = mc(false, false);
        faulty.set_faults(&FaultConfig {
            seed: 42,
            dram_flip: Trigger::EveryN { every: 1, phase: 0 },
            ..FaultConfig::none()
        });
        let mut t_clean = 0;
        let mut t_faulty = 0;
        for i in 0..8u64 {
            let p = PAddr::new(0x4000 + i * 128);
            t_clean = clean.read_line(p, t_clean + 10);
            t_faulty = faulty.read_line(p, t_faulty + 10);
        }
        let e = faulty.ecc_stats();
        assert_eq!(e.corrected, 8, "every injected single is corrected");
        assert_eq!(e.detected_double, 0);
        assert_eq!(e.corrupt_sig, 0, "SECDED correction leaves no data diff");
        assert!(e.recovery_cycles > 0);
        assert_eq!(clean.ecc_stats().corrected, 0);
        assert!(t_faulty > t_clean, "correction shows up as latency");
    }

    #[test]
    fn double_bit_flips_are_detected_but_corrupt() {
        use impulse_fault::{FaultConfig, Trigger};
        let mut m = mc(false, false);
        m.set_faults(&FaultConfig {
            seed: 7,
            dram_flip: Trigger::EveryN { every: 1, phase: 0 },
            dram_double_permille: 1000,
            ..FaultConfig::none()
        });
        m.read_line(PAddr::new(0x8000), 0);
        let e = m.ecc_stats();
        assert_eq!(e.detected_double, 1);
        assert_eq!(e.corrected, 0);
        assert_ne!(e.corrupt_sig, 0, "uncorrectable flips dirty the data");
    }

    #[test]
    fn no_ecc_passes_flips_silently() {
        use impulse_fault::{EccMode, FaultConfig, Trigger};
        let mut m = mc(false, false);
        m.set_faults(&FaultConfig {
            seed: 7,
            dram_flip: Trigger::EveryN { every: 1, phase: 0 },
            ecc: EccConfig {
                mode: EccMode::None,
                ..EccConfig::default()
            },
            ..FaultConfig::none()
        });
        let done = m.read_line(PAddr::new(0x8000), 0);
        let e = m.ecc_stats();
        assert_eq!(e.silent, 1);
        assert_ne!(e.corrupt_sig, 0);
        assert_eq!(e.recovery_cycles, 0, "no ECC datapath, no penalty");
        // Same timing as a fault-free read: the corruption is invisible.
        let mut clean = mc(false, false);
        assert_eq!(clean.read_line(PAddr::new(0x8000), 0), done);
    }

    #[test]
    fn breakdown_sums_to_latency_under_ecc_faults() {
        use impulse_fault::{FaultConfig, Trigger};
        let mut m = mc(false, false);
        m.set_faults(&FaultConfig {
            seed: 3,
            dram_flip: Trigger::EveryN { every: 1, phase: 0 },
            ..FaultConfig::none()
        });
        let (done, bd) = m.read_line_attributed(PAddr::new(0x3000), 0);
        assert_eq!(bd.total(), done);
        assert!(
            bd.frontend > m.config().t_overhead,
            "ECC penalty attributed"
        );

        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        map_identity(&mut m, 0, 0, 1);
        let (sdone, sbd) = m.read_line_attributed(PAddr::new(SHADOW), done + 10);
        assert_eq!(sbd.total(), sdone - (done + 10));
    }

    #[test]
    fn breakdown_sums_to_latency_on_every_read_path() {
        // Non-shadow: DRAM miss then prefetch-SRAM hit.
        let mut m = mc(true, false);
        let (done, bd) = m.read_line_attributed(PAddr::new(0x3000), 0);
        assert_eq!(bd.total(), done);
        assert!(bd.dram > 0);
        let now = done + 500;
        let (done2, bd2) = m.read_line_attributed(PAddr::new(0x3080), now);
        assert_eq!(bd2.total(), done2 - now);
        assert!(bd2.sram > 0, "second streamed line should hit the SRAM");
        assert_eq!(bd2.dram, 0);

        // Shadow: full gather then descriptor-buffer hit.
        let mut s = mc(false, true);
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        s.claim_descriptor(region, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        map_identity(&mut s, 0, 0, 1);
        let (gdone, gbd) = s.read_line_attributed(PAddr::new(SHADOW), 0);
        assert_eq!(gbd.total(), gdone);
        assert!(gbd.pgtbl > 0, "first gather pays a page-table walk");
        assert!(gbd.dram > 0);
        let now = gdone + 10_000;
        let (hdone, hbd) = s.read_line_attributed(PAddr::new(SHADOW + 128), now);
        assert_eq!(hbd.total(), hdone - now);
        assert!(hbd.sram > 0, "prefetched shadow line should hit the buffer");
        assert_eq!(hbd.dram, 0);
    }

    #[test]
    fn latency_histograms_track_read_paths() {
        let mut m = mc(true, false);
        m.read_line(PAddr::new(0x3000), 0); // direct
        m.read_line(PAddr::new(0x3080), 5_000); // SRAM hit
        assert_eq!(m.direct_latency().count(), 1);
        assert_eq!(m.pf_hit_latency().count(), 1);
        assert!(m.direct_latency().min() > m.pf_hit_latency().max());
        m.reset_stats();
        assert_eq!(m.direct_latency().count(), 0);
        assert_eq!(m.pf_hit_latency().count(), 0);
    }

    #[test]
    fn observe_exports_component_namespaces() {
        let mut m = mc(false, true);
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        m.claim_descriptor(region, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        map_identity(&mut m, 0, 0, 1);
        m.read_line(PAddr::new(SHADOW), 0);
        m.read_line(PAddr::new(0x1000), 10_000);

        let mut reg = MetricsRegistry::new();
        reg.observe(&m);
        assert_eq!(reg.counter_value("mc.line_reads"), Some(1));
        assert_eq!(reg.counter_value("mc.shadow_line_reads"), Some(1));
        assert_eq!(
            reg.counter_value("mc.pgtbl.walks"),
            Some(m.pgtbl_stats().walks)
        );
        assert_eq!(reg.counter_value("mc.pf.hits"), Some(0));
        assert_eq!(
            reg.counter_value("mc.desc.gathers"),
            Some(m.desc_stats().gathers)
        );
        assert_eq!(
            reg.counter_value("dram.reads"),
            Some(m.dram().stats().reads)
        );
        assert_eq!(reg.histogram_value("mc.lat_shadow").unwrap().count(), 1);
        assert_eq!(reg.histogram_value("mc.lat_direct").unwrap().count(), 1);
    }

    #[test]
    fn page_runs_match_per_piece_translation() {
        // Seeded lines of three remappings, read (gather) and written
        // (scatter) through `gather` on one controller and through the
        // per-piece reference on its twin: every completion and
        // breakdown, and the page-table and DRAM statistics, must agree,
        // with and without a page-table fault injector. 1-byte objects 4
        // bytes apart put a line's 128 pieces on one page; 8-byte objects
        // a page apart put each piece on its own page and cycle 512 pages
        // through the 64-entry MC-TLB.
        use impulse_fault::Trigger;
        use impulse_types::ident::splitmix64;

        let indices = Arc::new(
            (0..1024u64)
                .map(|i| splitmix64(i) % 4096)
                .collect::<Vec<_>>(),
        );
        let remaps = [
            (
                "strided 1/4",
                RemapFn::strided(PvAddr::new(0), 1, 4),
                64 << 10,
            ),
            (
                "strided 8/4096",
                RemapFn::strided(PvAddr::new(0), 8, 4096),
                4096,
            ),
            (
                "gather",
                RemapFn::gather(PvAddr::new(0), 8, indices, PvAddr::new(256 * PAGE_SIZE), 4),
                8 << 10,
            ),
        ];
        for faults in [false, true] {
            for (name, remap, bytes) in &remaps {
                let region = PRange::new(PAddr::new(SHADOW), *bytes);
                let twin = || {
                    let mut m = mc(false, false);
                    if faults {
                        m.set_faults(&FaultConfig {
                            seed: 31,
                            pgtbl_corrupt: Trigger::Permille(50),
                            ..FaultConfig::none()
                        });
                    }
                    m.claim_descriptor(region, remap.clone()).unwrap();
                    map_identity(&mut m, 0, 0, 520);
                    m
                };
                let (mut runs, mut pieces) = (twin(), twin());
                let idx = runs.desc_index(region.start()).unwrap();
                let (mut t, mut x) = (0, splitmix64(*bytes));
                for step in 0..300 {
                    x = splitmix64(x);
                    let line = region.start().add((x >> 8) % (bytes / 128) * 128);
                    let kind = if x % 3 == 0 {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let ctx = format!("{name}, faults {faults}, step {step}");
                    let got = runs.gather(idx, line, kind, t).unwrap();
                    let want = pieces.gather_pieces::<false>(idx, line, kind, t).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(runs.pgtbl_stats(), pieces.pgtbl_stats(), "{ctx}");
                    assert_eq!(runs.dram().stats(), pieces.dram().stats(), "{ctx}");
                    assert_eq!(
                        runs.pgtbl_fault_stats(),
                        pieces.pgtbl_fault_stats(),
                        "{ctx}"
                    );
                    t = got.0;
                }
                let s = runs.pgtbl_stats();
                assert!(
                    s.walks > 0 && s.tlb_hits > 0,
                    "{name} exercises too little: {s:?}"
                );
                if faults {
                    assert!(runs.pgtbl_fault_stats().corruptions > 0, "{name}");
                }
            }
        }
    }

    #[test]
    fn eight_descriptors_serve_interleaved_traffic() {
        let mut m = mc(false, true);
        let mut regions = Vec::new();
        for i in 0..8u64 {
            let r = PRange::new(PAddr::new(SHADOW + i * (1 << 16)), 1 << 14);
            m.claim_descriptor(r, RemapFn::direct(PvAddr::new(i << 24)))
                .unwrap();
            for page in 0..4u64 {
                m.map_page((i << 12) + page, MAddr::new((i << 20) + (page << 12)));
            }
            regions.push(r);
        }
        // Round-robin reads across every descriptor, twice.
        let mut now = 0;
        for round in 0..2u64 {
            for r in &regions {
                now = m.read_line(r.start().add(round * 128), now + 10);
            }
        }
        let s = m.desc_stats();
        assert_eq!(s.reads, 16);
        assert!(s.gathers >= 8);
        assert_eq!(m.stats().shadow_line_reads, 16);
    }

    /// A controller with observability enabled, shadow prefetch on.
    fn observed_mc() -> MemController {
        MemController::new(
            small_dram(),
            McConfig {
                prefetch_nonshadow: true,
                prefetch_shadow: true,
                flight_capacity: 1 << 12,
                ..McConfig::default()
            },
        )
    }

    #[test]
    fn flight_recorder_classifies_every_transaction_kind() {
        use crate::flight::HitClass as H;
        let mut m = observed_mc();
        let region = PRange::new(PAddr::new(SHADOW), 4096);
        let id = m
            .claim_descriptor(region, RemapFn::direct(PvAddr::new(0)))
            .unwrap();
        map_identity(&mut m, 0, 0, 2);
        // Direct path: miss then stream (SRAM hits), plus a store.
        let mut t = 0;
        for i in 0..4u64 {
            t = m.read_line(PAddr::new(0x4000 + i * 128), t + 1000);
        }
        m.write_line(PAddr::new(0x4000), t);
        // Shadow path: gather, buffered re-reads, scatter store.
        for i in 0..3u64 {
            t = m.read_line(PAddr::new(SHADOW + i * 128), t + 10_000);
        }
        m.write_line(PAddr::new(SHADOW), t);
        // NACKs: shadow with no descriptor.
        m.read_line(PAddr::new(SHADOW + 0x10_0000), t);
        m.write_line(PAddr::new(SHADOW + 0x10_0000), t);

        let f = m.flight().expect("flight recorder is enabled");
        assert_eq!(f.overwritten(), 0);
        let events = f.events();
        let have: std::collections::HashSet<H> = events.iter().map(|e| e.class).collect();
        for class in [
            H::DirectDram,
            H::DirectSramHit,
            H::ShadowGather,
            H::ShadowBufHit,
            H::StoreDirect,
            H::StoreShadow,
            H::NackRead,
            H::NackWrite,
        ] {
            assert!(have.contains(&class), "missing {class:?} in {have:?}");
        }
        // Shadow events carry the descriptor slot; direct ones do not.
        for e in &events {
            match e.class {
                H::ShadowGather | H::ShadowBufHit | H::StoreShadow => {
                    assert_eq!(e.desc, Some(id.index() as u8));
                }
                _ => assert_eq!(e.desc, None),
            }
        }
        // Heatmap export carries the schema, per-bank heat, and hot set.
        let doc = m.heatmap_json(8);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("impulse-heatmap-v2")
        );
        let banks = doc.get("banks").and_then(Json::items).unwrap();
        assert_eq!(banks.len() as u64, m.dram().config().banks);
        let hits: u64 = banks
            .iter()
            .map(|b| b.get("row_hits").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(hits, m.dram().stats().row_hits);
        let hot = doc.get("hot").unwrap();
        assert_eq!(
            hot.get("recorded").and_then(Json::as_u64),
            Some(f.recorded())
        );
        assert_eq!(hot.get("overwritten").and_then(Json::as_u64), Some(0));
        let entries: Vec<(u64, u64)> = hot
            .get("entries")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_u64).unwrap();
                (field("line"), field("count"))
            })
            .collect();
        let exact = flight::exact_top(&events);
        assert_eq!(entries, exact[..8.min(exact.len())]);

        // Registry export and reset.
        let mut reg = MetricsRegistry::new();
        m.observe(&mut reg);
        assert_eq!(reg.counter_value("mc.flight.recorded"), Some(f.recorded()));
        m.reset_stats();
        assert!(m.flight().unwrap().is_empty());
    }

    #[test]
    fn disabled_observability_records_nothing() {
        let mut m = mc(false, false);
        m.read_line(PAddr::new(0), 0);
        assert!(m.flight().is_none());
        let doc = m.heatmap_json(8);
        assert_eq!(doc.get("hot"), Some(&Json::Null));
        assert!(doc.get("banks").and_then(Json::items).is_some());
    }
}

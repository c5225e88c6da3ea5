//! The controller page table (PgTbl): pseudo-virtual → physical, with an
//! on-chip TLB backed by main memory.
//!
//! The OS downloads page-grained mappings for every remapped data
//! structure (step 4 of the remapping protocol in Section 2.1). At access
//! time the controller's AddrCalc produces pseudo-virtual addresses; this
//! unit translates them to real DRAM addresses. Translations that miss the
//! on-chip TLB cost a DRAM read of the memory-resident table.

use impulse_dram::Dram;
use impulse_fault::{PgTblFaultStats, PgTblInjector};
use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::geom::{PAGE_SHIFT, PAGE_SIZE};
use impulse_types::{AccessKind, Cycle, FxHashMap, MAddr, PvAddr};

use crate::controller::McError;

/// Configuration of the controller page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PgTblConfig {
    /// On-chip TLB entries.
    pub tlb_entries: usize,
    /// DRAM location of the memory-resident table (for walk reads).
    pub table_base: MAddr,
    /// Bytes read per walk.
    pub walk_bytes: u64,
}

impl Default for PgTblConfig {
    fn default() -> Self {
        Self {
            tlb_entries: 64,
            // Park the table in the top megabyte of a 1 GB DRAM; the OS
            // model reserves this region.
            table_base: MAddr::new((1 << 30) - (1 << 20)),
            walk_bytes: 8,
        }
    }
}

/// Statistics for the controller page table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PgTblStats {
    /// Translations requested.
    pub lookups: u64,
    /// Translations served by the on-chip TLB.
    pub tlb_hits: u64,
    /// Walk reads issued to DRAM.
    pub walks: u64,
}

/// Link value marking either end of the TLB's recency list, and the slot
/// of a page that is not TLB-resident.
const NIL: u32 = u32::MAX;

/// One on-chip TLB entry: the page whose translation is cached, threaded
/// on the recency list by slot index.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TlbEntry {
    page: u64,
    /// The next more recently used slot (`NIL` for the MRU entry).
    newer: u32,
    /// The next less recently used slot (`NIL` for the LRU entry).
    older: u32,
}

/// Controller page table with an on-chip TLB.
#[derive(Clone, Debug, PartialEq)]
pub struct PgTbl {
    cfg: PgTblConfig,
    /// pv page → (frame, TLB slot), with slot `NIL` when the page is not
    /// TLB-resident. A hit is one probe of this map; a miss is one more
    /// for the victim's page.
    map: FxHashMap<u64, (MAddr, u32)>,
    /// Fully-associative TLB over pv pages with exact LRU replacement.
    /// Occupied slots are dense (`0..len`) and threaded on a doubly
    /// linked recency list from `mru` to `lru`. Hits, misses and
    /// evictions are O(1) at any TLB size.
    tlb: Vec<TlbEntry>,
    mru: u32,
    lru: u32,
    stats: PgTblStats,
    /// Optional deterministic corruption of cached entries.
    faults: Option<PgTblInjector>,
}

impl PgTbl {
    /// Builds an empty controller page table. A zero-entry TLB request
    /// is clamped to one entry (the hardware minimum) rather than
    /// rejected; slot indices are 32-bit, so requests above `u32::MAX`
    /// entries are clamped to that.
    pub fn new(cfg: PgTblConfig) -> Self {
        let cfg = PgTblConfig {
            tlb_entries: cfg.tlb_entries.clamp(1, NIL as usize),
            ..cfg
        };
        Self {
            cfg,
            map: FxHashMap::default(),
            tlb: Vec::new(),
            mru: NIL,
            lru: NIL,
            stats: PgTblStats::default(),
            faults: None,
        }
    }

    /// Attaches a deterministic MC-TLB/page-table corruption injector.
    /// Corrupted cached entries are detected at use (parity) and
    /// recovered by re-walking the backing memory-resident table.
    pub fn set_fault_injector(&mut self, injector: PgTblInjector) {
        self.faults = Some(injector);
    }

    /// Corruption/reload counters (zeros when no injector is attached).
    pub fn fault_stats(&self) -> PgTblFaultStats {
        self.faults
            .as_ref()
            .map(PgTblInjector::stats)
            .unwrap_or_default()
    }

    /// Takes slot `s` off the recency list (it keeps its page, and the
    /// page keeps the slot).
    fn unlink(&mut self, s: u32) {
        let TlbEntry { newer, older, .. } = self.tlb[s as usize];
        match newer {
            NIL => self.mru = older,
            n => self.tlb[n as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.tlb[o as usize].newer = newer,
        }
    }

    /// Links slot `s` in as the most recently used entry.
    fn push_mru(&mut self, s: u32) {
        let old_mru = self.mru;
        let e = &mut self.tlb[s as usize];
        e.newer = NIL;
        e.older = old_mru;
        match old_mru {
            NIL => self.lru = s,
            m => self.tlb[m as usize].newer = s,
        }
        self.mru = s;
    }

    /// The slot of a mapped page (`NIL` when not TLB-resident).
    fn slot_mut(&mut self, page: u64) -> &mut u32 {
        &mut self.map.get_mut(&page).expect("TLB pages are mapped").1
    }

    /// Makes slot `s`, already recorded as `page`'s slot in `map`, the
    /// most recently used entry for `page`. `s` is either the next free
    /// slot, the LRU victim (whose page loses its slot), or `page`'s own
    /// slot when a corrupted entry is reloaded.
    fn fill(&mut self, s: u32, page: u64) {
        if s as usize == self.tlb.len() {
            self.tlb.push(TlbEntry {
                page,
                newer: NIL,
                older: NIL,
            });
        } else {
            self.unlink(s);
            let old = std::mem::replace(&mut self.tlb[s as usize].page, page);
            if old != page {
                *self.slot_mut(old) = NIL;
            }
        }
        self.push_mru(s);
    }

    /// Drops TLB slot `s`, whose page was just unmapped. The last slot
    /// moves into the hole, so occupied slots stay dense.
    fn evict(&mut self, s: u32) {
        self.unlink(s);
        self.tlb.swap_remove(s as usize);
        if let Some(&moved) = self.tlb.get(s as usize) {
            match moved.newer {
                NIL => self.mru = s,
                n => self.tlb[n as usize].older = s,
            }
            match moved.older {
                NIL => self.lru = s,
                o => self.tlb[o as usize].newer = s,
            }
            *self.slot_mut(moved.page) = s;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PgTblStats {
        self.stats
    }

    /// Resets statistics (mappings and cached translations are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PgTblStats::default();
    }

    /// Installs (or replaces) the mapping for one pseudo-virtual page.
    ///
    /// `frame` must be page-aligned; the OS allocator only produces
    /// aligned frames, so this is an internal invariant (debug-checked).
    pub fn map_page(&mut self, pv_page: u64, frame: MAddr) {
        debug_assert!(
            frame.raw().is_multiple_of(PAGE_SIZE),
            "page frames must be page-aligned: {frame:?}"
        );
        // A TLB-resident page keeps its slot and recency; its next hit
        // serves the new frame.
        self.map
            .entry(pv_page)
            .and_modify(|e| e.0 = frame)
            .or_insert((frame, NIL));
    }

    /// Removes the mapping for a pseudo-virtual page and drops any cached
    /// translation.
    pub fn unmap_page(&mut self, pv_page: u64) {
        if let Some((_, s)) = self.map.remove(&pv_page) {
            if s != NIL {
                self.evict(s);
            }
        }
    }

    /// Number of installed page mappings.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Whether a pseudo-virtual address has a mapping installed.
    pub fn is_mapped(&self, pv: PvAddr) -> bool {
        self.map.contains_key(&(pv.raw() >> PAGE_SHIFT))
    }

    /// Resolves a pseudo-virtual address to its DRAM address without
    /// timing or statistics effects (for inspection and testing).
    pub fn resolve(&self, pv: PvAddr) -> Option<MAddr> {
        self.map
            .get(&(pv.raw() >> PAGE_SHIFT))
            .map(|(frame, _)| frame.add(pv.page_offset()))
    }

    /// Translates a pseudo-virtual address; returns the DRAM address and
    /// the cycle at which the translation is available (TLB misses pay a
    /// DRAM walk).
    ///
    /// Returns [`McError::PvUnmapped`] if the page was never mapped —
    /// the OS must download mappings before the CPU touches the
    /// corresponding shadow addresses.
    pub fn translate(
        &mut self,
        pv: PvAddr,
        dram: &mut Dram,
        now: Cycle,
    ) -> Result<(MAddr, Cycle), McError> {
        self.stats.lookups += 1;
        let pv_page = pv.raw() >> PAGE_SHIFT;

        // Fault injection: flip bits in the cached copy of this page's
        // entry. The parity check detects it at use; the entry is
        // discarded and reloaded below from the memory-resident table
        // (the authoritative copy), charging the walk as recovery.
        let corrupts = self.faults.as_mut().is_some_and(|f| f.corrupts(now));
        let Some(entry) = self.map.get_mut(&pv_page) else {
            return Err(McError::PvUnmapped(pv_page));
        };
        let (frame, resident) = *entry;
        if resident != NIL && !corrupts {
            self.stats.tlb_hits += 1;
            if resident != self.mru {
                self.unlink(resident);
                self.push_mru(resident);
            }
            return Ok((frame.add(pv.page_offset()), now));
        }
        let reloading_corrupt_entry = resident != NIL;
        let s = if reloading_corrupt_entry {
            if let Some(f) = &mut self.faults {
                f.note_corruption();
            }
            resident
        } else {
            // Claim the slot the page will fill: the next free one, or
            // the LRU victim's when the TLB is full (≥ 1 entry).
            entry.1 = if self.tlb.len() < self.cfg.tlb_entries {
                // `tlb_entries` is clamped to `NIL`, so the index fits.
                self.tlb.len() as u32
            } else {
                self.lru
            };
            entry.1
        };

        // TLB miss: read the memory-resident table entry.
        self.stats.walks += 1;
        let entry_addr = self
            .cfg
            .table_base
            .add((pv_page % (1 << 17)) * self.cfg.walk_bytes);
        let ready = dram.access(entry_addr, AccessKind::Load, self.cfg.walk_bytes, now);
        if reloading_corrupt_entry {
            if let Some(f) = &mut self.faults {
                f.note_reload(ready - now);
            }
        }
        self.fill(s, pv_page);
        Ok((frame.add(pv.page_offset()), ready))
    }

    /// [`PgTbl::translate`] for the next piece of a run, such as the
    /// pieces of one gather. `run` holds the page and frame of the run's
    /// last translation (`None` to start a run). A piece on that page
    /// reuses its frame and only counts a lookup and an on-chip TLB hit:
    /// the page is the most recently used entry, so `translate` would
    /// change nothing else and return `now`. With a fault injector
    /// attached every piece is translated, because the injector draws
    /// once per lookup.
    pub(crate) fn translate_in_run(
        &mut self,
        pv: PvAddr,
        dram: &mut Dram,
        now: Cycle,
        run: &mut Option<(u64, MAddr)>,
    ) -> Result<(MAddr, Cycle), McError> {
        let pv_page = pv.raw() >> PAGE_SHIFT;
        if let Some((page, frame)) = *run {
            if page == pv_page {
                self.stats.lookups += 1;
                self.stats.tlb_hits += 1;
                return Ok((frame.add(pv.page_offset()), now));
            }
        }
        let (m, ready) = self.translate(pv, dram, now)?;
        if self.faults.is_none() {
            *run = Some((pv_page, MAddr::new(m.raw() - pv.page_offset())));
        }
        Ok((m, ready))
    }

    /// Drops all cached translations (mappings stay installed).
    pub fn flush_tlb(&mut self) {
        for e in &self.tlb {
            self.map.get_mut(&e.page).expect("TLB pages are mapped").1 = NIL;
        }
        self.tlb.clear();
        self.mru = NIL;
        self.lru = NIL;
    }
}

impl Observe for PgTbl {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("pgtbl.lookups", self.stats.lookups);
        m.counter("pgtbl.tlb_hits", self.stats.tlb_hits);
        m.counter("pgtbl.walks", self.stats.walks);
        let hit_ratio = if self.stats.lookups == 0 {
            0.0
        } else {
            self.stats.tlb_hits as f64 / self.stats.lookups as f64
        };
        m.gauge("pgtbl.tlb_hit_ratio", hit_ratio);
        if self.faults.is_some() {
            let f = self.fault_stats();
            m.counter("pgtbl.fault.corruptions", f.corruptions);
            m.counter("pgtbl.fault.reloads", f.reloads);
            m.counter("pgtbl.fault.recovery_cycles", f.recovery_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_dram::DramConfig;

    fn cfg(tlb_entries: usize) -> PgTblConfig {
        PgTblConfig {
            tlb_entries,
            table_base: MAddr::new(0x1000_0000),
            walk_bytes: 8,
        }
    }

    fn setup() -> (PgTbl, Dram) {
        (PgTbl::new(cfg(2)), Dram::new(DramConfig::default()))
    }

    #[test]
    fn translate_applies_page_offset() {
        let (mut pt, mut dram) = setup();
        pt.map_page(5, MAddr::new(0x8000));
        let (m, _) = pt
            .translate(PvAddr::new(5 * PAGE_SIZE + 0x123), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0x8123));
    }

    #[test]
    fn first_translation_walks_then_hits() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        let (_, t1) = pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert!(t1 > 0, "miss should pay a walk");
        let (_, t2) = pt
            .translate(PvAddr::new(PAGE_SIZE + 8), &mut dram, t1)
            .unwrap();
        assert_eq!(t2, t1, "hit should be free");
        assert_eq!(pt.stats().walks, 1);
        assert_eq!(pt.stats().tlb_hits, 1);
    }

    #[test]
    fn lru_eviction_in_tiny_tlb() {
        let (mut pt, mut dram) = setup();
        for p in 0..3 {
            pt.map_page(p, MAddr::new(p * PAGE_SIZE));
        }
        pt.translate(PvAddr::new(0), &mut dram, 0).unwrap(); // walk 0
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap(); // walk 1
        pt.translate(PvAddr::new(2 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk 2, evict 0
        pt.translate(PvAddr::new(0), &mut dram, 0).unwrap(); // walk again
        assert_eq!(pt.stats().walks, 4);
    }

    #[test]
    fn unmap_page_forgets_translation() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.unmap_page(1);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn flush_tlb_forces_rewalk() {
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.flush_tlb();
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert_eq!(pt.stats().walks, 2);
    }

    #[test]
    fn remap_while_tlb_resident_serves_new_frame() {
        // TLB entries cache the frame; replacing the mapping must not
        // let a cached translation serve the old frame.
        let (mut pt, mut dram) = setup();
        pt.map_page(3, MAddr::new(0x8000));
        pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk, cache
        pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // hit
        pt.map_page(3, MAddr::new(0xa000));
        let (m, _) = pt
            .translate(PvAddr::new(3 * PAGE_SIZE + 4), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0xa004));
        assert_eq!(pt.stats().walks, 1, "a remap keeps the entry resident");
    }

    #[test]
    fn unmap_then_remap_other_page_keeps_front_consistent() {
        // Unmapping moves the last TLB slot into the hole; the moved
        // entry must stay reachable and keep its frame.
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0x1000));
        pt.map_page(2, MAddr::new(0x2000));
        pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        pt.translate(PvAddr::new(2 * PAGE_SIZE), &mut dram, 0)
            .unwrap();
        pt.unmap_page(1); // page 2 moves from slot 1 to slot 0
        let (m, _) = pt
            .translate(PvAddr::new(2 * PAGE_SIZE + 8), &mut dram, 0)
            .unwrap();
        assert_eq!(m, MAddr::new(0x2008));
        assert_eq!(pt.stats().walks, 2, "page 2 is still TLB-resident");
    }

    #[test]
    fn front_hits_match_full_path_stats() {
        let (mut pt, mut dram) = setup();
        pt.map_page(9, MAddr::new(0x9000));
        pt.translate(PvAddr::new(9 * PAGE_SIZE), &mut dram, 0)
            .unwrap(); // walk
        for i in 0..10u64 {
            let (m, ready) = pt
                .translate(PvAddr::new(9 * PAGE_SIZE + i), &mut dram, 5)
                .unwrap();
            assert_eq!(m, MAddr::new(0x9000 + i));
            assert_eq!(ready, 5, "TLB hits are free");
        }
        assert_eq!(pt.stats().lookups, 11);
        assert_eq!(pt.stats().tlb_hits, 10);
        assert_eq!(pt.stats().walks, 1);
    }

    #[test]
    fn unmapped_page_is_a_typed_error() {
        let (mut pt, mut dram) = setup();
        assert_eq!(
            pt.translate(PvAddr::new(3 * PAGE_SIZE), &mut dram, 0),
            Err(McError::PvUnmapped(3))
        );
        // The failed lookup is counted but caches nothing.
        assert_eq!(pt.stats().lookups, 1);
        assert_eq!(pt.stats().walks, 0);
    }

    #[test]
    fn corrupted_tlb_entry_is_detected_and_reloaded() {
        use impulse_fault::{FaultPlan, PgTblInjector, Trigger};
        let (mut pt, mut dram) = setup();
        pt.map_page(1, MAddr::new(0x1000));
        // Fire on every translation; only cached entries can corrupt.
        pt.set_fault_injector(PgTblInjector::new(FaultPlan::new(
            Trigger::EveryN { every: 1, phase: 0 },
            7,
        )));
        // First translation: nothing cached yet, ordinary walk.
        let (_, t1) = pt.translate(PvAddr::new(PAGE_SIZE), &mut dram, 0).unwrap();
        assert_eq!(pt.fault_stats().corruptions, 0);
        // Second: the cached entry is corrupted, detected, and reloaded
        // from the backing table — correct frame, walk charged.
        let (m, t2) = pt
            .translate(PvAddr::new(PAGE_SIZE + 8), &mut dram, t1)
            .unwrap();
        assert_eq!(m, MAddr::new(0x1008), "reload restores the true frame");
        assert!(t2 > t1, "recovery pays a walk");
        let f = pt.fault_stats();
        assert_eq!(f.corruptions, 1);
        assert_eq!(f.reloads, 1);
        assert_eq!(f.recovery_cycles, t2 - t1);
        assert_eq!(pt.stats().walks, 2);
    }

    /// The reference MC-TLB: one LRU stamp per entry, found and evicted
    /// by linear scan (the controller's implementation before the
    /// recency list).
    struct ScanLru {
        cap: usize,
        entries: Vec<(u64, u64)>,
        tick: u64,
    }

    impl ScanLru {
        /// Touches `page`; returns whether it hit. A miss installs it,
        /// evicting the entry with the oldest stamp when full.
        fn touch(&mut self, page: u64) -> bool {
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.tick;
                return true;
            }
            if self.entries.len() < self.cap {
                self.entries.push((page, self.tick));
            } else {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .unwrap();
                self.entries[victim] = (page, self.tick);
            }
            false
        }
    }

    #[test]
    fn lru_matches_a_linear_scan_reference() {
        // Seeded random translate / remap / unmap / flush sequences over
        // more pages than the TLB holds, with and without corrupted
        // entries: every hit or walk, and every returned frame, must
        // match the reference. A corrupted entry is reloaded by a
        // walk but keeps the recency of a hit.
        use impulse_fault::{FaultPlan, PgTblInjector, Trigger};
        const PAGES: u64 = 96;
        for (cap, faulty) in [1usize, 2, 3, 8, 64]
            .into_iter()
            .flat_map(|c| [(c, false), (c, true)])
        {
            let mut pt = PgTbl::new(cfg(cap));
            if faulty {
                pt.set_fault_injector(PgTblInjector::new(FaultPlan::new(Trigger::Permille(50), 3)));
            }
            let mut dram = Dram::new(DramConfig::default());
            let mut reference = ScanLru {
                cap,
                entries: Vec::new(),
                tick: 0,
            };
            for p in 0..PAGES {
                pt.map_page(p, MAddr::new(p * PAGE_SIZE));
            }
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
            for step in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = x % PAGES;
                match (x >> 32) % 64 {
                    0 => {
                        pt.unmap_page(page);
                        reference.entries.retain(|e| e.0 != page);
                        pt.map_page(page, MAddr::new(page * PAGE_SIZE));
                    }
                    1 => {
                        pt.flush_tlb();
                        reference.entries.clear();
                    }
                    2 => pt.map_page(page, MAddr::new(((x >> 40) % 1024) * PAGE_SIZE)),
                    _ => {
                        let pv = PvAddr::new(page * PAGE_SIZE + (x >> 52));
                        let walks = pt.stats().walks;
                        let corruptions = pt.fault_stats().corruptions;
                        let (m, _) = pt.translate(pv, &mut dram, step).unwrap();
                        assert_eq!(Some(m), pt.resolve(pv), "cap {cap} step {step}");
                        let hit = reference.touch(page);
                        let corrupted = pt.fault_stats().corruptions != corruptions;
                        assert!(hit || !corrupted, "cap {cap} step {step}");
                        assert_eq!(
                            pt.stats().walks == walks,
                            hit && !corrupted,
                            "cap {cap} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    #[cfg(debug_assertions)]
    fn misaligned_frame_rejected() {
        let (mut pt, _) = setup();
        pt.map_page(0, MAddr::new(12));
    }
}

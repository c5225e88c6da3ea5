//! Generic set-associative cache model.

use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::geom::{is_pow2, log2};
use impulse_types::snap::SnapWriter;
use impulse_types::{AccessKind, PAddr, VAddr};

/// Snapshot section tag for [`Cache`] (`"CACH"`).
const TAG_CACHE: u32 = 0x4341_4348;

/// Which address space selects the cache set.
///
/// Tags are always physical (bus) addresses, as in both Paint caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Indexing {
    /// Set index comes from the virtual address (the Paint L1).
    Virtual,
    /// Set index comes from the physical address (the Paint L2).
    Physical,
}

/// Replacement policy within a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least-recently-used (exact, via access stamps).
    Lru,
    /// Not-recently-used (reference bits, cleared when all are set).
    Nru,
}

/// Geometry and policy of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in reports ("L1", "L2").
    pub name: &'static str,
    /// Total capacity in bytes. Must be `line * ways * sets` for a
    /// power-of-two set count.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity.
    pub ways: u64,
    /// Which address selects the set.
    pub indexing: Indexing,
    /// Whether store misses allocate a line (`true` = write-allocate,
    /// `false` = write-around).
    pub write_allocate: bool,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// The Paint L1 data cache: 32 KB direct-mapped, 32 B lines, virtually
    /// indexed / physically tagged, write-back, write-around.
    pub fn paint_l1() -> Self {
        Self {
            name: "L1",
            size: 32 * 1024,
            line: 32,
            ways: 1,
            indexing: Indexing::Virtual,
            write_allocate: false,
            replacement: Replacement::Lru,
        }
    }

    /// The Paint L2 data cache: 256 KB 2-way, 128 B lines, physically
    /// indexed and tagged, write-back, write-allocate.
    pub fn paint_l2() -> Self {
        Self {
            name: "L2",
            size: 256 * 1024,
            line: 128,
            ways: 2,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / self.line / self.ways
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or do not divide evenly.
    fn validate(&self) {
        assert!(
            is_pow2(self.line),
            "{}: line size must be a power of two",
            self.name
        );
        assert!(self.ways > 0, "{}: must have at least one way", self.name);
        assert!(
            self.size.is_multiple_of(self.line * self.ways),
            "{}: size must be line*ways*sets",
            self.name
        );
        assert!(
            is_pow2(self.sets()),
            "{}: set count must be a power of two",
            self.name
        );
    }
}

/// Counters for one cache level.
///
/// Hit/miss counters are split by access kind because the paper's tables
/// report *load*-based hit ratios.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Load accesses.
    pub loads: u64,
    /// Load hits.
    pub load_hits: u64,
    /// Store accesses.
    pub stores: u64,
    /// Store hits.
    pub store_hits: u64,
    /// Store misses that bypassed the cache (write-around).
    pub store_bypasses: u64,
    /// Lines filled (demand).
    pub fills: u64,
    /// Lines filled by prefetch.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by prefetch (useful prefetches).
    pub prefetch_useful: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Valid lines evicted (clean or dirty).
    pub evictions: u64,
}

impl CacheStats {
    /// Load hit ratio, or 0 when no loads occurred.
    pub fn load_hit_ratio(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_hits as f64 / self.loads as f64
        }
    }
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The line was present.
    Hit,
    /// The line was fetched and filled; `writeback` is the physical line
    /// address of a dirty victim that must be written to the next level.
    Miss {
        /// Dirty victim line (physical line base), if any.
        writeback: Option<PAddr>,
    },
    /// Store miss on a write-around cache: the store is forwarded to the
    /// next level without allocating.
    Bypass,
}

/// Result of flushing a single line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The line was not cached.
    NotPresent,
    /// The line was cached and clean; it was invalidated.
    Clean,
    /// The line was cached and dirty; it was invalidated and its contents
    /// must be written back.
    Dirty,
}

/// Tag-word bit marking a valid way; the bits below it hold the physical
/// line number (`ptag`).
const VALID: u64 = 1 << 63;

/// A set-associative cache.
///
/// # Examples
///
/// The Paint L1 is write-around: store misses bypass it rather than
/// allocating.
///
/// ```
/// use impulse_cache::{Cache, CacheConfig, Outcome};
/// use impulse_types::{AccessKind, PAddr, VAddr};
///
/// let mut l1 = Cache::new(CacheConfig::paint_l1());
/// let (v, p) = (VAddr::new(0x2000), PAddr::new(0x9000));
/// assert_eq!(l1.access(v, p, AccessKind::Store), Outcome::Bypass);
/// assert!(!l1.probe(v, p));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// One word per way, `VALID | ptag`, sets × ways, way-major within a
    /// set: a hit probe compares one word per way. Invalidation clears
    /// only `VALID`, so an invalid way keeps its last ptag (the snapshot
    /// bytes carry it).
    tags: Vec<u64>,
    /// Per way: LRU stamp, or NRU reference mark (0 = unreferenced).
    /// A direct-mapped cache keeps none: with one way per set the victim
    /// is fixed, so nothing reads a stamp, and neither a hit nor a fill
    /// writes one (`tick` stays 0 too, so every stamp stays 0). The array
    /// is still allocated for every geometry: leaving it out for one way
    /// moved glibc's heap top so that the `perf` benchmark, which builds
    /// fresh machines every pass, took 2.7 times the minor page faults
    /// and 26% longer set-up on `remap-gather`.
    stamps: Vec<u64>,
    /// Per way: holds data newer than memory.
    dirty: Vec<bool>,
    /// Per way: filled by a prefetch and not yet demanded.
    prefetched: Vec<bool>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent (see
    /// [`CacheConfig`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        let n = (sets * cfg.ways) as usize;
        Self {
            tags: vec![0; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            prefetched: vec![false; n],
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            line_shift: log2(cfg.line),
            tick: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// This cache with `stats` in place of its counters: for an owner that
    /// accesses it through [`Cache::access_uncounted`] and counts the
    /// demand accesses itself.
    pub fn with_stats(mut self, stats: CacheStats) -> Self {
        self.stats = stats;
        self
    }

    /// Line base (physical) for an address.
    #[inline]
    pub fn line_base(&self, p: PAddr) -> PAddr {
        p.align_down(self.cfg.line)
    }

    /// Index of the first way of the set `(v, p)` maps to.
    #[inline]
    fn set_base(&self, v: VAddr, p: PAddr) -> usize {
        let idx_addr = match self.cfg.indexing {
            Indexing::Virtual => v.raw(),
            Indexing::Physical => p.raw(),
        };
        ((idx_addr >> self.line_shift) & self.set_mask) as usize * self.ways
    }

    #[inline]
    fn ptag_of(&self, p: PAddr) -> u64 {
        let ptag = p.raw() >> self.line_shift;
        debug_assert_eq!(
            ptag & VALID,
            0,
            "physical line number overflows the tag word"
        );
        ptag
    }

    /// The way of the set at `base` holding `ptag`, if it is present.
    #[inline]
    fn find(&self, base: usize, ptag: u64) -> Option<usize> {
        let want = VALID | ptag;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == want)
            .map(|w| base + w)
    }

    /// Whether the line containing `(v, p)` is present (no state change).
    #[inline]
    pub fn probe(&self, v: VAddr, p: PAddr) -> bool {
        self.find(self.set_base(v, p), self.ptag_of(p)).is_some()
    }

    /// Performs a demand access; updates replacement state, allocates on
    /// miss per the write policy, and reports any dirty victim. Counts the
    /// access in `loads`/`stores` and a hit in `load_hits`/`store_hits`.
    #[inline(always)]
    pub fn access(&mut self, v: VAddr, p: PAddr, kind: AccessKind) -> Outcome {
        let outcome = self.access_uncounted(v, p, kind);
        let hit = u64::from(matches!(outcome, Outcome::Hit));
        match kind {
            AccessKind::Load => {
                self.stats.loads += 1;
                self.stats.load_hits += hit;
            }
            AccessKind::Store => {
                self.stats.stores += 1;
                self.stats.store_hits += hit;
            }
        }
        outcome
    }

    /// [`Cache::access`] without the four demand counts, for an owner
    /// that derives them (see [`Cache::with_stats`]). Every other counter
    /// moves as in `access`.
    ///
    /// The hit half is forced inline: every demand access of the
    /// simulator runs it, and a caller in another crate would otherwise
    /// get an out-of-line call when built without LTO.
    #[inline(always)]
    pub fn access_uncounted(&mut self, v: VAddr, p: PAddr, kind: AccessKind) -> Outcome {
        let base = self.set_base(v, p);
        let ptag = self.ptag_of(p);
        let Some(i) = self.find(base, ptag) else {
            return self.access_miss(base, ptag, kind);
        };
        if self.prefetched[i] {
            self.prefetched[i] = false;
            self.stats.prefetch_useful += 1;
        }
        if self.ways > 1 {
            self.tick += 1;
            self.stamps[i] = self.tick;
        }
        if kind.is_store() {
            self.dirty[i] = true;
        }
        Outcome::Hit
    }

    /// The miss half of [`Cache::access_uncounted`]: bypasses or fills
    /// per the write policy.
    #[cold]
    #[inline(never)]
    fn access_miss(&mut self, base: usize, ptag: u64, kind: AccessKind) -> Outcome {
        if self.ways > 1 {
            self.tick += 1;
        }
        if kind.is_store() && !self.cfg.write_allocate {
            self.stats.store_bypasses += 1;
            return Outcome::Bypass;
        }
        let writeback = self.fill_at(base, ptag, kind.is_store(), false);
        self.stats.fills += 1;
        Outcome::Miss { writeback }
    }

    /// Fills the line containing `(v, p)` without a demand access — the
    /// path used by hardware prefetchers. Returns a dirty victim, if any.
    ///
    /// Filling an already-present line is a no-op (`None`).
    pub fn prefetch_fill(&mut self, v: VAddr, p: PAddr) -> Option<PAddr> {
        if self.probe(v, p) {
            return None;
        }
        if self.ways > 1 {
            self.tick += 1;
        }
        let wb = self.fill_at(self.set_base(v, p), self.ptag_of(p), false, true);
        self.stats.prefetch_fills += 1;
        wb
    }

    /// Chooses a victim in the set at `base`, evicts it, installs `ptag`;
    /// returns the dirty victim's physical line address if one was
    /// displaced.
    fn fill_at(&mut self, base: usize, ptag: u64, dirty: bool, prefetched: bool) -> Option<PAddr> {
        let set = base..base + self.ways;
        let i = self.choose_victim(set.clone());
        let mut writeback = None;
        if self.tags[i] & VALID != 0 {
            self.stats.evictions += 1;
            if self.dirty[i] {
                self.stats.writebacks += 1;
                writeback = Some(PAddr::new((self.tags[i] & !VALID) << self.line_shift));
            }
        }
        self.tags[i] = VALID | ptag;
        self.dirty[i] = dirty;
        if self.ways > 1 {
            self.stamps[i] = self.tick;
        }
        self.prefetched[i] = prefetched;
        if self.cfg.replacement == Replacement::Nru && self.ways > 1 {
            self.normalize_nru(set, i);
        }
        writeback
    }

    fn choose_victim(&self, set: core::ops::Range<usize>) -> usize {
        if self.ways == 1 {
            return set.start;
        }
        // Prefer an invalid way.
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t & VALID == 0) {
            return set.start + w;
        }
        let stamps = &self.stamps[set.clone()];
        let w = match self.cfg.replacement {
            Replacement::Lru => stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .map(|(w, _)| w)
                .expect("cache sets are never empty"),
            // First way whose reference stamp is "old" (not the current
            // generation); fall back to the first way.
            Replacement::Nru => stamps.iter().position(|&s| s == 0).unwrap_or(0),
        };
        set.start + w
    }

    /// For NRU: when every line in the set has been referenced, clear all
    /// reference marks except the just-installed line.
    fn normalize_nru(&mut self, set: core::ops::Range<usize>, keep: usize) {
        if self.stamps[set.clone()].iter().all(|&s| s != 0) {
            for i in set {
                if i != keep {
                    self.stamps[i] = 0;
                }
            }
        }
    }

    /// Invalidates the line containing `(v, p)`; returns whether it was
    /// present and whether it was dirty.
    #[inline]
    fn invalidate(&mut self, v: VAddr, p: PAddr) -> Option<bool> {
        let i = self.find(self.set_base(v, p), self.ptag_of(p))?;
        self.tags[i] &= !VALID;
        Some(core::mem::take(&mut self.dirty[i]))
    }

    /// Flushes (writes back and invalidates) the line containing `(v, p)`.
    pub fn flush_line(&mut self, v: VAddr, p: PAddr) -> FlushOutcome {
        match self.invalidate(v, p) {
            None => FlushOutcome::NotPresent,
            Some(false) => FlushOutcome::Clean,
            Some(true) => {
                self.stats.writebacks += 1;
                FlushOutcome::Dirty
            }
        }
    }

    /// Purges (invalidates *without* writeback) the line containing
    /// `(v, p)` — used for remapped input tiles whose contents are clean
    /// copies of other memory.
    pub fn purge_line(&mut self, v: VAddr, p: PAddr) -> bool {
        self.invalidate(v, p).is_some()
    }

    /// Invalidates everything (no writebacks); statistics are preserved.
    pub fn invalidate_all(&mut self) {
        for t in &mut self.tags {
            *t &= !VALID;
        }
        self.dirty.fill(false);
    }

    /// Number of valid lines currently cached (for tests/diagnostics).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t & VALID != 0).count()
    }

    /// The physical base of every valid line, in way order: a scan of
    /// the tag words with no state change. A bulk flush uses it to skip
    /// the pages the cache holds nothing of.
    pub fn cached_lines(&self) -> impl Iterator<Item = PAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t & VALID != 0)
            .map(|&t| PAddr::new((t & !VALID) << self.line_shift))
    }

    /// Serializes the cache contents (every way verbatim, as valid, dirty,
    /// ptag, stamp, prefetched), replacement tick, and statistics.
    /// Geometry is configuration and is not written.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_CACHE);
        w.usize(self.tags.len());
        for i in 0..self.tags.len() {
            w.bool(self.tags[i] & VALID != 0);
            w.bool(self.dirty[i]);
            w.u64(self.tags[i] & !VALID);
            w.u64(self.stamps[i]);
            w.bool(self.prefetched[i]);
        }
        w.u64(self.tick);
        let s = &self.stats;
        for v in [
            s.loads,
            s.load_hits,
            s.stores,
            s.store_hits,
            s.store_bypasses,
            s.fills,
            s.prefetch_fills,
            s.prefetch_useful,
            s.writebacks,
            s.evictions,
        ] {
            w.u64(v);
        }
    }
}

/// The counters, under `cache.*`.
impl Observe for CacheStats {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("cache.loads", self.loads);
        m.counter("cache.load_hits", self.load_hits);
        m.counter("cache.stores", self.stores);
        m.counter("cache.store_hits", self.store_hits);
        m.counter("cache.store_bypasses", self.store_bypasses);
        m.counter("cache.fills", self.fills);
        m.counter("cache.prefetch_fills", self.prefetch_fills);
        m.counter("cache.prefetch_useful", self.prefetch_useful);
        m.counter("cache.writebacks", self.writebacks);
        m.counter("cache.evictions", self.evictions);
        m.gauge("cache.load_hit_ratio", self.load_hit_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(x: u64) -> VAddr {
        VAddr::new(x)
    }
    fn pa(x: u64) -> PAddr {
        PAddr::new(x)
    }

    fn tiny(ways: u64, write_allocate: bool) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size: 32 * ways * 4, // 4 sets
            line: 32,
            ways,
            indexing: Indexing::Physical,
            write_allocate,
            replacement: Replacement::Lru,
        })
    }

    #[test]
    fn paint_geometries() {
        let l1 = Cache::new(CacheConfig::paint_l1());
        assert_eq!(l1.config().sets(), 1024);
        let l2 = Cache::new(CacheConfig::paint_l2());
        assert_eq!(l2.config().sets(), 1024);
    }

    #[test]
    fn load_miss_then_hit() {
        let mut c = tiny(1, true);
        assert!(matches!(
            c.access(va(0), pa(0), AccessKind::Load),
            Outcome::Miss { writeback: None }
        ));
        assert_eq!(c.access(va(0), pa(0), AccessKind::Load), Outcome::Hit);
        assert_eq!(c.access(va(8), pa(8), AccessKind::Load), Outcome::Hit);
        let s = c.stats();
        assert_eq!(s.loads, 3);
        assert_eq!(s.load_hits, 2);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = tiny(1, true);
        // 4 sets of 32B: addresses 0 and 128 share set 0.
        c.access(va(0), pa(0), AccessKind::Load);
        c.access(va(128), pa(128), AccessKind::Load);
        assert!(!c.probe(va(0), pa(0)));
        assert!(c.probe(va(128), pa(128)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0, "clean eviction has no writeback");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, true);
        c.access(va(0), pa(0), AccessKind::Store); // allocate dirty
        match c.access(va(128), pa(128), AccessKind::Load) {
            Outcome::Miss { writeback } => assert_eq!(writeback, Some(pa(0))),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_around_bypasses_on_store_miss() {
        let mut c = tiny(1, false);
        assert_eq!(c.access(va(0), pa(0), AccessKind::Store), Outcome::Bypass);
        assert!(!c.probe(va(0), pa(0)));
        assert_eq!(c.stats().store_bypasses, 1);
        // But store hits still update in place.
        c.access(va(0), pa(0), AccessKind::Load);
        assert_eq!(c.access(va(0), pa(0), AccessKind::Store), Outcome::Hit);
    }

    #[test]
    fn lru_two_way_keeps_recent() {
        let mut c = tiny(2, true);
        // Set 0 aliases: 0, 256, 512 (8 lines total, 4 sets, 2 ways).
        c.access(va(0), pa(0), AccessKind::Load);
        c.access(va(256), pa(256), AccessKind::Load);
        c.access(va(0), pa(0), AccessKind::Load); // touch 0: 256 is LRU
        c.access(va(512), pa(512), AccessKind::Load); // evicts 256
        assert!(c.probe(va(0), pa(0)));
        assert!(!c.probe(va(256), pa(256)));
        assert!(c.probe(va(512), pa(512)));
    }

    #[test]
    fn virtual_indexing_uses_vaddr_for_set() {
        let mut c = Cache::new(CacheConfig {
            indexing: Indexing::Virtual,
            ..CacheConfig::paint_l1()
        });
        // Same physical line, two virtual aliases with different set bits:
        // both can live in the cache simultaneously (the classic
        // virtually-indexed alias behaviour).
        c.access(va(0x0000), pa(0x9000), AccessKind::Load);
        c.access(va(0x4020), pa(0x9020), AccessKind::Load);
        assert!(c.probe(va(0x0000), pa(0x9000)));
        assert!(c.probe(va(0x4020), pa(0x9020)));
    }

    #[test]
    fn prefetch_fill_counts_useful_hits() {
        let mut c = tiny(1, true);
        assert_eq!(c.prefetch_fill(va(0), pa(0)), None);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.access(va(0), pa(0), AccessKind::Load), Outcome::Hit);
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second hit is not counted again.
        c.access(va(0), pa(0), AccessKind::Load);
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    fn prefetch_fill_is_idempotent_when_present() {
        let mut c = tiny(1, true);
        c.access(va(0), pa(0), AccessKind::Load);
        assert_eq!(c.prefetch_fill(va(0), pa(0)), None);
        assert_eq!(c.stats().prefetch_fills, 0);
    }

    #[test]
    fn prefetch_can_pollute() {
        let mut c = tiny(1, true);
        c.access(va(0), pa(0), AccessKind::Load);
        c.prefetch_fill(va(128), pa(128)); // same set, evicts 0
        assert!(!c.probe(va(0), pa(0)));
    }

    #[test]
    fn flush_line_reports_dirtiness() {
        let mut c = tiny(1, true);
        assert_eq!(c.flush_line(va(0), pa(0)), FlushOutcome::NotPresent);
        c.access(va(0), pa(0), AccessKind::Load);
        assert_eq!(c.flush_line(va(0), pa(0)), FlushOutcome::Clean);
        c.access(va(0), pa(0), AccessKind::Store);
        assert_eq!(c.flush_line(va(0), pa(0)), FlushOutcome::Dirty);
        assert!(!c.probe(va(0), pa(0)));
    }

    #[test]
    fn purge_discards_dirty_data_silently() {
        let mut c = tiny(1, true);
        c.access(va(0), pa(0), AccessKind::Store);
        let wb_before = c.stats().writebacks;
        assert!(c.purge_line(va(0), pa(0)));
        assert_eq!(c.stats().writebacks, wb_before);
        assert!(!c.purge_line(va(0), pa(0)));
    }

    #[test]
    fn cached_lines_lists_valid_lines_only() {
        let mut c = tiny(2, true);
        c.access(va(0x40), pa(0x1040), AccessKind::Load);
        c.access(va(0x80), pa(0x2080), AccessKind::Store);
        c.access(va(0xc0), pa(0x30c0), AccessKind::Load);
        c.flush_line(va(0xc0), pa(0x30c0));
        let mut lines: Vec<u64> = c.cached_lines().map(PAddr::raw).collect();
        lines.sort_unstable();
        assert_eq!(lines, [0x1040, 0x2080]);
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = tiny(2, true);
        c.access(va(0), pa(0), AccessKind::Load);
        c.access(va(32), pa(32), AccessKind::Load);
        assert_eq!(c.valid_lines(), 2);
        c.invalidate_all();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn nru_replacement_victimizes_unreferenced() {
        let mut c = Cache::new(CacheConfig {
            name: "N",
            size: 32 * 4, // 1 set, 4 ways
            line: 32,
            ways: 4,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Nru,
        });
        for i in 0..4 {
            c.access(va(i * 32), pa(i * 32), AccessKind::Load);
        }
        // All referenced; the last fill normalizes others to unreferenced.
        // A new line must evict one of the normalized (unreferenced) ways,
        // not the most recently installed one.
        c.access(va(4 * 32), pa(4 * 32), AccessKind::Load);
        assert!(c.probe(va(3 * 32), pa(3 * 32)));
    }

    /// The reference cache: one `Line` struct per way and linear scans
    /// (the layout before the packed tag words). A direct-mapped
    /// reference never advances its tick, so its stamps stay 0, as the
    /// packed cache's rule has it.
    #[derive(Clone, Copy, Default)]
    struct Line {
        valid: bool,
        dirty: bool,
        ptag: u64,
        stamp: u64,
        prefetched: bool,
    }

    struct LineCache {
        cfg: CacheConfig,
        lines: Vec<Line>,
        set_mask: u64,
        line_shift: u32,
        tick: u64,
        stats: CacheStats,
    }

    impl LineCache {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            Self {
                lines: vec![Line::default(); (sets * cfg.ways) as usize],
                set_mask: sets - 1,
                line_shift: log2(cfg.line),
                tick: 0,
                stats: CacheStats::default(),
                cfg,
            }
        }

        fn set_of(&self, v: VAddr, p: PAddr) -> usize {
            let idx_addr = match self.cfg.indexing {
                Indexing::Virtual => v.raw(),
                Indexing::Physical => p.raw(),
            };
            ((idx_addr >> self.line_shift) & self.set_mask) as usize
        }

        fn set_range(&self, set: usize) -> core::ops::Range<usize> {
            let ways = self.cfg.ways as usize;
            set * ways..(set + 1) * ways
        }

        fn find(&self, v: VAddr, p: PAddr) -> Option<usize> {
            let ptag = p.raw() >> self.line_shift;
            self.set_range(self.set_of(v, p))
                .find(|&i| self.lines[i].valid && self.lines[i].ptag == ptag)
        }

        fn advance(&mut self) {
            if self.cfg.ways > 1 {
                self.tick += 1;
            }
        }

        fn access(&mut self, v: VAddr, p: PAddr, kind: AccessKind) -> Outcome {
            self.advance();
            if let Some(i) = self.find(v, p) {
                let line = &mut self.lines[i];
                if line.prefetched {
                    line.prefetched = false;
                    self.stats.prefetch_useful += 1;
                }
                line.stamp = self.tick;
                match kind {
                    AccessKind::Load => {
                        self.stats.loads += 1;
                        self.stats.load_hits += 1;
                    }
                    AccessKind::Store => {
                        self.stats.stores += 1;
                        self.stats.store_hits += 1;
                        line.dirty = true;
                    }
                }
                return Outcome::Hit;
            }
            match kind {
                AccessKind::Load => self.stats.loads += 1,
                AccessKind::Store => {
                    self.stats.stores += 1;
                    if !self.cfg.write_allocate {
                        self.stats.store_bypasses += 1;
                        return Outcome::Bypass;
                    }
                }
            }
            let writeback = self.fill_at(v, p, kind.is_store(), false);
            self.stats.fills += 1;
            Outcome::Miss { writeback }
        }

        fn prefetch_fill(&mut self, v: VAddr, p: PAddr) -> Option<PAddr> {
            if self.find(v, p).is_some() {
                return None;
            }
            self.advance();
            let wb = self.fill_at(v, p, false, true);
            self.stats.prefetch_fills += 1;
            wb
        }

        fn fill_at(&mut self, v: VAddr, p: PAddr, dirty: bool, prefetched: bool) -> Option<PAddr> {
            let range = self.set_range(self.set_of(v, p));
            let victim = match range.clone().find(|&i| !self.lines[i].valid) {
                Some(i) => i,
                None => match self.cfg.replacement {
                    Replacement::Lru => range.clone().min_by_key(|&i| self.lines[i].stamp).unwrap(),
                    Replacement::Nru => range
                        .clone()
                        .find(|&i| self.lines[i].stamp == 0)
                        .unwrap_or(range.start),
                },
            };
            let line = &mut self.lines[victim];
            let mut writeback = None;
            if line.valid {
                self.stats.evictions += 1;
                if line.dirty {
                    self.stats.writebacks += 1;
                    writeback = Some(PAddr::new(line.ptag << self.line_shift));
                }
            }
            *line = Line {
                valid: true,
                dirty,
                ptag: p.raw() >> self.line_shift,
                stamp: self.tick,
                prefetched,
            };
            if self.cfg.replacement == Replacement::Nru
                && range.clone().all(|i| self.lines[i].stamp != 0)
            {
                for i in range {
                    if i != victim {
                        self.lines[i].stamp = 0;
                    }
                }
            }
            writeback
        }

        fn flush_line(&mut self, v: VAddr, p: PAddr) -> FlushOutcome {
            let Some(i) = self.find(v, p) else {
                return FlushOutcome::NotPresent;
            };
            let line = &mut self.lines[i];
            line.valid = false;
            if core::mem::take(&mut line.dirty) {
                self.stats.writebacks += 1;
                FlushOutcome::Dirty
            } else {
                FlushOutcome::Clean
            }
        }

        fn purge_line(&mut self, v: VAddr, p: PAddr) -> bool {
            let Some(i) = self.find(v, p) else {
                return false;
            };
            self.lines[i].valid = false;
            self.lines[i].dirty = false;
            true
        }

        fn invalidate_all(&mut self) {
            for line in &mut self.lines {
                line.valid = false;
                line.dirty = false;
            }
        }

        fn valid_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.valid).count()
        }

        /// The `CACH` section as the `Line`-array cache wrote it.
        fn snap_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.tag(TAG_CACHE);
            w.usize(self.lines.len());
            for l in &self.lines {
                w.bool(l.valid);
                w.bool(l.dirty);
                w.u64(l.ptag);
                w.u64(l.stamp);
                w.bool(l.prefetched);
            }
            w.u64(self.tick);
            let s = &self.stats;
            for v in [
                s.loads,
                s.load_hits,
                s.stores,
                s.store_hits,
                s.store_bypasses,
                s.fills,
                s.prefetch_fills,
                s.prefetch_useful,
                s.writebacks,
                s.evictions,
            ] {
                w.u64(v);
            }
            w.finish()
        }
    }

    fn snap_bytes(c: &Cache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snap_save(&mut w);
        w.finish()
    }

    #[test]
    fn packed_tags_match_a_line_array_reference() {
        // Seeded random demand loads and stores, prefetch fills, flushes,
        // purges, invalidations and statistics resets over every
        // associativity, replacement policy, indexing and write policy:
        // after every step each outcome, the statistics, the occupancy
        // and the snapshot bytes must match the reference.
        const SETS: u64 = 8;
        for ways in [1u64, 2, 4, 8] {
            for replacement in [Replacement::Lru, Replacement::Nru] {
                for indexing in [Indexing::Virtual, Indexing::Physical] {
                    for write_allocate in [false, true] {
                        let cfg = CacheConfig {
                            name: "R",
                            size: 32 * ways * SETS,
                            line: 32,
                            ways,
                            indexing,
                            write_allocate,
                            replacement,
                        };
                        let mut c = Cache::new(cfg.clone());
                        let mut reference = LineCache::new(cfg);
                        let mut x = 0x2545_F491_4F6C_DD1Du64 ^ (ways << 8);
                        for step in 0..6_000u64 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            // A working set about twice the capacity, so
                            // hits, conflicts and evictions all occur; the
                            // virtual address is an alias of the physical
                            // one with its own set bits.
                            let lines = 2 * ways * SETS;
                            let p = pa(((x >> 8) % lines) * 32 + (x >> 20) % 32);
                            let v = va(p.raw() ^ (((x >> 30) % 4) << 5));
                            let ctx = format!(
                                "ways {ways} {replacement:?} {indexing:?} \
                                 allocate {write_allocate} step {step}"
                            );
                            match (x >> 40) % 64 {
                                0 => {
                                    c.invalidate_all();
                                    reference.invalidate_all();
                                }
                                1 => {
                                    c.reset_stats();
                                    reference.stats = CacheStats::default();
                                }
                                2..=4 => assert_eq!(
                                    c.flush_line(v, p),
                                    reference.flush_line(v, p),
                                    "{ctx}"
                                ),
                                5..=6 => assert_eq!(
                                    c.purge_line(v, p),
                                    reference.purge_line(v, p),
                                    "{ctx}"
                                ),
                                7..=12 => assert_eq!(
                                    c.prefetch_fill(v, p),
                                    reference.prefetch_fill(v, p),
                                    "{ctx}"
                                ),
                                14..=29 => assert_eq!(
                                    c.access(v, p, AccessKind::Store),
                                    reference.access(v, p, AccessKind::Store),
                                    "{ctx}"
                                ),
                                _ => assert_eq!(
                                    c.access(v, p, AccessKind::Load),
                                    reference.access(v, p, AccessKind::Load),
                                    "{ctx}"
                                ),
                            }
                            assert_eq!(c.probe(v, p), reference.find(v, p).is_some(), "{ctx}");
                            assert_eq!(c.stats(), reference.stats, "{ctx}");
                            assert_eq!(c.valid_lines(), reference.valid_lines(), "{ctx}");
                            assert_eq!(snap_bytes(&c), reference.snap_bytes(), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uncounted_access_differs_only_in_demand_counts() {
        // The same seeded loads, stores, prefetch fills and flushes through
        // `access` and `access_uncounted`: every outcome, every other
        // counter and, with the counts swapped in, every snapshot byte
        // must agree.
        let demand_free = |s: CacheStats| CacheStats {
            loads: 0,
            load_hits: 0,
            stores: 0,
            store_hits: 0,
            ..s
        };
        for (ways, write_allocate) in [(1, false), (1, true), (2, false), (4, true)] {
            let mut counted = tiny(ways, write_allocate);
            let mut uncounted = tiny(ways, write_allocate);
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ways;
            for step in 0..4_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = ((x >> 8) % (8 * ways * 4)) * 32;
                let (v, p) = (va(a), pa(a));
                let ctx = format!("ways {ways} allocate {write_allocate} step {step}");
                match (x >> 40) % 16 {
                    0 => assert_eq!(
                        counted.prefetch_fill(v, p),
                        uncounted.prefetch_fill(v, p),
                        "{ctx}"
                    ),
                    1 => assert_eq!(
                        counted.flush_line(v, p),
                        uncounted.flush_line(v, p),
                        "{ctx}"
                    ),
                    r => {
                        let kind = if r < 6 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        assert_eq!(
                            counted.access(v, p, kind),
                            uncounted.access_uncounted(v, p, kind),
                            "{ctx}"
                        );
                    }
                }
                assert_eq!(uncounted.stats(), demand_free(counted.stats()), "{ctx}");
                assert_eq!(
                    snap_bytes(&uncounted.clone().with_stats(counted.stats())),
                    snap_bytes(&counted),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn stats_ratio_handles_zero() {
        assert_eq!(CacheStats::default().load_hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            name: "bad",
            size: 96,
            line: 24,
            ways: 1,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        });
    }
}

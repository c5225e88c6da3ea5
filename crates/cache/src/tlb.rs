//! Fully-associative TLB with not-recently-used replacement.
//!
//! Models the Paint TLB: unified, single-cycle on a hit, fully associative,
//! NRU replacement. Entries may cover a power-of-two *span* of pages so the
//! superpage experiment (Impulse direct remapping used to build superpages
//! from non-contiguous physical pages, Swanson et al. ISCA '98, recapped in
//! Section 6) can be reproduced.

use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::geom::is_pow2;
use impulse_types::snap::SnapWriter;
use impulse_types::FxHashMap;

/// Snapshot section tag for [`Tlb`] (`"TLB "`).
const TAG_TLB: u32 = 0x544C_4220;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (the HP PA-7200's TLB held 120).
    pub entries: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self { entries: 120 }
    }
}

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations attempted.
    pub lookups: u64,
    /// Translations that hit.
    pub hits: u64,
    /// Entries inserted after a miss.
    pub inserts: u64,
    /// Valid entries evicted to make room.
    pub evictions: u64,
}

impl TlbStats {
    /// Misses (lookups − hits).
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Hit ratio, or 0 when no lookups occurred.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The pages one slot covers; meaningful only while the slot is occupied.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// First virtual page covered.
    base_vpage: u64,
    /// Pages covered (power of two; 1 for a normal entry).
    span: u64,
}

impl Entry {
    /// What a free slot holds (and what its snapshot bytes say).
    const EMPTY: Self = Self {
        base_vpage: 0,
        span: 1,
    };

    #[inline]
    fn covers(&self, vpage: u64) -> bool {
        vpage >= self.base_vpage && vpage < self.base_vpage + self.span
    }
}

/// The bits of bitset word `w` that stand for one of `n` slots.
#[inline]
fn live_bits(n: usize, w: usize) -> u64 {
    match n - 64 * w {
        k if k >= 64 => !0,
        k => (1 << k) - 1,
    }
}

/// Slots in the direct-mapped lookaside in front of the page index.
const LOOKASIDE: usize = 64;

/// What lookaside slot `k` holds when empty: page `k ^ 1`, which maps to
/// slot `k ^ 1` and so can never be looked up in slot `k`.
#[inline]
fn empty_lookaside(k: usize) -> (u64, usize) {
    (k as u64 ^ 1, 0)
}

#[inline]
fn bit(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// A fully-associative, NRU-replaced TLB.
///
/// Lookups are O(1): an index maps single-page entries by page number, and
/// superpage entries (rare) live on a short side list. A 64-slot
/// direct-mapped lookaside of `(vpage, slot)` pairs sits in front of the
/// index, so a hit on a recently used page is one compare. Replacement is
/// O(1) in the entry count too: free and referenced slots are bitsets, so
/// the NRU victim is a `trailing_zeros` over ⌈entries/64⌉ words.
///
/// # Examples
///
/// ```
/// use impulse_cache::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(!tlb.lookup(42));
/// tlb.insert(42, 1);
/// assert!(tlb.lookup(42));
/// // A superpage entry covers a whole power-of-two span of pages.
/// tlb.insert(64, 16);
/// assert!(tlb.lookup(79));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<Entry>,
    /// Bit `i` set: slot `i` is free. Bits at and above `entries.len()`
    /// are always clear.
    free: Vec<u64>,
    /// Bit `i` set: slot `i` was referenced since the last NRU sweep.
    referenced: Vec<u64>,
    /// vpage → slot, for span-1 entries only.
    index: FxHashMap<u64, usize>,
    /// Slots holding superpage entries (span > 1).
    super_slots: Vec<usize>,
    /// `(vpage, slot)` at `vpage % LOOKASIDE`, a cache of `index`: each
    /// non-empty pair is an entry `index` holds. It is filled on an index
    /// hit and cleared by *page* whenever `index` drops or re-points that
    /// page. Clearing by slot would not do: a duplicate span-1 insert
    /// re-points the page to a new slot, and clearing the old slot later
    /// removes the page from `index` although the new slot still holds
    /// it. Not serialized; reset on load.
    lookaside: [(u64, usize); LOOKASIDE],
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries` is zero.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB must have at least one entry");
        let words = cfg.entries.div_ceil(64);
        let mut tlb = Self {
            entries: vec![Entry::EMPTY; cfg.entries],
            free: vec![0; words],
            referenced: vec![0; words],
            index: FxHashMap::default(),
            super_slots: Vec::new(),
            lookaside: std::array::from_fn(empty_lookaside),
            stats: TlbStats::default(),
        };
        tlb.free_all();
        tlb
    }

    fn reset_lookaside(&mut self) {
        self.lookaside = std::array::from_fn(empty_lookaside);
    }

    /// Drops `vpage` from the lookaside, whichever slot it points at.
    #[inline]
    fn forget(&mut self, vpage: u64) {
        let k = vpage as usize % LOOKASIDE;
        if self.lookaside[k].0 == vpage {
            self.lookaside[k] = empty_lookaside(k);
        }
    }

    /// Marks every slot free and unreferenced.
    fn free_all(&mut self) {
        let n = self.entries.len();
        for (w, word) in self.free.iter_mut().enumerate() {
            *word = live_bits(n, w);
        }
        self.referenced.fill(0);
    }

    fn is_free(&self, i: usize) -> bool {
        bit(&self.free, i)
    }

    fn slot_of(&self, vpage: u64) -> Option<usize> {
        match self.index.get(&vpage) {
            Some(&i) => Some(i),
            None => self.super_slot_of(vpage),
        }
    }

    fn super_slot_of(&self, vpage: u64) -> Option<usize> {
        self.super_slots
            .iter()
            .copied()
            .find(|&i| !self.is_free(i) && self.entries[i].covers(vpage))
    }

    fn clear_slot(&mut self, i: usize) {
        if !self.is_free(i) {
            let e = self.entries[i];
            if e.span == 1 {
                self.index.remove(&e.base_vpage);
                self.forget(e.base_vpage);
            } else {
                self.super_slots.retain(|&s| s != i);
            }
        }
        self.entries[i] = Entry::EMPTY;
        set_bit(&mut self.free, i);
        clear_bit(&mut self.referenced, i);
    }

    /// The NRU victim: the lowest free slot; else the lowest unreferenced
    /// slot; else every reference bit is cleared and slot 0 is taken.
    fn victim(&mut self) -> usize {
        if let Some(w) = self.free.iter().position(|&f| f != 0) {
            return 64 * w + self.free[w].trailing_zeros() as usize;
        }
        // Every slot is occupied, so an unreferenced one is a clear bit
        // below `entries.len()`.
        let n = self.entries.len();
        for (w, &r) in self.referenced.iter().enumerate() {
            let unreferenced = !r & live_bits(n, w);
            if unreferenced != 0 {
                return 64 * w + unreferenced.trailing_zeros() as usize;
            }
        }
        self.referenced.fill(0);
        0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// This TLB with `stats` in place of its counters: for an owner that
    /// looks up through [`Tlb::lookup_uncounted`] and counts the lookups
    /// itself.
    pub fn with_stats(mut self, stats: TlbStats) -> Self {
        self.stats = stats;
        self
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Looks up a virtual page; returns `true` on a hit and marks the
    /// entry referenced. Counts the lookup and any hit.
    #[inline(always)]
    pub fn lookup(&mut self, vpage: u64) -> bool {
        let hit = self.lookup_uncounted(vpage);
        self.stats.lookups += 1;
        self.stats.hits += u64::from(hit);
        hit
    }

    /// [`Tlb::lookup`] without the lookup and hit counts, for an owner
    /// that derives them (see [`Tlb::with_stats`]). The lookaside half is
    /// forced inline (see [`Cache::access`](crate::Cache::access)).
    #[inline(always)]
    pub fn lookup_uncounted(&mut self, vpage: u64) -> bool {
        let (page, i) = self.lookaside[vpage as usize % LOOKASIDE];
        if page == vpage {
            set_bit(&mut self.referenced, i);
            return true;
        }
        self.lookup_indexed(vpage)
    }

    /// [`Tlb::lookup_uncounted`] past a lookaside miss: the index, then
    /// the superpage list. A span-1 hit fills the lookaside.
    #[cold]
    #[inline(never)]
    fn lookup_indexed(&mut self, vpage: u64) -> bool {
        let i = if let Some(&i) = self.index.get(&vpage) {
            self.lookaside[vpage as usize % LOOKASIDE] = (vpage, i);
            i
        } else if let Some(i) = self.super_slot_of(vpage) {
            i
        } else {
            return false;
        };
        set_bit(&mut self.referenced, i);
        true
    }

    /// Inserts a (super)page entry covering `span` pages starting at
    /// `base_vpage`, evicting a not-recently-used entry if full.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not a power of two or `base_vpage` is not
    /// aligned to it.
    pub fn insert(&mut self, base_vpage: u64, span: u64) {
        assert!(is_pow2(span), "superpage span must be a power of two");
        assert!(
            base_vpage.is_multiple_of(span),
            "superpage base must be span-aligned"
        );
        self.stats.inserts += 1;

        let victim = self.victim();
        if !self.is_free(victim) {
            self.stats.evictions += 1;
            self.clear_slot(victim);
        }
        self.entries[victim] = Entry { base_vpage, span };
        clear_bit(&mut self.free, victim);
        set_bit(&mut self.referenced, victim);
        if span == 1 {
            self.index.insert(base_vpage, victim);
            self.forget(base_vpage);
        } else {
            self.super_slots.push(victim);
        }
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.entries.fill(Entry::EMPTY);
        self.free_all();
        self.index.clear();
        self.super_slots.clear();
        self.reset_lookaside();
    }

    /// Invalidates any entry covering `vpage`; returns whether one existed.
    pub fn flush_page(&mut self, vpage: u64) -> bool {
        if let Some(i) = self.slot_of(vpage) {
            self.clear_slot(i);
            true
        } else {
            false
        }
    }

    /// Number of valid entries.
    pub fn valid_entries(&self) -> usize {
        let free: u32 = self.free.iter().map(|w| w.count_ones()).sum();
        self.entries.len() - free as usize
    }

    /// Serializes the entry array verbatim (slot order is NRU-relevant
    /// state), the superpage side list, and statistics. The single-page
    /// index is derived from the entries and is not written.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_TLB);
        w.usize(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            w.bool(!self.is_free(i));
            w.u64(e.base_vpage);
            w.u64(e.span);
            w.bool(bit(&self.referenced, i));
        }
        w.usize(self.super_slots.len());
        for &s in &self.super_slots {
            w.usize(s);
        }
        w.u64(self.stats.lookups);
        w.u64(self.stats.hits);
        w.u64(self.stats.inserts);
        w.u64(self.stats.evictions);
    }
}

/// The counters, under `tlb.*`.
impl Observe for TlbStats {
    fn observe(&self, m: &mut MetricsRegistry) {
        m.counter("tlb.lookups", self.lookups);
        m.counter("tlb.hits", self.hits);
        m.counter("tlb.misses", self.misses());
        m.counter("tlb.inserts", self.inserts);
        m.counter("tlb.evictions", self.evictions);
        m.gauge("tlb.hit_ratio", self.hit_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(n: usize) -> Tlb {
        Tlb::new(TlbConfig { entries: n })
    }

    #[test]
    fn miss_insert_hit() {
        let mut t = tlb(4);
        assert!(!t.lookup(7));
        t.insert(7, 1);
        assert!(t.lookup(7));
        let s = t.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn nru_evicts_unreferenced() {
        let mut t = tlb(2);
        t.insert(1, 1);
        t.insert(2, 1);
        // Reference both, then insert: all referenced → bits cleared,
        // entry 0 victimized.
        t.lookup(1);
        t.lookup(2);
        t.insert(3, 1);
        assert!(!t.lookup(1));
        assert!(t.lookup(3));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn superpage_entry_covers_span() {
        let mut t = tlb(4);
        t.insert(16, 16);
        for p in 16..32 {
            assert!(t.lookup(p), "page {p} should hit the superpage entry");
        }
        assert!(!t.lookup(32));
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn flush_page_removes_covering_entry() {
        let mut t = tlb(4);
        t.insert(0, 4);
        assert!(t.flush_page(2));
        assert!(!t.lookup(0));
        assert!(!t.flush_page(2));
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = tlb(4);
        t.insert(1, 1);
        t.insert(2, 1);
        t.flush();
        assert_eq!(t.valid_entries(), 0);
    }

    #[test]
    fn hit_ratio_zero_when_unused() {
        assert_eq!(TlbStats::default().hit_ratio(), 0.0);
    }

    /// The reference TLB: a valid and a referenced flag per entry, and the
    /// NRU victim found by linear scans (the implementation before the
    /// bitsets).
    struct ScanTlb {
        entries: Vec<(bool, u64, u64, bool)>, // (valid, base, span, referenced)
        index: FxHashMap<u64, usize>,
        super_slots: Vec<usize>,
        stats: TlbStats,
    }

    impl ScanTlb {
        const INVALID: (bool, u64, u64, bool) = (false, 0, 1, false);

        fn new(n: usize) -> Self {
            Self {
                entries: vec![Self::INVALID; n],
                index: FxHashMap::default(),
                super_slots: Vec::new(),
                stats: TlbStats::default(),
            }
        }

        fn slot_of(&self, vpage: u64) -> Option<usize> {
            if let Some(&i) = self.index.get(&vpage) {
                return Some(i);
            }
            self.super_slots.iter().copied().find(|&i| {
                let (valid, base, span, _) = self.entries[i];
                valid && vpage >= base && vpage < base + span
            })
        }

        fn clear_slot(&mut self, i: usize) {
            let (valid, base, span, _) = self.entries[i];
            if valid {
                if span == 1 {
                    self.index.remove(&base);
                } else {
                    self.super_slots.retain(|&s| s != i);
                }
            }
            self.entries[i] = Self::INVALID;
        }

        fn lookup(&mut self, vpage: u64) -> bool {
            self.stats.lookups += 1;
            let hit = self.slot_of(vpage);
            if let Some(i) = hit {
                self.entries[i].3 = true;
                self.stats.hits += 1;
            }
            hit.is_some()
        }

        fn insert(&mut self, base: u64, span: u64) {
            self.stats.inserts += 1;
            let victim = match self.entries.iter().position(|e| !e.0) {
                Some(i) => i,
                None => match self.entries.iter().position(|e| !e.3) {
                    Some(i) => i,
                    None => {
                        for e in &mut self.entries {
                            e.3 = false;
                        }
                        0
                    }
                },
            };
            if self.entries[victim].0 {
                self.stats.evictions += 1;
                self.clear_slot(victim);
            }
            self.entries[victim] = (true, base, span, true);
            if span == 1 {
                self.index.insert(base, victim);
            } else {
                self.super_slots.push(victim);
            }
        }

        fn flush(&mut self) {
            self.entries.fill(Self::INVALID);
            self.index.clear();
            self.super_slots.clear();
        }

        fn flush_page(&mut self, vpage: u64) -> bool {
            let hit = self.slot_of(vpage);
            if let Some(i) = hit {
                self.clear_slot(i);
            }
            hit.is_some()
        }

        fn valid_entries(&self) -> usize {
            self.entries.iter().filter(|e| e.0).count()
        }

        /// The `TLB ` section as the scanning implementation wrote it.
        fn snap_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.tag(TAG_TLB);
            w.usize(self.entries.len());
            for &(valid, base, span, referenced) in &self.entries {
                w.bool(valid);
                w.u64(base);
                w.u64(span);
                w.bool(referenced);
            }
            w.usize(self.super_slots.len());
            for &s in &self.super_slots {
                w.usize(s);
            }
            w.u64(self.stats.lookups);
            w.u64(self.stats.hits);
            w.u64(self.stats.inserts);
            w.u64(self.stats.evictions);
            w.finish()
        }
    }

    fn snap_bytes(t: &Tlb) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snap_save(&mut w);
        w.finish()
    }

    #[test]
    fn nru_matches_a_linear_scan_reference() {
        // Seeded random lookup / insert / flush sequences over
        // more pages than the TLB holds, at sizes around the 64-slot word
        // boundary: after every step the hit or miss, the statistics, the
        // occupancy and the snapshot bytes must match the reference. The
        // `hot` mix biases lookups to three pages (the A, B, C of a tiled
        // product), so lookaside hits dominate, and re-inserts resident
        // pages with span 1, which re-points their index entries.
        const PAGES: u64 = 512;
        for hot in [false, true] {
            for n in [1usize, 2, 63, 64, 65, 120, 128, 130] {
                let mut t = tlb(n);
                let mut reference = ScanTlb::new(n);
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64 ^ u64::from(hot) << 40;
                for step in 0..20_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Reuse a working set a little larger than the TLB most of
                    // the time, so hits, NRU sweeps and evictions all occur.
                    let page = if hot && (x >> 4) & 3 != 0 {
                        [7, 64 + 7, 2 * 64 + 9][(x >> 48) as usize % 3]
                    } else if x & 3 == 0 {
                        (x >> 8) % PAGES
                    } else {
                        (x >> 8) % (n as u64 + n as u64 / 4 + 2)
                    };
                    let ctx = format!("hot {hot} entries {n} step {step}");
                    match (x >> 32) % 64 {
                        9..=11 if hot => {
                            t.insert(page, 1);
                            reference.insert(page, 1);
                        }
                        0 => {
                            t.flush();
                            reference.flush();
                        }
                        1..=3 => {
                            assert_eq!(t.flush_page(page), reference.flush_page(page), "{ctx}")
                        }
                        4..=7 => {
                            let span = 1 << ((x >> 40) % 5);
                            let base = page & !(span - 1);
                            t.insert(base, span);
                            reference.insert(base, span);
                        }
                        _ => {
                            let hit = t.lookup(page);
                            assert_eq!(hit, reference.lookup(page), "{ctx}");
                            if !hit {
                                t.insert(page, 1);
                                reference.insert(page, 1);
                            }
                        }
                    }
                    assert_eq!(t.stats(), reference.stats, "{ctx}");
                    assert_eq!(t.valid_entries(), reference.valid_entries(), "{ctx}");
                    assert_eq!(snap_bytes(&t), reference.snap_bytes(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn uncounted_lookup_differs_only_in_lookup_counts() {
        // The same seeded lookups, inserts and flushes through `lookup` and
        // `lookup_uncounted`: every answer, the insert and eviction counts
        // and, with the counts swapped in, every snapshot byte must agree.
        let mut counted = tlb(8);
        let mut uncounted = tlb(8);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = (x >> 8) % 12;
            match (x >> 40) % 16 {
                0 => {
                    counted.flush();
                    uncounted.flush();
                }
                1 => {
                    let base = page & !3;
                    counted.insert(base, 4);
                    uncounted.insert(base, 4);
                }
                _ => {
                    let hit = counted.lookup(page);
                    assert_eq!(hit, uncounted.lookup_uncounted(page), "step {step}");
                    if !hit {
                        counted.insert(page, 1);
                        uncounted.insert(page, 1);
                    }
                }
            }
            let s = counted.stats();
            let want = TlbStats {
                lookups: 0,
                hits: 0,
                ..s
            };
            assert_eq!(uncounted.stats(), want, "step {step}");
            assert_eq!(
                snap_bytes(&uncounted.clone().with_stats(s)),
                snap_bytes(&counted),
                "step {step}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "span-aligned")]
    fn misaligned_superpage_rejected() {
        tlb(2).insert(3, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_span_rejected() {
        tlb(2).insert(0, 3);
    }
}

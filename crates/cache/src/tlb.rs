//! Fully-associative TLB with not-recently-used replacement.
//!
//! Models the Paint TLB: unified, single-cycle on a hit, fully associative,
//! NRU replacement. Entries may cover a power-of-two *span* of pages so the
//! superpage experiment (Impulse direct remapping used to build superpages
//! from non-contiguous physical pages, Swanson et al. ISCA '98, recapped in
//! Section 6) can be reproduced.

use impulse_obs::{MetricsRegistry, Observe};
use impulse_types::geom::is_pow2;
use impulse_types::snap::{SnapError, SnapReader, SnapWriter};
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

#[derive(Clone, Copy, Debug)]
struct Entry {
    valid: bool,
    /// First virtual page covered.
    base_vpage: u64,
    /// Pages covered (power of two; 1 for a normal entry).
    span: u64,
    referenced: bool,
}

impl Entry {
    const INVALID: Self = Self {
        valid: false,
        base_vpage: 0,
        span: 1,
        referenced: false,
    };

    #[inline]
    fn covers(&self, vpage: u64) -> bool {
        self.valid && vpage >= self.base_vpage && vpage < self.base_vpage + self.span
    }
}

/// A fully-associative, NRU-replaced TLB.
///
/// Lookups are O(1): an index maps single-page entries by page number, and
/// superpage entries (rare) live on a short side list.
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
    /// vpage → slot, for span-1 entries only.
    index: FxHashMap<u64, usize>,
    /// Slots holding superpage entries (span > 1).
    super_slots: Vec<usize>,
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
        Self {
            entries: vec![Entry::INVALID; cfg.entries],
            index: FxHashMap::default(),
            super_slots: Vec::new(),
            stats: TlbStats::default(),
        }
    }

    fn slot_of(&self, vpage: u64) -> Option<usize> {
        if let Some(&i) = self.index.get(&vpage) {
            return Some(i);
        }
        self.super_slots
            .iter()
            .copied()
            .find(|&i| self.entries[i].covers(vpage))
    }

    fn clear_slot(&mut self, i: usize) {
        let e = self.entries[i];
        if e.valid {
            if e.span == 1 {
                self.index.remove(&e.base_vpage);
            } else {
                self.super_slots.retain(|&s| s != i);
            }
        }
        self.entries[i] = Entry::INVALID;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Looks up a virtual page; returns `true` on a hit and marks the
    /// entry referenced.
    pub fn lookup(&mut self, vpage: u64) -> bool {
        self.stats.lookups += 1;
        if let Some(i) = self.slot_of(vpage) {
            self.entries[i].referenced = true;
            self.stats.hits += 1;
            true
        } else {
            false
        }
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

        let victim = if let Some(i) = self.entries.iter().position(|e| !e.valid) {
            i
        } else {
            // NRU: first unreferenced entry; if all are referenced, clear
            // all reference bits and take entry 0.
            match self.entries.iter().position(|e| !e.referenced) {
                Some(i) => i,
                None => {
                    for e in &mut self.entries {
                        e.referenced = false;
                    }
                    0
                }
            }
        };
        if self.entries[victim].valid {
            self.stats.evictions += 1;
            self.clear_slot(victim);
        }
        self.entries[victim] = Entry {
            valid: true,
            base_vpage,
            span,
            referenced: true,
        };
        if span == 1 {
            self.index.insert(base_vpage, victim);
        } else {
            self.super_slots.push(victim);
        }
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            *e = Entry::INVALID;
        }
        self.index.clear();
        self.super_slots.clear();
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
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Serializes the entry array verbatim (slot order is NRU-relevant
    /// state), the superpage side list, and statistics. The single-page
    /// index is derivable and rebuilt on load.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_TLB);
        w.usize(self.entries.len());
        for e in &self.entries {
            w.bool(e.valid);
            w.u64(e.base_vpage);
            w.u64(e.span);
            w.bool(e.referenced);
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

    /// Restores the state saved by [`Tlb::snap_save`] into a TLB freshly
    /// built from the same configuration, rebuilding the lookup index.
    pub fn snap_load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(TAG_TLB)?;
        let n = r.usize()?;
        if n != self.entries.len() {
            return Err(SnapError::Geometry("TLB entry count"));
        }
        for e in &mut self.entries {
            e.valid = r.bool()?;
            e.base_vpage = r.u64()?;
            e.span = r.u64()?;
            e.referenced = r.bool()?;
        }
        let supers = r.usize()?;
        self.super_slots.clear();
        for _ in 0..supers {
            let s = r.usize()?;
            if s >= n {
                return Err(SnapError::Geometry("TLB superpage slot out of range"));
            }
            self.super_slots.push(s);
        }
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            if e.valid && e.span == 1 {
                self.index.insert(e.base_vpage, i);
            }
        }
        self.stats.lookups = r.u64()?;
        self.stats.hits = r.u64()?;
        self.stats.inserts = r.u64()?;
        self.stats.evictions = r.u64()?;
        Ok(())
    }
}

impl Observe for Tlb {
    fn observe(&self, m: &mut MetricsRegistry) {
        let s = self.stats();
        m.counter("tlb.lookups", s.lookups);
        m.counter("tlb.hits", s.hits);
        m.counter("tlb.misses", s.misses());
        m.counter("tlb.inserts", s.inserts);
        m.counter("tlb.evictions", s.evictions);
        m.gauge("tlb.hit_ratio", s.hit_ratio());
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

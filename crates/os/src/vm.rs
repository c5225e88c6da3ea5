//! A process address space: virtual page table and region bookkeeping.

use impulse_types::geom::{round_up, PAGE_SHIFT, PAGE_SIZE};
use impulse_types::{FxHashMap, PAddr, VAddr, VRange};

/// Errors from address-space operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The virtual page is not mapped.
    NotMapped(u64),
    /// The virtual page is already mapped.
    AlreadyMapped(u64),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::NotMapped(p) => write!(f, "virtual page {p:#x} is not mapped"),
            VmError::AlreadyMapped(p) => write!(f, "virtual page {p:#x} is already mapped"),
        }
    }
}

impl std::error::Error for VmError {}

/// A single process's virtual address space.
///
/// Page-grained mapping from virtual pages to bus addresses (real physical
/// pages or shadow pages — the MMU does not distinguish). Virtual regions
/// are carved from a bump allocator with guard gaps.
#[derive(Clone, Debug, PartialEq)]
pub struct AddressSpace {
    pages: FxHashMap<u64, PAddr>,
    next_va: u64,
}

impl Default for AddressSpace {
    /// Same as [`AddressSpace::new`]: the null page is never handed out.
    fn default() -> Self {
        Self::new()
    }
}

/// Lowest virtual address handed out.
const VA_BASE: u64 = 0x0001_0000;
/// Guard gap between regions, to catch stray pointer arithmetic.
const GUARD: u64 = PAGE_SIZE;

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self {
            pages: FxHashMap::default(),
            next_va: VA_BASE,
        }
    }

    /// Reserves a virtual range of `bytes`, aligned to `align` (a power of
    /// two, at least the page size). No pages are mapped yet.
    pub fn reserve(&mut self, bytes: u64, align: u64) -> VRange {
        self.reserve_phased(bytes, align, 0)
    }

    /// Reserves a virtual range whose start is congruent to `phase`
    /// modulo `align` — the "appropriate alignment and offset
    /// characteristics" the Impulse paper's remap protocol lets
    /// applications request so that a new alias does not conflict with an
    /// existing stream in a virtually-indexed cache.
    ///
    /// `align` must be a power of two and `phase` a page-aligned offset
    /// below it; the kernel syscall layer validates user-supplied values
    /// and returns typed errors, so this is an internal invariant
    /// (debug-checked).
    pub fn reserve_phased(&mut self, bytes: u64, align: u64, phase: u64) -> VRange {
        let align = align.max(PAGE_SIZE);
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        debug_assert!(
            phase < align && phase.is_multiple_of(PAGE_SIZE),
            "phase must be a page-aligned offset below the alignment"
        );
        let base = round_up(self.next_va, align);
        let start = if base + phase >= self.next_va {
            base + phase
        } else {
            base + align + phase
        };
        let len = round_up(bytes.max(1), PAGE_SIZE);
        self.next_va = start + len + GUARD;
        VRange::new(VAddr::new(start), len)
    }

    /// Maps one virtual page to a bus page.
    ///
    /// # Errors
    ///
    /// Fails if the virtual page is already mapped.
    ///
    /// Both addresses must be page-aligned — the kernel only produces
    /// aligned pages, so this is an internal invariant (debug-checked).
    pub fn map_page(&mut self, v: VAddr, p: PAddr) -> Result<(), VmError> {
        debug_assert!(
            v.is_aligned(PAGE_SIZE),
            "virtual page must be aligned: {v:?}"
        );
        debug_assert!(p.is_aligned(PAGE_SIZE), "bus page must be aligned: {p:?}");
        let vpage = v.raw() >> PAGE_SHIFT;
        if self.pages.contains_key(&vpage) {
            return Err(VmError::AlreadyMapped(vpage));
        }
        self.pages.insert(vpage, p);
        Ok(())
    }

    /// Replaces the mapping of one virtual page (used when remapping an
    /// existing alias, e.g. re-pointing a tile alias at the next tile).
    ///
    /// # Errors
    ///
    /// Fails if the page was not previously mapped.
    pub fn remap_page(&mut self, v: VAddr, p: PAddr) -> Result<PAddr, VmError> {
        let vpage = v.raw() >> PAGE_SHIFT;
        match self.pages.insert(vpage, p) {
            Some(old) => Ok(old),
            None => {
                self.pages.remove(&vpage);
                Err(VmError::NotMapped(vpage))
            }
        }
    }

    /// Removes the mapping of one virtual page, returning what it mapped
    /// to.
    ///
    /// # Errors
    ///
    /// Fails if the page was not mapped.
    pub fn unmap_page(&mut self, v: VAddr) -> Result<PAddr, VmError> {
        let vpage = v.raw() >> PAGE_SHIFT;
        self.pages.remove(&vpage).ok_or(VmError::NotMapped(vpage))
    }

    /// Translates a virtual address to a bus address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] for an unmapped address — what a
    /// real MMU reports as a page fault. Callers modeling a CPU access
    /// with no handler installed treat it as a segfault.
    #[inline]
    pub fn translate(&self, v: VAddr) -> Result<PAddr, VmError> {
        let vpage = v.raw() >> PAGE_SHIFT;
        self.pages
            .get(&vpage)
            .map(|base| base.add(v.page_offset()))
            .ok_or(VmError::NotMapped(vpage))
    }

    /// Translates, returning `None` for an unmapped address.
    #[inline]
    pub fn try_translate(&self, v: VAddr) -> Option<PAddr> {
        let vpage = v.raw() >> PAGE_SHIFT;
        self.pages.get(&vpage).map(|base| base.add(v.page_offset()))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_page_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let r1 = a.reserve(100, 1);
        let r2 = a.reserve(5000, 1);
        assert!(r1.start().is_aligned(PAGE_SIZE));
        assert_eq!(r1.len(), PAGE_SIZE);
        assert_eq!(r2.len(), 2 * PAGE_SIZE);
        assert!(!r1.overlaps(&r2));
        assert!(r2.start().raw() >= r1.end().raw() + GUARD);
    }

    #[test]
    fn reserve_honors_alignment() {
        let mut a = AddressSpace::new();
        let r = a.reserve(10, 1 << 16);
        assert!(r.start().is_aligned(1 << 16));
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut a = AddressSpace::new();
        a.map_page(VAddr::new(0x10000), PAddr::new(0x80_0000))
            .unwrap();
        assert_eq!(a.translate(VAddr::new(0x10abc)), Ok(PAddr::new(0x80_0abc)));
        assert_eq!(a.try_translate(VAddr::new(0x20000)), None);
    }

    #[test]
    fn double_map_rejected() {
        let mut a = AddressSpace::new();
        a.map_page(VAddr::new(0x10000), PAddr::new(0)).unwrap();
        assert_eq!(
            a.map_page(VAddr::new(0x10000), PAddr::new(PAGE_SIZE)),
            Err(VmError::AlreadyMapped(0x10))
        );
    }

    #[test]
    fn remap_returns_old_target() {
        let mut a = AddressSpace::new();
        a.map_page(VAddr::new(0x10000), PAddr::new(0)).unwrap();
        let old = a
            .remap_page(VAddr::new(0x10000), PAddr::new(PAGE_SIZE))
            .unwrap();
        assert_eq!(old, PAddr::new(0));
        assert_eq!(a.translate(VAddr::new(0x10000)), Ok(PAddr::new(PAGE_SIZE)));
        assert!(a.remap_page(VAddr::new(0x20000), PAddr::new(0)).is_err());
    }

    #[test]
    fn unmap_removes() {
        let mut a = AddressSpace::new();
        a.map_page(VAddr::new(0x10000), PAddr::new(0)).unwrap();
        assert_eq!(a.unmap_page(VAddr::new(0x10000)), Ok(PAddr::new(0)));
        assert_eq!(a.mapped_pages(), 0);
        assert!(a.unmap_page(VAddr::new(0x10000)).is_err());
    }

    #[test]
    fn translate_unmapped_is_a_typed_error() {
        assert_eq!(
            AddressSpace::new().translate(VAddr::new(0x1234)),
            Err(VmError::NotMapped(0x1))
        );
    }

    #[test]
    fn default_never_hands_out_the_null_page() {
        let mut a = AddressSpace::default();
        let r = a.reserve(8, 1);
        assert!(r.start().raw() >= VA_BASE, "null page must stay unmapped");
    }

    #[test]
    fn reserve_phased_lands_on_requested_offset() {
        let mut a = AddressSpace::new();
        let r = a.reserve_phased(PAGE_SIZE, 32 * 1024, 16 * 1024);
        assert_eq!(r.start().raw() % (32 * 1024), 16 * 1024);
        // A second phased reservation still respects ordering.
        let r2 = a.reserve_phased(PAGE_SIZE, 32 * 1024, 4096);
        assert_eq!(r2.start().raw() % (32 * 1024), 4096);
        assert!(r2.start().raw() > r.end().raw());
    }
}

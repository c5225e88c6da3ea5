//! Shadow space descriptors (SDescs).
//!
//! Each descriptor owns one remapped shadow region: its bus-address range,
//! the remapping function the AddrCalc applies, and a 256-byte prefetch
//! buffer "that can be used to prefetch shadow memory" (Section 2.2). The
//! paper models eight descriptors despite needing no more than three for
//! its applications; the controller does the same.

use std::fmt;

use impulse_types::geom::is_pow2;
use impulse_types::{Cycle, PAddr, PRange, PvAddr};

use crate::prefetch::PrefetchCache;
use crate::remap::RemapFn;

/// A shadow-descriptor configuration rejected at creation time.
///
/// Every malformed parameter combination — the classic source of
/// silently-poisoned gathers — is caught when the descriptor is
/// configured, *before* the region can serve an access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DescError {
    /// The region start is not aligned to the controller line size.
    MisalignedRegion(PRange),
    /// A strided mapping with stride 0 (every object would overlap).
    ZeroStride,
    /// A strided object size that is not a power of two (the paper's
    /// no-divider restriction), or zero.
    ObjectSizeNotPow2(u64),
    /// A stride smaller than the object size (objects would overlap).
    StrideTooSmall {
        /// Configured stride in bytes.
        stride: u64,
        /// Configured object size in bytes.
        object_size: u64,
    },
    /// A gather element size that is not a power of two, or zero.
    ElemSizeNotPow2(u64),
    /// A gather element larger than the controller line (the AddrCalc
    /// gathers into line-sized buffers, so an element must fit in one).
    ElemLargerThanLine {
        /// Configured element size in bytes.
        elem_size: u64,
        /// Controller line size in bytes.
        line_bytes: u64,
    },
    /// A gather with an empty indirection vector.
    EmptyIndirectionVector,
    /// A gather whose indirection entries are zero bytes wide.
    ZeroIndexBytes,
    /// A gather whose image size (`len * elem_size`) overflows.
    VectorOverflow {
        /// Indirection-vector length in elements.
        len: u64,
        /// Configured element size in bytes.
        elem_size: u64,
    },
    /// A shadow region more than a page larger than the gather image.
    RegionExceedsImage {
        /// Shadow region size in bytes.
        region_bytes: u64,
        /// Gather image size in bytes.
        image_bytes: u64,
    },
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::MisalignedRegion(r) => {
                write!(f, "shadow region must start line-aligned: {r:?}")
            }
            DescError::ZeroStride => write!(f, "strided remapping has zero stride"),
            DescError::ObjectSizeNotPow2(s) => {
                write!(f, "strided object size must be a power of two, got {s}")
            }
            DescError::StrideTooSmall {
                stride,
                object_size,
            } => write!(
                f,
                "stride ({stride}) must be at least the object size ({object_size})"
            ),
            DescError::ElemSizeNotPow2(s) => {
                write!(f, "gather element size must be a power of two, got {s}")
            }
            DescError::ElemLargerThanLine {
                elem_size,
                line_bytes,
            } => write!(
                f,
                "gather element ({elem_size} B) exceeds the controller line ({line_bytes} B)"
            ),
            DescError::EmptyIndirectionVector => write!(f, "gather indirection vector is empty"),
            DescError::ZeroIndexBytes => write!(f, "indirection entries must be non-empty"),
            DescError::VectorOverflow { len, elem_size } => write!(
                f,
                "gather image overflows: {len} elements of {elem_size} bytes"
            ),
            DescError::RegionExceedsImage {
                region_bytes,
                image_bytes,
            } => write!(
                f,
                "shadow region ({region_bytes} bytes) larger than gather image ({image_bytes} bytes)"
            ),
        }
    }
}

impl std::error::Error for DescError {}

/// Per-descriptor statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DescStats {
    /// Shadow line reads served by this descriptor.
    pub reads: u64,
    /// Shadow line writes (scatters) served.
    pub writes: u64,
    /// Reads satisfied from the 256-byte prefetch buffer.
    pub buffer_hits: u64,
    /// Gather/scatter operations performed against DRAM.
    pub gathers: u64,
    /// Individual DRAM requests those operations issued.
    pub dram_requests: u64,
}

/// One configured shadow region at the memory controller.
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowDescriptor {
    region: PRange,
    remap: RemapFn,
    buffer: PrefetchCache,
    /// Last indirection-vector block fetched, to avoid recharging for
    /// sequential gathers that share a vector cache block.
    last_vector_block: Option<PvAddr>,
    stats: DescStats,
}

impl ShadowDescriptor {
    /// Configures a descriptor over `region` with remapping `remap`,
    /// validating every descriptor parameter at creation time. A
    /// rejected configuration never becomes visible to the access path,
    /// so a malformed descriptor cannot poison a gather.
    pub fn new(
        region: PRange,
        remap: RemapFn,
        line_bytes: u64,
        buffer_bytes: u64,
    ) -> Result<Self, DescError> {
        if !region.start().is_aligned(line_bytes) {
            return Err(DescError::MisalignedRegion(region));
        }
        match &remap {
            RemapFn::Direct { .. } => {}
            RemapFn::Strided {
                object_size,
                stride,
                ..
            } => {
                if *stride == 0 {
                    return Err(DescError::ZeroStride);
                }
                if !is_pow2(*object_size) {
                    return Err(DescError::ObjectSizeNotPow2(*object_size));
                }
                if stride < object_size {
                    return Err(DescError::StrideTooSmall {
                        stride: *stride,
                        object_size: *object_size,
                    });
                }
            }
            RemapFn::Gather {
                elem_size,
                indices,
                index_bytes,
                ..
            } => {
                if !is_pow2(*elem_size) {
                    return Err(DescError::ElemSizeNotPow2(*elem_size));
                }
                if *elem_size > line_bytes {
                    return Err(DescError::ElemLargerThanLine {
                        elem_size: *elem_size,
                        line_bytes,
                    });
                }
                if indices.is_empty() {
                    return Err(DescError::EmptyIndirectionVector);
                }
                if *index_bytes == 0 {
                    return Err(DescError::ZeroIndexBytes);
                }
                let len = indices.len() as u64;
                if len.checked_mul(*elem_size).is_none() {
                    return Err(DescError::VectorOverflow {
                        len,
                        elem_size: *elem_size,
                    });
                }
            }
        }
        if let Some(max) = remap.addressable_bytes() {
            // The OS maps shadow space in whole pages; more than a page of
            // slack beyond the gather image is a configuration bug.
            let limit = max
                .next_multiple_of(line_bytes)
                .next_multiple_of(impulse_types::geom::PAGE_SIZE);
            if region.len() > limit {
                return Err(DescError::RegionExceedsImage {
                    region_bytes: region.len(),
                    image_bytes: max,
                });
            }
        }
        Ok(Self {
            region,
            remap,
            buffer: PrefetchCache::new(buffer_bytes, line_bytes),
            last_vector_block: None,
            stats: DescStats::default(),
        })
    }

    /// The shadow bus-address range this descriptor serves.
    pub fn region(&self) -> PRange {
        self.region
    }

    /// The remapping function.
    pub fn remap(&self) -> &RemapFn {
        &self.remap
    }

    /// Per-descriptor statistics.
    pub fn stats(&self) -> DescStats {
        self.stats
    }

    /// Resets statistics (configuration and buffer contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DescStats::default();
    }

    /// Whether this descriptor serves `addr`.
    #[inline]
    pub fn matches(&self, addr: PAddr) -> bool {
        self.region.contains(addr)
    }

    /// Shadow offset (bytes from region start) of an address.
    #[inline]
    pub fn offset_of(&self, addr: PAddr) -> u64 {
        self.region.offset_of(addr)
    }

    pub(crate) fn note_read(&mut self) {
        self.stats.reads += 1;
    }

    pub(crate) fn note_write(&mut self) {
        self.stats.writes += 1;
    }

    pub(crate) fn note_gather(&mut self, dram_requests: u64) {
        self.stats.gathers += 1;
        self.stats.dram_requests += dram_requests;
    }

    /// Buffer lookup for a shadow line (by bus address); counts a hit.
    pub(crate) fn buffer_lookup(&mut self, line: PAddr, now: Cycle) -> Option<Cycle> {
        let r = self.buffer.demand_lookup(line, now);
        if r.is_some() {
            self.stats.buffer_hits += 1;
        }
        r
    }

    /// Whether the buffer already holds (or is filling) a shadow line.
    pub(crate) fn buffer_contains(&self, line: PAddr) -> bool {
        self.buffer.contains(line)
    }

    /// Records a background gather completing at `ready_at`.
    pub(crate) fn buffer_insert(&mut self, line: PAddr, ready_at: Cycle) {
        self.buffer.insert(line, ready_at);
    }

    /// Invalidates a buffered shadow line (consistency on scatter writes).
    pub(crate) fn buffer_invalidate(&mut self, line: PAddr) {
        self.buffer.invalidate(line);
    }

    /// Tracks indirection-vector block reuse; returns `true` if `block`
    /// was already the most recent block (no DRAM read needed).
    pub(crate) fn vector_block_cached(&mut self, block: PvAddr) -> bool {
        if self.last_vector_block == Some(block) {
            true
        } else {
            self.last_vector_block = Some(block);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn region(start: u64, len: u64) -> PRange {
        PRange::new(PAddr::new(start), len)
    }

    fn direct_desc() -> ShadowDescriptor {
        ShadowDescriptor::new(
            region(0x4000_0000, 4096),
            RemapFn::direct(PvAddr::new(0)),
            128,
            256,
        )
        .unwrap()
    }

    #[test]
    fn matches_and_offsets() {
        let d = direct_desc();
        assert!(d.matches(PAddr::new(0x4000_0000)));
        assert!(d.matches(PAddr::new(0x4000_0fff)));
        assert!(!d.matches(PAddr::new(0x4000_1000)));
        assert_eq!(d.offset_of(PAddr::new(0x4000_0080)), 0x80);
    }

    #[test]
    fn buffer_round_trip() {
        let mut d = direct_desc();
        let line = PAddr::new(0x4000_0000);
        assert!(d.buffer_lookup(line, 0).is_none());
        d.buffer_insert(line, 99);
        assert_eq!(d.buffer_lookup(line, 0), Some(99));
        assert_eq!(d.stats().buffer_hits, 1);
        d.buffer_invalidate(line);
        assert!(!d.buffer_contains(line));
    }

    #[test]
    fn vector_block_dedupe() {
        let mut d = direct_desc();
        let b = PvAddr::new(0x100);
        assert!(!d.vector_block_cached(b));
        assert!(d.vector_block_cached(b));
        assert!(!d.vector_block_cached(PvAddr::new(0x120)));
    }

    #[test]
    fn gather_region_size_checked() {
        let idx = Arc::new(vec![0u64; 16]); // 16 * 8 = 128 bytes image
        let remap = RemapFn::gather(PvAddr::new(0), 8, idx, PvAddr::new(0x9000), 4);
        // Page-rounded slack is fine (the OS maps whole pages)...
        assert!(ShadowDescriptor::new(region(0x4000_0000, 4096), remap.clone(), 128, 256).is_ok());
        // ...more than a page over the image is not.
        assert_eq!(
            ShadowDescriptor::new(region(0x4000_0000, 8192), remap, 128, 256).unwrap_err(),
            DescError::RegionExceedsImage {
                region_bytes: 8192,
                image_bytes: 128,
            }
        );
    }

    #[test]
    fn misaligned_region_rejected() {
        let r = region(0x4000_0020, 4096);
        assert_eq!(
            ShadowDescriptor::new(r, RemapFn::direct(PvAddr::new(0)), 128, 256).unwrap_err(),
            DescError::MisalignedRegion(r)
        );
    }

    #[test]
    fn strided_params_validated_at_creation() {
        let r = region(0x4000_0000, 4096);
        // Bypass the constructor's debug_assert to exercise the typed
        // rejection path the controller relies on in release builds.
        let zero_stride = RemapFn::Strided {
            pv_base: PvAddr::new(0),
            object_size: 8,
            stride: 0,
        };
        assert_eq!(
            ShadowDescriptor::new(r, zero_stride, 128, 256).unwrap_err(),
            DescError::ZeroStride
        );
        let bad_object = RemapFn::Strided {
            pv_base: PvAddr::new(0),
            object_size: 24,
            stride: 100,
        };
        assert_eq!(
            ShadowDescriptor::new(r, bad_object, 128, 256).unwrap_err(),
            DescError::ObjectSizeNotPow2(24)
        );
        let overlapping = RemapFn::Strided {
            pv_base: PvAddr::new(0),
            object_size: 64,
            stride: 8,
        };
        assert_eq!(
            ShadowDescriptor::new(r, overlapping, 128, 256).unwrap_err(),
            DescError::StrideTooSmall {
                stride: 8,
                object_size: 64,
            }
        );
    }

    #[test]
    fn gather_params_validated_at_creation() {
        let r = region(0x4000_0000, 128);
        let mk = |elem_size, indices: Vec<u64>, index_bytes| RemapFn::Gather {
            pv_base: PvAddr::new(0),
            elem_size,
            indices: Arc::new(indices),
            vec_pv_base: PvAddr::new(0x9000),
            index_bytes,
        };
        assert_eq!(
            ShadowDescriptor::new(r, mk(24, vec![0; 16], 4), 128, 256).unwrap_err(),
            DescError::ElemSizeNotPow2(24)
        );
        assert_eq!(
            ShadowDescriptor::new(r, mk(256, vec![0; 16], 4), 128, 256).unwrap_err(),
            DescError::ElemLargerThanLine {
                elem_size: 256,
                line_bytes: 128,
            }
        );
        assert_eq!(
            ShadowDescriptor::new(r, mk(8, vec![], 4), 128, 256).unwrap_err(),
            DescError::EmptyIndirectionVector
        );
        assert_eq!(
            ShadowDescriptor::new(r, mk(8, vec![0; 16], 0), 128, 256).unwrap_err(),
            DescError::ZeroIndexBytes
        );
        // The happy path still configures.
        assert!(ShadowDescriptor::new(r, mk(8, vec![0; 16], 4), 128, 256).is_ok());
    }
}

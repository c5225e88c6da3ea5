//! Shadow-address remapping functions (the AddrCalc ALU).
//!
//! A shadow descriptor holds one [`RemapFn`] that maps *offsets within a
//! shadow region* to pseudo-virtual addresses. The three flavours are the
//! ones the paper's initial design supports (Section 2.3):
//!
//! * [`RemapFn::Direct`] — shadow page → physical page, used for no-copy
//!   page recoloring and superpage construction.
//! * [`RemapFn::Strided`] — packs strided objects (matrix diagonals, tile
//!   rows) into dense shadow lines. To keep the hardware divider-free, the
//!   paper requires the strided *object size* to be a power of two; we
//!   enforce the same restriction, and the AddrCalc here splits an
//!   offset into object and byte-within-object with a shift and a mask,
//!   as the hardware does.
//! * [`RemapFn::Gather`] — scatter/gather through an indirection vector:
//!   shadow element *k* maps to `pv_base + elem_size * vector[k]`. The
//!   vector itself lives in memory and is read *by the controller*, not by
//!   the CPU. The element size is a power of two too, so element index and
//!   byte-within-element are again a shift and a mask.
//!
//! The shift/mask forms rely on the power-of-two sizes that
//! [`ShadowDescriptor::new`](crate::ShadowDescriptor::new) enforces before
//! a function can reach the access path.

use std::sync::Arc;

use impulse_types::geom::is_pow2;
use impulse_types::PvAddr;

/// A contiguous pseudo-virtual read/write segment produced by remapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Starting pseudo-virtual address.
    pub pv: PvAddr,
    /// Length in bytes.
    pub bytes: u64,
}

/// A shadow-offset → pseudo-virtual remapping function.
///
/// Constructed through the validating constructors ([`RemapFn::direct`],
/// [`RemapFn::strided`], [`RemapFn::gather`]); the enum itself carries the
/// parameters the AddrCalc hardware would hold in a shadow descriptor.
///
/// # Examples
///
/// Packing a matrix diagonal: 8-byte objects strided a full row apart map
/// onto consecutive shadow offsets.
///
/// ```
/// use impulse_core::RemapFn;
/// use impulse_types::PvAddr;
///
/// let diag = RemapFn::strided(PvAddr::new(0), 8, (1024 + 1) * 8);
/// assert_eq!(diag.pv_of(0), PvAddr::new(0));
/// assert_eq!(diag.pv_of(8), PvAddr::new((1024 + 1) * 8));
///
/// let mut segments = Vec::new();
/// diag.segments(0, 128, &mut segments); // one L2 line = 16 elements
/// assert_eq!(segments.len(), 16);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum RemapFn {
    /// Identity map into pseudo-virtual space; the controller page table
    /// supplies arbitrary page-grained placement.
    Direct {
        /// Pseudo-virtual base of the remapped image.
        pv_base: PvAddr,
    },
    /// Dense packing of strided objects.
    Strided {
        /// Pseudo-virtual base of the underlying data structure.
        pv_base: PvAddr,
        /// Size of each packed object in bytes (power of two).
        object_size: u64,
        /// Distance between consecutive objects in the underlying
        /// structure, in bytes.
        stride: u64,
    },
    /// Scatter/gather through an indirection vector.
    Gather {
        /// Pseudo-virtual base of the underlying (scattered) structure.
        pv_base: PvAddr,
        /// Element size in bytes (power of two).
        elem_size: u64,
        /// The indirection vector: shadow element `k` maps to element
        /// `indices[k]` of the underlying structure.
        indices: Arc<Vec<u64>>,
        /// Pseudo-virtual base of the indirection vector itself (the
        /// controller reads it from memory).
        vec_pv_base: PvAddr,
        /// Bytes per indirection-vector entry (4 in the paper's CG code).
        index_bytes: u64,
    },
}

impl RemapFn {
    /// Creates a direct (page-grained) remapping.
    pub fn direct(pv_base: PvAddr) -> Self {
        RemapFn::Direct { pv_base }
    }

    /// Creates a strided remapping.
    ///
    /// Parameter validity (`object_size` a power of two — the paper's
    /// no-divider restriction — and `stride >= object_size`) is enforced
    /// with a typed error when the function is installed into a
    /// descriptor ([`ShadowDescriptor::new`](crate::ShadowDescriptor::new));
    /// debug builds additionally assert here so direct misuse is caught
    /// at the construction site.
    pub fn strided(pv_base: PvAddr, object_size: u64, stride: u64) -> Self {
        debug_assert!(
            is_pow2(object_size),
            "strided object size must be a power of two (got {object_size})"
        );
        debug_assert!(
            stride >= object_size,
            "stride ({stride}) must be at least the object size ({object_size})"
        );
        RemapFn::Strided {
            pv_base,
            object_size,
            stride,
        }
    }

    /// Creates a scatter/gather remapping through `indices`.
    ///
    /// As with [`RemapFn::strided`], parameter validity (`elem_size` a
    /// power of two, non-empty `indices`, non-zero `index_bytes`) is
    /// enforced with a typed error at descriptor-creation time; debug
    /// builds additionally assert here.
    pub fn gather(
        pv_base: PvAddr,
        elem_size: u64,
        indices: Arc<Vec<u64>>,
        vec_pv_base: PvAddr,
        index_bytes: u64,
    ) -> Self {
        debug_assert!(
            is_pow2(elem_size),
            "gather element size must be a power of two (got {elem_size})"
        );
        debug_assert!(!indices.is_empty(), "gather indirection vector is empty");
        debug_assert!(index_bytes > 0, "indirection entries must be non-empty");
        RemapFn::Gather {
            pv_base,
            elem_size,
            indices,
            vec_pv_base,
            index_bytes,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RemapFn::Direct { .. } => "direct",
            RemapFn::Strided { .. } => "strided",
            RemapFn::Gather { .. } => "gather",
        }
    }

    /// Number of bytes of shadow space this function can serve, or `None`
    /// if unbounded (direct and strided mappings are bounded only by their
    /// region size).
    pub fn addressable_bytes(&self) -> Option<u64> {
        match self {
            RemapFn::Gather {
                elem_size, indices, ..
            } => Some(elem_size * indices.len() as u64),
            _ => None,
        }
    }

    /// Maps a single shadow offset to its pseudo-virtual address.
    ///
    /// Gather offsets past the indirection vector clamp to the last
    /// element — the same line-padding rule [`RemapFn::segments`]
    /// applies — with a `debug_assert!` flagging the overshoot in debug
    /// builds (descriptor creation bounds the region, so reaching this
    /// in release indicates an internal inconsistency, not user input).
    pub fn pv_of(&self, soffset: u64) -> PvAddr {
        match self {
            RemapFn::Direct { pv_base } => pv_base.add(soffset),
            RemapFn::Strided {
                pv_base,
                object_size,
                stride,
            } => {
                let shift = object_size.trailing_zeros();
                let within = soffset & (object_size - 1);
                pv_base.add((soffset >> shift) * stride + within)
            }
            RemapFn::Gather {
                pv_base,
                elem_size,
                indices,
                ..
            } => {
                let shift = elem_size.trailing_zeros();
                let elem = (soffset >> shift) as usize;
                let within = soffset & (elem_size - 1);
                debug_assert!(
                    elem < indices.len(),
                    "gather offset {soffset} beyond indirection vector"
                );
                let Some(last) = indices.len().checked_sub(1) else {
                    return *pv_base;
                };
                pv_base.add((indices[elem.min(last)] << shift) + within)
            }
        }
    }

    /// Expands the shadow byte range `[soffset, soffset + len)` into the
    /// contiguous pseudo-virtual segments the controller must read (or
    /// scatter to). Gather offsets past the end of the indirection vector
    /// are clamped to the last element, mirroring the line-padding the OS
    /// applies when sizing the region.
    pub fn segments(&self, soffset: u64, len: u64, out: &mut Vec<Segment>) {
        out.clear();
        if len == 0 {
            return;
        }
        match self {
            RemapFn::Direct { pv_base } => out.push(Segment {
                pv: pv_base.add(soffset),
                bytes: len,
            }),
            RemapFn::Strided {
                pv_base,
                object_size,
                stride,
            } => {
                let shift = object_size.trailing_zeros();
                let mut off = soffset;
                let end = soffset + len;
                while off < end {
                    let within = off & (object_size - 1);
                    let take = (object_size - within).min(end - off);
                    out.push(Segment {
                        pv: pv_base.add((off >> shift) * stride + within),
                        bytes: take,
                    });
                    off += take;
                }
            }
            RemapFn::Gather {
                pv_base,
                elem_size,
                indices,
                ..
            } => {
                let Some(last) = (indices.len() as u64).checked_sub(1) else {
                    return; // empty vector: nothing addressable
                };
                let shift = elem_size.trailing_zeros();
                let mut off = soffset;
                let end = soffset + len;
                while off < end {
                    let elem = (off >> shift).min(last);
                    let within = off & (elem_size - 1);
                    let take = (elem_size - within).min(end - off);
                    out.push(Segment {
                        pv: pv_base.add((indices[elem as usize] << shift) + within),
                        bytes: take,
                    });
                    off += take;
                }
            }
        }
    }

    /// For gather mappings: the indirection-vector segment the controller
    /// must read to serve the shadow byte range `[soffset, soffset+len)`.
    /// Returns `None` for direct and strided mappings.
    pub fn vector_segment(&self, soffset: u64, len: u64) -> Option<Segment> {
        match self {
            RemapFn::Gather {
                elem_size,
                indices,
                vec_pv_base,
                index_bytes,
                ..
            } => {
                let last = (indices.len() as u64).checked_sub(1)?;
                let shift = elem_size.trailing_zeros();
                let first_elem = (soffset >> shift).min(last);
                let last_elem = ((soffset + len - 1) >> shift).min(last);
                Some(Segment {
                    pv: vec_pv_base.add(first_elem * index_bytes),
                    bytes: (last_elem - first_elem + 1) * index_bytes,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(x: u64) -> PvAddr {
        PvAddr::new(x)
    }

    #[test]
    fn direct_is_identity_plus_base() {
        let f = RemapFn::direct(pv(0x1000));
        assert_eq!(f.pv_of(0), pv(0x1000));
        assert_eq!(f.pv_of(0x234), pv(0x1234));
        let mut segs = Vec::new();
        f.segments(64, 128, &mut segs);
        assert_eq!(
            segs,
            vec![Segment {
                pv: pv(0x1040),
                bytes: 128
            }]
        );
    }

    #[test]
    fn strided_packs_diagonal() {
        // Diagonal of a 1024-wide f64 matrix: 8-byte objects, stride
        // (1024+1)*8.
        let stride = (1024 + 1) * 8;
        let f = RemapFn::strided(pv(0), 8, stride);
        assert_eq!(f.pv_of(0), pv(0));
        assert_eq!(f.pv_of(8), pv(stride));
        assert_eq!(f.pv_of(20), pv(2 * stride + 4));

        let mut segs = Vec::new();
        f.segments(0, 32, &mut segs);
        assert_eq!(segs.len(), 4);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.bytes, 8);
            assert_eq!(s.pv, pv(i as u64 * stride));
        }
    }

    #[test]
    fn strided_objects_larger_than_request_are_clipped() {
        // 256-byte tile rows, 4 KB row pitch: one 128-byte line is half a
        // row.
        let f = RemapFn::strided(pv(0), 256, 4096);
        let mut segs = Vec::new();
        f.segments(128, 128, &mut segs);
        assert_eq!(
            segs,
            vec![Segment {
                pv: pv(128),
                bytes: 128
            }]
        );
        f.segments(192, 128, &mut segs);
        assert_eq!(
            segs,
            vec![
                Segment {
                    pv: pv(192),
                    bytes: 64
                },
                Segment {
                    pv: pv(4096),
                    bytes: 64
                },
            ]
        );
    }

    #[test]
    fn gather_follows_indirection_vector() {
        let idx = Arc::new(vec![5u64, 0, 9, 2]);
        let f = RemapFn::gather(pv(0x1000), 8, idx, pv(0x8000), 4);
        assert_eq!(f.pv_of(0), pv(0x1000 + 40));
        assert_eq!(f.pv_of(8), pv(0x1000));
        assert_eq!(f.pv_of(17), pv(0x1000 + 72 + 1));

        let mut segs = Vec::new();
        f.segments(0, 32, &mut segs);
        let pvs: Vec<u64> = segs.iter().map(|s| s.pv.raw() - 0x1000).collect();
        assert_eq!(pvs, vec![40, 0, 72, 16]);
        assert!(segs.iter().all(|s| s.bytes == 8));
    }

    #[test]
    fn gather_clamps_past_end_of_vector() {
        let idx = Arc::new(vec![3u64, 7]);
        let f = RemapFn::gather(pv(0), 8, idx, pv(0x8000), 4);
        let mut segs = Vec::new();
        // A 32-byte line over a 16-byte structure: tail reads repeat the
        // last element instead of faulting.
        f.segments(0, 32, &mut segs);
        let pvs: Vec<u64> = segs.iter().map(|s| s.pv.raw()).collect();
        assert_eq!(pvs, vec![24, 56, 56, 56]);
        assert_eq!(f.addressable_bytes(), Some(16));
    }

    #[test]
    fn vector_segment_covers_needed_indices() {
        let idx = Arc::new(vec![0u64; 100]);
        let f = RemapFn::gather(pv(0), 8, idx, pv(0x8000), 4);
        let seg = f.vector_segment(16, 32).unwrap();
        // Elements 2..6 → vector bytes [8, 24).
        assert_eq!(seg.pv, pv(0x8008));
        assert_eq!(seg.bytes, 16);
        assert!(RemapFn::direct(pv(0)).vector_segment(0, 8).is_none());
    }

    #[test]
    fn shift_mask_addrcalc_matches_division_reference() {
        let mut rng = impulse_fault::XorShift64::new(0x2545_F491_4F6C_DD1D);
        let mut segs = Vec::new();
        for size in (0..=12).map(|b| 1u64 << b) {
            let idx: Vec<u64> = (0..64).map(|_| rng.below(4096)).collect();
            let stride = size + rng.below(5000);
            // The AddrCalc with divisions: object `o` of a strided map
            // starts at `o * stride`, gather element `o` at `idx[o] * size`.
            let gather = RemapFn::gather(pv(0x1000), size, Arc::new(idx.clone()), pv(0x8000), 4);
            let strided = RemapFn::strided(pv(0x1000), size, stride);
            let maps: [(RemapFn, &dyn Fn(u64) -> u64); 2] = [
                (strided, &|o| o * stride),
                (gather, &|o| idx[o as usize] * size),
            ];
            for (f, place) in &maps {
                for _ in 0..64 {
                    // Unaligned starts; lengths that cross objects.
                    let soffset = rng.below(64 * size);
                    let len = 1 + rng.below((3 * size).min(64 * size - soffset));
                    let (mut expected, mut off) = (Vec::new(), soffset);
                    while off < soffset + len {
                        let take = (size - off % size).min(soffset + len - off);
                        let at = pv(0x1000 + place(off / size) + off % size);
                        expected.push(Segment {
                            pv: at,
                            bytes: take,
                        });
                        off += take;
                    }
                    f.segments(soffset, len, &mut segs);
                    assert_eq!(segs, expected, "{f:?} @ {soffset}+{len}");
                    assert_eq!(f.pv_of(soffset), expected[0].pv);
                    if let Some(v) = f.vector_segment(soffset, len) {
                        let (first, last) = (soffset / size, (soffset + len - 1) / size);
                        let want = (pv(0x8000 + 4 * first), 4 * (last - first + 1));
                        assert_eq!((v.pv, v.bytes), want);
                    }
                }
            }
        }
    }

    #[test]
    fn segments_empty_len_yields_nothing() {
        let f = RemapFn::direct(pv(0));
        let mut segs = vec![Segment {
            pv: pv(1),
            bytes: 1,
        }];
        f.segments(0, 0, &mut segs);
        assert!(segs.is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RemapFn::direct(pv(0)).name(), "direct");
        assert_eq!(RemapFn::strided(pv(0), 8, 8).name(), "strided");
    }

    // The constructor asserts only in debug builds; the typed rejection
    // both profiles rely on is `desc::tests::strided_params_validated_at_creation`.
    #[test]
    #[should_panic(expected = "power of two")]
    #[cfg(debug_assertions)]
    fn strided_rejects_non_pow2_object() {
        let _ = RemapFn::strided(pv(0), 24, 100);
    }

    // Release builds clamp to the last element instead (see `pv_of`).
    #[test]
    #[should_panic(expected = "beyond indirection vector")]
    #[cfg(debug_assertions)]
    fn gather_pv_of_checks_bounds() {
        let f = RemapFn::gather(pv(0), 8, Arc::new(vec![1]), pv(0), 4);
        let _ = f.pv_of(8);
    }
}

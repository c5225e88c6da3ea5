//! Memory-system geometry constants and alignment helpers.
//!
//! The constants mirror the Paint simulator configuration used in the
//! paper's evaluation (Section 4): 4 KB pages, 32-byte L1 lines, 128-byte
//! L2 lines. Components take their geometry from their own config structs;
//! these constants are the workspace-wide defaults.

/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// log2 of the L1 data cache line size.
pub const LINE_SHIFT_L1: u32 = 5;
/// L1 data cache line size in bytes (32 B, as in the HP PA-RISC L1).
pub const LINE_SIZE_L1: u64 = 1 << LINE_SHIFT_L1;

/// log2 of the L2 data cache line size.
pub const LINE_SHIFT_L2: u32 = 7;
/// L2 data cache line size in bytes (128 B).
pub const LINE_SIZE_L2: u64 = 1 << LINE_SHIFT_L2;

/// Returns `true` if `x` is a power of two (and non-zero).
#[inline]
pub const fn is_pow2(x: u64) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Rounds `x` up to the next multiple of `align` (a power of two).
///
/// # Panics
///
/// Panics in debug builds if the addition overflows.
#[inline]
pub const fn round_up(x: u64, align: u64) -> u64 {
    (x + align - 1) & !(align - 1)
}

/// Rounds `x` down to a multiple of `align` (a power of two).
#[inline]
pub const fn round_down(x: u64, align: u64) -> u64 {
    x & !(align - 1)
}

/// Number of `unit`-sized blocks needed to cover `bytes` bytes.
#[inline]
pub const fn blocks_for(bytes: u64, unit: u64) -> u64 {
    bytes.div_ceil(unit)
}

/// `x / 2^shift` rounded up: [`blocks_for`] for a power-of-two unit,
/// without a divider.
#[inline]
pub const fn shr_ceil(x: u64, shift: u32) -> u64 {
    (x >> shift) + ((x & ((1 << shift) - 1)) != 0) as u64
}

/// log2 of a power-of-two value.
///
/// # Panics
///
/// Panics if `x` is not a power of two.
#[inline]
pub fn log2(x: u64) -> u32 {
    assert!(is_pow2(x), "log2 of non-power-of-two: {x}");
    x.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(LINE_SIZE_L1, 32);
        assert_eq!(LINE_SIZE_L2, 128);
        assert_eq!(1u64 << PAGE_SHIFT, PAGE_SIZE);
    }

    #[test]
    fn pow2_checks() {
        assert!(is_pow2(1));
        assert!(is_pow2(4096));
        assert!(!is_pow2(0));
        assert!(!is_pow2(48));
    }

    #[test]
    fn rounding() {
        assert_eq!(round_up(1, 32), 32);
        assert_eq!(round_up(32, 32), 32);
        assert_eq!(round_down(63, 32), 32);
        assert_eq!(round_down(64, 32), 64);
    }

    #[test]
    fn blocks() {
        assert_eq!(blocks_for(0, 32), 0);
        assert_eq!(blocks_for(1, 32), 1);
        assert_eq!(blocks_for(32, 32), 1);
        assert_eq!(blocks_for(33, 32), 2);
        for x in 0..300 {
            for shift in 0..9 {
                assert_eq!(
                    shr_ceil(x, shift),
                    blocks_for(x, 1 << shift),
                    "{x} >> {shift}"
                );
            }
        }
    }

    #[test]
    fn log2_of_pow2() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(4096), 12);
    }

    #[test]
    #[should_panic(expected = "non-power-of-two")]
    fn log2_rejects_non_pow2() {
        let _ = log2(3);
    }
}

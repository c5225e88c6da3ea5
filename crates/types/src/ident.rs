//! Stable 64-bit digests for seals and seeded test streams.
//!
//! * [`fnv64`] — FNV-1a over a byte string; the flight recorder seals
//!   its captures with it.
//! * [`splitmix64`] — the SplitMix64 avalanche, which spreads
//!   low-entropy inputs (small integers, similar seeds) across the
//!   whole word.
//!
//! The digests are deliberately *not* cryptographic: they defend
//! against accidental collisions and torn bytes, not adversaries.
//!
//! # Examples
//!
//! ```
//! use impulse_types::ident::{fnv64, splitmix64};
//!
//! assert_eq!(fnv64(b"table1"), fnv64(b"table1"));
//! assert_ne!(fnv64(b"table1"), fnv64(b"table2"));
//! assert_ne!(splitmix64(1), splitmix64(2));
//! ```

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: a fast, invertible avalanche that spreads
/// low-entropy inputs (small integers, similar strings) across all 64
/// bits. The standard constants from Steele et al.'s SplitMix64.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls_and_spread() {
        assert_eq!(fnv64(b"table1"), fnv64(b"table1"));
        assert_ne!(fnv64(b"table1"), fnv64(b"table2"));
        // Small inputs land far apart (avalanche sanity, not statistics).
        let d: std::collections::HashSet<u64> = (0u64..512).map(splitmix64).collect();
        assert_eq!(d.len(), 512);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

//! Stable 64-bit digests: the snapshot configuration fingerprint and
//! seeded test streams.
//!
//! * [`splitmix64`] — the SplitMix64 avalanche, which spreads
//!   low-entropy inputs (small integers, similar strings) across the
//!   whole word.
//! * [`digest64`] — FNV-1a over the bytes, finished with
//!   [`splitmix64`] so short or similar inputs still spread over the
//!   whole word.
//!
//! The digests are deliberately *not* cryptographic: they defend
//! against accidental collisions and torn bytes, not adversaries, the
//! same contract as the snapshot checksums.
//!
//! # Examples
//!
//! ```
//! use impulse_types::ident::digest64;
//!
//! assert_eq!(digest64(b"table1"), digest64(b"table1"));
//! assert_ne!(digest64(b"table1"), digest64(b"table2"));
//! ```

use crate::snap::fnv64;

/// SplitMix64 finalizer: a fast, invertible avalanche that spreads
/// low-entropy inputs (small integers, similar strings) across all 64
/// bits. The standard constants from Steele et al.'s SplitMix64.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digest of a byte string: FNV-1a folded through [`splitmix64`].
pub fn digest64(bytes: &[u8]) -> u64 {
    splitmix64(fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls_and_spread() {
        assert_eq!(digest64(b"table1"), digest64(b"table1"));
        assert_ne!(digest64(b"table1"), digest64(b"table2"));
        // Small inputs land far apart (avalanche sanity, not statistics).
        let d: std::collections::HashSet<u64> = (0u64..512).map(splitmix64).collect();
        assert_eq!(d.len(), 512);
    }
}

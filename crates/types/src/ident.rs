//! Stable experiment identity: one digest discipline for every keyed
//! artifact.
//!
//! An experiment is identified by **what it runs** (its name and the
//! full system configuration it runs under) and **what it is fed** (the
//! master seed). Several subsystems need that identity as a compact
//! key — the crash-safe run journal and flight capture file names —
//! and before this module each invented its own keying (id strings,
//! raw FNV of a `Debug` string, `(name, seed)` tuples).
//! [`ExperimentKey`] replaces those ad-hoc schemes with one stable,
//! well-mixed 64-bit digest:
//!
//! * [`digest64`] — FNV-1a over the bytes, finished with the
//!   SplitMix64 avalanche so short or similar inputs still spread over
//!   the whole word.
//! * [`mix`] — order-sensitive combination of two digests.
//! * [`ExperimentKey`] — `(config digest, seed)` with a combined
//!   64-bit form and a fixed-width hex rendering for file names and
//!   journal records.
//!
//! The digests are deliberately *not* cryptographic: they defend
//! against accidental collisions and torn bytes, not adversaries, the
//! same contract as the snapshot/journal checksums.
//!
//! # Examples
//!
//! ```
//! use impulse_types::ident::ExperimentKey;
//!
//! let a = ExperimentKey::from_id("table1/conventional", 7);
//! let b = ExperimentKey::from_id("table1/conventional", 8);
//! assert_ne!(a.combined(), b.combined());
//! assert_eq!(a.hex().len(), 16);
//! assert_eq!(a, ExperimentKey::from_id("table1/conventional", 7));
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

/// Order-sensitive combination of two digests: `mix(a, b) != mix(b, a)`
/// in general, so "name then config" cannot collide with "config then
/// name".
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// The canonical experiment identity: the digest of everything that
/// determines the run (name + configuration) and the master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExperimentKey {
    /// Digest of the experiment definition (name and/or configuration).
    pub config: u64,
    /// The master seed the experiment runs under.
    pub seed: u64,
}

impl ExperimentKey {
    /// A key from an already-computed configuration digest.
    pub fn new(config: u64, seed: u64) -> Self {
        Self { config, seed }
    }

    /// A key for grids that identify experiments by id string alone
    /// (the run journal's discipline): the config digest is the digest
    /// of the id bytes.
    pub fn from_id(id: &str, seed: u64) -> Self {
        Self::new(digest64(id.as_bytes()), seed)
    }

    /// The combined 64-bit form — the map key and wire representation.
    pub fn combined(self) -> u64 {
        mix(self.config, self.seed)
    }

    /// Fixed-width (16 hex digit) rendering of [`ExperimentKey::combined`],
    /// used in capture file names and journal records.
    pub fn hex(self) -> String {
        format!("{:016x}", self.combined())
    }
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

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_eq!(mix(1, 2), mix(1, 2));
    }

    #[test]
    fn keys_distinguish_config_and_seed() {
        let base = ExperimentKey::from_id("fig1/remapped", 1);
        assert_ne!(base, ExperimentKey::from_id("fig1/remapped", 2));
        assert_ne!(base, ExperimentKey::from_id("fig1/conventional", 1));
        assert_ne!(
            base.combined(),
            ExperimentKey::from_id("fig1/remapped", 2).combined()
        );
    }

    #[test]
    fn hex_is_fixed_width_and_parses_back() {
        let k = ExperimentKey::new(0, 0);
        assert_eq!(k.hex().len(), 16);
        assert_eq!(
            u64::from_str_radix(&k.hex(), 16).expect("hex parses"),
            k.combined()
        );
    }
}

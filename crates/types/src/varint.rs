//! LEB128 varints and zigzag mapping — the integer encoding every
//! Impulse binary codec shares.
//!
//! The flight-recorder trace codec (`impulse-trace-v1`) frames its
//! integers this way: unsigned values as little-endian base-128
//! varints, signed deltas zigzag-mapped onto the unsigned space first.
//! Keeping the primitive here (rather than inside the codec) means one
//! set of boundary-condition tests covers any format that adopts it.
//!
//! # Examples
//!
//! ```
//! use impulse_types::varint::{get, put, unzigzag, zigzag};
//!
//! let mut buf = Vec::new();
//! put(&mut buf, 300);
//! put(&mut buf, zigzag(-7));
//! let mut pos = 0;
//! assert_eq!(get(&buf, &mut pos).unwrap(), 300);
//! assert_eq!(unzigzag(get(&buf, &mut pos).unwrap()), -7);
//! assert_eq!(pos, buf.len());
//! ```

use std::fmt;

/// Decoding failures for [`get`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended in the middle of a varint.
    Truncated,
    /// The encoding carries more payload bits than a `u64` holds (more
    /// than ten bytes, or a tenth byte above 1).
    Overlong,
}

impl fmt::Display for VarintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "truncated LEB128 varint"),
            VarintError::Overlong => write!(f, "over-long LEB128 varint"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Appends `v` as an LEB128 varint.
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint starting at `*pos`, advancing it past the
/// bytes consumed.
///
/// # Errors
///
/// [`VarintError::Truncated`] on mid-varint EOF; [`VarintError::Overlong`]
/// if the encoding carries more payload bits than a `u64` holds.
pub fn get(bytes: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(VarintError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto the unsigned varint space.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> usize {
        let mut buf = Vec::new();
        put(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get(&buf, &mut pos).expect("decodes"), v, "value {v}");
        assert_eq!(pos, buf.len(), "value {v} consumed exactly");
        buf.len()
    }

    #[test]
    fn boundary_values_round_trip_at_the_right_width() {
        // Every base-128 digit boundary: 2^7k - 1 encodes in k bytes,
        // 2^7k in k+1.
        assert_eq!(round_trip(0), 1);
        assert_eq!(round_trip((1 << 7) - 1), 1);
        assert_eq!(round_trip(1 << 7), 2);
        assert_eq!(round_trip((1 << 7) + 1), 2);
        assert_eq!(round_trip((1 << 14) - 1), 2);
        assert_eq!(round_trip(1 << 14), 3);
        assert_eq!(round_trip((1 << 14) + 1), 3);
        assert_eq!(round_trip((1 << 21) - 1), 3);
        assert_eq!(round_trip(u64::from(u32::MAX)), 5);
        assert_eq!(round_trip((1 << 63) - 1), 9);
        assert_eq!(round_trip(1 << 63), 10);
        assert_eq!(round_trip(u64::MAX), 10);
    }

    #[test]
    fn exhaustive_small_values() {
        for v in 0..=4096u64 {
            round_trip(v);
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_typed() {
        let mut buf = Vec::new();
        put(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                get(&buf[..cut], &mut pos),
                Err(VarintError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn overlong_encodings_are_rejected() {
        // Eleven continuation bytes: more than a u64 can hold.
        let mut pos = 0;
        assert_eq!(get(&[0x80; 11], &mut pos), Err(VarintError::Overlong));
        // Ten bytes with a tenth-byte payload above 1 overflows too.
        let mut pos = 0;
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(get(&overflow, &mut pos), Err(VarintError::Overlong));
        // ...while exactly u64::MAX (tenth byte = 1) is fine.
        let mut pos = 0;
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(get(&max, &mut pos), Ok(u64::MAX));
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}

//! Dependency-free binary snapshot codec (`impulse-snap-v1`).
//!
//! Every stateful simulator component exposes a pair of inherent methods —
//! `snap_save(&self, &mut SnapWriter)` and
//! `snap_load(&mut self, &mut SnapReader) -> Result<(), SnapError>` — built
//! on the primitives in this module. The codec is deliberately boring:
//! little-endian fixed-width integers, length-prefixed sequences, and a
//! `u32` section tag in front of every component so a mismatched load fails
//! fast with [`SnapError::BadTag`] instead of silently misinterpreting
//! bytes.
//!
//! A complete snapshot is framed by [`seal`] / [`open`]:
//!
//! ```text
//! "impulse-snap-v1"   15-byte magic
//! version: u32        currently 1
//! fingerprint: u64    FNV-64 of the system configuration's Debug string
//! payload_len: u64
//! payload bytes       component sections
//! checksum: u64       FNV-64 of the payload bytes
//! ```
//!
//! Configurations are *not* serialized; a snapshot is restored into a
//! machine freshly built from the same configuration, and the fingerprint
//! rejects restores into a different one.
//!
//! # Examples
//!
//! ```
//! use impulse_types::snap::{open, seal, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.tag(0x1234);
//! w.u64(42);
//! let img = seal(0xfeed, w.finish());
//!
//! let payload = open(&img, 0xfeed).unwrap();
//! let mut r = SnapReader::new(payload);
//! r.tag(0x1234).unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! r.finish().unwrap();
//! ```

use std::error::Error;
use std::fmt;

/// Magic bytes at the head of every snapshot image.
pub const MAGIC: &[u8; 15] = b"impulse-snap-v1";

/// Current snapshot format version. Bump it whenever any section's layout
/// changes, so an image from an older build fails with
/// [`SnapError::BadVersion`] instead of misparsing inside a section.
/// Version 2: the `PGTB` section stores the MC-TLB as a recency-ordered
/// page list (version 1 stored per-entry stamps and a front cache).
pub const VERSION: u32 = 2;

/// Everything that can go wrong while decoding a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The image carries a format version this build cannot read.
    BadVersion(u32),
    /// The payload checksum does not match the stored checksum.
    BadChecksum,
    /// A section tag did not match the component being loaded.
    BadTag {
        /// The tag the loading component expected.
        expected: u32,
        /// The tag actually present in the stream.
        found: u32,
    },
    /// A decoded length or index is inconsistent with the geometry of the
    /// component being restored (e.g. a cache with a different line count).
    Geometry(&'static str),
    /// The snapshot was taken under a different system configuration.
    ConfigMismatch,
    /// Decoding finished with bytes left over.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "not an impulse snapshot (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::BadChecksum => write!(f, "snapshot checksum mismatch"),
            Self::BadTag { expected, found } => write!(
                f,
                "snapshot section tag mismatch (expected {expected:#010x}, found {found:#010x})"
            ),
            Self::Geometry(what) => write!(f, "snapshot geometry mismatch: {what}"),
            Self::ConfigMismatch => {
                write!(
                    f,
                    "snapshot was taken under a different system configuration"
                )
            }
            Self::TrailingBytes => write!(f, "snapshot has trailing bytes"),
        }
    }
}

impl Error for SnapError {}

/// FNV-1a 64-bit hash — the snapshot checksum and fingerprint function.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section tag (encoded as a `u32`).
    pub fn tag(&mut self, t: u32) {
        self.u32(t);
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed slice of `u64` words.
    pub fn u64_slice(&mut self, words: &[u64]) {
        self.usize(words.len());
        for &w in words {
            self.u64(w);
        }
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a section tag and checks it against `expected`.
    pub fn tag(&mut self, expected: u32) -> Result<(), SnapError> {
        let found = self.u32()?;
        if found == expected {
            Ok(())
        } else {
            Err(SnapError::BadTag { expected, found })
        }
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as a `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Geometry("length exceeds usize"))
    }

    /// Reads a bool stored as one byte; any value other than 0/1 is an
    /// encoding error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Geometry("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed slice of `u64` words.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.usize()?;
        // Guard against a corrupt length causing an absurd reservation.
        if n > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks that the whole payload was consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// Frames `payload` into a complete `impulse-snap-v1` image: magic,
/// version, configuration `fingerprint`, length, payload, FNV-64 checksum.
pub fn seal(fingerprint: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 8 + 8 + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv64(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a framed image (magic, version, `fingerprint`, checksum,
/// exact length) and returns the payload slice.
pub fn open(image: &[u8], fingerprint: u64) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(image);
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapError::BadVersion(version));
    }
    let fp = r.u64()?;
    if fp != fingerprint {
        return Err(SnapError::ConfigMismatch);
    }
    let len = r.usize()?;
    let payload = r.take(len)?;
    let sum = r.u64()?;
    if sum != fnv64(payload) {
        return Err(SnapError::BadChecksum);
    }
    r.finish()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(0xCAFE);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.u64_slice(&[1, 2, 3]);
        let buf = w.finish();

        let mut r = SnapReader::new(&buf);
        r.tag(0xCAFE).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(9);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf[..4]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let mut w = SnapWriter::new();
        w.tag(1);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        assert_eq!(
            r.tag(2),
            Err(SnapError::BadTag {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn seal_open_round_trip() {
        let mut w = SnapWriter::new();
        w.u64(0x1234);
        let img = seal(99, w.finish());
        let payload = open(&img, 99).unwrap();
        let mut r = SnapReader::new(payload);
        assert_eq!(r.u64().unwrap(), 0x1234);
        r.finish().unwrap();
    }

    #[test]
    fn open_rejects_corruption() {
        let img = seal(7, vec![1, 2, 3, 4]);

        assert_eq!(open(&img[..10], 7), Err(SnapError::Truncated));
        assert_eq!(open(&img, 8), Err(SnapError::ConfigMismatch));

        let mut bad_magic = img.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(open(&bad_magic, 7), Err(SnapError::BadMagic));

        let mut bad_version = img.clone();
        bad_version[MAGIC.len()] = 0xFF;
        assert!(matches!(
            open(&bad_version, 7),
            Err(SnapError::BadVersion(_))
        ));

        // An image from a build with the version-1 `PGTB` layout.
        let mut v1 = img.clone();
        v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(open(&v1, 7), Err(SnapError::BadVersion(1)));

        let mut flipped = img.clone();
        let body = MAGIC.len() + 4 + 8 + 8;
        flipped[body] ^= 0x01;
        assert_eq!(open(&flipped, 7), Err(SnapError::BadChecksum));

        let mut long = img.clone();
        long.push(0);
        assert_eq!(open(&long, 7), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

//! Dependency-free encoder for the machine state image.
//!
//! Every stateful simulator component exposes an inherent
//! `snap_save(&self, &mut SnapWriter)` built on the primitives in this
//! module, and `Machine::snapshot` concatenates them into one byte image
//! of the whole machine. The image is write-only: nothing decodes it. It
//! is the simulator's state-equality oracle — two machines whose images
//! are byte-identical hold the same caches, TLBs, DRAM rows, controller
//! state, kernel and fault-RNG streams — which is how tests compare a
//! rewritten code path against the one it replaces.
//!
//! The encoding is deliberately boring: little-endian fixed-width
//! integers, length-prefixed sequences, and a `u32` section tag in front
//! of every component, so a component that writes a different number of
//! fields shifts every later byte and cannot hide behind its neighbour.
//!
//! # Examples
//!
//! ```
//! use impulse_types::snap::SnapWriter;
//!
//! let mut w = SnapWriter::new();
//! w.tag(0x1234);
//! w.u64(42);
//! assert_eq!(w.finish(), [0x34, 0x12, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0]);
//! ```

/// Append-only encoder for state images.
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

    /// Consumes the writer, returning the encoded image.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_encode_little_endian_and_length_prefixed() {
        let mut w = SnapWriter::new();
        w.tag(0xCAFE);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.u64_slice(&[1, 2, 3]);
        let mut want = Vec::new();
        want.extend_from_slice(&0xCAFEu32.to_le_bytes());
        want.push(7);
        want.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        want.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        want.extend_from_slice(&12345u64.to_le_bytes());
        want.extend_from_slice(&[1, 0]);
        want.extend_from_slice(&3u64.to_le_bytes());
        for v in 1u64..=3 {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(w.finish(), want);
    }
}

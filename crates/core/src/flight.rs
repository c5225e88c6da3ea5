//! MC transaction flight recorder and the `impulse-trace-v1` codec.
//!
//! The controller-resident analogue of an aircraft flight recorder: a
//! bounded ring buffer that logs every transaction the memory controller
//! classifies — cycle, line address, derived DRAM bank/row, hit class,
//! and (for shadow accesses) the descriptor that served it. Recording is
//! opt-in via [`McConfig::flight_capacity`](crate::McConfig) and costs
//! nothing when disabled; when the ring fills, the oldest events are
//! overwritten and counted, so a recorder can fly on a run of any length.
//! [`exact_top`] ranks the lines of a set of events by exact access count;
//! it backs both the controller's heatmap `hot` list and `trace top`.
//!
//! # Wire format (`impulse-trace-v1`)
//!
//! Full-run captures are only feasible if events are small, so the codec
//! delta-encodes. The layout is:
//!
//! ```text
//! magic   16 bytes   b"impulse-trace-v1"
//! header  varints    line_bytes, banks, row_bytes, recorded, overwritten, n_events
//! events  n_events × ( class_desc u8, zigzag(Δcycle), zigzag(Δline_index) )
//! ```
//!
//! where varints are LEB128, `class_desc` packs the [`HitClass`] in the
//! high nibble and the descriptor slot in the low nibble (`0xF` = none),
//! `Δcycle` is the difference from the previous event's cycle, and
//! `Δline_index` the difference of `line / line_bytes`. Sequential access
//! streams therefore cost ~3 bytes per event. Bank and row are *derived*
//! from the line index and the recorded geometry (`bank = index-of-row %
//! banks`), so they travel for free; the same derivation is applied to
//! shadow addresses even though those never reach a physical bank — the
//! heat they would induce is exactly what the gather path fans out.
//!
//! Encoding then decoding then re-encoding is bit-exact — asserted by the
//! bench suite over the full experiment catalog — so a capture's
//! [`digest`] identifies its event stream across processes and `jobs=N`.

use impulse_dram::BankMap;
use impulse_types::geom::is_pow2;
use impulse_types::ident::fnv64;
use impulse_types::varint;
use impulse_types::Cycle;

/// The 16-byte magic that opens every `impulse-trace-v1` capture.
pub const TRACE_MAGIC: &[u8; 16] = b"impulse-trace-v1";

/// Classification of one MC transaction, as seen by the flight recorder.
///
/// Must fit in 4 bits (the codec packs it into a nibble).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HitClass {
    /// Demand read of a physical line served by DRAM.
    DirectDram = 0,
    /// Demand read of a physical line served by the prefetch SRAM.
    DirectSramHit = 1,
    /// Shadow read that ran the remap → translate → gather pipeline.
    ShadowGather = 2,
    /// Shadow read served from a descriptor's staging buffer.
    ShadowBufHit = 3,
    /// Store to a physical line.
    StoreDirect = 4,
    /// Store through a shadow descriptor (scatter path).
    StoreShadow = 5,
    /// Read the controller refused (unmapped shadow address, fault, …).
    NackRead = 6,
    /// Store the controller refused.
    NackWrite = 7,
}

impl HitClass {
    /// Short stable name used in dumps and summaries.
    pub fn name(self) -> &'static str {
        match self {
            HitClass::DirectDram => "direct_dram",
            HitClass::DirectSramHit => "direct_sram_hit",
            HitClass::ShadowGather => "shadow_gather",
            HitClass::ShadowBufHit => "shadow_buf_hit",
            HitClass::StoreDirect => "store_direct",
            HitClass::StoreShadow => "store_shadow",
            HitClass::NackRead => "nack_read",
            HitClass::NackWrite => "nack_write",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => HitClass::DirectDram,
            1 => HitClass::DirectSramHit,
            2 => HitClass::ShadowGather,
            3 => HitClass::ShadowBufHit,
            4 => HitClass::StoreDirect,
            5 => HitClass::StoreShadow,
            6 => HitClass::NackRead,
            7 => HitClass::NackWrite,
            _ => return None,
        })
    }
}

/// The address geometry a capture was recorded under; needed to derive
/// bank/row from line addresses and to re-encode bit-exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightGeom {
    /// Controller line size in bytes (event addresses are aligned to it).
    pub line_bytes: u64,
    /// Number of DRAM banks (bank = row-index % banks).
    pub banks: u64,
    /// DRAM row size in bytes.
    pub row_bytes: u64,
}

impl FlightGeom {
    /// The bank a line address maps to (the DRAM model's own
    /// [`BankMap`] split: consecutive rows rotate across banks).
    ///
    /// # Panics
    ///
    /// Panics unless `banks` and `row_bytes` are powers of two, as they
    /// are in every geometry a controller records or
    /// [`EventCursor::new`] accepts.
    pub fn bank_of(&self, addr: u64) -> u64 {
        BankMap::new(self.banks, self.row_bytes).bank_of(addr)
    }

    /// The in-bank row a line address maps to.
    ///
    /// # Panics
    ///
    /// As for [`FlightGeom::bank_of`].
    pub fn row_of(&self, addr: u64) -> u64 {
        BankMap::new(self.banks, self.row_bytes).row_of(addr)
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Cycle at which the controller classified the transaction.
    pub cycle: Cycle,
    /// Line-aligned bus address (shadow addresses included).
    pub line: u64,
    /// DRAM bank derived from `line` and the capture geometry.
    pub bank: u64,
    /// In-bank row derived the same way.
    pub row: u64,
    /// What kind of transaction this was.
    pub class: HitClass,
    /// Descriptor slot that served a shadow access, if any.
    pub desc: Option<u8>,
}

/// Compact in-ring representation (24 bytes/event).
#[derive(Clone, Copy, Debug, PartialEq)]
struct RawEvent {
    cycle: u64,
    line: u64,
    class: u8,
    /// Descriptor slot, `NO_DESC` when none.
    desc: u8,
}

const NO_DESC: u8 = 0xF;

/// Errors from [`decode`] and the other capture readers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The input ended inside a varint or event (mid-varint EOF).
    Truncated,
    /// A varint carried more payload bits than a `u64` can hold.
    OverlongVarint,
    /// A geometry field was zero or not a power of two (captures always
    /// record a real controller's geometry).
    BadGeometry,
    /// An event carried an undefined hit-class nibble.
    BadClass(u8),
    /// A delta walked the cycle or line index below zero.
    Underflow,
    /// Bytes remained after the declared event count.
    TrailingData,
    /// A sealed capture's fnv64 trailer did not match its payload.
    BadDigest {
        /// Digest recorded in the trailer.
        expected: u64,
        /// Digest of the payload as read.
        found: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an impulse-trace-v1 capture"),
            TraceError::Truncated => write!(f, "capture is truncated"),
            TraceError::OverlongVarint => write!(f, "over-long LEB128 varint"),
            TraceError::BadGeometry => {
                write!(f, "capture header has zero or non-power-of-two geometry")
            }
            TraceError::BadClass(v) => write!(f, "undefined hit class {v}"),
            TraceError::Underflow => write!(f, "delta stream underflowed"),
            TraceError::TrailingData => write!(f, "trailing bytes after final event"),
            TraceError::BadDigest { expected, found } => write!(
                f,
                "capture digest mismatch: trailer says {expected:016x}, payload hashes to {found:016x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Appends `v` as an LEB128 varint — the shared primitive from
/// [`impulse_types::varint`], kept here under its historical name for
/// the trace codec.
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    varint::put(out, v);
}

/// Reads an LEB128 varint starting at `*pos`, advancing it past the
/// bytes consumed.
///
/// # Errors
///
/// [`TraceError::Truncated`] on mid-varint EOF;
/// [`TraceError::OverlongVarint`] if the encoding carries more payload
/// bits than a `u64` holds (more than ten bytes, or a tenth byte above 1).
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    varint::get(bytes, pos).map_err(|e| match e {
        varint::VarintError::Truncated => TraceError::Truncated,
        varint::VarintError::Overlong => TraceError::OverlongVarint,
    })
}

pub use impulse_types::varint::{unzigzag, zigzag};

/// Seals a byte payload by appending its [`fnv64`] digest as an 8-byte
/// little-endian trailer; [`unseal`] verifies and strips it. Capture
/// files written by the trace tooling travel sealed so corruption
/// is caught before the delta stream is interpreted.
pub fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let d = fnv64(&bytes);
    bytes.extend_from_slice(&d.to_le_bytes());
    bytes
}

/// Verifies and strips the digest trailer added by [`seal`], returning
/// the payload.
///
/// # Errors
///
/// [`TraceError::Truncated`] if there is no room for a trailer;
/// [`TraceError::BadDigest`] if the payload hash disagrees with it.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], TraceError> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(TraceError::Truncated);
    };
    let (payload, trailer) = bytes.split_at(split);
    let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let found = fnv64(payload);
    if expected != found {
        return Err(TraceError::BadDigest { expected, found });
    }
    Ok(payload)
}

/// Shared encoder: the recorder and [`Capture::encode`] must produce
/// identical bytes for identical event streams.
fn encode_parts(
    geom: FlightGeom,
    recorded: u64,
    overwritten: u64,
    n_events: usize,
    events: impl Iterator<Item = (u64, u64, u8, u8)>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 8 + n_events * 4);
    out.extend_from_slice(TRACE_MAGIC);
    put_varint(&mut out, geom.line_bytes);
    put_varint(&mut out, geom.banks);
    put_varint(&mut out, geom.row_bytes);
    put_varint(&mut out, recorded);
    put_varint(&mut out, overwritten);
    put_varint(&mut out, n_events as u64);
    let mut prev_cycle: i64 = 0;
    let mut prev_idx: i64 = 0;
    for (cycle, line, class, desc) in events {
        out.push((class << 4) | (desc & 0xF));
        let cycle = cycle as i64;
        let idx = (line / geom.line_bytes) as i64;
        put_varint(&mut out, zigzag(cycle - prev_cycle));
        put_varint(&mut out, zigzag(idx - prev_idx));
        prev_cycle = cycle;
        prev_idx = idx;
    }
    out
}

/// A decoded capture: geometry, ring counters, and the surviving events
/// in chronological order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capture {
    /// Geometry the capture was recorded under.
    pub geom: FlightGeom,
    /// Total events ever recorded (including overwritten ones).
    pub recorded: u64,
    /// Events lost to ring wrap-around.
    pub overwritten: u64,
    /// The events still in the ring when the capture was encoded.
    pub events: Vec<FlightEvent>,
}

impl Capture {
    /// Re-encodes the capture; bit-exact with the bytes it was decoded
    /// from.
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(
            self.geom,
            self.recorded,
            self.overwritten,
            self.events.len(),
            self.events
                .iter()
                .map(|e| (e.cycle, e.line, e.class as u8, e.desc.unwrap_or(NO_DESC))),
        )
    }
}

/// Streaming reader over an `impulse-trace-v1` capture: parses the
/// header eagerly, then decodes events in caller-sized chunks so a
/// multi-million-event capture can be evaluated batch by batch without
/// materializing the whole event vector. [`decode`] is a thin wrapper
/// that drains one cursor.
#[derive(Clone, Debug)]
pub struct EventCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    geom: FlightGeom,
    recorded: u64,
    overwritten: u64,
    remaining: u64,
    cycle: i64,
    idx: i64,
}

impl<'a> EventCursor<'a> {
    /// Parses the capture header and positions the cursor at the first
    /// event.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the header can exhibit (bad magic, truncation,
    /// over-long varint, zero or non-power-of-two geometry); never
    /// panics.
    pub fn new(bytes: &'a [u8]) -> Result<Self, TraceError> {
        if bytes.len() < TRACE_MAGIC.len() || &bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut pos = TRACE_MAGIC.len();
        let line_bytes = get_varint(bytes, &mut pos)?;
        let banks = get_varint(bytes, &mut pos)?;
        let row_bytes = get_varint(bytes, &mut pos)?;
        if !(is_pow2(line_bytes) && is_pow2(banks) && is_pow2(row_bytes)) {
            return Err(TraceError::BadGeometry);
        }
        let recorded = get_varint(bytes, &mut pos)?;
        let overwritten = get_varint(bytes, &mut pos)?;
        let remaining = get_varint(bytes, &mut pos)?;
        Ok(Self {
            bytes,
            pos,
            geom: FlightGeom {
                line_bytes,
                banks,
                row_bytes,
            },
            recorded,
            overwritten,
            remaining,
            cycle: 0,
            idx: 0,
        })
    }

    /// Geometry recorded in the header.
    pub fn geom(&self) -> FlightGeom {
        self.geom
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Events the cursor has not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes up to `max` events, appending them to `out`; returns how
    /// many were produced (0 exactly when the stream is exhausted). When
    /// the final event has been decoded, verifies no bytes trail it.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the event stream can exhibit; the cursor is
    /// not usable after an error.
    pub fn next_chunk(
        &mut self,
        out: &mut Vec<FlightEvent>,
        max: usize,
    ) -> Result<usize, TraceError> {
        let take = (self.remaining.min(max as u64)) as usize;
        out.reserve(take);
        for _ in 0..take {
            let &cd = self.bytes.get(self.pos).ok_or(TraceError::Truncated)?;
            self.pos += 1;
            let class = HitClass::from_u8(cd >> 4).ok_or(TraceError::BadClass(cd >> 4))?;
            let desc = match cd & 0xF {
                NO_DESC => None,
                d => Some(d),
            };
            self.cycle = self
                .cycle
                .checked_add(unzigzag(get_varint(self.bytes, &mut self.pos)?))
                .ok_or(TraceError::Underflow)?;
            self.idx = self
                .idx
                .checked_add(unzigzag(get_varint(self.bytes, &mut self.pos)?))
                .ok_or(TraceError::Underflow)?;
            if self.cycle < 0 || self.idx < 0 {
                return Err(TraceError::Underflow);
            }
            let line = (self.idx as u64) * self.geom.line_bytes;
            out.push(FlightEvent {
                cycle: self.cycle as u64,
                line,
                bank: self.geom.bank_of(line),
                row: self.geom.row_of(line),
                class,
                desc,
            });
        }
        self.remaining -= take as u64;
        if self.remaining == 0 && self.pos != self.bytes.len() {
            return Err(TraceError::TrailingData);
        }
        Ok(take)
    }
}

/// Decodes an `impulse-trace-v1` capture.
///
/// # Errors
///
/// Returns a [`TraceError`] if the bytes are not a well-formed capture;
/// never panics on arbitrary input.
pub fn decode(bytes: &[u8]) -> Result<Capture, TraceError> {
    let mut cursor = EventCursor::new(bytes)?;
    let mut events = Vec::with_capacity(
        usize::try_from(cursor.remaining())
            .unwrap_or(0)
            .min(1 << 20),
    );
    while cursor.next_chunk(&mut events, 4096)? > 0 {}
    Ok(Capture {
        geom: cursor.geom(),
        recorded: cursor.recorded(),
        overwritten: cursor.overwritten(),
        events,
    })
}

/// FNV-1a digest of an encoded capture; because re-encoding is
/// bit-exact, equal digests mean equal event streams.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv64(bytes)
}

/// Exact per-line access counts over `events` as `(line, count)` pairs,
/// hottest first: count descending, then line ascending, so the order is
/// total and does not depend on the order of the events.
pub fn exact_top(events: &[FlightEvent]) -> Vec<(u64, u64)> {
    let mut lines: Vec<u64> = events.iter().map(|e| e.line).collect();
    lines.sort_unstable();
    let mut counts: Vec<(u64, u64)> = Vec::new();
    for line in lines {
        match counts.last_mut() {
            Some((l, c)) if *l == line => *c += 1,
            _ => counts.push((line, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}

/// The bounded MC transaction ring buffer.
///
/// Storage is allocated lazily (short runs with a huge `capacity` only
/// pay for what they record) and wraps by overwriting the oldest event,
/// keeping a count of how many were lost.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecorder {
    geom: FlightGeom,
    buf: Vec<RawEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    capacity: usize,
    recorded: u64,
    overwritten: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, geom: FlightGeom) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be non-zero");
        Self {
            geom,
            buf: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            recorded: 0,
            overwritten: 0,
        }
    }

    /// Records one transaction. `addr` is aligned down to the line size;
    /// `desc` must be below 15 (the codec's none sentinel).
    #[inline]
    pub fn record(&mut self, cycle: Cycle, addr: u64, class: HitClass, desc: Option<u8>) {
        debug_assert!(desc.is_none_or(|d| d < NO_DESC));
        let ev = RawEvent {
            cycle,
            line: addr - addr % self.geom.line_bytes,
            class: class as u8,
            desc: desc.map_or(NO_DESC, |d| d & 0xF),
        };
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// The geometry bank/row derivation uses.
    pub fn geom(&self) -> FlightGeom {
        self.geom
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events the ring will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Clears the ring and counters (capacity and geometry are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.recorded = 0;
        self.overwritten = 0;
    }

    /// Iterates the surviving raw events in chronological order.
    fn raw_chronological(&self) -> impl Iterator<Item = &RawEvent> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// The surviving events in chronological order, with bank/row
    /// derived from the geometry.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.raw_chronological()
            .map(|r| FlightEvent {
                cycle: r.cycle,
                line: r.line,
                bank: self.geom.bank_of(r.line),
                row: self.geom.row_of(r.line),
                class: HitClass::from_u8(r.class).expect("ring holds only valid classes"),
                desc: (r.desc != NO_DESC).then_some(r.desc),
            })
            .collect()
    }

    /// Serializes the ring as an `impulse-trace-v1` capture.
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(
            self.geom,
            self.recorded,
            self.overwritten,
            self.buf.len(),
            self.raw_chronological()
                .map(|r| (r.cycle, r.line, r.class, r.desc)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> FlightGeom {
        FlightGeom {
            line_bytes: 128,
            banks: 4,
            row_bytes: 2048,
        }
    }

    fn filled(capacity: usize, n: u64) -> FlightRecorder {
        let mut fr = FlightRecorder::new(capacity, geom());
        for i in 0..n {
            let class = HitClass::from_u8((i % 8) as u8).unwrap();
            let desc = (i % 3 == 0).then_some((i % 8) as u8);
            fr.record(i * 7, i * 128, class, desc);
        }
        fr
    }

    #[test]
    fn ring_overwrites_oldest_and_stays_chronological() {
        let fr = filled(4, 10);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.overwritten(), 6);
        let cycles: Vec<u64> = fr.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![42, 49, 56, 63]);
    }

    #[test]
    fn bank_and_row_derive_from_geometry() {
        let mut fr = FlightRecorder::new(8, geom());
        fr.record(1, 2048 * 5 + 130, HitClass::DirectDram, None);
        let e = fr.events()[0];
        assert_eq!(e.line, 2048 * 5 + 128); // aligned down
        assert_eq!(e.bank, 1); // row index 5 % 4 banks
        assert_eq!(e.row, 1); // row index 5 / 4 banks
    }

    #[test]
    fn encode_decode_reencode_is_bit_exact() {
        for n in [0u64, 1, 3, 100, 1000] {
            let fr = filled(64, n);
            let bytes = fr.encode();
            let cap = decode(&bytes).expect("decode");
            assert_eq!(cap.recorded, n);
            assert_eq!(cap.events, fr.events());
            assert_eq!(cap.encode(), bytes, "re-encode diverged at n={n}");
            assert_eq!(digest(&bytes), digest(&cap.encode()));
        }
    }

    #[test]
    fn wrapped_ring_round_trips() {
        let fr = filled(16, 100);
        let bytes = fr.encode();
        let cap = decode(&bytes).unwrap();
        assert_eq!(cap.overwritten, 84);
        assert_eq!(cap.events.len(), 16);
        assert_eq!(cap.encode(), bytes);
    }

    #[test]
    fn out_of_order_cycles_and_addresses_round_trip() {
        // Deltas go negative: zigzag must carry them.
        let mut fr = FlightRecorder::new(8, geom());
        fr.record(1000, 1 << 20, HitClass::DirectDram, None);
        fr.record(10, 128, HitClass::StoreDirect, None);
        fr.record(2000, 1 << 30, HitClass::ShadowGather, Some(7));
        let bytes = fr.encode();
        let cap = decode(&bytes).unwrap();
        assert_eq!(cap.events, fr.events());
        assert_eq!(cap.events[2].desc, Some(7));
        assert_eq!(cap.encode(), bytes);
    }

    #[test]
    fn decode_rejects_malformed_captures() {
        assert_eq!(decode(b"not a trace"), Err(TraceError::BadMagic));
        let good = filled(8, 5).encode();
        assert_eq!(decode(&good[..20]), Err(TraceError::Truncated));
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode(&trailing), Err(TraceError::TrailingData));
        // Corrupt geometry: magic + zeroed varints.
        let mut zeroed = TRACE_MAGIC.to_vec();
        zeroed.extend_from_slice(&[0; 6]);
        assert_eq!(decode(&zeroed), Err(TraceError::BadGeometry));
        // Non-power-of-two geometry is rejected with the same typed
        // error, field by field, never a panic in the bank/row split.
        let one_event = |geom: [u64; 3]| {
            let mut bytes = TRACE_MAGIC.to_vec();
            for v in geom.into_iter().chain([1, 0, 1]) {
                put_varint(&mut bytes, v);
            }
            bytes.extend_from_slice(&[0x10, 2, 2]);
            decode(&bytes)
        };
        assert!(one_event([128, 4, 2048]).is_ok());
        for geom in [[96, 4, 2048], [128, 12, 2048], [128, 4, 1536]] {
            assert_eq!(one_event(geom), Err(TraceError::BadGeometry), "{geom:?}");
        }
        // Bad class nibble: craft one event with class 9.
        let mut fr = FlightRecorder::new(2, geom());
        fr.record(1, 0, HitClass::DirectDram, None);
        let mut bytes = fr.encode();
        let n = bytes.len();
        bytes[n - 3] = (9 << 4) | NO_DESC;
        assert_eq!(decode(&bytes), Err(TraceError::BadClass(9)));
    }

    #[test]
    fn overlong_varints_are_rejected_distinctly() {
        // Eleven continuation bytes: more than a u64 can carry.
        let overlong = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(
            get_varint(&overlong, &mut pos),
            Err(TraceError::OverlongVarint)
        );
        // Ten bytes whose last carries more than the one spare bit.
        let mut wide = [0x80u8; 10];
        wide[9] = 0x02;
        let mut pos = 0;
        assert_eq!(get_varint(&wide, &mut pos), Err(TraceError::OverlongVarint));
        // A capture whose header varint is overlong reports it, not
        // truncation.
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[0xFF; 11]);
        assert_eq!(decode(&bytes), Err(TraceError::OverlongVarint));
        // Mid-varint EOF is still Truncated.
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80], &mut pos), Err(TraceError::Truncated));
    }

    #[test]
    fn seal_unseal_round_trips_and_flags_corruption() {
        let payload = filled(8, 5).encode();
        let sealed = seal(payload.clone());
        assert_eq!(sealed.len(), payload.len() + 8);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
        // Flip one payload byte: digest mismatch with both hashes shown.
        let mut corrupt = sealed.clone();
        corrupt[20] ^= 1;
        match unseal(&corrupt) {
            Err(TraceError::BadDigest { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected BadDigest, got {other:?}"),
        }
        // Flip a trailer byte: also a digest mismatch.
        let mut bad_trailer = sealed.clone();
        let n = bad_trailer.len();
        bad_trailer[n - 1] ^= 1;
        assert!(matches!(
            unseal(&bad_trailer),
            Err(TraceError::BadDigest { .. })
        ));
        // Too short to even hold a trailer.
        assert_eq!(unseal(&sealed[..7]), Err(TraceError::Truncated));
    }

    #[test]
    fn event_cursor_chunks_match_full_decode() {
        let fr = filled(64, 50);
        let bytes = fr.encode();
        let full = decode(&bytes).unwrap();
        for chunk in [1usize, 7, 50, 1000] {
            let mut cur = EventCursor::new(&bytes).unwrap();
            assert_eq!(cur.geom(), full.geom);
            assert_eq!(cur.recorded(), full.recorded);
            assert_eq!(cur.overwritten(), full.overwritten);
            assert_eq!(cur.remaining(), full.events.len() as u64);
            let mut events = Vec::new();
            let mut produced = Vec::new();
            loop {
                let n = cur.next_chunk(&mut events, chunk).unwrap();
                if n == 0 {
                    break;
                }
                produced.push(n);
            }
            assert_eq!(events, full.events, "chunk size {chunk} diverged");
            assert_eq!(cur.remaining(), 0);
            assert!(produced.iter().all(|&n| n <= chunk));
        }
    }

    #[test]
    fn event_cursor_surfaces_stream_errors() {
        let bytes = filled(8, 5).encode();
        let mut cur = EventCursor::new(&bytes[..bytes.len() - 1]).unwrap();
        let mut out = Vec::new();
        assert!(cur.next_chunk(&mut out, 1000).is_err());
        // An empty capture with trailing garbage reports it on first read.
        let mut empty = FlightRecorder::new(4, geom()).encode();
        empty.push(0x7);
        let mut cur = EventCursor::new(&empty).unwrap();
        assert_eq!(
            cur.next_chunk(&mut Vec::new(), 16),
            Err(TraceError::TrailingData)
        );
    }

    #[test]
    fn decode_never_panics_on_fuzzed_prefixes() {
        let good = filled(32, 64).encode();
        for cut in 0..good.len() {
            let _ = decode(&good[..cut]);
        }
        for flip in (0..good.len()).step_by(3) {
            let mut b = good.clone();
            b[flip] ^= 0xA5;
            let _ = decode(&b);
        }
    }

    #[test]
    fn clear_resets_counters() {
        let mut fr = filled(4, 10);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.recorded(), 0);
        assert_eq!(fr.overwritten(), 0);
        let cap = decode(&fr.encode()).unwrap();
        assert!(cap.events.is_empty());
    }

    #[test]
    fn exact_top_counts_lines_and_breaks_ties_by_address() {
        let mut fr = FlightRecorder::new(16, geom());
        for line in [3, 1, 2, 3, 1, 3, 5] {
            fr.record(0, line * 128, HitClass::DirectDram, None);
        }
        let top = exact_top(&fr.events());
        assert_eq!(top, [(384, 3), (128, 2), (256, 1), (640, 1)]);
        let mut reversed = fr.events();
        reversed.reverse();
        assert_eq!(exact_top(&reversed), top, "order-independent");
        assert!(exact_top(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0, geom());
    }
}

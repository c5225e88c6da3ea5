//! MC transaction flight recorder.
//!
//! The controller-resident analogue of an aircraft flight recorder: a
//! bounded ring buffer that logs every transaction the memory controller
//! classifies — cycle, line address, derived DRAM bank/row, hit class,
//! and (for shadow accesses) the descriptor that served it. Recording is
//! opt-in via [`McConfig::flight_capacity`](crate::McConfig) and costs
//! nothing when disabled; when the ring fills, the oldest events are
//! overwritten and counted, so a recorder can fly on a run of any length.
//! [`exact_top`] ranks the lines of a set of events by exact access count;
//! it backs the controller's heatmap `hot` list.
//!
//! The ring lives only in memory: [`FlightRecorder::events`] hands back
//! the surviving events in order, with bank and row derived from the
//! recorded geometry (the same derivation applies to shadow addresses,
//! which never reach a physical bank — the heat they would induce is
//! exactly what the gather path fans out).

use impulse_dram::BankMap;
use impulse_types::Cycle;

/// Classification of one MC transaction, as seen by the flight recorder.
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

/// The address geometry a ring records under; needed to derive bank/row
/// from line addresses.
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
    /// are in every geometry a controller records.
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

/// One flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Cycle at which the controller classified the transaction.
    pub cycle: Cycle,
    /// Line-aligned bus address (shadow addresses included).
    pub line: u64,
    /// DRAM bank derived from `line` and the ring's geometry.
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
    class: HitClass,
    desc: Option<u8>,
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

    /// Records one transaction. `addr` is aligned down to the line size.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, addr: u64, class: HitClass, desc: Option<u8>) {
        let ev = RawEvent {
            cycle,
            line: addr - addr % self.geom.line_bytes,
            class,
            desc,
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
                class: r.class,
                desc: r.desc,
            })
            .collect()
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
            fr.record(i * 7, i * 128, HitClass::ShadowGather, Some((i * 7) as u8));
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
        // Any descriptor slot survives, not only the first fifteen.
        let descs: Vec<Option<u8>> = fr.events().iter().map(|e| e.desc).collect();
        assert_eq!(descs, [Some(42), Some(49), Some(56), Some(63)]);
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
    fn clear_resets_counters() {
        let mut fr = filled(4, 10);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.recorded(), 0);
        assert_eq!(fr.overwritten(), 0);
        assert!(fr.events().is_empty());
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

//! Access-trace capture.
//!
//! The Paint simulator the paper used was an instruction-set interpreter;
//! its traces were the raw material for memory-system analysis. This
//! module provides the equivalent facility: a bounded recorder that the
//! [`Machine`](crate::Machine) feeds with every demand access, useful for
//! debugging remappings (did the alias stream look like we thought?),
//! for offline locality analysis, and for building regression fixtures.

use impulse_types::{AccessKind, Cycle, PAddr, VAddr};

/// One recorded demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the access was issued.
    pub at: Cycle,
    /// Load or store.
    pub kind: AccessKind,
    /// Virtual address issued by the program.
    pub vaddr: VAddr,
    /// Bus address after MMU translation (shadow addresses included).
    pub paddr: PAddr,
    /// Cycles the access took to complete.
    pub latency: Cycle,
}

/// A bounded in-memory trace recorder.
///
/// Recording stops silently once `capacity` events are held (the
/// `dropped` counter keeps the overflow visible), so a tracer can be left
/// attached to a long run without unbounded memory growth.
///
/// # Examples
///
/// ```
/// use impulse_sim::{Machine, SystemConfig, Tracer};
///
/// let mut m = Machine::new(&SystemConfig::paint_small());
/// let data = m.alloc_region(4096, 8)?;
/// m.attach_tracer(Tracer::new(1024));
/// m.load(data.start());
/// m.load(data.start().add(8));
/// let trace = m.take_tracer().expect("tracer was attached");
/// assert_eq!(trace.events().len(), 2);
/// assert!(trace.events()[1].latency < trace.events()[0].latency);
/// # Ok::<(), impulse_os::OsError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a recorder holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Self {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (drops it if full).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in issue order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the recording (capacity is kept).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Events touching the given bus-address range, in issue order.
    pub fn touching(&self, range: impulse_types::PRange) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| range.contains(e.paddr))
    }

    /// Writes the trace as CSV (`at,kind,vaddr,paddr,latency`) for
    /// offline analysis.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "at,kind,vaddr,paddr,latency")?;
        for e in &self.events {
            writeln!(
                w,
                "{},{},{:#x},{:#x},{}",
                e.at,
                e.kind,
                e.vaddr.raw(),
                e.paddr.raw(),
                e.latency
            )?;
        }
        Ok(())
    }

    /// Writes the trace in Chrome trace-event JSON format, loadable in
    /// `chrome://tracing` or Perfetto: each access becomes a complete
    /// (`"ph":"X"`) event with `ts` = issue cycle and `dur` = latency,
    /// with the addresses in `args`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_chrome_trace<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        use impulse_obs::Json;
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut ev = Json::obj();
                ev.set("name", Json::Str(e.kind.to_string()));
                ev.set("cat", Json::Str("mem".into()));
                ev.set("ph", Json::Str("X".into()));
                ev.set("ts", Json::UInt(e.at));
                ev.set("dur", Json::UInt(e.latency));
                ev.set("pid", Json::UInt(0));
                ev.set("tid", Json::UInt(0));
                let mut args = Json::obj();
                args.set("vaddr", Json::Str(format!("{:#x}", e.vaddr.raw())));
                args.set("paddr", Json::Str(format!("{:#x}", e.paddr.raw())));
                ev.set("args", args);
                ev
            })
            .collect();
        let mut root = Json::obj();
        root.set("traceEvents", Json::Arr(events));
        root.set("displayTimeUnit", Json::Str("ns".into()));
        let mut other = Json::obj();
        other.set("dropped_events", Json::UInt(self.dropped));
        root.set("otherData", other);
        write!(w, "{root}")
    }

    /// Simple reuse-distance summary: for each unique line (of
    /// `line_bytes`), how many times it was touched. Returns
    /// `(unique_lines, total_touches)`.
    pub fn line_touch_summary(&self, line_bytes: u64) -> (usize, u64) {
        let mut seen = std::collections::HashMap::new();
        for e in &self.events {
            *seen
                .entry(e.paddr.align_down(line_bytes).raw())
                .or_insert(0u64) += 1;
        }
        (seen.len(), self.events.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Cycle, addr: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind: AccessKind::Load,
            vaddr: VAddr::new(addr),
            paddr: PAddr::new(addr),
            latency: 1,
        }
    }

    #[test]
    fn records_in_order_up_to_capacity() {
        let mut t = Tracer::new(2);
        t.record(ev(1, 0));
        t.record(ev(2, 8));
        t.record(ev(3, 16));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].at, 1);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn touching_filters_by_range() {
        let mut t = Tracer::new(16);
        for i in 0..8 {
            t.record(ev(i, i * 64));
        }
        let r = impulse_types::PRange::new(PAddr::new(128), 128);
        let hits: Vec<_> = t.touching(r).map(|e| e.paddr.raw()).collect();
        assert_eq!(hits, vec![128, 192]);
    }

    #[test]
    fn line_summary_counts_unique_lines() {
        let mut t = Tracer::new(16);
        for i in 0..8 {
            t.record(ev(i, i * 8)); // two 32-byte lines
        }
        let (unique, total) = t.line_touch_summary(32);
        assert_eq!(unique, 2);
        assert_eq!(total, 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        use impulse_obs::Json;
        let mut t = Tracer::new(2);
        t.record(ev(10, 32));
        t.record(TraceEvent {
            at: 20,
            kind: AccessKind::Store,
            vaddr: VAddr::new(64),
            paddr: PAddr::new(64),
            latency: 7,
        });
        t.record(ev(30, 96)); // overflows capacity
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::items)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(first.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(first.get("dur").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("name").and_then(Json::as_str), Some("load"));
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("paddr"))
                .and_then(Json::as_str),
            Some("0x20")
        );
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("store"));
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn chrome_trace_with_no_events_is_still_a_valid_document() {
        use impulse_obs::Json;
        let t = Tracer::new(8);
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let parsed = Json::parse(&String::from_utf8(buf).unwrap())
            .expect("empty chrome trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::items)
            .expect("traceEvents must be present even when empty");
        assert!(events.is_empty());
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns")
        );
        // The empty CSV export is just the header.
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "at,kind,vaddr,paddr,latency\n"
        );
    }

    #[test]
    fn chrome_trace_events_parse_back_one_to_one() {
        use impulse_obs::Json;
        let mut t = Tracer::new(64);
        for i in 0..40u64 {
            t.record(ev(i * 3, i * 64));
        }
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let parsed = Json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::items).unwrap();
        assert_eq!(events.len(), 40);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("ts").and_then(Json::as_u64), Some(i as u64 * 3));
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
    }

    #[test]
    fn csv_round_trips_through_a_writer() {
        let mut t = Tracer::new(4);
        t.record(ev(1, 32));
        t.record(ev(2, 64));
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("at,kind,vaddr,paddr,latency"));
        assert!(s.contains("1,load,0x20,0x20,1"));
    }
}

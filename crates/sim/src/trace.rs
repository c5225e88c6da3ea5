//! Access-trace capture.
//!
//! The Paint simulator the paper used was an instruction-set interpreter;
//! its traces were the raw material for memory-system analysis. This
//! module provides the equivalent facility: a bounded recorder that the
//! [`Machine`](crate::Machine) feeds with every demand access, useful for
//! debugging remappings (did the alias stream look like we thought?) and
//! for locality analysis in the same process
//! ([`Tracer::line_touch_summary`]).

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
}

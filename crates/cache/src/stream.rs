//! Stream buffers — the related-work baseline of the paper's Section 5.
//!
//! Jouppi's stream buffers \[13\] sit beside the L1: each is a small FIFO
//! that, once allocated on a miss, runs ahead fetching successive lines;
//! a miss that matches a buffer head is served from the buffer. McKee et
//! al. \[16\] made them *programmable*: the application declares its vector
//! strides instead of relying on next-line detection. The paper argues
//! both "allow applications to improve their performance on regular
//! applications, but they do not support irregular applications" — the
//! claim the `streambuf` bench tests against Impulse.
//!
//! This unit models the allocation/replacement and hit behaviour; fetch
//! timing is charged by the memory system, which owns the path to the L2
//! and the controller.

use impulse_types::{Cycle, PAddr};

/// Stream buffer geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of independent buffers (Jouppi evaluated four).
    pub buffers: usize,
    /// Entries (lines) each buffer runs ahead.
    pub depth: usize,
    /// Line size fetched into the buffer, bytes.
    pub line: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            buffers: 4,
            depth: 4,
            line: 32,
        }
    }
}

/// Stream buffer statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// L1-miss lookups presented to the buffers.
    pub lookups: u64,
    /// Lookups served by a buffer head.
    pub hits: u64,
    /// Buffers (re)allocated on misses.
    pub allocations: u64,
    /// Lines fetched into buffers.
    pub fetches: u64,
}

impl StreamStats {
    /// Fraction of lookups served by a buffer.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Buffer {
    /// Line addresses queued, oldest first, with their ready times.
    fifo: std::collections::VecDeque<(PAddr, Cycle)>,
    /// Next line address the buffer will fetch.
    next: PAddr,
    /// Stride between fetched lines, bytes.
    stride: i64,
    /// LRU stamp.
    stamp: u64,
    valid: bool,
}

/// What the memory system must do after presenting a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The head of a buffer matched: data available at `ready` (may be in
    /// the future if the fetch is in flight). The buffer advanced; one
    /// refill fetch of `fetch` should be issued.
    Hit {
        /// When the matched line's data is available.
        ready: Cycle,
        /// Line the buffer now wants fetched (its new tail), if in range.
        fetch: Option<PAddr>,
    },
    /// No buffer matched; a fresh buffer was allocated and wants `fetches`
    /// issued (the new stream's first lines).
    Miss {
        /// Lines the newly-allocated buffer wants fetched.
        fetches: [Option<PAddr>; 4],
    },
}

/// A set of stream buffers with next-line allocation and optional
/// programmed strides.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamBuffers {
    cfg: StreamConfig,
    buffers: Vec<Buffer>,
    tick: u64,
    stats: StreamStats,
}

impl StreamBuffers {
    /// Builds the buffer set.
    ///
    /// # Panics
    ///
    /// Panics on zero buffers/depth or depth beyond 4 (the fixed fetch
    /// fan-out of [`StreamOutcome::Miss`]).
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(
            cfg.buffers > 0 && cfg.depth > 0,
            "buffers must be non-empty"
        );
        assert!(cfg.depth <= 4, "depth beyond 4 is not modeled");
        Self {
            buffers: vec![
                Buffer {
                    fifo: std::collections::VecDeque::new(),
                    next: PAddr::ZERO,
                    stride: 0,
                    stamp: 0,
                    valid: false,
                };
                cfg.buffers
            ],
            tick: 0,
            stats: StreamStats::default(),
            cfg,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Programs a buffer with an explicit stride stream starting at
    /// `base` — McKee-style software-declared vector access. Returns the
    /// first lines to fetch.
    pub fn program(&mut self, base: PAddr, stride: i64) -> [Option<PAddr>; 4] {
        self.tick += 1;
        let idx = self.victim();
        self.stats.allocations += 1;
        let line = self.cfg.line;
        let buf = &mut self.buffers[idx];
        buf.valid = true;
        buf.stamp = self.tick;
        buf.stride = stride;
        buf.fifo.clear();
        buf.next = base.align_down(line);
        self.prefill(idx)
    }

    /// Presents an L1 miss for the line containing `p` at time `now`;
    /// `record_fetch` is called back by the memory system with each
    /// requested line's ready time (via [`StreamBuffers::fill`]).
    pub fn lookup(&mut self, p: PAddr, now: Cycle) -> StreamOutcome {
        self.stats.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let line = p.align_down(self.cfg.line);

        for i in 0..self.buffers.len() {
            let matches = self.buffers[i]
                .fifo
                .front()
                .is_some_and(|&(head, _)| head == line);
            if matches && self.buffers[i].valid {
                let (_, ready) = self.buffers[i].fifo.pop_front().expect("head present");
                self.buffers[i].stamp = tick;
                self.stats.hits += 1;
                let fetch = self.advance(i);
                return StreamOutcome::Hit {
                    ready: ready.max(now),
                    fetch,
                };
            }
        }

        // Allocate a new next-line stream starting after the miss.
        let idx = self.victim();
        self.stats.allocations += 1;
        let stride = self.cfg.line as i64;
        let buf = &mut self.buffers[idx];
        buf.valid = true;
        buf.stamp = tick;
        buf.stride = stride;
        buf.fifo.clear();
        buf.next = PAddr::new((line.raw() as i64 + stride) as u64);
        StreamOutcome::Miss {
            fetches: self.prefill(idx),
        }
    }

    /// Records that a previously-requested line will be ready at `ready`.
    pub fn fill(&mut self, lineaddr: PAddr, ready: Cycle) {
        for buf in &mut self.buffers {
            if let Some(entry) = buf
                .fifo
                .iter_mut()
                .find(|(a, r)| *a == lineaddr && *r == Cycle::MAX)
            {
                entry.1 = ready;
                self.stats.fetches += 1;
                return;
            }
        }
    }

    /// Drops any buffered line matching `p` (stores must not see stale
    /// stream data).
    pub fn invalidate(&mut self, p: PAddr) {
        let line = p.align_down(self.cfg.line);
        for buf in &mut self.buffers {
            buf.fifo.retain(|&(a, _)| a != line);
        }
    }

    fn victim(&self) -> usize {
        self.buffers
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| if b.valid { b.stamp } else { 0 })
            .map(|(i, _)| i)
            .expect("at least one buffer")
    }

    /// Queues the next fetch for buffer `i`; returns the line to request.
    /// The stride accumulates exactly (programmed strides need not be
    /// line multiples); each queued fetch is the containing line.
    fn advance(&mut self, i: usize) -> Option<PAddr> {
        let buf = &mut self.buffers[i];
        if buf.fifo.len() >= self.cfg.depth {
            return None;
        }
        let line = buf.next.align_down(self.cfg.line);
        buf.fifo.push_back((line, Cycle::MAX));
        buf.next = PAddr::new((buf.next.raw() as i64 + buf.stride).max(0) as u64);
        Some(line)
    }

    /// Fills an empty buffer's fetch plan (up to `depth` lines).
    fn prefill(&mut self, i: usize) -> [Option<PAddr>; 4] {
        let mut out = [None; 4];
        for slot in out.iter_mut().take(self.cfg.depth) {
            *slot = self.advance(i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(x: u64) -> PAddr {
        PAddr::new(x)
    }

    fn sb() -> StreamBuffers {
        StreamBuffers::new(StreamConfig::default())
    }

    #[test]
    fn miss_allocates_and_requests_depth_lines() {
        let mut s = sb();
        match s.lookup(pa(0x1000), 0) {
            StreamOutcome::Miss { fetches } => {
                let got: Vec<u64> = fetches.iter().flatten().map(|p| p.raw()).collect();
                assert_eq!(got, vec![0x1020, 0x1040, 0x1060, 0x1080]);
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn sequential_stream_hits_after_allocation() {
        let mut s = sb();
        let StreamOutcome::Miss { fetches } = s.lookup(pa(0x1000), 0) else {
            panic!("first miss allocates");
        };
        for f in fetches.iter().flatten() {
            s.fill(*f, 50);
        }
        match s.lookup(pa(0x1020), 100) {
            StreamOutcome::Hit { ready, fetch } => {
                assert_eq!(ready, 100, "data arrived before the demand");
                assert_eq!(fetch, Some(pa(0x10a0)), "buffer keeps running ahead");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(s.stats().hit_ratio() > 0.0);
    }

    #[test]
    fn early_demand_waits_for_inflight_fetch() {
        let mut s = sb();
        let StreamOutcome::Miss { fetches } = s.lookup(pa(0), 0) else {
            panic!()
        };
        s.fill(fetches[0].unwrap(), 500);
        match s.lookup(pa(0x20), 10) {
            StreamOutcome::Hit { ready, .. } => assert_eq!(ready, 500),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn random_accesses_never_hit() {
        let mut s = sb();
        let mut state = 12345u64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = ((state >> 16) % (1 << 20)) & !31;
            match s.lookup(pa(addr), 0) {
                StreamOutcome::Miss { .. } => {}
                StreamOutcome::Hit { .. } => {
                    // A random collision with a prefetched next-line is
                    // astronomically unlikely at this footprint.
                    panic!("irregular stream must not hit");
                }
            }
        }
        assert_eq!(s.stats().hits, 0);
    }

    #[test]
    fn programmed_stride_serves_strided_walk() {
        let mut s = sb();
        let stride = 8200i64; // a matrix-row stride, not next-line
        let fetches = s.program(pa(0), stride);
        for f in fetches.iter().flatten() {
            s.fill(*f, 10);
        }
        // The strided walk hits the programmed buffer head every time,
        // consuming from the stream's base onward.
        for k in 0..=2u64 {
            match s.lookup(pa(k * 8200), 1000) {
                StreamOutcome::Hit { fetch, .. } => {
                    // The k-th hit requests line k+depth along the stride.
                    let expect = ((k + 4) as i64 * stride) as u64 & !31;
                    assert_eq!(fetch.unwrap().raw(), expect);
                    if let Some(f) = fetch {
                        s.fill(f, 1000);
                    }
                }
                other => panic!("expected programmed hit at {k}, got {other:?}"),
            }
        }
        assert_eq!(s.stats().hits, 3);
    }

    #[test]
    fn lru_reallocates_oldest_buffer() {
        let mut s = StreamBuffers::new(StreamConfig {
            buffers: 2,
            depth: 2,
            line: 32,
        });
        s.lookup(pa(0x1000), 0); // buffer A
        s.lookup(pa(0x8000), 0); // buffer B
        s.lookup(pa(0x20000), 0); // reallocates A (oldest)
        assert_eq!(s.stats().allocations, 3);
    }

    #[test]
    fn invalidate_drops_buffered_line() {
        let mut s = sb();
        let StreamOutcome::Miss { fetches } = s.lookup(pa(0), 0) else {
            panic!()
        };
        s.fill(fetches[0].unwrap(), 1);
        s.invalidate(pa(0x20));
        match s.lookup(pa(0x20), 10) {
            StreamOutcome::Miss { .. } => {}
            other => panic!("stale line must be gone, got {other:?}"),
        }
    }

    #[test]
    fn head_only_matching_is_fifo() {
        // A hit must match the *head*; skipping ahead (an out-of-order
        // touch) misses and reallocates, as in Jouppi's design.
        let mut s = sb();
        let StreamOutcome::Miss { fetches } = s.lookup(pa(0), 0) else {
            panic!()
        };
        for f in fetches.iter().flatten() {
            s.fill(*f, 1);
        }
        match s.lookup(pa(0x40), 10) {
            StreamOutcome::Miss { .. } => {}
            other => panic!("expected head-miss, got {other:?}"),
        }
    }
}

//! Storage-class-memory (SCM) timing and wear model.
//!
//! A second, slower memory class behind the Impulse controller: think
//! battery-backed phase-change or early persistent DIMMs. Compared to
//! [`crate::Dram`] the model is deliberately different in shape, not
//! just in numbers:
//!
//! * **Asymmetric read/write latency** — writes cost several times a
//!   read (media programming), with no row-buffer locality at all.
//! * **Per-channel queues** — the part is split into independent
//!   channels, each with its own link; there is no shared data bus, so
//!   two channels transfer concurrently but accesses to one channel
//!   serialize.
//! * **Per-line write wear** — every line write increments a wear
//!   counter. A line that crosses the configured limit is *retired and
//!   remapped* onto a spare (charged as a media copy); once the spares
//!   are exhausted further worn-out lines go *dead* and accesses to
//!   them fail with a typed [`ScmError::LineRetired`] — never silently
//!   wrong data.
//!
//! Raw bit errors (SCM media is noisier than DRAM) reuse the
//! [`FlipInjector`] machinery on an independent stream; the tier engine
//! drains them through the controller's ECC model exactly like DRAM
//! flips.

use std::collections::{BTreeMap, BTreeSet};

use impulse_fault::{BitFlip, FlipInjector, FlipStats};
use impulse_types::geom::{is_pow2, log2, shr_ceil};
use impulse_types::{AccessKind, Cycle};

/// Configuration of the SCM part and its timing, in CPU cycles.
///
/// Channel count, line size and link width must be powers of two, so
/// the line/channel split and transfer time are shifts; [`Scm::new`]
/// asserts it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScmConfig {
    /// Independent channels; lines interleave across them.
    pub channels: u64,
    /// Line size in bytes — the wear-levelling and interleave granule.
    pub line_bytes: u64,
    /// Media read latency (no locality: every read pays it).
    pub t_read: Cycle,
    /// Media write (program) latency; typically several times `t_read`.
    pub t_write: Cycle,
    /// Bytes each channel link moves per cycle.
    pub bus_bytes_per_cycle: u64,
    /// Minimum link occupancy per access, cycles.
    pub t_bus_min: Cycle,
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Writes a line endures before it is retired. `0` disables wear.
    pub wear_limit: u32,
    /// Spare lines available for retire-and-remap before lines go dead.
    pub spare_lines: u64,
    /// Extra cycles charged when a worn line is copied onto a spare.
    pub t_retire: Cycle,
}

impl Default for ScmConfig {
    fn default() -> Self {
        Self {
            channels: 4,
            line_bytes: 128,
            t_read: 60,
            t_write: 240,
            bus_bytes_per_cycle: 8,
            t_bus_min: 4,
            capacity: 1 << 30,
            wear_limit: 0,
            spare_lines: 64,
            t_retire: 400,
        }
    }
}

/// Counters maintained by the SCM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScmStats {
    /// Read accesses served.
    pub reads: u64,
    /// Write accesses served.
    pub writes: u64,
    /// Total bytes moved over the channel links.
    pub bytes: u64,
    /// Cycles spent waiting for a busy channel.
    pub channel_wait: u64,
    /// Lines retired and remapped onto spares after crossing the wear
    /// limit (recovered — the line keeps working).
    pub wear_retirements: u64,
    /// Accesses rejected because they touched a dead line (worn out
    /// with no spare left) — surfaced as typed errors.
    pub dead_rejects: u64,
}

/// A failed SCM access. The media never returns wrong data silently:
/// an access that cannot be served is rejected with the line that
/// caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScmError {
    /// The access touched a line that wore out after the spare pool was
    /// exhausted; it is permanently retired.
    LineRetired {
        /// The dead SCM line index.
        line: u64,
    },
}

/// The SCM part: per-channel link state, per-line wear, and the
/// retire-and-remap machinery.
#[derive(Clone, Debug, PartialEq)]
pub struct Scm {
    cfg: ScmConfig,
    /// The configuration's line size, channel count and link width,
    /// resolved to shifts and a mask once at construction.
    line_shift: u32,
    channel_mask: u64,
    bus_shift: u32,
    /// Per-channel link-free times.
    channels: Vec<Cycle>,
    /// Write counts per line, kept sparse and ordered, so the state
    /// digest (the machine's `Debug` print) does not depend on the
    /// order lines were first written. Lines never written don't appear.
    wear: BTreeMap<u64, u32>,
    /// Lines remapped onto spares; they keep working (wear restarts on
    /// the fresh spare).
    retired: BTreeSet<u64>,
    /// Lines that wore out with no spare available. Accesses fail.
    dead: BTreeSet<u64>,
    spares_used: u64,
    stats: ScmStats,
    faults: Option<FlipInjector>,
}

impl Scm {
    /// Creates an SCM part from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or zero-byte lines,
    /// or if the channel count, line size or link width is not a power
    /// of two.
    pub fn new(cfg: ScmConfig) -> Self {
        assert!(cfg.channels > 0, "SCM must have at least one channel");
        assert!(cfg.line_bytes > 0, "SCM lines must be non-empty");
        for (what, v) in [
            ("channel count", cfg.channels),
            ("line size", cfg.line_bytes),
            ("link width", cfg.bus_bytes_per_cycle),
        ] {
            assert!(is_pow2(v), "SCM {what} must be a power of two (got {v})");
        }
        Self {
            line_shift: log2(cfg.line_bytes),
            channel_mask: cfg.channels - 1,
            bus_shift: log2(cfg.bus_bytes_per_cycle),
            channels: vec![0; cfg.channels as usize],
            wear: BTreeMap::new(),
            retired: BTreeSet::new(),
            dead: BTreeSet::new(),
            spares_used: 0,
            stats: ScmStats::default(),
            faults: None,
            cfg,
        }
    }

    /// Attaches a deterministic bit-flip injector for the SCM's raw
    /// bit-error rate. The tier engine drains flips with
    /// [`Scm::take_flips`] and runs them through the controller ECC.
    pub fn set_fault_injector(&mut self, injector: FlipInjector) {
        self.faults = Some(injector);
    }

    /// Drains bit flips injected since the last call.
    #[inline]
    pub fn take_flips(&mut self) -> Vec<(u64, BitFlip)> {
        match &mut self.faults {
            Some(f) => f.take(),
            None => Vec::new(),
        }
    }

    /// Bit-flip injection counters (zeros when no injector is attached).
    pub fn flip_stats(&self) -> FlipStats {
        self.faults
            .as_ref()
            .map(FlipInjector::stats)
            .unwrap_or_default()
    }

    /// The configuration this part was built with.
    pub fn config(&self) -> &ScmConfig {
        &self.cfg
    }

    /// Line index of an SCM-relative byte offset.
    #[inline]
    pub fn line_of(&self, offset: u64) -> u64 {
        offset >> self.line_shift
    }

    /// Channel index serving an SCM-relative byte offset (lines
    /// interleave across channels).
    #[inline]
    pub fn channel_of(&self, offset: u64) -> u64 {
        self.line_of(offset) & self.channel_mask
    }

    /// Link occupancy for a transfer of `bytes`.
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        self.cfg.t_bus_min.max(shr_ceil(bytes, self.bus_shift))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ScmStats {
        self.stats
    }

    /// Resets statistics (timing, wear, and retirement state persist —
    /// wear is physical damage, not a counter artifact).
    pub fn reset_stats(&mut self) {
        self.stats = ScmStats::default();
    }

    /// Current wear count of a line (0 if never written).
    pub fn wear_of(&self, line: u64) -> u32 {
        self.wear.get(&line).copied().unwrap_or(0)
    }

    /// True when `line` is permanently dead (accesses to it fail).
    pub fn is_dead(&self, line: u64) -> bool {
        self.dead.contains(&line)
    }

    /// Lines retired onto spares so far.
    pub fn retired_lines(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Performs one access of `bytes` bytes at SCM-relative byte offset
    /// `offset`, starting at `now`; returns the completion cycle.
    ///
    /// Reads pay `t_read`, writes pay `t_write` plus wear accounting:
    /// a line crossing the wear limit is retired onto a spare (charged
    /// `t_retire`) while spares last, then goes dead. Any access
    /// touching a dead line fails with [`ScmError::LineRetired`].
    pub fn access(
        &mut self,
        offset: u64,
        kind: AccessKind,
        bytes: u64,
        now: Cycle,
    ) -> Result<Cycle, ScmError> {
        debug_assert!(
            offset + bytes.max(1) <= self.cfg.capacity,
            "SCM access beyond capacity: {offset:#x}+{bytes}"
        );
        let first = self.line_of(offset);
        let last = self.line_of(offset + bytes.saturating_sub(1));
        // Dead-line check up front: rejected accesses consume no timing
        // or fault-stream state, so the schedule stays deterministic.
        for line in first..=last {
            if self.dead.contains(&line) {
                self.stats.dead_rejects += 1;
                return Err(ScmError::LineRetired { line });
            }
        }
        if let Some(f) = &mut self.faults {
            f.on_access(offset, now);
        }
        let ch = self.channel_of(offset) as usize;
        let start = now.max(self.channels[ch]);
        self.stats.channel_wait += start - now;
        let latency = match kind {
            AccessKind::Load => {
                self.stats.reads += 1;
                self.cfg.t_read
            }
            AccessKind::Store => {
                self.stats.writes += 1;
                self.cfg.t_write
            }
        };
        let mut done = start + latency + self.transfer_cycles(bytes);
        self.stats.bytes += bytes;

        let mut newly_dead = None;
        if kind == AccessKind::Store && self.cfg.wear_limit > 0 {
            for line in first..=last {
                let w = self.wear.entry(line).or_insert(0);
                *w += 1;
                if *w >= self.cfg.wear_limit {
                    if self.spares_used < self.cfg.spare_lines {
                        // Retire-and-remap: copy onto a fresh spare and
                        // keep serving the line. Wear restarts.
                        self.spares_used += 1;
                        self.retired.insert(line);
                        self.stats.wear_retirements += 1;
                        *w = 0;
                        done += self.cfg.t_retire;
                    } else {
                        // No spare left: this write's data is lost and
                        // the line is dead from here on.
                        self.dead.insert(line);
                        newly_dead = Some(line);
                    }
                }
            }
        }
        self.channels[ch] = done;
        if let Some(line) = newly_dead {
            self.stats.dead_rejects += 1;
            return Err(ScmError::LineRetired { line });
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_fault::XorShift64;

    fn scm(wear_limit: u32, spares: u64) -> Scm {
        Scm::new(ScmConfig {
            wear_limit,
            spare_lines: spares,
            ..ScmConfig::default()
        })
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let mut s = scm(0, 0);
        let r = s.access(0, AccessKind::Load, 128, 0).unwrap();
        let mut s2 = scm(0, 0);
        let w = s2.access(0, AccessKind::Store, 128, 0).unwrap();
        assert!(w > r, "media programming is slower than reading");
        assert_eq!(r, ScmConfig::default().t_read + s.transfer_cycles(128));
    }

    #[test]
    fn channels_operate_independently_same_channel_serializes() {
        let cfg = ScmConfig::default();
        let line = cfg.line_bytes;
        let ch_stride = line * cfg.channels;
        let mut s = Scm::new(cfg.clone());
        // Different channels, same start: both finish at the isolated
        // latency — no shared bus.
        let a = s.access(0, AccessKind::Load, 128, 0).unwrap();
        let b = s.access(line, AccessKind::Load, 128, 0).unwrap();
        assert_eq!(a, b);
        // Same channel: the second waits.
        let c = s.access(ch_stride, AccessKind::Load, 128, 0).unwrap();
        assert!(c > a);
        assert!(s.stats().channel_wait > 0);
    }

    #[test]
    fn wear_retires_onto_spares_then_kills() {
        let mut s = scm(3, 1);
        // Two writes: below the limit.
        s.access(0, AccessKind::Store, 128, 0).unwrap();
        s.access(0, AccessKind::Store, 128, 1000).unwrap();
        assert_eq!(s.wear_of(0), 2);
        // Third write crosses the limit: retired onto the one spare.
        let before = s.access(0, AccessKind::Store, 128, 2000).unwrap();
        assert_eq!(s.stats().wear_retirements, 1);
        assert_eq!(s.retired_lines(), 1);
        assert_eq!(s.wear_of(0), 0, "wear restarts on the fresh spare");
        assert!(before >= 2000 + ScmConfig::default().t_retire);
        // Wear the spare out too: no spare left, the line dies.
        for t in 0..2 {
            s.access(0, AccessKind::Store, 128, 10_000 + t * 1000)
                .unwrap();
        }
        let err = s.access(0, AccessKind::Store, 128, 20_000).unwrap_err();
        assert_eq!(err, ScmError::LineRetired { line: 0 });
        assert!(s.is_dead(0));
        // Every later access is rejected, deterministically.
        let err = s.access(64, AccessKind::Load, 8, 30_000).unwrap_err();
        assert_eq!(err, ScmError::LineRetired { line: 0 });
        assert_eq!(s.stats().dead_rejects, 2);
        // Other lines still work.
        s.access(128, AccessKind::Load, 128, 30_000).unwrap();
    }

    #[test]
    fn shift_mask_geometry_matches_division_reference() {
        let mut rng = XorShift64::new(0x2545_F491_4F6C_DD1D);
        for (c, l) in (0..=4).flat_map(|c| (5..=9).map(move |l| (c, l))) {
            let cfg = ScmConfig {
                channels: 1 << c,
                line_bytes: 1 << l,
                ..ScmConfig::default()
            };
            let s = Scm::new(cfg.clone());
            for _ in 0..256 {
                let (off, bytes) = (rng.next_u64() >> 24, rng.below(1024));
                let line = off / cfg.line_bytes;
                let split = (line, line % cfg.channels);
                assert_eq!((s.line_of(off), s.channel_of(off)), split, "{cfg:?}");
                let xfer = cfg.t_bus_min.max(bytes.div_ceil(cfg.bus_bytes_per_cycle));
                assert_eq!(s.transfer_cycles(bytes), xfer, "{cfg:?}: {bytes} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "SCM channel count must be a power of two")]
    fn non_pow2_channels_rejected() {
        let _ = Scm::new(ScmConfig {
            channels: 3,
            ..ScmConfig::default()
        });
    }
}

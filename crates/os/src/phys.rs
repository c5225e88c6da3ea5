//! Physical page-frame allocation.
//!
//! The allocator hands out 4 KB DRAM frames under one of two placement
//! policies: `Sequential` (first-touch, the common contiguous case) or
//! `Random` (a fragmented machine — the situation that makes conventional
//! page recoloring expensive and Impulse's no-copy recoloring attractive).
//! It also supports *colored* allocation, used by tests and by the
//! software-copying baselines.

use std::collections::VecDeque;

use impulse_types::geom::{PAGE_SHIFT, PAGE_SIZE};
use impulse_types::{FxHashMap, MAddr};

/// Frame placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Allocate frames in ascending order.
    Sequential,
    /// Allocate frames in a pseudo-random order derived from the seed.
    Random(u64),
}

/// Errors from the frame allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhysError {
    /// No free frame satisfies the request.
    OutOfMemory,
}

impl core::fmt::Display for PhysError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PhysError::OutOfMemory => write!(f, "out of physical memory"),
        }
    }
}

impl std::error::Error for PhysError {}

/// The physical frame allocator.
///
/// The free list is a stack of frame numbers: [`alloc`] pops from the
/// back and [`free`] pushes there. Under [`AllocPolicy::Random`] its
/// initial order is a seeded Fisher–Yates shuffle of the descending
/// frame numbers, taken lazily: step *i* of the shuffle fixes position
/// *i* for good, and steps run from the top down, so only the positions
/// a caller reaches are ever shuffled. Positions below that point stay
/// implicit: each holds its unshuffled frame unless an earlier step
/// displaced another one into it, and only the displaced ones are
/// stored. A machine that touches a few thousand frames of a 1 GB pool
/// never builds the pool's list.
///
/// [`alloc`]: Self::alloc
/// [`free`]: Self::free
///
/// # Examples
///
/// ```
/// use impulse_os::{AllocPolicy, PhysMem};
///
/// let mut phys = PhysMem::new(1 << 20, 0, AllocPolicy::Sequential);
/// let a = phys.alloc()?;
/// let b = phys.alloc()?;
/// assert_ne!(a, b);
/// phys.free(a);
/// # Ok::<(), impulse_os::PhysError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PhysMem {
    /// The settled top of the free list, in list order (popped from the
    /// back): the shuffle's finished positions plus every freed frame.
    free: VecDeque<u64>,
    /// Positions `0..pending` of the free list, below `free`, that the
    /// shuffle has not reached yet.
    pending: u64,
    /// The pending positions whose frame is not their unshuffled
    /// `total_frames - 1 - position`, keyed by position.
    displaced: FxHashMap<u64, u64>,
    /// The shuffle's xorshift state; `None` under `Sequential`, whose
    /// list is never shuffled.
    rng: Option<u64>,
    total_frames: u64,
    allocated: u64,
}

impl PhysMem {
    /// Builds an allocator over `capacity` bytes of DRAM, keeping the top
    /// `reserved_top` bytes out of the pool (the controller page table
    /// lives there).
    ///
    /// A reservation at or beyond the capacity leaves an empty pool: the
    /// machine boots with no allocatable frames and every [`alloc`]
    /// returns [`PhysError::OutOfMemory`], rather than aborting
    /// construction.
    ///
    /// [`alloc`]: Self::alloc
    pub fn new(capacity: u64, reserved_top: u64, policy: AllocPolicy) -> Self {
        let usable = capacity.saturating_sub(reserved_top);
        let frames = usable / PAGE_SIZE;
        Self {
            free: VecDeque::new(),
            pending: frames,
            displaced: FxHashMap::default(),
            rng: match policy {
                AllocPolicy::Sequential => None,
                AllocPolicy::Random(seed) => Some(rng_seed(seed)),
            },
            total_frames: frames,
            allocated: 0,
        }
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Frames still free.
    pub fn free_frames(&self) -> u64 {
        self.total_frames - self.allocated
    }

    /// Runs the shuffle step for the top pending position, which fixes
    /// it, and returns its frame; `None` once nothing is pending.
    fn settle_next(&mut self) -> Option<u64> {
        let i = self.pending.checked_sub(1)?;
        self.pending = i;
        let top = self.total_frames - 1;
        let at_i = self.displaced.remove(&i).unwrap_or(top - i);
        // Fisher–Yates has no step for position 0: it is whatever the
        // step for position 1 left there.
        let Some(state) = self.rng.as_mut().filter(|_| i > 0) else {
            return Some(at_i);
        };
        let j = xorshift(state) % (i + 1);
        if j == i {
            return Some(at_i);
        }
        Some(self.displaced.insert(j, at_i).unwrap_or(top - j))
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`PhysError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&mut self) -> Result<MAddr, PhysError> {
        let frame = match self.free.pop_back() {
            Some(frame) => frame,
            None => self.settle_next().ok_or(PhysError::OutOfMemory)?,
        };
        self.allocated += 1;
        Ok(MAddr::new(frame << PAGE_SHIFT))
    }

    /// Allocates a frame whose *page color* (frame number modulo
    /// `num_colors`) is in `colors`: the one nearest the top of the free
    /// list, whose place the list's top frame then takes. Used by
    /// copy-based baselines that pay for color control with data
    /// movement.
    ///
    /// # Errors
    ///
    /// Returns [`PhysError::OutOfMemory`] if no free frame has an
    /// acceptable color.
    pub fn alloc_colored(&mut self, colors: &[u64], num_colors: u64) -> Result<MAddr, PhysError> {
        let wanted = |f: &u64| colors.contains(&(f % num_colors));
        let settled = self
            .free
            .iter()
            .rposition(wanted)
            .and_then(|pos| self.free.swap_remove_back(pos));
        let frame = match settled {
            Some(frame) => frame,
            None => loop {
                // Settle pending positions downward; each one passed over
                // joins the bottom of the settled list, in list order.
                let frame = self.settle_next().ok_or(PhysError::OutOfMemory)?;
                if wanted(&frame) {
                    if let Some(top) = self.free.pop_back() {
                        self.free.push_front(top);
                    }
                    break frame;
                }
                self.free.push_front(frame);
            },
        };
        self.allocated += 1;
        Ok(MAddr::new(frame << PAGE_SHIFT))
    }

    /// Returns a frame to the pool.
    ///
    /// The allocator only hands out page-aligned frames, so an unaligned
    /// `frame` is an internal invariant violation (debug-checked).
    pub fn free(&mut self, frame: MAddr) {
        debug_assert!(
            frame.raw().is_multiple_of(PAGE_SIZE),
            "freeing a non-page-aligned frame: {frame:?}"
        );
        self.free.push_back(frame.raw() >> PAGE_SHIFT);
        self.allocated = self.allocated.saturating_sub(1);
    }
}

/// The shuffle generator's state for `seed`: an xorshift generator
/// (keeps this crate free of a rand dependency; determinism is all the
/// simulator needs).
fn rng_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Advances the xorshift generator and returns its next value.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocates_ascending() {
        let mut p = PhysMem::new(16 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        assert_eq!(p.alloc().unwrap(), MAddr::new(0));
        assert_eq!(p.alloc().unwrap(), MAddr::new(PAGE_SIZE));
        assert_eq!(p.allocated_frames(), 2);
        assert_eq!(p.free_frames(), 14);
    }

    #[test]
    fn random_is_deterministic_and_complete() {
        let mut a = PhysMem::new(64 * PAGE_SIZE, 0, AllocPolicy::Random(7));
        let mut b = PhysMem::new(64 * PAGE_SIZE, 0, AllocPolicy::Random(7));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let fa = a.alloc().unwrap();
            assert_eq!(fa, b.alloc().unwrap());
            assert!(seen.insert(fa));
        }
        assert!(a.alloc().is_err());
    }

    #[test]
    fn random_actually_permutes() {
        let mut p = PhysMem::new(64 * PAGE_SIZE, 0, AllocPolicy::Random(1));
        let first: Vec<u64> = (0..8).map(|_| p.alloc().unwrap().raw()).collect();
        assert_ne!(first, (0..8).map(|i| i * PAGE_SIZE).collect::<Vec<_>>());
    }

    #[test]
    fn reservation_shrinks_pool() {
        let p = PhysMem::new(16 * PAGE_SIZE, 4 * PAGE_SIZE, AllocPolicy::Sequential);
        assert_eq!(p.free_frames(), 12);
    }

    #[test]
    fn colored_allocation_respects_colors() {
        let mut p = PhysMem::new(64 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        for _ in 0..8 {
            let f = p.alloc_colored(&[3, 5], 8).unwrap();
            let color = (f.raw() >> 12) % 8;
            assert!(color == 3 || color == 5);
        }
    }

    #[test]
    fn colored_allocation_exhausts() {
        let mut p = PhysMem::new(8 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        assert!(p.alloc_colored(&[0], 8).is_ok());
        assert_eq!(p.alloc_colored(&[0], 8), Err(PhysError::OutOfMemory));
    }

    #[test]
    fn free_returns_frame_to_pool() {
        let mut p = PhysMem::new(PAGE_SIZE, 0, AllocPolicy::Sequential);
        let f = p.alloc().unwrap();
        assert!(p.alloc().is_err());
        p.free(f);
        assert_eq!(p.alloc().unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    #[cfg(debug_assertions)]
    fn free_rejects_unaligned() {
        let mut p = PhysMem::new(2 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        p.free(MAddr::new(1));
    }

    /// The eager allocator the lazy one must match step for step: the
    /// whole descending list built and shuffled up front.
    struct EagerPhys {
        free: Vec<u64>,
        total_frames: u64,
        allocated: u64,
    }

    impl EagerPhys {
        fn new(frames: u64, policy: AllocPolicy) -> Self {
            let mut free: Vec<u64> = (0..frames).rev().collect();
            if let AllocPolicy::Random(seed) = policy {
                shuffle(&mut free, seed);
            }
            Self {
                free,
                total_frames: frames,
                allocated: 0,
            }
        }

        fn alloc(&mut self) -> Result<MAddr, PhysError> {
            let frame = self.free.pop().ok_or(PhysError::OutOfMemory)?;
            self.allocated += 1;
            Ok(MAddr::new(frame << PAGE_SHIFT))
        }

        fn alloc_colored(&mut self, colors: &[u64], num_colors: u64) -> Result<MAddr, PhysError> {
            let pos = self
                .free
                .iter()
                .rposition(|f| colors.contains(&(f % num_colors)))
                .ok_or(PhysError::OutOfMemory)?;
            let frame = self.free.swap_remove(pos);
            self.allocated += 1;
            Ok(MAddr::new(frame << PAGE_SHIFT))
        }

        fn free(&mut self, frame: MAddr) {
            self.free.push(frame.raw() >> PAGE_SHIFT);
            self.allocated = self.allocated.saturating_sub(1);
        }

        fn view(&self) -> (Vec<u64>, u64, u64) {
            (self.free.clone(), self.total_frames, self.allocated)
        }
    }

    /// The original eager Fisher–Yates with its own xorshift generator.
    fn shuffle(v: &mut [u64], seed: u64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..v.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// The lazy allocator's state in the eager one's terms: the whole
    /// free list the eager shuffle would have built, plus the frame
    /// counters. The pending positions are settled on a scratch copy.
    fn view(p: &PhysMem) -> (Vec<u64>, u64, u64) {
        let mut scratch = PhysMem {
            free: VecDeque::new(),
            displaced: p.displaced.clone(),
            ..*p
        };
        // Settled top-down: the reverse of list order.
        let mut free: Vec<u64> = std::iter::from_fn(|| scratch.settle_next()).collect();
        free.reverse();
        free.extend(&p.free);
        (free, p.total_frames, p.allocated)
    }

    #[test]
    fn lazy_shuffle_matches_the_eager_allocator() {
        // A seeded op stream drives both allocators over every pool size
        // up to 300 frames under both policies; after every step the
        // frame handed out, the free count, the whole free list and the
        // frame counters agree.
        let mut x = 0x5EED_u64;
        let mut rand = move |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        for frames in 0..=300u64 {
            for policy in [
                AllocPolicy::Sequential,
                AllocPolicy::Random(frames * 31 + 7),
            ] {
                let capacity = frames * PAGE_SIZE;
                let mut lazy = PhysMem::new(capacity + 2 * PAGE_SIZE, 2 * PAGE_SIZE, policy);
                let mut eager = EagerPhys::new(frames, policy);
                let mut held: Vec<MAddr> = Vec::new();
                for step in 0..120 {
                    let ctx = format!("{frames} frames, {policy:?}, step {step}");
                    match rand(20) {
                        0..=7 => {
                            let got = lazy.alloc();
                            assert_eq!(got, eager.alloc(), "alloc: {ctx}");
                            held.extend(got);
                        }
                        8..=11 => {
                            let num_colors = [1, 2, 4, 8, 32][rand(5) as usize];
                            let colors: Vec<u64> =
                                (0..num_colors).filter(|_| rand(3) == 0).collect();
                            let got = lazy.alloc_colored(&colors, num_colors);
                            assert_eq!(
                                got,
                                eager.alloc_colored(&colors, num_colors),
                                "colored: {ctx}"
                            );
                            held.extend(got);
                        }
                        12..=16 if !held.is_empty() => {
                            let f = held.swap_remove(rand(held.len() as u64) as usize);
                            lazy.free(f);
                            eager.free(f);
                        }
                        _ => {}
                    }
                    assert_eq!(
                        lazy.free_frames(),
                        eager.total_frames - eager.allocated,
                        "{ctx}"
                    );
                    assert_eq!(view(&lazy), eager.view(), "free list: {ctx}");
                }
            }
        }
    }

    #[test]
    fn over_reservation_degrades_to_empty_pool() {
        // Reserving more than the capacity no longer aborts construction:
        // the machine simply has nothing to allocate.
        let mut p = PhysMem::new(4 * PAGE_SIZE, 8 * PAGE_SIZE, AllocPolicy::Sequential);
        assert_eq!(p.free_frames(), 0);
        assert_eq!(p.alloc(), Err(PhysError::OutOfMemory));
    }
}

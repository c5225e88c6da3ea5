//! The host-speed calibration kernel behind *normalized seconds*.
//!
//! On a shared host, other tenants slow the simulator by tens of percent
//! from one pass to the next, and the slowdown is not CPU frequency: a
//! kernel that stays in L1 holds steady. The benchmark therefore runs a
//! fixed kernel before and after every pass and rescales the pass's wall
//! time by `CALIB_REF_MS / calibration ms`, where the calibration time is
//! the mean of the two runs around the pass.
//!
//! The kernel has the simulator's shape rather than a memory benchmark's:
//! table lookups feeding a direct-mapped tag array (the translate-then-probe
//! hot path, over a working set near the 2 MiB L2), then fresh hashed and
//! ordered std collections and a sort (allocation, pointer chasing and
//! branchy library code). Pure random-access kernels react to neighbours in
//! proportions the simulator does not; `README.md` has the measurements.
//! The kernel is the benchmark's and the toolchain's code, never the
//! simulator's, so a change to the simulator cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on a quiet host (Intel Xeon, Sapphire Rapids
/// class, 2 vCPUs under KVM, 2 MiB L2 per core). Normalized seconds are
/// host seconds rescaled to that host state.
pub const CALIB_REF_MS: f64 = 13.5;

/// Fixed-key SipHash, so every run hashes identically.
type Fixed = BuildHasherDefault<DefaultHasher>;

const KEYS: u64 = 1 << 16;
const TAGS: usize = 1 << 16;
const LOOKUPS: u32 = 1 << 17;
const ORDERED: u64 = 1 << 14;

/// The kernel's long-lived state, built once per process.
pub struct Calibrator {
    table: HashMap<u64, u64, Fixed>,
    tags: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            table: (0..KEYS)
                .map(|k| (k, k.wrapping_mul(0x9e37_79b9)))
                .collect(),
            tags: vec![0; TAGS],
        }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut misses = 0u64;
        for _ in 0..LOOKUPS {
            let r = next();
            let frame = self.table.get(&(r % KEYS)).copied().unwrap_or(0);
            let set = ((frame ^ (r >> 20)) as usize) & (TAGS - 1);
            let tag = r >> 40;
            if self.tags[set] != tag {
                self.tags[set] = tag;
                misses += 1;
            }
        }
        let mut hashed: HashMap<u64, u64, Fixed> = HashMap::default();
        let mut ordered = BTreeMap::new();
        let mut sorted = Vec::with_capacity(ORDERED as usize);
        for i in 0..ORDERED {
            let k = next() & 0xf_ffff;
            hashed.insert(k, i);
            ordered.insert(k ^ 0x5555, i);
            sorted.push(next());
        }
        let mut acc = 0u64;
        for _ in 0..ORDERED {
            let k = next() & 0xf_ffff;
            acc = acc.wrapping_add(hashed.get(&k).copied().unwrap_or(1));
            acc = acc.wrapping_add(ordered.range(k..).next().map_or(0, |(_, v)| *v));
        }
        sorted.sort_unstable();
        black_box((misses, acc, sorted));
        t0.elapsed().as_secs_f64() * 1e3
    }
}

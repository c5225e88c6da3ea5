//! Minimal self-timed micro-benchmark harness.
//!
//! The workspace builds fully offline, so the benchmark targets cannot
//! pull in an external statistics framework. This harness covers what the
//! `[[bench]]` targets actually need: warm up, run many short measured
//! batches of iterations against a wall clock, and print per-iteration
//! timings in a stable, grep-friendly format (`group/name  min <min>
//! ns/iter  median <median> ns/iter (<n> iters x <samples> samples)`).
//!
//! Both figures are fractional nanoseconds. The minimum over many short
//! samples is the steadier of the two on a shared host: a sample that a
//! neighbour slowed down only raises the upper tail, so a change of a
//! fifth on a path of a few nanoseconds still shows between two runs.
//! The median says how typical the minimum was.
//!
//! Timings are indicative, not statistically rigorous — the simulator's
//! own *cycle* counts (what the paper reports) are exactly reproducible
//! and live in the regular binaries; these benches only guard the
//! simulator's host-side throughput.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spend per benchmark measurement.
const TARGET: Duration = Duration::from_millis(420);
/// Samples taken per benchmark (the minimum and median over these are
/// reported).
const SAMPLES: usize = 21;

/// A named group of benchmarks, printed with a `group/name` prefix.
pub struct Group {
    name: &'static str,
}

impl Group {
    /// Starts a benchmark group.
    pub fn new(name: &'static str) -> Self {
        println!("## {name}");
        Self { name }
    }

    /// Measures `f`, which performs **one** iteration of interesting work
    /// and returns a value kept opaque to the optimizer.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warm-up: also sizes the measured batch so one sample lands
        // near TARGET/SAMPLES.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < TARGET / 10 || warm_iters < 3 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / warm_iters.max(1) as u128;
        let batch =
            ((TARGET.as_nanos() / SAMPLES as u128) / per_iter.max(1)).clamp(1, 10_000_000) as u64;

        let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples.sort_unstable_by(f64::total_cmp);
        let (min, median) = (samples[0], samples[SAMPLES / 2]);
        println!(
            "{}/{name}  min {min:.2} ns/iter  median {median:.2} ns/iter \
             ({batch} iters x {SAMPLES} samples)",
            self.name
        );
    }
}

//! Ablation of the DRAM scheduler the paper was designing (Section 2.2):
//! in-order issue (their published configuration) vs. open-row-first
//! reordering vs. bank-parallel interleave.
//!
//! Two address mixes exercise the two goals the paper names:
//!
//! * **interleaved streams** — several sequential streams whose arrival
//!   order alternates between them (the access pattern of CG's DATA /
//!   COLUMN / x' streams, and of McKee et al.'s stream benchmarks).
//!   In-order issue ping-pongs between DRAM rows; grouping by row turns
//!   almost every access into an open-row hit.
//! * **dense gather** — word-grained scatter/gather batches over a region
//!   small enough that several requests share a row (reordering recovers
//!   that locality; bank interleave overlaps the rest).
//!
//! Overrides: `words=` (batch size), `batches=`, `streams=`, `seed=`,
//! `jobs=` (worker threads; default all hardware threads, `jobs=1` for
//! the serial path). Each (workload, policy) cell simulates its own DRAM,
//! so the grid fans across a job pool; results print in grid order, so
//! the output is identical at any `jobs=` value.

use impulse_bench::outln;
use impulse_bench::runner::{self, Args};
use impulse_dram::{Dram, DramConfig, SchedulePolicy, Scheduler};
use impulse_types::{AccessKind, MAddr};

/// Deterministic xorshift for address generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One batch of word reads: (address, bytes) per request.
type Batch = Vec<(MAddr, u64)>;

/// Batches that round-robin `streams` sequential streams. The streams are
/// spaced a whole bank-rotation apart so they contend for the same banks
/// with different rows — the worst case for in-order issue.
fn stream_batches(cfg: &DramConfig, streams: u64, words: u64, batches: u64) -> Vec<Batch> {
    let bank_rotation = cfg.row_bytes * cfg.banks;
    let mut cursors: Vec<u64> = (0..streams).map(|s| s * 8 * bank_rotation).collect();
    (0..batches)
        .map(|_| {
            (0..words)
                .map(|i| {
                    let s = (i % streams) as usize;
                    let a = cursors[s];
                    cursors[s] += 8;
                    (MAddr::new(a), 8)
                })
                .collect()
        })
        .collect()
}

/// Word-grained gather batches over a dense region (several requests per
/// DRAM row).
fn gather_batches(rng: &mut Rng, words: u64, span: u64, batches: u64) -> Vec<Batch> {
    (0..batches)
        .map(|_| {
            (0..words)
                .map(|_| (MAddr::new((rng.next() % (span / 8)) * 8), 8))
                .collect()
        })
        .collect()
}

fn run(policy: SchedulePolicy, batches: &[Batch]) -> (u64, f64) {
    let mut dram = Dram::new(DramConfig {
        banks: 16,
        t_bus_min: 1,
        ..DramConfig::default()
    });
    let mut sched = Scheduler::new(policy);
    let mut now = 0;
    for b in batches {
        now = sched.issue(&mut dram, b, AccessKind::Load, now);
    }
    (now, dram.stats().row_hit_ratio())
}

const USAGE: &str =
    "usage: ablation_dram [--paper] [words=N] [batches=N] [streams=N] [seed=N] [jobs=N]";

fn main() -> std::process::ExitCode {
    let known = [
        "--paper", "words=", "batches=", "streams=", "seed=", "jobs=",
    ];
    let args = Args::from_env(&known, USAGE);
    let words = args.get("words", 64);
    let n_batches = args.get("batches", if args.paper() { 20_000 } else { 4_000 });
    let streams = args.get("streams", 4);
    let seed = args.get("seed", 42);

    let dram_cfg = DramConfig::default();
    let mut rng = Rng(seed | 1);
    let workloads = [
        (
            "interleaved streams",
            stream_batches(&dram_cfg, streams, words, n_batches),
        ),
        (
            "dense gather (64 KB image)",
            gather_batches(&mut rng, words, 64 * 1024, n_batches),
        ),
    ];

    outln!("\n================================================================");
    outln!("DRAM scheduler ablation — {n_batches} batches of {words} word reads");
    outln!("(the paper's published results use the in-order scheduler; the");
    outln!(" reordering policies are its Section 2.2 'designed' scheduler)");
    outln!("================================================================");

    // Fan the (workload × policy) grid across the pool; each cell owns
    // its DRAM and the batches are shared read-only.
    let grid: Vec<_> = workloads
        .iter()
        .flat_map(|(_, batches)| {
            SchedulePolicy::ALL
                .iter()
                .map(move |&policy| move || run(policy, batches))
        })
        .collect();
    let results = runner::run_ordered(grid, args.jobs());
    let mut results = results.chunks_exact(SchedulePolicy::ALL.len());

    for (name, _) in &workloads {
        outln!("\n--- {name} ---");
        outln!(
            "{:<18}{:>14}{:>12}{:>10}",
            "policy",
            "total cycles",
            "row hits",
            "speedup"
        );
        let cells = results.next().expect("one chunk per workload");
        let in_order = SchedulePolicy::ALL
            .iter()
            .position(|&p| p == SchedulePolicy::InOrder)
            .expect("in-order policy exists");
        let (base_cycles, _) = cells[in_order];
        for (policy, &(cycles, row_hits)) in SchedulePolicy::ALL.iter().zip(cells) {
            outln!(
                "{:<18}{:>14}{:>11.1}%{:>10.2}",
                policy.name(),
                cycles,
                100.0 * row_hits,
                base_cycles as f64 / cycles as f64
            );
        }
    }
    outln!();
    std::process::ExitCode::SUCCESS
}

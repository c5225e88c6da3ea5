//! Design-choice sweeps over the Impulse controller's sizing parameters,
//! using the scatter/gather CG kernel (the workload that stresses every
//! mechanism at once). The paper fixes these by fiat — 256-byte
//! descriptor buffers, a 2 KB prefetch SRAM, eight descriptors, an
//! on-chip PgTbl TLB — so this harness asks how sensitive the headline
//! result is to each.
//!
//! Sweeps: per-descriptor prefetch buffer size, non-shadow prefetch SRAM
//! size, controller TLB entries, DRAM banks, the DRAM scheduling policy,
//! and the hybrid memory tier (none / flat / DRAM-cache-over-SCM).
//! Overrides: `--paper`, `rows=`, `nnz=`, `seed=`, `jobs=` (worker
//! threads; default all hardware threads, `jobs=1` for the serial path).
//! An argument off the usage line, or a malformed value, exits 2 with a
//! usage message.
//!
//! Every grid point builds its own `Machine`, so the whole grid fans
//! across a job pool; rows are gathered and printed in grid order, making
//! the output identical at any `jobs=` value. The binary writes no file.

use std::process::ExitCode;
use std::sync::Arc;

use impulse_bench::outln;
use impulse_bench::runner::{self, Args};
use impulse_dram::SchedulePolicy;
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_types::TierPolicy;
use impulse_workloads::{Mmp, MmpParams, MmpVariant, Smvp, SmvpVariant, SparsePattern};

const USAGE: &str = "usage: sweep [--paper] [rows=N] [nnz=N] [seed=N] [jobs=N]";

fn run(cfg: &SystemConfig, pattern: &Arc<SparsePattern>) -> Report {
    let mut m = Machine::new(cfg);
    let w = Smvp::setup(&mut m, pattern.clone(), SmvpVariant::ScatterGather).expect("setup");
    w.run(&mut m, 1);
    m.report("sweep")
}

fn header(title: &str) {
    outln!("\n--- {title} ---");
    outln!(
        "{:<22}{:>14}{:>12}{:>14}",
        "setting",
        "cycles",
        "avg load",
        "desc buf hits"
    );
}

/// One fully rendered sweep-table line.
fn render_row(label: &str, r: &Report) -> String {
    format!(
        "{:<22}{:>14}{:>12.2}{:>14}",
        label,
        r.cycles,
        r.mem.avg_load_time(),
        r.desc.buffer_hits
    )
}

fn main() -> ExitCode {
    let args = Args::from_env(&["--paper", "rows=", "nnz=", "seed=", "jobs="], USAGE);
    let (rows, seed) = (args.get("rows", 14_000), args.get("seed", 0x5eed));
    let nnz = args.get("nnz", if args.paper() { 156 } else { 24 });
    let jobs = args.jobs();
    let pattern = Arc::new(SparsePattern::generate(rows, nnz, seed));

    outln!("================================================================");
    outln!(
        "Impulse design-choice sweeps — scatter/gather CG, n={rows}, nnz={}",
        pattern.nnz()
    );
    outln!("(controller prefetch on; each sweep varies one parameter)");
    outln!("================================================================");

    let base = SystemConfig::paint().with_prefetch(true, false);

    // The whole grid, as (section title, rows of (label, config)). Each
    // point is an independent simulation; the pool runs them all and the
    // printout below walks the grid in order.
    let mut sections: Vec<(&str, Vec<(String, SystemConfig)>)> = Vec::new();

    sections.push((
        "per-descriptor prefetch buffer (paper: 256 B)",
        [128u64, 256, 512, 1024]
            .iter()
            .map(|&bytes| {
                let mut cfg = base.clone();
                cfg.mc.desc_buffer_bytes = bytes;
                (format!("{bytes} B"), cfg)
            })
            .collect(),
    ));

    sections.push((
        "non-shadow prefetch SRAM (paper: 2 KB)",
        [512u64, 2048, 8192]
            .iter()
            .map(|&bytes| {
                let mut cfg = base.clone();
                cfg.mc.prefetch_sram_bytes = bytes;
                (format!("{bytes} B"), cfg)
            })
            .collect(),
    ));

    sections.push((
        "controller PgTbl TLB entries (ours: 64)",
        [8usize, 16, 64, 256]
            .iter()
            .map(|&entries| {
                let mut cfg = base.clone();
                cfg.mc.pgtbl.tlb_entries = entries;
                (format!("{entries} entries"), cfg)
            })
            .collect(),
    ));

    sections.push((
        "DRAM banks (ours: 16)",
        [4u64, 8, 16, 32]
            .iter()
            .map(|&banks| {
                let mut cfg = base.clone();
                cfg.dram.banks = banks;
                (format!("{banks} banks"), cfg)
            })
            .collect(),
    ));

    sections.push((
        "outstanding load misses (MSHRs; Paint's L1 was non-blocking)",
        [1usize, 2, 4, 8]
            .iter()
            .map(|&mshr| (format!("{mshr} outstanding"), base.clone().with_mshr(mshr)))
            .collect(),
    ));

    sections.push((
        "DRAM scheduling policy (paper's results: in-order)",
        SchedulePolicy::ALL
            .iter()
            .map(|&policy| {
                let mut cfg = base.clone();
                cfg.mc.sched = policy;
                (policy.name().to_string(), cfg)
            })
            .collect(),
    ));

    sections.push((
        "hybrid memory tier (none / flat partition / DRAM cache over SCM)",
        TierPolicy::ALL
            .iter()
            .map(|&policy| (policy.name().to_string(), base.clone().with_tier(policy)))
            .collect(),
    ));

    // The sweep grid and the tile-size points run as two pools; each
    // returns its results in submission order.
    let grid: Vec<_> = sections
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|(label, cfg)| {
            let (label, cfg, pattern) = (label.clone(), cfg.clone(), pattern.clone());
            move || render_row(&label, &run(&cfg, &pattern))
        })
        .collect();
    let mut lines = runner::run_ordered(grid, jobs).into_iter();
    for (title, rows) in &sections {
        header(title);
        for _ in rows {
            outln!("{}", lines.next().expect("one line per grid point"));
        }
    }

    // Section 4.2's forward-looking claim: "as caches (and therefore
    // tiles) grow larger, the cost of copying grows, whereas the cost of
    // tile remapping does not." Sweep the tile size and compare the
    // *overhead* each scheme pays on top of the compute-identical
    // conventional load stream.
    outln!(
        "
--- tile size vs copy/remap overhead (paper §4.2 claim) ---"
    );
    outln!(
        "{:<12}{:>16}{:>18}{:>18}",
        "tile",
        "conv (Mcyc)",
        "copy ovh (Mcyc)",
        "remap ovh (Mcyc)"
    );
    let tiles = [16u64, 32, 64];
    let points: Vec<_> = tiles
        .iter()
        .flat_map(|&tile| MmpVariant::ALL.map(|variant| (tile, variant)))
        .map(|(tile, variant)| {
            move || {
                let mut m = Machine::new(&SystemConfig::paint());
                let mut w = Mmp::setup(&mut m, MmpParams { n: 256, tile }, variant).expect("mmp");
                w.run(&mut m).expect("mmp run");
                m.report("t").cycles
            }
        })
        .collect();
    let tile_cycles = runner::run_ordered(points, jobs);
    for (&tile, cycles) in tiles.iter().zip(tile_cycles.chunks(MmpVariant::ALL.len())) {
        // Overhead = extra instructions + syscalls relative to the pure
        // kernel, measured as time above the (fast, conflict-free) remap
        // compute floor. Copy overhead grows with tile²; remap overhead
        // is flat per-tile.
        let floor = cycles[2].min(cycles[1]);
        outln!(
            "{:<12}{:>16.2}{:>18.2}{:>18.2}",
            format!("{tile}x{tile}"),
            cycles[0] as f64 / 1e6,
            (cycles[1].saturating_sub(floor)) as f64 / 1e6,
            (cycles[2].saturating_sub(floor)) as f64 / 1e6,
        );
    }
    outln!();
    ExitCode::SUCCESS
}

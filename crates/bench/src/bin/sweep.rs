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
//! Overrides: `rows=`, `nnz=`, `seed=`, `jobs=` (worker threads; default
//! all hardware threads, `jobs=1` for the serial path), plus the
//! crash-recovery knobs `journal=`, `watchdog_ms=`, `max_retries=` (the
//! older `timeout_ms=`/`attempts=` spellings still work), and `--resume`.
//! A malformed shared argument exits 2 with a usage message.
//!
//! Every grid point builds its own `Machine`, so the whole grid fans
//! across a job pool; rows are gathered and printed in grid order, making
//! the output identical at any `jobs=` value. Finished points are
//! journaled (fsync'd) as they complete: each sweep row stores its fully
//! rendered table line, each tile-sweep point its raw cycle count (the
//! tile lines need cross-point math), so `--resume` after a crash reruns
//! only the missing points and prints identical tables.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use impulse_bench::journal::{self, RunArtifacts};
use impulse_bench::runner::{CommonArgs, SharedJob};
use impulse_bench::Args;
use impulse_dram::SchedulePolicy;
use impulse_obs::Json;
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_types::TierPolicy;
use impulse_workloads::{Mmp, MmpParams, MmpVariant, Smvp, SmvpVariant, SparsePattern};

const USAGE: &str = "usage: sweep [--paper] [rows=N] [nnz=N] [seed=N] [jobs=N] \
[journal=results/sweep-journal.jsonl] [watchdog_ms=N] [max_retries=K] [--resume]";

fn run(cfg: &SystemConfig, pattern: &Arc<SparsePattern>) -> Report {
    let mut m = Machine::new(cfg);
    let w = Smvp::setup(&mut m, pattern.clone(), SmvpVariant::ScatterGather).expect("setup");
    w.run(&mut m, 1);
    m.report("sweep")
}

fn header(title: &str) {
    println!("\n--- {title} ---");
    println!(
        "{:<22}{:>14}{:>12}{:>14}",
        "setting", "cycles", "avg load", "desc buf hits"
    );
}

/// One fully rendered sweep-table line — exactly what the journal stores,
/// so resumed output is byte-identical (no float re-rounding).
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
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let common = match CommonArgs::parse(&raw, 0x5eed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = Args::parse();
    let rows = args.get("rows", 14_000);
    let nnz = args.get("nnz", if args.paper { 156 } else { 24 });
    let (seed, jobs, opts) = (common.seed, common.jobs, common.supervise);
    let journal_path = args
        .journal
        .clone()
        .unwrap_or_else(|| "results/sweep-journal.jsonl".to_string());
    let pattern = Arc::new(SparsePattern::generate(rows, nnz, seed));

    println!("================================================================");
    println!(
        "Impulse design-choice sweeps — scatter/gather CG, n={rows}, nnz={}",
        pattern.nnz()
    );
    println!("(controller prefetch on; each sweep varies one parameter)");
    println!("================================================================");

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

    // One catalog for the whole binary: the sweep grid followed by the
    // tile-size points, each under a stable journal id.
    let mut catalog: Vec<(String, SharedJob<RunArtifacts>)> = Vec::new();
    for (si, (_, rows)) in sections.iter().enumerate() {
        for (label, cfg) in rows {
            let id = format!("sweep/{si}/{label}");
            let cfg = cfg.clone();
            let pattern = pattern.clone();
            let label = label.clone();
            catalog.push((
                id,
                Arc::new(move || {
                    let r = run(&cfg, &pattern);
                    RunArtifacts {
                        csv: render_row(&label, &r),
                        json: Json::obj(),
                    }
                }),
            ));
        }
    }
    let tiles = [16u64, 32, 64];
    for &tile in &tiles {
        for &variant in MmpVariant::ALL.iter() {
            let id = format!("mmp/{tile}/{}", variant.name());
            catalog.push((
                id,
                Arc::new(move || {
                    let n = 256;
                    let mut m = Machine::new(&SystemConfig::paint());
                    let mut w = Mmp::setup(&mut m, MmpParams { n, tile }, variant).expect("mmp");
                    w.run(&mut m).expect("mmp run");
                    let mut j = Json::obj();
                    j.set("cycles", Json::UInt(m.report("t").cycles));
                    RunArtifacts {
                        csv: String::new(),
                        json: j,
                    }
                }),
            ));
        }
    }
    let grid_points: usize = sections.iter().map(|(_, rows)| rows.len()).sum();

    let results = match journal::run_resumable(
        catalog,
        seed,
        jobs,
        &opts,
        Path::new(&journal_path),
        args.resume,
        &|a: &RunArtifacts| a.clone(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: journal I/O failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut outcomes = results.iter();

    for (title, rows) in &sections {
        header(title);
        for (label, _) in rows {
            let (id, outcome) = outcomes.next().expect("one outcome per grid point");
            match outcome {
                Ok(a) => println!("{}", a.csv),
                Err(e) => {
                    println!("{label:<22}  [FAILED]");
                    failures.push((id.clone(), e.clone()));
                }
            }
        }
    }

    // Section 4.2's forward-looking claim: "as caches (and therefore
    // tiles) grow larger, the cost of copying grows, whereas the cost of
    // tile remapping does not." Sweep the tile size and compare the
    // *overhead* each scheme pays on top of the compute-identical
    // conventional load stream.
    println!(
        "
--- tile size vs copy/remap overhead (paper §4.2 claim) ---"
    );
    println!(
        "{:<12}{:>16}{:>18}{:>18}",
        "tile", "conv (Mcyc)", "copy ovh (Mcyc)", "remap ovh (Mcyc)"
    );
    let mmp_outcomes = &results[grid_points..];
    for (t, &tile) in tiles.iter().enumerate() {
        let per_tile = &mmp_outcomes[t * MmpVariant::ALL.len()..(t + 1) * MmpVariant::ALL.len()];
        let cycles: Option<Vec<u64>> = per_tile
            .iter()
            .map(|(_, o)| {
                o.as_ref()
                    .ok()
                    .and_then(|a| a.json.get("cycles"))
                    .and_then(Json::as_u64)
            })
            .collect();
        for (id, o) in per_tile {
            if let Err(e) = o {
                failures.push((id.clone(), e.clone()));
            }
        }
        let Some(cycles) = cycles else {
            println!("{:<12}  [FAILED]", format!("{tile}x{tile}"));
            continue;
        };
        // Overhead = extra instructions + syscalls relative to the pure
        // kernel, measured as time above the (fast, conflict-free) remap
        // compute floor. Copy overhead grows with tile²; remap overhead
        // is flat per-tile.
        let floor = cycles[2].min(cycles[1]);
        println!(
            "{:<12}{:>16.2}{:>18.2}{:>18.2}",
            format!("{tile}x{tile}"),
            cycles[0] as f64 / 1e6,
            (cycles[1].saturating_sub(floor)) as f64 / 1e6,
            (cycles[2].saturating_sub(floor)) as f64 / 1e6,
        );
    }
    println!();
    impulse_bench::print_artifacts(&[&journal_path]);

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} grid point(s) failed:", failures.len());
        for (id, e) in &failures {
            eprintln!("  {id}: {e}");
        }
        eprintln!("(recorded in {journal_path}; rerun with --resume)");
        ExitCode::FAILURE
    }
}

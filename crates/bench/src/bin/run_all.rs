//! Runs every experiment at quick scale and writes one CSV of headline
//! metrics plus a full JSON report — the one-command regeneration entry
//! point (`results.csv` and `results/run_all.json` in the current
//! directory, or `out=<path>` / `json=<path>`).
//!
//! Experiments are independent (each builds its own `Machine`), so they
//! fan across `jobs=<N>` worker threads (default: every hardware
//! thread; `jobs=1` forces the old serial path). Results are gathered in
//! submission order, so the CSV and JSON outputs are byte-identical at
//! any job count — only the wall clock changes.
//!
//! An experiment that panics fails the run: the binary exits nonzero
//! and writes neither file. Every report's invariants are asserted
//! before anything is written.
//!
//! The JSON report (schema `impulse-report-v1` per experiment) carries
//! what the CSV cannot: per-level latency histograms with p50/p90/p99
//! and the demand-cycle attribution table whose stage totals sum to each
//! epoch's demand-access cycles.
//!
//! `tier=flat|cache` re-organises every experiment's memory system
//! under the given hybrid DRAM/SCM tier policy before it runs — the
//! grid's tier axis. The default catalog already carries dedicated
//! `tier/...` cells (the same workload across all three policies), so
//! plain runs chart the tier cost next to the paper tables.
//!
//! For the paper-layout tables with reference values, run the individual
//! binaries (`table1`, `table2`, `fig1`, ...). For flight-recorder
//! summaries and heatmaps of this same catalog, run `trace record`.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use impulse_bench::experiments::{catalog_entries, csv_document, json_document, DEFAULT_SEED};
use impulse_bench::outln;
use impulse_bench::runner::{self, Args};
use impulse_sim::Machine;

const USAGE: &str = "usage: run_all [out=results.csv] [json=results/run_all.json] [jobs=N] \
[seed=N] [tier=none|flat|cache]";

fn main() -> ExitCode {
    let args = Args::from_env(&["out=", "json=", "jobs=", "seed=", "tier="], USAGE);
    let (jobs, seed, tier) = (args.jobs(), args.get("seed", DEFAULT_SEED), args.tier());
    let path = args.path("out", "results.csv");
    let json_path = args.path("json", "results/run_all.json");
    // Both output directories exist before the grid runs, so a bad path
    // fails the run up front and leaves neither file behind.
    for file in [path, json_path] {
        let Some(dir) = std::path::Path::new(file).parent() else {
            continue;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: create directory for {file}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // `tier=` re-organises every entry's memory system before it runs —
    // the whole catalog under one hybrid-tier policy (the grid's tier
    // axis; `tier=none` runs the catalog exactly as defined, including
    // its own `tier/...` cells).
    let catalog: Vec<_> = catalog_entries(seed)
        .into_iter()
        .map(|entry| {
            let entry = entry.with_tier(tier);
            move || {
                let mut m = Machine::new(entry.config());
                entry.drive(&mut m);
                m.report(entry.name().to_string())
            }
        })
        .collect();

    let t_total = Instant::now();
    let reports = runner::run_ordered(catalog, jobs);
    let total_wall = t_total.elapsed();

    // Both documents are built (and every report checked) before either
    // file is written.
    let csv = csv_document(&reports);
    let doc = json_document(seed, &reports);
    std::fs::write(path, csv).expect("write results file");
    let mut jf = std::fs::File::create(json_path).expect("create JSON report");
    writeln!(jf, "{doc:#}").expect("write JSON report");

    outln!(
        "wrote {} experiment rows to {path} and full reports to {json_path} \
         ({jobs} jobs, {:.2}s wall)",
        reports.len(),
        total_wall.as_secs_f64(),
    );
    impulse_bench::print_artifacts(&[path, json_path]);
    ExitCode::SUCCESS
}

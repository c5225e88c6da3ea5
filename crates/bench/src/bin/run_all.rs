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
//! The run is **crash-safe and self-healing**: every completed
//! experiment is appended (and fsync'd) to `results/journal.jsonl`
//! (`journal=<path>`) as it finishes, a panicking experiment is isolated
//! to a typed `Err` record while the rest of the grid completes, and
//! `watchdog_ms=<N>` arms a per-attempt watchdog with `max_retries=<K>`
//! retries before quarantine (the older `timeout_ms=`/`attempts=`
//! spellings still work). After a crash or `SIGKILL`, rerunning with
//! `--resume` replays the journal, reruns only what is missing or
//! failed, and emits byte-identical final CSV/JSON.
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
//! captures and heatmaps of this same catalog, run `trace record`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use impulse_bench::experiments::{
    catalog_entries, csv_from_outcomes, document_from_outcomes, report_artifacts, DEFAULT_SEED,
};
use impulse_bench::journal;
use impulse_bench::runner::{CommonArgs, SharedJob};
use impulse_sim::{Machine, Report};

const USAGE: &str = "usage: run_all [out=results.csv] [json=results/run_all.json] \
[journal=results/journal.jsonl] [jobs=N] [seed=N] [tier=none|flat|cache] \
[watchdog_ms=N] [max_retries=K] [--resume]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |prefix: &str, default: &str| -> String {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(String::from))
            .unwrap_or_else(|| default.to_string())
    };
    let common = match CommonArgs::parse(&args, DEFAULT_SEED) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let path = arg("out=", "results.csv");
    let json_path = arg("json=", "results/run_all.json");
    let journal_path = arg("journal=", "results/journal.jsonl");
    let resume = args.iter().any(|a| a == "--resume");

    let (jobs, seed, opts, tier) = (common.jobs, common.seed, common.supervise, common.tier);

    // `tier=` re-organises every entry's memory system before it runs —
    // the whole catalog under one hybrid-tier policy (the grid's tier
    // axis; `tier=none` runs the catalog exactly as defined, including
    // its own `tier/...` cells).
    let catalog: Vec<(String, SharedJob<Report>)> = catalog_entries(seed)
        .into_iter()
        .map(|entry| {
            let id = entry.name().to_string();
            let entry = Arc::new(entry.with_tier(tier));
            let job: SharedJob<Report> = Arc::new(move || {
                let mut m = Machine::new(entry.config());
                entry.drive(&mut m);
                m.report(entry.name().to_string())
            });
            (id, job)
        })
        .collect();

    let t_total = Instant::now();
    let outcomes = match journal::run_resumable(
        catalog,
        seed,
        jobs,
        &opts,
        Path::new(&journal_path),
        resume,
        &report_artifacts,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: journal I/O failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total_wall = t_total.elapsed();

    let ok_count = outcomes.iter().filter(|(_, o)| o.is_ok()).count();
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(csv_from_outcomes(&outcomes).as_bytes())
        .expect("write CSV");

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results directory");
        }
    }
    let doc = document_from_outcomes(seed, &outcomes);
    let mut jf = std::fs::File::create(&json_path).expect("create JSON report");
    writeln!(jf, "{doc:#}").expect("write JSON report");

    println!(
        "wrote {ok_count} experiment rows to {path} and full reports to {json_path} \
         ({jobs} jobs, {:.2}s wall)",
        total_wall.as_secs_f64(),
    );
    impulse_bench::print_artifacts(&[&path, &json_path, &journal_path]);

    let failures: Vec<&(String, Result<journal::RunArtifacts, String>)> =
        outcomes.iter().filter(|(_, o)| o.is_err()).collect();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (id, o) in &failures {
            if let Err(e) = o {
                eprintln!("FAILED: {id}: {e}");
            }
        }
        eprintln!(
            "{} of {} experiments failed (recorded in {journal_path}; rerun with --resume)",
            failures.len(),
            outcomes.len()
        );
        ExitCode::FAILURE
    }
}

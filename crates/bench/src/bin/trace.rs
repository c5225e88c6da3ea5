//! Flight-recorder summary and heatmaps over the `run_all` catalog.
//!
//! `trace record` reruns the full 28-experiment catalog with the MC
//! flight recorder enabled and writes two documents: a summary of each
//! experiment's ring (events held, recorded, overwritten) and the
//! combined heatmap export (each experiment's hottest lines ranked by
//! exact count from its ring). The grid fans over `jobs=N` workers like
//! `run_all`; neither document contains a wall-clock time or a path, so
//! both are byte-identical at any job count. The seed stamped in
//! `summary.json` identifies the run.
//!
//! Usage:
//!
//! ```text
//! trace record [dir=results/trace] [seed=N] [jobs=N] [flight=N] [top=N]
//! ```

use std::path::Path;
use std::process::ExitCode;

use impulse_bench::experiments::{run_all_experiments_obs, ObsSpec, DEFAULT_SEED};
use impulse_bench::outln;
use impulse_bench::runner::{self, usage_exit, Args};
use impulse_obs::Json;

const USAGE: &str = "usage: trace record [dir=results/trace] [seed=N] [jobs=N] [flight=N] [top=N]";

/// Summary document schema identifier.
const SUMMARY_SCHEMA: &str = "impulse-trace-summary-v3";
/// Combined heatmap document schema identifier.
const HEATMAPS_SCHEMA: &str = "impulse-trace-heatmaps-v1";

fn cmd_record(args: &[String]) -> ExitCode {
    let known = ["dir=", "seed=", "jobs=", "flight=", "top="];
    let args = Args::parse(args, &known).unwrap_or_else(|e| usage_exit(e, USAGE));
    let dir = args.path("dir", "results/trace");
    let (jobs, seed) = (args.jobs(), args.get("seed", DEFAULT_SEED));
    let (flight_cap, top_k) = (args.get("flight", 1 << 20), args.get("top", 32));
    if flight_cap == 0 {
        usage_exit("flight=0 records nothing; pick a ring capacity", USAGE);
    }
    let obs = ObsSpec::recording(flight_cap as usize, top_k as usize);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: create trace directory {dir}: {e}");
        return ExitCode::FAILURE;
    }

    // Each job hands back its summary entry and heatmap for the two
    // documents; its ring is dropped with the job.
    let catalog: Vec<_> = run_all_experiments_obs(seed, obs)
        .into_iter()
        .map(|t| {
            move || {
                let out = t.run();
                let name = t.name();
                let ring = out.flight.expect("recording is on");
                let mut entry = Json::obj();
                entry.set("name", Json::Str(name.to_string()));
                entry.set("events", Json::UInt(ring.len() as u64));
                entry.set("recorded", Json::UInt(ring.recorded()));
                entry.set("overwritten", Json::UInt(ring.overwritten()));
                let mut heat = Json::obj();
                heat.set("name", Json::Str(name.to_string()));
                heat.set("heatmap", out.heatmap);
                (entry, heat)
            }
        })
        .collect();
    let (entries, heatmaps): (Vec<Json>, Vec<Json>) =
        runner::run_ordered(catalog, jobs).into_iter().unzip();

    // Assemble the two documents in catalog order.
    let experiments = entries.len();
    let mut summary = Json::obj();
    summary.set("schema", Json::Str(SUMMARY_SCHEMA.into()));
    summary.set("seed", Json::UInt(seed));
    summary.set("flight_capacity", Json::UInt(flight_cap));
    summary.set("top_k", Json::UInt(top_k));
    summary.set("captures", Json::Arr(entries));
    // Always empty: a failing experiment fails the run. The key stays so
    // the document's layout is unchanged for its readers.
    summary.set("failed", Json::Arr(Vec::new()));
    let summary_path = Path::new(dir).join("summary.json");
    std::fs::write(&summary_path, format!("{summary:#}\n")).expect("write summary");

    let mut heat_doc = Json::obj();
    heat_doc.set("schema", Json::Str(HEATMAPS_SCHEMA.into()));
    heat_doc.set("seed", Json::UInt(seed));
    heat_doc.set("experiments", Json::Arr(heatmaps));
    let heatmap_path = Path::new(dir).join("heatmap.json");
    std::fs::write(&heatmap_path, format!("{heat_doc:#}\n")).expect("write heatmap");

    outln!(
        "recorded {experiments} experiments to {dir} (seed={seed:#x}, flight={flight_cap}, {jobs} jobs)"
    );
    impulse_bench::print_artifacts(&[
        &summary_path.display().to_string(),
        &heatmap_path.display().to_string(),
    ]);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

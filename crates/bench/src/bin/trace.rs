//! Flight-recorder capture tooling over the `run_all` catalog.
//!
//! `trace record` reruns the full 28-experiment catalog with the MC
//! flight recorder enabled, writes one `impulse-trace-v1` capture per
//! experiment (`<experiment>.trace`) plus a summary document and combined
//! heatmap export (each experiment's hottest lines ranked by exact count
//! from its ring, as `trace top` ranks them), and
//! round-trip-verifies every capture (decode → re-encode must be
//! bit-exact) before it is accepted. The grid fans over `jobs=N`
//! workers like `run_all`; none of the written artifacts contain
//! wall-clock times, so they are byte-identical at any job count. The
//! run's `dir=` and the seed stamped in `summary.json` identify it.
//!
//! The other subcommands work on capture files offline:
//!
//! * `trace dump <file>` — header plus a decoded event table
//! * `trace diff <a> <b>` — first divergence between two captures
//! * `trace top <file>` — exact per-line access counts, hottest first
//!
//! Usage:
//!
//! ```text
//! trace record [dir=results/trace] [seed=N] [jobs=N] [flight=N] [top=N]
//! trace dump <capture.trace> [limit=N]
//! trace diff <a.trace> <b.trace>
//! trace top <capture.trace> [k=N]
//! ```

use std::path::Path;
use std::process::ExitCode;

use impulse_bench::experiments::{run_all_experiments_obs, ObsSpec, DEFAULT_SEED};
use impulse_bench::outln;
use impulse_bench::runner::{self, usage_exit, Args};
use impulse_core::flight::{self, Capture};
use impulse_obs::Json;

const USAGE: &str = concat!(
    "usage: trace record [dir=results/trace] [seed=N] [jobs=N] [flight=N] [top=N]\n",
    "       trace dump <capture.trace> [limit=N]\n",
    "       trace diff <a.trace> <b.trace>\n",
    "       trace top <capture.trace> [k=N]",
);

/// Summary document schema identifier.
const SUMMARY_SCHEMA: &str = "impulse-trace-summary-v2";
/// Combined heatmap document schema identifier.
const HEATMAPS_SCHEMA: &str = "impulse-trace-heatmaps-v1";

/// Catalog names contain `/`, spaces, and `=`; flatten them to safe
/// single-segment file stems (stable, collision-free for the catalog).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn load_capture(path: &str) -> Result<Capture, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    flight::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Parses `<capture.trace> [key=N]` for `cmd` into the capture path and
/// the typed value of `key` (`default` when absent). Any other argument
/// is a usage error (exit 2), reported before the capture is read.
fn path_and_count<'a>(
    cmd: &str,
    args: &'a [String],
    key: &'static str,
    default: u64,
) -> (&'a str, usize) {
    let Some((path, rest)) = args.split_first().filter(|(p, _)| !p.contains('=')) else {
        usage_exit(format!("{cmd} needs a capture file"), USAGE);
    };
    let known = format!("{key}=");
    let n = Args::parse(rest, &[known.as_str()])
        .map(|a| a.get(key, default))
        .unwrap_or_else(|e| usage_exit(e, USAGE));
    (path, n as usize)
}

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

    // Each job verifies and writes its own capture, then hands back its
    // summary entry and heatmap for the two documents.
    let catalog: Vec<_> = run_all_experiments_obs(seed, obs)
        .into_iter()
        .map(|t| {
            let file = Path::new(dir).join(format!("{}.trace", sanitize(t.name())));
            move || {
                let out = t.run();
                let name = t.name();
                let cap = flight::decode(&out.capture).expect("own capture decodes");
                assert_eq!(
                    cap.encode(),
                    out.capture,
                    "{name}: capture round-trip must be bit-exact"
                );
                std::fs::write(&file, &out.capture).expect("write capture");
                let mut entry = Json::obj();
                entry.set("name", Json::Str(name.to_string()));
                entry.set("file", Json::Str(file.display().to_string()));
                entry.set("bytes", Json::UInt(out.capture.len() as u64));
                entry.set("events", Json::UInt(cap.events.len() as u64));
                entry.set("recorded", Json::UInt(cap.recorded));
                entry.set("overwritten", Json::UInt(cap.overwritten));
                entry.set("digest", Json::UInt(flight::digest(&out.capture)));
                let mut heat = Json::obj();
                heat.set("name", Json::Str(name.to_string()));
                heat.set("heatmap", out.heatmap);
                (entry, heat)
            }
        })
        .collect();
    let (entries, heatmaps): (Vec<Json>, Vec<Json>) =
        runner::run_ordered(catalog, jobs).into_iter().unzip();

    // Assemble the two documents in catalog order. Neither contains a
    // wall-clock time, so bytes match at any jobs= value.
    let artifact_paths: Vec<String> = entries
        .iter()
        .filter_map(|e| e.get("file").and_then(Json::as_str).map(String::from))
        .collect();
    let captures = entries.len();
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
        "recorded {captures} captures to {dir} (seed={seed:#x}, flight={flight_cap}, {jobs} jobs)"
    );
    let mut all: Vec<&str> = artifact_paths.iter().map(String::as_str).collect();
    let summary_s = summary_path.display().to_string();
    let heatmap_s = heatmap_path.display().to_string();
    all.push(&summary_s);
    all.push(&heatmap_s);
    impulse_bench::print_artifacts(&all);
    ExitCode::SUCCESS
}

fn cmd_dump(args: &[String]) -> ExitCode {
    let (path, limit) = path_and_count("dump", args, "limit", 32);
    let cap = match load_capture(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = std::fs::read(path).expect("file read once already");
    outln!("capture {path}");
    outln!(
        "  geometry: line={} B, banks={}, row={} B",
        cap.geom.line_bytes,
        cap.geom.banks,
        cap.geom.row_bytes
    );
    outln!(
        "  events: {} held, {} recorded, {} overwritten",
        cap.events.len(),
        cap.recorded,
        cap.overwritten
    );
    outln!("  digest: {:#018x}", flight::digest(&bytes));
    outln!(
        "\n{:>12}  {:>14}  {:>5}  {:>8}  {:<16}  {:>4}",
        "cycle",
        "line",
        "bank",
        "row",
        "class",
        "desc"
    );
    for e in cap.events.iter().take(limit) {
        outln!(
            "{:>12}  {:>#14x}  {:>5}  {:>8}  {:<16}  {:>4}",
            e.cycle,
            e.line,
            e.bank,
            e.row,
            e.class.name(),
            e.desc.map_or("-".to_string(), |d| d.to_string()),
        );
    }
    if cap.events.len() > limit {
        outln!("... {} more (limit={limit})", cap.events.len() - limit);
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        usage_exit("diff needs exactly two capture files", USAGE);
    };
    let (a, b) = match (load_capture(a_path), load_capture(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut diffs = Vec::new();
    if a.geom != b.geom {
        diffs.push(format!("geometry: {:?} vs {:?}", a.geom, b.geom));
    }
    if (a.recorded, a.overwritten) != (b.recorded, b.overwritten) {
        diffs.push(format!(
            "counters: recorded {} vs {}, overwritten {} vs {}",
            a.recorded, b.recorded, a.overwritten, b.overwritten
        ));
    }
    if let Some(i) = (0..a.events.len().min(b.events.len())).find(|&i| a.events[i] != b.events[i]) {
        diffs.push(format!(
            "first divergent event at index {i}: {:?} vs {:?}",
            a.events[i], b.events[i]
        ));
    } else if a.events.len() != b.events.len() {
        diffs.push(format!(
            "event counts: {} vs {} (shared prefix identical)",
            a.events.len(),
            b.events.len()
        ));
    }
    if diffs.is_empty() {
        outln!(
            "identical: {} events, digest {:#018x}",
            a.events.len(),
            flight::digest(&a.encode())
        );
        return ExitCode::SUCCESS;
    }
    outln!("captures differ:");
    for d in &diffs {
        outln!("  {d}");
    }
    ExitCode::FAILURE
}

fn cmd_top(args: &[String]) -> ExitCode {
    let (path, k) = path_and_count("top", args, "k", 16);
    let cap = match load_capture(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let top = flight::exact_top(&cap.events);
    outln!(
        "top {} of {} unique lines ({} events held)",
        k.min(top.len()),
        top.len(),
        cap.events.len()
    );
    outln!(
        "{:>14}  {:>8}  {:>5}  {:>8}",
        "line",
        "count",
        "bank",
        "row"
    );
    for &(line, count) in top.iter().take(k) {
        outln!(
            "{:>#14x}  {:>8}  {:>5}  {:>8}",
            line,
            count,
            cap.geom.bank_of(line),
            cap.geom.row_of(line)
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

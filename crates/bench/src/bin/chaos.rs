//! Fault-suite entry point: runs the scenario table of
//! [`impulse_bench::chaos`] (the workload catalog under generated fault
//! schedules, and the hybrid-tier degradation scenarios), asserts the
//! robustness invariants, and writes `chaos.json` (schema
//! `impulse-chaos-v2`) and `chaos_tier.json` (schema
//! `impulse-tier-chaos-v1`) into `dir=`.
//!
//! Usage: `chaos [seed=<N>] [jobs=<N>] [dir=<path>]`
//!
//! Cases fan across `jobs=<N>` worker threads; results are gathered in
//! submission order and every fault is drawn from the seed, so both
//! documents are byte-identical for a fixed seed at any worker count.
//! `dir=` is created before any case runs, so a bad path fails the run
//! (exit 1) and writes nothing. Exits nonzero if any invariant was
//! violated, after writing both documents; a case that panics fails the
//! run before either document is written.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use impulse_bench::runner::Args;
use impulse_bench::{chaos, out, outln};

const USAGE: &str = "usage: chaos [seed=N] [jobs=N] [dir=results]";

fn main() -> ExitCode {
    let args = Args::from_env(&["seed=", "jobs=", "dir="], USAGE);
    let dir = args.path("dir", "results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: create directory {dir}: {e}");
        return ExitCode::FAILURE;
    }
    let seed = args.get("seed", 1999);

    let mut paths = Vec::new();
    let mut violations = Vec::new();
    for run in chaos::run(seed, args.jobs()) {
        let columns = run.suite.columns;
        out!("\n{:<26}", "case");
        for (header, _) in columns {
            out!(" {header:>10}");
        }
        outln!();
        for (name, o) in run.names.iter().zip(&run.outcomes) {
            out!("{name:<26}");
            for (_, path) in columns {
                out!(" {:>10}", o.count(path));
            }
            outln!();
        }

        let doc = run.suite.document(seed, &run.outcomes);
        let path = Path::new(dir).join(run.suite.file).display().to_string();
        let mut f = std::fs::File::create(&path).expect("create suite document");
        writeln!(f, "{doc:#}").expect("write suite document");
        outln!("wrote {path} (seed={seed}, {} cases)", run.outcomes.len());
        let listed = doc.get("violations").and_then(|v| v.items()).unwrap_or(&[]);
        violations.extend(listed.iter().filter_map(|v| v.as_str()).map(String::from));
        paths.push(path);
    }
    impulse_bench::print_artifacts(&paths.iter().map(String::as_str).collect::<Vec<_>>());

    if violations.is_empty() {
        outln!("all invariants held");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} invariant violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

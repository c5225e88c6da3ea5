//! Capability contention suite entry point: runs the multi-process
//! grant/share/revoke scenarios, asserts the capability invariants, and
//! writes `results/chaos_caps.json` (schema `impulse-caps-chaos-v1`).
//!
//! Usage: `chaos_caps [seed=<N>] [jobs=<N>] [out=<path>]`
//!
//! Cases fan across `jobs=<N>` worker threads; results are gathered in
//! submission order and every scenario draws only from the seed, so the
//! JSON output is byte-identical for a fixed seed at any worker count.
//! Exits nonzero if any invariant was violated; a case that panics
//! fails the run before anything is written.

use std::io::Write;
use std::process::ExitCode;

use impulse_bench::caps_chaos::{caps_chaos_document, caps_chaos_jobs};
use impulse_bench::runner::{self, usage_exit, CommonArgs};

const USAGE: &str = "usage: chaos_caps [seed=N] [jobs=N] [out=results/chaos_caps.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |prefix: &str, default: &str| -> String {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(String::from))
            .unwrap_or_else(|| default.to_string())
    };
    let path = arg("out=", "results/chaos_caps.json");
    let CommonArgs { jobs, seed, .. } = CommonArgs::parse(&args, 1999, &["seed=", "jobs=", "out="])
        .unwrap_or_else(|e| usage_exit(e, USAGE));
    let outcomes = runner::run_ordered(caps_chaos_jobs(seed), jobs);

    println!(
        "{:<20} {:>10} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "scenario", "cycles", "grants", "revokes", "stale", "typed", "corrupt"
    );
    for o in &outcomes {
        println!(
            "{:<20} {:>10} {:>8} {:>8} {:>9} {:>8} {:>8}",
            o.scenario,
            o.cycles,
            o.grants,
            o.revocations,
            o.stale_denials,
            o.typed_faults,
            o.caps.corruptions
        );
    }

    let doc = caps_chaos_document(seed, &outcomes);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut f = std::fs::File::create(&path).expect("create chaos_caps.json");
    writeln!(f, "{doc:#}").expect("write chaos_caps.json");
    println!("wrote {path} (seed={seed}, {} cases)", outcomes.len());
    impulse_bench::print_artifacts(&[&path]);

    let violations: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.violations.iter().cloned())
        .collect();

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("invariant violated: {v}");
        }
        ExitCode::FAILURE
    }
}

//! Chaos/soak harness entry point: runs the workload catalog under
//! generated fault schedules, asserts the robustness invariants, and
//! writes `results/chaos.json` (schema `impulse-chaos-v1`).
//!
//! Usage: `chaos [seed=<N>] [jobs=<N>] [out=<path>]`
//!
//! Cases fan across `jobs=<N>` worker threads; results are gathered in
//! submission order and every fault is drawn from a seeded per-site
//! stream, so the JSON output is byte-identical for a fixed seed at any
//! worker count. Exits nonzero if any invariant was violated; a case
//! that panics fails the run before anything is written.

use std::io::Write;
use std::process::ExitCode;

use impulse_bench::chaos::{chaos_document, chaos_jobs, cross_case_violations};
use impulse_bench::outln;
use impulse_bench::runner::{self, usage_exit, CommonArgs};

const USAGE: &str = "usage: chaos [seed=N] [jobs=N] [out=results/chaos.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |prefix: &str, default: &str| -> String {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(String::from))
            .unwrap_or_else(|| default.to_string())
    };
    let path = arg("out=", "results/chaos.json");
    let CommonArgs { jobs, seed, .. } = CommonArgs::parse(&args, 1999, &["seed=", "jobs=", "out="])
        .unwrap_or_else(|e| usage_exit(e, USAGE));
    let outcomes = runner::run_ordered(chaos_jobs(seed), jobs);

    outln!(
        "{:<14} {:<12} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "workload",
        "scenario",
        "cycles",
        "ecc.corr",
        "ecc.det",
        "bus.tmo",
        "pgtbl"
    );
    for o in &outcomes {
        outln!(
            "{:<14} {:<12} {:>12} {:>10} {:>9} {:>9} {:>9}",
            o.workload,
            o.scenario,
            o.cycles,
            o.ecc.corrected,
            o.ecc.detected_double,
            o.bus.timeouts,
            o.pgtbl.corruptions
        );
    }

    let doc = chaos_document(seed, &outcomes);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut f = std::fs::File::create(&path).expect("create chaos.json");
    writeln!(f, "{doc:#}").expect("write chaos.json");
    outln!("wrote {path} (seed={seed}, {} cases)", outcomes.len());
    impulse_bench::print_artifacts(&[&path]);

    let violations: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.violations.iter().cloned())
        .chain(cross_case_violations(&outcomes))
        .collect();

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

//! Hybrid-tier chaos suite entry point: runs the DRAM/SCM degradation
//! scenarios, asserts the graceful-degradation invariants, and writes
//! `results/chaos_tier.json` (schema `impulse-tier-chaos-v1`).
//!
//! Usage: `chaos_tier [seed=<N>] [jobs=<N>] [out=<path>]`
//!
//! Cases fan across `jobs=<N>` worker threads; results are gathered in
//! submission order and every scenario draws only from the seed, so the
//! JSON output is byte-identical for a fixed seed at any worker count.
//! Exits nonzero if any invariant was violated; a case that panics
//! fails the run before anything is written.

use std::io::Write;
use std::process::ExitCode;

use impulse_bench::outln;
use impulse_bench::runner::{self, usage_exit, CommonArgs};
use impulse_bench::tier_chaos::{tier_chaos_document, tier_chaos_jobs};

const USAGE: &str = "usage: chaos_tier [seed=N] [jobs=N] [out=results/chaos_tier.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |prefix: &str, default: &str| -> String {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(String::from))
            .unwrap_or_else(|| default.to_string())
    };
    let path = arg("out=", "results/chaos_tier.json");
    let CommonArgs { jobs, seed, .. } = CommonArgs::parse(&args, 1999, &["seed=", "jobs=", "out="])
        .unwrap_or_else(|e| usage_exit(e, USAGE));
    let outcomes = runner::run_ordered(tier_chaos_jobs(seed), jobs);

    outln!(
        "{:<26} {:>10} {:>8} {:>6} {:>8} {:>6} {:>8} {:>8}",
        "scenario",
        "cycles",
        "accesses",
        "typed",
        "retired",
        "kills",
        "tagcorr",
        "eccfix"
    );
    for o in &outcomes {
        outln!(
            "{:<26} {:>10} {:>8} {:>6} {:>8} {:>6} {:>8} {:>8}",
            o.scenario,
            o.cycles,
            o.accesses,
            o.typed_faults,
            o.scm.wear_retirements,
            o.fault.channel_kills,
            o.fault.tag_corruptions,
            o.ecc_corrected
        );
    }

    let doc = tier_chaos_document(seed, &outcomes);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut f = std::fs::File::create(&path).expect("create chaos_tier.json");
    writeln!(f, "{doc:#}").expect("write chaos_tier.json");
    outln!("wrote {path} (seed={seed}, {} cases)", outcomes.len());
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

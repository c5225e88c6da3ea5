//! The superpage experiment (Section 6, recapping Swanson et al.,
//! ISCA '98): Impulse's direct remapping welds non-contiguous physical
//! pages into contiguous shadow superpages, cutting TLB misses. The
//! original paper reported 5–20% improvements on SPECint95 workloads.
//!
//! Overrides: `regions=`, `pages=`, `rounds=`.

use impulse_bench::{outln, runner::Args};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{TlbStress, TlbVariant};

fn run(regions: u64, pages: u64, rounds: u64, variant: TlbVariant) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let w = TlbStress::setup(&mut m, regions, pages, variant).expect("setup");
    m.reset_stats();
    w.sweep(&mut m, rounds);
    m.report(variant.name())
}

/// Base pages + the *online* promotion policy: the OS notices the TLB
/// thrash and rebuilds the regions as superpages mid-run ("dynamically
/// build superpages", Section 6).
fn run_auto(regions: u64, pages: u64, rounds: u64, threshold: u64) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let w = TlbStress::setup(&mut m, regions, pages, TlbVariant::BasePages).expect("setup");
    m.enable_auto_promotion(threshold);
    m.reset_stats();
    w.sweep(&mut m, rounds);
    m.report("online promotion")
}

const USAGE: &str = "usage: superpage [--paper] [regions=N] [pages=N] [rounds=N]";

fn main() {
    let known = ["--paper", "regions=", "pages=", "rounds="];
    let args = Args::from_env(&known, USAGE);
    let regions = args.get("regions", 8);
    let pages = args.get("pages", if args.paper() { 256 } else { 64 });
    let rounds = args.get("rounds", 64);

    let base = run(regions, pages, rounds, TlbVariant::BasePages);
    let sp = run(regions, pages, rounds, TlbVariant::Superpages);
    let auto = run_auto(regions, pages, rounds, 32);

    outln!("\n================================================================");
    outln!("Superpages via shadow remapping — {regions} regions × {pages} pages, {rounds} sweeps");
    outln!(
        "(working set {} pages vs. a 120-entry TLB)",
        regions * pages
    );
    outln!("================================================================");
    outln!(
        "{:<26}{:>16}{:>20}{:>20}",
        "",
        "base pages",
        "impulse superpgs",
        "online promotion"
    );
    outln!(
        "{:<26}{:>16}{:>20}{:>20}",
        "cycles",
        base.cycles,
        sp.cycles,
        auto.cycles
    );
    outln!(
        "{:<26}{:>16}{:>20}{:>20}",
        "TLB miss penalties",
        base.mem.tlb_penalties,
        sp.mem.tlb_penalties,
        auto.mem.tlb_penalties
    );
    outln!(
        "{:<26}{:>15.1}%{:>19.1}%{:>19.1}%",
        "TLB hit ratio",
        100.0 * base.tlb.hit_ratio(),
        100.0 * sp.tlb.hit_ratio(),
        100.0 * auto.tlb.hit_ratio()
    );
    outln!(
        "\nspeedup: {:.2}x manual, {:.2}x online   (paper reports 5–20% on\n\
         SPECint95; this microbenchmark isolates the TLB effect, so the gain\n\
         is larger — and the online policy pays its one-time promotion cost\n\
         [flushes + page downloads] out of the same budget)",
        base.cycles as f64 / sp.cycles as f64,
        base.cycles as f64 / auto.cycles as f64
    );
}

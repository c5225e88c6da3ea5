//! Regenerates **Figure 1** of the paper, quantitatively: accessing the
//! diagonal of a dense matrix on a conventional memory system wastes bus
//! bandwidth and cache capacity (a whole line per element); Impulse
//! remaps the diagonal into dense cache lines.
//!
//! Prints cycles, bus traffic, useful-byte fraction, and hit ratios for
//! both systems. Overrides: `n=`, `passes=`.

use impulse_bench::{outln, runner::Args};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{Diagonal, DiagonalVariant};

fn run(n: u64, passes: u64, variant: DiagonalVariant) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let d = Diagonal::setup(&mut m, n, variant).expect("setup");
    // Measure the traversal itself (setup includes matrix allocation and,
    // for Impulse, one remap system call — reported separately).
    let setup_cycles = m.now();
    m.reset_stats();
    d.run(&mut m, passes);
    let mut r = m.report(variant.name());
    r.syscall_cycles += setup_cycles; // carry setup for the note below
    r
}

const USAGE: &str = "usage: fig1 [--paper] [n=N] [passes=N]";

fn main() {
    let known = ["--paper", "n=", "passes="];
    let args = Args::from_env(&known, USAGE);
    let n = args.get("n", if args.paper() { 4096 } else { 2048 });
    let passes = args.get("passes", 4);

    let conv = run(n, passes, DiagonalVariant::Conventional);
    let imp = run(n, passes, DiagonalVariant::Remapped);
    // Unique useful data: the diagonal itself, fetched at least once.
    let useful = n * 8;

    outln!("\n================================================================");
    outln!("Figure 1 — diagonal of a dense {n}×{n} matrix, {passes} pass(es)");
    outln!("================================================================");
    outln!("{:<30}{:>16}{:>16}", "", "conventional", "impulse remap");
    outln!("{:<30}{:>16}{:>16}", "cycles", conv.cycles, imp.cycles);
    outln!(
        "{:<30}{:>16}{:>16}",
        "bus traffic (bytes)",
        conv.bus.bytes,
        imp.bus.bytes
    );
    outln!(
        "{:<30}{:>15.1}%{:>15.1}%",
        "useful bus bytes",
        (100.0 * useful as f64 / conv.bus.bytes.max(1) as f64).min(100.0),
        (100.0 * useful as f64 / imp.bus.bytes.max(1) as f64).min(100.0)
    );
    outln!(
        "{:<30}{:>15.1}%{:>15.1}%",
        "L1 hit ratio",
        100.0 * conv.mem.l1_ratio(),
        100.0 * imp.mem.l1_ratio()
    );
    outln!(
        "{:<30}{:>15.1}%{:>15.1}%",
        "mem hit ratio",
        100.0 * conv.mem.mem_ratio(),
        100.0 * imp.mem.mem_ratio()
    );
    outln!(
        "{:<30}{:>16.2}{:>16.2}",
        "avg load time",
        conv.mem.avg_load_time(),
        imp.mem.avg_load_time()
    );
    outln!(
        "\nspeedup: {:.2}x   bus-traffic reduction: {:.1}x",
        conv.cycles as f64 / imp.cycles as f64,
        conv.bus.bytes as f64 / imp.bus.bytes.max(1) as f64
    );
    outln!(
        "(the paper's Figure 1 is qualitative: a conventional fill moves a full\n\
         cache line per diagonal element — only one word of which is useful —\n\
         while Impulse packs diagonal elements densely before they cross the bus)"
    );
}

//! Stream buffers vs. Impulse — the paper's Section 5 argument, tested.
//!
//! "Jouppi proposed the notion of a stream buffer … McKee et al. proposed
//! a programmable variant … Both forms of stream buffer allow
//! applications to improve their performance on regular applications,
//! but they do not support irregular applications."
//!
//! Two workloads probe the claim:
//!
//! * **diagonal walk** (regular): a programmable stream buffer hides the
//!   latency, but — being CPU-side — still drags a full line across the
//!   bus per element; Impulse also eliminates the wasted traffic.
//! * **CG sparse matrix-vector product** (irregular `x` accesses): stream
//!   buffers help only the regular `DATA`/`COLUMN` streams; Impulse's
//!   scatter/gather attacks the irregular part itself.
//!
//! Overrides: `n=` (diagonal), `rows=`, `nnz=` (CG).

use std::sync::Arc;

use impulse_bench::{outln, runner::Args};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_workloads::{Diagonal, DiagonalVariant, Smvp, SmvpVariant, SparsePattern};

/// Diagonal walk with per-page programmed streams (the stream follows
/// physical addresses, so the program is re-armed at page boundaries —
/// the stream buffer's inherent limitation vs. controller-side remap).
fn diagonal_with_streams(n: u64, passes: u64) -> Report {
    let cfg = SystemConfig::paint().with_stream_buffers();
    let mut m = Machine::new(&cfg);
    let a = m.alloc_region(n * n * 8, 128).expect("alloc");
    m.reset_stats();
    let stride = (n + 1) * 8;
    for _ in 0..passes {
        let mut last_page = u64::MAX;
        for i in 0..n {
            let v = a.start().add(i * stride);
            if v.page_number() != last_page {
                last_page = v.page_number();
                m.program_stream(v, stride as i64);
            }
            m.load(v);
            m.compute(2);
        }
    }
    m.report("programmed stream buffers")
}

fn diagonal_plain(n: u64, passes: u64, variant: DiagonalVariant) -> Report {
    let mut m = Machine::new(
        &SystemConfig::paint().with_prefetch(variant == DiagonalVariant::Remapped, false),
    );
    let d = Diagonal::setup(&mut m, n, variant).expect("setup");
    m.reset_stats();
    d.run(&mut m, passes);
    m.report(variant.name())
}

fn smvp(
    pattern: &Arc<SparsePattern>,
    variant: SmvpVariant,
    streams: bool,
    mc_pf: bool,
    label: &str,
) -> Report {
    let mut cfg = SystemConfig::paint().with_prefetch(mc_pf, false);
    if streams {
        cfg = cfg.with_stream_buffers();
    }
    let mut m = Machine::new(&cfg);
    let w = Smvp::setup(&mut m, pattern.clone(), variant).expect("setup");
    w.run(&mut m, 1);
    m.report(label)
}

const USAGE: &str = "usage: streambuf [--paper] [n=N] [rows=N] [nnz=N]";

fn main() {
    let known = ["--paper", "n=", "rows=", "nnz="];
    let args = Args::from_env(&known, USAGE);
    let n = args.get("n", 2048);
    let rows = args.get("rows", 14_000);
    let nnz = args.get("nnz", if args.paper() { 156 } else { 24 });
    let _ = PAGE_SIZE;

    outln!("\n================================================================");
    outln!("Stream buffers vs Impulse (paper §5)");
    outln!("================================================================");

    outln!("\n--- regular: diagonal walk of a {n}x{n} matrix (4 passes) ---");
    let conv = diagonal_plain(n, 4, DiagonalVariant::Conventional);
    let stream = diagonal_with_streams(n, 4);
    let imp = diagonal_plain(n, 4, DiagonalVariant::Remapped);
    outln!(
        "{:<30}{:>12}{:>10}{:>14}",
        "system",
        "cycles",
        "speedup",
        "bus bytes"
    );
    for r in [&conv, &stream, &imp] {
        outln!(
            "{:<30}{:>12}{:>10.2}{:>14}",
            r.name,
            r.cycles,
            conv.cycles as f64 / r.cycles as f64,
            r.bus.bytes
        );
    }
    outln!(
        "(stream buffers hide latency but still move {}x the bytes Impulse does)",
        stream.bus.bytes / imp.bus.bytes.max(1)
    );

    outln!("\n--- irregular: CG SMVP, n={rows}, ~{nnz} nnz/row ---");
    let pattern = Arc::new(SparsePattern::generate(rows, nnz, 0x5ca1e));
    let base = smvp(
        &pattern,
        SmvpVariant::Conventional,
        false,
        false,
        "conventional",
    );
    let with_stream = smvp(
        &pattern,
        SmvpVariant::Conventional,
        true,
        false,
        "conventional + stream buffers",
    );
    let impulse = smvp(
        &pattern,
        SmvpVariant::ScatterGather,
        false,
        true,
        "impulse scatter/gather + pf",
    );
    outln!(
        "{:<30}{:>12}{:>10}{:>12}",
        "system",
        "cycles",
        "speedup",
        "stream hits"
    );
    for (r, hits) in [
        (&base, 0u64),
        (&with_stream, with_stream.mem.stream_loads),
        (&impulse, 0),
    ] {
        outln!(
            "{:<30}{:>12}{:>10.2}{:>12}",
            r.name,
            r.cycles,
            base.cycles as f64 / r.cycles as f64,
            hits
        );
    }
    outln!(
        "(stream buffers accelerate only the regular DATA/COLUMN streams; the\n\
         irregular x accesses — the bottleneck — are untouched, while Impulse\n\
         gathers them at the controller)"
    );
}

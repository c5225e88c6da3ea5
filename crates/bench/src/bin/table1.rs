//! Regenerates **Table 1** of the paper: the NAS Class A conjugate
//! gradient benchmark (sparse matrix-vector product) under three memory
//! systems × four prefetch configurations.
//!
//! Default: a scaled CG-A-like matrix (n = 14,000, ~40 nnz/row, one
//! pass) — the same cache-pressure regime at a fraction of the runtime.
//! `--paper` runs the Class A dimensions (n = 14,000, ~156 nnz/row) with
//! more passes. Overrides: `rows=`, `nnz=`, `passes=`, `seed=`.

use std::sync::Arc;

use impulse_bench::{outln, print_table, runner::Args, PaperRow, TableSection, PREFETCH_COLUMNS};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{CgBenchmark, Smvp, SmvpVariant, SparsePattern};

fn run_cell(
    pattern: &Arc<SparsePattern>,
    variant: SmvpVariant,
    mc_pf: bool,
    l1_pf: bool,
    passes: u64,
    full_cg: bool,
) -> Report {
    let cfg = SystemConfig::paint().with_prefetch(mc_pf, l1_pf);
    let mut m = Machine::new(&cfg);
    if full_cg {
        let cg = CgBenchmark::setup(&mut m, pattern.clone(), variant).expect("CG setup");
        cg.run(&mut m, passes);
    } else {
        let w = Smvp::setup(&mut m, pattern.clone(), variant).expect("SMVP setup");
        w.run(&mut m, passes);
    }
    m.report(variant.name())
}

const PAPER_CONVENTIONAL: [PaperRow; 4] = [
    PaperRow {
        time: 2.81,
        l1: 64.6,
        l2: 29.9,
        mem: 5.5,
        avg_load: 4.75,
        speedup: 0.0,
    },
    PaperRow {
        time: 2.69,
        l1: 64.6,
        l2: 29.9,
        mem: 5.5,
        avg_load: 4.38,
        speedup: 1.04,
    },
    PaperRow {
        time: 2.51,
        l1: 67.7,
        l2: 30.4,
        mem: 1.9,
        avg_load: 3.56,
        speedup: 1.12,
    },
    PaperRow {
        time: 2.49,
        l1: 67.7,
        l2: 30.4,
        mem: 1.9,
        avg_load: 3.54,
        speedup: 1.13,
    },
];

const PAPER_SCATTER_GATHER: [PaperRow; 4] = [
    PaperRow {
        time: 2.11,
        l1: 88.0,
        l2: 4.4,
        mem: 7.6,
        avg_load: 5.24,
        speedup: 1.33,
    },
    PaperRow {
        time: 1.68,
        l1: 88.0,
        l2: 4.4,
        mem: 7.6,
        avg_load: 3.53,
        speedup: 1.67,
    },
    PaperRow {
        time: 1.51,
        l1: 94.7,
        l2: 4.3,
        mem: 1.0,
        avg_load: 2.19,
        speedup: 1.86,
    },
    PaperRow {
        time: 1.44,
        l1: 94.7,
        l2: 4.3,
        mem: 1.0,
        avg_load: 2.04,
        speedup: 1.95,
    },
];

const PAPER_RECOLORING: [PaperRow; 4] = [
    PaperRow {
        time: 2.70,
        l1: 64.7,
        l2: 30.9,
        mem: 4.4,
        avg_load: 4.47,
        speedup: 1.04,
    },
    PaperRow {
        time: 2.57,
        l1: 64.7,
        l2: 31.0,
        mem: 4.3,
        avg_load: 4.05,
        speedup: 1.09,
    },
    PaperRow {
        time: 2.39,
        l1: 67.7,
        l2: 31.3,
        mem: 1.0,
        avg_load: 3.28,
        speedup: 1.18,
    },
    PaperRow {
        time: 2.37,
        l1: 67.7,
        l2: 31.3,
        mem: 1.0,
        avg_load: 3.26,
        speedup: 1.19,
    },
];

const USAGE: &str = "usage: table1 [--paper] [rows=N] [nnz=N] [passes=N] [seed=N] [cg=0|1] \
[mesh=SIDE]";

fn main() {
    let known = [
        "--paper", "rows=", "nnz=", "passes=", "seed=", "cg=", "mesh=",
    ];
    let args = Args::from_env(&known, USAGE);
    let rows = args.get("rows", 14_000);
    let nnz = args.get("nnz", if args.paper() { 156 } else { 40 });
    let passes = args.get("passes", if args.paper() { 3 } else { 1 });
    let seed = args.get("seed", 0x00c9_a15e);
    // cg=1 runs the complete CG iteration (SMVP + dot products + AXPYs +
    // the gather-consistency flush of p), as the paper's whole-benchmark
    // timing does; the default times the SMVP kernel.
    let full_cg = args.get("cg", 0) != 0;

    // mesh=SIDE swaps in a Spark98-like 2-D finite-element mesh pattern
    // (SIDE × SIDE nodes) instead of the CG-A-like random matrix.
    let mesh = args.get("mesh", 0);

    let pattern = if mesh > 0 {
        eprintln!(
            "generating Spark98-like mesh pattern: {mesh}x{mesh} nodes, {passes} {} pass(es)...",
            if full_cg { "full-CG" } else { "SMVP" }
        );
        Arc::new(SparsePattern::mesh2d(mesh))
    } else {
        eprintln!(
            "generating CG pattern: {rows} rows, ~{nnz} nnz/row, {passes} {} pass(es)...",
            if full_cg { "full-CG" } else { "SMVP" }
        );
        Arc::new(SparsePattern::generate(rows, nnz, seed))
    };
    eprintln!("pattern: {} non-zeroes", pattern.nnz());

    let variants = [
        (
            SmvpVariant::Conventional,
            "Conventional memory system",
            PAPER_CONVENTIONAL,
        ),
        (
            SmvpVariant::ScatterGather,
            "Impulse with scatter/gather remapping",
            PAPER_SCATTER_GATHER,
        ),
        (
            SmvpVariant::Recolored,
            "Impulse with page recoloring",
            PAPER_RECOLORING,
        ),
    ];

    let mut sections = Vec::new();
    for (variant, title, paper) in variants {
        let mut reports = Vec::new();
        for (mc_pf, l1_pf, label) in PREFETCH_COLUMNS {
            eprintln!("running {title} / {label}...");
            reports.push(run_cell(&pattern, variant, mc_pf, l1_pf, passes, full_cg));
        }
        sections.push(TableSection {
            title: title.to_string(),
            reports,
            // The paper's reference numbers are for CG-A, not the mesh.
            paper: if mesh > 0 { None } else { Some(paper) },
        });
    }

    let baseline = sections[0].reports[0].clone();
    print_table(
        &format!(
            "Table 1 — {}{} (n={}, nnz={}, passes={passes})",
            if mesh > 0 {
                "Spark98-like mesh SMVP"
            } else {
                "NAS conjugate gradient"
            },
            if full_cg { " [full CG iterations]" } else { "" },
            pattern.n(),
            pattern.nnz()
        ),
        &sections,
        &baseline,
    );

    // The paper's headline claim.
    let sg_pf = &sections[1].reports[1];
    outln!(
        "headline: scatter/gather + controller prefetch speedup = {:.2} (paper: 1.67)",
        sg_pf.speedup_over(&baseline)
    );
}

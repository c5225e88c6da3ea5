//! Regenerates **Table 2** of the paper: tiled matrix-matrix product
//! under three memory systems × four prefetch configurations.
//!
//! Default: 256 × 256 matrices with 32 × 32 tiles (the same
//! tile-self-conflict regime as the paper at a fraction of the runtime).
//! `--paper` runs the paper's 512 × 512. Overrides: `n=`, `tile=`.

use impulse_bench::{outln, print_table, runner::Args, PaperRow, TableSection, PREFETCH_COLUMNS};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{Mmp, MmpParams, MmpVariant};

fn run_cell(p: MmpParams, variant: MmpVariant, mc_pf: bool, l1_pf: bool) -> Report {
    let cfg = SystemConfig::paint().with_prefetch(mc_pf, l1_pf);
    let mut m = Machine::new(&cfg);
    let mut w = Mmp::setup(&mut m, p, variant).expect("MMP setup");
    w.run(&mut m).expect("MMP run");
    m.report(variant.name())
}

const PAPER_CONVENTIONAL: [PaperRow; 4] = [
    PaperRow {
        time: 2.57,
        l1: 49.0,
        l2: 43.0,
        mem: 8.0,
        avg_load: 6.37,
        speedup: 0.0,
    },
    PaperRow {
        time: 2.51,
        l1: 49.0,
        l2: 43.0,
        mem: 8.0,
        avg_load: 6.18,
        speedup: 1.02,
    },
    PaperRow {
        time: 2.58,
        l1: 48.9,
        l2: 43.4,
        mem: 7.7,
        avg_load: 6.44,
        speedup: 1.00,
    },
    PaperRow {
        time: 2.52,
        l1: 48.9,
        l2: 43.5,
        mem: 7.6,
        avg_load: 6.22,
        speedup: 1.02,
    },
];

const PAPER_COPY: [PaperRow; 4] = [
    PaperRow {
        time: 1.32,
        l1: 98.5,
        l2: 1.3,
        mem: 0.2,
        avg_load: 1.09,
        speedup: 1.95,
    },
    PaperRow {
        time: 1.32,
        l1: 98.5,
        l2: 1.3,
        mem: 0.2,
        avg_load: 1.08,
        speedup: 1.95,
    },
    PaperRow {
        time: 1.32,
        l1: 98.5,
        l2: 1.4,
        mem: 0.1,
        avg_load: 1.06,
        speedup: 1.95,
    },
    PaperRow {
        time: 1.32,
        l1: 98.5,
        l2: 1.4,
        mem: 0.1,
        avg_load: 1.06,
        speedup: 1.95,
    },
];

const PAPER_REMAP: [PaperRow; 4] = [
    PaperRow {
        time: 1.30,
        l1: 99.4,
        l2: 0.4,
        mem: 0.2,
        avg_load: 1.09,
        speedup: 1.98,
    },
    PaperRow {
        time: 1.29,
        l1: 99.4,
        l2: 0.4,
        mem: 0.2,
        avg_load: 1.07,
        speedup: 1.99,
    },
    PaperRow {
        time: 1.30,
        l1: 99.4,
        l2: 0.4,
        mem: 0.2,
        avg_load: 1.09,
        speedup: 1.98,
    },
    PaperRow {
        time: 1.28,
        l1: 99.6,
        l2: 0.4,
        mem: 0.0,
        avg_load: 1.03,
        speedup: 2.01,
    },
];

const USAGE: &str = "usage: table2 [--paper] [n=N] [tile=N]";

fn main() {
    let known = ["--paper", "n=", "tile="];
    let args = Args::from_env(&known, USAGE);
    let n = args.get("n", if args.paper() { 512 } else { 256 });
    let tile = args.get("tile", 32);
    let params = MmpParams { n, tile };

    let variants = [
        (
            MmpVariant::Conventional,
            "Conventional memory system (no-copy tiling)",
            PAPER_CONVENTIONAL,
        ),
        (
            MmpVariant::SoftwareCopy,
            "Conventional memory system with software tile copying",
            PAPER_COPY,
        ),
        (
            MmpVariant::TileRemap,
            "Impulse with tile remapping",
            PAPER_REMAP,
        ),
    ];

    let mut sections = Vec::new();
    for (variant, title, paper) in variants {
        let mut reports = Vec::new();
        for (mc_pf, l1_pf, label) in PREFETCH_COLUMNS {
            eprintln!("running {title} / {label}...");
            reports.push(run_cell(params, variant, mc_pf, l1_pf));
        }
        sections.push(TableSection {
            title: title.to_string(),
            reports,
            paper: Some(paper),
        });
    }

    let baseline = sections[0].reports[0].clone();
    print_table(
        &format!("Table 2 — tiled matrix-matrix product ({n}×{n}, {tile}×{tile} tiles)"),
        &sections,
        &baseline,
    );

    let copy = &sections[1].reports[0];
    let remap = &sections[2].reports[0];
    outln!(
        "headline: copy speedup {:.2} (paper 1.95), remap speedup {:.2} (paper 1.98), remap ≥ copy: {}",
        copy.speedup_over(&baseline),
        remap.speedup_over(&baseline),
        remap.cycles <= copy.cycles
    );
}

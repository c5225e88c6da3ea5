//! The benchmark's workloads: the 28 `run_all` catalog cells, re-declared
//! here with the catalog's configs, sizes and seed derivation, and split
//! into a set-up phase and a measured phase.
//!
//! The split sits at the catalog's `reset_stats()` call, or at the measured
//! call (`run`) for cells whose catalog entry has none (table 1, table 2,
//! LU). The set-up closure allocates, remaps and resets; the closure it
//! returns is the measured phase. `tests/perf` checks that every cell still
//! reproduces `results/run_all.json`, so drift between the catalog and these
//! declarations fails the tier-1 tests.

use std::sync::Arc;

use impulse_sim::{Machine, SystemConfig};
use impulse_types::TierPolicy;
use impulse_workloads::{
    ChannelFilter, DbScan, DbVariant, Diagonal, DiagonalVariant, IpcGather, IpcVariant, Lu,
    LuVariant, MediaVariant, Mmp, MmpParams, MmpVariant, Smvp, SmvpVariant, SparsePattern,
    TlbStress, TlbVariant, Transpose, TransposeVariant,
};

/// The catalog's default master seed (`run_all`'s `DEFAULT_SEED`): the seed
/// at which `results/run_all.json` was generated.
pub const DEFAULT_SEED: u64 = 0x00c9_a15e;

/// The measured phase of one cell, returned by its set-up.
pub type Measured = Box<dyn FnOnce(&mut Machine)>;

/// One catalog cell: its report name, its machine configuration, and its
/// set-up (which returns the measured phase).
pub struct Cell {
    pub name: String,
    pub cfg: SystemConfig,
    pub setup: Box<dyn Fn(&mut Machine) -> Measured>,
}

impl Cell {
    fn new(
        name: impl Into<String>,
        cfg: SystemConfig,
        setup: impl Fn(&mut Machine) -> Measured + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            cfg,
            setup: Box::new(setup),
        }
    }
}

/// The four workloads. Together they are exactly the 28 catalog cells; each
/// stresses a different layer of the simulator (see `README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RemapGather,
    DirectMiss,
    TiledCompute,
    Tiered,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RemapGather,
        Workload::DirectMiss,
        Workload::TiledCompute,
        Workload::Tiered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RemapGather => "remap-gather",
            Workload::DirectMiss => "direct-miss",
            Workload::TiledCompute => "tiled-compute",
            Workload::Tiered => "tiered",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's cells in catalog order. Building the list generates
    /// the shared inputs (the table-1 sparse pattern), so callers time it
    /// as set-up.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::RemapGather => remap_gather(seed),
            Workload::DirectMiss => direct_miss(seed),
            Workload::TiledCompute => tiled_compute(),
            Workload::Tiered => tiered(seed),
        }
    }
}

fn table1(pattern: &Arc<SparsePattern>, variant: SmvpVariant, mc_pf: bool, l1_pf: bool) -> Cell {
    let pattern = pattern.clone();
    Cell::new(
        format!("table1/{}/mc={mc_pf}/l1={l1_pf}", variant.name()),
        SystemConfig::paint().with_prefetch(mc_pf, l1_pf),
        move |m| {
            let w = Smvp::setup(m, pattern.clone(), variant).expect("smvp");
            Box::new(move |m: &mut Machine| w.run(m, 1))
        },
    )
}

fn table2(variant: MmpVariant) -> Cell {
    Cell::new(
        format!("table2/{}", variant.name()),
        SystemConfig::paint(),
        move |m| {
            let mut w = Mmp::setup(m, MmpParams { n: 192, tile: 32 }, variant).expect("mmp");
            Box::new(move |m: &mut Machine| w.run(m).expect("mmp run"))
        },
    )
}

fn lu(variant: LuVariant) -> Cell {
    Cell::new(
        format!("lu/{}", variant.name()),
        SystemConfig::paint(),
        move |m| {
            let mut w = Lu::setup(m, 128, 32, variant).expect("lu");
            Box::new(move |m: &mut Machine| w.run(m).expect("lu run"))
        },
    )
}

fn fig1(variant: DiagonalVariant) -> Cell {
    Cell::new(
        format!("fig1/{}", variant.name()),
        SystemConfig::paint(),
        move |m| {
            let d = Diagonal::setup(m, 2048, variant).expect("diag");
            m.reset_stats();
            Box::new(move |m: &mut Machine| d.run(m, 4))
        },
    )
}

fn transpose(name: String, cfg: SystemConfig, variant: TransposeVariant) -> Cell {
    Cell::new(name, cfg, move |m| {
        let w = Transpose::setup(m, 512, variant).expect("transpose");
        m.reset_stats();
        Box::new(move |m: &mut Machine| w.column_reduce(m))
    })
}

fn superpage(variant: TlbVariant) -> Cell {
    Cell::new(
        format!("superpage/{}", variant.name()),
        SystemConfig::paint(),
        move |m| {
            let w = TlbStress::setup(m, 8, 64, variant).expect("tlb");
            m.reset_stats();
            Box::new(move |m: &mut Machine| w.sweep(m, 8))
        },
    )
}

fn dbscan(name: String, cfg: SystemConfig, seed: u64, variant: DbVariant) -> Cell {
    Cell::new(name, cfg, move |m| {
        let w = DbScan::setup(m, 1 << 18, 64, 1 << 16, seed ^ 0xdb, variant).expect("db");
        m.reset_stats();
        Box::new(move |m: &mut Machine| w.fetch(m))
    })
}

fn media(variant: MediaVariant) -> Cell {
    Cell::new(
        format!("media/{}", variant.name()),
        SystemConfig::paint().with_prefetch(true, false),
        move |m| {
            let w = ChannelFilter::setup(m, 1 << 20, 3, variant).expect("media");
            m.reset_stats();
            Box::new(move |m: &mut Machine| w.filter(m))
        },
    )
}

fn ipc(variant: IpcVariant) -> Cell {
    Cell::new(
        format!("ipc/{}", variant.name()),
        SystemConfig::paint(),
        move |m| {
            let w = IpcGather::setup(m, 8, 4096, 64, variant).expect("ipc");
            m.reset_stats();
            Box::new(move |m: &mut Machine| {
                for _ in 0..64 {
                    w.send(m);
                }
            })
        },
    )
}

fn plain_transpose(variant: TransposeVariant) -> Cell {
    transpose(
        format!("transpose/{}", variant.name()),
        SystemConfig::paint(),
        variant,
    )
}

fn plain_dbscan(seed: u64, variant: DbVariant) -> Cell {
    dbscan(
        format!("dbscan/{}", variant.name()),
        SystemConfig::paint().with_prefetch(true, false),
        seed,
        variant,
    )
}

/// Shadow-path traffic: every cell reads through an Impulse remapping.
fn remap_gather(seed: u64) -> Vec<Cell> {
    let pattern = Arc::new(SparsePattern::generate(14_000, 24, seed));
    vec![
        table1(&pattern, SmvpVariant::ScatterGather, false, false),
        table1(&pattern, SmvpVariant::ScatterGather, true, false),
        table1(&pattern, SmvpVariant::ScatterGather, true, true),
        table1(&pattern, SmvpVariant::Recolored, false, false),
        table1(&pattern, SmvpVariant::Recolored, true, true),
        fig1(DiagonalVariant::Remapped),
        plain_transpose(TransposeVariant::Remapped),
        superpage(TlbVariant::Superpages),
        plain_dbscan(seed, DbVariant::ImpulseGather),
        media(MediaVariant::ChannelRemap),
        ipc(IpcVariant::ImpulseGather),
    ]
}

/// Conventional traffic: L2 misses take the controller's direct path.
fn direct_miss(seed: u64) -> Vec<Cell> {
    let pattern = Arc::new(SparsePattern::generate(14_000, 24, seed));
    vec![
        table1(&pattern, SmvpVariant::Conventional, false, false),
        table1(&pattern, SmvpVariant::Conventional, true, true),
        fig1(DiagonalVariant::Conventional),
        plain_transpose(TransposeVariant::Conventional),
        superpage(TlbVariant::BasePages),
        plain_dbscan(seed, DbVariant::Conventional),
        media(MediaVariant::Conventional),
        ipc(IpcVariant::SoftwareGather),
    ]
}

/// Cache-resident tiled kernels: the CPU-issue, translate, L1 and TLB path.
fn tiled_compute() -> Vec<Cell> {
    let mut cells: Vec<Cell> = MmpVariant::ALL.into_iter().map(table2).collect();
    cells.push(lu(LuVariant::Conventional));
    cells.push(lu(LuVariant::TileRemap));
    cells
}

/// The hybrid DRAM/SCM grid, with `tier/none` as the in-workload control.
fn tiered(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = TierPolicy::ALL
        .into_iter()
        .map(|policy| {
            transpose(
                format!("tier/{}/transpose", policy.name()),
                SystemConfig::paint_small().with_tier(policy),
                TransposeVariant::Remapped,
            )
        })
        .collect();
    cells.push(dbscan(
        "tier/cache/dbscan-gather".to_string(),
        SystemConfig::paint_small()
            .with_prefetch(true, false)
            .with_tier(TierPolicy::Cache),
        seed,
        DbVariant::ImpulseGather,
    ));
    cells
}

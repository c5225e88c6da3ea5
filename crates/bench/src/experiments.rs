//! The `run_all` experiment catalog as self-contained jobs.
//!
//! Each experiment owns everything it needs (configs, shared read-only
//! pattern data behind `Arc`) and builds its own
//! [`Machine`], so the jobs are independent and
//! safe to fan across threads with [`crate::runner`]. The *simulated*
//! cycle counts are a pure function of each experiment's own inputs;
//! host-side scheduling cannot perturb them, which is what lets
//! `results.csv` and `results/run_all.json` stay byte-identical between
//! serial and parallel runs (asserted by `tests/determinism.rs`).

use std::sync::Arc;

use impulse_obs::Json;
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_types::TierPolicy;
use impulse_workloads::{
    ChannelFilter, DbScan, DbVariant, Diagonal, DiagonalVariant, IpcGather, IpcVariant, Lu,
    LuVariant, MediaVariant, Mmp, MmpParams, MmpVariant, Smvp, SmvpVariant, SparsePattern,
    TlbStress, TlbVariant, Transpose, TransposeVariant,
};

/// One independent experiment: a name and a job producing its report.
pub struct Experiment {
    name: String,
    job: Box<dyn Fn() -> Report + Send + Sync>,
}

impl Experiment {
    fn new(name: String, job: impl Fn() -> Report + Send + Sync + 'static) -> Self {
        Self {
            name,
            job: Box::new(job),
        }
    }

    /// The experiment's report name (`table1/...`, `fig1/...`, ...),
    /// known before the run for labels and filtering.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the experiment to completion.
    pub fn run(&self) -> Report {
        (self.job)()
    }
}

/// The default master seed for the `run_all` catalog (kept equal to the
/// historical sparse-pattern seed so default outputs are unchanged).
pub const DEFAULT_SEED: u64 = 0x00c9_a15e;

/// Observability switches applied uniformly to every catalog
/// experiment: the MC flight-recorder capacity and how many hottest
/// lines each heatmap export carries.
///
/// [`ObsSpec::off`] is the zero-cost default used by the plain
/// [`run_all_experiments`] catalog; the `trace` binary turns recording
/// on with [`ObsSpec::recording`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsSpec {
    /// Flight-recorder ring capacity in events (0 disables recording).
    pub flight_capacity: usize,
    /// Entries per heatmap `hot.entries` export.
    pub top_k: usize,
}

impl ObsSpec {
    /// All observability disabled — the configuration the headline
    /// benchmarks run with.
    pub fn off() -> Self {
        Self {
            flight_capacity: 0,
            top_k: 32,
        }
    }

    /// Flight recording enabled; each heatmap ranks its `top_k` hottest
    /// lines from the ring.
    pub fn recording(flight_capacity: usize, top_k: usize) -> Self {
        Self {
            flight_capacity,
            top_k,
        }
    }

    /// Whether any recording is on (controls whether jobs export
    /// captures and heatmaps).
    pub fn enabled(&self) -> bool {
        self.flight_capacity > 0
    }
}

/// Everything one observed experiment produces: the usual [`Report`]
/// plus the encoded `impulse-trace-v1` capture and the
/// `impulse-heatmap-v2` export (both empty/null when the job ran with
/// [`ObsSpec::off`]).
#[derive(Clone, Debug)]
pub struct TraceOutcome {
    /// The experiment's report, exactly as the plain catalog produces.
    pub report: Report,
    /// Encoded flight capture (empty when recording was disabled).
    pub capture: Vec<u8>,
    /// Heatmap document (`Json::Null` when recording was disabled).
    pub heatmap: Json,
}

/// One catalog experiment whose job also exports observability
/// artifacts. The plain [`Experiment`] catalog is a thin projection of
/// this (dropping capture and heatmap).
pub struct TracedExperiment {
    name: String,
    job: Box<dyn Fn() -> TraceOutcome + Send + Sync>,
}

impl TracedExperiment {
    fn new(name: String, job: impl Fn() -> TraceOutcome + Send + Sync + 'static) -> Self {
        Self {
            name,
            job: Box::new(job),
        }
    }

    /// The experiment's report name, known before the run.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the experiment to completion.
    pub fn run(&self) -> TraceOutcome {
        (self.job)()
    }
}

/// Collects the machine's report and (when `obs` is recording) its
/// flight capture and heatmap into a [`TraceOutcome`].
fn finish(m: &Machine, name: &str, obs: ObsSpec) -> TraceOutcome {
    let report = m.report(name.to_string());
    if !obs.enabled() {
        return TraceOutcome {
            report,
            capture: Vec::new(),
            heatmap: Json::Null,
        };
    }
    let mc = m.memory().mc();
    TraceOutcome {
        report,
        capture: mc.flight().map(|f| f.encode()).unwrap_or_default(),
        heatmap: mc.heatmap_json(obs.top_k),
    }
}

/// One catalog experiment in factored form: its base configuration and
/// the workload-driving closure, separated so every runner (direct and
/// observed/tracing) runs the *same* definition. The drive closure
/// performs setup and the measured run against a machine the runner
/// built; the runner then collects `machine.report(name)` (plus whatever
/// artifacts it owns).
pub struct CatalogEntry {
    name: String,
    cfg: SystemConfig,
    drive: Arc<dyn Fn(&mut Machine) + Send + Sync>,
}

impl CatalogEntry {
    fn new(
        name: String,
        cfg: SystemConfig,
        drive: impl Fn(&mut Machine) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name,
            cfg,
            drive: Arc::new(drive),
        }
    }

    /// The experiment's report name, known before the run.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base configuration (before any observability is applied).
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs the workload (setup + measured phase) against `m`, which
    /// must have been built from [`CatalogEntry::config`] (possibly
    /// with observability applied).
    pub fn drive(&self, m: &mut Machine) {
        (self.drive)(m);
    }

    /// The same experiment under a different memory organisation.
    /// [`TierPolicy::None`] leaves the catalogued configuration
    /// untouched — it never strips a tier from the `tier/...` cells —
    /// and an already-tiered cell keeps its own organisation (a
    /// re-tier would re-derive the DRAM front from the *tiered*
    /// capacity and shrink the visible space out from under the
    /// workload).
    #[must_use]
    pub fn with_tier(mut self, tier: TierPolicy) -> Self {
        if tier != TierPolicy::None && self.cfg.tier.policy == TierPolicy::None {
            self.cfg = self.cfg.with_tier(tier);
        }
        self
    }
}

/// The full `run_all` catalog (28 experiments at quick scale) in
/// factored form, in the canonical CSV/JSON row order. `seed` feeds
/// every seeded input: the table-1 sparse pattern directly and the
/// database scan's key salt via XOR.
pub fn catalog_entries(seed: u64) -> Vec<CatalogEntry> {
    let mut out = Vec::new();

    // Table 1 cells.
    let pattern = Arc::new(SparsePattern::generate(14_000, 24, seed));
    for (variant, mc_pf, l1_pf) in [
        (SmvpVariant::Conventional, false, false),
        (SmvpVariant::Conventional, true, true),
        (SmvpVariant::ScatterGather, false, false),
        (SmvpVariant::ScatterGather, true, false),
        (SmvpVariant::ScatterGather, true, true),
        (SmvpVariant::Recolored, false, false),
        (SmvpVariant::Recolored, true, true),
    ] {
        let pattern = pattern.clone();
        out.push(CatalogEntry::new(
            format!("table1/{}/mc={mc_pf}/l1={l1_pf}", variant.name()),
            SystemConfig::paint().with_prefetch(mc_pf, l1_pf),
            move |m| {
                let w = Smvp::setup(m, pattern.clone(), variant).expect("smvp");
                w.run(m, 1);
            },
        ));
    }

    // Table 2 cells.
    for variant in MmpVariant::ALL {
        out.push(CatalogEntry::new(
            format!("table2/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let mut w = Mmp::setup(m, MmpParams { n: 192, tile: 32 }, variant).expect("mmp");
                w.run(m).expect("mmp run");
            },
        ));
    }

    // Tiled LU decomposition.
    for variant in [LuVariant::Conventional, LuVariant::TileRemap] {
        out.push(CatalogEntry::new(
            format!("lu/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let mut w = Lu::setup(m, 128, 32, variant).expect("lu");
                w.run(m).expect("lu run");
            },
        ));
    }

    // Figure 1.
    for variant in [DiagonalVariant::Conventional, DiagonalVariant::Remapped] {
        out.push(CatalogEntry::new(
            format!("fig1/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let d = Diagonal::setup(m, 2048, variant).expect("diag");
                m.reset_stats();
                d.run(m, 4);
            },
        ));
    }

    // Transpose.
    for variant in [TransposeVariant::Conventional, TransposeVariant::Remapped] {
        out.push(CatalogEntry::new(
            format!("transpose/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let w = Transpose::setup(m, 512, variant).expect("transpose");
                m.reset_stats();
                w.column_reduce(m);
            },
        ));
    }

    // Superpages.
    for variant in [TlbVariant::BasePages, TlbVariant::Superpages] {
        out.push(CatalogEntry::new(
            format!("superpage/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let w = TlbStress::setup(m, 8, 64, variant).expect("tlb");
                m.reset_stats();
                w.sweep(m, 8);
            },
        ));
    }

    // Database selection scan.
    for variant in [DbVariant::Conventional, DbVariant::ImpulseGather] {
        out.push(CatalogEntry::new(
            format!("dbscan/{}", variant.name()),
            SystemConfig::paint().with_prefetch(true, false),
            move |m| {
                let w = DbScan::setup(m, 1 << 18, 64, 1 << 16, seed ^ 0xdb, variant).expect("db");
                m.reset_stats();
                w.fetch(m);
            },
        ));
    }

    // Multimedia channel extraction.
    for variant in [MediaVariant::Conventional, MediaVariant::ChannelRemap] {
        out.push(CatalogEntry::new(
            format!("media/{}", variant.name()),
            SystemConfig::paint().with_prefetch(true, false),
            move |m| {
                let w = ChannelFilter::setup(m, 1 << 20, 3, variant).expect("media");
                m.reset_stats();
                w.filter(m);
            },
        ));
    }

    // IPC.
    for variant in [IpcVariant::SoftwareGather, IpcVariant::ImpulseGather] {
        out.push(CatalogEntry::new(
            format!("ipc/{}", variant.name()),
            SystemConfig::paint(),
            move |m| {
                let w = IpcGather::setup(m, 8, 4096, 64, variant).expect("ipc");
                m.reset_stats();
                for _ in 0..64 {
                    w.send(m);
                }
            },
        ));
    }

    // Hybrid-tier grid: the remapped transpose across all three tier
    // policies (plain DRAM, address-partitioned flat, DRAM cache over
    // SCM), plus a cache-mode gather cell that drives the MC-side fill
    // buffer with cold SCM lines. Built on `paint_small` so the
    // cache-mode DRAM front (1/16 of installed) is small enough for the
    // working sets to spill into real SCM traffic.
    for policy in TierPolicy::ALL {
        out.push(CatalogEntry::new(
            format!("tier/{}/transpose", policy.name()),
            SystemConfig::paint_small().with_tier(policy),
            move |m| {
                let w = Transpose::setup(m, 512, TransposeVariant::Remapped).expect("transpose");
                m.reset_stats();
                w.column_reduce(m);
            },
        ));
    }
    out.push(CatalogEntry::new(
        "tier/cache/dbscan-gather".to_string(),
        SystemConfig::paint_small()
            .with_prefetch(true, false)
            .with_tier(TierPolicy::Cache),
        move |m| {
            let w = DbScan::setup(
                m,
                1 << 18,
                64,
                1 << 16,
                seed ^ 0xdb,
                DbVariant::ImpulseGather,
            )
            .expect("db");
            m.reset_stats();
            w.fetch(m);
        },
    ));

    out
}

/// Builds the full `run_all` experiment list (28 experiments at quick
/// scale), in the canonical CSV/JSON row order. `seed` feeds every
/// seeded input: the table-1 sparse pattern directly and the database
/// scan's key salt via XOR.
pub fn run_all_experiments(seed: u64) -> Vec<Experiment> {
    run_all_experiments_obs(seed, ObsSpec::off())
        .into_iter()
        .map(|t| Experiment::new(t.name.clone(), move || t.run().report))
        .collect()
}

/// The same 28-experiment catalog with observability applied to every
/// machine: each job's [`SystemConfig`] goes through `obs` before the
/// machine is built, and the job returns the capture and heatmap next
/// to the report. With [`ObsSpec::off`] the simulated results are
/// identical to [`run_all_experiments`] — recording never perturbs
/// simulated time.
pub fn run_all_experiments_obs(seed: u64, obs: ObsSpec) -> Vec<TracedExperiment> {
    catalog_entries(seed)
        .into_iter()
        .map(|entry| {
            let name = entry.name().to_string();
            TracedExperiment::new(name.clone(), move || {
                let cfg = entry.config().clone().with_flight(obs.flight_capacity);
                let mut m = Machine::new(&cfg);
                entry.drive(&mut m);
                finish(&m, &name, obs)
            })
        })
        .collect()
}

/// One report as the `run_all` artifacts carry it: its CSV row and its
/// JSON fragment.
#[derive(Debug)]
pub struct ReportArtifacts {
    /// The report's CSV row (no trailing newline).
    pub csv: String,
    /// The report's `impulse-report-v1` JSON fragment.
    pub json: Json,
}

/// Renders one report for the `run_all` artifacts, asserting its
/// invariants first, so no artifact carries a report that breaks them.
///
/// # Panics
///
/// Panics if the report's attribution stages do not sum to its demand
/// cycles, or if its `mem.lat_load`/`mem.lat_store` histograms do not
/// hold one sample per demand access summing to the demand cycles.
pub fn report_artifacts(r: &Report) -> ReportArtifacts {
    let demand = r.mem.load_cycles + r.mem.store_cycles;
    assert_eq!(
        r.attr.total(),
        demand,
        "{}: attribution stages sum to {} but demand cycles are {demand}",
        r.name,
        r.attr.total(),
    );
    for (name, accesses, cycles) in [
        ("mem.lat_load", r.mem.loads, r.mem.load_cycles),
        ("mem.lat_store", r.mem.stores, r.mem.store_cycles),
    ] {
        let h = r
            .metrics
            .histogram_value(name)
            .unwrap_or_else(|| panic!("{}: no {name} histogram", r.name));
        assert_eq!(
            (h.count(), h.sum()),
            (accesses, cycles),
            "{}: {name} (count, sum) disagrees with the demand (accesses, cycles)",
            r.name,
        );
    }
    ReportArtifacts {
        csv: r.csv_row(),
        json: r.to_json(),
    }
}

/// The `run_all` CSV text: the header plus one row per report, in order.
///
/// # Panics
///
/// Panics as [`report_artifacts`] does.
pub fn csv_document(reports: &[Report]) -> String {
    let mut csv = String::from(Report::csv_header());
    csv.push('\n');
    for r in reports {
        csv.push_str(&report_artifacts(r).csv);
        csv.push('\n');
    }
    csv
}

/// Bundles experiment reports into one JSON document (schema
/// `impulse-run-all-v1`) stamped with the master seed. The `failed`
/// array is always empty, because a failing experiment fails the run;
/// the key stays so the document's layout is unchanged for its readers.
///
/// # Panics
///
/// Panics as [`report_artifacts`] does.
pub fn json_document(seed: u64, reports: &[Report]) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Str("impulse-run-all-v1".into()));
    root.set("seed", Json::UInt(seed));
    root.set(
        "reports",
        Json::Arr(reports.iter().map(|r| report_artifacts(r).json).collect()),
    );
    root.set("failed", Json::Arr(Vec::new()));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_stable() {
        let exps = run_all_experiments(DEFAULT_SEED);
        assert_eq!(exps.len(), 28);
        let names: std::collections::HashSet<&str> = exps.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), exps.len(), "duplicate experiment names");
        assert_eq!(exps[0].name(), "table1/conventional/mc=false/l1=false");
        assert_eq!(exps[23].name(), "ipc/impulse no-copy gather");
        assert_eq!(exps[24].name(), "tier/none/transpose");
        assert_eq!(exps[27].name(), "tier/cache/dbscan-gather");
    }

    #[test]
    fn observed_catalog_mirrors_the_plain_one() {
        let plain = run_all_experiments(DEFAULT_SEED);
        let traced = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::off());
        assert_eq!(plain.len(), traced.len());
        for (p, t) in plain.iter().zip(&traced) {
            assert_eq!(p.name(), t.name());
        }
        assert!(!ObsSpec::off().enabled());
        assert!(ObsSpec::recording(1 << 16, 32).enabled());
    }

    #[test]
    fn disabled_obs_jobs_export_no_artifacts() {
        // Run the cheapest catalog entry end to end with ObsSpec::off and
        // check the outcome carries no capture or heatmap.
        let traced = run_all_experiments_obs(DEFAULT_SEED, ObsSpec::off());
        let ipc = traced
            .iter()
            .find(|t| t.name().starts_with("ipc/"))
            .expect("ipc experiment present");
        let out = ipc.run();
        assert!(out.capture.is_empty());
        assert_eq!(out.heatmap, Json::Null);
        assert_eq!(out.report.name, ipc.name());
    }

    fn run_entry(name_prefix: &str, tier: TierPolicy) -> Report {
        let entry = catalog_entries(DEFAULT_SEED)
            .into_iter()
            .find(|e| e.name().starts_with(name_prefix))
            .expect("catalog entry present")
            .with_tier(tier);
        let mut m = Machine::new(entry.config());
        entry.drive(&mut m);
        m.report(entry.name().to_string())
    }

    fn counter(r: &Report, name: &str) -> u64 {
        r.metrics.counter_value(name).unwrap_or(0)
    }

    #[test]
    fn with_tier_reorganises_plain_cells_and_keeps_tiered_ones() {
        let cached = run_entry("ipc/impulse", TierPolicy::Cache);
        assert!(counter(&cached, "mc.tier.fill_loads") > 0);

        let plain = run_entry("ipc/impulse", TierPolicy::None);
        assert!(
            plain
                .metrics
                .iter()
                .all(|(k, _)| !k.starts_with("mc.tier.")),
            "an untiered cell exports no tier counters"
        );

        let flat = run_entry("tier/flat/", TierPolicy::Cache);
        assert!(counter(&flat, "mc.tier.flat_scm") > 0);
        assert_eq!(counter(&flat, "mc.tier.fill_loads"), 0, "stays flat");
    }
}

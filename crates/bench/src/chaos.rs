//! Chaos/soak harness: the workload catalog under generated fault
//! schedules.
//!
//! Every case is a (workload × fault-scenario) cell: a fresh
//! [`Machine`] is built with a [`FaultConfig`] derived from the master
//! seed, the workload runs to completion, and the harness collects
//! per-fault-class counts, recovery-cycle attribution, and a list of
//! *invariant violations* — conditions that must never hold on a
//! healthy system, e.g. silent data corruption while ECC is on, or
//! retries exceeding the configured bound. A syscall-misuse probe rides
//! along to check that every typed-error path at the syscall boundary
//! degrades gracefully instead of panicking.
//!
//! Because every fault is drawn from a seeded per-site stream and the
//! job runner returns results in submission order, the emitted
//! `results/chaos.json` is **byte-identical** for a fixed seed at any
//! worker count — that determinism is itself one of the asserted
//! invariants (see the tests).

use std::sync::Arc;

use impulse_fault::{
    BusFaultStats, EccConfig, EccMode, EccStats, FaultConfig, PgTblFaultStats, Trigger,
};
use impulse_obs::Json;
use impulse_os::OsError;
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::VRange;
use impulse_workloads::{
    Diagonal, DiagonalVariant, Smvp, SmvpVariant, SparsePattern, TlbStress, TlbVariant,
};

/// Workloads in the chaos catalog — deliberately small instances of the
/// paper's remapping flavors (strided, scatter/gather, superpage) so the
/// full scenario grid stays fast enough for a CI smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// Strided diagonal walk through a remapped alias.
    Diagonal,
    /// Scatter/gather sparse matrix-vector product.
    Smvp,
    /// Superpage sweep over a TLB-hostile working set.
    Superpage,
}

impl ChaosWorkload {
    /// Every workload in the catalog.
    pub const ALL: [ChaosWorkload; 3] = [
        ChaosWorkload::Diagonal,
        ChaosWorkload::Smvp,
        ChaosWorkload::Superpage,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosWorkload::Diagonal => "diagonal",
            ChaosWorkload::Smvp => "smvp-sg",
            ChaosWorkload::Superpage => "superpage",
        }
    }

    /// Sets up and runs the workload on `m`. Setup failures are bugs in
    /// the harness (the catalog is sized to fit `paint_small`), so they
    /// panic rather than count as fault-injection outcomes.
    fn drive(self, m: &mut Machine) {
        match self {
            ChaosWorkload::Diagonal => {
                let d = Diagonal::setup(m, 512, DiagonalVariant::Remapped).expect("diagonal setup");
                d.run(m, 4);
            }
            ChaosWorkload::Smvp => {
                let pattern = Arc::new(SparsePattern::generate(1500, 10, 0xC9A05));
                let w = Smvp::setup(m, pattern, SmvpVariant::ScatterGather).expect("smvp setup");
                w.run(m, 1);
            }
            ChaosWorkload::Superpage => {
                let w = TlbStress::setup(m, 4, 32, TlbVariant::Superpages).expect("tlb setup");
                w.sweep(m, 2);
            }
        }
    }
}

/// One injectable fault class, registered exactly once and consumed in
/// three places: the scenario grid (each class names its dedicated
/// single-class scenarios), the `storm` mixer (each class contributes
/// its storm-mix knobs), and the `results/chaos.json` totals section
/// (each class emits its counter rollup under `key`). Adding a fault
/// class means adding one registry row — the grid, the storm, and the
/// document schema pick it up from here, so they can never drift apart.
pub struct FaultClass {
    /// Stable totals key in `results/chaos.json` (`dram_ecc`, ...).
    pub key: &'static str,
    /// The dedicated single-class scenarios exercising this class.
    pub scenarios: &'static [FaultScenario],
    /// Adds this class's storm-mix knobs to a schedule.
    storm: fn(&mut FaultConfig),
    /// Emits this class's totals rollup over a finished grid.
    totals: fn(&[ChaosOutcome]) -> Json,
}

/// The chaos fault-class registry, in stable document order.
pub const FAULT_CLASSES: [FaultClass; 3] = [
    FaultClass {
        key: "dram_ecc",
        scenarios: &[
            FaultScenario::DramEcc,
            FaultScenario::DramDouble,
            FaultScenario::DramNoEcc,
        ],
        storm: |f| {
            f.dram_flip = Trigger::EveryN {
                every: 11,
                phase: 3,
            };
            f.dram_double_permille = 100;
        },
        totals: |outcomes| {
            let sum = |g: fn(&ChaosOutcome) -> u64| outcomes.iter().map(g).sum::<u64>();
            let mut dram = Json::obj();
            dram.set("corrected", Json::UInt(sum(|o| o.ecc.corrected)));
            dram.set(
                "detected_double",
                Json::UInt(sum(|o| o.ecc.detected_double)),
            );
            dram.set("silent", Json::UInt(sum(|o| o.ecc.silent)));
            dram.set(
                "recovery_cycles",
                Json::UInt(sum(|o| o.ecc.recovery_cycles)),
            );
            dram
        },
    },
    FaultClass {
        key: "bus",
        scenarios: &[FaultScenario::BusTimeout],
        storm: |f| f.bus_timeout = Trigger::Permille(20),
        totals: |outcomes| {
            let sum = |g: fn(&ChaosOutcome) -> u64| outcomes.iter().map(g).sum::<u64>();
            let mut bus = Json::obj();
            bus.set("timeouts", Json::UInt(sum(|o| o.bus.timeouts)));
            bus.set("retries", Json::UInt(sum(|o| o.bus.retries)));
            bus.set(
                "recovery_cycles",
                Json::UInt(sum(|o| o.bus.recovery_cycles)),
            );
            bus
        },
    },
    FaultClass {
        key: "pgtbl",
        scenarios: &[FaultScenario::PgTbl],
        storm: |f| f.pgtbl_corrupt = Trigger::Permille(10),
        totals: |outcomes| {
            let sum = |g: fn(&ChaosOutcome) -> u64| outcomes.iter().map(g).sum::<u64>();
            let mut pgtbl = Json::obj();
            pgtbl.set("corruptions", Json::UInt(sum(|o| o.pgtbl.corruptions)));
            pgtbl.set("reloads", Json::UInt(sum(|o| o.pgtbl.reloads)));
            pgtbl.set(
                "recovery_cycles",
                Json::UInt(sum(|o| o.pgtbl.recovery_cycles)),
            );
            pgtbl
        },
    },
];

/// Fault scenarios the grid crosses with each workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScenario {
    /// Fault-free control run: every fault counter must stay zero.
    Control,
    /// Single-bit DRAM flips under SECDED: all corrected, zero
    /// data-diff.
    DramEcc,
    /// DRAM flips with a double-bit fraction under SECDED: doubles are
    /// detected (known corruption), never silent.
    DramDouble,
    /// DRAM flips with ECC disabled: corruption passes silently and the
    /// data signature goes dirty.
    DramNoEcc,
    /// Bus request timeouts with bounded exponential-backoff retry.
    BusTimeout,
    /// MC-TLB/page-table entry corruption with detect-and-reload.
    PgTbl,
    /// Every fault class at once.
    Storm,
}

impl FaultScenario {
    /// Every scenario in the grid.
    pub const ALL: [FaultScenario; 7] = [
        FaultScenario::Control,
        FaultScenario::DramEcc,
        FaultScenario::DramDouble,
        FaultScenario::DramNoEcc,
        FaultScenario::BusTimeout,
        FaultScenario::PgTbl,
        FaultScenario::Storm,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Control => "control",
            FaultScenario::DramEcc => "dram-ecc",
            FaultScenario::DramDouble => "dram-double",
            FaultScenario::DramNoEcc => "dram-noecc",
            FaultScenario::BusTimeout => "bus-timeout",
            FaultScenario::PgTbl => "pgtbl-corrupt",
            FaultScenario::Storm => "storm",
        }
    }

    /// The fault schedule this scenario attaches under `seed`.
    pub fn config(self, seed: u64) -> FaultConfig {
        let base = FaultConfig {
            seed,
            ..FaultConfig::none()
        };
        let flips = Trigger::EveryN { every: 7, phase: 0 };
        match self {
            FaultScenario::Control => base,
            FaultScenario::DramEcc => FaultConfig {
                dram_flip: flips,
                ..base
            },
            FaultScenario::DramDouble => FaultConfig {
                dram_flip: flips,
                dram_double_permille: 250,
                ..base
            },
            FaultScenario::DramNoEcc => FaultConfig {
                dram_flip: flips,
                ecc: EccConfig {
                    mode: EccMode::None,
                    ..EccConfig::default()
                },
                ..base
            },
            FaultScenario::BusTimeout => FaultConfig {
                bus_timeout: Trigger::Permille(50),
                ..base
            },
            FaultScenario::PgTbl => FaultConfig {
                pgtbl_corrupt: Trigger::Permille(20),
                ..base
            },
            FaultScenario::Storm => {
                // Every registered fault class at once: the storm mix is
                // whatever the registry says, never a hand-kept copy.
                let mut f = base;
                for class in &FAULT_CLASSES {
                    (class.storm)(&mut f);
                }
                f
            }
        }
    }

    /// Whether the schedule must leave the visible data byte-identical
    /// to a fault-free run (`corrupt_sig == 0`). True everywhere except
    /// where corruption is *expected*: uncorrectable doubles and
    /// ECC-disabled runs.
    pub fn expects_clean_data(self) -> bool {
        !matches!(
            self,
            FaultScenario::DramDouble | FaultScenario::DramNoEcc | FaultScenario::Storm
        )
    }
}

/// Everything one chaos case produced: identity, cost, per-fault-class
/// counts, and any invariant violations observed in that run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Workload label.
    pub workload: String,
    /// Fault-scenario label.
    pub scenario: String,
    /// Simulated cycles the run took.
    pub cycles: u64,
    /// Instructions the run retired.
    pub instructions: u64,
    /// ECC bookkeeping (corrected / detected / silent / data signature).
    pub ecc: EccStats,
    /// Bus timeout/retry bookkeeping.
    pub bus: BusFaultStats,
    /// MC page-table corruption/reload bookkeeping.
    pub pgtbl: PgTblFaultStats,
    /// Shadow accesses that degraded to the non-remapped NACK path.
    pub remap_faults: u64,
    /// Controller-side NACKed reads.
    pub rejected_reads: u64,
    /// Controller-side NACKed writes.
    pub rejected_writes: u64,
    /// Syscalls that returned a typed error (and charged trap cost).
    pub syscall_failures: u64,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
}

/// Collects counters and per-case invariants from a finished machine.
fn collect(
    workload: &'static str,
    scenario: FaultScenario,
    faults: &FaultConfig,
    m: &Machine,
) -> ChaosOutcome {
    let ms = m.memory();
    let stats = ms.stats();
    let mc = ms.mc().stats();
    let ecc = ms.mc().ecc_stats();
    let bus = ms.bus().fault_stats();
    let pgtbl = ms.mc().pgtbl_fault_stats();

    let mut violations = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("{workload}/{}: {what}", scenario.name()));
        }
    };

    // Demand attribution must stay exact under every fault schedule.
    check(
        ms.attribution().total() == stats.load_cycles + stats.store_cycles,
        "attribution total != demand cycles",
    );
    // So must the demand-latency histograms, L1 hits folded in.
    let (load_lat, store_lat) = (ms.load_latency(), ms.store_latency());
    check(
        load_lat.count() == stats.loads && load_lat.sum() == stats.load_cycles,
        "load latency histogram != demand loads and cycles",
    );
    check(
        store_lat.count() == stats.stores && store_lat.sum() == stats.store_cycles,
        "store latency histogram != demand stores and cycles",
    );
    // No silent data corruption while ECC is on.
    if faults.ecc.mode == EccMode::Secded {
        check(ecc.silent == 0, "silent corruption with SECDED enabled");
    }
    if scenario.expects_clean_data() {
        check(ecc.corrupt_sig == 0, "data signature dirty");
    }
    // Retries are bounded by the configured budget.
    check(
        bus.retries <= bus.timeouts * u64::from(faults.bus_max_retries),
        "bus retries exceed the configured bound",
    );
    // Every detected page-table corruption is recovered by a reload.
    check(
        pgtbl.reloads == pgtbl.corruptions,
        "pgtbl corruption without a matching reload",
    );
    // A fault-free schedule must observe zero fault activity.
    if faults.is_none() {
        check(
            ecc.corrected + ecc.detected_double + ecc.silent == 0
                && bus.timeouts == 0
                && pgtbl.corruptions == 0,
            "fault counters nonzero on a fault-free schedule",
        );
    }

    ChaosOutcome {
        workload: workload.to_string(),
        scenario: scenario.name().to_string(),
        cycles: m.now(),
        instructions: m.instructions(),
        ecc,
        bus,
        pgtbl,
        remap_faults: stats.remap_faults,
        rejected_reads: mc.rejected_reads,
        rejected_writes: mc.rejected_writes,
        syscall_failures: m.syscall_failures(),
        violations,
    }
}

/// Runs one (workload × scenario) cell under `seed`.
pub fn run_case(w: ChaosWorkload, s: FaultScenario, seed: u64) -> ChaosOutcome {
    let faults = s.config(seed);
    let cfg = SystemConfig::paint_small().with_faults(faults.clone());
    let mut m = Machine::new(&cfg);
    w.drive(&mut m);
    collect(w.name(), s, &faults, &m)
}

/// Syscall-misuse probe: drives every typed-error path at the syscall
/// boundary on a machine with a nearly-empty shadow pool and checks
/// that each misuse returns the documented error — and that the machine
/// keeps working afterwards — instead of panicking.
pub fn run_misuse_probe(seed: u64) -> ChaosOutcome {
    let mut cfg = SystemConfig::paint_small().with_faults(FaultScenario::Control.config(seed));
    cfg.kernel.shadow_span = 2 * PAGE_SIZE;
    let faults = cfg.faults.clone();
    let mut m = Machine::new(&cfg);

    let mut violations = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("misuse-probe: {what}"));
        }
    };

    let a = m.alloc_region(64 * PAGE_SIZE, PAGE_SIZE).expect("alloc");

    // Zero stride is malformed descriptor geometry.
    let r = m.sys_remap_strided(a.start(), 64, 0, 8, 4096);
    check(
        matches!(r, Err(OsError::InvalidArg(_))),
        "zero stride not rejected as InvalidArg",
    );

    // A gather index one past the end of a 128-element target. The
    // target range is sized exactly (allocation is page-granular).
    let x = m.alloc_region(128 * 8, 128).expect("alloc x");
    let col = m.alloc_region(3 * 4, 128).expect("alloc col");
    let target = VRange::new(x.start(), 128 * 8);
    let r = m.sys_remap_gather(target, 8, Arc::new(vec![0, 5, 128]), col, 4);
    check(
        matches!(
            r,
            Err(OsError::IndexOutOfBounds {
                index: 128,
                limit: 128
            })
        ),
        "OOB gather index not rejected as IndexOutOfBounds",
    );

    // A dense alias larger than the 2-page shadow pool.
    let r = m.sys_remap_strided(a.start(), 8, 8, 2048, PAGE_SIZE);
    check(
        matches!(r, Err(OsError::ShadowExhausted { .. })),
        "oversized alias not rejected as ShadowExhausted",
    );

    // The machine degrades, not dies: failed syscalls charged trap cost
    // and the remap machinery still works within the remaining pool.
    check(
        m.syscall_failures() == 3,
        "failed syscalls not counted as 3",
    );
    m.load(a.start());
    let r = m.sys_remap_strided(a.start(), 8, 8, 16, 4096);
    check(r.is_ok(), "well-formed remap fails after recovered misuse");
    if let Ok(g) = r {
        m.load(g.alias.start());
    }

    let mut out = collect("misuse-probe", FaultScenario::Control, &faults, &m);
    out.violations.extend(violations);
    out
}

/// The full chaos grid: every workload × every fault scenario, plus the
/// syscall-misuse probe — in a deterministic submission order.
pub fn chaos_jobs(seed: u64) -> Vec<Box<dyn FnOnce() -> ChaosOutcome + Send>> {
    let mut jobs: Vec<Box<dyn FnOnce() -> ChaosOutcome + Send>> = Vec::new();
    for w in ChaosWorkload::ALL {
        for s in FaultScenario::ALL {
            jobs.push(Box::new(move || run_case(w, s, seed)));
        }
    }
    jobs.push(Box::new(move || run_misuse_probe(seed)));
    jobs
}

/// Invariants only visible across the whole grid: recovery costs
/// cycles, so no fault scenario that actually paid recovery cycles may
/// beat its fault-free control, and the ECC schedule must actually have
/// fired on every workload.
pub fn cross_case_violations(outcomes: &[ChaosOutcome]) -> Vec<String> {
    let mut v = Vec::new();
    let control = |w: &str| {
        outcomes
            .iter()
            .find(|o| o.workload == w && o.scenario == FaultScenario::Control.name())
    };
    for o in outcomes {
        let Some(c) = control(&o.workload) else {
            v.push(format!("{}: no fault-free control run", o.workload));
            continue;
        };
        let recovery = o.ecc.recovery_cycles + o.bus.recovery_cycles + o.pgtbl.recovery_cycles;
        if recovery > 0 && o.cycles < c.cycles {
            v.push(format!(
                "{}/{}: paid {recovery} recovery cycles yet beat its control ({} < {})",
                o.workload, o.scenario, o.cycles, c.cycles
            ));
        }
        if o.scenario == FaultScenario::DramEcc.name() && o.ecc.corrected == 0 {
            v.push(format!(
                "{}/{}: ECC schedule never fired",
                o.workload, o.scenario
            ));
        }
    }
    v
}

/// JSON for one chaos case.
fn case_json(o: &ChaosOutcome) -> Json {
    let mut c = Json::obj();
    c.set("workload", Json::Str(o.workload.clone()));
    c.set("scenario", Json::Str(o.scenario.clone()));
    c.set("cycles", Json::UInt(o.cycles));
    c.set("instructions", Json::UInt(o.instructions));

    let mut ecc = Json::obj();
    ecc.set("corrected", Json::UInt(o.ecc.corrected));
    ecc.set("detected_double", Json::UInt(o.ecc.detected_double));
    ecc.set("silent", Json::UInt(o.ecc.silent));
    ecc.set("corrupt_sig", Json::UInt(o.ecc.corrupt_sig));
    ecc.set("recovery_cycles", Json::UInt(o.ecc.recovery_cycles));
    c.set("ecc", ecc);

    let mut bus = Json::obj();
    bus.set("timeouts", Json::UInt(o.bus.timeouts));
    bus.set("retries", Json::UInt(o.bus.retries));
    bus.set("recovery_cycles", Json::UInt(o.bus.recovery_cycles));
    c.set("bus", bus);

    let mut pgtbl = Json::obj();
    pgtbl.set("corruptions", Json::UInt(o.pgtbl.corruptions));
    pgtbl.set("reloads", Json::UInt(o.pgtbl.reloads));
    pgtbl.set("recovery_cycles", Json::UInt(o.pgtbl.recovery_cycles));
    c.set("pgtbl", pgtbl);

    c.set("remap_faults", Json::UInt(o.remap_faults));
    c.set("rejected_reads", Json::UInt(o.rejected_reads));
    c.set("rejected_writes", Json::UInt(o.rejected_writes));
    c.set("syscall_failures", Json::UInt(o.syscall_failures));
    c.set(
        "violations",
        Json::Arr(o.violations.iter().map(|s| Json::Str(s.clone())).collect()),
    );
    c
}

/// Serializes a chaos run: schema `impulse-chaos-v2`, per-case counts,
/// per-fault-class totals with recovery-cycle attribution, and the
/// flattened violation list (`ok` is true iff it is empty).
pub fn chaos_document(seed: u64, outcomes: &[ChaosOutcome]) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("impulse-chaos-v2".into()));
    doc.set("seed", Json::UInt(seed));
    doc.set("cases", Json::Arr(outcomes.iter().map(case_json).collect()));

    let sum = |f: fn(&ChaosOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let mut totals = Json::obj();
    // Per-class totals come from the registry, in registry order — the
    // document schema and the storm mix share one source of truth.
    for class in &FAULT_CLASSES {
        totals.set(class.key, (class.totals)(outcomes));
    }
    let mut degrade = Json::obj();
    degrade.set("remap_faults", Json::UInt(sum(|o| o.remap_faults)));
    degrade.set("rejected_reads", Json::UInt(sum(|o| o.rejected_reads)));
    degrade.set("rejected_writes", Json::UInt(sum(|o| o.rejected_writes)));
    degrade.set("syscall_failures", Json::UInt(sum(|o| o.syscall_failures)));
    totals.set("degrade", degrade);
    doc.set("totals", totals);

    let violations: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.violations.iter().cloned())
        .chain(cross_case_violations(outcomes))
        .collect();
    doc.set(
        "violations",
        Json::Arr(violations.iter().map(|s| Json::Str(s.clone())).collect()),
    );
    doc.set("ok", Json::Bool(violations.is_empty()));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn ecc_scenario_corrects_all_singles_with_zero_data_diff() {
        let o = run_case(ChaosWorkload::Diagonal, FaultScenario::DramEcc, 1999);
        assert!(o.ecc.corrected > 0, "schedule fired");
        assert_eq!(o.ecc.detected_double, 0);
        assert_eq!(o.ecc.silent, 0);
        assert_eq!(o.ecc.corrupt_sig, 0, "corrected data is byte-identical");
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn no_ecc_scenario_shows_tracked_silent_corruption() {
        let o = run_case(ChaosWorkload::Smvp, FaultScenario::DramNoEcc, 7);
        assert!(o.ecc.silent > 0);
        assert_ne!(o.ecc.corrupt_sig, 0, "corruption leaves a signature");
        assert_eq!(o.ecc.recovery_cycles, 0, "no ECC, no datapath penalty");
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn storm_keeps_every_bound() {
        for w in ChaosWorkload::ALL {
            let o = run_case(w, FaultScenario::Storm, 0xC4A05);
            assert!(o.violations.is_empty(), "{:?}", o.violations);
        }
    }

    #[test]
    fn misuse_probe_reports_typed_errors_and_recovers() {
        let o = run_misuse_probe(1999);
        assert_eq!(o.syscall_failures, 3);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn registry_covers_grid_storm_and_document() {
        // Every registered class contributes knobs to the storm mix...
        let quiet = FaultConfig::none();
        for class in &FAULT_CLASSES {
            let mut f = FaultConfig::none();
            (class.storm)(&mut f);
            assert!(
                format!("{f:?}") != format!("{quiet:?}"),
                "{} contributes nothing to the storm",
                class.key
            );
            // ...names at least one dedicated scenario in the grid...
            assert!(
                !class.scenarios.is_empty(),
                "{} has no dedicated scenario",
                class.key
            );
            for s in class.scenarios {
                assert!(FaultScenario::ALL.contains(s), "{} not in grid", s.name());
            }
        }
        // ...and owns a totals section in the emitted document.
        let doc = chaos_document(1, &[]);
        let totals = doc.get("totals").expect("totals section");
        for class in &FAULT_CLASSES {
            assert!(
                totals.get(class.key).is_some(),
                "totals missing `{}`",
                class.key
            );
        }
    }

    #[test]
    fn chaos_grid_is_deterministic_across_worker_counts() {
        let run = |workers| {
            let outcomes = runner::run_ordered(chaos_jobs(1999), workers);
            format!("{:#}\n", chaos_document(1999, &outcomes))
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel, "chaos.json must not depend on workers");
        assert!(serial.contains("impulse-chaos-v2"));
        assert!(serial.contains("\"ok\": true"), "grid is violation-free");
    }
}

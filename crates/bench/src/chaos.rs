//! Fault-injection suites: the workload catalog under generated fault
//! schedules, and the hybrid DRAM/SCM tier engine under every fault plane
//! it models, run from one scenario table.
//!
//! The table holds two suites, each written to its own document:
//!
//! * **`chaos.json`** (schema `impulse-chaos-v2`): every (workload ×
//!   fault-scenario) cell builds a fresh [`Machine`] with a
//!   [`FaultConfig`] derived from the master seed, runs the workload to
//!   completion, and collects per-fault-class counts, recovery-cycle
//!   attribution, and a list of *invariant violations*: conditions that
//!   must never hold on a healthy system, e.g. silent data corruption
//!   while ECC is on, or retries exceeding the configured bound. A
//!   syscall-misuse probe rides along to check that every typed-error
//!   path at the syscall boundary degrades gracefully instead of
//!   panicking.
//! * **`chaos_tier.json`** (schema `impulse-tier-chaos-v1`): seven
//!   scenarios drive the tier engine through SCM raw bit errors drained
//!   through SECDED, write wear retiring lines onto spares and then
//!   surfacing typed [`McError::LineRetired`] errors, tag-array
//!   corruption detected and refetched from the authoritative SCM copy,
//!   and the tier-fail trigger killing DRAM channels mid-run (flat mode
//!   rejects with typed [`McError::TierDegraded`], cache mode degrades to
//!   SCM bypass). A tier fault is *corrected, typed, or counted — never
//!   silent, never a hang*.
//!
//! Every case draws only from the seed and [`run`] fans the whole table
//! through one [`runner::run_ordered`] call, which returns results in
//! submission order, so both documents are **byte-identical** for a
//! fixed seed at any worker count. That determinism is itself one of
//! the asserted invariants (see the tests).

use std::sync::Arc;

use impulse_core::{McError, TierConfig, TierEngine};
use impulse_dram::{Dram, DramConfig, ScmConfig};
use impulse_fault::{EccConfig, EccMode, FaultConfig, Trigger};
use impulse_obs::Json;
use impulse_os::OsError;
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::{AccessKind, MAddr, TierPolicy, VRange};
use impulse_workloads::{
    Diagonal, DiagonalVariant, Smvp, SmvpVariant, SparsePattern, TlbStress, TlbVariant,
};

use crate::runner;

/// An object of `stats`' named counter fields, keyed by field name, in
/// the order given.
macro_rules! counters {
    ($stats:expr; $($field:ident),+ $(,)?) => {{
        let mut obj = Json::obj();
        $(obj.set(stringify!($field), Json::UInt($stats.$field));)+
        obj
    }};
}

/// Everything one case produced: its counters and the invariant
/// violations observed in that run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The case's labels and counters, as the ordered JSON object its
    /// document entry carries ahead of `violations`.
    pub counters: Json,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The field at a dotted `path` (`cycles`, `ecc.corrected`).
    fn field(&self, path: &str) -> &Json {
        path.split('.')
            .try_fold(&self.counters, |json, key| json.get(key))
            .unwrap_or_else(|| panic!("case has no `{path}`"))
    }

    /// The counter at a dotted `path`.
    ///
    /// # Panics
    ///
    /// Panics if the case has no such counter.
    pub fn count(&self, path: &str) -> u64 {
        let n = self.field(path).as_u64();
        n.unwrap_or_else(|| panic!("`{path}` is not a counter"))
    }

    /// The label at `key` (`workload`, `scenario`).
    fn label(&self, key: &str) -> &str {
        let s = self.field(key).as_str();
        s.unwrap_or_else(|| panic!("`{key}` is not a label"))
    }

    /// Adds `n` to the counter at a dotted `path`.
    fn add(&mut self, path: &str, n: u64) {
        let mut json = &mut self.counters;
        for key in path.split('.') {
            let Json::Obj(fields) = json else { break };
            json = &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("counter")
                .1;
        }
        match json {
            Json::UInt(v) => *v += n,
            _ => panic!("`{path}` is not a counter"),
        }
    }
}

/// Sums the counter at a dotted `path` over `outcomes`.
fn sum(outcomes: &[Outcome], path: &str) -> u64 {
    outcomes.iter().map(|o| o.count(path)).sum()
}

/// An object of counter sums over `outcomes`, one per path, each keyed by
/// the path's last segment.
fn sums(outcomes: &[Outcome], paths: &[&str]) -> Json {
    let mut totals = Json::obj();
    for path in paths {
        let key = path.rsplit('.').next().unwrap_or(path);
        totals.set(key, Json::UInt(sum(outcomes, path)));
    }
    totals
}

/// One fault suite: the document its cases land in.
pub struct Suite {
    /// The document's file name.
    pub file: &'static str,
    /// The document's schema.
    pub schema: &'static str,
    /// The counters a run prints per case, as (header, counter path).
    pub columns: &'static [(&'static str, &'static str)],
    /// The document's whole-run totals.
    totals: fn(&[Outcome]) -> Json,
    /// Invariants only visible across the whole suite.
    checks: fn(&[Outcome]) -> Vec<String>,
}

/// The two suites, in the order [`run`] returns them.
pub static SUITES: [Suite; 2] = [
    Suite {
        file: "chaos.json",
        schema: "impulse-chaos-v2",
        columns: &[
            ("cycles", "cycles"),
            ("ecc.corr", "ecc.corrected"),
            ("ecc.det", "ecc.detected_double"),
            ("bus.tmo", "bus.timeouts"),
            ("pgtbl", "pgtbl.corruptions"),
        ],
        totals: chaos_totals,
        checks: cross_case_violations,
    },
    Suite {
        file: "chaos_tier.json",
        schema: "impulse-tier-chaos-v1",
        columns: &[
            ("cycles", "cycles"),
            ("accesses", "accesses"),
            ("typed", "typed_faults"),
            ("retired", "scm.wear_retirements"),
            ("kills", "fault.channel_kills"),
            ("tagcorr", "fault.tag_corruptions"),
            ("eccfix", "ecc.corrected"),
        ],
        totals: tier_totals,
        checks: |_| Vec::new(),
    },
];

impl Suite {
    /// Serializes a run of this suite: the schema, the seed, each case's
    /// counters and violations, the whole-run totals, and the flattened
    /// violation list (each case's, then the suite-level checks'); `ok`
    /// is true iff that list is empty.
    pub fn document(&self, seed: u64, outcomes: &[Outcome]) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let mut doc = Json::obj();
        doc.set("schema", Json::Str(self.schema.into()));
        doc.set("seed", Json::UInt(seed));
        let cases = outcomes.iter().map(|o| {
            let mut case = o.counters.clone();
            case.set("violations", strings(&o.violations));
            case
        });
        doc.set("cases", Json::Arr(cases.collect()));
        doc.set("totals", (self.totals)(outcomes));
        let violations: Vec<String> = outcomes
            .iter()
            .flat_map(|o| o.violations.iter().cloned())
            .chain((self.checks)(outcomes))
            .collect();
        doc.set("violations", strings(&violations));
        doc.set("ok", Json::Bool(violations.is_empty()));
        doc
    }
}

/// One entry of the scenario table.
struct Scenario {
    /// The suite whose document the case lands in.
    suite: &'static Suite,
    /// `workload/scenario` for a grid cell, the scenario's label otherwise.
    name: String,
    /// Runs the case under a master seed.
    run: Box<dyn Fn(u64) -> Outcome + Send + Sync>,
}

/// The scenario table, in document order: every workload × every fault
/// scenario and the syscall-misuse probe (`chaos.json`), then the tier
/// scenarios (`chaos_tier.json`).
fn scenarios() -> Vec<Scenario> {
    let [chaos, tier] = &SUITES;
    let mut table = Vec::new();
    let mut push = |suite, name, run: Box<dyn Fn(u64) -> Outcome + Send + Sync>| {
        table.push(Scenario { suite, name, run });
    };
    for w in ChaosWorkload::ALL {
        for s in FaultScenario::ALL {
            let name = format!("{}/{}", w.name(), s.name());
            push(chaos, name, Box::new(move |seed| run_case(w, s, seed)));
        }
    }
    push(chaos, "misuse-probe".into(), Box::new(run_misuse_probe));
    for s in TierScenario::ALL {
        push(
            tier,
            s.name().into(),
            Box::new(move |seed| run_tier_case(s, seed)),
        );
    }
    table
}

/// One suite's cases after a run, in table order.
pub struct SuiteRun {
    /// The suite.
    pub suite: &'static Suite,
    /// Each case's scenario name.
    pub names: Vec<String>,
    /// Each case's outcome.
    pub outcomes: Vec<Outcome>,
}

/// Runs the whole scenario table under `seed` on `jobs` workers and
/// returns each suite's cases, in [`SUITES`] order.
pub fn run(seed: u64, jobs: usize) -> Vec<SuiteRun> {
    let table = scenarios();
    let cases = table.iter().map(|s| move || (s.run)(seed)).collect();
    let outcomes = runner::run_ordered(cases, jobs);
    let suite_run = |suite: &'static Suite| {
        let (names, outcomes) = table
            .iter()
            .zip(&outcomes)
            .filter(|(s, _)| std::ptr::eq(s.suite, suite))
            .map(|(s, o)| (s.name.clone(), o.clone()))
            .unzip();
        SuiteRun {
            suite,
            names,
            outcomes,
        }
    };
    SUITES.iter().map(suite_run).collect()
}

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
/// (each class sums its counters under `key`). Adding a fault class
/// means adding one registry row — the grid, the storm, and the document
/// schema pick it up from here, so they can never drift apart.
pub struct FaultClass {
    /// Stable totals key in `results/chaos.json` (`dram_ecc`, ...).
    pub key: &'static str,
    /// The dedicated single-class scenarios exercising this class.
    pub scenarios: &'static [FaultScenario],
    /// Adds this class's storm-mix knobs to a schedule.
    storm: fn(&mut FaultConfig),
    /// The case counters this class's totals section sums, each under
    /// its last path segment.
    counters: &'static [&'static str],
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
        counters: &[
            "ecc.corrected",
            "ecc.detected_double",
            "ecc.silent",
            "ecc.recovery_cycles",
        ],
    },
    FaultClass {
        key: "bus",
        scenarios: &[FaultScenario::BusTimeout],
        storm: |f| f.bus_timeout = Trigger::Permille(20),
        counters: &["bus.timeouts", "bus.retries", "bus.recovery_cycles"],
    },
    FaultClass {
        key: "pgtbl",
        scenarios: &[FaultScenario::PgTbl],
        storm: |f| f.pgtbl_corrupt = Trigger::Permille(10),
        counters: &[
            "pgtbl.corruptions",
            "pgtbl.reloads",
            "pgtbl.recovery_cycles",
        ],
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

/// Collects counters and per-case invariants from a finished machine.
fn collect(
    workload: &'static str,
    scenario: FaultScenario,
    faults: &FaultConfig,
    m: &Machine,
) -> Outcome {
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

    let mut counters = Json::obj();
    counters.set("workload", Json::Str(workload.to_string()));
    counters.set("scenario", Json::Str(scenario.name().to_string()));
    counters.set("cycles", Json::UInt(m.now()));
    counters.set("instructions", Json::UInt(m.instructions()));
    let ecc = counters!(ecc; corrected, detected_double, silent, corrupt_sig, recovery_cycles);
    counters.set("ecc", ecc);
    counters.set("bus", counters!(bus; timeouts, retries, recovery_cycles));
    counters.set(
        "pgtbl",
        counters!(pgtbl; corruptions, reloads, recovery_cycles),
    );
    for (key, n) in [
        ("remap_faults", stats.remap_faults),
        ("rejected_reads", mc.rejected_reads),
        ("rejected_writes", mc.rejected_writes),
        ("syscall_failures", m.syscall_failures()),
    ] {
        counters.set(key, Json::UInt(n));
    }
    Outcome {
        counters,
        violations,
    }
}

/// Runs one (workload × scenario) cell under `seed`.
pub fn run_case(w: ChaosWorkload, s: FaultScenario, seed: u64) -> Outcome {
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
pub fn run_misuse_probe(seed: u64) -> Outcome {
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

/// `chaos.json`'s totals: each fault class's counters, in registry order,
/// then the graceful-degradation counters.
fn chaos_totals(outcomes: &[Outcome]) -> Json {
    let mut totals = Json::obj();
    // Per-class totals come from the registry — the document schema and
    // the storm mix share one source of truth.
    for class in &FAULT_CLASSES {
        totals.set(class.key, sums(outcomes, class.counters));
    }
    let degrade = [
        "remap_faults",
        "rejected_reads",
        "rejected_writes",
        "syscall_failures",
    ];
    totals.set("degrade", sums(outcomes, &degrade));
    totals
}

/// Invariants only visible across the whole grid: recovery costs
/// cycles, so no fault scenario that actually paid recovery cycles may
/// beat its fault-free control, and the ECC schedule must actually have
/// fired on every workload.
fn cross_case_violations(outcomes: &[Outcome]) -> Vec<String> {
    let mut v = Vec::new();
    let control = |w: &str| {
        outcomes.iter().find(|o| {
            o.label("workload") == w && o.label("scenario") == FaultScenario::Control.name()
        })
    };
    for o in outcomes {
        let (workload, scenario) = (o.label("workload"), o.label("scenario"));
        let Some(c) = control(workload) else {
            v.push(format!("{workload}: no fault-free control run"));
            continue;
        };
        let recovery = o.count("ecc.recovery_cycles")
            + o.count("bus.recovery_cycles")
            + o.count("pgtbl.recovery_cycles");
        let (cycles, control_cycles) = (o.count("cycles"), c.count("cycles"));
        if recovery > 0 && cycles < control_cycles {
            v.push(format!(
                "{workload}/{scenario}: paid {recovery} recovery cycles yet beat its control \
                 ({cycles} < {control_cycles})"
            ));
        }
        if scenario == FaultScenario::DramEcc.name() && o.count("ecc.corrected") == 0 {
            v.push(format!("{workload}/{scenario}: ECC schedule never fired"));
        }
    }
    v
}

/// Controller line size the suite drives the engine at.
const LINE: u64 = 128;

/// Scenarios in the hybrid-tier suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierScenario {
    /// An indirection-vector gather storm over cold SCM: the MC-side
    /// fill buffer must serve it without thrashing the DRAM cache.
    ColdGatherStorm,
    /// Scatter churn under a tiny wear budget: lines retire onto spares,
    /// the spares wear out, and dead lines surface as typed errors.
    WearOutScatterChurn,
    /// Scheduled tag-array corruption: detected at lookup, the set is
    /// invalidated and refetched from SCM, lost dirty lines counted.
    TagCorruption,
    /// The tier-fail trigger fires mid-gather: flat mode aborts the
    /// batch with a typed error, cache mode completes it via bypass.
    ChannelKillMidGather,
    /// SCM raw-bit-error sweep across the double-error fraction: SECDED
    /// corrects singles, detects doubles, and never passes one silently.
    EccAsymmetrySweep,
    /// With every DRAM channel dead, cache mode serves purely by SCM
    /// bypass — and does exactly the SCM work flat mode would.
    BypassModeParity,
}

impl TierScenario {
    /// Every scenario in the suite.
    pub const ALL: [TierScenario; 6] = [
        TierScenario::ColdGatherStorm,
        TierScenario::WearOutScatterChurn,
        TierScenario::TagCorruption,
        TierScenario::ChannelKillMidGather,
        TierScenario::EccAsymmetrySweep,
        TierScenario::BypassModeParity,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TierScenario::ColdGatherStorm => "cold-gather-storm",
            TierScenario::WearOutScatterChurn => "wear-out-scatter-churn",
            TierScenario::TagCorruption => "tag-corruption",
            TierScenario::ChannelKillMidGather => "channel-kill-mid-gather",
            TierScenario::EccAsymmetrySweep => "ecc-asymmetry-sweep",
            TierScenario::BypassModeParity => "bypass-mode-parity",
        }
    }
}

/// Collects engine counters and the universal graceful-degradation
/// invariants from a finished tier engine.
fn collect_tier(
    scenario: TierScenario,
    eng: &TierEngine,
    cycles: u64,
    accesses: u64,
    typed_faults: u64,
    mut violations: Vec<String>,
) -> Outcome {
    let name = scenario.name();
    let tier = eng.stats();
    let scm = eng.scm_stats();
    let fault = eng.fault_stats();
    let ecc = eng.scm_ecc_stats();
    // SECDED never passes a flip silently; a nonzero count means the
    // ECC plane was bypassed somewhere in the tier path.
    if ecc.silent != 0 {
        violations.push(format!(
            "{name}: {} SCM flips passed silently under SECDED",
            ecc.silent
        ));
    }
    // Every detected tag corruption is recovered by invalidation.
    if fault.tag_corruptions != fault.tag_invalidations {
        violations.push(format!(
            "{name}: {} tag corruptions but {} invalidations",
            fault.tag_corruptions, fault.tag_invalidations
        ));
    }
    // Every touch of a dead SCM line is accounted for — either as a
    // typed demand reject or as a counted lost writeback. More dead
    // rejects than accounted events means one went silent.
    if scm.dead_rejects > tier.degraded_rejects + tier.lost_writebacks {
        violations.push(format!(
            "{name}: {} dead-line rejects but only {} counted",
            scm.dead_rejects,
            tier.degraded_rejects + tier.lost_writebacks
        ));
    }
    let mut counters = Json::obj();
    counters.set("scenario", Json::Str(name.to_string()));
    counters.set("cycles", Json::UInt(cycles));
    counters.set("accesses", Json::UInt(accesses));
    counters.set("typed_faults", Json::UInt(typed_faults));
    let tier = counters!(tier; dram_hits, dram_misses, writebacks, lost_writebacks,
        fill_hits, fill_loads, flat_dram, flat_scm, degraded_rejects);
    let scm = counters!(scm; reads, writes, bytes, channel_wait, wear_retirements, dead_rejects);
    let fault = counters!(fault; tag_corruptions, tag_invalidations, channel_kills,
        bypass_reads, bypass_writes, lost_dirty_lines, recovery_cycles);
    let ecc = counters!(ecc; corrected, detected_double, silent, recovery_cycles);
    for (key, obj) in [("tier", tier), ("scm", scm), ("fault", fault), ("ecc", ecc)] {
        counters.set(key, obj);
    }
    Outcome {
        counters,
        violations,
    }
}

/// A 64 KB DRAM front (512 sets of 128 B) — small enough that modest
/// working sets exercise eviction, writeback, and wear.
fn small_dram_cfg() -> DramConfig {
    DramConfig {
        capacity: 1 << 16,
        ..DramConfig::default()
    }
}

/// A cache-mode engine over a 1 MB SCM with the given wear budget.
fn cache_engine(
    seed: u64,
    wear_limit: u32,
    spare_lines: u64,
    faults: FaultConfig,
) -> (TierEngine, Dram) {
    let dcfg = small_dram_cfg();
    let cfg = TierConfig {
        policy: TierPolicy::Cache,
        scm: ScmConfig {
            capacity: 1 << 20,
            wear_limit,
            spare_lines,
            ..ScmConfig::default()
        },
        ..TierConfig::default()
    };
    let mut eng = TierEngine::new(cfg, &dcfg, LINE);
    eng.set_faults(&FaultConfig { seed, ..faults });
    (eng, Dram::new(dcfg))
}

/// A flat-mode engine: 64 KB DRAM partition, 1 MB SCM partition.
fn flat_engine(seed: u64, faults: FaultConfig) -> (TierEngine, Dram) {
    let dcfg = small_dram_cfg();
    let cfg = TierConfig {
        policy: TierPolicy::Flat,
        scm: ScmConfig {
            capacity: 1 << 20,
            ..ScmConfig::default()
        },
        ..TierConfig::default()
    };
    let mut eng = TierEngine::new(cfg, &dcfg, LINE);
    eng.set_faults(&FaultConfig { seed, ..faults });
    (eng, Dram::new(dcfg))
}

/// Cold-gather storm: 64 waves of indirection-vector gathers over 1024
/// distinct cold SCM lines (16× the DRAM cache's 64 KB), each line
/// touched twice back-to-back. The fill buffer must serve the storm —
/// loads from SCM, repeats from the buffer — without installing a
/// single line into the DRAM cache, which stays free for demand traffic.
pub fn run_cold_gather_storm(seed: u64) -> Outcome {
    let (mut eng, mut dram) = cache_engine(seed, 1 << 20, 64, FaultConfig::none());
    let mut violations = Vec::new();
    let mut accesses = 0u64;
    let mut t = 0;

    for wave in 0..64u64 {
        let mut reqs = Vec::with_capacity(32);
        for i in 0..16u64 {
            let line = wave * 16 + i;
            // Twice back-to-back: the second touch must be a fill hit.
            reqs.push((MAddr::new(line * LINE), 32));
            reqs.push((MAddr::new(line * LINE), 32));
        }
        accesses += reqs.len() as u64;
        match eng.run_batch(&mut dram, &reqs, AccessKind::Load, t) {
            Ok(done) => t = done,
            Err(e) => violations.push(format!("cold-gather-storm: healthy gather failed: {e:?}")),
        }
    }
    let mid = eng.stats();
    if mid.fill_loads != 1024 || mid.fill_hits != 1024 {
        violations.push(format!(
            "cold-gather-storm: fill buffer served {}/{} of 1024/1024 expected",
            mid.fill_loads, mid.fill_hits
        ));
    }
    if mid.dram_misses != 0 {
        violations.push(format!(
            "cold-gather-storm: gather installed {} lines into the cache",
            mid.dram_misses
        ));
    }

    // The cache is untouched: demand traffic still misses-then-hits.
    for (i, expect_hit) in [(0u64, false), (0u64, true)] {
        accesses += 1;
        match eng.access(
            &mut dram,
            MAddr::new(i * LINE),
            AccessKind::Load,
            LINE,
            t,
            false,
        ) {
            Ok(done) => t = done + 1,
            Err(e) => violations.push(format!("cold-gather-storm: demand load failed: {e:?}")),
        }
        let s = eng.stats();
        if expect_hit && s.dram_hits != 1 {
            violations.push("cold-gather-storm: demand re-access missed the cache".into());
        }
    }

    collect_tier(
        TierScenario::ColdGatherStorm,
        &eng,
        t,
        accesses,
        0,
        violations,
    )
}

/// Scatter churn under a tiny wear budget (2 writes per line, 4
/// spares): three lines contending for one cache set force a dirty
/// writeback on every install, the written SCM lines cross the wear
/// limit and retire onto spares, the spares wear out too, and from then
/// on dead lines surface as typed [`McError::LineRetired`] — on the
/// demand path as an error with a frozen message, on the writeback path
/// as a counted lost dirty line. Nothing is silent, nothing hangs.
pub fn run_wear_out_scatter_churn(seed: u64) -> Outcome {
    let (mut eng, mut dram) = cache_engine(seed, 2, 4, FaultConfig::none());
    let mut violations = Vec::new();
    let mut typed = 0u64;
    let mut accesses = 0u64;
    let mut t = 0;
    let sets = (1u64 << 16) / LINE; // 512

    for i in 0..240u64 {
        // Three visible lines sharing cache set 0: every store evicts a
        // dirty victim and writes it back to SCM.
        let line = (i % 3) * sets;
        accesses += 1;
        match eng.access(
            &mut dram,
            MAddr::new(line * LINE),
            AccessKind::Store,
            LINE,
            t,
            false,
        ) {
            Ok(done) => t = done,
            Err(McError::LineRetired { line: dead }) => {
                typed += 1;
                t += 10;
                let msg = format!("{}", McError::LineRetired { line: dead });
                let want = format!("SCM line {dead:#x} is permanently retired");
                if msg != want {
                    violations.push(format!(
                        "wear-out-scatter-churn: error message drifted: `{msg}` != `{want}`"
                    ));
                }
            }
            Err(e) => {
                violations.push(format!(
                    "wear-out-scatter-churn: unexpected error {e:?} (not LineRetired)"
                ));
                t += 10;
            }
        }
    }

    let scm = eng.scm_stats();
    if scm.wear_retirements == 0 {
        violations.push("wear-out-scatter-churn: no line ever retired onto a spare".into());
    }
    if scm.dead_rejects == 0 || typed == 0 {
        violations.push(format!(
            "wear-out-scatter-churn: spares never ran out ({} dead rejects, {typed} typed)",
            scm.dead_rejects
        ));
    }
    if eng.stats().lost_writebacks == 0 {
        violations.push("wear-out-scatter-churn: no dirty writeback ever hit a dead line".into());
    }

    collect_tier(
        TierScenario::WearOutScatterChurn,
        &eng,
        t,
        accesses,
        typed,
        violations,
    )
}

/// Scheduled tag-array corruption under a store-heavy working set:
/// parity detects each corruption at lookup, the set is invalidated
/// (its dirty contents counted lost) and refetched from the
/// authoritative SCM copy, and detection time lands in the tier's
/// recovery-cycle attribution.
pub fn run_tag_corruption(seed: u64) -> Outcome {
    let faults = FaultConfig {
        tag_corrupt: Trigger::EveryN { every: 3, phase: 0 },
        ..FaultConfig::none()
    };
    let (mut eng, mut dram) = cache_engine(seed, 1 << 20, 64, faults);
    let mut violations = Vec::new();
    let mut accesses = 0u64;
    let mut t = 0;

    // Six passes of stores over 32 resident lines: every pass after the
    // first re-looks-up valid (dirty) entries, which is where the
    // corruption schedule fires.
    for pass in 0..6u64 {
        for line in 0..32u64 {
            accesses += 1;
            let _ = pass;
            match eng.access(
                &mut dram,
                MAddr::new(line * LINE),
                AccessKind::Store,
                LINE,
                t,
                false,
            ) {
                Ok(done) => t = done,
                Err(e) => {
                    violations.push(format!("tag-corruption: store failed: {e:?}"));
                    t += 10;
                }
            }
        }
    }

    let f = eng.fault_stats();
    if f.tag_corruptions == 0 {
        violations.push("tag-corruption: corruption schedule never fired".into());
    }
    if f.lost_dirty_lines == 0 {
        violations.push("tag-corruption: no dirty set was ever invalidated".into());
    }
    if f.recovery_cycles == 0 {
        violations.push("tag-corruption: detection cost was never attributed".into());
    }
    if eng.scm_stats().reads <= 32 {
        violations.push("tag-corruption: corrupted sets were not refetched from SCM".into());
    }

    collect_tier(
        TierScenario::TagCorruption,
        &eng,
        t,
        accesses,
        0,
        violations,
    )
}

/// The tier-fail trigger fires mid-gather. Flat mode: the batch aborts
/// with a typed [`McError::TierDegraded`] naming the dead channel —
/// bounded, never a hang — and the SCM partition keeps serving. Cache
/// mode under the same schedule: every batch completes, dead sets
/// served by SCM bypass.
pub fn run_channel_kill_mid_gather(seed: u64) -> Outcome {
    let faults = FaultConfig {
        tier_fail: Trigger::EveryN { every: 4, phase: 0 },
        ..FaultConfig::none()
    };
    let mut violations = Vec::new();
    let mut typed = 0u64;
    let mut accesses = 0u64;

    // Flat mode: gather batches over the DRAM partition, spanning every
    // bank, until the accumulating kills abort one with a typed error.
    let (mut flat, mut dram) = flat_engine(seed, faults.clone());
    let dcfg = small_dram_cfg();
    let mut t = 0;
    let mut saw_reject = false;
    for batch in 0..32u64 {
        let reqs: Vec<(MAddr, u64)> = (0..16u64)
            .map(|i| {
                (
                    MAddr::new(((batch * 16 + i) * dcfg.row_bytes) % (1 << 16)),
                    32,
                )
            })
            .collect();
        accesses += reqs.len() as u64;
        match flat.run_batch(&mut dram, &reqs, AccessKind::Load, t) {
            Ok(done) => t = done,
            Err(McError::TierDegraded { channel }) => {
                typed += 1;
                t += 10;
                saw_reject = true;
                if channel >= dcfg.banks {
                    violations.push(format!(
                        "channel-kill-mid-gather: dead channel {channel} out of range"
                    ));
                }
            }
            Err(e) => violations.push(format!(
                "channel-kill-mid-gather: flat gather failed with {e:?}, not TierDegraded"
            )),
        }
    }
    if !saw_reject {
        violations.push("channel-kill-mid-gather: kills never aborted a flat gather".into());
    }
    if flat.fault_stats().channel_kills == 0 {
        violations.push("channel-kill-mid-gather: tier-fail schedule never fired".into());
    }
    // The SCM partition is unaffected by dead DRAM channels.
    accesses += 1;
    if let Err(e) = flat.access(
        &mut dram,
        MAddr::new(1 << 16),
        AccessKind::Load,
        LINE,
        t,
        false,
    ) {
        violations.push(format!(
            "channel-kill-mid-gather: SCM partition died with the DRAM channel: {e:?}"
        ));
    }

    // Cache mode, same schedule: bypass, not errors.
    let (mut eng, mut dram) = cache_engine(seed, 1 << 20, 64, faults);
    let mut tc = 0;
    for batch in 0..8u64 {
        let reqs: Vec<(MAddr, u64)> = (0..16u64)
            .map(|i| (MAddr::new((batch * 16 + i) * LINE), 32))
            .collect();
        accesses += reqs.len() as u64;
        match eng.run_batch(&mut dram, &reqs, AccessKind::Load, tc) {
            Ok(done) => tc = done,
            Err(e) => violations.push(format!(
                "channel-kill-mid-gather: cache-mode gather must bypass, got {e:?}"
            )),
        }
    }
    let f = eng.fault_stats();
    if f.channel_kills == 0 {
        violations.push("channel-kill-mid-gather: cache-mode kills never fired".into());
    }
    if f.bypass_reads == 0 {
        violations.push("channel-kill-mid-gather: dead sets were never served by bypass".into());
    }

    collect_tier(
        TierScenario::ChannelKillMidGather,
        &eng,
        t + tc,
        accesses,
        typed,
        violations,
    )
}

/// SCM raw-bit-error asymmetry sweep: the same flat-mode access
/// sequence under a double-error fraction of 0‰, 500‰, and 1000‰.
/// SECDED corrects every single, detects every double, passes nothing
/// silently, and the detected count is monotone in the fraction.
pub fn run_ecc_asymmetry_sweep(seed: u64) -> Outcome {
    let mut violations = Vec::new();
    let mut accesses = 0u64;
    let mut cycles = 0u64;
    let mut detected = Vec::new();
    let mut engines = Vec::new();

    for permille in [0u32, 500, 1000] {
        let faults = FaultConfig {
            scm_flip: Trigger::EveryN { every: 2, phase: 0 },
            scm_double_permille: permille,
            ..FaultConfig::none()
        };
        let (mut eng, mut dram) = flat_engine(seed, faults);
        let mut t = 0;
        for i in 0..256u64 {
            accesses += 1;
            let addr = MAddr::new((1 << 16) + (i % 64) * LINE);
            match eng.access(&mut dram, addr, AccessKind::Load, LINE, t, false) {
                Ok(done) => t = done,
                Err(e) => {
                    violations.push(format!("ecc-asymmetry-sweep: healthy load failed: {e:?}"))
                }
            }
        }
        cycles += t;
        let e = eng.scm_ecc_stats();
        if e.silent != 0 {
            violations.push(format!(
                "ecc-asymmetry-sweep: {} silent flips at {permille}permille",
                e.silent
            ));
        }
        match permille {
            0 if e.corrected == 0 || e.detected_double != 0 => violations.push(format!(
                "ecc-asymmetry-sweep: all-singles point corrected {} detected {}",
                e.corrected, e.detected_double
            )),
            1000 if e.detected_double == 0 || e.corrected != 0 => violations.push(format!(
                "ecc-asymmetry-sweep: all-doubles point corrected {} detected {}",
                e.corrected, e.detected_double
            )),
            _ => {}
        }
        if e.recovery_cycles == 0 {
            violations.push(format!(
                "ecc-asymmetry-sweep: no recovery cycles attributed at {permille}permille"
            ));
        }
        detected.push(e.detected_double);
        engines.push(eng);
    }
    if !(detected[0] <= detected[1] && detected[1] <= detected[2]) {
        violations.push(format!(
            "ecc-asymmetry-sweep: detected doubles not monotone in the fraction: {detected:?}"
        ));
    }

    // The outcome aggregates all three sweep points; the last engine
    // carries the final counters and the earlier points are folded in.
    let mut out = collect_tier(
        TierScenario::EccAsymmetrySweep,
        engines.last().expect("sweep ran"),
        cycles,
        accesses,
        0,
        violations,
    );
    for eng in &engines[..engines.len() - 1] {
        let (e, s, t) = (eng.scm_ecc_stats(), eng.scm_stats(), eng.stats());
        for (path, n) in [
            ("ecc.corrected", e.corrected),
            ("ecc.detected_double", e.detected_double),
            ("ecc.silent", e.silent),
            ("ecc.recovery_cycles", e.recovery_cycles),
            ("scm.reads", s.reads),
            ("scm.writes", s.writes),
            ("scm.bytes", s.bytes),
            ("scm.channel_wait", s.channel_wait),
            ("tier.flat_dram", t.flat_dram),
            ("tier.flat_scm", t.flat_scm),
        ] {
            out.add(path, n);
        }
    }
    out
}

/// Bypass-mode parity: a cache-mode engine whose every DRAM channel has
/// been killed serves purely by SCM bypass — and for the same line
/// sequence performs exactly the SCM reads a healthy flat-mode
/// partition would, with zero typed errors and zero cache hits.
pub fn run_bypass_mode_parity(seed: u64) -> Outcome {
    let faults = FaultConfig {
        tier_fail: Trigger::EveryN { every: 1, phase: 0 },
        ..FaultConfig::none()
    };
    let (mut eng, mut dram) = cache_engine(seed, 1 << 20, 64, faults);
    let mut violations = Vec::new();
    let banks = small_dram_cfg().banks.min(64);

    // Preamble: with the trigger firing on every access, each touch
    // kills one channel until the whole DRAM front is dead.
    let mut t = 0;
    for i in 0..4 * banks {
        match eng.access(&mut dram, MAddr::new(0), AccessKind::Load, LINE, t, false) {
            Ok(done) => t = done,
            Err(e) => violations.push(format!("bypass-mode-parity: preamble failed: {e:?}")),
        }
        let _ = i;
        if eng.dead_banks().count_ones() as u64 == banks {
            break;
        }
    }
    if eng.dead_banks().count_ones() as u64 != banks {
        violations.push(format!(
            "bypass-mode-parity: only {} of {banks} channels died",
            eng.dead_banks().count_ones()
        ));
    }
    // Damage persists across a stats reset; from here every counter
    // reflects pure bypass operation. The injector's own bookkeeping is
    // part of the damage record and survives the reset, so measure the
    // parity run against its post-preamble baseline.
    eng.reset_stats();
    let base_bypass = eng.fault_stats().bypass_reads;

    let (mut flat, mut fdram) = flat_engine(seed, FaultConfig::none());
    let mut accesses = 0u64;
    let mut ft = 0;
    for pass in 0..2u64 {
        for line in 0..64u64 {
            let _ = pass;
            accesses += 2;
            if let Err(e) = eng.access(
                &mut dram,
                MAddr::new(line * LINE),
                AccessKind::Load,
                LINE,
                t,
                false,
            ) {
                violations.push(format!("bypass-mode-parity: bypass load failed: {e:?}"));
            }
            t += 1;
            // The flat engine serves the same line from its SCM partition.
            let faddr = MAddr::new((1 << 16) + line * LINE);
            match flat.access(&mut fdram, faddr, AccessKind::Load, LINE, ft, false) {
                Ok(done) => ft = done,
                Err(e) => violations.push(format!("bypass-mode-parity: flat load failed: {e:?}")),
            }
        }
    }

    let s = eng.stats();
    if s.dram_hits != 0 || s.dram_misses != 0 {
        violations.push(format!(
            "bypass-mode-parity: a dead cache still served {} hits / {} misses",
            s.dram_hits, s.dram_misses
        ));
    }
    let f = eng.fault_stats();
    if f.bypass_reads - base_bypass != 128 {
        violations.push(format!(
            "bypass-mode-parity: {} bypass reads for 128 loads",
            f.bypass_reads - base_bypass
        ));
    }
    if eng.scm_stats().reads != flat.scm_stats().reads {
        violations.push(format!(
            "bypass-mode-parity: bypass did {} SCM reads, flat did {}",
            eng.scm_stats().reads,
            flat.scm_stats().reads
        ));
    }

    collect_tier(
        TierScenario::BypassModeParity,
        &eng,
        t + ft,
        accesses,
        0,
        violations,
    )
}

/// Runs one scenario under `seed`.
pub fn run_tier_case(s: TierScenario, seed: u64) -> Outcome {
    match s {
        TierScenario::ColdGatherStorm => run_cold_gather_storm(seed),
        TierScenario::WearOutScatterChurn => run_wear_out_scatter_churn(seed),
        TierScenario::TagCorruption => run_tag_corruption(seed),
        TierScenario::ChannelKillMidGather => run_channel_kill_mid_gather(seed),
        TierScenario::EccAsymmetrySweep => run_ecc_asymmetry_sweep(seed),
        TierScenario::BypassModeParity => run_bypass_mode_parity(seed),
    }
}

/// `chaos_tier.json`'s totals: each key sums the case counters it lists.
fn tier_totals(outcomes: &[Outcome]) -> Json {
    let rows: [(&str, &[&str]); 16] = [
        ("accesses", &["accesses"]),
        ("typed_faults", &["typed_faults"]),
        ("dram_hits", &["tier.dram_hits"]),
        ("writebacks", &["tier.writebacks"]),
        ("lost_writebacks", &["tier.lost_writebacks"]),
        ("degraded_rejects", &["tier.degraded_rejects"]),
        ("scm_reads", &["scm.reads"]),
        ("scm_writes", &["scm.writes"]),
        ("wear_retirements", &["scm.wear_retirements"]),
        ("dead_rejects", &["scm.dead_rejects"]),
        ("tag_corruptions", &["fault.tag_corruptions"]),
        ("channel_kills", &["fault.channel_kills"]),
        (
            "bypass_reads",
            &["fault.bypass_reads", "fault.bypass_writes"],
        ),
        ("ecc_corrected", &["ecc.corrected"]),
        ("ecc_detected_double", &["ecc.detected_double"]),
        ("ecc_silent", &["ecc.silent"]),
    ];
    let mut totals = Json::obj();
    for (key, paths) in rows {
        let n = paths.iter().map(|p| sum(outcomes, p)).sum();
        totals.set(key, Json::UInt(n));
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_scenario_corrects_all_singles_with_zero_data_diff() {
        let o = run_case(ChaosWorkload::Diagonal, FaultScenario::DramEcc, 1999);
        assert!(o.count("ecc.corrected") > 0, "schedule fired");
        assert_eq!(o.count("ecc.detected_double"), 0);
        assert_eq!(o.count("ecc.silent"), 0);
        assert_eq!(
            o.count("ecc.corrupt_sig"),
            0,
            "corrected data is byte-identical"
        );
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn no_ecc_scenario_shows_tracked_silent_corruption() {
        let o = run_case(ChaosWorkload::Smvp, FaultScenario::DramNoEcc, 7);
        assert!(o.count("ecc.silent") > 0);
        assert_ne!(
            o.count("ecc.corrupt_sig"),
            0,
            "corruption leaves a signature"
        );
        assert_eq!(
            o.count("ecc.recovery_cycles"),
            0,
            "no ECC, no datapath penalty"
        );
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
        assert_eq!(o.count("syscall_failures"), 3);
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
        let doc = SUITES[0].document(1, &[]);
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
    fn cold_gather_storm_lives_in_the_fill_buffer() {
        let o = run_cold_gather_storm(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.count("tier.fill_loads"), 1024);
        assert_eq!(o.count("tier.fill_hits"), 1024);
        assert_eq!(
            o.count("tier.dram_misses"),
            1,
            "only the demand probe installs"
        );
    }

    #[test]
    fn wear_out_retires_then_goes_typed() {
        let o = run_wear_out_scatter_churn(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.count("scm.wear_retirements") >= 3, "spares were consumed");
        assert!(
            o.count("typed_faults") > 0,
            "dead lines surfaced as typed errors"
        );
        assert!(
            o.count("tier.lost_writebacks") > 0,
            "lost dirty data was counted"
        );
    }

    #[test]
    fn tag_corruption_recovers_from_scm() {
        let o = run_tag_corruption(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.count("fault.tag_corruptions") > 0);
        assert_eq!(
            o.count("fault.tag_corruptions"),
            o.count("fault.tag_invalidations")
        );
    }

    #[test]
    fn channel_kill_is_typed_in_flat_and_bypass_in_cache() {
        let o = run_channel_kill_mid_gather(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.count("typed_faults") > 0, "flat gathers aborted typed");
        assert!(o.count("fault.bypass_reads") > 0, "cache mode bypassed");
    }

    #[test]
    fn ecc_sweep_is_never_silent() {
        let o = run_ecc_asymmetry_sweep(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.count("ecc.silent"), 0);
        assert!(o.count("ecc.corrected") > 0 && o.count("ecc.detected_double") > 0);
    }

    #[test]
    fn bypass_parity_matches_flat_scm_service() {
        let o = run_bypass_mode_parity(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(
            o.count("fault.bypass_reads") >= 128,
            "parity run plus preamble"
        );
        assert_eq!(o.count("tier.dram_hits"), 0);
    }

    /// Runs only `suite`'s cases of the scenario table on `jobs` workers
    /// and renders the suite's document.
    fn suite_document(suite: &'static Suite, jobs: usize) -> String {
        let table: Vec<Scenario> = scenarios()
            .into_iter()
            .filter(|s| std::ptr::eq(s.suite, suite))
            .collect();
        let cases = table.iter().map(|s| move || (s.run)(1999)).collect();
        let outcomes = runner::run_ordered(cases, jobs);
        format!("{:#}\n", suite.document(1999, &outcomes))
    }

    #[test]
    fn chaos_grid_is_deterministic_across_worker_counts() {
        let serial = suite_document(&SUITES[0], 1);
        let parallel = suite_document(&SUITES[0], 4);
        assert_eq!(serial, parallel, "chaos.json must not depend on workers");
        assert!(serial.contains("impulse-chaos-v2"));
        assert!(serial.contains("\"ok\": true"), "grid is violation-free");
    }

    #[test]
    fn tier_suite_is_deterministic_across_worker_counts() {
        let serial = suite_document(&SUITES[1], 1);
        let parallel = suite_document(&SUITES[1], 4);
        assert_eq!(
            serial, parallel,
            "chaos_tier.json must not depend on workers"
        );
        assert!(serial.contains("impulse-tier-chaos-v1"));
        assert!(serial.contains("\"ok\": true"), "suite is violation-free");
    }
}

//! Hybrid-tier chaos suite: the DRAM/SCM tier engine under every fault
//! plane it models — SCM raw bit errors drained through SECDED, write
//! wear retiring lines onto spares and then surfacing typed
//! [`McError::LineRetired`] errors, tag-array corruption detected and
//! refetched from the authoritative SCM copy, and the tier-fail trigger
//! killing DRAM channels mid-run (flat mode rejects with typed
//! [`McError::TierDegraded`], cache mode degrades to SCM bypass).
//!
//! Every scenario asserts the graceful-degradation contract end to end:
//! a tier fault is *corrected, typed, or counted — never silent, never a
//! hang*. Like the fault-schedule grid in [`crate::chaos`], every case
//! draws only from the seed and the runner gathers results in
//! submission order, so
//! `results/chaos_tier.json` is byte-identical for a fixed seed at any
//! worker count.

use impulse_core::{McError, TierConfig, TierEngine, TierStats};
use impulse_dram::{Dram, DramConfig, ScmConfig, ScmStats};
use impulse_fault::{FaultConfig, TierFaultStats, Trigger};
use impulse_obs::Json;
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::{AccessKind, MAddr, TierPolicy};

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
    /// Full-machine snapshot taken mid-degradation; restore and an
    /// identical continuation must match cycle-for-cycle.
    DegradedSnapshotRestore,
    /// SCM raw-bit-error sweep across the double-error fraction: SECDED
    /// corrects singles, detects doubles, and never passes one silently.
    EccAsymmetrySweep,
    /// With every DRAM channel dead, cache mode serves purely by SCM
    /// bypass — and does exactly the SCM work flat mode would.
    BypassModeParity,
}

impl TierScenario {
    /// Every scenario in the suite.
    pub const ALL: [TierScenario; 7] = [
        TierScenario::ColdGatherStorm,
        TierScenario::WearOutScatterChurn,
        TierScenario::TagCorruption,
        TierScenario::ChannelKillMidGather,
        TierScenario::DegradedSnapshotRestore,
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
            TierScenario::DegradedSnapshotRestore => "degraded-snapshot-restore",
            TierScenario::EccAsymmetrySweep => "ecc-asymmetry-sweep",
            TierScenario::BypassModeParity => "bypass-mode-parity",
        }
    }
}

/// Everything one tier case produced: cost, the engine's own counters
/// on every fault plane, the typed errors the scenario provoked, and
/// any invariant violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierOutcome {
    /// Scenario label.
    pub scenario: String,
    /// Simulated cycles the case took.
    pub cycles: u64,
    /// Accesses the scenario issued through the tier.
    pub accesses: u64,
    /// Typed errors the scenario deliberately provoked (and checked).
    pub typed_faults: u64,
    /// Tier engine routing/caching counters.
    pub tier: TierStats,
    /// SCM media counters (wear, retirement, channel occupancy).
    pub scm: ScmStats,
    /// Tag-corruption / channel-kill / bypass bookkeeping.
    pub fault: TierFaultStats,
    /// SCM single-bit errors corrected by SECDED.
    pub ecc_corrected: u64,
    /// SCM double-bit errors detected (uncorrectable, reported).
    pub ecc_detected_double: u64,
    /// SCM flips that passed silently — must stay zero under SECDED.
    pub ecc_silent: u64,
    /// Extra cycles spent in the SCM ECC datapath.
    pub ecc_recovery_cycles: u64,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
}

/// Collects engine counters and the universal graceful-degradation
/// invariants from a finished tier engine.
fn collect(
    scenario: TierScenario,
    eng: &TierEngine,
    cycles: u64,
    accesses: u64,
    typed_faults: u64,
    mut violations: Vec<String>,
) -> TierOutcome {
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
    TierOutcome {
        scenario: name.to_string(),
        cycles,
        accesses,
        typed_faults,
        tier,
        scm,
        fault,
        ecc_corrected: ecc.corrected,
        ecc_detected_double: ecc.detected_double,
        ecc_silent: ecc.silent,
        ecc_recovery_cycles: ecc.recovery_cycles,
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
pub fn run_cold_gather_storm(seed: u64) -> TierOutcome {
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

    collect(
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
pub fn run_wear_out_scatter_churn(seed: u64) -> TierOutcome {
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

    collect(
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
pub fn run_tag_corruption(seed: u64) -> TierOutcome {
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

    collect(
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
pub fn run_channel_kill_mid_gather(seed: u64) -> TierOutcome {
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

    collect(
        TierScenario::ChannelKillMidGather,
        &eng,
        t + tc,
        accesses,
        typed,
        violations,
    )
}

/// Full-machine snapshot mid-degradation: a cache-mode machine with SCM
/// flips and scheduled channel kills is snapshotted mid-run; the
/// restored machine and the original run an identical continuation and
/// must land on the same cycle count, the same counters on every fault
/// plane, and byte-identical re-snapshots.
pub fn run_degraded_snapshot_restore(seed: u64) -> TierOutcome {
    let faults = FaultConfig {
        seed,
        scm_flip: Trigger::EveryN { every: 5, phase: 0 },
        tier_fail: Trigger::EveryN {
            every: 64,
            phase: 0,
        },
        ..FaultConfig::none()
    };
    let cfg = SystemConfig::paint_small()
        .with_tier(TierPolicy::Cache)
        .with_faults(faults);
    let mut m = Machine::new(&cfg);
    let mut violations = Vec::new();

    // 512 KB working set at line stride: larger than the 256 KB L2, so
    // demand traffic reaches the tier on both passes.
    let buf = m.alloc_region(512 * 1024, PAGE_SIZE).expect("tier buffer");
    let mut accesses = 0u64;
    for pass in 0..2u64 {
        for off in (0..512 * 1024).step_by(LINE as usize) {
            accesses += 1;
            if pass == 0 && off % 256 == 0 {
                m.store(buf.start().add(off));
            } else {
                m.load(buf.start().add(off));
            }
        }
    }
    let tier_probe = |mm: &Machine| {
        let eng = mm.memory().mc().tier().expect("tier attached");
        (
            eng.stats(),
            eng.scm_stats(),
            eng.fault_stats(),
            eng.scm_ecc_stats().corrected,
        )
    };
    let (_, _, f, corrected) = tier_probe(&m);
    if f.channel_kills == 0 {
        violations.push("degraded-snapshot-restore: no channel died before the snapshot".into());
    }
    if corrected == 0 {
        violations.push("degraded-snapshot-restore: no SCM flip was ever corrected".into());
    }

    let image = m.snapshot(&cfg);
    let mut restored = match Machine::restore(&cfg, &image) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("degraded-snapshot-restore: restore failed: {e:?}"));
            let eng = m.memory().mc().tier().expect("tier attached");
            return collect(
                TierScenario::DegradedSnapshotRestore,
                &{ eng.clone() },
                m.now(),
                accesses,
                0,
                violations,
            );
        }
    };

    // Identical continuation on both machines, through live degradation.
    for mm in [&mut m, &mut restored] {
        for off in (0..512 * 1024).step_by(LINE as usize * 2) {
            mm.load(buf.start().add(off));
        }
    }
    accesses += 2 * (512 * 1024) / (LINE * 2);
    if m.now() != restored.now() {
        violations.push(format!(
            "degraded-snapshot-restore: continuation diverged ({} vs {} cycles)",
            m.now(),
            restored.now()
        ));
    }
    let (a, b) = (tier_probe(&m), tier_probe(&restored));
    if a != b {
        violations.push(format!(
            "degraded-snapshot-restore: tier counters diverged ({a:?} vs {b:?})"
        ));
    }
    if m.memory().stats().tier_faults != restored.memory().stats().tier_faults {
        violations.push("degraded-snapshot-restore: tier-fault NACK counts diverged".into());
    }
    if m.snapshot(&cfg) != restored.snapshot(&cfg) {
        violations.push("degraded-snapshot-restore: re-snapshots are not byte-identical".into());
    }

    let eng = m.memory().mc().tier().expect("tier attached").clone();
    collect(
        TierScenario::DegradedSnapshotRestore,
        &eng,
        m.now(),
        accesses,
        0,
        violations,
    )
}

/// SCM raw-bit-error asymmetry sweep: the same flat-mode access
/// sequence under a double-error fraction of 0‰, 500‰, and 1000‰.
/// SECDED corrects every single, detects every double, passes nothing
/// silently, and the detected count is monotone in the fraction.
pub fn run_ecc_asymmetry_sweep(seed: u64) -> TierOutcome {
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
    let mut out = collect(
        TierScenario::EccAsymmetrySweep,
        engines.last().expect("sweep ran"),
        cycles,
        accesses,
        0,
        violations,
    );
    for eng in &engines[..engines.len() - 1] {
        let e = eng.scm_ecc_stats();
        out.ecc_corrected += e.corrected;
        out.ecc_detected_double += e.detected_double;
        out.ecc_silent += e.silent;
        out.ecc_recovery_cycles += e.recovery_cycles;
        let s = eng.scm_stats();
        out.scm.reads += s.reads;
        out.scm.writes += s.writes;
        out.scm.bytes += s.bytes;
        out.scm.channel_wait += s.channel_wait;
        let t = eng.stats();
        out.tier.flat_dram += t.flat_dram;
        out.tier.flat_scm += t.flat_scm;
    }
    out
}

/// Bypass-mode parity: a cache-mode engine whose every DRAM channel has
/// been killed serves purely by SCM bypass — and for the same line
/// sequence performs exactly the SCM reads a healthy flat-mode
/// partition would, with zero typed errors and zero cache hits.
pub fn run_bypass_mode_parity(seed: u64) -> TierOutcome {
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

    collect(
        TierScenario::BypassModeParity,
        &eng,
        t + ft,
        accesses,
        0,
        violations,
    )
}

/// Runs one scenario under `seed`.
pub fn run_tier_case(s: TierScenario, seed: u64) -> TierOutcome {
    match s {
        TierScenario::ColdGatherStorm => run_cold_gather_storm(seed),
        TierScenario::WearOutScatterChurn => run_wear_out_scatter_churn(seed),
        TierScenario::TagCorruption => run_tag_corruption(seed),
        TierScenario::ChannelKillMidGather => run_channel_kill_mid_gather(seed),
        TierScenario::DegradedSnapshotRestore => run_degraded_snapshot_restore(seed),
        TierScenario::EccAsymmetrySweep => run_ecc_asymmetry_sweep(seed),
        TierScenario::BypassModeParity => run_bypass_mode_parity(seed),
    }
}

/// One job per scenario, in deterministic submission order.
pub fn tier_chaos_jobs(seed: u64) -> Vec<impl FnOnce() -> TierOutcome + Send> {
    TierScenario::ALL
        .iter()
        .map(|&s| move || run_tier_case(s, seed))
        .collect()
}

/// JSON for one tier case.
fn case_json(o: &TierOutcome) -> Json {
    let mut c = Json::obj();
    c.set("scenario", Json::Str(o.scenario.clone()));
    c.set("cycles", Json::UInt(o.cycles));
    c.set("accesses", Json::UInt(o.accesses));
    c.set("typed_faults", Json::UInt(o.typed_faults));
    let mut tier = Json::obj();
    tier.set("dram_hits", Json::UInt(o.tier.dram_hits));
    tier.set("dram_misses", Json::UInt(o.tier.dram_misses));
    tier.set("writebacks", Json::UInt(o.tier.writebacks));
    tier.set("lost_writebacks", Json::UInt(o.tier.lost_writebacks));
    tier.set("fill_hits", Json::UInt(o.tier.fill_hits));
    tier.set("fill_loads", Json::UInt(o.tier.fill_loads));
    tier.set("flat_dram", Json::UInt(o.tier.flat_dram));
    tier.set("flat_scm", Json::UInt(o.tier.flat_scm));
    tier.set("degraded_rejects", Json::UInt(o.tier.degraded_rejects));
    c.set("tier", tier);
    let mut scm = Json::obj();
    scm.set("reads", Json::UInt(o.scm.reads));
    scm.set("writes", Json::UInt(o.scm.writes));
    scm.set("bytes", Json::UInt(o.scm.bytes));
    scm.set("channel_wait", Json::UInt(o.scm.channel_wait));
    scm.set("wear_retirements", Json::UInt(o.scm.wear_retirements));
    scm.set("dead_rejects", Json::UInt(o.scm.dead_rejects));
    c.set("scm", scm);
    let mut fault = Json::obj();
    fault.set("tag_corruptions", Json::UInt(o.fault.tag_corruptions));
    fault.set("tag_invalidations", Json::UInt(o.fault.tag_invalidations));
    fault.set("channel_kills", Json::UInt(o.fault.channel_kills));
    fault.set("bypass_reads", Json::UInt(o.fault.bypass_reads));
    fault.set("bypass_writes", Json::UInt(o.fault.bypass_writes));
    fault.set("lost_dirty_lines", Json::UInt(o.fault.lost_dirty_lines));
    fault.set("recovery_cycles", Json::UInt(o.fault.recovery_cycles));
    c.set("fault", fault);
    let mut ecc = Json::obj();
    ecc.set("corrected", Json::UInt(o.ecc_corrected));
    ecc.set("detected_double", Json::UInt(o.ecc_detected_double));
    ecc.set("silent", Json::UInt(o.ecc_silent));
    ecc.set("recovery_cycles", Json::UInt(o.ecc_recovery_cycles));
    c.set("ecc", ecc);
    c.set(
        "violations",
        Json::Arr(o.violations.iter().map(|s| Json::Str(s.clone())).collect()),
    );
    c
}

/// Serializes a tier-suite run: schema `impulse-tier-chaos-v1`,
/// per-case counters, whole-run totals, and the flattened violation
/// list (`ok` is true iff it is empty).
pub fn tier_chaos_document(seed: u64, outcomes: &[TierOutcome]) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("impulse-tier-chaos-v1".into()));
    doc.set("seed", Json::UInt(seed));
    doc.set("cases", Json::Arr(outcomes.iter().map(case_json).collect()));

    let sum = |f: fn(&TierOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let mut totals = Json::obj();
    totals.set("accesses", Json::UInt(sum(|o| o.accesses)));
    totals.set("typed_faults", Json::UInt(sum(|o| o.typed_faults)));
    totals.set("dram_hits", Json::UInt(sum(|o| o.tier.dram_hits)));
    totals.set("writebacks", Json::UInt(sum(|o| o.tier.writebacks)));
    totals.set(
        "lost_writebacks",
        Json::UInt(sum(|o| o.tier.lost_writebacks)),
    );
    totals.set(
        "degraded_rejects",
        Json::UInt(sum(|o| o.tier.degraded_rejects)),
    );
    totals.set("scm_reads", Json::UInt(sum(|o| o.scm.reads)));
    totals.set("scm_writes", Json::UInt(sum(|o| o.scm.writes)));
    totals.set(
        "wear_retirements",
        Json::UInt(sum(|o| o.scm.wear_retirements)),
    );
    totals.set("dead_rejects", Json::UInt(sum(|o| o.scm.dead_rejects)));
    totals.set(
        "tag_corruptions",
        Json::UInt(sum(|o| o.fault.tag_corruptions)),
    );
    totals.set("channel_kills", Json::UInt(sum(|o| o.fault.channel_kills)));
    totals.set(
        "bypass_reads",
        Json::UInt(sum(|o| o.fault.bypass_reads + o.fault.bypass_writes)),
    );
    totals.set("ecc_corrected", Json::UInt(sum(|o| o.ecc_corrected)));
    totals.set(
        "ecc_detected_double",
        Json::UInt(sum(|o| o.ecc_detected_double)),
    );
    totals.set("ecc_silent", Json::UInt(sum(|o| o.ecc_silent)));
    doc.set("totals", totals);

    let violations: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.violations.iter().cloned())
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
    fn cold_gather_storm_lives_in_the_fill_buffer() {
        let o = run_cold_gather_storm(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.tier.fill_loads, 1024);
        assert_eq!(o.tier.fill_hits, 1024);
        assert_eq!(o.tier.dram_misses, 1, "only the demand probe installs");
    }

    #[test]
    fn wear_out_retires_then_goes_typed() {
        let o = run_wear_out_scatter_churn(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.scm.wear_retirements >= 3, "spares were consumed");
        assert!(o.typed_faults > 0, "dead lines surfaced as typed errors");
        assert!(o.tier.lost_writebacks > 0, "lost dirty data was counted");
    }

    #[test]
    fn tag_corruption_recovers_from_scm() {
        let o = run_tag_corruption(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.fault.tag_corruptions > 0);
        assert_eq!(o.fault.tag_corruptions, o.fault.tag_invalidations);
    }

    #[test]
    fn channel_kill_is_typed_in_flat_and_bypass_in_cache() {
        let o = run_channel_kill_mid_gather(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.typed_faults > 0, "flat gathers aborted typed");
        assert!(o.fault.bypass_reads > 0, "cache mode bypassed");
    }

    #[test]
    fn degraded_snapshot_resumes_bit_exactly() {
        let o = run_degraded_snapshot_restore(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.fault.channel_kills > 0, "snapshot was taken degraded");
        assert!(o.ecc_corrected > 0, "SCM flips flowed through SECDED");
    }

    #[test]
    fn ecc_sweep_is_never_silent() {
        let o = run_ecc_asymmetry_sweep(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.ecc_silent, 0);
        assert!(o.ecc_corrected > 0 && o.ecc_detected_double > 0);
    }

    #[test]
    fn bypass_parity_matches_flat_scm_service() {
        let o = run_bypass_mode_parity(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.fault.bypass_reads >= 128, "parity run plus preamble");
        assert_eq!(o.tier.dram_hits, 0);
    }

    #[test]
    fn tier_suite_is_deterministic_across_worker_counts() {
        let run = |workers| {
            let outcomes = runner::run_ordered(tier_chaos_jobs(1999), workers);
            format!("{:#}\n", tier_chaos_document(1999, &outcomes))
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial, parallel,
            "chaos_tier.json must not depend on workers"
        );
        assert!(serial.contains("impulse-tier-chaos-v1"));
        assert!(serial.contains("\"ok\": true"), "suite is violation-free");
    }
}

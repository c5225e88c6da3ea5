//! Multi-process capability contention suite: dozens of processes
//! churning grant/share/revoke traffic over the controller's eight
//! shadow descriptors, with every scenario asserting the capability
//! invariants end-to-end — a revoked handle is a typed
//! [`OsError::RevokedCapability`] on *every* subsequent access (no stale
//! data, no panic, no hang), failed syscalls always leave the old state
//! intact, and an unrecoverably corrupted capability-table entry
//! surfaces as [`OsError::CapTableCorrupt`] while the rest of the table
//! keeps working.
//!
//! Like the fault-schedule grid in [`crate::chaos`], every case is
//! seeded and the runner gathers results in submission order, so
//! `results/chaos_caps.json` is byte-identical for a fixed seed at any
//! worker count.

use std::sync::Arc;

use impulse_core::McError;
use impulse_fault::{CapsFaultStats, FaultConfig, Trigger};
use impulse_obs::Json;
use impulse_os::{OsError, Pid, RemapGrant};
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::VRange;

/// Deterministic splitmix64 stream for the churn scenario. Every draw
/// comes from the seed, never from the clock, so a case replays
/// identically on any worker.
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Scenarios in the capability suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapsScenario {
    /// Two dozen processes churn grant/share/revoke over 8 descriptors;
    /// descriptor exhaustion and stale handles must stay typed.
    Churn,
    /// The owner revokes a gather grant while the receiver is streaming
    /// through the shared alias mid-gather.
    RevokeMidGather,
    /// A grant handed to two children of a simulated fork; the parent's
    /// release tears every derived alias down transitively.
    ForkHandoff,
    /// Release with a live shared alias: the receiver's mapping dies
    /// with the owner's (the stale-shared-alias leak regression).
    ReleaseLeak,
    /// A failing retarget rolls the old descriptor back; the alias keeps
    /// working and a valid retarget still succeeds afterwards.
    RetargetAtomicity,
    /// Scheduled shallow capability-table corruption recovered from the
    /// mirror, plus a deep (mirror too) corruption that must quarantine
    /// the slot with a typed error.
    TableCorruption,
    /// Snapshot with live cross-process shares; restore and an identical
    /// continuation (including revocation) must match cycle-for-cycle.
    SnapshotMidShare,
}

impl CapsScenario {
    /// Every scenario in the suite.
    pub const ALL: [CapsScenario; 7] = [
        CapsScenario::Churn,
        CapsScenario::RevokeMidGather,
        CapsScenario::ForkHandoff,
        CapsScenario::ReleaseLeak,
        CapsScenario::RetargetAtomicity,
        CapsScenario::TableCorruption,
        CapsScenario::SnapshotMidShare,
    ];

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CapsScenario::Churn => "churn",
            CapsScenario::RevokeMidGather => "revoke-mid-gather",
            CapsScenario::ForkHandoff => "fork-handoff",
            CapsScenario::ReleaseLeak => "release-leak",
            CapsScenario::RetargetAtomicity => "retarget-atomicity",
            CapsScenario::TableCorruption => "table-corruption",
            CapsScenario::SnapshotMidShare => "snapshot-mid-share",
        }
    }
}

/// Everything one capability case produced: cost, the engine's own
/// counters, the typed faults the scenario provoked, fault-injection
/// bookkeeping, and any invariant violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapsOutcome {
    /// Scenario label.
    pub scenario: String,
    /// Simulated cycles the case took.
    pub cycles: u64,
    /// Instructions the case retired.
    pub instructions: u64,
    /// Root capabilities granted.
    pub grants: u64,
    /// Derived (shared) capabilities created.
    pub derives: u64,
    /// Region grants coalesced in place.
    pub coalesced: u64,
    /// Revocation walks performed.
    pub revocations: u64,
    /// Capabilities torn down by those walks.
    pub revoked_caps: u64,
    /// Handle validations performed.
    pub validations: u64,
    /// Validations denied for a stale generation.
    pub stale_denials: u64,
    /// Typed errors the scenario deliberately provoked (and checked).
    pub typed_faults: u64,
    /// Syscalls that returned a typed error on this machine.
    pub syscall_failures: u64,
    /// Capability-table corruption/recovery bookkeeping.
    pub caps: CapsFaultStats,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
}

/// Collects engine counters and the universal accounting invariants
/// from a finished machine.
fn collect(
    scenario: CapsScenario,
    m: &Machine,
    typed_faults: u64,
    mut violations: Vec<String>,
) -> CapsOutcome {
    let cs = m.kernel().caps().stats();
    let name = scenario.name();
    // Every typed fault a scenario provokes goes through the syscall
    // boundary exactly once; drift means an error path was silently
    // swallowed or double-charged.
    if m.syscall_failures() != typed_faults {
        violations.push(format!(
            "{name}: typed-fault accounting drifted ({} syscall failures vs {typed_faults} provoked)",
            m.syscall_failures()
        ));
    }
    if cs.revoked_caps < cs.revocations {
        violations.push(format!(
            "{name}: a revocation walk tore down nothing ({} walks, {} caps)",
            cs.revocations, cs.revoked_caps
        ));
    }
    if cs.stale_denials > cs.validations {
        violations.push(format!("{name}: more stale denials than validations"));
    }
    CapsOutcome {
        scenario: name.to_string(),
        cycles: m.now(),
        instructions: m.instructions(),
        grants: cs.grants,
        derives: cs.derives,
        coalesced: cs.coalesced,
        revocations: cs.revocations,
        revoked_caps: cs.revoked_caps,
        validations: cs.validations,
        stale_denials: cs.stale_denials,
        typed_faults,
        syscall_failures: m.syscall_failures(),
        caps: m.kernel().caps().fault_stats(),
        violations,
    }
}

fn fresh(faults: FaultConfig) -> (SystemConfig, Machine) {
    let cfg = SystemConfig::paint_small().with_faults(faults);
    let m = Machine::new(&cfg);
    (cfg, m)
}

fn control(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        ..FaultConfig::none()
    }
}

/// A live grant in the churn scenario: who owns it and which receiver
/// aliases were derived from it.
struct LiveGrant {
    owner: Pid,
    grant: RemapGrant,
    receivers: Vec<(Pid, VRange)>,
}

/// Probes every page of a revoked receiver alias: each access must be
/// the typed revocation error. Returns the number of typed faults
/// provoked; pushes a violation per wrong outcome.
fn probe_revoked(
    m: &mut Machine,
    name: &str,
    receiver: Pid,
    alias: VRange,
    violations: &mut Vec<String>,
) -> u64 {
    if m.sys_switch(receiver).is_err() {
        violations.push(format!("{name}: switch to receiver {receiver:?} failed"));
        return 0;
    }
    let mut typed = 0;
    for page in alias.blocks(PAGE_SIZE) {
        match m.try_load(page) {
            Err(OsError::RevokedCapability { stale, current, .. }) => {
                typed += 1;
                if current <= stale {
                    violations.push(format!(
                        "{name}: revoked access reported generation {current} not past {stale}"
                    ));
                }
            }
            Ok(()) => violations.push(format!(
                "{name}: stale read of revoked alias page {page:?} succeeded"
            )),
            Err(e) => violations.push(format!(
                "{name}: revoked access raised {e:?}, not RevokedCapability"
            )),
        }
    }
    typed
}

/// Churn: 24 processes, each owning a 2-page buffer, randomly granting
/// (recolor), sharing to a peer, or revoking over the 8-descriptor
/// table for 120 rounds, then a final sweep revoking every survivor and
/// re-revoking it to prove staleness.
pub fn run_churn(seed: u64) -> CapsOutcome {
    const PROCS: u64 = 24;
    const ROUNDS: usize = 120;
    let (_cfg, mut m) = fresh(control(seed));
    let mut rng = Prng::new(seed);
    let mut violations = Vec::new();
    let mut typed = 0u64;

    let mut procs: Vec<(Pid, VRange)> = Vec::new();
    for _ in 0..PROCS {
        let pid = m.sys_spawn();
        m.sys_switch(pid).expect("switch to fresh process");
        let buf = m
            .alloc_region(2 * PAGE_SIZE, PAGE_SIZE)
            .expect("churn buffer");
        procs.push((pid, buf));
    }

    let mut live: Vec<LiveGrant> = Vec::new();
    for _ in 0..ROUNDS {
        let (actor, buf) = procs[rng.below(PROCS) as usize];
        m.sys_switch(actor).expect("switch to actor");
        let owned = live.iter().position(|g| g.owner == actor);
        match rng.below(3) {
            // Grant: one recolor grant per process at a time; with 24
            // processes contending for 8 descriptors, NoFreeDescriptor
            // is an expected, typed outcome.
            0 => {
                if owned.is_some() {
                    continue;
                }
                let colors = [rng.below(2), rng.below(2) + 2];
                match m.sys_recolor(buf, &colors) {
                    Ok(grant) => live.push(LiveGrant {
                        owner: actor,
                        grant,
                        receivers: Vec::new(),
                    }),
                    Err(OsError::Mc(McError::NoFreeDescriptor)) => typed += 1,
                    Err(e) => {
                        violations.push(format!("churn: grant failed with unexpected error {e:?}"))
                    }
                }
            }
            // Share: derive a receiver alias and prove it reads.
            1 => {
                let Some(i) = owned else { continue };
                let (peer, _) = procs[rng.below(PROCS) as usize];
                if peer == actor {
                    continue;
                }
                match m.sys_share(&live[i].grant, peer) {
                    Ok(alias) => {
                        live[i].receivers.push((peer, alias));
                        m.sys_switch(peer).expect("switch to receiver");
                        if let Err(e) = m.try_load(alias.start()) {
                            // A live shared alias must read; anything
                            // else is a leak of the typed machinery.
                            typed += 1;
                            violations.push(format!("churn: live shared alias faulted with {e:?}"));
                        }
                    }
                    Err(e) => {
                        violations.push(format!("churn: share of a live grant failed with {e:?}"))
                    }
                }
            }
            // Revoke: the walk must tear down every receiver alias.
            _ => {
                let Some(i) = owned else { continue };
                let g = live.swap_remove(i);
                match m.sys_revoke(&g.grant) {
                    Ok(out) => {
                        if out.caps_revoked < 1 + g.receivers.len() as u64 {
                            violations.push(format!(
                                "churn: revocation walk missed aliases ({} revoked, {} derived)",
                                out.caps_revoked,
                                g.receivers.len()
                            ));
                        }
                        for (peer, alias) in &g.receivers {
                            typed += probe_revoked(&mut m, "churn", *peer, *alias, &mut violations);
                        }
                    }
                    Err(e) => {
                        violations.push(format!("churn: revoke of a live grant failed with {e:?}"))
                    }
                }
            }
        }
    }

    // Final sweep: drain the survivors, then prove every handle went
    // stale — the second revocation is itself the typed error.
    for g in live.drain(..) {
        m.sys_switch(g.owner).expect("switch to owner");
        match m.sys_revoke(&g.grant) {
            Ok(_) => {}
            Err(e) => violations.push(format!("churn: final revoke failed with {e:?}")),
        }
        for (peer, alias) in &g.receivers {
            typed += probe_revoked(&mut m, "churn", *peer, *alias, &mut violations);
        }
        m.sys_switch(g.owner).expect("switch back to owner");
        match m.sys_revoke(&g.grant) {
            Err(OsError::RevokedCapability { stale, .. }) => {
                typed += 1;
                if stale != g.grant.cap.generation {
                    violations.push(
                        "churn: stale generation does not match the revoked handle".to_string(),
                    );
                }
            }
            other => violations.push(format!(
                "churn: double revoke yielded {other:?}, not RevokedCapability"
            )),
        }
    }

    collect(CapsScenario::Churn, &m, typed, violations)
}

/// Revocation under an active gather: the receiver streams element
/// loads through a shared scatter/gather alias, the owner revokes
/// mid-stream, and every later element access is the typed error.
pub fn run_revoke_mid_gather(seed: u64) -> CapsOutcome {
    let (_cfg, mut m) = fresh(control(seed));
    let mut violations = Vec::new();
    let mut typed = 0u64;

    let x = m.alloc_region(128 * 8, 128).expect("gather target");
    let col = m.alloc_region(16 * 4, 128).expect("index vector");
    let indices: Vec<u64> = (0..16).map(|i| (i * 7) % 128).collect();
    let target = VRange::new(x.start(), 128 * 8);
    let grant = m
        .sys_remap_gather(target, 8, Arc::new(indices), col, 4)
        .expect("gather grant");

    let receiver = m.sys_spawn();
    let (rx, _rx_cap) = m.sys_share_cap(&grant, receiver).expect("share gather");
    m.sys_switch(receiver).expect("switch to receiver");
    // First half of the gather streams cleanly...
    for i in 0..8u64 {
        if let Err(e) = m.try_load(rx.start().add(i * 8)) {
            typed += 1;
            violations.push(format!(
                "revoke-mid-gather: live gather element {i} faulted with {e:?}"
            ));
        }
    }
    // ...the owner revokes mid-gather...
    m.sys_switch(Pid::INIT).expect("switch to owner");
    match m.sys_revoke(&grant) {
        Ok(out) => {
            if out.caps_revoked < 2 {
                violations.push(format!(
                    "revoke-mid-gather: walk revoked {} caps, expected root + receiver",
                    out.caps_revoked
                ));
            }
            if out.cycles == 0 {
                violations.push("revoke-mid-gather: revocation walk cost zero cycles".into());
            }
        }
        Err(e) => violations.push(format!("revoke-mid-gather: revoke failed with {e:?}")),
    }
    // ...and the rest of the stream is typed faults, element by element.
    m.sys_switch(receiver).expect("switch back to receiver");
    for i in 8..16u64 {
        match m.try_load(rx.start().add(i * 8)) {
            Err(OsError::RevokedCapability { .. }) => typed += 1,
            other => violations.push(format!(
                "revoke-mid-gather: element {i} after revoke yielded {other:?}"
            )),
        }
    }

    collect(CapsScenario::RevokeMidGather, &m, typed, violations)
}

/// Capability handoff across a simulated fork: the parent shares one
/// grant with two children; the parent's release transitively kills
/// both children's aliases, and a second release is stale.
pub fn run_fork_handoff(seed: u64) -> CapsOutcome {
    let (_cfg, mut m) = fresh(control(seed));
    let mut violations = Vec::new();
    let mut typed = 0u64;

    let buf = m.alloc_region(4 * PAGE_SIZE, PAGE_SIZE).expect("buffer");
    let grant = m.sys_recolor(buf, &[0, 1]).expect("parent grant");
    let children = [m.sys_spawn(), m.sys_spawn()];
    let mut aliases = Vec::new();
    for &child in &children {
        let alias = m.sys_share(&grant, child).expect("handoff share");
        m.sys_switch(child).expect("switch to child");
        if let Err(e) = m.try_load(alias.start()) {
            typed += 1;
            violations.push(format!("fork-handoff: child alias faulted live: {e:?}"));
        }
        m.sys_switch(Pid::INIT).expect("switch to parent");
        aliases.push((child, alias));
    }

    match m.sys_release(&grant) {
        Ok(()) => {}
        Err(e) => violations.push(format!("fork-handoff: release failed with {e:?}")),
    }
    for (child, alias) in &aliases {
        typed += probe_revoked(&mut m, "fork-handoff", *child, *alias, &mut violations);
    }
    m.sys_switch(Pid::INIT).expect("switch to parent");
    match m.sys_release(&grant) {
        Err(OsError::RevokedCapability { stale, current, .. }) => {
            typed += 1;
            if stale != grant.cap.generation || current <= stale {
                violations.push("fork-handoff: stale release misreported generations".into());
            }
        }
        other => violations.push(format!(
            "fork-handoff: double release yielded {other:?}, not RevokedCapability"
        )),
    }

    collect(CapsScenario::ForkHandoff, &m, typed, violations)
}

/// The stale-shared-alias regression at scenario scale: release while a
/// receiver holds a live alias; the receiver's every page goes typed.
pub fn run_release_leak(seed: u64) -> CapsOutcome {
    let (_cfg, mut m) = fresh(control(seed));
    let mut violations = Vec::new();
    let mut typed = 0u64;

    let buf = m.alloc_region(4 * PAGE_SIZE, PAGE_SIZE).expect("buffer");
    let grant = m.sys_recolor(buf, &[0, 1]).expect("grant");
    let receiver = m.sys_spawn();
    let rx = m.sys_share(&grant, receiver).expect("share");
    m.sys_switch(receiver).expect("switch to receiver");
    for page in rx.blocks(PAGE_SIZE) {
        if let Err(e) = m.try_load(page) {
            typed += 1;
            violations.push(format!("release-leak: live alias page faulted: {e:?}"));
        }
    }
    m.sys_switch(Pid::INIT).expect("switch to owner");
    if let Err(e) = m.sys_release(&grant) {
        violations.push(format!("release-leak: release failed with {e:?}"));
    }
    typed += probe_revoked(&mut m, "release-leak", receiver, rx, &mut violations);

    collect(CapsScenario::ReleaseLeak, &m, typed, violations)
}

/// Retarget atomicity: with the descriptor table completely full, a
/// retarget whose new geometry is rejected by the controller must roll
/// the old descriptor back — the alias keeps reading — and a
/// well-formed retarget afterwards still succeeds.
pub fn run_retarget_atomicity(seed: u64) -> CapsOutcome {
    let (_cfg, mut m) = fresh(control(seed));
    let mut violations = Vec::new();
    let mut typed = 0u64;

    let a = m.alloc_region(64 * PAGE_SIZE, PAGE_SIZE).expect("tiles");
    let mut grant = m
        .sys_remap_strided(a.start(), 64, 128, 8, 4096)
        .expect("strided grant");
    m.load(grant.alias.start());

    // Exhaust the descriptor table so the rollback has no spare slot to
    // lean on: the freed slot itself must absorb the reclaim.
    let mut fillers = Vec::new();
    loop {
        let fb = m.alloc_region(PAGE_SIZE, PAGE_SIZE).expect("filler buffer");
        match m.sys_recolor(fb, &[0]) {
            Ok(g) => fillers.push(g),
            Err(OsError::Mc(McError::NoFreeDescriptor)) => {
                typed += 1;
                break;
            }
            Err(e) => {
                violations.push(format!("retarget-atomicity: filler failed with {e:?}"));
                break;
            }
        }
    }

    // Stride smaller than the object size is rejected at descriptor
    // install; the old descriptor must come back.
    match m.sys_retarget_strided(&mut grant, a.start(), 64, 32, 8) {
        Err(OsError::Mc(McError::BadDescriptor(_))) => typed += 1,
        other => violations.push(format!(
            "retarget-atomicity: bad geometry yielded {other:?}, not BadDescriptor"
        )),
    }
    match m.try_load(grant.alias.start()) {
        Ok(()) => {}
        Err(e) => violations.push(format!(
            "retarget-atomicity: alias dead after rolled-back retarget: {e:?}"
        )),
    }

    // A well-formed retarget still goes through on the same full table.
    match m.sys_retarget_strided(&mut grant, a.start().add(128), 64, 128, 8) {
        Ok(()) => {
            if let Err(e) = m.try_load(grant.alias.start()) {
                violations.push(format!(
                    "retarget-atomicity: alias dead after valid retarget: {e:?}"
                ));
            }
        }
        Err(e) => violations.push(format!(
            "retarget-atomicity: valid retarget failed with {e:?}"
        )),
    }

    for g in &fillers {
        if let Err(e) = m.sys_release(g) {
            violations.push(format!("retarget-atomicity: filler release failed: {e:?}"));
        }
    }
    if let Err(e) = m.sys_release(&grant) {
        violations.push(format!("retarget-atomicity: final release failed: {e:?}"));
    }

    collect(CapsScenario::RetargetAtomicity, &m, typed, violations)
}

/// Capability-table corruption: a scheduled injector flips working-copy
/// checksums during validations (always recovered from the mirror),
/// then a deep corruption — mirror included — must quarantine the slot
/// as a typed [`OsError::CapTableCorrupt`] while the rest of the table
/// keeps granting.
pub fn run_table_corruption(seed: u64) -> CapsOutcome {
    let faults = FaultConfig {
        seed,
        caps_corrupt: Trigger::EveryN { every: 3, phase: 1 },
        ..FaultConfig::none()
    };
    let (_cfg, mut m) = fresh(faults);
    let mut violations = Vec::new();
    let mut typed = 0u64;

    // Churn enough validations for the schedule to fire: every share
    // and revoke validates the handle (and its integrity) first.
    let buf = m.alloc_region(2 * PAGE_SIZE, PAGE_SIZE).expect("buffer");
    let receiver = m.sys_spawn();
    for _ in 0..12 {
        let g = m.sys_recolor(buf, &[0]).expect("grant under corruption");
        let rx = m.sys_share(&g, receiver).expect("share under corruption");
        m.sys_switch(receiver).expect("switch to receiver");
        if let Err(e) = m.try_load(rx.start()) {
            typed += 1;
            violations.push(format!("table-corruption: live alias faulted: {e:?}"));
        }
        m.sys_switch(Pid::INIT).expect("switch to owner");
        if let Err(e) = m.sys_revoke(&g) {
            violations.push(format!("table-corruption: revoke failed with {e:?}"));
        }
    }
    let mid = m.kernel().caps().fault_stats();
    if mid.corruptions == 0 {
        violations.push("table-corruption: corruption schedule never fired".into());
    }
    if mid.reloads != mid.corruptions || mid.unrecoverable != 0 {
        violations.push(format!(
            "table-corruption: shallow corruption not fully recovered ({mid:?})"
        ));
    }

    // Deep corruption: working copy AND mirror damaged. The next
    // validation must quarantine the slot with the typed error.
    let doomed = m.sys_recolor(buf, &[1]).expect("doomed grant");
    m.kernel_mut()
        .caps_mut()
        .inject_corruption(doomed.cap.index, true);
    match m.sys_release(&doomed) {
        Err(OsError::CapTableCorrupt { slot }) => {
            typed += 1;
            if slot != doomed.cap.index {
                violations.push(format!(
                    "table-corruption: quarantined slot {slot}, expected {}",
                    doomed.cap.index
                ));
            }
        }
        other => violations.push(format!(
            "table-corruption: deep corruption yielded {other:?}, not CapTableCorrupt"
        )),
    }
    let end = m.kernel().caps().fault_stats();
    if end.unrecoverable != 1 {
        violations.push(format!(
            "table-corruption: expected exactly one unrecoverable entry, saw {}",
            end.unrecoverable
        ));
    }
    // The injector may also have fired on the quarantining validation;
    // either way every *recoverable* corruption was reloaded.
    if end.reloads > end.corruptions || end.reloads + end.unrecoverable < end.corruptions {
        violations.push(format!(
            "table-corruption: recovery accounting drifted ({end:?})"
        ));
    }

    // The quarantine is contained: granting, sharing, and revoking keep
    // working on the rest of the table, and a scrub finds it clean.
    match m.sys_recolor(buf, &[2]) {
        Ok(g) => {
            m.load(g.alias.start());
            if let Err(e) = m.sys_release(&g) {
                violations.push(format!("table-corruption: post-quarantine release: {e:?}"));
            }
        }
        Err(e) => violations.push(format!(
            "table-corruption: grant after quarantine failed with {e:?}"
        )),
    }
    let (_checked, repaired) = m.kernel_mut().caps_mut().scrub();
    if repaired != 0 {
        violations.push(format!(
            "table-corruption: scrub found {repaired} latent corruptions after recovery"
        ));
    }

    collect(CapsScenario::TableCorruption, &m, typed, violations)
}

/// Snapshot with live cross-process shares: restore must resume
/// bit-exactly, and an identical continuation — receiver streaming,
/// then revocation, then typed faults — must land both machines on the
/// same cycle count, the same capability counters, and byte-identical
/// re-snapshots.
pub fn run_snapshot_mid_share(seed: u64) -> CapsOutcome {
    let (cfg, mut m) = fresh(control(seed));
    let mut violations = Vec::new();

    let buf = m.alloc_region(4 * PAGE_SIZE, PAGE_SIZE).expect("buffer");
    let grant = m.sys_recolor(buf, &[0, 1]).expect("grant");
    let receiver = m.sys_spawn();
    let rx = m.sys_share(&grant, receiver).expect("share");
    m.sys_switch(receiver).expect("switch to receiver");
    m.load(rx.start());

    let image = m.snapshot(&cfg);
    let mut restored = match Machine::restore(&cfg, &image) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("snapshot-mid-share: restore failed: {e:?}"));
            return collect(CapsScenario::SnapshotMidShare, &m, 0, violations);
        }
    };

    // The identical continuation, applied to both machines.
    let mut typed_per_machine = [0u64; 2];
    for (i, mm) in [&mut m, &mut restored].into_iter().enumerate() {
        for page in rx.blocks(PAGE_SIZE) {
            if mm.try_load(page).is_err() {
                violations.push(format!(
                    "snapshot-mid-share: live alias faulted on machine {i}"
                ));
            }
        }
        mm.sys_switch(Pid::INIT).expect("switch to owner");
        if let Err(e) = mm.sys_revoke(&grant) {
            violations.push(format!(
                "snapshot-mid-share: revoke failed on machine {i}: {e:?}"
            ));
        }
        mm.sys_switch(receiver).expect("switch to receiver");
        for page in rx.blocks(PAGE_SIZE) {
            match mm.try_load(page) {
                Err(OsError::RevokedCapability { .. }) => typed_per_machine[i] += 1,
                other => violations.push(format!(
                    "snapshot-mid-share: post-restore revoked access yielded {other:?}"
                )),
            }
        }
    }

    if m.now() != restored.now() || m.instructions() != restored.instructions() {
        violations.push(format!(
            "snapshot-mid-share: continuation diverged ({} vs {} cycles)",
            m.now(),
            restored.now()
        ));
    }
    if m.kernel().caps().stats() != restored.kernel().caps().stats() {
        violations.push("snapshot-mid-share: capability counters diverged".into());
    }
    if typed_per_machine[0] != typed_per_machine[1] {
        violations.push("snapshot-mid-share: typed-fault streams diverged".into());
    }
    if m.snapshot(&cfg) != restored.snapshot(&cfg) {
        violations.push("snapshot-mid-share: re-snapshots are not byte-identical".into());
    }

    collect(
        CapsScenario::SnapshotMidShare,
        &m,
        typed_per_machine[0],
        violations,
    )
}

/// Runs one scenario under `seed`.
pub fn run_caps_case(s: CapsScenario, seed: u64) -> CapsOutcome {
    match s {
        CapsScenario::Churn => run_churn(seed),
        CapsScenario::RevokeMidGather => run_revoke_mid_gather(seed),
        CapsScenario::ForkHandoff => run_fork_handoff(seed),
        CapsScenario::ReleaseLeak => run_release_leak(seed),
        CapsScenario::RetargetAtomicity => run_retarget_atomicity(seed),
        CapsScenario::TableCorruption => run_table_corruption(seed),
        CapsScenario::SnapshotMidShare => run_snapshot_mid_share(seed),
    }
}

/// One job per scenario, in deterministic submission order.
pub fn caps_chaos_jobs(seed: u64) -> Vec<impl FnOnce() -> CapsOutcome + Send> {
    CapsScenario::ALL
        .iter()
        .map(|&s| move || run_caps_case(s, seed))
        .collect()
}

/// JSON for one capability case.
fn case_json(o: &CapsOutcome) -> Json {
    let mut c = Json::obj();
    c.set("scenario", Json::Str(o.scenario.clone()));
    c.set("cycles", Json::UInt(o.cycles));
    c.set("instructions", Json::UInt(o.instructions));
    c.set("grants", Json::UInt(o.grants));
    c.set("derives", Json::UInt(o.derives));
    c.set("coalesced", Json::UInt(o.coalesced));
    c.set("revocations", Json::UInt(o.revocations));
    c.set("revoked_caps", Json::UInt(o.revoked_caps));
    c.set("validations", Json::UInt(o.validations));
    c.set("stale_denials", Json::UInt(o.stale_denials));
    c.set("typed_faults", Json::UInt(o.typed_faults));
    c.set("syscall_failures", Json::UInt(o.syscall_failures));
    let mut caps = Json::obj();
    caps.set("corruptions", Json::UInt(o.caps.corruptions));
    caps.set("reloads", Json::UInt(o.caps.reloads));
    caps.set("recovery_cycles", Json::UInt(o.caps.recovery_cycles));
    caps.set("unrecoverable", Json::UInt(o.caps.unrecoverable));
    c.set("caps", caps);
    c.set(
        "violations",
        Json::Arr(o.violations.iter().map(|s| Json::Str(s.clone())).collect()),
    );
    c
}

/// Serializes a capability-suite run: schema `impulse-caps-chaos-v1`,
/// per-case counters, whole-run totals, and the flattened violation
/// list (`ok` is true iff it is empty).
pub fn caps_chaos_document(seed: u64, outcomes: &[CapsOutcome]) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("impulse-caps-chaos-v1".into()));
    doc.set("seed", Json::UInt(seed));
    doc.set("cases", Json::Arr(outcomes.iter().map(case_json).collect()));

    let sum = |f: fn(&CapsOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let mut totals = Json::obj();
    totals.set("grants", Json::UInt(sum(|o| o.grants)));
    totals.set("derives", Json::UInt(sum(|o| o.derives)));
    totals.set("revocations", Json::UInt(sum(|o| o.revocations)));
    totals.set("revoked_caps", Json::UInt(sum(|o| o.revoked_caps)));
    totals.set("validations", Json::UInt(sum(|o| o.validations)));
    totals.set("stale_denials", Json::UInt(sum(|o| o.stale_denials)));
    totals.set("typed_faults", Json::UInt(sum(|o| o.typed_faults)));
    totals.set("syscall_failures", Json::UInt(sum(|o| o.syscall_failures)));
    let mut caps = Json::obj();
    caps.set("corruptions", Json::UInt(sum(|o| o.caps.corruptions)));
    caps.set("reloads", Json::UInt(sum(|o| o.caps.reloads)));
    caps.set(
        "recovery_cycles",
        Json::UInt(sum(|o| o.caps.recovery_cycles)),
    );
    caps.set("unrecoverable", Json::UInt(sum(|o| o.caps.unrecoverable)));
    totals.set("caps", caps);
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
    fn churn_survives_contention_with_typed_errors_only() {
        let o = run_churn(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.grants > 0 && o.revocations > 0, "churn actually churned");
        assert!(o.stale_denials > 0, "double revokes were denied as stale");
        assert!(o.typed_faults > 0, "contention provoked typed errors");
    }

    #[test]
    fn revoke_mid_gather_turns_the_stream_typed() {
        let o = run_revoke_mid_gather(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.typed_faults, 8, "second half of the gather all typed");
        assert!(o.revoked_caps >= 2, "root + derived receiver alias");
    }

    #[test]
    fn fork_handoff_and_release_leak_die_transitively() {
        for o in [run_fork_handoff(7), run_release_leak(7)] {
            assert!(o.violations.is_empty(), "{:?}", o.violations);
            assert!(o.derives >= 1);
            assert!(o.stale_denials >= 1 || o.typed_faults >= 1);
        }
    }

    #[test]
    fn retarget_rolls_back_on_a_full_table() {
        let o = run_retarget_atomicity(42);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.typed_faults, 2, "table exhaustion + bad geometry");
    }

    #[test]
    fn table_corruption_is_detected_and_contained() {
        let o = run_table_corruption(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.caps.corruptions > 0, "schedule fired");
        assert!(o.caps.reloads > 0, "shallow corruption recovered");
        assert_eq!(o.caps.unrecoverable, 1, "deep corruption quarantined");
    }

    #[test]
    fn snapshot_mid_share_resumes_bit_exactly() {
        let o = run_snapshot_mid_share(1999);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.typed_faults > 0, "post-restore revocation went typed");
    }

    #[test]
    fn caps_suite_is_deterministic_across_worker_counts() {
        let run = |workers| {
            let outcomes = runner::run_ordered(caps_chaos_jobs(1999), workers);
            format!("{:#}\n", caps_chaos_document(1999, &outcomes))
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial, parallel,
            "chaos_caps.json must not depend on workers"
        );
        assert!(serial.contains("impulse-caps-chaos-v1"));
        assert!(serial.contains("\"ok\": true"), "suite is violation-free");
    }
}

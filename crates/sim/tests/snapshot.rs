//! Golden invariant for checkpoint/restore:
//! `run(N); snapshot; restore; run(M)` must be bit-identical to
//! `run(N + M)` — every cycle count, statistic, histogram, and emitted
//! report byte — for every machine configuration, including under active
//! fault schedules.

use std::sync::Arc;

use impulse_fault::{FaultConfig, Trigger};
use impulse_sim::{Machine, SystemConfig};
use impulse_types::snap::SnapError;
use impulse_types::VRange;

/// Asserts that two machines are observationally identical: same clock,
/// same instruction count, and bit-identical reports (CSV row, full JSON
/// document, and the complete metrics registry including histograms).
fn assert_machines_identical(a: &Machine, b: &Machine, context: &str) {
    assert_eq!(a.now(), b.now(), "{context}: clock diverged");
    assert_eq!(
        a.instructions(),
        b.instructions(),
        "{context}: instruction count diverged"
    );
    let ra = a.report("equiv");
    let rb = b.report("equiv");
    assert_eq!(ra.csv_row(), rb.csv_row(), "{context}: CSV row diverged");
    assert_eq!(
        format!("{:#}", ra.to_json()),
        format!("{:#}", rb.to_json()),
        "{context}: JSON report diverged"
    );
    assert_eq!(a.metrics(), b.metrics(), "{context}: metrics diverged");
}

/// A deterministic mixed workload: strided loads with reuse, stores, and
/// compute, spread over enough pages to exercise the TLB and both caches.
fn drive(m: &mut Machine, data: VRange, rounds: u64, salt: u64) {
    let len = data.len();
    for i in 0..rounds {
        let off = ((i * 2654435761 + salt) % (len / 8)) * 8;
        m.load(data.start().add(off));
        if i % 3 == 0 {
            m.store(data.start().add((off + 64) % len));
        }
        m.compute(2);
    }
}

/// Runs the golden invariant under `cfg`: builds two identical machines,
/// runs both through `setup`, drives N ops, snapshots one, restores it,
/// drives M more ops on the restored copy and the untouched original, and
/// demands bit-identical observable state.
fn check_equivalence(
    cfg: &SystemConfig,
    context: &str,
    setup: impl Fn(&mut Machine) -> VRange,
    n: u64,
    m_more: u64,
) {
    let mut original = Machine::new(cfg);
    let data = setup(&mut original);
    drive(&mut original, data, n, 7);

    let image = original.snapshot(cfg);
    let mut restored = Machine::restore(cfg, &image).expect("restore succeeds");
    assert_machines_identical(&original, &restored, &format!("{context} (at snapshot)"));

    drive(&mut original, data, m_more, 11);
    drive(&mut restored, data, m_more, 11);
    assert_machines_identical(&original, &restored, &format!("{context} (after resume)"));

    // Re-snapshotting the restored machine reproduces the original's
    // image byte-for-byte: the codec has no hidden iteration-order or
    // address-dependent state.
    let image2 = Machine::restore(cfg, &original.snapshot(cfg))
        .expect("second restore succeeds")
        .snapshot(cfg);
    assert_eq!(
        original.snapshot(cfg),
        image2,
        "{context}: snapshot-of-restore is not byte-identical"
    );
}

fn plain_setup(m: &mut Machine) -> VRange {
    m.alloc_region(256 * 1024, 8).expect("alloc")
}

#[test]
fn fresh_machine_round_trips() {
    let cfg = SystemConfig::paint_small();
    let m = Machine::new(&cfg);
    let image = m.snapshot(&cfg);
    let r = Machine::restore(&cfg, &image).expect("restore fresh machine");
    assert_machines_identical(&m, &r, "fresh machine");
}

#[test]
fn baseline_config_resumes_bit_exactly() {
    check_equivalence(
        &SystemConfig::paint_small(),
        "baseline",
        plain_setup,
        2000,
        1500,
    );
}

#[test]
fn prefetch_config_resumes_bit_exactly() {
    check_equivalence(
        &SystemConfig::paint_small().with_prefetch(true, true),
        "mc+l1 prefetch",
        plain_setup,
        2000,
        1500,
    );
}

#[test]
fn stream_buffers_and_mshr_resume_bit_exactly() {
    // Non-blocking loads keep misses in flight across the snapshot; the
    // stream-buffer FIFOs must survive too.
    check_equivalence(
        &SystemConfig::paint_small()
            .with_stream_buffers()
            .with_mshr(4),
        "stream buffers + mshr=4",
        plain_setup,
        2500,
        2000,
    );
}

#[test]
fn gather_remap_resumes_bit_exactly() {
    // Shadow descriptors, the controller page table, and the gather
    // buffers all carry state across the snapshot.
    let cfg = SystemConfig::paint_small().with_prefetch(true, false);
    check_equivalence(
        &cfg,
        "gather remap",
        |m| {
            let x = m.alloc_region(4096 * 8, 8).expect("alloc x");
            let colv = m.alloc_region(2048 * 4, 4).expect("alloc colv");
            let indices = Arc::new((0..2048u64).map(|i| (i * 13) % 4096).collect::<Vec<_>>());
            let g = m
                .sys_remap_gather(x, 8, indices, colv, 4)
                .expect("gather remap");
            g.alias
        },
        1200,
        900,
    );
}

#[test]
fn auto_promotion_and_process_switch_resume_bit_exactly() {
    // The kernel side: per-region TLB-miss counters, superpage promotion
    // state, and a second process's address space.
    let cfg = SystemConfig::paint_small();
    let mut original = Machine::new(&cfg);
    original.enable_auto_promotion(4);
    let data = plain_setup(&mut original);
    let other = original.sys_spawn();
    drive(&mut original, data, 1500, 3);

    let image = original.snapshot(&cfg);
    let mut restored = Machine::restore(&cfg, &image).expect("restore");
    // `enable_auto_promotion` is machine state and must survive the
    // image; do NOT re-enable it on the restored copy.
    assert_machines_identical(&original, &restored, "promotion (at snapshot)");

    for m in [&mut original, &mut restored] {
        m.sys_switch(other).expect("switch");
        let r2 = m.alloc_region(64 * 1024, 8).expect("alloc in child");
        drive(m, r2, 600, 5);
    }
    assert_machines_identical(&original, &restored, "promotion (after resume)");
}

#[test]
fn active_fault_schedule_resumes_bit_exactly() {
    // All three fault classes live: the per-site RNG streams, pending
    // bit flips, and timeout bookkeeping must resume mid-schedule.
    let faults = FaultConfig {
        seed: 0xFA_0715,
        dram_flip: Trigger::Permille(200),
        dram_double_permille: 100,
        bus_timeout: Trigger::Permille(150),
        pgtbl_corrupt: Trigger::EveryN { every: 7, phase: 2 },
        ..FaultConfig::none()
    };
    check_equivalence(
        &SystemConfig::paint_small().with_faults(faults),
        "active fault schedule",
        plain_setup,
        3000,
        2500,
    );
}

#[test]
fn fault_schedule_with_prefetch_resumes_bit_exactly() {
    let faults = FaultConfig {
        seed: 1999,
        dram_flip: Trigger::Permille(300),
        bus_timeout: Trigger::EveryN { every: 5, phase: 0 },
        ..FaultConfig::none()
    };
    check_equivalence(
        &SystemConfig::paint_small()
            .with_prefetch(true, true)
            .with_faults(faults),
        "faults + prefetch",
        plain_setup,
        2000,
        1500,
    );
}

#[test]
fn live_shares_and_revocation_resume_bit_exactly() {
    // Snapshot mid-scenario with shared and owned grants live (plus
    // tombstones from an earlier release), restore, and demand that
    // post-restore revocation behaves identically on both sides — receiver accesses
    // yield the same typed errors, same charges, same clock.
    let cfg = SystemConfig::paint_small();
    let mut original = Machine::new(&cfg);

    let data = plain_setup(&mut original);
    let live = original.sys_recolor(data, &[0, 1]).expect("recolor");
    let doomed_buf = original
        .alloc_region(4 * impulse_types::geom::PAGE_SIZE, 8)
        .expect("alloc");
    let doomed = original.sys_recolor(doomed_buf, &[2]).expect("recolor");
    let receiver = original.sys_spawn();
    let rx = original.sys_share(&live, receiver).expect("share");
    let dead_rx = original.sys_share(&doomed, receiver).expect("share");
    // Tombstones live in the snapshot: this release tears down dead_rx.
    original.sys_release(&doomed).expect("release");
    drive(&mut original, live.alias, 600, 7);

    let image = original.snapshot(&cfg);
    let mut restored = Machine::restore(&cfg, &image).expect("restore");
    assert_machines_identical(&original, &restored, "live shares (at snapshot)");

    for m in [&mut original, &mut restored] {
        // Receiver still reaches the live share, still faults on the
        // revoked one, then loses the live one to a post-restore revoke.
        m.sys_switch(receiver).expect("switch");
        m.try_load(rx.start()).expect("live share readable");
        assert!(matches!(
            m.try_load(dead_rx.start()),
            Err(impulse_os::OsError::RevokedCapability { .. })
        ));
        m.sys_switch(impulse_os::Pid::INIT).expect("switch back");
        let out = m.sys_revoke(&live).expect("revoke");
        assert!(out.caps_revoked >= 2);
        m.sys_switch(receiver).expect("switch");
        assert!(matches!(
            m.try_load(rx.start()),
            Err(impulse_os::OsError::RevokedCapability { .. })
        ));
    }
    assert_machines_identical(&original, &restored, "live shares (after revoke)");

    // Re-snapshotting the restored machine is still byte-identical.
    assert_eq!(
        original.snapshot(&cfg),
        restored.snapshot(&cfg),
        "post-revocation snapshots diverged"
    );
}

#[test]
fn tier_cache_policy_resumes_bit_exactly() {
    // The DRAM-as-cache tier carries a tag array, fill buffer, and SCM
    // channel clocks across the snapshot; SCM bit errors and tag
    // corruption keep their RNG streams live mid-schedule.
    let faults = FaultConfig {
        seed: 0x71E4,
        scm_flip: Trigger::Permille(250),
        scm_double_permille: 100,
        tag_corrupt: Trigger::EveryN { every: 9, phase: 4 },
        ..FaultConfig::none()
    };
    check_equivalence(
        &SystemConfig::paint_small()
            .with_tier(impulse_types::TierPolicy::Cache)
            .with_faults(faults),
        "cache tier + scm faults",
        plain_setup,
        2500,
        2000,
    );
}

#[test]
fn tier_wear_out_resumes_bit_exactly() {
    // Restore mid-wear-out: per-line wear counters, retired lines, and
    // spare accounting are physical state and must survive the image, so
    // lines keep wearing out at exactly the same writes after resume.
    // A 64 KB DRAM cache thrashed by a 256 KB working set produces a
    // steady stream of dirty writebacks into single-write-limit SCM
    // lines: the 8 spares retire early in the run, then lines go dead,
    // so the restored machine resumes with dead lines, lost writebacks,
    // and NACK-degraded demand fetches all in flight.
    let mut cfg = SystemConfig::paint_small().with_tier(impulse_types::TierPolicy::Cache);
    cfg.dram.capacity = 64 * 1024;
    cfg.tier.scm.wear_limit = 1;
    cfg.tier.scm.spare_lines = 8;
    check_equivalence(&cfg, "cache tier wear-out", plain_setup, 3000, 2500);

    // The schedule above must actually retire and kill lines, otherwise
    // this test exercises nothing: drive one machine solo and check.
    let mut m = Machine::new(&cfg);
    let data = plain_setup(&mut m);
    drive(&mut m, data, 5500, 7);
    let reg = m.metrics();
    let retired = reg.counter_value("mc.scm.wear_retirements");
    let dead = reg.counter_value("mc.scm.dead_rejects");
    let faults = reg.counter_value("mem.tier_faults");
    assert!(
        retired.is_some_and(|v| v > 0),
        "wear schedule never retired a line (got {retired:?})"
    );
    assert!(
        dead.is_some_and(|v| v > 0) && faults.is_some_and(|v| v > 0),
        "no line ever went dead (dead_rejects {dead:?}, tier_faults {faults:?})"
    );
}

#[test]
fn tier_channel_kill_resumes_bit_exactly() {
    // Restore mid-channel-failure: the dead-bank mask, bypass counters,
    // and the kill plan's RNG stream resume so later kills pick the same
    // victims. Flat mode turns dead-channel accesses into typed,
    // NACK-degraded rejections, which must also count identically.
    let faults = FaultConfig {
        seed: 0x00DE_ADC4,
        tier_fail: Trigger::EveryN {
            every: 900,
            phase: 300,
        },
        ..FaultConfig::none()
    };
    for policy in [
        impulse_types::TierPolicy::Flat,
        impulse_types::TierPolicy::Cache,
    ] {
        let cfg = SystemConfig::paint_small()
            .with_tier(policy)
            .with_faults(faults.clone());
        check_equivalence(
            &cfg,
            &format!("{} tier + channel kill", policy.name()),
            plain_setup,
            2500,
            2000,
        );

        let mut m = Machine::new(&cfg);
        let data = plain_setup(&mut m);
        drive(&mut m, data, 4500, 7);
        let kills = m.metrics().counter_value("mc.tier.fault.channel_kills");
        assert!(
            kills.is_some_and(|v| v > 0),
            "{}: kill schedule never fired (got {kills:?})",
            policy.name()
        );
    }
}

#[test]
fn restore_rejects_corruption_and_mismatch() {
    let cfg = SystemConfig::paint_small();
    let mut m = Machine::new(&cfg);
    let data = plain_setup(&mut m);
    drive(&mut m, data, 500, 1);
    let image = m.snapshot(&cfg);

    // A flipped payload byte is caught by the checksum.
    let mut corrupt = image.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert_eq!(
        Machine::restore(&cfg, &corrupt).unwrap_err(),
        SnapError::BadChecksum
    );

    // A truncated image never panics and never yields a machine.
    for cut in [0, 7, 14, 20, image.len() / 2, image.len() - 1] {
        assert!(
            Machine::restore(&cfg, &image[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Garbage up front is not an impulse snapshot.
    let mut bad_magic = image.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(
        Machine::restore(&cfg, &bad_magic).unwrap_err(),
        SnapError::BadMagic
    );

    // A different configuration is rejected by fingerprint, before any
    // component tries to decode geometry it cannot hold.
    let other = SystemConfig::paint_small().with_prefetch(true, true);
    assert_eq!(
        Machine::restore(&other, &image).unwrap_err(),
        SnapError::ConfigMismatch
    );
}

#[test]
fn snapshot_is_deterministic() {
    let cfg = SystemConfig::paint_small();
    let mut m = Machine::new(&cfg);
    let data = plain_setup(&mut m);
    drive(&mut m, data, 800, 9);
    assert_eq!(
        m.snapshot(&cfg),
        m.snapshot(&cfg),
        "two snapshots of the same machine must be byte-identical"
    );
}

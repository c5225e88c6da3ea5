//! Multi-process integration tests: inter-process protection of the
//! remapping system calls (Section 2.1's design requirement) and the
//! shared-shadow LRPC-style IPC the paper's conclusions describe.

use std::sync::Arc;

use impulse::core::McError;
use impulse::fault::XorShift64;
use impulse::os::{OsError, Pid, RemapGrant};
use impulse::sim::{Machine, SystemConfig};
use impulse::types::geom::PAGE_SIZE;
use impulse::types::VRange;

fn machine() -> Machine {
    Machine::new(&SystemConfig::paint_small())
}

#[test]
fn context_switch_costs_cycles_and_flushes_tlb() {
    let mut m = machine();
    let r = m.alloc_region(4 * 4096, 8).unwrap();
    m.load(r.start());
    let penalties_before = m.memory().stats().tlb_penalties;

    let child = m.sys_spawn();
    let t = m.now();
    m.sys_switch(child).unwrap();
    assert!(m.now() > t, "context switch must cost time");
    m.sys_switch(Pid::INIT).unwrap();

    // Same page again: the TLB was flushed, so a fresh penalty is paid.
    m.load(r.start());
    assert_eq!(m.memory().stats().tlb_penalties, penalties_before + 1);
}

#[test]
fn processes_cannot_touch_each_others_grants() {
    let mut m = machine();
    let x = m.alloc_region(4096, 8).unwrap();
    let grant = m.sys_recolor(x, &[0]).unwrap();
    let intruder = m.sys_spawn();
    m.sys_switch(intruder).unwrap();

    assert!(matches!(
        m.sys_release(&grant),
        Err(OsError::NotOwner(Pid::INIT))
    ));
    assert!(matches!(
        m.sys_share(&grant, intruder),
        Err(OsError::NotOwner(Pid::INIT))
    ));
}

#[test]
fn lrpc_style_no_copy_message_passing() {
    let mut m = machine();

    // Sender: scattered message pieces gathered through one descriptor.
    let pieces = m.alloc_region(64 * 1024, 8).unwrap();
    let colv = m.alloc_region(32 * 1024, 4).unwrap();
    let words = 4096u64;
    let indices: Vec<u64> = (0..words).map(|i| (i * 1237) % (64 * 1024 / 8)).collect();
    let grant = m
        .sys_remap_gather(pieces, 8, Arc::new(indices), colv, 4)
        .unwrap();

    // Receiver gets its own alias onto the same shadow region.
    let receiver = m.sys_spawn();
    let rx_alias = m.sys_share(&grant, receiver).unwrap();

    // Sender-side view and receiver-side view resolve to the same DRAM.
    let tx_dram = m
        .memory()
        .mc()
        .resolve_shadow(m.translate(grant.alias.start()))
        .unwrap();
    m.sys_switch(receiver).unwrap();
    let rx_shadow = m.translate(rx_alias.start());
    let rx_dram = m.memory().mc().resolve_shadow(rx_shadow).unwrap();
    assert_eq!(tx_dram, rx_dram);

    // The receiver streams the message without any copy having happened.
    m.reset_stats();
    for w in 0..words {
        m.load(rx_alias.start().add(w * 8));
    }
    let rep = m.report("receiver stream");
    assert_eq!(rep.mem.loads, words);
    assert_eq!(rep.mem.stores, 0, "no copies anywhere");
    assert!(rep.mem.l1_ratio() > 0.7, "gathered message is dense");
}

#[test]
fn distinct_processes_reuse_virtual_addresses_safely() {
    let mut m = machine();
    let a = m.alloc_region(4096, 8).unwrap();
    let pa_parent = m.translate(a.start());

    let child = m.sys_spawn();
    m.sys_switch(child).unwrap();
    let b = m.alloc_region(4096, 8).unwrap();
    // Identical virtual address, different process, different frame.
    assert_eq!(a.start(), b.start());
    let pa_child = m.translate(b.start());
    assert_ne!(pa_parent, pa_child);

    // Both processes can use their views; the simulator keeps them apart.
    m.load(b.start());
    m.sys_switch(Pid::INIT).unwrap();
    m.load(a.start());
}

/// Loads every page of `alias` as `pid`; each must be the typed
/// revocation error with a generation that moved on. Returns how many
/// errors it saw.
fn probe_revoked(m: &mut Machine, pid: Pid, alias: VRange) -> u64 {
    m.sys_switch(pid).unwrap();
    let mut errors = 0;
    for page in alias.blocks(PAGE_SIZE) {
        match m.try_load(page) {
            Err(OsError::RevokedCapability { stale, current, .. }) => {
                assert!(current > stale, "generation must have moved on");
                errors += 1;
            }
            other => panic!("revoked alias page {page:?} gave {other:?}"),
        }
    }
    errors
}

/// A receiver streams a shared gather alias; the owner revokes the grant
/// halfway through, and every later element is the typed error.
#[test]
fn revoke_mid_gather_turns_the_stream_typed() {
    let mut m = machine();
    let x = m.alloc_region(128 * 8, 128).unwrap();
    let col = m.alloc_region(16 * 4, 128).unwrap();
    let indices: Vec<u64> = (0..16).map(|i| (i * 7) % 128).collect();
    let grant = m
        .sys_remap_gather(
            VRange::new(x.start(), 128 * 8),
            8,
            Arc::new(indices),
            col,
            4,
        )
        .unwrap();
    let receiver = m.sys_spawn();
    let rx = m.sys_share(&grant, receiver).unwrap();

    m.sys_switch(receiver).unwrap();
    for i in 0..8 {
        m.try_load(rx.start().add(i * 8)).unwrap();
    }
    m.sys_switch(Pid::INIT).unwrap();
    let out = m.sys_revoke(&grant).unwrap();
    assert_eq!(out.caps_revoked, 2, "the grant and its one receiver");
    assert_eq!(out.cycles, 40 + 12 * 2);

    m.sys_switch(receiver).unwrap();
    for i in 8..16 {
        match m.try_load(rx.start().add(i * 8)) {
            Err(OsError::RevokedCapability { .. }) => {}
            other => panic!("element {i} after the revoke gave {other:?}"),
        }
    }
    assert_eq!(m.syscall_failures(), 8);
}

/// A grant handed to two children: the parent's release kills both
/// aliases page by page, and a second release names the stale handle.
#[test]
fn fork_handoff_and_release_leak_die_transitively() {
    let mut m = machine();
    let buf = m.alloc_region(4 * PAGE_SIZE, PAGE_SIZE).unwrap();
    let grant = m.sys_recolor(buf, &[0, 1]).unwrap();
    let children = [m.sys_spawn(), m.sys_spawn()];
    let mut aliases = Vec::new();
    for child in children {
        let alias = m.sys_share(&grant, child).unwrap();
        m.sys_switch(child).unwrap();
        m.try_load(alias.start()).unwrap();
        m.sys_switch(Pid::INIT).unwrap();
        aliases.push((child, alias));
    }

    m.sys_release(&grant).unwrap();
    let mut errors = 0;
    for &(child, alias) in &aliases {
        errors += probe_revoked(&mut m, child, alias);
    }
    let pages: u64 = aliases.iter().map(|(_, a)| a.page_count()).sum();
    assert_eq!(errors, pages, "every page of both aliases");

    m.sys_switch(Pid::INIT).unwrap();
    match m.sys_release(&grant) {
        Err(OsError::RevokedCapability { stale, current, .. }) => {
            assert_eq!(stale, grant.handle.generation);
            assert!(stale < current);
        }
        other => panic!("second release gave {other:?}"),
    }
    assert_eq!(m.syscall_failures(), errors + 1);
}

/// A live grant in the churn, with the receiver aliases shared from it.
struct Live {
    owner: Pid,
    grant: RemapGrant,
    receivers: Vec<(Pid, VRange)>,
}

/// Revokes `g` as its owner: the walk must count and charge the grant
/// and every receiver alias, and every receiver page must then be the
/// typed error. Returns the errors the probes saw.
fn revoke_live(m: &mut Machine, g: &Live) -> u64 {
    m.sys_switch(g.owner).unwrap();
    let out = m.sys_revoke(&g.grant).unwrap();
    let handles = 1 + g.receivers.len() as u64;
    assert_eq!(out.caps_revoked, handles);
    assert_eq!(out.cycles, 40 + 12 * handles);
    g.receivers
        .iter()
        .map(|&(peer, alias)| probe_revoked(m, peer, alias))
        .sum()
}

/// Two dozen processes grant, share and revoke over the controller's 8
/// shadow descriptors. Every failure is one of the typed protection
/// outcomes and is counted at the syscall boundary, and a revoked
/// handle stays denied after its slot holds another process's grant.
#[test]
fn churn_survives_contention_with_typed_errors_only() {
    // Failures seen: no free descriptor, not the owner, revoked.
    let mut seen = [0u64; 3];
    let tally = |seen: &mut [u64; 3], e: OsError| match e {
        OsError::Mc(McError::NoFreeDescriptor) => seen[0] += 1,
        OsError::NotOwner(_) => seen[1] += 1,
        OsError::RevokedCapability { stale, current, .. } => {
            assert!(current > stale);
            seen[2] += 1;
        }
        other => panic!("untyped failure: {other:?}"),
    };

    let mut m = machine();
    let mut rng = XorShift64::new(1999);
    let procs: Vec<(Pid, VRange)> = (0..24)
        .map(|_| {
            let pid = m.sys_spawn();
            m.sys_switch(pid).unwrap();
            (pid, m.alloc_region(2 * PAGE_SIZE, PAGE_SIZE).unwrap())
        })
        .collect();
    let mut live: Vec<Live> = Vec::new();
    let mut dead: Vec<(Pid, RemapGrant)> = Vec::new();
    let (mut reused, mut most_receivers) = (0, 0);

    for _ in 0..400 {
        let (actor, buf) = procs[rng.below(procs.len() as u64) as usize];
        m.sys_switch(actor).unwrap();
        // The actor works on its own grant when it has one, else on a
        // random one it does not own.
        let target = live
            .iter()
            .position(|g| g.owner == actor)
            .or_else(|| (!live.is_empty()).then(|| rng.below(live.len() as u64) as usize));
        match (rng.below(4), target) {
            (0, _) => {
                if live.iter().any(|g| g.owner == actor) {
                    continue;
                }
                let colors = [rng.below(2), 2 + rng.below(2)];
                match m.sys_recolor(buf, &colors) {
                    Ok(grant) => live.push(Live {
                        owner: actor,
                        grant,
                        receivers: Vec::new(),
                    }),
                    Err(e) => tally(&mut seen, e),
                }
            }
            (1, Some(i)) => {
                let (peer, _) = procs[rng.below(procs.len() as u64) as usize];
                let g = &mut live[i];
                match m.sys_share(&g.grant, peer) {
                    Ok(alias) => {
                        assert_eq!(g.owner, actor);
                        g.receivers.push((peer, alias));
                        m.sys_switch(peer).unwrap();
                        m.try_load(alias.start()).unwrap();
                    }
                    Err(e) => {
                        assert_eq!(e, OsError::NotOwner(g.owner));
                        tally(&mut seen, e);
                    }
                }
            }
            (2, Some(i)) if live[i].owner != actor => {
                let e = m.sys_revoke(&live[i].grant).unwrap_err();
                assert_eq!(e, OsError::NotOwner(live[i].owner));
                tally(&mut seen, e);
            }
            (2, Some(i)) => {
                let g = live.swap_remove(i);
                most_receivers = most_receivers.max(g.receivers.len());
                seen[2] += revoke_live(&mut m, &g);
                dead.push((g.owner, g.grant));
            }
            (3, _) if !dead.is_empty() => {
                let (owner, grant) = &dead[rng.below(dead.len() as u64) as usize];
                let slot = grant.handle.slot;
                if live
                    .iter()
                    .any(|g| g.grant.handle.slot == slot && g.owner != *owner)
                {
                    reused += 1;
                }
                m.sys_switch(*owner).unwrap();
                let e = m.sys_revoke(grant).unwrap_err();
                assert!(
                    matches!(e, OsError::RevokedCapability { stale, .. }
                        if stale == grant.handle.generation),
                    "revoking a dead handle gave {e:?}"
                );
                tally(&mut seen, e);
            }
            _ => {}
        }
    }

    // The survivors still revoke cleanly, so no stale revocation above
    // touched the grant that took over its slot.
    for g in live.drain(..) {
        most_receivers = most_receivers.max(g.receivers.len());
        seen[2] += revoke_live(&mut m, &g);
    }
    assert!(
        seen.iter().all(|&n| n > 0) && reused > 0 && most_receivers >= 2,
        "the churn must reach every outcome: {seen:?}, {reused} reused slots, \
         at most {most_receivers} receivers on one grant"
    );
    assert_eq!(m.syscall_failures(), seen.iter().sum::<u64>());
}

/// A remap that fails after it claimed shadow space and a descriptor
/// gives both back. Eight failed gathers, as many as the controller has
/// descriptors, leave room for a gather and a recolor. A failed
/// superpage, recolor or strided remap leaks nothing either, and the
/// failed superpage leaves every page on its own frame.
#[test]
fn failed_remaps_release_what_they_claimed() {
    let mut m = machine();
    let x = m.alloc_region(8 * PAGE_SIZE, PAGE_SIZE).unwrap();
    let column = m.alloc_region(64 * 4, 4).unwrap();
    // Three mapped pages at the start of a four-page superpage span.
    let holed = m.alloc_region(3 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
    let span = VRange::new(holed.start(), 4 * PAGE_SIZE);
    let unmapped = VRange::new(span.end().add(1 << 30), x.len());
    let aspace = m.kernel().aspace();
    assert!(aspace.try_translate(span.end().sub(PAGE_SIZE)).is_none());
    assert!(aspace.try_translate(unmapped.start()).is_none());
    let frames: Vec<_> = holed.blocks(PAGE_SIZE).map(|p| m.translate(p)).collect();
    let indices = Arc::new((0..64u64).map(|i| i * 3).collect::<Vec<_>>());
    let shadow = m.kernel().stats().shadow_bytes;

    for _ in 0..8 {
        let e = m
            .sys_remap_gather(unmapped, 8, indices.clone(), column, 4)
            .unwrap_err();
        assert!(matches!(e, OsError::TargetNotPhysical(_)), "{e:?}");
    }
    let e = m.sys_superpage(span).unwrap_err();
    assert!(matches!(e, OsError::TargetNotPhysical(_)), "{e:?}");
    let e = m.sys_recolor(span, &[0, 1]).unwrap_err();
    assert!(matches!(e, OsError::TargetNotPhysical(_)), "{e:?}");
    // The alias alignment is checked after the target pages download.
    let e = m
        .sys_remap_strided(x.start(), 8, 64, 16, 3 * PAGE_SIZE)
        .unwrap_err();
    assert!(matches!(e, OsError::BadAlignment(_)), "{e:?}");
    assert_eq!(m.syscall_failures(), 11);
    assert_eq!(
        m.kernel().stats().shadow_bytes,
        shadow,
        "shadow space leaked"
    );
    let after: Vec<_> = holed.blocks(PAGE_SIZE).map(|p| m.translate(p)).collect();
    assert_eq!(after, frames, "a failed superpage re-pointed pages");

    // Every descriptor is free: all eight can be claimed.
    m.sys_remap_gather(x, 8, indices, column, 4).unwrap();
    for _ in 0..7 {
        m.sys_recolor(x, &[0, 1]).unwrap();
    }
    assert_eq!(
        m.sys_recolor(x, &[0, 1]).unwrap_err(),
        OsError::Mc(McError::NoFreeDescriptor)
    );
}

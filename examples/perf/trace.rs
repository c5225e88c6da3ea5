//! `perf trace`: the per-layer split of host time, measured from outside
//! the simulator by replaying each cell's recorded streams into clones of
//! the simulator's parts.
//!
//! For each cell the measured phase runs twice from identical set-ups:
//! untraced (its time is `T_meas`) and traced, with a demand-access
//! [`Tracer`] on the machine and the controller's flight recorder on. The
//! traced machine is cloned just before its measured phase (`base`); each
//! layer's public entry point is then driven with the recorded stream on a
//! clone of `base`'s part, in a timed loop:
//!
//! | layer        | calls replayed                                     |
//! |--------------|----------------------------------------------------|
//! | `os`         | `Kernel::translate` behind `Machine`'s 16-entry memo, and `Kernel::tlb_span`, per demand access |
//! | `sim.memsys` | `MemorySystem::load` / `store` at each access's issue cycle |
//! | `cache.tlb`  | `Tlb::lookup`, and `Tlb::insert` on a miss          |
//! | `cache.l1`   | `Cache::access` per demand access                   |
//! | `cache.l2`   | `Cache::access` over the L1-miss stream             |
//! | `core.mc`    | `MemController::read_line` / `write_line` per flight event, split by hit class into direct and shadow |
//! | `dram`       | `Dram::access` per direct-class flight event        |
//!
//! Self times are `cpu = T_meas − T_ms − T_os`,
//! `sim.memsys = T_ms − T_tlb − T_l1 − T_l2 − T_mc` and
//! `core.mc = T_mc − T_dram`; summed over the workload's cells and divided
//! by the summed `T_meas`, the eight shares add up to 1. Negative residuals
//! are reported as they are. `core.mc` still holds the DRAM and SCM work
//! inside gathers and prefetches, which no public call separates.
//!
//! The tracer keeps the first [`TRACE_CAP`] demand accesses of a cell.
//! Each layer's time over that prefix is extrapolated to the whole run by
//! its call count in the run's statistics (ns per call × calls), and
//! `trace.coverage` says how much of the stream the prefix held.
//!
//! Replay is exact only when nothing but the recorded calls changes a
//! part's state. `replay.memsys_exact` and `replay.mc_exact` report the
//! share of cells whose replayed statistics equal the in-simulation ones:
//! mid-run system calls and flushes (table 2 tile remapping) are not in the
//! streams, and a partial trace cannot reproduce a whole run.

use std::hint::black_box;
use std::time::Instant;

use impulse_cache::{Cache, Outcome, Tlb};
use impulse_core::{FlightEvent, HitClass, MemController, TierStats};
use impulse_dram::{Dram, ScmStats};
use impulse_obs::{Json, Stage};
use impulse_os::Kernel;
use impulse_sim::{Machine, MemorySystem, Report, TraceEvent, Tracer};
use impulse_types::{AccessKind, MAddr, PAddr, VAddr};

use crate::calib::{Calibrator, CALIB_REF_MS};
use crate::cells::{Cell, Workload};
use crate::run::Checker;
use crate::stats;

/// Demand accesses the tracer keeps per cell (40 B each).
pub const TRACE_CAP: usize = 1 << 21;
/// Flight-recorder capacity: above the largest cell's MC transaction
/// count, so the ring never wraps and the MC replay starts from `base`.
const FLIGHT_CAP: usize = 1 << 20;

/// The per-layer metrics, with their units, in report order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("cpu.self_share", "ratio"),
    ("os.self_share", "ratio"),
    ("sim.memsys.self_share", "ratio"),
    ("cache.tlb.self_share", "ratio"),
    ("cache.l1.self_share", "ratio"),
    ("cache.l2.self_share", "ratio"),
    ("core.mc.self_share", "ratio"),
    ("dram.self_share", "ratio"),
    ("os_ns", "ns"),
    ("sim.memsys_ns", "ns"),
    ("cache.tlb_ns", "ns"),
    ("cache.l1_ns", "ns"),
    ("cache.l2_ns", "ns"),
    ("core.mc.direct_ns", "ns"),
    ("core.mc.shadow_ns", "ns"),
    ("dram_ns", "ns"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("replay.memsys_exact", "ratio"),
    ("replay.mc_exact", "ratio"),
    ("sim.accesses", "count"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.tlb_hit_ratio", "ratio"),
    ("cache.writebacks", "count"),
    ("core.pgtbl_hit_ratio", "ratio"),
    ("core.pgtbl_lookups", "count"),
    ("core.prefetch_hit_ratio", "ratio"),
    ("core.desc_buffer_hit_ratio", "ratio"),
    ("core.dram_per_gather", "ratio"),
    ("core.shadow_reads", "count"),
    ("core.shadow_writes", "count"),
    ("core.rejected", "count"),
    ("dram.accesses", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.bank_wait_cycles", "cycles"),
    ("sim.bus_contention_cycles", "cycles"),
    ("tier.fill_hit_ratio", "ratio"),
    ("tier.dram_hit_ratio", "ratio"),
    ("scm.reads", "count"),
    ("scm.writes", "count"),
    ("attr.mmu_share", "ratio"),
    ("attr.l1_share", "ratio"),
    ("attr.l2_share", "ratio"),
    ("attr.stream_share", "ratio"),
    ("attr.bus_share", "ratio"),
    ("attr.mc_frontend_share", "ratio"),
    ("attr.pgtbl_share", "ratio"),
    ("attr.dram_share", "ratio"),
];

/// The replayed layers, indexing [`CellTrace::layers`].
const OS: usize = 0;
const MS: usize = 1;
const TLB: usize = 2;
const L1: usize = 3;
const L2: usize = 4;
const MC: usize = 5;
const MC_DIRECT: usize = 6;
const MC_SHADOW: usize = 7;
const DRAM: usize = 8;

/// Host time of one layer's replay: seconds over the replayed calls, and
/// the layer's call count over the whole measured phase.
#[derive(Clone, Copy, Default)]
struct Layer {
    secs: f64,
    calls: u64,
    full_calls: u64,
}

impl Layer {
    /// Seconds over the whole measured phase: seconds per replayed call ×
    /// calls in the run.
    fn extrapolated(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * self.full_calls as f64 / self.calls as f64
        }
    }
}

/// What one traced cell contributes to its workload's metrics.
pub struct CellTrace {
    pub name: String,
    t_meas: f64,
    t_traced: f64,
    accesses: u64,
    traced: u64,
    layers: [Layer; 9],
    pub memsys_exact: bool,
    pub mc_exact: bool,
}

impl CellTrace {
    pub fn json(&self) -> Json {
        let mut o = Json::obj();
        o.set("name", Json::Str(self.name.clone()));
        o.set("t_meas_s", Json::Float(self.t_meas));
        o.set("t_traced_s", Json::Float(self.t_traced));
        o.set("coverage", Json::Float(ratio(self.traced, self.accesses)));
        o.set("memsys_exact", Json::Bool(self.memsys_exact));
        o.set("mc_exact", Json::Bool(self.mc_exact));
        o
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The cost of one empty [`timed`] call, subtracted from every segment of
/// the segmented MC replay.
fn timer_overhead() -> f64 {
    let samples: Vec<f64> = (0..1001).map(|_| timed(|| {})).collect();
    stats::median(&samples)
}

fn replay_os(kernel: &Kernel, events: &[TraceEvent]) -> f64 {
    let mut memo = [(u64::MAX, 0u64); 16];
    timed(|| {
        for e in events {
            let vpage = e.vaddr.page_number();
            let slot = (vpage as usize) & 15;
            if memo[slot].0 != vpage {
                if let Ok(p) = kernel.translate(e.vaddr) {
                    memo[slot] = (vpage, p.page_base().raw());
                }
            }
            black_box(kernel.tlb_span(vpage));
        }
        black_box(&memo);
    })
}

fn replay_memsys(ms: &mut MemorySystem, events: &[TraceEvent], spans: &[(u64, u64)]) -> f64 {
    timed(|| {
        for (e, &span) in events.iter().zip(spans) {
            black_box(if e.kind.is_load() {
                ms.load(e.vaddr, e.paddr, span, e.at)
            } else {
                ms.store(e.vaddr, e.paddr, span, e.at)
            });
        }
    })
}

fn replay_tlb(tlb: &mut Tlb, events: &[TraceEvent], spans: &[(u64, u64)]) -> f64 {
    timed(|| {
        for (e, &(base, span)) in events.iter().zip(spans) {
            if !tlb.lookup(e.vaddr.page_number()) {
                tlb.insert(base, span);
            }
        }
    })
}

/// One demand access as the caches see it.
type Demand = (VAddr, PAddr, AccessKind);

fn demand(e: &TraceEvent) -> Demand {
    (e.vaddr, e.paddr, e.kind)
}

fn replay_cache(cache: &mut Cache, stream: impl Iterator<Item = Demand>) -> f64 {
    timed(|| {
        for (v, p, kind) in stream {
            black_box(cache.access(v, p, kind));
        }
    })
}

/// The accesses the L1 passes down to the L2: misses fill from the L2 as
/// loads, write-around store misses go to it as stores.
fn l1_miss_stream(mut l1: Cache, events: &[TraceEvent]) -> Vec<Demand> {
    events
        .iter()
        .map(demand)
        .filter_map(|(v, p, kind)| match l1.access(v, p, kind) {
            Outcome::Hit => None,
            Outcome::Miss { .. } => Some((v, p, AccessKind::Load)),
            Outcome::Bypass => Some((v, p, AccessKind::Store)),
        })
        .collect()
}

fn mc_call(mc: &mut MemController, e: &FlightEvent) -> u64 {
    let p = PAddr::new(e.line);
    match e.class {
        HitClass::StoreDirect | HitClass::StoreShadow | HitClass::NackWrite => {
            mc.write_line(p, e.cycle)
        }
        _ => mc.read_line(p, e.cycle),
    }
}

/// Whether an event took the shadow path (NACKs are refused remappings).
fn is_shadow(c: HitClass) -> bool {
    !matches!(
        c,
        HitClass::DirectDram | HitClass::DirectSramHit | HitClass::StoreDirect
    )
}

fn replay_mc(mc: &mut MemController, events: &[FlightEvent]) -> f64 {
    timed(|| {
        for e in events {
            black_box(mc_call(mc, e));
        }
    })
}

/// Replays runs of same-path events under separate timers: `(direct,
/// shadow)` seconds, each segment net of the timer's own cost.
fn replay_mc_split(mc: &mut MemController, events: &[FlightEvent], overhead: f64) -> (f64, f64) {
    let (mut direct, mut shadow) = (0.0, 0.0);
    for run in events.chunk_by(|a, b| is_shadow(a.class) == is_shadow(b.class)) {
        let t = timed(|| {
            for e in run {
                black_box(mc_call(mc, e));
            }
        }) - overhead;
        if is_shadow(run[0].class) {
            shadow += t;
        } else {
            direct += t;
        }
    }
    (direct, shadow)
}

fn replay_dram(dram: &mut Dram, calls: &[(MAddr, AccessKind, u64)], bytes: u64) -> f64 {
    timed(|| {
        for &(a, kind, at) in calls {
            black_box(dram.access(a, kind, bytes, at));
        }
    })
}

/// Every statistic the MC replay must reproduce, as one comparable string.
fn mc_fingerprint(mc: &MemController) -> String {
    format!(
        "{:?}",
        (
            mc.stats(),
            mc.desc_stats(),
            mc.pgtbl_stats(),
            mc.prefetch_stats(),
            mc.dram().stats(),
            mc.tier_stats(),
        )
    )
}

/// Runs one cell untraced and traced, then replays its streams layer by
/// layer. Returns the untraced machine, whose statistics the count metrics
/// and the correctness check use, and the cell's trace.
///
/// Both runs, like the replayed controller clones, keep the flight recorder
/// on, so `T_meas` and the replays pay the same recording cost.
pub fn trace_cell(cell: &Cell, timer_cost: f64) -> (Machine, CellTrace) {
    let cfg = cell.cfg.clone().with_flight(FLIGHT_CAP);
    let mut plain = Machine::new(&cfg);
    let run = (cell.setup)(&mut plain);
    let t_meas = timed(|| run(&mut plain));

    let mut m = Machine::new(&cfg);
    let run = (cell.setup)(&mut m);
    let base = m.clone();
    let flight_base = base.memory().mc().flight().map_or(0, |f| f.len());
    m.attach_tracer(Tracer::new(TRACE_CAP));
    let t_traced = timed(|| run(&mut m));
    let tracer = m.take_tracer().expect("tracer attached");
    let events = tracer.events();

    let (bms, ms) = (base.memory(), m.memory());
    let delta = |f: &dyn Fn(&MemorySystem) -> u64| f(ms) - f(bms);
    let accesses = delta(&|s| s.stats().loads + s.stats().stores);
    let traced = events.len() as u64;
    let demand_layer = |secs, full_calls| Layer {
        secs,
        calls: traced,
        full_calls,
    };
    // Inputs for the timed loops, built outside them.
    let spans: Vec<(u64, u64)> = events
        .iter()
        .map(|e| base.kernel().tlb_span(e.vaddr.page_number()))
        .collect();
    let misses = l1_miss_stream(bms.l1().clone(), events);

    let mut layers = [Layer::default(); 9];
    layers[OS] = demand_layer(replay_os(base.kernel(), events), accesses);
    let mut ms_replay = bms.clone();
    layers[MS] = demand_layer(replay_memsys(&mut ms_replay, events, &spans), accesses);
    let memsys_exact = traced == accesses && ms_replay.stats() == ms.stats();
    drop(ms_replay);
    layers[TLB] = demand_layer(
        replay_tlb(&mut bms.tlb().clone(), events, &spans),
        delta(&|s| s.tlb().stats().lookups),
    );
    layers[L1] = demand_layer(
        replay_cache(&mut bms.l1().clone(), events.iter().map(demand)),
        delta(&|s| s.l1().stats().loads + s.l1().stats().stores),
    );
    layers[L2] = Layer {
        secs: replay_cache(&mut bms.l2().clone(), misses.iter().copied()),
        calls: misses.len() as u64,
        full_calls: delta(&|s| s.l2().stats().loads + s.l2().stats().stores),
    };

    // The flight ring never wraps (FLIGHT_CAP), so the events after
    // `flight_base` are every MC call of the measured phase.
    let flight = ms.mc().flight().expect("flight recorder configured");
    let all = flight.events();
    let mc_events = &all[flight_base..];
    let whole = |secs, calls| Layer {
        secs,
        calls,
        full_calls: calls,
    };
    let n_mc = mc_events.len() as u64;
    let mut mc_replay = bms.mc().clone();
    layers[MC] = whole(replay_mc(&mut mc_replay, mc_events), n_mc);
    let mc_exact =
        flight.overwritten() == 0 && mc_fingerprint(&mc_replay) == mc_fingerprint(ms.mc());
    drop(mc_replay);
    // The segmented pass only apportions T_mc between the two paths; the
    // unsegmented pass above times it.
    let (direct, shadow) = replay_mc_split(&mut bms.mc().clone(), mc_events, timer_cost);
    let direct_share = if direct + shadow > 0.0 {
        (direct / (direct + shadow)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let n_shadow = mc_events.iter().filter(|e| is_shadow(e.class)).count() as u64;
    layers[MC_DIRECT] = whole(layers[MC].secs * direct_share, n_mc - n_shadow);
    layers[MC_SHADOW] = whole(layers[MC].secs * (1.0 - direct_share), n_shadow);

    let dram = bms.mc().dram();
    let (capacity, line, t_overhead) = (
        dram.config().capacity,
        bms.mc().config().line_bytes,
        bms.mc().config().t_overhead,
    );
    // Lines beyond the DRAM array belong to a flat tier's SCM partition,
    // which the tier engine serves, not `Dram::access`.
    let direct_calls: Vec<(MAddr, AccessKind, u64)> = mc_events
        .iter()
        .filter(|e| e.line < capacity)
        .filter_map(|e| {
            let kind = match e.class {
                HitClass::DirectDram => AccessKind::Load,
                HitClass::StoreDirect => AccessKind::Store,
                _ => return None,
            };
            Some((MAddr::new(e.line), kind, e.cycle + t_overhead))
        })
        .collect();
    layers[DRAM] = whole(
        replay_dram(&mut dram.clone(), &direct_calls, line),
        direct_calls.len() as u64,
    );

    let trace = CellTrace {
        name: cell.name.clone(),
        t_meas,
        t_traced,
        accesses,
        traced,
        layers,
        memsys_exact,
        mc_exact,
    };
    (plain, trace)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The host-time metrics of a workload from its cells' traces. `norm`
/// rescales host ns per call to normalized ns (see `calib`).
pub fn host_metrics(cells: &[CellTrace], norm: f64) -> Vec<(&'static str, f64)> {
    let t_meas: f64 = cells.iter().map(|c| c.t_meas).sum();
    // Each cell has its own coverage, so extrapolate per cell, then sum.
    let t = |i: usize| -> f64 { cells.iter().map(|c| c.layers[i].extrapolated()).sum() };
    let ns = |i: usize| -> f64 {
        let secs: f64 = cells.iter().map(|c| c.layers[i].secs).sum();
        let calls: u64 = cells.iter().map(|c| c.layers[i].calls).sum();
        if calls == 0 {
            0.0
        } else {
            secs / calls as f64 * 1e9 * norm
        }
    };
    let sum = |f: &dyn Fn(&CellTrace) -> u64| -> u64 { cells.iter().map(f).sum() };
    let share = |x: f64| x / t_meas;
    let n = cells.len() as u64;
    vec![
        ("cpu.self_share", share(t_meas - t(MS) - t(OS))),
        ("os.self_share", share(t(OS))),
        (
            "sim.memsys.self_share",
            share(t(MS) - t(TLB) - t(L1) - t(L2) - t(MC)),
        ),
        ("cache.tlb.self_share", share(t(TLB))),
        ("cache.l1.self_share", share(t(L1))),
        ("cache.l2.self_share", share(t(L2))),
        ("core.mc.self_share", share(t(MC) - t(DRAM))),
        ("dram.self_share", share(t(DRAM))),
        ("os_ns", ns(OS)),
        ("sim.memsys_ns", ns(MS)),
        ("cache.tlb_ns", ns(TLB)),
        ("cache.l1_ns", ns(L1)),
        ("cache.l2_ns", ns(L2)),
        ("core.mc.direct_ns", ns(MC_DIRECT)),
        ("core.mc.shadow_ns", ns(MC_SHADOW)),
        ("dram_ns", ns(DRAM)),
        (
            "trace.overhead",
            cells.iter().map(|c| c.t_traced).sum::<f64>() / t_meas,
        ),
        (
            "trace.coverage",
            ratio(sum(&|c| c.traced), sum(&|c| c.accesses)),
        ),
        (
            "replay.memsys_exact",
            ratio(sum(&|c| u64::from(c.memsys_exact)), n),
        ),
        ("replay.mc_exact", ratio(sum(&|c| u64::from(c.mc_exact)), n)),
    ]
}

/// Work counts and useful/attempt ratios over the workload's machines and
/// their reports.
pub fn count_metrics(runs: &[(Machine, Report)]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&Report) -> u64| -> u64 { runs.iter().map(|(_, r)| f(r)).sum() };
    let tier = |f: &dyn Fn(&TierStats) -> u64| -> u64 {
        runs.iter()
            .map(|(m, _)| f(&m.memory().mc().tier_stats()))
            .sum()
    };
    let scm = |f: &dyn Fn(&ScmStats) -> u64| -> u64 {
        runs.iter()
            .map(|(m, _)| m.memory().mc().tier().map_or(0, |t| f(&t.scm_stats())))
            .sum()
    };
    let mut out = vec![
        ("sim.accesses", sum(&|r| r.mem.loads + r.mem.stores) as f64),
        (
            "cache.l1_hit_ratio",
            ratio(
                sum(&|r| r.l1.load_hits + r.l1.store_hits),
                sum(&|r| r.l1.loads + r.l1.stores),
            ),
        ),
        (
            "cache.l2_hit_ratio",
            ratio(
                sum(&|r| r.l2.load_hits + r.l2.store_hits),
                sum(&|r| r.l2.loads + r.l2.stores),
            ),
        ),
        (
            "cache.tlb_hit_ratio",
            ratio(sum(&|r| r.tlb.hits), sum(&|r| r.tlb.lookups)),
        ),
        (
            "cache.writebacks",
            sum(&|r| r.l1.writebacks + r.l2.writebacks) as f64,
        ),
        (
            "core.pgtbl_hit_ratio",
            ratio(sum(&|r| r.pgtbl.tlb_hits), sum(&|r| r.pgtbl.lookups)),
        ),
        ("core.pgtbl_lookups", sum(&|r| r.pgtbl.lookups) as f64),
        (
            "core.prefetch_hit_ratio",
            ratio(sum(&|r| r.pf.hits), sum(&|r| r.pf.hits + r.pf.misses)),
        ),
        (
            "core.desc_buffer_hit_ratio",
            ratio(sum(&|r| r.desc.buffer_hits), sum(&|r| r.desc.reads)),
        ),
        (
            "core.dram_per_gather",
            ratio(sum(&|r| r.desc.dram_requests), sum(&|r| r.desc.gathers)),
        ),
        ("core.shadow_reads", sum(&|r| r.mc.shadow_line_reads) as f64),
        (
            "core.shadow_writes",
            sum(&|r| r.mc.shadow_line_writes) as f64,
        ),
        (
            "core.rejected",
            sum(&|r| r.mc.rejected_reads + r.mc.rejected_writes) as f64,
        ),
        (
            "dram.accesses",
            sum(&|r| r.dram.reads + r.dram.writes) as f64,
        ),
        (
            "dram.row_hit_ratio",
            ratio(
                sum(&|r| r.dram.row_hits),
                sum(&|r| r.dram.row_hits + r.dram.row_misses),
            ),
        ),
        ("dram.bank_wait_cycles", sum(&|r| r.dram.bank_wait) as f64),
        (
            "sim.bus_contention_cycles",
            sum(&|r| r.bus.contention) as f64,
        ),
        (
            "tier.fill_hit_ratio",
            ratio(
                tier(&|t| t.fill_hits),
                tier(&|t| t.fill_hits + t.fill_loads),
            ),
        ),
        (
            "tier.dram_hit_ratio",
            ratio(
                tier(&|t| t.dram_hits),
                tier(&|t| t.dram_hits + t.dram_misses),
            ),
        ),
        ("scm.reads", scm(&|s| s.reads) as f64),
        ("scm.writes", scm(&|s| s.writes) as f64),
    ];
    let attr_total = sum(&|r| r.attr.total());
    for (stage, name) in [
        (Stage::Mmu, "attr.mmu_share"),
        (Stage::L1, "attr.l1_share"),
        (Stage::L2, "attr.l2_share"),
        (Stage::Stream, "attr.stream_share"),
        (Stage::Bus, "attr.bus_share"),
        (Stage::McFrontEnd, "attr.mc_frontend_share"),
        (Stage::PgTbl, "attr.pgtbl_share"),
        (Stage::Dram, "attr.dram_share"),
    ] {
        out.push((name, ratio(sum(&|r| r.attr.get(stage)), attr_total)));
    }
    out
}

/// Traces every cell of `w` once, checking each untraced report. Returns
/// the cells' traces, the count metrics, and the pass's calibration factor.
fn traced_pass(
    w: Workload,
    seed: u64,
    label: &str,
    cal: &mut Calibrator,
    check: &mut Checker,
) -> (Vec<CellTrace>, Vec<(&'static str, f64)>, f64) {
    let timer_cost = timer_overhead();
    let before = cal.run_ms();
    let mut traces = Vec::new();
    let mut runs = Vec::new();
    for cell in &w.cells(seed) {
        let (m, t) = trace_cell(cell, timer_cost);
        let r = m.report(cell.name.clone());
        check.check(label, &r);
        traces.push(t);
        runs.push((m, r));
    }
    let norm = CALIB_REF_MS / ((before + cal.run_ms()) / 2.0);
    (traces, count_metrics(&runs), norm)
}

/// The result of `perf trace`: the [`PER_LAYER`] metrics in that order,
/// the number of traced passes, and the last pass's per-cell detail.
pub struct TraceResult {
    pub metrics: Vec<(&'static str, f64)>,
    pub passes: usize,
    pub cells: Vec<CellTrace>,
}

/// Traced passes until `seconds` are spent (at least one). Host times are
/// pooled over every pass, so the self shares still sum to 1; the counts
/// are deterministic and come from the last pass.
pub fn measure(w: Workload, seed: u64, seconds: f64, check: &mut Checker) -> TraceResult {
    let mut cal = Calibrator::new();
    cal.run_ms(); // first touch of the kernel's code and data
    let start = Instant::now();
    let mut longest = 0.0f64;
    let (mut pooled, mut norms, mut passes) = (Vec::new(), Vec::new(), 0);
    loop {
        let t = Instant::now();
        passes += 1;
        let label = format!("traced pass {passes}");
        let (traces, counts, norm) = traced_pass(w, seed, &label, &mut cal, check);
        norms.push(norm);
        longest = longest.max(t.elapsed().as_secs_f64());
        let last_cells = pooled.len();
        pooled.extend(traces);
        if start.elapsed().as_secs_f64() + longest > seconds {
            let mut metrics = host_metrics(&pooled, stats::median(&norms));
            metrics.extend(counts);
            assert!(
                metrics
                    .iter()
                    .map(|m| m.0)
                    .eq(PER_LAYER.iter().map(|m| m.0)),
                "per-layer metrics out of step with PER_LAYER"
            );
            let cells = pooled.split_off(last_cells);
            return TraceResult {
                metrics,
                passes,
                cells,
            };
        }
    }
}

//! Microbenchmarks of the Impulse controller building blocks: AddrCalc
//! segment expansion, controller page-table translation, DRAM scheduler
//! batches, and full shadow-line gathers.

use std::hint::black_box;
use std::sync::Arc;

use impulse_bench::harness::Group;
use impulse_core::{McConfig, MemController, RemapFn};
use impulse_dram::{Dram, DramConfig, SchedulePolicy, Scheduler};
use impulse_types::{AccessKind, MAddr, PAddr, PRange, PvAddr};

fn bench_addrcalc() {
    let mut g = Group::new("addrcalc");
    let strided = RemapFn::strided(PvAddr::new(0), 8, 8 * 1025);
    let indices: Arc<Vec<u64>> = Arc::new((0..65536u64).map(|i| (i * 37) % 65536).collect());
    let gather = RemapFn::gather(PvAddr::new(0), 8, indices, PvAddr::new(1 << 30), 4);
    let mut segs = Vec::with_capacity(32);

    let mut off = 0u64;
    g.bench("strided_segments_128B", || {
        strided.segments(off % 65536, 128, &mut segs);
        off += 128;
        black_box(segs.len())
    });
    let mut segs = Vec::with_capacity(32);
    let mut off = 0u64;
    g.bench("gather_segments_128B", || {
        gather.segments(off % (65536 * 8 - 128), 128, &mut segs);
        off += 128;
        black_box(segs.len())
    });
}

fn bench_scheduler() {
    let mut g = Group::new("dram_scheduler");
    let reqs: Vec<(MAddr, u64)> = (0..16u64)
        .map(|i| (MAddr::new(((i * 2654435761) % (1 << 20)) & !7), 8))
        .collect();
    for policy in SchedulePolicy::ALL {
        g.bench(policy.name(), || {
            let mut dram = Dram::new(DramConfig::default());
            Scheduler::new(policy).issue(&mut dram, &reqs, AccessKind::Load, 0)
        });
    }
}

fn bench_gather_line() {
    let mut g = Group::new("controller");
    let dram = Dram::new(DramConfig::default());
    let mut mc = MemController::new(dram, McConfig::default());
    let shadow = mc.shadow_base();
    let indices: Arc<Vec<u64>> = Arc::new((0..65536u64).map(|i| (i * 97) % 16384).collect());
    let region = PRange::new(shadow, 65536 * 8);
    mc.claim_descriptor(
        region,
        RemapFn::gather(PvAddr::new(0), 8, indices, PvAddr::new(1 << 27), 4),
    )
    .unwrap();
    for page in 0..((16384 * 8) >> 12) + 1 {
        mc.map_page(page, MAddr::new(page << 12));
    }
    for page in 0..((65536 * 4) >> 12) + 1 {
        mc.map_page((1 << 15) + page, MAddr::new((1 << 28) + (page << 12)));
    }

    let mut now = 0u64;
    let mut line = 0u64;
    g.bench("gather_shadow_line", || {
        let p = PAddr::new(shadow.raw() + (line % 4096) * 128);
        line += 1;
        now = mc.read_line(p, now + 100);
        black_box(now)
    });
    let mut now = 0u64;
    let mut line = 0u64;
    g.bench("read_physical_line", || {
        let p = PAddr::new((line % 4096) * 128);
        line += 1;
        now = mc.read_line(p, now + 100);
        black_box(now)
    });
}

fn main() {
    bench_addrcalc();
    bench_scheduler();
    bench_gather_line();
}

//! Regression guards for the simulator's host-side hot paths: a demand
//! load or store that hits the CPU TLB and the L1, the three translate
//! layers (OS page table, CPU TLB index, controller PgTbl and its on-chip
//! TLB), the DRAM access, the latency sample every miss records, the
//! tier engine's cold gather load, and the shadow-line gather's
//! segment/translate/merge pipeline.
//! These are the paths that run once (or more) per simulated access, so
//! a regression here slows every experiment in the suite. The `setup`
//! group guards what every cell pays once before it measures: booting
//! the fragmented frame pool and the flushes of a remap system call,
//! over cold caches and over a region the caches hold a few pages of.

use std::hint::black_box;

use impulse_bench::harness::Group;
use impulse_cache::{Cache, CacheConfig, Tlb, TlbConfig};
use impulse_core::{McConfig, MemController, PgTbl, PgTblConfig, RemapFn, TierConfig, TierEngine};
use impulse_dram::{Dram, DramConfig, ScmConfig};
use impulse_obs::Histogram;
use impulse_os::{AddressSpace, PhysMem};
use impulse_sim::{Machine, SystemConfig};
use impulse_types::geom::PAGE_SIZE;
use impulse_types::{AccessKind, MAddr, PAddr, PvAddr, TierPolicy, VAddr, VRange};

/// The `i`-th word of a walk that rotates over three pages, one word per
/// page in turn: the A, B, C operands of a tiled matrix product.
fn three_page_word(i: u64) -> u64 {
    (i % 3) * PAGE_SIZE + (i / 3 * 8) % PAGE_SIZE
}

/// A machine on `cfg` with three pages loaded into the L1, and the pages.
fn three_resident_pages(cfg: &SystemConfig) -> (Machine, VRange) {
    let mut m = Machine::new(cfg);
    let r = m.alloc_region(3 * PAGE_SIZE, PAGE_SIZE).expect("region");
    for i in 0..3 * PAGE_SIZE / 8 {
        m.load(r.start().add(three_page_word(i)));
    }
    (m, r)
}

fn bench_l1_hit_path() {
    // Three L1-resident pages, as in a tile product's inner loop: every
    // load hits the translation memo, the CPU TLB and the L1.
    let mut g = Group::new("machine");
    let (mut m, r) = three_resident_pages(&SystemConfig::paint_small());
    let mut i = 0u64;
    g.bench("load_l1_hit_3page", || {
        i = i.wrapping_add(1);
        m.load(r.start().add(three_page_word(i)));
    });
    // Stores to the same L1-resident lines: the write-around L1 keeps
    // them, so every store hits too.
    let mut i = 0u64;
    g.bench("store_l1_hit_3page", || {
        i = i.wrapping_add(1);
        m.store(r.start().add(three_page_word(i)));
    });
    // The same loads on a non-blocking CPU with four outstanding misses:
    // each load first retires the finished ones, a branch of the hit path
    // that only `mshr > 1` takes.
    let (mut m, r) = three_resident_pages(&SystemConfig::paint_small().with_mshr(4));
    let mut i = 0u64;
    g.bench("load_l1_hit_mshr4", || {
        i = i.wrapping_add(1);
        m.load(r.start().add(three_page_word(i)));
    });

    let mut g = Group::new("cache");
    let mut l1 = Cache::new(CacheConfig::paint_l1());
    let addr = |i: u64| {
        let a = 0x40_0000 + three_page_word(i);
        (VAddr::new(a), PAddr::new(a))
    };
    for i in 0..3 * PAGE_SIZE / 8 {
        let (v, p) = addr(i);
        l1.access(v, p, AccessKind::Load);
    }
    let mut i = 0u64;
    g.bench("l1_hit", || {
        i = i.wrapping_add(1);
        let (v, p) = addr(i);
        l1.access(v, p, AccessKind::Load)
    });
}

fn bench_pgtbl_translate() {
    let mut g = Group::new("pgtbl");
    let mk = || {
        let mut pt = PgTbl::new(PgTblConfig::default());
        for page in 0..512u64 {
            pt.map_page(page, MAddr::new(page * PAGE_SIZE));
        }
        (pt, Dram::new(DramConfig::default()))
    };

    // Same page over and over: hits on the most recently used entry.
    let (mut pt, mut dram) = mk();
    let mut off = 0u64;
    g.bench("translate_mru_hit", || {
        off = (off + 8) % PAGE_SIZE;
        pt.translate(PvAddr::new(7 * PAGE_SIZE + off), &mut dram, 0)
            .expect("mapped page")
            .0
    });

    // 512 pages cycled through the 64-entry LRU TLB: every translation
    // misses, walks and evicts (the shape of a transpose's column
    // gathers).
    let (mut pt, mut dram) = mk();
    let mut i = 0u64;
    g.bench("translate_512page_sweep", || {
        i = i.wrapping_add(1);
        let page = (i * 97) % 512;
        pt.translate(PvAddr::new(page * PAGE_SIZE + (i % 512) * 8), &mut dram, 0)
            .expect("mapped page")
            .0
    });
}

fn bench_cpu_tlb() {
    let mut g = Group::new("cpu_tlb");
    let mut tlb = Tlb::new(TlbConfig::default());
    for page in 0..120u64 {
        tlb.insert(page, 1);
    }
    let mut i = 0u64;
    g.bench("lookup_hit", || {
        i = i.wrapping_add(1);
        tlb.lookup((i * 13) % 120)
    });
    let mut i = 0u64;
    g.bench("lookup_hit_3page", || {
        i = i.wrapping_add(1);
        tlb.lookup(three_page_word(i) / PAGE_SIZE * 41)
    });
    let mut tlb = Tlb::new(TlbConfig::default());
    let mut i = 0u64;
    g.bench("lookup_miss_insert", || {
        i = i.wrapping_add(1);
        let page = (i * 13) % 4096;
        if !tlb.lookup(page) {
            tlb.insert(page, 1);
        }
        page
    });
}

fn bench_os_vm() {
    let mut g = Group::new("os_vm");
    let mut aspace = AddressSpace::new();
    let r = aspace.reserve(1024 * PAGE_SIZE, PAGE_SIZE);
    for i in 0..1024u64 {
        aspace
            .map_page(r.start().add(i * PAGE_SIZE), PAddr::new(i * PAGE_SIZE))
            .unwrap();
    }
    let mut i = 0u64;
    g.bench("translate_1024pages", || {
        i = i.wrapping_add(1);
        aspace.translate(VAddr::new(
            r.start().raw() + (i * 4093 * 8) % (1024 * PAGE_SIZE),
        ))
    });
}

fn bench_dram() {
    let mut g = Group::new("dram");
    // Three of four accesses walk on through the open row; the fourth
    // jumps to a pseudo-random row and bank — the hit/miss mix of a
    // gather's element reads over the default 4 banks × 2 KB rows.
    let mut dram = Dram::new(DramConfig::default());
    let (mut i, mut x, mut addr, mut now) = (0u64, 1u64, 0u64, 0u64);
    g.bench("access_row_mix", || {
        i = i.wrapping_add(1);
        if i & 3 == 0 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            addr = (x >> 40) & !7;
        } else {
            addr = (addr + 64) & ((1 << 24) - 1);
        }
        now = dram.access(MAddr::new(addr), AccessKind::Load, 8, now);
        now
    });
}

fn bench_histogram() {
    let mut g = Group::new("obs");
    // Samples below 128 cycles, spread like DRAM row hits and misses:
    // every one lands in the histogram's dense tally.
    let mut h = Histogram::new();
    let mut i = 0u64;
    g.bench("histogram_record_small", || {
        i = i.wrapping_add(1);
        h.record(black_box(9 + (i * 37) % 100));
    });
    black_box(h.count());
}

fn bench_tier() {
    let mut g = Group::new("tier");
    // Cache-mode gather loads that each miss the DRAM cache and the fill
    // buffer: 8-byte elements of 4096 distinct SCM lines in turn, so every
    // load scans the fill ring, reads the SCM and replaces the oldest
    // line (a cold indirection-vector gather).
    let dcfg = DramConfig {
        capacity: 1 << 16,
        ..DramConfig::default()
    };
    let cfg = TierConfig {
        policy: TierPolicy::Cache,
        scm: ScmConfig {
            capacity: 1 << 20,
            ..ScmConfig::default()
        },
        ..TierConfig::default()
    };
    let mut dram = Dram::new(dcfg.clone());
    let mut tier = TierEngine::new(cfg, &dcfg, 128);
    let (mut i, mut now) = (0u64, 0u64);
    g.bench("cache_gather_cold", || {
        i = i.wrapping_add(1);
        let addr = MAddr::new((i % 4096) * 256 + 8);
        now = tier
            .access(&mut dram, addr, AccessKind::Load, 8, now, true)
            .expect("healthy tier");
        now
    });
}

fn bench_gather_merge() {
    let mut g = Group::new("gather");
    // Byte-granularity strided gather: 128 segments per shadow line, all
    // coalescing through the merge scratch — the heaviest merge shape
    // (the media channel-extraction workload's).
    let dram = Dram::new(DramConfig::default());
    let mut mc = MemController::new(dram, McConfig::default());
    let shadow = mc.shadow_base();
    let region = impulse_types::PRange::new(shadow, 1 << 20);
    mc.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 1, 3))
        .unwrap();
    for page in 0..((3 << 20) >> 12) + 1 {
        mc.map_page(page, MAddr::new(page << 12));
    }
    let mut now = 0u64;
    let mut line = 0u64;
    g.bench("strided_byte_line", || {
        let p = PAddr::new(shadow.raw() + (line % 4096) * 128);
        line += 1;
        now = mc.read_line(p, now + 100);
        black_box(now)
    });

    // A matrix column packed into shadow lines: 8-byte elements one
    // 4 KB row apart, so each of a line's 16 elements sits on its own
    // page. Lines cycle over 1024 pages, and every translation misses
    // the 64-entry MC-TLB, as in the transposes.
    let dram = Dram::new(DramConfig::default());
    let mut mc = MemController::new(dram, McConfig::default());
    let shadow = mc.shadow_base();
    let region = impulse_types::PRange::new(shadow, 1 << 20);
    mc.claim_descriptor(region, RemapFn::strided(PvAddr::new(0), 8, PAGE_SIZE))
        .unwrap();
    for page in 0..1024 {
        mc.map_page(page, MAddr::new(page << 12));
    }
    let mut now = 0u64;
    let mut line = 0u64;
    g.bench("strided_column_line", || {
        let p = PAddr::new(shadow.raw() + (line % 64) * 128);
        line += 1;
        now = mc.read_line(p, now + 100);
        black_box(now)
    });
}

fn bench_setup() {
    // Set-up paths that run once per cell rather than once per access,
    // but in every cell: booting the Paint machine's fragmented frame
    // pool, and the flushes a remap system call does before the
    // controller gathers fresh data.
    let mut g = Group::new("setup");
    let kcfg = SystemConfig::paint().kernel;
    g.bench("phys_pool_paint", || {
        let mut phys = PhysMem::new(kcfg.dram_capacity, kcfg.reserved_top, kcfg.policy);
        for _ in 0..1024 {
            black_box(phys.alloc().expect("free frame"));
        }
        phys
    });

    let mut m = Machine::new(&SystemConfig::paint_small());
    let r = m.alloc_region(2 << 20, PAGE_SIZE).expect("region");
    g.bench("flush_region_2mb", || {
        m.flush_region(r);
        m.now()
    });
    // The same walk with lines on 14 of its 512 pages: a clean and a
    // dirty L1 line and a dirty L2-only line each (the write-around L1
    // passes a store miss on). Only those pages are probed.
    g.bench("flush_region_2mb_partly_cached", || {
        for page in (0..512).step_by(37) {
            let v = r.start().add(page * PAGE_SIZE);
            m.load(v);
            m.load(v.add(512));
            m.store(v.add(520));
            m.store(v.add(2048));
        }
        m.flush_region(r);
        m.now()
    });

    // The media cell's channel remap: 1-byte objects 4 bytes apart, so
    // eight objects share each L1 block. Released each time to free its
    // descriptor and shadow space.
    let pixels = 16 * 1024;
    let image = m.alloc_region(pixels * 4, 128).expect("image");
    g.bench("remap_strided_1b", || {
        let grant = m
            .sys_remap_strided(image.start().add(1), 1, 4, pixels, PAGE_SIZE)
            .expect("strided remap");
        m.sys_release(&grant).expect("release");
        m.now()
    });
}

fn main() {
    bench_setup();
    bench_l1_hit_path();
    bench_pgtbl_translate();
    bench_cpu_tlb();
    bench_os_vm();
    bench_dram();
    bench_histogram();
    bench_tier();
    bench_gather_merge();
}

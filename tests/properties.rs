//! Randomized property tests over the core data structures.
//!
//! These were originally written against an external property-testing
//! framework; the workspace is built fully offline, so they now run on a
//! small in-file harness: a seeded splitmix64 generator drives `CASES`
//! random instances of each property, and a failing case prints the seed
//! so it can be replayed by fixing `BASE_SEED`.

use std::sync::Arc;

use impulse::cache::{Cache, CacheConfig, Indexing, Outcome, Replacement, Tlb, TlbConfig};
use impulse::core::{RemapFn, Segment};
use impulse::dram::{Dram, DramConfig, SchedulePolicy, Scheduler};
use impulse::os::{AllocPolicy, PhysMem};
use impulse::types::geom::PAGE_SIZE;
use impulse::types::{AccessKind, MAddr, PAddr, PvAddr, VAddr};

/// Cases per property.
const CASES: u64 = 64;
/// Change to replay a reported failure seed.
const BASE_SEED: u64 = 0x0049_6d70_756c_7365; // "Impulse"

/// Deterministic splitmix64 generator for test inputs.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi` exclusive).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + ((self.u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A vector of `range(min_len..max_len)` elements drawn from `f`.
    fn vec<T>(&mut self, min_len: u64, max_len: u64, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(min_len, max_len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Runs `prop` for [`CASES`] seeded generators, printing the failing seed.
fn check(name: &str, prop: impl Fn(&mut Gen)) {
    for case in 0..CASES {
        let seed = BASE_SEED ^ (case.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut Gen::new(seed))));
        if let Err(e) = result {
            eprintln!("property '{name}' failed on case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

// ---------------------------------------------------------------- remap

/// Every remapping's segments exactly tile the requested byte range, and
/// each segment's start agrees with `pv_of` at that offset.
#[test]
fn strided_segments_tile_the_request() {
    check("strided_segments_tile_the_request", |g| {
        let object = 1u64 << g.range(3, 10); // 8..512-byte objects
        let stride = object + g.range(0, 4096);
        let soffset = g.range(0, 65536);
        let len = g.range(1, 1024);
        let f = RemapFn::strided(PvAddr::new(0x10_0000), object, stride);
        let mut segs = Vec::new();
        f.segments(soffset, len, &mut segs);

        let total: u64 = segs.iter().map(|s| s.bytes).sum();
        assert_eq!(total, len);

        let mut off = soffset;
        for seg in &segs {
            assert_eq!(seg.pv, f.pv_of(off));
            // A segment never crosses an object boundary.
            assert!(off % object + seg.bytes <= object);
            off += seg.bytes;
        }
    });
}

/// Gather segments follow the indirection vector element-by-element.
#[test]
fn gather_segments_follow_indices() {
    check("gather_segments_follow_indices", |g| {
        let indices = g.vec(1, 200, |g| g.range(0, 10_000));
        let elem = 1u64 << g.range(2, 7); // 4..64-byte elements
        let n = indices.len();
        let start = (g.range(0, 100) as usize).min(n - 1);
        let idx = Arc::new(indices.clone());
        let f = RemapFn::gather(PvAddr::new(0), elem, idx, PvAddr::new(1 << 30), 4);

        let count = (n - start).min(16);
        let mut segs = Vec::new();
        f.segments(start as u64 * elem, count as u64 * elem, &mut segs);
        assert_eq!(segs.len(), count);
        for (k, seg) in segs.iter().enumerate() {
            assert_eq!(seg.bytes, elem);
            assert_eq!(seg.pv.raw(), indices[start + k] * elem);
        }
    });
}

/// Direct mapping is a pure offset.
#[test]
fn direct_is_offset() {
    check("direct_is_offset", |g| {
        let base = g.range(0, 1 << 40);
        let off = g.range(0, 1 << 20);
        let f = RemapFn::direct(PvAddr::new(base));
        assert_eq!(f.pv_of(off).raw(), base + off);
        let mut segs = Vec::new();
        f.segments(off, 128, &mut segs);
        assert_eq!(
            &segs[..],
            &[Segment {
                pv: PvAddr::new(base + off),
                bytes: 128
            }]
        );
    });
}

// ---------------------------------------------------------------- cache

/// After any access sequence: a just-loaded line is always present, and
/// the number of valid lines never exceeds capacity.
#[test]
fn cache_presence_and_capacity() {
    check("cache_presence_and_capacity", |g| {
        let ways = g.range(1, 4);
        let ops = g.vec(1, 300, |g| (g.range(0, 64), g.bool()));
        let mut c = Cache::new(CacheConfig {
            name: "prop",
            size: 32 * ways * 4,
            line: 32,
            ways,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        });
        let capacity = (c.config().sets() * ways) as usize;
        for (slot, is_store) in ops {
            let addr = slot * 32;
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            c.access(VAddr::new(addr), PAddr::new(addr), kind);
            assert!(c.probe(VAddr::new(addr), PAddr::new(addr)));
            assert!(c.valid_lines() <= capacity);
        }
    });
}

/// Write-back integrity: every line stored to is eventually either still
/// cached (dirty) or was reported as a writeback/flush — dirty data is
/// never silently dropped.
#[test]
fn dirty_lines_are_never_lost() {
    check("dirty_lines_are_never_lost", |g| {
        let ops = g.vec(1, 200, |g| g.range(0, 32));
        let mut c = Cache::new(CacheConfig {
            name: "wb",
            size: 256, // 8 lines, direct-mapped: lots of evictions
            line: 32,
            ways: 1,
            indexing: Indexing::Physical,
            write_allocate: true,
            replacement: Replacement::Lru,
        });
        use std::collections::HashSet;
        let mut dirty: HashSet<u64> = HashSet::new();
        for slot in ops {
            let addr = slot * 32;
            match c.access(VAddr::new(addr), PAddr::new(addr), AccessKind::Store) {
                Outcome::Miss {
                    writeback: Some(wb),
                } => {
                    assert!(
                        dirty.remove(&wb.raw()),
                        "writeback of a line never dirtied: {wb:?}"
                    );
                }
                Outcome::Miss { writeback: None } | Outcome::Hit => {}
                Outcome::Bypass => unreachable!("write-allocate never bypasses"),
            }
            dirty.insert(addr);
        }
        // Whatever is still dirty must be flushable, exactly once each.
        for addr in dirty {
            let out = c.flush_line(VAddr::new(addr), PAddr::new(addr));
            assert_eq!(out, impulse::cache::FlushOutcome::Dirty);
        }
    });
}

/// TLB: a working set no larger than the TLB never misses twice.
#[test]
fn tlb_small_working_set_converges() {
    check("tlb_small_working_set_converges", |g| {
        let pages = g.vec(1, 64, |g| g.range(0, 64));
        let mut t = Tlb::new(TlbConfig { entries: 64 });
        for &p in &pages {
            if !t.lookup(p) {
                t.insert(p, 1);
            }
        }
        // Second pass: everything hits.
        for &p in &pages {
            assert!(t.lookup(p), "page {p} missed on the second pass");
        }
    });
}

// ---------------------------------------------------------------- dram

/// All scheduling policies serve every request, and reordering never
/// changes how many bytes move.
#[test]
fn schedulers_serve_everything() {
    check("schedulers_serve_everything", |g| {
        let addrs = g.vec(1, 64, |g| g.range(0, 1 << 20));
        let now = g.range(0, 10_000);
        let reqs: Vec<(MAddr, u64)> = addrs.iter().map(|&a| (MAddr::new(a & !7), 8)).collect();
        let mut row_hits = Vec::new();
        for policy in SchedulePolicy::ALL {
            let mut dram = Dram::new(DramConfig::default());
            let done = Scheduler::new(policy).issue(&mut dram, &reqs, AccessKind::Load, now);
            assert!(done >= now + reqs.len() as u64, "one command per cycle");
            assert_eq!(dram.stats().reads, reqs.len() as u64);
            assert_eq!(dram.stats().bytes, reqs.len() as u64 * 8);
            row_hits.push(dram.stats().row_hits);
        }
        // Grouping by (bank, row) minimizes row transitions on a cold
        // DRAM, so open-row-first never sees fewer hits than in-order,
        // and bank-parallel preserves the grouping.
        assert!(
            row_hits[1] >= row_hits[0],
            "open-row-first hits {} < in-order hits {}",
            row_hits[1],
            row_hits[0]
        );
        assert_eq!(row_hits[2], row_hits[1]);
    });
}

/// DRAM timing is causal: completions never precede issue, and a busy
/// bank only delays, never rewinds.
#[test]
fn dram_is_causal() {
    check("dram_is_causal", |g| {
        let addrs = g.vec(1, 100, |g| g.range(0, 1 << 18));
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0;
        for a in addrs {
            let done = dram.access(MAddr::new(a & !7), AccessKind::Load, 8, now);
            assert!(done > now);
            now = done;
        }
        let s = dram.stats();
        assert_eq!(s.row_hits + s.row_misses, s.reads);
    });
}

// --------------------------------------------------------------- machine

/// Whole-machine robustness: arbitrary interleavings of loads, stores,
/// computes, and remap system calls never panic, keep the load-ratio
/// identity, and stay deterministic.
#[test]
fn machine_survives_random_programs() {
    check("machine_survives_random_programs", |g| {
        use impulse::sim::{Machine, SystemConfig};

        let ops = g.vec(1, 150, |g| (g.range(0, 6) as u8, g.range(0, 4096)));
        let run = |ops: &[(u8, u64)]| {
            let mut m = Machine::new(&SystemConfig::paint_small());
            let data = m.alloc_region(64 * 1024, 8).unwrap();
            let mut grant = None;
            for &(op, arg) in ops {
                let off = (arg * 8) % (64 * 1024);
                match op {
                    0 | 1 => m.load(data.start().add(off)),
                    2 => m.store(data.start().add(off)),
                    3 => m.compute(arg % 16 + 1),
                    4 => {
                        if grant.is_none() {
                            let colors = [(arg % 32), (arg.wrapping_add(7) % 32)];
                            grant = m.sys_recolor(data, &colors).ok();
                        } else if let Some(g) = grant.take() {
                            m.sys_release(&g).unwrap();
                        }
                    }
                    _ => {
                        if let Some(g) = &grant {
                            m.load(g.alias.start().add(off));
                        } else {
                            m.flush_region(data);
                        }
                    }
                }
            }
            m.report("fuzz")
        };
        let a = run(&ops);
        let b = run(&ops);
        assert_eq!(a.cycles, b.cycles, "determinism");
        assert_eq!(
            a.mem.l1_load_hits + a.mem.l2_load_hits + a.mem.mem_loads,
            a.mem.loads,
            "every load is served at exactly one level"
        );
        assert!(
            a.mem.load_cycles >= a.mem.loads,
            "loads cost at least a cycle"
        );
    });
}

/// Randomized strided remaps through the whole machine resolve to the
/// same DRAM words as direct MMU accesses.
#[test]
fn machine_strided_remap_is_address_preserving() {
    check("machine_strided_remap_is_address_preserving", |g| {
        use impulse::sim::{Machine, SystemConfig};
        use impulse::types::MAddr;

        let object = 1u64 << g.range(3, 9);
        let stride = object * g.range(1, 6) + object; // ≥ object, varied
        let count = g.range(2, 40);
        let probes = g.vec(1, 20, |g| (g.range(0, 40), g.range(0, 512)));
        let mut m = Machine::new(&SystemConfig::paint_small());
        let span = (count - 1) * stride + object;
        let base = m.alloc_region(span, 128).unwrap();
        let grant = m
            .sys_remap_strided(base.start(), object, stride, count, 4096)
            .unwrap();

        for (obj, within) in probes {
            let obj = obj % count;
            let within = within % object;
            let alias_v = grant.alias.start().add(obj * object + within);
            let p = m.translate(alias_v);
            let via = m
                .memory()
                .mc()
                .resolve_shadow(p)
                .expect("alias must resolve");
            let direct = MAddr::new(m.translate(base.start().add(obj * stride + within)).raw());
            assert_eq!(via, direct);
        }
    });
}

/// Multi-descriptor dispatch: several descriptors with different remap
/// kinds coexist; every probe resolves per the *matching* descriptor's
/// arithmetic.
#[test]
fn controller_dispatches_across_descriptors() {
    check("controller_dispatches_across_descriptors", |g| {
        use impulse::core::{McConfig, MemController, RemapFn};
        use impulse::dram::{Dram, DramConfig};
        use impulse::types::{MAddr, PAddr, PRange, PvAddr};

        let probes = g.vec(1, 40, |g| (g.range(0, 3) as usize, g.range(0, 2048)));
        let stride_extra = g.range(1, 64);
        let seed = g.range(1, 1000);

        let dram = Dram::new(DramConfig {
            capacity: 1 << 24,
            ..DramConfig::default()
        });
        let mut mc = MemController::new(dram, McConfig::default());
        let shadow = mc.shadow_base();

        // Identity page table over the first 8 MB.
        for page in 0..2048u64 {
            mc.map_page(page, MAddr::new(page << 12));
        }

        // Descriptor 0: direct at pv 1 MB.
        let r0 = PRange::new(shadow, 1 << 16);
        mc.claim_descriptor(r0, RemapFn::direct(PvAddr::new(1 << 20)))
            .unwrap();
        // Descriptor 1: strided 8-byte objects.
        let stride = 8 + 8 * stride_extra;
        let r1 = PRange::new(shadow.add(1 << 16), 1 << 14);
        mc.claim_descriptor(r1, RemapFn::strided(PvAddr::new(2 << 20), 8, stride))
            .unwrap();
        // Descriptor 2: gather over 4096 elements.
        let indices: Vec<u64> = (0..4096u64).map(|i| (i * seed) % 4096).collect();
        let r2 = PRange::new(shadow.add(1 << 17), 4096 * 8);
        mc.claim_descriptor(
            r2,
            RemapFn::gather(
                PvAddr::new(4 << 20),
                8,
                std::sync::Arc::new(indices.clone()),
                PvAddr::new(6 << 20),
                4,
            ),
        )
        .unwrap();

        for (which, off) in probes {
            let off8 = off * 8 % (1 << 14);
            let (addr, expect) = match which {
                0 => (r0.start().add(off8), (1u64 << 20) + off8),
                1 => (r1.start().add(off8), (2u64 << 20) + (off8 / 8) * stride),
                _ => (
                    r2.start().add(off8),
                    (4u64 << 20) + indices[(off8 / 8) as usize] * 8,
                ),
            };
            let got = mc.resolve_shadow(addr).expect("must resolve");
            assert_eq!(got, MAddr::new(expect), "descriptor {which} offset {off8}");
            assert!(
                mc.resolve_shadow(PAddr::new(addr.raw() + (1 << 30)))
                    .is_none(),
                "far-away shadow addresses match nothing"
            );
        }
    });
}

// ----------------------------------------------------------------- types

/// Range block iteration covers the range exactly, with aligned steps.
#[test]
fn range_blocks_cover() {
    check("range_blocks_cover", |g| {
        use impulse::types::{VAddr, VRange};
        let start = g.range(0, 1 << 30);
        let len = g.range(1, 1 << 16);
        let step = 1u64 << g.range(3, 10);
        let r = VRange::new(VAddr::new(start), len);
        let blocks: Vec<VAddr> = r.blocks(step).collect();
        assert!(!blocks.is_empty());
        assert!(blocks[0].raw() <= start);
        assert!(blocks.last().unwrap().raw() < start + len);
        for w in blocks.windows(2) {
            assert_eq!(w[1].raw() - w[0].raw(), step);
        }
        for b in &blocks {
            assert!(b.is_aligned(step));
        }
        // Every byte of the range falls inside some block.
        assert!(blocks.last().unwrap().raw() + step >= start + len);
    });
}

/// Alignment helpers are idempotent and ordered.
#[test]
fn alignment_laws() {
    check("alignment_laws", |g| {
        use impulse::types::geom::{round_down, round_up};
        let x = g.range(0, 1 << 40);
        let a = 1u64 << g.range(0, 16);
        let up = round_up(x, a);
        let down = round_down(x, a);
        assert!(down <= x && x <= up);
        assert_eq!(round_up(up, a), up);
        assert_eq!(round_down(down, a), down);
        assert!(up - down < 2 * a);
    });
}

// ---------------------------------------------------------------- phys

/// Frames are handed out uniquely, under either policy.
#[test]
fn frames_are_unique() {
    check("frames_are_unique", |g| {
        let seed = g.range(0, 1000);
        let n = g.range(1, 64);
        for policy in [AllocPolicy::Sequential, AllocPolicy::Random(seed)] {
            let mut p = PhysMem::new(64 * PAGE_SIZE, 0, policy);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let f = p.alloc().unwrap();
                assert!(f.raw().is_multiple_of(PAGE_SIZE));
                assert!(seen.insert(f.raw()), "duplicate frame");
            }
        }
    });
}

/// Free then re-alloc cycles never lose or duplicate frames.
#[test]
fn alloc_free_cycles() {
    check("alloc_free_cycles", |g| {
        let ops = g.vec(1, 200, |g| g.bool());
        let mut p = PhysMem::new(16 * PAGE_SIZE, 0, AllocPolicy::Sequential);
        let mut held: Vec<MAddr> = Vec::new();
        for do_alloc in ops {
            if do_alloc {
                if let Ok(f) = p.alloc() {
                    assert!(!held.contains(&f));
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                p.free(f);
            }
            assert_eq!(p.allocated_frames(), held.len() as u64);
        }
    });
}

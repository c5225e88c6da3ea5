//! The top-level simulated machine: a single-issue CPU driving the memory
//! system, plus the OS.
//!
//! Workloads are *execution-driven*: they run as ordinary Rust code
//! against a [`Machine`], issuing `load`/`store`/`compute` operations that
//! advance the cycle clock exactly as the Paint simulator's single-issue
//! PA-RISC would (every instruction costs at least one cycle; loads block
//! until data returns; stores retire through the write path).
//!
//! The `sys_*` methods are the Impulse system calls: they perform the
//! kernel work, charge the trap/download costs, and carry out the cache
//! flushes the paper's protocol requires (step 5 of Section 2.1).

use std::sync::Arc;

use impulse_os::{Kernel, OsError, Pid, RemapGrant, RevokeOutcome};
use impulse_types::geom::{PAGE_SHIFT, PAGE_SIZE};
use impulse_types::snap::SnapWriter;
use impulse_types::{AccessKind, Cycle, PAddr, VAddr, VRange};

use crate::config::SystemConfig;
use crate::report::Report;
use crate::system::MemorySystem;
use crate::trace::{TraceEvent, Tracer};

/// Entries in the simulator's internal translation memo (not an
/// architectural structure — the architectural TLB lives in the memory
/// system; this only avoids HashMap lookups on the simulator hot path).
/// Direct-mapped, so it is sized to cover the 120-entry TLB's reach with
/// room to spare: SMVP alone keeps ~40 pages live, which thrash a 16-slot
/// memo, and every memo miss pays the kernel's page-table lookup. 256
/// slots cost 8 KB.
const XLAT_SLOTS: usize = 256;

/// One translation memo slot: a virtual page, its page base bus address,
/// and its TLB reach `(base vpage, span)` from [`Kernel::tlb_span`].
///
/// Caching the span is safe for the same reason caching the translation
/// is: superpages, like mappings, change only inside system calls, and
/// every system call clears the memo — `charge_syscall` on success,
/// `fail_syscall` on failure. So a hit never serves a span older than
/// the current superpage list.
#[derive(Clone, Copy, Debug)]
struct Xlat {
    vpage: u64,
    base: u64,
    span: (u64, u64),
}

impl Xlat {
    const EMPTY: Self = Self {
        vpage: u64::MAX,
        base: 0,
        span: (0, 1),
    };
}

/// What [`Machine::walk_region`] does to each mapped block it visits.
#[derive(Clone, Copy, Debug)]
enum LineOp {
    /// Write back if dirty, then invalidate, in both caches.
    Flush,
    /// Invalidate without writeback, in both caches.
    Purge,
}

/// The (object, block) pairs of `n` objects of `size` bytes, `stride`
/// bytes apart, the first starting `offset` bytes into an L1 block of
/// `line` bytes: object `k` at `x` spans `⌊(x + size + line − 1)/line⌋ −
/// ⌊x/line⌋` blocks, and both sums over `k` are floor sums.
fn run_blocks(n: u64, line: u64, offset: u64, size: u64, stride: u64) -> u64 {
    floor_sum(n, line, stride, offset + size + line - 1) - floor_sum(n, line, stride, offset)
}

/// `Σ ⌊(a·k + b)/m⌋` over `k` in `0..n`, in O(log m) steps: whole
/// multiples of `m` come out of `a` and `b` in closed form, and the
/// remainder is the same sum with the roles of `a` and `m` swapped.
fn floor_sum(mut n: u64, mut m: u64, mut a: u64, mut b: u64) -> u64 {
    let mut sum = 0;
    while n > 0 {
        sum += n * (n - 1) / 2 * (a / m) + n * (b / m);
        (a, b) = (a % m, b % m);
        let y = a * n + b;
        if y < m {
            break;
        }
        (n, b, m, a) = (y / m, y % m, a, m);
    }
    sum
}

/// State-image section tag for [`Machine`] (`"MACH"`).
const TAG_MACH: u32 = 0x4D41_4348;

/// A simulated machine: CPU clock + memory system + OS.
#[derive(Clone, Debug)]
pub struct Machine {
    kernel: Kernel,
    ms: MemorySystem,
    now: Cycle,
    epoch: Cycle,
    syscall_cycles: u64,
    syscall_failures: u64,
    /// Non-memory instructions retired this epoch ([`Machine::compute`]).
    /// Loads and stores are counted by the memory system, so a demand
    /// access does not write this.
    compute_instructions: u64,
    xlat: [Xlat; XLAT_SLOTS],
    tracer: Option<Tracer>,
    /// Completion times of overlapped (non-blocking) load misses.
    inflight: std::collections::VecDeque<Cycle>,
    mshr: usize,
    overlap_threshold: Cycle,
    /// Online superpage promotion threshold (0 = disabled).
    promote_threshold: u64,
}

impl Machine {
    /// Boots a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's and the DRAM's idea of installed capacity
    /// disagree.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert_eq!(
            cfg.kernel.dram_capacity,
            cfg.tier.visible_capacity(cfg.dram.capacity),
            "kernel and memory tiers must agree on installed capacity"
        );
        Self {
            kernel: Kernel::new(cfg.kernel),
            ms: MemorySystem::new(cfg),
            now: 0,
            epoch: 0,
            syscall_cycles: 0,
            syscall_failures: 0,
            compute_instructions: 0,
            xlat: [Xlat::EMPTY; XLAT_SLOTS],
            tracer: None,
            inflight: std::collections::VecDeque::with_capacity(cfg.mshr),
            mshr: cfg.mshr,
            overlap_threshold: cfg.t_l2_hit,
            promote_threshold: 0,
        }
    }

    /// Enables online superpage promotion: once a region takes
    /// `threshold` TLB misses, the OS dynamically rebuilds it as a shadow
    /// superpage (Section 6's "dynamically build superpages"). Only
    /// span-aligned multi-page regions are promoted.
    pub fn enable_auto_promotion(&mut self, threshold: u64) {
        assert!(threshold > 0, "a zero threshold would promote everything");
        self.promote_threshold = threshold;
    }

    /// Retires completed overlapped misses; stalls for the oldest if the
    /// miss window is full.
    #[inline]
    fn make_mshr_slot(&mut self) {
        while let Some(&c) = self.inflight.front() {
            if c <= self.now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() >= self.mshr {
            let oldest = self.inflight.pop_front().expect("window non-empty");
            self.now = self.now.max(oldest);
        }
    }

    /// Waits for every outstanding load (synchronization point: system
    /// calls, flushes, end of measurement).
    fn drain_loads(&mut self) {
        if let Some(&last) = self.inflight.back() {
            self.now = self.now.max(last);
        }
        self.inflight.clear();
    }

    /// Attaches a trace recorder; every demand access is recorded until
    /// [`Machine::take_tracer`] detaches it.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the trace recorder, if one was attached.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The OS.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The memory system (for stats and inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.ms
    }

    /// Instructions retired (loads + stores + compute cycles).
    pub fn instructions(&self) -> u64 {
        self.compute_instructions + self.ms.accesses()
    }

    /// The bus address of `v` and the TLB reach of its page, through the
    /// memo.
    #[inline(always)]
    fn translate_fast(&mut self, v: VAddr) -> (PAddr, (u64, u64)) {
        let vpage = v.page_number();
        let x = self.xlat[(vpage as usize) & (XLAT_SLOTS - 1)];
        if x.vpage == vpage {
            return (PAddr::new(x.base + v.page_offset()), x.span);
        }
        self.translate_miss(v)
    }

    /// A memo miss: asks the kernel for the translation and the span, and
    /// memoizes both.
    #[cold]
    #[inline(never)]
    fn translate_miss(&mut self, v: VAddr) -> (PAddr, (u64, u64)) {
        let vpage = v.page_number();
        let p = self
            .kernel
            .translate(v)
            .unwrap_or_else(|e| panic!("segfault: demand access to {v:?}: {e}"));
        let span = self.kernel.tlb_span(vpage);
        self.xlat[(vpage as usize) & (XLAT_SLOTS - 1)] = Xlat {
            vpage,
            base: p.page_base().raw(),
            span,
        };
        (p, span)
    }

    fn invalidate_xlat(&mut self) {
        self.xlat = [Xlat::EMPTY; XLAT_SLOTS];
    }

    /// Executes a load of the word at `v`; the clock advances to
    /// completion (single-issue, blocking loads).
    ///
    /// Forced inline into each workload loop, with every hit half below
    /// it; the memo miss, the TLB and L1 misses, an overlapped miss, a
    /// promotion check after a walk and trace recording are out-of-line
    /// calls.
    #[inline(always)]
    pub fn load(&mut self, v: VAddr) {
        if self.mshr > 1 {
            self.make_mshr_slot();
        }
        let (p, span) = self.translate_fast(v);
        let start = self.now;
        let penalties = self.ms.tlb_penalties();
        let done = self.ms.load(v, p, span, start);
        if self.mshr > 1 && done > start + self.overlap_threshold {
            self.overlap_miss(start, done);
        } else {
            self.now = done;
        }
        if self.promote_threshold > 0 && self.ms.tlb_penalties() != penalties {
            self.consider_promotion(v);
        }
        if self.tracer.is_some() {
            self.trace(AccessKind::Load, start, v, p);
        }
    }

    /// A load miss beyond the L2 on a non-blocking CPU: issue it and keep
    /// going; the data's consumer is assumed far enough away.
    #[cold]
    #[inline(never)]
    fn overlap_miss(&mut self, start: Cycle, done: Cycle) {
        self.inflight.push_back(done);
        self.now = start + 1;
    }

    /// Records the access that started at `start` and ends now.
    #[cold]
    #[inline(never)]
    fn trace(&mut self, kind: AccessKind, start: Cycle, v: VAddr, p: PAddr) {
        let latency = self.now - start;
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent {
                at: start,
                kind,
                vaddr: v,
                paddr: p,
                latency,
            });
        }
    }

    /// Executes a store to the word at `v`; split like [`Machine::load`].
    #[inline(always)]
    pub fn store(&mut self, v: VAddr) {
        let (p, span) = self.translate_fast(v);
        let start = self.now;
        self.now = self.ms.store(v, p, span, start);
        if self.tracer.is_some() {
            self.trace(AccessKind::Store, start, v, p);
        }
    }

    /// Like [`Machine::load`], but surfaces translation faults as typed
    /// errors instead of panicking — the entry point for workloads that
    /// may race a revocation (a receiver streaming through a shared
    /// alias whose owner revokes the grant mid-gather). On success it is
    /// cycle-exact with `load`; on a fault the access traps into the
    /// kernel (trap cost charged, failure counted) and the workload
    /// keeps running — no stale data, no panic, no hang.
    ///
    /// # Errors
    ///
    /// Returns the kernel's fault classification — notably
    /// [`OsError::RevokedCapability`] for an access through a revoked
    /// alias.
    pub fn try_load(&mut self, v: VAddr) -> Result<(), OsError> {
        // Consult the kernel, not the xlat memo: revocations invalidate
        // the memo, so a revoked page can never be served from it, and
        // the fault must carry the kernel's typed classification.
        match self.kernel.translate(v) {
            Ok(_) => {
                self.load(v);
                Ok(())
            }
            Err(e) => Err(self.fail_syscall(e)),
        }
    }

    /// Executes `n` non-memory instructions (1 cycle each on the
    /// single-issue pipeline).
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.now += n;
        self.compute_instructions += n;
    }

    /// Online promotion check after a TLB miss.
    #[cold]
    #[inline(never)]
    fn consider_promotion(&mut self, v: VAddr) {
        if let Some(region) = self.kernel.note_tlb_miss(v, self.promote_threshold) {
            // Best effort: descriptor exhaustion just skips the promotion.
            let _ = self.sys_superpage(region);
        }
    }

    /// Translates without timing (for assertions and tests).
    ///
    /// # Panics
    ///
    /// Panics on an unmapped address — a workload touching memory it
    /// never mapped is a simulated segfault, not a recoverable error.
    pub fn translate(&self, v: VAddr) -> PAddr {
        self.kernel
            .translate(v)
            .unwrap_or_else(|e| panic!("segfault: access to {v:?}: {e}"))
    }

    /// Programs a stream buffer with an explicit stride starting at the
    /// physical address of `v` (McKee-style software-declared vector
    /// access; no-op unless stream buffers are configured). The stream
    /// follows *physical* addresses, so it breaks at page boundaries —
    /// callers re-program per page, which is exactly the limitation the
    /// paper contrasts Impulse against.
    pub fn program_stream(&mut self, v: VAddr, stride: i64) {
        let (p, _) = self.translate_fast(v);
        self.now += 1; // one instruction to arm the stream
        self.ms.program_stream(p, stride, self.now);
    }

    // ---- OS entry points ---------------------------------------------

    fn charge_syscall(&mut self, pages: u64) {
        self.drain_loads();
        let costs = self.kernel.config().costs;
        let cost = costs.t_trap + pages * costs.t_per_page;
        self.now += cost;
        self.syscall_cycles += cost;
        self.invalidate_xlat();
    }

    /// A failed system call still traps into the kernel and back: charge
    /// the trap cost, count the failure, and surface the typed error to
    /// the workload, which keeps running un-remapped.
    fn fail_syscall(&mut self, e: OsError) -> OsError {
        self.drain_loads();
        let cost = self.kernel.config().costs.t_trap;
        self.now += cost;
        self.syscall_cycles += cost;
        self.syscall_failures += 1;
        // A call can fail after changing kernel state (a superpage
        // release that drops the registration, then fails to free the
        // descriptor), so the memo goes too.
        self.invalidate_xlat();
        e
    }

    /// System calls that returned a typed error this epoch (the machine
    /// keeps running; each failure still paid the trap cost).
    pub fn syscall_failures(&self) -> u64 {
        self.syscall_failures
    }

    /// Allocates and maps an ordinary data region.
    ///
    /// # Errors
    ///
    /// Propagates kernel allocation failures.
    pub fn alloc_region(&mut self, bytes: u64, align: u64) -> Result<VRange, OsError> {
        let r = self
            .kernel
            .alloc_region(bytes, align)
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(r.page_count());
        Ok(r)
    }

    /// Allocates a region constrained to the given L2 page colors — the
    /// copying-world tool the paper contrasts with Impulse recoloring.
    ///
    /// # Errors
    ///
    /// Propagates kernel allocation failures.
    pub fn alloc_region_colored(
        &mut self,
        bytes: u64,
        align: u64,
        colors: &[u64],
    ) -> Result<VRange, OsError> {
        let r = self
            .kernel
            .alloc_region_colored(bytes, align, colors)
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(r.page_count());
        Ok(r)
    }

    /// Flushes a virtual range from the caches (writes back dirty lines),
    /// charging the per-line flush cost.
    pub fn flush_region(&mut self, r: VRange) {
        self.drain_loads();
        self.walk_region(r.start(), r.len(), 0, 1, LineOp::Flush);
    }

    /// Purges a virtual range (invalidates without writeback) — used for
    /// remapped input tiles whose cached copies are clean.
    pub fn purge_region(&mut self, r: VRange) {
        self.walk_region(r.start(), r.len(), 0, 1, LineOp::Purge);
    }

    /// The region walker behind [`Machine::flush_region`],
    /// [`Machine::purge_region`] and [`Machine::sys_remap_strided`]:
    /// applies `op` to every mapped L1 block of `count` objects of `size`
    /// bytes, `stride` bytes apart, and charges `t_per_flush_line` per
    /// (object, block) pair. The blocks of one object all see the same
    /// `now`; its charge lands after its last block.
    ///
    /// It translates once per page rather than once per block, and when
    /// an object starts in the block just processed it does not process
    /// that block again: nothing touched it in between, so a second flush
    /// or purge would find it in neither cache. The charge still counts
    /// the block.
    ///
    /// A walk over more blocks than the two caches hold lines first
    /// collects the bus pages they hold any line of, and probes only the
    /// mapped pages in that set; the blocks of every other mapped page are
    /// charged without a probe, a page's whole run of objects at once.
    /// This is exact: processing a block adds no line anywhere (a dirty
    /// L1 line's writeback updates an L2 line only if one is present, and
    /// that line is flushed next), so a page with no cached line when the
    /// walk starts has none when the walk reaches it, and every probe
    /// skipped would have found nothing. Shorter walks probe every mapped
    /// page.
    fn walk_region(&mut self, base: VAddr, size: u64, stride: u64, count: u64, op: LineOp) {
        let t = self.kernel.config().costs.t_per_flush_line;
        let (l1, l2) = (self.ms.l1_contents(), self.ms.l2());
        let line = l1.config().line;
        let held = l1.config().size / line + l2.config().size / l2.config().line;
        // The first object's blocks, times the objects.
        let visits = count.saturating_mul((base.raw() % line + size).div_ceil(line));
        let cached = (visits > held).then(|| {
            let mut pages: Vec<u64> = l1
                .cached_lines()
                .chain(l2.cached_lines())
                .map(PAddr::page_number)
                .collect();
            pages.sort_unstable();
            pages.dedup();
            pages
        });
        // The page last translated, whether it is mapped, and the bus base
        // to probe its blocks at (`None`: its blocks are not probed).
        let (mut vpage, mut mapped, mut probe) = (u64::MAX, false, None);
        let mut last = u64::MAX;
        let mut i = 0;
        while i < count {
            let start = base.raw() + i * stride;
            let end = start + size;
            let first = start & !(line - 1);
            let mut v = first;
            let mut lines = 0;
            while v < end {
                if v >> PAGE_SHIFT != vpage {
                    vpage = v >> PAGE_SHIFT;
                    let pbase = self
                        .kernel
                        .aspace()
                        .try_translate(VAddr::new(vpage << PAGE_SHIFT));
                    mapped = pbase.is_some();
                    probe = pbase.filter(|p| {
                        cached
                            .as_ref()
                            .is_none_or(|c| c.binary_search(&p.page_number()).is_ok())
                    });
                }
                let page_end = (vpage + 1) << PAGE_SHIFT;
                if let Some(pbase) = probe {
                    while v < end.min(page_end) {
                        lines += 1;
                        if v != last {
                            last = v;
                            let va = VAddr::new(v);
                            let p = pbase.add(va.page_offset());
                            match op {
                                LineOp::Flush => {
                                    self.ms.flush_line(va, p, self.now);
                                }
                                LineOp::Purge => self.ms.purge_line(va, p),
                            }
                        }
                        v += line;
                    }
                } else if v == first && end <= page_end {
                    // This object and the objects after it that end in the
                    // same page: charged at once, never probed.
                    let n = (page_end - end)
                        .checked_div(stride)
                        .map_or(u64::MAX, |k| k + 1)
                        .min(count - i);
                    if mapped {
                        lines = run_blocks(n, line, start - first, size, stride);
                    }
                    i += n - 1;
                    break;
                } else {
                    if mapped {
                        lines += (end.min(page_end) - v).div_ceil(line);
                    }
                    v = page_end;
                }
            }
            self.now += lines * t;
            self.syscall_cycles += lines * t;
            i += 1;
        }
    }

    /// System call: scatter/gather remap (see
    /// [`Kernel::remap_gather`]). Flushes the target so the controller
    /// gathers fresh data.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_remap_gather(
        &mut self,
        target: VRange,
        elem_size: u64,
        indices: Arc<Vec<u64>>,
        index_region: VRange,
        index_bytes: u64,
    ) -> Result<RemapGrant, OsError> {
        let grant = self
            .kernel
            .remap_gather(
                self.ms.mc_mut(),
                target,
                elem_size,
                indices,
                index_region,
                index_bytes,
            )
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(grant.pages_installed);
        self.flush_region(target);
        Ok(grant)
    }

    /// Like [`Machine::sys_remap_gather`], but places the alias so that
    /// streaming it alongside `partner` (e.g. CG's `DATA` array, consumed
    /// in lock-step with `x'`) cannot conflict in the virtually-indexed
    /// L1: the alias starts half an L1 away from `partner` modulo the L1
    /// size. This is the "appropriate alignment and offset
    /// characteristics" of the paper's step 1.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_remap_gather_interleaved(
        &mut self,
        target: VRange,
        elem_size: u64,
        indices: Arc<Vec<u64>>,
        index_region: VRange,
        index_bytes: u64,
        partner: VAddr,
    ) -> Result<RemapGrant, OsError> {
        let l1 = self.ms.l1_contents().config().size;
        let phase = ((partner.raw() + l1 / 2) % l1) & !(PAGE_SIZE - 1);
        let grant = self
            .kernel
            .remap_gather_aligned(
                self.ms.mc_mut(),
                target,
                elem_size,
                indices,
                index_region,
                index_bytes,
                l1,
                phase,
            )
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(grant.pages_installed);
        self.flush_region(target);
        Ok(grant)
    }

    /// System call: strided remap (see [`Kernel::remap_strided`]).
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_remap_strided(
        &mut self,
        base: VAddr,
        object_size: u64,
        stride: u64,
        count: u64,
        alias_align: u64,
    ) -> Result<RemapGrant, OsError> {
        let grant = self
            .kernel
            .remap_strided(
                self.ms.mc_mut(),
                base,
                object_size,
                stride,
                count,
                alias_align,
            )
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(grant.pages_installed);
        // Only the strided objects themselves need flushing — not the
        // (possibly huge) span between them.
        self.drain_loads();
        self.walk_region(base, object_size, stride, count, LineOp::Flush);
        Ok(grant)
    }

    /// System call: retarget a strided alias at a new base (the per-tile
    /// remap of Section 3.2). The caller is responsible for the
    /// purge/flush protocol on the tiles themselves.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_retarget_strided(
        &mut self,
        grant: &mut RemapGrant,
        new_base: VAddr,
        object_size: u64,
        stride: u64,
        count: u64,
    ) -> Result<(), OsError> {
        let pages = self
            .kernel
            .retarget_strided(
                self.ms.mc_mut(),
                grant,
                new_base,
                object_size,
                stride,
                count,
            )
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(pages);
        Ok(())
    }

    /// System call: no-copy page recoloring (see
    /// [`Kernel::remap_recolor`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use impulse_sim::{Machine, SystemConfig};
    ///
    /// let mut m = Machine::new(&SystemConfig::paint_small());
    /// let x = m.alloc_region(64 * 1024, 8)?;
    /// // Pin x to the first half of the physically-indexed L2.
    /// let colors: Vec<u64> = (0..16).collect();
    /// let grant = m.sys_recolor(x, &colors)?;
    /// m.load(grant.alias.start()); // same data, new cache placement
    /// # Ok::<(), impulse_os::OsError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_recolor(&mut self, target: VRange, colors: &[u64]) -> Result<RemapGrant, OsError> {
        let grant = self
            .kernel
            .remap_recolor(self.ms.mc_mut(), target, colors)
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(grant.pages_installed);
        self.flush_region(target);
        Ok(grant)
    }

    /// System call: build a superpage over `target` (see
    /// [`Kernel::build_superpage`]). Flushes the range under its *old*
    /// physical tags and shoots down its TLB entries before the mapping
    /// changes.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_superpage(&mut self, target: VRange) -> Result<RemapGrant, OsError> {
        // The flush must happen before the remap: cached lines are tagged
        // with the original physical addresses.
        self.flush_region(target);
        for page in target.blocks(PAGE_SIZE) {
            self.ms.tlb_shootdown(page);
        }
        let grant = self
            .kernel
            .build_superpage(self.ms.mc_mut(), target)
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(grant.pages_installed);
        Ok(grant)
    }

    /// Spawns a new (empty) process.
    pub fn sys_spawn(&mut self) -> Pid {
        let pid = self.kernel.spawn();
        self.charge_syscall(0);
        pid
    }

    /// Switches to another process: charges the context-switch cost and
    /// flushes the TLB (the model has no address-space identifiers). The
    /// physically-tagged caches need no flush.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn sys_switch(&mut self, pid: Pid) -> Result<(), OsError> {
        self.kernel.switch(pid).map_err(|e| self.fail_syscall(e))?;
        self.ms.tlb_flush();
        self.charge_syscall(1);
        Ok(())
    }

    /// Shares a grant's shadow region into another process (no-copy IPC,
    /// Section 6): the receiver gets its own alias onto the same
    /// controller descriptor.
    ///
    /// # Errors
    ///
    /// Fails unless the calling process owns the grant.
    pub fn sys_share(&mut self, grant: &RemapGrant, with: Pid) -> Result<VRange, OsError> {
        let alias = self
            .kernel
            .share_remap(grant, with)
            .map_err(|e| self.fail_syscall(e))?;
        self.charge_syscall(alias.page_count());
        Ok(alias)
    }

    /// Releases a remap grant. Flushes the alias from the caches first
    /// (its shadow addresses will no longer be served) and shoots down its
    /// TLB entries; superpage grants have their original mappings
    /// restored by the kernel.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors.
    pub fn sys_release(&mut self, grant: &RemapGrant) -> Result<(), OsError> {
        self.sys_revoke(grant).map(|_| ())
    }

    /// Explicitly revokes a grant, tearing down every receiver alias
    /// shared from it (see [`Kernel::revoke_remap`]). Identical kernel
    /// effect to [`Machine::sys_release`], but returns the
    /// [`RevokeOutcome`] — how many handles died, how many pages were
    /// unmapped across all address spaces, and the cycles the revocation
    /// walk cost.
    ///
    /// # Errors
    ///
    /// Propagates kernel/controller errors; a second revocation of the
    /// same grant yields [`OsError::RevokedCapability`].
    pub fn sys_revoke(&mut self, grant: &RemapGrant) -> Result<RevokeOutcome, OsError> {
        self.flush_region(grant.alias);
        for page in grant.alias.blocks(PAGE_SIZE) {
            self.ms.tlb_shootdown(page);
        }
        let out = self
            .kernel
            .revoke_remap(self.ms.mc_mut(), grant)
            .map_err(|e| self.fail_syscall(e))?;
        // Charge the per-page download cost on every page the kernel
        // actually touched — receiver aliases included (superpage
        // restores re-map the owner range, hence the max).
        self.charge_syscall(grant.alias.page_count().max(out.pages_unmapped));
        // The revocation walk itself is kernel work on top of the trap.
        self.now += out.cycles;
        self.syscall_cycles += out.cycles;
        Ok(out)
    }

    // ---- measurement ---------------------------------------------------

    /// Resets all statistics and starts a new measurement epoch (cache and
    /// DRAM contents survive, enabling warm-up then measure).
    pub fn reset_stats(&mut self) {
        self.drain_loads();
        self.epoch = self.now;
        self.syscall_cycles = 0;
        self.syscall_failures = 0;
        self.compute_instructions = 0;
        self.ms.reset_stats();
        self.ms.mc_mut().reset_stats();
    }

    /// Builds a report over the current measurement epoch. Outstanding
    /// overlapped loads are charged to the epoch (max completion time).
    pub fn report(&self, name: impl Into<String>) -> Report {
        let now = self
            .inflight
            .back()
            .map_or(self.now, |&last| self.now.max(last));
        Report::collect(
            name.into(),
            now - self.epoch,
            self.instructions(),
            self.syscall_cycles,
            &self.ms,
        )
    }

    /// Every metric in the machine, pulled into one registry: the memory
    /// hierarchy's namespaces (see [`MemorySystem::observe_all`]) plus the
    /// machine-level `machine.*` counters for the current epoch.
    pub fn metrics(&self) -> impulse_obs::MetricsRegistry {
        let mut m = self.ms.observe_all();
        m.counter("machine.cycles", self.now - self.epoch);
        m.counter("machine.instructions", self.instructions());
        m.counter("machine.syscall_cycles", self.syscall_cycles);
        m.counter("machine.syscall_failures", self.syscall_failures);
        m
    }

    // ---- state image ----------------------------------------------------

    /// Serializes the complete machine state into one byte image: the CPU
    /// clock and counters, every cache and TLB, the bus, the memory
    /// controller (DRAM, page table, shadow descriptors, prefetch
    /// buffers, tier engine), the OS, and any active fault-plan RNG
    /// streams. The translation memo (a host-side cache) and an attached
    /// [`Tracer`] are not part of it.
    ///
    /// Nothing decodes the image; it is a state-equality oracle. Two
    /// machines hold the same architectural and statistical state exactly
    /// when their images are byte-identical, which is how tests check a
    /// rewritten path against the one it replaces. An in-process
    /// checkpoint is a [`Clone`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(TAG_MACH);
        w.u64(self.now);
        w.u64(self.epoch);
        w.u64(self.syscall_cycles);
        w.u64(self.syscall_failures);
        w.u64(self.instructions());
        w.u64(self.promote_threshold);
        w.usize(self.inflight.len());
        for &c in &self.inflight {
            w.u64(c);
        }
        self.kernel.snap_save(&mut w);
        self.ms.snap_save(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(&SystemConfig::paint_small())
    }

    #[test]
    fn clock_advances_per_operation() {
        let mut m = machine();
        let r = m.alloc_region(4096, 8).unwrap();
        let t0 = m.now();
        m.compute(5);
        assert_eq!(m.now(), t0 + 5);
        m.load(r.start());
        assert!(m.now() > t0 + 5);
        assert_eq!(m.instructions(), 6);
    }

    #[test]
    fn instructions_match_an_eager_count() {
        // Seeded loads (some through `try_load`), stores, compute runs,
        // TLB-flushing process switches and epoch resets, on a blocking
        // and a non-blocking CPU: after every step `instructions()`, and
        // the copies in `report()` and `metrics()`, must equal a count
        // kept here, one per load and store and `n` per `compute(n)`.
        use impulse_types::ident::splitmix64;

        for mshr in [1, 4] {
            let mut m = Machine::new(&SystemConfig::paint_small().with_mshr(mshr));
            let r = m.alloc_region(64 * PAGE_SIZE, PAGE_SIZE).unwrap();
            let other = m.sys_spawn();
            let home = m.kernel().current();
            let (mut want, mut x) = (0, mshr as u64);
            for step in 0..3_000 {
                x = splitmix64(x);
                // Mostly one L1-resident page, now and then anywhere.
                let off = if x % 8 == 0 {
                    (x >> 8) % (64 * PAGE_SIZE)
                } else {
                    (x >> 8) % PAGE_SIZE
                } & !7;
                let v = r.start().add(off);
                match (x >> 32) % 64 {
                    0 => {
                        m.reset_stats();
                        want = 0;
                    }
                    1 => {
                        m.sys_switch(other).unwrap();
                        m.sys_switch(home).unwrap();
                    }
                    2..=9 => {
                        let n = (x >> 40) % 5;
                        m.compute(n);
                        want += n;
                    }
                    10..=23 => {
                        m.store(v);
                        want += 1;
                    }
                    24..=27 => {
                        m.try_load(v).unwrap();
                        want += 1;
                    }
                    _ => {
                        m.load(v);
                        want += 1;
                    }
                }
                assert_eq!(m.instructions(), want, "mshr {mshr}, step {step}");
                if step % 64 == 0 {
                    assert_eq!(m.report("r").instructions, want, "report at step {step}");
                    assert_eq!(
                        m.metrics().counter_value("machine.instructions"),
                        Some(want),
                        "metrics at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_loads_hit_l1() {
        let mut m = machine();
        let r = m.alloc_region(4096, 8).unwrap();
        m.load(r.start());
        let t = m.now();
        m.load(r.start());
        assert_eq!(m.now() - t, 1);
    }

    #[test]
    fn syscalls_cost_cycles() {
        let mut m = machine();
        let t0 = m.now();
        let _ = m.alloc_region(1 << 16, 8).unwrap();
        assert!(m.now() > t0, "allocation trap must cost time");
    }

    #[test]
    fn gather_alias_is_loadable() {
        let mut m = machine();
        let x = m.alloc_region(1024 * 8, 8).unwrap();
        let colv = m.alloc_region(512 * 4, 4).unwrap();
        let indices = Arc::new((0..512u64).map(|i| (i * 13) % 1024).collect::<Vec<_>>());
        let g = m
            .sys_remap_gather(x, 8, indices, colv, 4)
            .expect("gather remap");
        // Stream the gathered alias.
        for k in 0..512u64 {
            m.load(g.alias.start().add(k * 8));
        }
        let rep = m.report("gather");
        assert_eq!(rep.mem.loads, 512);
        assert!(rep.mem.l1_ratio() > 0.7, "gathered data is dense in L1");
        assert!(m.memory().mc().desc_stats().gathers > 0);
    }

    #[test]
    fn recolored_alias_reads_same_frames() {
        let mut m = machine();
        let x = m.alloc_region(8 * PAGE_SIZE, 8).unwrap();
        let g = m.sys_recolor(x, &[0, 1]).unwrap();
        // Both views are readable; the alias sits in shadow space.
        m.load(x.start());
        m.load(g.alias.start());
        assert!(m.memory().mc().is_shadow(m.translate(g.alias.start())));
    }

    #[test]
    fn superpage_reduces_tlb_penalties() {
        let run = |superpage: bool| {
            let mut m = machine();
            let pages = 64;
            let r = m
                .alloc_region(pages * PAGE_SIZE, pages * PAGE_SIZE)
                .unwrap();
            if superpage {
                m.sys_superpage(r).unwrap();
            }
            m.reset_stats();
            // Touch every page, twice around, exceeding nothing but
            // demonstrating reach.
            for round in 0..2u64 {
                for i in 0..pages {
                    m.load(r.start().add(i * PAGE_SIZE + round * 8));
                }
            }
            m.report("tlb").mem.tlb_penalties
        };
        let base = run(false);
        let sp = run(true);
        assert!(sp < base, "superpage TLB penalties {sp} !< {base}");
        assert_eq!(sp, 1, "one penalty to load the superpage entry");
    }

    #[test]
    fn report_epoch_resets() {
        let mut m = machine();
        let r = m.alloc_region(4096, 8).unwrap();
        m.load(r.start());
        m.reset_stats();
        let rep = m.report("fresh");
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.mem.loads, 0);
    }

    #[test]
    fn nonblocking_loads_overlap_misses() {
        let run = |mshr: usize| {
            let cfg = SystemConfig::paint_small().with_mshr(mshr);
            let mut m = Machine::new(&cfg);
            let r = m.alloc_region(1 << 20, 8).unwrap();
            m.reset_stats();
            // Independent strided misses: a non-blocking CPU overlaps them.
            for i in 0..2048u64 {
                m.load(r.start().add(i * 512 % (1 << 20)));
                m.compute(2);
            }
            m.report("mshr").cycles
        };
        let blocking = run(1);
        let overlapped = run(4);
        assert!(
            overlapped * 3 < blocking * 2,
            "4 MSHRs should cut at least a third: {overlapped} !<< {blocking}"
        );
        // Determinism holds in both modes.
        assert_eq!(run(4), overlapped);
    }

    #[test]
    fn nonblocking_drains_at_sync_points() {
        let cfg = SystemConfig::paint_small().with_mshr(8);
        let mut m = Machine::new(&cfg);
        let r = m.alloc_region(1 << 16, 8).unwrap();
        for i in 0..8u64 {
            m.load(r.start().add(i * 8192));
        }
        let before = m.now();
        m.flush_region(r); // sync point: all loads must retire first
        assert!(m.now() > before);
        let rep = m.report("drained");
        assert!(rep.cycles >= rep.mem.loads);
    }

    #[test]
    fn auto_promotion_builds_superpages_online() {
        use impulse_types::geom::PAGE_SIZE;
        let mut m = machine();
        let pages = 64u64;
        // Span-aligned region: promotable.
        let r = m
            .alloc_region(pages * PAGE_SIZE, pages * PAGE_SIZE)
            .unwrap();
        m.enable_auto_promotion(16);
        m.reset_stats();
        // Two sweeps: the first racks up TLB misses and triggers the
        // promotion; the second runs under one superpage entry.
        for round in 0..3u64 {
            for i in 0..pages {
                m.load(r.start().add(i * PAGE_SIZE + round * 8));
            }
        }
        // Promotion happened: the region now translates into shadow space.
        assert!(m.memory().mc().is_shadow(m.translate(r.start())));
        let (_, span) = m.kernel().tlb_span(r.start().raw() >> 12);
        assert_eq!(span, pages);
        // Far fewer penalties than three unpromoted sweeps (192).
        assert!(m.memory().stats().tlb_penalties < 64 + 16);
    }

    #[test]
    fn auto_promotion_skips_unaligned_and_small_regions() {
        use impulse_types::geom::PAGE_SIZE;
        let mut m = machine();
        let single = m.alloc_region(PAGE_SIZE, 1).unwrap();
        let unaligned = m.alloc_region(8 * PAGE_SIZE, PAGE_SIZE).unwrap();
        m.enable_auto_promotion(2);
        for _ in 0..8 {
            m.load(single.start());
            for i in 0..8 {
                m.load(unaligned.start().add(i * PAGE_SIZE));
            }
            // Churn the TLB so misses keep occurring.
            for i in 0..256u64 {
                m.load(unaligned.start().add((i % 8) * PAGE_SIZE + 8));
            }
        }
        assert!(!m.memory().mc().is_shadow(m.translate(single.start())));
        if !unaligned.start().is_aligned(8 * PAGE_SIZE) {
            assert!(!m.memory().mc().is_shadow(m.translate(unaligned.start())));
        }
    }

    #[test]
    fn tracer_records_demand_accesses() {
        let mut m = machine();
        let r = m.alloc_region(4096, 8).unwrap();
        m.attach_tracer(crate::trace::Tracer::new(8));
        m.load(r.start());
        m.store(r.start().add(8));
        m.compute(5); // not traced
        let t = m.take_tracer().unwrap();
        assert_eq!(t.events().len(), 2);
        assert!(t.events()[0].kind.is_load());
        assert!(t.events()[1].kind.is_store());
        assert!(t.events()[0].latency >= 1);
        assert_eq!(t.events()[0].vaddr, r.start());
        assert!(m.take_tracer().is_none());
    }

    /// The bus address the most recent access actually used (recorded by
    /// the tracer, i.e. downstream of the xlat memo).
    fn last_paddr(m: &mut Machine) -> PAddr {
        let t = m.take_tracer().expect("tracer attached");
        let p = t.events().last().expect("at least one access").paddr;
        m.attach_tracer(crate::trace::Tracer::new(64));
        p
    }

    #[test]
    fn xlat_memo_invalidated_by_superpage_remap_and_release() {
        let mut m = machine();
        let pages = 16u64;
        let r = m
            .alloc_region(pages * PAGE_SIZE, pages * PAGE_SIZE)
            .unwrap();
        m.attach_tracer(crate::trace::Tracer::new(64));

        m.load(r.start()); // memoize the original translation
        let original = last_paddr(&mut m);
        assert_eq!(original, m.translate(r.start()));
        assert!(!m.memory().mc().is_shadow(original));

        // Remap: the region's pages now translate into shadow space. A
        // stale memo entry would keep issuing the old bus address.
        let grant = m.sys_superpage(r).unwrap();
        m.load(r.start());
        let remapped = last_paddr(&mut m);
        assert_eq!(
            remapped,
            m.translate(r.start()),
            "memo served a stale translation"
        );
        assert!(m.memory().mc().is_shadow(remapped));
        assert_ne!(remapped, original);

        // Release: the original mappings are restored (plus a TLB
        // shootdown); again the memo must follow.
        m.sys_release(&grant).unwrap();
        m.load(r.start());
        let restored = last_paddr(&mut m);
        assert_eq!(restored, m.translate(r.start()));
        assert!(!m.memory().mc().is_shadow(restored));
    }

    #[test]
    fn first_access_after_superpage_syscalls_inserts_the_new_span() {
        // The memo caches each page's TLB span next to its translation.
        // Every page is memoized with span 1 before the superpage is
        // built, and with span 16 before it is released: a stale span
        // would insert the old reach into the TLB and show up in the
        // penalty and insert counts.
        let mut m = machine();
        let pages = 16u64;
        let r = m
            .alloc_region(pages * PAGE_SIZE, pages * PAGE_SIZE)
            .unwrap();
        let sweep = |m: &mut Machine| {
            let (penalties, inserts) = (
                m.memory().stats().tlb_penalties,
                m.memory().tlb().stats().inserts,
            );
            for i in 0..pages {
                m.load(r.start().add(i * PAGE_SIZE));
            }
            (
                m.memory().stats().tlb_penalties - penalties,
                m.memory().tlb().stats().inserts - inserts,
            )
        };
        assert_eq!(sweep(&mut m), (pages, pages), "one span-1 entry per page");

        let grant = m.sys_superpage(r).unwrap();
        assert_eq!(sweep(&mut m), (1, 1), "one entry spans the superpage");
        assert_eq!(sweep(&mut m), (0, 0));

        m.sys_release(&grant).unwrap();
        assert_eq!(
            sweep(&mut m),
            (pages, pages),
            "the released pages are span-1 again"
        );
    }

    #[test]
    fn xlat_memo_invalidated_by_online_promotion() {
        // The online superpage promotion fires *inside* a load loop (not
        // from an explicit user syscall), remapping pages whose
        // translations are hot in the memo. Every access after the
        // promotion must use the new shadow addresses.
        let mut m = machine();
        let pages = 64u64;
        let r = m
            .alloc_region(pages * PAGE_SIZE, pages * PAGE_SIZE)
            .unwrap();
        m.enable_auto_promotion(8);
        m.attach_tracer(crate::trace::Tracer::new(1024));
        for round in 0..3u64 {
            for i in 0..pages {
                m.load(r.start().add(i * PAGE_SIZE + round * 8));
            }
        }
        assert!(
            m.memory().mc().is_shadow(m.translate(r.start())),
            "promotion should have rebuilt the region as a superpage"
        );
        let t = m.take_tracer().unwrap();
        let last = t.events().last().unwrap();
        assert_eq!(
            last.paddr,
            m.translate(last.vaddr),
            "stale memo after promotion"
        );
        assert!(m.memory().mc().is_shadow(last.paddr));
    }

    #[test]
    fn xlat_memo_invalidated_by_process_switch() {
        let mut m = machine();
        // Both processes' bump allocators start at the same virtual base,
        // so the same VA maps to different frames in each.
        let r1 = m.alloc_region(PAGE_SIZE, 1).unwrap();
        m.load(r1.start()); // memoize p1's translation of the shared VA
        let p1 = m.translate(r1.start());

        let pid2 = m.sys_spawn();
        m.sys_switch(pid2).unwrap();
        let r2 = m.alloc_region(PAGE_SIZE, 1).unwrap();
        assert_eq!(r1.start(), r2.start(), "same VA in both address spaces");
        m.attach_tracer(crate::trace::Tracer::new(64));
        m.load(r2.start());
        let used = last_paddr(&mut m);
        assert_eq!(used, m.translate(r2.start()));
        assert_ne!(used, p1, "p2 must not read through p1's memoized frame");
    }

    #[test]
    fn failed_syscalls_charge_trap_and_count() {
        let mut m = machine();
        let x = m.alloc_region(64 * 64 * 8, 8).unwrap();
        let before = m.now();
        // Zero stride is syscall misuse: a typed error, not a panic.
        let res = m.sys_remap_strided(x.start(), 64, 0, 8, PAGE_SIZE);
        assert!(matches!(res, Err(OsError::InvalidArg(_))));
        assert_eq!(m.syscall_failures(), 1);
        let trap = m.kernel().config().costs.t_trap;
        assert_eq!(
            m.now() - before,
            trap,
            "a failed trap still costs entry/exit"
        );
        assert_eq!(
            m.metrics().counter_value("machine.syscall_failures"),
            Some(1)
        );
        // The machine keeps running: the same region remaps fine next try.
        let g = m
            .sys_remap_strided(x.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        m.load(g.alias.start());
        m.reset_stats();
        assert_eq!(m.syscall_failures(), 0, "epoch reset clears the counter");
    }

    #[test]
    fn revocation_mid_stream_yields_typed_errors() {
        let mut m = machine();
        let buf = m.alloc_region(4 * PAGE_SIZE, 8).unwrap();
        let grant = m.sys_recolor(buf, &[0, 1]).unwrap();
        let receiver = m.sys_spawn();
        let rx = m.sys_share(&grant, receiver).unwrap();
        m.sys_switch(receiver).unwrap();
        // The receiver starts streaming through the shared alias...
        m.try_load(rx.start()).unwrap();
        m.try_load(rx.start().add(8)).unwrap();
        // ...the owner revokes the grant mid-stream...
        m.sys_switch(Pid::INIT).unwrap();
        let out = m.sys_revoke(&grant).unwrap();
        assert!(out.caps_revoked >= 2, "root + derived receiver alias");
        assert!(out.cycles > 0);
        // ...and every subsequent receiver access faults with the typed
        // revocation error: no stale data, no panic, no hang.
        m.sys_switch(receiver).unwrap();
        let failures = m.syscall_failures();
        for i in 0..rx.page_count() {
            match m.try_load(rx.start().add(i * PAGE_SIZE)) {
                Err(OsError::RevokedCapability { .. }) => {}
                other => panic!("expected RevokedCapability, got {other:?}"),
            }
        }
        assert_eq!(m.syscall_failures(), failures + rx.page_count());
        // A second revocation is itself a typed error.
        m.sys_switch(Pid::INIT).unwrap();
        assert!(matches!(
            m.sys_revoke(&grant),
            Err(OsError::RevokedCapability { .. })
        ));
    }

    /// The per-line flush loop the region walker replaced: one
    /// translation and one flush per L1 block.
    fn flush_region_per_line(m: &mut Machine, r: VRange) {
        m.drain_loads();
        let costs = m.kernel.config().costs;
        let line = m.ms.l1().config().line;
        let mut flushed = 0;
        for v in r.blocks(line) {
            if let Some(p) = m.kernel.aspace().try_translate(v) {
                m.ms.flush_line(v, p, m.now);
                flushed += 1;
            }
        }
        m.now += flushed * costs.t_per_flush_line;
        m.syscall_cycles += flushed * costs.t_per_flush_line;
    }

    /// The per-line purge loop the region walker replaced.
    fn purge_region_per_line(m: &mut Machine, r: VRange) {
        let costs = m.kernel.config().costs;
        let line = m.ms.l1().config().line;
        let mut purged = 0;
        for v in r.blocks(line) {
            if let Some(p) = m.kernel.aspace().try_translate(v) {
                m.ms.purge_line(v, p);
                purged += 1;
            }
        }
        m.now += purged * costs.t_per_flush_line;
        m.syscall_cycles += purged * costs.t_per_flush_line;
    }

    /// The strided remap with one per-line flush per object.
    fn remap_strided_per_line(
        m: &mut Machine,
        base: VAddr,
        object_size: u64,
        stride: u64,
        count: u64,
    ) -> RemapGrant {
        let grant = m
            .kernel
            .remap_strided(m.ms.mc_mut(), base, object_size, stride, count, PAGE_SIZE)
            .unwrap();
        m.charge_syscall(grant.pages_installed);
        for i in 0..count {
            flush_region_per_line(m, VRange::new(base.add(i * stride), object_size));
        }
        grant
    }

    #[test]
    fn run_blocks_counts_every_object_block_pair() {
        for (line, size, stride) in [
            (32u64, 1, 4),
            (32, 0, 1),
            (32, 16, 20),
            (32, 64, 72),
            (128, 8, 2056),
        ] {
            for offset in [0, 1, line - 1] {
                let mut pairs = 0;
                for n in 1..40 {
                    let x = offset + (n - 1) * stride;
                    pairs += (x + size).div_ceil(line) - x / line;
                    assert_eq!(run_blocks(n, line, offset, size, stride), pairs);
                }
            }
        }
    }

    #[test]
    fn region_walker_matches_the_per_line_loops() {
        let cfg = SystemConfig::paint_small().with_mshr(4);
        let build = || {
            let mut m = Machine::new(&cfg);
            let a = m.alloc_region(8 * PAGE_SIZE, PAGE_SIZE).unwrap();
            let b = m.alloc_region(4 * PAGE_SIZE, 16 * PAGE_SIZE).unwrap();
            let image = m.alloc_region(4096 * 4, 128).unwrap();
            // 4 MB, and a page past an unmapped gap after it.
            let big = m.alloc_region(4 << 20, PAGE_SIZE).unwrap();
            let fence = m.alloc_region(PAGE_SIZE, 8 << 20).unwrap();
            (m, [a, b, image, big, fence])
        };
        let (mut old, [a, b, image, big, fence]) = build();
        let (mut new, _) = build();
        let hole = a.end().add(PAGE_SIZE);
        assert!(hole < b.start(), "an unmapped gap separates a and b");
        assert!(new.kernel.aspace().try_translate(hole).is_none());
        assert!(big.end() < fence.start(), "an unmapped gap follows big");
        assert!(new.kernel.aspace().try_translate(big.end()).is_none());
        let held = {
            let (l1, l2) = (new.ms.l1_contents().config(), new.ms.l2().config());
            l1.size / l1.line + l2.size / l2.line
        };
        assert_eq!(held, 3072, "the Paint caches hold 3,072 lines");

        // Dirty lines in both caches, then overlapped misses that the
        // flush must drain first.
        let dirty = |m: &mut Machine, round: u64| {
            for r in [a, b, image] {
                for off in (round * 8..r.len()).step_by(40) {
                    m.store(r.start().add(off));
                }
            }
            for off in (0..a.len()).step_by(520) {
                m.load(a.start().add(off));
            }
        };
        let same = |old: &Machine, new: &Machine, what: &str| {
            assert_eq!(old.now(), new.now(), "now after {what}");
            assert_eq!(
                old.syscall_cycles, new.syscall_cycles,
                "syscall cycles after {what}"
            );
            assert_eq!(
                old.ms.l1().stats(),
                new.ms.l1().stats(),
                "L1 stats after {what}"
            );
            assert_eq!(
                old.ms.l2().stats(),
                new.ms.l2().stats(),
                "L2 stats after {what}"
            );
            assert!(old.snapshot() == new.snapshot(), "snapshot after {what}");
        };

        // Flushes then purges each range, dirtying the caches with
        // `dirty` before each, and compares after every step.
        let walk = |old: &mut Machine,
                    new: &mut Machine,
                    r: VRange,
                    dirty: &dyn Fn(&mut Machine, u64),
                    round: u64| {
            dirty(old, round);
            dirty(new, round);
            same(old, new, &format!("dirtying {round}"));
            flush_region_per_line(old, r);
            new.flush_region(r);
            same(old, new, &format!("flush of {r:?}"));
            dirty(old, round + 1);
            dirty(new, round + 1);
            purge_region_per_line(old, r);
            new.purge_region(r);
            same(old, new, &format!("purge of {r:?}"));
        };
        let ranges = [
            // Unaligned at both ends, across pages.
            VRange::new(a.start().add(5), 3 * PAGE_SIZE + 77),
            // Zero bytes at an unaligned address still names one block.
            VRange::new(a.start().add(13), 0),
            // From the end of a through the hole into b.
            VRange::new(
                a.end().sub(PAGE_SIZE + 100),
                b.end().raw() - a.end().raw() + 90,
            ),
            // Wholly unmapped.
            VRange::new(hole, 2 * PAGE_SIZE),
            b,
        ];
        for (round, r) in ranges.into_iter().enumerate() {
            walk(&mut old, &mut new, r, &dirty, round as u64);
        }
        let (l1, l2) = (new.ms.l1().stats(), new.ms.l2().stats());
        assert!(
            l1.writebacks > 0 && l2.writebacks > 0,
            "flushes wrote back from both caches"
        );

        // Walks over more blocks than the caches hold lines probe only the
        // pages holding one. Clean lines, dirty L1 lines (a load, then a
        // store to the same block) and dirty L2-only lines (a store miss
        // passes the write-around L1) on a few pages of the 4 MB region.
        let scatter = |m: &mut Machine, round: u64| {
            for page in [0, 3, 200, 511, 777, 1020, 1023] {
                let at = |off: u64| {
                    big.start()
                        .add(page * PAGE_SIZE + (off + round * 136) % PAGE_SIZE)
                };
                m.load(at(0));
                m.load(at(512));
                m.store(at(520));
                m.store(at(2048));
            }
        };
        let blocks = |n: u64| n * new.ms.l1().config().line;
        let long = [
            big,
            // Unaligned, from big's last pages through the gap into fence.
            VRange::new(
                big.end().sub(20 * PAGE_SIZE + 7),
                fence.end().raw() - big.end().raw() + 20 * PAGE_SIZE - 100,
            ),
            // Exactly the lines the caches hold (today's loop), then one
            // block more.
            VRange::new(big.start(), blocks(held)),
            VRange::new(big.start().add(1), blocks(held) - 1),
            VRange::new(big.start(), blocks(held) + 1),
        ];
        for (round, r) in long.into_iter().enumerate() {
            walk(&mut old, &mut new, r, &scatter, round as u64);
        }

        // A page cached in L1 under another virtual alias, at another set:
        // the region's own probes miss that L1 line, exactly as before.
        let mut grants = Vec::new();
        for m in [&mut old, &mut new] {
            let g = m
                .sys_recolor(VRange::new(big.start(), 32 * PAGE_SIZE), &[0, 1, 2, 3])
                .unwrap();
            let rx = m.sys_share(&g, Pid::INIT).unwrap();
            for page in [1, 9, 30] {
                m.load(g.alias.start().add(page * PAGE_SIZE + 64));
                m.store(g.alias.start().add(page * PAGE_SIZE + 64));
                m.load(g.alias.start().add(page * PAGE_SIZE + 1024));
            }
            grants.push((g, rx));
        }
        // The receiver maps the whole shadow region in order; the owner's
        // alias maps only the slots of its colors.
        let (g, rx) = grants[1].clone();
        let alias_v = g.alias.start().add(9 * PAGE_SIZE + 64);
        let p = new.translate(alias_v);
        let v = rx.start().add(p.offset_from(g.shadow.start()));
        assert_eq!(new.translate(v), p);
        assert!(new.ms.l1().probe(alias_v, p) && !new.ms.l1().probe(v, p));
        same(&old, &new, "loads through the alias");
        flush_region_per_line(&mut old, rx);
        new.flush_region(rx);
        same(&old, &new, "flush through the second alias");
        assert!(new.ms.l1().probe(alias_v, p), "the other set's line stays");
        for (m, (g, _)) in [&mut old, &mut new].into_iter().zip(&grants) {
            m.sys_release(g).unwrap();
        }

        // Media-shaped: 1-byte objects 4 bytes apart, eight per L1 block,
        // over 16 KB and over 1 MB. Then objects that straddle blocks and
        // pages, objects whose neighbours share a block, and objects that
        // straddle a page now and then.
        for (base, size, stride, count) in [
            (image.start().add(1), 1, 4, 4096),
            (big.start().add(2), 1, 4, 1 << 18),
            (a.start().add(3), 16, 20, 900),
            (big.start().add(5), 64, 72, 5000),
            (big.start().add(4000), 256, 4100, 900),
        ] {
            for m in [&mut old, &mut new] {
                dirty(m, 2);
                scatter(m, 3);
            }
            let g_old = remap_strided_per_line(&mut old, base, size, stride, count);
            let g_new = new
                .sys_remap_strided(base, size, stride, count, PAGE_SIZE)
                .unwrap();
            assert_eq!(g_old.alias, g_new.alias);
            same(
                &old,
                &new,
                &format!("strided remap of {count} × {size} B every {stride} B"),
            );
            old.sys_release(&g_old).unwrap();
            new.sys_release(&g_new).unwrap();
        }
    }

    #[test]
    fn release_then_reuse_descriptor() {
        let mut m = machine();
        let x = m.alloc_region(PAGE_SIZE, 8).unwrap();
        for _ in 0..20 {
            let g = m.sys_recolor(x, &[0]).unwrap();
            m.load(g.alias.start());
            m.sys_release(&g).unwrap();
        }
    }

    /// Asserts that two clones of `base`, each changed by `a` or `b`,
    /// hold different state images. The pairs below are chosen so the two
    /// clones differ in exactly one piece of state, so an image that
    /// omitted that piece would be equal and fail here.
    fn image_sees(
        base: &Machine,
        what: &str,
        a: impl FnOnce(&mut Machine),
        b: impl FnOnce(&mut Machine),
    ) {
        let (mut x, mut y) = (base.clone(), base.clone());
        a(&mut x);
        b(&mut y);
        assert_ne!(x.snapshot(), y.snapshot(), "the image misses {what}");
    }

    #[test]
    fn snapshot_is_deterministic() {
        use impulse_fault::{FaultPlan, FlipInjector, Trigger};
        use impulse_types::{AccessKind, MAddr, TierPolicy};

        let cfg = SystemConfig::paint_small().with_tier(TierPolicy::Cache);
        let mut m = Machine::new(&cfg);
        let data = m.alloc_region(256 * 1024, 8).unwrap();
        let len = data.len();
        for i in 0..800u64 {
            let off = ((i * 2654435761 + 9) % (len / 8)) * 8;
            m.load(data.start().add(off));
            if i % 3 == 0 {
                m.store(data.start().add((off + 64) % len));
            }
            m.compute(2);
        }
        let v = data.start();
        m.load(v);
        let p = m.translate(v);
        assert_eq!(
            m.snapshot(),
            m.snapshot(),
            "two snapshots of the same machine must be byte-identical"
        );
        assert_eq!(m.snapshot(), m.clone().snapshot(), "a clone's image");

        // A store hit and a load hit on the same freshly filled line,
        // with the L2's counters reset: only the line's dirty bit differs.
        let touch = |kind| {
            move |m: &mut Machine| {
                let l2 = m.ms.l2_mut();
                l2.purge_line(v, p);
                l2.access(v, p, AccessKind::Load);
                l2.access(v, p, kind);
                l2.reset_stats();
            }
        };
        image_sees(
            &m,
            "an L2 dirty bit",
            touch(AccessKind::Load),
            touch(AccessKind::Store),
        );
        image_sees(&m, "a CPU-TLB entry", |_| {}, |m| m.ms.tlb_shootdown(v));
        image_sees(
            &m,
            "a DRAM open row",
            |_| {},
            |m| m.ms.mc_mut().dram_mut().precharge_all(),
        );
        // The same fresh bit-flip injector, one with its RNG one draw on.
        let injector = |draws| {
            move |m: &mut Machine| {
                let mut plan = FaultPlan::new(Trigger::Permille(1), 7);
                for _ in 0..draws {
                    plan.rng().next_u64();
                }
                let inj = FlipInjector::new(plan, 0);
                m.ms.mc_mut().dram_mut().set_fault_injector(inj);
            }
        };
        image_sees(&m, "a fault-plan RNG step", injector(0), injector(1));
        // A remap that fails after claiming releases its descriptor and
        // shadow space, and leaves only a free slot in the grant table.
        image_sees(
            &m,
            "a kernel grant slot",
            |_| {},
            |m| {
                let unmapped = VRange::new(VAddr::new(1 << 40), PAGE_SIZE);
                let colors = [0];
                assert!(m
                    .kernel
                    .remap_recolor(m.ms.mc_mut(), unmapped, &colors)
                    .is_err());
            },
        );
        // Gather loads of two cold SCM lines on the same SCM channel: only
        // the line left in the tier's fill buffer differs.
        let scm = &cfg.tier.scm;
        let apart = scm.channels * scm.line_bytes * cfg.mc.line_bytes;
        let gather = |line: u64| {
            move |m: &mut Machine| {
                let mut dram = m.ms.mc().dram().clone();
                let now = m.now;
                let bytes = cfg.mc.line_bytes;
                let tier = m.ms.mc_mut().tier_mut().unwrap();
                let loads = tier.stats().fill_loads;
                let addr = MAddr::new(cfg.kernel.dram_capacity / 2 + line * apart);
                tier.access(&mut dram, addr, AccessKind::Load, bytes, now, true)
                    .unwrap();
                assert_eq!(tier.stats().fill_loads, loads + 1, "a cold gather load");
            }
        };
        image_sees(&m, "a tier fill-buffer line", gather(0), gather(1));
    }
}

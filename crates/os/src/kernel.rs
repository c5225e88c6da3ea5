//! The OS model: region allocation and the Impulse remapping system calls.
//!
//! Section 2.1 of the paper describes the remapping protocol. For the
//! diagonal example the OS (1) accepts an application request for a new
//! virtual alias, (2) allocates shadow addresses from the pool of physical
//! addresses not backed by DRAM, (3) downloads the shadow→pseudo-virtual
//! mapping function to the controller, (4) downloads page mappings for the
//! pseudo-virtual space, and (5) maps the virtual alias onto the shadow
//! region and flushes the original data from the caches.
//!
//! [`Kernel`] implements steps 1–5 as resource management; the *timing* of
//! the system calls (trap overhead, per-page download cost, cache-flush
//! cost) is charged by the system model in `impulse-sim`, which is also
//! responsible for performing the flushes against its caches. Shadow
//! addresses and virtual addresses are both system resources managed here,
//! preserving inter-process protection exactly as the paper requires.

use std::sync::Arc;

use impulse_core::{DescId, McError, MemController, RemapFn};
use impulse_types::geom::{round_up, PAGE_SHIFT, PAGE_SIZE};
use impulse_types::{Cycle, MAddr, PAddr, PRange, PvAddr, VAddr, VRange};

use crate::phys::{AllocPolicy, PhysError, PhysMem};
use crate::vm::{AddressSpace, VmError};

/// A process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(u32);

impl Pid {
    /// The boot process.
    pub const INIT: Pid = Pid(0);

    /// Raw id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl core::fmt::Display for Pid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// The typed error hierarchy every fallible Impulse operation surfaces.
///
/// Syscall-level misuse (overlapping shadow ranges, zero or overflowing
/// strides, out-of-bounds indirection vectors, shadow-space exhaustion)
/// comes back as a value of this type instead of aborting the simulated
/// machine; callers degrade gracefully (e.g. fall back to non-remapped
/// access) and account for the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImpulseError {
    /// Physical frame allocation failed.
    Phys(PhysError),
    /// Virtual memory operation failed.
    Vm(VmError),
    /// The memory controller rejected a descriptor operation.
    Mc(McError),
    /// A request violated an alignment requirement.
    BadAlignment(&'static str),
    /// A syscall argument is malformed (zero stride, overflowing span,
    /// empty vector, …).
    InvalidArg(&'static str),
    /// An indirection-vector entry points past the end of the gather
    /// target.
    IndexOutOfBounds {
        /// The offending index value.
        index: u64,
        /// Number of elements the target actually holds.
        limit: u64,
    },
    /// The shadow address space is exhausted (the configured
    /// [`KernelConfig::shadow_span`] is fully allocated).
    ShadowExhausted {
        /// Bytes the request needed.
        requested: u64,
        /// Bytes still unallocated.
        available: u64,
    },
    /// The remap target contains shadow pages already (double remap).
    TargetNotPhysical(VAddr),
    /// The calling process does not own the resource (inter-process
    /// protection: shadow regions and descriptors are per-process).
    NotOwner(Pid),
    /// The process id does not exist.
    NoSuchProcess(Pid),
    /// The grant behind the access or operation has been released or
    /// revoked — the handle's generation is stale. Raised both for
    /// syscalls on a dead grant and for demand accesses to an alias torn
    /// down with it (no stale data is ever served).
    RevokedCapability {
        /// Grant-table slot.
        slot: u32,
        /// Generation the stale handle (or torn-down mapping) carried.
        stale: u32,
        /// The slot's current generation.
        current: u32,
    },
}

/// Historical name for [`ImpulseError`], kept so existing call sites and
/// signatures keep compiling; variants resolve through the alias.
pub type OsError = ImpulseError;

impl core::fmt::Display for ImpulseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OsError::Phys(e) => write!(f, "physical allocation failed: {e}"),
            OsError::Vm(e) => write!(f, "virtual memory error: {e}"),
            OsError::Mc(e) => write!(f, "memory controller error: {e}"),
            OsError::BadAlignment(what) => write!(f, "bad alignment: {what}"),
            OsError::InvalidArg(what) => write!(f, "invalid argument: {what}"),
            OsError::IndexOutOfBounds { index, limit } => write!(
                f,
                "indirection index {index} is out of bounds for a {limit}-element target"
            ),
            OsError::ShadowExhausted {
                requested,
                available,
            } => write!(
                f,
                "shadow address space exhausted: {requested} bytes requested, {available} available"
            ),
            OsError::TargetNotPhysical(v) => {
                write!(f, "remap target {v:?} is not backed by physical memory")
            }
            OsError::NotOwner(p) => {
                write!(f, "resource is owned by another process ({p})")
            }
            OsError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            OsError::RevokedCapability {
                slot,
                stale,
                current,
            } => write!(
                f,
                "capability slot {slot} has been revoked: generation {stale} is stale (current {current})"
            ),
        }
    }
}

impl std::error::Error for ImpulseError {}

impl From<PhysError> for ImpulseError {
    fn from(e: PhysError) -> Self {
        OsError::Phys(e)
    }
}
impl From<VmError> for ImpulseError {
    fn from(e: VmError) -> Self {
        OsError::Vm(e)
    }
}
impl From<McError> for ImpulseError {
    fn from(e: McError) -> Self {
        OsError::Mc(e)
    }
}

/// Cost model for kernel entry and remap setup, in CPU cycles. Charged by
/// the system model around each system call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallCosts {
    /// Fixed trap + kernel entry/exit cost.
    pub t_trap: Cycle,
    /// Cost per page mapping downloaded to the controller or installed in
    /// the MMU.
    pub t_per_page: Cycle,
    /// Cost per cache line flushed or purged during remap consistency
    /// actions.
    pub t_per_flush_line: Cycle,
}

impl Default for SyscallCosts {
    fn default() -> Self {
        Self {
            t_trap: 500,
            t_per_page: 20,
            t_per_flush_line: 4,
        }
    }
}

/// Kernel configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// Installed DRAM capacity in bytes (must match the controller's DRAM).
    pub dram_capacity: u64,
    /// Bytes reserved at the top of DRAM for the controller page table.
    pub reserved_top: u64,
    /// Frame placement policy for ordinary allocations.
    pub policy: AllocPolicy,
    /// Number of page colors in the physically-indexed L2
    /// (`l2_size / ways / page_size`; 32 for the Paint L2).
    pub l2_colors: u64,
    /// Bytes of shadow address space above DRAM the kernel may hand out
    /// (the paper's shadow space is the unused physical address range,
    /// which is vast but finite). Exhaustion surfaces as
    /// [`ImpulseError::ShadowExhausted`].
    pub shadow_span: u64,
    /// System call cost model.
    pub costs: SyscallCosts,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            dram_capacity: 1 << 30,
            reserved_top: 1 << 20,
            policy: AllocPolicy::Sequential,
            l2_colors: 32,
            shadow_span: 1 << 36,
            costs: SyscallCosts::default(),
        }
    }
}

/// Cycles a revocation walk charges to start, on top of the syscall's
/// trap and per-page costs.
const REVOKE_BASE_CYCLES: Cycle = 40;
/// Cycles a revocation walk charges per handle it kills: the grant's
/// own and one per receiver alias.
const REVOKE_PER_HANDLE_CYCLES: Cycle = 12;

/// A generation-tagged handle to a remapping grant: the grant-table slot
/// and the generation the slot had when the grant was made. Slots are
/// reused but generations only grow, so a handle to a released or
/// revoked grant stays stale for good and never names the slot's next
/// grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GrantHandle {
    /// Grant-table slot.
    pub slot: u32,
    /// The slot's generation when the grant was made.
    pub generation: u32,
}

/// What a remapping system call granted: the new virtual alias, the shadow
/// region behind it, the descriptor serving it, and the setup volume (for
/// cost accounting).
#[derive(Clone, Debug)]
pub struct RemapGrant {
    /// The virtual alias the application should use.
    pub alias: VRange,
    /// The shadow region the alias maps to.
    pub shadow: PRange,
    /// The controller descriptor serving the region.
    pub desc: DescId,
    /// Remap flavour ("gather", "strided", "direct").
    pub kind: &'static str,
    /// Page mappings installed (MMU + controller) during setup.
    pub pages_installed: u64,
    /// The kernel's handle on the grant. Every later operation on the
    /// grant (share, release, retarget, revoke) checks it; a stale
    /// generation surfaces as [`ImpulseError::RevokedCapability`].
    pub handle: GrantHandle,
}

/// What a revocation tore down, for syscall cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevokeOutcome {
    /// Handles revoked: the grant's own plus one per receiver alias.
    pub caps_revoked: u64,
    /// Alias pages unmapped across all affected processes.
    pub pages_unmapped: u64,
    /// Cycle cost of the revocation walk (charged by the machine on
    /// top of the usual trap + per-page costs).
    pub cycles: Cycle,
}

/// Kernel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Remapping system calls served.
    pub remap_syscalls: u64,
    /// Total page mappings downloaded to the controller.
    pub controller_pages: u64,
    /// Shadow bytes allocated.
    pub shadow_bytes: u64,
}

/// A revoked alias range: pages that were unmapped when their grant was
/// released or revoked. A later access to the range is answered with
/// [`ImpulseError::RevokedCapability`] instead of a bare page fault, so
/// receivers can tell "torn down under me" from "never mapped".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tombstone {
    /// First virtual address of the revoked range.
    start: u64,
    /// Range length in pages.
    pages: u64,
    /// Grant-table slot of the grant the range belonged to.
    slot: u32,
    /// Generation the mapping was torn down at.
    stale: u32,
}

/// One process: its address space and superpage registrations.
#[derive(Clone, Debug, Default, PartialEq)]
struct Process {
    aspace: AddressSpace,
    superpages: Vec<(u64, u64)>, // (base vpage, span in pages)
    /// Allocated regions, for the online superpage-promotion policy.
    regions: Vec<VRange>,
    /// TLB-miss counts per region (parallel to `regions`).
    tlb_misses: Vec<u64>,
    /// Alias ranges torn down by a release or revocation (consulted only
    /// on the translation *fault* path — the hot path never sees them).
    revoked: Vec<Tombstone>,
}

/// A live grant: the process that made it, the descriptor serving it,
/// and every alias [`Kernel::share_remap`] mapped into a receiver.
#[derive(Clone, Debug, PartialEq)]
struct Grant {
    owner: Pid,
    desc: DescId,
    receivers: Vec<(Pid, VRange)>,
}

/// One grant-table slot. The generation grows each time the slot's
/// grant dies, so handles to it go stale.
#[derive(Clone, Debug, Default, PartialEq)]
struct GrantSlot {
    generation: u32,
    grant: Option<Grant>,
}

/// The operating system model.
///
/// Multi-process: each process has its own virtual address space, and
/// remapping grants are *owned* — only the creating process may release,
/// retarget, share or revoke them. This is the inter-process protection
/// the paper's system-call design promises (Section 2.1).
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    cfg: KernelConfig,
    phys: PhysMem,
    procs: Vec<Process>,
    current: usize,
    shadow_next: u64,
    /// The grant table: one slot per grant, reused once the grant dies.
    grants: Vec<GrantSlot>,
    stats: KernelStats,
}

impl Kernel {
    /// Boots a kernel.
    pub fn new(cfg: KernelConfig) -> Self {
        Self {
            phys: PhysMem::new(cfg.dram_capacity, cfg.reserved_top, cfg.policy),
            procs: vec![Process::default()],
            current: 0,
            shadow_next: cfg.dram_capacity,
            grants: Vec::new(),
            stats: KernelStats::default(),
            cfg,
        }
    }

    /// Creates a new (empty) process and returns its id. The current
    /// process is unchanged.
    pub fn spawn(&mut self) -> Pid {
        self.procs.push(Process::default());
        Pid(self.procs.len() as u32 - 1)
    }

    /// The currently-running process.
    pub fn current(&self) -> Pid {
        Pid(self.current as u32)
    }

    /// Switches the current process.
    ///
    /// # Errors
    ///
    /// Fails if `pid` was never spawned.
    pub fn switch(&mut self, pid: Pid) -> Result<(), OsError> {
        if (pid.0 as usize) < self.procs.len() {
            self.current = pid.0 as usize;
            Ok(())
        } else {
            Err(OsError::NoSuchProcess(pid))
        }
    }

    /// Records a grant of `desc` to the current process in the first free
    /// grant-table slot.
    fn grant(&mut self, desc: DescId) -> GrantHandle {
        let slot = match self.grants.iter().position(|s| s.grant.is_none()) {
            Some(slot) => slot,
            None => {
                self.grants.push(GrantSlot::default());
                self.grants.len() - 1
            }
        };
        let owner = self.current();
        let entry = &mut self.grants[slot];
        entry.grant = Some(Grant {
            owner,
            desc,
            receivers: Vec::new(),
        });
        GrantHandle {
            slot: slot as u32,
            generation: entry.generation,
        }
    }

    /// The live grant `handle` names, which the current process must own.
    ///
    /// # Errors
    ///
    /// [`ImpulseError::RevokedCapability`] when the handle is stale (the
    /// generation check comes first, so a dead handle stays dead after
    /// its slot is reused), [`ImpulseError::NotOwner`] when another
    /// process owns the grant.
    fn owned_grant(&mut self, handle: GrantHandle) -> Result<&mut Grant, OsError> {
        let caller = self.current();
        let slot = self
            .grants
            .get_mut(handle.slot as usize)
            .ok_or(OsError::InvalidArg("grant slot was never allocated"))?;
        match &mut slot.grant {
            Some(g) if slot.generation == handle.generation => {
                if g.owner == caller {
                    Ok(g)
                } else {
                    Err(OsError::NotOwner(g.owner))
                }
            }
            _ => Err(OsError::RevokedCapability {
                slot: handle.slot,
                stale: handle.generation,
                current: slot.generation,
            }),
        }
    }

    /// Ends the grant `handle` names, which the caller has checked: every
    /// receiver alias is unmapped, and so is the owner's `owner_alias`
    /// (its pages that still translate into `shadow`) when given. Each
    /// torn-down range leaves a tombstone, and the slot's generation
    /// grows so every copy of the handle goes stale.
    fn revoke_grant(
        &mut self,
        handle: GrantHandle,
        owner_alias: Option<(VRange, PRange)>,
    ) -> Result<RevokeOutcome, OsError> {
        let slot = &mut self.grants[handle.slot as usize];
        let Some(grant) = slot.grant.take() else {
            return Err(OsError::RevokedCapability {
                slot: handle.slot,
                stale: handle.generation,
                current: slot.generation,
            });
        };
        slot.generation += 1;
        let tombstone = |alias: VRange| Tombstone {
            start: alias.start().raw(),
            pages: alias.page_count(),
            slot: handle.slot,
            stale: handle.generation,
        };
        let mut pages_unmapped = 0;
        for &(pid, alias) in &grant.receivers {
            let proc = &mut self.procs[pid.0 as usize];
            for page in alias.blocks(PAGE_SIZE) {
                if proc.aspace.try_translate(page).is_some() {
                    proc.aspace.unmap_page(page)?;
                    pages_unmapped += 1;
                }
            }
            proc.revoked.push(tombstone(alias));
        }
        if let Some((alias, shadow)) = owner_alias {
            let proc = &mut self.procs[grant.owner.0 as usize];
            for page in alias.blocks(PAGE_SIZE) {
                if proc
                    .aspace
                    .try_translate(page)
                    .is_some_and(|p| shadow.contains(p))
                {
                    proc.aspace.unmap_page(page)?;
                    pages_unmapped += 1;
                }
            }
            proc.revoked.push(tombstone(alias));
        }
        let handles = 1 + grant.receivers.len() as u64;
        Ok(RevokeOutcome {
            caps_revoked: handles,
            pages_unmapped,
            cycles: REVOKE_BASE_CYCLES + handles * REVOKE_PER_HANDLE_CYCLES,
        })
    }

    /// The configuration the kernel booted with.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The current process's address space (read-only).
    pub fn aspace(&self) -> &AddressSpace {
        &self.procs[self.current].aspace
    }

    fn aspace_mut(&mut self) -> &mut AddressSpace {
        &mut self.procs[self.current].aspace
    }

    /// Translates a virtual address (MMU behaviour).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] (wrapped) for unmapped addresses —
    /// a page fault with no handler, i.e. a segfault at the CPU model —
    /// except addresses inside an alias torn down with its grant, which
    /// surface [`ImpulseError::RevokedCapability`]
    /// (never stale data; tombstones are consulted only on this fault
    /// path, so mapped translations cost the same as before).
    #[inline]
    pub fn translate(&self, v: VAddr) -> Result<PAddr, OsError> {
        match self.aspace().translate(v) {
            Ok(p) => Ok(p),
            Err(e) => Err(self.classify_fault(v, e.into())),
        }
    }

    /// Refines a translation fault: an address inside a revoked alias
    /// range reports the revocation rather than a bare page fault.
    fn classify_fault(&self, v: VAddr, fallback: OsError) -> OsError {
        for t in &self.procs[self.current].revoked {
            if v.raw() >= t.start && v.raw() < t.start + t.pages * PAGE_SIZE {
                let current = self
                    .grants
                    .get(t.slot as usize)
                    .map_or(t.stale + 1, |s| s.generation);
                return OsError::RevokedCapability {
                    slot: t.slot,
                    stale: t.stale,
                    current,
                };
            }
        }
        fallback
    }

    /// Allocates and maps an ordinary region of `bytes`, returning its
    /// virtual range.
    ///
    /// # Errors
    ///
    /// Fails when physical memory is exhausted.
    pub fn alloc_region(&mut self, bytes: u64, align: u64) -> Result<VRange, OsError> {
        check_alignment(align)?;
        let range = self.aspace_mut().reserve(bytes, align);
        for block in range.blocks(PAGE_SIZE) {
            let frame = self.phys.alloc()?;
            self.aspace_mut().map_page(block, PAddr::new(frame.raw()))?;
        }
        let proc = &mut self.procs[self.current];
        proc.regions.push(range);
        proc.tlb_misses.push(0);
        Ok(range)
    }

    /// Online superpage promotion (the "dynamically build superpages" of
    /// Section 6): records a TLB miss at `v` and returns a region that
    /// has crossed `threshold` misses and is *promotable* — multi-page,
    /// span-aligned, and not already covered by a superpage. The caller
    /// (the system model) performs the actual promotion system call.
    pub fn note_tlb_miss(&mut self, v: VAddr, threshold: u64) -> Option<VRange> {
        let current = self.current;
        let proc = &mut self.procs[current];
        let idx = proc.regions.iter().position(|r| r.contains(v))?;
        proc.tlb_misses[idx] += 1;
        if proc.tlb_misses[idx] != threshold {
            return None;
        }
        let region = proc.regions[idx];
        let pages = region.page_count();
        if pages < 2 {
            return None;
        }
        let span = pages.next_power_of_two();
        let vpage = region.start().raw() >> PAGE_SHIFT;
        if !region.start().is_aligned(span * PAGE_SIZE) {
            return None; // not span-aligned; a fancier policy would split
        }
        if proc.superpages.iter().any(|&(b, _)| b == vpage) {
            return None;
        }
        Some(region)
    }

    /// Allocates a region whose frames all have page colors from `colors`
    /// — the *copying* way to control placement, for baselines.
    ///
    /// # Errors
    ///
    /// Fails when no frame of an acceptable color remains.
    pub fn alloc_region_colored(
        &mut self,
        bytes: u64,
        align: u64,
        colors: &[u64],
    ) -> Result<VRange, OsError> {
        check_alignment(align)?;
        let range = self.aspace_mut().reserve(bytes, align);
        for block in range.blocks(PAGE_SIZE) {
            let frame = self.phys.alloc_colored(colors, self.cfg.l2_colors)?;
            self.aspace_mut().map_page(block, PAddr::new(frame.raw()))?;
        }
        Ok(range)
    }

    /// Allocates a shadow range (bus addresses with no DRAM behind them).
    ///
    /// # Errors
    ///
    /// Returns [`ImpulseError::ShadowExhausted`] when the configured
    /// shadow span above DRAM cannot hold the request.
    fn alloc_shadow(&mut self, bytes: u64, align: u64) -> Result<PRange, OsError> {
        let align = align.max(PAGE_SIZE);
        let limit = self.cfg.dram_capacity.saturating_add(self.cfg.shadow_span);
        let exhausted = |requested: u64, start: u64| OsError::ShadowExhausted {
            requested,
            available: limit.saturating_sub(start),
        };
        let len = bytes
            .max(1)
            .checked_add(PAGE_SIZE - 1)
            .map(|b| b & !(PAGE_SIZE - 1))
            .ok_or(OsError::InvalidArg("shadow region size overflows"))?;
        let start = self
            .shadow_next
            .checked_add(align - 1)
            .map(|s| s / align * align)
            .ok_or_else(|| exhausted(len, self.shadow_next))?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= limit)
            .ok_or_else(|| exhausted(len, start))?;
        self.shadow_next = end;
        self.stats.shadow_bytes += len;
        Ok(PRange::new(PAddr::new(start), len))
    }

    /// The tail every remapping system call shares: claims `bytes` of
    /// shadow space, a controller descriptor serving it with `remap` and
    /// a grant slot, then runs `install` (the call's page mappings,
    /// returning the alias and the pages installed). When `install` fails
    /// it releases all three: the slot empties (and goes, if `grant`
    /// pushed it), the descriptor goes back and the shadow bump pointer
    /// rewinds, so a failed remap leaves the kernel as it was. `install`
    /// must check everything that can fail before it changes a mapping.
    fn claim_remap(
        &mut self,
        mc: &mut MemController,
        (bytes, align): (u64, u64),
        kind: &'static str,
        remap: impl FnOnce(PRange) -> RemapFn,
        install: impl FnOnce(&mut Self, &mut MemController, PRange) -> Result<(VRange, u64), OsError>,
    ) -> Result<RemapGrant, OsError> {
        let mark = (self.shadow_next, self.stats.shadow_bytes);
        let rewind = |k: &mut Self| (k.shadow_next, k.stats.shadow_bytes) = mark;
        let shadow = self.alloc_shadow(bytes, align)?;
        let desc = match mc.claim_descriptor(shadow, remap(shadow)) {
            Ok(desc) => desc,
            Err(e) => {
                rewind(self);
                return Err(e.into());
            }
        };
        let slots = self.grants.len();
        let handle = self.grant(desc);
        match install(self, mc, shadow) {
            Ok((alias, pages)) => {
                self.stats.remap_syscalls += 1;
                Ok(RemapGrant {
                    alias,
                    shadow,
                    desc,
                    kind,
                    pages_installed: pages,
                    handle,
                })
            }
            Err(e) => {
                self.grants[handle.slot as usize].grant = None;
                self.grants.truncate(slots);
                mc.release_descriptor(desc)?;
                rewind(self);
                Err(e)
            }
        }
    }

    /// Real DRAM frame backing a mapped virtual page.
    fn frame_of(&self, v: VAddr) -> Result<MAddr, OsError> {
        let p = self
            .aspace()
            .try_translate(v.page_base())
            .ok_or(OsError::TargetNotPhysical(v))?;
        if p.raw() >= self.cfg.dram_capacity {
            return Err(OsError::TargetNotPhysical(v));
        }
        Ok(MAddr::new(p.raw()))
    }

    /// Checks that a DRAM frame backs each of the `range.page_count()`
    /// pages of `range`, so a call can fail before it changes a mapping.
    fn check_backed(&self, range: VRange) -> Result<(), OsError> {
        range
            .blocks(PAGE_SIZE)
            .take(range.page_count() as usize)
            .try_for_each(|page| self.frame_of(page).map(drop))
    }

    /// Downloads controller page mappings for every *mapped* page in
    /// `[base, base + len)` of the virtual space, mirroring it into
    /// pseudo-virtual space (pv address = virtual address). Unmapped holes
    /// are skipped: a gather target may legitimately span several
    /// disjoint buffers (e.g. IPC message pieces), but at least one page
    /// must be mapped.
    fn download_target_pages(
        &mut self,
        mc: &mut MemController,
        base: VAddr,
        len: u64,
    ) -> Result<u64, OsError> {
        let range = VRange::new(base, len);
        let mut n = 0;
        for page in range.blocks(PAGE_SIZE) {
            if self.aspace().try_translate(page).is_none() {
                continue;
            }
            let frame = self.frame_of(page)?;
            mc.map_page(page.raw() >> PAGE_SHIFT, frame);
            n += 1;
        }
        if n == 0 {
            return Err(OsError::TargetNotPhysical(base));
        }
        self.stats.controller_pages += n;
        Ok(n)
    }

    /// Maps a fresh virtual alias 1:1 onto a shadow region, with the
    /// requested virtual alignment and phase (cache-placement control).
    fn map_alias(&mut self, shadow: PRange, align: u64, phase: u64) -> Result<VRange, OsError> {
        check_alignment(align)?;
        let eff_align = align.max(PAGE_SIZE);
        if phase >= eff_align || !phase.is_multiple_of(PAGE_SIZE) {
            return Err(OsError::BadAlignment(
                "alias phase must be a page-aligned offset below the alignment",
            ));
        }
        let alias = self.aspace_mut().reserve_phased(shadow.len(), align, phase);
        let mut s = shadow.start();
        for page in alias.blocks(PAGE_SIZE) {
            self.aspace_mut().map_page(page, s)?;
            s = s.add(PAGE_SIZE);
        }
        Ok(alias)
    }

    /// System call: scatter/gather remapping. Creates an alias `x'` such
    /// that `x'[k] = target[indices[k]]` for `elem_size`-byte elements,
    /// with the indirection vector (`index_region`, entries of
    /// `index_bytes`) read at the memory controller.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use impulse_core::{McConfig, MemController};
    /// use impulse_dram::{Dram, DramConfig};
    /// use impulse_os::{Kernel, KernelConfig};
    ///
    /// let kcfg = KernelConfig::default();
    /// let dram = Dram::new(DramConfig { capacity: kcfg.dram_capacity, ..DramConfig::default() });
    /// let mut mc = MemController::new(dram, McConfig::default());
    /// let mut kernel = Kernel::new(kcfg);
    ///
    /// let x = kernel.alloc_region(1024 * 8, 8)?;
    /// let column = kernel.alloc_region(512 * 4, 4)?;
    /// let indices = Arc::new((0..512u64).map(|i| (i * 7) % 1024).collect::<Vec<_>>());
    /// let grant = kernel.remap_gather(&mut mc, x, 8, indices, column, 4)?;
    /// // The alias is backed by shadow addresses the controller serves.
    /// assert!(mc.is_shadow(kernel.translate(grant.alias.start())?));
    /// # Ok::<(), impulse_os::OsError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if the target is misaligned, descriptors are exhausted, or
    /// any page involved is not physically backed.
    pub fn remap_gather(
        &mut self,
        mc: &mut MemController,
        target: VRange,
        elem_size: u64,
        indices: Arc<Vec<u64>>,
        index_region: VRange,
        index_bytes: u64,
    ) -> Result<RemapGrant, OsError> {
        self.remap_gather_aligned(
            mc,
            target,
            elem_size,
            indices,
            index_region,
            index_bytes,
            0,
            0,
        )
    }

    /// Like [`Kernel::remap_gather`], but places the alias at virtual
    /// `phase` modulo `align` — step 1 of the paper's protocol: "to
    /// improve L1 cache utilization, an application can allocate virtual
    /// addresses with appropriate alignment and offset characteristics"
    /// (so a gathered stream does not conflict with the stream it is
    /// consumed alongside in a virtually-indexed cache).
    ///
    /// # Errors
    ///
    /// As [`Kernel::remap_gather`].
    #[allow(clippy::too_many_arguments)]
    pub fn remap_gather_aligned(
        &mut self,
        mc: &mut MemController,
        target: VRange,
        elem_size: u64,
        indices: Arc<Vec<u64>>,
        index_region: VRange,
        index_bytes: u64,
        alias_align: u64,
        alias_phase: u64,
    ) -> Result<RemapGrant, OsError> {
        if elem_size == 0 {
            return Err(OsError::InvalidArg("gather element size must be non-zero"));
        }
        if indices.is_empty() {
            return Err(OsError::InvalidArg("gather indirection vector is empty"));
        }
        if index_bytes == 0 {
            return Err(OsError::InvalidArg(
                "gather index entries must be non-empty",
            ));
        }
        if !target.start().is_aligned(elem_size) {
            return Err(OsError::BadAlignment(
                "gather target must be element-aligned",
            ));
        }
        // Every indirection entry must land inside the target: a stray
        // index would make the controller gather unrelated memory.
        let limit = target.len() / elem_size;
        if let Some(&bad) = indices.iter().find(|&&i| i >= limit) {
            return Err(OsError::IndexOutOfBounds { index: bad, limit });
        }
        let line = mc.config().line_bytes;
        let image_bytes = (indices.len() as u64)
            .checked_mul(elem_size)
            .map(|b| round_up(b, line))
            .ok_or(OsError::InvalidArg("gather image size overflows"))?;
        let remap = |_| {
            RemapFn::gather(
                PvAddr::new(target.start().raw()),
                elem_size,
                indices,
                PvAddr::new(index_region.start().raw()),
                index_bytes,
            )
        };
        self.claim_remap(
            mc,
            (image_bytes, PAGE_SIZE),
            "gather",
            remap,
            |k, mc, shadow| {
                let mut pages = k.download_target_pages(mc, target.start(), target.len())?;
                pages += k.download_target_pages(mc, index_region.start(), index_region.len())?;
                let alias = k.map_alias(shadow, alias_align.max(PAGE_SIZE), alias_phase)?;
                Ok((alias, pages + alias.page_count()))
            },
        )
    }

    /// System call: strided remapping. Packs `count` objects of
    /// `object_size` bytes, spaced `stride` bytes apart starting at
    /// `base`, into a dense alias.
    ///
    /// # Errors
    ///
    /// Fails on zero or overflowing stride parameters, exhausted
    /// descriptors or shadow space, or unbacked target pages.
    pub fn remap_strided(
        &mut self,
        mc: &mut MemController,
        base: VAddr,
        object_size: u64,
        stride: u64,
        count: u64,
        alias_align: u64,
    ) -> Result<RemapGrant, OsError> {
        let span = strided_span(object_size, stride, count)?;
        let line = mc.config().line_bytes;
        let image_bytes = count
            .checked_mul(object_size)
            .map(|b| round_up(b, line))
            .ok_or(OsError::InvalidArg("strided image size overflows"))?;
        let remap = |_| RemapFn::strided(PvAddr::new(base.raw()), object_size, stride);
        self.claim_remap(
            mc,
            (image_bytes, PAGE_SIZE),
            "strided",
            remap,
            |k, mc, shadow| {
                let pages = k.download_target_pages(mc, base, span)?;
                let alias = k.map_alias(shadow, alias_align, 0)?;
                Ok((alias, pages + alias.page_count()))
            },
        )
    }

    /// Retargets an existing strided grant at a new base address (e.g.
    /// pointing the tile alias at the next tile). Reuses the shadow region
    /// and alias; replaces the descriptor and downloads fresh page
    /// mappings. Returns the number of page mappings downloaded.
    ///
    /// The replacement is *atomic from the grant's point of view*: if
    /// claiming the new descriptor fails (e.g. malformed stride geometry
    /// caught at descriptor validation), the old descriptor is restored
    /// and the grant stays fully usable. Only if even the restore fails
    /// — which a single-threaded kernel cannot normally make happen — is
    /// the grant invalidated, by revoking it so every later use
    /// surfaces [`ImpulseError::RevokedCapability`] instead of
    /// dangling.
    ///
    /// # Errors
    ///
    /// Fails if the grant's descriptor cannot be replaced or pages are
    /// unbacked; the grant survives unless noted above.
    pub fn retarget_strided(
        &mut self,
        mc: &mut MemController,
        grant: &mut RemapGrant,
        new_base: VAddr,
        object_size: u64,
        stride: u64,
        count: u64,
    ) -> Result<u64, OsError> {
        let desc = self.owned_grant(grant.handle)?.desc;
        let span = strided_span(object_size, stride, count)?;
        let old_remap = mc
            .descriptor(desc)
            .ok_or(OsError::Mc(McError::InvalidDescriptor(desc.index())))?
            .remap()
            .clone();
        mc.release_descriptor(desc)?;
        // Built as a literal (not via RemapFn::strided) so stride-geometry
        // misuse surfaces as the descriptor-install typed error this
        // error path exists to handle, in debug builds too.
        let remap = RemapFn::Strided {
            pv_base: PvAddr::new(new_base.raw()),
            object_size,
            stride,
        };
        let new_desc = match mc.claim_descriptor(grant.shadow, remap) {
            Ok(d) => d,
            Err(e) => {
                // Roll back: re-claim the old descriptor over the same
                // shadow region (the slot we just freed guarantees one
                // is available) so the grant keeps working.
                match mc.claim_descriptor(grant.shadow, old_remap) {
                    Ok(d) => {
                        self.owned_grant(grant.handle)?.desc = d;
                        grant.desc = d;
                    }
                    // Unrecoverable: invalidate the grant with a typed
                    // error rather than leaving it dangling.
                    Err(_) => {
                        self.revoke_grant(grant.handle, Some((grant.alias, grant.shadow)))?;
                    }
                }
                return Err(e.into());
            }
        };
        self.owned_grant(grant.handle)?.desc = new_desc;
        grant.desc = new_desc;
        let pages = self.download_target_pages(mc, new_base, span)?;
        self.stats.remap_syscalls += 1;
        Ok(pages)
    }

    /// System call: no-copy page recoloring. Creates an alias of `target`
    /// whose bus addresses fall only on the given L2 page `colors`, so the
    /// aliased data occupies exactly that slice of a physically-indexed
    /// cache — without copying any data.
    ///
    /// # Errors
    ///
    /// Fails if `colors` is empty or contains an out-of-range color, or on
    /// descriptor exhaustion.
    pub fn remap_recolor(
        &mut self,
        mc: &mut MemController,
        target: VRange,
        colors: &[u64],
    ) -> Result<RemapGrant, OsError> {
        if colors.is_empty() {
            return Err(OsError::BadAlignment("recolor needs at least one color"));
        }
        let nc = self.cfg.l2_colors;
        if colors.iter().any(|&c| c >= nc) {
            return Err(OsError::BadAlignment("color out of range"));
        }
        let n = target.page_count();
        let cycles = n.div_ceil(colors.len() as u64);
        let region_bytes = cycles
            .checked_mul(nc)
            .and_then(|p| p.checked_mul(PAGE_SIZE))
            .ok_or(OsError::InvalidArg("recolor region size overflows"))?;
        // Align the shadow region to a full color cycle so that page k of
        // the region has color k mod l2_colors.
        let direct = |shadow: PRange| RemapFn::direct(PvAddr::new(shadow.start().raw()));
        self.claim_remap(
            mc,
            (region_bytes, nc * PAGE_SIZE),
            "direct",
            direct,
            |k, mc, shadow| {
                k.check_backed(target)?;
                let alias = k.aspace_mut().reserve(n * PAGE_SIZE, PAGE_SIZE);
                for (i, (alias_page, target_page)) in alias
                    .blocks(PAGE_SIZE)
                    .zip(target.blocks(PAGE_SIZE))
                    .enumerate()
                {
                    let i = i as u64;
                    let color = colors[(i % colors.len() as u64) as usize];
                    let slot = (i / colors.len() as u64) * nc + color;
                    let shadow_page = shadow.start().add(slot * PAGE_SIZE);
                    debug_assert_eq!(shadow_page.page_number() % nc, color);
                    k.aspace_mut().map_page(alias_page, shadow_page)?;
                    let frame = k.frame_of(target_page)?;
                    mc.map_page(shadow_page.raw() >> PAGE_SHIFT, frame);
                }
                k.stats.controller_pages += n;
                Ok((alias, 2 * n))
            },
        )
    }

    /// System call: build a superpage. Re-points the virtual pages of
    /// `target` (which must be aligned to its power-of-two page count) at
    /// a contiguous shadow region backed by the *original, possibly
    /// scattered* frames, and registers a single TLB entry spanning the
    /// whole range (Swanson et al., ISCA '98).
    ///
    /// # Errors
    ///
    /// Fails if `target` is not aligned to its superpage span.
    pub fn build_superpage(
        &mut self,
        mc: &mut MemController,
        target: VRange,
    ) -> Result<RemapGrant, OsError> {
        let n = target.page_count();
        let span = n.next_power_of_two();
        let base_vpage = target.start().raw() >> PAGE_SHIFT;
        if !target.start().is_aligned(span * PAGE_SIZE) {
            return Err(OsError::BadAlignment(
                "superpage target must be aligned to its span",
            ));
        }
        let span_bytes = span
            .checked_mul(PAGE_SIZE)
            .ok_or(OsError::InvalidArg("superpage span overflows"))?;
        let direct = |shadow: PRange| RemapFn::direct(PvAddr::new(shadow.start().raw()));
        self.claim_remap(
            mc,
            (span_bytes, span_bytes),
            "superpage",
            direct,
            |k, mc, shadow| {
                k.check_backed(target)?;
                for (target_page, shadow_page) in
                    target.blocks(PAGE_SIZE).zip(shadow.blocks(PAGE_SIZE))
                {
                    let frame = k.frame_of(target_page)?;
                    k.aspace_mut().remap_page(target_page, shadow_page)?;
                    mc.map_page(shadow_page.raw() >> PAGE_SHIFT, frame);
                }
                k.procs[k.current].superpages.push((base_vpage, span));
                k.stats.controller_pages += n;
                Ok((target, 2 * n))
            },
        )
    }

    /// Revokes a grant: the owner's handle and **every** receiver alias
    /// of [`Kernel::share_remap`] go stale together. All affected alias
    /// pages are unmapped and tombstoned, so any later access — owner or
    /// receiver, even mid-gather — surfaces
    /// [`ImpulseError::RevokedCapability`]: no stale data, no panic. The
    /// walk costs `40 + 12 × (1 + receivers)` cycles.
    ///
    /// # Errors
    ///
    /// Fails with [`ImpulseError::RevokedCapability`] if the grant was
    /// already revoked or released, or [`ImpulseError::NotOwner`] if the
    /// caller does not own it.
    pub fn revoke_remap(
        &mut self,
        mc: &mut MemController,
        grant: &RemapGrant,
    ) -> Result<RevokeOutcome, OsError> {
        let desc = self.owned_grant(grant.handle)?.desc;
        if grant.kind == "superpage" {
            // Recover each page's frame through the still-configured
            // descriptor, then re-point the virtual page at it. The
            // owner's "alias" is the original range and stays mapped
            // (to real frames); only receiver aliases tear down.
            if mc.descriptor(desc).is_none() {
                return Err(OsError::Mc(McError::InvalidDescriptor(desc.index())));
            }
            for page in grant.alias.blocks(PAGE_SIZE) {
                if let Some(shadow_p) = self.aspace().try_translate(page) {
                    if grant.shadow.contains(shadow_p) {
                        let frame = mc
                            .resolve_shadow(shadow_p)
                            .ok_or(OsError::TargetNotPhysical(page))?;
                        self.aspace_mut()
                            .remap_page(page, PAddr::new(frame.raw()))?;
                    }
                }
            }
            let base_vpage = grant.alias.start().raw() >> PAGE_SHIFT;
            self.procs[self.current]
                .superpages
                .retain(|&(b, _)| b != base_vpage);
            mc.release_descriptor(desc)?;
            return self.revoke_grant(grant.handle, None);
        }
        mc.release_descriptor(desc)?;
        self.revoke_grant(grant.handle, Some((grant.alias, grant.shadow)))
    }

    /// Releases a remapping: frees the descriptor and unmaps the alias
    /// pages (shadow addresses are not recycled; the space is vast).
    ///
    /// Release *is* a transitive revocation: every receiver alias
    /// created by [`Kernel::share_remap`] is unmapped and tombstoned too
    /// — a receiver access after release yields a typed
    /// [`ImpulseError::RevokedCapability`], never data from a recycled
    /// descriptor.
    ///
    /// Superpage grants are special: their "alias" *is* the original
    /// virtual range, re-pointed at shadow space, so releasing one
    /// restores the original frame mappings instead of unmapping.
    ///
    /// # Errors
    ///
    /// Fails if the grant was already released or revoked.
    pub fn release_remap(
        &mut self,
        mc: &mut MemController,
        grant: &RemapGrant,
    ) -> Result<RevokeOutcome, OsError> {
        self.revoke_remap(mc, grant)
    }

    /// Maps an existing grant's shadow region into another process's
    /// address space — the shared-shadow no-copy IPC of the paper's
    /// conclusions ("fast local IPC mechanisms, such as LRPC, use shared
    /// memory to map buffers into sender and receiver address spaces").
    /// Only the owning process may share; the receiving process gets its
    /// own read alias, recorded with the grant — revoking or releasing
    /// the grant tears the alias down with it.
    ///
    /// # Errors
    ///
    /// Fails if the caller does not own the grant (or it was revoked) or
    /// `with` does not exist.
    pub fn share_remap(&mut self, grant: &RemapGrant, with: Pid) -> Result<VRange, OsError> {
        self.owned_grant(grant.handle)?;
        let target = with.0 as usize;
        if target >= self.procs.len() {
            return Err(OsError::NoSuchProcess(with));
        }
        let proc = &mut self.procs[target];
        let alias = proc.aspace.reserve(grant.shadow.len(), PAGE_SIZE);
        let mut s = grant.shadow.start();
        for page in alias.blocks(PAGE_SIZE) {
            proc.aspace.map_page(page, s)?;
            s = s.add(PAGE_SIZE);
        }
        self.owned_grant(grant.handle)?
            .receivers
            .push((with, alias));
        Ok(alias)
    }

    /// TLB reach for a virtual page: its superpage `(base_vpage, span)` if
    /// one covers it, else `(vpage, 1)`. The system model uses this when
    /// refilling its TLB.
    #[inline]
    pub fn tlb_span(&self, vpage: u64) -> (u64, u64) {
        for &(base, span) in &self.procs[self.current].superpages {
            if vpage >= base && vpage < base + span {
                return (base, span);
            }
        }
        (vpage, 1)
    }
}

/// Validates a user-supplied alignment: values at or below the page size
/// round up to it; larger values must be powers of two.
fn check_alignment(align: u64) -> Result<(), OsError> {
    if align.max(PAGE_SIZE).is_power_of_two() {
        Ok(())
    } else {
        Err(OsError::BadAlignment("alignment must be a power of two"))
    }
}

/// Validates strided-remap parameters and computes the bytes the stride
/// pattern spans in the target (`(count - 1) * stride + object_size`),
/// with every arithmetic step checked.
fn strided_span(object_size: u64, stride: u64, count: u64) -> Result<u64, OsError> {
    if count == 0 {
        return Err(OsError::InvalidArg(
            "strided remap needs at least one object",
        ));
    }
    if object_size == 0 {
        return Err(OsError::InvalidArg("strided object size must be non-zero"));
    }
    if stride == 0 {
        return Err(OsError::InvalidArg("strided stride must be non-zero"));
    }
    (count - 1)
        .checked_mul(stride)
        .and_then(|s| s.checked_add(object_size))
        .ok_or(OsError::InvalidArg(
            "strided span overflows the address space",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_core::McConfig;
    use impulse_dram::{Dram, DramConfig};

    fn small_setup() -> (Kernel, MemController) {
        let cfg = KernelConfig {
            dram_capacity: 1 << 24, // 16 MB to keep tests light
            reserved_top: 1 << 20,
            ..KernelConfig::default()
        };
        let dram = Dram::new(DramConfig {
            capacity: cfg.dram_capacity,
            ..DramConfig::default()
        });
        (
            Kernel::new(cfg),
            MemController::new(dram, McConfig::default()),
        )
    }

    #[test]
    fn alloc_region_maps_every_page() {
        let (mut k, _) = small_setup();
        let r = k.alloc_region(3 * PAGE_SIZE + 5, 1).unwrap();
        assert_eq!(r.page_count(), 4);
        for page in r.blocks(PAGE_SIZE) {
            assert!(k.aspace().try_translate(page).is_some());
        }
    }

    #[test]
    fn colored_alloc_gets_requested_colors() {
        let (mut k, _) = small_setup();
        let r = k.alloc_region_colored(4 * PAGE_SIZE, 1, &[2, 9]).unwrap();
        for page in r.blocks(PAGE_SIZE) {
            let color = k.translate(page).unwrap().page_number() % 32;
            assert!(color == 2 || color == 9, "got color {color}");
        }
    }

    #[test]
    fn gather_grant_roundtrip() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(1024 * 8, 8).unwrap();
        let col = k.alloc_region(512 * 4, 4).unwrap();
        let indices = Arc::new((0..512u64).map(|i| (i * 7) % 1024).collect::<Vec<_>>());
        let g = k.remap_gather(&mut mc, x, 8, indices, col, 4).unwrap();
        assert_eq!(g.kind, "gather");
        assert_eq!(g.alias.len(), g.shadow.len());
        // The alias translates into the shadow region.
        let p = k.translate(g.alias.start()).unwrap();
        assert!(g.shadow.contains(p));
        assert!(mc.is_shadow(p));
        // Reading through the alias reaches DRAM.
        let done = mc.read_line(p, 0);
        assert!(done > 0);
        assert!(k.stats().remap_syscalls == 1);
    }

    #[test]
    fn strided_grant_packs_rows() {
        let (mut k, mut mc) = small_setup();
        // A 64x64 f64 matrix; remap a 8x8 tile (64-byte rows, 512-byte pitch).
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        let g = k
            .remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        assert_eq!(g.kind, "strided");
        let p = k.translate(g.alias.start()).unwrap();
        assert!(mc.is_shadow(p));
        mc.read_line(p, 0);
        assert_eq!(mc.desc_stats().gathers, 1);
        // One 128-byte line = two 64-byte rows.
        assert_eq!(mc.desc_stats().dram_requests, 2);
    }

    #[test]
    fn retarget_strided_moves_window() {
        let (mut k, mut mc) = small_setup();
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        let mut g = k
            .remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        let desc_before = g.desc;
        let pages = k
            .retarget_strided(&mut mc, &mut g, m.start().add(64), 64, 512, 8)
            .unwrap();
        assert!(pages > 0);
        let _ = desc_before; // slot may be reused; behaviour checked below
        let p = k.translate(g.alias.start()).unwrap();
        mc.read_line(p, 0);
        assert!(mc.descriptor(g.desc).is_some());
    }

    #[test]
    fn recolor_alias_hits_requested_colors_only() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(28 * PAGE_SIZE, 1).unwrap();
        let colors: Vec<u64> = (0..16).collect();
        let g = k.remap_recolor(&mut mc, x, &colors).unwrap();
        assert_eq!(g.alias.page_count(), 28);
        for page in g.alias.blocks(PAGE_SIZE) {
            let bus = k.translate(page).unwrap();
            assert!(mc.is_shadow(bus));
            let color = bus.page_number() % 32;
            assert!(color < 16, "alias page landed on color {color}");
        }
        // Data is reachable through the recolored alias.
        let done = mc.read_line(k.translate(g.alias.start()).unwrap(), 0);
        assert!(done > 0);
    }

    #[test]
    fn recolor_rejects_bad_colors() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        assert!(matches!(
            k.remap_recolor(&mut mc, x, &[]),
            Err(OsError::BadAlignment(_))
        ));
        assert!(matches!(
            k.remap_recolor(&mut mc, x, &[99]),
            Err(OsError::BadAlignment(_))
        ));
    }

    #[test]
    fn superpage_installs_single_span() {
        let (mut k, mut mc) = small_setup();
        // 8 pages, aligned to 8 pages.
        let r = k.alloc_region(8 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        let before = k.translate(r.start()).unwrap();
        let g = k.build_superpage(&mut mc, r).unwrap();
        let after = k.translate(r.start()).unwrap();
        assert_ne!(before, after, "pages must now point into shadow space");
        assert!(g.shadow.contains(after));
        let (base, span) = k.tlb_span(r.start().raw() >> PAGE_SHIFT);
        assert_eq!(span, 8);
        assert_eq!(base, r.start().raw() >> PAGE_SHIFT);
        // Addresses within the region remain readable.
        mc.read_line(k.translate(r.start().add(5 * PAGE_SIZE)).unwrap(), 0);
    }

    #[test]
    fn superpage_requires_alignment() {
        let (mut k, mut mc) = small_setup();
        let _pad = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let r = k.alloc_region(8 * PAGE_SIZE, PAGE_SIZE).unwrap();
        if r.start().is_aligned(8 * PAGE_SIZE) {
            // Unlucky layout; skip rather than assert a tautology.
            return;
        }
        assert!(matches!(
            k.build_superpage(&mut mc, r),
            Err(OsError::BadAlignment(_))
        ));
    }

    #[test]
    fn release_remap_unmaps_alias() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let g = k.remap_recolor(&mut mc, x, &[0]).unwrap();
        k.release_remap(&mut mc, &g).unwrap();
        assert!(k.aspace().try_translate(g.alias.start()).is_none());
        assert!(mc.descriptor(g.desc).is_none());
        assert!(k.release_remap(&mut mc, &g).is_err());
    }

    #[test]
    fn processes_have_isolated_address_spaces() {
        let (mut k, _) = small_setup();
        let r0 = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let child = k.spawn();
        assert_eq!(k.current(), Pid::INIT);
        k.switch(child).unwrap();
        // The child cannot see the parent's mapping.
        assert!(k.aspace().try_translate(r0.start()).is_none());
        // Its own allocation may reuse the same virtual addresses.
        let r1 = k.alloc_region(PAGE_SIZE, 1).unwrap();
        assert_eq!(
            r1.start(),
            r0.start(),
            "fresh address space starts at the same base"
        );
        k.switch(Pid::INIT).unwrap();
        // But the frames differ: no aliasing between processes.
        let f0 = k.translate(r0.start()).unwrap();
        k.switch(child).unwrap();
        let f1 = k.translate(r1.start()).unwrap();
        assert_ne!(f0, f1);
    }

    #[test]
    fn descriptor_ownership_is_enforced() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 8).unwrap();
        let grant = k.remap_recolor(&mut mc, x, &[0]).unwrap();
        let intruder = k.spawn();
        k.switch(intruder).unwrap();
        // Another process cannot release or share someone else's grant.
        assert_eq!(
            k.release_remap(&mut mc, &grant),
            Err(OsError::NotOwner(Pid::INIT))
        );
        assert_eq!(
            k.share_remap(&grant, intruder),
            Err(OsError::NotOwner(Pid::INIT))
        );
        // The owner still can.
        k.switch(Pid::INIT).unwrap();
        k.release_remap(&mut mc, &grant).unwrap();
    }

    #[test]
    fn shared_shadow_region_crosses_processes() {
        let (mut k, mut mc) = small_setup();
        let buf = k.alloc_region(4 * PAGE_SIZE, 8).unwrap();
        let grant = k.remap_recolor(&mut mc, buf, &[0, 1]).unwrap();
        let receiver = k.spawn();
        let rx_alias = k.share_remap(&grant, receiver).unwrap();

        // Sender view and receiver view reach the same shadow addresses.
        let tx_p = k.translate(grant.alias.start()).unwrap();
        k.switch(receiver).unwrap();
        let rx_p = k.translate(rx_alias.start()).unwrap();
        assert_eq!(tx_p, rx_p, "both views land on the same shadow page");
        assert!(mc.is_shadow(rx_p));
    }

    #[test]
    fn switch_to_unknown_process_fails() {
        // A Pid from one kernel is meaningless on another.
        let (mut k1, _) = small_setup();
        let foreign = k1.spawn();
        let (mut k2, _) = small_setup();
        assert_eq!(k2.switch(foreign), Err(OsError::NoSuchProcess(foreign)));
    }

    #[test]
    fn tlb_span_default_is_single_page() {
        let (k, _) = small_setup();
        assert_eq!(k.tlb_span(42), (42, 1));
    }

    #[test]
    fn gather_requires_element_alignment() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(1024, 8).unwrap();
        let col = k.alloc_region(512, 4).unwrap();
        // Misaligned target: element size 8 but base offset 4.
        let bad = impulse_types::VRange::new(x.start().add(4), 512);
        let res = k.remap_gather(&mut mc, bad, 8, Arc::new(vec![0; 64]), col, 4);
        assert!(matches!(res, Err(OsError::BadAlignment(_))));
    }

    #[test]
    fn colored_allocation_can_exhaust_a_color() {
        let cfg = KernelConfig {
            dram_capacity: 40 * PAGE_SIZE,
            reserved_top: 0,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        // Only one frame of color 7 exists in 40 frames (colors mod 32).
        let _first = k.alloc_region_colored(PAGE_SIZE, 1, &[7]).unwrap();
        let second = k.alloc_region_colored(2 * PAGE_SIZE, 1, &[7]);
        assert!(matches!(second, Err(OsError::Phys(_))));
    }

    #[test]
    fn overlapping_shadow_regions_are_rejected() {
        let (mut k, mut mc) = small_setup();
        // Squat on the start of shadow space directly at the controller —
        // the kernel's next shadow allocation must collide with it.
        let squat = PRange::new(PAddr::new(1 << 24), 64 * PAGE_SIZE);
        mc.claim_descriptor(squat, RemapFn::strided(PvAddr::new(0), 8, 1024))
            .unwrap();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let res = k.remap_recolor(&mut mc, x, &[0]);
        assert!(
            matches!(res, Err(OsError::Mc(McError::RegionOverlap(_)))),
            "expected a RegionOverlap error, got {res:?}"
        );
    }

    #[test]
    fn shadow_space_exhaustion_is_a_typed_error() {
        let cfg = KernelConfig {
            dram_capacity: 1 << 24,
            reserved_top: 1 << 20,
            shadow_span: 2 * PAGE_SIZE, // a nearly-empty shadow pool
            ..KernelConfig::default()
        };
        let dram = Dram::new(DramConfig {
            capacity: cfg.dram_capacity,
            ..DramConfig::default()
        });
        let mut k = Kernel::new(cfg);
        let mut mc = MemController::new(dram, McConfig::default());
        let r = k.alloc_region(8 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        match k.build_superpage(&mut mc, r) {
            Err(OsError::ShadowExhausted {
                requested,
                available,
            }) => {
                assert_eq!(requested, 8 * PAGE_SIZE);
                assert_eq!(available, 2 * PAGE_SIZE);
            }
            other => panic!("expected ShadowExhausted, got {other:?}"),
        }
        // The failed call must not leak shadow space or descriptors.
        assert_eq!(k.stats().shadow_bytes, 0);
        // A request that fits the remaining pool still succeeds.
        let small = k.alloc_region(2 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        k.build_superpage(&mut mc, small).unwrap();
        assert_eq!(k.stats().shadow_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn gather_index_out_of_bounds_is_rejected() {
        let (mut k, mut mc) = small_setup();
        // 128 elements of 8 bytes; index 128 is one past the end.
        let x = k.alloc_region(128 * 8, 8).unwrap();
        let col = k.alloc_region(512, 4).unwrap();
        let target = VRange::new(x.start(), 128 * 8);
        let indices = Arc::new(vec![0u64, 5, 128]);
        let res = k.remap_gather(&mut mc, target, 8, indices, col, 4);
        assert_eq!(
            res.err(),
            Some(OsError::IndexOutOfBounds {
                index: 128,
                limit: 128
            })
        );
    }

    #[test]
    fn strided_misuse_is_invalid_arg() {
        let (mut k, mut mc) = small_setup();
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        for (object_size, stride, count) in [(64, 512, 0), (64, 0, 8), (0, 512, 8)] {
            let res = k.remap_strided(&mut mc, m.start(), object_size, stride, count, PAGE_SIZE);
            assert!(
                matches!(res, Err(OsError::InvalidArg(_))),
                "({object_size},{stride},{count}) should be InvalidArg, got {res:?}"
            );
        }
        // An overflowing span is caught rather than wrapping.
        let res = k.remap_strided(&mut mc, m.start(), 64, u64::MAX / 2, 8, PAGE_SIZE);
        assert!(matches!(res, Err(OsError::InvalidArg(_))));
        // Misuse must not consume descriptor slots: a valid remap still works.
        k.remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
    }

    #[test]
    fn retarget_misuse_keeps_grant_alive() {
        let (mut k, mut mc) = small_setup();
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        let mut g = k
            .remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        // Invalid retarget parameters are rejected *before* the old
        // descriptor is released, so the working grant survives.
        let res = k.retarget_strided(&mut mc, &mut g, m.start(), 64, 0, 8);
        assert!(matches!(res, Err(OsError::InvalidArg(_))));
        assert!(mc.descriptor(g.desc).is_some());
        mc.read_line(k.translate(g.alias.start()).unwrap(), 0);
    }

    #[test]
    fn superpage_release_restores_mappings() {
        let (mut k, mut mc) = small_setup();
        let r = k.alloc_region(8 * PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        let before = k.translate(r.start()).unwrap();
        let g = k.build_superpage(&mut mc, r).unwrap();
        assert_eq!(g.kind, "superpage");
        assert_ne!(k.translate(r.start()).unwrap(), before);
        k.release_remap(&mut mc, &g).unwrap();
        assert_eq!(k.translate(r.start()).unwrap(), before);
        assert_eq!(k.tlb_span(r.start().raw() >> 12).1, 1);
    }

    #[test]
    fn release_revokes_shared_receiver_alias_transitively() {
        let (mut k, mut mc) = small_setup();
        let buf = k.alloc_region(2 * PAGE_SIZE, 8).unwrap();
        let grant = k.remap_recolor(&mut mc, buf, &[0]).unwrap();
        let receiver = k.spawn();
        let rx_alias = k.share_remap(&grant, receiver).unwrap();
        k.switch(receiver).unwrap();
        assert!(k.translate(rx_alias.start()).is_ok());
        k.switch(Pid::INIT).unwrap();

        // Release is a transitive revocation: the receiver's alias pages
        // go stale together with the owner's (the stale-shared-alias
        // leak regression).
        let out = k.release_remap(&mut mc, &grant).unwrap();
        assert!(out.caps_revoked >= 2, "root + derived alias revoked");
        assert!(out.pages_unmapped >= grant.alias.page_count() + rx_alias.page_count());
        assert!(out.cycles > 0, "revocation walk must charge cycles");

        k.switch(receiver).unwrap();
        for page in rx_alias.blocks(PAGE_SIZE) {
            match k.translate(page) {
                Err(OsError::RevokedCapability { stale, current, .. }) => {
                    assert!(current > stale, "generation must have advanced");
                }
                other => panic!("expected RevokedCapability, got {other:?}"),
            }
        }
    }

    #[test]
    fn double_release_reports_stale_generation() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let g = k.remap_recolor(&mut mc, x, &[0]).unwrap();
        k.release_remap(&mut mc, &g).unwrap();
        match k.release_remap(&mut mc, &g) {
            Err(OsError::RevokedCapability { stale, current, .. }) => {
                assert_eq!(stale, g.handle.generation);
                assert!(current > stale);
            }
            other => panic!("expected RevokedCapability, got {other:?}"),
        }
    }

    #[test]
    fn slot_reuse_keeps_old_handles_stale() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let old = k.remap_recolor(&mut mc, x, &[0]).unwrap();
        k.release_remap(&mut mc, &old).unwrap();
        // Another process's grant takes over the freed slot...
        let other = k.spawn();
        k.switch(other).unwrap();
        let y = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let new = k.remap_recolor(&mut mc, y, &[1]).unwrap();
        assert_eq!(new.handle.slot, old.handle.slot);
        assert!(new.handle.generation > old.handle.generation);
        // ...yet the old handle is still just stale, for its owner too,
        // and the new grant is untouched.
        k.switch(Pid::INIT).unwrap();
        assert_eq!(
            k.release_remap(&mut mc, &old),
            Err(OsError::RevokedCapability {
                slot: old.handle.slot,
                stale: old.handle.generation,
                current: new.handle.generation,
            })
        );
        k.switch(other).unwrap();
        assert_eq!(k.release_remap(&mut mc, &new).unwrap().caps_revoked, 1);
    }

    #[test]
    fn revocation_charges_per_receiver_alias() {
        let (mut k, mut mc) = small_setup();
        let x = k.alloc_region(PAGE_SIZE, 1).unwrap();
        let g = k.remap_recolor(&mut mc, x, &[0]).unwrap();
        let mut pages = g.alias.page_count();
        for _ in 0..3 {
            let r = k.spawn();
            pages += k.share_remap(&g, r).unwrap().page_count();
        }
        let out = k.revoke_remap(&mut mc, &g).unwrap();
        assert_eq!(out.caps_revoked, 4);
        assert_eq!(out.cycles, 40 + 12 * 4);
        assert_eq!(out.pages_unmapped, pages);
    }

    #[test]
    fn retarget_keeps_receiver_aliases_live() {
        let (mut k, mut mc) = small_setup();
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        let mut g = k
            .remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        let receiver = k.spawn();
        let rx = k.share_remap(&g, receiver).unwrap();
        k.retarget_strided(&mut mc, &mut g, m.start().add(64), 64, 512, 8)
            .unwrap();
        // The receiver reads through the new descriptor...
        let tile = k.translate(m.start().add(64)).unwrap();
        k.switch(receiver).unwrap();
        let p = k.translate(rx.start()).unwrap();
        assert_eq!(mc.resolve_shadow(p), Some(MAddr::new(tile.raw())));
        // ...and still dies with the retargeted grant.
        k.switch(Pid::INIT).unwrap();
        assert_eq!(k.release_remap(&mut mc, &g).unwrap().caps_revoked, 2);
        k.switch(receiver).unwrap();
        assert!(matches!(
            k.translate(rx.start()),
            Err(OsError::RevokedCapability { .. })
        ));
    }

    #[test]
    fn retarget_rollback_survives_a_full_descriptor_table() {
        let (mut k, mut mc) = small_setup();
        let m = k.alloc_region(64 * 64 * 8, 8).unwrap();
        let mut g = k
            .remap_strided(&mut mc, m.start(), 64, 512, 8, PAGE_SIZE)
            .unwrap();
        // Occupy every remaining descriptor slot so the rollback must
        // reuse the very slot the failed retarget just freed.
        let mut fillers = Vec::new();
        loop {
            let r = k.alloc_region(PAGE_SIZE, 1).unwrap();
            match k.remap_recolor(&mut mc, r, &[0]) {
                Ok(f) => fillers.push(f),
                Err(OsError::Mc(McError::NoFreeDescriptor)) => break,
                Err(e) => panic!("unexpected fill error: {e:?}"),
            }
        }
        // stride < object_size passes the syscall's span check but fails
        // descriptor validation *after* the old descriptor was released:
        // the error path must restore it, not leave the grant dangling.
        let res = k.retarget_strided(&mut mc, &mut g, m.start(), 64, 32, 8);
        assert!(matches!(res, Err(OsError::Mc(McError::BadDescriptor(_)))));
        assert!(mc.descriptor(g.desc).is_some(), "old descriptor restored");
        mc.read_line(k.translate(g.alias.start()).unwrap(), 0);
        // A valid retarget and the eventual release still work.
        let pages = k
            .retarget_strided(&mut mc, &mut g, m.start().add(64), 64, 512, 8)
            .unwrap();
        assert!(pages > 0);
        k.release_remap(&mut mc, &g).unwrap();
        for f in &fillers {
            k.release_remap(&mut mc, f).unwrap();
        }
    }
}

//! Typed capability engine for Impulse shadow descriptors and memory
//! regions.
//!
//! The paper's OS/MC contract (Section 2.1) has the kernel multiplex a
//! handful of shadow descriptors across untrusting processes. This crate
//! is the protection layer behind that multiplexing: every granted
//! resource — a shadow descriptor, a receiver's alias of one, a span of
//! shadow address space — is represented by a capability in a single
//! kernel-held table, and every handle the kernel gives out is
//! *generation-tagged* so a revoked handle can never be confused with a
//! recycled slot.
//!
//! The pieces:
//!
//! - [`DomainId`]: a protection domain. The kernel creates one per
//!   process.
//! - [`CapId`]: a handle — table slot plus the generation the slot had
//!   when granted. Slots are recycled, generations only grow, so a stale
//!   handle is detected structurally ([`CapError::Revoked`]).
//! - [`Resource`]: what a capability protects (descriptor, derived
//!   alias, or address-space region).
//! - [`CapEngine::derive`]: sharing builds a derivation tree; revoking
//!   any capability tears down its whole derived subtree (**transitive
//!   revocation**), returning every torn-down resource so the caller can
//!   unmap aliases, plus the cycle cost of the walk.
//! - Region grants from a bump allocator **coalesce**: a region adjacent
//!   to the domain's previous region grant extends it in place instead
//!   of consuming a new slot.
//! - Every entry is checksummed and mirrored. A corrupted working entry
//!   (via [`impulse_fault::CapsInjector`]) is detected at validation,
//!   reloaded from the mirror, and charged; an unrecoverable entry is
//!   quarantined and surfaces as [`CapError::Corrupt`] — never a panic
//!   or a silently-honoured stale capability.
//!
//! The engine is deterministic and snapshot-aware: [`CapEngine::snap_save`]
//! / [`CapEngine::snap_load`] round-trip the full table bit-exactly for
//! the `impulse-snap` kernel section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fmt;

use impulse_fault::CapsInjector;
use impulse_types::snap::{fnv64, SnapError, SnapReader, SnapWriter};
use impulse_types::{Cycle, FxHashMap};

/// Snapshot section tag for [`CapEngine`] (`"CAPS"`).
const TAG_CAPS: u32 = 0x4341_5053;

/// A protection domain (one per process).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

/// A generation-tagged capability handle.
///
/// `index` names a table slot; `generation` is the slot's generation at
/// grant time. Revocation bumps the slot generation, so every
/// outstanding handle to the revoked capability — including copies the
/// kernel no longer knows about — fails validation with
/// [`CapError::Revoked`] rather than aliasing whatever the slot holds
/// next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CapId {
    /// Table slot.
    pub index: u32,
    /// Slot generation at grant time.
    pub generation: u32,
}

/// What a capability protects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// A shadow descriptor slot at the memory controller (root
    /// capability, held by the granting process).
    Descriptor {
        /// Controller descriptor slot index.
        desc: u32,
    },
    /// A derived alias of a descriptor capability, mapped into a
    /// receiver domain's address space.
    Alias {
        /// Controller descriptor slot the alias reads through.
        desc: u32,
        /// Receiver-virtual start address of the alias.
        start: u64,
        /// Alias length in pages.
        pages: u64,
    },
    /// A span of (shadow) address space.
    Region {
        /// Span start address.
        start: u64,
        /// Span length in bytes.
        len: u64,
    },
}

impl Resource {
    fn tag(&self) -> u8 {
        match self {
            Resource::Descriptor { .. } => 0,
            Resource::Alias { .. } => 1,
            Resource::Region { .. } => 2,
        }
    }
}

/// A capability operation rejected by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapError {
    /// The handle's generation is stale: the capability was revoked
    /// (directly or transitively).
    Revoked {
        /// Table slot the handle names.
        slot: u32,
        /// Generation carried by the stale handle.
        stale: u32,
        /// The slot's current generation.
        current: u32,
    },
    /// The capability exists but belongs to a different domain.
    NotOwner {
        /// The domain that actually owns it.
        owner: u32,
    },
    /// The domain id was never created.
    NoSuchDomain(u32),
    /// The handle names a slot the table never allocated.
    BadSlot(u32),
    /// The entry failed its integrity check and the mirror could not
    /// repair it; the slot has been quarantined.
    Corrupt {
        /// The quarantined slot.
        slot: u32,
    },
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::Revoked {
                slot,
                stale,
                current,
            } => write!(
                f,
                "capability slot {slot} has been revoked: handle generation {stale} is stale (current {current})"
            ),
            CapError::NotOwner { owner } => {
                write!(f, "capability is owned by domain {owner}")
            }
            CapError::NoSuchDomain(d) => write!(f, "no such capability domain: {d}"),
            CapError::BadSlot(s) => write!(f, "capability slot {s} was never allocated"),
            CapError::Corrupt { slot } => write!(
                f,
                "capability table entry {slot} failed its integrity check and could not be recovered"
            ),
        }
    }
}

impl std::error::Error for CapError {}

/// Cycle cost model for capability maintenance. The kernel charges these
/// through the usual syscall accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapCosts {
    /// Fixed cost of starting a revocation walk.
    pub t_revoke_base: Cycle,
    /// Cost per capability visited (torn down) by the walk.
    pub t_revoke_per_cap: Cycle,
    /// Cost of reloading one corrupted entry from the mirror.
    pub t_reload: Cycle,
}

impl Default for CapCosts {
    fn default() -> Self {
        Self {
            t_revoke_base: 40,
            t_revoke_per_cap: 12,
            t_reload: 30,
        }
    }
}

/// One capability torn down by a revocation walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevokedCap {
    /// The handle that is now stale.
    pub cap: CapId,
    /// The domain that held it.
    pub domain: DomainId,
    /// The resource it protected.
    pub resource: Resource,
}

/// The outcome of a transitive revocation walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Revocation {
    /// Every capability torn down, derived receivers first, the root
    /// last (post-order over the derivation tree).
    pub revoked: Vec<RevokedCap>,
    /// Cycle cost of the walk (`t_revoke_base + n · t_revoke_per_cap`).
    pub cycles: Cycle,
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CapStats {
    /// Root capabilities granted.
    pub grants: u64,
    /// Derived (shared) capabilities created.
    pub derives: u64,
    /// Region grants that extended an adjacent region in place.
    pub coalesced: u64,
    /// Revocation walks performed.
    pub revocations: u64,
    /// Capabilities torn down by those walks.
    pub revoked_caps: u64,
    /// Validations performed.
    pub validations: u64,
    /// Validations rejected for a stale generation.
    pub stale_denials: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Entry {
    domain: u32,
    resource: Resource,
    parent: Option<u32>,
    children: Vec<u32>,
    /// fnv64 over the canonical encoding of the fields above (plus the
    /// slot index and generation) — the corruption detector.
    check: u64,
}

impl Entry {
    fn checksum(index: u32, generation: u32, e: &Entry) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&index.to_le_bytes());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&e.domain.to_le_bytes());
        bytes.push(e.resource.tag());
        match e.resource {
            Resource::Descriptor { desc } => {
                bytes.extend_from_slice(&u64::from(desc).to_le_bytes())
            }
            Resource::Alias { desc, start, pages } => {
                bytes.extend_from_slice(&u64::from(desc).to_le_bytes());
                bytes.extend_from_slice(&start.to_le_bytes());
                bytes.extend_from_slice(&pages.to_le_bytes());
            }
            Resource::Region { start, len } => {
                bytes.extend_from_slice(&start.to_le_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&(e.parent.map_or(u64::MAX, u64::from)).to_le_bytes());
        for &c in &e.children {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        fnv64(&bytes)
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Slot {
    generation: u32,
    entry: Option<Entry>,
}

/// The capability table: working copy, checksum-verified against a
/// mirrored copy on every validation; grant/derive/revoke maintain both.
#[derive(Clone, Debug)]
pub struct CapEngine {
    slots: Vec<Slot>,
    mirror: Vec<Slot>,
    free: Vec<u32>,
    domains: u32,
    /// Descriptor slot → capability slot (root descriptor caps only).
    desc_slot: FxHashMap<u32, u32>,
    costs: CapCosts,
    stats: CapStats,
    injector: Option<CapsInjector>,
    /// Validation ordinal — the injector's clock.
    val_ops: u64,
}

impl Default for CapEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CapEngine {
    /// Creates an empty engine with the default cost model.
    pub fn new() -> Self {
        Self::with_costs(CapCosts::default())
    }

    /// Creates an empty engine with an explicit cost model.
    pub fn with_costs(costs: CapCosts) -> Self {
        Self {
            slots: Vec::new(),
            mirror: Vec::new(),
            free: Vec::new(),
            domains: 0,
            desc_slot: FxHashMap::default(),
            costs,
            stats: CapStats::default(),
            injector: None,
            val_ops: 0,
        }
    }

    /// Attaches (or detaches) the corruption injector. Zero cost when
    /// `None` — the common case.
    pub fn attach_injector(&mut self, injector: Option<CapsInjector>) {
        self.injector = injector;
    }

    /// The injector's corruption/recovery counters (zeros when no
    /// injector is attached).
    pub fn fault_stats(&self) -> impulse_fault::CapsFaultStats {
        self.injector
            .as_ref()
            .map(CapsInjector::stats)
            .unwrap_or_default()
    }

    /// Engine counters.
    pub fn stats(&self) -> CapStats {
        self.stats
    }

    /// The configured cost model.
    pub fn costs(&self) -> CapCosts {
        self.costs
    }

    /// Creates a new protection domain.
    pub fn create_domain(&mut self) -> DomainId {
        let d = DomainId(self.domains);
        self.domains += 1;
        d
    }

    /// Number of domains created.
    pub fn domain_count(&self) -> u32 {
        self.domains
    }

    /// Live capabilities held by `domain`.
    pub fn live_in_domain(&self, domain: DomainId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.entry.as_ref().is_some_and(|e| e.domain == domain.0))
            .count()
    }

    /// Total live capabilities.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.entry.is_some()).count()
    }

    /// The current generation of table slot `slot` (`None` if the table
    /// never allocated it).
    pub fn generation(&self, slot: u32) -> Option<u32> {
        self.slots.get(slot as usize).map(|s| s.generation)
    }

    /// The root capability currently protecting controller descriptor
    /// slot `desc`, if any.
    pub fn desc_cap(&self, desc: u32) -> Option<CapId> {
        let &slot = self.desc_slot.get(&desc)?;
        Some(CapId {
            index: slot,
            generation: self.slots[slot as usize].generation,
        })
    }

    fn alloc_slot(&mut self, entry: Entry) -> CapId {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot::default());
                self.mirror.push(Slot::default());
                self.slots.len() as u32 - 1
            }
        };
        let generation = self.slots[index as usize].generation;
        self.write_entry(index, Some(entry));
        CapId { index, generation }
    }

    /// Writes an entry (or clears the slot) in both copies, refreshing
    /// the checksum.
    fn write_entry(&mut self, index: u32, entry: Option<Entry>) {
        let generation = self.slots[index as usize].generation;
        let entry = entry.map(|mut e| {
            e.check = Entry::checksum(index, generation, &e);
            e
        });
        self.slots[index as usize].entry = entry.clone();
        self.mirror[index as usize].entry = entry;
        self.mirror[index as usize].generation = generation;
    }

    /// Mutates a live entry through `f` in both copies.
    fn update_entry(&mut self, index: u32, f: impl FnOnce(&mut Entry)) {
        if let Some(mut e) = self.slots[index as usize].entry.take() {
            f(&mut e);
            self.write_entry(index, Some(e));
        }
    }

    /// Grants a root capability for `resource` to `domain`.
    ///
    /// # Errors
    ///
    /// Fails if `domain` was never created.
    pub fn grant(&mut self, domain: DomainId, resource: Resource) -> Result<CapId, CapError> {
        if domain.0 >= self.domains {
            return Err(CapError::NoSuchDomain(domain.0));
        }
        let cap = self.alloc_slot(Entry {
            domain: domain.0,
            resource,
            parent: None,
            children: Vec::new(),
            check: 0,
        });
        if let Resource::Descriptor { desc } = resource {
            self.desc_slot.insert(desc, cap.index);
        }
        self.stats.grants += 1;
        Ok(cap)
    }

    /// Grants a region capability, coalescing with an existing region
    /// grant in the same domain when `start` continues it exactly (the
    /// shadow allocator is a bump allocator, so back-to-back grants are
    /// contiguous). Returns the capability and whether it coalesced.
    ///
    /// # Errors
    ///
    /// Fails if `domain` was never created.
    pub fn grant_region(
        &mut self,
        domain: DomainId,
        start: u64,
        len: u64,
    ) -> Result<(CapId, bool), CapError> {
        if domain.0 >= self.domains {
            return Err(CapError::NoSuchDomain(domain.0));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(e) = &s.entry {
                if e.domain == domain.0 {
                    if let Resource::Region { start: rs, len: rl } = e.resource {
                        if rs + rl == start {
                            let index = i as u32;
                            self.update_entry(index, |e| {
                                e.resource = Resource::Region {
                                    start: rs,
                                    len: rl + len,
                                };
                            });
                            self.stats.coalesced += 1;
                            return Ok((
                                CapId {
                                    index,
                                    generation: self.slots[i].generation,
                                },
                                true,
                            ));
                        }
                    }
                }
            }
        }
        let cap = self.grant(domain, Resource::Region { start, len })?;
        Ok((cap, false))
    }

    /// Derives a child capability from `parent` into domain `to` —
    /// sharing. The child joins the derivation tree: revoking `parent`
    /// (or any ancestor) revokes it transitively.
    ///
    /// # Errors
    ///
    /// Fails if `parent` is stale or corrupt, `owner` (when given) is
    /// not the parent's domain, or `to` was never created.
    pub fn derive(
        &mut self,
        parent: CapId,
        owner: Option<DomainId>,
        to: DomainId,
        resource: Resource,
    ) -> Result<CapId, CapError> {
        self.validate(parent, owner)?;
        if to.0 >= self.domains {
            return Err(CapError::NoSuchDomain(to.0));
        }
        let cap = self.alloc_slot(Entry {
            domain: to.0,
            resource,
            parent: Some(parent.index),
            children: Vec::new(),
            check: 0,
        });
        self.update_entry(parent.index, |e| e.children.push(cap.index));
        self.stats.derives += 1;
        Ok(cap)
    }

    /// Integrity-checks the working entry at `index`, recovering from
    /// the mirror (charging the injector) or quarantining the slot.
    fn integrity_check(&mut self, index: u32) -> Result<(), CapError> {
        let i = index as usize;
        // Deterministic corruption: the injector may damage the working
        // copy of exactly the entry this validation consults.
        if let (Some(inj), Some(e)) = (&mut self.injector, &mut self.slots[i].entry) {
            if inj.corrupts(self.val_ops) {
                let bit = inj.pick(64) as u32;
                e.check ^= 1u64 << bit;
                inj.note_corruption();
            }
        }
        let gen = self.slots[i].generation;
        let ok = match &self.slots[i].entry {
            Some(e) => Entry::checksum(index, gen, e) == e.check,
            None => true,
        };
        if ok {
            return Ok(());
        }
        // Detected: try the mirror.
        let mirror_ok = match (&self.mirror[i].entry, self.mirror[i].generation == gen) {
            (Some(m), true) => Entry::checksum(index, gen, m) == m.check,
            _ => false,
        };
        if mirror_ok {
            self.slots[i].entry = self.mirror[i].entry.clone();
            let t_reload = self.costs.t_reload;
            if let Some(inj) = &mut self.injector {
                inj.note_reload(t_reload);
            }
            Ok(())
        } else {
            // Quarantine: the slot dies; outstanding handles go stale.
            self.slots[i].generation += 1;
            self.slots[i].entry = None;
            self.mirror[i].generation = self.slots[i].generation;
            self.mirror[i].entry = None;
            self.free.push(index);
            if let Some(inj) = &mut self.injector {
                inj.note_unrecoverable();
            }
            Err(CapError::Corrupt { slot: index })
        }
    }

    /// Validates a handle: integrity, generation, and (optionally)
    /// ownership. Returns the protected resource.
    ///
    /// # Errors
    ///
    /// [`CapError::Revoked`] on a stale generation, [`CapError::NotOwner`]
    /// when `owner` is given and does not match, [`CapError::BadSlot`] /
    /// [`CapError::Corrupt`] on structural failures.
    pub fn validate(&mut self, cap: CapId, owner: Option<DomainId>) -> Result<Resource, CapError> {
        self.stats.validations += 1;
        self.val_ops += 1;
        if cap.index as usize >= self.slots.len() {
            return Err(CapError::BadSlot(cap.index));
        }
        self.integrity_check(cap.index)?;
        let slot = &self.slots[cap.index as usize];
        let entry = match (&slot.entry, slot.generation == cap.generation) {
            (Some(e), true) => e,
            _ => {
                self.stats.stale_denials += 1;
                return Err(CapError::Revoked {
                    slot: cap.index,
                    stale: cap.generation,
                    current: slot.generation,
                });
            }
        };
        if let Some(d) = owner {
            if entry.domain != d.0 {
                return Err(CapError::NotOwner {
                    owner: entry.domain,
                });
            }
        }
        Ok(entry.resource)
    }

    /// Transitively revokes `cap`: the capability and every capability
    /// derived from it (the whole subtree) go stale, derived receivers
    /// first. Returns what was torn down and the walk's cycle cost.
    ///
    /// # Errors
    ///
    /// As [`CapEngine::validate`].
    pub fn revoke(&mut self, cap: CapId, owner: Option<DomainId>) -> Result<Revocation, CapError> {
        self.validate(cap, owner)?;
        // Unlink from the parent so the walk stays contained.
        if let Some(parent) = self.slots[cap.index as usize]
            .entry
            .as_ref()
            .and_then(|e| e.parent)
        {
            self.update_entry(parent, |e| e.children.retain(|&c| c != cap.index));
        }
        // Post-order walk: children torn down before their parent.
        let mut order = Vec::new();
        let mut stack = vec![(cap.index, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if expanded {
                order.push(idx);
                continue;
            }
            stack.push((idx, true));
            if let Some(e) = &self.slots[idx as usize].entry {
                for &c in e.children.iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        let mut revoked = Vec::with_capacity(order.len());
        for idx in order {
            let i = idx as usize;
            let Some(e) = self.slots[i].entry.take() else {
                continue;
            };
            if let Resource::Descriptor { desc } = e.resource {
                self.desc_slot.remove(&desc);
            }
            revoked.push(RevokedCap {
                cap: CapId {
                    index: idx,
                    generation: self.slots[i].generation,
                },
                domain: DomainId(e.domain),
                resource: e.resource,
            });
            self.slots[i].generation += 1;
            self.mirror[i].generation = self.slots[i].generation;
            self.mirror[i].entry = None;
            self.free.push(idx);
        }
        let cycles =
            self.costs.t_revoke_base + revoked.len() as Cycle * self.costs.t_revoke_per_cap;
        self.stats.revocations += 1;
        self.stats.revoked_caps += revoked.len() as u64;
        Ok(Revocation { revoked, cycles })
    }

    /// Points a descriptor capability (and the derived aliases under it)
    /// at a new controller descriptor slot — the retarget path, which
    /// replaces the descriptor without disturbing the grant.
    ///
    /// # Errors
    ///
    /// As [`CapEngine::validate`]; also fails if `cap` is not a
    /// descriptor capability.
    pub fn retarget_desc(&mut self, cap: CapId, new_desc: u32) -> Result<(), CapError> {
        match self.validate(cap, None)? {
            Resource::Descriptor { desc: old } => {
                self.desc_slot.remove(&old);
                self.desc_slot.insert(new_desc, cap.index);
                self.update_entry(cap.index, |e| {
                    e.resource = Resource::Descriptor { desc: new_desc };
                });
                // Derived aliases read through the same shadow region;
                // keep their descriptor field coherent.
                let children: Vec<u32> = self.slots[cap.index as usize]
                    .entry
                    .as_ref()
                    .map(|e| e.children.clone())
                    .unwrap_or_default();
                for c in children {
                    self.update_entry(c, |e| {
                        if let Resource::Alias { desc, .. } = &mut e.resource {
                            *desc = new_desc;
                        }
                    });
                }
                Ok(())
            }
            _ => Err(CapError::BadSlot(cap.index)),
        }
    }

    /// Deliberately corrupts the working entry at `slot` (and the mirror
    /// too when `deep`) — the fault-injection hook the chaos suite uses.
    /// Shallow corruption is recovered at the next validation; deep
    /// corruption is unrecoverable and surfaces as [`CapError::Corrupt`].
    pub fn inject_corruption(&mut self, slot: u32, deep: bool) {
        if let Some(e) = self
            .slots
            .get_mut(slot as usize)
            .and_then(|s| s.entry.as_mut())
        {
            e.check ^= 1;
        }
        if deep {
            if let Some(e) = self
                .mirror
                .get_mut(slot as usize)
                .and_then(|s| s.entry.as_mut())
            {
                e.check ^= 1;
            }
        }
    }

    /// Sweeps the whole table, repairing working entries from the mirror.
    /// Returns `(entries checked, entries repaired)`.
    pub fn scrub(&mut self) -> (u64, u64) {
        let mut checked = 0;
        let mut repaired = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].entry.is_none() {
                continue;
            }
            checked += 1;
            let gen = self.slots[i].generation;
            let ok = self.slots[i]
                .entry
                .as_ref()
                .is_some_and(|e| Entry::checksum(i as u32, gen, e) == e.check);
            if !ok && self.integrity_check(i as u32).is_ok() {
                repaired += 1;
            }
        }
        (checked, repaired)
    }

    /// Serializes the full table: slots (generation + entry), free-list
    /// order, domain count, counters, the validation ordinal, and the
    /// injector's dynamic state. Deterministic byte-for-byte.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.tag(TAG_CAPS);
        w.usize(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            w.u32(s.generation);
            match &s.entry {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.u32(e.domain);
                    w.u8(e.resource.tag());
                    match e.resource {
                        Resource::Descriptor { desc } => w.u32(desc),
                        Resource::Alias { desc, start, pages } => {
                            w.u32(desc);
                            w.u64(start);
                            w.u64(pages);
                        }
                        Resource::Region { start, len } => {
                            w.u64(start);
                            w.u64(len);
                        }
                    }
                    w.bool(e.parent.is_some());
                    w.u32(e.parent.unwrap_or(0));
                    let kids: Vec<u64> = e.children.iter().map(|&c| u64::from(c)).collect();
                    w.u64_slice(&kids);
                    debug_assert_eq!(e.check, Entry::checksum(i as u32, s.generation, e));
                }
            }
        }
        let frees: Vec<u64> = self.free.iter().map(|&f| u64::from(f)).collect();
        w.u64_slice(&frees);
        w.u32(self.domains);
        w.u64(self.stats.grants);
        w.u64(self.stats.derives);
        w.u64(self.stats.coalesced);
        w.u64(self.stats.revocations);
        w.u64(self.stats.revoked_caps);
        w.u64(self.stats.validations);
        w.u64(self.stats.stale_denials);
        w.u64(self.val_ops);
        w.bool(self.injector.is_some());
        if let Some(inj) = &self.injector {
            inj.snap_save(w);
        }
    }

    /// Restores the state saved by [`CapEngine::snap_save`] into an
    /// engine built with the same configuration (costs, injector
    /// presence). Checksums and the mirror are rebuilt, so the restored
    /// table verifies clean.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the image is malformed.
    pub fn snap_load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(TAG_CAPS)?;
        let n = r.usize()?;
        self.slots = Vec::with_capacity(n);
        self.desc_slot = FxHashMap::default();
        for i in 0..n {
            let generation = r.u32()?;
            let entry = if r.bool()? {
                let domain = r.u32()?;
                let resource = match r.u8()? {
                    0 => Resource::Descriptor { desc: r.u32()? },
                    1 => Resource::Alias {
                        desc: r.u32()?,
                        start: r.u64()?,
                        pages: r.u64()?,
                    },
                    2 => Resource::Region {
                        start: r.u64()?,
                        len: r.u64()?,
                    },
                    _ => return Err(SnapError::Geometry("capability resource tag")),
                };
                let has_parent = r.bool()?;
                let parent_raw = r.u32()?;
                let parent = has_parent.then_some(parent_raw);
                let kids = r.u64_vec()?;
                let mut children = Vec::with_capacity(kids.len());
                for k in kids {
                    children.push(
                        u32::try_from(k)
                            .map_err(|_| SnapError::Geometry("capability child slot"))?,
                    );
                }
                if let Resource::Descriptor { desc } = resource {
                    self.desc_slot.insert(desc, i as u32);
                }
                let mut e = Entry {
                    domain,
                    resource,
                    parent,
                    children,
                    check: 0,
                };
                e.check = Entry::checksum(i as u32, generation, &e);
                Some(e)
            } else {
                None
            };
            self.slots.push(Slot { generation, entry });
        }
        self.mirror = self.slots.clone();
        let frees = r.u64_vec()?;
        self.free = Vec::with_capacity(frees.len());
        for f in frees {
            self.free
                .push(u32::try_from(f).map_err(|_| SnapError::Geometry("free slot index"))?);
        }
        self.domains = r.u32()?;
        self.stats.grants = r.u64()?;
        self.stats.derives = r.u64()?;
        self.stats.coalesced = r.u64()?;
        self.stats.revocations = r.u64()?;
        self.stats.revoked_caps = r.u64()?;
        self.stats.validations = r.u64()?;
        self.stats.stale_denials = r.u64()?;
        self.val_ops = r.u64()?;
        let has_injector = r.bool()?;
        if has_injector {
            if let Some(inj) = &mut self.injector {
                inj.snap_load(r)?;
            } else {
                return Err(SnapError::Geometry(
                    "snapshot carries a caps injector but the engine has none",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impulse_fault::{FaultConfig, Trigger};

    fn engine() -> CapEngine {
        CapEngine::new()
    }

    #[test]
    fn grant_validate_revoke_lifecycle() {
        let mut e = engine();
        let d = e.create_domain();
        let cap = e.grant(d, Resource::Descriptor { desc: 3 }).expect("grant");
        assert_eq!(
            e.validate(cap, Some(d)),
            Ok(Resource::Descriptor { desc: 3 })
        );
        assert_eq!(e.desc_cap(3), Some(cap));
        let rev = e.revoke(cap, Some(d)).expect("revoke");
        assert_eq!(rev.revoked.len(), 1);
        assert_eq!(rev.cycles, 40 + 12);
        assert_eq!(
            e.validate(cap, Some(d)),
            Err(CapError::Revoked {
                slot: cap.index,
                stale: cap.generation,
                current: cap.generation + 1,
            })
        );
        assert_eq!(e.desc_cap(3), None);
    }

    #[test]
    fn slot_reuse_keeps_old_handles_stale() {
        let mut e = engine();
        let d = e.create_domain();
        let a = e.grant(d, Resource::Descriptor { desc: 0 }).expect("a");
        e.revoke(a, Some(d)).expect("revoke a");
        let b = e.grant(d, Resource::Descriptor { desc: 1 }).expect("b");
        // Recycled slot, bumped generation.
        assert_eq!(b.index, a.index);
        assert!(b.generation > a.generation);
        assert!(matches!(
            e.validate(a, Some(d)),
            Err(CapError::Revoked { .. })
        ));
        assert!(e.validate(b, Some(d)).is_ok());
    }

    #[test]
    fn ownership_is_enforced() {
        let mut e = engine();
        let d0 = e.create_domain();
        let d1 = e.create_domain();
        let cap = e
            .grant(d0, Resource::Descriptor { desc: 0 })
            .expect("grant");
        assert_eq!(
            e.validate(cap, Some(d1)),
            Err(CapError::NotOwner { owner: 0 })
        );
        assert_eq!(
            e.revoke(cap, Some(d1)),
            Err(CapError::NotOwner { owner: 0 })
        );
        assert!(e.revoke(cap, Some(d0)).is_ok());
    }

    #[test]
    fn transitive_revocation_tears_down_the_subtree() {
        let mut e = engine();
        let owner = e.create_domain();
        let recv1 = e.create_domain();
        let recv2 = e.create_domain();
        let root = e
            .grant(owner, Resource::Descriptor { desc: 2 })
            .expect("root");
        let c1 = e
            .derive(
                root,
                Some(owner),
                recv1,
                Resource::Alias {
                    desc: 2,
                    start: 0x10000,
                    pages: 4,
                },
            )
            .expect("c1");
        // A chained handoff: recv1 re-shares to recv2.
        let c2 = e
            .derive(
                c1,
                Some(recv1),
                recv2,
                Resource::Alias {
                    desc: 2,
                    start: 0x20000,
                    pages: 4,
                },
            )
            .expect("c2");
        let rev = e.revoke(root, Some(owner)).expect("revoke root");
        // Post-order: deepest derived alias first, root last.
        assert_eq!(rev.revoked.len(), 3);
        assert_eq!(rev.revoked[0].cap, c2);
        assert_eq!(rev.revoked[0].domain, recv2);
        assert_eq!(rev.revoked[1].cap, c1);
        assert_eq!(rev.revoked[2].cap, root);
        assert_eq!(rev.cycles, 40 + 3 * 12);
        for cap in [root, c1, c2] {
            assert!(matches!(
                e.validate(cap, None),
                Err(CapError::Revoked { .. })
            ));
        }
        assert_eq!(e.live(), 0);
    }

    #[test]
    fn revoking_a_derived_cap_leaves_the_root_alive() {
        let mut e = engine();
        let owner = e.create_domain();
        let recv = e.create_domain();
        let root = e
            .grant(owner, Resource::Descriptor { desc: 0 })
            .expect("root");
        let child = e
            .derive(
                root,
                Some(owner),
                recv,
                Resource::Alias {
                    desc: 0,
                    start: 0,
                    pages: 1,
                },
            )
            .expect("child");
        let rev = e.revoke(child, None).expect("revoke child");
        assert_eq!(rev.revoked.len(), 1);
        assert!(e.validate(root, Some(owner)).is_ok());
        // The root's child list no longer references the dead slot.
        let rev2 = e.revoke(root, Some(owner)).expect("revoke root");
        assert_eq!(rev2.revoked.len(), 1);
    }

    #[test]
    fn region_grants_coalesce_when_contiguous() {
        let mut e = engine();
        let d = e.create_domain();
        let (a, merged) = e.grant_region(d, 0x1000, 0x2000).expect("a");
        assert!(!merged);
        let (b, merged) = e.grant_region(d, 0x3000, 0x1000).expect("b");
        assert!(merged);
        assert_eq!(a, b);
        assert_eq!(
            e.validate(a, Some(d)),
            Ok(Resource::Region {
                start: 0x1000,
                len: 0x3000
            })
        );
        // A gap breaks the chain; a different domain never merges.
        let (_, merged) = e.grant_region(d, 0x8000, 0x1000).expect("gap");
        assert!(!merged);
        let d2 = e.create_domain();
        let (_, merged) = e.grant_region(d2, 0x9000, 0x1000).expect("other domain");
        assert!(!merged);
        assert_eq!(e.stats().coalesced, 1);
    }

    #[test]
    fn retarget_updates_root_and_derived_aliases() {
        let mut e = engine();
        let owner = e.create_domain();
        let recv = e.create_domain();
        let root = e
            .grant(owner, Resource::Descriptor { desc: 1 })
            .expect("root");
        let child = e
            .derive(
                root,
                Some(owner),
                recv,
                Resource::Alias {
                    desc: 1,
                    start: 0x40000,
                    pages: 2,
                },
            )
            .expect("child");
        e.retarget_desc(root, 5).expect("retarget");
        assert_eq!(e.validate(root, None), Ok(Resource::Descriptor { desc: 5 }));
        assert_eq!(
            e.validate(child, None),
            Ok(Resource::Alias {
                desc: 5,
                start: 0x40000,
                pages: 2
            })
        );
        assert_eq!(e.desc_cap(1), None);
        assert_eq!(e.desc_cap(5), Some(root));
    }

    #[test]
    fn shallow_corruption_is_detected_and_recovered() {
        let mut e = engine();
        let d = e.create_domain();
        let cap = e.grant(d, Resource::Descriptor { desc: 0 }).expect("grant");
        e.inject_corruption(cap.index, false);
        // Recovered from the mirror transparently.
        assert!(e.validate(cap, Some(d)).is_ok());
        let (checked, repaired) = e.scrub();
        assert_eq!((checked, repaired), (1, 0), "already repaired at validate");
    }

    #[test]
    fn deep_corruption_is_a_typed_error_then_stale() {
        let mut e = engine();
        let d = e.create_domain();
        let cap = e.grant(d, Resource::Descriptor { desc: 0 }).expect("grant");
        e.inject_corruption(cap.index, true);
        assert_eq!(
            e.validate(cap, Some(d)),
            Err(CapError::Corrupt { slot: cap.index })
        );
        // The slot is quarantined: the old handle is now simply stale,
        // and the slot is reusable.
        assert!(matches!(
            e.validate(cap, Some(d)),
            Err(CapError::Revoked { .. })
        ));
        let fresh = e.grant(d, Resource::Descriptor { desc: 3 }).expect("reuse");
        assert_eq!(fresh.index, cap.index);
        assert!(e.validate(fresh, Some(d)).is_ok());
    }

    #[test]
    fn injector_driven_corruption_recovers_deterministically() {
        let run = || {
            let cfg = FaultConfig {
                seed: 7,
                caps_corrupt: Trigger::EveryN { every: 3, phase: 0 },
                ..FaultConfig::none()
            };
            let mut e = engine();
            e.attach_injector(cfg.caps_injector());
            let d = e.create_domain();
            let cap = e.grant(d, Resource::Descriptor { desc: 0 }).expect("grant");
            for _ in 0..30 {
                e.validate(cap, Some(d)).expect("recovered");
            }
            e.fault_stats()
        };
        let s = run();
        assert!(s.corruptions > 0, "the schedule fired");
        assert_eq!(s.corruptions, s.reloads, "every corruption recovered");
        assert_eq!(s.unrecoverable, 0);
        assert_eq!(s.recovery_cycles, s.reloads * 30);
        assert_eq!(run(), s, "same seed, same schedule");
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut e = engine();
        let owner = e.create_domain();
        let recv = e.create_domain();
        let root = e
            .grant(owner, Resource::Descriptor { desc: 2 })
            .expect("root");
        let _child = e
            .derive(
                root,
                Some(owner),
                recv,
                Resource::Alias {
                    desc: 2,
                    start: 0x30000,
                    pages: 8,
                },
            )
            .expect("child");
        e.grant_region(owner, 0x1000, 0x1000).expect("region");
        e.grant_region(owner, 0x2000, 0x1000).expect("coalesced");
        let dead = e.grant(owner, Resource::Descriptor { desc: 7 }).expect("d");
        e.revoke(dead, Some(owner)).expect("revoke");

        let mut w = SnapWriter::new();
        e.snap_save(&mut w);
        let bytes = w.finish();

        let mut restored = engine();
        let mut r = SnapReader::new(&bytes);
        restored.snap_load(&mut r).expect("load");
        r.finish().expect("fully consumed");

        // Bit-exact: re-serializing the restored engine matches.
        let mut w2 = SnapWriter::new();
        restored.snap_save(&mut w2);
        assert_eq!(w2.finish(), bytes);

        // And it behaves identically: same stats, same validations,
        // same revocation walk.
        assert_eq!(restored.stats(), e.stats());
        assert_eq!(
            restored.validate(root, Some(owner)),
            e.validate(root, Some(owner))
        );
        assert_eq!(
            restored.revoke(root, Some(owner)),
            e.revoke(root, Some(owner))
        );
    }

    #[test]
    fn snapshot_carries_injector_state() {
        let cfg = FaultConfig {
            seed: 11,
            caps_corrupt: Trigger::EveryN { every: 2, phase: 0 },
            ..FaultConfig::none()
        };
        let mut e = engine();
        e.attach_injector(cfg.caps_injector());
        let d = e.create_domain();
        let cap = e.grant(d, Resource::Descriptor { desc: 0 }).expect("grant");
        for _ in 0..7 {
            e.validate(cap, Some(d)).expect("ok");
        }
        let mut w = SnapWriter::new();
        e.snap_save(&mut w);
        let bytes = w.finish();

        let mut restored = engine();
        restored.attach_injector(cfg.caps_injector());
        let mut r = SnapReader::new(&bytes);
        restored.snap_load(&mut r).expect("load");
        assert_eq!(restored.fault_stats(), e.fault_stats());
        // Future schedules agree.
        for _ in 0..9 {
            assert_eq!(
                restored.validate(cap, Some(d)).is_ok(),
                e.validate(cap, Some(d)).is_ok()
            );
        }
        assert_eq!(restored.fault_stats(), e.fault_stats());
    }
}

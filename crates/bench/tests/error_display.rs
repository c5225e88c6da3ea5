//! Every [`ImpulseError`]/`OsError` variant has a **stable** `Display`
//! string. The strings are the text users see when a system call or a
//! remap fails, so changing one is a deliberate edit of this table, not
//! a side effect.

use impulse_core::McError;
use impulse_os::{ImpulseError, OsError, PhysError, Pid, VmError};
use impulse_types::VAddr;

/// Exactly one exemplar of each variant, paired with its frozen
/// rendering.
fn exemplars() -> Vec<(ImpulseError, &'static str)> {
    vec![
        (
            ImpulseError::Phys(PhysError::OutOfMemory),
            "physical allocation failed: out of physical memory",
        ),
        (
            ImpulseError::Vm(VmError::NotMapped(0x2a)),
            "virtual memory error: virtual page 0x2a is not mapped",
        ),
        (
            ImpulseError::Vm(VmError::AlreadyMapped(0x2a)),
            "virtual memory error: virtual page 0x2a is already mapped",
        ),
        (
            ImpulseError::Mc(McError::NoFreeDescriptor),
            "memory controller error: all shadow descriptors are in use",
        ),
        (
            ImpulseError::BadAlignment("stride not line-aligned"),
            "bad alignment: stride not line-aligned",
        ),
        (
            ImpulseError::InvalidArg("zero stride"),
            "invalid argument: zero stride",
        ),
        (
            ImpulseError::IndexOutOfBounds { index: 9, limit: 4 },
            "indirection index 9 is out of bounds for a 4-element target",
        ),
        (
            ImpulseError::ShadowExhausted {
                requested: 100,
                available: 64,
            },
            "shadow address space exhausted: 100 bytes requested, 64 available",
        ),
        (
            ImpulseError::TargetNotPhysical(VAddr::new(0x1000)),
            "remap target v:0x1000 is not backed by physical memory",
        ),
        (
            ImpulseError::NotOwner(Pid::INIT),
            "resource is owned by another process (pid0)",
        ),
        (
            ImpulseError::NoSuchProcess(Pid::INIT),
            "no such process: pid0",
        ),
        (
            ImpulseError::RevokedCapability {
                slot: 3,
                stale: 2,
                current: 4,
            },
            "capability slot 3 has been revoked: generation 2 is stale (current 4)",
        ),
        (
            ImpulseError::Mc(McError::TierDegraded { channel: 2 }),
            "memory controller error: tier degraded: DRAM channel 2 is offline",
        ),
        (
            ImpulseError::Mc(McError::LineRetired { line: 0x40 }),
            "memory controller error: SCM line 0x40 is permanently retired",
        ),
    ]
}

#[test]
fn every_variant_has_a_stable_display_string() {
    let cases = exemplars();
    // One exemplar per variant (Vm gets both of its inner shapes; Mc
    // additionally freezes both hybrid-tier degradation errors).
    assert_eq!(cases.len(), 14);
    for (err, expected) in &cases {
        assert_eq!(&err.to_string(), expected, "{err:?} rendering drifted");
        // The alias renders identically, of course — it IS the type.
        let aliased: &OsError = err;
        assert_eq!(&aliased.to_string(), expected);
    }
}

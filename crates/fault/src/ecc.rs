//! SECDED ECC model at the memory controller.
//!
//! The simulator carries no actual data bytes, so corruption is modeled
//! through a deterministic *data signature*: every uncorrected flip
//! XORs [`word_sig`] of the faulted address into an accumulator. A
//! fault-free run has signature 0; a run whose every injected single
//! was corrected also has signature 0 ("zero data-diff"); silent or
//! detected-but-uncorrectable corruption leaves a nonzero signature the
//! chaos harness can assert on.

use impulse_types::Cycle;

/// Severity of an injected DRAM bit flip within one ECC word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitFlip {
    /// One flipped bit — correctable under SECDED.
    Single,
    /// Two flipped bits — detectable but not correctable under SECDED.
    Double,
}

/// Whether the controller's ECC logic is present.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccMode {
    /// No ECC: every flip passes through silently.
    None,
    /// SECDED (single-error-correct, double-error-detect), the
    /// industry-standard (72,64) Hamming+parity organization.
    Secded,
}

/// ECC configuration: mode plus the latency the correction/detection
/// datapath adds to a demand read that hits a fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EccConfig {
    /// ECC mode.
    pub mode: EccMode,
    /// Extra cycles to correct a single-bit error on the return path.
    pub t_correct: Cycle,
    /// Extra cycles to flag a detected (uncorrectable) double error.
    pub t_detect: Cycle,
}

impl Default for EccConfig {
    fn default() -> Self {
        Self {
            mode: EccMode::Secded,
            t_correct: 3,
            t_detect: 2,
        }
    }
}

/// What the ECC logic concluded about one flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccOutcome {
    /// Single-bit error corrected in flight; data is intact.
    Corrected,
    /// Double-bit error detected and reported; data is corrupt but the
    /// corruption is *known* (machine-check style).
    DetectedDouble,
    /// No ECC present: the corruption passes silently.
    Silent,
}

impl EccConfig {
    /// Classifies one flip: the outcome plus the latency penalty the
    /// controller charges on the return path.
    pub fn check(&self, flip: BitFlip) -> (EccOutcome, Cycle) {
        match (self.mode, flip) {
            (EccMode::None, _) => (EccOutcome::Silent, 0),
            (EccMode::Secded, BitFlip::Single) => (EccOutcome::Corrected, self.t_correct),
            (EccMode::Secded, BitFlip::Double) => (EccOutcome::DetectedDouble, self.t_detect),
        }
    }
}

/// Per-controller ECC bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EccStats {
    /// Single-bit errors corrected.
    pub corrected: u64,
    /// Double-bit errors detected (uncorrectable, reported).
    pub detected_double: u64,
    /// Flips that passed with no ECC present.
    pub silent: u64,
    /// XOR of [`word_sig`] over every *uncorrected* faulted address.
    /// 0 means the visible data is byte-identical to a fault-free run.
    pub corrupt_sig: u64,
    /// Total extra cycles spent in the correction/detection datapath on
    /// demand reads (recovery-cycle attribution for the ECC class).
    pub recovery_cycles: u64,
}

impl EccStats {
    /// Applies one classified flip at `addr` to the stats. Returns the
    /// latency penalty to charge.
    pub fn absorb(&mut self, outcome: EccOutcome, penalty: Cycle, addr: u64) -> Cycle {
        match outcome {
            EccOutcome::Corrected => self.corrected += 1,
            EccOutcome::DetectedDouble => {
                self.detected_double += 1;
                self.corrupt_sig ^= word_sig(addr);
            }
            EccOutcome::Silent => {
                self.silent += 1;
                self.corrupt_sig ^= word_sig(addr);
            }
        }
        self.recovery_cycles += penalty;
        penalty
    }
}

/// Deterministic 64-bit signature of the data word at `addr`
/// (splitmix64 finalizer). Stands in for the actual memory contents,
/// which the timing simulator does not carry.
pub fn word_sig(addr: u64) -> u64 {
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secded_corrects_singles_and_detects_doubles() {
        let ecc = EccConfig::default();
        assert_eq!(ecc.check(BitFlip::Single), (EccOutcome::Corrected, 3));
        assert_eq!(ecc.check(BitFlip::Double), (EccOutcome::DetectedDouble, 2));
    }

    #[test]
    fn no_ecc_is_silent_and_free() {
        let ecc = EccConfig {
            mode: EccMode::None,
            ..EccConfig::default()
        };
        assert_eq!(ecc.check(BitFlip::Single), (EccOutcome::Silent, 0));
        assert_eq!(ecc.check(BitFlip::Double), (EccOutcome::Silent, 0));
    }

    #[test]
    fn corrected_singles_leave_signature_clean() {
        let mut s = EccStats::default();
        for a in 0..32u64 {
            s.absorb(EccOutcome::Corrected, 3, a * 64);
        }
        assert_eq!(s.corrected, 32);
        assert_eq!(s.corrupt_sig, 0, "corrected data must be byte-identical");
        assert_eq!(s.recovery_cycles, 96);
    }

    #[test]
    fn uncorrected_flips_dirty_the_signature() {
        let mut s = EccStats::default();
        s.absorb(EccOutcome::Silent, 0, 0x1000);
        assert_ne!(s.corrupt_sig, 0);
        // XOR model: the same corruption twice cancels, a different
        // address does not.
        s.absorb(EccOutcome::DetectedDouble, 2, 0x1000);
        assert_eq!(s.corrupt_sig, 0);
        s.absorb(EccOutcome::Silent, 0, 0x2000);
        assert_ne!(s.corrupt_sig, 0);
    }

    #[test]
    fn word_sig_is_stable_and_spread() {
        assert_eq!(word_sig(0x40), word_sig(0x40));
        assert_ne!(word_sig(0x40), word_sig(0x80));
        assert_ne!(word_sig(0), 0);
    }
}

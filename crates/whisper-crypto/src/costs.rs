//! Thread-local CPU cost accounting for cryptographic operations.
//!
//! The paper's Table II reports the CPU time nodes spend in AES and RSA
//! per PPSS cycle. To reproduce it honestly *and* deterministically, the
//! [`aes`](crate::aes) and [`rsa`](crate::rsa) modules account two kinds
//! of cost here:
//!
//! * **Deterministic operation counts** — AES blocks processed and RSA
//!   limb-operation units (one unit = one inner-loop step of a CIOS
//!   Montgomery multiplication, i.e. `n²` units for an `n`-limb modulus).
//!   These are pure functions of the work performed, identical on every
//!   host, and convert to "model nanoseconds" through the calibrated
//!   constants below. All metrics that feed determinism traces and the
//!   Table II / Fig. 7 reproductions use these.
//! * **Wall-clock nanoseconds** — `std::time::Instant` measurements of
//!   the same operations, kept as a secondary sanity signal (they vary
//!   with host speed and are excluded from determinism traces).
//!
//! The accounting is thread-local and costs a few `Cell` updates per
//! crypto operation. Every consumer takes a [`snapshot`] before and
//! after a crypto operation *within one callback*, so the
//! [`CryptoCosts::since`] deltas it feeds into metrics are exact on
//! whichever thread runs it (the bench harness generates keys on several
//! threads). Absolute per-thread totals are not comparable across
//! threads and nothing reads them directly.

use std::cell::Cell;

thread_local! {
    static AES_NS: Cell<u64> = const { Cell::new(0) };
    static RSA_NS: Cell<u64> = const { Cell::new(0) };
    static AES_BLOCKS: Cell<u64> = const { Cell::new(0) };
    static RSA_LIMB_OPS: Cell<u64> = const { Cell::new(0) };
}

/// Model cost of one AES-128 block operation, in picoseconds.
///
/// Calibrated against the T-table implementation in [`crate::aes`] on the
/// reference machine: the `aes128_ctr/1024B` micro-benchmark measures
/// 3.6–3.9 µs for 64 blocks (≈56–61 ns/block, ≈250 MiB/s); 66 ns rounds
/// that up to a stable figure (≈230 MiB/s). The constant is fixed by
/// design — it must never be measured at runtime, or determinism would
/// break.
pub const AES_PS_PER_BLOCK: u64 = 66_000;

/// Model cost of one RSA limb-operation unit, in picoseconds.
///
/// One unit is one inner-loop step of a CIOS Montgomery multiplication:
/// `n²` units per `mont_mul` on an `n`-limb modulus, where `n` is the
/// modulus's own limb count even when the fixed-width kernel runs it
/// zero-padded at a wider instantiation. The constant was calibrated
/// against the `rsa/decrypt/384` micro-benchmark — the simulation
/// operating point, ≈4,500–4,600 units per CRT decrypt — when that
/// decrypt measured 33–57 µs (8.8 ns/unit ⇒ model ≈40 µs).
///
/// The thread-local Montgomery context cache has since been replaced by
/// contexts built once per key ([`crate::rsa::KeyPair`] keeps one per
/// CRT prime) and an allocation-free fixed-width kernel. On a 2-CPU
/// Xeon host a Sim384 decrypt now measures ≈15 µs, so the model
/// overestimates at Sim384 too (≈2.7×), as it already did at 1024 bits
/// (measured ≈131 µs vs 83,008 units ≈730 µs modeled). The constant
/// stays fixed by design, like [`AES_PS_PER_BLOCK`]: determinism
/// traces and the Table II / Fig. 7 reproductions are computed from it,
/// so it must never follow the host. The unit *counts* did not move
/// either: context construction performs no cost accounting, and the
/// multiplication schedule is unchanged (pinned by a test in
/// [`crate::rsa`]).
pub const RSA_PS_PER_LIMB_OP: u64 = 8_800;

/// A snapshot of the accumulated costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoCosts {
    /// Wall-clock time spent in AES operations, in nanoseconds
    /// (host-dependent; secondary signal).
    pub aes_ns: u64,
    /// Wall-clock time spent in RSA operations, in nanoseconds
    /// (host-dependent; secondary signal).
    pub rsa_ns: u64,
    /// AES blocks processed (deterministic).
    pub aes_blocks: u64,
    /// RSA limb-operation units executed (deterministic).
    pub rsa_limb_ops: u64,
}

impl CryptoCosts {
    /// Element-wise difference (`self` must be the later snapshot).
    pub fn since(self, earlier: CryptoCosts) -> CryptoCosts {
        CryptoCosts {
            aes_ns: self.aes_ns.saturating_sub(earlier.aes_ns),
            rsa_ns: self.rsa_ns.saturating_sub(earlier.rsa_ns),
            aes_blocks: self.aes_blocks.saturating_sub(earlier.aes_blocks),
            rsa_limb_ops: self.rsa_limb_ops.saturating_sub(earlier.rsa_limb_ops),
        }
    }

    /// Deterministic model cost of the AES work, in nanoseconds.
    pub fn aes_model_ns(self) -> u64 {
        self.aes_blocks.saturating_mul(AES_PS_PER_BLOCK) / 1000
    }

    /// Deterministic model cost of the RSA work, in nanoseconds.
    pub fn rsa_model_ns(self) -> u64 {
        self.rsa_limb_ops.saturating_mul(RSA_PS_PER_LIMB_OP) / 1000
    }
}

/// Reads the accumulated counters for this thread.
pub fn snapshot() -> CryptoCosts {
    CryptoCosts {
        aes_ns: AES_NS.get(),
        rsa_ns: RSA_NS.get(),
        aes_blocks: AES_BLOCKS.get(),
        rsa_limb_ops: RSA_LIMB_OPS.get(),
    }
}

/// Resets the counters for this thread.
pub fn reset() {
    AES_NS.set(0);
    RSA_NS.set(0);
    AES_BLOCKS.set(0);
    RSA_LIMB_OPS.set(0);
}

pub(crate) fn add_aes(ns: u64) {
    AES_NS.set(AES_NS.get().wrapping_add(ns));
}

pub(crate) fn add_rsa(ns: u64) {
    RSA_NS.set(RSA_NS.get().wrapping_add(ns));
}

pub(crate) fn add_aes_blocks(blocks: u64) {
    AES_BLOCKS.set(AES_BLOCKS.get().wrapping_add(blocks));
}

pub(crate) fn add_rsa_limb_ops(units: u64) {
    RSA_LIMB_OPS.set(RSA_LIMB_OPS.get().wrapping_add(units));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        add_aes(10);
        add_rsa(20);
        add_aes(5);
        add_aes_blocks(3);
        add_rsa_limb_ops(7);
        let c = snapshot();
        assert_eq!(
            c,
            CryptoCosts { aes_ns: 15, rsa_ns: 20, aes_blocks: 3, rsa_limb_ops: 7 }
        );
        reset();
        assert_eq!(snapshot(), CryptoCosts::default());
    }

    #[test]
    fn since_is_saturating_difference() {
        let a = CryptoCosts { aes_ns: 10, rsa_ns: 5, aes_blocks: 1, rsa_limb_ops: 2 };
        let b = CryptoCosts { aes_ns: 25, rsa_ns: 5, aes_blocks: 4, rsa_limb_ops: 2 };
        assert_eq!(
            b.since(a),
            CryptoCosts { aes_ns: 15, rsa_ns: 0, aes_blocks: 3, rsa_limb_ops: 0 }
        );
        assert_eq!(a.since(b), CryptoCosts::default());
    }

    #[test]
    fn model_costs_scale_with_counts() {
        let c = CryptoCosts { aes_blocks: 1000, rsa_limb_ops: 1000, ..Default::default() };
        assert_eq!(c.aes_model_ns(), AES_PS_PER_BLOCK);
        assert_eq!(c.rsa_model_ns(), RSA_PS_PER_LIMB_OP);
    }

    #[test]
    fn real_operations_are_accounted() {
        use crate::aes::{Aes128, AesKey, CtrNonce};
        use crate::rsa::{KeyPair, RsaKeySize};
        use whisper_rand::SeedableRng;
        reset();
        let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(1);
        let cipher = Aes128::new(&AesKey::random(&mut rng));
        let _ = cipher.ctr_apply(&CtrNonce::random(&mut rng), &[0u8; 4096]);
        let aes_only = snapshot();
        assert!(aes_only.aes_ns > 0, "AES time recorded");
        assert_eq!(aes_only.aes_blocks, 256, "4096 bytes = 256 blocks");
        assert_eq!(aes_only.rsa_ns, 0);
        assert_eq!(aes_only.rsa_limb_ops, 0);

        let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
        let ct = kp.public().encrypt(b"x", &mut rng).unwrap();
        let _ = kp.decrypt(&ct).unwrap();
        let both = snapshot();
        assert!(both.rsa_ns > 0, "RSA time recorded");
        assert!(both.rsa_limb_ops > 0, "RSA limb ops recorded");
    }

    #[test]
    fn deterministic_counts_are_host_independent() {
        // The same operation twice yields exactly the same count delta —
        // the property the wall-clock counters cannot have.
        use crate::aes::{Aes128, AesKey, CtrNonce};
        let cipher = Aes128::new(&AesKey([7u8; 16]));
        reset();
        let _ = cipher.ctr_apply(&CtrNonce([1u8; 8]), &[0u8; 100]);
        let first = snapshot().aes_blocks;
        let _ = cipher.ctr_apply(&CtrNonce([1u8; 8]), &[0u8; 100]);
        let second = snapshot().aes_blocks - first;
        assert_eq!(first, second);
        assert_eq!(first, 7, "100 bytes = ceil(100/16) = 7 blocks");
    }
}

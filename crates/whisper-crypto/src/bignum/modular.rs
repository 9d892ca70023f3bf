// The reference algorithms (FIPS 197, TAOCP 4.3.1, CIOS) are specified
// index-wise; keeping the indices makes them auditable against the spec.
#![allow(clippy::needless_range_loop)]

//! Modular arithmetic: Montgomery-accelerated exponentiation and modular
//! inverses.
//!
//! All Montgomery arithmetic runs through one kernel, [`mont_mul`], on
//! fixed-width `[u64; N]` operands: its accumulator, the window table and
//! every intermediate power live on the stack, and with `N` known at
//! compile time its loops unroll without bounds checks. The kernel is
//! instantiated at [`KERNEL_WIDTHS`]; a modulus runs at the narrowest
//! width that holds it, zero-padded.

use super::BigUint;

/// Limb widths the kernel is instantiated at: every RSA modulus size
/// (6, 8, 16, 32 limbs for 384–2048 bits) and every CRT half (3, 4, 8,
/// 16 limbs). Other moduli are zero-padded up to the next width; odd
/// moduli wider than the last one have no [`Montgomery`] context and
/// take the generic path of [`BigUint::modpow`].
const KERNEL_WIDTHS: [usize; 6] = [3, 4, 6, 8, 16, 32];

/// The kernel width a modulus of `limbs` limbs runs at, if any.
fn kernel_width(limbs: usize) -> Option<usize> {
    KERNEL_WIDTHS.into_iter().find(|&w| w >= limbs)
}

/// Montgomery context for a fixed odd modulus.
///
/// Construction costs one division (`R² mod m`); each multiplication
/// inside the domain is then division-free. Build it once per modulus
/// that is used repeatedly, as [`crate::rsa::KeyPair`] does for its CRT
/// primes.
#[derive(Clone)]
pub struct Montgomery {
    m: BigUint,
    /// Kernel width in limbs (see [`KERNEL_WIDTHS`]); `R = 2^(64·width)`.
    width: usize,
    /// `-m[0]^-1 mod 2^64`.
    n0: u64,
    /// `R^2 mod m` — used to enter the domain.
    r2: BigUint,
}

impl Montgomery {
    /// Creates a context, or `None` if `modulus` is zero, even, or wider
    /// than 32 limbs (2048 bits).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let width = kernel_width(modulus.limbs.len())?;
        let n0 = inv64(modulus.limbs[0]).wrapping_neg();
        let r2 = BigUint::one().shl(width * 64 * 2).rem(modulus);
        Some(Montgomery { m: modulus.clone(), width, n0, r2 })
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.m
    }

    /// Exponents below this many bits use plain square-and-multiply: the
    /// fixed-window table costs `WINDOW_TABLE_MULS` multiplications up
    /// front, which never amortizes for short, sparse exponents like the
    /// RSA public exponent 65537 (binary: 18 muls; windowed: ≈ 35).
    const WINDOW_MIN_BITS: usize = 64;

    /// Computes `base^exp mod m`.
    ///
    /// Long exponents (private-key operations: CRT decrypt, sign) run
    /// fixed-window left-to-right exponentiation with
    /// `2^WINDOW_BITS`-ary precomputation; short ones fall back to
    /// [`Montgomery::pow_binary`]. For a uniformly random `e`-bit
    /// exponent, binary costs `e` squarings plus `e/2` multiplies while
    /// the 4-bit window costs `e` squarings plus `e/4 · 15/16` table
    /// multiplies plus 14 precompute multiplies — ≈ 17% fewer `mont_mul`
    /// calls at RSA sizes.
    ///
    /// Accounts `n² × mont_mul-calls` deterministic limb-operation units
    /// in [`crate::costs`], with `n` the modulus's own limb count (not
    /// the padded kernel width), so the cost model tracks the
    /// multiplication count of this exact exponent and window schedule.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.exp(base, exp, exp.bits() >= Self::WINDOW_MIN_BITS)
    }

    /// Plain left-to-right binary square-and-multiply — the reference
    /// implementation the windowed path is validated (and benchmarked)
    /// against, and the fast path for short exponents. Same deterministic
    /// limb-op accounting as [`Montgomery::pow`].
    pub fn pow_binary(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.exp(base, exp, false)
    }

    fn exp(&self, base: &BigUint, exp: &BigUint, windowed: bool) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.m);
        }
        let base = base.rem(&self.m);
        match self.width {
            3 => self.exp_fixed::<3>(&base, exp, windowed),
            4 => self.exp_fixed::<4>(&base, exp, windowed),
            6 => self.exp_fixed::<6>(&base, exp, windowed),
            8 => self.exp_fixed::<8>(&base, exp, windowed),
            16 => self.exp_fixed::<16>(&base, exp, windowed),
            32 => self.exp_fixed::<32>(&base, exp, windowed),
            w => unreachable!("no Montgomery kernel instantiated at {w} limbs"),
        }
    }

    /// `base^exp mod m` at kernel width `N`, for `base < m`. Windowed
    /// (4-bit, left to right) or binary; both charge the same
    /// per-`mont_mul` cost.
    fn exp_fixed<const N: usize>(&self, base: &BigUint, exp: &BigUint, windowed: bool) -> BigUint {
        let m = padded::<N>(&self.m);
        let mul = |a: &[u64; N], b: &[u64; N]| mont_mul(a, b, &m, self.n0);
        let r2 = padded::<N>(&self.r2);
        let mut one = [0u64; N];
        one[0] = 1;
        let mb = mul(&padded(base), &r2);
        let mut acc = mul(&one, &r2);
        let mut muls: u64 = 2; // the two conversions into the domain above
        let bits = exp.bits();
        if windowed {
            // table[d] = base^d for d in 1..16 (table[0] unused; zero
            // windows are squarings only).
            let mut table = [[0u64; N]; TABLE_SIZE];
            table[1] = mb;
            for d in 2..TABLE_SIZE {
                table[d] = mul(&table[d - 1], &mb);
                muls += 1;
            }
            debug_assert_eq!(muls, 2 + WINDOW_TABLE_MULS);
            // Most significant window first. The top window may be short;
            // processing it like any other keeps the loop uniform
            // (leading squarings of 1 are still mont_muls and are
            // accounted as such — the cost model charges what runs).
            for w in (0..bits.div_ceil(WINDOW_BITS)).rev() {
                for _ in 0..WINDOW_BITS {
                    acc = mul(&acc, &acc);
                    muls += 1;
                }
                let digit = (0..WINDOW_BITS).rev().fold(0usize, |d, b| {
                    (d << 1) | exp.bit(w * WINDOW_BITS + b) as usize
                });
                if digit != 0 {
                    acc = mul(&acc, &table[digit]);
                    muls += 1;
                }
            }
        } else {
            for i in (0..bits).rev() {
                acc = mul(&acc, &acc);
                muls += 1;
                if exp.bit(i) {
                    acc = mul(&acc, &mb);
                    muls += 1;
                }
            }
        }
        let out = mul(&acc, &one); // leave the domain
        muls += 1;
        let n = self.m.limbs.len() as u64;
        crate::costs::add_rsa_limb_ops(muls * n * n);
        BigUint::from_limbs(out.to_vec())
    }
}

/// `v` (at most `N` limbs) zero-padded to `N` limbs.
fn padded<const N: usize>(v: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..v.limbs.len()].copy_from_slice(&v.limbs);
    out
}

/// Montgomery multiplication `a · b · 2^(-64N) mod m` for `a, b < m`,
/// `m` odd and `n0 = -m[0]^-1 mod 2^64`.
///
/// CIOS with the multiply and reduce passes fused: each outer step adds
/// `a[i]·b` and `u·m` in one sweep (two carry chains) and shifts the
/// accumulator down one limb. The accumulator stays below `2m`, so its
/// overflow above `N` limbs is a single bit (`hi`).
#[inline]
fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], n0: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut hi = 0u64;
    for i in 0..N {
        let ai = a[i] as u128;
        let s = t[0] as u128 + ai * b[0] as u128;
        let mut c1 = s >> 64;
        let t0 = s as u64;
        let u = t0.wrapping_mul(n0) as u128;
        let mut c2 = (t0 as u128 + u * m[0] as u128) >> 64;
        for j in 1..N {
            let s = t[j] as u128 + ai * b[j] as u128 + c1;
            c1 = s >> 64;
            let r = (s as u64) as u128 + u * m[j] as u128 + c2;
            c2 = r >> 64;
            t[j - 1] = r as u64;
        }
        let s = hi as u128 + c1 + c2;
        t[N - 1] = s as u64;
        hi = (s >> 64) as u64;
    }
    if hi != 0 || !less_than(&t, m) {
        let mut borrow = false;
        for j in 0..N {
            let (d, b1) = t[j].overflowing_sub(m[j]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            t[j] = d;
            borrow = b1 | b2;
        }
        debug_assert_eq!(borrow as u64, hi);
    }
    t
}

/// `a < b` on equal-width limb arrays.
fn less_than<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// Window width of the fixed-window exponentiation (4 bits = hexadecimal
/// digits). 4 is the sweet spot at 512–2048-bit exponents: width 5 would
/// double the table cost (30 muls) for one fewer table multiply per 20
/// exponent bits.
const WINDOW_BITS: usize = 4;
/// Entries of the window table.
const TABLE_SIZE: usize = 1 << WINDOW_BITS;
/// Multiplications spent building the 2^[`WINDOW_BITS`]-entry power
/// table (entries 2..16; entry 0 is unused, entry 1 is the base).
const WINDOW_TABLE_MULS: u64 = TABLE_SIZE as u64 - 2;

/// Inverse of an odd `m` modulo 2^64 by Newton iteration.
fn inv64(m: u64) -> u64 {
    debug_assert!(m & 1 == 1);
    let mut x = m; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
    }
    debug_assert_eq!(m.wrapping_mul(x), 1);
    x
}

impl BigUint {
    /// Computes `self^exp mod modulus`.
    ///
    /// Odd moduli of up to 32 limbs run on a [`Montgomery`] context built
    /// for this call (one `R² mod m` division); callers that reuse a
    /// modulus, like RSA's CRT primes, keep the context instead. Other
    /// moduli take a generic square-and-multiply with explicit reduction.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = Montgomery::new(modulus) {
            return ctx.pow(self, exp);
        }
        // Rare in this codebase (RSA moduli and MR candidates are odd and
        // at most 32 limbs) but kept for completeness.
        let mut acc = BigUint::one();
        let base = self.rem(modulus);
        for i in (0..exp.bits()).rev() {
            acc = acc.mul(&acc).rem(modulus);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(modulus);
            }
        }
        acc
    }

    /// Computes the multiplicative inverse of `self` modulo `modulus`, if
    /// `gcd(self, modulus) == 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid, tracking only the Bezout coefficient of `self`.
        // Coefficients are signed; we carry (magnitude, negative?) pairs.
        let mut r0 = self.rem(modulus);
        let mut r1 = modulus.clone();
        if r0.is_zero() {
            return None;
        }
        let mut t0 = (BigUint::one(), false);
        let mut t1 = (BigUint::zero(), false);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // (t0, t1) = (t1, t0 - q * t1)
            let qt1 = (q.mul(&t1.0), t1.1);
            let new_t = signed_sub(&t0, &qt1);
            r0 = std::mem::replace(&mut r1, r);
            t0 = std::mem::replace(&mut t1, new_t);
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(modulus);
        if neg && !mag.is_zero() {
            Some(modulus.sub(&mag))
        } else {
            Some(mag)
        }
    }

    /// Computes `gcd(self, other)` by the Euclidean algorithm.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = std::mem::replace(&mut b, r);
        }
        a
    }
}

/// `a - b` on (magnitude, negative?) signed pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(&b.0), false),  // a + |b|
        (true, false) => (a.0.add(&b.0), true),   // -(|a| + b)
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            // -|a| + |b|
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    /// Square-and-multiply with explicit reduction after every product.
    fn naive_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(base).rem(m);
            }
        }
        acc
    }

    #[test]
    fn modpow_small() {
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        assert_eq!(big(3).modpow(&big(0), &big(7)), big(1));
        assert_eq!(big(5).modpow(&big(117), &big(19)), big(1)); // 5^18 ≡ 1, 117 = 6*18+9 → 5^9 mod 19
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p.
        let p = big(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(big(a).modpow(&p.sub(&big(1)), &p), big(1));
        }
    }

    #[test]
    fn modpow_even_modulus() {
        assert_eq!(big(7).modpow(&big(3), &big(10)), big(3)); // 343 mod 10
        assert_eq!(big(7).modpow(&big(3), &big(1)), BigUint::zero());
    }

    #[test]
    fn modpow_multi_limb() {
        // Check Montgomery against the naive path on a multi-limb odd modulus.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let base = BigUint::from_limbs(vec![0xdead_beef, 0xcafe]);
        let exp = big(65537);
        assert_eq!(base.modpow(&exp, &m), naive_modpow(&base, &exp, &m));
    }

    /// Deterministic pseudo-random limbs for exponentiation tests
    /// (splitmix64 — no RNG dependency inside the bignum module).
    fn mix_limbs(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn windowed_pow_matches_binary() {
        let mut m_limbs = mix_limbs(1, 4);
        m_limbs[0] |= 1; // odd modulus
        let m = BigUint::from_limbs(m_limbs);
        let ctx = Montgomery::new(&m).expect("odd modulus");
        for seed in 2..8u64 {
            let base = BigUint::from_limbs(mix_limbs(seed, 3));
            // Exponents straddling the window threshold, including
            // multi-limb ones with long zero runs.
            for exp in [
                BigUint::from(65537u64),
                BigUint::from_limbs(mix_limbs(seed + 100, 2)),
                BigUint::from_limbs(vec![1, 0, 0, 0x8000_0000_0000_0000]),
                BigUint::from_limbs(mix_limbs(seed + 200, 8)),
            ] {
                assert_eq!(
                    ctx.pow(&base, &exp),
                    ctx.pow_binary(&base, &exp),
                    "windowed and binary exponentiation diverged (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn windowed_pow_costs_fewer_limb_ops_on_long_exponents() {
        let mut m_limbs = mix_limbs(9, 8);
        m_limbs[0] |= 1;
        let m = BigUint::from_limbs(m_limbs);
        let ctx = Montgomery::new(&m).expect("odd modulus");
        let base = BigUint::from_limbs(mix_limbs(10, 7));
        let exp = BigUint::from_limbs(mix_limbs(11, 8)); // ~512-bit exponent
        let before = crate::costs::snapshot();
        let _ = ctx.pow_binary(&base, &exp);
        let binary = crate::costs::snapshot().since(before).rsa_limb_ops;
        let before = crate::costs::snapshot();
        let _ = ctx.pow(&base, &exp);
        let windowed = crate::costs::snapshot().since(before).rsa_limb_ops;
        // Expected ≈ 649/771 ≈ 0.84 of the binary cost for a random
        // 512-bit exponent; assert a conservative corridor.
        assert!(windowed < binary, "windowed ({windowed}) not cheaper than binary ({binary})");
        assert!(
            windowed * 100 <= binary * 92 && windowed * 100 >= binary * 70,
            "windowed/binary ratio out of corridor: {windowed}/{binary}"
        );
        // Short exponents take the binary path, so the table is never
        // wasted on e = 65537.
        let e = BigUint::from(65537u64);
        let before = crate::costs::snapshot();
        let _ = ctx.pow(&base, &e);
        let short_windowed = crate::costs::snapshot().since(before).rsa_limb_ops;
        let before = crate::costs::snapshot();
        let _ = ctx.pow_binary(&base, &e);
        let short_binary = crate::costs::snapshot().since(before).rsa_limb_ops;
        assert_eq!(short_windowed, short_binary, "short exponents must use the binary path");
    }

    #[test]
    fn inv64_works() {
        for m in [1u64, 3, 5, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def1] {
            assert_eq!(m.wrapping_mul(inv64(m)), 1);
        }
    }

    #[test]
    fn modinv_basic() {
        let inv = big(3).modinv(&big(7)).unwrap();
        assert_eq!(inv, big(5)); // 3*5 = 15 ≡ 1 mod 7
        assert_eq!(big(2).modinv(&big(4)), None); // gcd 2
        assert_eq!(big(0).modinv(&big(7)), None);
    }

    #[test]
    fn modinv_round_trip() {
        let m = big(1_000_000_007);
        for a in [2u64, 3, 999, 123_456_789] {
            let inv = big(a).modinv(&m).unwrap();
            assert_eq!(big(a).mul(&inv).rem(&m), big(1));
        }
    }

    #[test]
    fn modinv_multi_limb() {
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let a = BigUint::from_limbs(vec![0x1111_2222, 0x42]);
        let inv = a.modinv(&m).unwrap();
        assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn montgomery_round_trip() {
        // x^1 is one trip into the domain and back out.
        let m = BigUint::from_limbs(vec![0xffff_ffff_ffff_ff61, 0x1234_5678_9abc_def1]);
        let ctx = Montgomery::new(&m).expect("odd modulus");
        let v = BigUint::from_limbs(vec![0xabcdef, 0x77]);
        assert_eq!(ctx.pow_binary(&v, &big(1)), v);
        assert_eq!(ctx.modulus(), &m);
    }

    #[test]
    fn montgomery_rejects_even() {
        assert!(Montgomery::new(&big(10)).is_none());
        assert!(Montgomery::new(&BigUint::zero()).is_none());
    }

    #[test]
    fn wide_odd_modulus_takes_generic_path() {
        // 33 limbs: no kernel width, so modpow reduces generically.
        let mut m_limbs = mix_limbs(21, 33);
        m_limbs[0] |= 1;
        let m = BigUint::from_limbs(m_limbs);
        assert!(Montgomery::new(&m).is_none());
        let base = BigUint::from_limbs(mix_limbs(22, 33));
        let exp = big(65537);
        assert_eq!(base.modpow(&exp, &m), naive_modpow(&base, &exp, &m));
    }
}

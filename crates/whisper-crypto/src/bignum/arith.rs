// The reference algorithms (FIPS 197, TAOCP 4.3.1, CIOS) are specified
// index-wise; keeping the indices makes them auditable against the spec.
#![allow(clippy::needless_range_loop)]

//! Basic arithmetic on [`BigUint`]: addition, subtraction, multiplication,
//! shifts and Knuth Algorithm D division.

use super::BigUint;

impl BigUint {
    /// Returns `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u128 = 0;
        for i in 0..long.len() {
            let s = long[i] as u128 + *short.get(i).unwrap_or(&0) as u128 + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Returns `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i128 = 0;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i128 - *other.limbs.get(i).unwrap_or(&0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Returns `self * other` (schoolbook, O(n²) in the limb count; RSA
    /// operands are at most 32 limbs wide).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let s = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = s as u64;
                carry = s >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let s = out[k] as u128 + carry;
                out[k] = s as u64;
                carry = s >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Returns `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Returns `self >> bits` (bits shifted out are lost).
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// Uses short division for single-limb divisors and Knuth Algorithm D
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            return (BigUint::from_limbs(q), BigUint::from(rem as u64));
        }
        self.div_rem_knuth(divisor)
    }

    /// Returns `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        const B: u128 = 1u128 << 64;
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let vn = divisor.shl(shift).limbs;
        let mut un = self.shl(shift).limbs;
        un.push(0); // extra high limb for the algorithm
        let n = vn.len();
        let m = un.len() - 1 - n;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= B
                || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= B {
                    break;
                }
            }

            // Multiply-and-subtract: un[j..j+n+1] -= qhat * vn.
            let mut k: i128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128;
                let t = un[i + j] as i128 - k - (p as u64) as i128;
                un[i + j] = t as u64;
                k = (p >> 64) as i128 - (t >> 64);
            }
            let t = un[j + n] as i128 - k;
            un[j + n] = t as u64;

            if t < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let rem = BigUint::from_limbs(un[..n].to_vec()).shr(shift);
        (BigUint::from_limbs(q), rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn add_with_carry() {
        let a = BigUint::from(u64::MAX);
        let b = big(1);
        assert_eq!(a.add(&b), BigUint::from_limbs(vec![0, 1]));
    }

    #[test]
    fn add_zero_identity() {
        let a = big(12345);
        assert_eq!(a.add(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().add(&a), a);
    }

    #[test]
    fn sub_with_borrow() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = big(1);
        assert_eq!(a.sub(&b), BigUint::from(u64::MAX));
    }

    #[test]
    fn checked_sub_underflow() {
        assert_eq!(big(3).checked_sub(&big(4)), None);
        assert_eq!(big(4).checked_sub(&big(4)), Some(BigUint::zero()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        big(1).sub(&big(2));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(big(6).mul(&big(7)), big(42));
        assert_eq!(big(0).mul(&big(7)), BigUint::zero());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let m = BigUint::from(u64::MAX);
        let sq = m.mul(&m);
        assert_eq!(sq, BigUint::from_limbs(vec![1, u64::MAX - 1]));
    }

    #[test]
    fn shifts() {
        let a = big(1);
        assert_eq!(a.shl(64), BigUint::from_limbs(vec![0, 1]));
        assert_eq!(a.shl(65).shr(65), a);
        assert_eq!(a.shr(1), BigUint::zero());
        let b = big(0b1011);
        assert_eq!(b.shl(3), big(0b1011000));
        assert_eq!(b.shr(2), big(0b10));
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
    }

    #[test]
    fn div_rem_smaller_dividend() {
        let (q, r) = big(3).div_rem(&big(10));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, big(3));
    }

    #[test]
    fn div_rem_multi_limb() {
        // (a * b + r) / b == a with remainder r for multi-limb values.
        let a = BigUint::from_limbs(vec![0xdeadbeef, 0x12345678, 0x1]);
        let b = BigUint::from_limbs(vec![0xcafebabe, 0x9]);
        let r = BigUint::from_limbs(vec![0x42, 0x3]);
        assert!(r < b);
        let n = a.mul(&b).add(&r);
        let (q, rem) = n.div_rem(&b);
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn div_rem_triggers_addback_path() {
        // A case engineered to exercise the rare add-back branch:
        // dividend = B^2 * (B/2) where divisor = (B/2 + 1) * B - 1 style
        // values; we simply check q*d + r == n and r < d on many awkward
        // shapes instead of asserting the branch itself.
        let b_half = 1u64 << 63;
        let d = BigUint::from_limbs(vec![u64::MAX, b_half]);
        let n = BigUint::from_limbs(vec![0, 0, b_half]);
        let (q, r) = n.div_rem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), n);
    }
}

//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] stores magnitudes as little-endian `u64` limbs with no
//! trailing zero limbs (zero is the empty limb vector). The module provides
//! everything RSA needs: schoolbook multiplication, Knuth Algorithm D
//! division, Montgomery-accelerated modular exponentiation, modular
//! inverses, Miller–Rabin primality testing and random prime generation.
//!
//! ```
//! use whisper_crypto::bignum::BigUint;
//!
//! let a = BigUint::from(10u64);
//! let b = BigUint::from(3u64);
//! let (q, r) = a.div_rem(&b);
//! assert_eq!(q, BigUint::from(3u64));
//! assert_eq!(r, BigUint::from(1u64));
//! ```

mod arith;
mod modular;
mod prime;

pub use modular::Montgomery;
pub use prime::{gen_prime, is_probable_prime};

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Limbs are little-endian `u64`s and the representation is always
/// normalized: the most significant limb, if any, is non-zero.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            Some(&l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Constructs a value from big-endian bytes. Leading zero bytes are fine.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if cur != 0 {
            limbs.push(cur);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes with no leading zeros (zero -> empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the top limb only.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self})")
    }
}

impl fmt::Display for BigUint {
    /// Hexadecimal rendering (decimal conversion is not needed by the
    /// library and would require repeated division).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let v = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(v.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        let v = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34]);
        assert_eq!(v.to_u64(), Some(0x1234));
        assert_eq!(v.to_bytes_be(), vec![0x12, 0x34]);
    }

    #[test]
    fn zero_round_trip() {
        assert!(BigUint::from_bytes_be(&[]).is_zero());
        assert!(BigUint::from_bytes_be(&[0, 0]).is_zero());
        assert!(BigUint::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from(0xABCDu64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0xAB, 0xCD]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small() {
        BigUint::from(0xABCDu64).to_bytes_be_padded(1);
    }

    #[test]
    fn bit_length() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from(0x8000_0000_0000_0000u64).bits(), 64);
        let big = BigUint::from_limbs(vec![0, 1]);
        assert_eq!(big.bits(), 65);
    }

    #[test]
    fn bit_access() {
        let v = BigUint::from(0b1010u64);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(640));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from_limbs(vec![0, 1]); // 2^64
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn evenness() {
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert!(BigUint::from(2u64).is_even());
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from(0xdeadbeefu64).to_string(), "deadbeef");
        let big = BigUint::from_limbs(vec![0x1, 0xab]);
        assert_eq!(big.to_string(), "ab0000000000000001");
    }
}

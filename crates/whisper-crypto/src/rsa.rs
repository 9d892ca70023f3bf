//! RSA key generation, encryption and signatures.
//!
//! The construction follows PKCS#1 v1.5 block formatting (type 1 blocks for
//! signatures, type 2 for encryption), with one simplification: signatures
//! embed the raw SHA-256 digest rather than an ASN.1 `DigestInfo`
//! structure. Private-key operations use the Chinese Remainder Theorem.
//!
//! # Key sizes
//!
//! The WHISPER paper uses 1 KB public keys on the wire. Reproducing
//! thousand-node experiments with full-size keys would spend most of the
//! wall clock in key *generation*, so [`RsaKeySize`] offers "sim-grade"
//! short moduli (384/512 bits) for large simulations next to the standard
//! 1024/2048-bit sizes used by the crypto cost benchmarks (Table II).
//!
//! ```
//! use whisper_crypto::rsa::{KeyPair, RsaKeySize};
//! use whisper_rand::SeedableRng;
//!
//! # fn main() -> Result<(), whisper_crypto::CryptoError> {
//! let mut rng = whisper_rand::rngs::StdRng::seed_from_u64(1);
//! let kp = KeyPair::generate(RsaKeySize::Sim384, &mut rng);
//! let ct = kp.public().encrypt(b"hi", &mut rng)?;
//! assert_eq!(kp.decrypt(&ct)?, b"hi");
//! # Ok(())
//! # }
//! ```

use crate::bignum::{gen_prime, BigUint, Montgomery};
use crate::sha256::Sha256;
use crate::CryptoError;
use whisper_rand::Rng;

/// Supported RSA modulus sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RsaKeySize {
    /// 384-bit modulus — sim-grade, fast keygen, fits hybrid session keys.
    Sim384,
    /// 512-bit modulus — sim-grade.
    Sim512,
    /// 1024-bit modulus — the realistic size used for CPU-cost experiments.
    Std1024,
    /// 2048-bit modulus.
    Std2048,
}

impl RsaKeySize {
    /// Modulus size in bits.
    pub fn bits(self) -> usize {
        match self {
            RsaKeySize::Sim384 => 384,
            RsaKeySize::Sim512 => 512,
            RsaKeySize::Std1024 => 1024,
            RsaKeySize::Std2048 => 2048,
        }
    }

    /// Modulus size in bytes.
    pub fn bytes(self) -> usize {
        self.bits() / 8
    }
}

/// An RSA public key `(n, e)`.
///
/// The canonical wire serialization (`len(n) ‖ n ‖ len(e) ‖ e`) is
/// computed once at construction and cached, so the hot gossip paths
/// that ship the same unchanged key on every exchange never re-serialize
/// it — see [`wire_bytes`](Self::wire_bytes).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    k: usize, // modulus length in bytes
    /// Cached canonical serialization; a pure function of `(n, e)`, so
    /// the derived `PartialEq`/`Hash` stay consistent.
    wire: Vec<u8>,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({} bits, fp {:02x?})", self.n.bits(), self.fingerprint())
    }
}

/// An RSA key pair with CRT acceleration parameters.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    /// Montgomery contexts of the CRT primes, built once per key.
    p: Montgomery,
    q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "KeyPair({} bits)", self.public.n.bits())
    }
}

const PUBLIC_EXPONENT: u64 = 65537;
/// Minimum PKCS#1 v1.5 padding overhead: 2 header bytes, >= 8 padding
/// bytes, 1 separator.
const PAD_OVERHEAD: usize = 11;

/// Whether `bits` is the modulus width of one of the [`RsaKeySize`]s.
/// Smaller moduli leave no room for PKCS#1 padding or a signature block.
fn is_key_width(bits: usize) -> bool {
    [RsaKeySize::Sim384, RsaKeySize::Sim512, RsaKeySize::Std1024, RsaKeySize::Std2048]
        .iter()
        .any(|size| size.bits() == bits)
}

impl KeyPair {
    /// Generates a fresh key pair of the given size.
    pub fn generate<R: Rng>(size: RsaKeySize, rng: &mut R) -> Self {
        let half = size.bits() / 2;
        loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(half, rng);
            if let Some(kp) = Self::from_primes(p, q, BigUint::from(PUBLIC_EXPONENT)) {
                debug_assert_eq!(kp.public.n.bits(), size.bits());
                return kp;
            }
        }
    }

    /// Derives the key pair of primes `p`, `q` and public exponent `e`:
    /// the private CRT exponents and the per-prime Montgomery contexts.
    /// Returns `None` if `p == q`, either prime is even or wider than
    /// 2048 bits, `e` is not invertible modulo φ(n), or the modulus is not
    /// one of the [`RsaKeySize`] widths.
    fn from_primes(p: BigUint, q: BigUint, e: BigUint) -> Option<Self> {
        if p == q {
            return None;
        }
        let (p_ctx, q_ctx) = (Montgomery::new(&p)?, Montgomery::new(&q)?);
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let phi = p1.mul(&q1);
        let d = e.modinv(&phi)?;
        let n = p.mul(&q);
        if !is_key_width(n.bits()) {
            return None;
        }
        let dp = d.rem(&p1);
        let dq = d.rem(&q1);
        // p > q is not required: the CRT recombination computes
        // (m1 - m2) modulo p.
        let qinv = q.modinv(&p)?;
        let k = n.bits() / 8;
        Some(KeyPair {
            public: PublicKey::assemble(n, e, k),
            p: p_ctx,
            q: q_ctx,
            dp,
            dq,
            qinv,
        })
    }

    /// The public half of this key pair.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Raw CRT-accelerated private-key operation `c^d mod n`.
    ///
    /// Elapsed time is accounted in [`crate::costs`].
    fn private_op(&self, c: &BigUint) -> BigUint {
        let started = std::time::Instant::now();
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let m1 = self.p.pow(c, &self.dp);
        let m2 = self.q.pow(c, &self.dq);
        // h = qinv * (m1 - m2) mod p
        let m2_mod_p = m2.rem(p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(p).sub(&m2_mod_p)
        };
        let h = self.qinv.mul(&diff).rem(p);
        let out = m2.add(&h.mul(q));
        crate::costs::add_rsa(started.elapsed().as_nanos() as u64);
        out
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext produced by
    /// [`PublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextOutOfRange`] if the ciphertext does
    /// not fit the modulus and [`CryptoError::InvalidPadding`] if the
    /// decrypted block is not well-formed (e.g. the ciphertext was produced
    /// for a different key).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::CiphertextOutOfRange);
        }
        let m = self.private_op(&c);
        let em = m.to_bytes_be_padded(self.public.k);
        // EM = 0x00 0x02 PS 0x00 M
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::InvalidPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            // Padding string must be at least 8 bytes.
            return Err(CryptoError::InvalidPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Serializes the full key pair as `len(p) ‖ p ‖ len(q) ‖ q ‖ len(e) ‖ e`
    /// (two-byte big-endian length prefixes). The CRT parameters are
    /// recomputed on load, so the encoding stays minimal (~3/2 the modulus
    /// size). Used by the PPSS group journal to persist a leader's group
    /// key across crash-restart; never sent on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = self.p.modulus().to_bytes_be();
        let q = self.q.modulus().to_bytes_be();
        let e = self.public.e.to_bytes_be();
        let mut out = Vec::with_capacity(6 + p.len() + q.len() + e.len());
        for part in [&p, &q, &e] {
            out.extend_from_slice(&(part.len() as u16).to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// Parses a key pair serialized by [`to_bytes`](Self::to_bytes),
    /// rebuilding the CRT acceleration parameters. Returns `None` on
    /// malformed input (wrong framing, non-invertible exponent, or a
    /// modulus whose bit length is not a whole number of bytes).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        fn take<'a>(bytes: &mut &'a [u8]) -> Option<&'a [u8]> {
            let len = u16::from_be_bytes([*bytes.first()?, *bytes.get(1)?]) as usize;
            let part = bytes.get(2..2 + len)?;
            *bytes = &bytes[2 + len..];
            Some(part)
        }
        let mut rest = bytes;
        let p = BigUint::from_bytes_be(take(&mut rest)?);
        let q = BigUint::from_bytes_be(take(&mut rest)?);
        let e = BigUint::from_bytes_be(take(&mut rest)?);
        if !rest.is_empty() {
            return None;
        }
        Self::from_primes(p, q, e)
    }

    /// Signs `message` (SHA-256 digest in a PKCS#1 v1.5 type-1 block).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let digest = Sha256::digest(message);
        let k = self.public.k;
        // EM = 0x00 0x01 0xFF...0xFF 0x00 digest
        let mut em = vec![0xFFu8; k];
        em[0] = 0x00;
        em[1] = 0x01;
        em[k - 33] = 0x00;
        em[k - 32..].copy_from_slice(&digest);
        let m = BigUint::from_bytes_be(&em);
        self.private_op(&m).to_bytes_be_padded(k)
    }
}

impl PublicKey {
    /// Builds a key from its parts, computing the cached canonical wire
    /// serialization. Every construction path funnels through here so the
    /// cache can never disagree with a fresh encode.
    fn assemble(n: BigUint, e: BigUint, k: usize) -> PublicKey {
        let n_bytes = n.to_bytes_be();
        let e_bytes = e.to_bytes_be();
        let mut wire = Vec::with_capacity(4 + n_bytes.len() + e_bytes.len());
        wire.extend_from_slice(&(n_bytes.len() as u16).to_be_bytes());
        wire.extend_from_slice(&n_bytes);
        wire.extend_from_slice(&(e_bytes.len() as u16).to_be_bytes());
        wire.extend_from_slice(&e_bytes);
        PublicKey { n, e, k, wire }
    }

    /// Maximum plaintext size for a single [`encrypt`](Self::encrypt) call.
    pub fn max_payload(&self) -> usize {
        self.k - PAD_OVERHEAD
    }

    /// Modulus length in bytes.
    pub fn modulus_bytes(&self) -> usize {
        self.k
    }

    /// Encrypts `message` with PKCS#1 v1.5 type-2 padding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if `message` exceeds
    /// [`max_payload`](Self::max_payload).
    pub fn encrypt<R: Rng>(&self, message: &[u8], rng: &mut R) -> Result<Vec<u8>, CryptoError> {
        if message.len() > self.max_payload() {
            return Err(CryptoError::MessageTooLong {
                message_len: message.len(),
                max_len: self.max_payload(),
            });
        }
        let mut em = vec![0u8; self.k];
        em[1] = 0x02;
        let ps_len = self.k - 3 - message.len();
        for b in &mut em[2..2 + ps_len] {
            *b = rng.gen_range(1..=255u8);
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(message);
        let m = BigUint::from_bytes_be(&em);
        let started = std::time::Instant::now();
        let c = m.modpow(&self.e, &self.n);
        crate::costs::add_rsa(started.elapsed().as_nanos() as u64);
        Ok(c.to_bytes_be_padded(self.k))
    }

    /// Verifies a signature produced by [`KeyPair::sign`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if the signature does not
    /// match `message` under this key.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let started = std::time::Instant::now();
        let v = s.modpow(&self.e, &self.n);
        crate::costs::add_rsa(started.elapsed().as_nanos() as u64);
        let em = v.to_bytes_be_padded(self.k);
        if em[0] != 0x00 || em[1] != 0x01 {
            return Err(CryptoError::BadSignature);
        }
        if em[2..self.k - 33].iter().any(|&b| b != 0xFF) || em[self.k - 33] != 0x00 {
            return Err(CryptoError::BadSignature);
        }
        let digest = Sha256::digest(message);
        if em[self.k - 32..] != digest {
            return Err(CryptoError::BadSignature);
        }
        Ok(())
    }

    /// Serializes the key as `len(n) ‖ n ‖ len(e) ‖ e` (two-byte
    /// big-endian length prefixes). Returns a copy of the cached blob;
    /// use [`wire_bytes`](Self::wire_bytes) to avoid the allocation.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.wire.clone()
    }

    /// The cached canonical serialization, borrowed. Writers embedding
    /// the key in a wire message can copy straight from this slice
    /// instead of re-serializing the (unchanged) key on every send.
    pub fn wire_bytes(&self) -> &[u8] {
        &self.wire
    }

    /// Parses a key serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// Keys arrive from untrusted peers, so only keys [`KeyPair::generate`]
    /// can produce are accepted: an odd modulus of one of the
    /// [`RsaKeySize`] widths and the public exponent 65537. Anything else
    /// (a tiny modulus that would break the padding arithmetic, a huge
    /// exponent that would make every encryption expensive) is `None`.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let n_len = u16::from_be_bytes([*bytes.first()?, *bytes.get(1)?]) as usize;
        let n_bytes = bytes.get(2..2 + n_len)?;
        let rest = &bytes[2 + n_len..];
        let e_len = u16::from_be_bytes([*rest.first()?, *rest.get(1)?]) as usize;
        let e_bytes = rest.get(2..2 + e_len)?;
        let n = BigUint::from_bytes_be(n_bytes);
        let bits = n.bits();
        if !is_key_width(bits) || n.is_even() {
            return None;
        }
        let e = BigUint::from_bytes_be(e_bytes);
        if e.to_u64() != Some(PUBLIC_EXPONENT) {
            return None;
        }
        Some(PublicKey::assemble(n, e, bits / 8))
    }

    /// Short (8-byte) SHA-256-based fingerprint, used as a compact key
    /// identifier in view entries.
    pub fn fingerprint(&self) -> [u8; 8] {
        let digest = Sha256::digest(&self.wire);
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&digest[..8]);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    fn keypair() -> KeyPair {
        KeyPair::generate(RsaKeySize::Sim384, &mut rng())
    }

    /// The `len(n) ‖ n ‖ len(e) ‖ e` wire form of an arbitrary `(n, e)`.
    fn encode_key(n: &BigUint, e: &BigUint) -> Vec<u8> {
        let (n, e) = (n.to_bytes_be(), e.to_bytes_be());
        let mut out = Vec::with_capacity(4 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u16).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u16).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut r = rng();
        let kp = keypair();
        for msg in [&b""[..], b"x", b"hello world", &[0u8; 37]] {
            let ct = kp.public().encrypt(msg, &mut r).unwrap();
            assert_eq!(ct.len(), kp.public().modulus_bytes());
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn message_too_long_rejected() {
        let mut r = rng();
        let kp = keypair();
        let too_long = vec![1u8; kp.public().max_payload() + 1];
        assert!(matches!(
            kp.public().encrypt(&too_long, &mut r),
            Err(CryptoError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn decrypt_with_wrong_key_fails() {
        let mut r = rng();
        let kp1 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let kp2 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let ct = kp1.public().encrypt(b"secret", &mut r).unwrap();
        assert!(kp2.decrypt(&ct).is_err());
    }

    #[test]
    fn ciphertext_out_of_range_rejected() {
        let kp = keypair();
        let huge = vec![0xFF; kp.public().modulus_bytes() + 1];
        assert_eq!(kp.decrypt(&huge), Err(CryptoError::CiphertextOutOfRange));
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair();
        let sig = kp.sign(b"the membership stays secret");
        kp.public().verify(b"the membership stays secret", &sig).unwrap();
    }

    #[test]
    fn tampered_message_fails_verification() {
        let kp = keypair();
        let sig = kp.sign(b"original");
        assert_eq!(
            kp.public().verify(b"tampered", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let kp = keypair();
        let mut sig = kp.sign(b"original");
        sig[10] ^= 1;
        assert_eq!(
            kp.public().verify(b"original", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn signature_from_other_key_fails() {
        let mut r = rng();
        let kp1 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let kp2 = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let kp = keypair();
        let bytes = kp.public().to_bytes();
        let parsed = PublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public());
        assert_eq!(parsed.fingerprint(), kp.public().fingerprint());
    }

    #[test]
    fn cached_wire_blob_matches_fresh_encode() {
        // The cached blob must equal a from-scratch serialization of
        // (n, e) on every construction path: generate, parse, and
        // key-pair reload.
        let kp = keypair();
        let fresh = encode_key(&kp.public().n, &kp.public().e);
        assert_eq!(kp.public().wire_bytes(), fresh.as_slice());
        assert_eq!(kp.public().to_bytes(), kp.public().wire_bytes());
        let parsed = PublicKey::from_bytes(&kp.public().to_bytes()).unwrap();
        assert_eq!(parsed.wire_bytes(), kp.public().wire_bytes());
        let reloaded = KeyPair::from_bytes(&kp.to_bytes()).unwrap();
        assert_eq!(reloaded.public().wire_bytes(), kp.public().wire_bytes());
    }

    #[test]
    fn keypair_serialization_round_trip() {
        let kp = keypair();
        let bytes = kp.to_bytes();
        let parsed = KeyPair::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.public(), kp.public());
        // The rebuilt CRT parameters must actually work.
        let sig = parsed.sign(b"journal replay");
        kp.public().verify(b"journal replay", &sig).unwrap();
        let mut r = rng();
        let ct = kp.public().encrypt(b"secret", &mut r).unwrap();
        assert_eq!(parsed.decrypt(&ct).unwrap(), b"secret");
    }

    #[test]
    fn keypair_from_garbage_is_none() {
        assert!(KeyPair::from_bytes(&[]).is_none());
        assert!(KeyPair::from_bytes(&[0x00, 0x02, 0x01]).is_none()); // truncated
        let mut bytes = keypair().to_bytes();
        bytes.push(0); // trailing garbage
        assert!(KeyPair::from_bytes(&bytes).is_none());
        // An even "prime" has no Montgomery context: rejected, not a panic
        // (p = 2, q = 67, e = 5 is otherwise a well-formed 8-bit key).
        assert!(KeyPair::from_bytes(&[0, 1, 2, 0, 1, 67, 0, 1, 5]).is_none());
        // p = 3, q = 67, e = 5 is a valid 8-bit key pair, far too narrow to
        // sign or encrypt with.
        assert!(KeyPair::from_bytes(&[0, 1, 3, 0, 1, 67, 0, 1, 5]).is_none());
    }

    #[test]
    fn public_key_from_garbage_is_none() {
        assert!(PublicKey::from_bytes(&[]).is_none());
        assert!(PublicKey::from_bytes(&[0xFF]).is_none());
        assert!(PublicKey::from_bytes(&[0x00, 0x10, 0x01]).is_none()); // truncated
        // An 8-bit modulus leaves no room for PKCS#1 padding.
        assert!(PublicKey::from_bytes(&[0, 1, 0xFF, 0, 1, 3]).is_none());
        let kp = keypair();
        let key = kp.public();
        assert!(PublicKey::from_bytes(&encode_key(&key.n, &key.e)).is_some());
        // A 4 KiB exponent would make every encryption cost milliseconds.
        let huge_e = BigUint::from_bytes_be(&[0xFF; 4096]);
        assert!(PublicKey::from_bytes(&encode_key(&key.n, &huge_e)).is_none());
        assert!(PublicKey::from_bytes(&encode_key(&key.n, &BigUint::from(3u64))).is_none());
        // Byte-aligned widths that are not a key size: 264 bits (k = 33,
        // too short for a signature block) and 4096 bits.
        let odd_264 = BigUint::from_bytes_be(&[0x81; 33]);
        assert!(PublicKey::from_bytes(&encode_key(&odd_264, &key.e)).is_none());
        let odd_4096 = BigUint::from_bytes_be(&[0x81; 512]);
        assert!(PublicKey::from_bytes(&encode_key(&odd_4096, &key.e)).is_none());
        // An even modulus is never an RSA key.
        let even = key.n.add(&BigUint::one());
        assert!(PublicKey::from_bytes(&encode_key(&even, &key.e)).is_none());
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let mut r = rng();
        let a = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        let b = KeyPair::generate(RsaKeySize::Sim384, &mut r);
        assert_ne!(a.public().fingerprint(), b.public().fingerprint());
    }

    #[test]
    fn sim512_works_too() {
        let mut r = rng();
        let kp = KeyPair::generate(RsaKeySize::Sim512, &mut r);
        let ct = kp.public().encrypt(b"512-bit modulus", &mut r).unwrap();
        assert_eq!(kp.decrypt(&ct).unwrap(), b"512-bit modulus");
        assert_eq!(kp.public().modulus_bytes(), 64);
    }

    #[test]
    fn key_sizes_report_bits() {
        assert_eq!(RsaKeySize::Sim384.bits(), 384);
        assert_eq!(RsaKeySize::Std1024.bytes(), 128);
    }

    #[test]
    fn debug_output_hides_private_material() {
        let kp = keypair();
        let s = format!("{kp:?}");
        assert!(s.contains("384"));
        assert!(!s.contains("dp"));
    }

    #[test]
    fn rsa_limb_ops_are_pinned() {
        // The deterministic cost model (traces, Table II, Fig. 7) counts
        // these units; a change to the multiplication schedule or to what
        // `n` means in `muls × n²` shows here first.
        fn limb_ops(f: impl FnOnce()) -> u64 {
            let before = crate::costs::snapshot();
            f();
            crate::costs::snapshot().since(before).rsa_limb_ops
        }
        for (size, pinned) in [
            (RsaKeySize::Sim384, [792, 4527, 4527, 792]),
            (RsaKeySize::Sim512, [1408, 10608, 10608, 1408]),
        ] {
            let mut r = StdRng::seed_from_u64(7);
            let kp = KeyPair::generate(size, &mut r);
            let mut ct = Vec::new();
            let mut sig = Vec::new();
            let got = [
                limb_ops(|| ct = kp.public().encrypt(b"pinned cost", &mut r).unwrap()),
                limb_ops(|| assert_eq!(kp.decrypt(&ct).unwrap(), b"pinned cost")),
                limb_ops(|| sig = kp.sign(b"pinned cost")),
                limb_ops(|| kp.public().verify(b"pinned cost", &sig).unwrap()),
            ];
            assert_eq!(got, pinned, "{size:?}: [encrypt, decrypt, sign, verify] limb ops");
        }
    }
}

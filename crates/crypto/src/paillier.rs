//! The Paillier public-key cryptosystem (Paillier, Eurocrypt '99).
//!
//! Parameters follow the paper's experimental setup: a 1024-bit modulus
//! `n = p·q` by default (two 512-bit primes), generator `g = n + 1` (which
//! makes encryption one modular exponentiation), and CRT-accelerated
//! decryption.
//!
//! *Message space*: `Z_n`. Signed values are encoded by wrapping modulo `n`
//! (values above `n/2` decode as negative), which is what lets the secure
//! distance protocol ship `Enc(−2r)`.

use crate::CryptoError;
use pprl_bignum::{prime, random_below, BigUint, Montgomery};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A Paillier ciphertext: an element of `Z*_{n²}`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext(pub(crate) BigUint);

impl Ciphertext {
    /// Raw access to the underlying group element.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Rebuilds a ciphertext from a raw group element (validated on use).
    pub fn from_biguint(v: BigUint) -> Self {
        Ciphertext(v)
    }
}

/// Paillier public key: the modulus `n` plus precomputed helpers.
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: BigUint,
    n2: BigUint,
    /// `n/2`, the signed-decoding threshold.
    half_n: BigUint,
    /// Montgomery context for `n²` — reused by every encryption and
    /// homomorphic scalar multiplication.
    mont_n2: Montgomery,
    /// Optional pre-filled stock of `rⁿ mod n²` randomizers. Shared by
    /// reference: clones of this key (one per SMC worker) draw from the
    /// same pool. `None` keeps the legacy compute-inline path.
    pool: Option<std::sync::Arc<crate::pool::RandomizerPool>>,
}

impl PublicKey {
    fn new(n: BigUint) -> Result<Self, CryptoError> {
        let n2 = n.square();
        let half_n = n.shr(1);
        // An even (or trivial) modulus has no Montgomery context. This is
        // reachable from the wire via `from_modulus`, so it must be an
        // error, not a panic: a malicious key broadcast must not abort us.
        let mont_n2 = Montgomery::new(&n2)
            .map_err(|_| CryptoError::InvalidKey("modulus must be odd and > 1".into()))?;
        Ok(PublicKey {
            n,
            n2,
            half_n,
            mont_n2,
            pool: None,
        })
    }

    /// Rebuilds a public key from a transmitted modulus (the key broadcast
    /// carries only `n`; every helper is derivable from it). Fails on a
    /// degenerate modulus rather than trusting the sender.
    pub fn from_modulus(n: BigUint) -> Result<Self, CryptoError> {
        PublicKey::new(n)
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `n²`, the ciphertext-space modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.n2
    }

    /// Byte width of the fixed-width ciphertext wire encoding (the byte
    /// length of `n²`). Padding every ciphertext to this width keeps
    /// message sizes independent of the randomizer: no ciphertext-length
    /// side channel, and byte accounting that is reproducible run to run
    /// (randomizers from a pool encode to the same size as inline ones).
    pub fn ciphertext_width(&self) -> usize {
        self.ciphertext_bytes()
    }

    /// Bit length of the modulus (the "key size" in the paper's terms).
    pub fn key_bits(&self) -> usize {
        self.n.bits()
    }

    /// Byte length sufficient to hold any ciphertext (serialization).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n2.bits().div_ceil(8)
    }

    /// Encrypts a reduced plaintext `m ∈ Z_n`.
    ///
    /// With `g = n + 1`: `c = (1 + m·n) · rⁿ mod n²`. The `rⁿ` factor
    /// comes from the attached [`crate::RandomizerPool`] when one is
    /// present and non-empty (two modular products total); otherwise it
    /// is computed inline from `rng` (one exponentiation), exactly as
    /// before pooling existed.
    pub fn encrypt<R: RngCore + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::PlaintextTooLarge);
        }
        let rn = self.next_rn(rng);
        // (1 + m·n) mod n² — no reduction dance needed since m < n.
        let gm = &(m.mul(&self.n)) + &BigUint::one();
        let c = gm.mod_mul(&rn, &self.n2);
        Ok(Ciphertext(c))
    }

    /// Attaches a pre-filled randomizer pool. Fails if the pool was
    /// filled for a different modulus (its `rⁿ` values would be garbage
    /// here). Clones made *after* attachment share the pool.
    pub fn attach_pool(
        &mut self,
        pool: std::sync::Arc<crate::pool::RandomizerPool>,
    ) -> Result<(), CryptoError> {
        // pprl:allow(secret-taint): modulus equality is a public
        // configuration check (n is the public key), not key material
        if pool.modulus() != &self.n {
            return Err(CryptoError::InvalidKey(
                "randomizer pool was filled for a different modulus".into(),
            ));
        }
        self.pool = Some(pool);
        Ok(())
    }

    /// The attached randomizer pool, if any.
    pub fn pool(&self) -> Option<&std::sync::Arc<crate::pool::RandomizerPool>> {
        self.pool.as_ref()
    }

    /// A fresh randomizer factor `rⁿ mod n²` computed inline.
    pub(crate) fn fresh_rn<R: RngCore + ?Sized>(&self, rng: &mut R) -> BigUint {
        let r = self.sample_unit(rng);
        self.mont_n2.pow(&r, &self.n)
    }

    /// Next randomizer factor: pooled when available, inline otherwise.
    fn next_rn<R: RngCore + ?Sized>(&self, rng: &mut R) -> BigUint {
        // pprl:allow(secret-taint): the branch reads pool *occupancy*
        // (attached? empty?), never the randomizer values themselves
        match self.pool.as_ref().and_then(|p| p.take()) {
            Some(rn) => rn,
            None => self.fresh_rn(rng),
        }
    }

    /// Encrypts a `u64` plaintext. Fails only if the plaintext does not
    /// fit the modulus (possible with sub-64-bit test keys).
    pub fn encrypt_u64<R: RngCore + ?Sized>(
        &self,
        m: u64,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        self.encrypt(&BigUint::from_u64(m), rng)
    }

    /// Encrypts a signed value by wrapping into `Z_n`
    /// (negative `v` encodes as `n − |v|`).
    pub fn encrypt_i64<R: RngCore + ?Sized>(
        &self,
        v: i64,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        let m = self.encode_i64(v);
        self.encrypt(&m, rng)
    }

    /// Signed-to-`Z_n` encoding.
    pub fn encode_i64(&self, v: i64) -> BigUint {
        if v >= 0 {
            BigUint::from_u64(v as u64)
        } else {
            &self.n - &BigUint::from_u64(v.unsigned_abs())
        }
    }

    /// Samples a uniformly random unit `r ∈ Z*_n`.
    fn sample_unit<R: RngCore + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let r = random_below(rng, &self.n);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                return r;
            }
        }
    }

    /// Checks that a ciphertext is a valid element of `Z*_{n²}`. A unit
    /// mod `n²` is a unit mod `n`, so the gcd runs on `c mod n`: operands
    /// of equal width, half the ciphertext's.
    pub fn validate(&self, c: &Ciphertext) -> Result<(), CryptoError> {
        if c.0.is_zero() || c.0 >= self.n2 || !c.0.rem(&self.n).gcd(&self.n).is_one() {
            return Err(CryptoError::InvalidCiphertext);
        }
        Ok(())
    }

    // ----- homomorphic operations (paper §V-A requirements 1 and 2) -----

    /// `Enc(m₁) ⊕ₕ Enc(m₂) = Enc(m₁ + m₂)`: ciphertext multiplication.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext(c1.0.mod_mul(&c2.0, &self.n2))
    }

    /// `Enc(m) ⊕ₕ plain`: add a plaintext constant without encrypting it
    /// (multiplies by `g^k = 1 + k·n`).
    pub fn add_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        let gk = &(k.rem(&self.n).mul(&self.n)) + &BigUint::one();
        Ciphertext(c.0.mod_mul(&gk, &self.n2))
    }

    /// `k ⊗ₕ Enc(m) = Enc(k·m)`: ciphertext exponentiation.
    ///
    /// The scalar is a party's private record value in the secure
    /// distance protocol (Bob raises `Enc(−2r)` to his `s`), so the
    /// exponentiation uses the constant-time walk.
    pub fn mul_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(self.mont_n2.pow_ct(&c.0, &k.rem(&self.n)))
    }

    /// Scalar multiplication by a `u64`.
    pub fn mul_plain_u64(&self, c: &Ciphertext, k: u64) -> Ciphertext {
        self.mul_plain(c, &BigUint::from_u64(k))
    }

    /// `Enc(−m)` from `Enc(m)` (scalar multiply by `n − 1 ≡ −1`).
    pub fn negate(&self, c: &Ciphertext) -> Ciphertext {
        let minus_one = &self.n - &BigUint::one();
        self.mul_plain(c, &minus_one)
    }

    /// Fresh randomness: `c · rⁿ mod n²` re-randomizes without changing the
    /// plaintext. Bob applies this before forwarding `Enc((r−s)²)` so the
    /// querying party cannot correlate it with Alice's original ciphertexts.
    pub fn rerandomize<R: RngCore + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        let rn = self.next_rn(rng);
        Ciphertext(c.0.mod_mul(&rn, &self.n2))
    }

    /// Signed decoding threshold (`n / 2`).
    pub(crate) fn half_n(&self) -> &BigUint {
        &self.half_n
    }
}

/// Paillier private key with CRT decryption state.
///
/// Key limbs are zeroized on drop (best-effort: clones and intermediate
/// arithmetic buffers are outside its control, but the long-lived copy
/// is scrubbed).
// pprl:secret
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    p: BigUint,
    q: BigUint,
    p2: BigUint,
    q2: BigUint,
    /// The CRT decryption exponents `p − 1` and `q − 1`.
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// `hp = L_p(g^(p−1) mod p²)⁻¹ mod p`.
    hp: BigUint,
    /// `hq = L_q(g^(q−1) mod q²)⁻¹ mod q`.
    hq: BigUint,
    /// `p⁻¹ mod q` for CRT recombination.
    p_inv_q: BigUint,
    mont_p2: Montgomery,
    mont_q2: Montgomery,
}

// pprl:allow(secret-leak): redacting impl — reveals only the modulus size
impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateKey")
            .field("key_bits", &self.public.key_bits())
            .finish_non_exhaustive()
    }
}

impl Drop for PrivateKey {
    fn drop(&mut self) {
        self.p.zeroize();
        self.q.zeroize();
        self.p2.zeroize();
        self.q2.zeroize();
        self.p_minus_1.zeroize();
        self.q_minus_1.zeroize();
        self.hp.zeroize();
        self.hq.zeroize();
        self.p_inv_q.zeroize();
        self.mont_p2.zeroize();
        self.mont_q2.zeroize();
    }
}

impl PrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Decrypts to the reduced plaintext `m ∈ Z_n` using CRT: two
    /// half-width exponentiations mod `p²` and `q²` with half-length
    /// exponents (`bignum.pow_ct_1024_us` each at 1024 bits), where the
    /// direct route is one `λ`-exponentiation mod `n²`.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint, CryptoError> {
        self.public.validate(c)?;

        // m_p = L_p(c^(p−1) mod p²) · hp mod p. The exponents p−1 and
        // q−1 are key material: the fixed-window walk keeps the
        // exponentiation's runtime independent of their bit patterns.
        let cp = self.mont_p2.pow_ct(&c.0.rem(&self.p2), &self.p_minus_1);
        let lp = l_function(&cp, &self.p);
        let mp = lp.mod_mul(&self.hp, &self.p);

        let cq = self.mont_q2.pow_ct(&c.0.rem(&self.q2), &self.q_minus_1);
        let lq = l_function(&cq, &self.q);
        let mq = lq.mod_mul(&self.hq, &self.q);

        // CRT: m = m_p + p·((m_q − m_p)·p⁻¹ mod q)
        let diff = mq.mod_sub(&mp, &self.q);
        let t = diff.mod_mul(&self.p_inv_q, &self.q);
        Ok(&mp + &self.p.mul(&t))
    }

    /// Decrypts to `u64`, failing if the plaintext does not fit.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> Result<u64, CryptoError> {
        self.decrypt(c)?
            .to_u64()
            .ok_or(CryptoError::ValueOutOfRange)
    }

    /// Decrypts with signed decoding: plaintexts above `n/2` are negative.
    pub fn decrypt_i64(&self, c: &Ciphertext) -> Result<i64, CryptoError> {
        let m = self.decrypt(c)?;
        signed_decode(&m, &self.public.n, self.public.half_n())
    }
}

/// Signed decoding of a reduced plaintext `m ∈ Z_n`: values above `n/2`
/// decode as `−(n − m)`, and either sign is rejected when its magnitude
/// exceeds `i64::MAX` (so `i64::MIN` deliberately does not round-trip,
/// matching the encoder's `unsigned_abs` range).
///
/// Branch-free: both the positive and the wrapped-negative candidate are
/// fully computed, then one is chosen by mask arithmetic. The only
/// control-flow decision is the final `Ok`/`Err` — the function's public
/// outcome.
// pprl:secret(m)
pub(crate) fn signed_decode(
    m: &BigUint,
    n: &BigUint,
    half_n: &BigUint,
) -> Result<i64, CryptoError> {
    // neg = 1 exactly when m > n/2; m == n/2 stays positive.
    let neg = half_n.ct_lt(m);
    let mask = neg.wrapping_neg();
    // The wrapped magnitude n − m (m < n always; the unwrap arm is dead,
    // and for m = 0 the wrapped candidate is discarded by the mask).
    let wrapped = n.checked_sub(m).unwrap_or_else(|_| BigUint::zero());
    let mag = (wrapped.low_u64() & mask) | (m.low_u64() & !mask);
    let over = (wrapped.hi64_nonzero() & mask) | (m.hi64_nonzero() & !mask) | (mag >> 63);
    // Two's-complement negation by mask: value = neg ? −mag : mag.
    let smask = mask as i64;
    let value = ((mag as i64) ^ smask).wrapping_sub(smask);
    // pprl:allow(secret-taint, const-time): the in-range check is the function's public Ok/Err outcome, evaluated once after both candidates are fully computed
    (over == 0).then_some(value).ok_or(CryptoError::ValueOutOfRange)
}

/// `L(x) = (x − 1) / n` — exact division by construction.
fn l_function(x: &BigUint, n: &BigUint) -> BigUint {
    let x_minus_1 = x - &BigUint::one();
    &x_minus_1 / n
}

/// A freshly generated key pair.
// pprl:secret
#[derive(Clone)]
pub struct Keypair {
    private: PrivateKey,
}

// pprl:allow(secret-leak): redacting impl — delegates to the redacted key
impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair").field("private", &self.private).finish()
    }
}

impl Keypair {
    /// Generates a key pair with an (approximately) `modulus_bits`-bit `n`.
    ///
    /// The paper's experiments use `modulus_bits = 1024`; tests use smaller
    /// keys for speed. Primes are forced to differ.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, modulus_bits: usize) -> Keypair {
        assert!(modulus_bits >= 128, "modulus must be at least 128 bits");
        let half = modulus_bits / 2;
        let p = prime::gen_prime(rng, half);
        let q = loop {
            let q = prime::gen_prime(rng, half);
            if q != p {
                break q;
            }
        };
        // pprl:allow(panic-path): gen_prime returns odd primes and p ≠ q is
        // forced above, so from_primes cannot fail on this input
        Keypair::from_primes(p, q).expect("generated primes are valid")
    }

    /// Builds a key pair from explicit primes (used by tests and
    /// known-answer vectors). Errors if `p == q` or either is even.
    pub fn from_primes(p: BigUint, q: BigUint) -> Result<Keypair, CryptoError> {
        if p == q {
            return Err(CryptoError::InvalidKey("p == q".into()));
        }
        if p.is_even() || q.is_even() {
            return Err(CryptoError::InvalidKey("primes must be odd".into()));
        }
        let n = p.mul(&q);
        let public = PublicKey::new(n.clone())?;

        let p2 = p.square();
        let q2 = q.square();
        let mont_p2 = Montgomery::new(&p2)
            .map_err(|_| CryptoError::InvalidKey("p² must be odd".into()))?;
        let mont_q2 = Montgomery::new(&q2)
            .map_err(|_| CryptoError::InvalidKey("q² must be odd".into()))?;

        // g = n + 1; hp = L_p(g^(p−1) mod p²)⁻¹ mod p. Same secret
        // exponents as decryption, so same constant-time walk.
        let g = &n + &BigUint::one();
        let p_minus_1 = &p - &BigUint::one();
        let q_minus_1 = &q - &BigUint::one();
        let gp = mont_p2.pow_ct(&g.rem(&p2), &p_minus_1);
        let hp = l_function(&gp, &p)
            .mod_inverse(&p)
            .map_err(|_| CryptoError::InvalidKey("L_p(g^(p-1)) not invertible".into()))?;
        let gq = mont_q2.pow_ct(&g.rem(&q2), &q_minus_1);
        let hq = l_function(&gq, &q)
            .mod_inverse(&q)
            .map_err(|_| CryptoError::InvalidKey("L_q(g^(q-1)) not invertible".into()))?;
        let p_inv_q = p
            .mod_inverse(&q)
            .map_err(|_| CryptoError::InvalidKey("p not invertible mod q".into()))?;

        Ok(Keypair {
            private: PrivateKey {
                public,
                p,
                q,
                p2,
                q2,
                p_minus_1,
                q_minus_1,
                hp,
                hq,
                p_inv_q,
                mont_p2,
                mont_q2,
            },
        })
    }

    /// Splits into `(public, private)` halves.
    pub fn split(self) -> (PublicKey, PrivateKey) {
        (self.private.public.clone(), self.private)
    }

    /// Attaches a randomizer pool to this keypair's public half (see
    /// [`PublicKey::attach_pool`]).
    pub fn attach_pool(
        &mut self,
        pool: std::sync::Arc<crate::pool::RandomizerPool>,
    ) -> Result<(), CryptoError> {
        self.private.public.attach_pool(pool)
    }

    /// Borrow the public key.
    pub fn public(&self) -> &PublicKey {
        &self.private.public
    }

    /// Borrow the private key.
    pub fn private(&self) -> &PrivateKey {
        &self.private
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keys(seed: u64) -> (PublicKey, PrivateKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        Keypair::generate(&mut rng, 256).split()
    }

    #[test]
    fn roundtrip_small_values() {
        let (pk, sk) = test_keys(1);
        let mut rng = StdRng::seed_from_u64(2);
        for m in [0u64, 1, 2, 41, 1000, u32::MAX as u64, u64::MAX] {
            let c = pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt_u64(&c).unwrap(), m, "m={m}");
        }
    }

    #[test]
    fn roundtrip_signed_values() {
        let (pk, sk) = test_keys(3);
        let mut rng = StdRng::seed_from_u64(4);
        for v in [0i64, 1, -1, -42, 42, i32::MIN as i64, i32::MAX as i64] {
            let c = pk.encrypt_i64(v, &mut rng).unwrap();
            assert_eq!(sk.decrypt_i64(&c).unwrap(), v, "v={v}");
        }
    }

    /// The pre-rewrite signed decoding: compare-and-branch. Kept here as
    /// the semantic reference for the branch-free [`signed_decode`].
    fn reference_signed_decode(
        m: &BigUint,
        n: &BigUint,
        half_n: &BigUint,
    ) -> Result<i64, CryptoError> {
        let (mag, neg) = if m > half_n {
            (n.checked_sub(m).expect("m < n"), true)
        } else {
            (m.clone(), false)
        };
        match mag.to_u64() {
            Some(v) if v <= i64::MAX as u64 => {
                Ok(if neg { -(v as i64) } else { v as i64 })
            }
            _ => Err(CryptoError::ValueOutOfRange),
        }
    }

    #[test]
    fn signed_decode_matches_branchy_reference_at_boundaries() {
        // Synthetic moduli: one wider than 64 bits (so |v| = i64::MAX and
        // the first out-of-range magnitude both occur on each sign), one
        // narrower (every magnitude fits, the wrap path dominates).
        let wide = &(&BigUint::one().shl(80) + &BigUint::from_u64(0x1234_5679)); // odd
        let narrow = &BigUint::from_u64(1_000_003);
        let imax = BigUint::from_u64(i64::MAX as u64);
        let imax1 = &imax + &BigUint::one();
        for n in [wide, narrow] {
            let half_n = n.shr(1);
            let candidates = [
                BigUint::zero(),
                BigUint::one(),
                half_n.clone(),
                &half_n + &BigUint::one(),
                half_n.checked_sub(&BigUint::one()).unwrap(),
                n.checked_sub(&BigUint::one()).unwrap(),
                imax.clone(),
                imax1.clone(),
                n.checked_sub(&imax).unwrap_or_else(|_| BigUint::zero()),
                n.checked_sub(&imax1).unwrap_or_else(|_| BigUint::zero()),
            ];
            for m in candidates.iter().filter(|m| *m < n) {
                let got = signed_decode(m, n, &half_n);
                let want = reference_signed_decode(m, n, &half_n);
                assert_eq!(got, want, "n={n:?} m={m:?}");
            }
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (pk, _) = test_keys(5);
        let mut rng = StdRng::seed_from_u64(6);
        let c1 = pk.encrypt_u64(7, &mut rng).unwrap();
        let c2 = pk.encrypt_u64(7, &mut rng).unwrap();
        assert_ne!(c1, c2, "semantic security: same plaintext, fresh randomness");
    }

    #[test]
    fn additive_homomorphism() {
        let (pk, sk) = test_keys(7);
        let mut rng = StdRng::seed_from_u64(8);
        let c1 = pk.encrypt_u64(123, &mut rng).unwrap();
        let c2 = pk.encrypt_u64(877, &mut rng).unwrap();
        assert_eq!(sk.decrypt_u64(&pk.add(&c1, &c2)).unwrap(), 1000);
    }

    #[test]
    fn plaintext_addition() {
        let (pk, sk) = test_keys(9);
        let mut rng = StdRng::seed_from_u64(10);
        let c = pk.encrypt_u64(5, &mut rng).unwrap();
        let c5 = pk.add_plain(&c, &BigUint::from_u64(37));
        assert_eq!(sk.decrypt_u64(&c5).unwrap(), 42);
    }

    #[test]
    fn scalar_multiplication() {
        let (pk, sk) = test_keys(11);
        let mut rng = StdRng::seed_from_u64(12);
        let c = pk.encrypt_u64(6, &mut rng).unwrap();
        assert_eq!(sk.decrypt_u64(&pk.mul_plain_u64(&c, 7)).unwrap(), 42);
        assert_eq!(sk.decrypt_u64(&pk.mul_plain_u64(&c, 0)).unwrap(), 0);
    }

    #[test]
    fn negation_wraps_signed() {
        let (pk, sk) = test_keys(13);
        let mut rng = StdRng::seed_from_u64(14);
        let c = pk.encrypt_u64(30, &mut rng).unwrap();
        assert_eq!(sk.decrypt_i64(&pk.negate(&c)).unwrap(), -30);
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let (pk, sk) = test_keys(15);
        let mut rng = StdRng::seed_from_u64(16);
        let c = pk.encrypt_u64(99, &mut rng).unwrap();
        let c2 = pk.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(sk.decrypt_u64(&c2).unwrap(), 99);
    }

    #[test]
    fn plaintext_too_large_rejected() {
        let (pk, _) = test_keys(17);
        let mut rng = StdRng::seed_from_u64(18);
        let too_big = pk.n().clone();
        assert_eq!(
            pk.encrypt(&too_big, &mut rng).unwrap_err(),
            CryptoError::PlaintextTooLarge
        );
    }

    #[test]
    fn corrupted_ciphertext_rejected() {
        let (pk, sk) = test_keys(19);
        // Zero and n² are not valid group elements.
        assert!(sk.decrypt(&Ciphertext::from_biguint(BigUint::zero())).is_err());
        assert!(sk
            .decrypt(&Ciphertext::from_biguint(pk.n_squared().clone()))
            .is_err());
        // A multiple of n is not a unit.
        assert!(sk.decrypt(&Ciphertext::from_biguint(pk.n().clone())).is_err());
    }

    #[test]
    fn wrong_key_decrypts_to_garbage() {
        let (pk1, _) = test_keys(20);
        let (_, sk2) = test_keys(21);
        let mut rng = StdRng::seed_from_u64(22);
        let c = pk1.encrypt_u64(42, &mut rng).unwrap();
        // Either validation fails or the plaintext is wrong; it must never
        // silently round-trip the original value.
        if let Ok(m) = sk2.decrypt(&c) { assert_ne!(m.to_u64(), Some(42)) }
    }

    #[test]
    fn from_primes_rejects_degenerate_keys() {
        let p = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFC5);
        assert!(Keypair::from_primes(p.clone(), p.clone()).is_err());
        assert!(Keypair::from_primes(BigUint::from_u64(4), p).is_err());
    }

    #[test]
    fn pooled_encrypt_roundtrips_and_rerandomizes() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut keys = Keypair::generate(&mut rng, 256);
        let pool = crate::pool::RandomizerPool::prefill(keys.public(), 6, 2, 99);
        keys.attach_pool(pool.clone()).unwrap();
        let (pk, sk) = keys.split();
        // 6 pooled draws serve the first six operations…
        for m in [0u64, 7, 1000] {
            let c = pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt_u64(&c).unwrap(), m);
        }
        let c = pk.encrypt_u64(5, &mut rng).unwrap();
        let c2 = pk.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(sk.decrypt_u64(&c2).unwrap(), 5);
        assert_eq!(pool.hits(), 5);
        // …and an exhausted pool degrades to the inline path.
        let c = pk.encrypt_u64(41, &mut rng).unwrap();
        let c3 = pk.encrypt_u64(41, &mut rng).unwrap();
        assert_ne!(c, c3, "inline fallback still randomizes");
        assert_eq!(sk.decrypt_u64(&c3).unwrap(), 41);
        assert!(pool.misses() >= 1);
    }

    #[test]
    fn pool_for_wrong_modulus_is_rejected() {
        let (mut pk1, _) = test_keys(26);
        let (pk2, _) = test_keys(27);
        let pool = crate::pool::RandomizerPool::prefill(&pk2, 1, 1, 3);
        assert!(pk1.attach_pool(pool).is_err());
    }

    #[test]
    fn homomorphic_squared_difference_identity() {
        // The algebra the secure distance protocol relies on:
        // Enc(a²) ⊕ (Enc(−2a) ⊗ b) ⊕ Enc(b²) = Enc((a−b)²).
        let (pk, sk) = test_keys(23);
        let mut rng = StdRng::seed_from_u64(24);
        let (a, b) = (37u64, 21u64);
        let ca2 = pk.encrypt_u64(a * a, &mut rng).unwrap();
        let cm2a = pk.encrypt_i64(-2 * a as i64, &mut rng).unwrap();
        let cb2 = pk.encrypt_u64(b * b, &mut rng).unwrap();
        let cross = pk.mul_plain_u64(&cm2a, b);
        let result = pk.add(&pk.add(&ca2, &cross), &cb2);
        assert_eq!(sk.decrypt_u64(&result).unwrap(), (a - b) * (a - b));
    }
}

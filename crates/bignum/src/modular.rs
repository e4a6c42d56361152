//! Modular arithmetic helpers and the Montgomery multiplication context.
//!
//! Montgomery form turns each modular multiplication inside an
//! exponentiation into one schoolbook-sized pass with no division (product
//! and reduction interleaved limb by limb), which is what makes 2048-bit
//! `mod n²` Paillier exponentiations tractable.

use crate::ct::{nonzero_u64, sub_borrow};
use crate::{BigUint, BignumError};

impl BigUint {
    /// `(self + other) mod m`. Operands need not be reduced.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self + other;
        s.rem(m)
    }

    /// `(self - other) mod m`, wrapping into `[0, m)`.
    pub fn mod_sub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let a = self.rem(m);
        let b = other.rem(m);
        if a >= b {
            &a - &b
        } else {
            &(&a + m) - &b
        }
    }

    /// `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }
}

/// Montgomery multiplication context for a fixed odd modulus.
///
/// Construction is O(n²) (computes `R² mod m`); every product afterwards
/// is one call of the kernel, [`Montgomery::mont_mul_into`]. Values live in
/// *Montgomery form* (`a·R mod m` where `R = 2^(64·n)`); convert with
/// [`Montgomery::to_mont`] / [`Montgomery::from_mont`].
#[derive(Clone, Debug)]
pub struct Montgomery {
    modulus: BigUint,
    /// Modulus limbs padded to exactly `n`.
    m_limbs: Vec<u64>,
    /// `-m⁻¹ mod 2^64` (for the per-limb reduction step).
    n0inv: u64,
    /// `R² mod m`, in plain form, padded to `n` limbs.
    r2: Vec<u64>,
    /// `R mod m` (the Montgomery form of 1), padded to `n` limbs.
    r1: Vec<u64>,
    n: usize,
}

impl Montgomery {
    /// Creates a context for an odd modulus `> 1`.
    pub fn new(modulus: &BigUint) -> Result<Self, BignumError> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return Err(BignumError::EvenModulus);
        }
        let n = modulus.limbs().len();
        let mut m_limbs = modulus.limbs().to_vec();
        m_limbs.resize(n, 0);

        // Newton's iteration: inv ≡ m0⁻¹ (mod 2^64) in 6 steps.
        let Some(&m0) = m_limbs.first() else {
            // Unreachable: a zero modulus was rejected above.
            return Err(BignumError::EvenModulus);
        };
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();

        // R mod m and R² mod m via plain division (one-time cost).
        let r = BigUint::one().shl(n * 64).rem(modulus);
        let r2_big = r.mul(&r).rem(modulus);
        let mut r1 = r.limbs().to_vec();
        r1.resize(n, 0);
        let mut r2 = r2_big.limbs().to_vec();
        r2.resize(n, 0);

        Ok(Montgomery {
            modulus: modulus.clone(),
            m_limbs,
            n0inv,
            r2,
            r1,
            n,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Number of 64-bit limbs in the modulus.
    pub fn limb_count(&self) -> usize {
        self.n
    }

    /// Converts `a` (reduced mod m internally) into Montgomery form.
    pub fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let reduced = a.rem(&self.modulus);
        let mut limbs = reduced.limbs().to_vec();
        limbs.resize(self.n, 0);
        self.mont_mul(&limbs, &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain [`BigUint`].
    pub fn from_mont(&self, a: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.n];
        if let Some(first) = one.first_mut() {
            *first = 1;
        }
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    /// Montgomery form of 1 (`R mod m`).
    pub fn one_mont(&self) -> Vec<u64> {
        self.r1.clone()
    }

    /// Montgomery product of two `n`-limb Montgomery-form values:
    /// `a·b·R⁻¹ mod m`, padded to `n` limbs. Allocates the result and
    /// hands it to [`Montgomery::mont_mul_into`].
    // pprl:secret(a, b): operands are secret-derived during CRT decryption
    pub fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.n];
        self.mont_mul_into(a, b, &mut out);
        out
    }

    /// The Montgomery kernel: writes `a·b·R⁻¹ mod m` into `out`. All three
    /// slices are `n` limbs; `out` cannot alias an operand, so in-place
    /// walks alternate two buffers:
    ///
    /// ```compile_fail,E0502
    /// # use pprl_bignum::{BigUint, Montgomery};
    /// let ctx = Montgomery::new(&BigUint::from_u64(1_000_003)).unwrap();
    /// let mut acc = ctx.one_mont();
    /// ctx.mont_mul_into(&acc, &acc, &mut acc); // E0502: `acc` is borrowed
    /// ```
    ///
    /// One pass per limb of `a`. Each inner step adds `aᵢ·bⱼ` and the
    /// reduction term `mᵢ·mⱼ` to accumulator limb `j` on two separate
    /// carry chains and stores the sum one limb *down*: the division by
    /// 2^64 that ends every row is the write position, not a pass of its
    /// own. The limb that cancels to zero lands in a dead local. The
    /// accumulator is `out` plus one scalar overflow limb, and every pass
    /// is a bounded `zip` — no index arithmetic near the secret operands.
    // pprl:secret(a, b): operands are secret-derived during CRT decryption
    pub fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        debug_assert_eq!(b.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        out.fill(0);
        let b0 = b.first().copied().unwrap_or(0);
        let mut top = 0u64;
        for &ai in a {
            // mi makes the lowest limb of t + ai·b + mi·m vanish.
            let t0 = out.first().copied().unwrap_or(0);
            let mi = t0
                .wrapping_add(ai.wrapping_mul(b0))
                .wrapping_mul(self.n0inv);
            let mut carry_p = 0u64;
            let mut carry_r = 0u64;
            let mut cancelled = 0u64;
            let mut below = &mut cancelled;
            for ((tj, &bj), &mj) in out.iter_mut().zip(b).zip(&self.m_limbs) {
                let p = *tj as u128 + ai as u128 * bj as u128 + carry_p as u128;
                carry_p = (p >> 64) as u64;
                let r = (p as u64) as u128 + mi as u128 * mj as u128 + carry_r as u128;
                carry_r = (r >> 64) as u64;
                *below = r as u64;
                below = tj;
            }
            let s = top as u128 + carry_p as u128 + carry_r as u128;
            *below = s as u64;
            top = (s >> 64) as u64;
        }
        self.reduce_once(out, top);
    }

    /// Brings `(hi, t) < 2m` into `[0, m)`. The borrow of `t − m` is
    /// computed first, then `m` is subtracted under a mask, so neither the
    /// timing nor the stores depend on the (secret-derived) value. The
    /// subtraction applies exactly when the overflow limb is set (the
    /// borrow consumes it) or the low limbs already reach `m` (no borrow).
    // pprl:secret(t, hi)
    fn reduce_once(&self, t: &mut [u64], hi: u64) {
        let borrow = t
            .iter()
            .zip(&self.m_limbs)
            .fold(0u64, |borrow, (&tj, &mj)| sub_borrow(tj, mj, borrow).1);
        let keep = (nonzero_u64(hi) | (1 ^ borrow)).wrapping_neg();
        let mut borrow = 0u64;
        for (tj, &mj) in t.iter_mut().zip(&self.m_limbs) {
            (*tj, borrow) = sub_borrow(*tj, mj & keep, borrow);
        }
    }

    /// `(a * b) mod m` on plain values, via Montgomery form.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Scrubs the precomputed state. A context built for a secret prime
    /// (CRT decryption uses `mod p²` / `mod q²`) embeds that prime in
    /// `modulus`/`m_limbs`, so secret-key drops must clear it too.
    pub fn zeroize(&mut self) {
        self.modulus.zeroize();
        for buf in [&mut self.m_limbs, &mut self.r2, &mut self.r1] {
            for limb in buf.iter_mut() {
                unsafe { core::ptr::write_volatile(limb, 0) };
            }
            buf.clear();
        }
        unsafe { core::ptr::write_volatile(&mut self.n0inv, 0) };
        core::sync::atomic::compiler_fence(core::sync::atomic::Ordering::SeqCst);
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_modulus() {
        assert!(Montgomery::new(&BigUint::from_u64(10)).is_err());
        assert!(Montgomery::new(&BigUint::one()).is_err());
        assert!(Montgomery::new(&BigUint::zero()).is_err());
    }

    #[test]
    fn to_from_mont_roundtrip() {
        let m = BigUint::from_u64(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let big = BigUint::from_u64(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&big)), big, "v={v}");
        }
    }

    #[test]
    fn mont_mul_matches_plain() {
        let m = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap(); // 2^127-1
        let ctx = Montgomery::new(&m).unwrap();
        let a = BigUint::from_u128(0x1234_5678_9abc_def0_1111_2222u128);
        let b = BigUint::from_u128(0xfeed_face_dead_beef_3333_4444u128);
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn mont_one_is_r_mod_m() {
        let m = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFC5); // largest 64-bit prime
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.from_mont(&ctx.one_mont()), BigUint::one());
    }

    #[test]
    fn mod_add_sub_wrap() {
        let m = BigUint::from_u64(7);
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(6);
        assert_eq!(a.mod_add(&b, &m).to_u64(), Some(4));
        assert_eq!(a.mod_sub(&b, &m).to_u64(), Some(6));
        assert_eq!(b.mod_sub(&a, &m).to_u64(), Some(1));
    }

    #[test]
    fn mod_mul_reduces() {
        let m = BigUint::from_u64(13);
        let a = BigUint::from_u64(12);
        assert_eq!(a.mod_mul(&a, &m).to_u64(), Some(1));
    }
}

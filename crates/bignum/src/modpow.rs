//! Modular exponentiation over a Montgomery context for odd moduli, with a
//! generic division-based fallback for even moduli (unused by Paillier but
//! kept for API completeness). Both walks run in place: an accumulator and
//! one scratch buffer trade places after every product, so a walk allocates
//! its table and those two buffers and nothing per step.
//!
//! [`Montgomery::pow`] is for public exponents. Its window table stores only
//! the *odd* powers `base^1, base^3, …, base^(2^W − 1)`: even window digits
//! factor as `odd · 2^tz`, and the `2^tz` part is folded into the squaring
//! schedule (square `W − tz` times, multiply by the odd part, square `tz`
//! more times). Same multiplication count per window as a full table, half
//! the precomputation. [`Montgomery::pow_ct`] is for secret exponents: a
//! full table, no skipped window, and a table read that touches every entry.

use crate::{BigUint, Montgomery};

/// Window width in bits, for both walks. A 1024-bit public exponent costs
/// `pow` 1024 squarings and about 250 multiplications (8 to build the
/// odd-power table, one per non-zero window) against about 512 for binary
/// square-and-multiply: a sixth fewer products. `pow_ct` pays 14 products
/// for its full table and then 1.25 per exponent bit, where a ladder pays 2.
const WINDOW: usize = 4;

impl BigUint {
    /// Computes `self^exp mod modulus` with the fixed-window walk.
    ///
    /// Runtime varies with the exponent's bit pattern — use only where
    /// the exponent is public (Paillier encryption raises to `n`).
    /// For secret exponents use [`BigUint::mod_pow_ct`].
    ///
    /// Panics if `modulus` is zero; `modulus == 1` yields zero.
    pub fn mod_pow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow: zero modulus");
        // Every condition below reads the modulus, which is public in all
        // uses (n², p², q², the AgES group prime) — the exponent never
        // steers control flow here.
        if modulus.is_one() {
            BigUint::zero()
        } else if modulus.is_odd() {
            match Montgomery::new(modulus) {
                Ok(ctx) => ctx.pow(self, exp),
                // Unreachable for an odd modulus > 1, but degrade to the
                // generic division-based path rather than aborting.
                Err(_) => mod_pow_binary(self, exp, modulus),
            }
        } else {
            mod_pow_binary(self, exp, modulus)
        }
    }

    /// Computes `self^exp mod modulus` in time independent of the
    /// exponent's bit pattern (masked fixed-window walk,
    /// [`Montgomery::pow_ct`]).
    ///
    /// The exponent's *limb count* is the only exponent-derived quantity
    /// that reaches control flow; callers with secret exponents of a
    /// fixed width (CRT decryption exponents `p−1`/`q−1`, the AgES
    /// commutative-encryption exponent) leak nothing per call. Even or
    /// unit moduli have no Montgomery form and fall back to the
    /// variable-time path — a property of the public modulus, not of the
    /// exponent, and unreachable from the crypto layer.
    ///
    /// Panics if `modulus` is zero; `modulus == 1` yields zero.
    // pprl:secret(exp)
    pub fn mod_pow_ct(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow_ct: zero modulus");
        if modulus.is_odd() && !modulus.is_one() {
            match Montgomery::new(modulus) {
                Ok(ctx) => ctx.pow_ct(self, exp),
                Err(_) => self.mod_pow(exp, modulus),
            }
        } else {
            self.mod_pow(exp, modulus)
        }
    }
}

impl Montgomery {
    /// `base^exp mod m` using this context (reusable across many calls with
    /// the same modulus — Paillier encrypts thousands of values mod `n²`).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        // Exponent length and zero-ness are public here: Paillier uses
        // fixed-width public exponents (`n`), and the window walk below
        // always consumes every aligned window of that width.
        // pprl:allow(const-time): zero exponent is a degenerate public case
        if exp.is_zero() {
            return BigUint::one().rem(self.modulus()); // pprl:allow(const-time): see above
        }
        let base_m = self.to_mont(base);
        // The walk's two buffers: every product reads one and writes the
        // other, then they trade places. Until the walk starts, `acc` runs
        // through the odd powers for the table.
        let mut acc = base_m.clone();
        let mut tmp = vec![0u64; self.limb_count()];

        // Precompute the odd powers base^1, base^3, …, base^(2^W − 1);
        // `base^k` for odd `k` lives at `odd_pows[k >> 1]`.
        let base_sq = self.mont_mul(&base_m, &base_m);
        let mut odd_pows: Vec<Vec<u64>> = Vec::with_capacity(1 << (WINDOW - 1));
        odd_pows.push(base_m);
        for _ in 1..(1 << (WINDOW - 1)) {
            self.mul_assign(&mut acc, &mut tmp, &base_sq);
            odd_pows.push(acc.clone());
        }

        let bits = exp.bits();
        let mut started = false;
        // Consume the exponent in aligned W-bit windows, MSB first.
        let top_window = bits.div_ceil(WINDOW);
        for w in (0..top_window).rev() {
            let mut digit = 0usize;
            for b in 0..WINDOW {
                let idx = w * WINDOW + b;
                // pprl:allow(const-time): window digit assembly reads public exponent bits of a fixed-width walk
                if idx < bits && exp.bit(idx) {
                    digit |= 1 << b;
                }
            }
            // pprl:allow(const-time): zero-window skip is the classic windowed-exponentiation shape; Paillier exponents are public
            if digit == 0 {
                if started {
                    self.square_assign(&mut acc, &mut tmp, WINDOW);
                }
                continue;
            }
            // digit = odd_part · 2^tz: hoist the trailing zeros into the
            // squaring schedule so only odd powers are ever looked up.
            // pprl:allow(const-time): trailing-zero split of the public window digit
            let tz = digit.trailing_zeros() as usize;
            let odd_part = digit >> tz; // pprl:allow(const-time): odd factor of the public window digit

            // The lookup cannot miss (odd_part < 2^W); an empty operand
            // would trip the kernel's length assertions.
            let entry = odd_pows
                .get(odd_part >> 1)
                .map(Vec::as_slice)
                .unwrap_or_default();
            if started {
                self.square_assign(&mut acc, &mut tmp, WINDOW - tz);
                self.mul_assign(&mut acc, &mut tmp, entry);
            } else {
                acc.copy_from_slice(entry);
                started = true;
            }
            self.square_assign(&mut acc, &mut tmp, tz);
        }
        if started {
            self.from_mont(&acc)
        } else {
            BigUint::one().rem(self.modulus())
        }
    }

    /// `base^exp mod m` by a fixed-window walk whose schedule — and
    /// therefore runtime — depends only on the exponent's limb count:
    /// every W-bit window of every limb (leading zeros included) costs W
    /// squarings and one multiplication, and the factor is fetched by
    /// [`select_entry`], which reads the whole table under masks. Unlike
    /// [`Montgomery::pow`] nothing is skipped for a zero window; the walk
    /// multiplies by `base^0` instead. An empty exponent leaves the
    /// accumulator at 1.
    // pprl:secret(exp)
    pub fn pow_ct(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n = self.limb_count();
        let base_m = self.to_mont(base);
        let mut acc = self.one_mont();
        let mut tmp = vec![0u64; n];

        // table[k] = base^k for every k < 2^W, n limbs each, back to back.
        let mut table = Vec::with_capacity(n << WINDOW);
        table.extend_from_slice(&acc);
        table.extend_from_slice(&base_m);
        let mut run = base_m.clone();
        for _ in 2..(1 << WINDOW) {
            self.mul_assign(&mut run, &mut tmp, &base_m);
            table.extend_from_slice(&run);
        }

        // The table is built; `run` now holds the entry each window selects.
        let entry = &mut run;
        for &limb in exp.limbs().iter().rev() {
            for shift in (0..u64::BITS as usize).step_by(WINDOW).rev() {
                let digit = (limb >> shift) & ((1 << WINDOW) - 1);
                self.square_assign(&mut acc, &mut tmp, WINDOW);
                select_entry(&table, digit, entry);
                self.mul_assign(&mut acc, &mut tmp, entry);
            }
        }
        self.from_mont(&acc)
    }

    /// `acc ← acc^(2^count)`, each squaring written into `tmp` and the two
    /// buffers then swapped.
    // pprl:secret(acc)
    fn square_assign(&self, acc: &mut Vec<u64>, tmp: &mut Vec<u64>, count: usize) {
        for _ in 0..count {
            self.mont_mul_into(acc, acc, tmp);
            std::mem::swap(acc, tmp);
        }
    }

    /// `acc ← acc · by`, through `tmp` like [`Montgomery::square_assign`].
    // pprl:secret(acc, by)
    fn mul_assign(&self, acc: &mut Vec<u64>, tmp: &mut Vec<u64>, by: &[u64]) {
        self.mont_mul_into(acc, by, tmp);
        std::mem::swap(acc, tmp);
    }
}

// `pow_ct` cuts each exponent limb into whole windows.
const _: () = assert!(u64::BITS as usize % WINDOW == 0);

/// Copies entry `digit` of `table` (entries of `out.len()` limbs, back to
/// back) into `out`. The digit is secret, so it steers masks and never an
/// address: every entry is read, and kept or dropped by an all-ones/zero
/// mask derived from `k ^ digit` without comparing.
// pprl:secret(digit)
fn select_entry(table: &[u64], digit: u64, out: &mut [u64]) {
    out.fill(0);
    for (k, entry) in table.chunks_exact(out.len().max(1)).enumerate() {
        let mask = (1 ^ crate::ct::nonzero_u64(k as u64 ^ digit)).wrapping_neg();
        for (slot, &limb) in out.iter_mut().zip(entry) {
            *slot |= limb & mask;
        }
    }
}

/// Plain binary square-and-multiply with division-based reduction.
fn mod_pow_binary(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    let mut acc = BigUint::one().rem(modulus);
    let mut b = base.rem(modulus);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = acc.mod_mul(&b, modulus);
        }
        if i + 1 < exp.bits() {
            b = b.mod_mul(&b, modulus);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_pow(base: u64, exp: u64, m: u64) -> u64 {
        let mut acc = 1u128;
        let b = base as u128 % m as u128;
        for _ in 0..exp {
            acc = acc * b % m as u128;
        }
        acc as u64
    }

    #[test]
    fn matches_naive_small() {
        for (b, e, m) in [
            (2u64, 10u64, 1_000_003u64),
            (7, 13, 11),
            (123, 0, 7),
            (0, 5, 7),
            (5, 1, 9),
            (10, 30, 17),
        ] {
            let got = BigUint::from_u64(b)
                .mod_pow(&BigUint::from_u64(e), &BigUint::from_u64(m));
            assert_eq!(got.to_u64(), Some(naive_pow(b, e, m)), "({b},{e},{m})");
        }
    }

    #[test]
    fn even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        let got = BigUint::from_u64(3).mod_pow(&BigUint::from_u64(5), &BigUint::from_u64(16));
        assert_eq!(got.to_u64(), Some(3));
    }

    #[test]
    fn modulus_one_gives_zero() {
        let got = BigUint::from_u64(42).mod_pow(&BigUint::from_u64(3), &BigUint::one());
        assert!(got.is_zero());
    }

    #[test]
    fn fermat_little_theorem_128bit() {
        // p = 2^127 - 1 (Mersenne prime)
        let p = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap();
        let a = BigUint::from_u64(0xCAFE_BABE_DEAD_BEEF);
        let e = &p - &BigUint::one();
        assert_eq!(a.mod_pow(&e, &p), BigUint::one());
    }

    #[test]
    fn exponent_crossing_window_boundaries() {
        let m = BigUint::from_u64(1_000_000_007);
        let base = BigUint::from_u64(3);
        // exponent with bits straddling 4-bit windows: 2^65 + 2^4 + 1
        let mut e = BigUint::one().shl(65);
        e.add_u64_assign(17);
        let got = base.mod_pow(&e, &m);
        // cross-check via two smaller steps: 3^(2^65) * 3^17
        let e1 = BigUint::one().shl(65);
        let part1 = base.mod_pow(&e1, &m);
        let part2 = base.mod_pow(&BigUint::from_u64(17), &m);
        assert_eq!(got, part1.mod_mul(&part2, &m));
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn zero_modulus_panics() {
        BigUint::one().mod_pow(&BigUint::one(), &BigUint::zero());
    }

    #[test]
    fn pow_ct_matches_pow_small() {
        for (b, e, m) in [
            (2u64, 10u64, 1_000_003u64),
            (7, 13, 11),
            (123, 0, 7),
            (0, 5, 7),
            (5, 1, 9),
            (10, 30, 17),
            (0xDEAD_BEEF, u64::MAX, 0xFFFF_FFFF_FFFF_FFC5),
        ] {
            let base = BigUint::from_u64(b);
            let exp = BigUint::from_u64(e);
            let modulus = BigUint::from_u64(m);
            assert_eq!(
                base.mod_pow_ct(&exp, &modulus),
                base.mod_pow(&exp, &modulus),
                "({b},{e},{m})"
            );
        }
    }

    #[test]
    fn pow_ct_even_and_unit_modulus_fall_back() {
        let base = BigUint::from_u64(3);
        assert_eq!(
            base.mod_pow_ct(&BigUint::from_u64(5), &BigUint::from_u64(16)).to_u64(),
            Some(3)
        );
        assert!(base.mod_pow_ct(&BigUint::from_u64(5), &BigUint::one()).is_zero());
    }

    #[test]
    fn pow_ct_fermat_128bit() {
        let p = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap();
        let a = BigUint::from_u64(0xCAFE_BABE_DEAD_BEEF);
        let e = &p - &BigUint::one();
        assert_eq!(a.mod_pow_ct(&e, &p), BigUint::one());
    }
}

//! Greatest common divisor, extended Euclidean algorithm, and modular
//! inverses — the number-theoretic glue Paillier keygen relies on
//! (`λ = lcm(p-1, q-1)`, `μ = L(g^λ mod n²)⁻¹ mod n`).

use crate::{BigInt, BigUint, BignumError};
use std::cmp::Ordering;

impl BigUint {
    /// Greatest common divisor (binary GCD). After the two working copies
    /// every step — compare, subtract, strip trailing zeros — runs in
    /// place and allocates nothing: Paillier checks a unit per randomizer
    /// and per received ciphertext.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (Some(tz_a), Some(tz_b)) = (self.trailing_zeros(), other.trailing_zeros()) else {
            // gcd(x, 0) = x.
            return if self.is_zero() {
                other.clone()
            } else {
                self.clone()
            };
        };
        let mut a = self.clone();
        let mut b = other.clone();
        a.shr_assign(tz_a);
        b.shr_assign(tz_b);
        // Both odd from here on: their difference is even, and stripping
        // its factors of two changes no common odd divisor.
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            a.sub_assign_unchecked(&b);
            a.shr_assign(a.trailing_zeros().unwrap_or(0));
        }
        a.shl(tz_a.min(tz_b))
    }

    /// Least common multiple. `lcm(0, x) = 0`.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        (self / &g).mul(other)
    }

    /// Extended GCD: returns `(g, x, y)` with `self·x + other·y = g`.
    pub fn egcd(&self, other: &BigUint) -> (BigUint, BigInt, BigInt) {
        // Iterative version tracking Bézout coefficients as signed ints.
        let mut r0 = self.clone();
        let mut r1 = other.clone();
        let mut x0 = BigInt::one();
        let mut x1 = BigInt::zero();
        let mut y0 = BigInt::zero();
        let mut y1 = BigInt::one();

        while !r1.is_zero() {
            let Ok((q, r)) = r0.div_rem(&r1) else {
                debug_assert!(false, "r1 is non-zero inside the loop");
                break;
            };
            r0 = std::mem::replace(&mut r1, r);
            let qi = BigInt::from_biguint(q);
            let nx = x0.sub(&qi.mul(&x1));
            x0 = std::mem::replace(&mut x1, nx);
            let ny = y0.sub(&qi.mul(&y1));
            y0 = std::mem::replace(&mut y1, ny);
        }
        (r0, x0, y0)
    }

    /// Modular inverse: `self⁻¹ mod m`, or [`BignumError::NotInvertible`]
    /// when `gcd(self, m) ≠ 1`.
    pub fn mod_inverse(&self, m: &BigUint) -> Result<BigUint, BignumError> {
        if m.is_zero() || m.is_one() {
            return Err(BignumError::NotInvertible);
        }
        let (g, x, _) = self.egcd(m);
        if !g.is_one() {
            return Err(BignumError::NotInvertible);
        }
        Ok(x.rem_euclid(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b).to_u64(), Some(12));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn lcm_basics() {
        let a = BigUint::from_u64(4);
        let b = BigUint::from_u64(6);
        assert_eq!(a.lcm(&b).to_u64(), Some(12));
        assert!(a.lcm(&BigUint::zero()).is_zero());
    }

    #[test]
    fn egcd_bezout_identity() {
        let a = BigUint::from_u64(240);
        let b = BigUint::from_u64(46);
        let (g, x, y) = a.egcd(&b);
        assert_eq!(g.to_u64(), Some(2));
        // a*x + b*y == g, checked in signed arithmetic.
        let lhs = BigInt::from_biguint(a).mul(&x).add(&BigInt::from_biguint(b).mul(&y));
        assert_eq!(lhs, BigInt::from_biguint(g));
    }

    #[test]
    fn mod_inverse_small() {
        let a = BigUint::from_u64(3);
        let m = BigUint::from_u64(11);
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(inv.to_u64(), Some(4)); // 3*4 = 12 ≡ 1 (mod 11)
    }

    #[test]
    fn mod_inverse_not_invertible() {
        let a = BigUint::from_u64(6);
        let m = BigUint::from_u64(9);
        assert_eq!(a.mod_inverse(&m), Err(BignumError::NotInvertible));
        assert_eq!(a.mod_inverse(&BigUint::one()), Err(BignumError::NotInvertible));
    }

    #[test]
    fn mod_inverse_large_prime() {
        let p = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap();
        let a = BigUint::from_u64(0x1234_5678_9abc_def0);
        let inv = a.mod_inverse(&p).unwrap();
        assert_eq!(a.mod_mul(&inv, &p), BigUint::one());
    }
}

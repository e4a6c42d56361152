//! Constant-time helpers: branch-free limb selection and comparison.
//!
//! Everything here avoids value-dependent branches and value-dependent
//! memory addressing; control flow depends only on limb *counts*, which
//! are public for the places these helpers serve (fixed-width Paillier
//! moduli and exponents). Selection is done with all-ones/all-zero masks
//! derived from a bit via `wrapping_neg`, the usual dudect-friendly idiom.

use crate::BigUint;

/// Normalizes a word to a 0/1 flag: 1 when `v != 0`, else 0, without
/// comparing (the sign bit of `v | -v` is set exactly when `v` is
/// nonzero).
pub(crate) fn nonzero_u64(v: u64) -> u64 {
    (v | v.wrapping_neg()) >> 63
}

/// `a − b − borrow` as (difference, borrow out), borrows being 0 or 1.
pub(crate) fn sub_borrow(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let s = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (s as u64, ((s >> 64) as u64) & 1)
}

impl BigUint {
    /// Constant-time `self < other`: returns 1 or 0. Runs in time
    /// dependent only on the larger limb count, by trial-subtracting
    /// over the padded common width and reporting the final borrow.
    pub fn ct_lt(&self, other: &BigUint) -> u64 {
        let width = self.limbs().len().max(other.limbs().len());
        let lhs = self.limbs().iter().copied().chain(core::iter::repeat(0));
        let rhs = other.limbs().iter().copied().chain(core::iter::repeat(0));
        lhs.zip(rhs)
            .take(width)
            .fold(0u64, |borrow, (a, b)| sub_borrow(a, b, borrow).1)
    }

    /// Low 64 bits of the value (0 for an empty limb vector).
    pub fn low_u64(&self) -> u64 {
        self.limbs().first().copied().unwrap_or(0)
    }

    /// 1 when any bit at position 64 or above is set, else 0 — the
    /// branch-free complement of [`BigUint::to_u64`]'s `None` case.
    pub fn hi64_nonzero(&self) -> u64 {
        let hi = self
            .limbs()
            .iter()
            .skip(1)
            .fold(0u64, |acc, &limb| acc | limb);
        nonzero_u64(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonzero_flag() {
        assert_eq!(nonzero_u64(0), 0);
        assert_eq!(nonzero_u64(1), 1);
        assert_eq!(nonzero_u64(u64::MAX), 1);
        assert_eq!(nonzero_u64(1 << 63), 1);
    }

    #[test]
    fn ct_lt_matches_ord_across_widths() {
        let vals = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(u64::MAX),
            BigUint::one().shl(64),
            BigUint::one().shl(65),
            &BigUint::one().shl(128) - &BigUint::one(),
            BigUint::from_u128(0xDEAD_BEEF_0000_0001_0000_0000u128),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.ct_lt(b) == 1, a < b, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn low_and_high_extraction() {
        assert_eq!(BigUint::zero().low_u64(), 0);
        assert_eq!(BigUint::zero().hi64_nonzero(), 0);
        let v = BigUint::from_u64(42);
        assert_eq!(v.low_u64(), 42);
        assert_eq!(v.hi64_nonzero(), 0);
        let w = &BigUint::one().shl(64) + &BigUint::from_u64(5);
        assert_eq!(w.low_u64(), 5);
        assert_eq!(w.hi64_nonzero(), 1);
    }
}

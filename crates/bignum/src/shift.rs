//! Bit shifts and single-bit access.

use crate::BigUint;

impl BigUint {
    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `bits` (floor division by a power of two).
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let Some(tail) = self.limbs.get(limb_shift..) else {
            return BigUint::zero();
        };
        let out: Vec<u64> = if bit_shift == 0 {
            tail.to_vec()
        } else {
            tail.iter()
                .zip(tail.iter().skip(1).copied().chain(std::iter::once(0)))
                .map(|(&l, hi)| (l >> bit_shift) | (hi << (64 - bit_shift)))
                .collect()
        };
        BigUint::from_limbs(out)
    }

    /// In-place right shift by `bits`: no allocation.
    pub(crate) fn shr_assign(&mut self, bits: usize) {
        let limb_shift = (bits / 64).min(self.limbs.len());
        self.limbs.drain(..limb_shift);
        let bit_shift = bits % 64;
        if bit_shift != 0 {
            let mut carry = 0u64;
            for limb in self.limbs.iter_mut().rev() {
                let shifted = (*limb >> bit_shift) | carry;
                carry = *limb << (64 - bit_shift);
                *limb = shifted;
            }
        }
        self.normalize();
    }

    /// Returns bit `i` (little-endian position).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            Some(&l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Sets bit `i` to one, growing as necessary.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        if let Some(l) = self.limbs.get_mut(limb) {
            *l |= 1u64 << (i % 64);
        }
    }

    /// Number of trailing zero bits (`None` for zero).
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }
}

impl std::ops::Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        BigUint::shl(self, bits)
    }
}

impl std::ops::Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        BigUint::shr(self, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shl_across_limb_boundary() {
        let a = BigUint::from_u64(1);
        assert_eq!(a.shl(64).to_u128(), Some(1u128 << 64));
        assert_eq!(a.shl(100).bits(), 101);
    }

    #[test]
    fn shl_zero_bits_is_identity() {
        let a = BigUint::from_u64(42);
        assert_eq!(a.shl(0), a);
    }

    #[test]
    fn shr_discards_low_bits() {
        let a = BigUint::from_u128((1u128 << 100) | 0xFF);
        assert_eq!(a.shr(100).to_u64(), Some(1));
        assert!(a.shr(200).is_zero());
    }

    #[test]
    fn shl_shr_roundtrip() {
        let a = BigUint::from_u128(0x0123_4567_89ab_cdef_fedc_ba98u128);
        for bits in [1usize, 7, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl(bits).shr(bits), a, "bits={bits}");
        }
    }

    #[test]
    fn bit_access() {
        let mut a = BigUint::zero();
        a.set_bit(130);
        assert!(a.bit(130));
        assert!(!a.bit(129));
        assert_eq!(a.bits(), 131);
        assert_eq!(a.trailing_zeros(), Some(130));
        assert_eq!(BigUint::zero().trailing_zeros(), None);
    }
}

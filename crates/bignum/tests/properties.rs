//! Property-based tests for the bignum substrate: ring laws, division
//! invariants, Montgomery/modpow consistency, and conversion roundtrips.

use pprl_bignum::{prime, random_below, BigUint, Montgomery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a BigUint from arbitrary bytes (0..=48 bytes → up to 384 bits).
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|b| BigUint::from_bytes_be(&b))
}

/// Strategy: a non-zero BigUint.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|v| if v.is_zero() { BigUint::one() } else { v })
}

/// Strategy: an odd modulus > 1.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..32).prop_map(|b| {
        let mut v = BigUint::from_bytes_be(&b);
        v.set_bit(0);
        if v.is_one() {
            BigUint::from_u64(3)
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_roundtrips(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        let lhs = a.mul(&(&b + &c));
        let rhs = &a.mul(&b) + &a.mul(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn division_invariant(a in biguint(), b in biguint_nonzero()) {
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&q.mul(&b) + &r, a);
    }

    #[test]
    fn shift_is_power_of_two_mul(a in biguint(), bits in 0usize..130) {
        let shifted = a.shl(bits);
        let expected = a.mul(&BigUint::one().shl(bits));
        prop_assert_eq!(shifted, expected);
    }

    #[test]
    fn bytes_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn montgomery_mul_matches_plain(a in biguint(), b in biguint(), m in odd_modulus()) {
        let ctx = Montgomery::new(&m).unwrap();
        prop_assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn modpow_matches_repeated_squaring(a in biguint(), e in 0u64..64, m in odd_modulus()) {
        // Naive reference: e multiplications.
        let mut expected = BigUint::one().rem(&m);
        let ar = a.rem(&m);
        for _ in 0..e {
            expected = expected.mod_mul(&ar, &m);
        }
        prop_assert_eq!(a.mod_pow(&BigUint::from_u64(e), &m), expected);
    }

    #[test]
    fn modpow_product_law(a in biguint(), e1 in 0u64..1000, e2 in 0u64..1000, m in odd_modulus()) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let lhs = a.mod_pow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = a
            .mod_pow(&BigUint::from_u64(e1), &m)
            .mod_mul(&a.mod_pow(&BigUint::from_u64(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn gcd_lcm_product_law(a in biguint_nonzero(), b in biguint_nonzero()) {
        // gcd(a,b) * lcm(a,b) == a*b
        prop_assert_eq!(a.gcd(&b).mul(&a.lcm(&b)), a.mul(&b));
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint_nonzero(), m in odd_modulus()) {
        if let Ok(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m), BigUint::one().rem(&m));
        } else {
            // Not invertible implies non-trivial gcd.
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn random_below_in_range(seed in any::<u64>(), m in odd_modulus()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = random_below(&mut rng, &m);
        prop_assert!(v < m);
    }

    #[test]
    fn pow_walks_match_binary_reference(a in biguint(), e in biguint(), m in odd_modulus()) {
        // The masked fixed-window walk, the skipping window walk and plain
        // square-and-multiply must agree on every (base, exponent,
        // modulus), multi-limb exponents included.
        let expected = pow_reference(&a, &e, &m);
        prop_assert_eq!(a.mod_pow_ct(&e, &m), expected.clone());
        prop_assert_eq!(a.mod_pow(&e, &m), expected);
    }

    #[test]
    fn gcd_matches_euclid(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.gcd(&b), gcd_reference(&a, &b));
        // A planted common factor, and a zero on either side.
        let (ac, bc) = (a.mul(&c), b.mul(&c));
        prop_assert_eq!(ac.gcd(&bc), gcd_reference(&ac, &bc));
        prop_assert_eq!(a.gcd(&BigUint::zero()), a.clone());
        prop_assert_eq!(BigUint::zero().gcd(&a), a);
    }

    #[test]
    fn pow_ct_even_modulus_fallback_matches(a in biguint(), e in 0u64..256, m in biguint_nonzero()) {
        // Even moduli have no Montgomery form; mod_pow_ct must degrade to
        // the same division-based result as mod_pow.
        let e = BigUint::from_u64(e);
        prop_assert_eq!(a.mod_pow_ct(&e, &m), a.mod_pow(&e, &m));
    }
}

/// Euclid with a division per step: the reference for the in-place
/// binary `gcd`.
fn gcd_reference(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        (a, b) = (b.clone(), a.rem(&b));
    }
    a
}

/// Binary square-and-multiply over `mod_mul`: the reference for both
/// Montgomery walks (the crate's own `mod_pow_binary` is private and only
/// serves even moduli).
fn pow_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut acc = BigUint::one().rem(m);
    for i in (0..exp.bits()).rev() {
        acc = acc.mod_mul(&acc, m);
        if exp.bit(i) {
            acc = acc.mod_mul(base, m);
        }
    }
    acc
}

/// Little-endian limbs of `v`, padded to `n`.
fn limbs_of(v: &BigUint, n: usize) -> Vec<u64> {
    let mut bytes = v.to_bytes_be_padded(n * 8);
    bytes.reverse();
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn value_of(limbs: &[u64]) -> BigUint {
    let mut bytes: Vec<u8> = limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
    bytes.reverse();
    BigUint::from_bytes_be(&bytes)
}

/// The Montgomery kernel against `mod_mul`, at every limb count from 1
/// (where the kernel's inner loop runs once per row and the stored limb is
/// the overflow sum) to 33 (one past the 2048-bit width), over moduli at
/// both ends of the top limb and operands at the edges of `[0, m)`.
#[test]
fn montgomery_kernel_matches_mod_mul_at_every_width() {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    // Miri interprets every limb product: keep the widths that differ in
    // shape (one limb, two, three, a multi-limb one).
    let widths: Vec<usize> = if cfg!(miri) {
        vec![1, 2, 3, 9]
    } else {
        (1..=33).collect()
    };
    for n in widths {
        let top = BigUint::one().shl(64 * (n - 1));
        let full = BigUint::one().shl(64 * n);
        let mut random_modulus = &random_below(&mut rng, &top.shl(63)) + &top.shl(63);
        random_modulus.set_bit(0);
        let moduli = [
            random_modulus,
            // All-ones: the product overflows into the kernel's extra limb.
            full.checked_sub(&BigUint::one()).unwrap(),
            // Smallest odd n-limb value above one: top limb 1 (3 for n = 1).
            &top + &BigUint::from_u64(if n == 1 { 2 } else { 1 }),
        ];
        for m in &moduli {
            let ctx = Montgomery::new(m).unwrap();
            assert_eq!(ctx.limb_count(), n);
            let r = full.rem(m);
            assert_eq!(value_of(&ctx.one_mont()), r);
            let operands = [
                BigUint::zero(),
                BigUint::one().rem(m),
                m.checked_sub(&BigUint::one()).unwrap(),
                // Every limb below the top one all-ones.
                top.checked_sub(&BigUint::one()).unwrap(),
                r.clone(),
                random_below(&mut rng, m),
                random_below(&mut rng, m),
            ];
            for a in &operands {
                for b in &operands {
                    let expected = a.mod_mul(b, m);
                    // The raw kernel: any reduced limb vector is a valid
                    // Montgomery form, and the product carries one R⁻¹.
                    let (al, bl) = (limbs_of(a, n), limbs_of(b, n));
                    let product = ctx.mont_mul(&al, &bl);
                    assert_eq!(product.len(), n);
                    let value = value_of(&product);
                    assert!(value < *m, "n={n}: product not reduced");
                    assert_eq!(
                        value.mod_mul(&r, m),
                        expected,
                        "n={n} a={a:?} b={b:?} m={m:?}"
                    );
                    // The in-place form writes the same limbs whatever the
                    // buffer held before.
                    let mut out = vec![0xDEAD_BEEF_DEAD_BEEF; n];
                    ctx.mont_mul_into(&al, &bl, &mut out);
                    assert_eq!(out, product);
                    // And through the conversions.
                    assert_eq!(ctx.mul(a, b), expected);
                }
            }
        }
    }
}

/// `pow`, `pow_ct` and the binary reference on the exponents where the
/// window walks change shape: zero, one, a lone high bit (every lower
/// window zero), all-ones runs ending on and off a window boundary, and
/// multi-limb exponents whose top limb has only its lowest window set.
#[test]
fn pow_walks_agree_on_edge_exponents() {
    let mut rng = StdRng::seed_from_u64(0x0065_7870);
    let one = BigUint::one();
    let mut exponents = vec![BigUint::zero(), one.clone()];
    for k in [1usize, 3, 4, 5, 63, 64, 65, 127, 128, 130] {
        exponents.push(one.shl(k));
        exponents.push(one.shl(k).checked_sub(&one).unwrap());
    }
    exponents.push(&one.shl(64) + &BigUint::from_u64(0xF));
    exponents.push(&one.shl(128) + &BigUint::from_u64(5));
    exponents.push(&BigUint::from_u64(9).shl(128) + &one.shl(3));
    for bits in [61usize, 64, 127, 320] {
        let mut m = &random_below(&mut rng, &one.shl(bits - 1)) + &one.shl(bits - 1);
        m.set_bit(0);
        let ctx = Montgomery::new(&m).unwrap();
        for base in [BigUint::zero(), one.clone(), random_below(&mut rng, &m)] {
            for e in &exponents {
                let expected = pow_reference(&base, e, &m);
                assert_eq!(ctx.pow(&base, e), expected, "pow bits={bits} e={e:?}");
                assert_eq!(ctx.pow_ct(&base, e), expected, "pow_ct bits={bits} e={e:?}");
            }
        }
    }
}

/// Structured operands that exercise Knuth D's rare correction paths
/// (qhat overestimation and the D6 add-back), from the classic
/// Hacker's Delight test set, adapted to 32-bit digits.
#[test]
fn knuth_d_add_back_cases() {
    let digit = |d: u64, shift: usize| BigUint::from_u64(d).shl(shift * 32);
    let cases = [
        // u = [3, 0, 0x8000_0000], v = [1, 0x8000_0000] (digits, LE)
        (
            &digit(3, 0) + &digit(0x8000_0000, 2),
            &digit(1, 0) + &digit(0x8000_0000, 1),
        ),
        // u = [0, 0x8000_0000, 0x7fff_ffff], v = [1, 0x8000_0000]
        (
            &digit(0x8000_0000, 1) + &digit(0x7fff_ffff, 2),
            &digit(1, 0) + &digit(0x8000_0000, 1),
        ),
        // u = [0, 0xfffe_0000, 0x8000_0000], v = [0xffff_ffff, 0x8000_0000]
        (
            &digit(0xfffe_0000, 1) + &digit(0x8000_0000, 2),
            &digit(0xffff_ffff, 0) + &digit(0x8000_0000, 1),
        ),
        // Divisor with max top digit, dividend all ones.
        (
            BigUint::one().shl(256).checked_sub(&BigUint::one()).unwrap(),
            &digit(0xffff_ffff, 0) + &digit(0xffff_ffff, 3),
        ),
    ];
    for (i, (u, v)) in cases.iter().enumerate() {
        let (q, r) = u.div_rem(v).unwrap();
        assert!(r < *v, "case {i}: remainder bound");
        assert_eq!(&q.mul(v) + &r, *u, "case {i}: reconstruction");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Heavier operands than the main suite: up to 2048-bit dividends,
    /// the sizes Paillier actually uses mod n².
    #[test]
    fn division_invariant_large(
        a in proptest::collection::vec(any::<u8>(), 128..256),
        b in proptest::collection::vec(any::<u8>(), 32..128),
    ) {
        let a = BigUint::from_bytes_be(&a);
        let mut b = BigUint::from_bytes_be(&b);
        if b.is_zero() {
            b = BigUint::one();
        }
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&q.mul(&b) + &r, a);
    }
}

#[test]
fn prime_product_has_no_small_factors() {
    let mut rng = StdRng::seed_from_u64(99);
    let p = prime::gen_prime(&mut rng, 96);
    let q = prime::gen_prime(&mut rng, 96);
    assert_ne!(p, q);
    let n = p.mul(&q);
    assert_eq!(n.bits(), 192);
    assert_eq!(n.gcd(&p), p);
    assert_eq!(&n / &p, q);
}

#[test]
fn fermat_on_generated_primes() {
    let mut rng = StdRng::seed_from_u64(7);
    for bits in [32usize, 64, 128] {
        let p = prime::gen_prime(&mut rng, bits);
        let a = BigUint::from_u64(2);
        let e = &p - &BigUint::one();
        assert_eq!(a.mod_pow(&e, &p), BigUint::one(), "bits={bits}");
    }
}

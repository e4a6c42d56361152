//! Timing smoke test for the constant-time exponentiation path
//! (dudect-flavored, heavily simplified): the runtime of `mod_pow_ct`
//! must not depend on which exponent bits are set.
//!
//! `mod_pow_ct` is a fixed-window walk: four squarings and one
//! multiplication per 4-bit window, the factor fetched by a scan that
//! reads all sixteen table entries under masks. Each case below puts two
//! exponents of the *same limb count* (the one exponent-derived quantity
//! the walk may depend on) at opposite ends of a leakage axis and measures
//! them in interleaved rounds, so drift (thermal, scheduler) hits both
//! classes equally:
//!
//! * Hamming weight — one set bit (every window but the top reads entry 0)
//!   against all bits set (every window reads entry 15). The variable-time
//!   window walk skips zero windows and would show the dense exponent
//!   costing roughly a quarter more products.
//! * Table index — every window reading entry 1 against every window
//!   reading entry 15, at equal window count. An early-exit scan would
//!   stop after two entries in one class and run all sixteen in the other.
//!
//! Both run at the 256-bit toy shape and at the shape CRT decryption uses
//! for a 1024-bit key: a 512-bit exponent (`p − 1`) under a 1024-bit
//! modulus (`p²`).
//!
//! The threshold is 15 %. The defect this guards against — routing
//! `mod_pow_ct` back through the skipping window walk — measures as a 26 %
//! median gap on the Hamming-weight axis at both shapes (a binary walk
//! shows more), while the interleaved medians of the masked walk agree to
//! about 1 % on a shared two-core host.

use pprl_bignum::BigUint;
use std::time::Instant;

/// Samples per class. Odd, so the median is a single order statistic.
const SAMPLES: usize = 31;
/// Exponentiations per sample (amortizes the `Instant` read).
const REPS: usize = 4;

fn median_ns(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// `2^bits − 1`.
fn all_ones(bits: usize) -> BigUint {
    BigUint::one()
        .shl(bits)
        .checked_sub(&BigUint::one())
        .unwrap()
}

/// The `bits`-bit exponent whose every 4-bit window is `nibble`.
fn every_window(nibble: u8, bits: usize) -> BigUint {
    BigUint::from_bytes_be(&vec![nibble << 4 | nibble; bits / 8])
}

/// An odd `bits`-bit modulus (`2^bits − 189`) and a base that fills it.
fn modulus_and_base(bits: usize) -> (BigUint, BigUint) {
    let modulus = BigUint::one()
        .shl(bits)
        .checked_sub(&BigUint::from_u64(189))
        .unwrap();
    let seed = BigUint::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128);
    let base = seed.mod_pow(&BigUint::from_u64(bits as u64 / 64 + 1), &modulus);
    (modulus, base)
}

/// Interleaved medians of `mod_pow_ct` over the two exponents; fails when
/// they differ by 15 % or more.
fn assert_same_time(what: &str, modulus_bits: usize, exp_a: &BigUint, exp_b: &BigUint) {
    let (modulus, base) = modulus_and_base(modulus_bits);
    assert_eq!(exp_a.bits().div_ceil(64), exp_b.bits().div_ceil(64));

    let time_one = |exp: &BigUint| -> u128 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(
                std::hint::black_box(&base).mod_pow_ct(std::hint::black_box(exp), &modulus),
            );
        }
        t0.elapsed().as_nanos()
    };

    // Warmup: fault in code paths and let the allocator settle.
    for _ in 0..3 {
        time_one(exp_a);
        time_one(exp_b);
    }

    let mut a = Vec::with_capacity(SAMPLES);
    let mut b = Vec::with_capacity(SAMPLES);
    // Interleave the classes so slow drift cancels instead of biasing
    // whichever class happens to run second.
    for i in 0..SAMPLES {
        if i % 2 == 0 {
            a.push(time_one(exp_a));
            b.push(time_one(exp_b));
        } else {
            b.push(time_one(exp_b));
            a.push(time_one(exp_a));
        }
    }

    let (med_a, med_b) = (median_ns(a), median_ns(b));
    let ratio = med_a.max(med_b) as f64 / med_a.min(med_b).max(1) as f64;
    println!(
        "{what} @ {modulus_bits}-bit modulus: medians {med_a} ns vs {med_b} ns, ratio {ratio:.3}"
    );
    assert!(
        ratio < 1.15,
        "mod_pow_ct timing varies with {what}: medians {med_a} ns vs {med_b} ns (ratio {ratio:.3})"
    );
}

/// One test, cases in sequence: two timing tests on parallel test threads
/// would be each other's noise.
#[test]
fn timing_independent_of_exponent_bits() {
    // (modulus bits, exponent bits): the 256-bit toy shape, then the shape
    // CRT decryption uses for a 1024-bit key.
    for (modulus_bits, exp_bits) in [(256, 256), (1024, 512)] {
        assert_same_time(
            "exponent Hamming weight",
            modulus_bits,
            &BigUint::one().shl(exp_bits - 1),
            &all_ones(exp_bits),
        );
        assert_same_time(
            "window table index",
            modulus_bits,
            &every_window(0x1, exp_bits),
            &every_window(0xF, exp_bits),
        );
    }
}

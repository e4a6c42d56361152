//! Property tests for the CLK wire codecs and the match decision.
//!
//! The wire properties pin the adversarial surface: a `TAG_CLK` or
//! `TAG_DICE` payload that was truncated, extended, re-tagged, or had
//! padding/tally invariants broken must decode to a typed [`WireError`],
//! never to a filter or verdict. The round-trip and determinism
//! properties pin what resume correctness rests on: identical inputs
//! encode to identical bytes, and the threshold decision is a pure
//! function of the tallies. The tally properties pin the word-parallel
//! kernel: one pass over `u64` words with cached cardinalities must count
//! what a bit-by-bit walk counts, at every word-boundary filter length.

use proptest::prelude::*;
use pprl_bloom::{
    blip_flip, clk_msg_len, decode_clk, decode_dice, dice_match, dice_millis, encode_clk,
    encode_dice, encode_fields, Clk, ClkParams, ClkRef, DiceCounts, DiceMsg, WireError,
    DICE_MSG_LEN, SIDE_A, SIDE_B, TAG_CLK, TAG_DICE,
};

/// Small-but-irregular filter lengths: byte-aligned, off-by-one, and the
/// paper default. Small filters keep case counts high; `validate()`
/// bounds are respected.
fn any_params() -> impl Strategy<Value = ClkParams> {
    (
        prop_oneof![Just(64u32), Just(96), Just(100), 8u32..=128, Just(1000)],
        1u32..=8,
        1u32..=4,
        0u32..=1000,
        any::<u64>(),
    )
        .prop_map(|(filter_len, hashes, q, threshold_millis, seed)| {
            let mut p = ClkParams::paper_defaults(seed);
            p.filter_len = filter_len;
            p.hashes = hashes;
            p.q = q;
            p.threshold_millis = threshold_millis;
            p
        })
}

fn any_fields() -> impl Strategy<Value = Vec<String>> {
    // Printable-ASCII fields built from byte vectors (the vendored
    // proptest build carries no string-regex support).
    prop::collection::vec(
        prop::collection::vec(0x20u8..0x7f, 0..13)
            .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii")),
        1..6,
    )
}

/// Filter lengths on either side of a byte and a word boundary, plus the
/// paper's 1000 bits and one past it.
const EDGE_LENS: [u32; 8] = [1, 7, 8, 63, 64, 65, 1000, 1001];
/// Packed bytes of the longest edge length.
const EDGE_BYTES: usize = 126;

fn packed(clk: &Clk) -> Vec<u8> {
    let mut bytes = Vec::new();
    ClkRef::from(clk).pack_into(&mut bytes);
    bytes
}

/// An `nbits`-bit filter cut from arbitrary bytes, padding cleared.
fn filter_from(nbits: u32, noise: &[u8]) -> Clk {
    let mut bytes = noise[..(nbits as usize).div_ceil(8)].to_vec();
    if nbits % 8 != 0 {
        *bytes.last_mut().unwrap() &= !(!0u8 << (nbits % 8));
    }
    Clk::from_bytes(nbits, &bytes).expect("well-formed filter")
}

/// The tallies counted one bit at a time from the packed bytes.
fn reference_counts(a: &Clk, b: &Clk) -> DiceCounts {
    let (pa, pb) = (packed(a), packed(b));
    let bit = |bytes: &[u8], j: u32| bytes[(j / 8) as usize] >> (j % 8) & 1 == 1;
    let mut counts = DiceCounts {
        a_ones: 0,
        b_ones: 0,
        common: 0,
    };
    for j in 0..a.nbits() {
        let (x, y) = (bit(&pa, j), bit(&pb, j));
        counts.a_ones += u32::from(x);
        counts.b_ones += u32::from(y);
        counts.common += u32::from(x && y);
    }
    counts
}

proptest! {
    /// The one-pass tally equals the bit-by-bit reference at every edge
    /// length, for arbitrary filters and against the all-zero and
    /// all-one filters.
    #[test]
    fn one_pass_dice_equals_the_bit_by_bit_reference(
        noise_a in prop::collection::vec(any::<u8>(), EDGE_BYTES..EDGE_BYTES + 1),
        noise_b in prop::collection::vec(any::<u8>(), EDGE_BYTES..EDGE_BYTES + 1),
    ) {
        for nbits in EDGE_LENS {
            let a = filter_from(nbits, &noise_a);
            let b = filter_from(nbits, &noise_b);
            let zero = Clk::zero(nbits);
            let full = filter_from(nbits, &[0xff; EDGE_BYTES]);
            prop_assert_eq!(full.ones(), nbits);
            for (x, y) in [
                (&a, &b), (&a, &a), (&a, &zero), (&zero, &b), (&a, &full), (&full, &b),
                (&zero, &zero), (&zero, &full), (&full, &full),
            ] {
                prop_assert_eq!(DiceCounts::of(x, y), Some(reference_counts(x, y)));
            }
        }
    }

    /// The cached cardinality is the real one after every way a filter
    /// comes to be: gram insertion, DP flips, and the wire decoder.
    #[test]
    fn cached_ones_equal_a_recount(
        params in any_params(),
        fields in any_fields(),
        epsilon_millis in 0u32..=5000,
        row in any::<u32>(),
        side in prop_oneof![Just(SIDE_A), Just(SIDE_B)],
    ) {
        let recount = |clk: &Clk| packed(clk).iter().map(|b| b.count_ones()).sum::<u32>();
        let mut params = params;
        params.epsilon_millis = epsilon_millis;
        let mut clk = encode_fields(&params, &fields);
        prop_assert_eq!(clk.ones(), recount(&clk));
        let flips = blip_flip(&mut clk, &params, side, row);
        prop_assert_eq!(clk.ones(), recount(&clk));
        let (back, _) = decode_clk(&encode_clk(&clk, flips), params.filter_len).unwrap();
        prop_assert_eq!(back.ones(), recount(&back));
        prop_assert_eq!(back.ones(), clk.ones());
    }

    /// encode ∘ decode is the identity on every (params, record) pair —
    /// the exact bytes a resumed holder re-derives must parse back to
    /// the exact filter the first incarnation sent.
    #[test]
    fn clk_encode_decode_identity(
        params in any_params(),
        fields in any_fields(),
        flips in any::<u32>(),
    ) {
        let clk = encode_fields(&params, &fields);
        let wire = encode_clk(&clk, flips);
        prop_assert_eq!(wire.len(), clk_msg_len(params.filter_len));
        prop_assert_eq!(wire[0], TAG_CLK);
        let (back, back_flips) = decode_clk(&wire, params.filter_len).unwrap();
        prop_assert_eq!(back, clk);
        prop_assert_eq!(back_flips, flips);
    }

    /// Encoding is deterministic: the same record under the same params
    /// produces byte-identical wire payloads (resume depends on it).
    #[test]
    fn clk_encoding_deterministic(params in any_params(), fields in any_fields()) {
        let a = encode_clk(&encode_fields(&params, &fields), 0);
        let b = encode_clk(&encode_fields(&params, &fields), 0);
        prop_assert_eq!(a, b);
    }

    /// Truncating or extending a CLK payload by any amount is a typed
    /// length error.
    #[test]
    fn clk_rejects_resized(
        params in any_params(),
        fields in any_fields(),
        cut in 1usize..=8,
        grow in 1usize..=8,
        extra in any::<u8>(),
    ) {
        let wire = encode_clk(&encode_fields(&params, &fields), 7);
        let cut = cut.min(wire.len());
        let short = &wire[..wire.len() - cut];
        prop_assert_eq!(
            decode_clk(short, params.filter_len),
            Err(WireError::Length { expected: wire.len(), got: short.len() })
        );
        let mut long = wire.clone();
        long.extend(std::iter::repeat(extra).take(grow));
        prop_assert_eq!(
            decode_clk(&long, params.filter_len),
            Err(WireError::Length { expected: wire.len(), got: long.len() })
        );
    }

    /// Any single-bit flip in a CLK payload is either caught by the
    /// codec (tag byte, dead padding bit) or decodes to a *different*
    /// filter / flip count — never silently to the original message.
    #[test]
    fn clk_bit_flip_never_silent(
        params in any_params(),
        fields in any_fields(),
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let clk = encode_fields(&params, &fields);
        let wire = encode_clk(&clk, 3);
        let at = byte_sel.index(wire.len());
        let mut mutated = wire.clone();
        mutated[at] ^= 1 << bit;
        match decode_clk(&mutated, params.filter_len) {
            Err(WireError::Tag { .. }) => prop_assert_eq!(at, 0),
            Err(WireError::Padding) => {
                // Only a dead bit past filter_len can trip this.
                prop_assert!(params.filter_len % 8 != 0);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            Ok((back, flips)) => {
                prop_assert!(back != clk || flips != 3, "bit flip decoded to the original");
            }
        }
    }

    /// Same for dice payloads: resized input is a typed length error,
    /// and the codec refuses tallies that are impossible under the
    /// agreed filter length.
    #[test]
    fn dice_rejects_resized_and_impossible(
        a_ones in 0u32..=1000,
        b_ones in 0u32..=1000,
        common in 0u32..=1000,
        flips in any::<u32>(),
        cut in 1usize..=DICE_MSG_LEN,
        grow in 1usize..=8,
    ) {
        let msg = DiceMsg { a_ones, b_ones, common, flips };
        let wire = encode_dice(&msg);
        prop_assert_eq!(wire.len(), DICE_MSG_LEN);
        prop_assert_eq!(wire[0], TAG_DICE);

        let short = &wire[..DICE_MSG_LEN - cut];
        prop_assert!(matches!(
            decode_dice(short, 1000),
            Err(WireError::Length { .. })
        ));
        let mut long = wire.clone();
        long.extend(std::iter::repeat(0u8).take(grow));
        prop_assert!(matches!(
            decode_dice(&long, 1000),
            Err(WireError::Length { .. })
        ));

        let plausible = common <= a_ones.min(b_ones);
        match decode_dice(&wire, 1000) {
            Ok(back) => {
                prop_assert!(plausible);
                prop_assert_eq!(back, msg);
            }
            Err(WireError::Counts) => prop_assert!(!plausible),
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
        // The same tallies against a smaller agreed filter are refused.
        if a_ones.max(b_ones) > 63 {
            prop_assert_eq!(decode_dice(&wire, 63), Err(WireError::Counts));
        }
    }

    /// The threshold decision is a pure, deterministic function of the
    /// tallies: recomputing it (as a resumed querier does when replaying
    /// journal frames) can never change a verdict.
    #[test]
    fn threshold_decision_deterministic(
        params in any_params(),
        left in any_fields(),
        right in any_fields(),
    ) {
        let a = encode_fields(&params, &left);
        let b = encode_fields(&params, &right);
        let counts = DiceCounts::of(&a, &b).unwrap();
        let first = dice_match(&counts, params.threshold_millis);
        for _ in 0..3 {
            let again = DiceCounts::of(&a, &b).unwrap();
            prop_assert_eq!(dice_millis(&again), dice_millis(&counts));
            prop_assert_eq!(dice_match(&again, params.threshold_millis), first);
        }
        // The decision agrees with the scaled Dice coefficient.
        prop_assert_eq!(first, dice_millis(&counts) >= params.threshold_millis);
        // Identical records always match at any threshold <= 1000 when
        // the filter is non-empty.
        let self_counts = DiceCounts::of(&a, &a).unwrap();
        if a.ones() > 0 {
            prop_assert_eq!(dice_millis(&self_counts), 1000);
        }
    }
}

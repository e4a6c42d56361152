//! Slot-packed record comparison: several attributes per Paillier ciphertext.
//!
//! The scalar record protocol ([`record`](crate::protocol::record)) spends
//! one ciphertext — one `mul_plain` modpow, one rerandomization modpow, and
//! `ciphertext_width` wire bytes — per attribute of Bob's reply. For a
//! 1024-bit modulus carrying 24-bit attribute values that is enormous
//! headroom going to waste. This module packs the masked comparison results
//! of several attributes **slot-wise into one plaintext**:
//!
//! ```text
//! m = Σᵢ 2^(W·i) · ( ρᵢ·(dᵢ² − tᵢ) + 2^(W−1) )        W = SLOT_BITS
//! ```
//!
//! Each slot holds a masked comparison plus a `2^(W−1)` offset that keeps
//! the slot non-negative, so the whole sum is an ordinary non-negative
//! integer below `n` and slots never bleed into each other. The querying
//! party decrypts **one ciphertext per chunk** and reads each slot's sign
//! from its offset: slot value `≤ 2^(W−1)` ⇔ `dᵢ² ≤ tᵢ` ⇔ attribute match.
//!
//! ## Width budget
//!
//! With attribute values `< 2^VALUE_BITS`, squared distances and squared
//! thresholds fit `2·VALUE_BITS` bits; the mask `ρ ∈ [1, 2^MASK_BITS]`
//! multiplies that; one more bit covers the sign offset and one the carry
//! head-room: `W = MASK_BITS + 2·VALUE_BITS + 2`. A key packs
//! `(key_bits − 2)/W` slots per ciphertext so the packed sum stays under
//! `n` for any modulus of the advertised size (1024-bit → 10 slots,
//! 256-bit test keys → 2 slots).
//!
//! ## Cost
//!
//! Per attribute the scalar path pays 1 encryption + 2 scalar muls
//! (mask + rerandomize are both modpows) and a full ciphertext on the
//! wire. Packed, the rerandomization and the wire bytes amortize over the
//! chunk, and the slot shift `2^(W·i)` is folded into the single mask
//! multiplication (`ρᵢ·2^(W·i)` is one exponent), so it costs no extra
//! modpow. Alice's message is unchanged — packing compresses only Bob's
//! reply and the querier's decryptions.
//!
//! The packed and scalar protocols decide every pair identically (see the
//! equivalence proptest below); only costs and message bytes differ, which
//! is why the `pack` knob participates in the job fingerprint.

use crate::paillier::{Ciphertext, PrivateKey, PublicKey};
use crate::protocol::compare::MASK_BITS;
use crate::protocol::cost::CostLedger;
use crate::protocol::record::{
    bob_record_message, expect_empty, expect_tag, get_biguint, get_count, put_ciphertext,
    querier_reveal_record, RecordShareMessage,
};
use crate::CryptoError;
use bytes::{BufMut, Bytes, BytesMut};
use pprl_bignum::BigUint;
use rand::RngCore;

/// Attribute values (and therefore distances) must fit this many bits to
/// be packable: `v < 2^24`. The executor's encodings stay far below this
/// (categorical indices and `value × 1000` scaled numerics).
pub const VALUE_BITS: usize = 24;

/// Slot width in bits: mask, squared magnitude, sign offset, carry room.
pub const SLOT_BITS: usize = MASK_BITS + 2 * VALUE_BITS + 2;

const TAG_RECORD_PACKED: u8 = 18;

/// How a given key packs attributes into ciphertexts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackingPlan {
    /// Bits per slot (always [`SLOT_BITS`]; carried for self-description).
    pub slot_bits: usize,
    /// Slots one plaintext holds: `(key_bits − 2) / slot_bits`.
    pub slots_per_ct: usize,
}

impl PackingPlan {
    /// Derives the plan from the key size. Fails if the modulus cannot
    /// hold even one slot (keys below ~100 bits, which the crate never
    /// generates).
    pub fn for_key(pk: &PublicKey) -> Result<Self, CryptoError> {
        let slots_per_ct = pk.key_bits().saturating_sub(2) / SLOT_BITS;
        if slots_per_ct == 0 {
            return Err(CryptoError::Protocol(format!(
                "{}-bit key too small for one {SLOT_BITS}-bit slot",
                pk.key_bits()
            )));
        }
        Ok(PackingPlan {
            slot_bits: SLOT_BITS,
            slots_per_ct,
        })
    }

    /// Ciphertexts needed to carry `attrs` packed attributes.
    pub fn ct_count(&self, attrs: usize) -> usize {
        attrs.div_ceil(self.slots_per_ct)
    }
}

/// Checks that values are small enough to pack (`< 2^VALUE_BITS`). Each
/// data holder runs this over *its own* attributes — neither can check the
/// other's, so overflow by a dishonest holder degrades only correctness,
/// never privacy (the honest-but-curious model the paper assumes).
pub fn validate_packable_values(values: &[u64]) -> Result<(), CryptoError> {
    if values.iter().any(|&v| v >> VALUE_BITS != 0) {
        return Err(CryptoError::ValueOutOfRange);
    }
    Ok(())
}

/// Checks Bob's inputs: his values, plus the public squared thresholds
/// (`< 2^(2·VALUE_BITS)`, the largest squared distance a packable value
/// pair can produce).
pub fn validate_packable(values: &[u64], thresholds: &[u64]) -> Result<(), CryptoError> {
    validate_packable_values(values)?;
    if thresholds.iter().any(|&t| t >> (2 * VALUE_BITS) != 0) {
        return Err(CryptoError::ValueOutOfRange);
    }
    Ok(())
}

/// Packs slot values (each `< 2^slot_bits`) into one integer:
/// `Σᵢ slots[i]·2^(slot_bits·i)`. Pure arithmetic, so the proptests can
/// pin down `unpack_slots ∘ pack_slots = id` independently of any key.
pub fn pack_slots(slots: &[BigUint], slot_bits: usize) -> BigUint {
    slots
        .iter()
        .enumerate()
        .fold(BigUint::zero(), |acc, (i, s)| &acc + &s.shl(slot_bits * i))
}

/// Splits a packed integer back into its first `count` slot values.
pub fn unpack_slots(packed: &BigUint, count: usize, slot_bits: usize) -> Vec<BigUint> {
    (0..count)
        .map(|i| {
            let shifted = packed.shr(slot_bits * i);
            let high = shifted.shr(slot_bits).shl(slot_bits);
            // `high ≤ shifted` by construction, so the subtraction cannot
            // fail; fall back to zero rather than panicking in this crate.
            shifted.checked_sub(&high).unwrap_or_else(|_| BigUint::zero())
        })
        .collect()
}

/// Bob's packed reply: the slot count lets the querier recover how many
/// slots the final (possibly partial) ciphertext carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedResultMessage {
    /// Total packed attribute slots across all ciphertexts.
    pub total_slots: u16,
    /// One ciphertext per chunk of `slots_per_ct` attributes.
    pub cts: Vec<Ciphertext>,
}

impl PackedResultMessage {
    /// Encodes to the wire format, padding each ciphertext to `width`
    /// bytes so message sizes depend only on the arity.
    pub fn encode(&self, width: usize) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_RECORD_PACKED);
        buf.put_u16(self.total_slots);
        buf.put_u16(self.cts.len() as u16);
        for c in &self.cts {
            put_ciphertext(&mut buf, c.as_biguint(), width);
        }
        buf.freeze()
    }

    /// Decodes from the wire format.
    pub fn decode(mut data: &[u8]) -> Result<Self, CryptoError> {
        expect_tag(&mut data, TAG_RECORD_PACKED)?;
        let total_slots = get_count(&mut data)? as u16;
        let ct_count = get_count(&mut data)?;
        let mut cts = Vec::with_capacity(ct_count);
        for _ in 0..ct_count {
            cts.push(Ciphertext::from_biguint(get_biguint(&mut data)?));
        }
        expect_empty(data)?;
        Ok(PackedResultMessage { total_slots, cts })
    }
}

/// Bob's step, packed: consume Alice's (unchanged) share message and fold
/// every chunk of `slots_per_ct` attributes into one ciphertext.
pub fn bob_record_message_packed<R: RngCore + ?Sized>(
    pk: &PublicKey,
    alice_message: &[u8],
    values: &[u64],
    thresholds: &[u64],
    rng: &mut R,
    ledger: &mut CostLedger,
) -> Result<Vec<u8>, CryptoError> {
    let plan = PackingPlan::for_key(pk)?;
    validate_packable(values, thresholds)?;
    let share_msg = RecordShareMessage::decode(alice_message)?;
    if share_msg.shares.len() != values.len() || values.len() != thresholds.len() {
        return Err(CryptoError::Protocol(format!(
            "arity mismatch: {} shares, {} values, {} thresholds",
            share_msg.shares.len(),
            values.len(),
            thresholds.len()
        )));
    }
    if values.is_empty() {
        return Err(CryptoError::Protocol("no attributes to pack".into()));
    }
    let attrs: Vec<(&(Ciphertext, Ciphertext), u64, u64)> = share_msg
        .shares
        .iter()
        .zip(values)
        .zip(thresholds)
        .map(|((share, &b), &t)| (share, b, t))
        .collect();
    let half_slot = BigUint::one().shl(SLOT_BITS - 1);
    let mut cts = Vec::with_capacity(plan.ct_count(values.len()));
    for chunk in attrs.chunks(plan.slots_per_ct) {
        let mut acc: Option<Ciphertext> = None;
        for (i, ((a2, m2a), b, t)) in chunk.iter().enumerate() {
            pk.validate(a2)?;
            pk.validate(m2a)?;
            // Enc(d²) from Alice's share and Bob's value, as in the
            // scalar path but *without* a per-attribute rerandomization —
            // one rerandomization per chunk covers the whole sum.
            let b_sq = (*b as u128) * (*b as u128);
            let enc_b_squared = pk.encrypt(&BigUint::from_u128(b_sq), rng)?;
            let cross = pk.mul_plain(m2a, &BigUint::from_u64(*b));
            let sum = pk.add(&pk.add(a2, &cross), &enc_b_squared);
            ledger.encryptions += 1;
            ledger.scalar_muls += 1;
            ledger.homomorphic_adds += 2;
            // Enc(d² − t).
            let shifted = if *t == 0 {
                sum
            } else {
                let minus_t = pk
                    .n()
                    .checked_sub(&BigUint::from_u64(*t))
                    .map_err(|_| CryptoError::PlaintextTooLarge)?;
                ledger.homomorphic_adds += 1;
                pk.add_plain(&sum, &minus_t)
            };
            // The slot shift rides inside the mask multiplication:
            // ρᵢ·2^(W·i) is a single scalar, so shifting costs no extra
            // modpow over the scalar path's masking step.
            let rho = &pprl_bignum::random_bits(rng, MASK_BITS) + 1u64;
            let masked = pk.mul_plain(&shifted, &rho.shl(SLOT_BITS * i));
            ledger.scalar_muls += 1;
            acc = Some(match acc {
                Some(prev) => {
                    ledger.homomorphic_adds += 1;
                    pk.add(&prev, &masked)
                }
                None => masked,
            });
        }
        let acc = acc.ok_or_else(|| CryptoError::Protocol("empty packing chunk".into()))?;
        // Per-slot sign offsets, added in one plaintext addition; they
        // lift every slot into [0, 2^W), so the packed sum is an exact
        // non-negative integer below n and slots cannot interfere.
        let offset = pack_slots(&vec![half_slot.clone(); chunk.len()], SLOT_BITS);
        let lifted = pk.add_plain(&acc, &offset);
        ledger.homomorphic_adds += 1;
        cts.push(pk.rerandomize(&lifted, rng));
        ledger.rerandomizations += 1;
    }
    let msg = PackedResultMessage {
        total_slots: values.len() as u16,
        cts,
    }
    .encode(pk.ciphertext_width());
    ledger.record_message(msg.len());
    Ok(msg.to_vec())
}

/// Querying party's step, packed: one decryption per chunk, then each
/// slot's offset-relative sign decides its attribute. The pair matches
/// iff every slot does (the same conjunction as the scalar path, with
/// every ciphertext decrypted regardless for constant-work behavior).
pub fn querier_reveal_record_packed(
    sk: &PrivateKey,
    bob_message: &[u8],
    ledger: &mut CostLedger,
) -> Result<bool, CryptoError> {
    let plan = PackingPlan::for_key(sk.public())?;
    let msg = PackedResultMessage::decode(bob_message)?;
    let total = msg.total_slots as usize;
    if total == 0 {
        return Err(CryptoError::Protocol("packed message with no slots".into()));
    }
    if msg.cts.len() != plan.ct_count(total) {
        return Err(CryptoError::Protocol(format!(
            "{} ciphertexts cannot carry {} slots at {} per ciphertext",
            msg.cts.len(),
            total,
            plan.slots_per_ct
        )));
    }
    let half_slot = BigUint::one().shl(SLOT_BITS - 1);
    let mut all = true;
    let mut remaining = total;
    for c in &msg.cts {
        ledger.decryptions += 1;
        let m = sk.decrypt(c)?;
        let in_this_ct = remaining.min(plan.slots_per_ct);
        for slot in unpack_slots(&m, in_this_ct, SLOT_BITS) {
            // slot = ρ·(d² − t) + 2^(W−1): at most the offset ⇔ d² ≤ t.
            if slot > half_slot {
                all = false;
                // Keep going: constant work per message either way.
            }
        }
        remaining -= in_this_ct;
    }
    Ok(all)
}

/// Bob's reply in the wire format the fingerprinted `pack` knob fixes:
/// slot-packed, or one ciphertext per attribute. The one place that
/// choice is made for Bob, in process or in a holder process.
pub fn bob_reply<R: RngCore + ?Sized>(
    pk: &PublicKey,
    alice_message: &[u8],
    values: &[u64],
    thresholds: &[u64],
    pack: bool,
    rng: &mut R,
    ledger: &mut CostLedger,
) -> Result<Vec<u8>, CryptoError> {
    if pack {
        bob_record_message_packed(pk, alice_message, values, thresholds, rng, ledger)
    } else {
        bob_record_message(pk, alice_message, values, thresholds, rng, ledger)
    }
}

/// The querying party's decision from Bob's reply, under the same `pack`
/// knob [`bob_reply`] built it with.
pub fn querier_reveal(
    sk: &PrivateKey,
    bob_message: &[u8],
    pack: bool,
    ledger: &mut CostLedger,
) -> Result<bool, CryptoError> {
    if pack {
        querier_reveal_record_packed(sk, bob_message, ledger)
    } else {
        querier_reveal_record(sk, bob_message, ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::Keypair;
    use crate::protocol::record::alice_record_message;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    // Keygen dominates test time; the properties are all under a fixed key.
    fn shared_keys() -> &'static Keypair {
        static KEYS: OnceLock<Keypair> = OnceLock::new();
        KEYS.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(91);
            Keypair::generate(&mut rng, 256)
        })
    }

    #[test]
    fn plan_for_the_test_key_packs_two_slots() {
        let plan = PackingPlan::for_key(shared_keys().public()).unwrap();
        assert_eq!(plan.slot_bits, 98, "W = 48 mask + 2·24 value + 2");
        assert_eq!(plan.slots_per_ct, 2, "(256 − 2) / 98");
        assert_eq!(plan.ct_count(1), 1);
        assert_eq!(plan.ct_count(2), 1);
        assert_eq!(plan.ct_count(3), 2, "q = 3 spills into a second ct");
    }

    #[test]
    fn packed_protocol_matches_scalar_protocol_on_the_record_cases() {
        let keys = shared_keys();
        let (pk, sk) = (keys.public(), keys.private());
        let mut rng = StdRng::seed_from_u64(1091);
        let thresholds = [0u64, 0, 23]; // q = 3: multi-ciphertext chunking
        let cases = [
            ([5u64, 7, 40], [5u64, 7, 44], true),
            ([5, 7, 40], [5, 7, 45], false),
            ([5, 7, 40], [6, 7, 40], false),
            ([5, 7, 40], [5, 7, 40], true),
        ];
        for (a, b, expected) in cases {
            let mut scalar = CostLedger::new();
            let mut packed = CostLedger::new();
            let m_alice = alice_record_message(pk, &a, &mut rng, &mut scalar).unwrap();
            let m_bob =
                bob_record_message(pk, &m_alice, &b, &thresholds, &mut rng, &mut scalar).unwrap();
            let got_scalar = querier_reveal_record(sk, &m_bob, &mut scalar).unwrap();
            let m_alice_p = alice_record_message(pk, &a, &mut rng, &mut packed).unwrap();
            let m_bob_p =
                bob_record_message_packed(pk, &m_alice_p, &b, &thresholds, &mut rng, &mut packed)
                    .unwrap();
            let got_packed = querier_reveal_record_packed(sk, &m_bob_p, &mut packed).unwrap();
            assert_eq!(got_packed, expected, "a={a:?} b={b:?}");
            assert_eq!(got_packed, got_scalar);
            // The savings the module exists for: fewer result bytes, fewer
            // modpows, fewer decryptions.
            assert!(m_bob_p.len() < m_bob.len(), "packed reply must be smaller");
            assert_eq!(packed.decryptions, 2, "one per ciphertext, not per attr");
            assert_eq!(scalar.decryptions, 3);
            assert_eq!(packed.rerandomizations, 2, "one per chunk");
            assert_eq!(scalar.rerandomizations, 3);
        }
    }

    #[test]
    fn unpackable_inputs_are_rejected_upfront() {
        let keys = shared_keys();
        let pk = keys.public();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ledger = CostLedger::new();
        assert!(validate_packable_values(&[1 << VALUE_BITS]).is_err());
        assert!(validate_packable_values(&[(1 << VALUE_BITS) - 1]).is_ok());
        assert!(validate_packable(&[1], &[1 << (2 * VALUE_BITS)]).is_err());
        assert!(validate_packable(&[1], &[(1 << (2 * VALUE_BITS)) - 1]).is_ok());
        // An oversized Bob value fails the packed combine even though the
        // scalar path would accept it.
        let m_alice = alice_record_message(pk, &[1], &mut rng, &mut ledger).unwrap();
        assert!(bob_record_message_packed(
            pk,
            &m_alice,
            &[1 << VALUE_BITS],
            &[0],
            &mut rng,
            &mut ledger
        )
        .is_err());
    }

    #[test]
    fn malformed_packed_messages_are_rejected() {
        let keys = shared_keys();
        let (pk, sk) = (keys.public(), keys.private());
        let mut rng = StdRng::seed_from_u64(3);
        let mut ledger = CostLedger::new();
        let m_alice = alice_record_message(pk, &[4, 9, 2], &mut rng, &mut ledger).unwrap();
        let m_bob = bob_record_message_packed(
            pk,
            &m_alice,
            &[4, 9, 2],
            &[0, 0, 50],
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        // Roundtrip sanity first.
        let decoded = PackedResultMessage::decode(&m_bob).unwrap();
        assert_eq!(decoded.total_slots, 3);
        assert_eq!(decoded.cts.len(), 2);
        assert_eq!(decoded.encode(pk.ciphertext_width()).to_vec(), m_bob);
        // Truncation, trailing bytes, wrong tag.
        assert!(PackedResultMessage::decode(&m_bob[..m_bob.len() - 2]).is_err());
        let mut extended = m_bob.clone();
        extended.push(0);
        assert!(PackedResultMessage::decode(&extended).is_err());
        assert!(PackedResultMessage::decode(&[]).is_err());
        assert!(querier_reveal_record_packed(sk, &m_alice, &mut ledger).is_err());
        // Slot/ciphertext arithmetic that does not add up.
        let mut wrong = decoded.clone();
        wrong.total_slots = 5;
        let bytes = wrong.encode(pk.ciphertext_width());
        assert!(querier_reveal_record_packed(sk, &bytes, &mut ledger).is_err());
        let zero = PackedResultMessage {
            total_slots: 0,
            cts: vec![],
        }
        .encode(pk.ciphertext_width());
        assert!(querier_reveal_record_packed(sk, &zero, &mut ledger).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn pack_unpack_is_identity(
            raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..12),
        ) {
            // Mask each value into the slot range; 128 random bits cover
            // the 98-bit slot with headroom to spare.
            let slots: Vec<BigUint> = raw
                .iter()
                .map(|&(hi, lo)| {
                    let full = BigUint::from_u128(((hi as u128) << 64) | lo as u128);
                    let high = full.shr(SLOT_BITS).shl(SLOT_BITS);
                    full.checked_sub(&high).unwrap()
                })
                .collect();
            let packed = pack_slots(&slots, SLOT_BITS);
            prop_assert_eq!(unpack_slots(&packed, slots.len(), SLOT_BITS), slots);
        }

        #[test]
        fn packed_decision_equals_scalar_decision(
            pairs in prop::collection::vec(
                (0u64..1 << VALUE_BITS, 0u64..1 << VALUE_BITS, 0u64..1 << (2 * VALUE_BITS)),
                1..6,
            ),
            seed in any::<u64>(),
        ) {
            let keys = shared_keys();
            let (pk, sk) = (keys.public(), keys.private());
            let mut rng = StdRng::seed_from_u64(seed);
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            let t: Vec<u64> = pairs.iter().map(|p| p.2).collect();
            let mut ledger = CostLedger::new();
            let m_alice = alice_record_message(pk, &a, &mut rng, &mut ledger).unwrap();
            let m_scalar =
                bob_record_message(pk, &m_alice, &b, &t, &mut rng, &mut ledger).unwrap();
            let m_packed =
                bob_record_message_packed(pk, &m_alice, &b, &t, &mut rng, &mut ledger).unwrap();
            let want = querier_reveal_record(sk, &m_scalar, &mut ledger).unwrap();
            let got = querier_reveal_record_packed(sk, &m_packed, &mut ledger).unwrap();
            let plain = pairs
                .iter()
                .all(|&(a, b, t)| a.abs_diff(b).pow(2) <= t);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got, plain);
        }
    }
}

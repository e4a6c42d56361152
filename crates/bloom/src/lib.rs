//! q-gram CLK Bloom-filter encoding for approximate private matching.
//!
//! The exact Paillier protocol compares attribute distances under
//! homomorphic encryption — cryptographically airtight, but ~hundreds of
//! pairs per second. The PPRL literature's workhorse alternative encodes
//! each record as a **cryptographic long-term key** (CLK): every
//! attribute value is split into overlapping character q-grams and each
//! gram sets `hashes` bits of one shared Bloom filter. Two records are
//! compared by exchanging filters and computing the Dice coefficient of
//! their bit sets; a threshold turns similarity into a match decision.
//!
//! Hardening follows the BLIP construction (Alaggan et al.), the flip
//! mechanism the PACE exemplar parameterizes: each bit of an outgoing
//! filter is independently flipped with probability `p = 1 / (1 + e^ε)`,
//! which makes the released filter ε-differentially private per bit.
//! `epsilon_millis == 0` disables flipping entirely (the exemplar's
//! default posture); smaller ε means more noise, not less.
//!
//! Everything here is integer-only and deterministic: the flip RNG is a
//! splitmix64 stream keyed by `(seed, side, row)`, and the flip
//! threshold is computed with fixed-point arithmetic, so re-encoding the
//! same record on any party or after a crash-resume yields bit-identical
//! filters — the property the journal's byte-identity contract rides on.

mod clk;
pub mod wire;

pub use clk::{
    blip_flip, blip_threshold, dice_match, dice_millis, encode_fields, Clk, ClkParams, ClkRef,
    ClkSlab, DiceCounts, SIDE_A, SIDE_B,
};
pub use wire::{
    clk_msg_len, decode_clk, decode_dice, encode_clk, encode_dice, DiceMsg, WireError,
    DICE_MSG_LEN, TAG_CLK, TAG_DICE,
};

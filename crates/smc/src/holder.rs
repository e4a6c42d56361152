//! The data-holder half of the comparator seam.
//!
//! [`comparator`](crate::comparator) is what the querying party drives;
//! this is what Alice and Bob drive in their own processes. A networked
//! holder replicates the deterministic pair walk and, for every pair
//! that exchanges a message, either produces one (Alice) or answers one
//! (Bob). Everything around that — ordinals, the resume watermark, the
//! send window, journal-then-ack — is backend-independent and lives in
//! the one holder loop of `pprl_core::party_run`; everything about
//! ciphertexts and filters lives here, behind three operations:
//!
//! * [`open`](HolderBackend::open) — session setup: the Paillier public
//!   key (from the journal or the broadcast), or the side's [`ClkBank`];
//! * [`next`](HolderBackend::next) — the next pair of the walk that
//!   crosses the wire (Paillier decides trivial pairs locally on every
//!   party, so they get no ordinal; every CLK pair gets one);
//! * [`message`](HolderBackend::message) — Alice's bytes for the pair, or
//!   Bob's reply to them, metered into the holder's ledger exactly as
//!   the in-process backends of [`comparator`](crate::comparator) meter
//!   the same message.
//!
//! A closed enum rather than a trait: there are two wire protocols, the
//! fingerprinted [`SmcMode`] picks between them, and no test substitutes
//! a third.

use crate::clk_bank::ClkBank;
use crate::executor::{batch_encode, BatchEncoding, SmcMode, SmcRunner};
use crate::SmcError;
use pprl_bloom::wire as clk_wire;
use pprl_bloom::{ClkParams, DiceCounts, SIDE_A, SIDE_B};
use pprl_crypto::protocol::{
    alice_record_message, bob_reply, validate_packable_values, DataHolder,
};
use pprl_crypto::CostLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Which of the two data holders a process is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HolderSide {
    /// Holds R; opens each exchange.
    Alice = 0,
    /// Holds S; answers Alice towards the querying party.
    Bob = 1,
}

/// One pair of the holder walk that exchanges a message.
pub struct HolderPair {
    /// Row in R.
    pub ri: u32,
    /// Row in S.
    pub si: u32,
    /// The batched integer encoding (Paillier walks only).
    encoded: Option<BatchEncoding>,
}

/// One holder's wire-protocol state for one session.
pub enum HolderBackend {
    /// Batched Paillier (§V-A): the broadcast key, this holder's
    /// encryption randomness, and the fingerprinted reply format.
    Paillier {
        /// The installed public key.
        holder: DataHolder,
        /// Per-party encryption randomness: ciphertext bytes legitimately
        /// differ from the single-process run, sizes and counts cannot.
        rng: StdRng,
        /// Slot-packed replies.
        pack: bool,
    },
    /// q-gram CLK exchange: this side's filters, each row encoded the
    /// first time a pair still to be exchanged reaches it.
    Bloom {
        /// The fingerprinted CLK parameters.
        params: ClkParams,
        /// R-rows under [`SIDE_A`] for Alice, S-rows under [`SIDE_B`] for
        /// Bob.
        bank: ClkBank,
    },
}

// pprl:allow(secret-leak): redacting impl — variant and shape, never filter bits or RNG state
impl fmt::Debug for HolderBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HolderBackend::Paillier { pack, .. } => f
                .debug_struct("Paillier")
                .field("pack", pack)
                .finish_non_exhaustive(),
            HolderBackend::Bloom { bank, .. } => {
                f.debug_struct("Bloom").field("bank", bank).finish()
            }
        }
    }
}

impl HolderBackend {
    /// Sets up `side`'s half of `mode`'s wire protocol. Paillier needs the
    /// querying party's key message, which `key_message` supplies — from
    /// the holder's journal, or off the wire; the CLK exchange has no
    /// setup message and never calls it. Modes without a wire protocol
    /// are refused.
    pub fn open<E: From<SmcError>>(
        mode: SmcMode,
        side: HolderSide,
        key_message: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<Self, E> {
        match mode {
            SmcMode::PaillierBatched { seed, pack, .. } => {
                let holder = DataHolder::from_key_message(&key_message()?)
                    .map_err(|e| E::from(SmcError::Crypto(e)))?;
                let rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 + side as u64));
                Ok(HolderBackend::Paillier { holder, rng, pack })
            }
            SmcMode::Bloom { params } => {
                let tag = match side {
                    HolderSide::Alice => SIDE_A,
                    HolderSide::Bob => SIDE_B,
                };
                Ok(HolderBackend::Bloom {
                    params,
                    bank: ClkBank::new(params, tag),
                })
            }
            _ => Err(E::from(SmcError::Internal(
                "this backend has no networked wire protocol",
            ))),
        }
    }

    /// Advances `runner`'s walk *without running any protocol* to the next
    /// pair that exchanges a message; `None` once the walk is complete.
    /// The walk is decision-independent, so the placeholder non-match a
    /// holder applies advances it exactly as the querier's real decision
    /// will. The caller numbers the returned pairs 1, 2, … — the ordinal
    /// every party derives for the same pair — and simply drops those at
    /// or below its resume watermark: no message is built for them.
    pub fn next(&mut self, runner: &mut SmcRunner<'_>) -> Result<Option<HolderPair>, SmcError> {
        while let Some((ri, si)) = runner.walk_next_pair()? {
            let encoded = match self {
                HolderBackend::Bloom { .. } => None,
                HolderBackend::Paillier { .. } => {
                    let (r, s) = runner.pair_records(ri, si)?;
                    let ctx = runner.compare_ctx();
                    match batch_encode(ctx.rule, ctx.qids, r, s, ctx.norms)? {
                        None => continue, // trivial match: decided locally, no messages
                        some => some,
                    }
                }
            };
            return Ok(Some(HolderPair { ri, si, encoded }));
        }
        Ok(None)
    }

    /// This holder's wire message for `pair`, recorded in `ledger`: with
    /// no `incoming` payload, Alice's opening message; with Alice's
    /// payload, Bob's reply to it (which never contains his own filter or
    /// values, only what the querying party may see).
    pub fn message(
        &mut self,
        runner: &SmcRunner<'_>,
        pair: &HolderPair,
        incoming: Option<&[u8]>,
        ledger: &mut CostLedger,
    ) -> Result<Vec<u8>, SmcError> {
        match self {
            HolderBackend::Paillier { holder, rng, pack } => {
                let (a_vals, b_vals, thresholds) = pair.encoded.as_ref().ok_or(
                    SmcError::Internal("paillier holder pair without an encoding"),
                )?;
                let pk = holder.public_key();
                match incoming {
                    None => {
                        if *pack {
                            // Alice's own-value bound check (Bob cannot verify it).
                            validate_packable_values(a_vals)?;
                        }
                        Ok(alice_record_message(pk, a_vals, rng, ledger)?)
                    }
                    Some(alice) => Ok(bob_reply(
                        pk, alice, b_vals, thresholds, *pack, rng, ledger,
                    )?),
                }
            }
            HolderBackend::Bloom { params, bank } => {
                let (r, s) = runner.pair_records(pair.ri, pair.si)?;
                let (rec, row) = if bank.side() == SIDE_A {
                    (r, pair.ri)
                } else {
                    (s, pair.si)
                };
                let (clk, flips) = bank.lookup(runner.compare_ctx().qids, rec, row)?;
                let message = match incoming {
                    None => clk_wire::encode_clk(clk, flips),
                    Some(alice) => {
                        let (a_clk, a_flips) = clk_wire::decode_clk(alice, params.filter_len)
                            .map_err(|e| {
                                SmcError::SessionMismatch(format!(
                                    "Alice's CLK message rejected: {e}"
                                ))
                            })?;
                        let counts = DiceCounts::of(&a_clk, clk)
                            .ok_or(SmcError::Internal("clk filter lengths diverged"))?;
                        clk_wire::encode_dice(&clk_wire::DiceMsg {
                            a_ones: counts.a_ones,
                            b_ones: counts.b_ones,
                            common: counts.common,
                            flips: a_flips.saturating_add(flips),
                        })
                    }
                };
                ledger.record_message(message.len());
                Ok(message)
            }
        }
    }
}

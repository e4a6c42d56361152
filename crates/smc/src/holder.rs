//! The data-holder half of the comparator seam.
//!
//! [`comparator`](crate::comparator) is what the querying party drives;
//! this is what Alice and Bob do, wherever they live. Of the exchange's
//! three steps — Alice's message, Bob's reply, the querying party's
//! reveal — the first two exist only here, per wire protocol:
//! `ciphertexts` for batched Paillier, whose
//! messages are ciphertext frames — bytes in process and on the wire
//! alike — and `filter` /
//! `tally` for the CLK exchange, which work on
//! the messages' *typed* form: a borrowed filter and its flip count, four
//! counters. The in-process comparators hand those from one holder to
//! the other, so a CLK pair builds no bytes; the CLK wire codec is wrapped
//! around the same steps only where a process boundary asks for bytes. A
//! holder process drives the steps through three operations:
//!
//! * [`open`](HolderBackend::open) — session setup: the Paillier public
//!   key (from the journal or the broadcast), or the side's [`ClkBank`];
//! * [`next`](HolderBackend::next) — the next pair of the walk that
//!   crosses the wire (Paillier decides trivial pairs locally on every
//!   party, so they get no ordinal; every CLK pair gets one);
//! * [`message`](HolderBackend::message) — Alice's bytes for the pair, or
//!   Bob's reply to them: the step in wire form.
//!
//! Everything around that in a holder process — ordinals, the resume
//! watermark, the send window, journal-then-ack — is backend-independent
//! and lives in the one holder loop of `pprl_core::party_run`. Each step
//! meters its own message into the ledger it is handed; the CLK steps by
//! the message's fixed wire length, so the count is the same whether or
//! not the bytes were built.
//!
//! A closed enum rather than a trait: the fingerprinted [`SmcMode`] picks
//! the wire protocol and no test substitutes another. A new tier is one
//! more variant here, its steps, and one reveal in `comparator`.

use crate::clk_bank::ClkBank;
use crate::comparator::{fork_rng, CompareCtx, PairView};
use crate::executor::{batch_encode, SmcMode, SmcRunner};
use crate::SmcError;
use pprl_bloom::wire::{self as clk_wire, DiceMsg};
use pprl_bloom::{ClkParams, ClkRef, DiceCounts, SIDE_A, SIDE_B};
use pprl_crypto::paillier::PublicKey;
use pprl_crypto::protocol::{
    alice_record_message, bob_reply, validate_packable_values, DataHolder,
};
use pprl_crypto::{CostLedger, RandomizerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Which of the two data holders a process is. The discriminants are the
/// CLK flip-stream side tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HolderSide {
    /// Holds R; opens each exchange.
    Alice = SIDE_A as isize,
    /// Holds S; answers Alice towards the querying party.
    Bob = SIDE_B as isize,
}

/// One holder's wire-protocol state for one session.
pub enum HolderBackend {
    /// Batched Paillier (§V-A): the broadcast key, this holder's
    /// encryption randomness, and the fingerprinted reply format.
    Paillier {
        /// The installed public key (and any attached randomizer pool).
        pk: PublicKey,
        /// Per-holder encryption randomness: ciphertext bytes differ
        /// between holders and deployments, sizes and counts cannot.
        rng: StdRng,
        /// Slot-packed replies.
        pack: bool,
    },
    /// q-gram CLK exchange: this side's filters, each row encoded the
    /// first time a pair still to be exchanged reaches it.
    Bloom {
        /// The fingerprinted CLK parameters.
        params: ClkParams,
        /// R-rows under `SIDE_A` for Alice, S-rows under `SIDE_B` for Bob.
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

/// The public key a key-broadcast message carries, as a holder installs
/// it (an even, degenerate or undersized modulus is refused).
pub fn key_from_message(key_message: &[u8]) -> Result<PublicKey, SmcError> {
    Ok(DataHolder::from_key_message(key_message)?
        .public_key()
        .clone())
}

impl HolderBackend {
    /// Sets up `side`'s half of `mode`'s wire protocol. Paillier needs the
    /// querying party's public key, which `key` supplies — a clone of it
    /// in process (keeping whatever pool is attached), or
    /// [`key_from_message`] of the broadcast a holder process took from
    /// its journal or off the wire; the CLK exchange has no setup message
    /// and never calls it. Modes without a wire protocol are refused.
    pub fn open<E: From<SmcError>>(
        mode: SmcMode,
        side: HolderSide,
        key: impl FnOnce() -> Result<PublicKey, E>,
    ) -> Result<Self, E> {
        match mode {
            SmcMode::PaillierBatched { seed, pack, .. } => Ok(HolderBackend::Paillier {
                pk: key()?,
                rng: StdRng::seed_from_u64(seed ^ (0x9e37_79b9 + side as u64)),
                pack,
            }),
            SmcMode::Bloom { params } => Ok(HolderBackend::Bloom {
                params,
                bank: ClkBank::new(params, side as u8),
            }),
            _ => Err(E::from(SmcError::Internal(
                "this backend has no networked wire protocol",
            ))),
        }
    }

    /// An independent copy for parallel worker `worker`: same key (any
    /// attached pool is shared through its `Arc`), encryption randomness
    /// re-derived from this holder's stream mixed with the worker index.
    /// `None` for the CLK holder, whose bank fills as the one walk goes.
    pub(crate) fn fork(&self, worker: u64) -> Option<Self> {
        let HolderBackend::Paillier { pk, rng, pack } = self else {
            return None;
        };
        Some(HolderBackend::Paillier {
            pk: pk.clone(),
            rng: fork_rng(rng, worker),
            pack: *pack,
        })
    }

    /// Attaches the shared randomizer pool to this holder's copy of the
    /// key; `false` when there is nothing to pool for.
    pub(crate) fn attach_pool(&mut self, pool: &Arc<RandomizerPool>) -> bool {
        match self {
            HolderBackend::Paillier { pk, .. } => pk.attach_pool(Arc::clone(pool)).is_ok(),
            HolderBackend::Bloom { .. } => false,
        }
    }

    /// Advances `runner`'s walk *without running any protocol* to the next
    /// pair that exchanges a message; `None` once the walk is complete.
    /// The walk is decision-independent, so the placeholder non-match a
    /// holder applies advances it exactly as the querier's real decision
    /// will. The caller numbers the returned pairs 1, 2, … — the ordinal
    /// every party derives for the same pair — and simply drops those at
    /// or below its resume watermark: no message is built for them.
    pub fn next<'a>(
        &mut self,
        runner: &mut SmcRunner<'a>,
    ) -> Result<Option<PairView<'a>>, SmcError> {
        while let Some((ri, si)) = runner.walk_next_pair()? {
            let mut pair = runner.pair(ri, si)?;
            if let HolderBackend::Paillier { .. } = self {
                pair.encoded = batch_encode(&runner.compare_ctx(), pair.r, pair.s)?;
                if pair.encoded.is_none() {
                    continue; // trivial match: decided locally, no messages
                }
            }
            return Ok(Some(pair));
        }
        Ok(None)
    }

    /// This holder's wire message for `pair`, for a holder process: with no
    /// `incoming` payload, Alice's opening message; with Alice's payload,
    /// Bob's reply to it. The typed steps below, with the CLK codec wrapped
    /// around them. `ctx` is the runner's
    /// [`compare_ctx`](SmcRunner::compare_ctx).
    pub fn message(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: &PairView<'_>,
        incoming: Option<&[u8]>,
        ledger: &mut CostLedger,
    ) -> Result<Vec<u8>, SmcError> {
        let filter_len = match self {
            HolderBackend::Paillier { .. } => return self.ciphertexts(pair, incoming, ledger),
            HolderBackend::Bloom { params, .. } => params.filter_len,
        };
        let Some(alice) = incoming else {
            let (clk, flips) = self.filter(ctx, pair, ledger)?;
            return Ok(clk_wire::encode_clk(clk, flips));
        };
        let (a_clk, a_flips) = clk_wire::decode_clk(alice, filter_len)
            .map_err(|e| SmcError::SessionMismatch(format!("Alice's CLK message rejected: {e}")))?;
        let tallies = self.tally(ctx, pair, ClkRef::from(&a_clk), a_flips, ledger)?;
        Ok(clk_wire::encode_dice(&tallies))
    }

    /// The batched Paillier steps, metered into `ledger`: with nothing
    /// `incoming`, Alice's ciphertext message for the pair; with Alice's
    /// message, Bob's reply to it in the fingerprinted format. Ciphertext
    /// frames are bytes in process and on the wire alike.
    pub(crate) fn ciphertexts(
        &mut self,
        pair: &PairView<'_>,
        incoming: Option<&[u8]>,
        ledger: &mut CostLedger,
    ) -> Result<Vec<u8>, SmcError> {
        let HolderBackend::Paillier { pk, rng, pack } = self else {
            return Err(SmcError::Internal("a Paillier step on a CLK holder"));
        };
        let (a_vals, b_vals, thresholds) = pair.encoded.as_ref().ok_or(SmcError::Internal(
            "paillier holder pair without an encoding",
        ))?;
        let Some(alice) = incoming else {
            if *pack {
                // Alice's own-value bound check (Bob cannot verify it).
                validate_packable_values(a_vals)?;
            }
            return Ok(alice_record_message(pk, a_vals, rng, ledger)?);
        };
        Ok(bob_reply(
            pk, alice, b_vals, thresholds, *pack, rng, ledger,
        )?)
    }

    /// Alice's CLK step, in its typed form: her row's filter, borrowed
    /// from her bank, and its DP flip count. Metered by the message's
    /// fixed wire length, so nothing need be built to count it.
    pub(crate) fn filter(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: &PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<(ClkRef<'_>, u32), SmcError> {
        let HolderBackend::Bloom { params, bank } = self else {
            return Err(SmcError::Internal("a CLK step on a Paillier holder"));
        };
        ledger.record_message(clk_wire::clk_msg_len(params.filter_len));
        bank.lookup(ctx.qids, pair.r, pair.ri)
    }

    /// Bob's CLK step, in its typed form: the Dice tallies of Alice's
    /// filter against his own row's — never his filter, only what the
    /// querying party may see.
    pub(crate) fn tally(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: &PairView<'_>,
        a_clk: ClkRef<'_>,
        a_flips: u32,
        ledger: &mut CostLedger,
    ) -> Result<DiceMsg, SmcError> {
        let HolderBackend::Bloom { bank, .. } = self else {
            return Err(SmcError::Internal("a CLK step on a Paillier holder"));
        };
        let (clk, flips) = bank.lookup(ctx.qids, pair.s, pair.si)?;
        let counts =
            DiceCounts::of(a_clk, clk).ok_or(SmcError::Internal("clk filter lengths diverged"))?;
        ledger.record_message(clk_wire::DICE_MSG_LEN);
        Ok(DiceMsg {
            a_ones: counts.a_ones,
            b_ones: counts.b_ones,
            common: counts.common,
            flips: a_flips.saturating_add(flips),
        })
    }
}

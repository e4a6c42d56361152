//! Pluggable per-pair comparison backends.
//!
//! The executor's deterministic pair walk decides *which* record pairs
//! are compared; this module decides *how*. Everything a backend may
//! touch is behind the [`Comparator`] trait: session setup (key
//! generation, key broadcast, channel attach), the per-pair probe, the
//! match decision, and the cost-ledger accounting for every byte the
//! exchange would move. The executor itself never mentions Paillier or
//! Bloom filters — it drives a `Box<dyn Comparator>`.
//!
//! Two families ship today:
//!
//! * **Paillier** — the paper's exact protocol (per-attribute or
//!   batched record-level, in-process, simulated-channel, or remote).
//!   Decisions are exact; throughput is bounded by modular
//!   exponentiation.
//! * **Bloom** ([`crates/bloom`](pprl_bloom)) — q-gram CLK encodings
//!   compared by Dice coefficient with optional ε-DP bit flipping.
//!   Decisions are approximate; each record is hashed once per job
//!   ([`ClkBank`]) and a pair costs one word-parallel Dice tally.
//!
//! The backend choice is *fingerprinted*: it is part of [`SmcMode`],
//! whose `Debug` rendering feeds the job fingerprint that the run
//! journal pins and the Hello handshake exchanges — and the handshake
//! additionally carries an explicit backend byte
//! ([`SmcMode::backend_code`]) so two parties that disagree refuse each
//! other with a typed error *before* the fingerprint comparison, not
//! with a generic drift message.
//!
//! Ledger contract (the invariant every backend upholds): a local
//! backend records exactly the messages and ack envelopes the
//! distributed deployment of the same mode records across all three
//! parties, so the single-process report and the merged three-process
//! report are byte-identical.

use crate::clk_bank::ClkBank;
use crate::executor::{
    batch_encode, encode_attribute, ChannelConfig, CompareOutcome, RemoteParty, SmcMode,
};
use crate::SmcError;
use pprl_blocking::{records_match, AttrDistance, MatchingRule};
use pprl_bloom::wire as clk_wire;
use pprl_bloom::{dice_match, ClkParams, DiceCounts, SIDE_A, SIDE_B};
use pprl_crypto::paillier::Keypair;
use pprl_crypto::protocol::message::ProtocolMessage;
use pprl_crypto::protocol::retry::{ReliableLink, RetryPolicy};
use pprl_crypto::protocol::transport::{
    FaultStats, FaultyTransport, LocalTransport, PartyId, TransportError, ENVELOPE_OVERHEAD,
};
use pprl_crypto::protocol::{
    alice_record_message, bob_reply, querier_reveal, secure_threshold_match,
    validate_packable_values, DataHolder,
};
use pprl_crypto::CostLedger;
use pprl_data::{Record, Value};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Pair id reserved for the public-key broadcast.
pub(crate) const KEY_BROADCAST_PAIR_ID: u64 = 0;

/// Minimum retry budget for the key broadcast. Losing the broadcast kills
/// the whole session (no shared key ⇒ no degraded continuation), while a
/// lost record pair merely degrades recall — so session setup is allowed a
/// more generous budget than individual pairs.
pub(crate) const KEY_BROADCAST_MIN_RETRIES: u32 = 16;

/// Everything a backend may read about the job, borrowed per call so
/// backends stay plain data: the schema, the matching rule, the per-QID
/// normalization factors, and the QID projection.
pub struct CompareCtx<'a> {
    /// Schema shared by both data sets.
    pub schema: &'a pprl_data::Schema,
    /// Per-attribute distances and thresholds.
    pub rule: &'a MatchingRule,
    /// Per-QID normalization factors (1.0 for categorical attributes).
    pub norms: &'a [f64],
    /// Quasi-identifier attribute indices.
    pub qids: &'a [usize],
}

/// End-of-run backend accounting, surfaced on
/// [`SmcReport`](crate::SmcReport) and in the serve daemon's per-job
/// metrics dump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComparatorStats {
    /// Backend family name (`"oracle"`, `"paillier"`, `"bloom"`).
    pub backend: &'static str,
    /// Record pairs the session charged against the allowance.
    pub pairs_compared: u64,
    /// CLK filter bits exchanged (both directions; 0 off-bloom). Live
    /// tally: pairs replayed from a journal are not re-counted.
    pub clk_bits_exchanged: u64,
    /// DP bit flips applied to exchanged filters (0 off-bloom or with
    /// ε = 0). Live tally, like `clk_bits_exchanged`.
    pub dp_flips: u64,
}

/// A per-pair comparison backend: setup, probe, decision, accounting.
///
/// `Send + Sync` so forked instances can ride the parallel executor's
/// scoped workers.
pub trait Comparator: Send + Sync {
    /// Stable backend family name for reports, metrics, and handshakes.
    fn backend_name(&self) -> &'static str;

    /// Compares one record pair, recording its full wire cost into
    /// `ledger`. `ri`/`si` are the pair's row indices — the keys of any
    /// per-pair deterministic randomness (DP flip streams).
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        ri: u32,
        si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError>;

    /// An independent instance for parallel worker `worker`, or `None`
    /// when the backend is inherently sequential (link-sequenced or
    /// keeping live counters the merge would lose).
    fn fork(&self, worker: u64) -> Option<Box<dyn Comparator>> {
        let _ = worker;
        None
    }

    /// Whether [`fork`](Self::fork) can succeed — gates the parallel
    /// executor without constructing a throwaway instance.
    fn forkable(&self) -> bool {
        false
    }

    /// Converts this backend into its networked counterpart: performs
    /// whatever session setup the wire protocol needs (the Paillier key
    /// broadcast; nothing for CLK) and returns the backend that will
    /// drive the remote exchange. Backends without a wire protocol
    /// refuse.
    fn connect_remote(
        &mut self,
        party: Box<dyn RemoteParty>,
        ledger: &mut CostLedger,
    ) -> Result<Box<dyn Comparator>, SmcError> {
        let _ = (party, ledger);
        Err(SmcError::Internal(
            "this backend has no networked wire protocol",
        ))
    }

    /// Pre-computes encryption randomizers where the backend has any;
    /// returns whether a pool was attached.
    fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        let _ = (count, threads, seed);
        false
    }

    /// Injected-fault tally since the last harvest (`None` off-transport).
    fn take_fault_stats(&mut self) -> Option<FaultStats> {
        None
    }

    /// Virtual backoff accumulated since the last harvest.
    fn take_virtual_backoff_ms(&mut self) -> u64 {
        0
    }

    /// Live `(clk_bits_exchanged, dp_flips)` counters; zeros off-bloom.
    fn wire_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds the backend for `mode`, mirroring the historical mode ×
/// channel dispatch exactly (so every pre-trait configuration constructs
/// the same backend state it always did).
pub(crate) fn build(
    mode: SmcMode,
    channel: Option<ChannelConfig>,
    rule: &MatchingRule,
    ledger: &mut CostLedger,
    warm: Option<&Keypair>,
) -> Result<Box<dyn Comparator>, SmcError> {
    // A warm keypair skips the prime search but leaves the backend
    // RNG freshly seeded instead of post-generation, so encryption
    // randomness differs from a cold start. Decisions, message sizes,
    // and therefore the cost ledger are randomness-independent.
    let fresh = |warm: Option<&Keypair>, modulus_bits: usize, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = match warm {
            Some(k) => k.clone(),
            None => Keypair::generate(&mut rng, modulus_bits),
        };
        (keys, rng)
    };
    match mode {
        SmcMode::Oracle => Ok(Box::new(OracleComparator)),
        SmcMode::Paillier { modulus_bits, seed }
        | SmcMode::PaillierBatched {
            modulus_bits, seed, ..
        } => {
            // The integer protocol cannot evaluate edit distance.
            if rule.distances.contains(&AttrDistance::NormalizedEdit) {
                return Err(SmcError::UnsupportedDistance("NormalizedEdit"));
            }
            match (mode, channel) {
                (SmcMode::PaillierBatched { pack, .. }, Some(ch)) => Ok(Box::new(
                    TransportedPaillier::connect(modulus_bits, seed, pack, ch, ledger)?,
                )),
                (SmcMode::PaillierBatched { pack, .. }, None) => {
                    let (keys, rng) = fresh(warm, modulus_bits, seed);
                    Ok(Box::new(BatchedPaillier { keys, rng, pack }))
                }
                _ => {
                    let (keys, rng) = fresh(warm, modulus_bits, seed);
                    Ok(Box::new(PerAttributePaillier { keys, rng }))
                }
            }
        }
        SmcMode::Bloom { params } => {
            params.validate().map_err(SmcError::Internal)?;
            if channel.is_some() {
                return Err(SmcError::Internal(
                    "the bloom backend runs over real sockets or in-process; \
                     it has no simulated-channel mode",
                ));
            }
            Ok(Box::new(ClkComparator {
                params,
                alice: ClkBank::new(params, SIDE_A),
                bob: ClkBank::new(params, SIDE_B),
                bits: 0,
                flips: 0,
            }))
        }
    }
}

/// Canonicalizes a record's QID projection into the strings the CLK
/// q-grammer consumes: categorical leaves as decimal, continuous values
/// as fixed-point thousandths. Shared by the local backend and the
/// data-holder processes, so every party grams identical text.
pub fn clk_record_fields(qids: &[usize], rec: &Record) -> Vec<String> {
    qids.iter()
        .map(|&q| match rec.value(q) {
            Value::Cat(c) => c.to_string(),
            Value::Num(v) => (((v * 1000.0).round()) as i64).to_string(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Plaintext oracle: the protocol's exact predicate, free of crypto.
pub(crate) struct OracleComparator;

impl Comparator for OracleComparator {
    fn backend_name(&self) -> &'static str {
        "oracle"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        r: &Record,
        s: &Record,
        _ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        Ok(CompareOutcome::Decided(records_match(
            ctx.schema, ctx.qids, ctx.rule, r, s,
        )))
    }

    fn fork(&self, _worker: u64) -> Option<Box<dyn Comparator>> {
        Some(Box::new(OracleComparator))
    }

    fn forkable(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Paillier (in-process)
// ---------------------------------------------------------------------------

/// Re-derives a worker RNG from a backend's stream mixed with the worker
/// index, so forked workers draw distinct encryption randomness.
fn fork_rng(rng: &StdRng, worker: u64) -> StdRng {
    let mut probe = rng.clone();
    let base = probe.next_u64();
    let mix = worker.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    StdRng::seed_from_u64(base ^ mix)
}

/// Per-attribute masked comparisons with early exit on the first failing
/// attribute (fewest exponentiations).
pub(crate) struct PerAttributePaillier {
    keys: Keypair,
    rng: StdRng,
}

impl Comparator for PerAttributePaillier {
    fn backend_name(&self) -> &'static str {
        "paillier"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        for (pos, &q) in ctx.qids.iter().enumerate() {
            let (a, b, t) = encode_attribute(ctx.rule, pos, r.value(q), s.value(q), ctx.norms)?;
            if t == u64::MAX {
                continue; // θ ≥ 1: attribute can never fail
            }
            let ok = secure_threshold_match(
                self.keys.public(),
                self.keys.private(),
                a,
                b,
                t,
                &mut self.rng,
                ledger,
            )?;
            if !ok {
                return Ok(CompareOutcome::Decided(false));
            }
        }
        Ok(CompareOutcome::Decided(true))
    }

    fn fork(&self, worker: u64) -> Option<Box<dyn Comparator>> {
        Some(Box::new(PerAttributePaillier {
            keys: self.keys.clone(),
            rng: fork_rng(&self.rng, worker),
        }))
    }

    fn forkable(&self) -> bool {
        true
    }

    fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        let pool = pprl_crypto::RandomizerPool::prefill(self.keys.public(), count, threads, seed);
        self.keys.attach_pool(pool).is_ok()
    }
}

/// Batched record-level exchange: exactly two framed messages per
/// non-trivial record pair.
pub(crate) struct BatchedPaillier {
    keys: Keypair,
    rng: StdRng,
    pack: bool,
}

impl Comparator for BatchedPaillier {
    fn backend_name(&self) -> &'static str {
        "paillier"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        let Some((a_vals, b_vals, thresholds)) =
            batch_encode(ctx.rule, ctx.qids, r, s, ctx.norms)?
        else {
            return Ok(CompareOutcome::Decided(true));
        };
        if self.pack {
            // Alice's own-value bound check (Bob cannot verify it).
            validate_packable_values(&a_vals)?;
        }
        let m_alice = alice_record_message(self.keys.public(), &a_vals, &mut self.rng, ledger)?;
        let m_bob = bob_reply(
            self.keys.public(),
            &m_alice,
            &b_vals,
            &thresholds,
            self.pack,
            &mut self.rng,
            ledger,
        )?;
        let decided = querier_reveal(self.keys.private(), &m_bob, self.pack, ledger)?;
        Ok(CompareOutcome::Decided(decided))
    }

    fn fork(&self, worker: u64) -> Option<Box<dyn Comparator>> {
        Some(Box::new(BatchedPaillier {
            keys: self.keys.clone(),
            rng: fork_rng(&self.rng, worker),
            pack: self.pack,
        }))
    }

    fn forkable(&self) -> bool {
        true
    }

    fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        let pool = pprl_crypto::RandomizerPool::prefill(self.keys.public(), count, threads, seed);
        self.keys.attach_pool(pool).is_ok()
    }

    fn connect_remote(
        &mut self,
        mut party: Box<dyn RemoteParty>,
        ledger: &mut CostLedger,
    ) -> Result<Box<dyn Comparator>, SmcError> {
        let key_msg = ProtocolMessage::PublicKey {
            n: self.keys.public().n().clone(),
        }
        .encode()
        .to_vec();
        let next_pair_id = party.resume_pair_watermark();
        party.broadcast_key(&key_msg, ledger)?;
        Ok(Box::new(RemotePaillier {
            keys: self.keys.clone(),
            party,
            next_pair_id,
            pack: self.pack,
        }))
    }
}

// ---------------------------------------------------------------------------
// Paillier (simulated channel)
// ---------------------------------------------------------------------------

/// The batched protocol run over an explicit simulated network: the key
/// broadcast and both per-pair messages cross a [`ReliableLink`] over a
/// [`FaultyTransport`].
pub(crate) struct TransportedPaillier {
    keys: Keypair,
    rng: StdRng,
    link: ReliableLink<FaultyTransport<LocalTransport>>,
    alice: DataHolder,
    bob: DataHolder,
    next_pair_id: u64,
    /// Slot-packed replies from the simulated Bob.
    pack: bool,
}

impl TransportedPaillier {
    fn connect(
        modulus_bits: usize,
        seed: u64,
        pack: bool,
        channel: ChannelConfig,
        ledger: &mut CostLedger,
    ) -> Result<Self, SmcError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = Keypair::generate(&mut rng, modulus_bits);
        let transport = FaultyTransport::new(LocalTransport::new(), channel.faults, channel.seed);
        let mut link = ReliableLink::new(
            transport,
            channel.retry,
            channel.seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        let broadcast_policy = RetryPolicy {
            max_retries: channel.retry.max_retries.max(KEY_BROADCAST_MIN_RETRIES),
            ..channel.retry
        };
        let key_msg = ProtocolMessage::PublicKey {
            n: keys.public().n().clone(),
        }
        .encode()
        .to_vec();
        let broadcast = |link: &mut ReliableLink<FaultyTransport<LocalTransport>>,
                         ledger: &mut CostLedger,
                         party: PartyId|
         -> Result<DataHolder, SmcError> {
            ledger.record_message(key_msg.len());
            let delivered = link
                .deliver_with(
                    broadcast_policy,
                    PartyId::Querier,
                    party,
                    KEY_BROADCAST_PAIR_ID,
                    key_msg.clone(),
                    ledger,
                )
                .map_err(SmcError::Transport)?;
            Ok(DataHolder::from_key_message(&delivered)?)
        };
        let alice = broadcast(&mut link, ledger, PartyId::Alice)?;
        let bob = broadcast(&mut link, ledger, PartyId::Bob)?;
        Ok(TransportedPaillier {
            keys,
            rng,
            link,
            alice,
            bob,
            next_pair_id: KEY_BROADCAST_PAIR_ID,
            pack,
        })
    }
}

impl Comparator for TransportedPaillier {
    fn backend_name(&self) -> &'static str {
        "paillier"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        let Some((a_vals, b_vals, thresholds)) =
            batch_encode(ctx.rule, ctx.qids, r, s, ctx.norms)?
        else {
            return Ok(CompareOutcome::Decided(true));
        };
        if self.pack {
            validate_packable_values(&a_vals)?;
        }
        self.next_pair_id += 1;
        let pair_id = self.next_pair_id;
        let m_alice =
            alice_record_message(self.alice.public_key(), &a_vals, &mut self.rng, ledger)?;
        let delivered = match self
            .link
            .deliver(PartyId::Alice, PartyId::Bob, pair_id, m_alice, ledger)
        {
            Ok(bytes) => bytes,
            Err(TransportError::RetriesExhausted { .. }) => return Ok(CompareOutcome::Abandoned),
        };
        // The envelope checksum guarantees the payload arrived intact, so
        // a decode failure here is a real protocol bug — propagate it
        // rather than degrade.
        let m_bob = bob_reply(
            self.bob.public_key(),
            &delivered,
            &b_vals,
            &thresholds,
            self.pack,
            &mut self.rng,
            ledger,
        )?;
        let delivered = match self
            .link
            .deliver(PartyId::Bob, PartyId::Querier, pair_id, m_bob, ledger)
        {
            Ok(bytes) => bytes,
            Err(TransportError::RetriesExhausted { .. }) => return Ok(CompareOutcome::Abandoned),
        };
        let decided = querier_reveal(self.keys.private(), &delivered, self.pack, ledger)?;
        Ok(CompareOutcome::Decided(decided))
    }

    fn take_fault_stats(&mut self) -> Option<FaultStats> {
        Some(self.link.transport_mut().take_stats())
    }

    fn take_virtual_backoff_ms(&mut self) -> u64 {
        self.link.take_virtual_elapsed_ms()
    }
}

// ---------------------------------------------------------------------------
// Paillier (remote holders)
// ---------------------------------------------------------------------------

/// Querier-side state of a networked session: only the key pair and the
/// non-trivial-pair counter live here — ciphertext production happens in
/// the remote holder processes.
pub(crate) struct RemotePaillier {
    keys: Keypair,
    party: Box<dyn RemoteParty>,
    next_pair_id: u64,
    /// Whether the holders send slot-packed replies (the fingerprint
    /// guarantees all three parties agree on this).
    pack: bool,
}

impl Comparator for RemotePaillier {
    fn backend_name(&self) -> &'static str {
        "paillier"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        // The holders replicate this same deterministic walk and
        // encoding; a trivial pair is decided locally on every side
        // without a single byte crossing the wire.
        if batch_encode(ctx.rule, ctx.qids, r, s, ctx.norms)?.is_none() {
            return Ok(CompareOutcome::Decided(true));
        }
        self.next_pair_id += 1;
        let pair_id = self.next_pair_id;
        match self.party.bob_message(pair_id, ledger)? {
            None => Ok(CompareOutcome::Abandoned),
            Some(m_bob) => Ok(CompareOutcome::Decided(querier_reveal(
                self.keys.private(),
                &m_bob,
                self.pack,
                ledger,
            )?)),
        }
    }
}

// ---------------------------------------------------------------------------
// Bloom / CLK
// ---------------------------------------------------------------------------

/// In-process CLK backend: holds both sides' filter banks and mirrors,
/// byte for byte, the ledger entries the three-process deployment
/// records — Alice's filter message, Bob's journaled ack of it, Bob's
/// Dice-tally message, and the querier's journaled ack of that. Both
/// messages are fixed-width, so the ledger takes their lengths
/// ([`clk_wire::clk_msg_len`], [`clk_wire::DICE_MSG_LEN`]) without the
/// bytes being built: a pair allocates nothing.
pub(crate) struct ClkComparator {
    params: ClkParams,
    /// R-rows' filters under [`SIDE_A`].
    alice: ClkBank,
    /// S-rows' filters under [`SIDE_B`].
    bob: ClkBank,
    bits: u64,
    flips: u64,
}

impl Comparator for ClkComparator {
    fn backend_name(&self) -> &'static str {
        "bloom"
    }

    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        ri: u32,
        si: u32,
        r: &Record,
        s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        let p = self.params;
        let (clk_a, flips_a) = self.alice.lookup(ctx.qids, r, ri)?;
        let (clk_b, flips_b) = self.bob.lookup(ctx.qids, s, si)?;
        // Alice → Bob: the filter message, acked after Bob journals it.
        ledger.record_message(clk_wire::clk_msg_len(p.filter_len));
        ledger.record_message(ENVELOPE_OVERHEAD);
        let counts = DiceCounts::of(clk_a, clk_b)
            .ok_or(SmcError::Internal("clk filter lengths diverged"))?;
        // Bob → querier: the tallies, acked after the querier journals.
        ledger.record_message(clk_wire::DICE_MSG_LEN);
        ledger.record_message(ENVELOPE_OVERHEAD);
        self.bits += 2 * u64::from(p.filter_len);
        self.flips += u64::from(flips_a) + u64::from(flips_b);
        Ok(CompareOutcome::Decided(dice_match(
            &counts,
            p.threshold_millis,
        )))
    }

    // Deliberately not forkable: the live bit/flip counters feed the
    // metrics dump and the banks are filled as the walk goes; forks
    // would drop their tallies and encode shared rows once per worker.
    // With the banks a pair is one Dice tally, a fraction of a
    // microsecond — less than handing it to another thread costs.

    fn connect_remote(
        &mut self,
        party: Box<dyn RemoteParty>,
        _ledger: &mut CostLedger,
    ) -> Result<Box<dyn Comparator>, SmcError> {
        // No key material to broadcast: the CLK parameters are part of
        // the fingerprinted config every party already holds.
        let next_pair_id = party.resume_pair_watermark();
        Ok(Box::new(RemoteClk {
            params: self.params,
            party,
            next_pair_id,
            bits: self.bits,
            flips: self.flips,
        }))
    }

    fn wire_counters(&self) -> (u64, u64) {
        (self.bits, self.flips)
    }
}

/// Querier-side CLK backend of a networked session: Bob ships Dice
/// tallies; the querier never sees either filter.
pub(crate) struct RemoteClk {
    params: ClkParams,
    party: Box<dyn RemoteParty>,
    next_pair_id: u64,
    bits: u64,
    flips: u64,
}

impl Comparator for RemoteClk {
    fn backend_name(&self) -> &'static str {
        "bloom"
    }

    fn compare(
        &mut self,
        _ctx: &CompareCtx<'_>,
        _ri: u32,
        _si: u32,
        _r: &Record,
        _s: &Record,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        // Every CLK pair is non-trivial (there is no attribute-level
        // shortcut), so the pair-id stream has no gaps on any party.
        self.next_pair_id += 1;
        let pair_id = self.next_pair_id;
        match self.party.bob_message(pair_id, ledger)? {
            None => Ok(CompareOutcome::Abandoned),
            Some(m_bob) => {
                let msg = clk_wire::decode_dice(&m_bob, self.params.filter_len).map_err(|e| {
                    SmcError::SessionMismatch(format!("Bob's dice message rejected: {e}"))
                })?;
                self.bits += 2 * u64::from(self.params.filter_len);
                self.flips += u64::from(msg.flips);
                let counts = DiceCounts {
                    a_ones: msg.a_ones,
                    b_ones: msg.b_ones,
                    common: msg.common,
                };
                Ok(CompareOutcome::Decided(dice_match(
                    &counts,
                    self.params.threshold_millis,
                )))
            }
        }
    }

    fn wire_counters(&self) -> (u64, u64) {
        (self.bits, self.flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_data::synth::{generate, SynthConfig};

    #[test]
    fn clk_fields_canonicalize_both_value_kinds() {
        let data = generate(&SynthConfig {
            records: 4,
            seed: 1,
        });
        let rec = &data.records()[0];
        let qids: Vec<usize> = (0..data.schema().arity()).collect();
        let fields = clk_record_fields(&qids, rec);
        assert_eq!(fields.len(), qids.len());
        for f in &fields {
            assert!(f.chars().all(|c| c.is_ascii_digit() || c == '-'), "{f}");
        }
    }

    /// The in-process backend books message lengths without building the
    /// messages; the lengths it books must be the real encoders' output.
    #[test]
    fn clk_ledger_entries_are_the_real_wire_lengths() {
        let data = generate(&SynthConfig {
            records: 4,
            seed: 1,
        });
        let qids: Vec<usize> = (0..5).collect();
        let rule = MatchingRule::uniform(data.schema(), &qids, 0.05);
        let params = ClkParams::paper_defaults(7);
        let mut ledger = CostLedger::new();
        let mut backend = build(SmcMode::Bloom { params }, None, &rule, &mut ledger, None)
            .unwrap_or_else(|e| panic!("bloom backend: {e}"));
        let norms = vec![1.0; qids.len()];
        let ctx = CompareCtx {
            schema: data.schema(),
            rule: &rule,
            norms: &norms,
            qids: &qids,
        };
        let (r, s) = (&data.records()[0], &data.records()[1]);
        let outcome = backend.compare(&ctx, 0, 1, r, s, &mut ledger).unwrap();

        let a = pprl_bloom::encode_fields(&params, &clk_record_fields(&qids, r));
        let b = pprl_bloom::encode_fields(&params, &clk_record_fields(&qids, s));
        let counts = DiceCounts::of(&a, &b).unwrap();
        let dice = clk_wire::encode_dice(&clk_wire::DiceMsg {
            a_ones: counts.a_ones,
            b_ones: counts.b_ones,
            common: counts.common,
            flips: 0,
        });
        assert_eq!(ledger.messages, 4);
        assert_eq!(
            ledger.bytes as usize,
            clk_wire::encode_clk(&a, 0).len() + dice.len() + 2 * ENVELOPE_OVERHEAD
        );
        let verdict = dice_match(&counts, params.threshold_millis);
        assert!(matches!(outcome, CompareOutcome::Decided(v) if v == verdict));
        assert_eq!(backend.wire_counters(), (2000, 0));
    }
}

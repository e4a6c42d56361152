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
//!   ([`ClkBank`](crate::ClkBank)) and a pair costs one word-parallel
//!   Dice tally.
//!
//! The backend choice is *fingerprinted*: it is part of [`SmcMode`],
//! whose `Debug` rendering feeds the job fingerprint that the run
//! journal pins and the Hello handshake exchanges — and the handshake
//! additionally carries an explicit backend byte
//! ([`SmcMode::backend_code`]) so two parties that disagree refuse each
//! other with a typed error *before* the fingerprint comparison, not
//! with a generic drift message.
//!
//! One comparator per *idea* — `OracleComparator`,
//! `PerAttributePaillier` (early exit on the first failing attribute),
//! `PaillierComparator` (the batched exchange, scalar or packed) and
//! `ClkComparator` — never per deployment shape. Each exchange has
//! three steps: Alice's message and Bob's reply exist only in
//! [`holder`](crate::holder), the querying party's reveal only here. Where
//! Alice and Bob live is data (`Peers`): in this process, in this
//! process behind the simulated link, or behind a [`RemoteParty`]; a
//! backend's `compare` is written once: trivial-pair test, next pair id,
//! Bob's reply — from the two holders' steps in process (each message
//! hopping the link when there is one), or from the remote party — and
//! the reveal.
//!
//! Ledger contract — three ledgers, stated as they are:
//!
//! * **`Here`** records the two messages of a pair and nothing else for
//!   Paillier (no ack, no key broadcast: an unmetered hand-off), and for
//!   CLK additionally the two journaled acks, so the in-process CLK report
//!   equals the three-process one.
//! * **`Here` + link** records what the deployment records across all
//!   three parties — key broadcast, messages, ack envelopes — plus the
//!   link's retry tallies, so at fault rate 0 the single-process report
//!   and the merged three-process report are byte-identical.
//! * **`Remote`** records the querying party's share only (key messages,
//!   one ack per received reply); the holders meter their own steps and
//!   ship their ledgers home, and the three sum to the `Here` + link
//!   ledger.

use crate::executor::{
    batch_encode, encode_attribute, BatchEncoding, ChannelConfig, CompareOutcome, RemoteParty,
    SmcMode,
};
use crate::holder::{key_from_message, HolderBackend, HolderSide};
use crate::SmcError;
use pprl_blocking::{records_match, AttrDistance, MatchingRule};
use pprl_bloom::wire as clk_wire;
use pprl_bloom::{dice_match, ClkParams, DiceCounts};
use pprl_crypto::paillier::Keypair;
use pprl_crypto::protocol::message::ProtocolMessage;
use pprl_crypto::protocol::retry::{ReliableLink, RetryPolicy};
use pprl_crypto::protocol::transport::{
    FaultStats, FaultyTransport, LocalTransport, PartyId, ENVELOPE_OVERHEAD,
};
use pprl_crypto::protocol::{querier_reveal, secure_threshold_match};
use pprl_crypto::{CostLedger, RandomizerPool};
use pprl_data::{Record, Value};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;

/// Pair id reserved for the public-key broadcast.
const KEY_BROADCAST_PAIR_ID: u64 = 0;

/// Minimum retry budget for the key broadcast. Losing the broadcast kills
/// the whole session (no shared key ⇒ no degraded continuation), while a
/// lost record pair merely degrades recall — so session setup is allowed a
/// more generous budget than individual pairs.
const KEY_BROADCAST_MIN_RETRIES: u32 = 16;

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

/// One record pair as a backend reads it — on the querying party's side
/// of the seam and on the holders': Alice's step takes the R side, Bob's
/// the S side. `ri`/`si` key any per-pair deterministic randomness (DP
/// flip streams).
pub struct PairView<'a> {
    /// Row in R.
    pub ri: u32,
    /// Row in S.
    pub si: u32,
    /// The R record.
    pub r: &'a Record,
    /// The S record.
    pub s: &'a Record,
    /// The batched integer encoding, once a batched Paillier session has
    /// found the pair non-trivial.
    pub(crate) encoded: Option<BatchEncoding>,
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
    /// Compares one record pair, recording its full wire cost into
    /// `ledger`.
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError>;

    /// An independent instance for parallel worker `worker`, or `None`
    /// when the backend is inherently sequential (link-sequenced, remote,
    /// or keeping live counters the merge would lose).
    fn fork(&self, worker: u64) -> Option<Box<dyn Comparator>> {
        let _ = worker;
        None
    }

    /// Whether [`fork`](Self::fork) can succeed — gates the parallel
    /// executor (a probe fork is a few clones, once per batch).
    fn forkable(&self) -> bool {
        self.fork(0).is_some()
    }

    /// Moves the data holders behind `party`: performs whatever session
    /// setup the wire protocol needs (the Paillier key broadcast; nothing
    /// for CLK) and from then on obtains Bob's replies through it.
    /// Backends without a wire protocol refuse.
    fn connect_remote(
        &mut self,
        party: Box<dyn RemoteParty>,
        ledger: &mut CostLedger,
    ) -> Result<(), SmcError> {
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

    /// The simulated link's injected-fault tally and virtual backoff since
    /// the last harvest (`None` off the link).
    fn take_link_telemetry(&mut self) -> Option<(FaultStats, u64)> {
        None
    }

    /// Live `(clk_bits_exchanged, dp_flips)` counters; zeros off-bloom.
    fn wire_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds the backend for `mode` × `channel`.
pub(crate) fn build(
    mode: SmcMode,
    channel: Option<ChannelConfig>,
    rule: &MatchingRule,
    ledger: &mut CostLedger,
    warm: Option<&Keypair>,
) -> Result<Box<dyn Comparator>, SmcError> {
    let (modulus_bits, seed) = match mode {
        SmcMode::Oracle => return Ok(Box::new(OracleComparator)),
        SmcMode::Bloom { params } => {
            params.validate().map_err(SmcError::Internal)?;
            if channel.is_some() {
                return Err(SmcError::Internal(
                    "the bloom backend runs over real sockets or in-process; \
                     it has no simulated-channel mode",
                ));
            }
            return Ok(Box::new(ClkComparator {
                params,
                peers: Peers::here(mode, None, None, ledger)?,
                next_pair_id: 0,
                bits: 0,
                flips: 0,
            }));
        }
        SmcMode::Paillier { modulus_bits, seed }
        | SmcMode::PaillierBatched {
            modulus_bits, seed, ..
        } => (modulus_bits, seed),
    };
    // The integer protocol cannot evaluate edit distance.
    if rule.distances.contains(&AttrDistance::NormalizedEdit) {
        return Err(SmcError::UnsupportedDistance("NormalizedEdit"));
    }
    // A warm keypair skips the prime search but leaves the backend
    // RNG freshly seeded instead of post-generation, so encryption
    // randomness differs from a cold start. Decisions, message sizes,
    // and therefore the cost ledger are randomness-independent.
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = match warm {
        Some(k) => k.clone(),
        None => Keypair::generate(&mut rng, modulus_bits),
    };
    match mode {
        SmcMode::PaillierBatched { pack, .. } => Ok(Box::new(PaillierComparator {
            peers: Peers::here(mode, Some(&keys), channel, ledger)?,
            keys,
            pack,
            next_pair_id: KEY_BROADCAST_PAIR_ID,
        })),
        _ => Ok(Box::new(PerAttributePaillier { keys, rng })),
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
// Where the data holders live
// ---------------------------------------------------------------------------

/// The PR 1 simulated network: seq/ack/dedup/retry over injected faults.
type SimLink = ReliableLink<FaultyTransport<LocalTransport>>;

/// Where Alice and Bob live for this session. One value per session,
/// inside the boxed comparator, and the large variant is the hot one:
/// boxing it would only add a pointer chase per pair. No `Debug`: it
/// holds both holders' key copies, RNGs and filter banks.
#[allow(clippy::large_enum_variant)]
enum Peers {
    /// In this process. With a `link`, every message (and the key
    /// broadcast before them) crosses the simulated network in wire form
    /// and is metered as the deployment meters it; without, typed
    /// messages are handed from one holder to the other.
    Here {
        alice: HolderBackend,
        bob: HolderBackend,
        link: Option<SimLink>,
    },
    /// In their own processes, behind the querying party's network hook.
    Remote(Box<dyn RemoteParty>),
}

impl Peers {
    /// Both holders of `mode` in this process, behind the simulated
    /// network when a `channel` is configured. Handed over, a Paillier
    /// holder gets a clone of the querying party's public key; over the
    /// link the key is broadcast to it — message, retries and ack all
    /// metered, under a retry budget of at least
    /// [`KEY_BROADCAST_MIN_RETRIES`] — and it installs what it received.
    /// CLK holders (`keys` is `None`) need no key either way.
    fn here(
        mode: SmcMode,
        keys: Option<&Keypair>,
        channel: Option<ChannelConfig>,
        ledger: &mut CostLedger,
    ) -> Result<Peers, SmcError> {
        let mut link = channel.map(|ch| {
            let transport = FaultyTransport::new(LocalTransport::new(), ch.faults, ch.seed);
            ReliableLink::new(transport, ch.retry, ch.seed ^ 0x9e37_79b9_7f4a_7c15)
        });
        let mut open = |side, to| {
            HolderBackend::open(mode, side, || {
                let keys = keys.ok_or(SmcError::Internal("a Paillier holder needs a key"))?;
                let (Some(link), Some(ch)) = (&mut link, channel) else {
                    return Ok(keys.public().clone());
                };
                let policy = RetryPolicy {
                    max_retries: ch.retry.max_retries.max(KEY_BROADCAST_MIN_RETRIES),
                    ..ch.retry
                };
                let key_msg = key_message(keys);
                ledger.record_message(key_msg.len());
                let id = KEY_BROADCAST_PAIR_ID;
                let delivered =
                    link.deliver_with(policy, PartyId::Querier, to, id, key_msg, ledger)?;
                key_from_message(&delivered)
            })
        };
        let alice = open(HolderSide::Alice, PartyId::Alice)?;
        let bob = open(HolderSide::Bob, PartyId::Bob)?;
        Ok(Peers::Here { alice, bob, link })
    }

    /// Per-worker copies of both holders; only an unlinked in-process
    /// session forks (a link sequences frames serially, a socket is one
    /// conversation).
    fn fork(&self, worker: u64) -> Option<Peers> {
        let Peers::Here {
            alice,
            bob,
            link: None,
        } = self
        else {
            return None;
        };
        Some(Peers::Here {
            alice: alice.fork(worker)?,
            bob: bob.fork(worker)?,
            link: None,
        })
    }
}

/// Carries `message` across the simulated link when there is one (acked
/// and retried); `None` once the link's retries are spent.
fn hop(
    link: &mut Option<SimLink>,
    from: PartyId,
    to: PartyId,
    pair_id: u64,
    message: Vec<u8>,
    ledger: &mut CostLedger,
) -> Option<Vec<u8>> {
    match link {
        None => Some(message),
        // Exhausting its retries is the only way the link fails a delivery.
        Some(link) => link.deliver(from, to, pair_id, message, ledger).ok(),
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Plaintext oracle: the protocol's exact predicate, free of crypto.
pub(crate) struct OracleComparator;

impl Comparator for OracleComparator {
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: PairView<'_>,
        _ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        Ok(CompareOutcome::Decided(records_match(
            ctx.schema, ctx.qids, ctx.rule, pair.r, pair.s,
        )))
    }

    fn fork(&self, _worker: u64) -> Option<Box<dyn Comparator>> {
        Some(Box::new(OracleComparator))
    }
}

// ---------------------------------------------------------------------------
// Paillier
// ---------------------------------------------------------------------------

/// Re-derives a worker RNG from a backend's stream mixed with the worker
/// index, so forked workers draw distinct encryption randomness.
pub(crate) fn fork_rng(rng: &StdRng, worker: u64) -> StdRng {
    let mut probe = rng.clone();
    let base = probe.next_u64();
    let mix = worker.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    StdRng::seed_from_u64(base ^ mix)
}

/// The querying party's key-broadcast message.
fn key_message(keys: &Keypair) -> Vec<u8> {
    let n = keys.public().n().clone();
    ProtocolMessage::PublicKey { n }.encode().to_vec()
}

/// Per-attribute masked comparisons with early exit on the first failing
/// attribute (fewest exponentiations): a third of the batched exchange's
/// time at 1024 bits, so an idea of its own — but one with no message
/// per pair, hence no wire protocol and no `Peers`.
pub(crate) struct PerAttributePaillier {
    keys: Keypair,
    rng: StdRng,
}

impl Comparator for PerAttributePaillier {
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        for (pos, &q) in ctx.qids.iter().enumerate() {
            let (rv, sv) = (pair.r.value(q), pair.s.value(q));
            let (a, b, t) = encode_attribute(ctx.rule, pos, rv, sv, ctx.norms)?;
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

    fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        let pool = RandomizerPool::prefill(self.keys.public(), count, threads, seed);
        self.keys.attach_pool(pool).is_ok()
    }
}

/// The batched record-level exchange (§V-A): exactly two messages per
/// non-trivial record pair, Bob's reply scalar or slot-packed. The
/// querying party's state is the key pair and the non-trivial-pair
/// counter; ciphertext production is the holders', wherever they are.
pub(crate) struct PaillierComparator {
    keys: Keypair,
    /// Whether Bob's replies are slot-packed (the fingerprint guarantees
    /// all three parties agree on this).
    pack: bool,
    peers: Peers,
    next_pair_id: u64,
}

// pprl:allow(secret-leak): redacting impl — shape only, never the key pair or the holders' state
impl fmt::Debug for PaillierComparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PaillierComparator")
            .field("pack", &self.pack)
            .finish_non_exhaustive()
    }
}

impl Comparator for PaillierComparator {
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        mut pair: PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        // Every party replicates this same deterministic encoding; a
        // trivial pair is decided locally on every side without a single
        // byte crossing the wire, and gets no pair id.
        pair.encoded = batch_encode(ctx, pair.r, pair.s)?;
        if pair.encoded.is_none() {
            return Ok(CompareOutcome::Decided(true));
        }
        self.next_pair_id += 1;
        let pair_id = self.next_pair_id;
        let reply = match &mut self.peers {
            Peers::Here { alice, bob, link } => {
                let message = alice.ciphertexts(&pair, None, ledger)?;
                let Some(message) =
                    hop(link, PartyId::Alice, PartyId::Bob, pair_id, message, ledger)
                else {
                    return Ok(CompareOutcome::Abandoned);
                };
                // The envelope checksum guarantees the payload arrived
                // intact, so a decode failure in Bob's step is a real
                // protocol bug — propagate it rather than degrade.
                let reply = bob.ciphertexts(&pair, Some(&message), ledger)?;
                hop(link, PartyId::Bob, PartyId::Querier, pair_id, reply, ledger)
            }
            Peers::Remote(party) => party.bob_message(pair_id, ledger)?,
        };
        let Some(reply) = reply else {
            return Ok(CompareOutcome::Abandoned);
        };
        let decided = querier_reveal(self.keys.private(), &reply, self.pack, ledger)?;
        Ok(CompareOutcome::Decided(decided))
    }

    fn fork(&self, worker: u64) -> Option<Box<dyn Comparator>> {
        Some(Box::new(PaillierComparator {
            peers: self.peers.fork(worker)?,
            keys: self.keys.clone(),
            pack: self.pack,
            next_pair_id: self.next_pair_id,
        }))
    }

    /// One pool, attached to every copy of the key that encrypts: the
    /// querying party's own copy only ever decrypts.
    fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        let Peers::Here { alice, bob, .. } = &mut self.peers else {
            return false;
        };
        let pool = RandomizerPool::prefill(self.keys.public(), count, threads, seed);
        alice.attach_pool(&pool) && bob.attach_pool(&pool)
    }

    fn connect_remote(
        &mut self,
        mut party: Box<dyn RemoteParty>,
        ledger: &mut CostLedger,
    ) -> Result<(), SmcError> {
        if matches!(self.peers, Peers::Here { link: Some(_), .. }) {
            return Err(SmcError::Internal(
                "a session over the simulated link cannot also go remote",
            ));
        }
        self.next_pair_id = party.resume_pair_watermark();
        party.broadcast_key(&key_message(&self.keys), ledger)?;
        self.peers = Peers::Remote(party);
        Ok(())
    }

    fn take_link_telemetry(&mut self) -> Option<(FaultStats, u64)> {
        let Peers::Here { link, .. } = &mut self.peers else {
            return None;
        };
        let link = link.as_mut()?;
        let stats = link.transport_mut().take_stats();
        Some((stats, link.take_virtual_elapsed_ms()))
    }
}

// ---------------------------------------------------------------------------
// Bloom / CLK
// ---------------------------------------------------------------------------

/// The CLK exchange: Alice's filter, Bob's Dice tallies, the querying
/// party's threshold test — it never sees either filter. In process both
/// messages stay typed and the ledger takes their fixed wire lengths
/// ([`clk_wire::clk_msg_len`], [`clk_wire::DICE_MSG_LEN`]) without the
/// bytes being built: a pair allocates nothing.
pub(crate) struct ClkComparator {
    params: ClkParams,
    peers: Peers,
    next_pair_id: u64,
    bits: u64,
    flips: u64,
}

impl Comparator for ClkComparator {
    fn compare(
        &mut self,
        ctx: &CompareCtx<'_>,
        pair: PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<CompareOutcome, SmcError> {
        // Every CLK pair is non-trivial (there is no attribute-level
        // shortcut), so the pair-id stream has no gaps on any party.
        self.next_pair_id += 1;
        let msg = match &mut self.peers {
            // Handed over typed; the ledger also takes the two journaled
            // acks (Bob's of the filter, the querying party's of the
            // tallies) the deployment's receivers record, so the
            // in-process report equals the three-process one.
            Peers::Here { alice, bob, .. } => {
                let (clk, flips) = alice.filter(ctx, &pair, ledger)?;
                let msg = bob.tally(ctx, &pair, clk, flips, ledger)?;
                ledger.record_message(ENVELOPE_OVERHEAD);
                ledger.record_message(ENVELOPE_OVERHEAD);
                msg
            }
            Peers::Remote(party) => {
                let Some(reply) = party.bob_message(self.next_pair_id, ledger)? else {
                    return Ok(CompareOutcome::Abandoned);
                };
                clk_wire::decode_dice(&reply, self.params.filter_len).map_err(|e| {
                    SmcError::SessionMismatch(format!("Bob's dice message rejected: {e}"))
                })?
            }
        };
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

    // Deliberately not forkable: the live bit/flip counters feed the
    // metrics dump and the banks are filled as the walk goes; forks
    // would drop their tallies and encode shared rows once per worker.
    // With the banks a pair is one Dice tally, a fraction of a
    // microsecond — less than handing it to another thread costs.

    fn connect_remote(
        &mut self,
        party: Box<dyn RemoteParty>,
        _ledger: &mut CostLedger,
    ) -> Result<(), SmcError> {
        // No key material to broadcast: the CLK parameters are part of
        // the fingerprinted config every party already holds.
        self.next_pair_id = party.resume_pair_watermark();
        self.peers = Peers::Remote(party);
        Ok(())
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
        let pair = PairView {
            ri: 0,
            si: 1,
            r,
            s,
            encoded: None,
        };
        let outcome = backend.compare(&ctx, pair, &mut ledger).unwrap();

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

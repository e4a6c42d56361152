//! Spends the SMC allowance on the ordered unknown class pairs.
//!
//! Record pairs are compared one by one, in deterministic row-major order
//! within each class pair; the class pair that straddles the budget is
//! consumed *partially* (its remaining record pairs join the leftovers).
//!
//! Three concerns layered on the basic loop:
//!
//! * **Execution modes** ([`SmcMode`]) — the real §V-A Paillier protocol
//!   (per-attribute or batched record-level), or a plaintext oracle
//!   evaluating the *same* predicate. Because the SMC protocol computes
//!   the exact distance, the modes return identical labels (enforced by
//!   `tests/` equivalence tests); sweeps use the oracle so that
//!   million-pair experiments finish.
//! * **Fault-tolerant transport** ([`ChannelConfig`]) — when configured,
//!   the batched wire exchange runs over a [`FaultyTransport`] behind a
//!   [`ReliableLink`]: frames can be dropped, corrupted, duplicated,
//!   reordered, or delayed, and the link retries with backoff. A pair
//!   whose retry budget runs out is *abandoned* — labeled by the
//!   configured [`LabelingStrategy`] (maximize-precision ⇒ non-match, so
//!   precision stays 1.0 by construction) and tallied in the
//!   [`DegradationReport`].
//! * **Resumable sessions** ([`SmcSession`]) — the loop is a checkpointable
//!   state machine: [`SmcStep::start`] yields an [`SmcRunner`] that can be
//!   stepped pair by pair, snapshotted with [`SmcRunner::checkpoint`]
//!   (serde-serializable), and later revived with [`SmcStep::resume`]
//!   without re-running or double-charging any record pair. Each decided
//!   pair is also available as a journalable [`PairEvent`]
//!   ([`SmcRunner::step_pair_event`]) and can be *replayed* from a durable
//!   journal ([`SmcRunner::replay_pair_event`]) without re-running the
//!   protocol — the crash-recovery path of `pprl-core::run_journaled`.
//! * **Deadline budget** ([`DeadlineBudget`]) — the wall-clock analogue of
//!   the allowance. Once it expires, remaining in-allowance pairs are
//!   abandoned (tallied as [`AbandonReason::DeadlineExpired`]) instead of
//!   compared, and degrade through the same [`LabelingStrategy`] path.

use crate::allowance::SmcAllowance;
use crate::comparator::{self, Comparator, ComparatorStats, CompareCtx, PairView};
use crate::deadline::{DeadlineBudget, DeadlineClock};
use crate::heuristics::{order_unknown, SelectionHeuristic};
use crate::strategy::LabelingStrategy;
use crate::SmcError;
use pprl_anon::AnonymizedView;
use pprl_blocking::{AttrDistance, ClassPairRef, MatchingRule};
use pprl_crypto::paillier::Keypair;
use pprl_crypto::protocol::retry::RetryPolicy;
use pprl_crypto::protocol::transport::{FaultConfig, FaultStats};
use pprl_crypto::CostLedger;
use pprl_data::{DataSet, Value};
use serde::{Deserialize, Serialize};

/// Fixed-point scale for continuous values entering the integer-only
/// Paillier protocol (documented quantization: 1/1000 of a unit).
const NUM_SCALE: f64 = 1000.0;

/// How unknown pairs are actually compared.
#[derive(Clone, Copy, Debug)]
pub enum SmcMode {
    /// Plaintext oracle, bit-identical to the protocol (for sweeps).
    Oracle,
    /// Real Paillier protocol, one masked comparison per attribute with
    /// early exit on the first failing attribute (fewest exponentiations).
    Paillier {
        /// Modulus bits for the querying party's key pair.
        modulus_bits: usize,
        /// RNG seed for keygen and encryption randomness.
        seed: u64,
    },
    /// Real Paillier protocol using the *batched record-level* wire
    /// exchange ([`pprl_crypto::protocol::record`]): exactly two framed
    /// messages per record pair, so the ledger's message/byte counts
    /// reflect the deployable protocol. This is the mode that honors a
    /// configured [`ChannelConfig`].
    PaillierBatched {
        /// Modulus bits for the querying party's key pair.
        modulus_bits: usize,
        /// RNG seed for keygen and encryption randomness.
        seed: u64,
        /// Pack several attributes' masked comparisons slot-wise into each
        /// ciphertext of Bob's reply ([`pprl_crypto::protocol::pack`]),
        /// cutting Bob's modpows, the querier's decryptions, and the
        /// reply bytes roughly by the slots-per-ciphertext factor. Changes
        /// the wire format (and so the job fingerprint); decisions are
        /// provably identical to the unpacked exchange.
        pack: bool,
    },
    /// q-gram CLK Bloom-filter matching ([`pprl_bloom`]): records are
    /// encoded as bit filters, compared by Dice coefficient against a
    /// match threshold, optionally hardened with ε-budgeted DP bit
    /// flipping. Approximate (threshold-tunable recall/precision) but
    /// orders of magnitude faster than the Paillier exchange; no key
    /// material, so networked sessions skip the key broadcast entirely.
    Bloom {
        /// Filter geometry, q-gram size, Dice threshold, DP budget, and
        /// the hash-family seed — all fingerprinted, so mismatched
        /// parties refuse each other at the Hello handshake.
        params: pprl_bloom::ClkParams,
    },
}

impl SmcMode {
    /// Wire code of the comparator backend family, exchanged in the
    /// Hello handshake so mismatched parties refuse with a typed error
    /// before fingerprints are even compared.
    pub fn backend_code(&self) -> u8 {
        match self {
            SmcMode::Bloom { .. } => 1,
            _ => 0,
        }
    }

    /// Stable backend family name for reports and metrics.
    pub fn backend_name(&self) -> &'static str {
        match self {
            SmcMode::Oracle => "oracle",
            SmcMode::Bloom { .. } => "bloom",
            _ => "paillier",
        }
    }

    /// True when the backend decides pairs by the matching rule itself
    /// (oracle / Paillier), so every declared SMC match is a true match
    /// by construction. Approximate backends (Dice over CLK filters) can
    /// declare false positives and must be scored against the rule.
    pub fn is_exact(&self) -> bool {
        !matches!(self, SmcMode::Bloom { .. })
    }
}

/// Network model for the wire-level exchange: fault injection rates plus
/// the retry policy that rides over them.
///
/// Only [`SmcMode::PaillierBatched`] moves bytes over the simulated
/// network; [`SmcMode::Oracle`] and the per-attribute mode ignore the
/// channel (they model computation, not transport).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Injected fault rates.
    pub faults: FaultConfig,
    /// Retry/backoff policy of the reliable link.
    pub retry: RetryPolicy,
    /// Seed for fault injection and backoff jitter.
    pub seed: u64,
}

impl ChannelConfig {
    /// A perfect network with the default retry policy armed.
    pub fn reliable() -> Self {
        ChannelConfig {
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            seed: 0,
        }
    }

    /// Every fault at `rate`, default retries — the chaos-sweep knob.
    pub fn faulty(rate: f64, seed: u64) -> Self {
        ChannelConfig {
            faults: FaultConfig::uniform(rate),
            retry: RetryPolicy::default(),
            seed,
        }
    }
}

/// Configuration of the SMC step.
#[derive(Clone, Copy, Debug)]
pub struct SmcStep {
    /// Candidate ordering.
    pub heuristic: SelectionHeuristic,
    /// Budget.
    pub allowance: SmcAllowance,
    /// What happens to pairs the budget never reaches (and, under a faulty
    /// channel, to pairs whose retries run out).
    pub strategy: LabelingStrategy,
    /// Oracle or real crypto.
    pub mode: SmcMode,
    /// Simulated network under the wire protocol; `None` keeps the
    /// historical in-process hand-off (a perfect, unmetered network).
    pub channel: Option<ChannelConfig>,
    /// Time budget for the step; [`DeadlineBudget::None`] leaves the
    /// allowance as the only bound.
    pub deadline: DeadlineBudget,
}

/// A class pair the budget only partially covered (or never reached):
/// `skip` record pairs (row-major order) were already examined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeftoverPair {
    /// The class pair.
    pub class_pair: ClassPairRef,
    /// Record pairs already consumed from it.
    pub skip: u64,
}

/// Per-class-pair statistics from the examined sample — training data for
/// §V-B's strategy-3 classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExaminedStats {
    /// The class pair.
    pub class_pair: ClassPairRef,
    /// Record pairs examined (≤ `class_pair.pairs`).
    pub examined: u64,
    /// Of those, how many matched.
    pub matched: u64,
}

/// Why a record pair was abandoned — decided by the configured
/// [`LabelingStrategy`] instead of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbandonReason {
    /// The transport exhausted its retry budget on this pair's exchange.
    RetryExhausted,
    /// The [`DeadlineBudget`] expired before this pair could be compared.
    DeadlineExpired,
}

/// Abandoned-pair counts, tallied by [`AbandonReason`] so the deadline
/// path never overloads the transport-degradation counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbandonTally {
    /// Pairs abandoned after transport retry exhaustion.
    pub retry_exhausted: u64,
    /// Pairs abandoned because the deadline budget expired.
    pub deadline_expired: u64,
}

impl AbandonTally {
    /// All abandoned pairs, regardless of reason.
    pub fn total(&self) -> u64 {
        self.retry_exhausted + self.deadline_expired
    }

    fn record(&mut self, reason: AbandonReason) {
        match reason {
            AbandonReason::RetryExhausted => self.retry_exhausted += 1,
            AbandonReason::DeadlineExpired => self.deadline_expired += 1,
        }
    }
}

/// What graceful degradation cost: the toll of running over a faulty
/// network with bounded retries and/or under an expiring deadline.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Record pairs the protocol never decided, tallied by reason; each
    /// was labeled by the [`LabelingStrategy`] instead.
    pub abandoned: AbandonTally,
    /// Abandoned pairs the strategy declared *match* (only under
    /// [`LabelingStrategy::MaximizeRecall`]; maximize-precision declares
    /// non-match, keeping precision at 1.0 by construction).
    pub declared: Vec<(u32, u32)>,
    /// Retransmissions the reliable link performed (faults survived by
    /// retrying).
    pub retries_spent: u64,
    /// Frames the link discarded as corrupt or duplicate — faults that
    /// were detected and absorbed without harming the result.
    pub faults_survived: u64,
    /// Faults the simulated network actually injected.
    pub injected: FaultStats,
    /// Backoff time the link would have slept (virtual, not wall-clock).
    pub virtual_backoff_ms: u64,
}

impl DegradationReport {
    /// True when at least one pair was decided by strategy, not protocol.
    pub fn degraded(&self) -> bool {
        self.abandoned.total() > 0
    }

    /// All abandoned pairs, regardless of reason.
    pub fn pairs_abandoned(&self) -> u64 {
        self.abandoned.total()
    }
}

/// Outcome of the SMC step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmcReport {
    /// Resolved budget in record pairs.
    pub budget: u64,
    /// Record-pair comparisons actually performed (abandoned pairs count:
    /// they consumed budget).
    pub invocations: u64,
    /// Record pairs `(row in R, row in S)` the SMC step labeled *match*.
    pub matched_pairs: Vec<(u32, u32)>,
    /// Class pairs (fully or partially) not examined.
    pub leftovers: Vec<LeftoverPair>,
    /// Stats per examined class pair.
    pub examined: Vec<ExaminedStats>,
    /// Pairs involving a suppressed record (DataFly): total in the input.
    pub suppressed_total: u64,
    /// Of those, how many the budget covered.
    pub suppressed_examined: u64,
    /// Of the examined suppressed pairs, how many matched.
    pub suppressed_matched: u64,
    /// Which comparator backend ran and what it moved (live counters;
    /// replayed pairs are counted in `pairs_compared` but exchange no
    /// fresh bytes, so `clk_bits_exchanged`/`dp_flips` tally only work
    /// performed by *this* incarnation of the session).
    pub comparator: ComparatorStats,
    /// Crypto cost accounting (all zeros in oracle mode except invocations).
    pub ledger: CostLedger,
    /// Fault-tolerance accounting (all zeros without a faulty channel).
    pub degradation: DegradationReport,
}

/// Where a session stands in the deterministic pair walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionPhase {
    /// Walking the heuristic-ordered unknown class pairs: `cursor` indexes
    /// the ordering, `skip` record pairs of that class were consumed
    /// (row-major), `matched` of them matched.
    Ordered {
        /// Index into the deterministic class-pair ordering.
        cursor: u32,
        /// Record pairs consumed from the class at `cursor`.
        skip: u64,
        /// Of those, how many matched.
        matched: u64,
    },
    /// Walking suppressed-record pairs: group 0 is suppressed-R × all-S,
    /// group 1 is covered-R × suppressed-S; `offset` is the row-major
    /// position within the group.
    Suppressed {
        /// Which suppressed group.
        group: u8,
        /// Row-major position within the group.
        offset: u64,
    },
    /// Every reachable pair has been decided.
    Done,
}

/// Serializable snapshot of a partially-executed SMC step.
///
/// Everything needed to continue after a crash is here: the phase cursor
/// (which record pair is next), the allowance spent, and the labels so
/// far. The class-pair ordering itself is *recomputed* on resume — it is a
/// deterministic function of the inputs and the configured heuristic — so
/// the snapshot stays small.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmcSession {
    /// Resolved budget in record pairs.
    pub budget: u64,
    /// Walk position.
    pub phase: SessionPhase,
    /// Record-pair comparisons performed so far.
    pub invocations: u64,
    /// Labels so far.
    pub matched_pairs: Vec<(u32, u32)>,
    /// Leftovers recorded so far.
    pub leftovers: Vec<LeftoverPair>,
    /// Examined-class stats so far.
    pub examined: Vec<ExaminedStats>,
    /// Suppressed-pair universe size (validated on resume).
    pub suppressed_total: u64,
    /// Suppressed pairs examined so far.
    pub suppressed_examined: u64,
    /// Of those, matched.
    pub suppressed_matched: u64,
    /// Cost accounting so far.
    pub ledger: CostLedger,
    /// Degradation accounting so far.
    pub degradation: DegradationReport,
    /// Elapsed time charged against the [`DeadlineBudget`] so far
    /// (restored on resume, so a crashed job cannot reset its deadline).
    #[serde(default)]
    pub elapsed_ms: u64,
}

impl SmcSession {
    fn fresh(budget: u64, suppressed_total: u64) -> Self {
        SmcSession {
            budget,
            phase: SessionPhase::Ordered {
                cursor: 0,
                skip: 0,
                matched: 0,
            },
            invocations: 0,
            matched_pairs: Vec::new(),
            leftovers: Vec::new(),
            examined: Vec::new(),
            suppressed_total,
            suppressed_examined: 0,
            suppressed_matched: 0,
            ledger: CostLedger::new(),
            degradation: DegradationReport::default(),
            elapsed_ms: 0,
        }
    }
}

/// How one record pair was decided — the journalable unit of SMC work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairDecision {
    /// The protocol decided *match*.
    Matched,
    /// The protocol decided *non-match*.
    NonMatch,
    /// The protocol never decided; the [`LabelingStrategy`] did.
    Abandoned(AbandonReason),
}

/// One decided record pair: what the run journal records, and what
/// [`SmcRunner::replay_pair_event`] re-applies on crash recovery without
/// re-running any cryptography.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairEvent {
    /// Row in R.
    pub ri: u32,
    /// Row in S.
    pub si: u32,
    /// How the pair was decided.
    pub decision: PairDecision,
}

/// The querying party's hook into a genuinely distributed deployment:
/// Alice and Bob run in their own processes and only ciphertext messages
/// cross the boundary (`pprl-net` implements this over TCP).
///
/// Cost-accounting contract (mirrors the in-process session over the
/// simulated link, so a networked run's merged ledger equals that
/// single-process run's): implementations record *querier-side* costs
/// into the passed ledger — one key message per holder at broadcast, one
/// ack frame per received pair message — and nothing else; the holders
/// meter their own ledgers and ship them home at session end.
pub trait RemoteParty: Send + Sync {
    /// Delivers the public-key broadcast to both data holders. Called
    /// once per [`SmcRunner::connect_remote`]; resumed sessions make this
    /// idempotent (a holder that already holds the key is not re-charged).
    fn broadcast_key(
        &mut self,
        key_message: &[u8],
        ledger: &mut CostLedger,
    ) -> Result<(), SmcError>;

    /// Returns Bob's batched reply for non-trivial pair `pair_id`.
    /// `Ok(None)` means the exchange was abandoned after exhausting the
    /// link's recovery budget — the pair degrades exactly like a
    /// retry-exhausted pair on the simulated channel.
    fn bob_message(
        &mut self,
        pair_id: u64,
        ledger: &mut CostLedger,
    ) -> Result<Option<Vec<u8>>, SmcError>;

    /// Non-trivial pairs already exchanged by a previous incarnation of
    /// this session (crash recovery); the pair-id counter resumes after
    /// it so retransmitted and fresh pairs cannot collide.
    fn resume_pair_watermark(&self) -> u64 {
        0
    }
}

impl SmcStep {
    /// Runs the SMC step over the blocking outcome's unknown class pairs,
    /// start to finish.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        r_data: &DataSet,
        s_data: &DataSet,
        r_view: &AnonymizedView,
        s_view: &AnonymizedView,
        unknown: &[ClassPairRef],
        rule: &MatchingRule,
        total_pairs: u64,
    ) -> Result<SmcReport, SmcError> {
        let mut runner = self.start(r_data, s_data, r_view, s_view, unknown, rule, total_pairs)?;
        runner.run_to_completion_parallel(1)?;
        Ok(runner.finish())
    }

    /// Begins a fresh, checkpointable session.
    #[allow(clippy::too_many_arguments)]
    pub fn start<'a>(
        &self,
        r_data: &'a DataSet,
        s_data: &'a DataSet,
        r_view: &'a AnonymizedView,
        s_view: &'a AnonymizedView,
        unknown: &[ClassPairRef],
        rule: &MatchingRule,
        total_pairs: u64,
    ) -> Result<SmcRunner<'a>, SmcError> {
        self.start_warm(r_data, s_data, r_view, s_view, unknown, rule, total_pairs, None)
    }

    /// [`start`](Self::start) with a pre-generated key pair — the
    /// warm-keypair path of a multi-job daemon, where prime generation
    /// (the expensive part of session setup) happens once and every job
    /// with the same Paillier parameters reuses the result. The caller
    /// must supply a keypair of this mode's `modulus_bits`; a daemon that
    /// caches by the mode seed gets exactly the pair a cold start would
    /// have generated. Ignored by the oracle and Bloom backends.
    #[allow(clippy::too_many_arguments)]
    pub fn start_warm<'a>(
        &self,
        r_data: &'a DataSet,
        s_data: &'a DataSet,
        r_view: &'a AnonymizedView,
        s_view: &'a AnonymizedView,
        unknown: &[ClassPairRef],
        rule: &MatchingRule,
        total_pairs: u64,
        warm: Option<&Keypair>,
    ) -> Result<SmcRunner<'a>, SmcError> {
        let budget = self.allowance.budget_pairs(total_pairs);
        let layout = SuppressedLayout::compute(r_data, s_data, r_view, s_view);
        let session = SmcSession::fresh(budget, layout.total);
        self.attach(
            session, layout, r_data, s_data, r_view, s_view, unknown, rule, warm,
        )
    }

    /// Revives a checkpointed session: the class-pair ordering is
    /// recomputed (it is deterministic), the snapshot supplies the cursor,
    /// spent allowance, and labels. No already-examined pair is re-run or
    /// re-charged.
    #[allow(clippy::too_many_arguments)]
    pub fn resume<'a>(
        &self,
        session: SmcSession,
        r_data: &'a DataSet,
        s_data: &'a DataSet,
        r_view: &'a AnonymizedView,
        s_view: &'a AnonymizedView,
        unknown: &[ClassPairRef],
        rule: &MatchingRule,
        total_pairs: u64,
    ) -> Result<SmcRunner<'a>, SmcError> {
        let budget = self.allowance.budget_pairs(total_pairs);
        if session.budget != budget {
            return Err(SmcError::SessionMismatch(format!(
                "snapshot budget {} vs configured {budget}",
                session.budget
            )));
        }
        let layout = SuppressedLayout::compute(r_data, s_data, r_view, s_view);
        if session.suppressed_total != layout.total {
            return Err(SmcError::SessionMismatch(format!(
                "snapshot saw {} suppressed pairs, inputs have {}",
                session.suppressed_total, layout.total
            )));
        }
        self.attach(
            session, layout, r_data, s_data, r_view, s_view, unknown, rule, None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn attach<'a>(
        &self,
        mut session: SmcSession,
        layout: SuppressedLayout,
        r_data: &'a DataSet,
        s_data: &'a DataSet,
        r_view: &'a AnonymizedView,
        s_view: &'a AnonymizedView,
        unknown: &[ClassPairRef],
        rule: &MatchingRule,
        warm: Option<&Keypair>,
    ) -> Result<SmcRunner<'a>, SmcError> {
        let ordered = order_unknown(r_view, s_view, unknown, rule, self.heuristic);
        if let SessionPhase::Ordered { cursor, .. } = session.phase {
            if cursor as usize > ordered.len() {
                return Err(SmcError::SessionMismatch(format!(
                    "snapshot cursor {cursor} beyond {} ordered class pairs",
                    ordered.len()
                )));
            }
        }
        let comparer = Comparer::new(
            self.mode,
            self.channel,
            r_data,
            r_view.qids(),
            rule,
            &mut session.ledger,
            warm,
        )?;
        let clock = DeadlineClock::new(self.deadline, session.elapsed_ms);
        Ok(SmcRunner {
            strategy: self.strategy,
            r_data,
            s_data,
            r_view,
            s_view,
            qids: r_view.qids().to_vec(),
            ordered,
            layout,
            comparer,
            clock,
            replayed: 0,
            session,
        })
    }
}

/// Row universes for the suppressed-record phase (DataFly: suppressed
/// records carry no generalization sequence, so no heuristic can rank
/// them — they are processed last, in deterministic row order).
struct SuppressedLayout {
    r_suppressed: Vec<u32>,
    s_suppressed: Vec<u32>,
    s_all: Vec<u32>,
    r_covered: Vec<u32>,
    total: u64,
}

impl SuppressedLayout {
    fn compute(
        r_data: &DataSet,
        s_data: &DataSet,
        r_view: &AnonymizedView,
        s_view: &AnonymizedView,
    ) -> Self {
        let r_suppressed = r_view.suppressed().to_vec();
        let s_suppressed = s_view.suppressed().to_vec();
        let s_all: Vec<u32> = (0..s_data.len() as u32).collect();
        let r_covered: Vec<u32> = {
            let mut sup = vec![false; r_data.len()];
            for &row in &r_suppressed {
                if let Some(flag) = sup.get_mut(row as usize) {
                    *flag = true;
                }
            }
            (0..r_data.len() as u32)
                .filter(|&row| !sup.get(row as usize).copied().unwrap_or(false))
                .collect()
        };
        let total = r_suppressed.len() as u64 * s_data.len() as u64
            + r_covered.len() as u64 * s_suppressed.len() as u64;
        SuppressedLayout {
            r_suppressed,
            s_suppressed,
            s_all,
            r_covered,
            total,
        }
    }

    /// Row universes of a suppressed group: 0 ⇒ suppressed-R × all-S,
    /// 1 ⇒ covered-R × suppressed-S.
    fn group(&self, group: u8) -> (&[u32], &[u32]) {
        if group == 0 {
            (&self.r_suppressed, &self.s_all)
        } else {
            (&self.r_covered, &self.s_suppressed)
        }
    }
}

/// An in-flight SMC session: step it, checkpoint it, finish it.
pub struct SmcRunner<'a> {
    strategy: LabelingStrategy,
    r_data: &'a DataSet,
    s_data: &'a DataSet,
    r_view: &'a AnonymizedView,
    s_view: &'a AnonymizedView,
    qids: Vec<usize>,
    ordered: Vec<ClassPairRef>,
    layout: SuppressedLayout,
    comparer: Comparer,
    clock: DeadlineClock,
    /// Pairs applied via [`SmcRunner::replay_pair_event`] in this process
    /// (crash-recovery accounting: replays never touch the comparer).
    replayed: u64,
    session: SmcSession,
}

impl<'a> SmcRunner<'a> {
    /// True once every reachable pair has been decided.
    pub fn is_done(&self) -> bool {
        matches!(self.session.phase, SessionPhase::Done)
    }

    /// Allowance spent so far.
    pub fn invocations(&self) -> u64 {
        self.session.invocations
    }

    /// Decides the next record pair (performing any pending phase
    /// transition on the way) and returns it as a journalable
    /// [`PairEvent`]; `None` once the session is done.
    pub fn step_pair_event(&mut self) -> Result<Option<PairEvent>, SmcError> {
        let Some((ri, si)) = self.locate_next_pair()? else {
            return Ok(None);
        };
        let decision = if self.clock.expired() {
            // Deadline spent: the pair is charged against the allowance
            // and abandoned without touching the protocol; the strategy
            // decides its label.
            PairDecision::Abandoned(AbandonReason::DeadlineExpired)
        } else {
            self.compare_pair(ri, si)?
        };
        self.apply_decision(ri, si, decision)?;
        Ok(Some(PairEvent { ri, si, decision }))
    }

    /// Re-applies a journaled [`PairEvent`] during crash recovery: the
    /// deterministic walk is advanced to the next pair, verified against
    /// the event, and the recorded decision is applied *without invoking
    /// the comparer* — completed SMC work is never re-executed. Replays
    /// are counted in [`replayed_pairs`](Self::replayed_pairs).
    pub fn replay_pair_event(&mut self, event: &PairEvent) -> Result<(), SmcError> {
        let Some((ri, si)) = self.locate_next_pair()? else {
            return Err(SmcError::SessionMismatch(
                "journal replays an event beyond the end of the pair walk".into(),
            ));
        };
        if (ri, si) != (event.ri, event.si) {
            return Err(SmcError::SessionMismatch(format!(
                "journal replays pair ({}, {}) but the deterministic walk is at ({ri}, {si})",
                event.ri, event.si
            )));
        }
        self.apply_decision(ri, si, event.decision)?;
        self.replayed += 1;
        Ok(())
    }

    /// Pairs applied from a journal instead of executed in this process.
    pub fn replayed_pairs(&self) -> u64 {
        self.replayed
    }

    /// [`replay_pair_event`](Self::replay_pair_event) plus ledger
    /// restoration: merges the journaled per-pair cost delta, so a
    /// crash-recovered session's ledger is identical to the uninterrupted
    /// run's at every pair boundary — in any mode, not just oracle.
    pub fn replay_pair_event_with_costs(
        &mut self,
        event: &PairEvent,
        costs: &CostLedger,
    ) -> Result<(), SmcError> {
        self.replay_pair_event(event)?;
        self.session.ledger.merge(costs);
        Ok(())
    }

    /// The session's cost ledger so far (what a journaling driver diffs
    /// around each pair to produce durable cost deltas).
    pub fn ledger(&self) -> &CostLedger {
        &self.session.ledger
    }

    /// Folds a remote data holder's end-of-session cost summary into the
    /// session ledger (holders meter their own encryptions and messages;
    /// the querier merges them before reporting).
    pub fn absorb_remote_costs(&mut self, costs: &CostLedger) {
        self.session.ledger.merge(costs);
    }

    /// Converts a local session into a *networked* one: the data holders
    /// live behind the [`RemoteParty`] hook, and whatever session setup
    /// the backend's wire protocol needs (the Paillier public-key
    /// broadcast; nothing for CLK) is delivered through that hook before
    /// the first pair. Requires a backend with a wire protocol —
    /// [`SmcMode::PaillierBatched`] or [`SmcMode::Bloom`] — and no
    /// simulated channel: the socket *is* the channel.
    pub fn connect_remote(&mut self, party: Box<dyn RemoteParty>) -> Result<(), SmcError> {
        self.comparer
            .backend
            .connect_remote(party, &mut self.session.ledger)
    }

    /// Advances the deterministic pair walk one step *without running any
    /// protocol*: the data-holder side of a networked session (see
    /// [`HolderBackend::next`](crate::holder::HolderBackend::next)). The
    /// walk is decision-independent — see
    /// [`upcoming_pairs`](Self::upcoming_pairs) — so a placeholder
    /// non-match advances it exactly as the querier's real decision will.
    /// `None` once the walk is complete.
    pub(crate) fn walk_next_pair(&mut self) -> Result<Option<(u32, u32)>, SmcError> {
        let Some((ri, si)) = self.locate_next_pair()? else {
            return Ok(None);
        };
        self.apply_decision(ri, si, PairDecision::NonMatch)?;
        Ok(Some((ri, si)))
    }

    /// Pair `(ri, si)` as a backend reads it.
    pub(crate) fn pair(&self, ri: u32, si: u32) -> Result<PairView<'a>, SmcError> {
        pair_view(self.r_data, self.s_data, ri, si)
    }

    /// What a backend may read about the job, on either side of the wire
    /// (a holder process passes it to
    /// [`HolderBackend::message`](crate::holder::HolderBackend::message)).
    pub fn compare_ctx(&self) -> CompareCtx<'_> {
        CompareCtx {
            schema: self.comparer.schema.as_ref(),
            rule: &self.comparer.rule,
            norms: &self.comparer.norms,
            qids: &self.qids,
        }
    }

    /// Advances bookkeeping-only phase transitions (leftover pushes, empty
    /// classes, suppressed-group switches) until the walk rests on the
    /// next comparable pair; `None` once every reachable pair is decided.
    fn locate_next_pair(&mut self) -> Result<Option<(u32, u32)>, SmcError> {
        walk_locate(
            &mut self.session,
            &self.ordered,
            &self.layout,
            self.r_view,
            self.s_view,
        )
    }

    /// Applies a decision to the pair the walk currently rests on (the
    /// one [`locate_next_pair`](Self::locate_next_pair) just returned):
    /// labels, degradation, budget charge, and the class-end / partial-
    /// consumption bookkeeping.
    fn apply_decision(
        &mut self,
        ri: u32,
        si: u32,
        decision: PairDecision,
    ) -> Result<(), SmcError> {
        // A performed comparison costs deadline budget; a deadline-
        // abandoned pair, by definition, ran no protocol and costs none.
        if decision != PairDecision::Abandoned(AbandonReason::DeadlineExpired) {
            self.clock.charge_pair();
        }
        walk_apply(&mut self.session, &self.ordered, self.strategy, ri, si, decision)?;
        // Settle bookkeeping-only transitions immediately: between steps
        // the session always rests on the next comparable pair or on
        // `Done`, so replaying the journal of a completed run reports
        // `is_done()` without one extra probing step.
        self.locate_next_pair()?;
        Ok(())
    }

    /// Steps at most `n` pairs; returns how many were actually decided.
    pub fn step_pairs(&mut self, n: u64) -> Result<u64, SmcError> {
        let mut done = 0;
        while done < n && self.step_pair_event()?.is_some() {
            done += 1;
        }
        Ok(done)
    }

    /// True when the pair walk may be executed in concurrent batches:
    /// per-worker comparer duplication must be possible (not over the
    /// simulated link, which sequences frames serially, nor once the
    /// holders are remote) and no deadline may be armed (expiry is checked
    /// *between* pairs — a sequential notion a batch cannot honor
    /// mid-flight without changing which pairs get abandoned).
    pub fn parallelizable(&self) -> bool {
        self.clock.is_unbounded() && self.comparer.backend.forkable()
    }

    /// Enumerates the next (up to) `max` comparable pairs without
    /// advancing the live walk. The probe runs on a *cloned* session:
    /// [`walk_apply`] moves the cursor identically whatever the decision
    /// was, so feeding it placeholder non-matches enumerates exactly the
    /// pairs the live walk will visit.
    fn upcoming_pairs(&self, max: usize) -> Result<Vec<(u32, u32)>, SmcError> {
        let mut probe = self.session.clone();
        let mut pairs = Vec::new();
        while pairs.len() < max {
            let Some((ri, si)) = walk_locate(
                &mut probe,
                &self.ordered,
                &self.layout,
                self.r_view,
                self.s_view,
            )?
            else {
                break;
            };
            pairs.push((ri, si));
            walk_apply(
                &mut probe,
                &self.ordered,
                self.strategy,
                ri,
                si,
                PairDecision::NonMatch,
            )?;
        }
        Ok(pairs)
    }

    /// Decides up to `n` pairs, comparing them concurrently on up to
    /// `threads` workers, and returns them as journalable [`PairEvent`]s
    /// in walk order — what the journaled runner appends as outcome
    /// frames. Falls back to the sequential loop when `threads <= 1` or
    /// the session is not [`parallelizable`](Self::parallelizable).
    /// Results are identical to repeated
    /// [`step_pair_event`](Self::step_pair_event) calls: the batch is
    /// enumerated by probing the deterministic walk, each worker runs an
    /// independent comparer (decisions are randomness-independent), and
    /// the decisions are applied *in walk order* with per-pair ledgers
    /// merged into the session ledger (merging is commutative, and each
    /// pair's cost is a function of the pair alone).
    pub fn step_pair_events_parallel(
        &mut self,
        n: u64,
        threads: usize,
    ) -> Result<Vec<PairEvent>, SmcError> {
        if threads <= 1 || !self.parallelizable() {
            let mut events = Vec::new();
            while (events.len() as u64) < n {
                let Some(event) = self.step_pair_event()? else {
                    break;
                };
                events.push(event);
            }
            return Ok(events);
        }
        let max = usize::try_from(n).unwrap_or(usize::MAX);
        let pairs = self.upcoming_pairs(max)?;
        if pairs.is_empty() {
            // Only bookkeeping transitions remain; drain them on the
            // live walk (this is where the session reaches `Done`).
            self.step_pairs(n)?;
            return Ok(Vec::new());
        }
        let (r_data, s_data) = (self.r_data, self.s_data);
        let (qids, comparer) = (&self.qids, &self.comparer);
        let outcomes = pprl_runtime::par_map_init(
            &pairs,
            threads,
            |worker| comparer.duplicate(worker as u64),
            |dup, _i, &(ri, si)| -> Result<(PairDecision, CostLedger), SmcError> {
                let c = dup
                    .as_mut()
                    .ok_or(SmcError::Internal("non-duplicable backend in parallel step"))?;
                let pair = pair_view(r_data, s_data, ri, si)?;
                let mut ledger = CostLedger::new();
                Ok((c.compare(qids, pair, &mut ledger)?, ledger))
            },
        );
        let mut events = Vec::with_capacity(pairs.len());
        for (&(ri, si), outcome) in pairs.iter().zip(outcomes) {
            let (decision, ledger) = outcome?;
            let Some(located) = self.locate_next_pair()? else {
                return Err(SmcError::Internal("parallel walk ended before its batch"));
            };
            if located != (ri, si) {
                return Err(SmcError::Internal("parallel walk diverged from its probe"));
            }
            self.session.ledger.merge(&ledger);
            self.apply_decision(ri, si, decision)?;
            events.push(PairEvent { ri, si, decision });
        }
        Ok(events)
    }

    /// Runs until every reachable pair is decided, batching comparisons
    /// across up to `threads` workers. Output (labels, stats, ledger,
    /// checkpoints) is identical at every thread count; one thread, or a
    /// session that is not [`parallelizable`](Self::parallelizable),
    /// steps pair by pair without building batches.
    pub fn run_to_completion_parallel(&mut self, threads: usize) -> Result<(), SmcError> {
        if threads <= 1 || !self.parallelizable() {
            while self.step_pair_event()?.is_some() {}
            return Ok(());
        }
        // Batches large enough to amortize the probe and fan-out, small
        // enough to bound peak memory (one ledger per in-flight pair).
        let batch = (threads as u64).saturating_mul(64).max(256);
        while !self.step_pair_events_parallel(batch, threads)?.is_empty() {}
        Ok(())
    }

    /// Pre-fills a shared randomizer pool (`rⁿ mod n²`, the expensive
    /// factor of every Paillier encryption) on the backend key pair,
    /// computed across `threads` workers, so subsequent encryptions cost
    /// two modular multiplications each. Returns `false` when there is
    /// nothing to pool for (oracle mode, linked or remote sessions). Ledger
    /// accounting is unchanged either way — the pool moves *when* the
    /// exponentiations happen, not how many the protocol performs.
    pub fn prefill_randomizers(&mut self, count: usize, threads: usize, seed: u64) -> bool {
        if count == 0 || !self.parallelizable() {
            return false;
        }
        self.comparer
            .backend
            .prefill_randomizers(count, threads, seed)
    }

    /// Snapshot of the current state, suitable for serialization and a
    /// later [`SmcStep::resume`].
    pub fn checkpoint(&mut self) -> SmcSession {
        self.sync_degradation();
        self.session.elapsed_ms = self.clock.elapsed_ms();
        self.session.clone()
    }

    /// Consumes the runner and produces the report. Callable at any point;
    /// a report taken before completion reflects the progress so far.
    pub fn finish(mut self) -> SmcReport {
        self.sync_degradation();
        self.session.elapsed_ms = self.clock.elapsed_ms();
        let backend = self.comparer.backend_name;
        let (clk_bits_exchanged, dp_flips) = self.comparer.backend.wire_counters();
        let mut s = self.session;
        s.ledger.invocations = s.invocations;
        SmcReport {
            budget: s.budget,
            invocations: s.invocations,
            matched_pairs: s.matched_pairs,
            leftovers: s.leftovers,
            examined: s.examined,
            suppressed_total: s.suppressed_total,
            suppressed_examined: s.suppressed_examined,
            suppressed_matched: s.suppressed_matched,
            comparator: ComparatorStats {
                backend,
                pairs_compared: s.invocations,
                clk_bits_exchanged,
                dp_flips,
            },
            ledger: s.ledger,
            degradation: s.degradation,
        }
    }

    /// Folds transport telemetry (fault stats, virtual backoff, ledger
    /// tallies) into the degradation report.
    fn sync_degradation(&mut self) {
        if let Some((stats, backoff_ms)) = self.comparer.backend.take_link_telemetry() {
            self.session.degradation.injected.merge(&stats);
            self.session.degradation.virtual_backoff_ms += backoff_ms;
        }
        self.session.degradation.retries_spent = self.session.ledger.retries;
        self.session.degradation.faults_survived =
            self.session.ledger.corrupt_dropped + self.session.ledger.duplicates_discarded;
    }

    fn compare_pair(&mut self, ri: u32, si: u32) -> Result<PairDecision, SmcError> {
        let pair = self.pair(ri, si)?;
        self.comparer
            .compare(&self.qids, pair, &mut self.session.ledger)
    }
}

/// Pair `(ri, si)` of the two data sets as a backend reads it.
fn pair_view<'a>(
    r_data: &'a DataSet,
    s_data: &'a DataSet,
    ri: u32,
    si: u32,
) -> Result<PairView<'a>, SmcError> {
    let r = r_data.records().get(ri as usize);
    let s = s_data.records().get(si as usize);
    Ok(PairView {
        ri,
        si,
        r: r.ok_or(SmcError::Internal("R record index out of range"))?,
        s: s.ok_or(SmcError::Internal("S record index out of range"))?,
        encoded: None,
    })
}

/// Advances bookkeeping-only phase transitions (leftover pushes, empty
/// classes, suppressed-group switches) until the walk rests on the next
/// comparable pair; `None` once every reachable pair is decided.
///
/// A free function over the session so the parallel driver can *probe*
/// the walk on a cloned session without touching the live runner.
fn walk_locate(
    session: &mut SmcSession,
    ordered: &[ClassPairRef],
    layout: &SuppressedLayout,
    r_view: &AnonymizedView,
    s_view: &AnonymizedView,
) -> Result<Option<(u32, u32)>, SmcError> {
    loop {
        match session.phase {
            SessionPhase::Done => return Ok(None),
            SessionPhase::Ordered { cursor, skip, .. } => {
                let Some(pref) = ordered.get(cursor as usize).copied() else {
                    session.phase = SessionPhase::Suppressed {
                        group: 0,
                        offset: 0,
                    };
                    continue;
                };
                let next_class = SessionPhase::Ordered {
                    cursor: cursor + 1,
                    skip: 0,
                    matched: 0,
                };
                // Entering a class with nothing left to spend: the
                // whole class is leftover (untouched, no stats row).
                if skip == 0 && session.invocations == session.budget {
                    session.leftovers.push(LeftoverPair {
                        class_pair: pref,
                        skip: 0,
                    });
                    session.phase = next_class;
                    continue;
                }
                // Degenerate empty class entered with budget in hand.
                if pref.pairs == 0 {
                    session.examined.push(ExaminedStats {
                        class_pair: pref,
                        examined: 0,
                        matched: 0,
                    });
                    session.phase = next_class;
                    continue;
                }
                let rc = r_view
                    .classes()
                    .get(pref.r_class as usize)
                    .ok_or(SmcError::Internal("R class index out of range"))?;
                let sc = s_view
                    .classes()
                    .get(pref.s_class as usize)
                    .ok_or(SmcError::Internal("S class index out of range"))?;
                // pref.pairs != 0 (checked above), so both row sets
                // are non-empty and the division is safe.
                let s_len = sc.rows.len() as u64;
                if s_len == 0 {
                    return Err(SmcError::Internal("empty S class with pairs > 0"));
                }
                let ri = rc
                    .rows
                    .get((skip / s_len) as usize)
                    .copied()
                    .ok_or(SmcError::Internal("R row cursor out of range"))?;
                let si = sc
                    .rows
                    .get((skip % s_len) as usize)
                    .copied()
                    .ok_or(SmcError::Internal("S row cursor out of range"))?;
                return Ok(Some((ri, si)));
            }
            SessionPhase::Suppressed { group, offset } => {
                let (ri, si, total) = {
                    let (r_rows, s_rows) = layout.group(group);
                    let total = r_rows.len() as u64 * s_rows.len() as u64;
                    if offset >= total {
                        (0, 0, total)
                    } else {
                        // offset < total implies both row sets are
                        // non-empty, so s_len > 0 and both lookups hit.
                        let s_len = s_rows.len() as u64;
                        let ri = r_rows
                            .get((offset / s_len) as usize)
                            .copied()
                            .ok_or(SmcError::Internal("suppressed R cursor out of range"))?;
                        let si = s_rows
                            .get((offset % s_len) as usize)
                            .copied()
                            .ok_or(SmcError::Internal("suppressed S cursor out of range"))?;
                        (ri, si, total)
                    }
                };
                if offset >= total {
                    session.phase = if group == 0 {
                        SessionPhase::Suppressed {
                            group: 1,
                            offset: 0,
                        }
                    } else {
                        SessionPhase::Done
                    };
                    continue;
                }
                if session.invocations == session.budget {
                    session.phase = SessionPhase::Done;
                    continue;
                }
                return Ok(Some((ri, si)));
            }
        }
    }
}

/// Applies a decision to the pair the walk currently rests on: labels,
/// degradation, budget charge, and the class-end / partial-consumption
/// bookkeeping. The deadline clock is charged by the caller ([`SmcRunner`]
/// owns it); everything here is pure session state, which is what makes
/// the walk *probe-able*: which pair comes next never depends on how the
/// previous pair was decided.
fn walk_apply(
    session: &mut SmcSession,
    ordered: &[ClassPairRef],
    strategy: LabelingStrategy,
    ri: u32,
    si: u32,
    decision: PairDecision,
) -> Result<(), SmcError> {
    match session.phase {
        SessionPhase::Done => Err(SmcError::Internal("decision applied to finished session")),
        SessionPhase::Ordered {
            cursor,
            skip,
            matched,
        } => {
            let pref = ordered
                .get(cursor as usize)
                .copied()
                .ok_or(SmcError::Internal("decision cursor out of range"))?;
            let mut matched = matched;
            match decision {
                PairDecision::Matched => {
                    matched += 1;
                    session.matched_pairs.push((ri, si));
                }
                PairDecision::NonMatch => {}
                PairDecision::Abandoned(reason) => walk_abandon(session, strategy, ri, si, reason),
            }
            let skip = skip + 1;
            session.invocations += 1;
            let next_class = SessionPhase::Ordered {
                cursor: cursor + 1,
                skip: 0,
                matched: 0,
            };
            if skip == pref.pairs {
                // Class fully consumed.
                session.examined.push(ExaminedStats {
                    class_pair: pref,
                    examined: skip,
                    matched,
                });
                session.phase = next_class;
            } else if session.invocations == session.budget {
                // Budget ran out mid-class: partial consumption.
                session.examined.push(ExaminedStats {
                    class_pair: pref,
                    examined: skip,
                    matched,
                });
                session.leftovers.push(LeftoverPair {
                    class_pair: pref,
                    skip,
                });
                session.phase = next_class;
            } else {
                session.phase = SessionPhase::Ordered {
                    cursor,
                    skip,
                    matched,
                };
            }
            Ok(())
        }
        SessionPhase::Suppressed { group, offset } => {
            match decision {
                PairDecision::Matched => {
                    session.suppressed_matched += 1;
                    session.matched_pairs.push((ri, si));
                }
                PairDecision::NonMatch => {}
                PairDecision::Abandoned(reason) => walk_abandon(session, strategy, ri, si, reason),
            }
            session.invocations += 1;
            session.suppressed_examined += 1;
            session.phase = SessionPhase::Suppressed {
                group,
                offset: offset + 1,
            };
            Ok(())
        }
    }
}

/// A pair the run gave up on (transport retries exhausted or the
/// deadline expired): charged, never matched by the protocol, decided
/// by the strategy instead. The reason is tallied for the report.
fn walk_abandon(
    session: &mut SmcSession,
    strategy: LabelingStrategy,
    ri: u32,
    si: u32,
    reason: AbandonReason,
) {
    let d = &mut session.degradation;
    d.abandoned.record(reason);
    if matches!(strategy, LabelingStrategy::MaximizeRecall) {
        d.declared.push((ri, si));
    }
}

/// How one record-pair comparison ended.
pub enum CompareOutcome {
    /// The protocol decided: match or non-match.
    Decided(bool),
    /// The transport exhausted its retries; the strategy must decide.
    Abandoned,
}

/// The job-level half of the comparison: schema, rule tables, and
/// normalization factors, plus the pluggable [`Comparator`] backend that
/// actually probes each pair.
struct Comparer {
    schema: std::sync::Arc<pprl_data::Schema>,
    rule: MatchingRule,
    /// Per-QID normalization factors (1.0 for categorical attributes).
    norms: Vec<f64>,
    /// The mode's backend family name, for the report.
    backend_name: &'static str,
    backend: Box<dyn Comparator>,
}

impl Comparer {
    fn new(
        mode: SmcMode,
        channel: Option<ChannelConfig>,
        data: &DataSet,
        qids: &[usize],
        rule: &MatchingRule,
        ledger: &mut CostLedger,
        warm: Option<&Keypair>,
    ) -> Result<Self, SmcError> {
        let backend = comparator::build(mode, channel, rule, ledger, warm)?;
        let norms = qids
            .iter()
            .map(|&q| {
                data.schema()
                    .attribute(q)
                    .vgh()
                    .as_intervals()
                    .map(|h| h.norm_factor())
                    .unwrap_or(1.0)
            })
            .collect();
        Ok(Comparer {
            schema: std::sync::Arc::clone(data.schema()),
            rule: rule.clone(),
            norms,
            backend_name: mode.backend_name(),
            backend,
        })
    }

    /// An independent clone for a parallel worker. Key material and rule
    /// tables are cloned (any attached randomizer pool is shared through
    /// its `Arc`); the worker's RNG stream is re-derived from the
    /// original's state mixed with the worker index, so workers draw
    /// distinct encryption randomness. Protocol *decisions* are
    /// randomness-independent, so the labels still equal the sequential
    /// run's. `None` for backends that refuse to fork (a reliable link's
    /// frame sequencing is inherently serial; live wire counters would
    /// lose their tallies).
    fn duplicate(&self, worker: u64) -> Option<Comparer> {
        let backend = self.backend.fork(worker)?;
        Some(Comparer {
            schema: std::sync::Arc::clone(&self.schema),
            rule: self.rule.clone(),
            norms: self.norms.clone(),
            backend_name: self.backend_name,
            backend,
        })
    }

    /// Runs the backend on one pair and names the outcome as the session
    /// records it.
    fn compare(
        &mut self,
        qids: &[usize],
        pair: PairView<'_>,
        ledger: &mut CostLedger,
    ) -> Result<PairDecision, SmcError> {
        let ctx = CompareCtx {
            schema: self.schema.as_ref(),
            rule: &self.rule,
            norms: &self.norms,
            qids,
        };
        Ok(match self.backend.compare(&ctx, pair, ledger)? {
            CompareOutcome::Decided(true) => PairDecision::Matched,
            CompareOutcome::Decided(false) => PairDecision::NonMatch,
            CompareOutcome::Abandoned => PairDecision::Abandoned(AbandonReason::RetryExhausted),
        })
    }
}

/// Batched per-attribute encodings for one pair: Alice's values, Bob's
/// values, and the per-attribute failure thresholds, index-aligned.
pub(crate) type BatchEncoding = (Vec<u64>, Vec<u64>, Vec<u64>);

/// Encodes every decidable attribute of a record pair for the batched
/// protocol; `Ok(None)` when no attribute can fail — the trivial-pair test
/// every party of a batched session applies, so a trivial match is
/// decided locally everywhere and exchanges nothing.
pub(crate) fn batch_encode(
    ctx: &CompareCtx<'_>,
    r: &pprl_data::Record,
    s: &pprl_data::Record,
) -> Result<Option<BatchEncoding>, SmcError> {
    let qids = ctx.qids;
    let mut a_vals = Vec::with_capacity(qids.len());
    let mut b_vals = Vec::with_capacity(qids.len());
    let mut thresholds = Vec::with_capacity(qids.len());
    for (pos, &q) in qids.iter().enumerate() {
        let (a, b, t) = encode_attribute(ctx.rule, pos, r.value(q), s.value(q), ctx.norms)?;
        if t == u64::MAX {
            continue; // θ ≥ 1: attribute can never fail
        }
        a_vals.push(a);
        b_vals.push(b);
        thresholds.push(t);
    }
    if a_vals.is_empty() {
        Ok(None)
    } else {
        Ok(Some((a_vals, b_vals, thresholds)))
    }
}

/// Encodes one attribute comparison as integers for the Paillier protocol:
/// values `a, b` and squared threshold `t` such that the predicate is
/// `(a − b)² ≤ t`. Returns `t = u64::MAX` when the attribute can never
/// fail (θ ≥ 1 under Hamming). Edit distance is rejected at construction,
/// so seeing it here means the rule tables are inconsistent with the
/// session — an internal error, not a panic.
pub(crate) fn encode_attribute(
    rule: &MatchingRule,
    pos: usize,
    rv: Value,
    sv: Value,
    norms: &[f64],
) -> Result<(u64, u64, u64), SmcError> {
    let theta = *rule
        .thetas
        .get(pos)
        .ok_or(SmcError::Internal("theta index out of range"))?;
    let distance = rule
        .distances
        .get(pos)
        .ok_or(SmcError::Internal("distance index out of range"))?;
    match distance {
        AttrDistance::Hamming => {
            if theta >= 1.0 {
                Ok((0, 0, u64::MAX))
            } else {
                Ok((rv.as_cat() as u64, sv.as_cat() as u64, 0))
            }
        }
        AttrDistance::NormalizedEuclidean => {
            let norm = *norms
                .get(pos)
                .ok_or(SmcError::Internal("norm index out of range"))?;
            let a = (rv.as_num() * NUM_SCALE).round() as u64;
            let b = (sv.as_num() * NUM_SCALE).round() as u64;
            let limit = theta * norm * NUM_SCALE;
            Ok((a, b, (limit * limit).floor() as u64))
        }
        AttrDistance::NormalizedEdit => {
            Err(SmcError::Internal("edit distance rejected at construction"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_anon::{AnonymizationMethod, Anonymizer, KAnonymityRequirement};
    use pprl_blocking::{records_match, BlockingEngine};
    use pprl_data::synth::{generate, SynthConfig};

    const QIDS: [usize; 5] = [0, 1, 2, 3, 4];

    struct Fixture {
        a: DataSet,
        b: DataSet,
        va: AnonymizedView,
        vb: AnonymizedView,
        unknown: Vec<ClassPairRef>,
        rule: MatchingRule,
        total: u64,
    }

    fn fixture(n: usize) -> Fixture {
        let a = generate(&SynthConfig {
            records: n,
            seed: 71,
        });
        let b = generate(&SynthConfig {
            records: n,
            seed: 72,
        });
        let anon = Anonymizer::new(AnonymizationMethod::MaxEntropy, KAnonymityRequirement(8));
        let va = anon.anonymize(&a, &QIDS).unwrap();
        let vb = anon.anonymize(&b, &QIDS).unwrap();
        let rule = MatchingRule::uniform(a.schema(), &QIDS, 0.05);
        let out = BlockingEngine::new(rule.clone()).run(&va, &vb).unwrap();
        Fixture {
            total: out.total_pairs,
            unknown: out.unknown,
            a,
            b,
            va,
            vb,
            rule,
        }
    }

    fn step(allowance: SmcAllowance) -> SmcStep {
        SmcStep {
            heuristic: SelectionHeuristic::MinAvgFirst,
            allowance,
            strategy: LabelingStrategy::MaximizePrecision,
            mode: SmcMode::Oracle,
            channel: None,
            deadline: DeadlineBudget::None,
        }
    }

    /// A resumed CLK holder replays the ordinals its journal already
    /// holds by advancing the walk alone: rows that only those pairs
    /// touch are never encoded.
    #[test]
    fn replayed_ordinals_never_reach_the_clk_encoder() {
        use crate::holder::{HolderBackend, HolderSide};
        let f = fixture(200);
        let params = pprl_bloom::ClkParams::paper_defaults(42);
        let mut step = step(SmcAllowance::Pairs(600));
        step.mode = SmcMode::Bloom { params };
        let mut runner = step
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let no_key = || Err(SmcError::Internal("the CLK exchange has no key"));
        let mut bob = HolderBackend::open(step.mode, HolderSide::Bob, no_key).unwrap();
        let alice_msg = pprl_bloom::wire::encode_clk(&pprl_bloom::Clk::zero(params.filter_len), 0);
        let watermark = 450u64;
        let mut ordinal = 0u64;
        let mut replayed = std::collections::BTreeSet::new();
        let mut live = std::collections::BTreeSet::new();
        let mut ledger = CostLedger::new();
        while let Some(pair) = bob.next(&mut runner).unwrap() {
            ordinal += 1;
            if ordinal <= watermark {
                replayed.insert(pair.si);
                continue;
            }
            live.insert(pair.si);
            let reply = bob
                .message(&runner.compare_ctx(), &pair, Some(&alice_msg), &mut ledger)
                .unwrap();
            assert_eq!(reply.len(), pprl_bloom::wire::DICE_MSG_LEN);
        }
        assert_eq!(
            ordinal, 600,
            "the fixture leaves more than the budget undecided"
        );
        let HolderBackend::Bloom { bank, .. } = &bob else {
            panic!("bloom mode opens the bloom holder");
        };
        assert_eq!(bank.encoded_rows(), live.len());
        assert!(
            replayed.difference(&live).next().is_some(),
            "the replayed prefix reaches rows the live tail does not"
        );
    }

    #[test]
    fn budget_is_respected_with_partial_consumption() {
        let f = fixture(200);
        let budget = 500u64;
        let report = step(SmcAllowance::Pairs(budget))
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert!(report.invocations <= budget);
        let unknown_total: u64 = f.unknown.iter().map(|p| p.pairs).sum();
        if unknown_total > budget {
            assert_eq!(report.invocations, budget, "budget fully spent");
            assert!(!report.leftovers.is_empty());
        }
        // Examined + leftover = all unknown pairs.
        let leftover_pairs: u64 = report
            .leftovers
            .iter()
            .map(|l| l.class_pair.pairs - l.skip)
            .sum();
        assert_eq!(report.invocations + leftover_pairs, unknown_total);
    }

    #[test]
    fn unlimited_budget_clears_all_unknowns() {
        let f = fixture(150);
        let report = step(SmcAllowance::Unlimited)
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert!(report.leftovers.is_empty());
        let unknown_total: u64 = f.unknown.iter().map(|p| p.pairs).sum();
        assert_eq!(report.invocations, unknown_total);
    }

    #[test]
    fn smc_matches_are_true_matches() {
        let f = fixture(150);
        let report = step(SmcAllowance::Unlimited)
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        for &(ri, si) in &report.matched_pairs {
            assert!(records_match(
                f.a.schema(),
                &QIDS,
                &f.rule,
                &f.a.records()[ri as usize],
                &f.b.records()[si as usize]
            ));
        }
    }

    #[test]
    fn paillier_mode_agrees_with_oracle() {
        // Small slice so real crypto stays fast: limit to 40 comparisons.
        let f = fixture(80);
        let oracle = step(SmcAllowance::Pairs(40))
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut crypto_step = step(SmcAllowance::Pairs(40));
        crypto_step.mode = SmcMode::Paillier {
            modulus_bits: 256,
            seed: 5,
        };
        let crypto = crypto_step
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert_eq!(oracle.matched_pairs, crypto.matched_pairs);
        assert_eq!(oracle.invocations, crypto.invocations);
        assert!(crypto.ledger.encryptions > 0, "real crypto ran");
        assert_eq!(oracle.ledger.encryptions, 0, "oracle is crypto-free");
    }

    #[test]
    fn batched_paillier_agrees_with_oracle_and_counts_messages() {
        let f = fixture(80);
        let oracle = step(SmcAllowance::Pairs(30))
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut batched = step(SmcAllowance::Pairs(30));
        batched.mode = SmcMode::PaillierBatched {
            modulus_bits: 256,
            seed: 5,
            pack: false,
        };
        let got = batched
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert_eq!(oracle.matched_pairs, got.matched_pairs);
        // Exactly two framed messages per record-pair comparison.
        assert_eq!(got.ledger.messages, 2 * got.invocations);
        assert!(got.ledger.bytes > 0);
    }

    #[test]
    fn edit_distance_rejected_in_paillier_mode() {
        let f = fixture(50);
        let mut rule = f.rule.clone();
        rule.distances[1] = AttrDistance::NormalizedEdit;
        let mut s = step(SmcAllowance::Pairs(10));
        s.mode = SmcMode::Paillier {
            modulus_bits: 256,
            seed: 1,
        };
        let err = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &rule, f.total)
            .unwrap_err();
        assert!(matches!(err, SmcError::UnsupportedDistance(_)));
    }

    #[test]
    fn zero_budget_leaves_everything() {
        let f = fixture(100);
        let report = step(SmcAllowance::Pairs(0))
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert_eq!(report.invocations, 0);
        assert_eq!(report.leftovers.len(), f.unknown.len());
        assert!(report.matched_pairs.is_empty());
    }

    #[test]
    fn stepwise_execution_equals_one_shot() {
        let f = fixture(150);
        let s = step(SmcAllowance::Pairs(400));
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut runner = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        while runner.step_pairs(7).unwrap() > 0 {}
        assert!(runner.is_done());
        assert_eq!(runner.finish(), full);
    }

    #[test]
    fn checkpoint_resume_equals_one_shot() {
        let f = fixture(150);
        let s = step(SmcAllowance::Pairs(300));
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        // Interrupt after every 11 pairs; resume from the snapshot.
        let mut snapshot: Option<SmcSession> = None;
        let resumed = loop {
            let mut runner = match snapshot.take() {
                None => s
                    .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
                Some(session) => s
                    .resume(session, &f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
            };
            if runner.step_pairs(11).unwrap() == 0 {
                break runner.finish();
            }
            snapshot = Some(runner.checkpoint());
        };
        assert_eq!(resumed, full);
    }

    #[test]
    fn resume_rejects_mismatched_budget() {
        let f = fixture(80);
        let s = step(SmcAllowance::Pairs(50));
        let mut runner = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        runner.step_pairs(5).unwrap();
        let snapshot = runner.checkpoint();
        let other = step(SmcAllowance::Pairs(60));
        // `unwrap_err` would require `SmcRunner: Debug`, which the runner
        // deliberately does not implement (it holds key material).
        let err = match other.resume(snapshot, &f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
        {
            Err(e) => e,
            Ok(_) => panic!("resume with a mismatched budget must fail"),
        };
        assert!(matches!(err, SmcError::SessionMismatch(_)));
    }

    #[test]
    fn session_snapshot_roundtrips_through_the_wire_codec() {
        let f = fixture(100);
        let s = step(SmcAllowance::Pairs(120));
        let mut runner = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        runner.step_pairs(37).unwrap();
        let snapshot = runner.checkpoint();
        let bytes = crate::codec::encode_session(&snapshot);
        let back: SmcSession = crate::codec::decode_session(&bytes).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn virtual_deadline_abandons_remaining_pairs_without_losing_precision() {
        let f = fixture(150);
        let full = step(SmcAllowance::Unlimited)
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let unknown_total: u64 = f.unknown.iter().map(|p| p.pairs).sum();
        let compared = 7u64;
        let mut s = step(SmcAllowance::Unlimited);
        s.deadline = DeadlineBudget::VirtualMs {
            budget_ms: compared,
            cost_per_pair_ms: 1,
        };
        let report = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        // Every in-allowance pair is still walked and charged; the ones
        // past the deadline are abandoned instead of compared.
        assert_eq!(report.invocations, unknown_total);
        let tally = &report.degradation.abandoned;
        assert_eq!(tally.deadline_expired, unknown_total - compared);
        assert_eq!(tally.retry_exhausted, 0);
        assert_eq!(report.degradation.pairs_abandoned(), tally.total());
        // Maximize-precision labels abandoned pairs non-match, so every
        // declared match is one the unlimited run also found.
        for pair in &report.matched_pairs {
            assert!(full.matched_pairs.contains(pair));
        }
        // Deadline-abandoned pairs are never declared under this strategy.
        assert!(report.degradation.declared.is_empty());
    }

    #[test]
    fn deadline_survives_checkpoint_resume() {
        let f = fixture(150);
        let compared = 5u64;
        let mut s = step(SmcAllowance::Unlimited);
        s.deadline = DeadlineBudget::VirtualMs {
            budget_ms: compared,
            cost_per_pair_ms: 1,
        };
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        // Interrupt every 3 pairs: virtual elapsed time must persist in
        // the snapshot or the resumed run would win extra comparisons.
        let mut snapshot: Option<SmcSession> = None;
        let resumed = loop {
            let mut runner = match snapshot.take() {
                None => s
                    .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
                Some(session) => s
                    .resume(session, &f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
            };
            if runner.step_pairs(3).unwrap() == 0 {
                break runner.finish();
            }
            snapshot = Some(runner.checkpoint());
        };
        assert_eq!(resumed, full);
    }

    #[test]
    fn event_replay_reconstructs_the_live_run_without_reexecution() {
        let f = fixture(150);
        let s = step(SmcAllowance::Pairs(300));
        let mut live = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut events = Vec::new();
        while let Some(ev) = live.step_pair_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(live.replayed_pairs(), 0);
        let live_report = live.finish();
        assert!(!events.is_empty());

        let mut replayed = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        for ev in &events {
            replayed.replay_pair_event(ev).unwrap();
        }
        assert_eq!(replayed.replayed_pairs(), events.len() as u64);
        assert!(replayed.is_done());
        assert_eq!(replayed.finish(), live_report);
    }

    #[test]
    fn replay_rejects_a_diverged_event() {
        let f = fixture(100);
        let s = step(SmcAllowance::Pairs(50));
        let mut live = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let ev = live.step_pair_event().unwrap().expect("at least one pair");
        let mut other = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let bogus = PairEvent {
            ri: ev.ri.wrapping_add(1),
            si: ev.si,
            decision: ev.decision,
        };
        let err = other.replay_pair_event(&bogus).unwrap_err();
        assert!(matches!(err, SmcError::SessionMismatch(_)));
    }

    #[test]
    fn parallel_run_equals_sequential_at_any_thread_count() {
        let f = fixture(150);
        let s = step(SmcAllowance::Pairs(400));
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        for threads in [2usize, 3, 4, 8] {
            let mut runner = s
                .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                .unwrap();
            assert!(runner.parallelizable());
            runner.run_to_completion_parallel(threads).unwrap();
            assert!(runner.is_done());
            assert_eq!(runner.finish(), full, "threads={threads}");
        }
    }

    #[test]
    fn parallel_paillier_with_pool_equals_sequential_report() {
        let f = fixture(80);
        let mut s = step(SmcAllowance::Pairs(30));
        s.mode = SmcMode::PaillierBatched {
            modulus_bits: 256,
            seed: 5,
            pack: false,
        };
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut runner = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert!(runner.prefill_randomizers(64, 4, 17), "pool engages");
        runner.run_to_completion_parallel(4).unwrap();
        // Labels AND the cost ledger are identical: pooling moves when
        // the exponentiations happen, not how many the protocol counts.
        assert_eq!(runner.finish(), full);
    }

    #[test]
    fn armed_deadline_disables_parallelism_but_stays_correct() {
        let f = fixture(120);
        let mut s = step(SmcAllowance::Unlimited);
        s.deadline = DeadlineBudget::VirtualMs {
            budget_ms: 9,
            cost_per_pair_ms: 1,
        };
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        let mut runner = s
            .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        assert!(!runner.parallelizable(), "deadline forces the serial path");
        runner.run_to_completion_parallel(8).unwrap();
        assert_eq!(runner.finish(), full);
    }

    #[test]
    fn parallel_batches_interleave_with_checkpoints() {
        let f = fixture(150);
        let s = step(SmcAllowance::Pairs(300));
        let full = s
            .run(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
            .unwrap();
        // Decide 13 pairs per parallel batch, checkpoint + resume between
        // batches: the snapshot protocol is batch-size agnostic.
        let mut snapshot: Option<SmcSession> = None;
        let resumed = loop {
            let mut runner = match snapshot.take() {
                None => s
                    .start(&f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
                Some(session) => s
                    .resume(session, &f.a, &f.b, &f.va, &f.vb, &f.unknown, &f.rule, f.total)
                    .unwrap(),
            };
            if runner.step_pair_events_parallel(13, 4).unwrap().is_empty() {
                break runner.finish();
            }
            snapshot = Some(runner.checkpoint());
        };
        assert_eq!(resumed, full);
    }
}

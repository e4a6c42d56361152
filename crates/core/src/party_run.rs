//! One party of a genuinely distributed three-process linkage run.
//!
//! [`run_party`] is the networked counterpart of
//! [`journal_run::run_journaled`]: the querying party and the two data
//! holders each run this function in their own OS process, connected over
//! TCP by `pprl-net`. The deployment is *shared-scenario*: every party
//! loads the identical inputs and configuration, recomputes the cheap
//! deterministic phases (anonymization, blocking, the pair walk) locally,
//! and only the protocol's ciphertext messages cross a process boundary —
//! Alice's batched shares to Bob, Bob's masked results to the querier, the
//! querier's public key to both. The handshake exchanges the same job
//! fingerprint the run journal uses, so a party whose inputs drifted is
//! rejected before any ciphertext moves.
//!
//! ## Ledger parity
//!
//! The acceptance bar for this mode is byte-for-byte cost parity: the
//! querier's final report (its own ledger merged with the two holder
//! ledgers shipped home at session end) must equal the single-process
//! `--threads 1` run's. Each data message is recorded once by its creator,
//! each ack once by its receiver; retransmissions, reconnects, and
//! duplicate re-acks are deployment noise kept in
//! [`NetStats`](pprl_net::NetStats), never in the
//! [`CostLedger`](pprl_crypto::CostLedger).
//!
//! ## Crash–resume
//!
//! Each party journals its durable per-pair state — the ledger *delta* and
//! its link watermark — before releasing its upstream sender (the
//! journal-then-ack ordering of [`PeerChannel::commit_ack`]). A party
//! killed mid-session restarts with `--resume`, replays its journal, and
//! rejoins at its watermark; peers recover the lost acks from the resumed
//! hello or by retransmitting into the dedup screen. The merged ledgers
//! still reconcile to exactly one recording per message.
//!
//! [`PeerChannel::commit_ack`]: pprl_net::PeerChannel::commit_ack

use crate::journal_run::{self, JournalOptions};
use crate::pipeline::Prepared;
use crate::{HybridLinkage, LinkageError, LinkageOutcome};
use pprl_crypto::protocol::transport::ENVELOPE_OVERHEAD;
use pprl_crypto::CostLedger;
use pprl_data::DataSet;
use pprl_journal::{Frame, JournalWriter};
use pprl_net::{
    Backend, Hello, IncomingData, NetError, NetStats, PeerChannel, ReconnectPolicy, Role,
    SessionMux,
};
use pprl_smc::{
    DeadlineBudget, HolderBackend, HolderSide, PairDecision, PairEvent, RemoteParty, SmcError,
    SmcMode, SmcReport, SmcRunner,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame kind: the public-key broadcast committed — ledger delta (96
/// bytes) followed by the raw key message (empty on the querier, which
/// derives the key from the seed).
pub const K_PARTY_KEY: u8 = 20;
/// Frame kind: one committed pair — link watermark `u64`, `ri`/`si`
/// `u32`, decision code `u8` (as in `journal_run`), ledger delta (96
/// bytes).
pub const K_PARTY_PAIR: u8 = 21;
/// Frame kind: the job finished and its report was emitted (empty
/// payload). Written by the serve daemon *after* the report file is
/// durable, so a restarted daemon re-serves finished jobs from disk
/// instead of re-executing them.
pub const K_PARTY_DONE: u8 = 22;

const PAIR_FRAME_LEN: usize = 8 + 4 + 4 + 1 + CostLedger::WIRE_LEN;

/// How one party process joins the session.
#[derive(Clone, Debug)]
pub struct PartyOptions {
    /// Which of the three protocol roles this process plays.
    pub role: Role,
    /// Listen address (querier: for both holders; Alice: for Bob).
    /// Use port `0` for an ephemeral port; the bound address is
    /// announced on stderr as `pprl-net: <role> listening on <addr>`.
    pub listen: Option<String>,
    /// The querier's address (required for Alice and Bob).
    pub querier_addr: Option<SocketAddr>,
    /// Alice's address (required for Bob).
    pub alice_addr: Option<SocketAddr>,
    /// Durable per-party journal; `None` runs without crash recovery.
    pub journal: Option<PathBuf>,
    /// Resume from the journal instead of truncating it.
    pub resume: bool,
    /// Socket read/write timeout (one poll slice, not the give-up bound).
    pub timeout: Duration,
    /// Total time one operation may wait on a peer (reconnects included)
    /// before the session degrades or fails.
    pub deadline: Duration,
    /// Journal durability: fsync on create and at commit points (see
    /// [`pprl_journal::JournalWriter`]). `false` keeps kill-only tests
    /// fast.
    pub durable: bool,
    /// Silence watchdog: when set, caps every channel's reconnect
    /// deadline at this value *and* turns a peer that stays dark into a
    /// hard session error instead of a degraded pair. Daemon jobs set it
    /// so the supervisor's crash-requeue machinery retries the whole job
    /// from its journal when the peer comes back; one-shot runs leave it
    /// `None` and keep the graceful degradation of PR 5.
    pub silence: Option<Duration>,
    /// Send window: how many record pairs a data holder keeps in flight
    /// to its downstream peer before blocking on the journal-gated ack.
    /// `1` (the default) is the smallest window, not a separate path: one
    /// pair per round trip, the classic lockstep protocol. Larger windows
    /// pipeline the pair stream so throughput stops scaling with RTT; the
    /// commit/journal ordering is the same at every size (acks release
    /// oldest-first), so reports, ledgers and journals are byte-identical
    /// at any window. A pure deployment knob: never fingerprinted, may
    /// differ per party.
    pub window: usize,
}

impl PartyOptions {
    /// Defaults for `role`: ephemeral listener, 1 s polls, 30 s deadline.
    pub fn new(role: Role) -> Self {
        PartyOptions {
            role,
            listen: None,
            querier_addr: None,
            alice_addr: None,
            journal: None,
            resume: false,
            timeout: Duration::from_secs(1),
            deadline: Duration::from_secs(30),
            durable: true,
            silence: None,
            window: 1,
        }
    }
}

/// What one party process knows when its session ends.
#[derive(Debug)]
pub struct PartyOutcome {
    /// The full linkage outcome — querier only; the holders never learn
    /// the decisions (that is the protocol's point).
    pub outcome: Option<LinkageOutcome>,
    /// This party's own protocol ledger. On the querier this is already
    /// merged into `outcome.ledger` along with both holders' ledgers.
    pub ledger: CostLedger,
    /// Wire accounting across this party's channels (off-ledger).
    pub net: NetStats,
    /// Whether this process resumed an existing journal.
    pub resumed: bool,
    /// Pairs restored from the journal without re-executing crypto.
    pub replayed_pairs: u64,
    /// Pairs this process actually worked.
    pub live_pairs: u64,
}

/// Validates the pipeline configuration for networked deployment and
/// resolves the wire protocol's [`Backend`] — the byte every channel
/// announces in its [`Hello`], so a peer launched with a different
/// `--backend` is refused with a typed [`NetError::BackendMismatch`]
/// before any payload moves.
///
/// A wall-clock [`DeadlineBudget`] *is* allowed (unlike earlier
/// revisions): only the querier's clock is consulted, and once it expires
/// the querier abandons its remaining pairs locally while *draining* the
/// oblivious holders — acking their stragglers off-ledger so they finish
/// their deterministic walks and ship their ledgers home (see
/// [`PeerChannel::drain_stragglers`]). One clock decides; nobody drifts.
pub(crate) fn wire_backend(pipeline: &HybridLinkage) -> Result<Backend, LinkageError> {
    let cfg = pipeline.config();
    let backend = match cfg.mode {
        SmcMode::PaillierBatched { .. } => Backend::Paillier,
        SmcMode::Bloom { .. } => Backend::Bloom,
        _ => {
            return Err(LinkageError::Net(
                "party mode requires a networked backend: batched Paillier or bloom".into(),
            ))
        }
    };
    if cfg.channel.is_some() {
        return Err(LinkageError::Net(
            "party mode uses a real network; drop the simulated channel".into(),
        ));
    }
    Ok(backend)
}

/// Opens (or resumes) a per-party journal; the hello must announce the
/// restored watermark, so this happens before any connection.
pub(crate) fn open_party_journal(
    journal: Option<&PathBuf>,
    resume: bool,
    fp: u64,
    durable: bool,
) -> Result<(PartyProgress, Option<JournalWriter>), LinkageError> {
    match journal {
        None => Ok((PartyProgress::default(), None)),
        Some(path) if resume => {
            let (recovered, writer) = JournalWriter::resume_with(path, fp, durable)?;
            Ok((parse_party_frames(&recovered.frames)?, Some(writer)))
        }
        Some(path) => Ok((
            PartyProgress::default(),
            Some(JournalWriter::create_with(path, fp, durable)?),
        )),
    }
}

/// Runs one party of the distributed session to completion.
pub fn run_party(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    opts: &PartyOptions,
) -> Result<PartyOutcome, LinkageError> {
    match opts.role {
        Role::Query => {
            let wire = wire_backend(pipeline)?;
            let listen = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
            let mux =
                Arc::new(SessionMux::bind(listen, Some(opts.timeout)).map_err(net_err)?);
            mux.set_identity(Role::Query, wire);
            announce(&mux, Role::Query);
            let (mut outcome, _writer) = querier_job(pipeline, r, s, opts, mux.clone(), None)?;
            outcome.net.merge(&mux.stats());
            Ok(outcome)
        }
        Role::Alice | Role::Bob => {
            let wire = wire_backend(pipeline)?;
            let fp = journal_run::fingerprint(pipeline, r, s, &JournalOptions::default());
            let (progress, writer) =
                open_party_journal(opts.journal.as_ref(), opts.resume, fp, opts.durable)?;

            // Steps 1–2, replicated deterministically by every party.
            let prepared = Prepared::new(pipeline.config(), r, s)?;
            let blocking = prepared.block(pipeline.threads())?;
            let session = Session::new(fp, wire, opts);
            let runner = prepared.start(pipeline.smc_step(), &blocking, None, None)?;
            let mode = pipeline.config().mode;
            let (ledger, stats, replayed, live) =
                run_holder(runner, mode, &session, opts, progress, writer)?;
            Ok(PartyOutcome {
                outcome: None,
                ledger,
                net: stats,
                resumed: opts.resume,
                replayed_pairs: replayed,
                live_pairs: live,
            })
        }
    }
}

/// The querier's whole job against a caller-supplied listener: journal
/// open/replay, deterministic phases, the networked session, the merged
/// report. This is the unit a [`serve`](crate::serve) daemon runs per
/// admitted job (sharing one gated mux and a warm keypair across jobs);
/// [`run_party`] wraps it for the one-shot CLI. Returns the journal
/// writer so the daemon can append its done-marker after the report is
/// durable. The mux's own stats are *not* merged here — a daemon shares
/// the mux across jobs; one-shot callers merge it themselves.
pub(crate) fn querier_job(
    pipeline: &HybridLinkage,
    r: &DataSet,
    s: &DataSet,
    opts: &PartyOptions,
    mux: Arc<SessionMux>,
    warm: Option<&pprl_crypto::Keypair>,
) -> Result<(PartyOutcome, Option<JournalWriter>), LinkageError> {
    let wire = wire_backend(pipeline)?;
    let fp = journal_run::fingerprint(pipeline, r, s, &JournalOptions::default());
    let (progress, writer) =
        open_party_journal(opts.journal.as_ref(), opts.resume, fp, opts.durable)?;

    let prepared = Prepared::new(pipeline.config(), r, s)?;
    let blocking = prepared.block(pipeline.threads())?;
    let session = Session::new(fp, wire, opts);
    // Warm-state reuse across daemon jobs: a cached keypair (keyed by the
    // mode's Paillier parameters) skips the prime search — the expensive
    // part of session setup.
    let runner = prepared.start(pipeline.smc_step(), &blocking, warm, None)?;
    let drain = !matches!(pipeline.config().deadline, DeadlineBudget::None);

    let (smc, stats, replayed, live, writer) =
        run_querier(runner, drain, &session, progress, writer, mux)?;
    let outcome = pipeline.finalize(prepared, blocking, smc);
    let ledger = outcome.ledger.clone();
    Ok((
        PartyOutcome {
            outcome: Some(outcome),
            ledger,
            net: stats,
            resumed: opts.resume,
            replayed_pairs: replayed,
            live_pairs: live,
        },
        writer,
    ))
}

/// Connection parameters shared by every channel this party opens.
struct Session {
    fp: u64,
    wire: Backend,
    timeout: Option<Duration>,
    policy: ReconnectPolicy,
    /// Whether a dark peer fails the session (daemon silence watchdog)
    /// instead of degrading the pair.
    fail_on_silence: bool,
}

impl Session {
    fn new(fp: u64, wire: Backend, opts: &PartyOptions) -> Self {
        Session {
            fp,
            wire,
            timeout: Some(opts.timeout),
            policy: ReconnectPolicy {
                retry: pprl_crypto::protocol::RetryPolicy::default(),
                // The silence watchdog tightens every per-operation wait:
                // a dark peer surfaces after the watchdog window, not the
                // (typically longer) reconnect deadline.
                deadline: opts
                    .silence
                    .map_or(opts.deadline, |s| s.min(opts.deadline)),
            },
            fail_on_silence: opts.silence.is_some(),
        }
    }

    fn hello(&self, role: Role, progress: &PartyProgress) -> Hello {
        let mut hello = Hello::new(role, self.wire, self.fp);
        hello.watermark = progress.watermark();
        hello.have_key = progress.key.is_some();
        hello
    }
}

/// Recovered party-journal state.
#[derive(Default)]
pub(crate) struct PartyProgress {
    /// Key-broadcast frame: the ledger delta and the raw key message.
    key: Option<(CostLedger, Vec<u8>)>,
    /// Committed pairs in append order: watermark, event, ledger delta.
    pairs: Vec<(u64, PairEvent, CostLedger)>,
    /// Whether a [`K_PARTY_DONE`] marker closed the journal: the job
    /// finished and its report file is durable on disk.
    pub(crate) done: bool,
}

impl PartyProgress {
    fn watermark(&self) -> u64 {
        self.pairs.last().map_or(0, |(wm, _, _)| *wm)
    }

    /// The restored ledger: every journaled delta, in order.
    fn restored_ledger(&self) -> CostLedger {
        let mut ledger = CostLedger::new();
        if let Some((delta, _)) = &self.key {
            ledger.merge(delta);
        }
        for (_, _, delta) in &self.pairs {
            ledger.merge(delta);
        }
        ledger
    }
}

pub(crate) fn parse_party_frames(frames: &[Frame]) -> Result<PartyProgress, LinkageError> {
    let mut progress = PartyProgress::default();
    for frame in frames {
        match frame.kind {
            K_PARTY_DONE => progress.done = true,
            K_PARTY_KEY => {
                let p = &frame.payload;
                if p.len() < CostLedger::WIRE_LEN {
                    return Err(LinkageError::Journal(format!(
                        "key frame has {} bytes, expected at least {}",
                        p.len(),
                        CostLedger::WIRE_LEN
                    )));
                }
                let delta = CostLedger::decode(&p[..CostLedger::WIRE_LEN])
                    .ok_or_else(|| LinkageError::Journal("bad key-frame ledger".into()))?;
                progress.key = Some((delta, p[CostLedger::WIRE_LEN..].to_vec()));
            }
            K_PARTY_PAIR => {
                let p = &frame.payload;
                if p.len() != PAIR_FRAME_LEN {
                    return Err(LinkageError::Journal(format!(
                        "pair frame has {} bytes, expected {PAIR_FRAME_LEN}",
                        p.len()
                    )));
                }
                let watermark = u64::from_le_bytes(p[0..8].try_into().unwrap());
                let event = journal_run::decode_outcome(&p[8..17])?;
                let delta = CostLedger::decode(&p[17..])
                    .ok_or_else(|| LinkageError::Journal("bad pair-frame ledger".into()))?;
                progress.pairs.push((watermark, event, delta));
            }
            other => {
                return Err(LinkageError::Journal(format!(
                    "unknown party-journal frame kind {other}"
                )))
            }
        }
    }
    Ok(progress)
}

fn encode_pair_frame(watermark: u64, event: &PairEvent, delta: &CostLedger) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAIR_FRAME_LEN);
    payload.extend_from_slice(&watermark.to_le_bytes());
    payload.extend_from_slice(&journal_run::encode_outcome(event));
    payload.extend_from_slice(&delta.encode());
    payload
}

fn append(
    writer: &mut Option<JournalWriter>,
    kind: u8,
    payload: &[u8],
) -> Result<(), LinkageError> {
    if let Some(w) = writer.as_mut() {
        w.append(kind, payload)?;
    }
    Ok(())
}

fn net_err(e: NetError) -> LinkageError {
    LinkageError::Net(e.to_string())
}

fn delta_of(now: &CostLedger, before: &CostLedger) -> Result<CostLedger, LinkageError> {
    now.delta_since(before)
        .ok_or_else(|| LinkageError::Net("cost ledger moved backwards".into()))
}

pub(crate) fn announce(mux: &SessionMux, role: Role) {
    // Test drivers parse this line to learn the ephemeral port.
    eprintln!("pprl-net: {role} listening on {}", mux.local_addr());
}

// ---------------------------------------------------------------------------
// Querier
// ---------------------------------------------------------------------------

/// The querier's live connections plus the one-pair commit buffer: the
/// accepted-but-unacked envelope whose ack is released only after the
/// pair is journaled.
struct QuerierNet {
    alice: PeerChannel,
    bob: PeerChannel,
    /// `true` when the key broadcast was restored from the journal (its
    /// cost is already in the restored ledger and must not re-record).
    restored_broadcast: bool,
    /// Daemon silence watchdog: a dark peer fails the job (so the serve
    /// supervisor requeues it) instead of degrading the pair.
    fail_on_silence: bool,
    pending: Option<IncomingData>,
}

impl QuerierNet {
    /// Releases the buffered ack (the pair is now durable).
    fn commit(&mut self) {
        if let Some(incoming) = self.pending.take() {
            self.bob.commit_ack(&incoming);
        }
    }
}

/// [`RemoteParty`] over shared querier state: the runner's backend owns
/// one handle, `run_querier` keeps another for journal-ordered ack commits
/// and the end-of-session ledger exchange.
struct SharedParty(Arc<Mutex<QuerierNet>>);

impl SharedParty {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, QuerierNet>, SmcError> {
        self.0
            .lock()
            .map_err(|_| SmcError::Internal("querier net state poisoned"))
    }
}

fn smc_net_err(e: NetError) -> SmcError {
    SmcError::SessionMismatch(format!("remote party unreachable: {e}"))
}

impl RemoteParty for SharedParty {
    fn broadcast_key(
        &mut self,
        key_message: &[u8],
        ledger: &mut CostLedger,
    ) -> Result<(), SmcError> {
        let mut guard = self.lock()?;
        let net = &mut *guard;
        if net.restored_broadcast {
            // The journaled key frame is only ever written after both
            // holders acked the broadcast — and each holder journals the
            // key *before* acking — so a restored session has nothing to
            // send and its cost already lives in the journaled delta.
            // Reaching for the holders here would also deadlock a resumed
            // daemon: a mid-pipeline holder has no reason to re-dial the
            // querier until its own next operation touches this link.
            return Ok(());
        }
        for holder in [&mut net.alice, &mut net.bob] {
            // One key message per holder, recorded exactly once. Delivery
            // is independently idempotent: the key is pair 0 of the same
            // send window every pair rides, and a holder whose (re)connect
            // hello already shows the key settles it without a frame.
            ledger.record_message(key_message.len());
            holder.send_data(0, key_message).map_err(smc_net_err)?;
        }
        Ok(())
    }

    fn bob_message(
        &mut self,
        pair_id: u64,
        ledger: &mut CostLedger,
    ) -> Result<Option<Vec<u8>>, SmcError> {
        let mut net = self.lock()?;
        net.commit(); // safety: never hold two unacked pairs
        match net.bob.recv_data() {
            Ok(incoming) => {
                if incoming.pair_id != pair_id {
                    return Err(SmcError::SessionMismatch(format!(
                        "Bob sent pair {} while the querier expected {pair_id}: \
                         the deterministic walks diverged",
                        incoming.pair_id
                    )));
                }
                // Record the ack now (inside this pair's ledger delta);
                // the wire ack leaves in `commit` once the pair is
                // journaled.
                ledger.record_message(ENVELOPE_OVERHEAD);
                let payload = incoming.payload.clone();
                net.pending = Some(incoming);
                Ok(Some(payload))
            }
            // Under the daemon silence watchdog a dark peer is a job
            // failure — the supervisor requeues the whole job from its
            // journal, which resumes cleanly when the peer returns.
            Err(NetError::PeerGone(why)) if net.fail_on_silence => {
                Err(SmcError::SessionMismatch(format!(
                    "peer went silent past the watchdog window: {why}"
                )))
            }
            // A peer that stays gone degrades this pair like a
            // retry-exhausted exchange; the session continues.
            Err(NetError::PeerGone(_)) => Ok(None),
            Err(e) => Err(smc_net_err(e)),
        }
    }

    fn resume_pair_watermark(&self) -> u64 {
        self.lock().map(|net| net.bob.watermark()).unwrap_or(0)
    }
}

/// The querying party's session over a started `runner`: journal replay,
/// the networked pair loop, and the end-of-session ledger exchange.
/// `drain_stragglers` is set when a deadline is armed.
fn run_querier(
    mut runner: SmcRunner<'_>,
    drain_stragglers: bool,
    session: &Session,
    progress: PartyProgress,
    mut writer: Option<JournalWriter>,
    mux: Arc<SessionMux>,
) -> Result<(SmcReport, NetStats, u64, u64, Option<JournalWriter>), LinkageError> {
    // Lazy accepts: the querier must not block on either holder before it
    // knows which one will speak first. A fresh session connects both at
    // the key broadcast anyway; a *resumed* session may find Alice
    // mid-pipeline with no reason to re-dial until her ledger send (she
    // blocks on Bob, who blocks on us), so each channel claims its
    // holder's dial only when an operation actually needs the link.
    let hello = session.hello(Role::Query, &progress);
    let alice = PeerChannel::accept_lazy(
        Arc::clone(&mux),
        hello,
        Role::Alice,
        session.timeout,
        session.policy,
    );
    let bob = PeerChannel::accept_lazy(
        Arc::clone(&mux),
        hello,
        Role::Bob,
        session.timeout,
        session.policy,
    );

    // Replay the journal: decisions re-applied, per-pair cost deltas
    // merged, no crypto re-executed.
    for (_, event, delta) in &progress.pairs {
        runner.replay_pair_event_with_costs(event, delta)?;
    }
    if let Some((delta, _)) = &progress.key {
        runner.absorb_remote_costs(delta);
    }
    let replayed = runner.replayed_pairs();
    let mut watermark = progress.watermark();

    let net = SharedParty(Arc::new(Mutex::new(QuerierNet {
        alice,
        bob,
        restored_broadcast: progress.key.is_some(),
        fail_on_silence: session.fail_on_silence,
        pending: None,
    })));
    let before_key = runner.ledger().clone();
    runner.connect_remote(Box::new(SharedParty(Arc::clone(&net.0))))?;
    // The key frame exists for the Paillier broadcast; the CLK exchange
    // has no session-setup message, so its journal holds pair frames
    // only — a resumed bloom job must replay to the same bytes a clean
    // run writes.
    if progress.key.is_none() && session.wire == Backend::Paillier {
        let delta = delta_of(runner.ledger(), &before_key)?;
        append(&mut writer, K_PARTY_KEY, &delta.encode())?;
        // The broadcast is on the wire; a crash before this frame is
        // durable would re-record its cost on resume.
        if let Some(w) = writer.as_mut() {
            w.sync()?;
        }
    }
    // The CLK exchange has no setup broadcast, but both holders dial this
    // querier eagerly at startup and block on the hello reply — which the
    // Paillier key send would have produced as a side effect. Answer the
    // dials explicitly at session open. A *resumed* session skips this:
    // mid-pipeline holders only re-dial when their own next operation
    // touches this link (claiming eagerly here would deadlock on Alice,
    // whose next querier operation is the end-of-run ledger send).
    if session.wire == Backend::Bloom && progress.pairs.is_empty() {
        let mut guard = net.lock()?;
        let fresh = &mut *guard;
        fresh.alice.ensure_connected().map_err(net_err)?;
        fresh.bob.ensure_connected().map_err(net_err)?;
    }

    let mut live = 0u64;
    loop {
        let before = runner.ledger().clone();
        let Some(event) = runner.step_pair_event()? else {
            break;
        };
        live += 1;
        let delta = delta_of(runner.ledger(), &before)?;
        if let Some(pending) = &net.lock()?.pending {
            watermark = pending.pair_id;
        }
        // Journal, then release Bob's ack: a crash between the two is
        // healed by Bob retransmitting into the restored dedup screen.
        append(
            &mut writer,
            K_PARTY_PAIR,
            &encode_pair_frame(watermark, &event, &delta),
        )?;
        net.lock()?.commit();
    }
    if let Some(w) = writer.as_mut() {
        w.sync()?;
    }

    // Session end: both holders ship their ledgers home; merged, the
    // report must equal the single-process run's.
    let mut guard = net.lock()?;
    guard.commit();
    if drain_stragglers {
        // A deadline is the querier's alone: the holders walk their full
        // deterministic pair sequence regardless. Drain their stragglers
        // off-ledger so they reach their own send_ledger instead of
        // retransmitting forever at a silent peer.
        guard.alice.drain_stragglers();
        guard.bob.drain_stragglers();
    }
    // Bob first: he cannot finish until every pair he sent is acked, and a
    // lost ack only heals when this side reads his retransmission and
    // re-acks it — which the ledger wait on his channel does. Alice's last
    // acks wait on Bob's, so waiting on her first would starve all three.
    let bob_ledger = guard.bob.recv_ledger().map_err(net_err)?;
    let alice_ledger = guard.alice.recv_ledger().map_err(net_err)?;
    let mut stats = guard.alice.stats;
    stats.merge(&guard.bob.stats);
    drop(guard);
    runner.absorb_remote_costs(&alice_ledger);
    runner.absorb_remote_costs(&bob_ledger);

    Ok((runner.finish(), stats, replayed, live, writer))
}

// ---------------------------------------------------------------------------
// Data holders
// ---------------------------------------------------------------------------

/// One produced-but-uncommitted pair: everything the commit needs once
/// the downstream ack releases it.
struct PendingCommit {
    ordinal: u64,
    event: PairEvent,
    delta: CostLedger,
    /// Bob only: Alice's accepted envelope, whose ack this commit releases.
    incoming: Option<IncomingData>,
}

/// A holder's two pair-stream links and what rides between them: the
/// pairs submitted downstream that no ack has released yet.
struct HolderLinks<'c> {
    /// Where this holder's messages go: Bob for Alice, the querier for Bob.
    down: &'c mut PeerChannel,
    /// Where Bob's inputs come from (Alice); `None` on Alice, who opens
    /// each exchange.
    up: Option<&'c mut PeerChannel>,
    pending: VecDeque<PendingCommit>,
    writer: &'c mut Option<JournalWriter>,
}

impl HolderLinks<'_> {
    /// Journals every pair the downstream ack released, oldest-first, and
    /// *then* releases the upstream ack buffered with it — the two-phase
    /// [`PeerChannel::commit_ack`] ordering. The released ids are exactly
    /// the submit-order prefix, so the journal and the resume watermark
    /// stay contiguous at any window.
    fn commit_acked(&mut self) -> Result<(), LinkageError> {
        for id in self.down.take_acked_prefix() {
            let Some(commit) = self.pending.pop_front() else {
                return Err(LinkageError::Net(format!(
                    "pair {id} acked with nothing pending commit"
                )));
            };
            if commit.ordinal != id {
                return Err(LinkageError::Net(format!(
                    "ack release order diverged: got pair {id}, expected {}",
                    commit.ordinal
                )));
            }
            append(
                self.writer,
                K_PARTY_PAIR,
                &encode_pair_frame(commit.ordinal, &commit.event, &commit.delta),
            )?;
            if let (Some(up), Some(incoming)) = (self.up.as_deref_mut(), &commit.incoming) {
                up.commit_ack(incoming);
            }
        }
        Ok(())
    }

    /// Bob's wait for Alice's message for pair `ordinal` (`None` on Alice,
    /// who has nothing to wait for).
    ///
    /// The wait runs in slices, probing the downstream leg between them.
    /// A quiet Alice can mean *our* downstream died: she halts at her own
    /// window cap until Bob's acks flow, and those acks wait on the
    /// querier's — so a dead querier connection must be retransmitted and
    /// reconnected here, below the window cap, or all three parties
    /// deadlock (the blocking pump only escalates once occupancy exceeds
    /// the cap, which a stalled Alice can never push it past). With
    /// nothing in flight the probe is a no-op and this is a plain
    /// blocking receive.
    fn recv_upstream(
        &mut self,
        ordinal: u64,
        deadline: Duration,
    ) -> Result<Option<IncomingData>, LinkageError> {
        let wait = Instant::now();
        let incoming = loop {
            let Some(up) = self.up.as_deref_mut() else {
                return Ok(None);
            };
            if let Some(incoming) = up.try_recv_data().map_err(net_err)? {
                break incoming;
            }
            self.down.probe_window().map_err(net_err)?;
            self.commit_acked()?;
            if wait.elapsed() >= deadline {
                return Err(net_err(NetError::PeerGone(format!(
                    "no data from alice within {deadline:?}"
                ))));
            }
        };
        if incoming.pair_id != ordinal {
            return Err(LinkageError::Net(format!(
                "Alice sent pair {} while Bob expected {ordinal}: \
                 the deterministic walks diverged",
                incoming.pair_id
            )));
        }
        Ok(Some(incoming))
    }
}

/// Takes the key broadcast off the wire: journal it (with the ack's
/// ledger delta), then release the querier's sender.
fn recv_key_broadcast(
    querier: &mut PeerChannel,
    ledger: &mut CostLedger,
    writer: &mut Option<JournalWriter>,
) -> Result<Vec<u8>, LinkageError> {
    let before = ledger.clone();
    let incoming = querier.recv_data().map_err(net_err)?;
    if incoming.pair_id != 0 {
        return Err(LinkageError::Net(format!(
            "expected the key broadcast, got pair {}",
            incoming.pair_id
        )));
    }
    ledger.record_message(ENVELOPE_OVERHEAD);
    let mut payload = delta_of(ledger, &before)?.encode().to_vec();
    payload.extend_from_slice(&incoming.payload);
    append(writer, K_PARTY_KEY, &payload)?;
    querier.commit_ack(&incoming);
    Ok(incoming.payload)
}

/// The data-holder loop, for either holder and any wire backend.
///
/// The holder replicates the deterministic walk; for each pair that
/// exchanges a message ([`HolderBackend::next`]) past its resume
/// watermark it takes Alice's message if it is Bob, builds its own
/// ([`HolderBackend::message`]) and submits it downstream, keeping up to
/// `window` pairs in flight. A pair is journaled only when its downstream
/// ack arrives, and only then is its upstream ack released. Acks release
/// oldest-first ([`PeerChannel::take_acked_prefix`]), so the journal is an
/// in-order contiguous prefix at any window; window 1 is the same loop
/// with nothing allowed to stay unacked — one pair per round trip.
///
/// Per-pair ledger deltas are computed at production time and journaled
/// at commit time; deltas merge commutatively, so the restored ledger is
/// the same bytes at every window. Ledger parity with the in-process
/// backends: Alice records her message, Bob his reply plus Alice's ack,
/// the querier Bob's ack.
fn run_holder(
    mut runner: SmcRunner<'_>,
    mode: SmcMode,
    session: &Session,
    opts: &PartyOptions,
    progress: PartyProgress,
    mut writer: Option<JournalWriter>,
) -> Result<(CostLedger, NetStats, u64, u64), LinkageError> {
    let role = opts.role;
    let side = match role {
        Role::Alice => HolderSide::Alice,
        Role::Bob => HolderSide::Bob,
        Role::Query => {
            return Err(LinkageError::Net(
                "the querying party does not run the data-holder loop".into(),
            ))
        }
    };
    let querier_addr = opts
        .querier_addr
        .ok_or_else(|| LinkageError::Net(format!("{role} needs the querier's address")))?;
    let hello = session.hello(role, &progress);
    let connect = |addr, peer| {
        PeerChannel::connect(addr, hello, peer, session.timeout, session.policy).map_err(net_err)
    };

    // Topology: the querier listens for both holders; Alice listens for
    // Bob, so the share messages never transit the querier.
    let (mut querier, mut peer, mux) = match side {
        HolderSide::Alice => {
            let listen = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
            let mux = Arc::new(SessionMux::bind(listen, session.timeout).map_err(net_err)?);
            mux.set_identity(role, session.wire);
            announce(&mux, role);
            let querier = connect(querier_addr, Role::Query)?;
            // Lazy: Bob only dials Alice after his own querier handshake
            // completes, and the (equally lazy) querier only claims Bob's
            // dial after Alice acked the key broadcast — so Alice must get
            // to that ack without blocking on Bob here. Her first pair
            // send claims Bob's connection when it arrives.
            let bob = PeerChannel::accept_lazy(
                Arc::clone(&mux),
                hello,
                Role::Bob,
                session.timeout,
                session.policy,
            );
            (querier, bob, Some(mux))
        }
        HolderSide::Bob => {
            let alice_addr = opts
                .alice_addr
                .ok_or_else(|| LinkageError::Net("Bob needs Alice's address".into()))?;
            let querier = connect(querier_addr, Role::Query)?;
            (querier, connect(alice_addr, Role::Alice)?, None)
        }
    };

    let mut ledger = progress.restored_ledger();
    let restored_watermark = progress.watermark();
    let replayed = progress.pairs.len() as u64;
    let mut backend = HolderBackend::open(mode, side, || {
        let key_message = match &progress.key {
            Some((_, bytes)) => bytes.clone(),
            None => recv_key_broadcast(&mut querier, &mut ledger, &mut writer)?,
        };
        pprl_smc::holder::key_from_message(&key_message).map_err(LinkageError::from)
    })?;

    let mut links = match side {
        HolderSide::Alice => HolderLinks {
            down: &mut peer,
            up: None,
            pending: VecDeque::new(),
            writer: &mut writer,
        },
        HolderSide::Bob => HolderLinks {
            down: &mut querier,
            up: Some(&mut peer),
            pending: VecDeque::new(),
            writer: &mut writer,
        },
    };
    let max_unacked = opts.window.max(1) - 1;
    let mut live = 0u64;
    let mut ordinal = 0u64;
    while let Some(pair) = backend.next(&mut runner)? {
        ordinal += 1;
        if ordinal <= restored_watermark {
            continue; // journaled before the crash; costs already restored
        }
        let before = ledger.clone();
        let incoming = links.recv_upstream(ordinal, session.policy.deadline)?;
        let alice_payload = incoming.as_ref().map(|i| i.payload.as_slice());
        let message = backend.message(&runner.compare_ctx(), &pair, alice_payload, &mut ledger)?;
        links.down.submit_data(ordinal, &message);
        if incoming.is_some() {
            // Alice's ack is metered in this pair's delta now; the wire
            // ack leaves at commit time, after the journal.
            ledger.record_message(ENVELOPE_OVERHEAD);
        }
        links.pending.push_back(PendingCommit {
            ordinal,
            event: PairEvent {
                ri: pair.ri,
                si: pair.si,
                decision: PairDecision::NonMatch, // placeholder: holders never learn
            },
            delta: delta_of(&ledger, &before)?,
            incoming,
        });
        // Admit the next pair once occupancy dips to the window; flushes
        // coalesce queued envelopes per frame.
        links.down.pump_window(max_unacked).map_err(net_err)?;
        links.commit_acked()?;
        live += 1;
    }
    links.down.flush_window().map_err(net_err)?;
    links.commit_acked()?;
    if !links.pending.is_empty() {
        return Err(LinkageError::Net(format!(
            "{} pairs left unacknowledged after the window flush",
            links.pending.len()
        )));
    }
    if let Some(w) = writer.as_mut() {
        w.sync()?;
    }

    // Bob dials Alice at startup and blocks on her hello reply, which her
    // first pair send produces. A schedule with no pair to exchange never
    // touches that link, so Alice claims his dial before she returns and
    // closes her listener; otherwise he redials a dead port until the
    // reconnect deadline and the querier waits as long for his ledger.
    if side == HolderSide::Alice && ordinal == 0 {
        peer.ensure_connected().map_err(net_err)?;
    }
    // Ship the ledger home so the querier's report reaches cost parity.
    querier.send_ledger(&ledger).map_err(net_err)?;
    if side == HolderSide::Bob {
        // Alice may be retransmitting pairs whose acks are still in
        // flight; outlive her instead of resetting the socket under them.
        peer.serve_until_closed();
    }

    let mut stats = querier.stats;
    stats.merge(&peer.stats);
    if let Some(mux) = &mux {
        stats.merge(&mux.stats());
    }
    Ok((ledger, stats, replayed, live))
}

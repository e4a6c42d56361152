//! One party's half of a reliable link to one peer: acknowledged,
//! deduplicated `Envelope` delivery over a socket, with
//! reconnect-with-resume.
//!
//! ## One sender, one reader, three mailboxes
//!
//! Everything a [`PeerChannel`] sends goes through one window
//! ([`submit_data`](PeerChannel::submit_data) queues, a *window pass*
//! transmits, retransmits and collects acks); window 1 is the smallest
//! window, not a second code path. Everything it reads comes off the
//! socket in one function, which sorts each frame into a mailbox:
//!
//! | arrives                | mailbox          | drained by                              |
//! |------------------------|------------------|-----------------------------------------|
//! | ack envelope           | `inflight`       | `take_acked_prefix` (oldest-first)      |
//! | data envelope          | `pending`        | `recv_data` while the session consumes, |
//! |                        |                  | the straggler answer once it stopped    |
//! | end-of-session summary | `pending_ledger` | `recv_ledger`                           |
//!
//! Whoever is waiting — for an ack, for data, for the summary — loops
//! "look in my mailbox, else read one frame", so a frame that arrives
//! during the wrong wait is never lost and never answered late.
//!
//! ## Reliability model
//!
//! The sender half retransmits an unacked envelope after a silent read
//! window or a reconnection; the receiver half deduplicates by data
//! `pair_id` (monotone per link, so it survives process restarts, unlike
//! per-connection `seq`) and re-acks duplicates without reprocessing.
//! Pair ids on one link are consecutive and are surfaced, committed and
//! released strictly in that order, so a receiver's whole resume state
//! is one watermark.
//!
//! ## Cost accounting
//!
//! The protocol [`CostLedger`] must stay byte-identical to the in-process
//! run, so the channel itself never touches it except through
//! [`ack_on_ledger`](PeerChannel::ack_on_ledger) — the receiver records
//! each *first* ack, exactly as the in-process link does. Retransmissions,
//! duplicate re-acks, and reconnects are deployment noise and live in
//! [`NetStats`] instead.
//!
//! ## Crash–resume
//!
//! Every connection (and reconnection) opens with a [`Hello`] carrying the
//! announcer's durable watermark. A sender whose peer reconnects with
//! `watermark >= pair_id` treats the in-flight pair as delivered (the ack
//! was lost, the hello substitutes); a receiver that restarts below the
//! sender's progress simply receives retransmissions of everything past
//! its own watermark. A peer that stays gone past the reconnect deadline
//! surfaces as [`NetError::PeerGone`], which the executor degrades like a
//! retry-exhausted pair — the run continues.
//!
//! [`CostLedger`]: pprl_crypto::CostLedger

use crate::batch::{decode_batch, encode_batch};
use crate::frame::{K_BUSY, K_DATA, K_DATA_BATCH, K_GOODBYE, K_HELLO, K_LEDGER};
use crate::hello::{Busy, Hello, Role};
use crate::mux::SessionMux;
use crate::state::ProtocolState;
use crate::trace::net_trace;
use crate::stream::FramedStream;
use crate::{NetError, NetStats};
use pprl_crypto::protocol::transport::{Envelope, FrameKind, ENVELOPE_OVERHEAD};
use pprl_crypto::protocol::RetryPolicy;
use pprl_crypto::CostLedger;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive silent read windows tolerated on one live connection, with
/// submissions unacknowledged, before the sender forces a reconnect. A
/// peer that is reachable but silent may be desynchronized on a frame it
/// can never complete (a corrupted length field eats every retransmission
/// as payload); only a fresh connection — which resets both decoders —
/// heals that, and the receiver alone cannot always tell.
const ACK_STALL_WINDOWS: u32 = 3;

/// Byte budget of envelope payload per coalesced flush frame: a burst
/// larger than this is split across several batch frames, keeping each
/// one far under [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN).
const FLUSH_BUDGET: usize = 1 << 20;

/// One submission: the envelope is encoded exactly once, so every
/// retransmission (and the ack match) reuses the same `seq` and bytes.
#[derive(Debug)]
struct Inflight {
    pair_id: u64,
    seq: u64,
    /// The encoded envelope (not the full wire frame).
    frame: Vec<u8>,
    /// Awaiting (re)transmission on the current connection.
    queued: bool,
    /// Transmitted at least once (so later flushes count as retransmits).
    sent_once: bool,
    /// The peer acknowledged it (directly or via a reconnect hello).
    acked: bool,
}

/// Reconnection behavior when a connection drops mid-session.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Backoff between dial attempts: the protocol layer's
    /// [`RetryPolicy`] exponential-with-jitter schedule (`max_retries` is
    /// ignored here — `deadline` bounds the loop instead). A `Busy`
    /// pushback overrides the schedule with the listener's own hint.
    pub retry: RetryPolicy,
    /// Total time one operation may spend waiting for the peer (including
    /// reconnects and retransmissions) before reporting `PeerGone`.
    pub deadline: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            retry: RetryPolicy::default(),
            deadline: Duration::from_secs(30),
        }
    }
}

/// A data envelope accepted from the peer, not yet acknowledged.
#[derive(Debug)]
pub struct IncomingData {
    /// The exchange this belongs to (`0` = the key broadcast).
    pub pair_id: u64,
    /// Connection-local sequence number (echoed in the ack).
    pub seq: u64,
    /// The protocol message.
    pub payload: Vec<u8>,
}

/// Which end establishes the TCP connection.
enum Endpoint {
    /// Re-dial this address on every (re)connect.
    Dial(SocketAddr),
    /// Pull (re)connections for our key from a shared listener.
    Accept(Arc<SessionMux>),
}

impl Endpoint {
    /// The frame-sequence validator of a connection not yet handshaken.
    fn fresh_state(&self) -> ProtocolState {
        match self {
            Endpoint::Dial(_) => ProtocolState::dialing(),
            Endpoint::Accept(_) => ProtocolState::accepting(),
        }
    }
}

/// One party's half of a reliable link to one peer.
pub struct PeerChannel {
    endpoint: Endpoint,
    /// Our announcement. `watermark` is this receiver's whole dedup state:
    /// every data pair up to it is committed (commits are consecutive, so
    /// there is nothing above it to remember); `have_key` is the same for
    /// the key broadcast.
    local: Hello,
    expect_role: Role,
    conn: Option<FramedStream>,
    /// A handshake has completed before, so the next one is a reconnect.
    handshaken: bool,
    next_seq: u64,
    /// Mailbox: data envelopes read off the wire and not yet consumed,
    /// oldest first (a coalesced batch delivers several at once).
    pending: VecDeque<Envelope>,
    /// Mailbox: the end-of-session summary, possibly received early.
    pending_ledger: Option<Vec<u8>>,
    /// Highest data pair this receiver has *surfaced* to its caller but
    /// not necessarily committed yet. A windowed peer retransmits pairs
    /// that are merely slow to commit; those must be dropped silently
    /// (no ack — the ack is the commit) instead of re-processed.
    received_high: u64,
    /// Mailbox: submissions not yet released to the caller, oldest first;
    /// acks land here.
    inflight: VecDeque<Inflight>,
    timeout: Option<Duration>,
    policy: ReconnectPolicy,
    /// Consecutive failed (re)connect attempts, for the backoff schedule;
    /// reset by every successful handshake.
    attempt: u32,
    /// Jitter state for the rand-free backoff (seeded per channel so
    /// parallel sessions don't thunder in phase).
    jitter: u64,
    /// Drain mode: this side stopped consuming data (deadline expiry) but
    /// keeps acking fresh envelopes off-ledger during the ledger wait, so
    /// the peer can finish its walk instead of stalling into `PeerGone`.
    drain: bool,
    /// Consecutive window passes that blocked a full read window for an
    /// ack and read nothing, on this connection. It lives on the channel,
    /// not in a call: probes are one pass each and interleave with waits
    /// on *other* channels, and must still add up to the escalation one
    /// blocking pump reaches. Any frame read, and any fresh connection,
    /// resets it.
    stalled_windows: u32,
    /// Frame-sequence validator for the current connection; reset by
    /// every successful (re-)handshake. A frame it rejects costs the
    /// connection (reconnect-with-resume recovers), never the session.
    state: ProtocolState,
    /// Wire accounting (see crate docs: never part of the cost ledger).
    pub stats: NetStats,
}

impl PeerChannel {
    fn new(
        endpoint: Endpoint,
        local: Hello,
        expect_role: Role,
        timeout: Option<Duration>,
        policy: ReconnectPolicy,
    ) -> Self {
        PeerChannel {
            state: endpoint.fresh_state(),
            endpoint,
            local,
            expect_role,
            conn: None,
            handshaken: false,
            next_seq: 0,
            pending: VecDeque::new(),
            pending_ledger: None,
            received_high: local.watermark,
            inflight: VecDeque::new(),
            timeout,
            policy,
            attempt: 0,
            jitter: local.fingerprint ^ ((local.role as u64) << 8) ^ expect_role as u64,
            drain: false,
            stalled_windows: 0,
            stats: NetStats::default(),
        }
    }

    /// Dials `addr`, sends our `Hello`, and awaits the peer's reply.
    pub fn connect(
        addr: SocketAddr,
        local: Hello,
        expect_role: Role,
        timeout: Option<Duration>,
        policy: ReconnectPolicy,
    ) -> Result<Self, NetError> {
        let mut channel = Self::new(Endpoint::Dial(addr), local, expect_role, timeout, policy);
        // The loop, not a single attempt: the listener may answer `Busy`
        // (admission cap) or not be up yet; both resolve under the policy
        // deadline.
        channel.ensure_connected()?;
        Ok(channel)
    }

    /// The accepting end: waits on the mux for the peer to dial us, then
    /// replies with our `Hello` — but only when the first operation needs
    /// the connection.
    ///
    /// A session that owns channels to several peers must not block on any
    /// one of them at setup: mid-run peers only re-dial when their own next
    /// operation touches this link, so an eager accept here can deadlock
    /// against a peer that is itself blocked on a third party (the resumed
    /// daemon querier waiting for Alice while Alice waits for Bob and Bob
    /// waits for the querier). Each operation already reconnects on demand
    /// under its own deadline, which claims the peer's dial whenever it
    /// arrives.
    pub fn accept_lazy(
        mux: Arc<SessionMux>,
        local: Hello,
        expect_role: Role,
        timeout: Option<Duration>,
        policy: ReconnectPolicy,
    ) -> Self {
        Self::new(Endpoint::Accept(mux), local, expect_role, timeout, policy)
    }

    /// Establishes (or claims) a connection now, blocking under the
    /// reconnect-policy deadline, without moving any data. The batched
    /// Paillier session completes the holders' startup dials as a side
    /// effect of the key broadcast; a backend with no setup message (the
    /// CLK exchange) calls this instead so eagerly-dialing peers get
    /// their hello reply at session open rather than at this channel's
    /// first data operation.
    pub fn ensure_connected(&mut self) -> Result<(), NetError> {
        self.connected(Instant::now())
    }

    /// The committed watermark: every data pair up to and including this
    /// one has been committed (and will be re-acked off-ledger if it
    /// arrives again). It is what a resume hello announces.
    pub fn watermark(&self) -> u64 {
        self.local.watermark
    }

    /// Establishes (or re-establishes) the connection and exchanges
    /// hellos. One attempt; callers loop under the policy deadline.
    fn establish(&mut self) -> Result<(), NetError> {
        let (stream, hello) = match &self.endpoint {
            Endpoint::Dial(addr) => {
                net_trace!("{} dial {} ({addr})", self.local.role, self.expect_role);
                let socket = TcpStream::connect_timeout(
                    addr,
                    self.timeout.unwrap_or(Duration::from_secs(10)),
                )?;
                let mut stream = FramedStream::new(socket, self.timeout)?;
                stream.send(K_HELLO, &self.local.encode(), &mut self.stats)?;
                let (kind, payload) = stream.recv(&mut self.stats)?;
                // The reply must be a handshake frame of its exact wire
                // width; anything else is a violation before we even look
                // at the kind.
                if let Err(e) = ProtocolState::dialing().admit(kind, payload.len()) {
                    self.stats.violations += 1;
                    return Err(e);
                }
                if kind == K_BUSY {
                    let busy = Busy::decode(&payload)?;
                    net_trace!("{} dial {}: busy {}ms", self.local.role, self.expect_role, busy.retry_after_ms);
                    return Err(NetError::Busy(busy.retry_after_ms));
                }
                if kind != K_HELLO {
                    return Err(NetError::Handshake(format!(
                        "expected hello reply, got frame kind {kind}"
                    )));
                }
                let hello = Hello::decode(&payload)?;
                hello.verify(self.expect_role, self.local.backend, self.local.fingerprint)?;
                (stream, hello)
            }
            Endpoint::Accept(mux) => {
                net_trace!("{} accept-wait {}", self.local.role, self.expect_role);
                let (mut stream, hello) = mux.wait_conn(
                    self.local.fingerprint,
                    self.expect_role,
                    self.policy.deadline,
                )?;
                hello.verify(self.expect_role, self.local.backend, self.local.fingerprint)?;
                stream.send(K_HELLO, &self.local.encode(), &mut self.stats)?;
                (stream, hello)
            }
        };
        net_trace!(
            "{} <-> {}: handshake done (peer wm={} key={})",
            self.local.role, self.expect_role, hello.watermark, hello.have_key
        );
        self.conn = Some(stream);
        if self.handshaken {
            self.stats.reconnects += 1;
        }
        self.handshaken = true;
        // Fresh connection, fresh state machine: the handshake is behind
        // us, and whether the key phase applies depends on what this side
        // has already committed.
        self.state = self.endpoint.fresh_state();
        self.state.complete_handshake(self.local.have_key);
        self.attempt = 0;
        self.stalled_windows = 0;
        // The fresh hello may prove some (or all) submissions delivered;
        // everything else goes back on the wire.
        self.absorb_peer_hello(hello);
        Ok(())
    }

    /// Runs one received frame header through the connection's state
    /// machine. `false` means the frame was rejected: the violation is
    /// counted and the connection dropped — the caller's reconnect loop
    /// takes it from there, the session never aborts.
    fn admit_frame(&mut self, kind: u8, payload_len: usize) -> bool {
        match self.state.admit(kind, payload_len) {
            Ok(()) => true,
            Err(e) => {
                net_trace!(
                    "{} <- {}: {e}; dropping the connection",
                    self.local.role, self.expect_role
                );
                self.stats.violations += 1;
                self.conn = None;
                false
            }
        }
    }

    /// Drops a dead connection and blocks until a new one is handshaken,
    /// bounded by the operation deadline that started at `start`. Failed
    /// attempts back off on the policy's exponential-with-jitter schedule;
    /// a `Busy` pushback sleeps the listener's own hint instead. Every
    /// pause is off-ledger deployment patience, metered in
    /// [`NetStats::backoff_ms`].
    fn regain(&mut self, start: Instant) -> Result<(), NetError> {
        self.conn = None;
        loop {
            if start.elapsed() >= self.policy.deadline {
                return Err(NetError::PeerGone(format!(
                    "no connection to {} within {:?}",
                    self.expect_role, self.policy.deadline
                )));
            }
            let pause_ms = match self.establish() {
                Ok(()) => return Ok(()),
                Err(NetError::PeerGone(why)) => return Err(NetError::PeerGone(why)),
                // A backend split is a configuration error on one side;
                // no amount of re-dialing fixes a launch flag. Fatal.
                Err(e @ NetError::BackendMismatch { .. }) => return Err(e),
                Err(NetError::Busy(retry_after_ms)) => {
                    self.stats.busy += 1;
                    retry_after_ms
                }
                Err(e) => {
                    net_trace!("{} regain {}: attempt failed: {e}", self.local.role, self.expect_role);
                    self.attempt = self.attempt.saturating_add(1);
                    self.policy.retry.backoff_ms_seeded(self.attempt, &mut self.jitter)
                }
            };
            let remaining = self.policy.deadline.saturating_sub(start.elapsed());
            let pause = Duration::from_millis(pause_ms).min(remaining);
            self.stats.backoff_ms += pause.as_millis() as u64;
            std::thread::sleep(pause);
        }
    }

    /// Makes sure a connection is up, reconnecting under the operation
    /// deadline that started at `start` if it is not.
    fn connected(&mut self, start: Instant) -> Result<(), NetError> {
        if self.conn.is_none() {
            self.regain(start)?;
        }
        Ok(())
    }

    /// Sends an ack envelope without touching any ledger (duplicates and
    /// loss-recovery acks are deployment noise).
    fn ack_off_ledger(&mut self, pair_id: u64, seq: u64) {
        let frame = Envelope::ack(pair_id, seq).encode();
        if let Some(stream) = self.conn.as_mut() {
            if stream.send(K_DATA, &frame, &mut self.stats).is_err() {
                self.conn = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // The sender: up to N submissions in flight, acks absorbed in any
    // order, release strictly oldest-first. A caller that allows nothing
    // to stay unacknowledged (`flush_window`) gets one pair per round
    // trip out of the same pass.
    // ------------------------------------------------------------------

    /// Registers one data envelope for delivery without blocking. The
    /// envelope is encoded (and its `seq` fixed) here, once; transmission
    /// happens on the next [`pump_window`](Self::pump_window). Does not
    /// touch the cost ledger: data messages are recorded by the protocol
    /// function that built them, acks by the receiver.
    pub fn submit_data(&mut self, pair_id: u64, payload: &[u8]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = Envelope::data(pair_id, seq, payload.to_vec()).encode();
        self.inflight.push_back(Inflight {
            pair_id,
            seq,
            frame,
            queued: true,
            sent_once: false,
            acked: false,
        });
    }

    /// Reliably delivers one data envelope and returns once the peer has
    /// acknowledged it (or its reconnect `Hello` shows it already
    /// committed): a submission the caller does not pipeline.
    pub fn send_data(&mut self, pair_id: u64, payload: &[u8]) -> Result<(), NetError> {
        self.submit_data(pair_id, payload);
        self.flush_window()?;
        self.take_acked_prefix();
        Ok(())
    }

    /// Submissions not yet acknowledged — the current window occupancy.
    fn unacked(&self) -> usize {
        self.inflight.iter().filter(|e| !e.acked).count()
    }

    /// Pops the longest *acknowledged prefix* of the in-flight queue and
    /// returns its pair ids, oldest first. This is the out-of-order
    /// journal-then-ack release point: a pair acked ahead of an older
    /// unacked one stays held until the older ack (or a reconnect hello
    /// proving it) arrives, so callers journal strictly oldest-first and
    /// the upstream commit contract holds for every interleaving.
    pub fn take_acked_prefix(&mut self) -> Vec<u64> {
        let mut released = Vec::new();
        while self.inflight.front().is_some_and(|e| e.acked) {
            if let Some(entry) = self.inflight.pop_front() {
                released.push(entry.pair_id);
            }
        }
        released
    }

    /// Runs window passes until at most `max_unacked` submissions remain
    /// unacknowledged and nothing is waiting to be (re)transmitted.
    /// Bounded by the policy deadline.
    pub fn pump_window(&mut self, max_unacked: usize) -> Result<(), NetError> {
        let start = Instant::now();
        while self.unacked() > max_unacked || self.inflight.iter().any(|e| e.queued) {
            if start.elapsed() >= self.policy.deadline {
                return Err(NetError::PeerGone(format!(
                    "{} pair(s) unacknowledged by {} after {:?}",
                    self.unacked(),
                    self.expect_role,
                    self.policy.deadline
                )));
            }
            self.window_pass(start, max_unacked)?;
        }
        Ok(())
    }

    /// Blocks until every submission is acknowledged.
    pub fn flush_window(&mut self) -> Result<(), NetError> {
        self.pump_window(0)
    }

    /// One bounded liveness pass, for a caller blocked on a *different*
    /// channel while this one still holds unacknowledged submissions.
    ///
    /// [`pump_window`](Self::pump_window) only blocks — and therefore only
    /// reaches the stall escalation — while occupancy exceeds the window
    /// cap. A pipelined chain can wedge *below* that cap: if the upstream
    /// peer's own window runs dry because our acks gate its progress, no
    /// new submission ever arrives to push occupancy over the cap, and a
    /// dead downstream connection is never probed (net_chaos's drop soak
    /// deadlocks all three parties exactly this way). A probe is the pass
    /// a pump would run with nothing allowed to stay unacknowledged, so
    /// the downstream leg heals while the caller keeps servicing its
    /// upstream wait.
    pub fn probe_window(&mut self) -> Result<(), NetError> {
        if self.unacked() == 0 {
            return Ok(());
        }
        self.window_pass(Instant::now(), 0)
    }

    /// The sender's one pass: (re)connect if needed — the fresh hello
    /// settles what it proves and requeues the rest — write everything
    /// queued, then, only while more than `max_unacked` submissions are
    /// unacknowledged, block one read window for a frame. Silence on a
    /// live connection requeues the whole window for retransmission, and
    /// [`ACK_STALL_WINDOWS`] silences in a row force a fresh connection.
    /// Whatever else is already readable is absorbed before returning, so
    /// ack bookkeeping stays fresh on passes that never block.
    fn window_pass(&mut self, start: Instant, max_unacked: usize) -> Result<(), NetError> {
        self.connected(start)?;
        self.flush_queued();
        if self.conn.is_none() {
            return Ok(()); // the write lost the connection; the next pass regains
        }
        self.stats.max_window = self.stats.max_window.max(self.unacked() as u64);
        if self.unacked() > max_unacked && !self.recv_frame() {
            if self.conn.is_some() {
                self.stalled_windows += 1;
                for entry in self.inflight.iter_mut().filter(|e| !e.acked) {
                    entry.queued = true;
                }
                if self.stalled_windows >= ACK_STALL_WINDOWS {
                    net_trace!(
                        "{} -> {}: {} silent windows, forcing a reconnect",
                        self.local.role, self.expect_role, self.stalled_windows
                    );
                    self.conn = None;
                }
            }
            return Ok(());
        }
        // No poll with nothing in flight: there is no ack to read.
        while self.unacked() > 0 {
            let ready = self.conn.as_mut().is_some_and(|s| s.ready().unwrap_or(false));
            if !ready || !self.recv_frame() {
                break;
            }
        }
        Ok(())
    }

    /// Folds a fresh hello into the in-flight queue: pairs the peer
    /// proves committed are acked (their acks died with the old
    /// connection), everything else is queued for retransmission.
    fn absorb_peer_hello(&mut self, hello: Hello) {
        for entry in self.inflight.iter_mut().filter(|e| !e.acked) {
            let proven = hello.covers(entry.pair_id);
            entry.acked = proven;
            entry.queued = !proven;
        }
    }

    /// Writes every queued envelope to the current connection: one rides a
    /// plain data frame, several coalesce into batch frames under the
    /// flush budget. A write failure drops the connection and leaves the
    /// unsent tail queued for the reconnect path.
    fn flush_queued(&mut self) {
        let Some(stream) = self.conn.as_mut() else {
            return;
        };
        // Group the burst into frames under the byte budget.
        let mut groups: Vec<Vec<&[u8]>> = Vec::new();
        let mut bytes = 0usize;
        for entry in self.inflight.iter().filter(|e| e.queued) {
            match groups.last_mut() {
                Some(group) if bytes + entry.frame.len() <= FLUSH_BUDGET => {
                    group.push(entry.frame.as_slice())
                }
                _ => {
                    groups.push(vec![entry.frame.as_slice()]);
                    bytes = 0;
                }
            }
            bytes += entry.frame.len();
        }
        let mut sent_entries = 0usize;
        let mut conn_ok = true;
        for group in &groups {
            let sent = match group.as_slice() {
                [single] => stream.send(K_DATA, single, &mut self.stats),
                many => stream
                    .send(K_DATA_BATCH, &encode_batch(many), &mut self.stats)
                    .map(|()| {
                        self.stats.batches_sent += 1;
                        self.stats.batched_envelopes += many.len() as u64;
                    }),
            };
            if sent.is_err() {
                conn_ok = false;
                break;
            }
            sent_entries += group.len();
        }
        if !conn_ok {
            net_trace!("{} -> {}: conn dropped on flush", self.local.role, self.expect_role);
            self.conn = None;
        }
        // Flushes go out in queue order: the first `sent_entries` queued
        // entries are the ones now on the wire.
        for entry in self.inflight.iter_mut().filter(|e| e.queued).take(sent_entries) {
            entry.queued = false;
            if entry.sent_once {
                self.stats.retransmits += 1;
            }
            entry.sent_once = true;
        }
    }

    // ------------------------------------------------------------------
    // The reader.
    // ------------------------------------------------------------------

    /// The one place a frame comes off a live connection: blocks at most
    /// one read window and sorts what arrives into the mailboxes — acks
    /// against `inflight`, data envelopes into `pending`, the summary
    /// into `pending_ledger`. Returns whether a frame was consumed; a
    /// timeout returns `false` with the connection intact, a dead,
    /// incoherent or out-of-phase connection returns `false` with it
    /// cleared (the caller's loop reconnects either way).
    fn recv_frame(&mut self) -> bool {
        let received = match self.conn.as_mut() {
            Some(stream) => stream.recv(&mut self.stats),
            None => Err(NetError::Disconnected),
        };
        let coherent = match received {
            Ok((kind, payload)) if !self.admit_frame(kind, payload.len()) => return false,
            Ok((K_DATA, payload)) => Envelope::decode(&payload)
                .map(|env| self.deliver(env))
                .is_ok(),
            Ok((K_DATA_BATCH, payload)) => decode_batch(&payload)
                .map(|envs| envs.into_iter().for_each(|env| self.deliver(env)))
                .is_ok(),
            Ok((K_LEDGER, payload)) => {
                self.pending_ledger = Some(payload);
                true
            }
            Ok((_, _)) => true, // goodbye: admitted, nothing to do
            Err(NetError::Timeout) => return false,
            Err(e) => {
                net_trace!("{} <- {}: conn died: {e}", self.local.role, self.expect_role);
                false
            }
        };
        // Envelope corruption inside a checksummed frame means the stream
        // is incoherent: like a dead socket, it costs the connection.
        if coherent {
            self.stalled_windows = 0;
        } else {
            self.conn = None;
        }
        coherent
    }

    /// Sorts one envelope into its mailbox. An ack marks the in-flight
    /// entry it matches; stale acks (from before a reconnect, or for
    /// already-released pairs) match nothing and are ignored.
    fn deliver(&mut self, env: Envelope) {
        if env.kind == FrameKind::Data {
            self.pending.push_back(env);
            return;
        }
        let entry = self
            .inflight
            .iter_mut()
            .find(|e| !e.acked && e.pair_id == env.pair_id && e.seq == env.seq);
        if let Some(entry) = entry {
            net_trace!("{} -> {}: pair {} acked", self.local.role, self.expect_role, entry.pair_id);
            entry.acked = true;
            entry.queued = false;
        }
    }

    // ------------------------------------------------------------------
    // The receiver: the two consumers of `pending`, and the summary.
    // ------------------------------------------------------------------

    /// Blocks until the next *fresh* data envelope (duplicates are re-acked
    /// off-ledger and skipped), bounded by the reconnect deadline.
    pub fn recv_data(&mut self) -> Result<IncomingData, NetError> {
        let start = Instant::now();
        loop {
            if let Some(incoming) = self.recv_data_step(start)? {
                return Ok(incoming);
            }
            if start.elapsed() >= self.policy.deadline {
                return Err(NetError::PeerGone(format!(
                    "no data from {} within {:?}",
                    self.expect_role, self.policy.deadline
                )));
            }
        }
    }

    /// One bounded slice of [`recv_data`](Self::recv_data): screens the
    /// mailbox, waiting at most one read window on the wire if it is
    /// empty. `Ok(None)` means nothing fresh surfaced yet — the caller
    /// owns the overall deadline, so it can interleave slices with work
    /// on other channels (windowed Bob probes his querier leg between
    /// slices; see [`probe_window`](Self::probe_window)).
    pub fn try_recv_data(&mut self) -> Result<Option<IncomingData>, NetError> {
        self.recv_data_step(Instant::now())
    }

    /// The shared slice: `start` bounds a reconnect claimed inside it.
    fn recv_data_step(&mut self, start: Instant) -> Result<Option<IncomingData>, NetError> {
        if self.pending.is_empty() {
            self.connected(start)?;
            self.recv_frame();
        }
        while let Some(env) = self.pending.pop_front() {
            if let Some(incoming) = self.screen(env) {
                return Ok(Some(incoming));
            }
        }
        Ok(None)
    }

    /// Dedup screen: fresh envelopes pass through, committed ones are
    /// re-acked off-ledger and counted as duplicates. A pair that was
    /// already *surfaced* but not yet committed — a windowed sender
    /// retransmitting into a slow commit chain — is dropped silently:
    /// no re-ack (the ack is the commit) and no second processing.
    fn screen(&mut self, env: Envelope) -> Option<IncomingData> {
        if self.local.covers(env.pair_id) {
            net_trace!(
                "{} <- {}: pair {} duplicate, re-acked",
                self.local.role, self.expect_role, env.pair_id
            );
            self.stats.duplicates += 1;
            self.ack_off_ledger(env.pair_id, env.seq);
            return None;
        }
        if env.pair_id != 0 && env.pair_id <= self.received_high {
            net_trace!(
                "{} <- {}: pair {} already surfaced (high {}), dropped",
                self.local.role, self.expect_role, env.pair_id, self.received_high
            );
            self.stats.duplicates += 1;
            return None;
        }
        // Pair ids on one link are consecutive. An id past the next one
        // means whole frames vanished below it with the framing intact (a
        // lossy path can eat exactly a frame); surfacing it would hand the
        // caller a pair out of walk order. Dropped unacked, it comes back
        // in order when the sender's silent window retransmits.
        if env.pair_id > self.received_high + 1 {
            net_trace!(
                "{} <- {}: pair {} ahead of a gap (high {}), dropped",
                self.local.role, self.expect_role, env.pair_id, self.received_high
            );
            return None;
        }
        if env.pair_id != 0 {
            self.received_high = env.pair_id;
        }
        net_trace!("{} recv pair {} from {}", self.local.role, env.pair_id, self.expect_role);
        Some(IncomingData {
            pair_id: env.pair_id,
            seq: env.seq,
            payload: env.payload,
        })
    }

    /// Acknowledges an accepted envelope *on the ledger* — the one ack per
    /// data message the in-process link also records — and commits the
    /// receiver's dedup state. Callers journal their durable state
    /// *before* calling this: ack loss is recovered by the sender
    /// retransmitting into the dedup screen.
    pub fn ack_on_ledger(&mut self, incoming: &IncomingData, ledger: &mut CostLedger) {
        ledger.record_message(ENVELOPE_OVERHEAD);
        self.commit_ack(incoming);
    }

    /// Commits the dedup state for an accepted envelope and sends its ack,
    /// with the ack's ledger cost already recorded by the caller. This is
    /// the two-phase variant of [`ack_on_ledger`](Self::ack_on_ledger): a
    /// party that must journal *between* recording the cost and releasing
    /// the sender (so a crash on either side of the journal write reconciles
    /// to exactly one recorded ack) records first, journals, then commits.
    ///
    /// Commits are consecutive: the screen surfaces ids in order and every
    /// caller releases oldest-first. Anything else is a caller bug; it is
    /// counted in [`NetStats::violations`] and neither committed nor acked,
    /// so the watermark can never claim a pair it skipped.
    pub fn commit_ack(&mut self, incoming: &IncomingData) {
        if incoming.pair_id == 0 {
            self.local.have_key = true;
            self.state.note_key();
        } else if incoming.pair_id == self.local.watermark + 1 {
            self.local.watermark = incoming.pair_id;
        } else {
            self.stats.violations += 1;
            return;
        }
        self.ack_off_ledger(incoming.pair_id, incoming.seq);
    }

    /// Switches this receiver into drain mode: it no longer consumes data
    /// envelopes (the session's deadline expired and remaining pairs were
    /// abandoned locally), but during [`recv_ledger`](Self::recv_ledger)
    /// it still acks fresh envelopes off-ledger so the oblivious peer can
    /// complete its deterministic walk and ship its cost summary instead
    /// of stalling into `PeerGone`. Drained pairs are never committed to
    /// the dedup watermark — they were abandoned, not processed.
    pub fn drain_stragglers(&mut self) {
        self.drain = true;
    }

    /// Sends the end-of-session cost summary followed by a goodbye.
    pub fn send_ledger(&mut self, ledger: &CostLedger) -> Result<(), NetError> {
        let start = Instant::now();
        let payload = ledger.encode();
        loop {
            if start.elapsed() >= self.policy.deadline {
                return Err(NetError::PeerGone(format!(
                    "could not deliver the cost summary to {}",
                    self.expect_role
                )));
            }
            self.connected(start)?;
            if let Some(stream) = self.conn.as_mut() {
                let sent = stream
                    .send(K_LEDGER, &payload, &mut self.stats)
                    .and_then(|()| stream.send(K_GOODBYE, &[], &mut self.stats));
                if sent.is_ok() {
                    return Ok(());
                }
            }
            self.conn = None;
        }
    }

    /// Answers every buffered data envelope once this side has stopped
    /// consuming data: late retransmissions are re-acked to keep the dedup
    /// contract alive, and in drain mode fresh envelopes are
    /// acked-and-discarded (off-ledger, uncommitted — the pair was
    /// abandoned) so the oblivious sender can finish its walk.
    fn answer_stragglers(&mut self) {
        while let Some(env) = self.pending.pop_front() {
            if self.local.covers(env.pair_id) {
                self.stats.duplicates += 1;
            } else if self.drain {
                self.stats.drained += 1;
            } else {
                continue;
            }
            self.ack_off_ledger(env.pair_id, env.seq);
        }
    }

    /// Keeps answering the peer on the current connection until it hangs
    /// up: a receiver that has committed everything calls this before it
    /// exits. The sender may still be retransmitting pairs whose acks are
    /// in flight (its silent window can expire just as they are written);
    /// closing a socket with those retransmissions unread resets it and
    /// can discard the acks on their way, stranding the sender with
    /// nobody left to redial. Retransmissions are re-acked off-ledger as
    /// in [`recv_ledger`](Self::recv_ledger). Returns when the peer closes,
    /// the connection fails, or the policy deadline passes in silence; a
    /// channel with no live connection returns at once.
    pub fn serve_until_closed(&mut self) {
        let mut start = Instant::now();
        while self.conn.is_some() && start.elapsed() < self.policy.deadline {
            self.answer_stragglers();
            if self.recv_frame() {
                start = Instant::now();
            }
        }
    }

    /// Blocks for the peer's end-of-session cost summary, answering
    /// stragglers — those already buffered when the wait begins as much as
    /// those that arrive during it.
    ///
    /// The deadline here is a *liveness* bound — it restarts whenever a
    /// frame arrives — because a draining peer may legitimately stream a
    /// long tail of pairs (see [`drain_stragglers`](Self::drain_stragglers))
    /// before its summary; only silence counts against it.
    pub fn recv_ledger(&mut self) -> Result<CostLedger, NetError> {
        let mut start = Instant::now();
        loop {
            self.answer_stragglers();
            if let Some(payload) = self.pending_ledger.take() {
                return CostLedger::decode(&payload).ok_or_else(|| {
                    NetError::Protocol(format!(
                        "cost summary has {} bytes, expected {}",
                        payload.len(),
                        CostLedger::WIRE_LEN
                    ))
                });
            }
            if start.elapsed() >= self.policy.deadline {
                return Err(NetError::PeerGone(format!(
                    "no cost summary from {} within {:?}",
                    self.expect_role, self.policy.deadline
                )));
            }
            self.connected(start)?;
            if self.recv_frame() {
                start = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hello::Backend;

    fn policy(deadline_ms: u64) -> ReconnectPolicy {
        ReconnectPolicy {
            retry: RetryPolicy {
                base_delay_ms: 5,
                max_delay_ms: 50,
                ..RetryPolicy::default()
            },
            deadline: Duration::from_millis(deadline_ms),
        }
    }

    /// Bob's end, claimed now: the lazy accept plus the first connection.
    fn accept(
        mux: &Arc<SessionMux>,
        local: Hello,
        timeout: Option<Duration>,
        policy: ReconnectPolicy,
    ) -> PeerChannel {
        let mut bob = PeerChannel::accept_lazy(Arc::clone(mux), local, Role::Alice, timeout, policy);
        bob.ensure_connected().unwrap();
        bob
    }

    fn link(
        timeout_ms: u64,
        deadline_ms: u64,
    ) -> (PeerChannel, PeerChannel, Arc<SessionMux>) {
        let timeout = Some(Duration::from_millis(timeout_ms));
        let policy = policy(deadline_ms);
        let mux = Arc::new(SessionMux::bind("127.0.0.1:0", timeout).unwrap());
        let addr = mux.local_addr();
        let mux2 = Arc::clone(&mux);
        let acceptor = std::thread::spawn(move || {
            accept(&mux2, Hello::new(Role::Bob, Backend::Paillier, 77), timeout, policy)
        });
        let dialer = PeerChannel::connect(
            addr,
            Hello::new(Role::Alice, Backend::Paillier, 77),
            Role::Bob,
            timeout,
            policy,
        )
        .unwrap();
        let accepted = acceptor.join().unwrap();
        (dialer, accepted, mux)
    }

    #[test]
    fn data_is_delivered_and_acked_exactly_once_on_the_ledger() {
        let (mut alice, mut bob, _mux) = link(2_000, 5_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            assert_eq!(incoming.pair_id, 1);
            assert_eq!(incoming.payload, vec![5; 64]);
            bob.ack_on_ledger(&incoming, &mut ledger);
            assert_eq!(ledger.messages, 1);
            assert_eq!(ledger.bytes, ENVELOPE_OVERHEAD as u64);
            (bob, ledger)
        });
        alice.send_data(1, &[5; 64]).unwrap();
        let (bob, _) = receiver.join().unwrap();
        assert_eq!(bob.watermark(), 1);
        assert_eq!(alice.stats.retransmits, 0);
    }

    #[test]
    fn duplicate_delivery_is_reacked_off_ledger() {
        let (mut alice, mut bob, _mux) = link(200, 3_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            bob.ack_on_ledger(&incoming, &mut ledger);
            // Second, duplicate transmission of pair 1 plus a fresh pair 2:
            // only pair 2 surfaces, the dup is re-acked silently.
            let second = bob.recv_data().unwrap();
            assert_eq!(second.pair_id, 2);
            bob.ack_on_ledger(&second, &mut ledger);
            (bob, ledger)
        });
        alice.send_data(1, &[1]).unwrap();
        // Force a duplicate of pair 1 on the wire by replaying the envelope.
        let dup = Envelope::data(1, 99, vec![1]).encode();
        let mut stats = NetStats::default();
        alice.conn.as_mut().unwrap().send(K_DATA, &dup, &mut stats).unwrap();
        alice.send_data(2, &[2]).unwrap();
        let (bob, ledger) = receiver.join().unwrap();
        assert_eq!(bob.stats.duplicates, 1);
        assert_eq!(ledger.messages, 2, "dup ack never hit the ledger");
    }

    #[test]
    fn out_of_phase_frames_cost_the_connection_not_the_session() {
        let (mut alice, mut bob, _mux) = link(200, 8_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            assert_eq!(incoming.pair_id, 1);
            bob.ack_on_ledger(&incoming, &mut ledger);
            bob
        });
        // Splice a handshake frame into the established stream: the
        // receiver must treat it as a protocol violation, drop only this
        // connection, and pick the pair up over the reconnect.
        let mut stats = NetStats::default();
        let rogue = Hello::new(Role::Alice, Backend::Paillier, 77).encode();
        alice
            .conn
            .as_mut()
            .unwrap()
            .send(K_HELLO, &rogue, &mut stats)
            .unwrap();
        alice.send_data(1, &[9; 16]).unwrap();
        let bob = receiver.join().unwrap();
        assert!(bob.stats.violations >= 1, "the rogue hello was counted");
        assert_eq!(bob.watermark(), 1, "the pair still committed");
        assert!(
            alice.stats.reconnects >= 1,
            "delivery finished over a fresh connection"
        );
    }

    #[test]
    fn a_corrupted_length_field_cannot_stall_the_session() {
        let (mut alice, mut bob, _mux) = link(150, 10_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            assert_eq!(incoming.pair_id, 1);
            bob.ack_on_ledger(&incoming, &mut ledger);
            bob
        });
        // Write a raw header claiming a huge payload, as a bit flip inside
        // a length field would: Bob's decoder waits for bytes that never
        // amount to a frame, eating every retransmission as "payload". The
        // sender's stall escalation must force a fresh connection and
        // deliver the pair there.
        {
            use std::io::Write;
            let mut header = vec![K_DATA];
            header.extend_from_slice(&(8u32 << 20).to_le_bytes());
            alice
                .conn
                .as_mut()
                .unwrap()
                .stream_mut()
                .write_all(&header)
                .unwrap();
        }
        alice.send_data(1, &[3; 24]).unwrap();
        let bob = receiver.join().unwrap();
        assert_eq!(bob.watermark(), 1, "the pair still committed");
        assert!(
            alice.stats.reconnects >= 1,
            "delivery finished over a fresh connection (stats: {})",
            alice.stats
        );
    }

    #[test]
    fn a_peer_that_stays_gone_surfaces_as_peer_gone() {
        let (mut alice, bob, _mux) = link(50, 300);
        drop(bob);
        let err = alice.send_data(1, &[1]).unwrap_err();
        assert!(matches!(err, NetError::PeerGone(_)));
    }

    #[test]
    fn windowed_pairs_deliver_and_release_oldest_first() {
        let (mut alice, mut bob, _mux) = link(2_000, 10_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            for expect in 1..=10u64 {
                let incoming = bob.recv_data().unwrap();
                assert_eq!(incoming.pair_id, expect, "pairs surface in send order");
                bob.ack_on_ledger(&incoming, &mut ledger);
            }
            (bob, ledger)
        });
        let mut released = Vec::new();
        for pair in 1..=10u64 {
            alice.submit_data(pair, &[pair as u8; 48]);
            alice.pump_window(3).unwrap();
            released.extend(alice.take_acked_prefix());
        }
        alice.flush_window().unwrap();
        released.extend(alice.take_acked_prefix());
        assert_eq!(released, (1..=10).collect::<Vec<u64>>());
        assert_eq!(alice.unacked(), 0);
        let (bob, ledger) = receiver.join().unwrap();
        assert_eq!(ledger.messages, 10, "each pair acked exactly once on-ledger");
        assert_eq!(bob.watermark(), 10);
    }

    #[test]
    fn a_full_window_submitted_up_front_coalesces_into_batch_frames() {
        let (mut alice, mut bob, _mux) = link(2_000, 10_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            for expect in 1..=6u64 {
                let incoming = bob.recv_data().unwrap();
                assert_eq!(incoming.pair_id, expect);
                bob.ack_on_ledger(&incoming, &mut ledger);
            }
            ledger
        });
        for pair in 1..=6u64 {
            alice.submit_data(pair, &[0xA5; 32]);
        }
        alice.flush_window().unwrap();
        let ledger = receiver.join().unwrap();
        assert_eq!(ledger.messages, 6);
        assert!(
            alice.stats.batches_sent >= 1,
            "a six-envelope burst must coalesce (stats: {})",
            alice.stats
        );
        assert!(alice.stats.batched_envelopes >= 6);
        assert!(alice.stats.max_window >= 6, "occupancy peak recorded");
    }

    /// One sender at every window: the same key frame plus three pairs,
    /// through a receiver that commits the key and pair 1, loses both acks
    /// and restarts. Its fresh hello proves those two; only pairs 2 and 3
    /// go back on the wire, and release stays oldest-first — whether the
    /// caller lets nothing stay unacknowledged or two pairs.
    #[test]
    fn the_sender_survives_a_receiver_restart_at_every_window() {
        for max_unacked in [0usize, 2] {
            let timeout = Some(Duration::from_millis(2_000));
            let policy = policy(10_000);
            let fingerprint = 31 + max_unacked as u64;
            let mux = Arc::new(SessionMux::bind("127.0.0.1:0", timeout).unwrap());
            let addr = mux.local_addr();
            let mux2 = Arc::clone(&mux);
            let acceptor = std::thread::spawn(move || {
                let hello = Hello::new(Role::Bob, Backend::Paillier, fingerprint);
                let mut bob = accept(&mux2, hello, timeout, policy);
                let mut ledger = CostLedger::new();
                let key = bob.recv_data().unwrap();
                let first = bob.recv_data().unwrap();
                assert_eq!((key.pair_id, first.pair_id), (0, 1));
                // Commit both with the ack path unplugged, then crash:
                // pairs 2 and 3 die unread with the connection.
                drop(bob.conn.take());
                bob.ack_on_ledger(&key, &mut ledger);
                bob.ack_on_ledger(&first, &mut ledger);
                let mut resumed = hello;
                resumed.watermark = bob.watermark();
                resumed.have_key = true;
                assert_eq!(resumed.watermark, 1);
                drop(bob);
                let mut bob = accept(&mux2, resumed, timeout, policy);
                for expect in 2..=3u64 {
                    let incoming = bob.recv_data().unwrap();
                    assert_eq!(incoming.pair_id, expect, "only the unproven pairs come back");
                    bob.ack_on_ledger(&incoming, &mut ledger);
                }
                (bob, ledger)
            });
            let mut alice = PeerChannel::connect(
                addr,
                Hello::new(Role::Alice, Backend::Paillier, fingerprint),
                Role::Bob,
                timeout,
                policy,
            )
            .unwrap();
            for pair in 0..=3u64 {
                alice.submit_data(pair, &[pair as u8; 16]);
            }
            alice.pump_window(max_unacked).unwrap();
            assert!(alice.unacked() <= max_unacked);
            let mut released = alice.take_acked_prefix();
            alice.flush_window().unwrap();
            released.extend(alice.take_acked_prefix());
            let (bob, ledger) = acceptor.join().unwrap();
            let row = format!("max_unacked {max_unacked} (stats: {})", alice.stats);
            assert_eq!(released, vec![0, 1, 2, 3], "oldest-first across the restart, {row}");
            assert_eq!(alice.stats.retransmits, 2, "proven envelopes skipped the wire, {row}");
            assert!(alice.stats.reconnects >= 1, "{row}");
            assert_eq!(bob.stats.duplicates, 0, "nothing proven was sent again, {row}");
            assert_eq!(ledger.messages, 4, "each envelope acked once on the ledger, {row}");
        }
    }

    /// The net_chaos drop-soak deadlock: an ack frame lost on a live
    /// connection while occupancy sits at (not above) the window cap. The
    /// blocking pump returns instantly below the cap, so only
    /// [`PeerChannel::probe_window`] — the pass a caller interleaves with
    /// waits on *other* channels — can rediscover the pair, retransmit it,
    /// and collect the receiver's off-ledger duplicate re-ack.
    #[test]
    fn a_lost_ack_below_the_window_cap_is_probed_back_to_life() {
        let (mut alice, mut bob, _mux) = link(150, 8_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            assert_eq!(incoming.pair_id, 1);
            // Commit with the ack path unplugged: the dedup state and the
            // ledger advance, but the ack never reaches the wire.
            let live = bob.conn.take();
            bob.ack_on_ledger(&incoming, &mut ledger);
            bob.conn = live;
            // Service the sender's probe retransmission: the committed
            // duplicate is re-acked off-ledger, nothing fresh surfaces.
            for _ in 0..100 {
                if bob.stats.duplicates > 0 {
                    break;
                }
                let _ = bob.try_recv_data();
            }
            (bob, ledger)
        });
        alice.submit_data(1, &[3; 48]);
        alice.pump_window(1).unwrap();
        assert!(
            alice.take_acked_prefix().is_empty(),
            "the ack was swallowed before the wire"
        );
        // Only probes from here on — exactly what windowed Bob can do
        // while blocked waiting on Alice.
        for _ in 0..200 {
            alice.probe_window().unwrap();
            if alice.unacked() == 0 {
                break;
            }
        }
        assert_eq!(alice.take_acked_prefix(), vec![1]);
        let (bob, ledger) = receiver.join().unwrap();
        assert_eq!(ledger.messages, 1, "the re-ack stayed off the ledger");
        assert!(bob.stats.duplicates >= 1, "heal came via retransmission");
        assert!(alice.stats.retransmits >= 1);
    }

    #[test]
    fn a_retransmission_of_an_uncommitted_pair_is_dropped_silently() {
        let (mut alice, mut bob, _mux) = link(100, 600);
        let receiver = std::thread::spawn(move || {
            // Surface pair 1 but do NOT commit it (the windowed sender's
            // retransmit lands while the commit chain is still running).
            let first = bob.recv_data().unwrap();
            assert_eq!(first.pair_id, 1);
            // The duplicate must neither surface again nor be acked: the
            // next recv sees nothing fresh and times out into PeerGone.
            let err = bob.recv_data().unwrap_err();
            assert!(matches!(err, NetError::PeerGone(_)));
            assert_eq!(bob.stats.duplicates, 1, "the copy was counted and dropped");
            bob
        });
        // First (windowed) transmission, then a verbatim retransmission.
        alice.submit_data(1, &[7; 8]);
        alice.pump_window(1).unwrap();
        let copy = alice.inflight.front().unwrap().frame.clone();
        let mut stats = NetStats::default();
        alice.conn.as_mut().unwrap().send(K_DATA, &copy, &mut stats).unwrap();
        let bob = receiver.join().unwrap();
        assert_eq!(bob.watermark(), 0, "nothing committed");
    }

    /// A lossy path can eat exactly one frame and leave the framing
    /// intact: the receiver must not surface the pair behind the hole.
    #[test]
    fn a_pair_past_a_gap_waits_for_the_retransmission_that_fills_it() {
        let (mut alice, mut bob, _mux) = link(100, 5_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            for expect in 1..=2u64 {
                let incoming = bob.recv_data().unwrap();
                assert_eq!(incoming.pair_id, expect, "pairs surface in walk order");
                bob.ack_on_ledger(&incoming, &mut ledger);
            }
            bob
        });
        alice.submit_data(1, &[1; 8]);
        alice.submit_data(2, &[2; 8]);
        // Pair 1 counts as sent but never reaches the wire.
        let lost = alice.inflight.front_mut().unwrap();
        lost.queued = false;
        lost.sent_once = true;
        alice.flush_window().unwrap();
        assert_eq!(alice.take_acked_prefix(), vec![1, 2]);
        assert!(alice.stats.retransmits >= 1, "the silent window resent pair 1");
        assert_eq!(receiver.join().unwrap().watermark(), 2);
    }

    #[test]
    fn a_finished_receiver_keeps_reacking_until_the_sender_hangs_up() {
        let (mut alice, mut bob, _mux) = link(200, 5_000);
        let receiver = std::thread::spawn(move || {
            let mut ledger = CostLedger::new();
            let incoming = bob.recv_data().unwrap();
            bob.ack_on_ledger(&incoming, &mut ledger);
            bob.serve_until_closed();
            (bob, ledger)
        });
        alice.send_data(1, &[4; 16]).unwrap();
        // A late retransmission of the committed pair is answered, not
        // left unread for the close to trip over.
        let copy = Envelope::data(1, 7, vec![4; 16]).encode();
        let mut stats = NetStats::default();
        let conn = alice.conn.as_mut().unwrap();
        conn.send(K_DATA, &copy, &mut stats).unwrap();
        let (kind, payload) = conn.recv(&mut stats).unwrap();
        let ack = Envelope::decode(&payload).unwrap();
        assert_eq!(kind, K_DATA);
        assert!(ack.kind == FrameKind::Ack && ack.pair_id == 1 && ack.seq == 7);
        drop(alice);
        let (bob, ledger) = receiver.join().unwrap();
        assert_eq!(bob.stats.duplicates, 1);
        assert_eq!(ledger.messages, 1, "the re-ack stayed off the ledger");
    }

    #[test]
    fn cost_summaries_cross_the_link() {
        let (mut alice, mut bob, _mux) = link(2_000, 5_000);
        let mut ledger = CostLedger::new();
        ledger.encryptions = 42;
        ledger.record_message(1000);
        let expected = ledger.clone();
        let receiver = std::thread::spawn(move || bob.recv_ledger().unwrap());
        alice.send_ledger(&ledger).unwrap();
        assert_eq!(receiver.join().unwrap(), expected);
    }

    /// The tail of a decoded batch sits in `pending` when the session
    /// stops consuming: the ledger wait must answer it from the mailbox
    /// instead of waiting for the sender's silent window to resend it.
    #[test]
    fn envelopes_buffered_before_the_ledger_wait_are_acked_without_a_retransmission() {
        let (mut alice, mut bob, _mux) = link(1_000, 10_000);
        let receiver = std::thread::spawn(move || {
            let first = bob.recv_data().unwrap();
            assert_eq!(first.pair_id, 1);
            bob.commit_ack(&first);
            bob.drain_stragglers();
            bob.recv_ledger().unwrap();
            bob
        });
        for pair in 1..=3u64 {
            alice.submit_data(pair, &[pair as u8; 16]);
        }
        alice.flush_window().unwrap();
        alice.send_ledger(&CostLedger::new()).unwrap();
        let bob = receiver.join().unwrap();
        assert_eq!(alice.stats.retransmits, 0, "nothing waited out a silent window");
        assert_eq!(bob.stats.drained, 2, "both buffered pairs were acked and discarded");
    }

    #[test]
    fn a_non_consecutive_commit_is_counted_and_never_advances_the_watermark() {
        let mux = Arc::new(SessionMux::bind("127.0.0.1:0", None).unwrap());
        let hello = Hello::new(Role::Bob, Backend::Paillier, 3);
        let mut bob = PeerChannel::accept_lazy(mux, hello, Role::Alice, None, policy(100));
        let commit = |bob: &mut PeerChannel, pair_id| {
            bob.commit_ack(&IncomingData { pair_id, seq: 0, payload: Vec::new() });
            (bob.watermark(), bob.stats.violations)
        };
        assert_eq!(commit(&mut bob, 2), (0, 1), "a commit past a hole is refused");
        assert_eq!(commit(&mut bob, 1), (1, 1));
        assert_eq!(commit(&mut bob, 1), (1, 2), "a second commit of one pair is refused");
        assert_eq!(commit(&mut bob, 3), (1, 3));
        assert_eq!(commit(&mut bob, 2), (2, 3));
    }
}

//! # pprl-net — real TCP networking for the three-party SMC protocol
//!
//! The paper's SMC step (§V-A) is a distributed protocol: Alice, Bob, and
//! the querying party exchange Paillier ciphertexts (or CLKs) over a
//! network. This crate carries the protocol's `Envelope` wire format — the
//! same one the in-process [`Transport`] moves — over
//! `std::net::TcpStream`, bottom up:
//!
//! - [`frame`] — length-prefixed, checksummed frame codec (torn frames,
//!   bit-flips, and hostile length fields rejected before parsing), and
//!   [`batch`], several envelopes coalesced into one frame;
//! - [`hello`] — connect/accept handshake: protocol version, party role,
//!   and job-fingerprint exchange, plus resume watermarks so reconnection
//!   is idempotent;
//! - [`stream`] — one framed socket with read/write timeouts;
//! - [`state`] — which frame kinds a connection admits in which phase;
//! - [`peer`] — [`PeerChannel`]: acknowledged, deduplicated delivery to one
//!   peer with reconnect-with-resume — one windowed sender, one reader
//!   sorting frames into three mailboxes (a dead peer degrades exactly
//!   like a retry-exhausted pair, it never aborts the run);
//! - [`mux`] — [`SessionMux`]: one listener serving concurrent sessions,
//!   routing handshaken connections by job fingerprint;
//! - [`chaos`] — [`ChaosProxy`]: a fault-injecting TCP relay (the chaos
//!   suites and the `chaosproxy` subcommand).
//!
//! Everything here is stdlib-only (enforced by the D001 dependency policy);
//! the only non-std dependencies are workspace crates.
//!
//! [`Transport`]: pprl_crypto::protocol::Transport

pub mod batch;
pub mod chaos;
pub mod frame;
pub mod hello;
pub mod mux;
pub mod peer;
pub mod state;
pub mod stream;
pub(crate) mod trace;

pub use batch::{decode_batch, encode_batch, BATCH_MIN_LEN};
pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use frame::{encode_frame, FrameDecoder, FRAME_OVERHEAD, MAX_FRAME_LEN};
pub use hello::{Backend, Busy, Hello, Role, NET_VERSION};
pub use mux::{Admission, AdmissionGate, MuxLimits, SessionMux};
pub use peer::{IncomingData, PeerChannel, ReconnectPolicy};
pub use state::{Phase, ProtocolState};
pub use stream::FramedStream;

/// Errors from the socket layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error; the connection is unusable.
    Io(std::io::Error),
    /// The peer closed the connection (EOF).
    Disconnected,
    /// Nothing arrived within the read timeout; the connection survives.
    Timeout,
    /// Frame-codec violation (bad checksum, oversized length): the byte
    /// stream lost its framing, so the connection must be re-established.
    Frame(String),
    /// Handshake refused (version/role/fingerprint mismatch).
    Handshake(String),
    /// Handshake refused because the parties are configured for
    /// different comparator backends — a typed variant (rather than a
    /// `Handshake` string) so operators and tests can distinguish "you
    /// launched `--backend bloom` against a paillier party" from generic
    /// config drift. Fatal: reconnecting cannot fix a configuration.
    BackendMismatch {
        /// The backend this side runs.
        ours: hello::Backend,
        /// The backend the peer announced.
        peer: hello::Backend,
    },
    /// The peer stayed unreachable past the reconnect policy's deadline.
    PeerGone(String),
    /// The listener knows the job but cannot admit it yet (concurrency
    /// cap or drain); the payload is the suggested retry pause in ms.
    /// Transient: the dialer's reconnect loop absorbs it.
    Busy(u64),
    /// The peer sent something protocol-incoherent (wrong frame kind,
    /// wrong pair id) that dedup/reconnect cannot explain.
    Protocol(String),
    /// A frame arrived out of phase: a valid frame kind that the
    /// per-connection [`ProtocolState`] does not admit right now
    /// (handshake frames mid-session, data after the ledger, a
    /// wrong-sized payload for a fixed-width kind). The receiver drops
    /// *that connection only* — the session survives via reconnect, and
    /// a daemon never wedges on it.
    ProtocolViolation(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Disconnected => write!(f, "peer closed the connection"),
            NetError::Timeout => write!(f, "read timed out"),
            NetError::Frame(why) => write!(f, "frame error: {why}"),
            NetError::Handshake(why) => write!(f, "handshake refused: {why}"),
            NetError::BackendMismatch { ours, peer } => write!(
                f,
                "comparator backend mismatch: this party runs the {ours} backend, \
                 peer announced {peer}; all three parties must be launched with \
                 the same --backend"
            ),
            NetError::PeerGone(why) => write!(f, "peer unreachable: {why}"),
            NetError::Busy(ms) => write!(f, "peer busy, retry in {ms} ms"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::ProtocolViolation(why) => write!(f, "protocol state violation: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Wire-level accounting, kept *separate* from the protocol
/// [`CostLedger`](pprl_crypto::CostLedger) on purpose: the ledger meters
/// the protocol (and must match the in-process run byte for byte), while
/// these counters meter what this deployment's network did to deliver it —
/// retransmissions, reconnects, and duplicate suppression included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames written to sockets (handshakes, data, acks, summaries).
    pub frames_sent: u64,
    /// Frames read off sockets.
    pub frames_received: u64,
    /// Bytes written, including frame overhead.
    pub bytes_sent: u64,
    /// Bytes read, including frame overhead.
    pub bytes_received: u64,
    /// Data envelopes sent again (timeout or reconnect).
    pub retransmits: u64,
    /// Duplicate data envelopes received and re-acked without processing.
    pub duplicates: u64,
    /// Connections (re-)established after the initial handshake.
    pub reconnects: u64,
    /// `Busy` pushbacks: received and honored (dialer side), or sent in
    /// place of admission (gated listener side).
    pub busy: u64,
    /// Total time slept in reconnect backoff and busy pauses. Off-ledger
    /// by construction: deployment patience, not protocol cost.
    pub backoff_ms: u64,
    /// Fresh data envelopes acked-and-discarded while draining a channel
    /// that stopped consuming (deadline expiry): the peer completes its
    /// walk, this side no longer processes the payloads.
    pub drained: u64,
    /// Frames rejected by the per-connection [`ProtocolState`] (wrong
    /// phase, wrong size, handshake replay) — each one cost the offending
    /// connection, nothing else — plus commits a caller offered out of
    /// order, which the channel refuses.
    pub violations: u64,
    /// Connections closed before their handshake because the listener was
    /// at its concurrent-connection cap.
    pub refused: u64,
    /// Parked connections discarded by the idle reaper before any worker
    /// claimed them.
    pub reaped: u64,
    /// Coalesced [`K_DATA_BATCH`](crate::frame::K_DATA_BATCH) frames sent
    /// by a flush of more than one queued envelope at once.
    pub batches_sent: u64,
    /// Data envelopes that traveled inside those batch frames (each one
    /// saved a frame header and a syscall relative to a solo send).
    pub batched_envelopes: u64,
    /// High-water mark of concurrently unacknowledged submissions —
    /// the observed window occupancy, `max`-merged rather than summed.
    pub max_window: u64,
}

impl NetStats {
    /// Folds another party/channel's counters into this one.
    pub fn merge(&mut self, other: &NetStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retransmits += other.retransmits;
        self.duplicates += other.duplicates;
        self.reconnects += other.reconnects;
        self.busy += other.busy;
        self.backoff_ms += other.backoff_ms;
        self.drained += other.drained;
        self.violations += other.violations;
        self.refused += other.refused;
        self.reaped += other.reaped;
        self.batches_sent += other.batches_sent;
        self.batched_envelopes += other.batched_envelopes;
        self.max_window = self.max_window.max(other.max_window);
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} frames out / {} in, {} bytes out / {} in, {} retransmits, {} dups, \
             {} reconnects, {} busy, {} ms backoff, {} drained, {} violations, \
             {} refused, {} reaped, {} batches ({} coalesced), window peak {}",
            self.frames_sent,
            self.frames_received,
            self.bytes_sent,
            self.bytes_received,
            self.retransmits,
            self.duplicates,
            self.reconnects,
            self.busy,
            self.backoff_ms,
            self.drained,
            self.violations,
            self.refused,
            self.reaped,
            self.batches_sent,
            self.batched_envelopes,
            self.max_window
        )
    }
}

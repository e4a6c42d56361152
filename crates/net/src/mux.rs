//! One listener, many sessions.
//!
//! A daemonized party binds a single `TcpListener` and may serve several
//! SMC sessions (and several reconnections per session) concurrently. The
//! mux owns the accept loop on a background thread: it reads each new
//! connection's `Hello`, then routes the handshaken stream into a mailbox
//! keyed by `(job fingerprint, peer role)`. Session workers — e.g. spawned
//! over `pprl-runtime` threads — block on [`SessionMux::wait_conn`] for
//! their own key, so concurrent sessions resolve deterministically no
//! matter the order connections arrive in.

use crate::frame::{K_BUSY, K_HELLO};
use crate::hello::{Backend, Busy, Hello, Role};
use crate::state::ProtocolState;
use crate::stream::FramedStream;
use crate::trace::net_trace;
use crate::{NetError, NetStats};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop waits for a new connection's `Hello` before
/// dropping it (an unresponsive dialer must not stall other sessions).
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the listener will block writing the typed `Busy` refusal to a
/// connection it cannot supervise (cap reached). Best-effort: a dialer
/// too slow to take five bytes gets a plain close instead.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(200);

/// Retry hint carried by a cap refusal. Deliberately short: the cap
/// guards against connection floods, not long-lived oversubscription, so
/// an honest dialer that hits it should come straight back.
const REFUSAL_RETRY: Duration = Duration::from_millis(100);

/// How often the reaper sweeps parked mailboxes for idle streams.
const REAP_INTERVAL: Duration = Duration::from_millis(250);

/// How long a dropped mux spends dialing its own listener to wake the
/// accept thread out of `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Connection-supervision knobs for a listening mux.
#[derive(Clone, Copy, Debug)]
pub struct MuxLimits {
    /// Per-connection budget for the `Hello` to arrive. Each connection
    /// burns its own budget on a greeter thread — a slowloris dialer
    /// stalls only itself, never the accept loop.
    pub handshake_timeout: Duration,
    /// Ceiling on connections inside their handshake at once. Beyond it
    /// new connections get a typed [`Busy`] refusal and a close, so a
    /// connection flood cannot pile up greeter threads.
    pub max_conns: usize,
    /// Discard a parked (handshaken but unclaimed) stream after this
    /// long. `None` keeps streams parked until replaced or claimed.
    pub idle_timeout: Option<Duration>,
}

impl Default for MuxLimits {
    fn default() -> Self {
        MuxLimits {
            handshake_timeout: HELLO_TIMEOUT,
            max_conns: 64,
            idle_timeout: None,
        }
    }
}

/// Binds the listener — with `SO_REUSEADDR` on Linux, so a restarted
/// daemon can rebind its announced port while the dead process's
/// connections still linger in `TIME_WAIT`/`FIN_WAIT`. `std` offers no
/// pre-bind socket options, so the Linux path drives the platform libc
/// (already linked) directly; everywhere else this is a plain
/// `TcpListener::bind`, and a quick restart may have to wait the port
/// out.
pub(crate) fn bind_listener(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        use std::net::ToSocketAddrs;
        let mut last: Option<std::io::Error> = None;
        for candidate in addr.to_socket_addrs()? {
            let bound = match candidate {
                SocketAddr::V4(v4) => bind_reuseaddr_v4(v4),
                other => TcpListener::bind(other),
            };
            match bound {
                Ok(listener) => return Ok(listener),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }
    #[cfg(not(target_os = "linux"))]
    TcpListener::bind(addr)
}

/// `socket` + `SO_REUSEADDR` + `bind` + `listen`, handed back to `std` as
/// a regular `TcpListener`. IPv4 only; v6 candidates take the plain path.
#[cfg(target_os = "linux")]
fn bind_reuseaddr_v4(addr: std::net::SocketAddrV4) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    // struct sockaddr_in, fixed 16-byte layout; port and address are
    // already big-endian on the wire side.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // From here every failure path must release the raw fd.
        let fail = |fd: i32| {
            let e = std::io::Error::last_os_error();
            close(fd);
            Err(e)
        };
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0 {
            return fail(fd);
        }
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port: addr.port().to_be_bytes(),
            addr: addr.ip().octets(),
            zero: [0; 8],
        };
        if bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
            return fail(fd);
        }
        if listen(fd, 128) < 0 {
            return fail(fd);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// What a gated listener does with an identified connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Route the stream to its session mailbox as usual.
    Accept,
    /// Known job, no capacity: answer with a typed [`Busy`] frame telling
    /// the dialer when to come back, then close. Bounded memory — the
    /// stream is never queued.
    Busy {
        /// Suggested pause before the dialer's next attempt.
        retry_after: Duration,
    },
    /// Unknown or terminal job: close without a reply. Legitimate peers
    /// of live jobs never see this; a drifted or stale dialer gives up at
    /// its own reconnect deadline.
    Refuse,
}

/// Admission policy consulted by the accept loop for every identified
/// connection, *including reconnections* — gates must admit peers of
/// jobs already in flight or crash recovery deadlocks.
pub type AdmissionGate = Arc<dyn Fn(&Hello) -> Admission + Send + Sync>;

/// A handshaken connection parked until its session worker claims it,
/// keyed in the mailbox map by (job fingerprint, peer role). The instant
/// records when it was parked, for the idle reaper.
type Mailboxes = HashMap<(u64, Role), Vec<(FramedStream, Hello, Instant)>>;

struct MuxShared {
    shutdown: AtomicBool,
    mailboxes: Mutex<Mailboxes>,
    arrived: Condvar,
    stats: Mutex<NetStats>,
    /// Read/write timeout applied to streams after their hello clears.
    stream_timeout: Option<Duration>,
    /// Admission policy; `None` admits everything (one-shot party mode).
    gate: Option<AdmissionGate>,
    /// Supervision knobs (handshake deadline, connection cap, idle reap).
    limits: MuxLimits,
    /// Connections currently inside their handshake (greeter threads).
    greeting: AtomicUsize,
    /// This listener's own role and comparator backend, when declared
    /// ([`SessionMux::set_identity`]). A dialer announcing a different
    /// backend is refused *in the greeter* with a reply hello carrying
    /// our identity: without this, a backend split also splits the job
    /// fingerprint, the connection parks in a mailbox no worker ever
    /// claims, and both sides time out with an unexplained `PeerGone`
    /// instead of the typed [`NetError::BackendMismatch`].
    identity: Mutex<Option<(Role, Backend)>>,
}

/// A shared listener routing handshaken connections to session workers.
pub struct SessionMux {
    local_addr: SocketAddr,
    shared: Arc<MuxShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Runs only under an idle timeout ([`MuxLimits::idle_timeout`]).
    reaper_thread: Option<std::thread::JoinHandle<()>>,
}

impl SessionMux {
    /// Binds `addr` (use port `0` for an ephemeral port) and starts the
    /// accept loop. `stream_timeout` is inherited by every accepted
    /// stream as its read/write timeout.
    pub fn bind(addr: &str, stream_timeout: Option<Duration>) -> Result<Self, NetError> {
        Self::bind_gated(addr, stream_timeout, None)
    }

    /// [`bind`](Self::bind) with an admission gate: every identified
    /// connection is offered to `gate` before it reaches a mailbox, so a
    /// daemon can bound concurrent sessions ([`Admission::Busy`]) and
    /// refuse unknown or finished jobs ([`Admission::Refuse`]).
    pub fn bind_gated(
        addr: &str,
        stream_timeout: Option<Duration>,
        gate: Option<AdmissionGate>,
    ) -> Result<Self, NetError> {
        Self::bind_supervised(addr, stream_timeout, gate, MuxLimits::default())
    }

    /// [`bind_gated`](Self::bind_gated) with explicit supervision limits:
    /// per-connection handshake deadline, concurrent-handshake cap, and
    /// idle reaping for parked streams.
    pub fn bind_supervised(
        addr: &str,
        stream_timeout: Option<Duration>,
        gate: Option<AdmissionGate>,
        limits: MuxLimits,
    ) -> Result<Self, NetError> {
        let listener = bind_listener(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(MuxShared {
            shutdown: AtomicBool::new(false),
            mailboxes: Mutex::new(HashMap::new()),
            arrived: Condvar::new(),
            stats: Mutex::new(NetStats::default()),
            stream_timeout,
            gate,
            limits,
            greeting: AtomicUsize::new(0),
            identity: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pprl-net-accept".into())
            .spawn(move || accept_loop(listener, worker))?;
        let mut mux = SessionMux {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            reaper_thread: None,
        };
        if let Some(idle) = limits.idle_timeout {
            let worker = Arc::clone(&mux.shared);
            mux.reaper_thread = Some(
                std::thread::Builder::new()
                    .name("pprl-net-reap".into())
                    .spawn(move || reap_loop(&worker, idle))?,
            );
        }
        Ok(mux)
    }

    /// The bound address (with the kernel-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Declares this listener's role and comparator backend, arming the
    /// greeter-side backend check: a dialer announcing a different
    /// backend gets an immediate reply hello carrying this identity (so
    /// *its* `verify` surfaces the typed [`NetError::BackendMismatch`])
    /// and is never parked. Without a declared identity every backend is
    /// parked as-is (mux unit tests; callers that verify in the worker).
    pub fn set_identity(&self, role: Role, backend: Backend) {
        if let Ok(mut id) = self.shared.identity.lock() {
            *id = Some((role, backend));
        }
    }

    /// Wire accounting for the handshakes the accept loop performed.
    pub fn stats(&self) -> NetStats {
        self.shared
            .stats
            .lock()
            .map(|s| *s)
            .unwrap_or_default()
    }

    /// Blocks until a connection whose `Hello` matches `(fingerprint,
    /// role)` arrives, up to `deadline`. Returns the handshaken stream and
    /// the peer's announcement; the caller still owes the reply `Hello`.
    pub fn wait_conn(
        &self,
        fingerprint: u64,
        role: Role,
        deadline: Duration,
    ) -> Result<(FramedStream, Hello), NetError> {
        let start = Instant::now();
        let mut boxes = self
            .shared
            .mailboxes
            .lock()
            .map_err(|_| NetError::Protocol("mux mailbox lock poisoned".into()))?;
        loop {
            if let Some(queue) = boxes.get_mut(&(fingerprint, role)) {
                if !queue.is_empty() {
                    let (stream, hello, _parked_at) = queue.remove(0);
                    net_trace!("mux claim {role} for {fingerprint:016x}");
                    return Ok((stream, hello));
                }
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Err(NetError::PeerGone(format!(
                    "no {role} connection for job {fingerprint:016x} within {deadline:?}"
                )));
            }
            let (next, timeout) = self
                .shared
                .arrived
                .wait_timeout(boxes, deadline - elapsed)
                .map_err(|_| NetError::Protocol("mux mailbox lock poisoned".into()))?;
            boxes = next;
            if timeout.timed_out() {
                return Err(NetError::PeerGone(format!(
                    "no {role} connection for job {fingerprint:016x} within {deadline:?}"
                )));
            }
        }
    }
}

impl Drop for SessionMux {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The reaper checks the flag holding the mailbox lock and then
        // waits on `arrived`: passing through the lock puts this notify
        // after that check, so it cannot be missed.
        drop(self.shared.mailboxes.lock());
        self.shared.arrived.notify_all();
        if let Some(handle) = self.reaper_thread.take() {
            let _ = handle.join();
        }
        // The accept thread blocks in `accept`, so a connection from here
        // is what wakes it; it sees the flag and closes the listener. If
        // the dial fails (backlog full) the thread is left to exit on the
        // next connection it is handed rather than joined forever.
        let woken = TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT).is_ok();
        if let Some(handle) = self.accept_thread.take() {
            if woken {
                let _ = handle.join();
            }
        }
    }
}

/// Where a mux dials itself: the bound address, or loopback when it is
/// bound to every interface.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept`, so a dial reaches its greeter as it lands.
fn accept_loop(listener: TcpListener, shared: Arc<MuxShared>) {
    loop {
        let accepted = listener.accept();
        // Checked after every wake-up: the connection may be the one a
        // dropped mux dials to end this loop.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((socket, _)) => {
                // The accept thread never reads from a connection: each
                // one goes to a short-lived greeter with its own deadline,
                // so a slowloris dialer stalls only its own greeter while
                // honest admissions flow past it (the old inline
                // handshake serialized *everyone* behind the slowest
                // dialer).
                let slots = &shared.greeting;
                if slots.fetch_add(1, Ordering::SeqCst) >= shared.limits.max_conns {
                    slots.fetch_sub(1, Ordering::SeqCst);
                    refuse_over_cap(socket, &shared);
                    continue;
                }
                let worker = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("pprl-net-greet".into())
                    .spawn(move || {
                        greet(socket, &worker);
                        worker.greeting.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.greeting.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Out of descriptors, or a dialer that reset before it was
            // accepted: pause so a failure that persists cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Sweeps the mailboxes every [`REAP_INTERVAL`] until the mux is dropped.
fn reap_loop(shared: &MuxShared, idle: Duration) {
    let Ok(mut boxes) = shared.mailboxes.lock() else {
        return;
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Ok((next, _)) = shared.arrived.wait_timeout(boxes, REAP_INTERVAL) else {
            return;
        };
        boxes = next;
        reap_idle(shared, &mut boxes, idle);
    }
}

/// Typed refusal for a connection over the supervision cap: best-effort
/// `Busy` frame, then close. Keeps floods from parking greeter threads
/// while honest dialers absorb the pushback in their reconnect loop.
fn refuse_over_cap(socket: TcpStream, shared: &MuxShared) {
    let mut stats = NetStats::default();
    stats.refused += 1;
    if let Ok(mut stream) = FramedStream::new(socket, Some(REFUSAL_WRITE_TIMEOUT)) {
        let busy = Busy {
            retry_after_ms: REFUSAL_RETRY.as_millis() as u64,
        };
        let _ = stream.send(K_BUSY, &busy.encode(), &mut stats);
    }
    net_trace!("mux refuse: connection cap {} reached", shared.limits.max_conns);
    if let Ok(mut total) = shared.stats.lock() {
        total.merge(&stats);
    }
}

/// Discards parked streams nobody claimed within the idle timeout, so a
/// daemon's mailboxes cannot accumulate sockets from dialers that gave up.
fn reap_idle(shared: &MuxShared, boxes: &mut Mailboxes, idle: Duration) {
    let mut reaped = 0u64;
    for queue in boxes.values_mut() {
        let before = queue.len();
        queue.retain(|(_, _, parked_at)| parked_at.elapsed() < idle);
        reaped += (before - queue.len()) as u64;
    }
    boxes.retain(|_, queue| !queue.is_empty());
    if reaped > 0 {
        net_trace!("mux reaped {reaped} idle parked stream(s)");
        if let Ok(mut total) = shared.stats.lock() {
            total.reaped += reaped;
        }
    }
}

/// One connection's handshake, on its own thread and deadline: read the
/// hello, validate it against the handshake phase of the protocol state
/// machine, consult the admission gate, then park / push back / drop.
fn greet(socket: TcpStream, shared: &MuxShared) {
    // Read the dialer's hello with the handshake's dedicated timeout,
    // then hand the stream over at the session's own timeout.
    let hello = FramedStream::new(socket, Some(shared.limits.handshake_timeout))
        .and_then(|mut stream| {
            let mut stats = NetStats::default();
            let outcome = stream.recv(&mut stats).and_then(|(kind, payload)| {
                ProtocolState::accepting().admit(kind, payload.len())?;
                if kind != K_HELLO {
                    return Err(NetError::Handshake(format!(
                        "first frame was kind {kind}, expected hello"
                    )));
                }
                Ok(payload)
            });
            if matches!(outcome, Err(NetError::ProtocolViolation(_))) {
                stats.violations += 1;
            }
            if let Ok(mut total) = shared.stats.lock() {
                total.merge(&stats);
            }
            let payload = outcome?;
            stream.set_read_timeout(shared.stream_timeout)?;
            Ok((stream, Hello::decode(&payload)?))
        });
    // A connection that never identified itself is simply dropped;
    // legitimate peers re-dial and try again.
    let Ok((stream, hello)) = hello else { return };
    let identity = shared.identity.lock().ok().and_then(|id| *id);
    if let Some((role, backend)) = identity {
        if hello.backend != backend {
            // Typed refusal: reply with our own identity (echoing the
            // dialer's fingerprint so the *backend* check is what fires
            // on its side) and drop the connection. The dialer's
            // `verify` turns this into `NetError::BackendMismatch`,
            // which its reconnect loop treats as fatal.
            net_trace!(
                "mux refuse {} for {:016x}: peer backend {} != ours {}",
                hello.role, hello.fingerprint, hello.backend, backend
            );
            let mut stream = stream;
            let mut stats = NetStats::default();
            stats.refused += 1;
            let _ = stream.send(
                K_HELLO,
                &Hello::new(role, backend, hello.fingerprint).encode(),
                &mut stats,
            );
            if let Ok(mut total) = shared.stats.lock() {
                total.merge(&stats);
            }
            return;
        }
    }
    let verdict = match &shared.gate {
        Some(gate) => gate(&hello),
        None => Admission::Accept,
    };
    match verdict {
        Admission::Accept => {
            net_trace!(
                "mux park {} for {:016x} (wm={} key={})",
                hello.role, hello.fingerprint, hello.watermark, hello.have_key
            );
            if let Ok(mut boxes) = shared.mailboxes.lock() {
                // A dialer keeps exactly one connection in flight per
                // (job, role): a fresh dial means any parked stream in
                // the same mailbox was already abandoned at the dialer's
                // own timeout. Replace instead of queueing — otherwise a
                // session that sat behind the admission gate for a while
                // hands its worker a backlog of dead sockets, and the
                // worker burns a full handshake timeout on each one
                // while live dials pile up behind them. Also bounds
                // parked memory to one stream per mailbox.
                let slot = boxes
                    .entry((hello.fingerprint, hello.role))
                    .or_default();
                slot.clear();
                slot.push((stream, hello, Instant::now()));
            }
            shared.arrived.notify_all();
        }
        Admission::Busy { retry_after } => {
            net_trace!(
                "mux busy {} for {:016x} ({retry_after:?})",
                hello.role, hello.fingerprint
            );
            let mut stream = stream;
            let busy = Busy {
                retry_after_ms: retry_after.as_millis() as u64,
            };
            let mut stats = NetStats::default();
            stats.busy += 1;
            // Best-effort: a dialer that misses the frame falls back to
            // its own backoff.
            let _ = stream.send(K_BUSY, &busy.encode(), &mut stats);
            if let Ok(mut total) = shared.stats.lock() {
                total.merge(&stats);
            }
        }
        Admission::Refuse => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::K_DATA;
    use std::net::TcpStream;

    fn dial_with_hello(addr: SocketAddr, hello: Hello) -> FramedStream {
        let socket = TcpStream::connect(addr).unwrap();
        let mut stream = FramedStream::new(socket, Some(Duration::from_secs(5))).unwrap();
        let mut stats = NetStats::default();
        stream.send(K_HELLO, &hello.encode(), &mut stats).unwrap();
        stream
    }

    #[test]
    fn routes_by_fingerprint_and_role() {
        let mux = SessionMux::bind("127.0.0.1:0", Some(Duration::from_secs(5))).unwrap();
        let addr = mux.local_addr();
        let mut a = dial_with_hello(addr, Hello::new(Role::Alice, Backend::Paillier, 10));
        let mut b = dial_with_hello(addr, Hello::new(Role::Bob, Backend::Paillier, 10));
        // Ask for Bob first even though Alice dialed first.
        let (_, hb) = mux
            .wait_conn(10, Role::Bob, Duration::from_secs(5))
            .unwrap();
        assert_eq!(hb.role, Role::Bob);
        let (_, ha) = mux
            .wait_conn(10, Role::Alice, Duration::from_secs(5))
            .unwrap();
        assert_eq!(ha.role, Role::Alice);
        let mut stats = NetStats::default();
        a.send(K_DATA, &[1], &mut stats).unwrap();
        b.send(K_DATA, &[2], &mut stats).unwrap();
    }

    #[test]
    fn redial_replaces_parked_stream() {
        let mux = SessionMux::bind("127.0.0.1:0", Some(Duration::from_secs(5))).unwrap();
        let addr = mux.local_addr();
        // The dialer gives up on its first attempt (no reply in time) and
        // redials; the mailbox must hold only the fresh stream, not a
        // growing backlog of abandoned ones.
        // Each dial is greeted on its own thread, so the second must not
        // start before the first is parked, nor the claim before the
        // second is: the watermark tells the two announcements apart.
        let await_parked = |watermark: u64| {
            let patience = Instant::now();
            while !mux.shared.mailboxes.lock().unwrap().get(&(7, Role::Alice)).is_some_and(
                |parked| parked.iter().any(|(_, hello, _)| hello.watermark == watermark),
            ) {
                assert!(patience.elapsed() < Duration::from_secs(5), "dial never parked");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let mut redial = Hello::new(Role::Alice, Backend::Paillier, 7);
        let _stale = dial_with_hello(addr, redial);
        await_parked(0);
        redial.watermark = 1;
        let mut fresh = dial_with_hello(addr, redial);
        let mut stats = NetStats::default();
        fresh.send(K_DATA, b"fresh", &mut stats).unwrap();
        await_parked(1);
        let (mut stream, hello) = mux.wait_conn(7, Role::Alice, Duration::from_secs(5)).unwrap();
        assert_eq!(hello, redial);
        let (kind, payload) = stream.recv(&mut stats).unwrap();
        assert_eq!(kind, K_DATA);
        assert_eq!(payload, b"fresh");
        // And nothing else is parked: a second claim times out.
        assert!(mux
            .wait_conn(7, Role::Alice, Duration::from_millis(50))
            .is_err());
    }

    #[test]
    fn concurrent_sessions_resolve_deterministically() {
        let mux = std::sync::Arc::new(
            SessionMux::bind("127.0.0.1:0", Some(Duration::from_secs(5))).unwrap(),
        );
        let addr = mux.local_addr();
        let fingerprints: Vec<u64> = (100..108).collect();
        // Dial all sessions before any worker claims one.
        let _dialers: Vec<FramedStream> = fingerprints
            .iter()
            .map(|&fp| dial_with_hello(addr, Hello::new(Role::Alice, Backend::Paillier, fp)))
            .collect();
        // Workers on pprl-runtime threads each wait for their own session.
        let got = pprl_runtime::par_map(&fingerprints, 4, |_, &fp| {
            let (_, hello) = mux
                .wait_conn(fp, Role::Alice, Duration::from_secs(5))
                .unwrap();
            hello.fingerprint
        });
        assert_eq!(got, fingerprints);
    }

    #[test]
    fn gated_busy_is_absorbed_by_the_dialers_reconnect_loop() {
        use crate::peer::{PeerChannel, ReconnectPolicy};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let calls = Arc::new(AtomicUsize::new(0));
        let gate_calls = Arc::clone(&calls);
        let gate: AdmissionGate = Arc::new(move |_h: &Hello| {
            if gate_calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Admission::Busy {
                    retry_after: Duration::from_millis(20),
                }
            } else {
                Admission::Accept
            }
        });
        let timeout = Some(Duration::from_millis(500));
        let mux = Arc::new(SessionMux::bind_gated("127.0.0.1:0", timeout, Some(gate)).unwrap());
        let addr = mux.local_addr();
        let policy = ReconnectPolicy {
            deadline: Duration::from_secs(10),
            ..ReconnectPolicy::default()
        };
        let mux2 = Arc::clone(&mux);
        let acceptor = std::thread::spawn(move || {
            let hello = Hello::new(Role::Bob, Backend::Paillier, 5);
            let mut bob = PeerChannel::accept_lazy(mux2, hello, Role::Alice, timeout, policy);
            bob.ensure_connected().unwrap();
            bob
        });
        let dialer = PeerChannel::connect(
            addr,
            Hello::new(Role::Alice, Backend::Paillier, 5),
            Role::Bob,
            timeout,
            policy,
        )
        .unwrap();
        acceptor.join().unwrap();
        assert_eq!(dialer.stats.busy, 2, "both pushbacks were honored");
        assert!(dialer.stats.backoff_ms >= 40, "busy pauses were slept");
        assert!(mux.stats().busy >= 2, "the gate counted its pushbacks");
    }

    #[test]
    fn gated_refusal_surfaces_as_peer_gone() {
        use crate::peer::{PeerChannel, ReconnectPolicy};

        let gate: AdmissionGate = Arc::new(|_h: &Hello| Admission::Refuse);
        let timeout = Some(Duration::from_millis(100));
        let mux = SessionMux::bind_gated("127.0.0.1:0", timeout, Some(gate)).unwrap();
        let policy = ReconnectPolicy {
            deadline: Duration::from_millis(400),
            ..ReconnectPolicy::default()
        };
        let err = match PeerChannel::connect(
            mux.local_addr(),
            Hello::new(Role::Alice, Backend::Paillier, 9),
            Role::Bob,
            timeout,
            policy,
        ) {
            Err(e) => e,
            Ok(_) => panic!("a refused dialer connected anyway"),
        };
        assert!(matches!(err, NetError::PeerGone(_)));
    }

    #[test]
    fn slowloris_dialers_do_not_stall_honest_admission() {
        // Regression for the serial accept loop: four connections that
        // never send their hello used to pin the accept thread for a full
        // handshake timeout *each*, so an honest dialer behind them waited
        // 20+ seconds. With per-connection greeters the honest hello must
        // clear within its own handshake deadline, not the sum of
        // everyone else's.
        let limits = MuxLimits {
            handshake_timeout: Duration::from_secs(2),
            ..MuxLimits::default()
        };
        let mux = SessionMux::bind_supervised(
            "127.0.0.1:0",
            Some(Duration::from_secs(5)),
            None,
            limits,
        )
        .unwrap();
        let addr = mux.local_addr();
        let _silent: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let started = Instant::now();
        let _honest = dial_with_hello(addr, Hello::new(Role::Alice, Backend::Paillier, 42));
        let (_, hello) = mux
            .wait_conn(42, Role::Alice, Duration::from_secs(2))
            .unwrap();
        assert_eq!(hello.fingerprint, 42);
        assert!(
            started.elapsed() < limits.handshake_timeout,
            "honest admission took {:?}, longer than one handshake deadline",
            started.elapsed()
        );
    }

    #[test]
    fn connections_over_the_cap_get_a_typed_refusal() {
        use crate::frame::K_BUSY;

        let limits = MuxLimits {
            handshake_timeout: Duration::from_secs(5),
            max_conns: 2,
            ..MuxLimits::default()
        };
        let mux = SessionMux::bind_supervised(
            "127.0.0.1:0",
            Some(Duration::from_secs(5)),
            None,
            limits,
        )
        .unwrap();
        let addr = mux.local_addr();
        // Two silent connections occupy both greeter slots for the whole
        // handshake timeout.
        let _hogs: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(200));
        // The third connection is refused with a typed Busy frame.
        let socket = TcpStream::connect(addr).unwrap();
        let mut stream = FramedStream::new(socket, Some(Duration::from_secs(2))).unwrap();
        let mut stats = NetStats::default();
        let (kind, payload) = stream.recv(&mut stats).unwrap();
        assert_eq!(kind, K_BUSY);
        let busy = Busy::decode(&payload).unwrap();
        assert!(busy.retry_after_ms > 0);
        // The accept thread counts the refusal after it has written the
        // frame this thread just read.
        let deadline = Instant::now() + Duration::from_secs(2);
        while mux.stats().refused == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(mux.stats().refused >= 1, "the refusal was counted");
    }

    #[test]
    fn idle_parked_streams_are_reaped() {
        let limits = MuxLimits {
            idle_timeout: Some(Duration::from_millis(100)),
            ..MuxLimits::default()
        };
        let mux = SessionMux::bind_supervised(
            "127.0.0.1:0",
            Some(Duration::from_secs(5)),
            None,
            limits,
        )
        .unwrap();
        let addr = mux.local_addr();
        let _stream = dial_with_hello(addr, Hello::new(Role::Bob, Backend::Paillier, 77));
        // Nobody claims it; the reaper must discard it after the idle
        // timeout (sweeps run every 250 ms).
        std::thread::sleep(Duration::from_millis(700));
        assert!(mux
            .wait_conn(77, Role::Bob, Duration::from_millis(50))
            .is_err());
        assert!(mux.stats().reaped >= 1, "the reap was counted");
    }

    #[test]
    fn garbage_first_frame_counts_a_violation_and_drops_only_that_connection() {
        use std::io::Write;

        let mux = SessionMux::bind("127.0.0.1:0", Some(Duration::from_secs(5))).unwrap();
        let addr = mux.local_addr();
        // A data frame before any hello: framing-valid, phase-invalid.
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(&crate::frame::encode_frame(K_DATA, &[0u8; 64]))
            .unwrap();
        // An honest dialer right behind it is unaffected.
        let _honest = dial_with_hello(addr, Hello::new(Role::Alice, Backend::Paillier, 11));
        let (_, hello) = mux
            .wait_conn(11, Role::Alice, Duration::from_secs(2))
            .unwrap();
        assert_eq!(hello.fingerprint, 11);
        // The greeter recorded the violation before closing the socket.
        let deadline = Instant::now() + Duration::from_secs(2);
        while mux.stats().violations == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(mux.stats().violations >= 1);
    }

    #[test]
    fn drop_closes_the_listener_whatever_address_it_bound() {
        // A mux bound to every interface has to wake its accept thread
        // over loopback; one with a reaper has to stop that too.
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            let limits = MuxLimits {
                idle_timeout: Some(Duration::from_secs(30)),
                ..MuxLimits::default()
            };
            let mux =
                SessionMux::bind_supervised(listen, Some(Duration::from_secs(5)), None, limits)
                    .unwrap();
            let addr = wake_addr(mux.local_addr());
            drop(mux);
            assert!(
                TcpStream::connect(addr).is_err(),
                "{listen}: the listener outlived its mux"
            );
        }
    }

    #[test]
    fn wait_conn_times_out_when_nobody_dials() {
        let mux = SessionMux::bind("127.0.0.1:0", Some(Duration::from_secs(1))).unwrap();
        let err = mux
            .wait_conn(1, Role::Bob, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, NetError::PeerGone(_)));
    }
}

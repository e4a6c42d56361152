//! Linkage-as-a-service: a long-lived querier daemon that serves many
//! linkage jobs over one listener.
//!
//! [`serve`] promotes the one-shot [`run_party`](crate::run_party)
//! querier into a multi-job server. One [`SessionMux`] accepts every
//! holder connection; an admission gate routes each `Hello` by its job
//! fingerprint:
//!
//! - **running job** → accepted into the job's session mailboxes;
//! - **queued job** (the daemon is at `--max-jobs` concurrency) → answered
//!   with a typed `Busy { retry_after }` frame; the holder's reconnect
//!   loop absorbs it and redials after the hinted pause;
//! - **unknown, finished, or quarantined job** → refused.
//!
//! ## Per-job crash containment
//!
//! Every job runs on its own worker thread under `catch_unwind`, with its
//! own journal under the daemon's `journal_dir`. A worker that panics or
//! errors is restarted from its journal up to `max_crashes` attempts; a
//! job that keeps crashing is *quarantined* — reported as
//! [`LinkageError::Quarantined`] — while every other job keeps running.
//! One poisoned job cannot corrupt another: journals are per-job files,
//! and the shared mux only ever hands a connection to the session whose
//! fingerprint it carries.
//!
//! ## Restart and replay
//!
//! A finished job's report is written to `journal_dir/<name>.report`
//! (fsynced when durable) *before* a [`K_PARTY_DONE`] marker seals its
//! journal. A restarted daemon therefore re-serves finished jobs from
//! disk byte-identically without re-executing a single pair, and resumes
//! only unfinished journals at their watermarks.
//!
//! ## Warm state
//!
//! Paillier prime generation — the expensive part of session setup — runs
//! once per distinct `(modulus_bits, seed)` and is reused by every job
//! with those parameters ([`SmcStep::start_warm`]); the cached keypair
//! carries an optional pre-filled [`RandomizerPool`] shared by all its
//! clones.
//!
//! ## Graceful drain
//!
//! When the caller's `drain` flag flips (the CLI wires it to `SIGTERM`),
//! the daemon stops starting queued jobs, lets in-flight jobs finish and
//! seal their journals, and returns; still-queued jobs come back as
//! [`JobStatus::Drained`] and resume on the next start.
//!
//! [`K_PARTY_DONE`]: crate::party_run::K_PARTY_DONE
//! [`SmcStep::start_warm`]: pprl_smc::SmcStep::start_warm
//! [`RandomizerPool`]: pprl_crypto::RandomizerPool

use crate::journal_run::{self, JournalOptions};
use crate::party_run::{
    announce, parse_party_frames, querier_job, wire_backend, PartyOptions, PartyOutcome,
    K_PARTY_DONE,
};
use crate::{HybridLinkage, LinkageError};
use pprl_crypto::Keypair;
use pprl_data::DataSet;
use pprl_net::{Admission, AdmissionGate, Backend, MuxLimits, NetStats, Role, SessionMux};
use pprl_smc::SmcMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// One linkage job the daemon should serve: a named pipeline over its two
/// input sets. Every party of the job must be configured identically —
/// the shared-scenario fingerprint in the handshake enforces it.
pub struct ServeJob {
    /// Stable name; also the stem of the job's journal and report files.
    pub name: String,
    /// The configured pipeline (batched Paillier, no simulated channel).
    pub pipeline: HybridLinkage,
    /// Left input.
    pub left: DataSet,
    /// Right input.
    pub right: DataSet,
}

/// Daemon knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listener bind address for every job's holders.
    pub listen: String,
    /// Directory for per-job journals (`<name>.pprlj`) and finished
    /// reports (`<name>.report`).
    pub journal_dir: PathBuf,
    /// Concurrent session bound; excess holders get `Busy`.
    pub max_jobs: usize,
    /// The pause hinted inside a `Busy` answer.
    pub retry_after: Duration,
    /// Worker attempts (crash or error) before a job is quarantined.
    pub max_crashes: u32,
    /// Socket poll timeout (one slice, not the give-up bound).
    pub timeout: Duration,
    /// Per-operation reconnect deadline inside each session.
    pub net_deadline: Duration,
    /// Fsync journals and reports at commit points; `false` keeps
    /// kill-only tests fast.
    pub durable: bool,
    /// Pre-fill this many Paillier randomizers into each cached keypair's
    /// shared pool (`0` skips the pool).
    pub pool_prefill: usize,
    /// Threads for the pool pre-fill.
    pub pool_threads: usize,
    /// Discard a handshaken connection nobody claimed within this long
    /// (the mux idle reaper; see [`MuxLimits::idle_timeout`]).
    pub idle_timeout: Duration,
    /// Ceiling on connections inside their handshake at once; beyond it
    /// the listener answers a typed `Busy` and closes
    /// ([`MuxLimits::max_conns`]).
    pub max_conns: usize,
    /// Per-job silence watchdog: when set, a running job whose peer stays
    /// dark this long *fails* (instead of degrading pairs) so the
    /// supervisor requeues it through the crash-recovery machinery —
    /// the job resumes from its journal when the peer returns, up to
    /// `max_crashes` attempts.
    pub silence_timeout: Option<Duration>,
    /// Send window handed to every job's [`PartyOptions`]. The querier
    /// side of the protocol is ack-driven either way, so this is future
    /// proofing plus CLI symmetry with `party run --window`.
    pub window: usize,
    /// When set, the daemon writes a per-job metrics snapshot (status,
    /// wall time, pairs/sec, wire accounting, peak send-window
    /// occupancy) to this path at drain/completion — and whenever
    /// `metrics_signal` flips (the CLI wires that to `SIGUSR1`).
    pub metrics_path: Option<PathBuf>,
    /// On-demand dump trigger; the supervisor polls it and swaps it back
    /// to `false` after writing `metrics_path`. `'static` because the
    /// natural producer is an async signal handler flipping a static
    /// atomic (tests can `Box::leak` one).
    pub metrics_signal: Option<&'static AtomicBool>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            journal_dir: PathBuf::from("."),
            max_jobs: 2,
            retry_after: Duration::from_millis(200),
            max_crashes: 3,
            timeout: Duration::from_secs(1),
            net_deadline: Duration::from_secs(30),
            durable: true,
            pool_prefill: 0,
            pool_threads: 1,
            idle_timeout: Duration::from_secs(30),
            max_conns: 64,
            silence_timeout: None,
            window: 1,
            metrics_path: None,
            metrics_signal: None,
        }
    }
}

/// How one job ended, inside a [`ServeSummary`].
#[derive(Debug)]
pub enum JobStatus {
    /// Ran (or resumed) to completion in this daemon process. Boxed:
    /// an outcome is ~1 KiB and the other variants are a few words.
    Finished(Box<PartyOutcome>),
    /// Sealed by a previous daemon process; its report was re-served
    /// from disk without re-executing any pair.
    AlreadyDone,
    /// Crashed `crashes` times and was benched; the rest of the fleet
    /// kept running. See [`LinkageError::Quarantined`].
    Quarantined {
        /// Worker attempts consumed.
        crashes: u32,
        /// The last crash or error, rendered.
        last_error: String,
    },
    /// Never started: the daemon drained first. Resumes next start.
    Drained,
}

/// One job's slice of the daemon's final accounting.
#[derive(Debug)]
pub struct JobReport {
    /// The job's name.
    pub name: String,
    /// Its shared-scenario fingerprint.
    pub fingerprint: u64,
    /// The rendered report text (fresh or re-served), when finished.
    pub report: Option<String>,
    /// How the job ended.
    pub status: JobStatus,
}

/// Everything a drained or completed daemon knows.
#[derive(Debug)]
pub struct ServeSummary {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobReport>,
    /// The shared listener's wire accounting (handshakes, busys).
    pub net: NetStats,
    /// Whether the daemon exited because its drain flag flipped.
    pub drained: bool,
}

/// What the admission gate knows about a fingerprint.
#[derive(Clone, Copy, PartialEq)]
enum GateState {
    /// Known job waiting for a worker slot: answer `Busy`.
    Queued,
    /// Worker live: route to its mailboxes.
    Running,
    /// Finished or quarantined: refuse.
    Closed,
}

/// Per-job bookkeeping the supervisor loop owns.
struct JobSlot {
    fingerprint: u64,
    journal: PathBuf,
    report: PathBuf,
    crashes: u32,
    status: Option<JobStatus>,
    report_text: Option<String>,
    /// When the current (or last) worker attempt was spawned.
    started: Option<std::time::Instant>,
    /// Wall time of the attempt that finished the job.
    elapsed: Option<Duration>,
}

/// Renders one metrics snapshot: a line per job plus the shared
/// listener's accounting. Plain `key=value` text so shell tooling can
/// grep it without a parser.
fn render_metrics(slots: &[JobSlot], jobs: &[ServeJob], listener: &NetStats) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    for (slot, job) in slots.iter().zip(jobs) {
        let _ = write!(out, "job name={} fingerprint={:016x}", job.name, slot.fingerprint);
        match &slot.status {
            None if slot.started.is_some() => {
                let running = slot
                    .started
                    .map(|t| t.elapsed().as_secs_f64())
                    .unwrap_or(0.0);
                let _ = write!(out, " status=running elapsed_s={running:.3}");
            }
            None => {
                let _ = write!(out, " status=queued");
            }
            Some(JobStatus::Finished(outcome)) => {
                let secs = slot.elapsed.map(|d| d.as_secs_f64()).unwrap_or(0.0);
                let pairs = outcome.live_pairs + outcome.replayed_pairs;
                let rate = if secs > 0.0 { outcome.live_pairs as f64 / secs } else { 0.0 };
                let net = &outcome.net;
                let comp = outcome
                    .outcome
                    .as_ref()
                    .map(|o| o.smc.comparator)
                    .unwrap_or_default();
                let _ = write!(
                    out,
                    " status=finished elapsed_s={secs:.3} pairs={pairs} \
                     live_pairs={} replayed_pairs={} pairs_per_sec={rate:.1} \
                     backend={} pairs_compared={} clk_bits={} dp_flips={} \
                     bytes_sent={} bytes_received={} frames_sent={} \
                     frames_received={} retransmits={} reconnects={} \
                     batches_sent={} batched_envelopes={} max_window={}",
                    outcome.live_pairs,
                    outcome.replayed_pairs,
                    comp.backend,
                    comp.pairs_compared,
                    comp.clk_bits_exchanged,
                    comp.dp_flips,
                    net.bytes_sent,
                    net.bytes_received,
                    net.frames_sent,
                    net.frames_received,
                    net.retransmits,
                    net.reconnects,
                    net.batches_sent,
                    net.batched_envelopes,
                    net.max_window,
                );
            }
            Some(JobStatus::AlreadyDone) => {
                let _ = write!(out, " status=already-done");
            }
            Some(JobStatus::Quarantined { crashes, .. }) => {
                let _ = write!(out, " status=quarantined crashes={crashes}");
            }
            Some(JobStatus::Drained) => {
                let _ = write!(out, " status=drained");
            }
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "listener frames_sent={} frames_received={} bytes_sent={} \
         bytes_received={} busy={} refused={} reaped={}",
        listener.frames_sent,
        listener.frames_received,
        listener.bytes_sent,
        listener.bytes_received,
        listener.busy,
        listener.refused,
        listener.reaped,
    );
    out
}

fn check_name(name: &str) -> Result<(), LinkageError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(LinkageError::Net(format!(
            "job name {name:?} is not filesystem-safe (use [A-Za-z0-9._-])"
        )))
    }
}

/// Writes a finished job's report with the same durability contract as
/// its journal: contents fsynced, then the directory entry.
fn write_report(path: &Path, text: &str, durable: bool) -> Result<(), LinkageError> {
    let io = |e: std::io::Error| LinkageError::Journal(format!("{}: {e}", path.display()));
    let mut file = File::create(path).map_err(io)?;
    file.write_all(text.as_bytes()).map_err(io)?;
    if durable {
        file.sync_data().map_err(io)?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent).and_then(|d| d.sync_all()).map_err(io)?;
        }
    }
    Ok(())
}

/// Best-effort metrics write: a failed dump is reported and ignored —
/// observability must never take a serving daemon down.
fn dump_metrics(path: &Path, slots: &[JobSlot], jobs: &[ServeJob], listener: &NetStats) {
    let text = render_metrics(slots, jobs, listener);
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("pprl-serve: metrics write {}: {e}", path.display());
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Exclusive advisory lock on a journal directory, held for the daemon's
/// lifetime. Dropping it (or dying) releases the lock: `flock(2)` locks
/// belong to the open file description, so a crashed daemon never leaves
/// a stale lock behind.
#[derive(Debug)]
struct DirLock {
    _file: Option<File>,
}

/// Takes `journal_dir/.pprl-serve.lock` with a non-blocking exclusive
/// `flock(2)`, refusing to start when another daemon already serves this
/// directory — two daemons appending to the same per-job journals would
/// interleave frames and corrupt both. On non-Unix targets the lock is a
/// no-op (the journal layer's own recovery still bounds the damage).
#[cfg(unix)]
fn lock_journal_dir(dir: &Path) -> Result<DirLock, LinkageError> {
    use std::os::fd::AsRawFd;
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    let path = dir.join(".pprl-serve.lock");
    let file = File::options()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| LinkageError::Journal(format!("{}: {e}", path.display())))?;
    if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
        return Err(LinkageError::Journal(format!(
            "{}: another serve daemon holds this journal directory ({})",
            path.display(),
            std::io::Error::last_os_error()
        )));
    }
    Ok(DirLock { _file: Some(file) })
}

#[cfg(not(unix))]
fn lock_journal_dir(_dir: &Path) -> Result<DirLock, LinkageError> {
    Ok(DirLock { _file: None })
}

/// Runs the multi-job party server until every job is finished,
/// quarantined, or the `drain` flag flips. `render` turns a finished
/// querier outcome into the report text persisted beside the journal and
/// re-served verbatim after a restart.
pub fn serve(
    jobs: &[ServeJob],
    opts: &ServeOptions,
    drain: &AtomicBool,
    render: &(dyn Fn(&ServeJob, &PartyOutcome) -> String + Sync),
) -> Result<ServeSummary, LinkageError> {
    if opts.max_jobs == 0 {
        return Err(LinkageError::Net("--max-jobs must be at least 1".into()));
    }
    if jobs.is_empty() {
        return Err(LinkageError::Net("serve needs at least one job".into()));
    }
    std::fs::create_dir_all(&opts.journal_dir)
        .map_err(|e| LinkageError::Journal(format!("{}: {e}", opts.journal_dir.display())))?;
    // Held until serve returns; a second daemon pointed at the same
    // journal directory fails fast here instead of corrupting journals.
    let _dirlock = lock_journal_dir(&opts.journal_dir)?;

    // Admit-table setup: fingerprint each job, detect journals sealed by
    // a previous daemon process, and queue the rest. No worker threads
    // exist yet, so the table is built bare and locked only afterwards.
    let mut slots = Vec::with_capacity(jobs.len());
    let mut params = Vec::with_capacity(jobs.len());
    let mut gate_states: HashMap<u64, GateState> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut backend: Option<Backend> = None;
    for (i, job) in jobs.iter().enumerate() {
        check_name(&job.name)?;
        let wire = wire_backend(&job.pipeline)?; // fail fast on a misconfigured job
        // One daemon announces one comparator backend in its handshakes
        // (the listener refuses mismatched dialers before routing), so a
        // mixed fleet must be split across daemons.
        match backend {
            None => backend = Some(wire),
            Some(b) if b != wire => {
                return Err(LinkageError::Net(format!(
                    "job {:?} runs the {wire} backend but this daemon already \
                     admitted a {b} job; serve one backend per daemon",
                    job.name,
                )))
            }
            Some(_) => {}
        }
        // Warm keypairs apply to Paillier jobs only; a CLK job has no
        // session crypto to pre-compute.
        params.push(match job.pipeline.config().mode {
            SmcMode::PaillierBatched {
                modulus_bits, seed, ..
            } => Some((modulus_bits, seed)),
            _ => None,
        });
        let fp = journal_run::fingerprint(
            &job.pipeline,
            &job.left,
            &job.right,
            &JournalOptions::default(),
        );
        let mut slot = JobSlot {
            fingerprint: fp,
            journal: opts.journal_dir.join(format!("{}.pprlj", job.name)),
            report: opts.journal_dir.join(format!("{}.report", job.name)),
            crashes: 0,
            status: None,
            report_text: None,
            started: None,
            elapsed: None,
        };
        if slot.journal.exists() {
            let recovered = pprl_journal::recover(&slot.journal)?;
            if recovered.fingerprint != fp {
                return Err(LinkageError::Journal(format!(
                    "journal {} belongs to a different job (fingerprint {:016x}, \
                     job {:?} has {fp:016x})",
                    slot.journal.display(),
                    recovered.fingerprint,
                    job.name
                )));
            }
            if parse_party_frames(&recovered.frames)?.done {
                // Sealed: the done marker is only ever written after the
                // report file is durable, so this read cannot miss.
                let text = std::fs::read_to_string(&slot.report).map_err(|e| {
                    LinkageError::Journal(format!("{}: {e}", slot.report.display()))
                })?;
                slot.report_text = Some(text);
                slot.status = Some(JobStatus::AlreadyDone);
            }
        }
        let state = gate_states.insert(
            fp,
            if slot.status.is_some() {
                GateState::Closed
            } else {
                GateState::Queued
            },
        );
        if state.is_some() {
            return Err(LinkageError::Net(format!(
                "jobs {:?} and an earlier job share fingerprint {fp:016x}: \
                 identical inputs and config are one job, not two",
                job.name
            )));
        }
        if slot.status.is_none() {
            queue.push_back(i);
        }
        slots.push(slot);
    }
    let table = Arc::new(Mutex::new(gate_states));

    let gate: AdmissionGate = {
        let table = Arc::clone(&table);
        let retry_after = opts.retry_after;
        Arc::new(move |hello| {
            let state = table
                .lock()
                .ok()
                .and_then(|t| t.get(&hello.fingerprint).copied());
            match state {
                Some(GateState::Running) => Admission::Accept,
                Some(GateState::Queued) => Admission::Busy { retry_after },
                Some(GateState::Closed) | None => Admission::Refuse,
            }
        })
    };
    let limits = MuxLimits {
        max_conns: opts.max_conns,
        idle_timeout: Some(opts.idle_timeout),
        ..MuxLimits::default()
    };
    let mux = Arc::new(
        SessionMux::bind_supervised(&opts.listen, Some(opts.timeout), Some(gate), limits)
            .map_err(|e| LinkageError::Net(e.to_string()))?,
    );
    if let Some(b) = backend {
        mux.set_identity(Role::Query, b);
    }
    announce(&mux, Role::Query);

    let set_state = |fp: u64, state: GateState| {
        if let Ok(mut t) = table.lock() {
            t.insert(fp, state);
        }
    };

    // Warm keypairs: prime generation once per distinct Paillier
    // parameters, pool attached before the first clone so every job
    // shares it.
    let mut warm: HashMap<(usize, u64), Arc<Keypair>> = HashMap::new();
    let mut warm_keys = |bits: usize, seed: u64| -> Arc<Keypair> {
        Arc::clone(warm.entry((bits, seed)).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys = Keypair::generate(&mut rng, bits);
            if opts.pool_prefill > 0 {
                let pool = pprl_crypto::RandomizerPool::prefill(
                    keys.public(),
                    opts.pool_prefill,
                    opts.pool_threads.max(1),
                    seed,
                );
                let _ = keys.attach_pool(pool);
            }
            Arc::new(keys)
        }))
    };

    let (tx, rx) = mpsc::channel::<(usize, Result<PartyOutcome, String>)>();
    std::thread::scope(|scope| -> Result<(), LinkageError> {
        let mut active = 0usize;
        loop {
            while active < opts.max_jobs && !drain.load(Ordering::SeqCst) {
                let Some(i) = queue.pop_front() else { break };
                let (Some(job), Some(slot), Some(&warm_params)) =
                    (jobs.get(i), slots.get_mut(i), params.get(i))
                else {
                    break; // the queue only ever holds indices it was built from
                };
                slot.started = Some(std::time::Instant::now());
                let keys = warm_params.map(|(bits, seed)| warm_keys(bits, seed));
                let mut popts = PartyOptions::new(Role::Query);
                popts.journal = Some(slot.journal.clone());
                popts.resume = slot.journal.exists();
                popts.timeout = opts.timeout;
                popts.deadline = opts.net_deadline;
                popts.durable = opts.durable;
                popts.silence = opts.silence_timeout;
                popts.window = opts.window;
                set_state(slot.fingerprint, GateState::Running);
                let tx = tx.clone();
                let mux = Arc::clone(&mux);
                let report_path = slot.report.clone();
                let durable = opts.durable;
                active += 1;
                scope.spawn(move || {
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        querier_job(
                            &job.pipeline,
                            &job.left,
                            &job.right,
                            &popts,
                            mux,
                            keys.as_deref(),
                        )
                    }));
                    let sealed = match attempt {
                        Ok(Ok((outcome, writer))) => {
                            // Two-phase finish: report durable first, then
                            // the done marker. A crash between the two
                            // re-runs the (fully journaled) job, which
                            // replays instantly and rewrites the same
                            // bytes.
                            let text = render(job, &outcome);
                            write_report(&report_path, &text, durable)
                                .and_then(|()| {
                                    if let Some(mut w) = writer {
                                        w.append(K_PARTY_DONE, &[])?;
                                        w.sync()?;
                                    }
                                    Ok(())
                                })
                                .map(|()| outcome)
                                .map_err(|e| e.to_string())
                        }
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(payload) => Err(panic_text(payload)),
                    };
                    let _ = tx.send((i, sealed));
                });
            }
            if active == 0 {
                break;
            }
            // Poll instead of blocking so an on-demand metrics request
            // (SIGUSR1 via `metrics_signal`) is served while jobs run.
            // recv can only fail once every sender is gone, and the
            // original `tx` outlives the loop — but stay panic-free.
            let received = loop {
                match rx.recv_timeout(Duration::from_millis(200)) {
                    Ok(msg) => break Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if let (Some(path), Some(flag)) =
                            (opts.metrics_path.as_deref(), opts.metrics_signal)
                        {
                            if flag.swap(false, Ordering::SeqCst) {
                                dump_metrics(path, &slots, jobs, &mux.stats());
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break None,
                }
            };
            let Some((i, sealed)) = received else { break };
            active -= 1;
            let (Some(slot), Some(job)) = (slots.get_mut(i), jobs.get(i)) else {
                continue; // workers only ever report indices they were given
            };
            slot.elapsed = slot.started.map(|t| t.elapsed());
            match sealed {
                Ok(outcome) => {
                    set_state(slot.fingerprint, GateState::Closed);
                    slot.report_text = Some(render(job, &outcome));
                    slot.status = Some(JobStatus::Finished(Box::new(outcome)));
                }
                Err(why) => {
                    slot.crashes += 1;
                    eprintln!(
                        "pprl-serve: job {:?} attempt {} failed: {why}",
                        job.name, slot.crashes
                    );
                    if slot.crashes >= opts.max_crashes {
                        set_state(slot.fingerprint, GateState::Closed);
                        slot.status = Some(JobStatus::Quarantined {
                            crashes: slot.crashes,
                            last_error: why,
                        });
                    } else {
                        set_state(slot.fingerprint, GateState::Queued);
                        queue.push_back(i);
                    }
                }
            }
        }
        Ok(())
    })?;

    let drained = drain.load(Ordering::SeqCst);
    // The drain/completion snapshot: always written when a metrics path
    // is configured, whether or not a signal ever fired.
    if let Some(path) = opts.metrics_path.as_deref() {
        dump_metrics(path, &slots, jobs, &mux.stats());
    }
    let reports = slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, job)| JobReport {
            name: job.name.clone(),
            fingerprint: slot.fingerprint,
            report: slot.report_text,
            status: slot.status.unwrap_or(JobStatus::Drained),
        })
        .collect();
    Ok(ServeSummary {
        jobs: reports,
        net: mux.stats(),
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pprl-serve-lock-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[cfg(unix)]
    #[test]
    fn journal_dir_lock_excludes_second_holder() {
        let dir = scratch_dir("exclusive");
        let first = lock_journal_dir(&dir).expect("first lock succeeds");
        let second = lock_journal_dir(&dir);
        assert!(
            matches!(second, Err(LinkageError::Journal(ref m)) if m.contains("another serve daemon")),
            "second lock on a held directory must fail: {second:?}"
        );
        drop(first);
        lock_journal_dir(&dir).expect("lock is free again after release");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_dir_lock_is_reentrant_across_directories() {
        let a = scratch_dir("dir-a");
        let b = scratch_dir("dir-b");
        let _la = lock_journal_dir(&a).expect("lock dir a");
        let _lb = lock_journal_dir(&b).expect("independent dir b locks fine");
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}

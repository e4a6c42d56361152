//! Windowed-pipelining acceptance: the send window is a pure deployment
//! knob.
//!
//! Four angles, the first two once per wire backend:
//!
//! 1. **Crash mid-window under chaos** — a three-process session at
//!    `--window 32` with a seeded drop-fault proxy on the Bob↔querier
//!    leg; Bob is SIGKILLed once his journal shows committed progress and
//!    resumed from it. The querier's report must be byte-identical to the
//!    uninterrupted single-process run.
//! 2. **Deterministic unobservability** — the same session at `--window 1`
//!    and `--window 32` produces byte-identical reports *and*
//!    byte-identical holder journals.
//! 3. **Property-based unobservability** — in-process three-party
//!    sessions at proptest-sampled window sizes always reproduce the
//!    window-1 baseline's match digest, protocol ledger, and both
//!    holders' journal bytes.
//! 4. **Holder journals pinned across revisions** — Alice's and Bob's
//!    journal bytes at windows 1, 8 and 32 hash to digests taken from the
//!    revision that still had one holder loop per backend, role and
//!    window shape.

#![cfg(unix)]

use pprl_core::{HybridLinkage, LinkageConfig, PartyOptions, PartyOutcome, Role};
use pprl_journal::fnv1a64;
use pprl_net::{ChaosConfig, ChaosProxy};
use pprl_smc::{SmcAllowance, SmcMode};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pprl-link")
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-pipeline-window-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synth(dir: &Path) {
    let status = Command::new(bin())
        .args(["synth", "--records", "60", "--seed", "7", "--out"])
        .arg(dir)
        .status()
        .unwrap();
    assert!(status.success(), "synth failed");
}

/// One wire backend of the three-process matrix: the flags every party
/// passes, and what the single-process reference run adds to them. A CLK
/// pair costs microseconds where a Paillier pair costs milliseconds, so
/// the bloom job takes a larger allowance: its walk has to outlast the
/// poll that times the mid-window kill.
struct Backend {
    name: &'static str,
    args: &'static [&'static str],
    reference_args: &'static [&'static str],
}

const BACKENDS: [Backend; 2] = [
    Backend {
        name: "paillier",
        args: &["--allowance-pct", "2.0", "--paillier", "256"],
        reference_args: &["--fault-rate", "0"],
    },
    Backend {
        name: "bloom",
        args: &["--allowance-pct", "50", "--backend", "bloom"],
        reference_args: &[],
    },
];

/// The shared RUN OPTIONS every process (and the reference) uses.
fn common_args(dir: &Path, backend: &Backend) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--left".into(),
        dir.join("d1.csv").display().to_string(),
        "--right".into(),
        dir.join("d2.csv").display().to_string(),
        "--threads".into(),
        "1".into(),
    ];
    args.extend(backend.args.iter().map(|s| s.to_string()));
    args
}

/// The fault-free single-process reference report.
fn reference_report(dir: &Path, backend: &Backend) -> String {
    let out = Command::new(bin())
        .arg("run")
        .args(common_args(dir, backend))
        .args(backend.reference_args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A spawned party with its stderr drained on a thread.
struct Party {
    child: Child,
    stderr: std::sync::mpsc::Receiver<String>,
}

fn spawn_party(dir: &Path, backend: &Backend, role: &str, extra: &[String]) -> Party {
    let mut child = Command::new(bin())
        .arg("party")
        .args(["--role", role])
        .args(common_args(dir, backend))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let pipe = child.stderr.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    Party { child, stderr: rx }
}

impl Party {
    fn listen_addr(&mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.stderr.recv_timeout(Duration::from_millis(200)) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("pprl-net: ").and_then(|rest| {
                        rest.split(" listening on ").nth(1).map(str::to_string)
                    }) {
                        return addr;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(_) => break,
            }
        }
        panic!("party never announced a listener");
    }

    fn finish(mut self) -> String {
        let status = self.child.wait().unwrap();
        let mut stdout = String::new();
        if let Some(mut pipe) = self.child.stdout.take() {
            use std::io::Read;
            pipe.read_to_string(&mut stdout).unwrap();
        }
        let stderr: Vec<String> = self.stderr.iter().collect();
        if !status.success() {
            panic!("party exited with {status}: {}", stderr.join("\n"));
        }
        stdout
    }
}

/// SIGKILL Bob mid-window under seeded drop faults, resume from his
/// journal: the querier's report never changes by a byte.
#[test]
fn sigkill_mid_window_with_chaos_resumes_byte_identical() {
    for backend in &BACKENDS {
        sigkill_mid_window(backend);
    }
}

fn sigkill_mid_window(backend: &Backend) {
    let dir = work_dir(&format!("sigkill-{}", backend.name));
    synth(&dir);
    let reference = reference_report(&dir, backend);
    let journal = dir.join("bob.pprlj");
    let window_args = |extra: &[&str]| -> Vec<String> {
        let mut v: Vec<String> = vec!["--window".into(), "32".into()];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    let mut query = spawn_party(&dir, backend, "query", &[]);
    let qaddr: SocketAddr = query.listen_addr().parse().unwrap();
    // Seeded drop faults on the Bob↔querier leg: retransmits and
    // reconnects land *inside* an occupied 32-pair window. The leg is
    // paced too, so each window costs a few milliseconds of round trip: a
    // CLK walk on raw loopback can finish inside one poll of the kill
    // loop below.
    let mut cfg = ChaosConfig::fault_family("drop", 1).unwrap();
    cfg.delay_ms = 4;
    cfg.jitter_ms = 4;
    let proxy = ChaosProxy::start("127.0.0.1:0", qaddr, cfg).unwrap();

    let mut alice = spawn_party(
        &dir,
        backend,
        "alice",
        &window_args(&["--connect-querier", &qaddr.to_string()]),
    );
    let aaddr = alice.listen_addr();
    let bob_args = window_args(&[
        "--connect-querier",
        &proxy.local_addr().to_string(),
        "--connect-alice",
        &aaddr,
        "--journal",
        &journal.display().to_string(),
    ]);
    let mut bob = spawn_party(&dir, backend, "bob", &bob_args);

    // Kill Bob once his journal shows real committed pair progress. The
    // budget is generous because debug-profile Paillier keygen alone can
    // eat tens of seconds on a loaded machine; release exits this loop at
    // the first committed window.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let size = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        if size > 4_096 {
            break;
        }
        assert!(Instant::now() < deadline, "bob never made journal progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    bob.child.kill().unwrap();
    let _ = bob.child.wait();

    // Resume him through the same chaos proxy.
    let mut resume_args = bob_args;
    resume_args.push("--resume".to_string());
    let bob2 = spawn_party(&dir, backend, "bob", &resume_args);

    let report = query.finish();
    alice.finish();
    bob2.finish();
    assert!(
        proxy.stats().dropped_chunks > 0,
        "{}: the chaos leg never dropped anything; the soak was not a soak",
        backend.name
    );
    assert_eq!(
        report, reference,
        "{}: SIGKILL at window 32 under drop faults must not change the report",
        backend.name
    );
}

/// Runs one full three-process session with Bob journaled at the given
/// window; returns `(querier report, bob journal bytes)`.
fn run_session_at_window(
    dir: &Path,
    backend: &Backend,
    window: usize,
    tag: &str,
) -> (String, Vec<u8>) {
    let journal = dir.join(format!("bob-{tag}.pprlj"));
    let w = window.to_string();
    let mut query = spawn_party(dir, backend, "query", &[]);
    let qaddr = query.listen_addr();
    let mut alice = spawn_party(
        dir,
        backend,
        "alice",
        &[
            "--connect-querier".into(),
            qaddr.clone(),
            "--window".into(),
            w.clone(),
        ],
    );
    let aaddr = alice.listen_addr();
    let bob = spawn_party(
        dir,
        backend,
        "bob",
        &[
            "--connect-querier".into(),
            qaddr,
            "--connect-alice".into(),
            aaddr,
            "--window".into(),
            w,
            "--journal".into(),
            journal.display().to_string(),
            "--no-fsync".into(),
        ],
    );
    let report = query.finish();
    alice.finish();
    bob.finish();
    (report, std::fs::read(&journal).unwrap())
}

/// Window-1 and window-32 sessions must be indistinguishable in both the
/// querier's report and the holder's journal bytes.
#[test]
fn window_size_is_unobservable_in_report_and_journal_bytes() {
    for backend in &BACKENDS {
        let name = backend.name;
        let dir = work_dir(&format!("unobservable-{name}"));
        synth(&dir);
        let reference = reference_report(&dir, backend);

        let (report_w1, journal_w1) = run_session_at_window(&dir, backend, 1, "w1");
        let (report_w32, journal_w32) = run_session_at_window(&dir, backend, 32, "w32");
        assert_eq!(report_w1, reference, "{name}: window 1 drifted from single-process");
        assert_eq!(report_w32, reference, "{name}: window 32 drifted from single-process");
        assert_eq!(
            journal_w1, journal_w32,
            "{name}: the holder journal must be byte-identical at any window"
        );
    }
}

/// What one in-process session leaves behind: the querier's match set and
/// protocol ledger, and both holders' journal bytes.
#[derive(Debug, PartialEq, Eq)]
struct SessionBytes {
    matched: Vec<(u32, u32)>,
    ledger_messages: u64,
    ledger_bytes: u64,
    alice_journal: Vec<u8>,
    bob_journal: Vec<u8>,
}

const PAILLIER_SCALAR: SmcMode = SmcMode::PaillierBatched {
    modulus_bits: 256,
    seed: 42,
    pack: false,
};

/// One in-process three-party session (threads over loopback TCP) at the
/// given window, both holders journaled (no fsync) under `dir`.
fn in_process_session(mode: SmcMode, window: usize, dir: &Path) -> SessionBytes {
    let scenario = pprl_core::SyntheticScenario::builder()
        .records_per_set(40)
        .seed(7)
        .build();
    let (d1, d2) = scenario.data_sets();
    let mut config = LinkageConfig::paper_defaults()
        .with_allowance(SmcAllowance::Fraction(0.02));
    config.mode = mode;
    config.channel = None;

    let reserve = || {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("loopback bind")
    };
    let q_addr = reserve();
    let a_addr = reserve();
    let alice_journal = dir.join("alice.pprlj");
    let bob_journal = dir.join("bob.pprlj");
    let spawn = |role: Role, f: Box<dyn FnOnce(&mut PartyOptions) + Send>| {
        let config = config.clone();
        let (d1, d2) = (d1.clone(), d2.clone());
        std::thread::spawn(move || -> PartyOutcome {
            let pipeline = HybridLinkage::new(config).with_threads(1);
            let mut popts = PartyOptions::new(role);
            popts.window = window;
            popts.durable = false;
            f(&mut popts);
            pprl_core::run_party(&pipeline, &d1, &d2, &popts).expect("party run")
        })
    };
    let query = spawn(
        Role::Query,
        Box::new(move |p| p.listen = Some(q_addr.to_string())),
    );
    let journal = alice_journal.clone();
    let alice = spawn(
        Role::Alice,
        Box::new(move |p| {
            p.listen = Some(a_addr.to_string());
            p.querier_addr = Some(q_addr);
            p.journal = Some(journal);
        }),
    );
    let journal = bob_journal.clone();
    let bob = spawn(
        Role::Bob,
        Box::new(move |p| {
            p.querier_addr = Some(q_addr);
            p.alice_addr = Some(a_addr);
            p.journal = Some(journal);
        }),
    );
    let q_out = query.join().expect("querier thread");
    let a_out = alice.join().expect("alice thread");
    let b_out = bob.join().expect("bob thread");
    assert!(
        a_out.outcome.is_none() && b_out.outcome.is_none(),
        "holders never learn decisions"
    );

    let outcome = q_out.outcome.expect("querier outcome");
    let mut matched: Vec<(u32, u32)> = outcome.matched_rows().collect();
    matched.sort_unstable();
    SessionBytes {
        matched,
        ledger_messages: outcome.ledger.messages,
        ledger_bytes: outcome.ledger.bytes,
        alice_journal: std::fs::read(&alice_journal).expect("alice journal"),
        bob_journal: std::fs::read(&bob_journal).expect("bob journal"),
    }
}

/// The window-1 baseline, computed once and shared by every proptest case.
fn window_one_baseline() -> &'static SessionBytes {
    static BASELINE: OnceLock<SessionBytes> = OnceLock::new();
    BASELINE.get_or_init(|| in_process_session(PAILLIER_SCALAR, 1, &work_dir("prop-baseline")))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 4, // each case is a full three-party TCP session
        .. proptest::prelude::ProptestConfig::default()
    })]

    /// Any sampled window size reproduces the window-1 baseline exactly:
    /// same match set, same protocol ledger, same journal bytes.
    #[test]
    fn any_window_size_reproduces_the_lockstep_session(window in 2usize..48) {
        let got = in_process_session(PAILLIER_SCALAR, window, &work_dir(&format!("prop-w{window}")));
        proptest::prop_assert_eq!(&got, window_one_baseline());
    }
}

/// Holder-journal pins: `(name, mode, Alice's journal FNV-1a-64, Bob's)`,
/// taken from commit 915f542 — the last revision with separate lockstep,
/// windowed-Alice and windowed-Bob loops per backend — on the same
/// offline-stub build the `backend_parity.rs` pins come from.
fn holder_journal_pins() -> [(&'static str, SmcMode, u64, u64); 2] {
    [
        (
            "paillier-packed",
            SmcMode::PaillierBatched {
                modulus_bits: 256,
                seed: 42,
                pack: true,
            },
            0x522e3d8b6dcde7d9,
            0x4bebb32cee17d09d,
        ),
        (
            "bloom",
            SmcMode::Bloom {
                params: pprl_bloom::ClkParams::paper_defaults(42),
            },
            0x2278ee45ec5a2854,
            0xbd9741054df219fe,
        ),
    ]
}

/// Both holders' journals are the same bytes at windows 1, 8 and 32, and
/// the same bytes the previous revision wrote.
#[test]
fn holder_journals_match_the_pinned_digests_at_every_window() {
    for (name, mode, alice_fnv, bob_fnv) in holder_journal_pins() {
        let run = |window: usize| {
            in_process_session(mode, window, &work_dir(&format!("pin-{name}-w{window}")))
        };
        let at_one = run(1);
        for window in [8, 32] {
            assert_eq!(run(window), at_one, "{name}: window {window} differs from window 1");
        }
        let (alice, bob) = (fnv1a64(&at_one.alice_journal), fnv1a64(&at_one.bob_journal));
        assert!(
            (alice, bob) == (alice_fnv, bob_fnv),
            "{name}: holder journals drifted from the pinned revision: \
             alice {alice:#018x} ({} bytes), bob {bob:#018x} ({} bytes)",
            at_one.alice_journal.len(),
            at_one.bob_journal.len()
        );
    }
}

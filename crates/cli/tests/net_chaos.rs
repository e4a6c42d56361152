//! Socket-level chaos soak and hostile-peer soak.
//!
//! The chaos soak parks a seeded [`ChaosProxy`] between Bob and the
//! querier and drives a full three-process linkage through every fault
//! family at two seeds each. The acceptance bar is brutal and simple: the
//! querier's report — matched-pair digest *and* cost-ledger byte counts —
//! must be byte-identical to the fault-free single-process run, every
//! time. Retransmits, reconnects, and violations may only ever show up in
//! the off-ledger `NetStats`.
//!
//! The hostile-peer soak floods a serving daemon with garbage dialers,
//! protocol-violating dialers, and a pile of half-open connections while
//! an honest job runs to completion, then drains the daemon with SIGTERM
//! and demands exit status 0.

#![cfg(unix)]

use pprl_net::frame::{encode_frame, K_DATA};
use pprl_net::{ChaosConfig, ChaosProxy};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pprl-link")
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-net-chaos-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synth(dir: &Path, records: u32, seed: u64) {
    let status = Command::new(bin())
        .args(["synth", "--records", &records.to_string(), "--seed", &seed.to_string(), "--out"])
        .arg(dir)
        .status()
        .unwrap();
    assert!(status.success(), "synth failed");
}

/// The shared RUN OPTIONS every process (and the reference) uses.
fn common_args(dir: &Path) -> Vec<String> {
    vec![
        "--left".into(),
        dir.join("d1.csv").display().to_string(),
        "--right".into(),
        dir.join("d2.csv").display().to_string(),
        "--allowance-pct".into(),
        "2.0".into(),
        "--paillier".into(),
        "256".into(),
        "--threads".into(),
        "1".into(),
    ]
}

/// The fault-free single-process reference report; `backend` is either
/// the simulated channel switched off or a `--backend` override.
fn reference_report(dir: &Path, backend: &[&str]) -> String {
    let out = Command::new(bin())
        .arg("run")
        .args(common_args(dir))
        .args(backend)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `run` flags for the Paillier reference: the batched protocol over a
/// fault-free simulated channel.
const PAILLIER_REFERENCE: &[&str] = &["--fault-rate", "0"];

/// Later flags win, so this turns [`common_args`] into the CLK job: same
/// corpus, and an allowance large enough (1800 pairs) that a seeded drop
/// lands inside the walk.
const BLOOM: &[&str] = &["--backend", "bloom", "--allowance-pct", "50"];

/// A spawned process with stderr drained on a thread (so the child never
/// blocks on a full pipe) and scanned for announcement lines.
struct Proc {
    child: Child,
    stderr: std::sync::mpsc::Receiver<String>,
    collected: Vec<String>,
}

fn spawn_args(args: Vec<String>) -> Proc {
    let mut child = Command::new(bin())
        .args(args)
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
    Proc {
        child,
        stderr: rx,
        collected: Vec::new(),
    }
}

impl Proc {
    /// Blocks until a stderr line contains `marker`, returning the text
    /// after it up to the next space (or end of line).
    fn await_announce(&mut self, marker: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.stderr.recv_timeout(Duration::from_millis(200)) {
                Ok(line) => {
                    let found = line.split(marker).nth(1).map(|rest| {
                        rest.split_whitespace().next().unwrap_or(rest).to_string()
                    });
                    self.collected.push(line);
                    if let Some(found) = found {
                        return found;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(_) => break,
            }
        }
        panic!("no {marker:?} announcement; stderr: {:?}", self.collected);
    }

    fn listen_addr(&mut self) -> String {
        self.await_announce(" listening on ")
    }

    /// Waits for exit, panicking (with stderr) on failure. Returns
    /// `(stdout, stderr lines)`.
    fn finish(mut self) -> (String, Vec<String>) {
        let status = self.child.wait().unwrap();
        let mut stdout = String::new();
        if let Some(mut pipe) = self.child.stdout.take() {
            use std::io::Read;
            pipe.read_to_string(&mut stdout).unwrap();
        }
        self.collected.extend(self.stderr.iter());
        if !status.success() {
            panic!("process exited with {status}: {}", self.collected.join("\n"));
        }
        (stdout, self.collected)
    }
}

fn spawn_party(dir: &Path, role: &str, extra: &[String]) -> Proc {
    let mut args = vec!["party".to_string(), "--role".to_string(), role.to_string()];
    args.extend(common_args(dir));
    args.extend(extra.to_vec());
    spawn_args(args)
}

/// Every fault family, two seeds each, full session through the chaos
/// proxy on the Bob↔querier leg: the report never changes by a byte.
#[test]
fn chaos_soak_keeps_the_report_byte_identical_across_every_fault_family() {
    let dir = work_dir("soak");
    synth(&dir, 60, 7);
    let paillier_reference = reference_report(&dir, PAILLIER_REFERENCE);
    let bloom_reference = reference_report(&dir, BLOOM);

    // (backend override, fault family, proxy seed, holder send window).
    // Seed 1 soaks window 1; seed 2 reruns the same family with a 32-pair
    // send window on the holders — pipelining must be just as
    // chaos-proof, to the byte. The CLK exchange rides the same holder
    // loop; one windowed row holds its smaller frames to the same bar.
    let mut cases: Vec<(&[&str], &str, u64, &[&str])> = Vec::new();
    for family in ChaosConfig::FAMILIES {
        cases.push((&[], family, 1, &[]));
        cases.push((&[], family, 2, &["--window", "32"]));
    }
    cases.push((BLOOM, "drop", 2, &["--window", "32"]));

    let mut injected = 0u64;
    for (backend, family, seed, window) in cases {
        eprintln!("chaos soak: {backend:?} family={family} seed={seed} window={window:?}");
        let reference = if backend.is_empty() {
            &paillier_reference
        } else {
            &bloom_reference
        };
        let party_args = |head: &[String], tail: &[&str]| -> Vec<String> {
            let flags = backend.iter().chain(tail).map(|s| s.to_string());
            head.iter().cloned().chain(flags).collect()
        };
        // The querier binds fresh per run; the proxy fronts it for Bob.
        let mut query = spawn_party(&dir, "query", &party_args(&[], &[]));
        let qaddr: std::net::SocketAddr = query.listen_addr().parse().unwrap();
        let cfg = ChaosConfig::fault_family(family, seed).unwrap();
        let proxy = ChaosProxy::start("127.0.0.1:0", qaddr, cfg).unwrap();

        let mut alice = spawn_party(
            &dir,
            "alice",
            &party_args(&["--connect-querier".to_string(), qaddr.to_string()], window),
        );
        let aaddr = alice.listen_addr();
        let bob_args = [
            "--connect-querier".to_string(),
            proxy.local_addr().to_string(),
            "--connect-alice".to_string(),
            aaddr,
        ];
        let bob = spawn_party(&dir, "bob", &party_args(&bob_args, window));
        let (report, _) = query.finish();
        alice.finish();
        bob.finish();

        let stats = proxy.stats();
        assert!(
            stats.relayed_bytes > 0,
            "{backend:?} family {family} seed {seed}: the session never crossed the proxy"
        );
        injected += stats.dropped_chunks
            + stats.duplicated_chunks
            + stats.corrupted_chunks
            + stats.resets
            + stats.partitions;
        assert_eq!(
            &report, reference,
            "{backend:?} family {family} seed {seed}: the report drifted under chaos \
             (proxy census: {stats})"
        );
    }
    // The soak must have been a soak: across all fault families and seeds
    // the proxy injected real faults, and not one reached the report.
    assert!(injected > 0, "no fault family ever fired");
}

/// The standalone `pprl-link chaosproxy` subcommand relays a full session,
/// drains on SIGTERM with exit status 0, and prints its fault census.
#[test]
fn chaosproxy_subcommand_relays_a_session_and_drains_on_sigterm() {
    let dir = work_dir("subcommand");
    synth(&dir, 60, 7);
    let reference = reference_report(&dir, PAILLIER_REFERENCE);

    let mut query = spawn_party(&dir, "query", &[]);
    let qaddr = query.listen_addr();
    let mut proxy = spawn_args(vec![
        "chaosproxy".into(),
        "--upstream".into(),
        qaddr.clone(),
        "--family".into(),
        "split".into(),
        "--seed".into(),
        "3".into(),
    ]);
    let paddr = proxy.listen_addr();

    let mut alice = spawn_party(&dir, "alice", &["--connect-querier".into(), qaddr]);
    let aaddr = alice.listen_addr();
    let bob = spawn_party(
        &dir,
        "bob",
        &["--connect-querier".into(), paddr, "--connect-alice".into(), aaddr],
    );
    let (report, _) = query.finish();
    alice.finish();
    bob.finish();
    assert_eq!(report, reference, "report drifted through the chaosproxy subcommand");

    let term = Command::new("kill")
        .args(["-TERM", &proxy.child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success(), "kill -TERM failed");
    let (_, proxy_err) = proxy.finish(); // panics unless exit status 0
    assert!(
        proxy_err.iter().any(|l| l.starts_with("pprl-chaos: ") && l.contains("relayed")),
        "proxy never printed its fault census: {proxy_err:?}"
    );
}

/// Parses one counter out of a `net[...]` accounting line, e.g.
/// `field = "refused"` from `"... 2 refused, ..."`.
fn net_field(lines: &[String], field: &str) -> u64 {
    lines
        .iter()
        .filter(|line| line.starts_with("serve: drained="))
        .filter_map(|line| {
            let (head, _) = line.split_once(&format!(" {field}"))?;
            head.rsplit(' ').next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Floods a serving daemon with hostile connections while an honest job
/// completes, then drains with SIGTERM. Honest report byte-identical,
/// hostile load visible only in the daemon's connection accounting.
#[test]
fn hostile_peers_cannot_stall_or_corrupt_a_serving_daemon() {
    let dir = work_dir("hostile");
    let j1 = dir.join("j1");
    let j2 = dir.join("j2");
    for (job_dir, seed) in [(&j1, 41u64), (&j2, 42)] {
        std::fs::create_dir_all(job_dir).unwrap();
        synth(job_dir, 60, seed);
    }
    let reference = reference_report(&j1, PAILLIER_REFERENCE);

    let mut args = vec![
        "party".to_string(),
        "serve".to_string(),
        "--journal-dir".to_string(),
        dir.join("journals").display().to_string(),
    ];
    for (name, job_dir) in [("j1", &j1), ("j2", &j2)] {
        args.push("--job".to_string());
        args.push(format!(
            "{name}={},{}",
            job_dir.join("d1.csv").display(),
            job_dir.join("d2.csv").display()
        ));
    }
    args.extend(common_args(&j1).into_iter().skip(4)); // shared RUN OPTIONS only
    args.extend(
        [
            "--max-jobs", "1", "--retry-after-ms", "100", "--no-fsync",
            "--max-conns", "10", "--idle-timeout-ms", "2000",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    let mut daemon = spawn_args(args);
    let daemon_addr = daemon.listen_addr();

    // Wave one: protocol violators — a well-formed data frame where only
    // a hello may appear. Each costs exactly its own connection.
    let mut hostiles: Vec<TcpStream> = Vec::new();
    for _ in 0..3 {
        if let Ok(mut sock) = TcpStream::connect(&daemon_addr) {
            let rogue = encode_frame(K_DATA, &[0u8; 64]);
            let _ = sock.write_all(&rogue);
            hostiles.push(sock);
        }
    }
    // Wave two: garbage bytes that are not even a frame.
    for _ in 0..3 {
        if let Ok(mut sock) = TcpStream::connect(&daemon_addr) {
            let _ = sock.write_all(b"GET / HTTP/1.1\r\nHost: pprl\r\n\r\n");
            hostiles.push(sock);
        }
    }
    // Wave three: a pile of half-open connections that never say anything.
    // More than --max-conns, so the tail must get typed refusals while the
    // head squats on greeter slots until the handshake deadline reaps them.
    for _ in 0..14 {
        if let Ok(sock) = TcpStream::connect(&daemon_addr) {
            hostiles.push(sock);
        }
    }

    // The honest job dials into the middle of the flood and must complete.
    let holder = |role: &str, connect: Vec<String>| {
        let mut args = vec!["party".to_string(), "--role".to_string(), role.to_string()];
        args.extend(common_args(&j1));
        args.extend(connect);
        spawn_args(args)
    };
    let mut alice = holder(
        "alice",
        vec!["--connect-querier".to_string(), daemon_addr.clone()],
    );
    let alice_addr = alice.listen_addr();
    let bob = holder(
        "bob",
        vec![
            "--connect-querier".to_string(),
            daemon_addr,
            "--connect-alice".to_string(),
            alice_addr,
        ],
    );

    // SIGTERM once j1 is demonstrably mid-flight: the drain must finish
    // j1 through the hostile pile, never start j2 (which has no holders),
    // and exit 0.
    let report_file = dir.join("journals").join("j1.report");
    let journal_file = dir.join("journals").join("j1.pprlj");
    let deadline = Instant::now() + Duration::from_secs(180);
    while std::fs::metadata(&journal_file).map(|m| m.len()).unwrap_or(0) <= 4_096 {
        assert!(
            Instant::now() < deadline,
            "honest job never made progress under hostile load"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success(), "kill -TERM failed");

    let (_, daemon_err) = daemon.finish(); // panics unless exit status 0
    alice.finish();
    bob.finish();
    drop(hostiles);

    assert_eq!(
        std::fs::read_to_string(&report_file).unwrap(),
        reference,
        "the honest job's report must be byte-identical under hostile load"
    );
    assert!(
        net_field(&daemon_err, "violations") >= 1,
        "the rogue data frames must be counted as violations: {daemon_err:?}"
    );
    assert!(
        net_field(&daemon_err, "refused") >= 1,
        "half-open dialers beyond --max-conns must get typed refusals: {daemon_err:?}"
    );
}

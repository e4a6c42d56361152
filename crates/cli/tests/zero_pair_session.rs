//! A three-party session whose SMC schedule is empty must end at once.
//!
//! With `--allowance-pct 0` no pair is exchanged, so nothing ever touches
//! the Alice–Bob link — but Bob dials it at startup and blocks on Alice's
//! hello reply. Alice used to return without answering and close her
//! listener: Bob then failed after `no connection to alice within 30s`, and
//! the querier waited out the same deadline for his ledger. Every party
//! must now exit cleanly within five seconds, on both backends.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const LIMIT: Duration = Duration::from_secs(5);

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pprl-link")
}

fn spawn_party(dir: &Path, backend: &str, role: &str, extra: &[&str]) -> Child {
    Command::new(bin())
        .args(["party", "--role", role, "--backend", backend])
        .arg("--left")
        .arg(dir.join("d1.csv"))
        .arg("--right")
        .arg(dir.join("d2.csv"))
        .args(["--allowance-pct", "0", "--paillier", "256"])
        .args(["--threads", "1"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

/// Reads the party's stderr up to its listener announcement and returns the
/// address together with the reader (the rest is read at exit).
fn listen_addr(child: &mut Child) -> (String, BufReader<std::process::ChildStderr>) {
    let mut lines = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    while lines.read_line(&mut line).unwrap() > 0 {
        if let Some(addr) = line
            .strip_prefix("pprl-net: ")
            .and_then(|rest| rest.trim_end().split(" listening on ").nth(1))
        {
            return (addr.to_string(), lines);
        }
        line.clear();
    }
    panic!("party exited without announcing a listener");
}

/// Waits for a clean exit by `deadline`, killing the party when it passes
/// (so a failure leaves no process behind). Returns what went wrong.
fn finish_by(mut child: Child, mut stderr: impl Read, deadline: Instant) -> Option<String> {
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().unwrap();
            let _ = child.wait();
            return Some(format!("still running {LIMIT:?} after the session opened"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut log = String::new();
    stderr.read_to_string(&mut log).unwrap();
    (!status.success()).then(|| format!("exited with {status}: {log}"))
}

#[test]
fn a_session_with_no_pairs_ends_promptly_on_both_backends() {
    let dir = std::env::temp_dir().join("pprl-zero-pair-session");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let synth = Command::new(bin())
        .args(["synth", "--records", "120", "--seed", "7", "--out"])
        .arg(&dir)
        .status()
        .unwrap();
    assert!(synth.success(), "synth failed");

    for backend in ["paillier", "bloom"] {
        let mut query = spawn_party(&dir, backend, "query", &[]);
        let (qaddr, query_err) = listen_addr(&mut query);
        let mut alice = spawn_party(&dir, backend, "alice", &["--connect-querier", &qaddr]);
        let (aaddr, alice_err) = listen_addr(&mut alice);
        let mut bob = spawn_party(
            &dir,
            backend,
            "bob",
            &["--connect-querier", &qaddr, "--connect-alice", &aaddr],
        );
        let bob_err = bob.stderr.take().unwrap();

        let deadline = Instant::now() + LIMIT;
        let failures: Vec<String> = [
            ("alice", finish_by(alice, alice_err, deadline)),
            ("bob", finish_by(bob, bob_err, deadline)),
            ("querier", finish_by(query, query_err, deadline)),
        ]
        .into_iter()
        .filter_map(|(role, failure)| Some(format!("{backend} {role} {}", failure?)))
        .collect();
        assert!(failures.is_empty(), "{failures:#?}");
    }
}

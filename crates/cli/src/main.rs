//! `pprl-link` — hybrid private record linkage from the command line.
//!
//! ```sh
//! # Generate a reproducible two-holder scenario as adult.data-format CSVs:
//! pprl-link synth --records 2000 --seed 7 --out /tmp/demo
//!
//! # Link the two files with the paper's defaults and print the report:
//! pprl-link run --left /tmp/demo/d1.csv --right /tmp/demo/d2.csv
//!
//! # Tune the three-way trade-off:
//! pprl-link run --left d1.csv --right d2.csv \
//!     --k 64 --theta 0.05 --allowance-pct 2.0 --heuristic maxlast --json
//!
//! # Inspect exactly what a holder would publish:
//! pprl-link anonymize --input d1.csv --k 32 --method entropy
//! ```

use pprl_anon::{AnonymizationMethod, Anonymizer, KAnonymityRequirement};
use pprl_core::{journal_run, HybridLinkage, LinkageConfig, LinkageOutcome};
use pprl_data::loader::load_adult;
use pprl_smc::{
    ChannelConfig, DeadlineBudget, FaultConfig, LabelingStrategy, RetryPolicy, SelectionHeuristic,
    SmcAllowance, SmcMode,
};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `party serve` is the daemon spelling of the top-level `serve`.
    let (cmd, rest) = if cmd == "party" && rest.first().map(String::as_str) == Some("serve") {
        ("serve", &rest[1..])
    } else {
        (cmd.as_str(), rest)
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "synth" => cmd_synth(&opts),
        "run" => cmd_run(&opts),
        "party" => cmd_party(&opts),
        "serve" => cmd_serve(&opts),
        "anonymize" => cmd_anonymize(&opts),
        "block" => cmd_block(&opts),
        "chaosproxy" => cmd_chaosproxy(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pprl-link — hybrid private record linkage (ICDE 2008 reproduction)

USAGE:
  pprl-link synth     --out DIR [--records N] [--seed S]
  pprl-link run       --left FILE --right FILE [options]
  pprl-link party     --role R --left FILE --right FILE [options]
  pprl-link party serve --job NAME=LEFT,RIGHT [--job ...] --journal-dir DIR [options]
  pprl-link anonymize --input FILE [--k K] [--method M] [--qids Q] [--publish FILE]
  pprl-link block     --left-view FILE --right-view FILE [--theta T]
  pprl-link chaosproxy --upstream ADDR [--listen ADDR] [--family F] [--seed S]

`anonymize --publish` writes the k-anonymous release to a file; `block`
labels the pair space from two published views alone — no plaintext ever
crosses the boundary, exactly the protocol's trust model.

RUN OPTIONS:
  --k K               anonymity requirement for both holders   [32]
  --k-left K          override left holder's k
  --k-right K         override right holder's k
  --theta T           matching threshold θ for all attributes  [0.05]
  --qids Q            number of quasi-identifiers (top-q)      [5]
  --allowance-pct P   SMC allowance as % of all pairs          [1.5]
  --heuristic H       minfirst | maxlast | minavg | random     [minavg]
  --method M          entropy | tds | datafly | mondrian       [entropy]
  --strategy S        precision | recall | classifier          [precision]
  --paillier BITS     run real Paillier SMC with BITS-bit keys (slow)
  --backend B         comparator backend: paillier | bloom. Runs party
                      mode's wire protocol in process: the same messages,
                      handed over directly, not the same frames — under
                      paillier the ledger has no acks and no key broadcast
                      (--fault-rate 0 meters those). `bloom` compares
                      q-gram CLK Bloom filters by Dice similarity instead
                      of exact Paillier distances
  --clk-len N         bloom: CLK filter length in bits          [1000]
  --clk-hashes N      bloom: hash functions per q-gram          [30]
  --clk-q N           bloom: q-gram width                       [2]
  --clk-threshold T   bloom: Dice similarity match threshold    [0.8]
  --clk-epsilon E     bloom: differential-privacy budget ε for
                      randomized CLK bit flipping (0 = off)     [0]
  --fault-rate R      run the batched wire protocol over a faulty network:
                      drop/corrupt/duplicate/reorder/delay each frame with
                      probability R (implies batched Paillier mode)
  --retries N         max retransmissions per exchange              [8]
  --fault-seed S      fault-injection and backoff-jitter seed       [7]
  --deadline-ms MS    wall-clock budget for the SMC step; on expiry the
                      remaining in-allowance pairs are labeled by the
                      strategy instead of compared (precision stays 100%)
  --threads N         worker threads for blocking and SMC comparisons
                      [all cores]; --threads 1 forces the sequential
                      path; results are byte-identical at any N
  --journal PATH      journal progress to PATH so a killed run can resume
  --resume            resume the run recorded in --journal PATH
  --checkpoint-every N  session checkpoint cadence in SMC outcomes  [64]
  --pace-ms MS        artificial delay per SMC outcome (test harness)
  --json              emit the report as JSON

Example — 5 % fault injection, 4 retries, degradation report:
  pprl-link run --left d1.csv --right d2.csv \\
      --allowance-pct 0.5 --fault-rate 0.05 --retries 4 --paillier 256

Example — crash-safe run, then recovery after a kill:
  pprl-link run --left d1.csv --right d2.csv --journal /tmp/job.pprlj
  pprl-link run --left d1.csv --right d2.csv --journal /tmp/job.pprlj --resume

PARTY OPTIONS (three-process deployment over TCP; every party loads the
same two files and the same RUN OPTIONS — the handshake rejects drift):
  --role R            query | alice | bob
  --listen ADDR       listener bind address (query: for both holders;
                      alice: for bob) [127.0.0.1:0]; the bound address is
                      announced on stderr as
                      `pprl-net: <role> listening on <addr>`
  --connect-querier ADDR  the querier's announced address (alice, bob)
  --connect-alice ADDR    alice's announced address (bob)
  --journal PATH      durable per-party journal; with --resume a killed
                      party rejoins the session at its watermark
  --net-timeout-ms MS     socket poll timeout           [1000]
  --net-deadline-ms MS    per-operation reconnect deadline [30000]
  --no-fsync          skip journal/report fsyncs (kill-only test runs)
  --window N          data-holder send window: keep up to N record pairs
                      in flight before blocking on the journal-gated ack
                      [1 = classic lockstep]. A deployment knob: parties
                      may disagree, reports are byte-identical at any N
  --pack              pack all attribute results of a pair slot-wise into
                      as few Paillier ciphertexts as possible (fewer
                      decryptions and bytes per pair); changes the wire
                      format, so every party must agree (fingerprinted)
  --backend B         paillier | bloom [paillier]; every party must pass
                      the same value — the handshake refuses a peer whose
                      announced backend differs (typed mismatch error).
                      The CLK knobs (--clk-len/--clk-hashes/--clk-q/
                      --clk-threshold/--clk-epsilon) apply under bloom and
                      are part of the handshake fingerprint
  Paillier is always batched in party mode ('--paillier BITS' sets the key
  size, default 256); --fault-rate is rejected. --deadline-ms is allowed
  but must be identical on every party (it is part of the handshake
  fingerprint); only the querier's clock is consulted — on expiry it
  abandons its remaining pairs and drains the oblivious holders.

Example — full linkage across three terminals on loopback:
  pprl-link party --role query --left d1.csv --right d2.csv --json
  pprl-link party --role alice --left d1.csv --right d2.csv \\
      --connect-querier 127.0.0.1:PORT
  pprl-link party --role bob   --left d1.csv --right d2.csv \\
      --connect-querier 127.0.0.1:PORT --connect-alice 127.0.0.1:PORT2

SERVE OPTIONS (`party serve`: a long-lived querier daemon serving many
jobs over one listener; holders join each job with `party --role alice|bob`
against the announced address, configured identically to that job):
  --job NAME=LEFT,RIGHT  one linkage job (repeatable); NAME keys the
                      job's journal (`NAME.pprlj`) and report
                      (`NAME.report`) under --journal-dir
  --journal-dir DIR   per-job journals and reports; a restarted daemon
                      resumes unfinished jobs and re-serves finished ones
                      from disk without re-executing a pair
  --max-jobs N        concurrent session bound [2]; excess holders get a
                      typed Busy frame and redial after --retry-after-ms
  --retry-after-ms MS pause hinted inside a Busy answer       [200]
  --max-crashes N     worker attempts before a job is quarantined [3]
  --pool-prefill N    pre-fill N Paillier randomizers into the shared
                      warm-keypair pool                        [0]
  --max-conns N       socket connections admitted at once; excess dialers
                      get a typed Busy refusal at accept        [64]
  --idle-timeout-ms MS  parked (handshaken but unclaimed) connections are
                      reaped after this much silence         [30000]
  --silence-timeout-ms MS  per-job silence watchdog: a peer dark for this
                      long fails the job, which the supervisor requeues
                      through the crash-recovery path (off by default —
                      one-shot semantics degrade the pair instead)
  --metrics-path P    write a per-job metrics snapshot (status, wall time,
                      pairs/sec, wire accounting, peak window occupancy)
                      to P at drain/completion and on SIGUSR1
  --listen/--net-timeout-ms/--net-deadline-ms/--no-fsync/--window/--pack
  as in party mode;
  RUN OPTIONS (including --deadline-ms) apply to every job alike.
  SIGTERM drains gracefully: stop admitting, finish in-flight jobs, exit 0.

Example — serve three jobs, at most two concurrent:
  pprl-link party serve --journal-dir /var/lib/pprl \\
      --job ab=a.csv,b.csv --job cd=c.csv,d.csv --job ef=e.csv,f.csv \\
      --max-jobs 2 --listen 127.0.0.1:7001

CHAOSPROXY OPTIONS (a seeded TCP relay that injects socket-level faults;
park it between two parties to rehearse network failure):
  --upstream ADDR     where faithful bytes would have gone (required)
  --listen ADDR       relay bind address [127.0.0.1:0]; announced on
                      stderr as `pprl-chaos: listening on <addr> ...`
  --family F          none | delay | drop | dup | corrupt | split |
                      reset | partition | slowloris        [none]
  --seed S            fault-decision seed (replayable)     [1]
  --duration-ms MS    exit after MS (0 = run until SIGTERM) [0]
  Exit prints a fault census to stderr. The proxy never touches frame
  contents on purpose except under `corrupt`; the protocol's checksums
  and retransmission must absorb everything it does.

Example — bob reaches the querier only through a flaky link:
  pprl-link chaosproxy --upstream 127.0.0.1:7001 --family drop --seed 7
  pprl-link party --role bob ... --connect-querier 127.0.0.1:CHAOSPORT
";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?;
        if key == "json" || key == "resume" || key == "no-fsync" || key == "pack" {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            if key == "job" {
                // `--job` repeats; accumulate newline-separated so the
                // flat map keeps one entry per option name.
                opts.entry(key.to_string())
                    .and_modify(|v| {
                        v.push('\n');
                        v.push_str(value);
                    })
                    .or_insert_with(|| value.clone());
            } else {
                opts.insert(key.to_string(), value.clone());
            }
            i += 2;
        }
    }
    Ok(opts)
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {raw:?}")),
    }
}

fn parse_method(name: &str) -> Result<AnonymizationMethod, String> {
    match name {
        "entropy" => Ok(AnonymizationMethod::MaxEntropy),
        "tds" => Ok(AnonymizationMethod::Tds),
        "datafly" => Ok(AnonymizationMethod::Datafly),
        "mondrian" => Ok(AnonymizationMethod::Mondrian),
        other => Err(format!("unknown method {other:?}")),
    }
}

fn cmd_synth(opts: &Opts) -> Result<(), String> {
    let out = opts.get("out").ok_or("--out DIR is required")?;
    let records: usize = get(opts, "records", 2_000)?;
    let seed: u64 = get(opts, "seed", 42)?;
    let scenario = pprl_core::SyntheticScenario::builder()
        .records_per_set(records)
        .seed(seed)
        .build();
    let (d1, d2) = scenario.data_sets();
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    for (name, ds) in [("d1.csv", &d1), ("d2.csv", &d2)] {
        let path = format!("{out}/{name}");
        std::fs::write(&path, pprl_data::writer::write_adult_csv(ds))
            .map_err(|e| e.to_string())?;
        println!("wrote {path} ({} records)", ds.len());
    }
    Ok(())
}

/// Loads `--left`/`--right` (every party subcommand needs both).
fn load_inputs(opts: &Opts) -> Result<(pprl_data::DataSet, pprl_data::DataSet), String> {
    let left = opts.get("left").ok_or("--left FILE is required")?;
    let right = opts.get("right").ok_or("--right FILE is required")?;
    let d1 = load_adult(left).map_err(|e| format!("{left}: {e}"))?;
    let d2 = load_adult(right).map_err(|e| format!("{right}: {e}"))?;
    Ok((d1, d2))
}

/// Builds the [`LinkageConfig`] from the shared RUN OPTIONS.
fn build_config(opts: &Opts) -> Result<LinkageConfig, String> {
    let k: usize = get(opts, "k", 32)?;
    let mut config = LinkageConfig::paper_defaults()
        .with_k(k)
        .with_theta(get(opts, "theta", 0.05)?)
        .with_qid_count(get(opts, "qids", 5)?)
        .with_allowance(SmcAllowance::Fraction(
            get(opts, "allowance-pct", 1.5)? / 100.0,
        ));
    config.k_r = KAnonymityRequirement(get(opts, "k-left", k)?);
    config.k_s = KAnonymityRequirement(get(opts, "k-right", k)?);
    let method = parse_method(opts.get("method").map(String::as_str).unwrap_or("entropy"))?;
    config.method_r = method;
    config.method_s = method;
    config.heuristic = match opts.get("heuristic").map(String::as_str).unwrap_or("minavg") {
        "minfirst" => SelectionHeuristic::MinFirst,
        "maxlast" => SelectionHeuristic::MaxLast,
        "minavg" => SelectionHeuristic::MinAvgFirst,
        "random" => SelectionHeuristic::Random { seed: 1 },
        other => return Err(format!("unknown heuristic {other:?}")),
    };
    config.strategy = match opts.get("strategy").map(String::as_str).unwrap_or("precision") {
        "precision" => LabelingStrategy::MaximizePrecision,
        "recall" => LabelingStrategy::MaximizeRecall,
        "classifier" => LabelingStrategy::Classifier,
        other => return Err(format!("unknown strategy {other:?}")),
    };
    if let Some(bits) = opts.get("paillier") {
        config.mode = SmcMode::Paillier {
            modulus_bits: bits.parse().map_err(|_| "--paillier BITS")?,
            seed: get(opts, "seed", 42)?,
        };
    }
    if opts.contains_key("fault-rate") || opts.contains_key("retries") {
        let rate: f64 = get(opts, "fault-rate", 0.0)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
        }
        // Only the batched wire protocol moves bytes over a network.
        config.mode = SmcMode::PaillierBatched {
            modulus_bits: get(opts, "paillier", 256)?,
            seed: get(opts, "seed", 42)?,
            pack: opts.contains_key("pack"),
        };
        config.channel = Some(ChannelConfig {
            faults: FaultConfig::uniform(rate),
            retry: RetryPolicy {
                max_retries: get(opts, "retries", 8)?,
                ..RetryPolicy::default()
            },
            seed: get(opts, "fault-seed", 7)?,
        });
    }

    if let Some(ms) = opts.get("deadline-ms") {
        config.deadline = DeadlineBudget::WallClockMs(
            ms.parse().map_err(|_| "--deadline-ms: cannot parse MS")?,
        );
    }
    Ok(config)
}

/// Resolves `--backend` (plus the CLK knobs) into the wire-protocol SMC
/// mode. All of it is fingerprinted: in the three-process deployment a
/// party launched with a different backend is refused at the handshake
/// with a typed backend-mismatch error, and diverging CLK parameters
/// split the job fingerprint.
fn backend_mode(opts: &Opts) -> Result<SmcMode, String> {
    match opts.get("backend").map(String::as_str).unwrap_or("paillier") {
        "paillier" => {
            refuse_unread(opts, &CLK_FLAGS, "--backend bloom")?;
            Ok(SmcMode::PaillierBatched {
                modulus_bits: get(opts, "paillier", 256)?,
                seed: get(opts, "seed", 42)?,
                pack: opts.contains_key("pack"),
            })
        }
        "bloom" => {
            if opts.contains_key("pack") {
                return Err(
                    "--pack packs Paillier ciphertexts; the bloom backend has none".to_string(),
                );
            }
            let mut params = pprl_bloom::ClkParams::paper_defaults(get(opts, "seed", 42)?);
            params.filter_len = get(opts, "clk-len", params.filter_len)?;
            params.hashes = get(opts, "clk-hashes", params.hashes)?;
            params.q = get(opts, "clk-q", params.q)?;
            let threshold: f64 = get(opts, "clk-threshold", 0.8)?;
            if !(0.0..=1.0).contains(&threshold) {
                return Err(format!("--clk-threshold must be in [0, 1], got {threshold}"));
            }
            params.threshold_millis = (threshold * 1000.0).round() as u32;
            let epsilon: f64 = get(opts, "clk-epsilon", 0.0)?;
            if !(0.0..=64.0).contains(&epsilon) {
                return Err(format!("--clk-epsilon must be in [0, 64], got {epsilon}"));
            }
            params.epsilon_millis = (epsilon * 1000.0).round() as u32;
            params.validate().map_err(|e| e.to_string())?;
            Ok(SmcMode::Bloom { params })
        }
        other => Err(format!("unknown backend {other:?} (use paillier or bloom)")),
    }
}

/// The CLK knobs: read under `--backend bloom` and nowhere else.
const CLK_FLAGS: [&str; 5] = [
    "clk-len",
    "clk-hashes",
    "clk-q",
    "clk-threshold",
    "clk-epsilon",
];

/// A flag only `reader` reads would be silently ignored without it; refuse
/// it instead.
fn refuse_unread(opts: &Opts, flags: &[&str], reader: &str) -> Result<(), String> {
    match flags.iter().find(|key| opts.contains_key(**key)) {
        Some(key) => Err(format!("--{key} does nothing without {reader}")),
        None => Ok(()),
    }
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    if opts.contains_key("resume") && !opts.contains_key("journal") {
        return Err("--resume requires --journal PATH".to_string());
    }
    let (d1, d2) = load_inputs(opts)?;
    let mut config = build_config(opts)?;
    if opts.contains_key("backend") {
        if opts.contains_key("fault-rate") || opts.contains_key("retries") {
            return Err(
                "--backend selects the real wire protocol in-process; \
                 drop --fault-rate/--retries"
                    .to_string(),
            );
        }
        config.mode = backend_mode(opts)?;
        config.channel = None;
    } else {
        refuse_unread(opts, &CLK_FLAGS, "--backend bloom")?;
        if config.channel.is_none() {
            // The oracle and per-attribute runs send no reply to pack.
            refuse_unread(opts, &["pack"], "--backend paillier")?;
        }
    }
    let threads: usize = get(opts, "threads", pprl_runtime::resolve_threads(None))?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let pipeline = HybridLinkage::new(config).with_threads(threads);
    let outcome: LinkageOutcome = match opts.get("journal") {
        None => pipeline.run(&d1, &d2).map_err(|e| e.to_string())?,
        Some(path) => {
            let jopts = journal_run::JournalOptions {
                checkpoint_every: get(opts, "checkpoint-every", 64)?,
                pace_ms: get(opts, "pace-ms", 0)?,
                ..journal_run::JournalOptions::default()
            };
            let path = std::path::Path::new(path);
            let journaled = if opts.contains_key("resume") {
                journal_run::resume(&pipeline, &d1, &d2, path, &jopts)
            } else {
                journal_run::run_journaled(&pipeline, &d1, &d2, path, &jopts)
            }
            .map_err(|e| e.to_string())?;
            // Progress accounting goes to stderr so stdout is byte-identical
            // between a fresh run and a crash-recovered one.
            eprintln!(
                "journal: resumed={} restored={} replayed={} live={}",
                journaled.resumed,
                journaled.restored_pairs,
                journaled.replayed_pairs,
                journaled.live_pairs
            );
            journaled.outcome
        }
    };
    print_report(&outcome, opts);
    Ok(())
}

/// Runs one party of the three-process networked deployment.
fn cmd_party(opts: &Opts) -> Result<(), String> {
    if opts.contains_key("resume") && !opts.contains_key("journal") {
        return Err("--resume requires --journal PATH".to_string());
    }
    if opts.contains_key("fault-rate") {
        return Err(
            "party mode runs over a real network: --fault-rate is rejected".to_string(),
        );
    }
    let role = match opts.get("role").map(String::as_str) {
        Some("query") => pprl_core::Role::Query,
        Some("alice") => pprl_core::Role::Alice,
        Some("bob") => pprl_core::Role::Bob,
        Some(other) => return Err(format!("unknown role {other:?}")),
        None => return Err("--role query|alice|bob is required".to_string()),
    };
    let (d1, d2) = load_inputs(opts)?;
    let mut config = build_config(opts)?;
    // Party mode always speaks a real wire protocol over the real
    // network; the simulated channel stays off. `--backend` picks which
    // one (batched Paillier by default, CLK Bloom with `bloom`) and is
    // announced in the handshake: a peer with a different backend is
    // refused with a typed mismatch error. `--deadline-ms` is allowed
    // and must be identical on every party (it is fingerprinted);
    // only the querier's clock is consulted — expiry abandons its
    // remaining pairs and drains the oblivious holders.
    config.mode = backend_mode(opts)?;
    config.channel = None;

    let parse_addr = |key: &str| -> Result<Option<std::net::SocketAddr>, String> {
        opts.get(key)
            .map(|raw| raw.parse().map_err(|_| format!("--{key}: bad address {raw:?}")))
            .transpose()
    };
    let mut popts = pprl_core::PartyOptions::new(role);
    popts.listen = opts.get("listen").cloned();
    popts.querier_addr = parse_addr("connect-querier")?;
    popts.alice_addr = parse_addr("connect-alice")?;
    popts.journal = opts.get("journal").map(std::path::PathBuf::from);
    popts.resume = opts.contains_key("resume");
    popts.timeout = std::time::Duration::from_millis(get(opts, "net-timeout-ms", 1_000)?);
    popts.deadline = std::time::Duration::from_millis(get(opts, "net-deadline-ms", 30_000)?);
    popts.durable = !opts.contains_key("no-fsync");
    popts.window = get(opts, "window", 1)?;
    if popts.window == 0 {
        return Err("--window must be at least 1".to_string());
    }

    let threads: usize = get(opts, "threads", pprl_runtime::resolve_threads(None))?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let pipeline = HybridLinkage::new(config).with_threads(threads);
    let party = pprl_core::run_party(&pipeline, &d1, &d2, &popts).map_err(|e| e.to_string())?;

    // Deployment accounting goes to stderr: stdout stays byte-identical
    // to the single-process report (querier) or empty (holders).
    eprintln!(
        "party: role={role} resumed={} replayed={} live={} net[{}]",
        party.resumed, party.replayed_pairs, party.live_pairs, party.net,
    );
    match &party.outcome {
        Some(outcome) => print_report(outcome, opts),
        None => eprintln!(
            "holder ledger: {} messages, {} bytes, {} encryptions shipped to the querier",
            party.ledger.messages, party.ledger.bytes, party.ledger.encryptions
        ),
    }
    Ok(())
}

/// SIGTERM flips this flag; the serve loop reads it as its drain signal.
/// Declared straight against the platform libc the binary already links —
/// no new dependency. The handler body is async-signal-safe (one atomic
/// store).
#[cfg(unix)]
fn drain_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static DRAIN: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigterm(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe { signal(SIGTERM, on_sigterm) };
    &DRAIN
}

#[cfg(not(unix))]
fn drain_flag() -> &'static std::sync::atomic::AtomicBool {
    static DRAIN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    &DRAIN
}

/// SIGUSR1 flips this flag; the serve loop polls it and dumps a metrics
/// snapshot to `--metrics-path`, then swaps it back. Same
/// libc-declaration trick as [`drain_flag`].
#[cfg(unix)]
fn metrics_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static METRICS: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigusr1(_sig: i32) {
        METRICS.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    #[cfg(target_os = "linux")]
    const SIGUSR1: i32 = 10;
    #[cfg(not(target_os = "linux"))]
    const SIGUSR1: i32 = 30; // BSD-lineage numbering (macOS and friends)
    unsafe { signal(SIGUSR1, on_sigusr1) };
    &METRICS
}

#[cfg(not(unix))]
fn metrics_flag() -> &'static std::sync::atomic::AtomicBool {
    static METRICS: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    &METRICS
}

/// The linkage daemon: one querier process serving every `--job` over a
/// single listener, with bounded admission and per-job crash recovery.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use pprl_core::JobStatus;

    let jobs_raw = opts
        .get("job")
        .ok_or("at least one --job NAME=LEFT,RIGHT is required")?;
    let journal_dir = opts.get("journal-dir").ok_or("--journal-dir DIR is required")?;
    if opts.contains_key("fault-rate") {
        return Err("serve runs over a real network: --fault-rate is rejected".to_string());
    }
    let mut config = build_config(opts)?;
    config.mode = backend_mode(opts)?;
    config.channel = None;
    let threads: usize = get(opts, "threads", pprl_runtime::resolve_threads(None))?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }

    let mut jobs = Vec::new();
    for spec in jobs_raw.split('\n') {
        let err = || format!("--job {spec:?}: expected NAME=LEFT,RIGHT");
        let (name, files) = spec.split_once('=').ok_or_else(err)?;
        let (left, right) = files.split_once(',').ok_or_else(err)?;
        let d1 = load_adult(left).map_err(|e| format!("{left}: {e}"))?;
        let d2 = load_adult(right).map_err(|e| format!("{right}: {e}"))?;
        jobs.push(pprl_core::ServeJob {
            name: name.to_string(),
            pipeline: pprl_core::HybridLinkage::new(config.clone()).with_threads(threads),
            left: d1,
            right: d2,
        });
    }

    let ms = |v: u64| std::time::Duration::from_millis(v);
    let sopts = pprl_core::ServeOptions {
        listen: opts
            .get("listen")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        journal_dir: std::path::PathBuf::from(journal_dir),
        max_jobs: get(opts, "max-jobs", 2)?,
        retry_after: ms(get(opts, "retry-after-ms", 200)?),
        max_crashes: get(opts, "max-crashes", 3)?,
        timeout: ms(get(opts, "net-timeout-ms", 1_000)?),
        net_deadline: ms(get(opts, "net-deadline-ms", 30_000)?),
        durable: !opts.contains_key("no-fsync"),
        pool_prefill: get(opts, "pool-prefill", 0)?,
        pool_threads: threads,
        max_conns: get(opts, "max-conns", 64)?,
        idle_timeout: ms(get(opts, "idle-timeout-ms", 30_000)?),
        silence_timeout: match opts.get("silence-timeout-ms") {
            None => None,
            Some(_) => Some(ms(get(opts, "silence-timeout-ms", 0)?)),
        },
        window: {
            let w: usize = get(opts, "window", 1)?;
            if w == 0 {
                return Err("--window must be at least 1".to_string());
            }
            w
        },
        metrics_path: opts.get("metrics-path").map(std::path::PathBuf::from),
        metrics_signal: opts
            .contains_key("metrics-path")
            .then(metrics_flag),
    };

    let json = opts.contains_key("json");
    let summary = pprl_core::serve::serve(&jobs, &sopts, drain_flag(), &|_job, outcome| {
        render_report(
            outcome.outcome.as_ref().expect("querier outcome present"),
            json,
        )
    })
    .map_err(|e| e.to_string())?;

    // Per-job accounting to stderr, reports to stdout (the persisted
    // `<name>.report` files carry the byte-exact standalone bytes).
    let mut quarantined: Option<String> = None;
    for job in &summary.jobs {
        match &job.status {
            JobStatus::Finished(party) => {
                eprintln!(
                    "serve: job {} finished resumed={} replayed={} live={} net[{}]",
                    job.name, party.resumed, party.replayed_pairs, party.live_pairs, party.net,
                );
            }
            JobStatus::AlreadyDone => {
                eprintln!("serve: job {} already done; report re-served from disk", job.name);
            }
            JobStatus::Quarantined { crashes, last_error } => {
                let why = pprl_core::LinkageError::Quarantined {
                    job: job.name.clone(),
                    crashes: *crashes,
                    last_error: last_error.clone(),
                }
                .to_string();
                eprintln!("serve: {why}");
                quarantined.get_or_insert(why);
            }
            JobStatus::Drained => {
                eprintln!(
                    "serve: job {} drained before starting; it resumes on the next start",
                    job.name
                );
            }
        }
        if let Some(text) = &job.report {
            println!("=== {} ===", job.name);
            print!("{text}");
        }
    }
    eprintln!("serve: drained={} net[{}]", summary.drained, summary.net);
    match quarantined {
        Some(why) => Err(why),
        None => Ok(()),
    }
}

/// A standalone seeded chaos relay: `pprl-link chaosproxy --upstream ADDR
/// --family drop`. Runs until SIGTERM (or `--duration-ms`), then prints a
/// fault census and exits 0 — the relay itself never fails a run.
fn cmd_chaosproxy(opts: &Opts) -> Result<(), String> {
    let upstream: std::net::SocketAddr = opts
        .get("upstream")
        .ok_or("--upstream ADDR is required")?
        .parse()
        .map_err(|e| format!("--upstream: {e}"))?;
    let listen = opts
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let family = opts.get("family").map(String::as_str).unwrap_or("none");
    let seed: u64 = get(opts, "seed", 1)?;
    let duration: u64 = get(opts, "duration-ms", 0)?;
    let cfg = pprl_net::ChaosConfig::fault_family(family, seed).ok_or_else(|| {
        format!(
            "unknown fault family {family:?}; one of: {}",
            pprl_net::ChaosConfig::FAMILIES.join(", ")
        )
    })?;

    let mut proxy = pprl_net::ChaosProxy::start(&listen, upstream, cfg).map_err(|e| e.to_string())?;
    // Test drivers parse this line to learn the ephemeral port.
    eprintln!(
        "pprl-chaos: listening on {} -> {upstream} family={family} seed={seed}",
        proxy.local_addr()
    );

    let drain = drain_flag();
    let started = std::time::Instant::now();
    let tick = std::time::Duration::from_millis(25);
    while !drain.load(std::sync::atomic::Ordering::SeqCst) {
        if duration > 0 && started.elapsed() >= std::time::Duration::from_millis(duration) {
            break;
        }
        std::thread::sleep(tick);
    }
    let stats = proxy.stats();
    proxy.shutdown();
    eprintln!("pprl-chaos: {stats}");
    Ok(())
}

/// Prints the final report (text or `--json`) for a completed linkage.
fn print_report(outcome: &LinkageOutcome, opts: &Opts) {
    print!("{}", render_report(outcome, opts.contains_key("json")));
}

/// Renders the final report (text or JSON) — the exact bytes `run` and
/// `party` print, and the bytes `serve` persists beside each job's
/// journal and re-serves verbatim after a daemon restart.
fn render_report(outcome: &LinkageOutcome, json: bool) -> String {
    use std::fmt::Write;

    let m = &outcome.metrics;
    let mut out = String::new();

    // Order-independent digest of the declared match set, for comparing
    // runs (e.g. a recovered run against an uninterrupted one).
    let mut matched: Vec<(u32, u32)> = outcome.matched_rows().collect();
    matched.sort_unstable();
    let mut digest = pprl_journal::Fnv1a64::new();
    digest.update_u64(matched.len() as u64);
    for &(ri, si) in &matched {
        digest.update_u64(ri as u64);
        digest.update_u64(si as u64);
    }
    let matched_digest = format!("{:016x}", digest.finish());

    if json {
        let _ = writeln!(
            out,
            "{}",
            serde_json::json!({
                "total_pairs": m.total_pairs,
                "true_matches": m.true_matches,
                "declared_matches": m.declared_matches,
                "true_positives": m.true_positives,
                "precision": m.precision(),
                "recall": m.recall(),
                "f1": m.f1(),
                "blocking_efficiency": m.blocking_efficiency,
                "blocking_matched": m.blocking_matched,
                "smc_matched": m.smc_matched,
                "smc_invocations": m.smc_invocations,
                "smc_budget": m.smc_budget,
                "smc_abandoned": m.smc_abandoned,
                "deadline_abandoned": m.deadline_abandoned,
                "matched_digest": matched_digest,
                "crypto": {
                    "encryptions": outcome.ledger.encryptions,
                    "decryptions": outcome.ledger.decryptions,
                    "scalar_muls": outcome.ledger.scalar_muls,
                    "messages": outcome.ledger.messages,
                    "bytes": outcome.ledger.bytes,
                },
                "degradation": {
                    "pairs_abandoned": outcome.degradation().pairs_abandoned(),
                    "retry_abandoned": outcome.degradation().abandoned.retry_exhausted,
                    "deadline_abandoned": outcome.degradation().abandoned.deadline_expired,
                    "declared_matches": outcome.degradation().declared.len(),
                    "retries_spent": outcome.degradation().retries_spent,
                    "faults_survived": outcome.degradation().faults_survived,
                    "faults_injected": outcome.degradation().injected.total(),
                    "virtual_backoff_ms": outcome.degradation().virtual_backoff_ms,
                },
            })
        );
    } else {
        let _ = writeln!(out, "pairs               : {}", m.total_pairs);
        let _ = writeln!(
            out,
            "blocking efficiency : {:.2}%  ({} matched, {} pairs undecided)",
            100.0 * m.blocking_efficiency,
            m.blocking_matched,
            m.total_pairs - (m.blocking_efficiency * m.total_pairs as f64) as u64
        );
        let _ = writeln!(
            out,
            "SMC                 : {} / {} comparisons, {} matches",
            m.smc_invocations, m.smc_budget, m.smc_matched
        );
        let _ = writeln!(out, "true matches        : {}", m.true_matches);
        let _ = writeln!(out, "declared matches    : {}", m.declared_matches);
        let _ = writeln!(out, "precision           : {:.2}%", 100.0 * m.precision());
        let _ = writeln!(out, "recall              : {:.2}%", 100.0 * m.recall());
        let _ = writeln!(out, "matched digest      : {matched_digest}");
        let led = &outcome.ledger;
        if led.messages > 0 {
            let _ = writeln!(
                out,
                "crypto cost         : {} messages, {} bytes, {} enc, {} dec, {} scalar muls",
                led.messages, led.bytes, led.encryptions, led.decryptions, led.scalar_muls
            );
        }
        let deg = outcome.degradation();
        if deg.injected.total() > 0 || deg.degraded() {
            let _ = writeln!(
                out,
                "transport           : {} faults injected, {} survived, {} retransmissions ({} virtual backoff ms)",
                deg.injected.total(),
                deg.faults_survived,
                deg.retries_spent,
                deg.virtual_backoff_ms
            );
            let _ = writeln!(
                out,
                "degraded pairs      : {} abandoned ({} retry exhaustion, {} deadline expiry; {} declared match by strategy)",
                deg.pairs_abandoned(),
                deg.abandoned.retry_exhausted,
                deg.abandoned.deadline_expired,
                deg.declared.len()
            );
        }
    }
    out
}

fn cmd_anonymize(opts: &Opts) -> Result<(), String> {
    let input = opts.get("input").ok_or("--input FILE is required")?;
    let data = load_adult(input).map_err(|e| format!("{input}: {e}"))?;
    let k: usize = get(opts, "k", 32)?;
    let q: usize = get(opts, "qids", 5)?;
    let method = parse_method(opts.get("method").map(String::as_str).unwrap_or("entropy"))?;
    let qids: Vec<usize> = (0..q).collect();
    let view = Anonymizer::new(method, KAnonymityRequirement(k))
        .anonymize(&data, &qids)
        .map_err(|e| e.to_string())?;

    eprintln!(
        "# prosecutor risk {:.4} (bound 1/k = {:.4}), marketer risk {:.4}",
        pprl_anon::prosecutor_risk(&view),
        1.0 / k as f64,
        pprl_anon::marketer_risk(&view),
    );
    let text = publish_view(&data, &qids, &view);
    if let Some(path) = opts.get("publish") {
        std::fs::write(path, &text).map_err(|e| e.to_string())?;
        println!(
            "published {} classes ({} records, k = {k}, {method:?}) to {path}",
            view.distinct_sequences(),
            data.len()
        );
    } else {
        print!("{text}");
    }
    Ok(())
}

/// Serializes the *publishable* part of a view: generalization sequences
/// and class sizes only — no row identities, no original values.
fn publish_view(
    data: &pprl_data::DataSet,
    qids: &[usize],
    view: &pprl_anon::AnonymizedView,
) -> String {
    let schema = data.schema();
    let header: Vec<&str> = qids.iter().map(|&i| schema.attribute(i).name()).collect();
    let mut out = format!("# pprl-view v1\n# count\t{}\n", header.join("\t"));
    let mut classes: Vec<_> = view.classes().iter().collect();
    classes.sort_by_key(|c| std::cmp::Reverse(c.size()));
    for class in classes {
        let rendered: Vec<String> = class
            .sequence
            .iter()
            .zip(qids)
            .map(|(gv, &qid)| render_genval(schema.attribute(qid).vgh(), gv))
            .collect();
        out.push_str(&format!("{}\t{}\n", class.size(), rendered.join("\t")));
    }
    out
}

/// Parses a published view back into `(class sizes, sequences)` against
/// the Adult schema's VGHs.
fn parse_view(
    path: &str,
    schema: &pprl_data::Schema,
    qids: &[usize],
) -> Result<Vec<(u64, Vec<pprl_anon::GenVal>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut classes = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != qids.len() + 1 {
            return Err(format!("{path}:{}: expected {} fields", no + 1, qids.len() + 1));
        }
        let count: u64 = fields[0]
            .parse()
            .map_err(|_| format!("{path}:{}: bad count {:?}", no + 1, fields[0]))?;
        let mut seq = Vec::with_capacity(qids.len());
        for (pos, &qid) in qids.iter().enumerate() {
            seq.push(parse_genval(schema.attribute(qid).vgh(), fields[pos + 1]).map_err(
                |e| format!("{path}:{}: {e}", no + 1),
            )?);
        }
        classes.push((count, seq));
    }
    Ok(classes)
}

fn parse_genval(vgh: &pprl_hierarchy::Vgh, text: &str) -> Result<pprl_anon::GenVal, String> {
    match vgh {
        pprl_hierarchy::Vgh::Categorical(t) => t
            .node_by_label(text)
            .map(pprl_anon::GenVal::Cat)
            .map_err(|e| e.to_string()),
        pprl_hierarchy::Vgh::Continuous(h) => {
            if text == "ANY" {
                let (lo, hi) = h.domain();
                return Ok(pprl_anon::GenVal::Range { lo, hi });
            }
            let inner = text
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| format!("bad interval {text:?}"))?;
            let (lo, hi) = inner
                .split_once('-')
                .ok_or_else(|| format!("bad interval {text:?}"))?;
            Ok(pprl_anon::GenVal::Range {
                lo: lo.parse().map_err(|_| format!("bad bound {lo:?}"))?,
                hi: hi.parse().map_err(|_| format!("bad bound {hi:?}"))?,
            })
        }
    }
}

/// Blocking from two *published views only* — the step any third party (or
/// either holder) can replicate without plaintext access.
fn cmd_block(opts: &Opts) -> Result<(), String> {
    use pprl_blocking::{slack_decision, MatchingRule, PairLabel};

    let left = opts.get("left-view").ok_or("--left-view FILE is required")?;
    let right = opts.get("right-view").ok_or("--right-view FILE is required")?;
    let theta: f64 = get(opts, "theta", 0.05)?;
    let q: usize = get(opts, "qids", 5)?;
    let qids: Vec<usize> = (0..q).collect();
    let schema = pprl_data::Schema::adult();

    let l = parse_view(left, &schema, &qids)?;
    let r = parse_view(right, &schema, &qids)?;
    let rule = MatchingRule::uniform(&schema, &qids, theta);
    let vghs: Vec<&pprl_hierarchy::Vgh> =
        qids.iter().map(|&i| schema.attribute(i).vgh()).collect();

    let (mut m, mut n, mut u) = (0u64, 0u64, 0u64);
    for (lc, lseq) in &l {
        for (rc, rseq) in &r {
            let pairs = lc * rc;
            match slack_decision(&vghs, &rule, lseq, rseq) {
                PairLabel::Match => m += pairs,
                PairLabel::NonMatch => n += pairs,
                PairLabel::Unknown => u += pairs,
            }
        }
    }
    let total = m + n + u;
    println!("pair space          : {total}");
    println!("provably matching   : {m}");
    println!("provably mismatching: {n}");
    println!("undecided (SMC work): {u}");
    println!(
        "blocking efficiency : {:.2}%",
        100.0 * (m + n) as f64 / total.max(1) as f64
    );
    println!(
        "sufficient allowance: {:.2}% of pairs",
        100.0 * u as f64 / total.max(1) as f64
    );
    Ok(())
}

fn render_genval(vgh: &pprl_hierarchy::Vgh, gv: &pprl_anon::GenVal) -> String {
    match gv {
        pprl_anon::GenVal::Cat(node) => vgh.render(*node),
        pprl_anon::GenVal::Range { lo, hi } => format!("[{lo}-{hi})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parsing() {
        let args: Vec<String> = ["--k", "8", "--json", "--theta", "0.1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(get::<usize>(&opts, "k", 32).unwrap(), 8);
        assert_eq!(get::<f64>(&opts, "theta", 0.05).unwrap(), 0.1);
        assert_eq!(get::<usize>(&opts, "missing", 7).unwrap(), 7);
        assert!(opts.contains_key("json"));
        // Malformed inputs.
        assert!(parse_opts(&["k".to_string()]).is_err());
        assert!(parse_opts(&["--k".to_string()]).is_err());
        let bad = parse_opts(&["--k".to_string(), "x".to_string()]).unwrap();
        assert!(get::<usize>(&bad, "k", 1).is_err());
    }

    #[test]
    fn method_names_resolve() {
        assert!(parse_method("entropy").is_ok());
        assert!(parse_method("tds").is_ok());
        assert!(parse_method("datafly").is_ok());
        assert!(parse_method("mondrian").is_ok());
        assert!(parse_method("magic").is_err());
    }

    #[test]
    fn genval_render_parse_roundtrip() {
        let schema = pprl_data::Schema::adult();
        // Continuous: interval and ANY forms.
        let age = schema.attribute(0).vgh();
        for gv in [
            pprl_anon::GenVal::Range { lo: 17.0, hi: 25.0 },
            pprl_anon::GenVal::Range { lo: 17.0, hi: 113.0 },
        ] {
            let text = render_genval(age, &gv);
            let parsed = parse_genval(age, &text).unwrap();
            assert_eq!(parsed, gv, "{text}");
        }
        assert_eq!(
            parse_genval(age, "ANY").unwrap(),
            pprl_anon::GenVal::Range { lo: 17.0, hi: 113.0 }
        );
        // Categorical: every node label round-trips.
        let edu = schema.attribute(2).vgh();
        for node in 0..edu.as_taxonomy().unwrap().node_count() as u32 {
            let gv = pprl_anon::GenVal::Cat(node);
            let text = render_genval(edu, &gv);
            assert_eq!(parse_genval(edu, &text).unwrap(), gv, "{text}");
        }
        // Garbage rejected.
        assert!(parse_genval(age, "[17-").is_err());
        assert!(parse_genval(age, "17-25").is_err());
        assert!(parse_genval(edu, "NotALabel").is_err());
    }

    #[test]
    fn publish_block_roundtrip_counts_match_engine() {
        use pprl_blocking::{slack_decision, BlockingEngine, MatchingRule, PairLabel};

        // Publish two views to text, parse back, and check the text path's
        // M/N/U pair counts equal the in-memory engine's.
        let scenario = pprl_core::SyntheticScenario::builder()
            .records_per_set(120)
            .seed(3)
            .build();
        let (d1, d2) = scenario.data_sets();
        let qids: Vec<usize> = (0..5).collect();
        let anon = Anonymizer::new(
            AnonymizationMethod::MaxEntropy,
            KAnonymityRequirement(4),
        );
        let v1 = anon.anonymize(&d1, &qids).unwrap();
        let v2 = anon.anonymize(&d2, &qids).unwrap();

        let dir = std::env::temp_dir().join("pprl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("a.view");
        let p2 = dir.join("b.view");
        std::fs::write(&p1, publish_view(&d1, &qids, &v1)).unwrap();
        std::fs::write(&p2, publish_view(&d2, &qids, &v2)).unwrap();

        let schema = d1.schema();
        let l = parse_view(p1.to_str().unwrap(), schema, &qids).unwrap();
        let r = parse_view(p2.to_str().unwrap(), schema, &qids).unwrap();
        let rule = MatchingRule::uniform(schema, &qids, 0.05);
        let vghs: Vec<&pprl_hierarchy::Vgh> =
            qids.iter().map(|&i| schema.attribute(i).vgh()).collect();
        let (mut m, mut n, mut u) = (0u64, 0u64, 0u64);
        for (lc, lseq) in &l {
            for (rc, rseq) in &r {
                match slack_decision(&vghs, &rule, lseq, rseq) {
                    PairLabel::Match => m += lc * rc,
                    PairLabel::NonMatch => n += lc * rc,
                    PairLabel::Unknown => u += lc * rc,
                }
            }
        }
        let engine = BlockingEngine::new(rule).run(&v1, &v2).unwrap();
        assert_eq!(m, engine.matched_pairs);
        assert_eq!(n, engine.nonmatched_pairs);
        assert_eq!(u, engine.unknown_pairs);
    }
}

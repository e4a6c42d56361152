//! The seven workloads and how one job of each is run. A linkage is a
//! batch job, so every workload is a closed loop with one client: the next
//! job starts when the previous one returns.

use crate::host;
use pprl_core::journal_run::{self, JournalOptions};
use pprl_core::{HybridLinkage, LinkageConfig, LinkageOutcome, PartyOptions, Role};
use pprl_crypto::CostLedger;
use pprl_data::DataSet;
use pprl_journal::Fnv1a64;
use pprl_net::NetStats;
use pprl_smc::{SmcAllowance, SmcMode};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Seed of the Paillier key and of the CLK hash family: fixed, so `--seed`
/// changes the corpus and nothing else.
pub const BACKEND_SEED: u64 = 42;

/// How record pairs left unknown by blocking are compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Oracle,
    Bloom,
    Paillier { bits: usize, pack: bool },
}

/// Which public entry point runs the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `HybridLinkage::run`.
    InProcess,
    /// `journal_run::run_journaled`, durable, checkpoint every 64 pairs.
    Journaled,
    /// `run_party` three times — querier, Alice, Bob — as threads of this
    /// process over loopback TCP, durable per-party journals.
    Party { window: usize },
}

/// One workload: a fixed configuration whose only free input is the seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub records: usize,
    pub k: usize,
    pub backend: Backend,
    /// The SMC allowance of one timed job.
    pub budget: SmcAllowance,
    pub driver: Driver,
    /// Run the executor on `min(available_parallelism, 4)` threads
    /// instead of one.
    pub host_threads: bool,
    /// Digest of the match set at the default seed on a stub-RNG build.
    pub pinned_digest: u64,
}

/// Names are stable: later issues cite them.
pub const SPECS: &[Spec] = &[
    Spec {
        name: "sanitize-k2",
        why: "front end only: many tiny classes, oracle pair walk; anon, blocking and the smc walk do all the work",
        records: 40_000,
        k: 2,
        backend: Backend::Oracle,
        budget: SmcAllowance::Fraction(0.015),
        driver: Driver::InProcess,
        host_threads: false,
        pinned_digest: 0x3ae3_05bb_3ebe_7017,
    },
    Spec {
        name: "clk-inproc",
        why: "bloom encode + Dice and the smc row-pair walk over large classes (k=32); no keys, no sockets",
        records: 4_000,
        k: 32,
        backend: Backend::Bloom,
        budget: SmcAllowance::Fraction(0.015),
        driver: Driver::InProcess,
        host_threads: false,
        pinned_digest: 0xd0a1_7fe4_9739_0a69,
    },
    Spec {
        name: "paillier-1024",
        why: "the paper's key size in process: bignum and crypto are >95% of the job, scalar reply path",
        records: 400,
        k: 32,
        backend: Backend::Paillier {
            bits: 1024,
            pack: false,
        },
        budget: SmcAllowance::Pairs(16),
        driver: Driver::InProcess,
        host_threads: false,
        pinned_digest: 0xa1fe_e4ab_ad61_a1ed,
    },
    Spec {
        name: "journaled-256-mt",
        why: "256-bit pairs are cheap, so what surrounds modpow shows: randomizer-pool prefill is a third of the job; the only workload on the parallel executor and the journal_run driver (journal I/O under 1%)",
        records: 400,
        k: 32,
        backend: Backend::Paillier {
            bits: 256,
            pack: false,
        },
        budget: SmcAllowance::Pairs(400),
        driver: Driver::Journaled,
        host_threads: true,
        pinned_digest: 0x8f2d_5d1a_1c5f_0d44,
    },
    Spec {
        name: "party-paillier-1024",
        why: "the deployable configuration: three parties over loopback, packed reply path, durable journals",
        records: 400,
        k: 32,
        backend: Backend::Paillier {
            bits: 1024,
            pack: true,
        },
        budget: SmcAllowance::Pairs(24),
        driver: Driver::Party { window: 8 },
        host_threads: false,
        pinned_digest: 0x5364_419a_4179_5d79,
    },
    Spec {
        name: "party-clk-lockstep",
        why: "window 1: net round trips, frame codec and journal-then-ack dominate a 5 us Dice; latency-bound use of net",
        records: 400,
        k: 32,
        backend: Backend::Bloom,
        budget: SmcAllowance::Pairs(8_000),
        driver: Driver::Party { window: 1 },
        host_threads: false,
        pinned_digest: 0x9451_9f0f_c50f_818a,
    },
    Spec {
        name: "party-clk-windowed",
        why: "same job at window 32: throughput-bound use of the same net code (windowed sender, CommitSet); a clean link sends no batch frame",
        records: 400,
        k: 32,
        backend: Backend::Bloom,
        budget: SmcAllowance::Pairs(8_000),
        driver: Driver::Party { window: 32 },
        host_threads: false,
        pinned_digest: 0x9451_9f0f_c50f_818a,
    },
];

pub fn find_spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// `--smoke`: every workload at about a tenth of its size (400
    /// records, the crypto workloads' corpus, is the floor).
    pub fn smoke(&self) -> Spec {
        let mut small = *self;
        small.records = (self.records / 10).max(400);
        if let SmcAllowance::Pairs(n) = self.budget {
            small.budget = SmcAllowance::Pairs((n / 10).max(4));
        }
        small
    }

    pub fn threads(&self) -> usize {
        if self.host_threads {
            host::available_parallelism().min(4)
        } else {
            1
        }
    }

    fn mode(&self) -> SmcMode {
        match self.backend {
            Backend::Oracle => SmcMode::Oracle,
            Backend::Bloom => SmcMode::Bloom {
                params: pprl_bloom::ClkParams::paper_defaults(BACKEND_SEED),
            },
            Backend::Paillier { bits, pack } => SmcMode::PaillierBatched {
                modulus_bits: bits,
                seed: BACKEND_SEED,
                pack,
            },
        }
    }

    /// The job's configuration with the pair budget divided by `shrink`
    /// (1 for a timed job, 8 for the warm-up).
    pub fn config(&self, shrink: u64) -> LinkageConfig {
        let allowance = match self.budget {
            SmcAllowance::Fraction(f) => SmcAllowance::Fraction(f / shrink as f64),
            SmcAllowance::Pairs(n) => SmcAllowance::Pairs((n / shrink).max(1)),
            SmcAllowance::Unlimited => SmcAllowance::Unlimited,
        };
        LinkageConfig::paper_defaults()
            .with_k(self.k)
            .with_allowance(allowance)
            .with_mode(self.mode())
    }

    /// Whether the backend decides by the matching rule itself.
    pub fn exact(&self) -> bool {
        self.backend != Backend::Bloom
    }

    pub fn describe(&self) -> String {
        let budget = match self.budget {
            SmcAllowance::Fraction(f) => format!("{:.2}% of pairs", f * 100.0),
            SmcAllowance::Pairs(n) => format!("{n} pairs"),
            SmcAllowance::Unlimited => "every undecided pair".to_string(),
        };
        format!(
            "{} records/set, k={}, {:?}, {budget}, {:?}, {} thread(s)",
            self.records,
            self.k,
            self.backend,
            self.driver,
            self.threads()
        )
    }
}

/// The two linkage inputs for `seed`. The program sees only these.
pub fn corpus(spec: &Spec, seed: u64) -> (DataSet, DataSet) {
    pprl_core::SyntheticScenario::builder()
        .records_per_set(spec.records)
        .seed(seed)
        .build()
        .data_sets()
}

/// Order-independent FNV digest of a declared match set.
pub fn digest_rows(mut rows: Vec<(u32, u32)>) -> u64 {
    rows.sort_unstable();
    let mut digest = Fnv1a64::new();
    digest.update_u64(rows.len() as u64);
    for (ri, si) in rows {
        digest.update_u64(u64::from(ri));
        digest.update_u64(u64::from(si));
    }
    digest.finish()
}

pub fn matched_digest(outcome: &LinkageOutcome) -> u64 {
    digest_rows(outcome.matched_rows().collect())
}

/// What one finished job reports.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Wall time of the program call alone (spawn to last join for the
    /// party workloads); the harness's own scoring is outside it.
    pub wall_s: f64,
    /// Process CPU over the same interval.
    pub cpu_s: f64,
    /// Peak resident set of the process during the job.
    pub peak_rss_mb: f64,
    pub budget: u64,
    /// Record pairs blocking left undecided: the SMC step compares
    /// `min(budget, unknown_pairs)` of them.
    pub unknown_pairs: u64,
    pub compared: u64,
    pub abandoned: u64,
    pub digest: u64,
    pub recall: f64,
    pub precision: f64,
    /// The merged protocol ledger.
    pub ledger: CostLedger,
    /// Merged wire accounting of the three parties.
    pub net: Option<NetStats>,
    /// On-CPU seconds of the querier, Alice and Bob threads.
    pub party_cpu_s: Option<[f64; 3]>,
    /// Bytes the job left in its journal(s).
    pub journal_bytes: u64,
}

fn summarize(outcome: &LinkageOutcome, cost: JobCost) -> JobOutput {
    let m = &outcome.metrics;
    JobOutput {
        wall_s: cost.wall_s,
        cpu_s: cost.cpu_s,
        peak_rss_mb: cost.peak_rss_mb,
        budget: m.smc_budget,
        unknown_pairs: outcome.blocking.unknown_pairs,
        compared: m.smc_invocations,
        abandoned: outcome.degradation().pairs_abandoned(),
        digest: matched_digest(outcome),
        recall: m.recall(),
        precision: m.precision(),
        ledger: outcome.ledger.clone(),
        net: None,
        party_cpu_s: None,
        journal_bytes: 0,
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Picks a loopback port for a party's listener. `run_party` reports a
/// port it chose itself only on stderr, so the harness must name one up
/// front; it names one *below* the kernel's ephemeral range, where no
/// outgoing connection of a sibling party can grab it between this probe
/// and the party's own bind (bind-to-port-0-and-drop lost that race about
/// once in a thousand jobs).
fn free_addr() -> Result<SocketAddr, String> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    const LOW: u32 = 10_000;
    let ephemeral_floor = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse::<u32>().ok())
        .unwrap_or(32_768);
    let span = ephemeral_floor
        .checked_sub(LOW)
        .filter(|span| *span >= 1_000)
        .ok_or("no room for listener ports below the ephemeral range")?;
    // Successive jobs and concurrent benchmark processes walk different
    // stretches of the span.
    let offset = std::process::id().wrapping_mul(97);
    for _ in 0..64 {
        let step = NEXT.fetch_add(1, Ordering::Relaxed);
        let port = LOW + offset.wrapping_add(step) % span;
        if let Ok(listener) = TcpListener::bind(("127.0.0.1", port as u16)) {
            return listener
                .local_addr()
                .map_err(|e| format!("loopback bind: {e}"));
        }
    }
    Err("no free loopback port below the ephemeral range".into())
}

/// The CPU a party's thread is pinned to: Alice on the first CPU this
/// process may use, Bob on the second, the querier on the third, wrapping
/// round on a smaller host (on two cores the querier, about 6% busy,
/// shares Alice's). Left to the scheduler, the three threads of a CLK job
/// settle either on one core or across two, for a whole process at a
/// time, and a cross-core wake-up costs several times a local one on a
/// virtual machine: `party-clk-lockstep` then takes 0.3 s or 0.9 s a job
/// on the same build and seed. `None` where affinity is unavailable.
pub fn party_cpu(role: Role) -> Option<usize> {
    let cpus = host::allowed_cpus();
    let slot = match role {
        Role::Alice => 0,
        Role::Bob => 1,
        Role::Query => 2,
    };
    (!cpus.is_empty()).then(|| cpus[slot % cpus.len()])
}

/// The journal options of the `journaled-256-mt` workload.
pub fn journal_options() -> JournalOptions {
    JournalOptions {
        checkpoint_every: 64,
        pace_ms: 0,
        chunk_r_classes: 8,
        durable: true,
    }
}

pub fn journal_path(scratch: &Path) -> PathBuf {
    scratch.join("run.journal")
}

/// Runs one job of `spec` under `config` through the workload's driver.
/// A job that errors or panics is an `Err`; the caller counts its pairs as
/// failed.
pub fn run_job(
    spec: &Spec,
    config: &LinkageConfig,
    r: &DataSet,
    s: &DataSet,
    scratch: &Path,
) -> Result<JobOutput, String> {
    match spec.driver {
        Driver::InProcess => run_in_process(config, spec.threads(), r, s),
        Driver::Journaled => {
            let pipeline = HybridLinkage::new(config.clone()).with_threads(spec.threads());
            let path = journal_path(scratch);
            let (result, cost) =
                timed(|| journal_run::run_journaled(&pipeline, r, s, &path, &journal_options()));
            let journaled = result?.map_err(|e| e.to_string())?;
            let mut out = summarize(&journaled.outcome, cost);
            out.journal_bytes = file_len(&path);
            Ok(out)
        }
        Driver::Party { window } => run_parties(config, window, r, s, scratch),
    }
}

/// `HybridLinkage::run` on `threads` executor threads.
pub fn run_in_process(
    config: &LinkageConfig,
    threads: usize,
    r: &DataSet,
    s: &DataSet,
) -> Result<JobOutput, String> {
    let pipeline = HybridLinkage::new(config.clone()).with_threads(threads);
    let (result, cost) = timed(|| pipeline.run(r, s));
    let outcome = result?.map_err(|e| e.to_string())?;
    Ok(summarize(&outcome, cost))
}

/// What the process spent on one program call.
struct JobCost {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Measures `f` (wall, process CPU, peak resident set) and turns a panic
/// into an error.
fn timed<T>(f: impl FnOnce() -> T) -> (Result<T, String>, JobCost) {
    host::reset_peak_rss();
    let cpu0 = host::process_cpu_s().unwrap_or(0.0);
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f)).map_err(|_| "job panicked".to_string());
    let cost = JobCost {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s().unwrap_or(0.0) - cpu0,
        peak_rss_mb: host::peak_rss_mb().unwrap_or(f64::NAN),
    };
    (result, cost)
}

/// Querier, Alice and Bob as three threads of this process over real
/// loopback TCP, each with one executor thread. Three is the protocol's
/// fixed party count, not load generation.
fn run_parties(
    config: &LinkageConfig,
    window: usize,
    r: &DataSet,
    s: &DataSet,
    scratch: &Path,
) -> Result<JobOutput, String> {
    let q_addr = free_addr()?;
    let a_addr = free_addr()?;
    let journals = [
        scratch.join("query.journal"),
        scratch.join("alice.journal"),
        scratch.join("bob.journal"),
    ];
    let party = |role: Role| {
        let mut opts = PartyOptions::new(role);
        opts.window = window;
        opts.durable = true;
        match role {
            Role::Query => {
                opts.listen = Some(q_addr.to_string());
                opts.journal = Some(journals[0].clone());
            }
            Role::Alice => {
                opts.listen = Some(a_addr.to_string());
                opts.querier_addr = Some(q_addr);
                opts.journal = Some(journals[1].clone());
            }
            Role::Bob => {
                opts.querier_addr = Some(q_addr);
                opts.alice_addr = Some(a_addr);
                opts.journal = Some(journals[2].clone());
            }
        }
        opts
    };
    let run = |opts: PartyOptions| {
        let pipeline = HybridLinkage::new(config.clone()).with_threads(1);
        move || {
            if let Some(cpu) = party_cpu(opts.role) {
                host::pin_current_thread(cpu);
            }
            let cpu0 = host::thread_cpu_s();
            let outcome = pprl_core::run_party(&pipeline, r, s, &opts);
            let cpu = match (cpu0, host::thread_cpu_s()) {
                (Some(a), Some(b)) => Some(b - a),
                _ => None,
            };
            (outcome, cpu)
        }
    };

    let (joined, cost) = timed(|| {
        std::thread::scope(|scope| {
            let handles =
                [Role::Query, Role::Alice, Role::Bob].map(|role| scope.spawn(run(party(role))));
            handles.map(|h| h.join())
        })
    });
    let mut outcomes = Vec::new();
    let mut cpus = [0.0; 3];
    let mut have_cpu = true;
    for (i, joined) in joined?.into_iter().enumerate() {
        let (outcome, cpu) = joined.map_err(|_| "party thread panicked".to_string())?;
        outcomes.push(outcome.map_err(|e| e.to_string())?);
        match cpu {
            Some(c) => cpus[i] = c,
            None => have_cpu = false,
        }
    }
    let querier = outcomes[0]
        .outcome
        .as_ref()
        .ok_or("querier returned no outcome")?;
    let mut out = summarize(querier, cost);
    // The querier's own count of pairs it decided, not the scorecard's.
    out.compared = outcomes[0].live_pairs + outcomes[0].replayed_pairs;
    let mut net = NetStats::default();
    for party in &outcomes {
        net.merge(&party.net);
    }
    out.net = Some(net);
    out.party_cpu_s = have_cpu.then_some(cpus);
    out.journal_bytes = journals.iter().map(|p| file_len(p)).sum();
    Ok(out)
}

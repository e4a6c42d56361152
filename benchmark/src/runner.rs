//! Runs one workload: set-up, the closed loop of timed jobs, the output
//! checks, and (with `--trace 1`) the staged traced job and the per-layer
//! metrics. One workload per process, so `peak_rss_mb` is the workload's own.

use crate::catalog::{END_TO_END, EXACT, MICRO, PER_WORKLOAD};
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workloads::{
    corpus, journal_options, journal_path, party_cpu, run_in_process, run_job, Backend, Driver,
    JobOutput, Spec,
};
use crate::{host, micro, staged};
use pprl_core::journal_run;
use pprl_core::{HybridLinkage, Role};
use pprl_data::DataSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed `run.sh` uses when none is given, and the one the digests are
/// pinned for.
pub const DEFAULT_SEED: u64 = 7;

/// The measuring window when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

pub struct RunOpts {
    pub seed: u64,
    /// How long the closed loop of timed jobs measures.
    pub seconds: f64,
    pub trace: bool,
    /// About a tenth of the size, one repetition, checks only.
    pub smoke: bool,
    /// Run the micro rows in the traced pass (the all-workload command
    /// runs them once, not once per workload).
    pub micro: bool,
    pub scratch: PathBuf,
}

/// Set-up is repeated and its median reported, so `setup_s` is steady
/// enough to carry a bound: at least three times, and for cheap set-ups
/// until they add up to `SETUP_WINDOW`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_WINDOW: Duration = Duration::from_millis(2500);
const MIN_JOBS: usize = 3;
const MAX_JOBS: usize = 200;

/// One named output check.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one workload run produced.
pub struct Report {
    pub detail: Json,
    pub result_line: Json,
    pub correct: bool,
}

/// What set-up leaves behind for the timed jobs.
struct Prepared {
    r: DataSet,
    s: DataSet,
    /// Digest the workload's jobs must reproduce, where an independent
    /// code path can supply one.
    reference: Option<(&'static str, u64)>,
    synth_s: f64,
}

struct Tally {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
}

impl Tally {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        // One row per check name: a check that failed once stays failed.
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok => (c.ok, c.detail) = (ok, detail),
            Some(_) => {}
            None => self.checks.push(Check {
                name: name.to_string(),
                ok,
                detail,
            }),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// The job's SMC allowance in record pairs. The scenario builder rounds a
/// set to an even size, so the pair space is that of `2 * (records / 2)`.
fn budget_pairs(spec: &Spec) -> u64 {
    let per_set = (spec.records / 2 * 2) as u64;
    spec.budget.budget_pairs(per_set * per_set)
}

/// Corpus synthesis, the reference run, scratch directories and one
/// warm-up job at an eighth of the pair budget (a zero-pair party session
/// does not terminate cleanly; see the README).
fn set_up(spec: &Spec, opts: &RunOpts, tally: &mut Tally) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let (r, s) = corpus(spec, opts.seed);
    let synth_s = t0.elapsed().as_secs_f64();

    // Exact backends must reproduce the oracle's match set; a party run
    // of the approximate backend must reproduce the in-process run. The
    // two in-process workloads whose job *is* that reference have only
    // repetition and the pinned digest to answer to.
    let reference = match (spec.backend, spec.driver) {
        (Backend::Paillier { .. }, _) => Some((
            "oracle run of the same configuration",
            spec.config(1).with_mode(pprl_smc::SmcMode::Oracle),
        )),
        (Backend::Bloom, Driver::Party { .. }) => {
            Some(("in-process run of the same backend", spec.config(1)))
        }
        (Backend::Oracle | Backend::Bloom, _) => None,
    };
    let reference = match reference {
        Some((what, config)) => Some((what, run_in_process(&config, 1, &r, &s)?.digest)),
        None => None,
    };

    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let warm = run_job(spec, &spec.config(8), &r, &s, &opts.scratch);
    tally.check(
        "warm-up job completed",
        warm.is_ok(),
        warm.err().unwrap_or_default(),
    );
    Ok(Prepared {
        r,
        s,
        reference,
        synth_s,
    })
}

/// Runs one timed job and applies the per-job output checks. A job that
/// errors, panics or compares a different number of pairs than it should
/// fails with all its pairs.
fn checked_job(
    spec: &Spec,
    prepared: &Prepared,
    scratch: &Path,
    first: Option<&JobOutput>,
    tally: &mut Tally,
) -> Option<JobOutput> {
    let budget = budget_pairs(spec);
    let out = match run_job(spec, &spec.config(1), &prepared.r, &prepared.s, scratch) {
        Ok(out) => out,
        Err(why) => {
            tally.attempted += budget;
            tally.failed += budget;
            tally.check("every job completed", false, why);
            return None;
        }
    };
    tally.check("every job completed", true, String::new());
    // The SMC step spends its whole allowance unless blocking left fewer
    // pairs undecided than the allowance covers.
    let expected = budget.min(out.unknown_pairs);
    tally.attempted += expected;
    let spent = out.compared == expected && out.budget == budget;
    tally.check(
        "compared pairs == min(budget, undecided pairs)",
        spent,
        format!(
            "compared {} of {expected} (budget {})",
            out.compared, out.budget
        ),
    );
    if !spent {
        tally.failed += expected;
        return Some(out);
    }
    tally.failed += out.abandoned;
    tally.check(
        "no pair abandoned or degraded",
        out.abandoned == 0,
        format!("{} abandoned", out.abandoned),
    );
    if let Some(first) = first {
        tally.check(
            "digest identical across repetitions",
            out.digest == first.digest,
            format!("{:016x} vs {:016x}", out.digest, first.digest),
        );
        tally.check(
            "ledger identical across repetitions",
            out.ledger == first.ledger,
            String::new(),
        );
    }
    if let Some((what, digest)) = prepared.reference {
        let ok = out.digest == digest;
        tally.check(
            &format!("digest equals the {what}"),
            ok,
            format!("{:016x} vs {:016x}", out.digest, digest),
        );
        if !ok {
            tally.failed += expected;
        }
    }
    if spec.exact() {
        tally.check(
            "precision == 1.0",
            out.precision == 1.0,
            format!("precision {}", out.precision),
        );
    }
    Some(out)
}

fn pinned_digest_check(spec: &Spec, opts: &RunOpts, digest: u64, tally: &mut Tally) {
    // The corpus depends on the RNG kind: pins hold for stub builds only.
    if opts.seed == DEFAULT_SEED && !opts.smoke && host::rand_is_stub() == Some(true) {
        tally.check(
            "digest equals the pin for the default seed",
            digest == spec.pinned_digest,
            format!("{:016x} vs pinned {:016x}", digest, spec.pinned_digest),
        );
    }
}

fn metric_json(name: &str, value: f64) -> Json {
    let unit = crate::catalog::find(name).map_or("", |m| m.unit);
    Json::obj().with("value", value).with("unit", unit)
}

fn checks_json(tally: &Tally) -> Json {
    Json::Arr(
        tally
            .checks
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", c.name.as_str())
                    .with("ok", c.ok)
                    .with("detail", c.detail.as_str())
            })
            .collect(),
    )
}

fn base_detail(spec: &Spec, opts: &RunOpts) -> Json {
    let threads = spec.threads();
    let mut config = Json::obj()
        .with("summary", spec.describe())
        .with("why", spec.why)
        .with("records_per_set", spec.records)
        .with("pair_budget", budget_pairs(spec))
        .with("threads", threads);
    if spec.host_threads && threads == 1 {
        config.set(
            "note",
            "one core available: this run is single-threaded and claims no scaling",
        );
    }
    if matches!(spec.driver, Driver::Party { .. }) {
        // Where the harness pins the querier's, Alice's and Bob's threads.
        let cpus = [Role::Query, Role::Alice, Role::Bob]
            .map(|role| party_cpu(role).map_or(Json::Null, Json::from));
        config.set("party_cpus", cpus.to_vec());
    }
    Json::obj()
        .with("workload", spec.name)
        .with("seed", opts.seed)
        .with("smoke", opts.smoke)
        .with("trace", opts.trace)
        .with("config", config)
        .with("host", host::facts())
}

pub fn run(spec: &Spec, opts: &RunOpts) -> Report {
    let spec = if opts.smoke { spec.smoke() } else { *spec };
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };
    let outcome = if opts.trace {
        traced_pass(&spec, opts, &mut tally)
    } else {
        untraced_pass(&spec, opts, &mut tally)
    };
    let (mut detail, metrics) = match outcome {
        Ok(parts) => parts,
        Err(why) => {
            // Nothing measured: every pair of one job counts as failed.
            tally.attempted = tally.attempted.max(budget_pairs(&spec));
            tally.failed = tally.attempted;
            tally.check("workload ran", false, why);
            (base_detail(&spec, opts), Json::obj())
        }
    };
    let correct = tally.correct();
    let attempted = tally.attempted.max(1);
    detail
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", tally.failed)
        .set("checks", checks_json(&tally));
    let result_line = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics);
    Report {
        detail,
        result_line,
        correct,
    }
}

/// The end-to-end pass: tracing off, metrics as a user of the system sees
/// them.
fn untraced_pass(spec: &Spec, opts: &RunOpts, tally: &mut Tally) -> Result<(Json, Json), String> {
    let (min_setups, setup_window) = if opts.smoke {
        (1, Duration::ZERO)
    } else {
        (MIN_SETUPS, SETUP_WINDOW)
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let started = Instant::now();
    while setup_s.len() < min_setups
        || (started.elapsed() < setup_window && setup_s.len() < MAX_SETUPS)
    {
        // Free the previous corpus first: set-up must not double the
        // resident set the jobs are measured against.
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(set_up(spec, opts, tally)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");

    let (min_jobs, window) = if opts.smoke {
        (1, Duration::ZERO)
    } else {
        (MIN_JOBS, Duration::from_secs_f64(opts.seconds))
    };
    let mut jobs: Vec<JobOutput> = Vec::new();
    let mut launched = 0;
    let started = Instant::now();
    while launched < min_jobs || (started.elapsed() < window && launched < MAX_JOBS) {
        launched += 1;
        if let Some(out) = checked_job(spec, &prepared, &opts.scratch, jobs.first(), tally) {
            jobs.push(out);
        }
    }
    let first = jobs.first().ok_or("no job completed")?;
    pinned_digest_check(spec, opts, first.digest, tally);

    let wall: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let cpu: Vec<f64> = jobs.iter().map(|j| j.cpu_s).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_mb).collect();
    let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let values = [
        ("setup_s", median(&setup_s)),
        ("job_s", median(&wall)),
        // /proc/self/stat counts 10 ms ticks, too coarse for a per-job
        // median: the mean over the timed jobs resolves finer.
        ("job_cpu_s", cpu.iter().sum::<f64>() / cpu.len() as f64),
        ("peak_rss_mb", median(&rss)),
        ("ok_share", ok_share),
        (
            "wire_bytes_per_pair",
            first.ledger.bytes as f64 / first.compared.max(1) as f64,
        ),
        ("recall", first.recall),
        ("precision", first.precision),
    ];
    // The detail file carries all eight; the result line the gated five
    // that `BENCHMARK.json` lists as end-to-end.
    let mut end_to_end = Json::obj();
    let mut line = Json::obj();
    for (name, value) in values {
        end_to_end.set(name, metric_json(name, value));
        if END_TO_END.iter().any(|d| d.name == name) {
            line.set(name, metric_json(name, value));
        }
    }
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let mut detail = base_detail(spec, opts);
    detail
        .set("end_to_end", end_to_end)
        .set(
            "samples",
            Json::obj()
                .with("setup_s", samples(&setup_s))
                .with("job_s", samples(&wall))
                .with("job_cpu_s", samples(&cpu))
                .with("peak_rss_mb", samples(&rss)),
        )
        .set("jobs", jobs.len())
        .set("digest", format!("{:016x}", first.digest));
    Ok((detail, line))
}

/// Per-layer rows of one traced run, by metric name. `None` marks a row
/// that could not be measured on this host.
struct Rows(Vec<(&'static str, Option<f64>)>);

impl Rows {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, Some(value)));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
}

/// The traced pass: untraced jobs for the baseline alternating with staged
/// jobs that carry a span at each layer boundary, then the layers' own rows.
fn traced_pass(spec: &Spec, opts: &RunOpts, tally: &mut Tally) -> Result<(Json, Json), String> {
    let prepared = set_up(spec, opts, tally)?;
    let config = spec.config(1);
    let is_party = matches!(spec.driver, Driver::Party { .. });

    // The staged job is the program's own stages called one by one with a
    // span around each. For a party workload it is the in-process run of
    // the same backend and pairs: the front end every party repeats, and
    // the base of `core.party_overhead_ratio`.
    let mut staged_spec = *spec;
    if is_party {
        staged_spec.driver = Driver::InProcess;
    }
    // Untraced and staged jobs alternate, so that drift on a shared host
    // falls on both; the medians are compared, the last staged job's spans
    // are reported.
    let rounds = if opts.smoke { 1 } else { 3 };
    let mut jobs = Vec::new();
    let mut staged_runs = Vec::new();
    for _ in 0..rounds {
        if let Some(out) = checked_job(spec, &prepared, &opts.scratch, jobs.first(), tally) {
            jobs.push(out);
        }
        staged_runs.push(staged::staged_job(
            &staged_spec,
            &config,
            &prepared.r,
            &prepared.s,
            &opts.scratch,
        )?);
    }
    let first = jobs.first().ok_or("no job completed")?.clone();
    let job_s = median(&jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>());
    let staged_s = median(
        &staged_runs
            .iter()
            .map(|run| run.tracer.total_s("core.job"))
            .collect::<Vec<_>>(),
    );
    let staged = staged_runs.pop().expect("at least one round");
    tally.check(
        "staged job reproduces the digest",
        staged.digest == first.digest,
        format!("{:016x} vs {:016x}", staged.digest, first.digest),
    );

    let mut rows = Rows(Vec::new());
    rows.put("data.synth_s", prepared.synth_s);
    stage_rows(&mut rows, spec, &staged);
    job_rows(&mut rows, spec, &first);

    // Journal read path and executor scaling: the journaled workload only.
    let mut resume = (0.0, 0.0);
    let mut speedup = None;
    let threads = spec.threads();
    if spec.driver == Driver::Journaled {
        resume = resume_half(spec, &prepared, &opts.scratch, first.digest, tally)?;
        if threads > 1 {
            let mut single = *spec;
            single.host_threads = false;
            let out = run_job(&single, &config, &prepared.r, &prepared.s, &opts.scratch)?;
            tally.check(
                "one executor thread reproduces the digest",
                out.digest == first.digest,
                String::new(),
            );
            speedup = Some(out.wall_s / job_s);
        }
    }
    rows.put("journal.resume_s", resume.0);
    rows.put("journal.resume_replayed_share", resume.1);
    rows.put("runtime.threads", threads as f64);
    // No second core, no claim: null in the result file.
    rows.0.push(("runtime.speedup", speedup));

    // What `HybridLinkage::run` does beside its stages, from the staged
    // job's own spans: leftover labelling, scoring, and the glue between.
    let core_self_s = staged.tracer.self_s_by_layer();
    let core_self_s = core_self_s.iter().find(|(layer, _)| layer == "core");
    rows.put("core.other_s", core_self_s.map_or(0.0, |(_, s)| *s));
    let busy = first.party_cpu_s.map(|cpu| cpu.map(|c| c / first.wall_s));
    for (i, name) in [
        "core.query_busy_share",
        "core.alice_busy_share",
        "core.bob_busy_share",
    ]
    .into_iter()
    .enumerate()
    {
        rows.put(name, busy.map_or(0.0, |b| b[i]));
    }
    rows.put(
        "core.party_overhead_ratio",
        if is_party { job_s / staged_s } else { 0.0 },
    );
    rows.put(
        "trace.overhead_share",
        if is_party {
            0.0
        } else {
            staged_s / job_s - 1.0
        },
    );

    let micro_rows = if opts.micro {
        let budget = Duration::from_millis(if opts.smoke { 10 } else { 200 });
        micro::run(budget, &opts.scratch)?
    } else {
        Vec::new()
    };
    // Assemble: the detail file keeps `null` where nothing was measurable,
    // the result line (numbers only) says 0 there.
    let mut per_layer = Json::obj();
    let mut line = Json::obj();
    for def in EXACT.iter().chain(PER_WORKLOAD) {
        let value = rows.get(def.name);
        per_layer.set(
            def.name,
            Json::obj()
                .with("value", Json::from(value))
                .with("unit", def.unit),
        );
        line.set(def.name, metric_json(def.name, value.unwrap_or(0.0)));
    }
    let mut micro_json = Json::obj();
    for def in MICRO {
        if let Some((_, value)) = micro_rows.iter().find(|(name, _)| *name == def.name) {
            micro_json.set(def.name, metric_json(def.name, *value));
            line.set(def.name, metric_json(def.name, *value));
        }
    }
    let t = &staged.tracer;
    let self_time = Json::Obj(
        t.self_s_by_layer()
            .into_iter()
            .map(|(layer, s)| (layer, Json::Num(s)))
            .collect(),
    );
    let mut detail = base_detail(spec, opts);
    detail
        .set("per_layer", per_layer)
        .set("micro", micro_json)
        .set("untraced_job_s", job_s)
        .set("staged_job_s", staged_s)
        .set("self_time_s", self_time)
        .set("spans", t.to_json(spec.name, 0))
        .set("digest", format!("{:016x}", first.digest));
    Ok((detail, line))
}

/// The `anon`, `blocking` and `smc` rows of the staged job.
fn stage_rows(rows: &mut Rows, spec: &Spec, staged: &staged::StagedOutput) {
    let t = &staged.tracer;
    let (anon_s, blocking_s) = (t.total_s("anon."), t.total_s("blocking."));
    let (smc_start_s, smc_run_s) = (t.total_s("smc.start"), t.total_s("smc.run"));
    let class_pairs = (staged.r_classes * staged.s_classes) as f64;
    rows.put("anon.anonymize_s", anon_s);
    rows.put("anon.records_per_s", (2 * spec.records) as f64 / anon_s);
    rows.put("anon.classes", (staged.r_classes + staged.s_classes) as f64);
    rows.put("blocking.run_s", blocking_s);
    rows.put("blocking.class_pairs_per_s", class_pairs / blocking_s);
    rows.put(
        "blocking.unknown_class_pairs",
        staged.unknown_class_pairs as f64,
    );
    rows.put("blocking.efficiency", staged.blocking_efficiency);
    rows.put("smc.start_s", smc_start_s);
    rows.put("smc.run_s", smc_run_s);
    rows.put("smc.pairs_per_s", staged.compared as f64 / smc_run_s);
    rows.put("smc.pair_us_p50", median(&staged.pair_us));
    rows.put("smc.pair_us_p99", percentile(&staged.pair_us, 99.0));
    rows.put(
        "smc.match_yield",
        staged.smc_matched as f64 / staged.compared.max(1) as f64,
    );
    rows.put("smc.abandoned", staged.abandoned as f64);
}

/// Rows counted from one untraced job's ledger, wire statistics and
/// journals: exact, and zero where the workload bypasses the layer.
fn job_rows(rows: &mut Rows, spec: &Spec, job: &JobOutput) {
    let pairs = job.compared.max(1) as f64;
    let ledger = &job.ledger;
    let bloom = spec.backend == Backend::Bloom;
    rows.put(
        "bloom.clk_bits_per_pair",
        if bloom {
            8.0 * ledger.bytes as f64 / pairs
        } else {
            0.0
        },
    );
    rows.put(
        "crypto.encryptions_per_pair",
        ledger.encryptions as f64 / pairs,
    );
    rows.put(
        "crypto.decryptions_per_pair",
        ledger.decryptions as f64 / pairs,
    );
    rows.put(
        "crypto.exponentiations_per_pair",
        ledger.exponentiations() as f64 / pairs,
    );
    rows.put("crypto.messages_per_pair", ledger.messages as f64 / pairs);

    let net = job.net.unwrap_or_default();
    rows.put("net.frames_per_pair", net.frames_sent as f64 / pairs);
    rows.put("net.wire_bytes_per_pair", net.bytes_sent as f64 / pairs);
    rows.put(
        "net.framing_overhead",
        if job.net.is_some() && ledger.bytes > 0 {
            net.bytes_sent as f64 / ledger.bytes as f64
        } else {
            0.0
        },
    );
    rows.put("net.retransmits", net.retransmits as f64);
    rows.put("net.reconnects", net.reconnects as f64);
    rows.put("net.batches_sent", net.batches_sent as f64);
    rows.put("net.max_window", net.max_window as f64);
    rows.put("journal.bytes_per_pair", job.journal_bytes as f64 / pairs);
    rows.put("wire_bytes_per_pair", ledger.bytes as f64 / pairs);
    rows.put("recall", job.recall);
    rows.put("precision", job.precision);
}

/// The journal's read path: copy a finished journal, cut it to half its
/// bytes, resume it. Returns `(seconds, share of pairs not re-executed)`.
fn resume_half(
    spec: &Spec,
    prepared: &Prepared,
    scratch: &Path,
    one_shot_digest: u64,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("resume journal: {e}");
    let copy = scratch.join("resume.journal");
    let len = std::fs::copy(journal_path(scratch), &copy).map_err(io)?;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&copy)
        .and_then(|f| f.set_len(len / 2))
        .map_err(io)?;
    let pipeline = HybridLinkage::new(spec.config(1)).with_threads(spec.threads());
    let t0 = Instant::now();
    let resumed = journal_run::resume(
        &pipeline,
        &prepared.r,
        &prepared.s,
        &copy,
        &journal_options(),
    )
    .map_err(|e| e.to_string())?;
    let resume_s = t0.elapsed().as_secs_f64();
    let digest = crate::workloads::matched_digest(&resumed.outcome);
    tally.check(
        "resumed run reproduces the one-shot digest",
        digest == one_shot_digest,
        format!("{digest:016x} vs {one_shot_digest:016x}"),
    );
    let kept = (resumed.restored_pairs + resumed.replayed_pairs) as f64;
    Ok((resume_s, kept / budget_pairs(spec).max(1) as f64))
}

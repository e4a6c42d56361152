//! The repo benchmark. `benchmark/run.sh` builds this and is the one
//! command to run; see `benchmark/README.md` for what each workload and
//! metric is for.
//!
//! ```text
//! pprl-benchmark all       [--seed N] [--seconds S] [--out FILE] [--smoke]
//! pprl-benchmark run       --workload W --seed N --seconds S --trace 0|1
//! pprl-benchmark compare   A.json B.json
//! pprl-benchmark selfcheck [--seed N] [--seconds S] [--smoke]
//! ```

mod catalog;
mod compare;
mod host;
mod json;
mod micro;
mod runner;
mod staged;
mod stats;
mod trace;
mod workloads;

use json::Json;
use runner::{RunOpts, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == flag)?;
        self.rest.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot read {raw:?}")),
        }
    }
}

/// Where journals and result files of this process go: inside the build
/// directory `run.sh` names, never outside the checkout.
fn scratch_root() -> PathBuf {
    std::env::var_os("PPRL_BENCH_SCRATCH")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-scratch"))
}

/// A scratch directory of this process's own, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = scratch_root().join(format!("p{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args {
        rest: argv.collect(),
    };
    let outcome = match command.as_str() {
        "run" => run_one(&args),
        "all" => run_all(&args),
        "compare" => compare_files(&args),
        "selfcheck" => selfcheck(&args),
        other => Err(format!(
            "unknown command {other:?}; expected run, all, compare or selfcheck"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("pprl-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process; the last line of stdout is the result.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let spec = workloads::find_spec(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let scratch = Scratch::new()?;
    let opts = RunOpts {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        trace: args.parsed::<u8>("--trace", 0)? != 0,
        smoke: args.has("--smoke"),
        micro: args.parsed::<u8>("--micro", 1)? != 0,
        scratch: scratch.0.clone(),
    };
    if !(opts.seconds.is_finite() && (0.0..=3600.0).contains(&opts.seconds)) {
        return Err(format!("--seconds: {} is out of range", opts.seconds));
    }
    let report = runner::run(spec, &opts);
    if let Some(path) = args.value("--detail") {
        std::fs::write(path, report.detail.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    print_report(&report.detail);
    println!("{}", report.result_line.render());
    Ok(report.correct)
}

/// Every metric by name with its unit, then the checks.
fn print_report(detail: &Json) {
    let text = |key: &str| detail.get(key).and_then(Json::as_str).unwrap_or("?");
    println!(
        "== {} ({}) ==",
        text("workload"),
        detail
            .get("config")
            .and_then(|c| c.get("summary"))
            .and_then(Json::as_str)
            .unwrap_or("?")
    );
    if let Some(jobs) = detail.get("jobs").and_then(Json::as_f64) {
        println!(
            "  timed jobs: {jobs} (job_s is their median; no percentile below ten samples past it)"
        );
    }
    for section in ["end_to_end", "per_layer", "micro"] {
        for (name, metric) in detail.get(section).map_or(&[][..], Json::entries) {
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            match metric.get("value").and_then(Json::as_f64) {
                Some(v) => println!("  {name:<34} {v:>16.6} {unit}"),
                None => println!("  {name:<34} {:>16} {unit}", "n/a"),
            }
        }
    }
    for (layer, secs) in detail.get("self_time_s").map_or(&[][..], Json::entries) {
        println!(
            "  self time {layer:<24} {:>16.6} s",
            secs.as_f64().unwrap_or(0.0)
        );
    }
    for check in detail.get("checks").map_or(&[][..], Json::items) {
        let ok = check.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let name = check.get("name").and_then(Json::as_str).unwrap_or("?");
        let why = check.get("detail").and_then(Json::as_str).unwrap_or("");
        if ok {
            println!("  check ok    {name}");
        } else {
            println!("  check FAIL  {name}: {why}");
        }
    }
}

/// Untraced rounds of the all-workload command. A workload's threads can
/// settle into one scheduling pattern for a whole process, so the spread
/// inside one process understates how far two runs of one build differ:
/// each workload is measured in this many child processes, its metric is
/// the median over them, and `compare` takes its spread across them.
const ROUNDS: usize = 3;

/// A pass: per workload, the detail documents of the child processes
/// that measured it.
type Pass = Vec<(&'static str, Vec<Json>)>;

/// Runs `rounds` rounds over every workload, each run in its own child
/// process. Rounds go workload by workload, so that drift on a shared
/// host falls on every workload alike; `--seconds` is shared out between
/// the `ROUNDS` rounds that make one result.
fn run_pass(
    args: &Args,
    trace: bool,
    rounds: usize,
    scratch: &Path,
) -> Result<(Pass, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds = args.parsed("--seconds", DEFAULT_SECONDS)? / rounds_per_result(args) as f64;
    let mut docs: Pass = workloads::SPECS
        .iter()
        .map(|spec| (spec.name, Vec::new()))
        .collect();
    let mut all_ok = true;
    for round in 0..rounds {
        for (i, spec) in workloads::SPECS.iter().enumerate() {
            let detail = scratch.join(format!("{}-{}.json", spec.name, u8::from(trace)));
            let mut child = Command::new(&exe);
            child
                .arg("run")
                .args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                // The micro rows do not depend on the workload: once is enough.
                .args(["--micro", if i == 0 && round == 0 { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail)
                .stdin(Stdio::null());
            if args.has("--smoke") {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", spec.name))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&detail).map_err(|e| {
                format!("{}: no result ({e}); child exited with {status}", spec.name)
            })?;
            docs[i].1.push(Json::parse(&text)?);
        }
    }
    Ok((docs, all_ok))
}

/// One workload's entry of the result file: the first round's document,
/// with each end-to-end metric replaced by its median over the rounds
/// (`runs` keeps every round's value) and the traced run's sections added.
fn merged_workload(rounds: &[Json], traced: Option<&Json>) -> Json {
    let mut entry = rounds[0].clone();
    let mut end_to_end = Json::obj();
    for (name, metric) in rounds[0].get("end_to_end").map_or(&[][..], Json::entries) {
        let runs: Vec<f64> = rounds
            .iter()
            .filter_map(|doc| doc.get("end_to_end")?.get(name)?.get("value")?.as_f64())
            .collect();
        let mut metric = metric.clone();
        metric.set("value", stats::median(&runs));
        metric.set("runs", Json::Arr(runs.into_iter().map(Json::Num).collect()));
        end_to_end.set(name, metric);
    }
    entry.set("end_to_end", end_to_end);
    let mut checks = Vec::new();
    let mut correct = true;
    for doc in rounds.iter().chain(traced) {
        checks.extend(
            doc.get("checks")
                .map_or(&[][..], Json::items)
                .iter()
                .cloned(),
        );
        correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
    }
    entry.set("checks", checks).set("correct", correct);
    if let Some(t) = traced {
        for key in [
            "per_layer",
            "untraced_job_s",
            "staged_job_s",
            "self_time_s",
            "spans",
        ] {
            if let Some(v) = t.get(key) {
                entry.set(key, v.clone());
            }
        }
    }
    entry
}

/// The result file: host facts once, then per workload the end-to-end
/// rounds and the traced run side by side.
fn merged(untraced: &Pass, traced: Option<&Pass>, args: &Args) -> Result<Json, String> {
    let mut workloads = Json::obj();
    let mut micro = Json::Null;
    for (i, (name, rounds)) in untraced.iter().enumerate() {
        let t = traced.and_then(|t| t[i].1.first());
        workloads.set(name, merged_workload(rounds, t));
        if let Some(m) = t.and_then(|t| t.get("micro")) {
            if !m.entries().is_empty() {
                micro = m.clone();
            }
        }
    }
    Ok(Json::obj()
        .with("schema", "pprl-benchmark/1")
        .with("host", host::facts())
        .with("seed", args.parsed("--seed", DEFAULT_SEED)?)
        .with("smoke", args.has("--smoke"))
        .with("rounds", untraced.first().map_or(0, |(_, r)| r.len()))
        .with("micro", micro)
        .with("workloads", workloads))
}

/// The end-to-end metrics of every workload as the result file has them:
/// median over the rounds and the spread across them.
fn print_summary(doc: &Json) {
    println!("== end-to-end, median of the rounds (spread across them) ==");
    for (name, workload) in doc.get("workloads").map_or(&[][..], Json::entries) {
        for (metric, m) in workload.get("end_to_end").map_or(&[][..], Json::entries) {
            let runs: Vec<f64> = m
                .get("runs")
                .map_or(&[][..], Json::items)
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            println!(
                "  {name:<22} {metric:<22} {:>14.6} {:<6} ({:.2}%, {} runs)",
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                stats::spread(&runs) * 100.0,
                runs.len()
            );
        }
    }
}

fn rounds_per_result(args: &Args) -> usize {
    if args.has("--smoke") {
        1
    } else {
        ROUNDS
    }
}

fn run_all(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let (untraced, ok_a) = run_pass(args, false, rounds_per_result(args), &scratch.0)?;
    let (traced, ok_b) = run_pass(args, true, 1, &scratch.0)?;
    let doc = merged(&untraced, Some(&traced), args)?;
    print_summary(&doc);
    if let Some(path) = args.value("--out") {
        std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let ok = ok_a && ok_b;
    println!(
        "benchmark: {} workloads, {}",
        workloads::SPECS.len(),
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.rest[..] else {
        return Err("compare needs two result files".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    compare::print(&rows);
    Ok(!compare::any_worse(&rows))
}

/// Two untraced results of the same build, fed to `compare`: the benchmark
/// must agree with itself within its own bounds. Their rounds alternate,
/// so that a host that speeds up or slows down over the minutes this takes
/// does so for both.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let (both, ok) = run_pass(args, false, 2 * rounds_per_result(args), &scratch.0)?;
    let every_other = |from: usize| -> Pass {
        both.iter()
            .map(|(name, docs)| (*name, docs.iter().skip(from).step_by(2).cloned().collect()))
            .collect()
    };
    let (first, second) = (every_other(0), every_other(1));
    let rows = compare::compare(&merged(&first, None, args)?, &merged(&second, None, args)?)?;
    compare::print(&rows);
    Ok(ok && !compare::any_worse(&rows))
}

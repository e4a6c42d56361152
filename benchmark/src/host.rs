//! Host and build facts, and the `/proc` counters the harness samples.

use crate::json::Json;
use std::fs;

/// Clock ticks per second of `/proc/*/stat` times. Linux has exported 100
/// to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// Process CPU time (user + system, every thread that ever ran) in
/// seconds, from `/proc/self/stat`; `None` where `/proc` is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces: fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// On-CPU time of the calling thread in seconds, from
/// `/proc/thread-self/schedstat`; `None` where the kernel lacks it.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// Restarts the kernel's record of this process's peak resident set from
/// its current resident set. A no-op where `/proc/self/clear_refs` is not
/// writable; the peak then stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Worker threads the host can actually run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// True when the build resolved `rand` to the offline SplitMix stub.
/// `run.sh` knows which registry it built against and says so; the real
/// crate has no constant to ask.
pub fn rand_is_stub() -> Option<bool> {
    match std::env::var("PPRL_BENCH_RAND").ok()?.as_str() {
        "stub" => Some(true),
        "crates-io" => Some(false),
        _ => None,
    }
}

/// Everything a reader needs to decide whether two result files are
/// comparable: recorded with every output.
pub fn facts() -> Json {
    let nproc = fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .with("nproc", nproc)
        .with("available_parallelism", available_parallelism())
        .with(
            "cpu_model",
            first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        )
        .with("kernel", kernel)
        .with("rustc", env_or_unknown("PPRL_BENCH_RUSTC"))
        .with("git_commit", env_or_unknown("PPRL_BENCH_COMMIT"))
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with(
            "rand_is_stub",
            rand_is_stub().map_or(Json::Null, Json::Bool),
        )
}

/// The CPUs this process may run on, lowest first (empty where the call
/// is unavailable).
pub fn allowed_cpus() -> Vec<usize> {
    affinity::allowed()
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    affinity::pin(cpu)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        let Some(word) = set.get_mut(cpu / 64) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

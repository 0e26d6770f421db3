//! What the process and host report about themselves: peak resident set,
//! minor page faults, and the host and build stamp every result carries.

use std::process::{Command, Stdio};

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Minor page faults taken by this process so far (`/proc/self/stat`
/// field 10).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may hold spaces.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "unknown".into())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, L2/L3 sizes, rustc version, rayon thread count, git commit and
/// seed, as one `key=value` line.
pub fn host_stamp(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "workload={workload} seed={seed} nproc={nproc} l2={} l3={} rustc=\"{}\" rayon_threads={} commit={}",
        cache_size(2),
        cache_size(3),
        first_line_of("rustc", &["--version"]),
        rayon::current_num_threads(),
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

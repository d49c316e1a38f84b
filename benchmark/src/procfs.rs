//! CPU time and memory of this process, read from `/proc`.
//!
//! CPU comes from `schedstat` (nanoseconds a task actually ran) rather than
//! `stat` (10 ms ticks): a one-second window at ~0.8 core would otherwise
//! carry a ±1.25 % quantisation error into `cpu_us_per_pkt`.

use std::fs;

/// First field of a `schedstat` file: nanoseconds spent on a CPU.
fn run_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU nanoseconds consumed by every live thread of this process. Threads
/// that exited take their time with them, so differences are only taken
/// across phases in which no server is killed.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| run_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// CPU nanoseconds consumed by the calling thread (the load driver).
pub fn thread_cpu_ns() -> u64 {
    run_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// One `Vm…` line of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size right now (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// `(steal, total)` clock ticks of all CPUs since boot, from the first line
/// of `/proc/stat`. Steal is time the hypervisor ran something else while
/// this machine had work to do.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user and nice).
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings, percent.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> f64 {
    100.0 * to.0.saturating_sub(from.0) as f64 / to.1.saturating_sub(from.1).max(1) as f64
}

/// Number of CPUs the scheduler may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

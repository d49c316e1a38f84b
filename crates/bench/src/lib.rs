//! Shared plumbing for the figure benchmark harnesses.
//!
//! Every `benches/figN_*.rs` target regenerates one figure of the
//! paper's evaluation (§7) and prints it in a uniform format: the measured
//! series side by side with the value the paper reports, so
//! `cargo bench --workspace` produces the raw material for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runs;

use std::fmt::Display;
use std::time::Duration;

/// Prints a figure/table banner.
pub fn banner(id: &str, title: &str, method: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("method: {method}");
    println!("================================================================");
}

/// Prints one aligned row of label → values.
pub fn row<V: Display>(label: &str, values: &[V]) {
    print!("{label:<26}");
    for v in values {
        print!(" {v:>12}");
    }
    println!();
}

/// Formats Mpps with two decimals.
pub fn mpps(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a duration in µs with one decimal.
pub fn us(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.1}", d.as_secs_f64() * 1e6),
        None => "-".into(),
    }
}

/// A paper-reported anchor, printed next to measurements.
pub fn paper_note(note: &str) {
    println!("paper: {note}");
}

/// Duration used for throughput simulation runs (long enough for steady
/// state, short enough that sweeps finish quickly in release mode).
pub const SIM_TPUT_S: f64 = 0.04;
/// Duration for latency simulation runs.
pub const SIM_LAT_S: f64 = 0.03;
/// Duration for snapshot-stall runs (must span many 50 ms periods).
pub const SIM_SNAP_S: f64 = 0.5;

/// True when `FTC_BENCH_QUICK=1`: smoke-test mode, where every bench entry
/// runs with tiny durations/iteration counts just to prove it still works.
pub fn quick_mode() -> bool {
    std::env::var("FTC_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// A simulated duration, collapsed to a couple of milliseconds in quick
/// mode.
pub fn sim_secs(full: f64) -> f64 {
    if quick_mode() {
        full.min(0.002)
    } else {
        full
    }
}

/// An iteration/packet count, collapsed in quick mode.
pub fn quick_count(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick.min(full)
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(mpps(8.276), "8.28");
        assert_eq!(us(Some(Duration::from_micros(23))), "23.0");
        assert_eq!(us(None), "-");
    }
}

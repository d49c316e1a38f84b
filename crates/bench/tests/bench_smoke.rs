//! Tier-1 smoke test: every bench entry point runs end to end in quick mode.
//!
//! The bench harnesses only execute during explicit `cargo bench` runs, so
//! without this test a refactor can silently break them. Each case sets
//! `FTC_BENCH_QUICK=1` (tiny iteration counts, collapsed durations — see
//! `ftc_bench::quick_mode`) and calls the same `run()` the bench binary
//! calls; the assertion is simply "completes without panicking".

use ftc_bench::runs;

/// All tests set the same value, so concurrent setting is benign.
fn quick() {
    std::env::set_var("FTC_BENCH_QUICK", "1");
}

#[test]
fn smoke_ablations() {
    quick();
    runs::ablations::run();
}

#[test]
fn smoke_fig5_state_size() {
    quick();
    runs::fig5_state_size::run();
}

#[test]
fn smoke_fig6_sharing() {
    quick();
    runs::fig6_sharing::run();
}

#[test]
fn smoke_fig7_threads() {
    quick();
    runs::fig7_threads::run();
}

#[test]
fn smoke_fig8_latency_load() {
    quick();
    runs::fig8_latency_load::run();
}

#[test]
fn smoke_fig9_chain_length() {
    quick();
    runs::fig9_chain_length::run();
}

#[test]
fn smoke_fig10_chain_latency() {
    quick();
    runs::fig10_chain_latency::run();
}

#[test]
fn smoke_fig11_latency_cdf() {
    quick();
    runs::fig11_latency_cdf::run();
}

#[test]
fn smoke_fig12_replication_factor() {
    quick();
    runs::fig12_replication_factor::run();
}

#[test]
fn smoke_fig13_recovery() {
    quick();
    runs::fig13_recovery::run();
}

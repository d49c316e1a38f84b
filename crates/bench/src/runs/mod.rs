//! The bench entry points as callable library functions.
//!
//! Each `benches/*.rs` target is a thin `main` that calls the matching
//! `run()` here, so the whole bench surface is also reachable from the test
//! suite: `tests/bench_smoke.rs` runs every entry with `FTC_BENCH_QUICK=1`
//! (tiny iteration counts) and keeps the harnesses from bit-rotting between
//! full `cargo bench` runs.

pub mod ablations;
pub mod fig10_chain_latency;
pub mod fig11_latency_cdf;
pub mod fig12_replication_factor;
pub mod fig13_recovery;
pub mod fig5_state_size;
pub mod fig6_sharing;
pub mod fig7_threads;
pub mod fig8_latency_load;
pub mod fig9_chain_length;

//! The FTC orchestrator (paper §3.2, §5.2).
//!
//! "A central orchestrator manages the network and chains. The orchestrator
//! deploys fault tolerant chains, reliably monitors them, detects their
//! failures, and initiates failure recovery. … After deploying a chain, the
//! orchestrator is not involved in normal chain operations to avoid
//! becoming a performance bottleneck."
//!
//! The orchestrator here plays the role ONOS plays in the paper's
//! implementation: a control-plane process that heartbeats the replicas
//! ([`detector`]), and when one fail-stops, executes the three recovery
//! steps of §5.2 — **initialization** (spawn a new replica at the failure
//! position and tell it about its groups), **state recovery** (parallel
//! fetches following the §4.1 source-selection rule), and **rerouting**
//! (steering traffic through the replacement) — reporting the duration of
//! each step, which is exactly what Fig. 13 plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod orchestrator;
pub mod proc;
pub mod reconfig;
pub mod testkit;

pub use detector::detect_failures;
pub use orchestrator::{spawn_monitor, Orchestrator, OrchestratorConfig, RecoveryReport};
pub use proc::{NodeOpts, ProcChain, ProcConfig};
pub use reconfig::ReconfigReport;

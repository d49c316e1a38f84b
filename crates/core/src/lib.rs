//! FTC — fault tolerant service function chaining (the paper's protocol).
//!
//! This crate implements the complete data plane of the paper:
//!
//! * [`config`] — chain configuration and the logical-ring arithmetic of
//!   replication groups (§5: "viewing a chain as a logical ring, the
//!   replication group of a middlebox consists of a replica and its `f`
//!   succeeding replicas").
//! * [`replica`] — the per-server protocol state: packet transactions at
//!   the *head*, the apply rule for replicated piggyback logs, tail
//!   stripping and commit vectors, parked packets for out-of-order logs,
//!   and propagating packets for filtered traffic.
//! * [`dataplane`] — the one run-to-completion loop every server thread
//!   runs: worker 0 leads the receive (with the forwarder inline on server
//!   0), RSS hand-off to the other workers, the buffer inline behind the
//!   last replica's out-port.
//! * [`forwarder`] / [`buffer`] — the chain's ingress and egress elements
//!   (§5.1): the forwarder piggybacks tail-of-chain state onto incoming
//!   packets (and emits propagating packets on idle); the buffer withholds
//!   packets until commit vectors prove `f+1` replication, and feeds the
//!   wrapped state updates back to the forwarder.
//! * [`chain`] — builds and wires a running chain over `ftc-net` servers
//!   and links, exposing inject/egress endpoints, failure
//!   injection, and per-replica control handles.
//! * [`control`] — the control-plane RPC surface (heartbeats, state fetch)
//!   and the swappable link ports used for rerouting during recovery.
//! * [`replace`] — the one procedure that replaces a replica, for §5.2
//!   recovery and for a planned migrate or scale ([`reconfig`] names the
//!   phases): spawn, fetch every group per the paper's source-selection
//!   rule, switch, resume — over a [`replace::Driver`] that does the IO.
//! * [`metrics`] — counters and timing breakdowns (Table 2), read
//!   through [`ChainMetrics::snapshot`].
//! * [`hist`] — log-bucketed latency histograms (Fig. 11 CDFs and the
//!   tails behind every Table-2 stage).
//! * [`journal`] — the chain-wide event journal and the Fig-13 recovery
//!   timeline derived from it.
//! * [`probe`] — step-granular instrumentation hooks: a model checker can
//!   pause/crash protocol components at exact protocol steps.
//! * [`testkit`] — a deterministic single-threaded harness over the same
//!   protocol objects (and a [`replace::Driver`]), for schedule-exploring
//!   property tests, plus the [`testkit::ScenarioChain`] trait one failure
//!   scenario body runs against on either this harness or the threaded
//!   orchestrator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod chain;
pub mod config;
pub mod control;
pub mod dataplane;
pub mod forwarder;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod probe;
pub mod reconfig;
pub mod replace;
pub mod replica;
pub mod testkit;

pub use chain::{ChainHandles, ChainSystem, Egress, FtcChain};
pub use config::{ChainConfig, RingMath};
pub use hist::Histogram;
pub use journal::{Event, EventKind, EventSource, Journal, RecoveryTimeline};
pub use metrics::{ChainMetrics, MetricsSnapshot};
pub use probe::{ProbePoint, ProbeSlot, ProbeVerdict, ProtocolProbe};
pub use reconfig::{ReconfigActor, ReconfigFailure, ReconfigOp, ReconfigPhase};
pub use replace::{replace, Plan, RecoveryError, ReplaceReport};

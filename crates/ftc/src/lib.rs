//! # FTC — Fault Tolerant Service Function Chaining
//!
//! A Rust implementation of *"Fault Tolerant Service Function Chaining"*
//! (Ghaznavi, Jalalpour, Wong, Boutaba, Mashtizadeh — SIGCOMM 2020).
//!
//! FTC makes an entire chain of middleboxes fault tolerant by piggybacking
//! state updates onto the packets themselves and replicating them *along
//! the chain*: every server hosting a middlebox doubles as a replica for
//! its `f` predecessors, so `f` failures are tolerated with **zero
//! dedicated replica servers** and strong consistency — a packet leaves the
//! chain only once every state update it caused is replicated `f + 1`
//! times.
//!
//! ## Quick start
//!
//! ```
//! use ftc::prelude::*;
//! use std::time::Duration;
//!
//! // An IDS-ish chain: firewall → monitor → NAT, tolerating 1 failure.
//! let chain = FtcChain::deploy(
//!     ChainConfig::new(vec![
//!         MbSpec::Firewall { rules: vec![] },
//!         MbSpec::Monitor { sharing_level: 1 },
//!         MbSpec::SimpleNat { external_ip: "203.0.113.1".parse().unwrap() },
//!     ])
//!     .with_f(1),
//! );
//!
//! chain.inject(UdpPacketBuilder::new().build());
//! let out = chain.egress().recv(Duration::from_secs(5)).expect("released");
//! assert!(!out.has_piggyback(), "trailers never leave the chain");
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`packet`] | `ftc-packet` | headers, flow keys, the piggyback wire format |
//! | [`stm`] | `ftc-stm` | transactional state stores, dependency vectors |
//! | [`net`] | `ftc-net` | links, reliable transport, NICs, servers, regions |
//! | [`mbox`] | `ftc-mbox` | the Click-style framework and Table-1 middleboxes |
//! | [`core`] | `ftc-core` | the FTC protocol: replicas, forwarder, buffer |
//! | [`orch`] | `ftc-orch` | failure detection and three-step recovery |
//! | [`baselines`] | `ftc-baselines` | NF and FTMB(+Snapshot) comparators |
//! | [`sim`] | `ftc-sim` | the calibrated performance models (figures) |
//! | [`traffic`] | `ftc-traffic` | workload generation and measurement |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftc_baselines as baselines;
pub use ftc_core as core;
pub use ftc_mbox as mbox;
pub use ftc_net as net;
pub use ftc_orch as orch;
pub use ftc_packet as packet;
pub use ftc_sim as sim;
pub use ftc_stm as stm;
pub use ftc_traffic as traffic;

/// The commonly used surface in one import.
pub mod prelude {
    pub use ftc_baselines::{FtmbChain, NfChain, SnapshotCfg};
    pub use ftc_core::chain::{ChainSystem, Egress};
    pub use ftc_core::config::ChainConfig;
    pub use ftc_core::journal::{Event, EventKind, EventSource, RecoveryTimeline};
    pub use ftc_core::metrics::MetricsSnapshot;
    pub use ftc_core::FtcChain;
    pub use ftc_mbox::{Action, MbSpec, Middlebox, ProcCtx};
    pub use ftc_net::topology::{RegionId, Topology};
    pub use ftc_net::{Endpoint, PeerAddr};
    pub use ftc_orch::{Orchestrator, OrchestratorConfig};
    pub use ftc_packet::builder::{TcpPacketBuilder, UdpPacketBuilder};
    pub use ftc_packet::Packet;
    pub use ftc_stm::{EngineKind, StateBackend, StateTxn, TxnError};
    pub use ftc_traffic::{TrafficRunner, Workload, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let cfg = ChainConfig::new(vec![MbSpec::Passthrough]);
        cfg.validate().unwrap();
    }
}

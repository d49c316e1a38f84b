//! The network substrate FTC runs on.
//!
//! The paper's testbed is a rack of servers joined by 10/40 GbE links.
//! This crate provides that environment behind a backend-agnostic
//! [`transport`] abstraction with two interchangeable backends:
//!
//! * **In-process** — impaired crossbeam channels reproduce the testbed on
//!   a single machine, deterministically (seeded impairments), so the
//!   protocol model checker and audit harness can explore schedules.
//! * **Socket** ([`sock`]) — tokio TCP/UDS connections with length-prefixed
//!   framing and one multiplexed connection per peer pair, so a chain
//!   deploys as N OS processes (`ftc node`).
//!
//! Modules:
//!
//! * [`transport`] — the `Transport`/`FrameTx`/`FrameRx`/`RpcCaller`/
//!   `RpcResponder` trait surfaces plus [`Endpoint`]/[`PeerAddr`] naming;
//!   the one way to describe and configure a link.
//! * [`reliable`] — the sequenced, NACK-based reliable delivery layer the
//!   paper assumes between replicas ("FTC uses sequence numbers, similar to
//!   TCP, to handle out-of-order deliveries and packet drops", §4.1); runs
//!   over any `RawLink`.
//! * [`link_pair`] — the data-link factory of the threaded chain: a plain
//!   FIFO channel when the [`Endpoint`] is in-process and declares no
//!   impairment, the reliable layer otherwise.
//! * [`sock`] — the tokio TCP/UDS backend.
//! * [`nic`] — a multi-queue NIC model with receive-side scaling by
//!   symmetric flow hash, so both directions of a flow reach the same
//!   worker thread (§2). A server's worker 0 leads the receive and runs its
//!   own flows inline; the queues carry the other workers' flows.
//! * [`server`] — fail-stop servers: named thread groups (one data-plane
//!   loop per worker plus a control thread) with a shared liveness token;
//!   killing a server stops its threads and drops its state.
//! * [`topology`] — named regions with an RTT matrix, reproducing the
//!   multi-region SAVI cloud used in the recovery evaluation (§7.5).
//! * [`rpc`] — the in-process request/response channel with injected WAN
//!   delay, used by the control plane (state fetch, heartbeats).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod link;
pub mod nic;
pub mod reliable;
pub mod rpc;
pub mod server;
pub mod sock;
pub mod topology;
pub mod transport;

pub use link::link_pair;
pub use reliable::{reliable_pair, reliable_pair_on, ReliableReceiver, ReliableSender};
pub use server::{AliveToken, Server};
pub use topology::{RegionId, Topology};
pub use transport::{
    Disconnected, Endpoint, FrameRx, FrameTx, InProcTransport, PeerAddr, RawLink, RpcCaller,
    RpcResponder, Transport, Wake,
};

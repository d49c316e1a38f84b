//! Deploying and wiring a running FTC chain.
//!
//! One server per middlebox (paper §3.2: no dedicated replica servers). The
//! forwarder shares the first server; the buffer shares the last — both run
//! inline on that server's data-plane loops ([`crate::dataplane`]), so a
//! chain of `n` positions runs `n × (workers + 1)` threads. Servers are
//! joined by links from [`link_pair`]: plain channels when the configured
//! endpoint declares no impairment, reliable sequenced links otherwise. The
//! buffer→forwarder feedback closes the logical ring.

use crate::buffer::{BufferSink, BufferState};
use crate::config::ChainConfig;
use crate::control::{ctrl_pair, CtrlClient, InPort, OutPort};
use crate::dataplane::{spawn_dataplane, Source, Stage};
use crate::forwarder::ForwarderState;
use crate::metrics::ChainMetrics;
use crate::replica::{spawn_ctrl, ReplicaState};
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender};
use ftc_net::nic::Nic;
use ftc_net::topology::{RegionId, Topology};
use ftc_net::{link_pair, Endpoint, Server};
use ftc_packet::Packet;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Anything that accepts packets at one end and releases them at the other
/// — implemented by [`FtcChain`] and by the baseline systems (NF, FTMB) so
/// the traffic harness can drive them interchangeably.
pub trait ChainSystem: Send + Sync {
    /// Injects an external packet at the ingress.
    fn inject_pkt(&self, pkt: Packet);
    /// Receives the next released packet, waiting up to `timeout`.
    fn egress_pkt(&self, timeout: Duration) -> Option<Packet>;
    /// Human-readable system name ("FTC", "NF", "FTMB", …).
    fn system_name(&self) -> &'static str;
}

impl ChainSystem for FtcChain {
    fn inject_pkt(&self, pkt: Packet) {
        self.inject(pkt);
    }

    fn egress_pkt(&self, timeout: Duration) -> Option<Packet> {
        self.egress().recv(timeout)
    }

    fn system_name(&self) -> &'static str {
        "FTC"
    }
}

/// A deployed replica and its attachments.
pub struct ReplicaSlot {
    /// Shared data-plane state.
    pub state: Arc<ReplicaState>,
    /// Control-plane client (zero network delay; derive with
    /// [`CtrlClient::with_delay`] for WAN callers).
    pub ctrl: CtrlClient,
    /// Incoming data link (swappable for rerouting).
    pub in_port: Arc<InPort>,
    /// Outgoing data link (swappable for rerouting).
    pub out_port: Arc<OutPort>,
    /// The replica's NIC: the queues worker 0 hands other workers' flows to
    /// (unused with `workers = 1`), and the overrun counter.
    pub nic: Arc<Nic>,
    /// Region this replica is deployed in.
    pub region: RegionId,
}

/// A cloneable handle to the chain's egress: every way of taking
/// released packets out of the chain, in one place.
///
/// Obtain one with [`FtcChain::egress`] (the baselines and the sync
/// test chain expose the same handle). All handles share the same
/// underlying channel, so packets are consumed exactly once across
/// handles.
#[derive(Clone)]
pub struct Egress {
    rx: Receiver<Packet>,
}

impl Egress {
    /// Wraps an egress channel. Systems releasing packets through a
    /// crossbeam channel (FTC, the baselines, the sync test chain) expose
    /// their egress this way so callers share one API.
    pub fn new(rx: Receiver<Packet>) -> Egress {
        Egress { rx }
    }

    /// Receives the next released packet, waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<Packet> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drains all currently released packets without waiting.
    pub fn drain(&self) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Ok(p) = self.rx.try_recv() {
            out.push(p);
        }
        out
    }

    /// Waits until `count` packets are released or `deadline` passes;
    /// returns the released packets.
    pub fn collect(&self, count: usize, deadline: Duration) -> Vec<Packet> {
        let start = std::time::Instant::now();
        let mut out = Vec::new();
        while out.len() < count {
            let left = deadline.saturating_sub(start.elapsed());
            if left.is_zero() {
                break;
            }
            match self.rx.recv_timeout(left) {
                Ok(p) => out.push(p),
                Err(channel::RecvTimeoutError::Timeout) => continue,
                Err(channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        out
    }
}

/// Handles to interact with a running chain.
pub struct ChainHandles {
    /// Send external packets here.
    pub ingress: Arc<Mutex<Sender<BytesMut>>>,
    /// Released packets appear here.
    pub egress: Receiver<Packet>,
}

/// A running FTC chain.
pub struct FtcChain {
    /// Configuration (with the effective, possibly padded, middlebox list).
    pub cfg: Arc<ChainConfig>,
    /// Chain-wide metrics.
    pub metrics: Arc<ChainMetrics>,
    /// One server per replica, by position. `None` after a kill until the
    /// orchestrator respawns the position.
    pub servers: Vec<Option<Server>>,
    /// Replica attachments by position.
    pub replicas: Vec<ReplicaSlot>,
    /// Ingress side (swapped when the first server is respawned).
    pub ingress: Arc<Mutex<Sender<BytesMut>>>,
    egress_rx: Receiver<Packet>,
    egress_tx: Sender<Packet>,
    /// The forwarder (soft state, respawned with server 0).
    pub forwarder: Arc<ForwarderState>,
    /// The buffer (soft state, respawned with server n-1).
    pub buffer: Arc<BufferState>,
    /// Feedback in-port at the forwarder side (swappable).
    pub feedback_in: Arc<InPort>,
    /// Cloud topology (single region by default).
    pub topology: Topology,
}

impl FtcChain {
    /// Deploys a chain in a single region.
    pub fn deploy(cfg: ChainConfig) -> FtcChain {
        let n = cfg.effective_middleboxes().len();
        Self::deploy_in(cfg, Topology::single(), vec![RegionId(0); n])
    }

    /// Deploys a chain across `regions` of `topology` (one entry per
    /// effective middlebox). Inter-replica link latency gains the
    /// inter-region one-way delay.
    pub fn deploy_in(cfg: ChainConfig, topology: Topology, regions: Vec<RegionId>) -> FtcChain {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let cfg = Arc::new(cfg);
        let specs = cfg.effective_middleboxes();
        let n = specs.len();
        assert_eq!(regions.len(), n, "one region per effective middlebox");
        let metrics = Arc::new(ChainMetrics::default());

        // Per-position parts.
        let mut servers = Vec::with_capacity(n);
        let mut slots: Vec<ReplicaSlot> = Vec::with_capacity(n);

        // buffer → forwarder feedback.
        let fb_link = Self::link_between(&cfg, &topology, regions[n - 1], regions[0], 7777);
        let (fb_tx, fb_rx) = link_pair(&fb_link);
        let feedback_out = Arc::new(OutPort::wired(fb_tx));
        let feedback_in = Arc::new(InPort::wired(fb_rx));

        // Ingress / egress.
        let (ingress_tx, ingress_rx) = channel::unbounded::<BytesMut>();
        let ingress = Arc::new(Mutex::new(ingress_tx));
        let (egress_tx, egress_rx) = channel::unbounded::<Packet>();

        let forwarder = ForwarderState::new(Arc::clone(&metrics));
        let buffer = BufferState::new(
            cfg.ring(),
            egress_tx.clone(),
            Arc::clone(&feedback_out),
            Arc::clone(&metrics),
        );

        // Data links between consecutive replicas. r0 has no incoming link
        // (its loop pulls the ingress) and r_{n-1}'s outgoing "link" is the
        // buffer, called inline.
        let mut in_ports: Vec<Arc<InPort>> = Vec::with_capacity(n);
        let mut out_ports: Vec<Arc<OutPort>> = Vec::with_capacity(n);
        in_ports.push(Arc::new(InPort::empty()));
        for i in 0..n - 1 {
            let link = Self::link_between(&cfg, &topology, regions[i], regions[i + 1], i as u64);
            let (tx, rx) = link_pair(&link);
            out_ports.push(Arc::new(OutPort::wired(tx)));
            in_ports.push(Arc::new(InPort::wired(rx)));
        }
        out_ports.push(Arc::new(OutPort::wired(BufferSink::new(
            Arc::clone(&buffer),
            cfg.resend_period,
        ))));

        for (i, spec) in specs.iter().enumerate() {
            let mut server = Server::new(format!("server{i}"), regions[i]);
            let state = ReplicaState::new(
                i,
                Arc::clone(&cfg),
                spec.build(),
                Arc::clone(&out_ports[i]),
                Arc::clone(&metrics),
            );
            let (stage, nic) = Stage::replica(Arc::clone(&state));
            let (ctrl_client, ctrl_server) = ctrl_pair(Duration::ZERO);
            let source = if i == 0 {
                Source::Ingress {
                    ingress: ingress_rx.clone(),
                    forwarder: Arc::clone(&forwarder),
                    feedback: Arc::clone(&feedback_in),
                    propagate_timeout: cfg.propagate_timeout,
                }
            } else {
                Source::Link(Arc::clone(&in_ports[i]))
            };
            spawn_dataplane(&mut server, source, stage);
            spawn_ctrl(&mut server, Arc::clone(&state), ctrl_server);
            servers.push(Some(server));
            slots.push(ReplicaSlot {
                state,
                ctrl: ctrl_client,
                in_port: Arc::clone(&in_ports[i]),
                out_port: Arc::clone(&out_ports[i]),
                nic,
                region: regions[i],
            });
        }

        FtcChain {
            cfg,
            metrics,
            servers,
            replicas: slots,
            ingress,
            egress_rx,
            egress_tx,
            forwarder,
            buffer,
            feedback_in,
            topology,
        }
    }

    fn link_between(
        cfg: &ChainConfig,
        topo: &Topology,
        a: RegionId,
        b: RegionId,
        seed_salt: u64,
    ) -> Endpoint {
        if cfg.link.is_sock() {
            // Socket endpoints carry real network latency; nothing to derive.
            return cfg.link.clone();
        }
        let latency = cfg.link.latency() + topo.one_way(a, b);
        let seed = cfg
            .link
            .seed()
            .wrapping_add(seed_salt)
            .wrapping_mul(0x9e3779b9);
        cfg.link.clone().with_latency(latency).with_seed(seed)
    }

    /// Threads currently running the chain (killed servers run none).
    pub fn thread_count(&self) -> usize {
        self.servers
            .iter()
            .flatten()
            .map(Server::thread_count)
            .sum()
    }

    /// Number of replicas (effective chain length).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True if the chain has no replicas (never the case after deploy).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Injects an external packet at the chain ingress.
    pub fn inject(&self, pkt: Packet) {
        let _ = self.ingress.lock().send(pkt.into_bytes());
    }

    /// Returns a handle to the chain's egress — the one place to
    /// receive, drain, or collect released packets.
    pub fn egress(&self) -> Egress {
        Egress::new(self.egress_rx.clone())
    }

    /// Fail-stops the server at `idx` (the replica, plus the forwarder or
    /// buffer if co-located). State on the server is lost.
    pub fn kill(&mut self, idx: usize) {
        if let Some(mut s) = self.servers[idx].take() {
            s.kill();
            s.join();
        }
    }

    /// True if the server at `idx` is alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.servers[idx].as_ref().is_some_and(|s| s.is_alive())
    }

    /// Rebuilds the replica at position `idx` on a fresh server in `region`
    /// with *already recovered* state, and rewires the data plane around
    /// it. This is the mechanical part of recovery; the orchestrator drives
    /// state fetch and sequencing (see [`crate::replace()`]).
    ///
    /// Returns the slot it replaced. Dropping it frees the dead instance's
    /// stores, an allocation per key and value, so a caller that times the
    /// switch drops it after traffic has resumed.
    #[must_use = "dropping the old slot frees the dead instance's stores"]
    pub fn respawn(
        &mut self,
        idx: usize,
        region: RegionId,
        state: Arc<ReplicaState>,
    ) -> ReplicaSlot {
        let n = self.len();
        let mut server = Server::new(format!("server{idx}r"), region);

        // Fresh NIC + control plane.
        let (stage, nic) = Stage::replica(Arc::clone(&state));
        let (ctrl_client, ctrl_server) = ctrl_pair(Duration::ZERO);

        // Wire: predecessor → new replica.
        let in_port = Arc::new(InPort::empty());
        if idx > 0 {
            let link = Self::link_between(
                &self.cfg,
                &self.topology,
                self.replicas[idx - 1].region,
                region,
                idx as u64,
            );
            let (tx, rx) = link_pair(&link);
            in_port.install(rx);
            self.replicas[idx - 1].out_port.install(tx);
        }

        // Wire: new replica → successor (or buffer).
        let out_port = state.out.clone();
        if idx < n - 1 {
            let link = Self::link_between(
                &self.cfg,
                &self.topology,
                region,
                self.replicas[idx + 1].region,
                idx as u64 + 1,
            );
            let (tx, rx) = link_pair(&link);
            out_port.install(tx);
            self.replicas[idx + 1].in_port.install(rx);
        } else {
            // New last server: a fresh buffer (soft state, §5.2), inline
            // behind the replica's out-port, and a fresh feedback link.
            let fb_link = Self::link_between(
                &self.cfg,
                &self.topology,
                region,
                self.replicas[0].region,
                7777,
            );
            let (fb_tx, fb_rx) = link_pair(&fb_link);
            let feedback_out = Arc::new(OutPort::wired(fb_tx));
            self.feedback_in.install(fb_rx);
            let buffer = BufferState::new(
                self.cfg.ring(),
                self.egress_tx.clone(),
                feedback_out,
                Arc::clone(&self.metrics),
            );
            out_port.install(BufferSink::new(Arc::clone(&buffer), self.cfg.resend_period));
            self.buffer = buffer;
            // Feedback queued at the forwarder references the dead
            // replica's transaction history; the replacement reissues those
            // sequence numbers with fresh content.
            self.forwarder.clear_pending();
        }

        let source = if idx == 0 {
            // New first server: a fresh forwarder (soft state, §5.2) behind
            // a fresh ingress channel.
            let (ingress_tx, ingress_rx) = channel::unbounded::<BytesMut>();
            *self.ingress.lock() = ingress_tx;
            self.forwarder = ForwarderState::new(Arc::clone(&self.metrics));
            Source::Ingress {
                ingress: ingress_rx,
                forwarder: Arc::clone(&self.forwarder),
                feedback: Arc::clone(&self.feedback_in),
                propagate_timeout: self.cfg.propagate_timeout,
            }
        } else {
            Source::Link(Arc::clone(&in_port))
        };
        spawn_dataplane(&mut server, source, stage);
        spawn_ctrl(&mut server, Arc::clone(&state), ctrl_server);

        self.servers[idx] = Some(server);
        std::mem::replace(
            &mut self.replicas[idx],
            ReplicaSlot {
                state,
                ctrl: ctrl_client,
                in_port,
                out_port,
                nic,
                region,
            },
        )
    }
}

impl Drop for FtcChain {
    fn drop(&mut self) {
        for s in self.servers.iter_mut().flatten() {
            s.kill();
        }
        for s in self.servers.iter_mut().flatten() {
            s.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;

    fn monitor_chain(n: usize, f: usize) -> FtcChain {
        let specs = (0..n)
            .map(|_| MbSpec::Monitor { sharing_level: 1 })
            .collect();
        FtcChain::deploy(ChainConfig::new(specs).with_f(f))
    }

    fn pkt(i: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
            .dst(Ipv4Addr::new(10, 9, 9, 9), 80)
            .ident(i)
            .build()
    }

    /// A three-monitor chain whose protocol timers (propagate, resend) are
    /// 10 s, left quiet: only a frame, a kill or a rewiring can end a wait
    /// of its threads before those timers.
    fn quiet_chain() -> FtcChain {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 3];
        let cfg = ChainConfig::new(specs)
            .with_propagate_timeout(Duration::from_secs(10))
            .with_resend_period(Duration::from_secs(10));
        let chain = FtcChain::deploy(cfg);
        std::thread::sleep(Duration::from_millis(50)); // every thread parks
        chain
    }

    #[test]
    fn kill_ends_every_wait_of_a_quiet_chain() {
        let mut chain = quiet_chain();
        for idx in 0..chain.len() {
            let t0 = std::time::Instant::now();
            chain.kill(idx);
            let took = t0.elapsed();
            assert!(took < Duration::from_secs(1), "kill({idx}) took {took:?}");
            assert!(!chain.is_alive(idx));
        }
        assert_eq!(chain.thread_count(), 0);
    }

    #[test]
    fn a_quiet_chain_sleeps_until_its_timers() {
        let chain = quiet_chain();
        let before = chain.metrics.snapshot().loop_idle_polls;
        std::thread::sleep(Duration::from_millis(200));
        let idle = chain.metrics.snapshot().loop_idle_polls - before;
        assert!(idle <= 3, "{idle} idle wake-ups in 200 ms");
    }

    #[test]
    fn packets_flow_end_to_end() {
        let chain = monitor_chain(3, 1);
        for i in 0..20 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(20, Duration::from_secs(10));
        assert_eq!(got.len(), 20, "all packets must be released");
        // Every replica counted every packet in its own store.
        for slot in &chain.replicas {
            assert_eq!(
                slot.state.own_store.peek_u64(b"mon:packets:g0"),
                Some(20),
                "replica {} processed all packets",
                slot.state.idx
            );
        }
    }

    #[test]
    fn single_worker_heads_commit_once_per_packet_without_lock_waits() {
        let chain = monitor_chain(2, 1);
        for i in 0..50 {
            chain.inject(pkt(i));
        }
        assert_eq!(
            chain.egress().collect(50, Duration::from_secs(10)).len(),
            50
        );
        for slot in &chain.replicas {
            let head = slot.state.own_store.stats().snapshot();
            assert_eq!(head.commits, 50, "r{}: {head:?}", slot.state.idx);
            // One worker per replica: nothing ever holds a lock it wants.
            assert_eq!(slot.state.stm_counts().lock_waits, 0, "r{}", slot.state.idx);
        }
    }

    #[test]
    fn state_is_replicated_f_plus_1_times() {
        let chain = monitor_chain(3, 1);
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(10, Duration::from_secs(10));
        assert_eq!(got.len(), 10);
        // Give the ring a moment to commit the wrapped logs.
        std::thread::sleep(Duration::from_millis(50));
        // m0 replicated at r1; m1 at r2; m2 at r0 (ring).
        for i in 0..3 {
            let succ = (i + 1) % 3;
            let copy = &chain.replicas[succ].state.replicated[&i];
            assert_eq!(
                copy.store.peek_u64(b"mon:packets:g0"),
                Some(10),
                "m{i}'s state must be replicated at r{succ}"
            );
        }
    }

    #[test]
    fn released_packets_preserve_payload() {
        let chain = monitor_chain(2, 1);
        let sent = pkt(42);
        let sent_bytes = sent.bytes().to_vec();
        chain.inject(sent);
        let got = chain.egress().collect(1, Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        // Monitor does not modify packets: bytes identical, no trailer.
        assert_eq!(got[0].bytes(), &sent_bytes[..]);
        assert!(!got[0].has_piggyback());
    }

    #[test]
    fn lossy_links_do_not_lose_packets() {
        let specs = vec![
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
        ];
        let cfg = ChainConfig::new(specs)
            .with_f(1)
            .with_link(Endpoint::lossy(0.05, 0.05, 1234));
        let chain = FtcChain::deploy(cfg);
        for i in 0..50 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(50, Duration::from_secs(20));
        assert_eq!(got.len(), 50, "reliable links must mask loss");
        for slot in &chain.replicas {
            assert_eq!(slot.state.own_store.peek_u64(b"mon:packets:g0"), Some(50));
        }
    }

    #[test]
    fn multithreaded_chain_counts_correctly() {
        let specs = vec![
            MbSpec::Monitor { sharing_level: 4 },
            MbSpec::Monitor { sharing_level: 4 },
        ];
        let cfg = ChainConfig::new(specs).with_f(1).with_workers(4);
        let chain = FtcChain::deploy(cfg);
        let n = 200;
        for i in 0..n {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(n as usize, Duration::from_secs(20));
        assert_eq!(got.len(), n as usize);
        for slot in &chain.replicas {
            assert_eq!(
                slot.state.own_store.peek_u64(b"mon:packets:g0"),
                Some(u64::from(n)),
                "shared counter must see every packet exactly once"
            );
        }
    }

    #[test]
    fn a_chain_runs_workers_plus_one_threads_per_server() {
        // One loop per worker plus the control thread, on every server: the
        // forwarder and the buffer have no threads of their own.
        for workers in [1usize, 4] {
            let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 3];
            let mut chain = FtcChain::deploy(ChainConfig::new(specs).with_workers(workers));
            assert_eq!(chain.thread_count(), 3 * (workers + 1), "workers={workers}");
            chain.inject(pkt(1));
            assert_eq!(chain.egress().collect(1, Duration::from_secs(5)).len(), 1);
            let snap = chain.metrics.snapshot();
            assert_eq!(snap.dataplane_threads, 3 * workers as u64);
            assert!(snap.loop_frames >= 3, "one frame per server at least");
            chain.kill(1);
            assert_eq!(chain.thread_count(), 2 * (workers + 1));
            assert_eq!(
                chain.metrics.snapshot().dataplane_threads,
                2 * workers as u64
            );
        }
    }

    #[test]
    fn flows_are_processed_by_the_worker_their_queue_belongs_to() {
        // Monitor with sharing level 1 counts per worker (`g<worker>`): the
        // leader must run its own flows inline and hand the others to the
        // worker that owns their queue, on the ingress server and on the
        // link-fed one alike.
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 2];
        let chain = FtcChain::deploy(ChainConfig::new(specs).with_workers(4));
        let n = 400u16;
        for i in 0..n {
            chain.inject(pkt(i)); // one flow per packet
        }
        let got = chain.egress().collect(n as usize, Duration::from_secs(20));
        assert_eq!(got.len(), n as usize);
        for slot in &chain.replicas {
            let per_worker: Vec<u64> = (0..4)
                .map(|w| {
                    let key = format!("mon:packets:g{w}");
                    slot.state.own_store.peek_u64(key.as_bytes()).unwrap_or(0)
                })
                .collect();
            assert!(
                per_worker.iter().all(|&c| c > 0),
                "r{}: every worker must see its flows: {per_worker:?}",
                slot.state.idx
            );
            assert_eq!(per_worker.iter().sum::<u64>(), u64::from(n));
            assert_eq!(slot.nic.dropped(), 0);
        }
    }

    #[test]
    fn f0_runs_without_replication() {
        let chain = monitor_chain(2, 0);
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(5, Duration::from_secs(5));
        assert_eq!(got.len(), 5);
        assert_eq!(
            chain
                .metrics
                .logs_applied
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
}

//! FTMB: rollback-recovery for middleboxes (Sherry et al., SIGCOMM '15), as
//! reimplemented by the FTC paper for comparison (§7.1).
//!
//! Topology per middlebox: a dedicated *master* (M) server and a *logger*
//! server running the input logger (IL) and output logger (OL). "Packets go
//! through IL, M, then OL. M tracks accesses to shared state using packet
//! access logs (PALs) and transmits them to OL."
//!
//! Prototype simplifications, quoted from the paper and mirrored here:
//! "Our prototype assumes that PALs are delivered on the first attempt, and
//! packets are released immediately afterwards. Further, OL maintains only
//! the last PAL." The optional [`SnapshotCfg`] adds the periodic
//! whole-middlebox stall of FTMB+Snapshot (§7.4).

use bytes::{BufMut, BytesMut};
use crossbeam::channel::{self, Receiver, Sender};
use ftc_core::config::ChainConfig;
use ftc_core::control::{InPort, OutPort};
use ftc_core::metrics::ChainMetrics;
use ftc_core::{ChainSystem, Egress};
use ftc_mbox::{Action, Middlebox, ProcCtx};
use ftc_net::nic::Nic;
use ftc_net::server::AliveToken;
use ftc_net::{reliable_pair, Server};
use ftc_packet::Packet;
use ftc_stm::StateStore;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Periodic snapshot stall parameters (FTMB+Snapshot, §7.4: "we add an
/// artificial delay (6 ms) periodically (every 50 ms); we get these values
/// from \[51\]").
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCfg {
    /// Interval between snapshots.
    pub period: Duration,
    /// Stall duration per snapshot.
    pub pause: Duration,
}

impl SnapshotCfg {
    /// The paper's values: 6 ms pause every 50 ms.
    pub fn paper() -> SnapshotCfg {
        SnapshotCfg {
            period: Duration::from_millis(50),
            pause: Duration::from_millis(6),
        }
    }
}

/// Wire size of one PAL message (a vector-clock record in the original
/// system; the paper's reimplementation sends one small message per data
/// packet).
pub const PAL_BYTES: usize = 24;

struct MasterShared {
    mbox: Arc<dyn Middlebox>,
    store: Arc<StateStore>,
    /// Data packets towards the OL.
    data_out: Arc<OutPort>,
    /// PAL messages towards the OL (separate message stream).
    pal_out: Arc<OutPort>,
    /// Sequence number for PALs / data packets.
    seq: AtomicU64,
    /// Barrier taken for write during a snapshot stall.
    stall_gate: RwLock<()>,
    snapshot: Option<SnapshotCfg>,
    next_snapshot: Mutex<Instant>,
    metrics: Arc<ChainMetrics>,
    pal_count: Arc<AtomicU64>,
}

/// One deployed FTMB middlebox (master + logger pair).
pub struct FtmbStage {
    /// The master's state store (for inspection in tests).
    pub store: Arc<StateStore>,
    /// PALs emitted by this stage.
    pub pals: Arc<AtomicU64>,
}

/// A running FTMB chain.
pub struct FtmbChain {
    /// Configuration used at deploy time.
    pub cfg: Arc<ChainConfig>,
    /// Shared metrics (injected/released/transaction timing).
    pub metrics: Arc<ChainMetrics>,
    /// Per-middlebox state.
    pub stages: Vec<FtmbStage>,
    servers: Vec<Server>,
    ingress: Sender<BytesMut>,
    egress: Receiver<Packet>,
    snapshot: Option<SnapshotCfg>,
}

impl FtmbChain {
    /// Deploys FTMB for `cfg.middleboxes`; dedicates 2 servers per
    /// middlebox ("we dedicate twice the number of servers to FTMB", §7.4).
    pub fn deploy(cfg: ChainConfig, snapshot: Option<SnapshotCfg>) -> FtmbChain {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let cfg = Arc::new(cfg);
        let metrics = Arc::new(ChainMetrics::default());
        let n = cfg.middleboxes.len();

        let (ingress_tx, ingress_rx) = channel::unbounded::<BytesMut>();
        let (egress_tx, egress_rx) = channel::unbounded::<Packet>();

        let mut servers = Vec::with_capacity(2 * n);
        let mut stages = Vec::with_capacity(n);
        // The IL input of stage i; stage i's OL forwards into stage i+1.
        let mut il_in: Vec<Arc<InPort>> = Vec::with_capacity(n);
        let mut ol_next: Vec<Arc<OutPort>> = Vec::with_capacity(n);
        il_in.push(Arc::new(InPort::empty())); // stage 0 fed by ingress
        for i in 0..n - 1 {
            let link = cfg
                .link
                .clone()
                .with_seed(cfg.link.seed().wrapping_add(100 + i as u64));
            let (tx, rx) = reliable_pair(&link);
            ol_next.push(Arc::new(OutPort::wired(tx)));
            il_in.push(Arc::new(InPort::wired(rx)));
        }
        ol_next.push(Arc::new(OutPort::empty()));

        for (i, spec) in cfg.middleboxes.iter().enumerate() {
            let mbox = spec.build();
            let store = Arc::new(StateStore::new(cfg.partitions));
            let pal_count = Arc::new(AtomicU64::new(0));

            // Links: IL→M (data), M→OL (data), M→OL (PAL stream).
            let (il_to_m_tx, il_to_m_rx) = reliable_pair(&cfg.link);
            let (m_to_ol_tx, m_to_ol_rx) = reliable_pair(&cfg.link);
            let (pal_tx, pal_rx) = reliable_pair(&cfg.link);

            // ---- Master server ------------------------------------------
            let mut master = Server::new(format!("ftmb-m{i}"), ftc_net::RegionId(0));
            let shared = Arc::new(MasterShared {
                mbox: Arc::clone(&mbox),
                store: Arc::clone(&store),
                data_out: Arc::new(OutPort::wired(m_to_ol_tx)),
                pal_out: Arc::new(OutPort::wired(pal_tx)),
                seq: AtomicU64::new(0),
                stall_gate: RwLock::new(()),
                snapshot,
                next_snapshot: Mutex::new(Instant::now()),
                metrics: Arc::clone(&metrics),
                pal_count: Arc::clone(&pal_count),
            });
            let mut nic = Nic::new(cfg.workers, cfg.nic_queue_depth);
            let queues: Vec<Receiver<BytesMut>> =
                (0..cfg.workers).map(|w| nic.take_queue(w)).collect();
            let nic = Arc::new(nic);
            for (w, queue) in queues.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let workers = cfg.workers;
                master.spawn(&format!("worker{w}"), move |alive: AliveToken| {
                    while alive.is_alive() {
                        let Ok(frame) = queue.recv_timeout(Duration::from_millis(1)) else {
                            continue;
                        };
                        shared.process(frame, w, workers);
                    }
                });
            }
            {
                let m_in = InPort::wired(il_to_m_rx);
                let nic = Arc::clone(&nic);
                let shared = Arc::clone(&shared);
                master.spawn("rx", move |alive: AliveToken| {
                    while alive.is_alive() {
                        if let Some(frame) = m_in.recv_timeout(Duration::from_millis(1)) {
                            nic.dispatch(frame);
                        }
                        shared.data_out.poll();
                        shared.pal_out.poll();
                    }
                });
            }
            servers.push(master);

            // ---- Logger server (IL + OL) --------------------------------
            let mut logger = Server::new(format!("ftmb-l{i}"), ftc_net::RegionId(0));
            // IL: log input (count) and relay to the master.
            {
                let il_port = Arc::clone(&il_in[i]);
                let to_m = OutPort::wired(il_to_m_tx);
                let ingress_rx = if i == 0 {
                    Some(ingress_rx.clone())
                } else {
                    None
                };
                let metrics = Arc::clone(&metrics);
                logger.spawn("il", move |alive: AliveToken| {
                    while alive.is_alive() {
                        if let Some(ing) = &ingress_rx {
                            // Stage 0 IL: drain the generator; its data port
                            // is unwired and must not throttle the loop.
                            match ing.recv_timeout(Duration::from_micros(500)) {
                                Ok(frame) => {
                                    metrics.injected.fetch_add(1, Ordering::Relaxed);
                                    to_m.send(frame);
                                    while let Ok(frame) = ing.try_recv() {
                                        metrics.injected.fetch_add(1, Ordering::Relaxed);
                                        to_m.send(frame);
                                    }
                                }
                                Err(channel::RecvTimeoutError::Timeout) => {}
                                Err(channel::RecvTimeoutError::Disconnected) => break,
                            }
                        } else if let Some(frame) = il_port.recv_timeout(Duration::from_micros(500))
                        {
                            to_m.send(frame);
                        }
                        to_m.poll();
                    }
                });
            }
            // OL: release data packets once their PAL arrived; keep only
            // the last PAL.
            {
                let data_in = InPort::wired(m_to_ol_rx);
                let pal_in = InPort::wired(pal_rx);
                let next = Arc::clone(&ol_next[i]);
                let egress = egress_tx.clone();
                let metrics = Arc::clone(&metrics);
                let stateful = mbox.is_stateful();
                let last = i == n - 1;
                logger.spawn("ol", move |alive: AliveToken| {
                    let mut last_pal_seq: u64 = 0; // "OL maintains only the last PAL"
                    let mut data_seq: u64 = 0;
                    while alive.is_alive() {
                        while let Some(pal) = pal_in.recv_timeout(Duration::ZERO) {
                            if pal.len() >= 8 {
                                last_pal_seq =
                                    u64::from_be_bytes(pal[..8].try_into().expect("sized")) + 1;
                            }
                        }
                        let Some(frame) = data_in.recv_timeout(Duration::from_millis(1)) else {
                            continue;
                        };
                        data_seq += 1;
                        // Wait for the PAL covering this packet ("a packet
                        // is released only when its PAL is replicated").
                        while stateful && last_pal_seq < data_seq && alive.is_alive() {
                            if let Some(pal) = pal_in.recv_timeout(Duration::from_micros(200)) {
                                if pal.len() >= 8 {
                                    last_pal_seq =
                                        u64::from_be_bytes(pal[..8].try_into().expect("sized")) + 1;
                                }
                            }
                        }
                        if last {
                            if let Ok(pkt) = Packet::from_frame(frame) {
                                metrics.released.fetch_add(1, Ordering::Relaxed);
                                let _ = egress.send(pkt);
                            }
                        } else {
                            next.send(frame);
                            next.poll();
                        }
                    }
                });
            }
            servers.push(logger);
            stages.push(FtmbStage {
                store,
                pals: pal_count,
            });
        }

        FtmbChain {
            cfg,
            metrics,
            stages,
            servers,
            ingress: ingress_tx,
            egress: egress_rx,
            snapshot,
        }
    }

    /// Injects an external packet.
    pub fn inject(&self, pkt: Packet) {
        let _ = self.ingress.send(pkt.into_bytes());
    }

    /// Returns a handle to the chain's egress (same API as
    /// [`FtcChain::egress`](ftc_core::FtcChain::egress)).
    pub fn egress(&self) -> Egress {
        Egress::new(self.egress.clone())
    }

    /// Whether this deployment stalls for snapshots.
    pub fn snapshot(&self) -> Option<SnapshotCfg> {
        self.snapshot
    }

    /// Fail-stops the master server of middlebox `idx`, joining its
    /// threads so the failure is complete when this returns.
    pub fn kill_master(&mut self, idx: usize) {
        self.servers[idx * 2].kill();
        self.servers[idx * 2].join();
    }
}

impl MasterShared {
    fn process(&self, frame: BytesMut, worker: usize, workers: usize) {
        // Snapshot stall: the first worker to cross the deadline takes the
        // gate exclusively and pauses the whole middlebox.
        if let Some(snap) = self.snapshot {
            let due = {
                let mut next = self.next_snapshot.lock();
                if Instant::now() >= *next {
                    *next = Instant::now() + snap.period;
                    true
                } else {
                    false
                }
            };
            if due {
                let _g = self.stall_gate.write();
                std::thread::sleep(snap.pause);
            }
        }
        let _gate = self.stall_gate.read();

        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return;
        };
        let ctx = ProcCtx { worker, workers };
        let t0 = Instant::now();
        let out = self
            .store
            .transaction(|txn| self.mbox.process(&mut pkt, txn, ctx));
        self.metrics.t_transaction.record(t0.elapsed());

        // One PAL per state-accessing packet, in a separate message — the
        // behaviour that caps FTMB at one message per packet (§7.3).
        if self.mbox.is_stateful() {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let mut pal = BytesMut::with_capacity(PAL_BYTES);
            pal.put_u64(seq);
            pal.put_slice(&[0u8; PAL_BYTES - 8]);
            self.pal_out.send(pal);
            self.pal_count.fetch_add(1, Ordering::Relaxed);
        }
        match out.value {
            Action::Forward => self.data_out.send(pkt.into_bytes()),
            Action::Drop => {
                self.metrics.filtered.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl ChainSystem for FtmbChain {
    fn inject_pkt(&self, pkt: Packet) {
        self.inject(pkt);
    }

    fn egress_pkt(&self, timeout: Duration) -> Option<Packet> {
        self.egress().recv(timeout)
    }

    fn system_name(&self) -> &'static str {
        if self.snapshot.is_some() {
            "FTMB+Snapshot"
        } else {
            "FTMB"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt(i: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
            .dst(Ipv4Addr::new(10, 9, 9, 9), 80)
            .without_ftc_option()
            .build()
    }

    #[test]
    fn ftmb_chain_processes_traffic_and_emits_pals() {
        let specs = vec![
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
        ];
        let chain = FtmbChain::deploy(ChainConfig::new(specs), None);
        for i in 0..25 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(25, Duration::from_secs(10));
        assert_eq!(got.len(), 25);
        for stage in &chain.stages {
            assert_eq!(stage.store.peek_u64(b"mon:packets:g0"), Some(25));
            assert_eq!(stage.pals.load(Ordering::Relaxed), 25, "one PAL per packet");
        }
    }

    #[test]
    fn stateless_middlebox_emits_no_pals() {
        let specs = vec![MbSpec::Firewall { rules: vec![] }];
        let chain = FtmbChain::deploy(ChainConfig::new(specs), None);
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(10, Duration::from_secs(10));
        assert_eq!(got.len(), 10);
        assert_eq!(chain.stages[0].pals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_stalls_delay_traffic() {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }];
        let snap = SnapshotCfg {
            period: Duration::from_millis(20),
            pause: Duration::from_millis(10),
        };
        let chain = FtmbChain::deploy(ChainConfig::new(specs), Some(snap));
        assert_eq!(chain.system_name(), "FTMB+Snapshot");
        // The first packet after deploy crosses the snapshot deadline and
        // pays the full pause before coming out.
        let t0 = Instant::now();
        chain.inject(pkt(0));
        let got = chain.egress().collect(1, Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        let first_latency = t0.elapsed();
        assert!(
            first_latency >= snap.pause,
            "first packet must absorb the stall: {first_latency:?}"
        );
        // A packet between snapshots flows with far lower latency.
        let t1 = Instant::now();
        chain.inject(pkt(1));
        assert_eq!(chain.egress().collect(1, Duration::from_secs(5)).len(), 1);
        assert!(
            t1.elapsed() < snap.pause,
            "mid-period packet must not stall"
        );
    }

    #[test]
    fn master_failure_stops_the_stage() {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }];
        let mut chain = FtmbChain::deploy(ChainConfig::new(specs), None);
        chain.inject(pkt(0));
        assert_eq!(chain.egress().collect(1, Duration::from_secs(5)).len(), 1);
        chain.kill_master(0);
        chain.inject(pkt(1));
        assert!(chain.egress().recv(Duration::from_millis(100)).is_none());
    }
}

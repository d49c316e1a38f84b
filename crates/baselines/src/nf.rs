//! NF: the non-fault-tolerant baseline chain.
//!
//! Each middlebox runs on its own server with multi-queue RSS dispatch and
//! the same transactional state store as FTC (the store is still needed for
//! thread safety), but nothing is piggybacked, replicated, or withheld:
//! what the middlebox forwards leaves the server immediately.

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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One NF middlebox stage.
pub struct NfStage {
    /// The middlebox instance.
    pub mbox: Arc<dyn Middlebox>,
    /// Its state store.
    pub store: Arc<StateStore>,
}

/// A running NF chain.
pub struct NfChain {
    /// Configuration used for deployment.
    pub cfg: Arc<ChainConfig>,
    /// Metrics (only the non-replication counters are used).
    pub metrics: Arc<ChainMetrics>,
    /// Per-stage state, by position.
    pub stages: Vec<NfStage>,
    servers: Vec<Server>,
    ingress: Sender<bytes::BytesMut>,
    egress: Receiver<Packet>,
}

impl NfChain {
    /// Deploys the chain; `cfg.f` is ignored (NF tolerates nothing).
    pub fn deploy(cfg: ChainConfig) -> NfChain {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let cfg = Arc::new(cfg);
        let metrics = Arc::new(ChainMetrics::default());
        let n = cfg.middleboxes.len();

        let (ingress_tx, ingress_rx) = channel::unbounded::<bytes::BytesMut>();
        let (egress_tx, egress_rx) = channel::unbounded::<Packet>();

        // Inter-server links.
        let mut in_ports: Vec<Arc<InPort>> = Vec::with_capacity(n);
        let mut out_ports: Vec<Arc<OutPort>> = Vec::with_capacity(n);
        in_ports.push(Arc::new(InPort::empty())); // stage 0 fed by ingress
        for i in 0..n - 1 {
            let link = cfg
                .link
                .clone()
                .with_seed(cfg.link.seed().wrapping_add(i as u64 + 1));
            let (tx, rx) = reliable_pair(&link);
            out_ports.push(Arc::new(OutPort::wired(tx)));
            in_ports.push(Arc::new(InPort::wired(rx)));
        }
        out_ports.push(Arc::new(OutPort::empty()));

        let mut servers = Vec::with_capacity(n);
        let mut stages = Vec::with_capacity(n);
        for (i, spec) in cfg.middleboxes.iter().enumerate() {
            let mut server = Server::new(format!("nf{i}"), ftc_net::RegionId(0));
            let mbox = spec.build();
            let store = Arc::new(StateStore::new(cfg.partitions));
            let mut nic = Nic::new(cfg.workers, cfg.nic_queue_depth);
            let queues: Vec<Receiver<bytes::BytesMut>> =
                (0..cfg.workers).map(|w| nic.take_queue(w)).collect();
            let nic = Arc::new(nic);

            // Workers.
            for (w, queue) in queues.into_iter().enumerate() {
                let mbox = Arc::clone(&mbox);
                let store = Arc::clone(&store);
                let metrics = Arc::clone(&metrics);
                let out = Arc::clone(&out_ports[i]);
                let egress = egress_tx.clone();
                let workers = cfg.workers;
                let last = i == n - 1;
                server.spawn(&format!("worker{w}"), move |alive: AliveToken| {
                    while alive.is_alive() {
                        let Ok(frame) = queue.recv_timeout(Duration::from_millis(1)) else {
                            continue;
                        };
                        let Ok(mut pkt) = Packet::from_frame(frame) else {
                            continue;
                        };
                        let ctx = ProcCtx { worker: w, workers };
                        let t0 = Instant::now();
                        let out_txn = store.transaction(|txn| mbox.process(&mut pkt, txn, ctx));
                        metrics.t_transaction.record(t0.elapsed());
                        match out_txn.value {
                            Action::Forward => {
                                if last {
                                    metrics.released.fetch_add(1, Ordering::Relaxed);
                                    let _ = egress.send(pkt);
                                } else {
                                    out.send(pkt.into_bytes());
                                }
                            }
                            Action::Drop => {
                                metrics.filtered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }

            // Rx/dispatch.
            {
                let in_port = Arc::clone(&in_ports[i]);
                let nic = Arc::clone(&nic);
                let out = Arc::clone(&out_ports[i]);
                let ingress_rx = if i == 0 {
                    Some(ingress_rx.clone())
                } else {
                    None
                };
                let metrics = Arc::clone(&metrics);
                server.spawn("rx", move |alive: AliveToken| {
                    while alive.is_alive() {
                        if let Some(ing) = &ingress_rx {
                            // Stage 0: drain the generator without letting
                            // the (unwired) data port throttle the loop.
                            match ing.recv_timeout(Duration::from_micros(500)) {
                                Ok(frame) => {
                                    metrics.injected.fetch_add(1, Ordering::Relaxed);
                                    nic.dispatch(frame);
                                    while let Ok(frame) = ing.try_recv() {
                                        metrics.injected.fetch_add(1, Ordering::Relaxed);
                                        nic.dispatch(frame);
                                    }
                                }
                                Err(channel::RecvTimeoutError::Timeout) => {}
                                Err(channel::RecvTimeoutError::Disconnected) => break,
                            }
                        } else if let Some(frame) = in_port.recv_timeout(Duration::from_micros(500))
                        {
                            nic.dispatch(frame);
                        }
                        out.poll();
                    }
                });
            }

            servers.push(server);
            stages.push(NfStage { mbox, store });
        }

        NfChain {
            cfg,
            metrics,
            stages,
            servers,
            ingress: ingress_tx,
            egress: egress_rx,
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

    /// Fail-stops the server at `idx` (no recovery exists: this is the
    /// baseline's point). Joins the server's threads so the failure is
    /// complete when this returns.
    pub fn kill(&mut self, idx: usize) {
        self.servers[idx].kill();
        self.servers[idx].join();
    }
}

impl ChainSystem for NfChain {
    fn inject_pkt(&self, pkt: Packet) {
        self.inject(pkt);
    }

    fn egress_pkt(&self, timeout: Duration) -> Option<Packet> {
        self.egress().recv(timeout)
    }

    fn system_name(&self) -> &'static str {
        "NF"
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
    fn nf_chain_processes_traffic() {
        let specs = vec![
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
        ];
        let chain = NfChain::deploy(ChainConfig::new(specs));
        for i in 0..30 {
            chain.inject(pkt(i));
        }
        let got = chain.egress().collect(30, Duration::from_secs(10));
        assert_eq!(got.len(), 30);
        for stage in &chain.stages {
            assert_eq!(stage.store.peek_u64(b"mon:packets:g0"), Some(30));
        }
    }

    #[test]
    fn nf_does_not_withhold_packets() {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }];
        let chain = NfChain::deploy(ChainConfig::new(specs));
        chain.inject(pkt(1));
        let got = chain.egress().collect(1, Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        assert!(!got[0].has_piggyback(), "NF must not modify packets");
    }

    #[test]
    fn nf_loses_state_on_failure() {
        let specs = vec![
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::Monitor { sharing_level: 1 },
        ];
        let mut chain = NfChain::deploy(ChainConfig::new(specs));
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        chain.egress().collect(5, Duration::from_secs(5));
        chain.kill(0);
        // The baseline has no replicas: the state is simply gone with the
        // server, and traffic stops flowing.
        chain.inject(pkt(99));
        assert!(chain.egress().recv(Duration::from_millis(100)).is_none());
    }
}

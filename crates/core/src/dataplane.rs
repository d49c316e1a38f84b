//! The data-plane loop: every server runs one run-to-completion loop per
//! worker, and nothing else touches a packet.
//!
//! The paper's implementation is Click on DPDK, where "a thread receives
//! packets from a NIC's input queue" (§2) and runs the packet transaction
//! to completion on that thread (§6). Here a frame that reaches a server is
//! carried by **one** thread from the receive to the send on the next link:
//! parse → apply the predecessors' piggyback logs → packet transaction →
//! attach → send. The forwarder shares server 0 and the buffer shares
//! server n−1 (§3.2), so they are function calls on that same thread
//! ([`ForwarderState::prepare_ingress`], [`crate::buffer::BufferSink`]); a
//! packet changes threads once per server and never within one.
//!
//! Thread layout per server: `cfg.workers` data-plane loops (this module)
//! plus one control thread ([`crate::replica::spawn_ctrl`]).
//!
//! * **Worker 0 is the receive leader.** It blocks on the server's
//!   [`Source`] in slices of at most 1 ms (`propagate_timeout` on server 0),
//!   computes the RSS queue of the frame and, if the queue is its own, runs
//!   [`ReplicaState::handle_frame`] inline — with `workers = 1` nothing is
//!   queued at all. Frames of other queues are handed to that worker's
//!   [`Nic`] queue: with backpressure when they came off a link (piggyback
//!   logs may not be dropped above the reliable layer), drop-and-count when
//!   they came from the ingress (an RX-ring overrun).
//! * **Workers 1.. drain their NIC queue** ([`Source::Queue`]) with the
//!   same loop.
//! * **Quiescing (§4.1) is unchanged**: while the replica is paused no loop
//!   pulls — frames wait in the reliable receiver, the ingress channel or
//!   the NIC queues — and every `handle_frame` is bracketed by a busy
//!   claim, so `pause()` observes `busy == 0` before a snapshot is served.
//!   The leader keeps polling the outgoing port while paused, so
//!   retransmissions and the inline buffer's resend timer keep running.
//!
//! The same loop serves the multi-process gateway, which hosts a forwarder
//! and a buffer but no replica: [`Stage::Port`] forwards each pulled frame
//! to an [`OutPort`].

use crate::control::{InPort, OutPort};
use crate::forwarder::ForwarderState;
use crate::metrics::ChainMetrics;
use crate::replica::ReplicaState;
use bytes::BytesMut;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use ftc_net::nic::Nic;
use ftc_net::server::AliveToken;
use ftc_net::Server;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Longest a loop blocks before it re-checks liveness and pause state.
const SLICE: Duration = Duration::from_millis(1);

/// Where a loop takes its frames from.
pub enum Source {
    /// Server 0 (and the multi-process gateway): the chain ingress, with the
    /// forwarder run inline. The receive blocks for `propagate_timeout`;
    /// when it fires, pending feedback leaves in a propagating packet
    /// (§5.1). The feedback link is drained, without blocking, at the two
    /// instants feedback is used: before logs are staged for an ingress
    /// packet and when the time-out fires.
    Ingress {
        /// External traffic.
        ingress: Receiver<BytesMut>,
        /// The forwarder sharing this server.
        forwarder: Arc<ForwarderState>,
        /// Buffer → forwarder feedback link.
        feedback: Arc<InPort>,
        /// Idle time after which pending feedback is propagated.
        propagate_timeout: Duration,
    },
    /// Every other server: the reliable link from the predecessor.
    Link(Arc<InPort>),
    /// Workers 1..: the NIC queue the leader dispatches into.
    Queue(Receiver<BytesMut>),
}

enum Pulled {
    Frame(BytesMut),
    /// The bounded wait ended with nothing to handle.
    Empty,
    /// The source is gone for good.
    Closed,
}

impl Source {
    /// One bounded blocking receive; counts the ones that come back empty.
    fn pull(&self, metrics: &ChainMetrics) -> Pulled {
        let (frame, idle) = match self {
            Source::Ingress {
                ingress,
                forwarder,
                feedback,
                propagate_timeout,
            } => {
                let got = ingress.recv_timeout(*propagate_timeout);
                if matches!(got, Err(RecvTimeoutError::Disconnected)) {
                    return Pulled::Closed;
                }
                while let Some(fb) = feedback.recv_timeout(Duration::ZERO) {
                    forwarder.ingest_feedback(fb);
                }
                match got {
                    Ok(frame) => (forwarder.prepare_ingress(frame), false),
                    Err(_) => (forwarder.prepare_propagating(), true),
                }
            }
            Source::Link(port) => {
                let got = port.recv_timeout(SLICE);
                let idle = got.is_none();
                (got, idle)
            }
            Source::Queue(queue) => match queue.recv_timeout(SLICE) {
                Ok(frame) => (Some(frame), false),
                // Parked packets are woken by the applier that clears their
                // dependency (no polling needed): idle is idle.
                Err(RecvTimeoutError::Timeout) => (None, true),
                Err(RecvTimeoutError::Disconnected) => return Pulled::Closed,
            },
        };
        if idle {
            metrics.loop_idle_polls.fetch_add(1, Ordering::Relaxed);
        }
        frame.map_or(Pulled::Empty, Pulled::Frame)
    }

    /// Link frames carry piggyback logs the reliable layer has already
    /// delivered exactly once; only ingress frames may be shed.
    fn lossless(&self) -> bool {
        !matches!(self, Source::Ingress { .. })
    }
}

/// What a server's loops do with the frames they pull.
pub enum Stage {
    /// A replica: `cfg.workers` loops, worker 0 leading.
    Replica {
        /// The replica's shared state; its `out` port is the next link (or
        /// the inline buffer on the last server).
        state: Arc<ReplicaState>,
        /// The server's NIC.
        nic: Arc<Nic>,
        /// Receivers of NIC queues `1..workers`, in order (queue 0 is the
        /// leader's own and is never queued into).
        queues: Vec<Receiver<BytesMut>>,
    },
    /// No replica on this server (the multi-process gateway): one loop
    /// that sends every pulled frame to `out`.
    Port {
        /// Thread label.
        label: &'static str,
        /// Where frames go.
        out: Arc<OutPort>,
        /// Where the loop counts its frames and idle polls.
        metrics: Arc<ChainMetrics>,
    },
}

impl Stage {
    /// A replica stage behind a fresh NIC sized from the replica's own
    /// configuration (which may carry a different worker count than the
    /// rest of the chain: vertical scaling, §4.3). Also returns the NIC,
    /// whose overrun counter outlives the loops.
    pub fn replica(state: Arc<ReplicaState>) -> (Stage, Arc<Nic>) {
        let mut nic = Nic::new(state.cfg.workers, state.cfg.nic_queue_depth);
        let queues = (1..state.cfg.workers).map(|w| nic.take_queue(w)).collect();
        let nic = Arc::new(nic);
        let stage = Stage::Replica {
            state,
            nic: Arc::clone(&nic),
            queues,
        };
        (stage, nic)
    }
}

/// Spawns a server's data-plane loops onto `server`.
pub fn spawn_dataplane(server: &mut Server, source: Source, stage: Stage) {
    let (replica, out, metrics, queues, label) = match stage {
        Stage::Replica { state, nic, queues } => {
            assert_eq!(queues.len() + 1, state.cfg.workers);
            let (out, metrics) = (Arc::clone(&state.out), Arc::clone(&state.metrics));
            (Some((state, nic)), out, metrics, queues, "worker0")
        }
        Stage::Port {
            label,
            out,
            metrics,
        } => (None, out, metrics, Vec::new(), label),
    };
    let sources = std::iter::once(source).chain(queues.into_iter().map(Source::Queue));
    for (worker, source) in sources.enumerate() {
        let lp = Loop {
            worker,
            source,
            replica: replica.clone(),
            out: Arc::clone(&out),
            metrics: Arc::clone(&metrics),
        };
        let name = if worker == 0 {
            label.to_string()
        } else {
            format!("worker{worker}")
        };
        server.spawn(&name, move |alive| lp.run(&alive));
    }
}

/// One data-plane thread.
struct Loop {
    worker: usize,
    source: Source,
    /// `None` for a [`Stage::Port`] loop.
    replica: Option<(Arc<ReplicaState>, Arc<Nic>)>,
    /// The replica's outgoing port, or the port of a [`Stage::Port`] loop.
    out: Arc<OutPort>,
    metrics: Arc<ChainMetrics>,
}

impl Loop {
    fn run(&self, alive: &AliveToken) {
        self.metrics
            .dataplane_threads
            .fetch_add(1, Ordering::Relaxed);
        // Only the leader drives the outgoing port's timers; one poller per
        // port is enough and keeps the port's lock uncontended.
        let leader = !matches!(self.source, Source::Queue(_));
        while alive.is_alive() {
            let paused = self.replica.as_ref().filter(|(s, _)| s.is_paused());
            if let Some((state, _)) = paused {
                // Recovery-source quiescing (§4.1): stop admitting packets.
                state.wait_while_paused(SLICE);
            } else {
                match self.source.pull(&self.metrics) {
                    Pulled::Frame(frame) => {
                        self.metrics.loop_frames.fetch_add(1, Ordering::Relaxed);
                        if !self.handle(frame, alive) {
                            break;
                        }
                    }
                    Pulled::Empty => {}
                    Pulled::Closed => break,
                }
            }
            if leader {
                self.out.poll();
            }
        }
        self.metrics
            .dataplane_threads
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Runs one frame to completion, or hands it to the worker that owns
    /// its flow. Returns `false` when the server is shutting down.
    fn handle(&self, frame: BytesMut, alive: &AliveToken) -> bool {
        let Some((state, nic)) = &self.replica else {
            self.out.send(frame);
            return true;
        };
        let q = match self.source {
            Source::Queue(_) => self.worker,
            _ => nic.rss_queue(&frame),
        };
        if q == self.worker {
            // Quiesced between the pull and the claim: the frame is held
            // (its piggyback logs must not be lost) and the transaction
            // runs after Resume, so it sequences after the served state.
            if !state.claim_busy(|| alive.is_alive()) {
                return false; // shutting down; frame dies with us
            }
            state.handle_frame(self.worker, frame);
            state.release_busy();
        } else if self.source.lossless() {
            nic.dispatch_backpressure(q, frame, SLICE, || alive.is_alive());
        } else {
            nic.dispatch_to(q, frame);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferSink, BufferState};
    use crate::config::{ChainConfig, RingMath};
    use crossbeam::channel;
    use ftc_mbox::MbSpec;
    use ftc_net::{reliable_pair, Endpoint};
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{DepVector, MboxId, PiggybackLog, PiggybackMessage};
    use std::net::Ipv4Addr;
    use std::time::Instant;

    /// A first replica of a two-monitor chain with two workers, and its
    /// NIC with `depth`-deep queues; queue 1 is returned undrained (its
    /// worker is not running).
    fn two_worker_replica(
        out: OutPort,
        depth: usize,
    ) -> (Arc<ReplicaState>, Arc<Nic>, Receiver<BytesMut>) {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 2];
        let cfg = Arc::new(ChainConfig::new(specs.clone()).with_workers(2));
        let state = ReplicaState::new(
            0,
            cfg,
            specs[0].build(),
            Arc::new(out),
            Arc::new(ChainMetrics::default()),
        );
        let mut nic = Nic::new(2, depth);
        let q1 = nic.take_queue(1);
        (state, Arc::new(nic), q1)
    }

    /// A frame whose flow hashes to queue `q` of `nic`.
    fn frame_for_queue(nic: &Nic, q: usize) -> BytesMut {
        (1000..2000u16)
            .map(|port| {
                UdpPacketBuilder::new()
                    .src(Ipv4Addr::new(10, 0, 0, 1), port)
                    .dst(Ipv4Addr::new(10, 9, 9, 9), 80)
                    .build()
                    .into_bytes()
            })
            .find(|f| nic.rss_queue(f) == q)
            .expect("some flow hashes to the queue")
    }

    /// Runs `lp` as a leader on its own thread until the returned token is
    /// killed.
    fn run_leader(lp: Loop) -> (AliveToken, std::thread::JoinHandle<()>) {
        let alive = AliveToken::new();
        let a = alive.clone();
        (alive, std::thread::spawn(move || lp.run(&a)))
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn ingress_overrun_of_another_workers_queue_is_dropped_and_counted() {
        let (state, nic, q1) = two_worker_replica(OutPort::empty(), 4);
        let metrics = Arc::clone(&state.metrics);
        let (ingress_tx, ingress) = channel::unbounded();
        let frame = frame_for_queue(&nic, 1);
        let (alive, h) = run_leader(Loop {
            worker: 0,
            source: Source::Ingress {
                ingress,
                forwarder: ForwarderState::new(Arc::clone(&metrics)),
                feedback: Arc::new(InPort::empty()),
                propagate_timeout: SLICE,
            },
            replica: Some((Arc::clone(&state), Arc::clone(&nic))),
            out: Arc::clone(&state.out),
            metrics: Arc::clone(&metrics),
        });
        for _ in 0..10 {
            ingress_tx.send(frame.clone()).unwrap();
        }
        wait_for("ten frames", || {
            metrics.loop_frames.load(Ordering::Relaxed) == 10
        });
        alive.kill();
        h.join().unwrap();
        assert_eq!(q1.len(), 4, "the queue holds its depth");
        assert_eq!(nic.dropped(), 6, "the rest is an RX-ring overrun");
        assert!(
            state.own_store.is_empty(),
            "the leader must not process another worker's flow"
        );
    }

    #[test]
    fn link_frames_for_a_full_queue_wait_instead_of_dropping() {
        let (state, nic, q1) = two_worker_replica(OutPort::empty(), 4);
        let (mut tx, rx) = reliable_pair(&Endpoint::in_proc());
        let frame = frame_for_queue(&nic, 1);
        let (alive, h) = run_leader(Loop {
            worker: 0,
            source: Source::Link(Arc::new(InPort::wired(rx))),
            replica: Some((Arc::clone(&state), Arc::clone(&nic))),
            out: Arc::clone(&state.out),
            metrics: Arc::clone(&state.metrics),
        });
        for _ in 0..10 {
            tx.send(frame.clone()).unwrap();
        }
        // The leader parks on the full queue; draining it lets all ten in.
        for _ in 0..10 {
            q1.recv_timeout(Duration::from_secs(5))
                .expect("every link frame is delivered");
        }
        alive.kill();
        h.join().unwrap();
        assert_eq!(nic.dropped(), 0);
    }

    #[test]
    fn the_inline_buffer_still_ticks_while_the_replica_is_paused() {
        // A last replica whose out-port is the buffer, holding one wrapped
        // log nobody has committed.
        let (egress_tx, _egress) = channel::unbounded();
        let (fb_tx, fb_rx) = reliable_pair(&Endpoint::in_proc());
        let feedback = InPort::wired(fb_rx);
        let buffer = BufferState::new(
            RingMath { n: 2, f: 1 },
            egress_tx,
            Arc::new(OutPort::wired(fb_tx)),
            Arc::new(ChainMetrics::default()),
        );
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![PiggybackLog {
                mbox: MboxId(1),
                deps: DepVector::from_entries(vec![(0, 0)]).unwrap(),
                writes: vec![],
            }],
            commits: vec![],
        };
        let mut pkt = UdpPacketBuilder::new().build();
        pkt.attach_piggyback(&msg).unwrap();
        buffer.handle_frame(pkt.into_bytes());
        feedback
            .recv_timeout(Duration::from_millis(100))
            .expect("fresh log fed back");

        let sink = BufferSink::new(Arc::clone(&buffer), Duration::from_millis(2));
        let (state, nic, _q1) = two_worker_replica(OutPort::wired(sink), 4);
        state.pause();
        let (alive, h) = run_leader(Loop {
            worker: 0,
            source: Source::Link(Arc::new(InPort::empty())),
            replica: Some((Arc::clone(&state), nic)),
            out: Arc::clone(&state.out),
            metrics: Arc::clone(&state.metrics),
        });
        let resent = feedback.recv_timeout(Duration::from_secs(5));
        assert!(state.is_paused());
        alive.kill();
        h.join().unwrap();
        assert!(resent.is_some(), "the resend timer runs on the paused loop");
    }
}

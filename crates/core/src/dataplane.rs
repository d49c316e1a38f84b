//! The data-plane loop: every server runs one run-to-completion loop per
//! worker, and nothing else touches a packet.
//!
//! The paper's implementation is Click on DPDK, where "a thread receives
//! packets from a NIC's input queue" (§2) in bursts and runs the packet
//! transaction to completion on that thread (§6). Here a frame that reaches
//! a server is carried by **one** thread from the receive to the send on
//! the next link: parse → apply the predecessors' piggyback logs → packet
//! transaction → attach → send. The forwarder shares server 0 and the
//! buffer shares server n−1 (§3.2), so they are function calls on that same
//! thread ([`ForwarderState::prepare_ingress`], [`crate::buffer::BufferSink`]);
//! a packet changes threads once per server and never within one.
//!
//! Thread layout per server: `cfg.workers` data-plane loops (this module)
//! plus one control thread ([`crate::replica::spawn_ctrl`]).
//!
//! * **Every wake handles a burst.** A loop does one blocking receive and
//!   then takes, without blocking, whatever else is already there, up to
//!   `BURST` (32) frames. The pause check, the busy claim and the leader's
//!   port poll are paid once per burst, not per frame.
//! * **A wait ends on its event, not on a poll.** A receive ends when a
//!   frame arrives, when [`Server::kill`] runs the loop's kill wake, or,
//!   on an [`InPort`], when [`InPort::install`] rewires it; a quiesced
//!   wait ends on resume; a backpressured dispatch ends when the queue has
//!   room. The only timeouts are the protocol's timers: `propagate_timeout`
//!   on server 0 and the outgoing port's next deadline
//!   ([`OutPort::poll`]: the buffer's resend timer, a reliable link's RTO)
//!   on the leader. A quiet server's threads sleep until one of these.
//! * **Worker 0 is the receive leader.** It blocks on the server's
//!   [`Source`] and computes each frame's RSS queue. Frames of other
//!   queues are handed to that worker's [`Nic`] queue: with backpressure
//!   when they came off a link (piggyback logs may not be dropped),
//!   drop-and-count when they came from the ingress (an RX-ring overrun).
//!   Its own flows it then runs inline, in arrival order — with
//!   `workers = 1` nothing is queued at all. A flow maps to one queue, so
//!   per-flow order is kept.
//! * **Workers 1.. drain their NIC queue** ([`Source::Queue`]) with the
//!   same loop.
//! * **Quiescing (§4.1)**: while the replica is paused no loop pulls —
//!   frames wait in the link, the ingress channel or the NIC queues — and
//!   the inline part of every burst is bracketed by one busy claim, so
//!   `pause()` observes `busy == 0` before a snapshot is served. Frames
//!   bound for another worker are dispatched *before* the claim, because a
//!   backpressured dispatch can block on a full queue and `pause()` must
//!   not wait for it. The leader keeps polling the outgoing port while
//!   paused, so retransmissions and the inline buffer's resend timer keep
//!   running.
//!
//! The same loop serves the multi-process gateway, which hosts a forwarder
//! and a buffer but no replica: [`Stage::Port`] forwards every pulled frame
//! to an [`OutPort`].

use crate::control::{InPort, OutPort};
use crate::forwarder::ForwarderState;
use crate::metrics::ChainMetrics;
use crate::replica::ReplicaState;
use bytes::BytesMut;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use ftc_net::nic::Nic;
use ftc_net::server::AliveToken;
use ftc_net::{Server, Wake};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most frames one wake of a loop pulls and handles (the reliable layer's
/// `ACK_EVERY` and the piggyback codec's `MAX_LOGS_PER_PACKET` are 32 too).
const BURST: usize = 32;

/// Where a loop takes its frames from.
pub enum Source {
    /// Server 0 (and the multi-process gateway): the chain ingress, with the
    /// forwarder run inline. After `propagate_timeout` without an ingress
    /// frame, pending feedback leaves in a propagating packet (§5.1). The
    /// feedback link is drained, without blocking, once per wake, before
    /// the burst's first frame is prepared: feedback is only ever used
    /// when logs are staged for an ingress packet and when the time-out
    /// fires.
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
    /// Every other server: the link from the predecessor.
    Link(Arc<InPort>),
    /// Workers 1..: the NIC queue the leader dispatches into.
    Queue(Receiver<BytesMut>),
}

impl Source {
    /// One blocking receive of at most `wait` (`Duration::MAX`: none),
    /// then non-blocking ones until `burst` holds `BURST` frames or the
    /// source has nothing more; counts the blocking receives that come back
    /// empty. `propagate_at` is the ingress's propagate timer, armed by
    /// the first wait after a frame. Returns `false` when the source is
    /// gone for good.
    fn pull(
        &self,
        burst: &mut Vec<BytesMut>,
        wait: Duration,
        propagate_at: &mut Option<Instant>,
        metrics: &ChainMetrics,
    ) -> bool {
        let idle = match self {
            Source::Ingress {
                ingress,
                forwarder,
                feedback,
                propagate_timeout,
            } => {
                let now = Instant::now();
                let due = *propagate_at.get_or_insert(now + *propagate_timeout);
                let until = now.checked_add(wait).map_or(due, |w| w.min(due));
                let first = match ingress.recv_deadline(until) {
                    Ok(frame) => Some(frame),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return false,
                };
                feedback.recv_burst(Duration::ZERO, usize::MAX, |fb| {
                    forwarder.ingest_feedback(fb);
                });
                match first {
                    Some(frame) => {
                        *propagate_at = None;
                        burst.extend(forwarder.prepare_ingress(frame));
                        while burst.len() < BURST {
                            let Ok(frame) = ingress.try_recv() else { break };
                            burst.extend(forwarder.prepare_ingress(frame));
                        }
                        false
                    }
                    None => {
                        if Instant::now() >= due {
                            *propagate_at = None;
                            burst.extend(forwarder.prepare_propagating());
                        }
                        true
                    }
                }
            }
            Source::Link(port) => {
                port.recv_burst(wait, BURST, |frame| burst.push(frame));
                burst.is_empty()
            }
            Source::Queue(queue) => match queue.recv_timeout(wait) {
                Ok(frame) => {
                    burst.push(frame);
                    while burst.len() < BURST {
                        let Ok(frame) = queue.try_recv() else { break };
                        burst.push(frame);
                    }
                    false
                }
                // Parked packets are woken by the applier that clears their
                // dependency (no polling needed): idle is idle.
                Err(RecvTimeoutError::Timeout) => true,
                Err(RecvTimeoutError::Disconnected) => return false,
            },
        };
        if idle {
            metrics.loop_idle_polls.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Ends the current or next blocking receive of [`Source::pull`].
    fn waker(&self) -> Wake {
        match self {
            Source::Ingress { ingress, .. } => {
                let ingress = ingress.clone();
                Box::new(move || ingress.interrupt())
            }
            Source::Link(port) => {
                let port = Arc::clone(port);
                Box::new(move || port.wake())
            }
            Source::Queue(queue) => {
                let queue = queue.clone();
                Box::new(move || queue.interrupt())
            }
        }
    }

    /// Link frames carry piggyback logs the link has already delivered
    /// exactly once; only ingress frames may be shed.
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
        alive.on_kill(self.waker());
        let mut deadline = if leader {
            if let Some((_, nic)) = &self.replica {
                alive.on_kill(nic.waker()); // a backpressured dispatch
            }
            self.out.set_poller(self.waker());
            self.out.poll()
        } else {
            None
        };
        let mut propagate_at = None;
        let mut burst = Vec::with_capacity(BURST);
        while alive.is_alive() {
            // The out-port's timer is the only deadline of the wait.
            let wait = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            let paused = self.replica.as_ref().filter(|(s, _)| s.is_paused());
            if let Some((state, _)) = paused {
                // Recovery-source quiescing (§4.1): stop admitting packets.
                state.wait_while_paused(wait);
            } else {
                if !self
                    .source
                    .pull(&mut burst, wait, &mut propagate_at, &self.metrics)
                {
                    break;
                }
                if !burst.is_empty() {
                    let m = &self.metrics;
                    m.loop_frames
                        .fetch_add(burst.len() as u64, Ordering::Relaxed);
                    m.loop_bursts.fetch_add(1, Ordering::Relaxed);
                    if !self.handle(&mut burst, alive) {
                        break;
                    }
                }
            }
            if leader {
                deadline = self.out.poll();
            }
        }
        self.metrics
            .dataplane_threads
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Ends whatever this loop waits in: its source's receive, or a
    /// quiesced wait or busy claim. The state is held weakly: the wake is
    /// also kept by the state's own out-port.
    fn waker(&self) -> Wake {
        let source = self.source.waker();
        match &self.replica {
            Some((state, _)) => {
                let state = Arc::downgrade(state);
                Box::new(move || {
                    source();
                    if let Some(state) = state.upgrade() {
                        state.kick();
                    }
                })
            }
            None => source,
        }
    }

    /// Runs a burst to completion: frames of other workers' flows are
    /// handed to their queues, the rest run inline in arrival order.
    /// Leaves `burst` empty. Returns `false` when the server is shutting
    /// down.
    fn handle(&self, burst: &mut Vec<BytesMut>, alive: &AliveToken) -> bool {
        let Some((state, nic)) = &self.replica else {
            for frame in burst.drain(..) {
                self.out.send(frame);
            }
            return true;
        };
        if !matches!(self.source, Source::Queue(_)) {
            // Dispatch first, outside the busy claim: a backpressured
            // dispatch may block on a full queue, and a claim held there
            // would make a concurrent `pause()` wait for it.
            burst.retain_mut(|frame| {
                let q = nic.rss_queue(frame);
                if q == self.worker {
                    return true;
                }
                let frame = std::mem::take(frame);
                if self.source.lossless() {
                    nic.dispatch_backpressure(q, frame, || alive.is_alive());
                } else {
                    nic.dispatch_to(q, frame);
                }
                false
            });
        }
        if burst.is_empty() {
            return true;
        }
        // Quiesced between the pull and the claim: the burst is held (its
        // piggyback logs must not be lost) and its transactions run after
        // Resume, so they sequence after the served state.
        if !state.claim_busy(|| alive.is_alive()) {
            return false; // shutting down; the burst dies with us
        }
        for frame in burst.drain(..) {
            state.handle_frame(self.worker, frame);
        }
        state.release_busy();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferSink, BufferState};
    use crate::config::{ChainConfig, RingMath};
    use crate::probe::{ProbePoint, ProbeVerdict, ProtocolProbe};
    use crossbeam::channel;
    use ftc_mbox::MbSpec;
    use ftc_net::{link_pair, reliable_pair, Endpoint, FrameRx};
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{DepVector, MboxId, PiggybackLog, PiggybackMessage};
    use ftc_packet::Packet;
    use std::net::Ipv4Addr;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// A first replica of a two-monitor chain with `workers` workers.
    fn replica(workers: usize, out: OutPort) -> Arc<ReplicaState> {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 2];
        let cfg = Arc::new(ChainConfig::new(specs.clone()).with_workers(workers));
        ReplicaState::new(
            0,
            cfg,
            specs[0].build(),
            Arc::new(out),
            Arc::new(ChainMetrics::default()),
        )
    }

    /// A two-worker [`replica`] and its NIC with `depth`-deep queues; queue
    /// 1 is returned undrained (its worker is not running).
    fn two_worker_replica(
        out: OutPort,
        depth: usize,
    ) -> (Arc<ReplicaState>, Arc<Nic>, Receiver<BytesMut>) {
        let mut nic = Nic::new(2, depth);
        let q1 = nic.take_queue(1);
        (replica(2, out), Arc::new(nic), q1)
    }

    /// The leader loop of `state` behind a one-queue NIC, reading `link`.
    fn link_leader(state: &Arc<ReplicaState>, link: impl FrameRx + 'static) -> Loop {
        Loop {
            worker: 0,
            source: Source::Link(Arc::new(InPort::wired(link))),
            replica: Some((Arc::clone(state), Arc::new(Nic::new(1, 64)))),
            out: Arc::clone(&state.out),
            metrics: Arc::clone(&state.metrics),
        }
    }

    fn pkt(ident: u16) -> BytesMut {
        UdpPacketBuilder::new().ident(ident).build().into_bytes()
    }

    /// The replica's Monitor counter: frames its transactions ran for.
    fn counted(state: &ReplicaState) -> u64 {
        state.own_store.peek_u64(b"mon:packets:g0").unwrap_or(0)
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
                propagate_timeout: Duration::from_millis(1),
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

    #[test]
    fn a_queued_backlog_is_handled_in_order_in_bursts() {
        let (out_tx, mut out_rx) = link_pair(&Endpoint::in_proc());
        let state = replica(1, OutPort::wired(out_tx));
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        for i in 0..100 {
            tx.send(pkt(i)).unwrap();
        }
        let (alive, h) = run_leader(link_leader(&state, rx));
        let idents: Vec<u16> = (0..100)
            .map(|_| {
                let f = out_rx.recv_timeout(Duration::from_secs(5)).unwrap();
                let p = Packet::from_frame(f.expect("forwarded")).unwrap();
                p.ipv4().unwrap().ident()
            })
            .collect();
        alive.kill();
        h.join().unwrap();
        assert_eq!(idents, (0..100).collect::<Vec<u16>>(), "arrival order");
        let snap = state.metrics.snapshot();
        assert_eq!(snap.loop_frames, 100);
        assert!(snap.loop_bursts <= 5, "{} bursts", snap.loop_bursts);
    }

    /// Holds the `at`-th forwarded frame until `state` is paused, after
    /// telling the test it got there: the test pauses mid-burst.
    struct PauseAt {
        at: usize,
        seen: AtomicUsize,
        reached: channel::Sender<()>,
        state: std::sync::Weak<ReplicaState>,
    }

    impl ProtocolProbe for PauseAt {
        fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
            if matches!(point, ProbePoint::PostForward { .. })
                && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at
            {
                let _ = self.reached.send(());
                let state = self.state.upgrade().expect("the test holds the state");
                wait_for("pause() to be called", || state.is_paused());
            }
            ProbeVerdict::Continue
        }
    }

    #[test]
    fn pause_waits_for_the_whole_burst_and_stops_the_next() {
        let state = replica(1, OutPort::empty());
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        for i in 0..2 * BURST as u16 {
            tx.send(pkt(i)).unwrap();
        }
        let (reached_tx, reached) = channel::unbounded();
        state.probe.install(Arc::new(PauseAt {
            at: 5,
            seen: AtomicUsize::new(0),
            reached: reached_tx,
            state: Arc::downgrade(&state),
        }));
        let (alive, h) = run_leader(link_leader(&state, rx));
        reached
            .recv_timeout(Duration::from_secs(5))
            .expect("the first burst is half handled");
        state.pause();
        let handled = state.metrics.loop_frames.load(Ordering::Relaxed);
        assert_eq!(handled, BURST as u64, "one burst pulled");
        assert_eq!(counted(&state), handled, "pause waited for the whole burst");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(counted(&state), handled, "nothing runs while paused");
        state.resume();
        wait_for("the second burst", || counted(&state) == 2 * BURST as u64);
        alive.kill();
        h.join().unwrap();
    }

    #[test]
    fn pause_does_not_wait_for_a_blocked_dispatch() {
        let (state, nic, q1) = two_worker_replica(OutPort::empty(), 1);
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        let (theirs, ours) = (frame_for_queue(&nic, 1), frame_for_queue(&nic, 0));
        for frame in [theirs.clone(), theirs, ours] {
            tx.send(frame).unwrap();
        }
        let (alive, h) = run_leader(Loop {
            worker: 0,
            source: Source::Link(Arc::new(InPort::wired(rx))),
            replica: Some((Arc::clone(&state), Arc::clone(&nic))),
            out: Arc::clone(&state.out),
            metrics: Arc::clone(&state.metrics),
        });
        wait_for("one burst of three", || {
            state.metrics.loop_frames.load(Ordering::Relaxed) == 3
        });
        wait_for("queue 1 full", || q1.len() == 1);
        std::thread::sleep(Duration::from_millis(5)); // the second dispatch blocks
        let t0 = Instant::now();
        state.pause();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(50), "pause took {took:?}");
        alive.kill();
        h.join().unwrap();
        assert_eq!(counted(&state), 0, "the inline frame waited for resume");
    }
}

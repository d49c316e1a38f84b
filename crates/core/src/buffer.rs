//! The chain egress element (paper §5.1).
//!
//! The buffer "holds a packet until the state updates associated with all
//! middleboxes of the chain have been replicated" and "forwards state
//! updates to the forwarder for middleboxes with replicas at the beginning
//! of the chain". Concretely: a packet arriving at the buffer still carries
//! the piggyback logs of the *wrapped* middleboxes (the last `f`); the
//! buffer extracts those logs, sends them to the forwarder (to ride
//! incoming packets around the ring), and withholds the packet until later
//! commit vectors dominate its logs' dependency vectors.
//!
//! Release is by index, not by rescan. Every held packet and every
//! uncommitted wrapped log waits under the first `(wrapped mbox, partition)`
//! commit entry it still misses, in seq order. Merged commit vectors only
//! grow, so an entry that covers a waiter keeps covering it: a frame whose
//! commits advance an entry wakes that entry's queue from the front, as far
//! as the new value reaches, and touches nothing else. A woken waiter that
//! still misses another entry waits again under that one; a woken log is
//! dropped from the resend backlog, and woken packets leave oldest first. A
//! frame's own packet leaves after the held packets its commits free: a
//! clean packet of a flow does not overtake its flow's held packets that
//! it releases.
//!
//! The buffer runs inline on the last server's workers: see [`BufferSink`].

use crate::config::RingMath;
use crate::control::OutPort;
use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeSlot};
use bytes::BytesMut;
use crossbeam::channel::Sender;
use ftc_net::{Disconnected, FrameTx};
use ftc_packet::piggyback::{encode_parts, DepVector, PiggybackLog, PiggybackMessage, FRAMING_LEN};
use ftc_packet::Packet;
use parking_lot::Mutex;
use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum logs per feedback message.
const MAX_FEEDBACK_LOGS: usize = 32;

struct HeldPacket {
    pkt: Packet,
    /// `(mbox, deps)` pairs that must be committed before release.
    reqs: Vec<(usize, DepVector)>,
}

/// A commit entry a waiter can miss: a wrapped middlebox and one of its
/// partitions, or `None` while that middlebox has sent no commit vector.
type CommitEntry = (usize, Option<u16>);

/// A held packet or an uncommitted log, by its arrival number.
#[derive(Clone, Copy)]
enum Waiter {
    Packet(u64),
    Log(u64),
}

/// Items in arrival order, each under its arrival number.
struct Arrivals<T> {
    ids: VecDeque<u64>,
    items: VecDeque<T>,
    next: u64,
}

impl<T> Arrivals<T> {
    fn new() -> Arrivals<T> {
        Arrivals {
            ids: VecDeque::new(),
            items: VecDeque::new(),
            next: 0,
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn push(&mut self, item: T) -> u64 {
        let id = self.next;
        self.next += 1;
        self.ids.push_back(id);
        self.items.push_back(item);
        id
    }

    fn get(&self, id: u64) -> &T {
        let i = self.ids.binary_search(&id).expect("waiter is stored");
        &self.items[i]
    }

    fn take(&mut self, id: u64) -> T {
        let i = self.ids.binary_search(&id).expect("waiter is stored");
        self.ids.remove(i);
        self.items.remove(i).expect("indexed")
    }

    /// Every item, oldest first, as one slice (rotates in place).
    fn as_slice(&mut self) -> &[T] {
        self.items.make_contiguous()
    }
}

/// One feedback frame carrying `logs`: the trailer encoding with no flags
/// and no commit vectors, into a buffer sized for it up front.
fn feedback_frame(logs: &[PiggybackLog]) -> BytesMut {
    let len = FRAMING_LEN + logs.iter().map(PiggybackLog::wire_len).sum::<usize>();
    let mut b = BytesMut::with_capacity(len);
    encode_parts(0, logs, &[], &mut b);
    b
}

/// The release rule for one dependency entry: `MAX[p] > seq`, or, under
/// the off-by-one fixture, `MAX[p] >= seq`.
fn covers(max: &[u64], p: u16, seq: u64, early: bool) -> bool {
    let v = max.get(p as usize).copied().unwrap_or(0);
    if early {
        // Accepts `MAX[p] == seq`, which only proves the *previous* update
        // replicated, not this one.
        v >= seq
    } else {
        v > seq
    }
}

/// The first commit entry mbox `m`'s `deps` still misses, with the seq it
/// waits for; `None` once the merged commits cover all of `deps`.
fn first_miss(
    commits: &HashMap<usize, Vec<u64>>,
    early: bool,
    m: usize,
    deps: &DepVector,
) -> Option<(CommitEntry, u64)> {
    let Some(max) = commits.get(&m) else {
        return Some(((m, None), 0));
    };
    deps.entries()
        .iter()
        .find(|&&(p, seq)| !covers(max, p, seq, early))
        .map(|&(p, seq)| ((m, Some(p)), seq))
}

/// Queues `w` under `entry` in seq order; equal seqs keep arrival order.
fn park(
    waiting: &mut HashMap<CommitEntry, VecDeque<(u64, Waiter)>>,
    entry: CommitEntry,
    seq: u64,
    w: Waiter,
) {
    let q = waiting.entry(entry).or_default();
    let at = q.partition_point(|&(s, _)| s <= seq);
    q.insert(at, (seq, w));
}

struct BufInner {
    /// Withheld packets, oldest first.
    held: Arrivals<HeldPacket>,
    /// Merged commit `MAX` per wrapped middlebox.
    commits: HashMap<usize, Vec<u64>>,
    /// Wrapped logs not yet confirmed committed, oldest first — kept for
    /// periodic resend so in-flight loss (including replica failure)
    /// self-heals; replicas deduplicate via the stale rule.
    uncommitted: Arrivals<PiggybackLog>,
    /// Logs to ship to the forwarder on the next flush.
    fresh: Vec<PiggybackLog>,
    /// Every held packet and uncommitted log, under the first commit entry
    /// it still misses, ordered by the seq it waits for.
    waiting: HashMap<CommitEntry, VecDeque<(u64, Waiter)>>,
    /// Scratch, kept across frames so steady state allocates nothing: the
    /// entries this frame's commits advanced, the waiters they woke, and
    /// the packets ready to leave.
    advanced: Vec<CommitEntry>,
    woken: Vec<Waiter>,
    ready: Vec<u64>,
}

/// Shared buffer state.
pub struct BufferState {
    ring: RingMath,
    inner: Mutex<BufInner>,
    egress: Sender<Packet>,
    feedback: Arc<OutPort>,
    metrics: Arc<ChainMetrics>,
    /// Model-checker hook: observes every release decision (the `f+1`
    /// replication proof point for invariant I1).
    pub probe: ProbeSlot,
    /// Negative-fixture switch: when set, the release rule is off by one
    /// (`MAX[p] >= seq` instead of `> seq`). Never set in production; the
    /// audit crate uses it to prove the model checker catches I1 bugs.
    sabotage_early: std::sync::atomic::AtomicBool,
}

impl BufferState {
    /// Creates buffer state. Released packets go to `egress`; feedback
    /// messages go out through `feedback` (the link to the forwarder).
    pub fn new(
        ring: RingMath,
        egress: Sender<Packet>,
        feedback: Arc<OutPort>,
        metrics: Arc<ChainMetrics>,
    ) -> Arc<BufferState> {
        Arc::new(BufferState {
            ring,
            inner: Mutex::new(BufInner {
                held: Arrivals::new(),
                commits: HashMap::new(),
                uncommitted: Arrivals::new(),
                fresh: Vec::new(),
                waiting: HashMap::new(),
                advanced: Vec::new(),
                woken: Vec::new(),
                ready: Vec::new(),
            }),
            egress,
            feedback,
            metrics,
            probe: ProbeSlot::new(),
            sabotage_early: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Intentionally breaks the release rule by one commit-vector entry
    /// (`MAX[p] >= seq` instead of the paper's strict `> seq`): a packet can
    /// then egress before its own state update is `f+1`-replicated. Test
    /// fixture for the protocol model checker's I1 witness; never called by
    /// production code. Call it before the first frame: waiters already
    /// indexed keep waiting under the strict rule's entry.
    #[doc(hidden)]
    pub fn sabotage_early_release(&self) {
        self.sabotage_early.store(true, Ordering::Release);
    }

    /// Number of packets currently withheld.
    pub fn held_len(&self) -> usize {
        self.inner.lock().held.len()
    }

    /// Number of wrapped logs awaiting commit confirmation.
    pub fn uncommitted_len(&self) -> usize {
        self.inner.lock().uncommitted.len()
    }

    /// Processes one frame arriving from the last replica.
    pub fn handle_frame(&self, frame: BytesMut) {
        let t0 = Instant::now();
        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return;
        };
        let msg = match pkt.detach_piggyback() {
            Ok(Some(m)) => m,
            Ok(None) => PiggybackMessage::default(),
            Err(_) => return,
        };
        let early = self.sabotage_early.load(Ordering::Acquire);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;

        // 1. Merge commit vectors, noting every entry that advanced, then
        //    release what those advances cover.
        for c in &msg.commits {
            let m = c.mbox.0 as usize;
            let entry = match inner.commits.entry(m) {
                Slot::Occupied(e) => e.into_mut(),
                Slot::Vacant(e) => {
                    inner.advanced.push((m, None));
                    e.insert(Vec::new())
                }
            };
            if c.max.len() > entry.len() {
                entry.resize(c.max.len(), 0);
            }
            for (i, &v) in c.max.iter().enumerate() {
                if v > entry[i] {
                    entry[i] = v;
                    inner.advanced.push((m, Some(i as u16)));
                }
            }
        }
        self.wake(inner, early);

        // 2. Extract wrapped logs: they become release requirements for this
        //    packet and feedback for the forwarder. Logs are MOVED into the
        //    fresh set (flush sends them, then shifts them into the
        //    uncommitted backlog) — no per-log clone on this path.
        let is_propagating = msg.is_propagating();
        let mut reqs = Vec::new();
        for log in msg.logs {
            let m = log.mbox.0 as usize;
            if !log.deps.is_empty() {
                reqs.push((m, log.deps.clone()));
            }
            inner.fresh.push(log);
        }

        // 3. Hold this packet, or release it — after the held packets that
        //    step 1 freed.
        let mut clean = false;
        if !is_propagating {
            let miss = reqs
                .iter()
                .find_map(|(m, deps)| first_miss(&inner.commits, early, *m, deps));
            match miss {
                Some((entry, seq)) => {
                    let id = inner.held.push(HeldPacket { pkt, reqs });
                    park(&mut inner.waiting, entry, seq, Waiter::Packet(id));
                }
                None => {
                    // Fully replicated (or read-only): release now.
                    clean = reqs.is_empty();
                    if clean {
                        self.metrics.t_buffer.record(t0.elapsed());
                    }
                    self.release(HeldPacket { pkt, reqs });
                }
            }
        }

        // 4. Flush feedback.
        self.flush_feedback(inner, early);
        self.metrics
            .held
            .store(inner.held.len() as u64, Ordering::Relaxed);
        self.metrics
            .buffer_uncommitted
            .store(inner.uncommitted.len() as u64, Ordering::Relaxed);
        if !clean {
            self.metrics.t_buffer.record(t0.elapsed());
        }
    }

    /// Re-sends uncommitted logs (timer path) so that logs lost in flight —
    /// e.g. during a failure — eventually replicate; also polls the
    /// feedback link for ACK/NACK processing.
    pub fn tick(&self) {
        let mut inner = self.inner.lock();
        // Resend *everything* uncommitted: completion order at the last
        // replica can diverge arbitrarily from commit order, so any
        // fixed-size prefix could miss the gap log and livelock the ring.
        // Replicas drop duplicates via the stale rule. The trailer encoder
        // serializes straight from the backlog slice — the old path deep-
        // cloned the whole backlog every tick. The backlog holds no
        // committed log: each is dropped when its entry advances.
        let backlog = inner.uncommitted.as_slice();
        for chunk in backlog.chunks(MAX_FEEDBACK_LOGS) {
            self.feedback.send(feedback_frame(chunk));
        }
        self.metrics
            .logs_resent
            .fetch_add(backlog.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.feedback.poll();
    }

    /// Wakes the waiters of every entry the frame's commits advanced: each
    /// either waits again under the next entry it misses or is done — a
    /// log leaves the backlog, a packet is released, oldest first.
    fn wake(&self, inner: &mut BufInner, early: bool) {
        let BufInner {
            held,
            commits,
            uncommitted,
            waiting,
            advanced,
            woken,
            ready,
            ..
        } = inner;
        for (m, p) in advanced.drain(..) {
            let Some(q) = waiting.get_mut(&(m, p)) else {
                continue;
            };
            let max = &commits[&m];
            // Queues are in seq order and the rule is monotone in seq, so
            // the covered waiters are a prefix. `None` waited for `m`'s
            // first commit vector, which just arrived.
            while let Some(&(seq, w)) = q.front() {
                if p.is_some_and(|p| !covers(max, p, seq, early)) {
                    break;
                }
                q.pop_front();
                woken.push(w);
            }
        }
        for w in woken.drain(..) {
            match w {
                Waiter::Packet(id) => {
                    let miss = held
                        .get(id)
                        .reqs
                        .iter()
                        .find_map(|(m, deps)| first_miss(commits, early, *m, deps));
                    match miss {
                        Some((entry, seq)) => park(waiting, entry, seq, w),
                        None => ready.push(id),
                    }
                }
                Waiter::Log(id) => {
                    let log = uncommitted.get(id);
                    match first_miss(commits, early, log.mbox.0 as usize, &log.deps) {
                        Some((entry, seq)) => park(waiting, entry, seq, w),
                        None => drop(uncommitted.take(id)),
                    }
                }
            }
        }
        ready.sort_unstable();
        for id in ready.drain(..) {
            self.release(held.take(id));
        }
    }

    /// Ships fresh wrapped logs to the forwarder as feedback frames (one
    /// amortized header per [`MAX_FEEDBACK_LOGS`] logs, encoded straight
    /// from the staging slice), then shifts those still uncommitted into
    /// the backlog for periodic resend. No log is cloned anywhere on this
    /// path.
    fn flush_feedback(&self, inner: &mut BufInner, early: bool) {
        if inner.fresh.is_empty() {
            return;
        }
        for chunk in inner.fresh.chunks(MAX_FEEDBACK_LOGS) {
            self.feedback.send(feedback_frame(chunk));
        }
        let BufInner {
            commits,
            uncommitted,
            fresh,
            waiting,
            ..
        } = inner;
        // Draining keeps the staging allocation.
        for log in fresh.drain(..) {
            if let Some((entry, seq)) = first_miss(commits, early, log.mbox.0 as usize, &log.deps) {
                let id = uncommitted.push(log);
                park(waiting, entry, seq, Waiter::Log(id));
            }
        }
    }

    fn release(&self, h: HeldPacket) {
        // I1 observation point: the release rule just claimed every
        // requirement is f+1-replicated.
        self.probe.observe_with(|| ProbePoint::BufferRelease {
            reqs: h
                .reqs
                .iter()
                .map(|(m, deps)| (*m, deps.entries().to_vec()))
                .collect(),
        });
        self.metrics.released.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .journal
            .record(EventSource::Buffer, EventKind::PacketReleased);
        let _ = self.egress.send(h.pkt);
    }

    /// The ring this buffer serves (used by diagnostics).
    pub fn ring(&self) -> RingMath {
        self.ring
    }
}

/// The buffer as the last replica's output link.
///
/// The buffer has no thread of its own: it shares server n−1 (§3.2), so the
/// last replica's [`OutPort`] is wired with this sink and the worker that
/// finished the packet runs the buffer on the same thread. `send` is
/// [`BufferState::handle_frame`]; `poll` — which the server's data-plane
/// leader calls after every wait, also while the replica is quiesced, and
/// whose `deadline` bounds that wait — runs [`BufferState::tick`] once
/// `resend_period` has passed, so the resend timer needs no thread either.
///
/// Lock order, on the send and on the tick path alike: tail `OutPort` →
/// buffer state → feedback `OutPort`.
pub struct BufferSink {
    buffer: Arc<BufferState>,
    resend_period: Duration,
    last_tick: Instant,
}

impl BufferSink {
    /// Wraps `buffer`; the first tick is due `resend_period` from now.
    pub fn new(buffer: Arc<BufferState>, resend_period: Duration) -> BufferSink {
        BufferSink {
            buffer,
            resend_period,
            last_tick: Instant::now(),
        }
    }
}

impl FrameTx for BufferSink {
    fn send(&mut self, frame: BytesMut) -> Result<(), Disconnected> {
        self.buffer.handle_frame(frame);
        Ok(())
    }

    fn poll(&mut self) -> Result<(), Disconnected> {
        if self.last_tick.elapsed() >= self.resend_period {
            self.buffer.tick();
            self.last_tick = Instant::now();
        }
        Ok(())
    }

    fn deadline(&self) -> Option<Instant> {
        Some(self.last_tick + self.resend_period)
    }

    fn in_flight(&self) -> usize {
        0 // a function call: nothing is ever in flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::InPort;
    use crossbeam::channel;
    use ftc_net::{reliable_pair, Endpoint};
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{CommitVector, MboxId};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    struct Rig {
        buf: Arc<BufferState>,
        egress: crossbeam::channel::Receiver<Packet>,
        feedback_rx: InPort,
        metrics: Arc<ChainMetrics>,
    }

    fn rig(n: usize, f: usize) -> Rig {
        let (etx, erx) = channel::unbounded();
        let (ftx, frx) = reliable_pair(&Endpoint::in_proc());
        let metrics = Arc::new(ChainMetrics::default());
        let buf = BufferState::new(
            RingMath { n, f },
            etx,
            Arc::new(OutPort::wired(ftx)),
            Arc::clone(&metrics),
        );
        Rig {
            buf,
            egress: erx,
            feedback_rx: InPort::wired(frx),
            metrics,
        }
    }

    fn frame_with(msg: &PiggybackMessage) -> BytesMut {
        let mut pkt = UdpPacketBuilder::new().build();
        pkt.attach_piggyback(msg).unwrap();
        pkt.into_bytes()
    }

    fn log(m: u16, part: u16, seq: u64) -> PiggybackLog {
        PiggybackLog {
            mbox: MboxId(m),
            deps: DepVector::from_entries(vec![(part, seq)]).unwrap(),
            writes: vec![],
        }
    }

    #[test]
    fn clean_packet_released_immediately() {
        let r = rig(3, 1);
        r.buf.handle_frame(frame_with(&PiggybackMessage::default()));
        assert!(r.egress.recv_timeout(Duration::from_millis(100)).is_ok());
        assert_eq!(r.buf.held_len(), 0);
        assert_eq!(r.metrics.released.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wrapped_log_holds_until_commit() {
        let r = rig(3, 1);
        // Packet carrying m2's log (wrapped in a 3-chain with f=1).
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        assert_eq!(r.buf.held_len(), 1);
        assert!(r.egress.try_recv().is_err());
        assert_eq!(r.buf.uncommitted_len(), 1);

        // A later packet carries m2's commit vector covering seq 0.
        let msg2 = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![1],
            }],
        };
        r.buf.handle_frame(frame_with(&msg2));
        // Both packets now out (second had no requirements).
        assert_eq!(r.buf.held_len(), 0);
        assert_eq!(r.metrics.released.load(Ordering::Relaxed), 2);
        assert_eq!(r.buf.uncommitted_len(), 0, "committed logs pruned");
    }

    #[test]
    fn insufficient_commit_keeps_holding() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 5)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let weak = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![5],
            }], // needs > 5
        };
        r.buf.handle_frame(frame_with(&weak));
        assert_eq!(r.buf.held_len(), 1, "MAX[p]=5 does not commit seq 5");
    }

    #[test]
    fn sabotaged_release_rule_frees_packets_one_entry_early() {
        // The negative fixture inverts `insufficient_commit_keeps_holding`:
        // with the off-by-one rule, MAX[p]=5 wrongly releases seq 5.
        let r = rig(3, 1);
        r.buf.sabotage_early_release();
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 5)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let weak = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![5],
            }],
        };
        r.buf.handle_frame(frame_with(&weak));
        assert_eq!(r.buf.held_len(), 0, "broken rule accepts MAX[p] == seq");
    }

    #[test]
    fn wrapped_logs_go_to_feedback() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let f = r
            .feedback_rx
            .recv_timeout(Duration::from_millis(100))
            .expect("feedback sent");
        let (fb, _) = PiggybackMessage::decode_trailing(&f.freeze())
            .unwrap()
            .unwrap();
        assert_eq!(fb.logs.len(), 1);
        assert_eq!(fb.logs[0].mbox, MboxId(2));
    }

    #[test]
    fn tick_resends_uncommitted() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        // Drain the initial feedback.
        let _ = r.feedback_rx.recv_timeout(Duration::from_millis(100));
        // Simulate loss: the log never committed; tick must resend.
        r.buf.tick();
        let f = r
            .feedback_rx
            .recv_timeout(Duration::from_millis(100))
            .expect("resend");
        let (fb, _) = PiggybackMessage::decode_trailing(&f.freeze())
            .unwrap()
            .unwrap();
        assert_eq!(fb.logs.len(), 1);
    }

    #[test]
    fn sink_releases_a_clean_packet_before_send_returns() {
        let r = rig(3, 1);
        let tail_out = OutPort::wired(BufferSink::new(
            Arc::clone(&r.buf),
            Duration::from_secs(3600),
        ));
        tail_out.send(frame_with(&PiggybackMessage::default()));
        // No thread in between: the packet is already on the egress.
        assert!(r.egress.try_recv().is_ok());
        assert!(tail_out.is_wired());
    }

    #[test]
    fn sink_poll_resends_when_the_period_has_passed_and_not_before() {
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        let first_feedback = |r: &Rig| {
            r.feedback_rx
                .recv_timeout(Duration::from_millis(100))
                .expect("fresh log fed back")
        };

        // Not before: a poll inside the period sends nothing.
        let r = rig(3, 1);
        let mut sink = BufferSink::new(Arc::clone(&r.buf), Duration::from_secs(3600));
        sink.send(frame_with(&msg)).unwrap();
        first_feedback(&r);
        sink.poll().unwrap();
        assert!(r.feedback_rx.recv_timeout(Duration::ZERO).is_none());
        assert_eq!(r.buf.uncommitted_len(), 1);

        // Once it has passed (a zero period always has): the poll resends.
        let r = rig(3, 1);
        let mut sink = BufferSink::new(Arc::clone(&r.buf), Duration::ZERO);
        sink.send(frame_with(&msg)).unwrap();
        first_feedback(&r);
        sink.poll().unwrap();
        let f = r
            .feedback_rx
            .recv_timeout(Duration::from_millis(100))
            .expect("uncommitted log resent");
        let (fb, _) = PiggybackMessage::decode_trailing(&f.freeze())
            .unwrap()
            .unwrap();
        assert_eq!(fb.logs.len(), 1);
    }

    #[test]
    fn propagating_packets_are_consumed_not_released() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: ftc_packet::piggyback::flags::PROPAGATING,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![3],
            }],
        };
        let prop = ftc_packet::packet::propagating_packet(
            ftc_packet::ether::MacAddr::from_index(1),
            ftc_packet::ether::MacAddr::from_index(2),
            &msg,
        );
        r.buf.handle_frame(prop.into_bytes());
        assert!(
            r.egress.try_recv().is_err(),
            "propagating packets never egress"
        );
        // But their commits took effect.
        let held = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 2)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&held));
        assert_eq!(
            r.buf.held_len(),
            0,
            "already-committed log releases instantly"
        );
    }

    #[test]
    fn release_order_is_fifo_among_ready() {
        let r = rig(2, 1);
        // Hold two packets needing m1 seq 0 and seq 1.
        let m1 = PiggybackMessage {
            flags: 0,
            logs: vec![log(1, 0, 0)],
            commits: vec![],
        };
        let m2 = PiggybackMessage {
            flags: 0,
            logs: vec![log(1, 0, 1)],
            commits: vec![],
        };
        let mut p1 = UdpPacketBuilder::new().ident(1).build();
        p1.attach_piggyback(&m1).unwrap();
        let mut p2 = UdpPacketBuilder::new().ident(2).build();
        p2.attach_piggyback(&m2).unwrap();
        r.buf.handle_frame(p1.into_bytes());
        r.buf.handle_frame(p2.into_bytes());
        assert_eq!(r.buf.held_len(), 2);
        // Commit both at once via a propagating packet (so the carrier
        // itself is not released ahead of the held packets).
        let commit = PiggybackMessage {
            flags: ftc_packet::piggyback::flags::PROPAGATING,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(1),
                max: vec![2],
            }],
        };
        let prop = ftc_packet::packet::propagating_packet(
            ftc_packet::ether::MacAddr::from_index(1),
            ftc_packet::ether::MacAddr::from_index(2),
            &commit,
        );
        r.buf.handle_frame(prop.into_bytes());
        let a = r.egress.recv_timeout(Duration::from_millis(100)).unwrap();
        let b = r.egress.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(a.ipv4().unwrap().ident(), 1);
        assert_eq!(b.ipv4().unwrap().ident(), 2);
    }

    #[test]
    fn clean_packet_leaves_after_the_held_packets_its_commit_frees() {
        let r = rig(3, 1);
        let held = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        let mut p1 = UdpPacketBuilder::new().ident(1).build();
        p1.attach_piggyback(&held).unwrap();
        r.buf.handle_frame(p1.into_bytes());
        // A clean packet whose commit vector frees ident 1.
        let clean = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![1],
            }],
        };
        let mut p2 = UdpPacketBuilder::new().ident(2).build();
        p2.attach_piggyback(&clean).unwrap();
        r.buf.handle_frame(p2.into_bytes());
        let order: Vec<u16> = std::iter::from_fn(|| r.egress.try_recv().ok())
            .map(|p| p.ipv4().unwrap().ident())
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn backlog_gauge_and_resend_counter_follow_the_uncommitted_logs() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        r.buf.tick();
        let snap = r.metrics.snapshot();
        assert_eq!((snap.buffer_uncommitted, snap.logs_resent), (1, 1));
        let commit = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![1],
            }],
        };
        r.buf.handle_frame(frame_with(&commit));
        let snap = r.metrics.snapshot();
        assert_eq!((snap.buffer_uncommitted, snap.logs_resent), (0, 1));
    }

    /// The linear rule the index replaced, kept as the reference: each
    /// frame merges its commits, then rescans every held packet and every
    /// uncommitted log. It differs from the rule it was taken from in two
    /// intended ways: a frame's clean packet leaves after the held packets
    /// its commits free, and a frame's own logs are pruned in that frame.
    #[derive(Default)]
    struct Linear {
        early: bool,
        held: VecDeque<(u16, Vec<(usize, DepVector)>)>,
        commits: HashMap<usize, Vec<u64>>,
        uncommitted: Vec<PiggybackLog>,
    }

    impl Linear {
        fn committed(&self, m: usize, deps: &DepVector) -> bool {
            let Some(max) = self.commits.get(&m) else {
                return false;
            };
            if self.early {
                return deps
                    .entries()
                    .iter()
                    .all(|&(p, seq)| max.get(p as usize).copied().unwrap_or(0) >= seq);
            }
            deps.committed_under(max)
        }

        /// Handles one frame; returns the idents it releases, in order.
        fn frame(&mut self, ident: u16, msg: PiggybackMessage) -> Vec<u16> {
            for c in &msg.commits {
                let entry = self.commits.entry(c.mbox.0 as usize).or_default();
                if c.max.len() > entry.len() {
                    entry.resize(c.max.len(), 0);
                }
                for (i, &v) in c.max.iter().enumerate() {
                    entry[i] = entry[i].max(v);
                }
            }
            let reqs: Vec<(usize, DepVector)> = msg
                .logs
                .iter()
                .filter(|l| !l.deps.is_empty())
                .map(|l| (l.mbox.0 as usize, l.deps.clone()))
                .collect();
            let clean = !msg.is_propagating() && reqs.is_empty();
            if !msg.is_propagating() && !reqs.is_empty() {
                self.held.push_back((ident, reqs));
            }
            self.uncommitted.extend(msg.logs);
            let mut out = self.sweep();
            if clean {
                out.push(ident);
            }
            out
        }

        fn sweep(&mut self) -> Vec<u16> {
            let mut out = Vec::new();
            while let Some(i) = self
                .held
                .iter()
                .position(|(_, reqs)| reqs.iter().all(|(m, deps)| self.committed(*m, deps)))
            {
                out.push(self.held.remove(i).expect("indexed").0);
            }
            let backlog = std::mem::take(&mut self.uncommitted);
            self.uncommitted = backlog
                .into_iter()
                .filter(|l| !self.committed(l.mbox.0 as usize, &l.deps))
                .collect();
            out
        }

        /// The timer path: releases nothing new, resends every uncommitted
        /// log, oldest first.
        fn tick(&mut self) -> (Vec<u16>, LogEntries) {
            let released = self.sweep();
            (released, entries(&self.uncommitted))
        }
    }

    /// A feedback link the test reads synchronously.
    struct Tap(crossbeam::channel::Sender<BytesMut>);

    impl FrameTx for Tap {
        fn send(&mut self, frame: BytesMut) -> Result<(), Disconnected> {
            self.0.send(frame).map_err(|_| Disconnected)
        }

        fn poll(&mut self) -> Result<(), Disconnected> {
            Ok(())
        }

        fn deadline(&self) -> Option<Instant> {
            None
        }

        fn in_flight(&self) -> usize {
            0
        }
    }

    /// One step of a generated run. Drawn for the widest case (two
    /// wrapped mboxes, three partitions) and narrowed per run: mbox indexes
    /// wrap modulo `f`, partitions past the run's count are dropped, and a
    /// log seq of 6 or 7 leaves that partition out of its dependency vector.
    #[derive(Debug, Clone)]
    enum Op {
        Frame {
            propagating: bool,
            logs: Vec<(usize, Vec<u64>)>,
            commits: Vec<(usize, Vec<u64>)>,
        },
        Tick,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let frame = (
            0u8..5,
            pvec((0usize..2, pvec(0u64..8, 3)), 0..3),
            pvec((0usize..2, pvec(0u64..8, 0..=3)), 0..3),
        )
            .prop_map(|(carrier, logs, commits)| Op::Frame {
                propagating: carrier == 0,
                logs,
                commits,
            });
        pvec(prop_oneof![6 => frame, 1 => Just(Op::Tick)], 1..40)
    }

    fn drain<T>(rx: &crossbeam::channel::Receiver<T>) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| rx.try_recv().ok())
    }

    /// Logs as `(mbox, dependency entries)`, in order.
    type LogEntries = Vec<(u16, Vec<(u16, u64)>)>;

    fn entries(logs: &[PiggybackLog]) -> LogEntries {
        logs.iter()
            .map(|l| (l.mbox.0, l.deps.entries().to_vec()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The index releases, holds, prunes and resends exactly what the
        /// linear rescan does: wrapped logs over 1–3 partitions, one or two
        /// wrapped mboxes, commits advancing out of order, propagating
        /// carriers, duplicate logs, with and without the off-by-one rule.
        #[test]
        fn index_matches_the_linear_rule(
            f in 1usize..=2,
            parts in 1usize..=3,
            early in any::<bool>(),
            ops in ops(),
        ) {
            let (etx, erx) = channel::unbounded();
            let (ftx, frx) = channel::unbounded();
            let buf = BufferState::new(
                RingMath { n: 3, f },
                etx,
                Arc::new(OutPort::wired(Tap(ftx))),
                Arc::new(ChainMetrics::default()),
            );
            let mut reference = Linear { early, ..Linear::default() };
            if early {
                buf.sabotage_early_release();
            }
            let mbox = |m: usize| MboxId((2 - m % f) as u16);
            for (step, op) in ops.into_iter().enumerate() {
                let ident = step as u16;
                let (want, want_resent) = match op {
                    Op::Frame { propagating, logs, commits } => {
                        let msg = PiggybackMessage {
                            flags: if propagating { ftc_packet::piggyback::flags::PROPAGATING } else { 0 },
                            logs: logs
                                .into_iter()
                                .map(|(m, seqs)| PiggybackLog {
                                    mbox: mbox(m),
                                    deps: DepVector::from_entries(
                                        seqs[..parts]
                                            .iter()
                                            .enumerate()
                                            .filter(|&(_, &s)| s < 6)
                                            .map(|(p, &s)| (p as u16, s))
                                            .collect(),
                                    )
                                    .unwrap(),
                                    writes: vec![],
                                })
                                .collect(),
                            commits: commits
                                .into_iter()
                                .map(|(m, mut max)| {
                                    max.truncate(parts);
                                    CommitVector { mbox: mbox(m), max }
                                })
                                .collect(),
                        };
                        let pkt = if propagating {
                            ftc_packet::packet::propagating_packet(
                                ftc_packet::ether::MacAddr::from_index(1),
                                ftc_packet::ether::MacAddr::from_index(2),
                                &msg,
                            )
                        } else {
                            let mut p = UdpPacketBuilder::new().ident(ident).build();
                            p.attach_piggyback(&msg).unwrap();
                            p
                        };
                        buf.handle_frame(pkt.into_bytes());
                        drain(&frx).for_each(drop);
                        (reference.frame(ident, msg), None)
                    }
                    Op::Tick => {
                        buf.tick();
                        let resent: Vec<PiggybackLog> = drain(&frx)
                            .flat_map(|b| {
                                PiggybackMessage::decode_trailing(&b.freeze())
                                    .unwrap()
                                    .unwrap()
                                    .0
                                    .logs
                            })
                            .collect();
                        let (released, want) = reference.tick();
                        prop_assert_eq!(entries(&resent), want.clone());
                        (released, Some(want))
                    }
                };
                let got: Vec<u16> = drain(&erx).map(|p| p.ipv4().unwrap().ident()).collect();
                prop_assert_eq!(got, want, "released at step {}", step);
                prop_assert_eq!(buf.held_len(), reference.held.len());
                prop_assert_eq!(buf.uncommitted_len(), reference.uncommitted.len());
                if let Some(resent) = want_resent {
                    prop_assert_eq!(resent.len(), buf.uncommitted_len());
                }
            }
        }
    }
}

//! The per-server FTC replica runtime.
//!
//! Each server of the chain hosts one replica. A replica is simultaneously
//! (paper §5): the *head* of its own middlebox's replication group (it runs
//! packet transactions and emits piggyback logs), a *mid* or *tail* replica
//! for the `f` preceding middleboxes (it applies their piggybacked logs to
//! local state stores, in dependency-vector order), and — when it is a tail
//! — the node that strips a log and vouches for it with a commit vector.

use crate::config::{ChainConfig, RingMath};
use crate::control::{encode_state, CtrlReq, CtrlResp, CtrlServer, OutPort};
use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeSlot, ProbeVerdict};
use crate::replace::{concurrently, worth_threads};
use bytes::BytesMut;
use ftc_mbox::{Action, Middlebox, ProcCtx};
use ftc_packet::ether::MacAddr;
use ftc_packet::piggyback::{MboxId, PiggybackLog, PiggybackMessage};
use ftc_packet::{packet, Packet};
use ftc_stm::{MaxVector, StateBackend, StateBackendExt, StoreCounts};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum frame size, trailer included, before a forwarded frame counts
/// in [`ChainMetrics::oversize_frames`]. The paper suggests jumbo frames "to
/// encompass larger state sizes exceeding standard maximum transmission
/// units" (§7.2); the in-process substrate still delivers larger frames.
const MTU: usize = 9000;

/// Replicated state this replica maintains for one predecessor middlebox.
pub struct ReplGroup {
    /// The replica copy of the middlebox's store.
    pub store: Arc<dyn StateBackend>,
    /// Apply bookkeeping (the `MAX` dependency vector).
    pub max: Arc<MaxVector>,
}

/// A packet whose processing is suspended on an out-of-order log.
///
/// A message may carry many logs (the forwarder batches buffer feedback in
/// whatever order the buffer saw it), and a log later in the message may be
/// the *dependency* of an earlier one — so logs are settled in any order:
/// `remaining` tracks the indices still unapplied, and the packet finishes
/// only when it is empty, preserving the apply-before-forward rule.
struct PendingPacket {
    pkt: Packet,
    msg: PiggybackMessage,
    /// Indices into `msg.logs` not yet applied (or found stale/irrelevant).
    remaining: Vec<usize>,
}

impl PendingPacket {
    fn new(pkt: Packet, msg: PiggybackMessage) -> PendingPacket {
        let remaining = (0..msg.logs.len()).collect();
        PendingPacket {
            pkt,
            msg,
            remaining,
        }
    }

    /// Remaining-work signature, used to deduplicate parked propagating
    /// packets (the buffer periodically resends uncommitted logs; identical
    /// resends blocked on the same dependency are redundant).
    fn signature(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &li in &self.remaining {
            let log = &self.msg.logs[li];
            log.mbox.0.hash(&mut h);
            log.deps.entries().hash(&mut h);
        }
        h.finish()
    }
}

/// Wake key: a parked packet waits for `(mbox, partition)`'s applied
/// counter to reach `seq`.
type WakeKey = (usize, u16, u64);

/// Recovery quiescing state (§4.1), kept under one mutex so the
/// pause-check / busy-claim step is atomic: `pause()` can never observe an
/// idle worker that is about to process a frame.
#[derive(Default)]
struct QuiesceState {
    /// While set, workers stop admitting packets so the state this replica
    /// serves as a recovery source stays frozen until the orchestrator
    /// reroutes and resumes it.
    paused: bool,
    /// Workers currently inside `handle_frame` (drained before snapshots).
    busy: usize,
    /// Set by [`ReplicaState::kick`]: the next (or current)
    /// [`ReplicaState::wait_while_paused`] returns.
    kicked: bool,
}

/// Indexed parking lot: all apply bookkeeping happens under this one lock,
/// which makes the check-then-park step atomic with respect to concurrent
/// applies (no lost wakeups) at the cost of serializing log application per
/// replica. Cross-packet application order remains governed purely by the
/// dependency vectors.
#[derive(Default)]
struct ParkingLot {
    by_key: HashMap<WakeKey, Vec<PendingPacket>>,
    count: usize,
}

/// Shared state of one replica's data-plane loops ([`crate::dataplane`]).
pub struct ReplicaState {
    /// Position of this replica in the (effective) chain.
    pub idx: usize,
    /// Ring arithmetic for the chain.
    pub ring: RingMath,
    /// Chain configuration.
    pub cfg: Arc<ChainConfig>,
    /// The middlebox co-located with this replica.
    pub mbox: Arc<dyn Middlebox>,
    /// The middlebox's own (head) store, on the engine the chain
    /// configuration selects.
    pub own_store: Arc<dyn StateBackend>,
    /// Replicated stores for the `f` preceding middleboxes, by position.
    pub replicated: HashMap<usize, ReplGroup>,
    /// Outgoing data-plane port (to the successor replica or the buffer).
    pub out: Arc<OutPort>,
    /// Parked packets awaiting dependencies, indexed by blocking key.
    parked: Mutex<ParkingLot>,
    /// Recovery quiescing (§4.1); see [`QuiesceState`].
    quiesce: Mutex<QuiesceState>,
    /// Signals quiesce transitions: `busy` dropping to zero (pause waits on
    /// it) and `paused` clearing (quiesced workers wait on it).
    quiesce_cv: Condvar,
    /// Chain-wide metrics.
    pub metrics: Arc<ChainMetrics>,
    /// Model-checker hook: reports the protocol steps of `finish` (apply,
    /// forward) and honors crash verdicts at step granularity.
    pub probe: ProbeSlot,
}

impl ReplicaState {
    /// Builds the state shared by a replica's threads.
    pub fn new(
        idx: usize,
        cfg: Arc<ChainConfig>,
        mbox: Arc<dyn Middlebox>,
        out: Arc<OutPort>,
        metrics: Arc<ChainMetrics>,
    ) -> Arc<ReplicaState> {
        let ring = cfg.ring();
        let own_store = cfg.engine.build(cfg.partitions);
        let mut replicated = HashMap::new();
        for m in ring.replicated_by(idx) {
            replicated.insert(
                m,
                ReplGroup {
                    store: cfg.engine.build(cfg.partitions),
                    max: Arc::new(MaxVector::new(cfg.partitions)),
                },
            );
        }
        Arc::new(ReplicaState {
            idx,
            ring,
            cfg,
            mbox,
            own_store,
            replicated,
            out,
            parked: Mutex::new(ParkingLot::default()),
            quiesce: Mutex::new(QuiesceState::default()),
            quiesce_cv: Condvar::new(),
            metrics,
            probe: ProbeSlot::new(),
        })
    }

    /// The state engine's counters summed over this replica's own store
    /// (commits, wound aborts, lock waits) and its replicated stores
    /// (applied logs).
    pub fn stm_counts(&self) -> StoreCounts {
        self.replicated
            .values()
            .fold(self.own_store.stats().snapshot(), |sum, g| {
                sum + g.store.stats().snapshot()
            })
    }

    /// True while the replica is quiesced as a recovery source.
    pub fn is_paused(&self) -> bool {
        self.quiesce.lock().paused
    }

    /// Quiesces packet processing and waits (bounded, condvar-signalled) for
    /// in-flight worker transactions to finish, so served snapshots are
    /// stable. The budget is generous: on a contended host a wound-wait
    /// retry storm can hold a worker busy for many milliseconds, and serving
    /// a snapshot that races a straggler commit would hand the replacement a
    /// state/sequence gap it can never fill.
    pub fn pause(&self) {
        let mut q = self.quiesce.lock();
        q.paused = true;
        let deadline = Instant::now() + Duration::from_secs(2);
        while q.busy > 0 {
            if self.quiesce_cv.wait_until(&mut q, deadline).timed_out() {
                // A worker still busy past the budget means a pathologically
                // stuck transaction; proceed best-effort rather than wedging
                // recovery.
                break;
            }
        }
    }

    /// Resumes packet processing after rerouting.
    pub fn resume(&self) {
        let mut q = self.quiesce.lock();
        q.paused = false;
        self.quiesce_cv.notify_all();
    }

    /// Waits while quiesced, without pulling work: returns as soon as the
    /// replica resumes, [`Self::kick`] is called or `timeout` elapses
    /// (`Duration::MAX`: no deadline), whichever is first. The caller (a
    /// data-plane leader, whose `timeout` is its out-port's timer) looks
    /// at its liveness and its port after each return.
    pub fn wait_while_paused(&self, timeout: Duration) {
        let deadline = Instant::now().checked_add(timeout);
        let mut q = self.quiesce.lock();
        while q.paused && !std::mem::take(&mut q.kicked) {
            match deadline {
                Some(d) => {
                    if self.quiesce_cv.wait_until(&mut q, d).timed_out() {
                        break;
                    }
                }
                None => self.quiesce_cv.wait(&mut q),
            }
        }
    }

    /// Ends every quiesce wait so its thread re-checks what it waits on:
    /// the current or next [`Self::wait_while_paused`] returns, and a
    /// blocked `claim_busy` re-evaluates `keep_waiting`.
    pub fn kick(&self) {
        let mut q = self.quiesce.lock();
        q.kicked = true;
        self.quiesce_cv.notify_all();
    }

    /// Claims a busy slot for processing one frame. The claim and the pause
    /// check happen under one lock, so [`Self::pause`] can never observe an
    /// idle worker that is about to process (the snapshot-vs-straggler
    /// race). While quiesced the caller's frame is held — its piggyback logs
    /// must not be lost — and the claim waits for [`Self::resume`],
    /// evaluating `keep_waiting` under the lock before every wait and after
    /// every [`Self::kick`]; returns `false` (no slot claimed) when
    /// `keep_waiting` reports shutdown.
    pub(crate) fn claim_busy(&self, keep_waiting: impl Fn() -> bool) -> bool {
        let mut q = self.quiesce.lock();
        while q.paused {
            if !keep_waiting() {
                return false;
            }
            self.quiesce_cv.wait(&mut q);
        }
        q.busy += 1;
        true
    }

    /// Releases a busy slot claimed with [`Self::claim_busy`], waking a
    /// pending [`Self::pause`] when the last worker drains.
    pub(crate) fn release_busy(&self) {
        let mut q = self.quiesce.lock();
        q.busy -= 1;
        if q.busy == 0 {
            self.quiesce_cv.notify_all();
        }
    }

    /// Entry point for one frame from a NIC queue.
    pub fn handle_frame(&self, worker: usize, frame: BytesMut) {
        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return; // unparseable: drop
        };
        let msg = match pkt.detach_piggyback() {
            Ok(Some(m)) => m,
            Ok(None) => PiggybackMessage::default(),
            Err(_) => return, // corrupt trailer: drop
        };
        // Work stack: applying a log may wake parked packets, which may in
        // turn wake more; process iteratively to bound stack depth.
        let mut work = vec![PendingPacket::new(pkt, msg)];
        while let Some(pp) = work.pop() {
            if let Some(done) = self.advance(&mut work, pp) {
                if !self.finish(worker, done) {
                    // A probe crashed the replica mid-step: fail-stop here,
                    // abandoning the rest of the work stack.
                    return;
                }
            }
        }
    }

    /// Settles one log under the parking-lot lock: applies it if ready,
    /// waking any packets the apply unblocks (pushed onto `work`).
    fn settle_log(
        &self,
        work: &mut Vec<PendingPacket>,
        pp: &PendingPacket,
        li: usize,
    ) -> ftc_stm::TryApply {
        let log = &pp.msg.logs[li];
        let m = log.mbox.0 as usize;
        let Some(group) = self.replicated.get(&m) else {
            // Not ours to replicate (pass-through log).
            return ftc_stm::TryApply::Stale;
        };
        let t0 = Instant::now();
        // One lock for check+apply+wake: concurrent appliers cannot slip
        // between a verdict and the bookkeeping (no lost wakeups).
        let mut lot = self.parked.lock();
        let verdict = group
            .max
            .try_apply_detailed(&log.deps, &log.writes, &*group.store);
        match &verdict {
            ftc_stm::TryApply::Applied { new_max } => {
                for &(p, v) in new_max {
                    if let Some(mut woken) = lot.by_key.remove(&(m, p, v)) {
                        lot.count -= woken.len();
                        work.append(&mut woken);
                    }
                }
                drop(lot);
                self.metrics.logs_applied.fetch_add(1, Ordering::Relaxed);
                self.metrics.t_apply.record(t0.elapsed());
                self.journal_log(EventKind::LogApplied { mbox: m as u16 });
            }
            ftc_stm::TryApply::Stale => {
                drop(lot);
                self.metrics.logs_stale.fetch_add(1, Ordering::Relaxed);
                self.journal_log(EventKind::LogStale { mbox: m as u16 });
            }
            ftc_stm::TryApply::Blocked { .. } => {}
        }
        verdict
    }

    /// Applies the packet's remaining relevant logs, in any settleable
    /// order. Returns the packet when every log is settled (ready for
    /// [`Self::finish`]); parks it and returns `None` while a dependency is
    /// missing. Woken packets are pushed onto `work`.
    fn advance(
        &self,
        work: &mut Vec<PendingPacket>,
        mut pp: PendingPacket,
    ) -> Option<PendingPacket> {
        loop {
            // Sweep all remaining logs; within one message, a later log may
            // unblock an earlier one, so iterate to a fixpoint.
            let mut progressed = false;
            let mut i = 0;
            while i < pp.remaining.len() {
                match self.settle_log(work, &pp, pp.remaining[i]) {
                    ftc_stm::TryApply::Applied { .. } | ftc_stm::TryApply::Stale => {
                        pp.remaining.swap_remove(i);
                        progressed = true;
                    }
                    ftc_stm::TryApply::Blocked { .. } => i += 1,
                }
            }
            if pp.remaining.is_empty() {
                return Some(pp);
            }
            if progressed {
                continue;
            }
            // Nothing applicable: park atomically on a re-verified blocker
            // (the re-check under the lot lock closes the window in which a
            // concurrent apply could have already satisfied it).
            let li = pp.remaining[0];
            let log = &pp.msg.logs[li];
            let m = log.mbox.0 as usize;
            let group = self.replicated.get(&m).expect("blocked implies replicated");
            let t0 = Instant::now();
            let mut lot = self.parked.lock();
            match group
                .max
                .try_apply_detailed(&log.deps, &log.writes, &*group.store)
            {
                ftc_stm::TryApply::Applied { new_max } => {
                    for (p, v) in new_max {
                        if let Some(mut woken) = lot.by_key.remove(&(m, p, v)) {
                            lot.count -= woken.len();
                            work.append(&mut woken);
                        }
                    }
                    drop(lot);
                    self.metrics.logs_applied.fetch_add(1, Ordering::Relaxed);
                    self.metrics.t_apply.record(t0.elapsed());
                    self.journal_log(EventKind::LogApplied { mbox: m as u16 });
                    pp.remaining.swap_remove(0);
                    continue;
                }
                ftc_stm::TryApply::Stale => {
                    drop(lot);
                    self.metrics.logs_stale.fetch_add(1, Ordering::Relaxed);
                    self.journal_log(EventKind::LogStale { mbox: m as u16 });
                    pp.remaining.swap_remove(0);
                    continue;
                }
                ftc_stm::TryApply::Blocked { partition, need } => {
                    let key = (m, partition, need);
                    let bucket = lot.by_key.entry(key).or_default();
                    if pp.msg.is_propagating() {
                        let sig = pp.signature();
                        if bucket
                            .iter()
                            .any(|q| q.msg.is_propagating() && q.signature() == sig)
                        {
                            // Duplicate resend already waiting here.
                            return None;
                        }
                    }
                    bucket.push(pp);
                    lot.count += 1;
                    drop(lot);
                    self.metrics.logs_parked.fetch_add(1, Ordering::Relaxed);
                    self.journal_log(EventKind::LogParked { mbox: m as u16 });
                    return None;
                }
            }
        }
    }

    /// Records a journal event attributed to this replica.
    fn journal_log(&self, kind: EventKind) {
        self.metrics
            .journal
            .record(EventSource::Replica(self.idx as u16), kind);
    }

    /// Number of packets currently parked.
    pub fn parked_len(&self) -> usize {
        self.parked.lock().count
    }

    /// Drops all parked packets (recovery-source rule, §4.1).
    pub fn discard_parked(&self) {
        let mut lot = self.parked.lock();
        lot.by_key.clear();
        lot.count = 0;
        drop(lot);
        for g in self.replicated.values() {
            g.max.discard_parked();
        }
    }

    /// Finishes a packet whose piggybacked logs are all applied: runs the
    /// middlebox transaction, strips tail logs, attaches the commit vector
    /// and the replica's own log, and forwards. Returns `false` when an
    /// installed probe crashed the replica mid-step (state mutated so far
    /// persists; the in-progress output is discarded).
    fn finish(&self, worker: usize, pp: PendingPacket) -> bool {
        let PendingPacket {
            mut pkt, mut msg, ..
        } = pp;
        let is_prop = msg.is_propagating();

        // 1. The packet transaction (heads only process data packets).
        let mut action = Action::Forward;
        let mut own_log: Option<ftc_stm::TxnLog> = None;
        if !is_prop {
            let ctx = ProcCtx {
                worker,
                workers: self.cfg.workers,
            };
            let t0 = Instant::now();
            let out = self
                .own_store
                .transaction(|txn| self.mbox.process(&mut pkt, txn, ctx));
            self.metrics.t_transaction.record(t0.elapsed());
            action = out.value;
            own_log = out.log;
            // Crash point §6(a): the transaction committed locally but its
            // log never leaves the server.
            if self
                .probe
                .observe_with(|| ProbePoint::PrePiggyback { replica: self.idx })
                == ProbeVerdict::Crash
            {
                return false;
            }
        }

        // 2. Strip logs we are the tail of (we replicated them f+1-th).
        let idx = self.idx;
        let ring = self.ring;
        msg.logs.retain(|log| {
            let m = log.mbox.0 as usize;
            !(ring.is_member(idx, m) && ring.tail_of(m) == idx)
        });

        // 3. Append our own piggyback log (f = 0 needs no propagation: the
        //    head itself is the tail).
        if let Some(log) = own_log {
            if self.ring.f > 0 {
                let t1 = Instant::now();
                let plog = PiggybackLog {
                    mbox: MboxId(self.idx as u16),
                    deps: log.deps,
                    writes: log.writes,
                };
                self.metrics
                    .piggyback_bytes
                    .fetch_add(plog.wire_len() as u64, Ordering::Relaxed);
                self.metrics.piggyback_count.fetch_add(1, Ordering::Relaxed);
                msg.logs.push(plog);
                self.metrics.t_piggyback.record(t1.elapsed());
            }
        }

        // 4. Attach our commit vector when the buffer needs it: we are the
        //    tail of a *wrapped* middlebox (its logs ride the feedback loop
        //    and only our MAX can release the held packets). Trailing zeros
        //    are trimmed to keep the trailer small.
        let mt = self.ring.tail_for(self.idx);
        if self.ring.wraps(mt) {
            let mut max = if mt == self.idx {
                self.own_store.seq_vector()
            } else {
                self.replicated[&mt].max.vector()
            };
            while max.last() == Some(&0) {
                max.pop();
            }
            if !max.is_empty() {
                let entry = msg.commit_entry(MboxId(mt as u16), 0);
                entry.merge_from(&ftc_packet::piggyback::CommitVector {
                    mbox: MboxId(mt as u16),
                    max,
                });
            }
        }

        // Crash point §6(b): applies done, message fully assembled, but the
        // frame is never handed to the output port.
        if self
            .probe
            .observe_with(|| ProbePoint::PostApplyPreForward { replica: self.idx })
            == ProbeVerdict::Crash
        {
            return false;
        }

        // 5. Forward, or convert a filtered packet's state into a
        //    propagating packet (§5.1).
        match action {
            Action::Forward => {
                pkt.attach_piggyback(&msg).expect("fresh trailer");
                if pkt.wire_len() > MTU {
                    self.metrics.oversize_frames.fetch_add(1, Ordering::Relaxed);
                }
                self.out.send(pkt.into_bytes());
            }
            Action::Drop => {
                self.metrics.filtered.fetch_add(1, Ordering::Relaxed);
                self.journal_log(EventKind::PacketFiltered);
                if !msg.logs.is_empty() || !msg.commits.is_empty() {
                    msg.flags |= ftc_packet::piggyback::flags::PROPAGATING;
                    let prop = packet::propagating_packet(
                        MacAddr::from_index(0xF7C0 + self.idx as u64),
                        MacAddr::from_index(0xF7C0 + self.idx as u64 + 1),
                        &msg,
                    );
                    self.metrics.propagating.fetch_add(1, Ordering::Relaxed);
                    self.out.send(prop.into_bytes());
                }
            }
        }

        // Crash point §6(c): the frame is already safely downstream; only
        // the server dies.
        self.probe
            .observe_with(|| ProbePoint::PostForward { replica: self.idx })
            != ProbeVerdict::Crash
    }

    /// Restores the own (head) store from recovered state: "the new replica
    /// restores the dependency matrix of the failed head by setting each of
    /// its rows to the retrieved MAX" (§5.2) — here, the per-partition
    /// sequence counters are set from the fetched `MAX` vector.
    pub fn restore_own(&self, snapshot: ftc_stm::StoreSnapshot, max: &[u64]) {
        self.own_store.restore(snapshot);
        self.own_store.restore_seqs(max);
    }

    /// Restores a replicated group's store and `MAX` vector.
    pub fn restore_replicated(&self, mbox: usize, snapshot: ftc_stm::StoreSnapshot, max: Vec<u64>) {
        let g = self
            .replicated
            .get(&mbox)
            .expect("restore target must be a replicated middlebox");
        g.store.restore(snapshot);
        g.max.restore(max);
    }

    /// Serves one control request (run by the control thread).
    pub fn serve_ctrl(&self, req: CtrlReq) -> CtrlResp {
        match req {
            CtrlReq::Ping => CtrlResp::Pong,
            CtrlReq::Resume => {
                self.resume();
                CtrlResp::Resumed
            }
            CtrlReq::FetchState { mboxes } => {
                // Source rule (§4.1): stop admitting packets in flight and
                // discard out-of-order state, so everything served from now
                // until the orchestrator's Resume is a consistent frontier.
                self.pause();
                self.discard_parked();
                // Each group is encoded on a thread of its own when the
                // request names several that are large enough.
                let groups: Vec<_> = mboxes.into_iter().map(|m| self.group(m)).collect();
                let threads = worth_threads(groups.iter().flatten().map(|(_, s)| s.len()));
                CtrlResp::State(concurrently(groups, threads, |group| {
                    group.map(|(max, store)| encode_state(&**store, &max))
                }))
            }
        }
    }

    /// Group `mbox`'s `MAX` vector and store; `None` if this replica does
    /// not replicate that middlebox.
    fn group(&self, mbox: usize) -> Option<(Vec<u64>, &Arc<dyn StateBackend>)> {
        // MAX before the store is read: re-applying a write that is
        // already in the state is idempotent, the reverse order could lose
        // one.
        if mbox == self.idx {
            // Serving as successor for a failed head: our own store *is*
            // the most recent replica state we hold for it.
            Some((self.own_store.seq_vector(), &self.own_store))
        } else {
            let g = self.replicated.get(&mbox)?;
            Some((g.max.vector(), &g.store))
        }
    }
}

/// Spawns the replica's control thread onto `server`. The data-plane
/// threads are [`crate::dataplane::spawn_dataplane`]'s.
pub fn spawn_ctrl(server: &mut ftc_net::Server, state: Arc<ReplicaState>, mut ctrl: CtrlServer) {
    server.spawn("ctrl", move |alive| {
        // A request or the kill ends each wait; nothing else is waited for.
        alive.on_kill(ctrl.waker());
        while alive.is_alive() {
            let res = ctrl.serve_next(Duration::MAX, |req| state.serve_ctrl(req));
            if res.is_err() {
                break; // all clients gone
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChainConfig;
    use ftc_mbox::MbSpec;
    use ftc_net::{reliable_pair, Endpoint};
    use ftc_packet::builder::UdpPacketBuilder;

    fn mk_state(
        idx: usize,
        n: usize,
        f: usize,
        spec: MbSpec,
    ) -> (Arc<ReplicaState>, crate::control::InPort) {
        let mbs: Vec<MbSpec> = (0..n)
            .map(|_| MbSpec::Monitor { sharing_level: 1 })
            .collect();
        let mut cfg = ChainConfig::new(mbs).with_f(f);
        cfg.middleboxes[idx] = spec.clone();
        let cfg = Arc::new(cfg);
        let (tx, rx) = reliable_pair(&Endpoint::in_proc());
        let out = Arc::new(OutPort::wired(tx));
        let metrics = Arc::new(ChainMetrics::default());
        let st = ReplicaState::new(idx, cfg, spec.build(), out, metrics);
        (st, crate::control::InPort::wired(rx))
    }

    fn recv_packet(port: &crate::control::InPort) -> Option<(Packet, PiggybackMessage)> {
        let frame = port.recv_timeout(Duration::from_millis(200))?;
        let mut pkt = Packet::from_frame(frame).ok()?;
        let msg = pkt.detach_piggyback().ok()?.unwrap_or_default();
        Some((pkt, msg))
    }

    #[test]
    fn head_attaches_own_log() {
        let (st, out_rx) = mk_state(0, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        let pkt = UdpPacketBuilder::new().build();
        st.handle_frame(0, pkt.into_bytes());
        let (_, msg) = recv_packet(&out_rx).expect("forwarded");
        assert_eq!(msg.logs.len(), 1);
        assert_eq!(msg.logs[0].mbox, MboxId(0));
        assert!(!msg.logs[0].writes.is_empty());
    }

    #[test]
    fn stateless_head_attaches_nothing() {
        let (st, out_rx) = mk_state(0, 3, 1, MbSpec::Firewall { rules: vec![] });
        st.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        let (_, msg) = recv_packet(&out_rx).expect("forwarded");
        assert!(msg.logs.is_empty());
        // r0 is the tail of the wrapped m2, but with no state applied yet
        // its commit vector trims to empty and is omitted.
        assert!(msg.commits.is_empty());
    }

    #[test]
    fn replica_applies_predecessor_log_and_mid_keeps_it() {
        // Chain of 4, f=2: r1 replicates m0 (tail is r2), so r1 applies m0's
        // log but must keep it attached for r2.
        let (head, head_out) = mk_state(0, 4, 2, MbSpec::Monitor { sharing_level: 1 });
        let (mid, mid_out) = mk_state(1, 4, 2, MbSpec::Monitor { sharing_level: 1 });
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        let (pkt, msg) = recv_packet(&head_out).unwrap();
        // re-frame towards the mid replica
        let mut pkt = pkt;
        pkt.attach_piggyback(&msg).unwrap();
        mid.handle_frame(0, pkt.into_bytes());
        let (_, msg2) = recv_packet(&mid_out).unwrap();
        // m0's log still present (r1 not tail), plus r1's own log.
        let mboxes: Vec<u16> = msg2.logs.iter().map(|l| l.mbox.0).collect();
        assert!(mboxes.contains(&0), "m0 log kept for the tail");
        assert!(mboxes.contains(&1), "m1's own log added");
        // And it was applied locally.
        assert_eq!(
            mid.replicated[&0].store.peek_u64(b"mon:packets:g0"),
            Some(1)
        );
        assert_eq!(mid.metrics.logs_applied.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tail_strips_log_and_out_of_order_parks() {
        // Chain of 3, f=1: r1 is tail of m0.
        let (head, head_out) = mk_state(0, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        let (tail, tail_out) = mk_state(1, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        // Two packets from the head → two logs in order.
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        let (p1, m1) = recv_packet(&head_out).unwrap();
        let (p2, m2) = recv_packet(&head_out).unwrap();
        // Deliver out of order: second first.
        let mut p2 = p2;
        p2.attach_piggyback(&m2).unwrap();
        tail.handle_frame(0, p2.into_bytes());
        assert_eq!(tail.parked_len(), 1, "early log parks the packet");
        let mut p1 = p1;
        p1.attach_piggyback(&m1).unwrap();
        tail.handle_frame(0, p1.into_bytes());
        assert_eq!(
            tail.parked_len(),
            0,
            "in-order log unblocks the parked packet"
        );
        // Both forwarded, both with m0's log stripped.
        for _ in 0..2 {
            let (_, msg) = recv_packet(&tail_out).unwrap();
            assert!(
                msg.logs.iter().all(|l| l.mbox != MboxId(0)),
                "tail strips m0"
            );
        }
        assert_eq!(
            tail.replicated[&0].store.peek_u64(b"mon:packets:g0"),
            Some(2)
        );
    }

    #[test]
    fn filtered_packet_becomes_propagating() {
        use ftc_mbox::firewall::{Cidr, FirewallRule};
        // Chain of 3, f=2; the firewall at position 1 denies everything.
        // m0's log is applied at r1 but its tail is r2 — so when the data
        // packet dies at the firewall, the log must continue in a
        // propagating packet (paper §5.1: "its head generates a propagating
        // packet to carry the piggyback message of a filtered packet").
        let (head, head_out) = mk_state(0, 3, 2, MbSpec::Monitor { sharing_level: 1 });
        let (fw, fw_out) = mk_state(
            1,
            3,
            2,
            MbSpec::Firewall {
                rules: vec![FirewallRule::deny_src(Cidr::any())],
            },
        );
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        let (mut pkt, msg) = recv_packet(&head_out).unwrap();
        pkt.attach_piggyback(&msg).unwrap();
        fw.handle_frame(0, pkt.into_bytes());
        let (prop, pmsg) = recv_packet(&fw_out).expect("propagating packet emitted");
        assert!(pmsg.is_propagating());
        assert_eq!(fw.metrics.filtered.load(Ordering::Relaxed), 1);
        // m0's log survives for its tail r2; the local copy was applied.
        assert_eq!(pmsg.logs.len(), 1);
        assert_eq!(pmsg.logs[0].mbox, MboxId(0));
        assert_eq!(fw.replicated[&0].store.peek_u64(b"mon:packets:g0"), Some(1));
        assert!(prop.ipv4().unwrap().ftc_option().is_some());
    }

    #[test]
    fn filtered_packet_with_empty_message_vanishes() {
        use ftc_mbox::firewall::{Cidr, FirewallRule};
        // Chain of 3, f=1: the firewall at position 1 strips m0's log (it is
        // the tail) and its own commit target m0 does not wrap — nothing
        // left to propagate, so nothing is emitted.
        let (head, head_out) = mk_state(0, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        let (fw, fw_out) = mk_state(
            1,
            3,
            1,
            MbSpec::Firewall {
                rules: vec![FirewallRule::deny_src(Cidr::any())],
            },
        );
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        let (mut pkt, msg) = recv_packet(&head_out).unwrap();
        pkt.attach_piggyback(&msg).unwrap();
        fw.handle_frame(0, pkt.into_bytes());
        assert!(
            recv_packet(&fw_out).is_none(),
            "nothing to carry, nothing sent"
        );
        assert_eq!(fw.replicated[&0].store.peek_u64(b"mon:packets:g0"), Some(1));
    }

    #[test]
    fn only_frames_past_the_jumbo_mtu_count_as_oversize() {
        // A Gen head's log carries its whole state write, so the state size
        // sets the trailer's length: 8,000 B keeps the frame under the
        // 9,000 B jumbo MTU (§7.2), 9,000 B pushes it past.
        for (state_size, oversize) in [(8000, false), (9000, true)] {
            let (st, out_rx) = mk_state(0, 2, 1, MbSpec::Gen { state_size });
            st.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
            let frame = out_rx
                .recv_timeout(Duration::from_millis(200))
                .expect("forwarded");
            let len = Packet::from_frame(frame).unwrap().wire_len();
            assert_eq!(len > 9000, oversize, "frame of {len} B");
            assert_eq!(
                st.metrics.oversize_frames.load(Ordering::Relaxed),
                u64::from(oversize)
            );
        }
    }

    #[test]
    fn propagating_packets_skip_the_middlebox() {
        let (st, out_rx) = mk_state(1, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        let msg = PiggybackMessage::propagating(vec![]);
        let prop = packet::propagating_packet(MacAddr::from_index(1), MacAddr::from_index(2), &msg);
        st.handle_frame(0, prop.into_bytes());
        let (_, fwd) = recv_packet(&out_rx).expect("propagating packets are forwarded");
        assert!(fwd.is_propagating());
        assert!(st.own_store.is_empty(), "middlebox must not process it");
    }

    #[test]
    fn ctrl_fetch_state_own_and_replicated() {
        let (head, _o1) = mk_state(0, 3, 1, MbSpec::Monitor { sharing_level: 1 });
        head.handle_frame(0, UdpPacketBuilder::new().build().into_bytes());
        // One request, three groups: own, replicated (ring) and not held.
        let CtrlResp::State(states) = head.serve_ctrl(CtrlReq::FetchState {
            mboxes: vec![0, 2, 1],
        }) else {
            panic!("a fetch answers with states");
        };
        let [own, replicated, not_held] = &states[..] else {
            panic!("one state per group: {states:?}");
        };
        let (snapshot, max) = crate::control::decode_state(own.as_ref().unwrap()).unwrap();
        assert!(snapshot.byte_size() > 0);
        assert_eq!(max, head.own_store.seq_vector());
        assert!(replicated.is_some(), "r0 replicates m2 (ring)");
        assert!(not_held.is_none(), "r0 does not replicate m1");
        assert!(head.is_paused(), "serving a fetch pauses the source");
        match head.serve_ctrl(CtrlReq::Ping) {
            CtrlResp::Pong => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

//! Control-plane surface of a replica and swappable data-plane ports.
//!
//! The control protocol ([`CtrlReq`]/[`CtrlResp`]) is defined here once,
//! together with its byte codec, and rides any transport backend through
//! the byte-level [`RpcCaller`]/[`RpcResponder`] traits: in one process the
//! bytes flow over a channel pair, across processes they ride a socket —
//! the protocol cannot drift between deployments because both speak the
//! same serialization.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ftc_net::rpc::RpcError;
use ftc_net::transport::{FrameRx, FrameTx, RpcCaller, RpcResponder, Wake};
use ftc_stm::{StateBackend, StoreSnapshot};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Control requests served by a replica's control thread.
#[derive(Debug)]
pub enum CtrlReq {
    /// Liveness probe (heartbeat).
    Ping,
    /// Fetch the states of middleboxes `mboxes` for recovery, all of the
    /// groups one source is asked for in one request. Serving this request
    /// *pauses* the replica's packet processing — "the replica that is the
    /// source for state recovery discards any out-of-order packets that
    /// have not been applied to its state store and will no longer admit
    /// packets in flight" (§4.1) — until [`CtrlReq::Resume`] arrives after
    /// rerouting.
    FetchState {
        /// Middleboxes (positions) whose stores are requested.
        mboxes: Vec<usize>,
    },
    /// Resume packet processing after recovery rerouting completed.
    Resume,
}

/// Control responses.
#[derive(Debug)]
pub enum CtrlResp {
    /// Reply to [`CtrlReq::Ping`].
    Pong,
    /// Reply to [`CtrlReq::FetchState`]: one encoded state per requested
    /// middlebox, in request order ([`encode_state`]; decode each with
    /// [`decode_state`], on whichever thread restores it). `None` where the
    /// replica does not replicate that middlebox.
    State(Vec<Option<Bytes>>),
    /// Acknowledgement of [`CtrlReq::Resume`].
    Resumed,
}

// ---- byte codec -----------------------------------------------------------

const REQ_PING: u8 = 1;
const REQ_FETCH: u8 = 2;
const REQ_RESUME: u8 = 3;
const RESP_PONG: u8 = 1;
const RESP_STATE: u8 = 2;
const RESP_RESUMED: u8 = 4;

/// Serialize a control request.
pub fn encode_req(req: &CtrlReq) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    match req {
        CtrlReq::Ping => b.put_u8(REQ_PING),
        CtrlReq::FetchState { mboxes } => {
            b.reserve(4 + 8 * mboxes.len());
            b.put_u8(REQ_FETCH);
            b.put_u32(mboxes.len() as u32);
            for &m in mboxes {
                b.put_u64(m as u64);
            }
        }
        CtrlReq::Resume => b.put_u8(REQ_RESUME),
    }
    b.freeze()
}

/// Deserialize a control request; `None` if the bytes are not exactly one
/// request.
pub fn decode_req(mut b: &[u8]) -> Option<CtrlReq> {
    if !b.has_remaining() {
        return None;
    }
    let req = match b.get_u8() {
        REQ_PING => CtrlReq::Ping,
        REQ_FETCH => CtrlReq::FetchState {
            mboxes: take_u64s(&mut b)?.into_iter().map(|m| m as usize).collect(),
        },
        REQ_RESUME => CtrlReq::Resume,
        _ => return None,
    };
    (!b.has_remaining()).then_some(req)
}

/// Serialize a control response. A state response copies each group's
/// encoded state once, into one allocation of the exact size.
pub fn encode_resp(resp: &CtrlResp) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    match resp {
        CtrlResp::Pong => b.put_u8(RESP_PONG),
        CtrlResp::State(groups) => {
            let body: usize = groups.iter().flatten().map(|g| 4 + g.len()).sum();
            b.reserve(5 + groups.len() + body);
            b.put_u8(RESP_STATE);
            b.put_u32(groups.len() as u32);
            for g in groups {
                match g {
                    None => b.put_u8(0),
                    Some(g) => {
                        b.put_u8(1);
                        b.put_u32(g.len() as u32);
                        b.put_slice(g);
                    }
                }
            }
        }
        CtrlResp::Resumed => b.put_u8(RESP_RESUMED),
    }
    b.freeze()
}

/// Serialize one group's state: its entry count, the store and its `MAX`
/// vector (the head's sequence vector for an own store), the unit a
/// recovery moves. The entries are read under each partition's lock and
/// copied straight into the output; no copy of the store is made first.
pub fn encode_state(store: &dyn StateBackend, max: &[u64]) -> Bytes {
    // One allocation of the exact size. A state runs to hundreds of
    // kilobytes, and growing into it by doubling copies it once over and
    // touches as much fresh memory again — on the recovery path, inside
    // the outage. (A store that changed between the two walks only costs
    // a regrowth: the source is paused while it serves.)
    let mut len = 16 + 8 * max.len();
    store.visit_partitions(&mut |_, map| {
        len += 12
            + map
                .iter()
                .map(|(k, v)| 8 + k.len() + v.len())
                .sum::<usize>();
    });
    let mut b = BytesMut::with_capacity(len);
    let mut seqs = Vec::with_capacity(store.partitions());
    let mut entries = 0;
    // The entry count, filled in once the entries are written.
    b.put_u32(0);
    b.put_u32(store.partitions() as u32);
    store.visit_partitions(&mut |seq, map| {
        seqs.push(seq);
        entries += map.len();
        b.put_u32(map.len() as u32);
        for (k, v) in map {
            b.put_u32(k.len() as u32);
            b.put_slice(k);
            b.put_u32(v.len() as u32);
            b.put_slice(v);
        }
    });
    b[..4].copy_from_slice(&(entries as u32).to_be_bytes());
    b.put_u32(seqs.len() as u32);
    for s in &seqs {
        b.put_u64(*s);
    }
    b.put_u32(max.len() as u32);
    for m in max {
        b.put_u64(*m);
    }
    b.freeze()
}

/// The entry count an encoded group state ([`encode_state`]) declares,
/// read without decoding it; 0 if there is none.
pub fn state_entries(state: &[u8]) -> usize {
    state
        .get(..4)
        .map_or(0, |h| u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize)
}

/// The next length-prefixed field of `frame`, whose unread tail is `b`,
/// as a slice of the frame: no copy.
fn take_bytes(frame: &Bytes, b: &mut &[u8]) -> Option<Bytes> {
    let len = take_u32(b)?;
    if b.remaining() < len {
        return None;
    }
    let start = frame.len() - b.remaining();
    b.advance(len);
    Some(frame.slice(start..start + len))
}

fn take_u32(b: &mut &[u8]) -> Option<usize> {
    (b.remaining() >= 4).then(|| b.get_u32() as usize)
}

fn take_u64s(b: &mut &[u8]) -> Option<Vec<u64>> {
    let n = take_u32(b)?;
    (b.remaining() / 8 >= n).then(|| (0..n).map(|_| b.get_u64()).collect())
}

/// Deserialize a control response; `None` if the bytes are not exactly one
/// response. A state response's groups are slices of `frame`, not copies:
/// only their headers are read here.
pub fn decode_resp(frame: &Bytes) -> Option<CtrlResp> {
    let mut b = frame.as_ref();
    if !b.has_remaining() {
        return None;
    }
    let b = &mut b;
    let resp = match b.get_u8() {
        RESP_PONG => CtrlResp::Pong,
        RESP_STATE => {
            let n = take_u32(b)?;
            // A group needs at least one byte: a hostile count cannot
            // allocate.
            let mut groups = Vec::with_capacity(n.min(b.remaining()));
            for _ in 0..n {
                if !b.has_remaining() {
                    return None;
                }
                groups.push(match b.get_u8() {
                    0 => None,
                    1 => Some(take_bytes(frame, b)?),
                    _ => return None,
                });
            }
            CtrlResp::State(groups)
        }
        RESP_RESUMED => CtrlResp::Resumed,
        _ => return None,
    };
    (!b.has_remaining()).then_some(resp)
}

/// Deserialize one group's state ([`encode_state`]); `None` if the bytes
/// are not exactly one state, or hold another number of entries than they
/// declare. Hostile counts cannot allocate: every capacity is bounded by
/// the bytes left (a map needs at least 4 of them, an entry 8). Keys and
/// values are slices of `state`, which stays allocated until the last of
/// them is dropped.
pub fn decode_state(state: &Bytes) -> Option<(StoreSnapshot, Vec<u64>)> {
    let mut b = state.as_ref();
    let b = &mut b;
    let entries = take_u32(b)?;
    let n_maps = take_u32(b)?;
    let mut maps = Vec::with_capacity(n_maps.min(b.remaining() / 4));
    for _ in 0..n_maps {
        let n = take_u32(b)?;
        let mut map = Vec::with_capacity(n.min(b.remaining() / 8));
        for _ in 0..n {
            let k = take_bytes(state, b)?;
            let v = take_bytes(state, b)?;
            map.push((k, v));
        }
        maps.push(map);
    }
    let seqs = take_u64s(b)?;
    let max = take_u64s(b)?;
    let declared = maps.iter().map(Vec::len).sum::<usize>() == entries;
    (declared && !b.has_remaining()).then_some((StoreSnapshot { maps, seqs }, max))
}

// ---- typed RPC wrappers ---------------------------------------------------

/// Client handle to a replica's control plane, over any transport backend.
pub struct CtrlClient {
    inner: Arc<dyn RpcCaller>,
}

impl Clone for CtrlClient {
    fn clone(&self) -> Self {
        CtrlClient {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl CtrlClient {
    /// Wraps a byte-level caller.
    pub fn from_caller(inner: Box<dyn RpcCaller>) -> CtrlClient {
        CtrlClient {
            inner: Arc::from(inner),
        }
    }

    /// A derived client talking to the same server but paying a different
    /// simulated one-way delay (in-process backend; real transports return
    /// an unchanged clone).
    pub fn with_delay(&self, one_way: Duration) -> CtrlClient {
        CtrlClient {
            inner: Arc::from(self.inner.with_delay(one_way)),
        }
    }

    /// Issues a call and waits up to `timeout` for the reply.
    pub fn call(&self, req: CtrlReq, timeout: Duration) -> Result<CtrlResp, RpcError> {
        let resp = self.inner.call_bytes(encode_req(&req), timeout)?;
        // An undecodable response means the peer speaks a different
        // protocol revision — indistinguishable from a dead peer.
        decode_resp(&resp).ok_or(RpcError::Disconnected)
    }
}

/// Server side of a replica's control plane.
pub struct CtrlServer {
    inner: Box<dyn RpcResponder>,
}

impl CtrlServer {
    /// Wraps a byte-level responder.
    pub fn from_responder(inner: Box<dyn RpcResponder>) -> CtrlServer {
        CtrlServer { inner }
    }

    /// A handle that ends the current or next wait of
    /// [`CtrlServer::serve_next`].
    pub fn waker(&self) -> Wake {
        self.inner.waker()
    }

    /// Serves at most one pending request using `handler`, waiting up to
    /// `timeout` (`Duration::MAX`: no deadline) for one to arrive. Returns
    /// whether a request was served.
    pub fn serve_next(
        &mut self,
        timeout: Duration,
        handler: impl FnOnce(CtrlReq) -> CtrlResp,
    ) -> Result<bool, RpcError> {
        let mut handler = Some(handler);
        self.inner.serve_next_bytes(timeout, &mut |req_bytes| {
            let resp = match (decode_req(req_bytes.as_ref()), handler.take()) {
                (Some(req), Some(h)) => h(req),
                // Garbled request or (impossible per contract) a second
                // dispatch: answer like a liveness probe, changing nothing.
                _ => CtrlResp::Pong,
            };
            encode_resp(&resp)
        })
    }
}

/// Creates an in-process control channel with the given one-way delay.
pub fn ctrl_pair(one_way: Duration) -> (CtrlClient, CtrlServer) {
    let (client, server) = ftc_net::rpc::rpc_pair(one_way);
    (
        CtrlClient::from_caller(Box::new(client)),
        CtrlServer::from_responder(Box::new(server)),
    )
}

// ---- swappable data-plane ports -------------------------------------------

/// A swappable outgoing reliable-link slot.
///
/// Data-plane threads send through whatever [`FrameTx`] is currently
/// installed; the orchestrator installs a fresh sender when rerouting
/// around a failed successor. An empty slot (mid-recovery) drops frames —
/// exactly the packet loss a rewired physical network would exhibit, and
/// recovered the same way (end-to-end retransmission / buffer resend).
///
/// One thread, the port's *poller*, runs the sender's timers: it calls
/// [`OutPort::poll`] after every wait and waits no longer than the
/// deadline that returns. While the sender has no deadline the poller
/// waits for its own frames only, so a send by another thread that gives
/// the sender one (a first unacknowledged frame) runs the poller's wake.
pub struct OutPort {
    slot: Mutex<OutSlot>,
}

struct OutSlot {
    tx: Option<Box<dyn FrameTx>>,
    /// Ends the poller's wait ([`OutPort::set_poller`]).
    poller: Option<Wake>,
    /// The last poll found no deadline and the poller waits without one.
    poller_idle: bool,
}

impl OutPort {
    fn with(tx: Option<Box<dyn FrameTx>>) -> OutPort {
        OutPort {
            slot: Mutex::new(OutSlot {
                tx,
                poller: None,
                poller_idle: false,
            }),
        }
    }

    /// Creates an unwired port (drops frames until [`install`]ed).
    ///
    /// [`install`]: OutPort::install
    pub fn empty() -> OutPort {
        OutPort::with(None)
    }

    /// Creates a port pre-wired with `sender`.
    pub fn wired(sender: impl FrameTx + 'static) -> OutPort {
        OutPort::with(Some(Box::new(sender)))
    }

    /// Sends a frame through the current link, if any.
    pub fn send(&self, frame: BytesMut) {
        let mut slot = self.slot.lock();
        let OutSlot {
            tx,
            poller,
            poller_idle,
        } = &mut *slot;
        let Some(link) = tx.as_mut() else { return };
        if link.send(frame).is_err() {
            // Successor is gone; drop until rerouted.
            *tx = None;
        } else if *poller_idle && link.deadline().is_some() {
            *poller_idle = false;
            if let Some(wake) = poller {
                wake();
            }
        }
    }

    /// Runs the sender's retransmission/ACK processing and returns when it
    /// next has work ([`FrameTx::deadline`]).
    pub fn poll(&self) -> Option<Instant> {
        let mut slot = self.slot.lock();
        let deadline = match slot.tx.as_mut().map(|tx| tx.poll().map(|()| tx.deadline())) {
            Some(Ok(deadline)) => deadline,
            Some(Err(_)) => {
                slot.tx = None;
                None
            }
            None => None,
        };
        slot.poller_idle = deadline.is_none() && slot.poller.is_some();
        deadline
    }

    /// Makes the caller this port's poller: `wake` ends its wait.
    pub fn set_poller(&self, wake: Wake) {
        self.slot.lock().poller = Some(wake);
    }

    /// Installs a new link (rerouting).
    pub fn install(&self, sender: impl FrameTx + 'static) {
        self.slot.lock().tx = Some(Box::new(sender));
    }

    /// True if a live link is installed.
    pub fn is_wired(&self) -> bool {
        self.slot.lock().tx.is_some()
    }
}

/// A swappable incoming-link slot, with **one reader at a time**.
///
/// The reader takes the receiver out of the slot while it blocks, so an
/// [`install`] from the orchestrator never waits behind a receive (the
/// `parking_lot` stand-in is an unfair mutex: a reader that re-locks back
/// to back can starve an installer for tens of milliseconds). A second
/// concurrent reader would find the slot empty and read nothing. The slot
/// keeps the receiver's [`FrameRx::waker`], so an `install` ends the
/// reader's receive on the link it replaces and [`InPort::wake`] ends it
/// for the reader's own thread's sake (a kill).
///
/// [`install`]: InPort::install
pub struct InPort {
    slot: Mutex<InSlot>,
    /// Signalled by `install` and `wake` (an unwired reader waits for
    /// them) and when a reader lets go of a receiver `install` replaced
    /// (`install_exclusive` waits for that).
    changed: Condvar,
}

struct InSlot {
    rx: Option<Box<dyn FrameRx>>,
    /// Ends a receive on the current generation's receiver, wherever it is.
    wake: Option<Wake>,
    /// Bumped by every [`InPort::install`]: a reader puts its receiver
    /// back only if no install happened while it was blocked.
    generation: u64,
    /// The generation of the receiver a reader has taken out, if any.
    held: Option<u64>,
    /// A [`InPort::wake`] that found no reader blocked: the next receive
    /// returns at once.
    woken: bool,
}

impl InPort {
    fn with(rx: Option<Box<dyn FrameRx>>) -> InPort {
        InPort {
            slot: Mutex::new(InSlot {
                wake: rx.as_ref().map(|rx| rx.waker()),
                rx,
                generation: 0,
                held: None,
                woken: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Creates an unwired port (returns `None` until [`install`]ed).
    ///
    /// [`install`]: InPort::install
    pub fn empty() -> InPort {
        InPort::with(None)
    }

    /// Creates a port pre-wired with `receiver`.
    pub fn wired(receiver: impl FrameRx + 'static) -> InPort {
        InPort::with(Some(Box::new(receiver)))
    }

    /// Receives the next in-order frame, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<BytesMut> {
        let mut got = None;
        self.recv_burst(timeout, 1, |frame| got = Some(frame));
        got
    }

    /// Receives up to `max` frames into `sink`: waits up to `timeout`
    /// (`Duration::MAX`: no deadline) for the first, then takes only
    /// frames that are already there. An unwired port waits for
    /// [`install`](InPort::install); an install during a receive and
    /// [`InPort::wake`] end the wait early. The slot is locked twice per
    /// receive, not per frame.
    pub(crate) fn recv_burst(&self, timeout: Duration, max: usize, mut sink: impl FnMut(BytesMut)) {
        let mut slot = self.slot.lock();
        // The deadline, read off the clock only if the port is unwired.
        let mut until = None;
        let mut rx = loop {
            if std::mem::take(&mut slot.woken) {
                return;
            }
            if let Some(rx) = slot.rx.take() {
                break rx;
            }
            // Unwired (predecessor died): nothing to read until `install`.
            match *until.get_or_insert_with(|| Instant::now().checked_add(timeout)) {
                Some(d) => {
                    if self.changed.wait_until(&mut slot, d).timed_out() {
                        return;
                    }
                }
                None => self.changed.wait(&mut slot),
            }
        };
        let generation = slot.generation;
        slot.held = Some(generation);
        drop(slot);
        let mut wait = match until {
            Some(Some(d)) => d.saturating_duration_since(Instant::now()),
            Some(None) => Duration::MAX,
            None => timeout,
        };
        let mut live = true;
        for _ in 0..max {
            match rx.recv_timeout(wait) {
                Ok(Some(frame)) => sink(frame),
                Ok(None) => break,
                Err(_) => {
                    live = false;
                    break;
                }
            }
            wait = Duration::ZERO;
        }
        let mut slot = self.slot.lock();
        slot.held = None;
        if slot.generation != generation {
            // Replaced meanwhile: `rx` is dropped, exactly as `install`
            // drops a receiver nobody holds.
            self.changed.notify_all();
        } else if live {
            slot.rx = Some(rx);
        } else {
            slot.wake = None; // a dead link stays unwired
        }
    }

    /// Ends the reader's current receive, or its next one if none is
    /// blocked: the reader's thread has something else to see to.
    pub fn wake(&self) {
        let mut slot = self.slot.lock();
        match &slot.wake {
            Some(wake) if slot.held == Some(slot.generation) => wake(),
            _ => {
                slot.woken = true;
                self.changed.notify_all();
            }
        }
    }

    /// Installs a new link (rerouting). Never waits for a blocked reader:
    /// it ends the reader's receive on the link it replaces, and that
    /// receiver is dropped as the reader lets go of it; the reader's next
    /// receive reads the new link.
    pub fn install(&self, receiver: impl FrameRx + 'static) {
        self.swap(Box::new(receiver));
    }

    /// [`install`](InPort::install), then waits until no reader holds the
    /// receiver it replaced. Socket receivers of one stream share the
    /// node's per-stream queue, so a socket edge is rerouted with this:
    /// once it returns, no frame of the new epoch can reach the old
    /// receiver. The install ends the reader's receive, so the wait is
    /// the reader's way back to the slot; past a 1 s budget it gives up,
    /// as [`crate::replica::ReplicaState::pause`] does.
    pub fn install_exclusive(&self, receiver: impl FrameRx + 'static) {
        let mut slot = self.swap(Box::new(receiver));
        let deadline = Instant::now() + Duration::from_secs(1);
        while slot.held.is_some_and(|g| g != slot.generation) {
            if self.changed.wait_until(&mut slot, deadline).timed_out() {
                break;
            }
        }
    }

    fn swap(&self, rx: Box<dyn FrameRx>) -> MutexGuard<'_, InSlot> {
        let mut slot = self.slot.lock();
        if slot.held == Some(slot.generation) {
            if let Some(wake) = &slot.wake {
                wake();
            }
        }
        slot.wake = Some(rx.waker());
        slot.rx = Some(rx);
        slot.generation += 1;
        self.changed.notify_all();
        slot
    }

    /// True if a live link is installed (also while its reader holds it).
    pub fn is_wired(&self) -> bool {
        let slot = self.slot.lock();
        slot.rx.is_some() || slot.held.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_net::{link_pair, reliable_pair, Endpoint};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// A store holding `snapshot` (one partition per map).
    fn store(snapshot: StoreSnapshot) -> ftc_stm::StateStore {
        let store = ftc_stm::StateStore::new(snapshot.maps.len());
        store.restore(snapshot);
        store
    }

    #[test]
    fn ports_relay_frames() {
        let (tx, rx) = reliable_pair(&Endpoint::in_proc());
        let out = OutPort::wired(tx);
        let inp = InPort::wired(rx);
        out.send(BytesMut::from(&b"hello"[..]));
        let f = inp.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(&f[..], b"hello");
    }

    #[test]
    fn unwired_ports_drop_and_dont_block() {
        let out = OutPort::empty();
        out.send(BytesMut::from(&b"x"[..])); // silently dropped
        assert!(!out.is_wired());
        let inp = InPort::empty();
        let t0 = std::time::Instant::now();
        assert!(inp.recv_timeout(Duration::from_millis(2)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(1), "must back off");
    }

    #[test]
    fn install_swaps_links() {
        let out = OutPort::empty();
        let inp = InPort::empty();
        let (tx, rx) = reliable_pair(&Endpoint::in_proc());
        out.install(tx);
        inp.install(rx);
        out.send(BytesMut::from(&b"rewired"[..]));
        let f = inp.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(&f[..], b"rewired");
    }

    /// Reports each receive just before it blocks.
    struct Announcing(Box<dyn FrameRx>, crossbeam::channel::Sender<()>);

    impl FrameRx for Announcing {
        fn recv_timeout(
            &mut self,
            timeout: Duration,
        ) -> Result<Option<BytesMut>, ftc_net::Disconnected> {
            let _ = self.1.send(());
            self.0.recv_timeout(timeout)
        }

        fn waker(&self) -> Wake {
            self.0.waker()
        }
    }

    /// A port whose reader, on its own thread, is parked in a 50 ms
    /// receive on a link that sends nothing.
    fn port_with_parked_reader() -> (Arc<InPort>, std::thread::JoinHandle<Option<BytesMut>>) {
        let (old_tx, old_rx) = link_pair(&Endpoint::in_proc());
        let (entered_tx, entered) = crossbeam::channel::unbounded();
        let port = Arc::new(InPort::wired(Announcing(old_rx, entered_tx)));
        let reader = {
            let port = Arc::clone(&port);
            std::thread::spawn(move || {
                let _keep_the_link_open = old_tx;
                port.recv_timeout(Duration::from_millis(50))
            })
        };
        entered.recv().expect("the reader blocks on the old link");
        (port, reader)
    }

    #[test]
    fn install_does_not_wait_for_a_blocked_reader() {
        let (port, reader) = port_with_parked_reader();
        assert!(port.is_wired(), "wired while its reader holds the link");
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        let t0 = Instant::now();
        port.install(rx);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(5), "install waited {took:?}");
        assert!(
            reader.join().unwrap().is_none(),
            "the old link sent nothing"
        );
        tx.send(BytesMut::from(&b"new"[..])).unwrap();
        let f = port.recv_timeout(Duration::from_millis(100));
        assert_eq!(&f.expect("read from the new link")[..], b"new");
    }

    #[test]
    fn install_moves_a_parked_reader_to_the_new_link() {
        let (old_tx, old_rx) = link_pair(&Endpoint::in_proc());
        let (entered_tx, entered) = crossbeam::channel::unbounded();
        let port = Arc::new(InPort::wired(Announcing(old_rx, entered_tx)));
        // A data-plane reader: receive after receive, each up to 10 s.
        let reader = {
            let port = Arc::clone(&port);
            std::thread::spawn(move || {
                let _keep_the_old_link_open = old_tx;
                loop {
                    if let Some(frame) = port.recv_timeout(Duration::from_secs(10)) {
                        return (frame, Instant::now());
                    }
                }
            })
        };
        entered.recv().expect("the reader blocks on the old link");
        std::thread::sleep(Duration::from_millis(10));
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        let t0 = Instant::now();
        port.install(rx);
        tx.send(BytesMut::from(&b"new"[..])).unwrap();
        let (frame, got_at) = reader.join().unwrap();
        assert_eq!(&frame[..], b"new");
        let took = got_at - t0;
        assert!(took < Duration::from_secs(1), "the reader took {took:?}");
    }

    #[test]
    fn wake_ends_a_parked_read_and_an_unwired_wait() {
        let (_tx, rx) = link_pair(&Endpoint::in_proc());
        for port in [InPort::wired(rx), InPort::empty()] {
            let port = Arc::new(port);
            let reader = {
                let port = Arc::clone(&port);
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    assert!(port.recv_timeout(Duration::from_secs(10)).is_none());
                    t0.elapsed()
                })
            };
            std::thread::sleep(Duration::from_millis(10));
            port.wake();
            let took = reader.join().unwrap();
            assert!(took < Duration::from_secs(1), "the read lasted {took:?}");
        }
    }

    #[test]
    fn a_send_that_arms_an_idle_port_wakes_its_poller() {
        let (tx, _rx) = reliable_pair(&Endpoint::in_proc());
        let out = OutPort::wired(tx);
        let wakes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = Arc::clone(&wakes);
        out.set_poller(Box::new(move || {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        let woken = || wakes.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(out.poll(), None, "nothing awaits an acknowledgement");
        out.send(BytesMut::from(&b"a"[..]));
        assert_eq!(woken(), 1, "the first unacknowledged frame arms the RTO");
        out.send(BytesMut::from(&b"b"[..]));
        assert_eq!(woken(), 1, "an armed port needs no wake");
        assert!(out.poll().is_some(), "the RTO is the poller's deadline");
    }

    #[test]
    fn install_exclusive_returns_once_the_old_receiver_is_dropped() {
        let (port, reader) = port_with_parked_reader();
        let (_tx, rx) = link_pair(&Endpoint::in_proc());
        port.install_exclusive(rx);
        assert_eq!(port.slot.lock().held, None, "the reader let go");
        assert!(reader.join().unwrap().is_none());
        assert!(port.is_wired());
    }

    #[test]
    fn a_dead_link_unwires_the_in_port() {
        let (tx, rx) = link_pair(&Endpoint::in_proc());
        let port = InPort::wired(rx);
        drop(tx);
        assert!(port.is_wired());
        assert!(port.recv_timeout(Duration::from_millis(1)).is_none());
        assert!(!port.is_wired(), "a dead link is not put back");
        let (mut tx, rx) = link_pair(&Endpoint::in_proc());
        tx.send(BytesMut::from(&b"x"[..])).unwrap();
        port.install(rx);
        assert!(port.recv_timeout(Duration::ZERO).is_some());
    }

    #[test]
    fn dead_peer_unwires_sender() {
        let (tx, rx) = reliable_pair(&Endpoint::in_proc());
        let out = OutPort::wired(tx);
        drop(rx);
        out.send(BytesMut::from(&b"x"[..]));
        assert!(!out.is_wired(), "send to dead peer unwires the port");
    }

    #[test]
    fn ctrl_codec_roundtrips() {
        for req in [
            CtrlReq::Ping,
            CtrlReq::FetchState { mboxes: vec![7] },
            CtrlReq::FetchState {
                mboxes: vec![0, 2, 1],
            },
            CtrlReq::FetchState { mboxes: vec![] },
            CtrlReq::Resume,
        ] {
            let enc = encode_req(&req);
            let dec = decode_req(enc.as_ref()).unwrap();
            assert_eq!(format!("{req:?}"), format!("{dec:?}"));
        }
        let snapshot = StoreSnapshot {
            maps: vec![
                vec![
                    (Bytes::copy_from_slice(b"k1"), Bytes::copy_from_slice(b"v1")),
                    (Bytes::copy_from_slice(b""), Bytes::copy_from_slice(b"v2")),
                ],
                vec![],
            ],
            seqs: vec![3, 0],
        };
        let state = encode_state(&store(snapshot.clone()), &[9, 8, 7]);
        assert_eq!(decode_state(&state), Some((snapshot, vec![9, 8, 7])));
        assert_eq!(state_entries(&state), 2);
        let mut miscounted = state.to_vec();
        miscounted[3] = 3;
        assert!(
            decode_state(&Bytes::from(miscounted)).is_none(),
            "the declared entry count must match"
        );
        for resp in [
            CtrlResp::Pong,
            CtrlResp::State(vec![Some(state.clone()), None, Some(Bytes::new())]),
            CtrlResp::State(vec![]),
            CtrlResp::Resumed,
        ] {
            let enc = encode_resp(&resp);
            let dec = decode_resp(&enc).unwrap();
            assert_eq!(format!("{resp:?}"), format!("{dec:?}"));
        }
        assert!(decode_req(&[]).is_none());
        assert!(decode_req(&[99]).is_none());
        assert!(
            decode_resp(&Bytes::from_static(&[RESP_STATE, 0, 0])).is_none(),
            "truncated"
        );
        assert!(
            decode_resp(&Bytes::from_static(&[RESP_STATE, 0, 0, 0, 1, 2])).is_none(),
            "a group is absent (0) or present (1)"
        );
    }

    #[test]
    fn decoded_state_entries_are_slices_of_the_frame() {
        let entry = |k: &str, v: &str| (Bytes::from(k.to_owned()), Bytes::from(v.to_owned()));
        let snapshot = StoreSnapshot {
            maps: vec![
                vec![entry("nat:flow:a", "1234"), entry("k", "v")],
                vec![],
                vec![entry("mon:packets", "\0\0\0\0\0\0\0\x07")],
            ],
            seqs: vec![4, 0, 1],
        };
        let frame = encode_resp(&CtrlResp::State(vec![
            None,
            Some(encode_state(&store(snapshot.clone()), &[4, 0, 1])),
        ]));
        let Some(CtrlResp::State(states)) = decode_resp(&frame) else {
            panic!("a state response decodes");
        };
        let Some((got, _)) = decode_state(states[1].as_ref().unwrap()) else {
            panic!("its group decodes");
        };
        assert_eq!(got, snapshot);
        let inside = frame.as_ptr_range();
        for (k, v) in got.maps.iter().flatten() {
            for field in [k, v] {
                let r = field.as_ptr_range();
                assert!(
                    inside.start <= r.start && r.end <= inside.end,
                    "{field:?} was copied out of the frame"
                );
            }
        }
    }

    #[test]
    fn oversized_state_headers_decode_to_none() {
        // 2^32 - 1 maps with no bytes behind them, then one map claiming
        // 2^32 - 1 entries, then a response of 2^32 - 1 groups: each must
        // fail without allocating for them.
        let decode = |b: &'static [u8]| decode_state(&Bytes::from_static(b));
        assert!(decode(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]).is_none());
        assert!(decode(&[0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff]).is_none());
        assert!(decode_resp(&Bytes::from_static(&[RESP_STATE, 0xff, 0xff, 0xff, 0xff])).is_none());
        assert!(decode_req(&[REQ_FETCH, 0xff, 0xff, 0xff, 0xff]).is_none());
    }

    proptest::proptest! {
        /// The recovery transfer's codec on hostile bytes: an encoded
        /// group state, and a `State` response carrying it, decode; every
        /// strict prefix of either and every padded copy decodes to `None`.
        #[test]
        fn every_strict_prefix_of_a_state_decodes_to_none(
            maps in pvec(pvec((pvec(any::<u8>(), 0..6), pvec(any::<u8>(), 0..6)), 0..4), 1..4),
            seqs in pvec(any::<u64>(), 4),
            max in pvec(any::<u64>(), 0..5),
        ) {
            let seqs = seqs[..maps.len()].to_vec();
            let maps = maps
                .into_iter()
                .map(|m| m.into_iter().map(|(k, v)| (Bytes::from(k), Bytes::from(v))).collect())
                .collect();
            let store = store(StoreSnapshot { maps, seqs });
            let state = encode_state(&store, &max);
            prop_assert_eq!(decode_state(&state), Some((store.snapshot(), max)));
            for cut in 0..state.len() {
                prop_assert!(decode_state(&state.slice(..cut)).is_none(), "prefix of {cut} bytes");
            }
            let mut padded = state.to_vec();
            padded.push(0);
            prop_assert!(decode_state(&Bytes::from(padded)).is_none(), "trailing byte");
            let enc = encode_resp(&CtrlResp::State(vec![Some(state), None]));
            prop_assert!(decode_resp(&enc).is_some());
            for cut in 0..enc.len() {
                prop_assert!(decode_resp(&enc.slice(..cut)).is_none(), "prefix of {cut} bytes");
            }
            let mut padded = enc.to_vec();
            padded.push(0);
            prop_assert!(decode_resp(&Bytes::from(padded)).is_none(), "trailing byte");
        }

        /// Every request and every fixed-size response decodes from exactly
        /// its own bytes: not from a strict prefix, and not with junk behind
        /// it (a `FetchState` followed by junk would pause the replica).
        #[test]
        fn every_request_and_short_response_rejects_prefixes_and_padding(
            mboxes in pvec(any::<u64>(), 0..4),
            pad in pvec(any::<u8>(), 1..9),
        ) {
            let mboxes = mboxes.into_iter().map(|m| m as usize).collect();
            let reqs = [CtrlReq::Ping, CtrlReq::FetchState { mboxes }, CtrlReq::Resume];
            for req in &reqs {
                let enc = encode_req(req);
                let dec = decode_req(&enc);
                prop_assert_eq!(format!("{dec:?}"), format!("{:?}", Some(req)));
                for cut in 0..enc.len() {
                    prop_assert!(decode_req(&enc[..cut]).is_none(), "{req:?}: prefix of {cut} bytes");
                }
                let padded = [enc.as_slice(), &pad].concat();
                prop_assert!(decode_req(&padded).is_none(), "{req:?}: trailing bytes");
            }
            for resp in [CtrlResp::Pong, CtrlResp::State(vec![None]), CtrlResp::Resumed] {
                let enc = encode_resp(&resp);
                prop_assert!(decode_resp(&enc).is_some());
                prop_assert!(decode_resp(&enc.slice(..0)).is_none());
                let padded = Bytes::from([enc.as_slice(), &pad].concat());
                prop_assert!(decode_resp(&padded).is_none(), "{resp:?}: trailing bytes");
            }
        }

        /// Arbitrary bytes, most of them behind a `State` tag, never panic
        /// or abort either decoder.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            tag in 0u8..6,
            rest in pvec(any::<u8>(), 0..64),
        ) {
            let mut bytes = vec![if tag < 4 { RESP_STATE } else { tag }];
            bytes.extend(rest);
            let _ = decode_req(&bytes);
            let _ = decode_state(&Bytes::copy_from_slice(&bytes[1..]));
            let _ = decode_resp(&Bytes::from(bytes));
        }
    }

    #[test]
    fn ctrl_pair_calls_roundtrip() {
        let (client, mut server) = ctrl_pair(Duration::ZERO);
        let h = std::thread::spawn(move || {
            server
                .serve_next(Duration::from_secs(1), |req| match req {
                    CtrlReq::FetchState { mboxes } => CtrlResp::State(
                        mboxes
                            .into_iter()
                            .map(|m| {
                                let snapshot = StoreSnapshot {
                                    maps: vec![vec![]],
                                    seqs: vec![m as u64],
                                };
                                (m != 0).then(|| encode_state(&store(snapshot), &[1]))
                            })
                            .collect(),
                    ),
                    _ => CtrlResp::Pong,
                })
                .unwrap()
        });
        let req = CtrlReq::FetchState { mboxes: vec![5, 0] };
        match client.call(req, Duration::from_secs(1)).unwrap() {
            CtrlResp::State(states) => {
                let (snapshot, max) = decode_state(states[0].as_ref().unwrap()).unwrap();
                assert_eq!(snapshot.seqs, vec![5]);
                assert_eq!(max, vec![1]);
                assert!(states[1].is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(h.join().unwrap());
    }
}

//! The tokio TCP/UDS transport backend.
//!
//! Each OS process hosts one [`SockNode`]: a listener plus a set of
//! connections, each carrying any number of logical streams multiplexed by
//! the unified frame codec's `stream` field ([`ftc_packet::frame`]). A
//! [`SockTransport`] built over the node opens the same
//! [`FrameTx`]/[`FrameRx`]/[`RpcCaller`]/[`RpcResponder`] surfaces as the
//! in-process backend, so a chain deploys as N processes with zero changes
//! above the transport layer.
//!
//! # Connection model
//!
//! * **One connection per peer pair.** The first stream opened toward a
//!   peer dials it; later streams share the cached connection. Each
//!   connection runs a reader task (decode frames, route to per-stream
//!   queues) and a writer task (drain a queue of pre-encoded frames).
//! * **Learned-source routing.** Listen-side endpoints (a reliable
//!   receiver's ACK/NACKs, an RPC responder's replies) do not dial; they
//!   answer on the connection that most recently delivered a frame for
//!   their stream. An ACK always follows a DATA frame and a response
//!   always follows a request, so the source is known by the time a reply
//!   is sent — even across a peer's reconnect.
//! * **Resets are loss.** A dead connection silently drops outbound frames
//!   (exactly like an impaired in-process link) while the send path
//!   redials with rate-limited backoff. The reliable layer's RTO/NACK
//!   machinery retransmits whatever the dead connection swallowed; nothing
//!   at the transport level resumes streams.
//! * **Dial retry/backoff.** Processes of a chain start in arbitrary
//!   order, so the initial (patient) dial retries with exponential backoff
//!   until the peer binds or the endpoint's `connect_timeout` budget is
//!   exhausted. Send-path (impatient) redials attempt at most one connect
//!   per 10 ms (`RETRY_BACKOFF`).
//!
//! RPC rides the same connections: requests carry a correlation id in the
//! frame `seq` field, a per-caller dispatcher task pairs responses with
//! pending calls, and because correlation is per-frame the channel is
//! fully pipelined — concurrent callers share one connection without
//! head-of-line blocking at the protocol level.
//!
//! # Deterministic checking
//!
//! The same backend runs unmodified under the vendored tokio's [det
//! mode](tokio::det): [`PeerAddr::Sim`] endpoints ride in-memory
//! `tokio::sim` streams, every blocking wait in this module branches to a
//! cooperative det-executor wait (`det::block_until` / [`tokio::det::IdleWait`]),
//! and time flows through [`crate::clock`] (virtual under det mode). That
//! is what lets `ftc_audit::async_check` drive *this* code — reconnect,
//! demux, RPC correlation — through seeded interleaving × fault schedules
//! and replay any failure from a `(plan, seed)` witness.

use crate::clock;
use crate::transport::{
    Disconnected, Endpoint, FrameRx, FrameTx, PeerAddr, RawLink, RpcCaller, RpcResponder, SockOpts,
    Wake,
};
use crate::{ReliableReceiver, ReliableSender};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use ftc_packet::frame::{self, kind, Frame, FrameDecoder};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use tokio::det;
use tokio::net::{OwnedReadHalf, OwnedWriteHalf, TcpListener, TcpStream, UnixListener, UnixStream};
use tokio::runtime::Runtime;
use tokio::sim;
use tokio::sync::mpsc;

/// First pause between patient dial attempts (doubled per retry, up to
/// [`MAX_BACKOFF`]), and the least time between impatient redials.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Cap on the patient dial's backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// One live connection: a queue into the writer task plus liveness state.
struct Conn {
    out: mpsc::Sender<BytesMut>,
    cancel: Option<tokio::net::CancelHandle>,
    alive: AtomicBool,
}

impl Conn {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Queue a pre-encoded frame; `false` if the connection is dead (the
    /// frame is dropped — loss semantics).
    fn send(&self, frame: BytesMut) -> bool {
        self.is_alive() && self.out.try_send(frame).is_ok()
    }

    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        if let Some(c) = &self.cancel {
            c.cancel();
        }
    }
}

/// Both halves of a stream's frame queue (MPMC so every handle clone of
/// either half stays live).
type StreamQueue = (Sender<Frame>, Receiver<Frame>);

/// Routes inbound frames to per-stream queues and remembers which
/// connection last delivered each stream (learned-source routing).
#[derive(Default)]
struct Router {
    queues: Mutex<HashMap<u16, StreamQueue>>,
    sources: Mutex<HashMap<u16, Weak<Conn>>>,
}

impl Router {
    fn queue_tx(&self, stream: u16) -> Sender<Frame> {
        self.queues
            .lock()
            .entry(stream)
            .or_insert_with(channel::unbounded)
            .0
            .clone()
    }

    fn queue_rx(&self, stream: u16) -> Receiver<Frame> {
        self.queues
            .lock()
            .entry(stream)
            .or_insert_with(channel::unbounded)
            .1
            .clone()
    }

    fn learn(&self, stream: u16, conn: &Arc<Conn>) {
        self.sources.lock().insert(stream, Arc::downgrade(conn));
    }

    fn source(&self, stream: u16) -> Option<Arc<Conn>> {
        self.sources
            .lock()
            .get(&stream)
            .and_then(Weak::upgrade)
            .filter(|c| c.is_alive())
    }
}

#[derive(Default)]
struct DialSlot {
    conn: Option<Arc<Conn>>,
    last_attempt: Option<Instant>,
}

struct Shared {
    rt: Runtime,
    local: PeerAddr,
    router: Router,
    dial: Mutex<HashMap<PeerAddr, DialSlot>>,
    /// Every connection ever adopted, for fault injection.
    conns: Mutex<Vec<Weak<Conn>>>,
}

impl Shared {
    /// Start reader + writer tasks for a freshly established connection.
    fn adopt(self: &Arc<Shared>, read: OwnedReadHalf, write: OwnedWriteHalf) -> Arc<Conn> {
        let (out_tx, out_rx) = mpsc::unbounded_channel::<BytesMut>();
        let conn = Arc::new(Conn {
            out: out_tx,
            cancel: read.cancel_handle().ok(),
            alive: AtomicBool::new(true),
        });
        self.conns.lock().push(Arc::downgrade(&conn));
        let _writer = self.rt.spawn(writer_task(write, out_rx, Arc::clone(&conn)));
        let _reader = self
            .rt
            .spawn(reader_task(read, Arc::clone(self), Arc::clone(&conn)));
        conn
    }

    fn connect_once(&self, addr: &PeerAddr) -> io::Result<(OwnedReadHalf, OwnedWriteHalf)> {
        match addr {
            PeerAddr::Tcp(a) => {
                let s = std::net::TcpStream::connect(a)?;
                let s = TcpStream::from_std(s)?;
                let _ = s.set_nodelay(true);
                Ok(s.into_split())
            }
            PeerAddr::Uds(p) => {
                let s = std::os::unix::net::UnixStream::connect(p)?;
                Ok(UnixStream::from_std(s)?.into_split())
            }
            PeerAddr::Sim(name) => Ok(sim::connect(name)?.into_split()),
        }
    }

    /// Return a live connection to `addr`, dialing if necessary.
    ///
    /// `patient` dials retry with exponential backoff up to the endpoint's
    /// `connect_timeout` (used at wiring time, when peers may not have
    /// bound yet); impatient dials (the send path, after a reset) attempt
    /// at most one connect per `RETRY_BACKOFF` interval so a dead peer
    /// costs one cheap failed `connect` instead of a stall.
    fn dial(
        self: &Arc<Shared>,
        addr: &PeerAddr,
        opts: &SockOpts,
        patient: bool,
    ) -> Option<Arc<Conn>> {
        {
            let mut cache = self.dial.lock();
            let slot = cache.entry(addr.clone()).or_default();
            if let Some(conn) = &slot.conn {
                if conn.is_alive() {
                    return Some(Arc::clone(conn));
                }
            }
            if !patient {
                if let Some(t) = slot.last_attempt {
                    if clock::since(t) < RETRY_BACKOFF {
                        return None;
                    }
                }
            }
            slot.last_attempt = Some(clock::now());
        }
        // Connect without holding the cache lock; a concurrent dial to the
        // same peer may race us, in which case the last connection stored
        // wins and the loser is torn down by its peer's idle close — the
        // reliable layer tolerates either.
        let deadline = clock::now() + opts.connect_timeout;
        let mut backoff = RETRY_BACKOFF;
        loop {
            match self.connect_once(addr) {
                Ok((read, write)) => {
                    let conn = self.adopt(read, write);
                    // Preamble so packet captures identify the dialer.
                    let hello = frame::encode(kind::HELLO, 0, 0, self.local.to_string().as_bytes());
                    conn.send(hello);
                    let mut cache = self.dial.lock();
                    let slot = cache.entry(addr.clone()).or_default();
                    slot.conn = Some(Arc::clone(&conn));
                    slot.last_attempt = Some(clock::now());
                    return Some(conn);
                }
                Err(_) if patient && clock::now() + backoff < deadline => {
                    clock::block_sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                Err(_) => return None,
            }
        }
    }
}

async fn writer_task(mut write: OwnedWriteHalf, mut rx: mpsc::Receiver<BytesMut>, conn: Arc<Conn>) {
    while let Some(buf) = rx.recv().await {
        if write.write_all(buf.as_ref()).await.is_err() {
            conn.kill();
            break;
        }
    }
    let _ = write.shutdown().await;
}

async fn reader_task(mut read: OwnedReadHalf, shared: Arc<Shared>, conn: Arc<Conn>) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    // Per-connection caches so the router's locks are taken once per
    // stream, not once per frame.
    let mut queue_cache: HashMap<u16, Sender<Frame>> = HashMap::new();
    let mut learned: HashSet<u16> = HashSet::new();
    'conn: loop {
        let n = match read.read(&mut buf).await {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        dec.extend(&buf[..n]);
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => {
                    if f.kind == kind::HELLO {
                        continue;
                    }
                    if learned.insert(f.stream) {
                        shared.router.learn(f.stream, &conn);
                    }
                    let tx = queue_cache
                        .entry(f.stream)
                        .or_insert_with(|| shared.router.queue_tx(f.stream));
                    let _ = tx.send(f);
                    // Crossbeam queues are invisible to the det executor's
                    // progress tracking; a parked dispatcher task must be
                    // woken to see this frame. No-op outside det mode.
                    det::note_progress();
                }
                Ok(None) => break,
                // Corrupt stream: tear the connection down; the reliable
                // layer retransmits over a fresh one.
                Err(_) => break 'conn,
            }
        }
    }
    conn.kill();
}

/// A process-local socket hub: one listener plus the connections (dialed
/// and accepted) that this process's streams ride. Cheap to clone.
#[derive(Clone)]
pub struct SockNode {
    shared: Arc<Shared>,
}

impl SockNode {
    /// Bind a listener at `addr` and start accepting. For UDS a stale
    /// socket file from a previous run is removed first. For TCP, port 0
    /// binds an ephemeral port — read it back with [`local_addr`].
    ///
    /// [`local_addr`]: SockNode::local_addr
    pub fn bind(addr: &PeerAddr) -> io::Result<SockNode> {
        let rt = tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()?;
        enum Listener {
            Tcp(TcpListener),
            Uds(UnixListener),
            Sim(sim::SimListener),
        }
        let (listener, local) = match addr {
            PeerAddr::Tcp(a) => {
                let l = TcpListener::from_std(std::net::TcpListener::bind(a)?)?;
                let local = PeerAddr::Tcp(l.local_addr()?);
                (Listener::Tcp(l), local)
            }
            PeerAddr::Uds(p) => {
                let _ = std::fs::remove_file(p);
                let l = UnixListener::from_std(std::os::unix::net::UnixListener::bind(p)?)?;
                (Listener::Uds(l), addr.clone())
            }
            PeerAddr::Sim(name) => (Listener::Sim(sim::SimListener::bind(name)?), addr.clone()),
        };
        let shared = Arc::new(Shared {
            rt,
            local,
            router: Router::default(),
            dial: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let _accept = shared.rt.spawn(async move {
            loop {
                let halves = match &listener {
                    Listener::Tcp(l) => match l.accept().await {
                        Ok((s, _)) => {
                            let _ = s.set_nodelay(true);
                            s.into_split()
                        }
                        Err(_) => break,
                    },
                    Listener::Uds(l) => match l.accept().await {
                        Ok((s, _)) => s.into_split(),
                        Err(_) => break,
                    },
                    Listener::Sim(l) => match l.accept().await {
                        Ok((s, _)) => s.into_split(),
                        Err(_) => break,
                    },
                };
                accept_shared.adopt(halves.0, halves.1);
            }
        });
        Ok(SockNode { shared })
    }

    /// The bound listener address (resolves TCP port 0).
    pub fn local_addr(&self) -> &PeerAddr {
        &self.shared.local
    }

    /// Fault injection: hard-kill every connection (dialed and accepted),
    /// as if the network reset them. Streams recover via redial + the
    /// reliable layer's retransmission.
    pub fn kill_connections(&self) {
        for conn in self.shared.conns.lock().iter().filter_map(Weak::upgrade) {
            conn.kill();
        }
    }

    /// Drops every frame currently queued for `stream`, returning how many
    /// were discarded. Used when a fresh reliable endpoint is installed
    /// over an existing stream after a peer respawn: frames from the dead
    /// peer's epoch (stale data, acknowledgments for a retired sequence
    /// space) must not leak into the new endpoint's sequence space.
    pub fn drain_stream(&self, stream: u16) -> usize {
        let rx = self.shared.router.queue_rx(stream);
        let mut n = 0;
        while rx.try_recv().is_ok() {
            n += 1;
        }
        n
    }
}

/// A raw frame link riding a [`SockNode`]: outbound frames go to the dialed
/// peer (or the learned source when `peer` is `None`), inbound frames pop
/// from the node's per-stream queue.
pub struct SockRawLink {
    shared: Arc<Shared>,
    peer: Option<(PeerAddr, SockOpts)>,
    stream: u16,
    rxq: Receiver<Frame>,
}

impl SockRawLink {
    fn new(node: &SockNode, peer: Option<(PeerAddr, SockOpts)>, stream: u16) -> SockRawLink {
        let rxq = node.shared.router.queue_rx(stream);
        SockRawLink {
            shared: Arc::clone(&node.shared),
            peer,
            stream,
            rxq,
        }
    }

    fn conn_for_send(&self) -> Option<Arc<Conn>> {
        match &self.peer {
            Some((addr, opts)) => self.shared.dial(addr, opts, false),
            None => self.shared.router.source(self.stream),
        }
    }
}

impl RawLink for SockRawLink {
    fn send_frame(&mut self, fkind: u8, seq: u64, payload: &[u8]) -> Result<(), Disconnected> {
        let buf = frame::encode(fkind, self.stream, seq, payload);
        if let Some(conn) = self.conn_for_send() {
            conn.send(buf);
        }
        // No connection = loss; the reliable layer retransmits.
        Ok(())
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Frame>, Disconnected> {
        if timeout.is_zero() {
            return match self.rxq.try_recv() {
                Ok(f) => Ok(Some(f)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(Disconnected),
            };
        }
        if det::active() {
            // Cooperative wait: run det-executor steps (reader/writer
            // tasks, virtual time) until a frame lands or the virtual
            // timeout passes. Never blocks the executor thread.
            let rxq = &self.rxq;
            return match det::block_until(Some(timeout), || match rxq.try_recv() {
                Ok(f) => Some(Ok(f)),
                Err(TryRecvError::Disconnected) => Some(Err(Disconnected)),
                Err(TryRecvError::Empty) => None,
            }) {
                Some(Ok(f)) => Ok(Some(f)),
                Some(Err(d)) => Err(d),
                None => Ok(None),
            };
        }
        match self.rxq.recv_timeout(timeout) {
            Ok(f) => Ok(Some(f)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn waker(&self) -> Wake {
        // Outside det mode; a det-mode receive is a cooperative loop over
        // `try_recv`, which no other thread can be blocked behind.
        let rxq = self.rxq.clone();
        Box::new(move || rxq.interrupt())
    }

    fn stream(&self) -> u16 {
        self.stream
    }
}

struct RpcState {
    pending: Mutex<HashMap<u64, Sender<Bytes>>>,
    next_id: AtomicU64,
}

/// RPC client over a [`SockNode`]: correlation ids in the frame `seq`
/// field, a shared dispatcher task pairing responses to pending calls, so
/// concurrent callers pipeline over one connection.
pub struct SockRpcCaller {
    shared: Arc<Shared>,
    peer: (PeerAddr, SockOpts),
    stream: u16,
    state: Arc<RpcState>,
}

impl SockRpcCaller {
    fn new(node: &SockNode, peer: (PeerAddr, SockOpts), stream: u16) -> SockRpcCaller {
        let state = Arc::new(RpcState {
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        });
        let rxq = node.shared.router.queue_rx(stream);
        let weak = Arc::downgrade(&state);
        let _dispatch = node.shared.rt.spawn(async move {
            loop {
                // Exit once every caller clone is gone.
                let Some(state) = weak.upgrade() else { break };
                drop(state);
                let f = if det::active() {
                    // Det mode: an async task must not block in poll, so
                    // try_recv and park on activity-or-timer instead of
                    // the condvar-backed recv_timeout.
                    match rxq.try_recv() {
                        Ok(f) => f,
                        Err(TryRecvError::Empty) => {
                            det::idle_wait(Duration::from_millis(100)).await;
                            continue;
                        }
                        Err(TryRecvError::Disconnected) => break,
                    }
                } else {
                    // The non-det runtime is thread-per-task — this poll
                    // owns its thread and a bounded condvar wait is the
                    // cheapest wakeup; det mode takes the branch above.
                    // async-ok: blocking is the non-det execution model
                    match rxq.recv_timeout(Duration::from_millis(100)) {
                        Ok(f) => f,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                };
                if f.kind == kind::RPC_RESP {
                    if let Some(state) = weak.upgrade() {
                        if let Some(tx) = state.pending.lock().remove(&f.seq) {
                            let _ = tx.send(f.payload);
                            det::note_progress();
                        }
                    }
                }
            }
        });
        SockRpcCaller {
            shared: Arc::clone(&node.shared),
            peer,
            stream,
            state,
        }
    }
}

impl SockRpcCaller {
    /// Build a concrete caller over `node` toward `peer` (a socket
    /// endpoint), dispatcher task started. [`SockTransport::rpc_caller`] is the
    /// trait-object path; this constructor additionally exposes
    /// [`SockRpcCaller::call_start`] for pipelined calls driven from one
    /// thread (the async-transport checker's T2 property needs that).
    pub fn connect(node: &SockNode, peer: &Endpoint, stream: u16) -> SockRpcCaller {
        let parts = SockTransport::peer_parts(peer);
        let _ = node.shared.dial(&parts.0, &parts.1, true);
        SockRpcCaller::new(node, parts, stream)
    }

    /// Start a call without blocking: register the correlation id, encode
    /// the request, and attempt a first send. Drive the returned handle
    /// with [`PendingCall::try_complete`] — this is how concurrent calls
    /// pipeline over one connection from a single driver thread (the
    /// async-transport checker exercises exactly this path).
    pub fn call_start(&self, req: Bytes, timeout: Duration) -> PendingCall {
        let id = self.state.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.state.pending.lock().insert(id, tx);
        let wire = frame::encode(kind::RPC_REQ, self.stream, id, &req);
        let mut call = PendingCall {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
            peer: self.peer.clone(),
            id,
            rx,
            wire,
            sent: false,
            deadline: clock::now() + timeout,
        };
        call.try_send();
        call
    }
}

/// An in-flight pipelined RPC call started by [`SockRpcCaller::call_start`].
/// Resolves at most once; drop it to abandon the call (the correlation-id
/// entry is cleaned up either way).
pub struct PendingCall {
    shared: Arc<Shared>,
    state: Arc<RpcState>,
    peer: (PeerAddr, SockOpts),
    id: u64,
    rx: Receiver<Bytes>,
    wire: BytesMut,
    sent: bool,
    deadline: Instant,
}

impl PendingCall {
    /// The correlation id carried in the request frame's `seq` field.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Hand the request to a live connection if that has not succeeded
    /// yet. Redials impatiently (rate-limited by `RETRY_BACKOFF`), so a
    /// reset before the send costs a redial, not an
    /// error.
    fn try_send(&mut self) -> bool {
        if self.sent {
            return true;
        }
        self.sent = self
            .shared
            .dial(&self.peer.0, &self.peer.1, false)
            .map(|conn| conn.send(self.wire.clone()))
            .unwrap_or(false);
        self.sent
    }

    /// Non-blocking progress check: retries the send while unsent, then
    /// looks for the correlated response. `None` = still pending;
    /// `Some(Err(Timeout))` once the call budget is exhausted.
    pub fn try_complete(&mut self) -> Option<Result<Bytes, crate::rpc::RpcError>> {
        self.try_send();
        match self.rx.try_recv() {
            Ok(resp) => Some(Ok(resp)),
            Err(TryRecvError::Empty) if clock::now() < self.deadline => None,
            Err(_) => {
                self.state.pending.lock().remove(&self.id);
                Some(Err(crate::rpc::RpcError::Timeout))
            }
        }
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        self.state.pending.lock().remove(&self.id);
    }
}

impl RpcCaller for SockRpcCaller {
    fn call_bytes(&self, req: Bytes, timeout: Duration) -> Result<Bytes, crate::rpc::RpcError> {
        let mut call = self.call_start(req, timeout);
        if det::active() {
            // Cooperative wait: det-executor steps run the dispatcher,
            // reader, and writer tasks while this call resolves.
            return det::block_until(Some(timeout), || call.try_complete())
                .unwrap_or(Err(crate::rpc::RpcError::Timeout));
        }
        // Keep trying to hand the request to a live connection until the
        // call budget runs out — a reset mid-call costs a redial, not an
        // error, as long as the peer comes back in time.
        while !call.sent {
            if Instant::now() + Duration::from_millis(5) >= call.deadline {
                return Err(crate::rpc::RpcError::Timeout);
            }
            clock::block_sleep(Duration::from_millis(5));
            call.try_send();
        }
        match call.rx.recv_deadline(call.deadline) {
            Ok(resp) => Ok(resp),
            Err(_) => Err(crate::rpc::RpcError::Timeout),
        }
    }

    fn with_delay(&self, _one_way: Duration) -> Box<dyn RpcCaller> {
        // Socket delays are real; simulated extra delay is an in-process
        // backend concept.
        self.clone_caller()
    }

    fn clone_caller(&self) -> Box<dyn RpcCaller> {
        Box::new(SockRpcCaller {
            shared: Arc::clone(&self.shared),
            peer: self.peer.clone(),
            stream: self.stream,
            state: Arc::clone(&self.state),
        })
    }
}

/// RPC responder over a [`SockNode`]: pops requests from the stream queue
/// and replies on the connection that delivered them.
pub struct SockRpcResponder {
    shared: Arc<Shared>,
    stream: u16,
    rxq: Receiver<Frame>,
}

impl RpcResponder for SockRpcResponder {
    fn serve_next_bytes(
        &mut self,
        timeout: Duration,
        handler: &mut dyn FnMut(Bytes) -> Bytes,
    ) -> Result<bool, crate::rpc::RpcError> {
        let deadline = clock::now().checked_add(timeout);
        let budget =
            || deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(clock::now()));
        loop {
            let next = if det::active() {
                // Cooperative pop: step the det executor until a frame for
                // this stream arrives or the (virtual) budget runs out.
                let rxq = &self.rxq;
                let budget = budget();
                match det::block_until(Some(budget), || match rxq.try_recv() {
                    Ok(f) => Some(Ok(f)),
                    Err(TryRecvError::Disconnected) => Some(Err(())),
                    Err(TryRecvError::Empty) => None,
                }) {
                    Some(Ok(f)) => Ok(f),
                    Some(Err(())) => Err(RecvTimeoutError::Disconnected),
                    None => Err(RecvTimeoutError::Timeout),
                }
            } else {
                self.rxq.recv_timeout(budget())
            };
            match next {
                Ok(f) if f.kind == kind::RPC_REQ => {
                    let resp = handler(f.payload);
                    if let Some(conn) = self.shared.router.source(self.stream) {
                        conn.send(frame::encode(kind::RPC_RESP, self.stream, f.seq, &resp));
                    }
                    return Ok(true);
                }
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => return Ok(false),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(crate::rpc::RpcError::Disconnected)
                }
            }
        }
    }
    fn waker(&self) -> Wake {
        let rxq = self.rxq.clone();
        Box::new(move || rxq.interrupt())
    }
}

/// The socket backend's wiring: opens frame links and RPC channels over a
/// process's [`SockNode`]. `peer` endpoints must be socket endpoints; the
/// node's listener is the local side of `open_rx`/`rpc_responder`.
pub struct SockTransport {
    node: SockNode,
}

impl SockTransport {
    /// Build a transport over a bound node.
    pub fn new(node: SockNode) -> SockTransport {
        SockTransport { node }
    }

    /// The underlying node (e.g. for fault injection in tests).
    pub fn node(&self) -> &SockNode {
        &self.node
    }

    fn peer_parts(peer: &Endpoint) -> (PeerAddr, SockOpts) {
        let opts = peer.sock_opts();
        (opts.addr.clone(), opts.clone())
    }

    /// Opens the sending half of reliable stream `stream` toward `peer`.
    pub fn open_tx(&self, peer: &Endpoint, stream: u16) -> Box<dyn FrameTx> {
        let parts = Self::peer_parts(peer);
        // Patient dial at wiring time: wait out peers that have not bound
        // yet. A failure here is not fatal — the send path keeps redialing.
        let _ = self.node.shared.dial(&parts.0, &parts.1, true);
        Box::new(ReliableSender::over(Box::new(SockRawLink::new(
            &self.node,
            Some(parts),
            stream,
        ))))
    }

    /// Opens the receiving half of reliable stream `stream`.
    pub fn open_rx(&self, stream: u16) -> Box<dyn FrameRx> {
        Box::new(ReliableReceiver::over(Box::new(SockRawLink::new(
            &self.node, None, stream,
        ))))
    }

    /// Opens an RPC client toward `peer`, correlated on `stream`.
    pub fn rpc_caller(&self, peer: &Endpoint, stream: u16) -> Box<dyn RpcCaller> {
        let parts = Self::peer_parts(peer);
        let _ = self.node.shared.dial(&parts.0, &parts.1, true);
        Box::new(SockRpcCaller::new(&self.node, parts, stream))
    }

    /// Opens the RPC responder for `stream`.
    pub fn rpc_responder(&self, stream: u16) -> Box<dyn RpcResponder> {
        Box::new(SockRpcResponder {
            shared: Arc::clone(&self.node.shared),
            stream,
            rxq: self.node.shared.router.queue_rx(stream),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uds_pair(tag: &str) -> (PeerAddr, PeerAddr) {
        let dir = std::env::temp_dir().join(format!("ftc-sock-test-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        (
            PeerAddr::Uds(dir.join("a.sock")),
            PeerAddr::Uds(dir.join("b.sock")),
        )
    }

    #[test]
    fn reliable_stream_over_uds() {
        let (addr_a, addr_b) = uds_pair("stream");
        let a = SockNode::bind(&addr_a).expect("bind a");
        let b = SockNode::bind(&addr_b).expect("bind b");
        let ta = SockTransport::new(a);
        let tb = SockTransport::new(b);
        let peer = Endpoint::sock(addr_b.clone());
        let mut tx = ta.open_tx(&peer, 7);
        let mut rx = tb.open_rx(7);
        for i in 0..200u32 {
            tx.send(BytesMut::from(&i.to_be_bytes()[..])).expect("send");
        }
        for i in 0..200u32 {
            let mut got = None;
            let deadline = Instant::now() + Duration::from_secs(5);
            while got.is_none() && Instant::now() < deadline {
                tx.poll().expect("poll");
                got = rx.recv_timeout(Duration::from_millis(20)).expect("recv");
            }
            let p = got.expect("delivered in time");
            assert_eq!(u32::from_be_bytes(p.as_ref().try_into().expect("4b")), i);
        }
    }

    #[test]
    fn rpc_over_tcp_pipelines_and_correlates() {
        let any = PeerAddr::Tcp("127.0.0.1:0".parse().expect("addr"));
        let a = SockNode::bind(&any).expect("bind a");
        let b = SockNode::bind(&any).expect("bind b");
        let b_addr = b.local_addr().clone();
        let ta = SockTransport::new(a);
        let tb = SockTransport::new(b);
        let caller = ta.rpc_caller(&Endpoint::sock(b_addr.clone()), 100);
        let mut responder = tb.rpc_responder(100);
        let server = std::thread::spawn(move || {
            let mut served = 0;
            while served < 8 {
                let ok = responder
                    .serve_next_bytes(Duration::from_secs(5), &mut |req| {
                        let mut out = BytesMut::from(req.as_slice());
                        out.extend_from_slice(b"-pong");
                        out.freeze()
                    })
                    .expect("serve");
                if ok {
                    served += 1;
                }
            }
        });
        let mut clients = Vec::new();
        for i in 0..8 {
            let c = caller.clone_caller();
            clients.push(std::thread::spawn(move || {
                let req = Bytes::copy_from_slice(format!("ping{i}").as_bytes());
                let resp = c.call_bytes(req, Duration::from_secs(5)).expect("call");
                assert_eq!(resp.as_slice(), format!("ping{i}-pong").as_bytes());
            }));
        }
        for c in clients {
            c.join().expect("client");
        }
        server.join().expect("server");
    }

    #[test]
    fn reset_recovers_via_redial_and_retransmit() {
        let (addr_a, addr_b) = uds_pair("reset");
        let a = SockNode::bind(&addr_a).expect("bind a");
        let b = SockNode::bind(&addr_b).expect("bind b");
        let ta = SockTransport::new(a);
        let tb = SockTransport::new(b);
        let mut tx = ta.open_tx(&Endpoint::sock(addr_b.clone()), 3);
        let mut rx = tb.open_rx(3);
        let n = 300u32;
        let mut got = Vec::new();
        for i in 0..n {
            tx.send(BytesMut::from(&i.to_be_bytes()[..])).expect("send");
            if i == 100 {
                // Hard-reset every connection mid-stream, both sides.
                ta.node().kill_connections();
                tb.node().kill_connections();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while got.len() < n as usize {
            assert!(
                Instant::now() < deadline,
                "no convergence after reset: {} of {n}",
                got.len()
            );
            tx.poll().expect("poll");
            while let Some(p) = rx.recv_timeout(Duration::from_millis(10)).expect("recv") {
                got.push(u32::from_be_bytes(p.as_ref().try_into().expect("4b")));
            }
        }
        let expect: Vec<u32> = (0..n).collect();
        assert_eq!(got, expect, "gapless in-order delivery across resets");
    }
}

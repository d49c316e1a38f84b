//! Backend-agnostic transport abstraction.
//!
//! Everything above this module speaks three small trait surfaces —
//! [`FrameTx`]/[`FrameRx`] for the reliable sequenced frame links the paper
//! assumes between servers, [`RpcCaller`]/[`RpcResponder`] for control-plane
//! request/response, and [`Transport`] as the node-local factory that wires
//! both — plus the [`Endpoint`]/[`PeerAddr`] naming scheme that describes
//! *where* a link terminates and *how* it behaves.
//!
//! Two backends implement the surfaces:
//!
//! * **In-process** ([`InProcTransport`], [`crate::reliable_pair`]): crossbeam
//!   channels with seeded, deterministic impairments. This is the backend the
//!   protocol model checker and the audit harness run on — determinism is a
//!   contract, not an accident: impairments are driven by a per-link seeded
//!   RNG and no wall-clock-dependent scheduling decision affects *which*
//!   bytes flow, only when.
//! * **Socket** ([`crate::sock`]): tokio TCP/UDS connections with
//!   length-prefixed framing, one multiplexed connection per peer pair, and
//!   connection-level retry/backoff, so a chain deploys as N OS processes.
//!
//! Both backends put the exact same bytes on the wire — frames from the
//! unified codec in [`ftc_packet::frame`] — which is pinned by a proptest
//! asserting frame-level byte identity.

use crate::link::{self, LinkConfig};
use crate::rpc::RpcError;
use bytes::{Bytes, BytesMut};
use ftc_packet::frame::{self, Frame};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Ends a blocked receive early (see [`FrameRx::waker`]); also what a
/// server runs when it is killed ([`crate::AliveToken::on_kill`]).
pub type Wake = Box<dyn Fn() + Send + Sync>;

/// Error returned when the peer of a link has gone away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl core::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "link peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Logical node identity within a deployment plan.
pub type NodeId = u16;

/// Address of a peer for socket backends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PeerAddr {
    /// TCP socket address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
    /// In-memory simulated socket (det-mode model checking only): a name
    /// in the thread-local `tokio::sim` registry. Dials resolve within the
    /// same thread, which is exactly what the deterministic explorer needs.
    Sim(String),
}

impl PeerAddr {
    /// Parses `"uds:<path>"`, `"tcp:<ip>:<port>"`, a bare `<ip>:<port>`,
    /// a bare filesystem path (containing `/`), or `"sim:<name>"`.
    pub fn parse(s: &str) -> Result<PeerAddr, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            return Ok(PeerAddr::Uds(PathBuf::from(path)));
        }
        if let Some(name) = s.strip_prefix("sim:") {
            return Ok(PeerAddr::Sim(name.to_string()));
        }
        let bare = s.strip_prefix("tcp:").unwrap_or(s);
        if let Ok(addr) = bare.parse::<SocketAddr>() {
            return Ok(PeerAddr::Tcp(addr));
        }
        if s.contains('/') {
            return Ok(PeerAddr::Uds(PathBuf::from(s)));
        }
        Err(format!(
            "cannot parse peer address {s:?}: expected uds:<path> or <ip>:<port>"
        ))
    }
}

impl core::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PeerAddr::Tcp(a) => write!(f, "tcp:{a}"),
            PeerAddr::Uds(p) => write!(f, "uds:{}", p.display()),
            PeerAddr::Sim(n) => write!(f, "sim:{n}"),
        }
    }
}

/// Socket-backend endpoint options: peer address plus timeouts.
#[derive(Debug, Clone)]
pub struct SockOpts {
    /// Where the peer (or the local listener) lives.
    pub addr: PeerAddr,
    /// Total budget for the initial dial, including retries. Nodes of a
    /// multi-process chain start in arbitrary order, so dialing retries
    /// with backoff until the peer binds or this budget is exhausted.
    pub connect_timeout: Duration,
    /// Initial pause between dial attempts (doubled per retry).
    pub retry_backoff: Duration,
    /// Cap on the dial backoff.
    pub max_backoff: Duration,
}

#[derive(Debug, Clone)]
enum Kind {
    InProc(LinkConfig),
    Sock(SockOpts),
}

/// Per-backend link/endpoint configuration — the one way to configure a
/// link.
///
/// An endpoint is either **in-process** (latency/jitter/loss/reorder/
/// bandwidth/seed knobs, applied by the deterministic channel backend) or
/// **socket** (peer address plus dial timeouts, served by the tokio
/// TCP/UDS backend). Builder methods panic when applied to the wrong
/// backend, so a mis-configured deployment fails loudly at wiring time
/// rather than silently ignoring a knob.
#[derive(Debug, Clone)]
pub struct Endpoint {
    kind: Kind,
}

impl Default for Endpoint {
    fn default() -> Self {
        Endpoint::in_proc()
    }
}

impl Endpoint {
    // ---- constructors -----------------------------------------------------

    /// An ideal in-process link: zero latency, no impairments.
    pub fn in_proc() -> Endpoint {
        Endpoint {
            kind: Kind::InProc(LinkConfig::ideal()),
        }
    }

    /// A lossy, reordering in-process link for stress tests.
    pub fn lossy(loss: f64, reorder: f64, seed: u64) -> Endpoint {
        Endpoint {
            kind: Kind::InProc(LinkConfig::lossy(loss, reorder, seed)),
        }
    }

    /// An in-process WAN link with the given round-trip time.
    pub fn wan(rtt: Duration) -> Endpoint {
        Endpoint {
            kind: Kind::InProc(LinkConfig::wan(rtt)),
        }
    }

    /// A socket endpoint at `addr` with default timeouts.
    pub fn sock(addr: PeerAddr) -> Endpoint {
        Endpoint {
            kind: Kind::Sock(SockOpts {
                addr,
                connect_timeout: Duration::from_secs(10),
                retry_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
            }),
        }
    }

    // ---- in-process knobs -------------------------------------------------

    fn link_mut(&mut self, knob: &str) -> &mut LinkConfig {
        match &mut self.kind {
            Kind::InProc(cfg) => cfg,
            Kind::Sock(_) => {
                panic!("{knob} is an in-process link knob, not valid for a socket endpoint")
            }
        }
    }

    /// Sets the fixed one-way propagation delay (in-process backend).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.link_mut("latency").latency = latency;
        self
    }

    /// Sets the uniform random extra delay bound (in-process backend).
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.link_mut("jitter").jitter = jitter;
        self
    }

    /// Sets the frame-loss probability (in-process backend).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.link_mut("loss").loss = loss;
        self
    }

    /// Sets the reordering probability (in-process backend).
    pub fn with_reorder(mut self, reorder: f64) -> Self {
        self.link_mut("reorder").reorder = reorder;
        self
    }

    /// Sets the link bandwidth in bits/s, `None` = infinitely fast
    /// (in-process backend).
    pub fn with_bandwidth(mut self, bps: Option<u64>) -> Self {
        self.link_mut("bandwidth").bandwidth_bps = bps;
        self
    }

    /// Sets the impairment RNG seed (in-process backend).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.link_mut("seed").seed = seed;
        self
    }

    // ---- socket knobs -----------------------------------------------------

    fn sock_mut(&mut self, knob: &str) -> &mut SockOpts {
        match &mut self.kind {
            Kind::Sock(opts) => opts,
            Kind::InProc(_) => {
                panic!("{knob} is a socket knob, not valid for an in-process endpoint")
            }
        }
    }

    /// Sets the total initial-dial budget, retries included (socket backend).
    pub fn with_connect_timeout(mut self, t: Duration) -> Self {
        self.sock_mut("connect_timeout").connect_timeout = t;
        self
    }

    /// Sets the initial dial retry backoff (socket backend).
    pub fn with_retry_backoff(mut self, t: Duration) -> Self {
        self.sock_mut("retry_backoff").retry_backoff = t;
        self
    }

    /// Sets the dial backoff cap (socket backend).
    pub fn with_max_backoff(mut self, t: Duration) -> Self {
        self.sock_mut("max_backoff").max_backoff = t;
        self
    }

    // ---- accessors --------------------------------------------------------

    /// True for socket endpoints.
    pub fn is_sock(&self) -> bool {
        matches!(self.kind, Kind::Sock(_))
    }

    /// One-way propagation delay (in-process; panics on socket endpoints).
    pub fn latency(&self) -> Duration {
        self.link_cfg().latency
    }

    /// Frame-loss probability (in-process; panics on socket endpoints).
    pub fn loss(&self) -> f64 {
        self.link_cfg().loss
    }

    /// Impairment RNG seed (in-process; panics on socket endpoints).
    pub fn seed(&self) -> u64 {
        self.link_cfg().seed
    }

    /// Peer address (socket; panics on in-process endpoints).
    pub fn addr(&self) -> &PeerAddr {
        &self.sock_opts().addr
    }

    pub(crate) fn link_cfg(&self) -> &LinkConfig {
        match &self.kind {
            Kind::InProc(cfg) => cfg,
            Kind::Sock(_) => panic!("socket endpoint has no in-process link config"),
        }
    }

    /// Socket options (panics on in-process endpoints).
    pub fn sock_opts(&self) -> &SockOpts {
        match &self.kind {
            Kind::Sock(opts) => opts,
            Kind::InProc(_) => panic!("in-process endpoint has no socket options"),
        }
    }
}

/// A raw duplex frame channel: unreliable, unsequenced, possibly lossy —
/// what the [`crate::reliable`] layer runs over.
///
/// Implementations encode/decode the unified [`ftc_packet::frame`] codec,
/// so the bytes on the wire are identical whichever backend carries them.
/// A send into a dead backend may report success (frames silently vanish,
/// like loss); the reliable layer's RTO recovers once the backend heals,
/// which is how socket resets are survived.
pub trait RawLink: Send {
    /// Sends one frame (`kind`, `seq`, payload) on this link's stream.
    fn send_frame(&mut self, kind: u8, seq: u64, payload: &[u8]) -> Result<(), Disconnected>;

    /// Receives the next frame, waiting up to `timeout` (`Duration::MAX`:
    /// no deadline).
    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Frame>, Disconnected>;

    /// See [`FrameRx::waker`]: ends the current or next `recv_frame`.
    fn waker(&self) -> Wake;

    /// Non-blocking receive.
    fn try_recv_frame(&mut self) -> Result<Option<Frame>, Disconnected> {
        self.recv_frame(Duration::ZERO)
    }

    /// The stream id this link's frames are tagged with.
    fn stream(&self) -> u16;
}

/// Sending half of a reliable, sequenced frame link (what an
/// [`OutPort`](https://docs.rs/) slot holds). Implemented by
/// [`crate::reliable::ReliableSender`] over any [`RawLink`].
pub trait FrameTx: Send {
    /// Sends a payload with the next sequence number.
    fn send(&mut self, payload: BytesMut) -> Result<(), Disconnected>;

    /// Drives retransmission/ACK processing; call again by
    /// [`FrameTx::deadline`].
    fn poll(&mut self) -> Result<(), Disconnected>;

    /// When [`FrameTx::poll`] next has work (a retransmission timeout, a
    /// resend timer), or `None` while it has none: the only timer a thread
    /// that polls this sender needs to wake for.
    fn deadline(&self) -> Option<Instant>;

    /// Frames sent but not yet acknowledged.
    fn in_flight(&self) -> usize;
}

/// Receiving half of a reliable, sequenced frame link. Implemented by
/// [`crate::reliable::ReliableReceiver`] over any [`RawLink`].
pub trait FrameRx: Send {
    /// Receives the next in-order payload, waiting up to `timeout`
    /// (`Duration::MAX`: no deadline).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected>;

    /// A handle that ends this receiver's current blocking receive early,
    /// as `Ok(None)`, or its next one if none is blocked. Other threads
    /// hold it: the receiver itself is owned by the blocked reader.
    fn waker(&self) -> Wake;
}

impl FrameTx for Box<dyn FrameTx> {
    fn send(&mut self, payload: BytesMut) -> Result<(), Disconnected> {
        (**self).send(payload)
    }

    fn poll(&mut self) -> Result<(), Disconnected> {
        (**self).poll()
    }

    fn deadline(&self) -> Option<Instant> {
        (**self).deadline()
    }

    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
}

impl FrameRx for Box<dyn FrameRx> {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected> {
        (**self).recv_timeout(timeout)
    }

    fn waker(&self) -> Wake {
        (**self).waker()
    }
}

/// Byte-level RPC client: serialize the request, get serialized response.
///
/// Both backends serialize identically (the typed wrappers in `ftc-core`
/// own the codec), so control-plane behavior cannot drift between the
/// deterministic and the socket deployment.
pub trait RpcCaller: Send + Sync {
    /// Issues a call and waits up to `timeout` for the response.
    fn call_bytes(&self, req: Bytes, timeout: Duration) -> Result<Bytes, RpcError>;

    /// A derived caller paying an extra simulated one-way delay per
    /// direction (in-process backend; socket backends return an unchanged
    /// clone — their delays are real).
    fn with_delay(&self, one_way: Duration) -> Box<dyn RpcCaller>;

    /// Clones the caller (object-safe `Clone`).
    fn clone_caller(&self) -> Box<dyn RpcCaller>;
}

/// Byte-level RPC server half.
pub trait RpcResponder: Send {
    /// Serves at most one pending request via `handler`, waiting up to
    /// `timeout` (`Duration::MAX`: no deadline) for one to arrive. Returns
    /// whether a request was served.
    fn serve_next_bytes(
        &mut self,
        timeout: Duration,
        handler: &mut dyn FnMut(Bytes) -> Bytes,
    ) -> Result<bool, RpcError>;

    /// See [`FrameRx::waker`]: ends the current or next wait of
    /// `serve_next_bytes`, which then serves nothing.
    fn waker(&self) -> Wake;
}

/// A transport backend: the node-local factory that opens the two halves
/// of reliable frame links and RPC channels, addressed by stream id.
///
/// For the in-process backend both halves come from one factory instance
/// (the second `open_*`/`rpc_*` call for a stream claims the half stashed
/// by the first). For the socket backend each process holds its own
/// factory ([`crate::sock::SockTransport`]) and the stream id plus the
/// deployment plan's addresses pair the halves across processes.
pub trait Transport: Send + Sync {
    /// Opens the sending half of reliable stream `stream` toward `peer`.
    fn open_tx(&self, peer: &Endpoint, stream: u16) -> Box<dyn FrameTx>;

    /// Opens the receiving half of reliable stream `stream`.
    fn open_rx(&self, local: &Endpoint, stream: u16) -> Box<dyn FrameRx>;

    /// Opens an RPC client toward `peer`, correlated on `stream`.
    fn rpc_caller(&self, peer: &Endpoint, stream: u16) -> Box<dyn RpcCaller>;

    /// Opens the RPC responder for `stream`.
    fn rpc_responder(&self, local: &Endpoint, stream: u16) -> Box<dyn RpcResponder>;
}

/// In-process raw link: one side of an impaired duplex channel, carrying
/// unified-codec frames.
pub struct InProcRawLink {
    duplex: link::Duplex,
    stream: u16,
}

impl RawLink for InProcRawLink {
    fn send_frame(&mut self, kind: u8, seq: u64, payload: &[u8]) -> Result<(), Disconnected> {
        self.duplex
            .tx
            .send(frame::encode(kind, self.stream, seq, payload))
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Frame>, Disconnected> {
        match self.duplex.rx.recv_timeout(timeout)? {
            // In-process channels preserve message boundaries: one message
            // is one frame. A decode failure cannot happen short of memory
            // corruption, so treat it as loss rather than poisoning the rx.
            Some(buf) => Ok(frame::decode(buf.as_ref()).ok().flatten().map(|(f, _)| f)),
            None => Ok(None),
        }
    }

    fn waker(&self) -> Wake {
        self.duplex.rx.waker()
    }

    fn stream(&self) -> u16 {
        self.stream
    }
}

/// Creates the two sides of an in-process raw duplex link on `stream`.
pub fn raw_pair(ep: &Endpoint, stream: u16) -> (InProcRawLink, InProcRawLink) {
    let (a, b) = link::duplex(ep.link_cfg().clone());
    (
        InProcRawLink { duplex: a, stream },
        InProcRawLink { duplex: b, stream },
    )
}

enum LinkSlot {
    Tx(Box<dyn FrameTx>),
    Rx(Box<dyn FrameRx>),
}

enum RpcSlot {
    Caller(Box<dyn RpcCaller>),
    Responder(Box<dyn RpcResponder>),
}

/// The in-process [`Transport`]: both halves of every stream live in one
/// process, so the factory creates a pair on first open and hands the
/// stashed half to the second open. Deterministic — impairments come from
/// the endpoint's seeded RNG and nothing else.
#[derive(Default)]
pub struct InProcTransport {
    links: Mutex<HashMap<u16, LinkSlot>>,
    rpcs: Mutex<HashMap<u16, RpcSlot>>,
}

impl InProcTransport {
    /// Creates an empty in-process transport.
    pub fn new() -> InProcTransport {
        InProcTransport::default()
    }
}

impl Transport for InProcTransport {
    fn open_tx(&self, peer: &Endpoint, stream: u16) -> Box<dyn FrameTx> {
        let mut links = self.links.lock();
        match links.remove(&stream) {
            Some(LinkSlot::Tx(tx)) => tx,
            Some(LinkSlot::Rx(rx)) => {
                // Put it back; opening the same half twice is a wiring bug.
                links.insert(stream, LinkSlot::Rx(rx));
                panic!("stream {stream}: rx half already stashed; open_rx must claim it")
            }
            None => {
                let (tx, rx) = crate::reliable::reliable_pair_on(peer, stream);
                links.insert(stream, LinkSlot::Rx(Box::new(rx)));
                Box::new(tx)
            }
        }
    }

    fn open_rx(&self, local: &Endpoint, stream: u16) -> Box<dyn FrameRx> {
        let mut links = self.links.lock();
        match links.remove(&stream) {
            Some(LinkSlot::Rx(rx)) => rx,
            Some(LinkSlot::Tx(tx)) => {
                links.insert(stream, LinkSlot::Tx(tx));
                panic!("stream {stream}: tx half already stashed; open_tx must claim it")
            }
            None => {
                let (tx, rx) = crate::reliable::reliable_pair_on(local, stream);
                links.insert(stream, LinkSlot::Tx(Box::new(tx)));
                Box::new(rx)
            }
        }
    }

    fn rpc_caller(&self, _peer: &Endpoint, stream: u16) -> Box<dyn RpcCaller> {
        let mut rpcs = self.rpcs.lock();
        match rpcs.remove(&stream) {
            Some(RpcSlot::Caller(c)) => c,
            Some(RpcSlot::Responder(r)) => {
                rpcs.insert(stream, RpcSlot::Responder(r));
                panic!("stream {stream}: responder already stashed; rpc_responder must claim it")
            }
            None => {
                let (c, r) = crate::rpc::rpc_pair::<Bytes, Bytes>(Duration::ZERO);
                rpcs.insert(stream, RpcSlot::Responder(Box::new(r)));
                Box::new(c)
            }
        }
    }

    fn rpc_responder(&self, _local: &Endpoint, stream: u16) -> Box<dyn RpcResponder> {
        let mut rpcs = self.rpcs.lock();
        match rpcs.remove(&stream) {
            Some(RpcSlot::Responder(r)) => r,
            Some(RpcSlot::Caller(c)) => {
                rpcs.insert(stream, RpcSlot::Caller(c));
                panic!("stream {stream}: caller already stashed; rpc_caller must claim it")
            }
            None => {
                let (c, r) = crate::rpc::rpc_pair::<Bytes, Bytes>(Duration::ZERO);
                rpcs.insert(stream, RpcSlot::Caller(Box::new(c)));
                Box::new(r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_addr_parses_all_forms() {
        assert_eq!(
            PeerAddr::parse("uds:/tmp/a.sock").unwrap(),
            PeerAddr::Uds(PathBuf::from("/tmp/a.sock"))
        );
        assert_eq!(
            PeerAddr::parse("/tmp/b.sock").unwrap(),
            PeerAddr::Uds(PathBuf::from("/tmp/b.sock"))
        );
        assert!(matches!(
            PeerAddr::parse("tcp:127.0.0.1:9000").unwrap(),
            PeerAddr::Tcp(_)
        ));
        assert!(matches!(
            PeerAddr::parse("127.0.0.1:9000").unwrap(),
            PeerAddr::Tcp(_)
        ));
        assert_eq!(
            PeerAddr::parse("sim:node-a").unwrap(),
            PeerAddr::Sim("node-a".to_string())
        );
        assert_eq!(PeerAddr::Sim("x".into()).to_string(), "sim:x");
        assert!(PeerAddr::parse("not-an-addr").is_err());
    }

    #[test]
    fn endpoint_builders_roundtrip() {
        let ep = Endpoint::in_proc()
            .with_latency(Duration::from_micros(5))
            .with_loss(0.1)
            .with_seed(7);
        assert!(!ep.is_sock());
        assert_eq!(ep.latency(), Duration::from_micros(5));
        assert_eq!(ep.loss(), 0.1);
        assert_eq!(ep.seed(), 7);

        let sock = Endpoint::sock(PeerAddr::parse("uds:/tmp/x.sock").unwrap())
            .with_connect_timeout(Duration::from_secs(1));
        assert!(sock.is_sock());
        assert_eq!(sock.sock_opts().connect_timeout, Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "in-process link knob")]
    fn in_proc_knob_on_sock_endpoint_panics() {
        let _ = Endpoint::sock(PeerAddr::Uds(PathBuf::from("/tmp/x"))).with_loss(0.5);
    }

    #[test]
    #[should_panic(expected = "socket knob")]
    fn sock_knob_on_in_proc_endpoint_panics() {
        let _ = Endpoint::in_proc().with_connect_timeout(Duration::from_secs(1));
    }

    #[test]
    fn raw_pair_carries_codec_frames() {
        let (mut a, mut b) = raw_pair(&Endpoint::in_proc(), 9);
        a.send_frame(frame::kind::DATA, 42, b"payload").unwrap();
        let f = b
            .recv_frame(Duration::from_millis(100))
            .unwrap()
            .expect("frame");
        assert_eq!(f.kind, frame::kind::DATA);
        assert_eq!(f.stream, 9);
        assert_eq!(f.seq, 42);
        assert_eq!(f.payload.as_slice(), b"payload");
    }

    #[test]
    fn in_proc_transport_pairs_halves() {
        let t = InProcTransport::new();
        let mut tx = t.open_tx(&Endpoint::in_proc(), 1);
        let mut rx = t.open_rx(&Endpoint::in_proc(), 1);
        tx.send(BytesMut::from(&b"hi"[..])).unwrap();
        let got = rx
            .recv_timeout(Duration::from_millis(100))
            .unwrap()
            .expect("delivered");
        assert_eq!(got.as_ref(), b"hi");

        let caller = t.rpc_caller(&Endpoint::in_proc(), 2);
        let mut responder = t.rpc_responder(&Endpoint::in_proc(), 2);
        let h = std::thread::spawn(move || {
            responder
                .serve_next_bytes(Duration::from_secs(1), &mut |req| {
                    Bytes::copy_from_slice(&[req.as_slice(), b"!"].concat())
                })
                .unwrap()
        });
        let resp = caller
            .call_bytes(Bytes::copy_from_slice(b"ping"), Duration::from_secs(1))
            .unwrap();
        assert_eq!(resp.as_slice(), b"ping!");
        assert!(h.join().unwrap());
    }
}

//! In-process point-to-point links, and the factory that picks one.
//!
//! A link delivers byte frames with configurable propagation latency,
//! jitter, random loss, reordering and serialization delay (bandwidth).
//! Impairments are applied at the sender; the receiver releases frames no
//! earlier than their computed delivery time, which is what makes jitter
//! produce genuine reordering.
//!
//! [`link_pair`] is how the threaded chain opens a data link. The reliable
//! layer exists "to handle out-of-order deliveries and packet drops within
//! the network" (§4.1); an unimpaired in-process link has neither, so it
//! gets a plain FIFO channel. Every other endpoint gets
//! [`crate::reliable_pair`].

use crate::transport::{Disconnected, Endpoint, FrameRx, FrameTx, Wake};
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a link's impairments.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Fixed one-way propagation delay.
    pub latency: Duration,
    /// Uniform random extra delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a frame is delayed an extra jitter interval, causing it
    /// to arrive after its successors (reordering).
    pub reorder: f64,
    /// Link bandwidth in bits/s; serialization delay = len / bandwidth.
    /// `None` models an infinitely fast link.
    pub bandwidth_bps: Option<u64>,
    /// RNG seed so impairments are reproducible.
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            reorder: 0.0,
            bandwidth_bps: None,
            seed: 0,
        }
    }
}

impl LinkConfig {
    /// An ideal link: zero latency, no impairments.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A lossy, reordering link for stress tests.
    pub fn lossy(loss: f64, reorder: f64, seed: u64) -> Self {
        LinkConfig {
            latency: Duration::from_micros(5),
            jitter: Duration::from_micros(20),
            loss,
            reorder,
            bandwidth_bps: None,
            seed,
        }
    }

    /// A WAN link with the given round-trip time (one-way = rtt/2).
    pub fn wan(rtt: Duration) -> Self {
        LinkConfig {
            latency: rtt / 2,
            ..Default::default()
        }
    }

    /// True when the link neither delays, drops nor reorders: zero
    /// latency, jitter, loss and reorder, and no bandwidth cap. The seed is
    /// irrelevant, since it only drives impairments.
    pub fn is_ideal(&self) -> bool {
        self.latency.is_zero()
            && self.jitter.is_zero()
            && self.loss == 0.0
            && self.reorder == 0.0
            && self.bandwidth_bps.is_none()
    }
}

/// Sending half of an unimpaired in-process link: a plain channel.
struct ChanTx(Sender<BytesMut>);

impl FrameTx for ChanTx {
    fn send(&mut self, payload: BytesMut) -> Result<(), Disconnected> {
        self.0.send(payload).map_err(|_| Disconnected)
    }

    fn poll(&mut self) -> Result<(), Disconnected> {
        Ok(()) // nothing to retransmit and no acknowledgements to read
    }

    fn deadline(&self) -> Option<Instant> {
        None
    }

    fn in_flight(&self) -> usize {
        0 // a sent frame is queued at the receiver: nothing awaits an ACK
    }
}

/// Receiving half of an unimpaired in-process link.
struct ChanRx(Receiver<BytesMut>);

impl FrameRx for ChanRx {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected> {
        match self.0.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn waker(&self) -> Wake {
        let rx = self.0.clone();
        Box::new(move || rx.interrupt())
    }
}

/// Opens a data link as `ep` describes it. An in-process endpoint that
/// declares no impairment (no latency, jitter, loss, reorder or bandwidth
/// cap) gets a plain channel: FIFO, lossless, and nothing to sequence,
/// acknowledge or retransmit.
/// Every other endpoint gets [`crate::reliable_pair`], exactly as if it
/// had been called directly.
pub fn link_pair(ep: &Endpoint) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
    if !ep.is_sock() && ep.link_cfg().is_ideal() {
        let (tx, rx) = channel::unbounded();
        return (Box::new(ChanTx(tx)), Box::new(ChanRx(rx)));
    }
    let (tx, rx) = crate::reliable_pair(ep);
    (Box::new(tx), Box::new(rx))
}

struct TimedFrame {
    deliver_at: Instant,
    payload: BytesMut,
}

struct TxState {
    rng: StdRng,
    /// The time the link is busy serializing previously sent frames.
    busy_until: Instant,
}

/// Sending half of a link. Cloneable: multiple producers share the wire.
pub struct LinkTx {
    tx: Sender<TimedFrame>,
    cfg: LinkConfig,
    state: Arc<Mutex<TxState>>,
}

impl Clone for LinkTx {
    fn clone(&self) -> Self {
        LinkTx {
            tx: self.tx.clone(),
            cfg: self.cfg.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl LinkTx {
    /// Sends a frame, applying the configured impairments. A frame eaten by
    /// loss still returns `Ok` (the sender cannot tell — that is the point).
    pub fn send(&self, payload: BytesMut) -> Result<(), Disconnected> {
        let now = Instant::now();
        let mut st = self.state.lock();
        if self.cfg.loss > 0.0 && st.rng.gen_bool(self.cfg.loss) {
            return Ok(());
        }
        let mut delay = self.cfg.latency;
        if self.cfg.jitter > Duration::ZERO {
            delay += self.cfg.jitter.mul_f64(st.rng.gen::<f64>());
        }
        if self.cfg.reorder > 0.0 && st.rng.gen_bool(self.cfg.reorder) {
            delay += self.cfg.jitter.max(Duration::from_micros(50)) * 2;
        }
        if let Some(bps) = self.cfg.bandwidth_bps {
            let ser = Duration::from_secs_f64(payload.len() as f64 * 8.0 / bps as f64);
            let start = st.busy_until.max(now);
            st.busy_until = start + ser;
            delay += st.busy_until.saturating_duration_since(now);
        }
        drop(st);
        self.tx
            .send(TimedFrame {
                deliver_at: now + delay,
                payload,
            })
            .map_err(|_| Disconnected)
    }
}

/// Receiving half of a link.
///
/// Frames are released in *delivery-time* order (not send order), which is
/// how sender-side jitter turns into genuine on-the-wire reordering.
pub struct LinkRx {
    rx: Receiver<TimedFrame>,
    /// Frames popped from the channel, ordered by delivery time.
    heap: std::collections::BinaryHeap<HeapFrame>,
    disconnected: bool,
}

struct HeapFrame(TimedFrame);

impl PartialEq for HeapFrame {
    fn eq(&self, other: &Self) -> bool {
        self.0.deliver_at == other.0.deliver_at
    }
}
impl Eq for HeapFrame {}
impl PartialOrd for HeapFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by delivery time.
        other.0.deliver_at.cmp(&self.0.deliver_at)
    }
}

impl LinkRx {
    /// A handle that ends the current or next [`LinkRx::recv_timeout`].
    pub fn waker(&self) -> Wake {
        let rx = self.rx.clone();
        Box::new(move || rx.interrupt())
    }

    /// Receives the next due frame, waiting up to `timeout` (`Duration::MAX`:
    /// no deadline). Ends early, with `Ok(None)`, on [`LinkRx::waker`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Drain everything currently on the channel into the heap so the
            // earliest-due frame wins regardless of send order.
            loop {
                match self.rx.try_recv() {
                    Ok(f) => self.heap.push(HeapFrame(f)),
                    Err(channel::TryRecvError::Empty) => break,
                    Err(channel::TryRecvError::Disconnected) => {
                        self.disconnected = true;
                        break;
                    }
                }
            }
            let now = Instant::now();
            if let Some(earliest) = self.heap.peek() {
                let due = earliest.0.deliver_at;
                if due <= now {
                    let f = self.heap.pop().expect("peeked");
                    return Ok(Some(f.0.payload));
                }
                if deadline.is_some_and(|d| due > d) {
                    return Ok(None);
                }
                // Wait until the frame is due, but wake early if something
                // new arrives (it might be due even earlier).
                match self.rx.recv_deadline(due) {
                    Ok(f) => self.heap.push(HeapFrame(f)),
                    // Before the frame is due only the waker ends the wait.
                    Err(RecvTimeoutError::Timeout) if Instant::now() < due => return Ok(None),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        self.disconnected = true;
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    }
                }
                continue;
            }
            if self.disconnected {
                return Err(Disconnected);
            }
            let next = match deadline {
                Some(d) => self.rx.recv_deadline(d),
                None => self.rx.recv_timeout(Duration::MAX),
            };
            match next {
                Ok(f) => self.heap.push(HeapFrame(f)),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    self.disconnected = true;
                }
            }
        }
    }
}

/// Creates a unidirectional link.
pub fn simplex(cfg: LinkConfig) -> (LinkTx, LinkRx) {
    let (tx, rx) = channel::unbounded();
    (
        LinkTx {
            tx,
            state: Arc::new(Mutex::new(TxState {
                rng: StdRng::seed_from_u64(cfg.seed),
                busy_until: Instant::now(),
            })),
            cfg,
        },
        LinkRx {
            rx,
            heap: std::collections::BinaryHeap::new(),
            disconnected: false,
        },
    )
}

/// One side of a bidirectional link.
pub struct Duplex {
    /// Transmit half towards the peer.
    pub tx: LinkTx,
    /// Receive half from the peer.
    pub rx: LinkRx,
}

/// Creates a bidirectional link (a pair of independent simplex links with
/// the same configuration but decorrelated RNG seeds).
pub fn duplex(cfg: LinkConfig) -> (Duplex, Duplex) {
    let mut back = cfg.clone();
    back.seed = cfg.seed.wrapping_add(0x9e3779b97f4a7c15);
    let (atx, brx) = simplex(cfg);
    let (btx, arx) = simplex(back);
    (Duplex { tx: atx, rx: arx }, Duplex { tx: btx, rx: brx })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: u8) -> BytesMut {
        BytesMut::from(&[i][..])
    }

    #[test]
    fn ideal_link_delivers_in_order() {
        let (tx, mut rx) = simplex(LinkConfig::ideal());
        for i in 0..10 {
            tx.send(frame(i)).unwrap();
        }
        for i in 0..10 {
            let f = rx
                .recv_timeout(Duration::from_millis(100))
                .unwrap()
                .unwrap();
            assert_eq!(f[0], i);
        }
    }

    #[test]
    fn latency_is_respected() {
        let cfg = LinkConfig {
            latency: Duration::from_millis(20),
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        let t0 = Instant::now();
        tx.send(frame(1)).unwrap();
        let f = rx
            .recv_timeout(Duration::from_millis(200))
            .unwrap()
            .unwrap();
        assert_eq!(f[0], 1);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn timeout_returns_none_and_keeps_frame() {
        let cfg = LinkConfig {
            latency: Duration::from_millis(50),
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        tx.send(frame(7)).unwrap();
        // Too short: frame not yet due, must not be lost.
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)).unwrap(), None);
        let f = rx
            .recv_timeout(Duration::from_millis(200))
            .unwrap()
            .unwrap();
        assert_eq!(f[0], 7);
    }

    #[test]
    fn full_loss_drops_everything() {
        let cfg = LinkConfig {
            loss: 1.0,
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        for i in 0..20 {
            tx.send(frame(i)).unwrap();
        }
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }

    #[test]
    fn partial_loss_drops_some() {
        let cfg = LinkConfig {
            loss: 0.5,
            seed: 42,
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        let n = 200;
        for i in 0..n {
            tx.send(frame(i as u8)).unwrap();
        }
        let mut got = 0;
        while rx.recv_timeout(Duration::from_millis(5)).unwrap().is_some() {
            got += 1;
        }
        assert!(got > n / 5 && got < n, "got {got} of {n}");
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        // 1 Mbit/s, 1250-byte frames => 10 ms each.
        let cfg = LinkConfig {
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        let t0 = Instant::now();
        for _ in 0..3 {
            tx.send(BytesMut::zeroed(1250)).unwrap();
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_millis(500))
                .unwrap()
                .unwrap();
        }
        let el = t0.elapsed();
        assert!(el >= Duration::from_millis(29), "elapsed {el:?}");
    }

    #[test]
    fn disconnect_detected() {
        let (tx, rx) = simplex(LinkConfig::ideal());
        drop(rx);
        assert_eq!(tx.send(frame(0)), Err(Disconnected));
        let (tx, mut rx) = simplex(LinkConfig::ideal());
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(Disconnected));
    }

    #[test]
    fn duplex_is_bidirectional() {
        let (mut a, mut b) = duplex(LinkConfig::ideal());
        a.tx.send(frame(1)).unwrap();
        b.tx.send(frame(2)).unwrap();
        assert_eq!(
            b.rx.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .unwrap()[0],
            1
        );
        assert_eq!(
            a.rx.recv_timeout(Duration::from_millis(50))
                .unwrap()
                .unwrap()[0],
            2
        );
    }

    fn seq(i: u32) -> BytesMut {
        BytesMut::from(&i.to_be_bytes()[..])
    }

    fn read_seq(b: &[u8]) -> u32 {
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    #[test]
    fn an_ideal_endpoint_gets_a_plain_channel() {
        let (mut tx, mut rx) = link_pair(&Endpoint::in_proc());
        for i in 0..1000 {
            tx.send(seq(i)).unwrap();
        }
        // A reliable sender would hold all 1,000 until acknowledged.
        assert_eq!(tx.in_flight(), 0);
        tx.poll().unwrap();
        for i in 0..1000 {
            let f = rx.recv_timeout(Duration::from_millis(100)).unwrap();
            assert_eq!(read_seq(&f.expect("delivered")), i);
        }
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(None));
        drop(rx);
        assert_eq!(tx.send(seq(0)), Err(Disconnected));

        let (tx, mut rx) = link_pair(&Endpoint::in_proc().with_seed(9));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(Disconnected));
    }

    #[test]
    fn a_lossy_endpoint_keeps_the_reliable_layer() {
        let (mut tx, mut rx) = link_pair(&Endpoint::lossy(0.25, 0.2, 41));
        let n = 400u32;
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut sent = 0;
        while got.len() < n as usize {
            assert!(Instant::now() < deadline, "{} of {n}", got.len());
            if sent < n {
                tx.send(seq(sent)).unwrap();
                sent += 1;
            }
            tx.poll().unwrap();
            while let Some(f) = rx.recv_timeout(Duration::from_micros(200)).unwrap() {
                got.push(read_seq(&f));
            }
        }
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "gapless and in order");
    }

    #[test]
    fn a_wan_endpoint_keeps_its_latency() {
        let (mut tx, mut rx) = link_pair(&Endpoint::wan(Duration::from_millis(2)));
        let t0 = Instant::now();
        tx.send(seq(7)).unwrap();
        let f = rx.recv_timeout(Duration::from_millis(200)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert_eq!(read_seq(&f.expect("delivered")), 7);
        assert_eq!(tx.in_flight(), 1, "sequenced and awaiting an ACK");
    }

    #[test]
    fn only_an_unimpaired_config_is_ideal() {
        assert!(LinkConfig::ideal().is_ideal());
        let capped = Endpoint::in_proc().with_bandwidth(Some(1_000_000_000));
        assert!(!capped.link_cfg().is_ideal());
        let (mut tx, _rx) = link_pair(&capped);
        tx.send(seq(1)).unwrap();
        assert_eq!(tx.in_flight(), 1, "a capped link is reliable");
        for ep in [
            Endpoint::in_proc().with_latency(Duration::from_micros(1)),
            Endpoint::in_proc().with_jitter(Duration::from_micros(1)),
            Endpoint::in_proc().with_loss(0.01),
            Endpoint::in_proc().with_reorder(0.01),
        ] {
            assert!(!ep.link_cfg().is_ideal(), "{ep:?}");
        }
    }

    #[test]
    fn jitter_reorders_eventually() {
        let cfg = LinkConfig {
            jitter: Duration::from_micros(300),
            reorder: 0.3,
            seed: 7,
            ..Default::default()
        };
        let (tx, mut rx) = simplex(cfg);
        let n = 100u8;
        for i in 0..n {
            tx.send(frame(i)).unwrap();
            std::thread::sleep(Duration::from_micros(30));
        }
        let mut order = Vec::new();
        while let Some(f) = rx.recv_timeout(Duration::from_millis(20)).unwrap() {
            order.push(f[0]);
        }
        assert_eq!(order.len(), n as usize);
        let sorted: Vec<u8> = (0..n).collect();
        assert_ne!(order, sorted, "expected at least one reordering");
    }
}

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
use ftc_net::transport::{FrameRx, FrameTx, RpcCaller, RpcResponder};
use ftc_stm::StoreSnapshot;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Control requests served by a replica's control thread.
#[derive(Debug)]
pub enum CtrlReq {
    /// Liveness probe (heartbeat).
    Ping,
    /// Fetch the state of middlebox `mbox` for recovery. Serving this
    /// request *pauses* the replica's packet processing — "the replica that
    /// is the source for state recovery discards any out-of-order packets
    /// that have not been applied to its state store and will no longer
    /// admit packets in flight" (§4.1) — until [`CtrlReq::Resume`] arrives
    /// after rerouting.
    FetchState {
        /// Middlebox (position) whose store is requested.
        mbox: usize,
    },
    /// Resume packet processing after recovery rerouting completed.
    Resume,
}

/// Control responses.
#[derive(Debug)]
pub enum CtrlResp {
    /// Reply to [`CtrlReq::Ping`].
    Pong,
    /// Reply to [`CtrlReq::FetchState`].
    State {
        /// Deep copy of the store.
        snapshot: StoreSnapshot,
        /// The `MAX` dependency vector (or the head's sequence vector).
        max: Vec<u64>,
    },
    /// The replica does not replicate that middlebox.
    NotHere,
    /// Acknowledgement of [`CtrlReq::Resume`].
    Resumed,
}

// ---- byte codec -----------------------------------------------------------

const REQ_PING: u8 = 1;
const REQ_FETCH: u8 = 2;
const REQ_RESUME: u8 = 3;
const RESP_PONG: u8 = 1;
const RESP_STATE: u8 = 2;
const RESP_NOT_HERE: u8 = 3;
const RESP_RESUMED: u8 = 4;

/// Serialize a control request.
pub fn encode_req(req: &CtrlReq) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    match req {
        CtrlReq::Ping => b.put_u8(REQ_PING),
        CtrlReq::FetchState { mbox } => {
            b.put_u8(REQ_FETCH);
            b.put_u64(*mbox as u64);
        }
        CtrlReq::Resume => b.put_u8(REQ_RESUME),
    }
    b.freeze()
}

/// Deserialize a control request; `None` if the bytes are not a request.
pub fn decode_req(mut b: &[u8]) -> Option<CtrlReq> {
    if !b.has_remaining() {
        return None;
    }
    match b.get_u8() {
        REQ_PING => Some(CtrlReq::Ping),
        REQ_FETCH if b.remaining() >= 8 => Some(CtrlReq::FetchState {
            mbox: b.get_u64() as usize,
        }),
        REQ_RESUME => Some(CtrlReq::Resume),
        _ => None,
    }
}

/// Serialize a control response.
pub fn encode_resp(resp: &CtrlResp) -> Bytes {
    let mut b = BytesMut::with_capacity(16);
    match resp {
        CtrlResp::Pong => b.put_u8(RESP_PONG),
        CtrlResp::State { snapshot, max } => {
            // One allocation of the exact size. A snapshot runs to hundreds
            // of kilobytes, and growing into it by doubling copies it once
            // over and touches as much fresh memory again — on the
            // recovery path, inside the outage.
            let entries: usize = snapshot.maps.iter().map(Vec::len).sum();
            b.reserve(
                13 + 4 * snapshot.maps.len() + 8 * entries + snapshot.byte_size() + 8 * max.len(),
            );
            b.put_u8(RESP_STATE);
            b.put_u32(snapshot.maps.len() as u32);
            for map in &snapshot.maps {
                b.put_u32(map.len() as u32);
                for (k, v) in map {
                    b.put_u32(k.len() as u32);
                    b.put_slice(k);
                    b.put_u32(v.len() as u32);
                    b.put_slice(v);
                }
            }
            b.put_u32(snapshot.seqs.len() as u32);
            for s in &snapshot.seqs {
                b.put_u64(*s);
            }
            b.put_u32(max.len() as u32);
            for m in max {
                b.put_u64(*m);
            }
        }
        CtrlResp::NotHere => b.put_u8(RESP_NOT_HERE),
        CtrlResp::Resumed => b.put_u8(RESP_RESUMED),
    }
    b.freeze()
}

fn take_bytes(b: &mut &[u8]) -> Option<Bytes> {
    if b.remaining() < 4 {
        return None;
    }
    let len = b.get_u32() as usize;
    if b.remaining() < len {
        return None;
    }
    let out = Bytes::copy_from_slice(&b[..len]);
    b.advance(len);
    Some(out)
}

/// Deserialize a control response; `None` if the bytes are not a response.
pub fn decode_resp(mut b: &[u8]) -> Option<CtrlResp> {
    if !b.has_remaining() {
        return None;
    }
    match b.get_u8() {
        RESP_PONG => Some(CtrlResp::Pong),
        RESP_STATE => {
            let b = &mut b;
            if b.remaining() < 4 {
                return None;
            }
            let n_maps = b.get_u32() as usize;
            let mut maps = Vec::with_capacity(n_maps);
            for _ in 0..n_maps {
                if b.remaining() < 4 {
                    return None;
                }
                let n = b.get_u32() as usize;
                let mut map = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = take_bytes(b)?;
                    let v = take_bytes(b)?;
                    map.push((k, v));
                }
                maps.push(map);
            }
            if b.remaining() < 4 {
                return None;
            }
            let n_seqs = b.get_u32() as usize;
            if b.remaining() < n_seqs * 8 + 4 {
                return None;
            }
            let seqs = (0..n_seqs).map(|_| b.get_u64()).collect();
            let n_max = b.get_u32() as usize;
            if b.remaining() < n_max * 8 {
                return None;
            }
            let max = (0..n_max).map(|_| b.get_u64()).collect();
            Some(CtrlResp::State {
                snapshot: StoreSnapshot { maps, seqs },
                max,
            })
        }
        RESP_NOT_HERE => Some(CtrlResp::NotHere),
        RESP_RESUMED => Some(CtrlResp::Resumed),
        _ => None,
    }
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
        decode_resp(resp.as_ref()).ok_or(RpcError::Disconnected)
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

    /// Serves at most one pending request using `handler`, waiting up to
    /// `timeout` for one to arrive. Returns whether a request was served.
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
    let (client, server) = ftc_net::rpc::rpc_pair::<Bytes, Bytes>(one_way);
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
pub struct OutPort {
    slot: Mutex<Option<Box<dyn FrameTx>>>,
}

impl OutPort {
    /// Creates an unwired port (drops frames until [`install`]ed).
    ///
    /// [`install`]: OutPort::install
    pub fn empty() -> OutPort {
        OutPort {
            slot: Mutex::new(None),
        }
    }

    /// Creates a port pre-wired with `sender`.
    pub fn wired(sender: impl FrameTx + 'static) -> OutPort {
        OutPort {
            slot: Mutex::new(Some(Box::new(sender))),
        }
    }

    /// Sends a frame through the current link, if any.
    pub fn send(&self, frame: BytesMut) {
        let mut slot = self.slot.lock();
        if let Some(tx) = slot.as_mut() {
            if tx.send(frame).is_err() {
                // Successor is gone; drop until rerouted.
                *slot = None;
            }
        }
    }

    /// Runs the sender's retransmission/ACK processing.
    pub fn poll(&self) {
        let mut slot = self.slot.lock();
        if let Some(tx) = slot.as_mut() {
            if tx.poll().is_err() {
                *slot = None;
            }
        }
    }

    /// Installs a new link (rerouting).
    pub fn install(&self, sender: impl FrameTx + 'static) {
        *self.slot.lock() = Some(Box::new(sender));
    }

    /// True if a live link is installed.
    pub fn is_wired(&self) -> bool {
        self.slot.lock().is_some()
    }
}

/// A swappable incoming reliable-link slot.
pub struct InPort {
    slot: Mutex<Option<Box<dyn FrameRx>>>,
}

impl InPort {
    /// Creates an unwired port (returns `None` until [`install`]ed).
    ///
    /// [`install`]: InPort::install
    pub fn empty() -> InPort {
        InPort {
            slot: Mutex::new(None),
        }
    }

    /// Creates a port pre-wired with `receiver`.
    pub fn wired(receiver: impl FrameRx + 'static) -> InPort {
        InPort {
            slot: Mutex::new(Some(Box::new(receiver))),
        }
    }

    /// Receives the next in-order frame, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<BytesMut> {
        let mut slot = self.slot.lock();
        match slot.as_mut() {
            Some(rx) => match rx.recv_timeout(timeout) {
                Ok(f) => f,
                Err(_) => {
                    *slot = None;
                    None
                }
            },
            None => {
                // Unwired (predecessor died): emulate the blocking recv's
                // bounded wait so callers don't spin. Not a polling loop —
                // there is no event source to wait on until `install`.
                drop(slot);
                // forbidden-ok: thread-sleep
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
                None
            }
        }
    }

    /// Installs a new link (rerouting).
    pub fn install(&self, receiver: impl FrameRx + 'static) {
        *self.slot.lock() = Some(Box::new(receiver));
    }

    /// True if a live link is installed.
    pub fn is_wired(&self) -> bool {
        self.slot.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_net::{reliable_pair, Endpoint};

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
            CtrlReq::FetchState { mbox: 7 },
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
        for resp in [
            CtrlResp::Pong,
            CtrlResp::State {
                snapshot,
                max: vec![9, 8, 7],
            },
            CtrlResp::NotHere,
            CtrlResp::Resumed,
        ] {
            let enc = encode_resp(&resp);
            let dec = decode_resp(enc.as_ref()).unwrap();
            assert_eq!(format!("{resp:?}"), format!("{dec:?}"));
        }
        assert!(decode_req(&[]).is_none());
        assert!(decode_req(&[99]).is_none());
        assert!(decode_resp(&[RESP_STATE, 0, 0]).is_none(), "truncated");
    }

    #[test]
    fn ctrl_pair_calls_roundtrip() {
        let (client, mut server) = ctrl_pair(Duration::ZERO);
        let h = std::thread::spawn(move || {
            server
                .serve_next(Duration::from_secs(1), |req| match req {
                    CtrlReq::FetchState { mbox } => CtrlResp::State {
                        snapshot: StoreSnapshot {
                            maps: vec![vec![]],
                            seqs: vec![mbox as u64],
                        },
                        max: vec![1],
                    },
                    _ => CtrlResp::Pong,
                })
                .unwrap()
        });
        match client
            .call(CtrlReq::FetchState { mbox: 5 }, Duration::from_secs(1))
            .unwrap()
        {
            CtrlResp::State { snapshot, max } => {
                assert_eq!(snapshot.seqs, vec![5]);
                assert_eq!(max, vec![1]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(h.join().unwrap());
    }
}

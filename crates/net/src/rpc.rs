//! Minimal control-plane RPC with injected WAN delay.
//!
//! Used for orchestrator↔replica communication (heartbeats, recovery
//! commands) and replica↔replica state fetches ("using a reliable TCP
//! connection, the thread sends a fetch request ... and waits to receive
//! state", paper §6). Each call pays the configured round-trip time, which
//! is how the recovery experiment reproduces WAN-dominated delays (§7.5).

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// RPC failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The server endpoint is gone (fail-stop peer).
    Disconnected,
    /// The server did not answer within the caller's timeout.
    Timeout,
}

impl core::fmt::Display for RpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RpcError::Disconnected => write!(f, "rpc peer disconnected"),
            RpcError::Timeout => write!(f, "rpc timed out"),
        }
    }
}

impl std::error::Error for RpcError {}

struct Envelope<Req, Resp> {
    req: Req,
    reply: Sender<Resp>,
}

/// Client handle: cloneable, cheap.
pub struct RpcClient<Req, Resp> {
    tx: Sender<Envelope<Req, Resp>>,
    /// One-way network delay paid on the request and again on the response.
    one_way: Duration,
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            tx: self.tx.clone(),
            one_way: self.one_way,
        }
    }
}

impl<Req, Resp> RpcClient<Req, Resp> {
    /// A derived client talking to the same server but paying a different
    /// one-way network delay (e.g. a caller in another region).
    pub fn with_delay(&self, one_way: Duration) -> RpcClient<Req, Resp> {
        RpcClient {
            tx: self.tx.clone(),
            one_way,
        }
    }

    /// Issues a call and waits up to `timeout` for the reply (network delay
    /// included in the budget).
    pub fn call(&self, req: Req, timeout: Duration) -> Result<Resp, RpcError> {
        if self.one_way > Duration::ZERO {
            std::thread::sleep(self.one_way);
        }
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.tx
            .send(Envelope {
                req,
                reply: reply_tx,
            })
            .map_err(|_| RpcError::Disconnected)?;
        let resp = match reply_rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return Err(RpcError::Timeout),
            Err(RecvTimeoutError::Disconnected) => return Err(RpcError::Disconnected),
        };
        if self.one_way > Duration::ZERO {
            std::thread::sleep(self.one_way);
        }
        Ok(resp)
    }
}

/// Server handle: owned by the serving thread.
pub struct RpcServer<Req, Resp> {
    rx: Receiver<Envelope<Req, Resp>>,
}

impl<Req, Resp> RpcServer<Req, Resp> {
    /// Serves at most one pending request using `handler`, waiting up to
    /// `timeout` (`Duration::MAX`: no deadline) for one to arrive, or until
    /// [`RpcServer::waker`] ends the wait. Returns whether a request was
    /// served.
    pub fn serve_next(
        &self,
        timeout: Duration,
        handler: impl FnOnce(Req) -> Resp,
    ) -> Result<bool, RpcError> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                let resp = handler(env.req);
                let _ = env.reply.send(resp); // caller may have timed out
                Ok(true)
            }
            Err(RecvTimeoutError::Timeout) => Ok(false),
            Err(RecvTimeoutError::Disconnected) => Err(RpcError::Disconnected),
        }
    }

    /// A handle that ends the current or next wait of
    /// [`RpcServer::serve_next`].
    pub fn waker(&self) -> crate::transport::Wake
    where
        Req: Send + 'static,
        Resp: Send + 'static,
    {
        let rx = self.rx.clone();
        Box::new(move || rx.interrupt())
    }
}

/// Creates a client/server pair with the given one-way network delay.
pub fn rpc_pair<Req, Resp>(one_way: Duration) -> (RpcClient<Req, Resp>, RpcServer<Req, Resp>) {
    let (tx, rx) = channel::unbounded();
    (RpcClient { tx, one_way }, RpcServer { rx })
}

// The in-process channel RPC doubles as the byte-level transport backend:
// `Bytes → Bytes` instances implement the object-safe caller/responder
// traits that `ftc-core`'s typed control-plane wrappers are built on.

impl crate::transport::RpcCaller for RpcClient<bytes::Bytes, bytes::Bytes> {
    fn call_bytes(&self, req: bytes::Bytes, timeout: Duration) -> Result<bytes::Bytes, RpcError> {
        self.call(req, timeout)
    }

    fn with_delay(&self, one_way: Duration) -> Box<dyn crate::transport::RpcCaller> {
        Box::new(RpcClient::with_delay(self, one_way))
    }

    fn clone_caller(&self) -> Box<dyn crate::transport::RpcCaller> {
        Box::new(self.clone())
    }
}

impl crate::transport::RpcResponder for RpcServer<bytes::Bytes, bytes::Bytes> {
    fn serve_next_bytes(
        &mut self,
        timeout: Duration,
        handler: &mut dyn FnMut(bytes::Bytes) -> bytes::Bytes,
    ) -> Result<bool, RpcError> {
        self.serve_next(timeout, handler)
    }

    fn waker(&self) -> crate::transport::Wake {
        RpcServer::waker(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn call_and_reply() {
        let (client, server) = rpc_pair::<u32, u32>(Duration::ZERO);
        let h = std::thread::spawn(move || {
            server
                .serve_next(Duration::from_secs(1), |x| x * 2)
                .unwrap()
        });
        let resp = client.call(21, Duration::from_secs(1)).unwrap();
        assert_eq!(resp, 42);
        assert!(h.join().unwrap());
    }

    #[test]
    fn wan_delay_is_paid_both_ways() {
        let one_way = Duration::from_millis(15);
        let (client, server) = rpc_pair::<(), ()>(one_way);
        std::thread::spawn(move || {
            let _ = server.serve_next(Duration::from_secs(1), |()| ());
        });
        let t0 = Instant::now();
        client.call((), Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn timeout_when_server_silent() {
        let (client, _server) = rpc_pair::<(), ()>(Duration::ZERO);
        let err = client.call((), Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn disconnect_when_server_dropped() {
        let (client, server) = rpc_pair::<(), ()>(Duration::ZERO);
        drop(server);
        let err = client.call((), Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RpcError::Disconnected);
    }

    #[test]
    fn server_sees_no_request_on_timeout() {
        let (_client, server) = rpc_pair::<(), ()>(Duration::ZERO);
        let served = server
            .serve_next(Duration::from_millis(5), |()| ())
            .unwrap();
        assert!(!served);
    }
}

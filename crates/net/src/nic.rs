//! Multi-queue NIC model with receive-side scaling (RSS).
//!
//! "Each middlebox runs multiple threads and is equipped with a multi-queue
//! network interface card; a thread receives packets from a NIC's input
//! queue" (paper §2). The dispatcher hashes the symmetric 5-tuple so both
//! directions of a flow reach the same worker, like hardware RSS with a
//! symmetric key.

use crate::transport::Wake;
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use ftc_packet::FlowKey;
use std::time::Duration;

/// A bounded multi-queue receive NIC.
pub struct Nic {
    queues_tx: Vec<Sender<BytesMut>>,
    queues_rx: Vec<Option<Receiver<BytesMut>>>,
    dropped: std::sync::atomic::AtomicU64,
}

impl Nic {
    /// Creates a NIC with `queues` receive queues of `depth` frames each.
    ///
    /// A bounded depth models real NIC rings: when a queue overflows, frames
    /// are dropped and counted, exactly like RX-ring overruns under
    /// overload.
    pub fn new(queues: usize, depth: usize) -> Nic {
        assert!(queues > 0);
        let mut queues_tx = Vec::with_capacity(queues);
        let mut queues_rx = Vec::with_capacity(queues);
        for _ in 0..queues {
            let (tx, rx) = channel::bounded(depth);
            queues_tx.push(tx);
            queues_rx.push(Some(rx));
        }
        Nic {
            queues_tx,
            queues_rx,
            dropped: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of receive queues.
    pub fn queues(&self) -> usize {
        self.queues_tx.len()
    }

    /// Takes ownership of queue `i`'s receiver (each worker thread takes
    /// one). Panics if taken twice.
    pub fn take_queue(&mut self, i: usize) -> Receiver<BytesMut> {
        self.queues_rx[i].take().expect("queue already taken")
    }

    /// The queue a frame belongs to: its symmetric flow hash modulo the
    /// queue count, or queue 0 for frames without a parseable flow (e.g.
    /// propagating packets).
    pub fn rss_queue(&self, frame: &[u8]) -> usize {
        if self.queues_tx.len() == 1 {
            return 0;
        }
        match frame
            .get(ftc_packet::ether::HEADER_LEN..)
            .map(FlowKey::from_ipv4)
        {
            Some(Ok(key)) => (key.rss_hash() % self.queues_tx.len() as u64) as usize,
            _ => 0,
        }
    }

    /// Dispatches a frame to its [`Nic::rss_queue`], dropping and counting
    /// it when the queue is full.
    pub fn dispatch(&self, frame: BytesMut) {
        self.dispatch_to(self.rss_queue(&frame), frame);
    }

    /// Dispatches a frame to a specific queue.
    pub fn dispatch_to(&self, q: usize, frame: BytesMut) {
        match self.queues_tx[q].try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Dispatches to queue `q` with backpressure: blocks until the queue
    /// has room instead of dropping, re-checking `keep_waiting` whenever
    /// [`Nic::waker`] ends the wait.
    ///
    /// Inter-replica frames carry piggyback logs whose loss above the
    /// reliable transport would be unrecoverable, so a server's receive
    /// leader hands link frames to its other workers with this instead of
    /// [`Nic::dispatch_to`]'s drop-on-overrun. Returns false if the frame
    /// was abandoned (queue dead or `keep_waiting` said stop).
    pub fn dispatch_backpressure(
        &self,
        q: usize,
        mut frame: BytesMut,
        mut keep_waiting: impl FnMut() -> bool,
    ) -> bool {
        loop {
            match self.queues_tx[q].send_timeout(frame, Duration::MAX) {
                Ok(()) => return true,
                Err(channel::SendTimeoutError::Timeout(f)) => {
                    if !keep_waiting() {
                        self.dropped
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        return false;
                    }
                    frame = f;
                }
                Err(channel::SendTimeoutError::Disconnected(_)) => {
                    self.dropped
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return false;
                }
            }
        }
    }

    /// A handle that ends every wait on this NIC's queues: a blocked
    /// [`Nic::dispatch_backpressure`] and the workers' receives.
    pub fn waker(&self) -> Wake {
        let queues = self.queues_tx.clone();
        Box::new(move || queues.iter().for_each(Sender::interrupt))
    }

    /// Frames dropped due to queue overflow or dead workers.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;

    fn frame(src_port: u16, dst_port: u16, swap: bool) -> BytesMut {
        let b = UdpPacketBuilder::new();
        let b = if swap {
            b.src(Ipv4Addr::new(10, 0, 0, 2), dst_port)
                .dst(Ipv4Addr::new(10, 0, 0, 1), src_port)
        } else {
            b.src(Ipv4Addr::new(10, 0, 0, 1), src_port)
                .dst(Ipv4Addr::new(10, 0, 0, 2), dst_port)
        };
        b.build().into_bytes()
    }

    #[test]
    fn same_flow_same_queue_both_directions() {
        let mut nic = Nic::new(4, 64);
        let rxs: Vec<_> = (0..4).map(|i| nic.take_queue(i)).collect();
        nic.dispatch(frame(1000, 80, false));
        nic.dispatch(frame(1000, 80, true));
        let counts: Vec<usize> = rxs.iter().map(|r| r.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 2);
        assert_eq!(
            counts.iter().filter(|&&c| c == 2).count(),
            1,
            "both in one queue: {counts:?}"
        );
    }

    #[test]
    fn different_flows_spread() {
        let mut nic = Nic::new(4, 1024);
        let rxs: Vec<_> = (0..4).map(|i| nic.take_queue(i)).collect();
        for port in 0..256 {
            nic.dispatch(frame(10_000 + port, 80, false));
        }
        let used = rxs.iter().filter(|r| !r.is_empty()).count();
        assert!(used >= 3, "RSS failed to spread: {used} queues used");
    }

    #[test]
    fn overflow_counts_drops() {
        let mut nic = Nic::new(1, 4);
        let _rx = nic.take_queue(0);
        for _ in 0..10 {
            nic.dispatch(frame(1, 2, false));
        }
        assert_eq!(nic.dropped(), 6);
    }

    #[test]
    #[should_panic(expected = "queue already taken")]
    fn double_take_panics() {
        let mut nic = Nic::new(1, 4);
        let _a = nic.take_queue(0);
        let _b = nic.take_queue(0);
    }
}

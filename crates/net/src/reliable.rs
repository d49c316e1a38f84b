//! Sequenced reliable delivery over lossy raw links.
//!
//! The paper assumes reliable state transmission between servers: "for
//! reliable state transmission between servers, FTC uses sequence numbers,
//! similar to TCP, to handle out-of-order deliveries and packet drops
//! within the network" (§4.1), and "if a packet is lost, a replica requests
//! its predecessor to retransmit the piggyback log with the lost sequence
//! number" (§4.1). This module implements exactly that: a sender that
//! stamps transport sequence numbers and buffers unacknowledged frames; a
//! receiver that delivers in order, NACKs gaps, and acknowledges progress
//! so the sender can prune.
//!
//! Both halves run over any [`RawLink`] — the deterministic in-process
//! channel or a multiplexed socket stream — and speak the unified
//! [`ftc_packet::frame`] codec (DATA/ACK/NACK kinds), so the reliable
//! machinery is backend-agnostic and the wire bytes are identical across
//! backends. The same machinery that masks simulated loss also recovers
//! from socket resets: a torn connection degrades into silent frame loss
//! while the backend redials, and the RTO/NACK path retransmits whatever
//! the dead connection swallowed.
//!
//! Which links carry it: sockets, every impaired in-process link (loss,
//! reorder, jitter, latency such as a multi-region WAN hop, a bandwidth
//! cap), [`crate::InProcTransport`], and the stepped `SyncChain` the model
//! checkers drive. The threaded chain's unimpaired in-process links — the
//! default single-region deployment — can neither drop nor reorder, so
//! [`crate::link_pair`] gives them a plain channel instead.

use crate::transport::{Disconnected, Endpoint, FrameRx, FrameTx, RawLink, Wake};
use bytes::BytesMut;
use ftc_packet::frame::kind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How often the receiver acknowledges cumulative progress.
const ACK_EVERY: u64 = 32;
/// Sender retransmission timeout for unacknowledged frames.
const DEFAULT_RTO: Duration = Duration::from_millis(5);

/// Statistics for a reliable channel endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames sent (first transmissions).
    pub sent: u64,
    /// Frames retransmitted (NACK- or RTO-triggered).
    pub retransmits: u64,
    /// Frames delivered in order to the application.
    pub delivered: u64,
    /// Duplicate frames discarded.
    pub duplicates: u64,
    /// NACKs sent (receiver) or honoured (sender).
    pub nacks: u64,
}

/// Sending endpoint of a reliable channel.
pub struct ReliableSender {
    link: Box<dyn RawLink>,
    next_seq: u64,
    /// seq → (payload, last transmission time); pruned by cumulative ACKs.
    unacked: BTreeMap<u64, (BytesMut, Instant)>,
    rto: Duration,
    /// Statistics.
    pub stats: ReliableStats,
}

impl ReliableSender {
    /// Wraps a raw link in the sending half of a reliable channel.
    pub fn over(link: Box<dyn RawLink>) -> ReliableSender {
        ReliableSender {
            link,
            next_seq: 0,
            unacked: BTreeMap::new(),
            rto: DEFAULT_RTO,
            stats: ReliableStats::default(),
        }
    }

    /// Sends a payload with the next sequence number.
    pub fn send(&mut self, payload: BytesMut) -> Result<(), Disconnected> {
        self.process_control()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.link.send_frame(kind::DATA, seq, &payload)?;
        self.unacked.insert(seq, (payload, crate::clock::now()));
        self.stats.sent += 1;
        Ok(())
    }

    /// Handles incoming ACK/NACK control frames and performs RTO-based
    /// retransmission. Call periodically (e.g. on idle).
    pub fn poll(&mut self) -> Result<(), Disconnected> {
        self.process_control()?;
        let now = crate::clock::now();
        let mut due: Vec<u64> = Vec::new();
        for (&seq, (_, last)) in &self.unacked {
            if now.duration_since(*last) >= self.rto {
                due.push(seq);
            }
        }
        // Bug fixture for the async-transport model checker: the moment a
        // retransmission comes due, forget the resend queue instead. Any
        // frame whose first transmission was swallowed by a reset is then
        // acknowledged-by-nobody and never delivered — the checker's T3
        // property must catch this with a replayable witness.
        #[cfg(feature = "sabotage-drop-resend")]
        if !due.is_empty() {
            self.unacked.clear();
            return Ok(());
        }
        for seq in due {
            self.retransmit(seq)?;
        }
        Ok(())
    }

    /// When the oldest unacknowledged frame's retransmission timeout
    /// expires; `None` while every frame is acknowledged.
    pub fn deadline(&self) -> Option<Instant> {
        self.unacked
            .values()
            .map(|(_, last)| *last + self.rto)
            .min()
    }

    /// Number of frames awaiting acknowledgment.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    fn process_control(&mut self) -> Result<(), Disconnected> {
        while let Some(frame) = self.link.try_recv_frame()? {
            match frame.kind {
                kind::ACK => {
                    // Cumulative: everything < seq received.
                    self.unacked = self.unacked.split_off(&frame.seq);
                }
                kind::NACK => {
                    self.stats.nacks += 1;
                    self.retransmit(frame.seq)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn retransmit(&mut self, seq: u64) -> Result<(), Disconnected> {
        if let Some((payload, last)) = self.unacked.get_mut(&seq) {
            *last = crate::clock::now();
            self.stats.retransmits += 1;
            self.link.send_frame(kind::DATA, seq, payload)?;
        }
        Ok(())
    }
}

impl FrameTx for ReliableSender {
    fn send(&mut self, payload: BytesMut) -> Result<(), Disconnected> {
        ReliableSender::send(self, payload)
    }

    fn poll(&mut self) -> Result<(), Disconnected> {
        ReliableSender::poll(self)
    }

    fn deadline(&self) -> Option<Instant> {
        ReliableSender::deadline(self)
    }

    fn in_flight(&self) -> usize {
        self.unacked_len()
    }
}

/// Receiving endpoint of a reliable channel.
pub struct ReliableReceiver {
    link: Box<dyn RawLink>,
    /// Next expected sequence number.
    expected: u64,
    /// Out-of-order frames waiting for the gap to fill.
    ooo: BTreeMap<u64, BytesMut>,
    /// In-order frames ready for the application.
    ready: std::collections::VecDeque<BytesMut>,
    /// Sequences we have NACKed and when, to avoid NACK storms.
    nacked: BTreeMap<u64, Instant>,
    /// Statistics.
    pub stats: ReliableStats,
}

impl ReliableReceiver {
    /// Wraps a raw link in the receiving half of a reliable channel.
    pub fn over(link: Box<dyn RawLink>) -> ReliableReceiver {
        ReliableReceiver {
            link,
            expected: 0,
            ooo: BTreeMap::new(),
            ready: std::collections::VecDeque::new(),
            nacked: BTreeMap::new(),
            stats: ReliableStats::default(),
        }
    }

    /// Receives the next in-order payload, waiting up to `timeout`
    /// (`Duration::MAX`: no deadline).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected> {
        let deadline = crate::clock::now().checked_add(timeout);
        loop {
            if let Some(p) = self.ready.pop_front() {
                return Ok(Some(p));
            }
            let budget = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(crate::clock::now())
            });
            match self.link.recv_frame(budget)? {
                Some(frame) => self.ingest(frame.kind, frame.seq, &frame.payload)?,
                None => return Ok(None),
            }
        }
    }

    /// Number of out-of-order frames parked.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }

    fn ingest(&mut self, fkind: u8, seq: u64, payload: &[u8]) -> Result<(), Disconnected> {
        if fkind != kind::DATA {
            return Ok(());
        }
        if seq < self.expected || self.ooo.contains_key(&seq) {
            self.stats.duplicates += 1;
            // A duplicate means the sender has not seen our progress (its
            // RTO fired). Re-acknowledge immediately, otherwise a burst
            // that ends short of the next ACK_EVERY boundary is
            // retransmitted forever on an idle link.
            self.link.send_frame(kind::ACK, self.expected, &[])?;
            return Ok(());
        }
        self.ooo.insert(seq, BytesMut::from(payload));
        // Deliver the contiguous prefix.
        while let Some(p) = self.ooo.remove(&self.expected) {
            self.ready.push_back(p);
            self.nacked.remove(&self.expected);
            self.expected += 1;
            self.stats.delivered += 1;
            if self.expected.is_multiple_of(ACK_EVERY) {
                self.link.send_frame(kind::ACK, self.expected, &[])?;
            }
        }
        // NACK any remaining gap ("request the predecessor to retransmit").
        if let Some((&first_ooo, _)) = self.ooo.iter().next() {
            let now = crate::clock::now();
            for missing in self.expected..first_ooo {
                let stale = self
                    .nacked
                    .get(&missing)
                    .is_none_or(|t| now.duration_since(*t) > DEFAULT_RTO);
                if stale {
                    self.nacked.insert(missing, now);
                    self.stats.nacks += 1;
                    self.link.send_frame(kind::NACK, missing, &[])?;
                }
            }
        }
        Ok(())
    }
}

impl FrameRx for ReliableReceiver {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<BytesMut>, Disconnected> {
        ReliableReceiver::recv_timeout(self, timeout)
    }

    fn waker(&self) -> Wake {
        self.link.waker()
    }
}

/// Creates a reliable channel over an in-process duplex link described by
/// `ep` (stream id 0). Socket-backed channels are wired through
/// [`crate::sock::SockTransport`] instead.
pub fn reliable_pair(ep: &Endpoint) -> (ReliableSender, ReliableReceiver) {
    reliable_pair_on(ep, 0)
}

/// Like [`reliable_pair`], tagging frames with an explicit stream id so
/// tests can compare wire bytes against a socket backend's stream.
pub fn reliable_pair_on(ep: &Endpoint, stream: u16) -> (ReliableSender, ReliableReceiver) {
    let (a, b) = crate::transport::raw_pair(ep, stream);
    (
        ReliableSender::over(Box::new(a)),
        ReliableReceiver::over(Box::new(b)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u32) -> BytesMut {
        BytesMut::from(&i.to_be_bytes()[..])
    }

    fn read_u32(b: &[u8]) -> u32 {
        u32::from_be_bytes(b[..4].try_into().unwrap())
    }

    #[test]
    fn in_order_delivery_over_ideal_link() {
        let (mut tx, mut rx) = reliable_pair(&Endpoint::in_proc());
        for i in 0..100 {
            tx.send(payload(i)).unwrap();
        }
        for i in 0..100 {
            let p = rx
                .recv_timeout(Duration::from_millis(100))
                .unwrap()
                .unwrap();
            assert_eq!(read_u32(&p), i);
        }
        assert_eq!(rx.stats.delivered, 100);
        assert_eq!(rx.stats.nacks, 0);
    }

    #[test]
    fn recovers_from_heavy_loss_and_reorder() {
        let (mut tx, mut rx) = reliable_pair(&Endpoint::lossy(0.25, 0.2, 99));
        let n = 400u32;
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut sent = 0;
        while got.len() < n as usize {
            assert!(
                Instant::now() < deadline,
                "did not converge: {} of {n}",
                got.len()
            );
            if sent < n {
                tx.send(payload(sent)).unwrap();
                sent += 1;
            }
            tx.poll().unwrap();
            while let Some(p) = rx.recv_timeout(Duration::from_micros(200)).unwrap() {
                got.push(read_u32(&p));
            }
        }
        let expect: Vec<u32> = (0..n).collect();
        assert_eq!(got, expect, "delivery must be gapless and in order");
        assert!(
            tx.stats.retransmits > 0,
            "loss must have caused retransmits"
        );
    }

    #[test]
    fn acks_prune_sender_buffer() {
        let (mut tx, mut rx) = reliable_pair(&Endpoint::in_proc());
        let n = 4 * ACK_EVERY as u32;
        for i in 0..n {
            tx.send(payload(i)).unwrap();
        }
        for _ in 0..n {
            rx.recv_timeout(Duration::from_millis(50)).unwrap().unwrap();
        }
        tx.poll().unwrap();
        assert!(
            (tx.unacked_len() as u64) < ACK_EVERY + 1,
            "unacked {} not pruned",
            tx.unacked_len()
        );
    }

    #[test]
    fn idle_tail_window_stops_retransmitting() {
        // Regression: a burst smaller than ACK_EVERY used to retransmit
        // forever on an idle link because the receiver only ACKed at
        // 32-boundaries; duplicates now trigger an immediate re-ACK.
        let (mut tx, mut rx) = reliable_pair(&Endpoint::in_proc());
        for i in 0..5u32 {
            tx.send(BytesMut::from(&i.to_be_bytes()[..])).unwrap();
        }
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_millis(50)).unwrap().unwrap();
        }
        // First RTO: the sender retransmits the unACKed tail once…
        std::thread::sleep(DEFAULT_RTO + Duration::from_millis(1));
        tx.poll().unwrap();
        // …the receiver re-ACKs on the duplicates…
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        // …and after the ACK lands the sender's buffer is empty: further
        // polls retransmit nothing.
        tx.poll().unwrap();
        assert_eq!(tx.unacked_len(), 0, "tail window must be pruned");
        let before = tx.stats.retransmits;
        std::thread::sleep(DEFAULT_RTO + Duration::from_millis(1));
        tx.poll().unwrap();
        assert_eq!(tx.stats.retransmits, before, "no further retransmissions");
    }

    #[test]
    fn duplicates_are_discarded() {
        // Force duplicates via RTO retransmission on a slow-ACK path.
        let (mut tx, mut rx) = reliable_pair(&Endpoint::in_proc());
        tx.send(payload(1)).unwrap();
        std::thread::sleep(DEFAULT_RTO + Duration::from_millis(1));
        tx.poll().unwrap(); // retransmits seq 0
        let p = rx.recv_timeout(Duration::from_millis(50)).unwrap().unwrap();
        assert_eq!(read_u32(&p), 1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        assert_eq!(rx.stats.duplicates, 1);
        assert_eq!(rx.stats.delivered, 1);
    }
}

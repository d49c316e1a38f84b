//! The chain ingress element (paper §5.1).
//!
//! The forwarder "receives incoming packets from the outside world and
//! piggyback messages from the buffer" and "adds state updates from the
//! buffer to incoming packets before forwarding the packets to the first
//! middlebox". During idle periods it emits *propagating packets* so held
//! state keeps flowing.
//!
//! The forwarder has no thread of its own: it shares server 0 (§3.2), so
//! the server's data-plane loop ([`crate::dataplane`]) calls
//! [`ForwarderState::prepare_ingress`] on each ingress frame and hands the
//! result to the first replica on the same thread. Feedback from the buffer
//! is only ever *used* at two instants — when logs are staged for the next
//! ingress packet and when the propagate time-out fires — so the loop
//! drains the feedback link into [`ForwarderState::ingest_feedback`] at
//! those two instants and nowhere else.

use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeSlot};
use bytes::BytesMut;
use ftc_net::nic::Nic;
use ftc_packet::ether::MacAddr;
use ftc_packet::piggyback::{PiggybackLog, PiggybackMessage};
use ftc_packet::pool::{log_vec_pool, Checkout, Pool};
use ftc_packet::{packet, Packet};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Maximum feedback logs attached to a single packet; the rest wait for the
/// next packet (bounds trailer growth).
pub const MAX_LOGS_PER_PACKET: usize = 32;

/// Shared forwarder state.
pub struct ForwarderState {
    /// Feedback piggyback logs awaiting a carrier packet.
    pending: Mutex<VecDeque<PiggybackLog>>,
    /// Recycled staging vectors for attaching pending logs to carriers:
    /// steady state drains into a pooled vector and returns it after the
    /// trailer is encoded, so per-packet attachment allocates nothing.
    staging: Pool<Vec<PiggybackLog>>,
    metrics: Arc<ChainMetrics>,
    /// Model-checker hook: observes feedback ingestion (the wrapped-log leg
    /// of the ring the I1/I4 invariants reason over).
    pub probe: ProbeSlot,
}

impl ForwarderState {
    /// Creates forwarder state.
    pub fn new(metrics: Arc<ChainMetrics>) -> Arc<ForwarderState> {
        Arc::new(ForwarderState {
            pending: Mutex::new(VecDeque::new()),
            staging: log_vec_pool(8),
            metrics,
            probe: ProbeSlot::new(),
        })
    }

    /// Ingests a feedback message from the buffer.
    ///
    /// The frame is decoded once, zero-copy: the pended logs' keys/values
    /// share the frame's allocation. A frame that does not decode is
    /// dropped; the decoder allocates no more than its bytes could hold.
    pub fn ingest_feedback(&self, frame: BytesMut) {
        let Ok(Some((msg, _))) = PiggybackMessage::decode_trailing(&frame.freeze()) else {
            return;
        };
        let mut pending = self.pending.lock();
        pending.extend(msg.logs);
        let logs = pending.len();
        drop(pending);
        self.probe
            .observe_with(|| ProbePoint::ForwarderFeedback { logs });
    }

    /// Number of feedback logs waiting for a carrier.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Discards pending feedback logs. Called when the buffer is respawned
    /// after a last-server failure: the old logs belong to transactions of
    /// the dead replica whose packets were never released, and their
    /// sequence numbers will be reissued by the replacement — mixing the
    /// two histories would race stale content against fresh content.
    pub fn clear_pending(&self) {
        self.pending.lock().clear();
    }

    /// Drains up to [`MAX_LOGS_PER_PACKET`] pending logs into a pooled
    /// staging vector for the next carrier packet.
    fn stage_pending(&self) -> Checkout<Vec<PiggybackLog>> {
        let mut staged = self.staging.checkout();
        let mut pending = self.pending.lock();
        let take = pending.len().min(MAX_LOGS_PER_PACKET);
        staged.extend(pending.drain(..take));
        staged
    }

    /// Prepares one external packet for the first replica: parse, attach
    /// pending feedback, count and journal. `None` when the frame is dropped
    /// at ingress. The data-plane loop of server 0 passes the result straight
    /// to the replica on the same thread.
    pub fn prepare_ingress(&self, frame: BytesMut) -> Option<BytesMut> {
        let t0 = Instant::now();
        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return None; // not IPv4: drop at ingress
        };
        let staged = self.stage_pending();
        if pkt.attach_piggyback_parts(0, &staged, &[]).is_err() {
            return None; // staged logs die with the packet (resent by the buffer)
        }
        drop(staged); // back to the pool, cleared
        self.metrics.injected.fetch_add(1, Ordering::Relaxed);
        self.metrics.t_forwarder.record(t0.elapsed());
        self.metrics
            .journal
            .record(EventSource::Forwarder, EventKind::PacketInjected);
        Some(pkt.into_bytes())
    }

    /// Builds a propagating packet if feedback is pending (idle-timer path).
    pub fn prepare_propagating(&self) -> Option<BytesMut> {
        if self.pending.lock().is_empty() {
            return None;
        }
        let staged = self.stage_pending();
        let prop = packet::propagating_packet_from_logs(
            MacAddr::from_index(0xF0),
            MacAddr::from_index(0xF1),
            &staged,
        );
        self.metrics.propagating.fetch_add(1, Ordering::Relaxed);
        Some(prop.into_bytes())
    }

    /// [`Self::prepare_ingress`], then dispatch into `nic` — the stepped
    /// form (`SyncChain`, the benchmark's traced pass), where the first
    /// replica is a separate step.
    pub fn handle_ingress(&self, frame: BytesMut, nic: &Nic) {
        if let Some(frame) = self.prepare_ingress(frame) {
            nic.dispatch(frame);
        }
    }

    /// [`Self::prepare_propagating`], then dispatch into `nic` (stepped
    /// form). Returns whether a packet was emitted.
    pub fn emit_propagating(&self, nic: &Nic) -> bool {
        self.prepare_propagating()
            .map(|frame| nic.dispatch(frame))
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{DepVector, MboxId};
    use std::time::Duration;

    fn feedback_frame(n_logs: usize) -> BytesMut {
        let logs = (0..n_logs)
            .map(|i| PiggybackLog {
                mbox: MboxId(7),
                deps: DepVector::from_entries(vec![(0, i as u64)]).unwrap(),
                writes: vec![],
            })
            .collect();
        let msg = PiggybackMessage {
            flags: 0,
            logs,
            commits: vec![],
        };
        let mut b = BytesMut::new();
        msg.encode(&mut b);
        b
    }

    fn take_one(nic_rx: &crossbeam::channel::Receiver<BytesMut>) -> (Packet, PiggybackMessage) {
        let frame = nic_rx.recv_timeout(Duration::from_millis(100)).unwrap();
        let mut pkt = Packet::from_frame(frame).unwrap();
        let msg = pkt.detach_piggyback().unwrap().unwrap_or_default();
        (pkt, msg)
    }

    #[test]
    fn ingress_attaches_pending_feedback() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(metrics);
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.ingest_feedback(feedback_frame(3));
        assert_eq!(fwd.pending_len(), 3);
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, msg) = take_one(&rx);
        assert_eq!(msg.logs.len(), 3);
        assert!(!msg.is_propagating());
        assert_eq!(fwd.pending_len(), 0);
    }

    #[test]
    fn feedback_overflow_spreads_across_packets() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(metrics);
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.ingest_feedback(feedback_frame(MAX_LOGS_PER_PACKET + 5));
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, m1) = take_one(&rx);
        assert_eq!(m1.logs.len(), MAX_LOGS_PER_PACKET);
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, m2) = take_one(&rx);
        assert_eq!(m2.logs.len(), 5);
    }

    #[test]
    fn idle_propagating_packet_carries_feedback() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        assert!(!fwd.emit_propagating(&nic), "nothing pending: no packet");
        fwd.ingest_feedback(feedback_frame(2));
        assert!(fwd.emit_propagating(&nic));
        let (_, msg) = take_one(&rx);
        assert!(msg.is_propagating());
        assert_eq!(msg.logs.len(), 2);
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn garbage_ingress_dropped() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.handle_ingress(BytesMut::from(&b"junk"[..]), &nic);
        assert!(rx.try_recv().is_err());
        assert_eq!(metrics.injected.load(Ordering::Relaxed), 0);
    }
}

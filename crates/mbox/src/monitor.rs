//! The Monitor middlebox: read/write-heavy shared counters.
//!
//! "Monitor is a read/write heavy middlebox that counts the number of
//! packets in a flow or across flows. It takes a *sharing level* parameter
//! that specifies the number of threads sharing the same state variable"
//! (paper §7.1). With sharing level 1 no state is shared between threads;
//! with sharing level = thread count all threads contend on one counter.

use crate::key::StateKey;
use crate::middlebox::{Action, Middlebox, ProcCtx};
use bytes::Bytes;
use ftc_packet::Packet;
use ftc_stm::{StateTxn, TxnError};

/// Packet/byte counting middlebox with configurable state sharing.
#[derive(Debug)]
pub struct Monitor {
    sharing_level: usize,
    per_flow: bool,
}

impl Monitor {
    /// Creates a monitor where groups of `sharing_level` worker threads
    /// share one counter variable.
    pub fn new(sharing_level: usize) -> Monitor {
        assert!(sharing_level >= 1, "sharing level must be at least 1");
        Monitor {
            sharing_level,
            per_flow: false,
        }
    }

    /// Additionally counts packets **per flow** (Table 1: Monitor "counts
    /// the number of packets in a flow or across flows"). Per-flow counters
    /// are partitionable state — only one thread touches each — so they add
    /// writes without adding contention.
    pub fn with_per_flow(mut self) -> Monitor {
        self.per_flow = true;
        self
    }

    /// The counter key a given worker updates.
    pub fn counter_key(&self, worker: usize) -> Bytes {
        self.group_key("mon:packets:g", worker)
    }

    /// The byte-counter key a given worker updates.
    pub(crate) fn bytes_key(&self, worker: usize) -> Bytes {
        self.group_key("mon:bytes:g", worker)
    }

    fn group_key(&self, prefix: &str, worker: usize) -> Bytes {
        let group = worker / self.sharing_level;
        StateKey::new(prefix).dec(group as u64).build()
    }

    /// The per-flow counter key.
    pub fn flow_key_counter(key: &ftc_packet::FlowKey) -> Bytes {
        StateKey::new("mon:flow:").flow(key).build()
    }
}

impl Middlebox for Monitor {
    fn name(&self) -> &str {
        "Monitor"
    }

    fn process(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        ctx: ProcCtx,
    ) -> Result<Action, TxnError> {
        // Shared group counter: one read + one write per packet.
        let key = self.counter_key(ctx.worker);
        let count = txn.read_u64(&key)?.unwrap_or(0);
        txn.write_u64(key, count + 1)?;
        // Byte counter in the same group variable family.
        let bytes_key = self.bytes_key(ctx.worker);
        let total = txn.read_u64(&bytes_key)?.unwrap_or(0);
        txn.write_u64(bytes_key, total + pkt.wire_len() as u64)?;
        // Optional per-flow counter (partitionable state).
        if self.per_flow {
            if let Ok(flow) = pkt.flow_key() {
                let fk = Self::flow_key_counter(&flow);
                let c = txn.read_u64(&fk)?.unwrap_or(0);
                txn.write_u64(fk, c + 1)?;
            }
        }
        Ok(Action::Forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_stm::StateStore;
    use std::sync::Arc;

    #[test]
    fn counts_packets_per_group() {
        let store = StateStore::new(32);
        let mon = Monitor::new(2); // workers {0,1} share g0; {2,3} share g1
        for worker in 0..4 {
            for _ in 0..5 {
                let mut pkt = UdpPacketBuilder::new().build();
                let out = store
                    .transaction(|txn| mon.process(&mut pkt, txn, ProcCtx { worker, workers: 4 }));
                assert_eq!(out.value, Action::Forward);
                assert!(out.log.is_some(), "monitor writes per packet");
            }
        }
        assert_eq!(store.peek_u64(b"mon:packets:g0"), Some(10));
        assert_eq!(store.peek_u64(b"mon:packets:g1"), Some(10));
    }

    #[test]
    fn byte_counter_tracks_wire_len() {
        let store = StateStore::new(32);
        let mon = Monitor::new(1);
        let mut pkt = UdpPacketBuilder::new().frame_len(256).build();
        store.transaction(|txn| mon.process(&mut pkt, txn, ProcCtx::single()));
        assert_eq!(store.peek_u64(b"mon:bytes:g0"), Some(256));
    }

    #[test]
    fn sharing_level_full_contention_is_correct() {
        // All 4 workers share one counter; concurrent increments must not
        // lose updates (the transactional guarantee the paper leans on).
        let store = Arc::new(StateStore::new(32));
        let mon = Arc::new(Monitor::new(4));
        let mut handles = Vec::new();
        for worker in 0..4 {
            let store = Arc::clone(&store);
            let mon = Arc::clone(&mon);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    let mut pkt = UdpPacketBuilder::new().build();
                    store.transaction(|txn| {
                        mon.process(&mut pkt, txn, ProcCtx { worker, workers: 4 })
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.peek_u64(b"mon:packets:g0"), Some(1000));
    }

    #[test]
    #[should_panic(expected = "sharing level")]
    fn zero_sharing_level_rejected() {
        Monitor::new(0);
    }

    #[test]
    fn per_flow_mode_counts_each_flow() {
        let store = StateStore::new(32);
        let mon = Monitor::new(1).with_per_flow();
        let mk = |port: u16| {
            UdpPacketBuilder::new()
                .src(std::net::Ipv4Addr::new(10, 0, 0, 9), port)
                .dst(std::net::Ipv4Addr::new(10, 1, 1, 1), 80)
                .build()
        };
        for _ in 0..3 {
            let mut p = mk(1000);
            store.transaction(|txn| mon.process(&mut p, txn, ProcCtx::single()));
        }
        let mut q = mk(2000);
        store.transaction(|txn| mon.process(&mut q, txn, ProcCtx::single()));
        let flow_a = Monitor::flow_key_counter(&mk(1000).flow_key().unwrap());
        let flow_b = Monitor::flow_key_counter(&mk(2000).flow_key().unwrap());
        assert_eq!(store.peek_u64(&flow_a), Some(3));
        assert_eq!(store.peek_u64(&flow_b), Some(1));
        assert_eq!(store.peek_u64(b"mon:packets:g0"), Some(4));
    }
}

//! A connection-persistent L4 load balancer.
//!
//! The paper repeatedly uses the load balancer as its motivating example of
//! shared middlebox state: "a load balancer and a NAT ensure connection
//! persistence (i.e., a connection is always directed to a unique
//! destination) while accessing a shared flow table" (§3.2). This is that
//! middlebox: new connections pick a backend round-robin from a shared
//! counter; established connections stick to their backend.

use crate::key::StateKey;
use crate::middlebox::{Action, Middlebox, ProcCtx};
use crate::nat::rewrite_dst;
use bytes::Bytes;
use ftc_packet::{FlowKey, Packet};
use ftc_stm::{StateTxn, TxnError};
use std::net::Ipv4Addr;

/// Round-robin, connection-persistent load balancer.
#[derive(Debug)]
pub struct LoadBalancer {
    backends: Vec<Ipv4Addr>,
}

impl LoadBalancer {
    /// Creates a balancer over the given backends.
    pub fn new(backends: Vec<Ipv4Addr>) -> LoadBalancer {
        assert!(!backends.is_empty(), "need at least one backend");
        LoadBalancer { backends }
    }

    pub(crate) fn conn_key(key: &FlowKey) -> Bytes {
        StateKey::new("lb:conn:").flow(key).build()
    }
}

/// Shared round-robin cursor key.
const RR_KEY: &[u8] = b"lb:rr";

impl Middlebox for LoadBalancer {
    fn name(&self) -> &str {
        "LoadBalancer"
    }

    fn process(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        _ctx: ProcCtx,
    ) -> Result<Action, TxnError> {
        let Ok(key) = pkt.flow_key() else {
            return Ok(Action::Drop);
        };
        let ckey = Self::conn_key(&key);
        let backend_idx = match txn.read_u64(&ckey)? {
            Some(idx) => idx as usize,
            None => {
                let rr = txn.read_u64(RR_KEY)?.unwrap_or(0);
                txn.write_u64(Bytes::from_static(RR_KEY), rr + 1)?;
                let idx = (rr % self.backends.len() as u64) as usize;
                txn.write_u64(ckey, idx as u64)?;
                idx
            }
        };
        let backend = self.backends[backend_idx % self.backends.len()];
        if rewrite_dst(pkt, backend, key.dst_port).is_err() {
            return Ok(Action::Drop);
        }
        Ok(Action::Forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_stm::StateStore;

    fn backends() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 2),
            Ipv4Addr::new(10, 1, 0, 3),
        ]
    }

    fn client_pkt(port: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(172, 16, 0, 9), port)
            .dst(Ipv4Addr::new(203, 0, 113, 80), 80)
            .build()
    }

    #[test]
    fn new_connections_round_robin() {
        let store = StateStore::new(32);
        let lb = LoadBalancer::new(backends());
        let mut seen = Vec::new();
        for port in 0..6 {
            let mut pkt = client_pkt(20_000 + port);
            store.transaction(|txn| lb.process(&mut pkt, txn, ProcCtx::single()));
            seen.push(pkt.flow_key().unwrap().dst_ip);
        }
        assert_eq!(&seen[0..3], &backends()[..]);
        assert_eq!(&seen[3..6], &backends()[..], "cursor wraps");
    }

    #[test]
    fn connection_persistence() {
        let store = StateStore::new(32);
        let lb = LoadBalancer::new(backends());
        let mut first = client_pkt(31_000);
        store.transaction(|txn| lb.process(&mut first, txn, ProcCtx::single()));
        let chosen = first.flow_key().unwrap().dst_ip;
        for _ in 0..10 {
            let mut pkt = client_pkt(31_000);
            let out = store.transaction(|txn| lb.process(&mut pkt, txn, ProcCtx::single()));
            assert_eq!(pkt.flow_key().unwrap().dst_ip, chosen);
            assert!(out.log.is_none(), "established connection is read-only");
        }
    }

    #[test]
    fn concurrent_new_flows_balance_exactly() {
        use std::collections::HashMap;
        use std::sync::Arc;
        let store = Arc::new(StateStore::new(32));
        let lb = Arc::new(LoadBalancer::new(backends()));
        let mut handles = Vec::new();
        for t in 0..3 {
            let store = Arc::clone(&store);
            let lb = Arc::clone(&lb);
            handles.push(std::thread::spawn(move || {
                let mut picks = Vec::new();
                for i in 0..60u16 {
                    let mut pkt = client_pkt(40_000 + t * 1000 + i);
                    store.transaction(|txn| lb.process(&mut pkt, txn, ProcCtx::single()));
                    picks.push(pkt.flow_key().unwrap().dst_ip);
                }
                picks
            }));
        }
        let mut counts: HashMap<Ipv4Addr, usize> = HashMap::new();
        for h in handles {
            for ip in h.join().unwrap() {
                *counts.entry(ip).or_default() += 1;
            }
        }
        // 180 distinct flows, shared round-robin counter: exact 60/60/60.
        assert_eq!(counts.len(), 3);
        assert!(counts.values().all(|&c| c == 60), "counts: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backends_rejected() {
        LoadBalancer::new(vec![]);
    }
}

//! An intrusion detection system middlebox.
//!
//! The paper's canonical chain is "an intrusion detection system, a
//! firewall, and a network address translator" (§1), and its example of
//! *shared* middlebox state is "port-counts in an intrusion detection
//! system" (§2). This IDS implements both classic detections over the FTC
//! state API, so its verdicts survive failover:
//!
//! * **Port-scan detection** — per-source tracking of distinct destination
//!   ports; a source contacting more than `scan_threshold` ports is
//!   blocked (a per-flow-ish state pattern).
//! * **Signature matching** — payload byte patterns; matches increment a
//!   *shared* alert counter (the §2 shared-variable pattern) and drop the
//!   packet.

use crate::key::StateKey;
use crate::middlebox::{Action, Middlebox, ProcCtx};
use bytes::Bytes;
use ftc_packet::{l4, Packet};
use ftc_stm::{StateTxn, TxnError};
use std::net::Ipv4Addr;

/// Maximum distinct ports remembered per source (bounded state).
const MAX_TRACKED_PORTS: usize = 32;

/// Signature/port-scan intrusion detection.
#[derive(Debug)]
pub struct Ids {
    scan_threshold: usize,
    signatures: Vec<Vec<u8>>,
}

/// Shared alert counter key — all workers contend on this variable.
pub const ALERTS_KEY: &[u8] = b"ids:alerts";

impl Ids {
    /// Creates an IDS that blocks sources contacting more than
    /// `scan_threshold` distinct ports and drops packets matching any of
    /// `signatures`.
    pub fn new(scan_threshold: usize, signatures: Vec<Vec<u8>>) -> Ids {
        assert!(scan_threshold >= 1);
        Ids {
            scan_threshold,
            signatures,
        }
    }

    pub(crate) fn ports_key(src: Ipv4Addr) -> Bytes {
        StateKey::new("ids:ports:").ip(src).build()
    }

    pub(crate) fn blocked_key(src: Ipv4Addr) -> Bytes {
        StateKey::new("ids:blocked:").ip(src).build()
    }

    /// Decodes the tracked port set (2 bytes per port, big endian).
    fn decode_ports(v: &[u8]) -> Vec<u16> {
        v.chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect()
    }

    fn encode_ports(ports: &[u16]) -> Bytes {
        let mut out = Vec::with_capacity(ports.len() * 2);
        for p in ports {
            out.extend_from_slice(&p.to_be_bytes());
        }
        Bytes::from(out)
    }

    fn payload_matches(&self, payload: &[u8]) -> bool {
        self.signatures
            .iter()
            .any(|sig| !sig.is_empty() && payload.windows(sig.len()).any(|w| w == &sig[..]))
    }
}

impl Middlebox for Ids {
    fn name(&self) -> &str {
        "IDS"
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

        // 1. Previously flagged scanners stay blocked.
        let bkey = Self::blocked_key(key.src_ip);
        if txn.read(&bkey)?.is_some() {
            return Ok(Action::Drop);
        }

        // 2. Signature scan over the application payload.
        if !self.signatures.is_empty() {
            let payload = pkt
                .l4()
                .ok()
                .and_then(|l4| match key.protocol {
                    ftc_packet::ip::PROTO_UDP => l4.get(l4::UDP_HEADER_LEN..),
                    ftc_packet::ip::PROTO_TCP => l4.get(l4::TCP_HEADER_LEN..),
                    _ => None,
                })
                .map(|p| p.to_vec());
            if let Some(payload) = payload {
                if self.payload_matches(&payload) {
                    // Shared alert counter: the §2 contention pattern.
                    let alerts = txn.read_u64(ALERTS_KEY)?.unwrap_or(0);
                    txn.write_u64(Bytes::from_static(ALERTS_KEY), alerts + 1)?;
                    return Ok(Action::Drop);
                }
            }
        }

        // 3. Port-scan tracking (ports only exist for TCP/UDP).
        if key.dst_port != 0 {
            let pkey = Self::ports_key(key.src_ip);
            let mut ports = txn
                .read(&pkey)?
                .map(|v| Self::decode_ports(&v))
                .unwrap_or_default();
            if !ports.contains(&key.dst_port) {
                ports.push(key.dst_port);
                ports.truncate(MAX_TRACKED_PORTS);
                if ports.len() > self.scan_threshold {
                    txn.write(bkey, Bytes::from_static(b"1"))?;
                    txn.delete(pkey)?;
                    return Ok(Action::Drop);
                }
                txn.write(pkey, Self::encode_ports(&ports))?;
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

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 66, 6, 6);

    fn run(store: &StateStore, ids: &Ids, pkt: &mut Packet) -> Action {
        store
            .transaction(|txn| ids.process(pkt, txn, ProcCtx::single()))
            .value
    }

    fn to_port(port: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(SRC, 40000)
            .dst(Ipv4Addr::new(10, 1, 1, 1), port)
            .build()
    }

    #[test]
    fn port_scanner_gets_blocked() {
        let store = StateStore::new(32);
        let ids = Ids::new(5, vec![]);
        // 5 distinct ports pass…
        for p in 1..=5 {
            assert_eq!(
                run(&store, &ids, &mut to_port(p)),
                Action::Forward,
                "port {p}"
            );
        }
        // …the 6th crosses the threshold and is dropped…
        assert_eq!(run(&store, &ids, &mut to_port(6)), Action::Drop);
        // …and the source stays blocked, even on previously-allowed ports.
        assert_eq!(run(&store, &ids, &mut to_port(1)), Action::Drop);
        assert!(store
            .peek(format!("ids:blocked:{SRC}").as_bytes())
            .is_some());
    }

    #[test]
    fn repeat_ports_do_not_count_towards_the_scan() {
        let store = StateStore::new(32);
        let ids = Ids::new(3, vec![]);
        for _ in 0..20 {
            assert_eq!(run(&store, &ids, &mut to_port(80)), Action::Forward);
        }
        // Repeats are read-mostly: only the first write recorded the port.
        assert_eq!(run(&store, &ids, &mut to_port(443)), Action::Forward);
    }

    #[test]
    fn signature_match_drops_and_counts() {
        let store = StateStore::new(32);
        let ids = Ids::new(100, vec![b"EVIL".to_vec()]);
        let mut bad = UdpPacketBuilder::new()
            .src(SRC, 40000)
            .dst(Ipv4Addr::new(10, 1, 1, 1), 80)
            .payload_len(32)
            .build();
        {
            let l4 = bad.l4_mut().unwrap();
            l4[l4::UDP_HEADER_LEN + 5..l4::UDP_HEADER_LEN + 9].copy_from_slice(b"EVIL");
        }
        assert_eq!(run(&store, &ids, &mut bad), Action::Drop);
        assert_eq!(store.peek_u64(ALERTS_KEY), Some(1));
        // A clean packet passes and the counter is untouched.
        assert_eq!(run(&store, &ids, &mut to_port(80)), Action::Forward);
        assert_eq!(store.peek_u64(ALERTS_KEY), Some(1));
    }

    #[test]
    fn alert_counter_is_correct_under_concurrency() {
        use std::sync::Arc;
        let store = Arc::new(StateStore::new(32));
        let ids = Arc::new(Ids::new(1000, vec![b"X-ATTACK".to_vec()]));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            let ids = Arc::clone(&ids);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u16 {
                    let mut pkt = UdpPacketBuilder::new()
                        .src(Ipv4Addr::new(10, 0, t, 1), 30000 + i)
                        .dst(Ipv4Addr::new(10, 1, 1, 1), 80)
                        .payload_len(16)
                        .build();
                    let l4 = pkt.l4_mut().unwrap();
                    l4[l4::UDP_HEADER_LEN..l4::UDP_HEADER_LEN + 8].copy_from_slice(b"X-ATTACK");
                    store.transaction(|txn| ids.process(&mut pkt, txn, ProcCtx::single()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            store.peek_u64(ALERTS_KEY),
            Some(200),
            "no alert may be lost"
        );
    }
}

//! MazuNAT: the core of a commercial NAT (after Click's `mazu-nat.click`).
//!
//! Compared to [`super::SimpleNat`] it adds the behaviours the Click
//! configuration implements with `IPRewriter`: per-protocol port pools,
//! TCP connection-teardown handling (mappings are removed when the internal
//! host resets or both sides finish), and pass-through for ICMP and other
//! non-port protocols. The state access pattern is the paper's Table 1:
//! reads per packet, writes per flow (creation and teardown).

use super::{
    allocator_key, forward_key, reverse_key, rewrite_dst, rewrite_src, NatMapping, PORT_BASE,
    PORT_SPAN,
};
use crate::key::StateKey;
use crate::middlebox::{Action, Middlebox, ProcCtx};
use bytes::Bytes;
use ftc_packet::l4::TcpView;
use ftc_packet::{ip, FlowKey, Packet};
use ftc_stm::{StateTxn, TxnError};
use std::net::Ipv4Addr;

const TAG: &str = "mazu";

/// Commercial-NAT core: source NAT with per-protocol pools and TCP teardown.
#[derive(Debug)]
pub struct MazuNat {
    external_ip: Ipv4Addr,
}

impl MazuNat {
    /// Creates a MazuNAT translating to `external_ip`.
    pub fn new(external_ip: Ipv4Addr) -> MazuNat {
        MazuNat { external_ip }
    }

    /// The external address.
    pub fn external_ip(&self) -> Ipv4Addr {
        self.external_ip
    }

    /// Key of the mapping for an internal ping source and identifier.
    pub(crate) fn ping_key(src: Ipv4Addr, ident: u16) -> Bytes {
        StateKey::new(TAG)
            .lit(":ping:")
            .ip(src)
            .lit(":")
            .dec(ident.into())
            .build()
    }

    /// True if the TCP segment ends the connection from the internal side.
    fn is_teardown(pkt: &Packet) -> bool {
        match pkt.l4().ok().and_then(|l4| TcpView::new(l4).ok()) {
            Some(tcp) => tcp.is_rst() || tcp.is_fin(),
            None => false,
        }
    }

    fn translate_outbound(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        key: &FlowKey,
    ) -> Result<Action, TxnError> {
        let fkey = forward_key(TAG, key);
        let teardown = key.protocol == ip::PROTO_TCP && Self::is_teardown(pkt);
        let mapping = match txn.read(&fkey)? {
            Some(v) => NatMapping::decode(&v),
            None => None,
        };
        let mapping = match mapping {
            Some(m) => m,
            None => {
                if teardown {
                    // RST/FIN for an unknown flow: nothing to translate.
                    return Ok(Action::Drop);
                }
                let alloc = allocator_key(TAG, key.protocol);
                let n = txn.read_u64(&alloc)?.unwrap_or(0);
                txn.write_u64(alloc, n + 1)?;
                let m = NatMapping {
                    int_ip: key.src_ip,
                    int_port: key.src_port,
                    ext_port: PORT_BASE + (n % u64::from(PORT_SPAN)) as u16,
                    protocol: key.protocol,
                };
                txn.write(fkey.clone(), m.encode())?;
                txn.write(reverse_key(TAG, key.protocol, m.ext_port), m.encode())?;
                m
            }
        };
        if teardown {
            // Connection closing: drop both mapping directions so the port
            // returns to the pool (mazu-nat's rewriter GC, made explicit).
            txn.delete(fkey)?;
            txn.delete(reverse_key(TAG, key.protocol, mapping.ext_port))?;
        }
        if rewrite_src(pkt, self.external_ip, mapping.ext_port).is_err() {
            return Ok(Action::Drop);
        }
        Ok(Action::Forward)
    }

    fn translate_inbound(
        &self,
        pkt: &mut Packet,
        txn: &mut dyn StateTxn,
        key: &FlowKey,
    ) -> Result<Action, TxnError> {
        let rkey = reverse_key(TAG, key.protocol, key.dst_port);
        let Some(m) = txn.read(&rkey)?.and_then(|v| NatMapping::decode(&v)) else {
            return Ok(Action::Drop);
        };
        if rewrite_dst(pkt, m.int_ip, m.int_port).is_err() {
            return Ok(Action::Drop);
        }
        Ok(Action::Forward)
    }

    /// The `ICMPPingRewriter` role of mazu-nat.click: echo requests get a
    /// translated (source, identifier); replies are mapped back.
    fn translate_ping(&self, pkt: &mut Packet, txn: &mut dyn StateTxn) -> Result<Action, TxnError> {
        use ftc_packet::icmp;
        let (src, dst, ident, is_request) = {
            let Ok(v) = pkt.ipv4() else {
                return Ok(Action::Drop);
            };
            let (src, dst) = (v.src(), v.dst());
            let Ok(l4) = pkt.l4() else {
                return Ok(Action::Drop);
            };
            let Ok(e) = icmp::IcmpView::new(l4) else {
                return Ok(Action::Drop);
            };
            if !e.is_echo() {
                // Other ICMP (unreachables etc.): pass untranslated.
                return Ok(Action::Forward);
            }
            (
                src,
                dst,
                e.ident(),
                e.icmp_type() == icmp::TYPE_ECHO_REQUEST,
            )
        };
        if is_request && dst != self.external_ip {
            // Outbound ping: allocate (or reuse) an external identifier.
            let fkey = Self::ping_key(src, ident);
            let ext_ident = match txn.read(&fkey)? {
                Some(v) => NatMapping::decode(&v).map(|m| m.ext_port),
                None => None,
            };
            let ext_ident = match ext_ident {
                Some(e) => e,
                None => {
                    let alloc = allocator_key(TAG, ftc_packet::ip::PROTO_ICMP);
                    let n = txn.read_u64(&alloc)?.unwrap_or(0);
                    txn.write_u64(alloc, n + 1)?;
                    let e = PORT_BASE + (n % u64::from(PORT_SPAN)) as u16;
                    let m = NatMapping {
                        int_ip: src,
                        int_port: ident,
                        ext_port: e,
                        protocol: ftc_packet::ip::PROTO_ICMP,
                    };
                    txn.write(fkey, m.encode())?;
                    txn.write(reverse_key(TAG, ftc_packet::ip::PROTO_ICMP, e), m.encode())?;
                    e
                }
            };
            let ext_ip = self.external_ip;
            let l4_off = match pkt.l4_offset() {
                Ok(o) => o - ftc_packet::ether::HEADER_LEN,
                Err(_) => return Ok(Action::Drop),
            };
            let l3 = pkt.l3_mut();
            if ftc_packet::ip::set_src(l3, ext_ip).is_err()
                || icmp::set_ident(&mut l3[l4_off..], ext_ident).is_err()
            {
                return Ok(Action::Drop);
            }
            return Ok(Action::Forward);
        }
        if !is_request && dst == self.external_ip {
            // Reply towards our external address: map the identifier back.
            let rkey = reverse_key(TAG, ftc_packet::ip::PROTO_ICMP, ident);
            let Some(m) = txn.read(&rkey)?.and_then(|v| NatMapping::decode(&v)) else {
                return Ok(Action::Drop);
            };
            let l4_off = match pkt.l4_offset() {
                Ok(o) => o - ftc_packet::ether::HEADER_LEN,
                Err(_) => return Ok(Action::Drop),
            };
            let l3 = pkt.l3_mut();
            if ftc_packet::ip::set_dst(l3, m.int_ip).is_err()
                || icmp::set_ident(&mut l3[l4_off..], m.int_port).is_err()
            {
                return Ok(Action::Drop);
            }
            return Ok(Action::Forward);
        }
        Ok(Action::Forward)
    }
}

impl Middlebox for MazuNat {
    fn name(&self) -> &str {
        "MazuNAT"
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
        match key.protocol {
            ip::PROTO_TCP | ip::PROTO_UDP => {
                if key.dst_ip == self.external_ip {
                    self.translate_inbound(pkt, txn, &key)
                } else {
                    self.translate_outbound(pkt, txn, &key)
                }
            }
            ip::PROTO_ICMP => self.translate_ping(pkt, txn),
            // Other non-port protocols pass unmodified.
            _ => Ok(Action::Forward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::{TcpPacketBuilder, UdpPacketBuilder};
    use ftc_packet::l4::tcp_flags;
    use ftc_stm::StateStore;

    const EXT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const INT: Ipv4Addr = Ipv4Addr::new(192, 168, 7, 3);

    fn run(store: &StateStore, nat: &MazuNat, pkt: &mut Packet) -> (Action, bool) {
        let out = store.transaction(|txn| nat.process(pkt, txn, ProcCtx::single()));
        (out.value, out.log.is_some())
    }

    fn tcp_out(flags: u8) -> Packet {
        TcpPacketBuilder::new()
            .src(INT, 40123)
            .dst(Ipv4Addr::new(93, 184, 216, 34), 443)
            .flags(flags)
            .build()
    }

    #[test]
    fn tcp_and_udp_use_separate_port_pools() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut t = tcp_out(tcp_flags::SYN);
        let mut u = UdpPacketBuilder::new()
            .src(INT, 40123)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        run(&store, &nat, &mut t);
        run(&store, &nat, &mut u);
        // Both get the first port of their own pool.
        assert_eq!(t.flow_key().unwrap().src_port, PORT_BASE);
        assert_eq!(u.flow_key().unwrap().src_port, PORT_BASE);
    }

    #[test]
    fn established_flow_is_read_only() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut syn = tcp_out(tcp_flags::SYN);
        let (_, wrote) = run(&store, &nat, &mut syn);
        assert!(wrote);
        let mut data = tcp_out(tcp_flags::ACK);
        let (action, wrote) = run(&store, &nat, &mut data);
        assert_eq!(action, Action::Forward);
        assert!(!wrote, "established TCP flow must not write state");
    }

    #[test]
    fn fin_tears_down_mapping() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut syn = tcp_out(tcp_flags::SYN);
        run(&store, &nat, &mut syn);
        let ext_port = syn.flow_key().unwrap().src_port;

        let mut fin = tcp_out(tcp_flags::FIN | tcp_flags::ACK);
        let (action, wrote) = run(&store, &nat, &mut fin);
        assert_eq!(action, Action::Forward, "the FIN itself is still forwarded");
        assert!(wrote, "teardown deletes the mapping (a state write)");
        // Reply to the released port is now unsolicited.
        let mut late = TcpPacketBuilder::new()
            .src(Ipv4Addr::new(93, 184, 216, 34), 443)
            .dst(EXT, ext_port)
            .flags(tcp_flags::ACK)
            .build();
        let (action, _) = run(&store, &nat, &mut late);
        assert_eq!(action, Action::Drop);
    }

    #[test]
    fn inbound_reply_translated_back() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut syn = tcp_out(tcp_flags::SYN);
        run(&store, &nat, &mut syn);
        let ext_port = syn.flow_key().unwrap().src_port;
        let mut reply = TcpPacketBuilder::new()
            .src(Ipv4Addr::new(93, 184, 216, 34), 443)
            .dst(EXT, ext_port)
            .flags(tcp_flags::SYN | tcp_flags::ACK)
            .build();
        let (action, wrote) = run(&store, &nat, &mut reply);
        assert_eq!(action, Action::Forward);
        assert!(!wrote);
        let key = reply.flow_key().unwrap();
        assert_eq!(key.dst_ip, INT);
        assert_eq!(key.dst_port, 40123);
    }

    #[test]
    fn icmp_passes_through_untouched() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut pkt = {
            // Build a UDP packet, then flip the protocol to ICMP to get a
            // valid IPv4 header with a non-port protocol.
            let mut p = UdpPacketBuilder::new()
                .src(INT, 0)
                .dst(Ipv4Addr::new(8, 8, 8, 8), 0)
                .build();
            let l3 = p.l3_mut();
            let old = l3[9];
            l3[9] = ip::PROTO_ICMP;
            // fix checksum for the protocol byte change (old/new in the same
            // 16-bit word as TTL)
            let hc = u16::from_be_bytes([l3[10], l3[11]]);
            let oldw = u16::from_be_bytes([l3[8], old]);
            let neww = u16::from_be_bytes([l3[8], ip::PROTO_ICMP]);
            let fixed = ftc_packet::checksum::update(hc, oldw, neww);
            l3[10..12].copy_from_slice(&fixed.to_be_bytes());
            p
        };
        let before = pkt.bytes().to_vec();
        let (action, wrote) = run(&store, &nat, &mut pkt);
        assert_eq!(action, Action::Forward);
        assert!(!wrote);
        assert_eq!(pkt.bytes(), &before[..]);
    }

    #[test]
    fn ping_request_and_reply_are_rewritten() {
        use ftc_packet::builder::IcmpPacketBuilder;
        use ftc_packet::icmp::IcmpView;
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);

        // Outbound echo request gets the external source and identifier.
        let mut req = IcmpPacketBuilder::new()
            .ips(INT, Ipv4Addr::new(8, 8, 8, 8))
            .echo(512, 1)
            .build();
        let (action, wrote) = run(&store, &nat, &mut req);
        assert_eq!(action, Action::Forward);
        assert!(wrote, "first ping installs the mapping");
        assert_eq!(req.ipv4().unwrap().src(), EXT);
        req.ipv4().unwrap().verify_checksum().unwrap();
        let ext_ident = IcmpView::new(req.l4().unwrap()).unwrap().ident();
        assert_ne!(ext_ident, 512);
        IcmpView::new(req.l4().unwrap())
            .unwrap()
            .verify_checksum()
            .unwrap();

        // A second ping of the same (host, ident) reuses it, read-only.
        let mut req2 = IcmpPacketBuilder::new()
            .ips(INT, Ipv4Addr::new(8, 8, 8, 8))
            .echo(512, 2)
            .build();
        let (_, wrote) = run(&store, &nat, &mut req2);
        assert!(!wrote);
        assert_eq!(
            IcmpView::new(req2.l4().unwrap()).unwrap().ident(),
            ext_ident
        );

        // The reply to the external identifier maps back.
        let mut reply = IcmpPacketBuilder::new()
            .ips(Ipv4Addr::new(8, 8, 8, 8), EXT)
            .echo(ext_ident, 1)
            .reply()
            .build();
        let (action, wrote) = run(&store, &nat, &mut reply);
        assert_eq!(action, Action::Forward);
        assert!(!wrote);
        assert_eq!(reply.ipv4().unwrap().dst(), INT);
        assert_eq!(IcmpView::new(reply.l4().unwrap()).unwrap().ident(), 512);
        reply.ipv4().unwrap().verify_checksum().unwrap();
        IcmpView::new(reply.l4().unwrap())
            .unwrap()
            .verify_checksum()
            .unwrap();
    }

    #[test]
    fn unsolicited_ping_reply_dropped() {
        use ftc_packet::builder::IcmpPacketBuilder;
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut stray = IcmpPacketBuilder::new()
            .ips(Ipv4Addr::new(8, 8, 8, 8), EXT)
            .echo(4242, 9)
            .reply()
            .build();
        let (action, _) = run(&store, &nat, &mut stray);
        assert_eq!(action, Action::Drop);
    }

    #[test]
    fn rst_for_unknown_flow_dropped() {
        let store = StateStore::new(32);
        let nat = MazuNat::new(EXT);
        let mut rst = tcp_out(tcp_flags::RST);
        let (action, _) = run(&store, &nat, &mut rst);
        assert_eq!(action, Action::Drop);
    }
}

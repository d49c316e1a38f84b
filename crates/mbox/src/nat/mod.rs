//! Network address translators.
//!
//! [`SimpleNat`] "provides basic NAT functionalities"; [`MazuNat`] "is an
//! implementation of the core parts of a commercial NAT" (paper §7.1,
//! referencing Click's `mazu-nat.click`). Both are read-heavy: the common
//! case is one mapping lookup per packet, with writes only when a flow is
//! created (or, for MazuNAT, torn down).

mod mazu;
mod simple;

pub use mazu::MazuNat;
pub use simple::SimpleNat;

use crate::key::StateKey;
use bytes::Bytes;
use ftc_packet::{ether, ip, l4, FlowKey, Packet, WireError};
use std::net::Ipv4Addr;

/// A NAT mapping record: the internal flow a translated port belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatMapping {
    /// Internal source address.
    pub int_ip: Ipv4Addr,
    /// Internal source port.
    pub int_port: u16,
    /// External port assigned to the flow.
    pub ext_port: u16,
    /// IP protocol.
    pub protocol: u8,
}

impl NatMapping {
    /// Serializes the mapping for storage.
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::with_capacity(9);
        b.extend_from_slice(&self.int_ip.octets());
        b.extend_from_slice(&self.int_port.to_be_bytes());
        b.extend_from_slice(&self.ext_port.to_be_bytes());
        b.push(self.protocol);
        Bytes::from(b)
    }

    /// Deserializes a stored mapping.
    pub fn decode(b: &[u8]) -> Option<NatMapping> {
        if b.len() != 9 {
            return None;
        }
        Some(NatMapping {
            int_ip: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            int_port: u16::from_be_bytes([b[4], b[5]]),
            ext_port: u16::from_be_bytes([b[6], b[7]]),
            protocol: b[8],
        })
    }
}

/// First external port handed out.
pub const PORT_BASE: u16 = 10_000;
/// Size of the external port pool.
pub const PORT_SPAN: u16 = 50_000;

/// Key of the forward mapping for an internal flow.
pub fn forward_key(tag: &str, key: &FlowKey) -> Bytes {
    StateKey::new(tag).lit(":fwd:").flow(key).build()
}

/// Key of the reverse mapping for an external port.
pub fn reverse_key(tag: &str, protocol: u8, ext_port: u16) -> Bytes {
    StateKey::new(tag)
        .lit(":rev:")
        .dec(protocol.into())
        .lit(":")
        .dec(ext_port.into())
        .build()
}

/// Key of the next-port allocator counter.
pub fn allocator_key(tag: &str, protocol: u8) -> Bytes {
    StateKey::new(tag)
        .lit(":nextport:")
        .dec(protocol.into())
        .build()
}

/// Rewrites the packet's source address and L4 source port, maintaining the
/// IPv4 header checksum.
pub fn rewrite_src(pkt: &mut Packet, new_ip: Ipv4Addr, new_port: u16) -> Result<(), WireError> {
    let l4_off = pkt.l4_offset()? - ether::HEADER_LEN;
    let l3 = pkt.l3_mut();
    ip::set_src(l3, new_ip)?;
    l4::set_port(&mut l3[l4_off..], 0, new_port)?;
    Ok(())
}

/// Rewrites the packet's destination address and L4 destination port.
pub fn rewrite_dst(pkt: &mut Packet, new_ip: Ipv4Addr, new_port: u16) -> Result<(), WireError> {
    let l4_off = pkt.l4_offset()? - ether::HEADER_LEN;
    let l3 = pkt.l3_mut();
    ip::set_dst(l3, new_ip)?;
    l4::set_port(&mut l3[l4_off..], 2, new_port)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;

    #[test]
    fn mapping_roundtrip() {
        let m = NatMapping {
            int_ip: Ipv4Addr::new(192, 168, 1, 44),
            int_port: 51234,
            ext_port: 12001,
            protocol: ip::PROTO_TCP,
        };
        assert_eq!(NatMapping::decode(&m.encode()), Some(m));
        assert_eq!(NatMapping::decode(b"short"), None);
    }

    #[test]
    fn rewrite_src_updates_header_and_port() {
        let mut pkt = UdpPacketBuilder::new()
            .src(Ipv4Addr::new(192, 168, 0, 5), 5555)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build();
        rewrite_src(&mut pkt, Ipv4Addr::new(1, 2, 3, 4), 12000).unwrap();
        let key = pkt.flow_key().unwrap();
        assert_eq!(key.src_ip, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(key.src_port, 12000);
        assert_eq!(key.dst_port, 53, "destination untouched");
        pkt.ipv4().unwrap().verify_checksum().unwrap();
    }

    #[test]
    fn rewrite_dst_updates_header_and_port() {
        let mut pkt = UdpPacketBuilder::new().build();
        rewrite_dst(&mut pkt, Ipv4Addr::new(10, 10, 10, 10), 8080).unwrap();
        let key = pkt.flow_key().unwrap();
        assert_eq!(key.dst_ip, Ipv4Addr::new(10, 10, 10, 10));
        assert_eq!(key.dst_port, 8080);
        pkt.ipv4().unwrap().verify_checksum().unwrap();
    }
}

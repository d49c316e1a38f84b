//! Builders that synthesize valid test/benchmark packets.

use crate::ether::{self, MacAddr};
use crate::ip::{self, Ipv4Fields};
use crate::l4::{self, TcpFields};
use crate::packet::Packet;
use bytes::BytesMut;
use std::net::Ipv4Addr;

/// Builder for UDP packets.
///
/// The produced frame is Ethernet + IPv4 (with the FTC option reserved by
/// default, as every FTC-framed packet carries it) + UDP + payload.
#[derive(Debug, Clone)]
pub struct UdpPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    payload_fill: u8,
    ttl: u8,
    ident: u16,
    with_ftc_option: bool,
}

impl Default for UdpPacketBuilder {
    fn default() -> Self {
        UdpPacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 10000,
            dst_port: 80,
            payload_len: 18,
            payload_fill: 0,
            ttl: 64,
            ident: 0,
            with_ftc_option: true,
        }
    }
}

impl UdpPacketBuilder {
    /// Creates a builder with sensible defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source IP and port.
    pub fn src(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.src_ip = ip;
        self.src_port = port;
        self
    }

    /// Sets the destination IP and port.
    pub fn dst(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.dst_ip = ip;
        self.dst_port = port;
        self
    }

    /// Sets the UDP payload length in bytes.
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Sets the byte used to fill the payload.
    pub fn payload_fill(mut self, fill: u8) -> Self {
        self.payload_fill = fill;
        self
    }

    /// Sets the total frame size (Ethernet through payload, no trailer),
    /// adjusting the payload length. Panics if smaller than the headers.
    pub fn frame_len(self, total: usize) -> Self {
        let hdr = ether::HEADER_LEN
            + if self.with_ftc_option {
                ip::MIN_HEADER_LEN + ip::OPTION_FTC_LEN
            } else {
                ip::MIN_HEADER_LEN
            }
            + l4::UDP_HEADER_LEN;
        assert!(total >= hdr, "frame_len {total} smaller than headers {hdr}");
        self.payload_len(total - hdr)
    }

    /// Sets the IP identification field (handy for tagging packets).
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Disables the FTC IP option (for non-FTC baselines).
    pub fn without_ftc_option(mut self) -> Self {
        self.with_ftc_option = false;
        self
    }

    /// Builds the packet.
    pub fn build(&self) -> Packet {
        let ip_fields = Ipv4Fields {
            src: self.src_ip,
            dst: self.dst_ip,
            protocol: ip::PROTO_UDP,
            payload_len: (l4::UDP_HEADER_LEN + self.payload_len) as u16,
            ttl: self.ttl,
            ident: self.ident,
            with_ftc_option: self.with_ftc_option,
        };
        let ip_hlen = ip_fields.header_len();
        let total = ether::HEADER_LEN + ip_hlen + l4::UDP_HEADER_LEN + self.payload_len;
        let mut data = BytesMut::zeroed(total);
        ether::emit(&mut data, self.src_mac, self.dst_mac, ether::ETHERTYPE_IPV4)
            .expect("sized buffer");
        ip::emit(&mut data[ether::HEADER_LEN..], &ip_fields).expect("sized buffer");
        let l4_off = ether::HEADER_LEN + ip_hlen;
        l4::emit_udp(
            &mut data[l4_off..],
            self.src_port,
            self.dst_port,
            self.payload_len as u16,
        )
        .expect("sized buffer");
        if self.payload_fill != 0 {
            let start = l4_off + l4::UDP_HEADER_LEN;
            for b in &mut data[start..] {
                *b = self.payload_fill;
            }
        }
        Packet::from_frame_unchecked(data)
    }
}

/// Builder for TCP packets (used by NAT and firewall tests that need
/// SYN/FIN/RST semantics).
#[derive(Debug, Clone)]
pub struct TcpPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    tcp: TcpFields,
    payload_len: usize,
    with_ftc_option: bool,
}

impl Default for TcpPacketBuilder {
    fn default() -> Self {
        TcpPacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp: TcpFields {
                src_port: 40000,
                dst_port: 443,
                ..Default::default()
            },
            payload_len: 0,
            with_ftc_option: true,
        }
    }
}

impl TcpPacketBuilder {
    /// Creates a builder with sensible defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the source IP and port.
    pub fn src(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.src_ip = ip;
        self.tcp.src_port = port;
        self
    }

    /// Sets the destination IP and port.
    pub fn dst(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.dst_ip = ip;
        self.tcp.dst_port = port;
        self
    }

    /// Sets the TCP flag bits.
    pub fn flags(mut self, flags: u8) -> Self {
        self.tcp.flags = flags;
        self
    }

    /// Sets the payload length.
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Builds the packet.
    pub fn build(&self) -> Packet {
        let ip_fields = Ipv4Fields {
            src: self.src_ip,
            dst: self.dst_ip,
            protocol: ip::PROTO_TCP,
            payload_len: (l4::TCP_HEADER_LEN + self.payload_len) as u16,
            with_ftc_option: self.with_ftc_option,
            ..Default::default()
        };
        let ip_hlen = ip_fields.header_len();
        let total = ether::HEADER_LEN + ip_hlen + l4::TCP_HEADER_LEN + self.payload_len;
        let mut data = BytesMut::zeroed(total);
        ether::emit(&mut data, self.src_mac, self.dst_mac, ether::ETHERTYPE_IPV4)
            .expect("sized buffer");
        ip::emit(&mut data[ether::HEADER_LEN..], &ip_fields).expect("sized buffer");
        l4::emit_tcp(&mut data[ether::HEADER_LEN + ip_hlen..], &self.tcp).expect("sized buffer");
        Packet::from_frame_unchecked(data)
    }
}

/// Builder for ICMP echo packets (ping traffic for NAT rewriting tests).
#[derive(Debug, Clone)]
pub struct IcmpPacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    icmp_type: u8,
    ident: u16,
    seq: u16,
    payload_len: usize,
}

impl Default for IcmpPacketBuilder {
    fn default() -> Self {
        IcmpPacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            icmp_type: crate::icmp::TYPE_ECHO_REQUEST,
            ident: 1,
            seq: 1,
            payload_len: 16,
        }
    }
}

impl IcmpPacketBuilder {
    /// Creates a builder for an echo request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets source and destination addresses.
    pub fn ips(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.src_ip = src;
        self.dst_ip = dst;
        self
    }

    /// Sets the echo identifier and sequence number.
    pub fn echo(mut self, ident: u16, seq: u16) -> Self {
        self.ident = ident;
        self.seq = seq;
        self
    }

    /// Makes the packet an echo reply.
    pub fn reply(mut self) -> Self {
        self.icmp_type = crate::icmp::TYPE_ECHO_REPLY;
        self
    }

    /// Builds the packet.
    pub fn build(&self) -> Packet {
        let ip_fields = Ipv4Fields {
            src: self.src_ip,
            dst: self.dst_ip,
            protocol: ip::PROTO_ICMP,
            payload_len: (crate::icmp::HEADER_LEN + self.payload_len) as u16,
            with_ftc_option: true,
            ..Default::default()
        };
        let ip_hlen = ip_fields.header_len();
        let total = ether::HEADER_LEN + ip_hlen + crate::icmp::HEADER_LEN + self.payload_len;
        let mut data = BytesMut::zeroed(total);
        ether::emit(&mut data, self.src_mac, self.dst_mac, ether::ETHERTYPE_IPV4)
            .expect("sized buffer");
        ip::emit(&mut data[ether::HEADER_LEN..], &ip_fields).expect("sized buffer");
        crate::icmp::emit_echo(
            &mut data[ether::HEADER_LEN + ip_hlen..],
            self.icmp_type,
            self.ident,
            self.seq,
            self.payload_len,
        )
        .expect("sized buffer");
        Packet::from_frame_unchecked(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l4::{tcp_flags, TcpView, UdpView};

    #[test]
    fn udp_builder_produces_valid_packet() {
        let pkt = UdpPacketBuilder::new()
            .src(Ipv4Addr::new(1, 1, 1, 1), 53)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 5353)
            .payload_len(100)
            .build();
        let ipv4 = pkt.ipv4().unwrap();
        ipv4.verify_checksum().unwrap();
        assert_eq!(ipv4.src(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(ipv4.ftc_option(), Some(0));
        let l4 = pkt.l4().unwrap();
        let udp = UdpView::new(l4).unwrap();
        assert_eq!(udp.src_port(), 53);
        assert_eq!(udp.payload().unwrap().len(), 100);
        let key = pkt.flow_key().unwrap();
        assert_eq!(key.dst_port, 5353);
    }

    #[test]
    fn frame_len_sets_total_size() {
        let pkt = UdpPacketBuilder::new().frame_len(256).build();
        assert_eq!(pkt.wire_len(), 256);
        let pkt = UdpPacketBuilder::new().frame_len(128).build();
        assert_eq!(pkt.wire_len(), 128);
    }

    #[test]
    #[should_panic(expected = "smaller than headers")]
    fn frame_len_too_small_panics() {
        UdpPacketBuilder::new().frame_len(10).build();
    }

    #[test]
    fn tcp_builder_produces_valid_packet() {
        let pkt = TcpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 1, 0, 1), 50001)
            .dst(Ipv4Addr::new(93, 184, 216, 34), 443)
            .flags(tcp_flags::SYN)
            .build();
        pkt.ipv4().unwrap().verify_checksum().unwrap();
        let tcp = TcpView::new(pkt.l4().unwrap()).unwrap();
        assert!(tcp.is_syn());
        assert_eq!(tcp.dst_port(), 443);
    }

    #[test]
    fn icmp_builder_produces_valid_ping() {
        let pkt = IcmpPacketBuilder::new()
            .ips(Ipv4Addr::new(192, 168, 0, 1), Ipv4Addr::new(8, 8, 8, 8))
            .echo(77, 3)
            .build();
        pkt.ipv4().unwrap().verify_checksum().unwrap();
        assert_eq!(pkt.ipv4().unwrap().protocol(), ip::PROTO_ICMP);
        let icmp = crate::icmp::IcmpView::new(pkt.l4().unwrap()).unwrap();
        assert!(icmp.is_echo());
        assert_eq!(icmp.ident(), 77);
        assert_eq!(icmp.seq(), 3);
        icmp.verify_checksum().unwrap();
        // ICMP has no ports; the flow key degrades gracefully.
        assert_eq!(pkt.flow_key().unwrap().src_port, 0);
    }

    #[test]
    fn without_ftc_option_shrinks_header() {
        let with = UdpPacketBuilder::new().payload_len(0).build();
        let without = UdpPacketBuilder::new()
            .without_ftc_option()
            .payload_len(0)
            .build();
        assert_eq!(with.wire_len() - without.wire_len(), ip::OPTION_FTC_LEN);
        assert_eq!(without.ipv4().unwrap().ftc_option(), None);
    }
}

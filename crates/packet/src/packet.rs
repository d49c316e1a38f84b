//! The owned packet buffer used throughout the data plane.

use crate::ether::{self, EthernetView, MacAddr};
use crate::flow::FlowKey;
use crate::ip::{self, Ipv4View};
use crate::piggyback::{self, PiggybackMessage};
use crate::{WireError, WireResult};
use bytes::BytesMut;

/// An owned, mutable packet: Ethernet + IPv4 (+ L4 + payload), optionally
/// followed by an FTC piggyback trailer.
///
/// Invariant: the IPv4 total-length field covers the bytes from the start of
/// the IP header up to but *excluding* the trailer, so a middlebox that
/// consults the header never sees FTC bytes (paper §6: "the relevant header
/// fields are updated to not account for the piggyback message"). The
/// trailer is self-delimiting at the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    data: BytesMut,
}

impl Packet {
    /// Wraps a raw frame, validating that it is Ethernet + IPv4.
    pub fn from_frame(data: BytesMut) -> WireResult<Packet> {
        let eth = EthernetView::new(&data)?;
        if eth.ethertype() != ether::ETHERTYPE_IPV4 {
            return Err(WireError::Unsupported);
        }
        Ipv4View::new(&data[ether::HEADER_LEN..])?;
        Ok(Packet { data })
    }

    /// Wraps a raw frame without validation (e.g. frames that were just
    /// emitted by a builder).
    pub fn from_frame_unchecked(data: BytesMut) -> Packet {
        Packet { data }
    }

    /// The full frame bytes, including any trailer.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Total frame length in bytes, including any trailer. This is the
    /// length that occupies the wire.
    pub fn wire_len(&self) -> usize {
        self.data.len()
    }

    /// Consumes the packet and returns the underlying buffer.
    pub fn into_bytes(self) -> BytesMut {
        self.data
    }

    /// The Ethernet header view.
    pub fn eth(&self) -> EthernetView<'_> {
        EthernetView::new(&self.data).expect("validated at construction")
    }

    /// The IPv4 header view.
    pub fn ipv4(&self) -> WireResult<Ipv4View<'_>> {
        Ipv4View::new(&self.data[ether::HEADER_LEN..])
    }

    /// Mutable access to the bytes starting at the IPv4 header.
    pub fn l3_mut(&mut self) -> &mut [u8] {
        &mut self.data[ether::HEADER_LEN..]
    }

    /// The bytes starting at the IPv4 header (including any trailer).
    pub fn l3(&self) -> &[u8] {
        &self.data[ether::HEADER_LEN..]
    }

    /// Offset of the L4 header within the frame.
    pub fn l4_offset(&self) -> WireResult<usize> {
        Ok(ether::HEADER_LEN + self.ipv4()?.header_len())
    }

    /// The L4 header + payload, excluding the trailer.
    pub fn l4(&self) -> WireResult<&[u8]> {
        let start = self.l4_offset()?;
        let end = self.ip_end()?;
        self.data.get(start..end).ok_or(WireError::Truncated)
    }

    /// Mutable L4 header + payload, excluding the trailer.
    pub fn l4_mut(&mut self) -> WireResult<&mut [u8]> {
        let start = self.l4_offset()?;
        let end = self.ip_end()?;
        self.data.get_mut(start..end).ok_or(WireError::Truncated)
    }

    /// End offset (within the frame) of the IP datagram per its total-length
    /// field — i.e. where the trailer begins, if any.
    pub fn ip_end(&self) -> WireResult<usize> {
        let total = self.ipv4()?.total_len() as usize;
        let end = ether::HEADER_LEN + total;
        if end > self.data.len() {
            return Err(WireError::BadLength);
        }
        Ok(end)
    }

    /// The 5-tuple flow key.
    pub fn flow_key(&self) -> WireResult<FlowKey> {
        FlowKey::from_ipv4(self.l3())
    }

    /// True if the frame ends in a piggyback trailer that decodes.
    pub fn has_piggyback(&self) -> bool {
        piggyback::ends_in_trailer(&self.data)
    }

    /// Appends a piggyback message as a trailer and records its length in
    /// the FTC IP option if the header carries one. The IP total-length
    /// field is left covering only the original datagram.
    pub fn attach_piggyback(&mut self, msg: &PiggybackMessage) -> WireResult<()> {
        self.attach_piggyback_parts(msg.flags, &msg.logs, &msg.commits)
    }

    /// Like [`Packet::attach_piggyback`], but serializes straight from
    /// borrowed parts — no [`PiggybackMessage`] needs to be materialized.
    /// This is the hot-path variant: the forwarder encodes pooled staging
    /// vectors through it without moving the logs into a message first.
    pub fn attach_piggyback_parts(
        &mut self,
        flags: u8,
        logs: &[piggyback::PiggybackLog],
        commits: &[piggyback::CommitVector],
    ) -> WireResult<()> {
        debug_assert!(!self.has_piggyback(), "trailer already attached");
        let len = piggyback::encode_parts(flags, logs, commits, &mut self.data);
        // Record in the IP option when present; optional otherwise.
        let _ = ip::set_ftc_trailer_len(&mut self.data[ether::HEADER_LEN..], len as u16);
        Ok(())
    }

    /// Removes and returns the piggyback trailer, if present.
    ///
    /// The trailer is split off the frame and decoded once, zero-copy: the
    /// returned message's write keys/values share the split-off bytes
    /// instead of being copied out individually. On `Err` the packet is
    /// left as it was, trailer included, for the caller to drop.
    pub fn detach_piggyback(&mut self) -> WireResult<Option<PiggybackMessage>> {
        let Some(total) = piggyback::trailer_len(&self.data)? else {
            return Ok(None);
        };
        let tail = self.data.split_off(self.data.len() - total).freeze();
        match PiggybackMessage::decode_trailing(&tail) {
            Ok(msg) => {
                let _ = ip::set_ftc_trailer_len(&mut self.data[ether::HEADER_LEN..], 0);
                Ok(msg.map(|(msg, _)| msg))
            }
            Err(e) => {
                self.data.extend_from_slice(&tail);
                Err(e)
            }
        }
    }
}

/// Builds a minimal *propagating packet*: an Ethernet + IPv4 frame whose only
/// purpose is to carry a piggyback message through the chain (paper §5.1).
pub fn propagating_packet(src: MacAddr, dst: MacAddr, msg: &PiggybackMessage) -> Packet {
    debug_assert!(
        msg.is_propagating(),
        "propagating packets must carry the flag"
    );
    let mut pkt = propagating_header(src, dst);
    pkt.attach_piggyback(msg).expect("fresh packet");
    pkt
}

/// [`propagating_packet`] from borrowed logs: the propagating flag is set
/// implicitly and the trailer is encoded straight from the slice, so the
/// forwarder's idle path can carry a pooled staging vector without
/// materializing a [`PiggybackMessage`].
pub fn propagating_packet_from_logs(
    src: MacAddr,
    dst: MacAddr,
    logs: &[piggyback::PiggybackLog],
) -> Packet {
    let mut pkt = propagating_header(src, dst);
    pkt.attach_piggyback_parts(piggyback::flags::PROPAGATING, logs, &[])
        .expect("fresh packet");
    pkt
}

fn propagating_header(src: MacAddr, dst: MacAddr) -> Packet {
    let hdr_len = ether::HEADER_LEN + ip::MIN_HEADER_LEN + ip::OPTION_FTC_LEN;
    let mut data = BytesMut::zeroed(hdr_len);
    ether::emit(&mut data, src, dst, ether::ETHERTYPE_IPV4).expect("sized buffer");
    ip::emit(
        &mut data[ether::HEADER_LEN..],
        &ip::Ipv4Fields {
            protocol: 253, // RFC 3692 experimental protocol number
            with_ftc_option: true,
            ..Default::default()
        },
    )
    .expect("sized buffer");
    Packet { data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::UdpPacketBuilder;
    use crate::piggyback::{MboxId, PiggybackLog, StateWrite};
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    fn sample_packet() -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1111)
            .dst(Ipv4Addr::new(10, 0, 0, 2), 2222)
            .payload_len(32)
            .build()
    }

    fn sample_msg() -> PiggybackMessage {
        PiggybackMessage {
            flags: 0,
            logs: vec![PiggybackLog {
                mbox: MboxId(1),
                deps: Default::default(),
                writes: vec![StateWrite {
                    key: Bytes::from_static(b"k"),
                    value: Bytes::from_static(b"v"),
                    partition: 0,
                }],
            }],
            commits: vec![],
        }
    }

    #[test]
    fn attach_detach_roundtrip() {
        let mut pkt = sample_packet();
        let orig_len = pkt.wire_len();
        let msg = sample_msg();
        pkt.attach_piggyback(&msg).unwrap();
        assert!(pkt.has_piggyback());
        assert_eq!(pkt.wire_len(), orig_len + msg.wire_len());
        // The middlebox-visible datagram is unchanged.
        assert_eq!(pkt.ip_end().unwrap(), orig_len);
        // The IP option advertises the trailer.
        assert_eq!(
            pkt.ipv4().unwrap().ftc_option(),
            Some(msg.wire_len() as u16)
        );

        let got = pkt.detach_piggyback().unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(pkt.wire_len(), orig_len);
        assert!(!pkt.has_piggyback());
        assert_eq!(pkt.ipv4().unwrap().ftc_option(), Some(0));
        pkt.ipv4().unwrap().verify_checksum().unwrap();
    }

    #[test]
    fn detach_on_plain_packet_is_none() {
        let mut pkt = sample_packet();
        assert_eq!(pkt.detach_piggyback().unwrap(), None);
    }

    #[test]
    fn l4_excludes_trailer() {
        let mut pkt = sample_packet();
        let l4_before = pkt.l4().unwrap().len();
        pkt.attach_piggyback(&sample_msg()).unwrap();
        assert_eq!(pkt.l4().unwrap().len(), l4_before);
    }

    #[test]
    fn propagating_packet_carries_message() {
        let msg = PiggybackMessage::propagating(vec![]);
        let mut pkt = propagating_packet(MacAddr::from_index(1), MacAddr::from_index(2), &msg);
        pkt.ipv4().unwrap().verify_checksum().unwrap();
        let got = pkt.detach_piggyback().unwrap().unwrap();
        assert!(got.is_propagating());
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut data = BytesMut::zeroed(64);
        ether::emit(
            &mut data,
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            ether::ETHERTYPE_ARP,
        )
        .unwrap();
        assert_eq!(
            Packet::from_frame(data).unwrap_err(),
            WireError::Unsupported
        );
    }
}

//! Seeded packet generation.
//!
//! The seed decides the flow 5-tuples and nothing else; the program under
//! test receives only the generated frames. Every packet carries its
//! 64-bit id in the first payload bytes, which no middlebox of the
//! benchmark's chains rewrites, so the driver can match a released packet
//! to the instant it was due.

use bytes::BytesMut;
use ftc::packet::builder::UdpPacketBuilder;
use ftc::packet::l4::UDP_HEADER_LEN;
use ftc::packet::Packet;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Ids at or above this mark packets injected while a server is dead; they
/// are expected to be lost and are not counted as attempted.
pub const PROBE_BASE: u64 = 1 << 62;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Round-robin generator over `flows` distinct UDP flows of `frame_len`
/// byte frames.
pub struct Generator {
    templates: Vec<BytesMut>,
    payload_off: usize,
}

impl Generator {
    /// Draws `flows` distinct 5-tuples from `seed`: sources in 10.0.0.0/8
    /// with an ephemeral port, destinations in 172.16.0.0/12 on a service
    /// port — clear of every NAT external address the chains use.
    pub fn new(seed: u64, flows: usize, frame_len: usize) -> Generator {
        assert!(flows >= 1);
        let mut rng = SplitMix64::new(seed);
        let mut seen = HashSet::with_capacity(flows);
        let mut templates = Vec::with_capacity(flows);
        let mut payload_off = 0;
        while templates.len() < flows {
            let r = rng.next_u64();
            let s = rng.next_u64();
            let src_ip = Ipv4Addr::new(10, (r >> 16) as u8, (r >> 8) as u8, r as u8);
            let src_port = 1024 + ((r >> 24) % 64_000) as u16;
            let dst_ip = Ipv4Addr::new(172, 16 + ((s >> 16) & 0x0f) as u8, (s >> 8) as u8, s as u8);
            let dst_port = [53u16, 80, 443, 8080][((s >> 24) & 3) as usize];
            if !seen.insert((src_ip, src_port, dst_ip, dst_port)) {
                continue;
            }
            let pkt = UdpPacketBuilder::new()
                .src(src_ip, src_port)
                .dst(dst_ip, dst_port)
                .frame_len(frame_len)
                .build();
            payload_off = pkt.l4_offset().expect("built frame has an L4 header") + UDP_HEADER_LEN;
            assert!(
                payload_off + 8 <= pkt.wire_len(),
                "frame too short to carry a packet id"
            );
            templates.push(pkt.into_bytes());
        }
        Generator {
            templates,
            payload_off,
        }
    }

    /// Number of flows.
    pub fn flows(&self) -> usize {
        self.templates.len()
    }

    /// The frame of packet `id` on flow `id % flows`, as raw bytes.
    pub fn frame(&self, id: u64) -> BytesMut {
        let flow = (id % self.templates.len() as u64) as usize;
        let mut data = BytesMut::from(&self.templates[flow][..]);
        data[self.payload_off..self.payload_off + 8].copy_from_slice(&id.to_be_bytes());
        data
    }

    /// Packet `id` on flow `id % flows`.
    pub fn packet(&self, id: u64) -> Packet {
        Packet::from_frame_unchecked(self.frame(id))
    }
}

/// The id stamped into a packet by [`Generator::packet`], if the packet
/// still has a UDP payload long enough to hold one.
pub fn packet_id(pkt: &Packet) -> Option<u64> {
    let payload = pkt.l4().ok()?.get(UDP_HEADER_LEN..UDP_HEADER_LEN + 8)?;
    Some(u64::from_be_bytes(payload.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames_and_ids_round_trip() {
        let a = Generator::new(7, 64, 64);
        let b = Generator::new(7, 64, 64);
        let c = Generator::new(8, 64, 64);
        for id in [0u64, 1, 63, 64, 1_000_003, PROBE_BASE + 5] {
            assert_eq!(a.frame(id), b.frame(id));
            assert_eq!(packet_id(&a.packet(id)), Some(id));
            assert_eq!(a.packet(id).wire_len(), 64);
        }
        assert_ne!(a.frame(0), c.frame(0), "the seed decides the tuples");
        let keys: HashSet<_> = (0..64).map(|i| a.packet(i).flow_key().unwrap()).collect();
        assert_eq!(keys.len(), 64, "flows are distinct");
    }
}

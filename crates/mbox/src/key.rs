//! The one builder for middlebox state keys.
//!
//! State keys are short ASCII strings such as
//! `mazu:fwd:10.0.0.1:1000->10.9.9.9:80/17`. Spelled with `format!`, the
//! formatting machinery costs more than the partition-map probe the key is
//! built for (about a quarter of a microsecond for a NAT forward key).
//! [`StateKey`] writes the same bytes straight into one buffer sized for
//! the longest key.
//!
//! The spelling is replicated state, not presentation: a key's bytes pick
//! its partition and travel in piggyback logs, snapshots and recovery
//! transfers. The builder therefore produces exactly the bytes the
//! `format!` spelling did; the tests below keep that spelling as the
//! reference.

use bytes::Bytes;
use ftc_packet::FlowKey;
use std::net::Ipv4Addr;

/// Room for the longest key: a nine-byte prefix and a 48-byte flow key.
const CAPACITY: usize = 64;

/// A state key under construction; each step appends to one buffer.
///
/// ```
/// use ftc_mbox::StateKey;
/// use std::net::Ipv4Addr;
///
/// let key = StateKey::new("rl:").ip(Ipv4Addr::new(10, 0, 0, 7)).build();
/// assert_eq!(key.as_ref(), b"rl:10.0.0.7");
/// ```
pub struct StateKey(Vec<u8>);

impl StateKey {
    /// Starts a key with the literal `prefix`.
    pub fn new(prefix: &str) -> StateKey {
        let mut buf = Vec::with_capacity(CAPACITY);
        buf.extend_from_slice(prefix.as_bytes());
        StateKey(buf)
    }

    /// Appends a literal.
    pub fn lit(mut self, s: &str) -> StateKey {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends `n` in decimal, as `Display` spells it.
    pub fn dec(mut self, mut n: u64) -> StateKey {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[i..]);
        self
    }

    /// Appends a dotted quad, as `Ipv4Addr`'s `Display` spells it.
    pub fn ip(self, addr: Ipv4Addr) -> StateKey {
        let [a, b, c, d] = addr.octets();
        self.dec(a.into())
            .lit(".")
            .dec(b.into())
            .lit(".")
            .dec(c.into())
            .lit(".")
            .dec(d.into())
    }

    /// Appends a flow key, as `FlowKey`'s `Display` spells it:
    /// `src_ip:src_port->dst_ip:dst_port/protocol`.
    pub fn flow(self, key: &FlowKey) -> StateKey {
        self.ip(key.src_ip)
            .lit(":")
            .dec(key.src_port.into())
            .lit("->")
            .ip(key.dst_ip)
            .lit(":")
            .dec(key.dst_port.into())
            .lit("/")
            .dec(key.protocol.into())
    }

    /// The finished key.
    pub fn build(self) -> Bytes {
        Bytes::from(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nat, Gen, Ids, LoadBalancer, MazuNat, Monitor};
    use proptest::prelude::*;

    /// Octets and ports drawn so that every digit count, and both ends of
    /// the range, come up often.
    fn octet() -> impl Strategy<Value = u8> {
        prop_oneof![Just(0u8), Just(255u8), 0u8..10, any::<u8>()]
    }

    fn port() -> impl Strategy<Value = u16> {
        prop_oneof![
            Just(0u16),
            Just(u16::MAX),
            0u16..10,
            0u16..1000,
            any::<u16>()
        ]
    }

    fn addr() -> impl Strategy<Value = Ipv4Addr> {
        (octet(), octet(), octet(), octet()).prop_map(|(a, b, c, d)| Ipv4Addr::new(a, b, c, d))
    }

    fn flow() -> impl Strategy<Value = FlowKey> {
        (addr(), addr(), port(), port(), octet()).prop_map(
            |(src_ip, dst_ip, src_port, dst_port, protocol)| FlowKey {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                protocol,
            },
        )
    }

    fn same(built: Bytes, reference: String) -> Result<(), String> {
        if built.as_ref() == reference.as_bytes() {
            Ok(())
        } else {
            Err(format!("built {built:?}, format! spelled {reference:?}"))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// NAT forward, reverse and allocator keys, both NATs' tags.
        #[test]
        fn nat_keys_match_format(key in flow(), ext_port in port()) {
            for tag in ["mazu", "snat"] {
                let p = key.protocol;
                same(nat::forward_key(tag, &key), format!("{tag}:fwd:{key}")).unwrap();
                same(nat::reverse_key(tag, p, ext_port), format!("{tag}:rev:{p}:{ext_port}"))
                    .unwrap();
                same(nat::allocator_key(tag, p), format!("{tag}:nextport:{p}")).unwrap();
            }
        }

        /// MazuNAT's ICMP ping key and the IDS's per-source keys.
        #[test]
        fn source_keys_match_format(src in addr(), ident in port()) {
            same(MazuNat::ping_key(src, ident), format!("mazu:ping:{src}:{ident}")).unwrap();
            same(Ids::ports_key(src), format!("ids:ports:{src}")).unwrap();
            same(Ids::blocked_key(src), format!("ids:blocked:{src}")).unwrap();
        }

        /// Per-flow keys: the Monitor's flow counter and the LB's
        /// connection entry.
        #[test]
        fn flow_keys_match_format(key in flow()) {
            same(Monitor::flow_key_counter(&key), format!("mon:flow:{key}")).unwrap();
            same(LoadBalancer::conn_key(&key), format!("lb:conn:{key}")).unwrap();
        }

        /// Per-worker keys: the Monitor's group counters and Gen's slot.
        #[test]
        fn worker_keys_match_format(worker in 0usize..64, sharing in 1usize..9) {
            let mon = Monitor::new(sharing);
            let group = worker / sharing;
            same(mon.counter_key(worker), format!("mon:packets:g{group}")).unwrap();
            same(mon.bytes_key(worker), format!("mon:bytes:g{group}")).unwrap();
            same(Gen::worker_key(worker), format!("gen:w{worker}")).unwrap();
        }
    }

    #[test]
    fn decimal_covers_the_whole_u64_range() {
        for n in [0, 9, 10, 99, 100, 65_535, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(
                StateKey::new("").dec(n).build().as_ref(),
                n.to_string().as_bytes()
            );
        }
    }
}

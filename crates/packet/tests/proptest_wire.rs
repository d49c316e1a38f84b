//! Property-based tests for the wire formats, among them a
//! structure-aware mutation test of the piggyback trailer decoder.

use bytes::{Bytes, BytesMut};
use ftc_packet::builder::UdpPacketBuilder;
use ftc_packet::checksum;
use ftc_packet::packet::Packet;
use ftc_packet::piggyback::{
    Applicability, CommitVector, DepVector, MboxId, PiggybackLog, PiggybackMessage, StateWrite,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn arb_dep_vector() -> impl Strategy<Value = DepVector> {
    proptest::collection::btree_map(0u16..32, 0u64..1_000, 0..5)
        .prop_map(|m| DepVector::from_entries(m.into_iter().collect()).unwrap())
}

fn arb_write() -> impl Strategy<Value = StateWrite> {
    (vec(any::<u8>(), 0..40), vec(any::<u8>(), 0..120), 0u16..32).prop_map(|(k, v, p)| StateWrite {
        key: Bytes::from(k),
        value: Bytes::from(v),
        partition: p,
    })
}

fn arb_log() -> impl Strategy<Value = PiggybackLog> {
    (0u16..8, arb_dep_vector(), vec(arb_write(), 0..4)).prop_map(|(m, deps, writes)| PiggybackLog {
        mbox: MboxId(m),
        deps,
        writes,
    })
}

fn arb_commit() -> impl Strategy<Value = CommitVector> {
    (0u16..8, vec(0u64..1_000, 0..16)).prop_map(|(m, max)| CommitVector {
        mbox: MboxId(m),
        max,
    })
}

fn arb_message() -> impl Strategy<Value = PiggybackMessage> {
    (any::<bool>(), vec(arb_log(), 0..6), vec(arb_commit(), 0..4)).prop_map(
        |(prop, logs, commits)| PiggybackMessage {
            flags: if prop {
                ftc_packet::piggyback::flags::PROPAGATING
            } else {
                0
            },
            logs,
            commits,
        },
    )
}

/// Offsets of every u16 count and length field of `msg` encoded at `at`:
/// the log and commit counts, each log's dependency and write counts and
/// key and value lengths, and each commit vector's length.
fn count_fields(msg: &PiggybackMessage, at: usize) -> Vec<usize> {
    let mut out = vec![at + 6, at + 8];
    let mut off = at + 10;
    for log in &msg.logs {
        out.push(off + 2);
        off += 4 + 10 * log.deps.len();
        out.push(off);
        off += 2;
        for w in &log.writes {
            out.push(off + 2);
            off += 4 + w.key.len();
            out.push(off);
            off += 2 + w.value.len();
        }
    }
    for c in &msg.commits {
        out.push(off + 2);
        off += 4 + 8 * c.max.len();
    }
    out
}

/// One damage to the wire image `buf` of `msg`, encoded at `at`, chosen by
/// `kind`: a count or length field set to `v` or moved by one, `VERSION`
/// set, the tail length set, a truncation, or a single-byte flip. The
/// properties draw `v` below 64 half the time, where lengths are short.
fn damage(buf: &mut Vec<u8>, msg: &PiggybackMessage, at: usize, kind: u8, which: usize, v: u16) {
    let fields = count_fields(msg, at);
    let field = fields[which % fields.len()];
    let old = u16::from_be_bytes([buf[field], buf[field + 1]]);
    let set = |buf: &mut Vec<u8>, off: usize, new: u16| {
        buf[off..off + 2].copy_from_slice(&new.to_be_bytes());
    };
    match kind % 7 {
        0 => set(buf, field, v),
        1 => set(buf, field, old.wrapping_add(1)),
        2 => set(buf, field, old.wrapping_sub(1)),
        3 => buf[at + 4] = v as u8,
        4 => {
            let end = buf.len();
            set(buf, end - 4, v);
        }
        5 => buf.truncate(buf.len() - which % (buf.len() - at + 1)),
        _ => {
            let i = which % buf.len();
            buf[i] ^= (v as u8) | 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The decoder on a damaged valid message never panics: it returns
    /// `Ok(None)`, an error, or a message that re-encodes to `wire_len()`
    /// bytes and decodes back to itself.
    #[test]
    fn damaged_trailers_reject_or_roundtrip(
        msg in arb_message(),
        prefix in vec(any::<u8>(), 0..32),
        kind in any::<u8>(),
        which in any::<usize>(),
        v in prop_oneof![0u16..64, any::<u16>()],
    ) {
        let mut buf = BytesMut::from(&prefix[..]);
        msg.encode(&mut buf);
        let mut bytes = buf.to_vec();
        damage(&mut bytes, &msg, prefix.len(), kind, which, v);
        if let Ok(Some((got, total))) = PiggybackMessage::decode_trailing(&Bytes::from(bytes)) {
            prop_assert_eq!(total, got.wire_len());
            let mut again = BytesMut::new();
            prop_assert_eq!(got.encode(&mut again), total);
            let (back, n) = PiggybackMessage::decode_trailing(&again.freeze()).unwrap().unwrap();
            prop_assert_eq!(n, total);
            prop_assert_eq!(back, got);
        }
    }

    /// `detach_piggyback` on a packet with a damaged trailer agrees with the
    /// decoder and, on `Err`, leaves the packet as it was.
    #[test]
    fn damaged_trailer_detach_leaves_packet_on_err(
        msg in arb_message(),
        kind in any::<u8>(),
        which in any::<usize>(),
        v in prop_oneof![0u16..64, any::<u16>()],
    ) {
        let mut pkt = UdpPacketBuilder::new().build();
        let at = pkt.wire_len();
        pkt.attach_piggyback(&msg).unwrap();
        let mut bytes = pkt.bytes().to_vec();
        damage(&mut bytes, &msg, at, kind, which, v);
        let decoded = PiggybackMessage::decode_trailing(&Bytes::from(bytes.clone()));
        let mut pkt = Packet::from_frame_unchecked(BytesMut::from(&bytes[..]));
        prop_assert_eq!(pkt.has_piggyback(), matches!(decoded, Ok(Some(_))));
        match (pkt.detach_piggyback(), decoded) {
            (Ok(Some(got)), Ok(Some((want, _)))) => prop_assert_eq!(got, want),
            (Ok(None), Ok(None)) | (Err(_), Err(_)) => prop_assert_eq!(pkt.bytes(), &bytes[..]),
            (got, want) => prop_assert!(false, "detach {:?} vs decode {:?}", got, want),
        }
    }
}

proptest! {
    #[test]
    fn piggyback_roundtrip(msg in arb_message(), prefix in vec(any::<u8>(), 0..64)) {
        let mut buf = BytesMut::from(&prefix[..]);
        let n = msg.encode(&mut buf);
        prop_assert_eq!(n, msg.wire_len());
        let (decoded, total) = PiggybackMessage::decode_trailing(&buf.freeze()).unwrap().unwrap();
        prop_assert_eq!(total, n);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_piggyback_never_panics(msg in arb_message(), cut in 0usize..64) {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let keep = buf.len().saturating_sub(cut);
        // Decoding any truncation either fails cleanly or returns None.
        let _ = PiggybackMessage::decode_trailing(&buf.freeze().slice(..keep));
    }

    #[test]
    fn packet_attach_detach_preserves_datagram(
        msg in arb_message(),
        payload_len in 0usize..512,
        sport in 1u16..u16::MAX,
        dport in 1u16..u16::MAX,
    ) {
        let mut pkt = UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 9, 8, 7), sport)
            .dst(Ipv4Addr::new(1, 2, 3, 4), dport)
            .payload_len(payload_len)
            .build();
        let before = pkt.bytes().to_vec();
        pkt.attach_piggyback(&msg).unwrap();
        let key = pkt.flow_key().unwrap();
        prop_assert_eq!(key.src_port, sport);
        prop_assert_eq!(key.dst_port, dport);
        let got = pkt.detach_piggyback().unwrap().unwrap();
        prop_assert_eq!(got, msg);
        prop_assert_eq!(pkt.bytes(), &before[..]);
    }

    #[test]
    fn checksum_update_equals_recompute(
        mut data in vec(any::<u8>(), 20..64),
        word_idx in 0usize..10,
        new_word in any::<u16>(),
    ) {
        // force even length so the word replacement is aligned
        if data.len() % 2 == 1 { data.pop(); }
        let len = data.len();
        let off = (word_idx * 2 % (len - 1)) & !1usize;
        let before = checksum::checksum(&data);
        let old = u16::from_be_bytes([data[off], data[off + 1]]);
        data[off..off + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(checksum::checksum(&data), checksum::update(before, old, new_word));
    }

    /// Applying piggyback logs in *any* delivery order under the dependency
    /// vector rule reaches the same final MAX vector, and every log gets
    /// applied exactly once (the heart of paper §4.3).
    #[test]
    fn dep_vector_apply_is_order_independent(
        n_parts in 1usize..6,
        txn_parts in vec(vec(any::<bool>(), 1..6), 1..24),
        order in vec(any::<u16>(), 1..24),
    ) {
        // Build a head-side history: each txn touches a subset of partitions.
        let mut head = vec![0u64; n_parts];
        let mut logs = Vec::new();
        for touched in &txn_parts {
            let mut entries = Vec::new();
            for (p, &t) in touched.iter().take(n_parts).enumerate() {
                if t {
                    entries.push((p as u16, head[p]));
                }
            }
            if entries.is_empty() {
                continue; // read-only txn: no log
            }
            for &(p, _) in &entries {
                head[p as usize] += 1;
            }
            logs.push(DepVector::from_entries(entries).unwrap());
        }

        // Deliver in a permuted order with a parking lot, as a replica does.
        let mut indexed: Vec<(usize, &DepVector)> = logs.iter().enumerate().collect();
        let n = indexed.len();
        for (i, &o) in order.iter().enumerate() {
            if n > 0 {
                let j = (o as usize) % n;
                indexed.swap(i % n, j);
            }
        }
        let mut max = vec![0u64; n_parts];
        let mut parked: Vec<(usize, &DepVector)> = Vec::new();
        let mut applied = BTreeMap::new();
        let mut pending: Vec<(usize, &DepVector)> = indexed;
        while !pending.is_empty() || !parked.is_empty() {
            let mut progressed = false;
            let drain: Vec<_> = pending.drain(..).chain(parked.drain(..)).collect();
            for (id, d) in drain {
                match d.applicable_at(&max) {
                    Applicability::Ready => {
                        for &(p, _) in d.entries() {
                            max[p as usize] += 1;
                        }
                        *applied.entry(id).or_insert(0) += 1;
                        progressed = true;
                    }
                    Applicability::NotYet => parked.push((id, d)),
                    Applicability::Stale => prop_assert!(false, "no duplicates were sent"),
                }
            }
            prop_assert!(progressed || parked.is_empty(), "livelock: nothing applicable");
        }
        prop_assert_eq!(&max, &head);
        prop_assert_eq!(applied.len(), logs.len());
        prop_assert!(applied.values().all(|&c| c == 1));
    }
}

//! Property-based tests for log batches on the one trailer codec.
//!
//! The buffer's feedback frames carry a batch of logs and no commit
//! vectors, encoded with [`encode_parts`]; the forwarder and the replicas
//! read trailers through [`Packet::has_piggyback`] and
//! [`Packet::detach_piggyback`], which must classify a damaged frame the
//! way [`PiggybackMessage::decode_trailing`] does. A divergence would let
//! one path accept frames another rejects, which is a protocol split-brain.

use bytes::{Bytes, BytesMut};
use ftc_packet::builder::UdpPacketBuilder;
use ftc_packet::packet::Packet;
use ftc_packet::piggyback::{
    encode_parts, DepVector, MboxId, PiggybackLog, PiggybackMessage, StateWrite,
};
use proptest::collection::vec;
use proptest::prelude::*;

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

/// Collapses a decode result to a comparable shape: `Ok(None)`,
/// `Ok(Some(total_len))`, or `Err(())`.
fn shape<T>(r: Result<Option<(T, usize)>, ftc_packet::WireError>) -> Result<Option<usize>, ()> {
    match r {
        Ok(Some((_, total))) => Ok(Some(total)),
        Ok(None) => Ok(None),
        Err(_) => Err(()),
    }
}

proptest! {
    /// A batch of logs encoded as the buffer encodes its feedback frames
    /// (flags 0, no commits) decodes back to the same logs through an
    /// arbitrary prefix (the batch frame sits at the tail of a datagram).
    #[test]
    fn batched_roundtrip(logs in vec(arb_log(), 0..6), prefix in vec(any::<u8>(), 0..64)) {
        let mut buf = BytesMut::from(&prefix[..]);
        let n = encode_parts(0, &logs, &[], &mut buf);
        let (decoded, total) = PiggybackMessage::decode_trailing(&buf.freeze()).unwrap().unwrap();
        prop_assert_eq!(total, n);
        prop_assert_eq!(total, decoded.wire_len());
        prop_assert_eq!(decoded.flags, 0);
        prop_assert!(decoded.commits.is_empty());
        prop_assert_eq!(decoded.logs, logs);
    }

    /// Rejection parity on damaged input: truncate a packet carrying a
    /// batch at an arbitrary point (in half the cases not at all, so the
    /// tail survives and the body's damage reaches the decoder) and flip
    /// an arbitrary byte. The decoder, `has_piggyback` and
    /// `detach_piggyback` must classify the result identically (accept with
    /// the same length / reject / not-a-trailer), and `detach_piggyback`
    /// must leave the packet as it was unless it accepts.
    #[test]
    fn damaged_frames_reject_identically(
        logs in vec(arb_log(), 0..5),
        payload_len in 64usize..96,
        cut in prop_oneof![Just(0usize), 1usize..80],
        flip_at in any::<usize>(),
        flip_mask in any::<u8>(),
    ) {
        let mut pkt = UdpPacketBuilder::new().payload_len(payload_len).build();
        pkt.attach_piggyback_parts(0, &logs, &[]).unwrap();
        let mut bytes = pkt.bytes().to_vec();
        bytes.truncate(bytes.len() - cut);
        let i = flip_at % bytes.len();
        bytes[i] ^= flip_mask;

        let decoded = shape(PiggybackMessage::decode_trailing(&Bytes::from(bytes.clone())));
        let mut pkt = Packet::from_frame_unchecked(BytesMut::from(&bytes[..]));
        prop_assert_eq!(pkt.has_piggyback(), matches!(decoded, Ok(Some(_))));
        let detached = pkt.detach_piggyback();
        let left = pkt.bytes().len();
        let detached = shape(detached.map(|m| m.map(|m| (m, bytes.len() - left))));
        prop_assert_eq!(&detached, &decoded, "detach classification diverged");
        if !matches!(decoded, Ok(Some(_))) {
            prop_assert_eq!(pkt.bytes(), &bytes[..]);
        }
    }
}

//! Property-based tests for the buffer pool: recycling is invisible.
//!
//! The pool contract ([`ftc_packet::pool`]) is that a recycled object is
//! indistinguishable from a freshly constructed one — pooling is a pure
//! performance feature. These properties drive arbitrary dirtying
//! sequences through checkouts and assert that whatever came before, the
//! next checkout behaves bit-identically to a fresh object.

use bytes::{BufMut, Bytes, BytesMut};
use ftc_packet::piggyback::{
    encode_parts, DepVector, MboxId, PiggybackLog, PiggybackMessage, StateWrite,
};
use ftc_packet::pool::{bytes_pool, log_vec_pool, Pool};
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

/// One step of an arbitrary pool usage history.
#[derive(Debug, Clone)]
enum Op {
    /// Checkout, write `len` junk bytes of value `byte`, drop (recycle).
    Dirty { byte: u8, len: usize },
    /// Checkout, write junk, detach (never recycled).
    DirtyDetach { byte: u8, len: usize },
    /// Checkout and drop immediately (recycle an already-clean object).
    Touch,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0usize..600).prop_map(|(byte, len)| Op::Dirty { byte, len }),
        (any::<u8>(), 0usize..600).prop_map(|(byte, len)| Op::DirtyDetach { byte, len }),
        Just(Op::Touch),
    ]
}

fn apply_ops(pool: &Pool<BytesMut>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Dirty { byte, len } => {
                let mut b = pool.checkout();
                b.put_slice(&std::iter::repeat_n(byte, len).collect::<Vec<u8>>());
            }
            Op::DirtyDetach { byte, len } => {
                let mut b = pool.checkout();
                b.put_slice(&std::iter::repeat_n(byte, len).collect::<Vec<u8>>());
                drop(b.detach());
            }
            Op::Touch => {
                let _ = pool.checkout();
            }
        }
    }
}

proptest! {
    /// After any history of dirtying checkouts, encoding into a pooled
    /// buffer produces exactly the bytes a fresh `BytesMut` would.
    #[test]
    fn recycled_bytes_encode_identically_to_fresh(
        ops in vec(arb_op(), 0..12),
        logs in vec(arb_log(), 0..5),
    ) {
        let pool = bytes_pool(8);
        apply_ops(&pool, &ops);

        let mut pooled = pool.checkout();
        prop_assert!(pooled.is_empty(), "checkout must hand out a reset buffer");
        let n_pooled = encode_parts(0, &logs, &[], &mut pooled);

        let mut fresh = BytesMut::new();
        let n_fresh = encode_parts(0, &logs, &[], &mut fresh);

        prop_assert_eq!(n_pooled, n_fresh);
        prop_assert_eq!(&pooled[..], &fresh[..], "recycled buffer leaked state");
    }

    /// Same property for the log-staging vector pool: a recycled
    /// `Vec<PiggybackLog>` collects and serializes a batch exactly like a
    /// fresh vector, regardless of what previous checkouts staged in it.
    #[test]
    fn recycled_log_vec_stages_identically_to_fresh(
        junk in vec(arb_log(), 0..6),
        batch in vec(arb_log(), 0..6),
    ) {
        let pool = log_vec_pool(8);
        {
            let mut staging = pool.checkout();
            staging.extend(junk.iter().cloned());
        }
        let mut staging = pool.checkout();
        prop_assert!(staging.is_empty(), "checkout must hand out a reset vector");
        staging.extend(batch.iter().cloned());

        let mut via_pool = BytesMut::new();
        encode_parts(0, &staging, &[], &mut via_pool);
        let mut via_fresh = BytesMut::new();
        encode_parts(0, &batch, &[], &mut via_fresh);
        prop_assert_eq!(&via_pool[..], &via_fresh[..]);
    }

    /// Full round trip through the hot path's actual usage: encode a
    /// message into a recycled scratch buffer, freeze, decode — the
    /// decoded message equals the original for every history.
    #[test]
    fn pooled_scratch_roundtrips_messages(
        ops in vec(arb_op(), 0..12),
        logs in vec(arb_log(), 0..5),
    ) {
        let pool = bytes_pool(4);
        apply_ops(&pool, &ops);

        let msg = PiggybackMessage { flags: 0, logs, commits: Vec::new() };
        let mut scratch = pool.checkout();
        let n = msg.encode(&mut scratch);
        prop_assert_eq!(n, msg.wire_len());
        let frozen = scratch.detach().freeze();
        let (decoded, total) = PiggybackMessage::decode_trailing(&frozen)
            .unwrap()
            .unwrap();
        prop_assert_eq!(total, n);
        prop_assert_eq!(decoded, msg);
    }

    /// Accounting invariant: every checkout is served either fresh or
    /// recycled, and the pool never retains more than its cap.
    #[test]
    fn pool_accounting_is_conserved(ops in vec(arb_op(), 0..24), cap in 0usize..4) {
        let pool = bytes_pool(cap);
        apply_ops(&pool, &ops);
        prop_assert_eq!(pool.created() + pool.reused(), ops.len() as u64);
        prop_assert!(pool.idle() <= cap);
    }
}

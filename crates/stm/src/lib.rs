//! Transactional packet processing for FTC middleboxes (paper §4.2–§4.3).
//!
//! This crate implements the *software transactional memory* API the paper
//! describes: middlebox state lives in a [`StateStore`] partitioned by key
//! hash; every packet is processed inside a [`Txn`] that acquires partition
//! locks with **strict two-phase locking** and resolves deadlocks with the
//! **wound-wait** scheme (older transactions wound younger lock holders;
//! younger requesters wait). A wounded transaction aborts at its next state
//! access and is transparently re-executed by [`StateStore::transaction`]
//! with its *original* timestamp, which guarantees progress.
//!
//! A committing transaction that performed at least one write produces a
//! [`TxnLog`]: the set of written key/value pairs plus a sparse
//! [`DepVector`] holding the pre-increment sequence number of every
//! partition the transaction read *or* wrote. The head piggybacks this log
//! onto the packet; replicas feed it to a [`MaxVector`], which enforces the
//! partial-order apply rule of paper Fig. 3 and applies the writes to a
//! replica [`StateStore`].
//!
//! The replication, recovery, and audit layers program against the
//! object-safe [`StateBackend`] trait, which the 2PL store implements; the
//! commit-point contract it honors is documented on [`StateBackend`] and
//! in DESIGN.md §13. [`EngineKind`] names the engine a chain deploys with
//! and has one variant, [`EngineKind::TwoPl`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod max_vector;
#[cfg(feature = "loom")]
pub mod model;
mod recorder;
mod store;
mod txn;

pub use backend::{EngineKind, StateBackend, StateBackendExt, StateTxn};
pub use max_vector::{ApplyOutcome, MaxVector, TryApply};
pub use recorder::{CommitRecord, HistorySink};
pub use store::{PartitionId, StateStore, StoreCounts, StoreSnapshot, StoreStats};
pub use txn::{Txn, TxnError, TxnLog, TxnOutput};

pub use ftc_packet::piggyback::{Applicability, DepVector, SeqNo, StateWrite};

/// Number of state partitions used when none is specified.
///
/// The paper selects the partition count "to exceed the maximum number of
/// CPU cores" to reduce contention; 32 covers the 8-core testbed machines
/// with headroom.
pub const DEFAULT_PARTITIONS: usize = 32;

/// Number of lock shards a store's partitions are grouped into (clamped to
/// the partition count; see [`shard_count`]).
///
/// Partitions are sharded by *flow prefix*: the leading bits of the
/// flow-component hash select the shard, and the full-key hash selects a
/// partition inside it. All state variables of one flow therefore collocate
/// in one shard, so a packet transaction takes its 2PL locks from a single
/// lock group and transactions of distinct flows rarely contend on the same
/// shard at all.
pub const DEFAULT_SHARDS: usize = 8;

/// FNV-1a with a final avalanche mix so both the high bits (shard choice)
/// and the low bits (slot choice) of the result are well distributed even
/// for short, similar keys.
fn mix_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    // splitmix64 finalizer
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// The flow-distinguishing component of a middlebox state key.
///
/// State keys follow the `"<mbox>:<table>:<flow>"` convention (e.g.
/// `mon:packets:g3`, `lb:conn:10.0.0.1:80→…`), so the component after the
/// *first two* separators identifies the flow; sibling variables of the same
/// flow (`mon:packets:g3` / `mon:bytes:g3`) share it and land in the same
/// shard. Keys with fewer separators use the whole key.
pub fn flow_component(key: &[u8]) -> &[u8] {
    let mut seen = 0;
    for (i, &b) in key.iter().enumerate() {
        if b == b':' {
            seen += 1;
            if seen == 2 {
                return &key[i + 1..];
            }
        }
    }
    key
}

/// Number of shards for a store with `partitions` partitions: a store never
/// has more shards than partitions.
pub fn shard_count(partitions: usize) -> usize {
    DEFAULT_SHARDS.min(partitions)
}

/// The contiguous global-index span `(base, len)` of partition indices owned
/// by `shard` in a balanced split of `partitions` across `shards`; the first
/// `partitions % shards` shards hold one extra partition.
pub fn shard_span(shard: usize, partitions: usize, shards: usize) -> (usize, usize) {
    debug_assert!(shard < shards && shards <= partitions);
    let q = partitions / shards;
    let r = partitions % shards;
    let base = shard * q + shard.min(r);
    let len = q + usize::from(shard < r);
    (base, len)
}

/// The shard a key maps to (the flow-prefix level of the mapping).
pub fn shard_of(key: &[u8], partitions: usize) -> usize {
    debug_assert!(partitions > 0 && partitions <= u16::MAX as usize);
    let shards = shard_count(partitions);
    ((mix_hash(flow_component(key)) >> 32) % shards as u64) as usize
}

/// Hashes a state key to its partition. This mapping is deterministic and
/// identical on every replica (paper §4.2: "the state partitioning is
/// consistent across all replicas").
///
/// Two-level: [`shard_of`] picks the shard from the flow component, then the
/// full-key hash picks a partition within that shard's span. Global
/// partition indices remain a flat `0..partitions` space, so dependency
/// vectors, sequence vectors, and snapshots are laid out exactly as before
/// sharding.
pub fn partition_of(key: &[u8], partitions: usize) -> u16 {
    let shards = shard_count(partitions);
    let (base, len) = shard_span(shard_of(key, partitions), partitions, shards);
    (base + (mix_hash(key) % len as u64) as usize) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for n in [1usize, 2, 16, 32, 1000] {
            for key in [&b"a"[..], b"flow:10.0.0.1:80", b""] {
                let p = partition_of(key, n);
                assert!((p as usize) < n);
                assert_eq!(p, partition_of(key, n), "deterministic");
            }
        }
    }

    #[test]
    fn partition_spread_is_reasonable() {
        let n = 32;
        let mut counts = vec![0u32; n];
        for i in 0..10_000u32 {
            let key = format!("flow:{i}");
            counts[partition_of(key.as_bytes(), n) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        // Loose balance check: no partition is more than 3x another.
        assert!(max < min * 3, "unbalanced: min={min} max={max}");
    }

    #[test]
    fn flow_component_takes_suffix_after_second_separator() {
        assert_eq!(flow_component(b"mon:packets:g3"), b"g3");
        assert_eq!(flow_component(b"lb:conn:10.0.0.1:80"), b"10.0.0.1:80");
        assert_eq!(flow_component(b"gen:w2"), b"gen:w2");
        assert_eq!(flow_component(b"plain"), b"plain");
        assert_eq!(flow_component(b""), b"");
    }

    #[test]
    fn shard_spans_tile_the_partition_space() {
        for n in [1usize, 2, 5, 8, 9, 32, 1000] {
            let shards = shard_count(n);
            let mut next = 0;
            for s in 0..shards {
                let (base, len) = shard_span(s, n, shards);
                assert_eq!(base, next, "spans must be contiguous");
                assert!(len >= 1);
                next = base + len;
            }
            assert_eq!(next, n, "spans must cover every partition");
        }
    }

    #[test]
    fn partition_lands_inside_its_flow_shard() {
        for n in [2usize, 8, 32, 100] {
            let shards = shard_count(n);
            for i in 0..500u32 {
                let key = format!("mbox:table:flow{i}");
                let s = shard_of(key.as_bytes(), n);
                let (base, len) = shard_span(s, n, shards);
                let p = partition_of(key.as_bytes(), n) as usize;
                assert!(
                    (base..base + len).contains(&p),
                    "partition {p} outside shard {s} span [{base}, {})",
                    base + len
                );
            }
        }
    }

    #[test]
    fn sibling_keys_of_one_flow_share_a_shard() {
        for g in 0..64u32 {
            let a = format!("mon:packets:g{g}");
            let b = format!("mon:bytes:g{g}");
            assert_eq!(
                shard_of(a.as_bytes(), 32),
                shard_of(b.as_bytes(), 32),
                "same flow component must collocate"
            );
        }
    }
}

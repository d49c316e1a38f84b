//! The partitioned state store.

use crate::recorder::{HistorySink, RecorderCell};
use crate::txn::{Txn, TxnError, TxnOutput, TxnRecord};
use crate::{partition_of, shard_count, shard_of, shard_span, DepVector, StateWrite};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a state partition.
pub type PartitionId = u16;

/// Aggregate statistics maintained by a state engine (shared by every
/// [`crate::StateBackend`] implementation).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Transactions committed.
    pub commits: AtomicU64,
    /// Transactions transparently re-executed after a wound-wait wound.
    pub wound_aborts: AtomicU64,
    /// Piggyback logs applied via [`StateStore::apply_writes`].
    pub applied_logs: AtomicU64,
    /// Lock acquires that parked on a partition condvar because another
    /// transaction held the lock: the one path where a state access still
    /// pays a futex.
    pub lock_waits: AtomicU64,
}

impl StoreStats {
    /// Snapshot of the counters as plain integers.
    pub fn snapshot(&self) -> StoreCounts {
        StoreCounts {
            commits: self.commits.load(Ordering::Relaxed),
            wound_aborts: self.wound_aborts.load(Ordering::Relaxed),
            applied_logs: self.applied_logs.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions re-executed after a wound.
    pub wound_aborts: u64,
    /// Piggyback logs applied.
    pub applied_logs: u64,
    /// Lock acquires that parked.
    pub lock_waits: u64,
}

impl std::ops::Add for StoreCounts {
    type Output = StoreCounts;
    fn add(self, o: StoreCounts) -> StoreCounts {
        StoreCounts {
            commits: self.commits + o.commits,
            wound_aborts: self.wound_aborts + o.wound_aborts,
            applied_logs: self.applied_logs + o.applied_logs,
            lock_waits: self.lock_waits + o.lock_waits,
        }
    }
}

impl StoreCounts {
    /// The counters as JSON object members (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"commits\":{},\"wound_aborts\":{},\"applied_logs\":{},\"lock_waits\":{}",
            self.commits, self.wound_aborts, self.applied_logs, self.lock_waits
        )
    }
}

impl std::fmt::Display for StoreCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commits {}, wound aborts {}, applied logs {}, lock waits {}",
            self.commits, self.wound_aborts, self.applied_logs, self.lock_waits
        )
    }
}

pub(crate) struct PartitionState {
    /// Current lock holder, if any.
    pub owner: Option<Arc<TxnRecord>>,
    /// Key → value map for this partition.
    pub map: HashMap<Bytes, Bytes>,
    /// Number of committed *writing* transactions that touched this
    /// partition — the head's dependency-vector component (paper §4.3).
    pub seq: u64,
}

/// One state partition: the 2PL lock manager cell (owner + condvar) plus the
/// key/value map and sequence counter it guards. Aligned to two cache lines
/// so neighbouring partitions' lock words never false-share under the
/// adjacent-line prefetcher.
#[repr(align(128))]
pub(crate) struct Partition {
    pub state: Mutex<PartitionState>,
    pub cv: Condvar,
}

impl Partition {
    fn new() -> Self {
        Partition {
            state: Mutex::new(PartitionState {
                owner: None,
                map: HashMap::new(),
                seq: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

/// A contiguous group of partitions forming one lock shard. The two-level
/// key mapping ([`crate::partition_of`]) sends every state variable of a
/// flow into a single shard, so a packet transaction's lock footprint stays
/// inside one shard and distinct flows contend on disjoint lock groups.
pub(crate) struct Shard {
    /// Global index of `parts[0]`; the shard owns `base..base + parts.len()`.
    pub base: PartitionId,
    pub parts: Vec<Partition>,
}

/// A copy of a store's contents, transferred during failure recovery
/// (paper §4.1: "the new replica retrieves the state store … and sequence
/// number"). Entries within a partition come in no particular order;
/// equality compares each partition's key/value set and the sequence
/// numbers.
#[derive(Debug, Clone, Eq)]
pub struct StoreSnapshot {
    /// Per-partition key/value pairs.
    pub maps: Vec<Vec<(Bytes, Bytes)>>,
    /// Per-partition sequence numbers.
    pub seqs: Vec<u64>,
}

impl PartialEq for StoreSnapshot {
    fn eq(&self, other: &StoreSnapshot) -> bool {
        fn sorted(m: &[(Bytes, Bytes)]) -> Vec<&(Bytes, Bytes)> {
            let mut m: Vec<_> = m.iter().collect();
            m.sort_unstable();
            m
        }
        self.seqs == other.seqs
            && self.maps.len() == other.maps.len()
            && self
                .maps
                .iter()
                .zip(&other.maps)
                .all(|(a, b)| sorted(a) == sorted(b))
    }
}

impl StoreSnapshot {
    /// Total serialized size of the snapshot in bytes (keys + values), used
    /// to model state-transfer time in recovery experiments.
    pub fn byte_size(&self) -> usize {
        self.maps
            .iter()
            .flatten()
            .map(|(k, v)| k.len() + v.len())
            .sum::<usize>()
            + self.seqs.len() * 8
    }
}

/// A partitioned middlebox state store supporting transactional access.
///
/// ```
/// use ftc_stm::StateStore;
/// use bytes::Bytes;
///
/// let store = StateStore::new(32);
/// let out = store.transaction(|txn| {
///     let hits = txn.read_u64(b"hits")?.unwrap_or(0);
///     txn.write_u64(Bytes::from_static(b"hits"), hits + 1)?;
///     Ok(hits + 1)
/// });
/// assert_eq!(out.value, 1);
/// // Writing transactions yield a replication log for piggybacking.
/// let log = out.log.expect("wrote state");
/// assert_eq!(log.writes.len(), 1);
/// ```
pub struct StateStore {
    /// Lock shards, each owning a contiguous span of the global partition
    /// index space (see [`crate::shard_span`]).
    shards: Vec<Shard>,
    /// Total partition count across all shards.
    n_partitions: usize,
    /// Wound-wait timestamp source, shared by all transactions on this store.
    /// Store-wide (not per-shard) so timestamps stay globally comparable and
    /// wound-wait priority is a single total order.
    pub(crate) ts_gen: AtomicU64,
    /// Statistics.
    pub stats: StoreStats,
    /// The audit-recorder attachment point (see [`crate::StateBackend`]'s
    /// tap obligations).
    tap: RecorderCell,
}

impl StateStore {
    /// Creates a store with `partitions` state partitions, grouped into
    /// [`crate::shard_count`] lock shards.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0 && partitions <= u16::MAX as usize);
        let shards = shard_count(partitions);
        StateStore {
            shards: (0..shards)
                .map(|s| {
                    let (base, len) = shard_span(s, partitions, shards);
                    Shard {
                        base: base as PartitionId,
                        parts: (0..len).map(|_| Partition::new()).collect(),
                    }
                })
                .collect(),
            n_partitions: partitions,
            ts_gen: AtomicU64::new(1),
            stats: StoreStats::default(),
            tap: RecorderCell::default(),
        }
    }

    /// Attaches an audit sink that observes every committed writing
    /// transaction and every applied log. Replaces any previous sink.
    pub fn set_recorder(&self, sink: Arc<dyn HistorySink>) {
        self.tap.set(sink);
    }

    /// Detaches the audit sink, if any. In-flight commits may still report
    /// to the old sink after this returns.
    pub fn clear_recorder(&self) {
        self.tap.clear();
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.n_partitions
    }

    /// Number of lock shards the partitions are grouped into.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition a key maps to.
    pub fn partition_of(&self, key: &[u8]) -> PartitionId {
        partition_of(key, self.n_partitions)
    }

    /// The lock shard a key maps to (the flow-prefix level of the mapping).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        shard_of(key, self.n_partitions)
    }

    /// Resolves a global partition index to its cell in the sharded layout.
    pub(crate) fn part(&self, p: PartitionId) -> &Partition {
        let p = p as usize;
        debug_assert!(p < self.n_partitions);
        // Inverse of `shard_span`: the first `r` shards hold `q + 1`
        // partitions, the rest hold `q`.
        let q = self.n_partitions / self.shards.len();
        let r = self.n_partitions % self.shards.len();
        let cut = r * (q + 1);
        let (s, off) = if p < cut {
            (p / (q + 1), p % (q + 1))
        } else {
            (r + (p - cut) / q, (p - cut) % q)
        };
        let shard = &self.shards[s];
        debug_assert_eq!(
            shard.base as usize + off,
            p,
            "index arithmetic matches layout"
        );
        &shard.parts[off]
    }

    /// Iterates partitions in global index order (shards own contiguous
    /// spans, so shard order *is* global order).
    fn parts(&self) -> impl Iterator<Item = &Partition> {
        self.shards.iter().flat_map(|s| s.parts.iter())
    }

    /// Runs `body` as a packet transaction, retrying transparently when it
    /// is wounded. Returns the closure result and, if the transaction wrote
    /// state, the [`TxnLog`](crate::TxnLog) to piggyback.
    ///
    /// The closure may be re-executed; it must be idempotent with respect to
    /// non-state side effects (packet mutation should be done after the
    /// transaction or based on its output, as the FTC runtimes do).
    pub fn transaction<T>(
        &self,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> TxnOutput<T> {
        let ts = self.ts_gen.fetch_add(1, Ordering::Relaxed);
        loop {
            let record = Arc::new(TxnRecord::new(ts));
            let mut txn = Txn::new(self, record);
            match body(&mut txn) {
                Ok(value) => {
                    let log = txn.commit();
                    self.stats.commits.fetch_add(1, Ordering::Relaxed);
                    if let Some(log) = &log {
                        self.tap.record_commit(log);
                    }
                    return TxnOutput { value, log };
                }
                Err(TxnError::Wounded) => {
                    txn.rollback();
                    self.stats.wound_aborts.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
    }

    /// Non-transactional read of a single key (test and inspection helper;
    /// acquires only the partition's internal mutex, not the 2PL lock).
    pub fn peek(&self, key: &[u8]) -> Option<Bytes> {
        let p = self.partition_of(key);
        let st = self.part(p).state.lock();
        st.map.get(key).cloned()
    }

    /// Non-transactional read of a u64 counter stored at `key`.
    pub fn peek_u64(&self, key: &[u8]) -> Option<u64> {
        self.peek(key)
            .and_then(|v| v.as_ref().try_into().ok().map(u64::from_be_bytes))
    }

    /// The current per-partition sequence vector (the head's dependency
    /// vector state).
    pub fn seq_vector(&self) -> Vec<u64> {
        self.parts().map(|p| p.state.lock().seq).collect()
    }

    /// Applies replicated writes from a piggyback log to this store,
    /// incrementing the sequence numbers of the partitions in `deps`.
    ///
    /// This is the replica-side mirror of a head commit: the caller (a
    /// [`crate::MaxVector`]) has already established that the log is
    /// in-order. Partition internal mutexes are taken in index order, so
    /// concurrent appliers cannot deadlock.
    pub fn apply_writes(&self, deps: &DepVector, writes: &[StateWrite]) {
        let mut touched: Vec<PartitionId> = deps.entries().iter().map(|&(p, _)| p).collect();
        if touched.is_empty() {
            // Defensive: a no-op log carries no deps; nothing to bump.
            debug_assert!(writes.is_empty());
            return;
        }
        touched.sort_unstable();
        let mut guards: Vec<(PartitionId, MutexGuard<'_, PartitionState>)> = touched
            .iter()
            .map(|&p| (p, self.part(p).state.lock()))
            .collect();
        for w in writes {
            let slot = guards
                .iter_mut()
                .find(|(p, _)| *p == w.partition)
                .map(|(_, g)| g)
                .expect("write partition must appear in the dependency vector");
            if w.value.is_empty() {
                slot.map.remove(&w.key);
            } else {
                slot.map.insert(w.key.clone(), w.value.clone());
            }
        }
        for (_, g) in &mut guards {
            g.seq += 1;
        }
        drop(guards);
        self.stats.applied_logs.fetch_add(1, Ordering::Relaxed);
        self.tap.record_apply(deps, writes);
    }

    /// Copies the store for recovery state transfer: one presized vector
    /// per partition, in map order.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut maps = Vec::with_capacity(self.n_partitions);
        let mut seqs = Vec::with_capacity(self.n_partitions);
        for p in self.parts() {
            let st = p.state.lock();
            let mut entries = Vec::with_capacity(st.map.len());
            entries.extend(st.map.iter().map(|(k, v)| (k.clone(), v.clone())));
            maps.push(entries);
            seqs.push(st.seq);
        }
        StoreSnapshot { maps, seqs }
    }

    /// Runs `f` on every partition in index order, under that partition's
    /// lock, with its sequence number and its entries.
    pub fn visit_partitions(&self, f: &mut dyn FnMut(u64, &HashMap<Bytes, Bytes>)) {
        for p in self.parts() {
            let st = p.state.lock();
            f(st.seq, &st.map);
        }
    }

    /// Replaces the store contents from a snapshot (recovery restore),
    /// moving its entries into presized maps.
    pub fn restore(&self, snap: StoreSnapshot) {
        assert_eq!(
            (snap.maps.len(), snap.seqs.len()),
            (self.n_partitions, self.n_partitions),
            "partition count mismatch"
        );
        for ((p, entries), seq) in self.parts().zip(snap.maps).zip(snap.seqs) {
            let mut map = HashMap::with_capacity(entries.len());
            map.extend(entries);
            let mut st = p.state.lock();
            st.map = map;
            st.seq = seq;
        }
    }

    /// Restores only the per-partition sequence numbers (used when a new
    /// head sets its dependency vector from a fetched `MAX`, paper §5.2).
    pub fn restore_seqs(&self, seqs: &[u64]) {
        assert_eq!(seqs.len(), self.n_partitions);
        for (p, &s) in self.parts().zip(seqs) {
            p.state.lock().seq = s;
        }
    }

    /// Total number of keys across partitions.
    pub fn len(&self) -> usize {
        self.parts().map(|p| p.state.lock().map.len()).sum()
    }

    /// True if no partition holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for StateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateStore")
            .field("partitions", &self.n_partitions)
            .field("shards", &self.shards.len())
            .field("keys", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_read_write_txn() {
        let store = StateStore::new(8);
        let out = store.transaction(|txn| {
            assert_eq!(txn.read(b"k")?, None);
            txn.write(Bytes::from_static(b"k"), Bytes::from_static(b"v1"))?;
            Ok(())
        });
        let log = out.log.expect("writing txn must log");
        assert_eq!(log.writes.len(), 1);
        assert_eq!(store.peek(b"k"), Some(Bytes::from_static(b"v1")));
    }

    #[test]
    fn read_only_txn_has_no_log() {
        let store = StateStore::new(8);
        store.transaction(|txn| {
            txn.write(Bytes::from_static(b"a"), Bytes::from_static(b"1"))?;
            Ok(())
        });
        let seqs_before = store.seq_vector();
        let out = store.transaction(|txn| txn.read(b"a"));
        assert_eq!(out.value, Some(Bytes::from_static(b"1")));
        assert!(out.log.is_none(), "read-only transactions leave no log");
        assert_eq!(
            store.seq_vector(),
            seqs_before,
            "paper: read-only txns do not change the vector"
        );
    }

    #[test]
    fn writing_txn_bumps_read_partitions_too() {
        let store = StateStore::new(8);
        let ka = Bytes::from_static(b"a");
        let kb = Bytes::from_static(b"b");
        store.transaction(|txn| {
            txn.write(ka.clone(), Bytes::from_static(b"1"))?;
            Ok(())
        });
        let out = store.transaction(|txn| {
            let _ = txn.read(&ka)?; // read one partition
            txn.write(kb.clone(), Bytes::from_static(b"2"))?; // write another
            Ok(())
        });
        let log = out.log.unwrap();
        let pa = store.partition_of(&ka);
        let pb = store.partition_of(&kb);
        assert!(log.deps.get(pa).is_some(), "read partition in dep vector");
        assert!(
            log.deps.get(pb).is_some(),
            "written partition in dep vector"
        );
    }

    #[test]
    fn dep_vector_records_pre_increment_seq() {
        let store = StateStore::new(4);
        let k = Bytes::from_static(b"x");
        let p = store.partition_of(&k);
        for expected in 0..3u64 {
            let out = store.transaction(|txn| {
                txn.write(k.clone(), Bytes::from_static(b"v"))?;
                Ok(())
            });
            assert_eq!(out.log.unwrap().deps.get(p), Some(expected));
        }
        assert_eq!(store.seq_vector()[p as usize], 3);
    }

    #[test]
    fn delete_via_empty_value() {
        let store = StateStore::new(4);
        let k = Bytes::from_static(b"gone");
        store.transaction(|txn| {
            txn.write(k.clone(), Bytes::from_static(b"v"))?;
            Ok(())
        });
        store.transaction(|txn| {
            txn.delete(k.clone())?;
            Ok(())
        });
        assert_eq!(store.peek(&k), None);
    }

    #[test]
    fn apply_writes_mirrors_commit() {
        let head = StateStore::new(8);
        let replica = StateStore::new(8);
        let k = Bytes::from_static(b"mirrored");
        let out = head.transaction(|txn| {
            txn.write(k.clone(), Bytes::from_static(b"v"))?;
            Ok(())
        });
        let log = out.log.unwrap();
        replica.apply_writes(&log.deps, &log.writes);
        assert_eq!(replica.peek(&k), Some(Bytes::from_static(b"v")));
        assert_eq!(replica.seq_vector(), head.seq_vector());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let store = StateStore::new(8);
        for i in 0..50 {
            let key = Bytes::from(format!("k{i}"));
            store.transaction(|txn| {
                txn.write(key.clone(), Bytes::from(format!("v{i}")))?;
                Ok(())
            });
        }
        let snap = store.snapshot();
        assert!(snap.byte_size() > 0);
        let other = StateStore::new(8);
        other.restore(snap);
        assert_eq!(other.len(), 50);
        assert_eq!(other.seq_vector(), store.seq_vector());
        assert_eq!(other.peek(b"k17"), Some(Bytes::from_static(b"v17")));
    }

    #[test]
    fn restore_over_a_non_empty_store_leaves_only_the_snapshot() {
        let source = StateStore::new(8);
        let target = StateStore::new(8);
        for i in 0..20 {
            source.transaction(|txn| {
                txn.write(Bytes::from(format!("k{i}")), Bytes::from(format!("v{i}")))?;
                Ok(())
            });
        }
        for i in 10..40 {
            for _ in 0..3 {
                target.transaction(|txn| {
                    txn.write(Bytes::from(format!("k{i}")), Bytes::from_static(b"stale"))?;
                    Ok(())
                });
            }
        }
        let snap = source.snapshot();
        target.restore(snap.clone());
        assert_eq!(target.len(), 20);
        assert_eq!(target.seq_vector(), source.seq_vector());
        assert_eq!(target.snapshot(), snap);
        assert_eq!(target.peek(b"k15"), Some(Bytes::from_static(b"v15")));
        assert_eq!(
            target.peek(b"k30"),
            None,
            "a key the snapshot lacks is gone"
        );
    }

    #[test]
    fn sharded_layout_preserves_global_index_order() {
        for n in [1usize, 3, 8, 9, 32, 100] {
            let store = StateStore::new(n);
            assert_eq!(store.partitions(), n);
            assert!(store.shards() <= n && store.shards() >= 1);
            // Stamp each partition through its shard cell and confirm the
            // flat seq_vector reads it back at the same global index.
            for p in 0..n {
                store.part(p as PartitionId).state.lock().seq = p as u64 + 1;
            }
            assert_eq!(store.seq_vector(), (1..=n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn keys_resolve_inside_their_flow_shard() {
        let store = StateStore::new(32);
        for i in 0..200u32 {
            let key = format!("nat:flow:10.0.{}.{}", i / 8, i % 8);
            let s = store.shard_of(key.as_bytes());
            let (base, len) = crate::shard_span(s, store.partitions(), store.shards());
            let p = store.partition_of(key.as_bytes()) as usize;
            assert!((base..base + len).contains(&p));
        }
    }

    #[test]
    fn counter_helpers() {
        let store = StateStore::new(4);
        let k = Bytes::from_static(b"cnt");
        for _ in 0..5 {
            store.transaction(|txn| {
                let c = txn.read_u64(&k)?.unwrap_or(0);
                txn.write_u64(k.clone(), c + 1)?;
                Ok(())
            });
        }
        assert_eq!(store.peek_u64(&k), Some(5));
    }
}

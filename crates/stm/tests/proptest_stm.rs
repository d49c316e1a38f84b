//! Property-based tests: serializability and replication equivalence.

use bytes::Bytes;
use ftc_stm::{partition_of, DepVector, MaxVector, StateStore, StateWrite, TxnLog};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::thread;

/// A tiny op language for generated transactions.
#[derive(Debug, Clone)]
enum Op {
    /// Add `delta` to counter `key`.
    Add(u8, u8),
    /// Copy counter `a` into counter `b`.
    Copy(u8, u8),
}

fn arb_txn() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (0u8..6, 1u8..5).prop_map(|(k, d)| Op::Add(k, d)),
            (0u8..6, 0u8..6).prop_map(|(a, b)| Op::Copy(a, b)),
        ],
        1..4,
    )
}

fn key(k: u8) -> Bytes {
    Bytes::from(format!("counter:{k}"))
}

fn run_txn(store: &StateStore, ops: &[Op]) -> Option<TxnLog> {
    store
        .transaction(|txn| {
            for op in ops {
                match *op {
                    Op::Add(k, d) => {
                        let c = txn.read_u64(&key(k))?.unwrap_or(0);
                        txn.write_u64(key(k), c + u64::from(d))?;
                    }
                    Op::Copy(a, b) => {
                        let v = txn.read_u64(&key(a))?.unwrap_or(0);
                        txn.write_u64(key(b), v)?;
                    }
                }
            }
            Ok(())
        })
        .log
}

/// One state access of a generated transaction body, over key `k` of the
/// case's key pool.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read(u8),
    Write(u8, u8),
    Delete(u8),
}

/// Bodies built from single accesses and the buffer's interesting pairs:
/// overwrite, read-own-write, delete-then-write and write-then-delete.
fn arb_body() -> impl Strategy<Value = Vec<Access>> {
    let k = || 0u8..6;
    let v = || 1u8..=255;
    let pair = prop_oneof![
        k().prop_map(|k| vec![Access::Read(k)]),
        (k(), v()).prop_map(|(k, v)| vec![Access::Write(k, v)]),
        k().prop_map(|k| vec![Access::Delete(k)]),
        (k(), v(), v()).prop_map(|(k, a, b)| vec![Access::Write(k, a), Access::Write(k, b)]),
        (k(), v()).prop_map(|(k, v)| vec![Access::Write(k, v), Access::Read(k)]),
        (k(), v()).prop_map(|(k, v)| vec![Access::Delete(k), Access::Write(k, v), Access::Read(k)]),
        (k(), v()).prop_map(|(k, v)| vec![Access::Write(k, v), Access::Delete(k), Access::Read(k)]),
    ];
    vec(pair, 1..5).prop_map(|pairs| pairs.concat())
}

/// Key `k` of a pool of `pool` keys. The shapes differ in their flow
/// component, so keys spread over shards and partitions and sometimes share
/// one.
fn pool_key(k: u8, pool: u8) -> Bytes {
    let k = k % pool;
    Bytes::from(match k % 3 {
        0 => format!("t:a:{k}"),
        1 => format!("t:b:flow{k}"),
        _ => format!("u{k}"),
    })
}

/// The transaction buffer as it was built before the sorted vectors: a
/// `BTreeSet` footprint and a `BTreeMap` write buffer, grouped into a
/// per-partition `BTreeMap` at commit. Kept as the reference the shipped
/// buffer must match byte for byte.
struct RefStore {
    maps: Vec<HashMap<Bytes, Bytes>>,
    seqs: Vec<u64>,
}

impl RefStore {
    fn new(partitions: usize) -> RefStore {
        RefStore {
            maps: vec![HashMap::new(); partitions],
            seqs: vec![0; partitions],
        }
    }

    fn transaction(&mut self, body: &[Access], pool: u8) -> (Vec<Option<Bytes>>, Option<TxnLog>) {
        let n = self.maps.len();
        let mut touched = BTreeSet::new();
        let mut writes: BTreeMap<Bytes, Bytes> = BTreeMap::new();
        let mut reads = Vec::new();
        for &a in body {
            match a {
                Access::Read(k) => {
                    let key = pool_key(k, pool);
                    let p = partition_of(&key, n);
                    touched.insert(p);
                    reads.push(match writes.get(&key) {
                        Some(v) if v.is_empty() => None,
                        Some(v) => Some(v.clone()),
                        None => self.maps[p as usize].get(&key).cloned(),
                    });
                }
                Access::Write(k, v) => {
                    let key = pool_key(k, pool);
                    touched.insert(partition_of(&key, n));
                    writes.insert(key, Bytes::from(vec![v]));
                }
                Access::Delete(k) => {
                    let key = pool_key(k, pool);
                    touched.insert(partition_of(&key, n));
                    writes.insert(key, Bytes::new());
                }
            }
        }
        if writes.is_empty() {
            return (reads, None);
        }
        let mut by_part: BTreeMap<u16, Vec<(&Bytes, &Bytes)>> = BTreeMap::new();
        for (k, v) in &writes {
            by_part.entry(partition_of(k, n)).or_default().push((k, v));
        }
        let mut deps = Vec::new();
        let mut log = Vec::new();
        for &p in &touched {
            deps.push((p, self.seqs[p as usize]));
            self.seqs[p as usize] += 1;
            for (k, v) in by_part.get(&p).into_iter().flatten() {
                if v.is_empty() {
                    self.maps[p as usize].remove(*k);
                } else {
                    self.maps[p as usize].insert((*k).clone(), (*v).clone());
                }
                log.push(StateWrite {
                    key: (*k).clone(),
                    value: (*v).clone(),
                    partition: p,
                });
            }
        }
        let deps = DepVector::from_entries(deps).unwrap();
        (reads, Some(TxnLog { deps, writes: log }))
    }
}

/// Runs `body` on the shipped store, collecting every read's result.
fn run_body(store: &StateStore, body: &[Access], pool: u8) -> (Vec<Option<Bytes>>, Option<TxnLog>) {
    let out = store.transaction(|txn| {
        let mut reads = Vec::new();
        for &a in body {
            match a {
                Access::Read(k) => reads.push(txn.read(&pool_key(k, pool))?),
                Access::Write(k, v) => txn.write(pool_key(k, pool), Bytes::from(vec![v]))?,
                Access::Delete(k) => txn.delete(pool_key(k, pool))?,
            }
        }
        Ok(reads)
    });
    (out.value, out.log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shipped transaction buffer against the tree-based one it
    /// replaced: the same read results, the same logs (deps, and writes in
    /// partition-then-key order), the same final contents and sequence
    /// vector.
    #[test]
    fn txn_buffer_matches_tree_reference(
        bodies in vec(arb_body(), 1..12),
        pool in 1u8..=6,
        partitions in 1usize..=8,
    ) {
        let store = StateStore::new(partitions);
        let mut reference = RefStore::new(partitions);
        for body in &bodies {
            let (reads, log) = run_body(&store, body, pool);
            let (ref_reads, ref_log) = reference.transaction(body, pool);
            prop_assert_eq!(reads, ref_reads);
            prop_assert_eq!(log, ref_log);
        }
        prop_assert_eq!(store.seq_vector(), reference.seqs.clone());
        let mut snap = store.snapshot();
        for (p, map) in reference.maps.iter().enumerate() {
            let mut expected: Vec<(Bytes, Bytes)> =
                map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            expected.sort();
            // Snapshot entries come in map order.
            snap.maps[p].sort();
            prop_assert_eq!(&snap.maps[p], &expected);
        }
    }

    /// Concurrently executed transactions commute to SOME serial order:
    /// total additions are conserved for Add-only workloads.
    #[test]
    fn additions_conserved_across_threads(
        txns in vec(vec((0u8..6, 1u8..5), 1..4), 1..24)
    ) {
        let store = Arc::new(StateStore::new(8));
        let expected: u64 = txns.iter().flatten().map(|&(_, d)| u64::from(d)).sum();
        let mut handles = Vec::new();
        for chunk in txns.chunks(6) {
            let store = Arc::clone(&store);
            let chunk = chunk.to_vec();
            handles.push(thread::spawn(move || {
                for txn in &chunk {
                    let ops: Vec<Op> = txn.iter().map(|&(k, d)| Op::Add(k, d)).collect();
                    run_txn(&store, &ops);
                }
            }));
        }
        for h in handles { h.join().unwrap(); }
        let total: u64 = (0..6).map(|k| store.peek_u64(&key(k)).unwrap_or(0)).sum();
        prop_assert_eq!(total, expected);
    }

    /// Replaying the piggyback logs of a concurrent execution on a replica
    /// store — in any delivery order — reproduces the head store exactly.
    #[test]
    fn replica_replay_matches_head(
        txns in vec(arb_txn(), 1..24),
        seed in any::<u64>(),
    ) {
        let head = Arc::new(StateStore::new(8));
        let logs = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for chunk in txns.chunks(6) {
            let head = Arc::clone(&head);
            let logs = Arc::clone(&logs);
            let chunk = chunk.to_vec();
            handles.push(thread::spawn(move || {
                for ops in &chunk {
                    if let Some(log) = run_txn(&head, ops) {
                        logs.lock().push(log);
                    }
                }
            }));
        }
        for h in handles { h.join().unwrap(); }

        let mut logs = Arc::try_unwrap(logs).unwrap().into_inner();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        logs.shuffle(&mut rng);

        let replica = StateStore::new(8);
        let max = MaxVector::new(8);
        for log in &logs {
            max.offer(&log.deps, &log.writes, &replica);
        }
        prop_assert_eq!(max.parked_len(), 0, "all logs must eventually apply");
        prop_assert_eq!(replica.seq_vector(), head.seq_vector());
        for k in 0..6 {
            prop_assert_eq!(replica.peek_u64(&key(k)), head.peek_u64(&key(k)));
        }
    }

    /// Wound-wait is starvation-free: under a randomized fully-conflicting
    /// workload every transaction commits exactly once (retries keep their
    /// original timestamp, so each one eventually becomes the oldest and
    /// can no longer be wounded), and the abort count stays bounded rather
    /// than growing without limit.
    #[test]
    fn wound_wait_is_starvation_free(
        per_thread in vec(1usize..40, 2..5),
        hot_keys in 1u8..3,
    ) {
        let store = Arc::new(StateStore::new(4));
        let mut handles = Vec::new();
        for (t, &n) in per_thread.iter().enumerate() {
            let store = Arc::clone(&store);
            let hot = t as u8 % hot_keys;
            handles.push(thread::spawn(move || {
                for _ in 0..n {
                    // Everyone hammers a hot counter (and one rotating
                    // second key, creating cross-partition conflicts).
                    run_txn(&store, &[Op::Add(hot, 1), Op::Copy(hot, hot_keys)]);
                }
            }));
        }
        // Joining at all is the liveness claim: a starved transaction
        // would spin in StateStore::transaction forever.
        for h in handles { h.join().unwrap(); }
        let expected: u64 = per_thread.iter().map(|&n| n as u64).sum();
        let total: u64 = (0..hot_keys).map(|k| store.peek_u64(&key(k)).unwrap_or(0)).sum();
        prop_assert_eq!(total, expected, "every txn commits exactly once");
        let ftc_stm::StoreCounts { commits, wound_aborts: wounds, .. } = store.stats.snapshot();
        prop_assert_eq!(commits, expected);
        // Wound-wait bounds retries; allow generous slack for scheduling
        // noise but fail on quadratic-or-worse blowups.
        prop_assert!(
            wounds <= 20 * commits + 100,
            "{wounds} wound-aborts for {commits} commits"
        );
    }

    /// `MaxVector::try_apply` convergence: applying the head's logs in ANY
    /// dep-respecting order (random linear extensions of the dependency
    /// partial order, generated by shuffled ready-set sweeps, without the
    /// parking lot's help) reproduces the head store exactly.
    #[test]
    fn try_apply_converges_under_random_dep_respecting_orders(
        txns in vec(arb_txn(), 1..20),
        seed in any::<u64>(),
    ) {
        let head = StateStore::new(8);
        let mut logs = Vec::new();
        for ops in &txns {
            if let Some(log) = run_txn(&head, ops) {
                logs.push(log);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let replica = StateStore::new(8);
        let max = MaxVector::new(8);
        let mut pending: Vec<usize> = (0..logs.len()).collect();
        while !pending.is_empty() {
            pending.shuffle(&mut rng);
            let before = pending.len();
            pending.retain(|&i| {
                max.try_apply(&logs[i].deps, &logs[i].writes, &replica)
                    != ftc_stm::Applicability::Ready
            });
            prop_assert!(pending.len() < before, "no log applicable: stuck");
        }
        prop_assert_eq!(max.parked_len(), 0, "try_apply never parks");
        prop_assert_eq!(replica.seq_vector(), head.seq_vector());
        for k in 0..7 {
            prop_assert_eq!(replica.peek_u64(&key(k)), head.peek_u64(&key(k)));
        }
    }

    /// Snapshot/restore is faithful under arbitrary committed state.
    #[test]
    fn snapshot_restore_faithful(txns in vec(arb_txn(), 0..16)) {
        let store = StateStore::new(8);
        for ops in &txns {
            run_txn(&store, ops);
        }
        let snap = store.snapshot();
        let copy = StateStore::new(8);
        copy.restore(snap.clone());
        prop_assert_eq!(copy.snapshot(), snap);
        prop_assert_eq!(copy.seq_vector(), store.seq_vector());
    }
}

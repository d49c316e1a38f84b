//! Model checks of the concurrency core, compiled only with
//! `--features loom`:
//!
//! ```text
//! cargo test -p ftc-stm --features loom
//! ```
//!
//! See `crates/stm/src/model.rs` for the properties verified.

#![cfg(feature = "loom")]

use bytes::Bytes;
use ftc_stm::model::{
    check_max_vector_permutations, check_wound_wait, check_wound_wait_opts, ModelOptions,
};
use ftc_stm::{DepVector, StateStore, StateWrite};

#[test]
fn wound_wait_opposite_orders() {
    // The classic deadlock shape: T0 locks p0 then p1, T1 locks p1 then
    // p0. Wound-wait must resolve every interleaving.
    let stats = check_wound_wait(&[vec![0, 1], vec![1, 0]], 2).unwrap();
    assert!(stats.terminals >= 1);
    assert!(stats.max_aborts >= 1, "some interleaving wounds T1");
}

#[test]
fn wound_wait_three_txn_ring() {
    // A three-way lock ring: each txn's second lock is the next txn's
    // first. Plain 2PL can deadlock all three; wound-wait cannot.
    let stats = check_wound_wait(&[vec![0, 1], vec![1, 2], vec![2, 0]], 3).unwrap();
    assert!(stats.states > 100, "ring explores a real state space");
}

#[test]
fn wound_wait_hot_partition() {
    // Three txns serialized through one partition: no deadlock possible,
    // but wounding still fires; all must commit exactly once.
    check_wound_wait(&[vec![0], vec![0], vec![0]], 1).unwrap();
}

#[test]
fn wound_wait_mixed_footprints() {
    let stats = check_wound_wait(&[vec![0, 1, 2], vec![2, 0], vec![1]], 3).unwrap();
    assert!(stats.terminals >= 1);
}

#[test]
fn checker_detects_deadlock_when_wounding_is_disabled() {
    // Self-test: with wounding off this is plain blocking 2PL, and the
    // checker must find its deadlock rather than vacuously pass.
    let err = check_wound_wait_opts(
        &[vec![0, 1], vec![1, 0]],
        2,
        ModelOptions {
            wound: false,
            ..ModelOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("deadlock"), "got: {err}");
}

/// Produces a realistic cross-partition log batch by running writing
/// transactions against a head store.
fn log_batch(n: u64, partitions: usize) -> Vec<(DepVector, Vec<StateWrite>)> {
    let head = StateStore::new(partitions);
    let hot = Bytes::from_static(b"hot");
    (0..n)
        .map(|i| {
            let out = head.transaction(|txn| {
                let c = txn.read_u64(&hot)?.unwrap_or(0);
                txn.write_u64(hot.clone(), c + 1)?;
                txn.write_u64(Bytes::from(format!("k{i}")), i)?;
                Ok(())
            });
            let log = out.log.expect("writing txn yields a log");
            (log.deps, log.writes)
        })
        .collect()
}

#[test]
fn max_vector_converges_under_every_delivery_order() {
    let logs = log_batch(5, 4);
    let orders = check_max_vector_permutations(&logs, 4, false);
    assert_eq!(orders, 120);
}

#[test]
fn max_vector_tolerates_duplicate_delivery() {
    // At-least-once delivery: every log arrives twice, in every order of
    // first arrivals. Duplicates must never double-apply.
    let logs = log_batch(4, 4);
    let orders = check_max_vector_permutations(&logs, 4, true);
    assert_eq!(orders, 24);
}

#[test]
fn max_vector_single_partition_chain() {
    // Fully dependent chain: every out-of-order delivery parks.
    let head = StateStore::new(1);
    let k = Bytes::from_static(b"k");
    let logs: Vec<_> = (0..5u64)
        .map(|i| {
            let out = head.transaction(|txn| {
                txn.write_u64(k.clone(), i)?;
                Ok(())
            });
            let log = out.log.unwrap();
            (log.deps, log.writes)
        })
        .collect();
    assert_eq!(check_max_vector_permutations(&logs, 1, false), 120);
}

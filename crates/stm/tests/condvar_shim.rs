//! Regression tests for the vendored `parking_lot::Condvar` stand-in, kept
//! in first-party code because `vendor/` is outside the workspace's test
//! run.
//!
//! Every packet transaction releases its partition locks through one of
//! these condvars. The shim counts its waiters and skips `std`'s notify —
//! a futex syscall even with no waiter — when the count is zero, so these
//! tests pin both halves of that bargain: no wake-up is ever lost, and no
//! wake-up is paid for when nobody waits.

use bytes::Bytes;
use ftc_stm::StateStore;
use parking_lot::{Condvar, Mutex};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn blocking_ping_pong_loses_no_wakeup() {
    // The turn counter is even when it is the main thread's move and odd
    // when it is the echo thread's; `DONE` stops the echo. A waiter whose
    // wake-up is lost sleeps out its 50 ms bound, so twenty thousand round
    // trips cannot finish in time on a broken waiter count.
    const ROUNDS: u64 = 20_000;
    const DONE: u64 = u64::MAX;
    let shared = Arc::new((Mutex::new(0u64), Condvar::new(), Condvar::new()));
    let echo = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let (turn, to_main, to_echo) = &*shared;
            let mut t = turn.lock();
            while *t != DONE {
                if *t % 2 == 1 {
                    *t += 1;
                    to_main.notify_one();
                } else {
                    to_echo.wait_for(&mut t, Duration::from_millis(50));
                }
            }
            Condvar::notify_count()
        })
    };
    let (turn, to_main, to_echo) = &*shared;
    let t0 = Instant::now();
    let budget = Duration::from_secs(5);
    let rounds = {
        let mut t = turn.lock();
        while *t < 2 * ROUNDS && t0.elapsed() < budget {
            if *t % 2 == 0 {
                *t += 1;
                to_echo.notify_one();
            } else {
                to_main.wait_for(&mut t, Duration::from_millis(50));
            }
        }
        let rounds = *t / 2;
        *t = DONE;
        rounds
    };
    to_echo.notify_one();
    let elapsed = t0.elapsed();
    let notifies = Condvar::notify_count() + echo.join().unwrap();
    assert_eq!(
        rounds, ROUNDS,
        "only {rounds} of {ROUNDS} round trips in {elapsed:?}"
    );
    assert!(notifies > 0, "parked waiters must be woken");
}

#[test]
fn uncontended_transactions_issue_no_notify() {
    let store = StateStore::new(8);
    let key = Bytes::from_static(b"counter");
    let before = Condvar::notify_count();
    for i in 0..10_000u64 {
        let out = store.transaction(|txn| txn.write_u64(key.clone(), i));
        assert!(out.log.is_some());
    }
    assert_eq!(
        Condvar::notify_count(),
        before,
        "a lock release nobody waits for must not notify"
    );
    assert_eq!(store.stats.snapshot().lock_waits, 0);
}

#[test]
fn lock_release_wakes_a_parked_waiter() {
    // The holder starts first, so it is older and the waiter does not
    // wound it: the waiter parks on the partition condvar until the holder
    // commits, and that commit's release must notify.
    let store = Arc::new(StateStore::new(1));
    let key = Bytes::from_static(b"hot");
    let (locked_tx, locked_rx) = mpsc::channel();
    let holder = {
        let store = Arc::clone(&store);
        let key = key.clone();
        thread::spawn(move || {
            let before = Condvar::notify_count();
            store.transaction(|txn| {
                txn.write_u64(key.clone(), 1)?;
                let _ = locked_tx.send(());
                let deadline = Instant::now() + Duration::from_secs(5);
                while store.stats.snapshot().lock_waits == 0 && Instant::now() < deadline {
                    thread::yield_now();
                }
                Ok(())
            });
            Condvar::notify_count() - before
        })
    };
    locked_rx.recv().unwrap();
    let waiter = {
        let store = Arc::clone(&store);
        thread::spawn(move || store.transaction(|txn| txn.read_u64(&key)).value)
    };
    assert_eq!(
        waiter.join().unwrap(),
        Some(1),
        "the waiter reads the commit"
    );
    assert!(store.stats.snapshot().lock_waits > 0, "the waiter parked");
    assert!(
        holder.join().unwrap() > 0,
        "releasing to a parked waiter notifies"
    );
}

#[test]
fn timed_waits_still_time_out() {
    let m = Mutex::new(());
    let cv = Condvar::new();
    let mut g = m.lock();
    let t0 = Instant::now();
    assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    assert!(t0.elapsed() >= Duration::from_millis(5));
    let t0 = Instant::now();
    let past = Instant::now() - Duration::from_millis(1);
    assert!(cv.wait_until(&mut g, past).timed_out());
    assert!(
        t0.elapsed() < Duration::from_millis(5),
        "a past deadline returns at once"
    );
}

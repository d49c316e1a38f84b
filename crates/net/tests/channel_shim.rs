//! Regression tests for the vendored `crossbeam::channel` stand-in, kept in
//! first-party code because `vendor/` is outside the workspace's test run.
//!
//! Every hand-off on the packet path (ingress, links, NIC queues, egress)
//! is one of these channels. The shim notifies its condvars only when a
//! thread is actually parked — `Condvar::notify_one` is a futex syscall
//! even with no waiter — so these tests pin both halves of that bargain:
//! no wake-up is ever lost, and no wake-up is paid for when nobody waits.
//! The `interrupt` hook ends a parked timed wait without an item.

use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender,
};
use std::collections::BTreeSet;
use std::thread;
use std::time::{Duration, Instant};

/// `rounds` blocking round trips between this thread and an echo thread.
fn ping_pong(
    (ping_tx, ping_rx): (Sender<u32>, Receiver<u32>),
    (pong_tx, pong_rx): (Sender<u32>, Receiver<u32>),
    rounds: u32,
) -> usize {
    let echo = thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            pong_tx.send(v).unwrap();
        }
    });
    for i in 0..rounds {
        ping_tx.send(i).unwrap();
        assert_eq!(pong_rx.recv(), Ok(i));
    }
    let notifies = pong_rx.notify_count();
    drop(ping_tx);
    echo.join().unwrap();
    notifies
}

#[test]
fn blocking_ping_pong_loses_no_wakeup() {
    // A waiter whose wake-up is lost sleeps out its 50 ms bound, so twenty
    // thousand round trips cannot finish in time on a broken waiter count.
    for cap in [None, Some(1)] {
        let pair = || cap.map_or_else(unbounded, bounded);
        let t0 = Instant::now();
        let notifies = ping_pong(pair(), pair(), 20_000);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cap {cap:?}: 20 000 round trips took {:?}",
            t0.elapsed()
        );
        assert!(notifies > 0, "cap {cap:?}: parked receivers must be woken");
    }
}

#[test]
fn mpmc_delivers_every_item_exactly_once() {
    // Small capacity: senders park on a full queue as well as receivers on
    // an empty one.
    let (tx, rx) = bounded::<u32>(4);
    let producers: Vec<_> = (0..4u32)
        .map(|p| {
            let tx = tx.clone();
            thread::spawn(move || {
                for i in 0..5_000 {
                    tx.send(p * 5_000 + i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let rx = rx.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    for p in producers {
        p.join().unwrap();
    }
    let got: Vec<u32> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    assert_eq!(got.len(), 20_000, "no duplicates");
    assert_eq!(
        got.into_iter().collect::<BTreeSet<_>>(),
        (0..20_000).collect::<BTreeSet<_>>(),
        "no losses"
    );
}

#[test]
fn uncontended_handoff_issues_no_notify() {
    let (tx, rx) = bounded::<u32>(8);
    for i in 0..1_000 {
        tx.send(i).unwrap();
        tx.try_send(i).unwrap();
        assert_eq!(rx.try_recv(), Ok(i));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(i));
    }
    assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
    assert_eq!(
        rx.notify_count(),
        0,
        "nobody was parked when an item was pushed or popped"
    );
}

#[test]
fn interrupt_ends_a_parked_receive_and_a_parked_send() {
    let long = Duration::from_secs(10);
    let (tx, rx) = unbounded::<u32>();
    let receiver = {
        let rx = rx.clone();
        thread::spawn(move || {
            let t0 = Instant::now();
            (rx.recv_timeout(long), t0.elapsed())
        })
    };
    thread::sleep(Duration::from_millis(20));
    tx.interrupt();
    let (got, took) = receiver.join().unwrap();
    assert_eq!(got, Err(RecvTimeoutError::Timeout));
    assert!(took < Duration::from_secs(1), "receive lasted {took:?}");

    let (tx, rx) = bounded::<u32>(1);
    tx.send(0).unwrap();
    let sender = thread::spawn(move || {
        let t0 = Instant::now();
        (tx.send_timeout(1, long), t0.elapsed())
    });
    thread::sleep(Duration::from_millis(20));
    rx.interrupt();
    let (sent, took) = sender.join().unwrap();
    assert!(
        matches!(sent, Err(SendTimeoutError::Timeout(1))),
        "the value comes back"
    );
    assert!(took < Duration::from_secs(1), "send lasted {took:?}");
    assert_eq!(rx.try_recv(), Ok(0), "the queue is untouched");
}

#[test]
fn an_interrupt_with_nobody_parked_ends_only_the_next_wait() {
    let (tx, rx) = unbounded::<u32>();
    rx.interrupt();
    let t0 = Instant::now();
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)),
        Err(RecvTimeoutError::Timeout)
    );
    assert!(t0.elapsed() < Duration::from_secs(1), "the permit ends it");
    let t0 = Instant::now();
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(20)),
        Err(RecvTimeoutError::Timeout)
    );
    assert!(t0.elapsed() >= Duration::from_millis(20), "used up");
    // Pushes and pops with nobody parked still cost no notify.
    for i in 0..100 {
        tx.send(i).unwrap();
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(i));
    }
    assert_eq!(rx.notify_count(), 0);
}

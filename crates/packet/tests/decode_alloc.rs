//! The trailer decoder allocates no more than the bytes it was given could
//! hold: a count field that promises more records than the trailer has
//! room for must not size an allocation.
//!
//! A counting global allocator records the largest single allocation made
//! on the decoding thread while a hostile trailer is decoded.

use bytes::Bytes;
use ftc_packet::piggyback::PiggybackMessage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// reads a const thread-local and updates an atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// A trailer with the given log and commit counts around `body`: the
/// `VERSION` 1 header (magic `FTC!`, version, no flags, the two counts)
/// and the tail (total length, tail magic).
fn trailer(n_logs: u16, n_commits: u16, body: &[u8]) -> Bytes {
    let mut t = vec![0x46, 0x54, 0x43, 0x21, 1, 0];
    t.extend_from_slice(&n_logs.to_be_bytes());
    t.extend_from_slice(&n_commits.to_be_bytes());
    t.extend_from_slice(body);
    let total = (t.len() + 4) as u16;
    t.extend_from_slice(&total.to_be_bytes());
    t.extend_from_slice(&[0x46, 0xec]);
    Bytes::from(t)
}

/// The largest single allocation made while decoding `frame`.
fn largest_alloc(frame: &Bytes) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let result = PiggybackMessage::decode_trailing(frame);
    MEASURING.with(|m| m.set(false));
    assert!(result.is_err(), "hostile trailer accepted: {result:?}");
    drop(result);
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn hostile_counts_allocate_at_most_one_kib() {
    let max = u16::MAX.to_be_bytes();
    let cases = [
        // 20 bytes declaring 65,535 logs; the first is an empty log.
        ("logs", trailer(u16::MAX, 0, &[0; 6])),
        // One log: mbox 0, 65,535 dependencies, two bytes of them.
        ("deps", trailer(1, 0, &[0, 0, max[0], max[1], 0, 0])),
        // One log: mbox 0, no dependencies, 65,535 writes.
        ("writes", trailer(1, 0, &[0, 0, 0, 0, max[0], max[1]])),
        // 65,535 commit vectors, the first empty.
        ("commits", trailer(0, u16::MAX, &[0, 0, 0, 0, 0, 0])),
        // One commit vector: mbox 0, 65,535 counters, two bytes of them.
        (
            "commit length",
            trailer(0, 1, &[0, 0, max[0], max[1], 0, 0]),
        ),
    ];
    for (name, frame) in &cases {
        assert_eq!(frame.len(), 20, "{name}");
        let largest = largest_alloc(frame);
        assert!(
            largest <= 1024,
            "{name}: decoding a 20-byte trailer allocated {largest} B at once"
        );
    }
}

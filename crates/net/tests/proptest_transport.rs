//! Property-based tests of the transport surfaces: the in-process and
//! socket backends speak the same unified frame codec and deliver the same
//! byte streams, and the socket backend tolerates adversarial byte-level
//! framing (partial writes) and injected connection resets.

use bytes::BytesMut;
use ftc_net::sock::{SockNode, SockTransport};
use ftc_net::{reliable_pair_on, Endpoint, FrameRx, FrameTx, PeerAddr};
use ftc_packet::frame;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fresh UDS address per test case (paths must be unique and short).
fn uds_addr(tag: &str) -> PeerAddr {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    PeerAddr::Uds(
        std::env::temp_dir().join(format!("ftc-pt-{tag}-{}-{n}.sock", std::process::id())),
    )
}

/// Pushes `payloads` through a backend's reliable stream and returns the
/// delivered byte streams, pumping sender and receiver until done.
fn pump(
    tx: &mut dyn FrameTx,
    rx: &mut dyn FrameRx,
    payloads: &[Vec<u8>],
    deadline: Instant,
) -> Vec<Vec<u8>> {
    let mut got: Vec<Vec<u8>> = Vec::with_capacity(payloads.len());
    let mut sent = 0;
    while got.len() < payloads.len() {
        assert!(
            Instant::now() < deadline,
            "stalled at {}/{}",
            got.len(),
            payloads.len()
        );
        if sent < payloads.len() {
            tx.send(BytesMut::from(&payloads[sent][..])).unwrap();
            sent += 1;
        }
        tx.poll().unwrap();
        while let Some(p) = rx.recv_timeout(Duration::from_micros(300)).unwrap() {
            got.push(p.to_vec());
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The two backends are interchangeable behind `FrameTx`/`FrameRx`:
    /// for any payload sequence, the byte streams delivered over an
    /// in-process link and over a real Unix socket are identical (and
    /// equal to the input — exactly-once, in order, contents intact).
    #[test]
    fn in_proc_and_uds_backends_deliver_identical_streams(
        payloads in pvec(pvec(any::<u8>(), 0..600usize), 1..40usize),
    ) {
        let deadline = Instant::now() + Duration::from_secs(20);

        let (mut tx, mut rx) = reliable_pair_on(&Endpoint::in_proc(), 7);
        let via_inproc = pump(&mut tx, &mut rx, &payloads, deadline);

        let addr = uds_addr("parity");
        let node = SockNode::bind(&addr).unwrap();
        let transport = SockTransport::new(node);
        let sock_ep = Endpoint::sock(addr);
        let mut tx = transport.open_tx(&sock_ep, 7);
        let mut rx = transport.open_rx(7);
        let via_uds = pump(&mut *tx, &mut *rx, &payloads, deadline);

        prop_assert_eq!(&via_inproc, &payloads);
        prop_assert_eq!(&via_uds, &payloads);
    }

    /// A reliable receiver behind the socket backend reassembles frames
    /// from arbitrary partial writes: a raw dialer trickles the encoded
    /// bytes in adversarial chunk sizes and everything is still delivered
    /// exactly once, in order.
    #[test]
    fn receiver_reassembles_arbitrary_partial_writes(
        payloads in pvec(pvec(any::<u8>(), 0..300usize), 1..30usize),
        chunks in pvec(1usize..48, 1..64usize),
    ) {
        let addr = uds_addr("chunks");
        let node = SockNode::bind(&addr).unwrap();
        let transport = SockTransport::new(node);
        let mut rx = transport.open_rx(3);

        // Encode the whole DATA sequence with the shared codec, then
        // deliver it through a raw socket in the proptest-chosen splits.
        let mut wire = BytesMut::new();
        for (seq, p) in payloads.iter().enumerate() {
            frame::encode_into(&mut wire, frame::kind::DATA, 3, seq as u64, p);
        }
        let PeerAddr::Uds(path) = &addr else { unreachable!() };
        let mut raw = std::os::unix::net::UnixStream::connect(path).unwrap();
        let mut off = 0;
        let mut chunk = chunks.iter().cycle();
        while off < wire.len() {
            let n = (*chunk.next().unwrap()).min(wire.len() - off);
            raw.write_all(&wire[off..off + n]).unwrap();
            raw.flush().unwrap();
            off += n;
        }

        let mut got: Vec<Vec<u8>> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < payloads.len() {
            prop_assert!(Instant::now() < deadline, "stalled at {}/{}", got.len(), payloads.len());
            while let Some(p) = rx.recv_timeout(Duration::from_millis(1)).unwrap() {
                got.push(p.to_vec());
            }
        }
        prop_assert_eq!(&got, &payloads);
    }

    /// The reliable endpoints survive connection resets injected at
    /// arbitrary points in the transfer: RTO retransmission redials and
    /// fills whatever the kill dropped.
    #[test]
    fn reliable_transfer_survives_injected_resets(
        n in 20u32..120,
        kill_at in pvec(0u32..120, 1..4usize),
    ) {
        let addr = uds_addr("resets");
        let node = SockNode::bind(&addr).unwrap();
        let transport = SockTransport::new(node.clone());
        let sock_ep = Endpoint::sock(addr);
        let mut tx = transport.open_tx(&sock_ep, 9);
        let mut rx = transport.open_rx(9);

        let mut got: Vec<u32> = Vec::new();
        let mut sent = 0u32;
        let deadline = Instant::now() + Duration::from_secs(20);
        while (got.len() as u32) < n {
            prop_assert!(Instant::now() < deadline, "stalled at {}/{n}", got.len());
            if sent < n {
                if kill_at.contains(&sent) {
                    node.kill_connections();
                }
                tx.send(BytesMut::from(&sent.to_be_bytes()[..])).unwrap();
                sent += 1;
            }
            tx.poll().unwrap();
            while let Some(p) = rx.recv_timeout(Duration::from_micros(300)).unwrap() {
                got.push(u32::from_be_bytes(p[..4].try_into().unwrap()));
            }
        }
        let expect: Vec<u32> = (0..n).collect();
        prop_assert_eq!(got, expect);
    }
}

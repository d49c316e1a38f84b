//! Migration transfer frames on the wire (the test `ftc_stm::migrate`'s
//! docs pin the codec contract to).
//!
//! A reconfiguration transfer ships one [`PartitionExport`] per flow
//! partition as the payload of an `ftc_packet::frame` DATA frame. Over a
//! real socket those frames arrive re-chunked arbitrarily and — when the
//! source dies mid-transfer — cut at any byte. The properties forced
//! here, over the PR-8 sim socket with its fault hooks
//! (`tokio::sim::cut_conn_after`):
//!
//! * a clean transfer round-trips **byte-identically**: every re-encoded
//!   export equals the bytes the source put on the wire, and the
//!   destination store re-exports to the same bytes;
//! * a torn transfer yields only whole, decodable frames — the cut tail
//!   never produces a phantom export, and every strict prefix of an
//!   export payload fails [`PartitionExport::decode`] with a typed error;
//! * imports are idempotent per partition, so re-sending everything on a
//!   fresh connection completes the migration byte-identically.

use bytes::Bytes;
use ftc_packet::frame::{self, kind, FrameDecoder};
use ftc_stm::{PartitionExport, StateStore};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tokio::runtime::Runtime;
use tokio::sim;

/// Unique sim names per case — the sim registry is thread-local and
/// never reset between proptest cases.
static NEXT_NAME: AtomicUsize = AtomicUsize::new(0);

fn fresh_name() -> String {
    format!("mig-frames-{}", NEXT_NAME.fetch_add(1, Ordering::Relaxed))
}

const PREFIXES: &[&str] = &["mon:", "gen:", "ids:", "lb:"];

/// A store populated with the generated writes, plus the wire form of
/// every partition export (the transfer the source would send).
fn source_and_wire(partitions: usize, writes: &[(u8, u16, u64)]) -> (StateStore, Vec<Bytes>) {
    let store = StateStore::new(partitions);
    for &(prefix, suffix, value) in writes {
        let key = Bytes::from(format!(
            "{}{:04x}",
            PREFIXES[prefix as usize % PREFIXES.len()],
            suffix
        ));
        store.transaction(|txn| {
            txn.write_u64(key.clone(), value)?;
            Ok(())
        });
    }
    let wire = (0..partitions as u16)
        .map(|p| store.export_partition(p).encode())
        .collect();
    (store, wire)
}

/// Frame every export as `[DATA, stream=partition, seq=export seq]`.
fn frame_exports(wire: &[Bytes]) -> Vec<Bytes> {
    wire.iter()
        .enumerate()
        .map(|(p, w)| {
            let seq = PartitionExport::decode(w).expect("self-encoded").seq;
            frame::encode(kind::DATA, p as u16, seq, w).freeze()
        })
        .collect()
}

/// Drains the reader until EOF/reset, feeding every chunk to `dec` and
/// collecting the whole frames that come out. Returns `false` if the
/// decoder reported a corrupt stream (torn connection).
async fn read_frames(
    rx: &mut tokio::net::OwnedReadHalf,
    dec: &mut FrameDecoder,
    out: &mut Vec<ftc_packet::frame::Frame>,
) -> bool {
    let mut buf = [0u8; 512];
    loop {
        match rx.read(&mut buf).await {
            Ok(0) | Err(_) => return true,
            Ok(n) => {
                dec.extend(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => out.push(f),
                        Ok(None) => break,
                        Err(_) => return false,
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean transfer: every partition's export crosses the sim socket
    /// and round-trips byte-identically into the destination store.
    #[test]
    fn exports_roundtrip_byte_identically_over_the_sim_socket(
        partitions in 1usize..8,
        writes in pvec((any::<u8>(), any::<u16>(), any::<u64>()), 0..32),
    ) {
        let (src, wire) = source_and_wire(partitions, &writes);
        let frames = frame_exports(&wire);
        let name = fresh_name();

        let rt = Runtime::new().unwrap();
        let got = rt.block_on(async {
            let listener = sim::SimListener::bind(&name).unwrap();
            let client = sim::connect(&name).unwrap();
            let (server, _) = listener.accept().await.unwrap();
            let (_cr, mut cw) = client.into_split();
            let (mut sr, _sw) = server.into_split();
            for f in &frames {
                cw.write_all(f).await.unwrap();
            }
            cw.shutdown().await.unwrap();
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let clean = read_frames(&mut sr, &mut dec, &mut got).await;
            prop_assert!(clean, "clean stream must not decode as corrupt");
            prop_assert_eq!(dec.pending(), 0);
            got
        });

        prop_assert_eq!(got.len(), partitions);
        let dst = StateStore::new(partitions);
        for (f, original) in got.iter().zip(&wire) {
            // Byte-identical payload, and the decoded export re-encodes
            // to the same bytes.
            prop_assert_eq!(&f.payload[..], &original[..]);
            let ex = PartitionExport::decode(&f.payload).expect("whole frame decodes");
            prop_assert_eq!(&ex.encode()[..], &original[..]);
            prop_assert_eq!(ex.partition as usize, f.stream as usize);
            dst.import_partition(&ex);
        }
        // The destination's own exports reproduce the source's bytes.
        for (p, original) in wire.iter().enumerate() {
            prop_assert_eq!(&dst.export_partition(p as u16).encode()[..], &original[..]);
        }
        prop_assert_eq!(dst.snapshot(), src.snapshot());
        prop_assert_eq!(dst.seq_vector(), src.seq_vector());
    }

    /// Torn transfer: cut the connection after an arbitrary byte count.
    /// Only whole frames come out (each byte-identical), the torn tail
    /// yields no phantom export, and a resend on a fresh connection
    /// completes the migration.
    #[test]
    fn torn_transfer_yields_whole_frames_then_resumes(
        partitions in 1usize..6,
        writes in pvec((any::<u8>(), any::<u16>(), any::<u64>()), 1..24),
        cut_frac in 0.0f64..1.0,
        prefix_frac in 0.0f64..1.0,
    ) {
        let (src, wire) = source_and_wire(partitions, &writes);
        let frames = frame_exports(&wire);
        let total: usize = frames.iter().map(|f| f.len()).sum();
        let cut = 1 + ((total - 1) as f64 * cut_frac) as usize; // 1..=total-? always < total+1

        // Every strict prefix of an export payload is a typed decode
        // error — the codec can never be fooled by a torn frame body.
        let sample = &wire[(partitions - 1).min(wire.len() - 1)];
        if sample.len() > 1 {
            let cut_at = 1 + ((sample.len() - 2) as f64 * prefix_frac) as usize;
            prop_assert!(PartitionExport::decode(&sample[..cut_at]).is_err());
        }

        let name = fresh_name();
        let rt = Runtime::new().unwrap();
        let dst = StateStore::new(partitions);
        let (received, resumed) = rt.block_on(async {
            let listener = sim::SimListener::bind(&name).unwrap();
            let client = sim::connect(&name).unwrap();
            let idx = sim::conn_count() - 1;
            let (server, _) = listener.accept().await.unwrap();
            sim::cut_conn_after(idx, true, cut);
            let (_cr, mut cw) = client.into_split();
            let (mut sr, _sw) = server.into_split();
            for f in &frames {
                if cw.write_all(f).await.is_err() {
                    break; // connection died mid-write: source crashed
                }
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            read_frames(&mut sr, &mut dec, &mut got).await;
            // Whatever follows the last whole frame must never decode:
            // the next poll yields "need more bytes" forever (or the
            // stream was already flagged corrupt above).
            if let Ok(tail) = dec.next_frame() {
                prop_assert!(tail.is_none(), "phantom frame out of a torn tail");
            }

            // The destination imports what landed, then the transfer is
            // retried in full on a fresh connection (imports are
            // idempotent, so the overlap is harmless).
            for f in &got {
                let ex = PartitionExport::decode(&f.payload).expect("whole frame");
                dst.import_partition(&ex);
            }

            let client2 = sim::connect(&name).unwrap();
            let (server2, _) = listener.accept().await.unwrap();
            let (_cr2, mut cw2) = client2.into_split();
            let (mut sr2, _sw2) = server2.into_split();
            for f in &frames {
                cw2.write_all(f).await.unwrap();
            }
            cw2.shutdown().await.unwrap();
            let mut dec2 = FrameDecoder::new();
            let mut got2 = Vec::new();
            let clean = read_frames(&mut sr2, &mut dec2, &mut got2).await;
            prop_assert!(clean, "retry stream must be clean");
            (got, got2)
        });

        // The torn run delivered a prefix of the frame sequence,
        // byte-identical as far as it got.
        prop_assert!(received.len() <= partitions);
        for (f, original) in received.iter().zip(&wire) {
            prop_assert_eq!(&f.payload[..], &original[..]);
        }

        prop_assert_eq!(resumed.len(), partitions);
        for (f, original) in resumed.iter().zip(&wire) {
            prop_assert_eq!(&f.payload[..], &original[..]);
            dst.import_partition(&PartitionExport::decode(&f.payload).unwrap());
        }
        prop_assert_eq!(dst.snapshot(), src.snapshot());
        prop_assert_eq!(dst.seq_vector(), src.seq_vector());
    }
}

//! The FTC piggyback message: piggyback logs, commit vectors, and their
//! trailer wire format (paper §4.3, §5.1, §6).
//!
//! A *piggyback log* carries the state updates of one packet transaction at
//! one middlebox: a sparse *data dependency vector* (the pre-increment
//! sequence number of every state partition the transaction read or wrote)
//! plus the written key/value pairs. A *commit vector* is appended by the
//! tail of a replication group and announces the latest updates replicated
//! `f + 1` times. The *piggyback message* is the list of both that rides at
//! the end of the packet.

use crate::{WireError, WireResult};
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// A per-partition sequence number.
pub type SeqNo = u64;

/// Identifier of a middlebox within a chain (its position, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MboxId(pub u16);

impl core::fmt::Display for MboxId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A sparse data dependency vector: `(partition index, sequence number)`
/// pairs for the partitions a transaction touched, sorted by index.
/// Untouched partitions are implicit "don't care" entries (paper Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DepVector {
    entries: Vec<(u16, SeqNo)>,
}

impl DepVector {
    /// Creates an empty (all don't-care) vector.
    pub fn new() -> Self {
        DepVector::default()
    }

    /// Creates a vector from `(partition, seq)` pairs; sorts and checks for
    /// duplicate partitions.
    pub fn from_entries(mut entries: Vec<(u16, SeqNo)>) -> WireResult<Self> {
        entries.sort_unstable_by_key(|e| e.0);
        if entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(WireError::BadLength);
        }
        Ok(DepVector { entries })
    }

    /// The non-don't-care entries, sorted by partition index.
    pub fn entries(&self) -> &[(u16, SeqNo)] {
        &self.entries
    }

    /// Number of concrete entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if every entry is don't-care.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the sequence number recorded for `partition`, if any.
    pub fn get(&self, partition: u16) -> Option<SeqNo> {
        self.entries
            .binary_search_by_key(&partition, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// The apply-rule check (paper Fig. 3): this log is applicable at a
    /// replica whose per-partition applied counters are `max` iff
    /// `max[p] == seq` for every concrete entry `(p, seq)`.
    pub fn applicable_at(&self, max: &[SeqNo]) -> Applicability {
        let mut stale = false;
        for &(p, seq) in &self.entries {
            let m = max.get(p as usize).copied().unwrap_or(0);
            if m < seq {
                return Applicability::NotYet;
            }
            if m > seq {
                stale = true;
            }
        }
        if stale {
            // At least one partition already advanced past this log. With
            // FIFO links this only happens for retransmitted duplicates, in
            // which case *all* entries have been applied.
            Applicability::Stale
        } else {
            Applicability::Ready
        }
    }

    /// True iff every entry has been applied under `max` (i.e.
    /// `max[p] > seq` for all entries) — used by the buffer release rule.
    pub fn committed_under(&self, max: &[SeqNo]) -> bool {
        self.entries
            .iter()
            .all(|&(p, seq)| max.get(p as usize).copied().unwrap_or(0) > seq)
    }
}

/// Result of testing a dependency vector against a replica's MAX vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// All dependencies are satisfied exactly; apply now.
    Ready,
    /// Some dependency has not been applied yet; park the log.
    NotYet,
    /// The log was already applied (duplicate delivery); drop it.
    Stale,
}

/// A single state write carried in a piggyback log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateWrite {
    /// State variable key.
    pub key: Bytes,
    /// New value. An empty value encodes a deletion.
    pub value: Bytes,
    /// The state partition the key hashes to (recorded so replicas need not
    /// recompute the hash).
    pub partition: u16,
}

/// The state updates of one packet transaction at one middlebox.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PiggybackLog {
    /// Which middlebox produced this log.
    pub mbox: MboxId,
    /// Sparse dependency vector: pre-increment sequence numbers of every
    /// partition the transaction read or wrote.
    pub deps: DepVector,
    /// The writes to replicate (empty for a read-only "no-op" log).
    pub writes: Vec<StateWrite>,
}

impl PiggybackLog {
    /// Serialized size in bytes of this log on the wire.
    pub fn wire_len(&self) -> usize {
        let mut n = 2 + 2 + self.deps.len() * 10 + 2;
        for w in &self.writes {
            n += 2 + 2 + w.key.len() + 2 + w.value.len();
        }
        n
    }
}

/// A commit vector: the tail's dense applied-counter vector for one
/// middlebox, announcing what has been replicated `f + 1` times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitVector {
    /// Which middlebox this commit vector covers.
    pub mbox: MboxId,
    /// Dense per-partition applied counters (`MAX`).
    pub max: Vec<SeqNo>,
}

impl CommitVector {
    /// Serialized size in bytes on the wire.
    pub fn wire_len(&self) -> usize {
        2 + 2 + self.max.len() * 8
    }

    /// Pointwise maximum with another commit vector for the same middlebox.
    pub fn merge_from(&mut self, other: &CommitVector) {
        if other.max.len() > self.max.len() {
            self.max.resize(other.max.len(), 0);
        }
        for (i, &v) in other.max.iter().enumerate() {
            if v > self.max[i] {
                self.max[i] = v;
            }
        }
    }
}

/// Flags carried in the piggyback message header.
pub mod flags {
    /// The packet is a propagating packet: replicas must process the message
    /// but not hand the packet to a middlebox (paper §5.1).
    pub const PROPAGATING: u8 = 0x01;
}

/// The full piggyback message appended to a packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PiggybackMessage {
    /// Message flags (see [`flags`]).
    pub flags: u8,
    /// Piggyback logs, in chain order of their originating middleboxes.
    pub logs: Vec<PiggybackLog>,
    /// Commit vectors appended by tails.
    pub commits: Vec<CommitVector>,
}

const MAGIC: u32 = 0x4654_4321; // "FTC!"
const TAIL_MAGIC: u16 = 0x46ec;
const VERSION: u8 = 1;
/// Bytes of fixed framing: header (magic, version, flags, counts) + tail
/// (length, tail magic).
pub const FRAMING_LEN: usize = 4 + 1 + 1 + 2 + 2 + 4;

impl PiggybackMessage {
    /// A propagating-packet message with the given logs.
    pub fn propagating(logs: Vec<PiggybackLog>) -> Self {
        PiggybackMessage {
            flags: flags::PROPAGATING,
            logs,
            commits: Vec::new(),
        }
    }

    /// True if the propagating flag is set.
    pub fn is_propagating(&self) -> bool {
        self.flags & flags::PROPAGATING != 0
    }

    /// Returns the mutable commit vector for `mbox`, inserting a fresh one
    /// if absent.
    pub fn commit_entry(&mut self, mbox: MboxId, partitions: usize) -> &mut CommitVector {
        if let Some(i) = self.commits.iter().position(|c| c.mbox == mbox) {
            return &mut self.commits[i];
        }
        self.commits.push(CommitVector {
            mbox,
            max: vec![0; partitions],
        });
        self.commits.last_mut().expect("just pushed")
    }

    /// Serialized size in bytes, including framing.
    pub fn wire_len(&self) -> usize {
        FRAMING_LEN
            + self.logs.iter().map(PiggybackLog::wire_len).sum::<usize>()
            + self
                .commits
                .iter()
                .map(CommitVector::wire_len)
                .sum::<usize>()
    }

    /// Appends the serialized message to `out` and returns the number of
    /// bytes written.
    pub fn encode(&self, out: &mut BytesMut) -> usize {
        encode_parts(self.flags, &self.logs, &self.commits, out)
    }

    /// Decodes the message that occupies the *last* bytes of `buf`,
    /// returning it and its total encoded length. Returns `Ok(None)` if the
    /// buffer does not end in a piggyback trailer.
    ///
    /// Zero-copy: the returned [`StateWrite`] keys and values are slices
    /// sharing `buf`'s allocation (a reference-count bump, no byte copies).
    pub fn decode_trailing(buf: &Bytes) -> WireResult<Option<(PiggybackMessage, usize)>> {
        decode_body(buf, &mut |r| buf.slice(r))
    }
}

/// The trailer encoder: appends a message made of `flags`, `logs` and
/// `commits` to `out` and returns the bytes written. Callers that hold the
/// parts in other containers (the forwarder's pooled staging vector, the
/// buffer's log backlog) encode straight from them, without materializing
/// a [`PiggybackMessage`].
pub fn encode_parts(
    flags: u8,
    logs: &[PiggybackLog],
    commits: &[CommitVector],
    out: &mut BytesMut,
) -> usize {
    let start = out.len();
    out.put_u32(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(flags);
    out.put_u16(logs.len() as u16);
    out.put_u16(commits.len() as u16);
    for log in logs {
        out.put_u16(log.mbox.0);
        out.put_u16(log.deps.len() as u16);
        for &(p, s) in log.deps.entries() {
            out.put_u16(p);
            out.put_u64(s);
        }
        out.put_u16(log.writes.len() as u16);
        for w in &log.writes {
            out.put_u16(w.partition);
            out.put_u16(w.key.len() as u16);
            out.put_slice(&w.key);
            out.put_u16(w.value.len() as u16);
            out.put_slice(&w.value);
        }
    }
    for c in commits {
        out.put_u16(c.mbox.0);
        out.put_u16(c.max.len() as u16);
        for &s in &c.max {
            out.put_u64(s);
        }
    }
    let len = out.len() - start + 4; // include the tail itself
    out.put_u16(len as u16);
    out.put_u16(TAIL_MAGIC);
    len
}

/// Length of the trailer at the end of `buf`, framing included, read from
/// its tail alone; `Ok(None)` when the buffer does not end in a trailer.
pub(crate) fn trailer_len(buf: &[u8]) -> WireResult<Option<usize>> {
    if buf.len() < FRAMING_LEN {
        return Ok(None);
    }
    let tail = &buf[buf.len() - 4..];
    if u16::from_be_bytes([tail[2], tail[3]]) != TAIL_MAGIC {
        return Ok(None);
    }
    let total = usize::from(u16::from_be_bytes([tail[0], tail[1]]));
    if total < FRAMING_LEN || total > buf.len() {
        return Err(WireError::BadLength);
    }
    Ok(Some(total))
}

/// True if `buf` ends in a trailer that decodes.
pub(crate) fn ends_in_trailer(buf: &[u8]) -> bool {
    matches!(decode_body(buf, &mut |_| Bytes::new()), Ok(Some(_)))
}

/// The trailer decoder: reads every log and commit record of the trailer
/// at the end of `buf`. `mk` materializes a key or value from its byte
/// range in `buf`. Every capacity is capped at the number of records the
/// bytes left could hold, so a hostile count cannot allocate past the
/// frame's length.
fn decode_body(
    buf: &[u8],
    mk: &mut dyn FnMut(core::ops::Range<usize>) -> Bytes,
) -> WireResult<Option<(PiggybackMessage, usize)>> {
    let Some(total) = trailer_len(buf)? else {
        return Ok(None);
    };
    let mut cur = Cursor {
        buf: &buf[..buf.len() - 4],
        pos: buf.len() - total,
    };
    if cur.u32()? != MAGIC || cur.u8()? != VERSION {
        return Err(WireError::BadMagic);
    }
    let flags = cur.u8()?;
    let n_logs = cur.u16()?;
    let n_commits = cur.u16()?;
    // Smallest records: a log 6 B, a dependency 10 B, a write 6 B, a commit
    // vector 4 B and a counter 8 B.
    let mut logs = Vec::with_capacity(cur.cap(n_logs, 6));
    for _ in 0..n_logs {
        let mbox = MboxId(cur.u16()?);
        let n_deps = cur.u16()?;
        let mut entries = Vec::with_capacity(cur.cap(n_deps, 10));
        for _ in 0..n_deps {
            entries.push((cur.u16()?, cur.u64()?));
        }
        let deps = DepVector::from_entries(entries)?;
        let n_writes = cur.u16()?;
        let mut writes = Vec::with_capacity(cur.cap(n_writes, 6));
        for _ in 0..n_writes {
            let partition = cur.u16()?;
            let klen = cur.u16()?;
            let key = mk(cur.range(usize::from(klen))?);
            let vlen = cur.u16()?;
            let value = mk(cur.range(usize::from(vlen))?);
            writes.push(StateWrite {
                key,
                value,
                partition,
            });
        }
        logs.push(PiggybackLog { mbox, deps, writes });
    }
    let mut commits = Vec::with_capacity(cur.cap(n_commits, 4));
    for _ in 0..n_commits {
        let mbox = MboxId(cur.u16()?);
        let len = cur.u16()?;
        let mut max = Vec::with_capacity(cur.cap(len, 8));
        for _ in 0..len {
            max.push(cur.u64()?);
        }
        commits.push(CommitVector { mbox, max });
    }
    if cur.pos != cur.buf.len() {
        return Err(WireError::BadLength);
    }
    let msg = PiggybackMessage {
        flags,
        logs,
        commits,
    };
    Ok(Some((msg, total)))
}

/// Position-tracking reader over a byte slice; byte-string fields come back
/// as ranges of it.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// `n` capped at how many records of `min_len` bytes fit in what is left.
    fn cap(&self, n: u16, min_len: usize) -> usize {
        usize::from(n).min((self.buf.len() - self.pos) / min_len)
    }

    fn range(&mut self, n: usize) -> WireResult<core::ops::Range<usize>> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let r = self.pos..self.pos + n;
        self.pos += n;
        Ok(r)
    }

    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let r = self.range(N)?;
        Ok(self.buf[r].try_into().expect("range of length N"))
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> PiggybackMessage {
        PiggybackMessage {
            flags: 0,
            logs: vec![
                PiggybackLog {
                    mbox: MboxId(0),
                    deps: DepVector::from_entries(vec![(1, 7), (3, 2)]).unwrap(),
                    writes: vec![StateWrite {
                        key: Bytes::from_static(b"flow:a"),
                        value: Bytes::from_static(b"\x00\x01"),
                        partition: 1,
                    }],
                },
                PiggybackLog {
                    mbox: MboxId(2),
                    deps: DepVector::from_entries(vec![(0, 0)]).unwrap(),
                    writes: vec![],
                },
            ],
            commits: vec![CommitVector {
                mbox: MboxId(1),
                max: vec![4, 5, 6],
            }],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = sample_message();
        let mut buf = BytesMut::from(&b"some packet bytes"[..]);
        let len = msg.encode(&mut buf);
        assert_eq!(len, msg.wire_len());
        let (decoded, total) = PiggybackMessage::decode_trailing(&buf.freeze())
            .unwrap()
            .unwrap();
        assert_eq!(total, len);
        assert_eq!(decoded, msg);
    }

    #[test]
    fn empty_message_roundtrip() {
        let msg = PiggybackMessage::default();
        let mut buf = BytesMut::new();
        let len = msg.encode(&mut buf);
        let (decoded, total) = PiggybackMessage::decode_trailing(&buf.freeze())
            .unwrap()
            .unwrap();
        assert_eq!(total, len);
        assert_eq!(decoded, msg);
    }

    #[test]
    fn no_trailer_detected() {
        let plain = Bytes::from_static(b"plain payload");
        assert_eq!(PiggybackMessage::decode_trailing(&plain).unwrap(), None);
        assert_eq!(
            PiggybackMessage::decode_trailing(&Bytes::new()).unwrap(),
            None
        );
    }

    #[test]
    fn corrupt_length_rejected() {
        let msg = sample_message();
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        let n = buf.len();
        // Claim a length larger than the buffer.
        buf[n - 4..n - 2].copy_from_slice(&(n as u16 + 40).to_be_bytes());
        assert!(PiggybackMessage::decode_trailing(&buf.freeze()).is_err());
    }

    #[test]
    fn duplicate_dep_partitions_rejected() {
        assert!(DepVector::from_entries(vec![(1, 0), (1, 2)]).is_err());
    }

    #[test]
    fn applicability_rules() {
        let d = DepVector::from_entries(vec![(0, 2), (2, 5)]).unwrap();
        assert_eq!(d.applicable_at(&[2, 99, 5]), Applicability::Ready);
        assert_eq!(d.applicable_at(&[1, 99, 5]), Applicability::NotYet);
        assert_eq!(d.applicable_at(&[3, 99, 6]), Applicability::Stale);
        // Mixed ahead/behind still means we must wait for the behind one.
        assert_eq!(d.applicable_at(&[3, 99, 4]), Applicability::NotYet);
        // Empty vector (read-only) is always ready.
        assert_eq!(DepVector::new().applicable_at(&[]), Applicability::Ready);
    }

    #[test]
    fn commit_rule() {
        let d = DepVector::from_entries(vec![(1, 3)]).unwrap();
        assert!(!d.committed_under(&[0, 3]));
        assert!(d.committed_under(&[0, 4]));
        // Missing partitions count as zero.
        assert!(!d.committed_under(&[]));
    }

    #[test]
    fn commit_vector_merge() {
        let mut a = CommitVector {
            mbox: MboxId(0),
            max: vec![1, 5],
        };
        let b = CommitVector {
            mbox: MboxId(0),
            max: vec![3, 2, 9],
        };
        a.merge_from(&b);
        assert_eq!(a.max, vec![3, 5, 9]);
    }

    #[test]
    fn paper_figure3_scenario() {
        // Head vector starts at [0, 3, 4] (1-indexed partitions in the paper;
        // 0-indexed here). Txn1 = W(p0): log deps {p0: 0}. Txn2 = R(p0),W(p2):
        // log deps {p0: 1, p2: 4}.
        let log1 = DepVector::from_entries(vec![(0, 0)]).unwrap();
        let log2 = DepVector::from_entries(vec![(0, 1), (2, 4)]).unwrap();

        let mut max = vec![0u64, 3, 4];
        // Packet 2 arrives first: held.
        assert_eq!(log2.applicable_at(&max), Applicability::NotYet);
        // Packet 1 arrives: applies.
        assert_eq!(log1.applicable_at(&max), Applicability::Ready);
        max[0] += 1;
        // Now the held packet applies.
        assert_eq!(log2.applicable_at(&max), Applicability::Ready);
        max[0] += 1;
        max[2] += 1;
        assert_eq!(max, vec![2, 3, 5]);
    }

    /// Pins the wire format (`VERSION` 1) byte for byte: a round trip
    /// cannot see a change that the encoder and decoder make together.
    #[test]
    fn wire_format_golden_vector() {
        let mut buf = BytesMut::from(&b"pfx"[..]);
        sample_message().encode(&mut buf);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "7066784654432101000002000100000002000100000000000000070003000000",
                "0000000002000100010006666c6f773a61000200010002000100000000000000",
                "0000000000000100030000000000000004000000000000000500000000000000",
                "06006246ec",
            )
        );
    }

    /// Decoding a trailer that shares its buffer with the packet bytes gives
    /// the same message as decoding a standalone copy, and the keys and
    /// values point into the shared buffer instead of being copied out.
    #[test]
    fn shared_decode_matches_copying_decode() {
        let msg = sample_message();
        let mut buf = BytesMut::from(&b"packet payload"[..]);
        msg.encode(&mut buf);
        let frozen = buf.freeze();
        let (shared, n1) = PiggybackMessage::decode_trailing(&frozen).unwrap().unwrap();
        let copy = Bytes::copy_from_slice(&frozen[frozen.len() - n1..]);
        let (copied, n2) = PiggybackMessage::decode_trailing(&copy).unwrap().unwrap();
        assert_eq!(n1, n2);
        assert_eq!(shared, copied);
        assert_eq!(shared, msg);
        let frame = frozen.as_ptr_range();
        for w in shared.logs.iter().flat_map(|l| &l.writes) {
            assert!(frame.contains(&w.key.as_ptr()), "key copied out");
            assert!(frame.contains(&w.value.as_ptr()), "value copied out");
        }
    }

    /// Flips every byte of an encoded trailer in turn: the allocation-free
    /// check behind `Packet::has_piggyback` accepts exactly what the
    /// decoder accepts, and the tail's length agrees with the decoder's.
    #[test]
    fn view_rejects_exactly_what_decode_rejects() {
        let msg = sample_message();
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        for i in 0..buf.len() {
            let mut bad = BytesMut::from(&buf[..]);
            bad[i] ^= 0xFF;
            let decoded = PiggybackMessage::decode_trailing(&Bytes::copy_from_slice(&bad));
            assert_eq!(
                ends_in_trailer(&bad),
                matches!(decoded, Ok(Some(_))),
                "flip at byte {i}"
            );
            match (&decoded, trailer_len(&bad)) {
                (Ok(Some((_, total))), Ok(Some(len))) => {
                    assert_eq!(*total, len, "flip at byte {i}")
                }
                (Ok(None), Ok(None)) | (Err(_), _) => {}
                (d, l) => panic!("divergence at byte {i}: decode={d:?} tail={l:?}"),
            }
        }
    }

    #[test]
    fn wire_len_matches_encoding() {
        for msg in [PiggybackMessage::default(), sample_message()] {
            let mut buf = BytesMut::new();
            let n = msg.encode(&mut buf);
            assert_eq!(n, buf.len());
            assert_eq!(n, msg.wire_len());
        }
    }
}

//! Opt-in history recording for offline concurrency audits.
//!
//! A [`HistorySink`] attached to a [`StateStore`](crate::StateStore)
//! observes every committed *writing* transaction (with its dependency
//! vector, write set, commit index, and the committing thread) and every
//! replicated log applied through
//! [`StateStore::apply_writes`](crate::StateStore::apply_writes). The
//! `ftc-audit` crate implements a sink that accumulates these events into
//! a history and mechanically checks the paper's §4.2/§4.3 claims:
//! serializability of the commit order and convergence of dep-respecting
//! replays.
//!
//! Recording is strictly opt-in: a store with no sink attached pays one
//! relaxed atomic load per commit and nothing else.

use crate::{DepVector, StateWrite, TxnLog};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One committed writing transaction, as observed by a [`HistorySink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Arrival index of this commit at the recorder (0-based). Commits
    /// release their partition locks before the sink runs, so under
    /// concurrency this is only a linearization *hint*; the authoritative
    /// ordering information is `deps` (per-partition pre-increment
    /// sequence numbers), which the audit checker uses.
    pub commit_index: u64,
    /// A stable hash of the committing thread's [`std::thread::ThreadId`].
    pub thread: u64,
    /// Pre-increment sequence numbers of every partition the transaction
    /// read or wrote.
    pub deps: DepVector,
    /// The committed write set.
    pub writes: Vec<StateWrite>,
}

/// Observer of a store's committed transactions and applied logs.
///
/// Implementations must tolerate concurrent calls: the store invokes the
/// sink from whichever thread commits or applies.
pub trait HistorySink: Send + Sync {
    /// Called once per committed writing transaction, after its locks are
    /// released. Read-only transactions are not reported: they produce no
    /// log and cannot affect serializability of the write history.
    fn on_commit(&self, rec: CommitRecord);

    /// Called once per piggyback log applied to this (replica) store.
    fn on_apply(&self, deps: &DepVector, writes: &[StateWrite]);
}

/// Stable `u64` identifier for the current thread, derived by hashing
/// [`std::thread::ThreadId`].
pub(crate) fn current_thread_id() -> u64 {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// The recorder attachment point the state store embeds: the "is anyone
/// recording?" fast flag, the commit arrival counter, and the sink slot
/// behind the tap obligations of the
/// [`StateBackend`](crate::StateBackend) contract.
#[derive(Default)]
pub(crate) struct RecorderCell {
    /// Fast path for "is anyone recording?" — one Acquire load per commit
    /// (flags never use Relaxed; see scripts/forbidden_patterns.py).
    recording: AtomicBool,
    /// Commit arrival counter handed to the recorder (see
    /// [`CommitRecord::commit_index`]).
    commit_seq: AtomicU64,
    /// The attached audit sink, if any.
    recorder: RwLock<Option<Arc<dyn HistorySink>>>,
}

impl RecorderCell {
    /// Attaches a sink, replacing any previous one.
    pub fn set(&self, sink: Arc<dyn HistorySink>) {
        *self.recorder.write() = Some(sink);
        self.recording.store(true, Ordering::SeqCst);
    }

    /// Detaches the sink, if any. In-flight commits may still report to
    /// the old sink after this returns.
    pub fn clear(&self) {
        self.recording.store(false, Ordering::SeqCst);
        *self.recorder.write() = None;
    }

    /// Reports a committed log to the attached sink, if recording.
    pub fn record_commit(&self, log: &TxnLog) {
        if !self.recording.load(Ordering::Acquire) {
            return;
        }
        if let Some(sink) = self.recorder.read().as_ref() {
            sink.on_commit(CommitRecord {
                commit_index: self.commit_seq.fetch_add(1, Ordering::Relaxed),
                thread: current_thread_id(),
                deps: log.deps.clone(),
                writes: log.writes.clone(),
            });
        }
    }

    /// Reports an applied log to the attached sink, if recording.
    pub fn record_apply(&self, deps: &DepVector, writes: &[StateWrite]) {
        if !self.recording.load(Ordering::Acquire) {
            return;
        }
        if let Some(sink) = self.recorder.read().as_ref() {
            sink.on_apply(deps, writes);
        }
    }
}

impl std::fmt::Debug for RecorderCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderCell")
            .field("recording", &self.recording.load(Ordering::Acquire))
            .finish()
    }
}

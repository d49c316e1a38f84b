//! Recording committed histories from live stores.

use ftc_stm::{CommitRecord, DepVector, HistorySink, StateStore, StateWrite};
use parking_lot::Mutex;
use std::sync::Arc;

/// One committed writing transaction in a recorded history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Recorder arrival index (linearization hint only; see
    /// [`ftc_stm::CommitRecord::commit_index`]).
    pub commit_index: u64,
    /// Hash of the committing thread id.
    pub thread: u64,
    /// Pre-increment per-partition sequence numbers (read or written).
    pub deps: DepVector,
    /// The committed write set.
    pub writes: Vec<StateWrite>,
}

/// A replicated log applied at a (replica) store, as recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedLog {
    /// The log's dependency vector.
    pub deps: DepVector,
    /// The applied writes.
    pub writes: Vec<StateWrite>,
}

/// An immutable committed-transaction history, the input to the
/// [`serializability`](crate::serializability) and
/// [`convergence`](crate::convergence) checkers.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Committed writing transactions, in recorder arrival order.
    pub txns: Vec<CommittedTxn>,
    /// Logs applied through `apply_writes` (replica side), if any.
    pub applied: Vec<AppliedLog>,
}

impl History {
    /// Builds a fixture history from `(deps, writes)` pairs, stamping
    /// arrival indices in the given order. Used by tests to construct
    /// adversarial histories the live runtime would never produce.
    pub fn from_logs(logs: impl IntoIterator<Item = (DepVector, Vec<StateWrite>)>) -> History {
        History {
            txns: logs
                .into_iter()
                .enumerate()
                .map(|(i, (deps, writes))| CommittedTxn {
                    commit_index: i as u64,
                    thread: 0,
                    deps,
                    writes,
                })
                .collect(),
            applied: Vec::new(),
        }
    }

    /// Number of committed writing transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if no transaction was recorded.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// The smallest partition count that covers every dependency entry
    /// (partitions are 0-based, so this is `max index + 1`).
    pub fn min_partitions(&self) -> usize {
        self.txns
            .iter()
            .flat_map(|t| t.deps.entries())
            .map(|&(p, _)| p as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// A [`HistorySink`] that accumulates commit and apply events in memory.
///
/// Attach it with [`Recorder::attach`]; the store keeps reporting until
/// [`StateStore::clear_recorder`] is called or the store is dropped.
///
/// ```
/// use bytes::Bytes;
/// use ftc_audit::Recorder;
/// use ftc_stm::StateStore;
///
/// let store = StateStore::new(8);
/// let rec = Recorder::attach(&store);
/// store.transaction(|txn| {
///     txn.write_u64(Bytes::from_static(b"k"), 7)?;
///     Ok(())
/// });
/// let history = rec.history();
/// assert_eq!(history.len(), 1);
/// ```
#[derive(Default)]
pub struct Recorder {
    commits: Mutex<Vec<CommittedTxn>>,
    applied: Mutex<Vec<AppliedLog>>,
}

impl Recorder {
    /// Creates a detached recorder (attach it yourself via
    /// [`StateStore::set_recorder`]).
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    /// Creates a recorder and attaches it to `store`.
    pub fn attach(store: &StateStore) -> Arc<Recorder> {
        let rec = Recorder::new();
        store.set_recorder(Arc::<Recorder>::clone(&rec));
        rec
    }

    /// Snapshot of everything recorded so far.
    pub fn history(&self) -> History {
        History {
            txns: self.commits.lock().clone(),
            applied: self.applied.lock().clone(),
        }
    }

    /// Number of commits recorded so far.
    pub fn commit_count(&self) -> usize {
        self.commits.lock().len()
    }

    /// Number of applied logs recorded so far.
    pub fn applied_count(&self) -> usize {
        self.applied.lock().len()
    }
}

impl HistorySink for Recorder {
    fn on_commit(&self, rec: CommitRecord) {
        self.commits.lock().push(CommittedTxn {
            commit_index: rec.commit_index,
            thread: rec.thread,
            deps: rec.deps,
            writes: rec.writes,
        });
    }

    fn on_apply(&self, deps: &DepVector, writes: &[StateWrite]) {
        self.applied.lock().push(AppliedLog {
            deps: deps.clone(),
            writes: writes.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn recorder_sees_writing_txns_only() {
        let store = StateStore::new(8);
        let rec = Recorder::attach(&store);
        store.transaction(|txn| txn.read(b"nope")); // read-only: no log
        store.transaction(|txn| {
            txn.write_u64(Bytes::from_static(b"a"), 1)?;
            Ok(())
        });
        store.transaction(|txn| {
            txn.write_u64(Bytes::from_static(b"b"), 2)?;
            Ok(())
        });
        let h = rec.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h.txns[0].commit_index, 0);
        assert_eq!(h.txns[1].commit_index, 1);
        assert!(h.txns.iter().all(|t| t.writes.len() == 1));
    }

    #[test]
    fn recorder_sees_applied_logs() {
        let head = StateStore::new(8);
        let replica = StateStore::new(8);
        let rec = Recorder::attach(&replica);
        let out = head.transaction(|txn| {
            txn.write_u64(Bytes::from_static(b"a"), 1)?;
            Ok(())
        });
        let log = out.log.unwrap();
        replica.apply_writes(&log.deps, &log.writes);
        assert_eq!(rec.applied_count(), 1);
        assert_eq!(rec.commit_count(), 0, "applies are not commits");
    }

    #[test]
    fn clear_recorder_stops_reporting() {
        let store = StateStore::new(8);
        let rec = Recorder::attach(&store);
        store.transaction(|txn| {
            txn.write_u64(Bytes::from_static(b"a"), 1)?;
            Ok(())
        });
        store.clear_recorder();
        store.transaction(|txn| {
            txn.write_u64(Bytes::from_static(b"a"), 2)?;
            Ok(())
        });
        assert_eq!(rec.commit_count(), 1);
    }

    #[test]
    fn min_partitions_covers_all_entries() {
        let h = History::from_logs([(
            DepVector::from_entries(vec![(3, 0), (7, 2)]).unwrap(),
            vec![],
        )]);
        assert_eq!(h.min_partitions(), 8);
        assert_eq!(History::default().min_partitions(), 0);
    }
}

//! The state-engine abstraction.
//!
//! FTC's transactional packet processing (paper §4.2–§4.3) fixes *what* a
//! state engine must provide — serializable packet transactions, piggyback
//! logs with pre-increment dependency vectors, per-partition sequence
//! accounting, snapshot state transfer, and the audit tap.
//! [`StateBackend`] captures that contract as an object-safe trait, so the
//! replication, recovery, and audit layers hold `Arc<dyn StateBackend>`
//! and middleboxes process against `&mut dyn StateTxn`. The strict-2PL /
//! wound-wait [`StateStore`](crate::StateStore) is its one implementation
//! ([`EngineKind::TwoPl`]).

use crate::store::{PartitionId, StateStore, StoreSnapshot, StoreStats};
use crate::txn::{Txn, TxnError, TxnLog, TxnOutput};
use crate::{partition_of, DepVector, HistorySink, StateWrite};
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// One in-flight transaction, engine-agnostic.
///
/// Middleboxes program against this trait (`ftc-mbox`'s
/// `Middlebox::process` receives `&mut dyn StateTxn`); on the 2PL engine
/// every access takes its partition's lock.
///
/// Error contract: an access returns [`TxnError::Wounded`] when the engine
/// needs the transaction to abort *now*; the owning backend re-executes
/// the body transparently. Bodies must therefore be idempotent with
/// respect to non-state side effects, exactly as
/// [`StateStore::transaction`] already documents.
pub trait StateTxn {
    /// Reads a state variable.
    fn read(&mut self, key: &[u8]) -> Result<Option<Bytes>, TxnError>;

    /// Writes a state variable (buffered until commit). Values must be
    /// non-empty; empty values encode deletions on the wire.
    fn write(&mut self, key: Bytes, value: Bytes) -> Result<(), TxnError>;

    /// Deletes a state variable (replicated as an empty-value write).
    fn delete(&mut self, key: Bytes) -> Result<(), TxnError>;

    /// True if the transaction has buffered any writes.
    fn is_writing(&self) -> bool;

    /// Reads a big-endian u64 counter.
    fn read_u64(&mut self, key: &[u8]) -> Result<Option<u64>, TxnError> {
        Ok(self
            .read(key)?
            .and_then(|v| v.as_ref().try_into().ok().map(u64::from_be_bytes)))
    }

    /// Writes a big-endian u64 counter.
    fn write_u64(&mut self, key: Bytes, value: u64) -> Result<(), TxnError> {
        self.write(key, Bytes::copy_from_slice(&value.to_be_bytes()))
    }
}

impl StateTxn for Txn<'_> {
    fn read(&mut self, key: &[u8]) -> Result<Option<Bytes>, TxnError> {
        Txn::read(self, key)
    }

    fn write(&mut self, key: Bytes, value: Bytes) -> Result<(), TxnError> {
        Txn::write(self, key, value)
    }

    fn delete(&mut self, key: Bytes) -> Result<(), TxnError> {
        Txn::delete(self, key)
    }

    fn is_writing(&self) -> bool {
        Txn::is_writing(self)
    }
}

/// A partitioned, transactional state engine.
///
/// Object-safe: replicas hold `Arc<dyn StateBackend>` and the whole
/// protocol layer (hot path, replication apply, recovery snapshot) is
/// engine-agnostic. The contract every
/// implementation must honor (checked by the audit machinery, documented
/// in DESIGN.md §13):
///
/// * **Commit point.** [`Self::transaction_dyn`] runs the body (possibly
///   several times) and returns only after the final attempt's effects are
///   durably visible to subsequent transactions. A writing commit bumps
///   the sequence number of *every touched partition* (reads included) and
///   yields a [`TxnLog`] whose dependency vector holds the pre-increment
///   sequence numbers; read-only commits bump nothing and yield no log.
/// * **Apply mirror.** [`Self::apply_writes`] must be exactly the
///   replica-side mirror of a head commit: same map mutations, same
///   sequence bumps.
/// * **Tap obligations.** With a recorder attached, every committed
///   writing transaction reports [`HistorySink::on_commit`] exactly once
///   (after its effects are visible) and every applied log reports
///   [`HistorySink::on_apply`] exactly once.
pub trait StateBackend: Send + Sync + std::fmt::Debug {
    /// Number of partitions.
    fn partitions(&self) -> usize;

    /// The partition a key maps to (identical on every replica: dependency
    /// vectors must be portable).
    fn partition_of(&self, key: &[u8]) -> PartitionId {
        partition_of(key, self.partitions())
    }

    /// Runs `body` as a packet transaction, retrying transparently on
    /// engine-internal aborts (wound-wait wounds). Returns the piggyback log if the transaction wrote.
    ///
    /// This is the object-safe spelling; use
    /// [`StateBackendExt::transaction`] to also get a typed return value.
    fn transaction_dyn(
        &self,
        body: &mut dyn FnMut(&mut dyn StateTxn) -> Result<(), TxnError>,
    ) -> Option<TxnLog>;

    /// Applies replicated writes from a piggyback log, incrementing the
    /// sequence numbers of the partitions in `deps`.
    fn apply_writes(&self, deps: &DepVector, writes: &[StateWrite]);

    /// Non-transactional read of a single key (test/inspection helper).
    fn peek(&self, key: &[u8]) -> Option<Bytes>;

    /// Non-transactional read of a u64 counter stored at `key`.
    fn peek_u64(&self, key: &[u8]) -> Option<u64> {
        self.peek(key)
            .and_then(|v| v.as_ref().try_into().ok().map(u64::from_be_bytes))
    }

    /// The current per-partition sequence vector.
    fn seq_vector(&self) -> Vec<u64>;

    /// Copies the store (inspection and audits).
    fn snapshot(&self) -> StoreSnapshot;

    /// Runs `f` on every partition in index order, under that partition's
    /// lock, with its sequence number and its entries: how recovery
    /// encodes a store for transfer without copying it first.
    fn visit_partitions(&self, f: &mut dyn FnMut(u64, &HashMap<Bytes, Bytes>));

    /// Replaces the store contents from a snapshot (recovery restore).
    fn restore(&self, snap: StoreSnapshot);

    /// Restores only the per-partition sequence numbers (paper §5.2).
    fn restore_seqs(&self, seqs: &[u64]);

    /// Total number of keys across partitions.
    fn len(&self) -> usize;

    /// True if no partition holds any key.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches an audit sink observing every committed writing
    /// transaction and every applied log. Replaces any previous sink.
    fn set_recorder(&self, sink: Arc<dyn HistorySink>);

    /// Detaches the audit sink, if any.
    fn clear_recorder(&self);

    /// The engine's counters: commits, wound aborts, applied logs and
    /// lock waits.
    fn stats(&self) -> &StoreStats;
}

/// Typed-result convenience over [`StateBackend::transaction_dyn`],
/// blanket-implemented for every backend (including `dyn StateBackend`).
pub trait StateBackendExt: StateBackend {
    /// Runs `body` as a packet transaction and returns its typed result
    /// plus the piggyback log, mirroring [`StateStore::transaction`].
    fn transaction<T>(
        &self,
        mut body: impl FnMut(&mut dyn StateTxn) -> Result<T, TxnError>,
    ) -> TxnOutput<T> {
        let mut slot: Option<T> = None;
        let log = self.transaction_dyn(&mut |txn| {
            slot = Some(body(txn)?);
            Ok(())
        });
        TxnOutput {
            value: slot.expect("transaction_dyn must run the body to completion"),
            log,
        }
    }
}

impl<B: StateBackend + ?Sized> StateBackendExt for B {}

impl StateBackend for StateStore {
    fn partitions(&self) -> usize {
        StateStore::partitions(self)
    }

    fn transaction_dyn(
        &self,
        body: &mut dyn FnMut(&mut dyn StateTxn) -> Result<(), TxnError>,
    ) -> Option<TxnLog> {
        StateStore::transaction(self, |txn| body(txn)).log
    }

    fn apply_writes(&self, deps: &DepVector, writes: &[StateWrite]) {
        StateStore::apply_writes(self, deps, writes)
    }

    fn peek(&self, key: &[u8]) -> Option<Bytes> {
        StateStore::peek(self, key)
    }

    fn seq_vector(&self) -> Vec<u64> {
        StateStore::seq_vector(self)
    }

    fn snapshot(&self) -> StoreSnapshot {
        StateStore::snapshot(self)
    }

    fn visit_partitions(&self, f: &mut dyn FnMut(u64, &HashMap<Bytes, Bytes>)) {
        StateStore::visit_partitions(self, f)
    }

    fn restore(&self, snap: StoreSnapshot) {
        StateStore::restore(self, snap)
    }

    fn restore_seqs(&self, seqs: &[u64]) {
        StateStore::restore_seqs(self, seqs)
    }

    fn len(&self) -> usize {
        StateStore::len(self)
    }

    fn set_recorder(&self, sink: Arc<dyn HistorySink>) {
        StateStore::set_recorder(self, sink)
    }

    fn clear_recorder(&self) {
        StateStore::clear_recorder(self)
    }

    fn stats(&self) -> &StoreStats {
        &self.stats
    }
}

/// The state engine a chain deploys with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Strict two-phase locking with wound-wait deadlock resolution — the
    /// paper's §4.2 design, implemented by [`StateStore`].
    #[default]
    TwoPl,
}

impl EngineKind {
    /// The canonical lowercase name (`twopl`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::TwoPl => "twopl",
        }
    }

    /// Builds a backend of this kind with `partitions` partitions.
    pub fn build(self, partitions: usize) -> Arc<dyn StateBackend> {
        match self {
            EngineKind::TwoPl => Arc::new(StateStore::new(partitions)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn engine_names_round_trip() {
        assert_eq!(EngineKind::default(), EngineKind::TwoPl);
        assert_eq!(EngineKind::TwoPl.name(), "twopl");
    }

    #[test]
    fn build_produces_matching_backend() {
        let b = EngineKind::default().build(8);
        assert_eq!(b.partitions(), 8);
        assert!(b.is_empty());
    }

    #[test]
    fn dyn_backend_transaction_matches_concrete_store() {
        let concrete = StateStore::new(8);
        let boxed: Arc<dyn StateBackend> = Arc::new(StateStore::new(8));
        let key = Bytes::from_static(b"mon:packets:g0");
        let out_c = concrete.transaction(|txn| {
            let c = txn.read_u64(&key)?.unwrap_or(0);
            txn.write_u64(key.clone(), c + 1)?;
            Ok(c + 1)
        });
        let out_d = boxed.transaction(|txn| {
            let c = txn.read_u64(&key)?.unwrap_or(0);
            txn.write_u64(key.clone(), c + 1)?;
            Ok(c + 1)
        });
        assert_eq!(out_c.value, out_d.value);
        let (lc, ld) = (out_c.log.unwrap(), out_d.log.unwrap());
        assert_eq!(lc.deps, ld.deps);
        assert_eq!(lc.writes, ld.writes);
        assert_eq!(StateStore::seq_vector(&concrete), boxed.seq_vector());
    }
}

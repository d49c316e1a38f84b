//! Offline concurrency audit for the FTC transactional core.
//!
//! The paper's correctness argument rests on two claims: the head's strict
//! 2PL + wound-wait commit path produces **strictly serializable**
//! histories (§4.2), and replicas applying the resulting piggyback logs
//! under the `MAX`-vector rule **converge** to the head state regardless
//! of delivery order (§4.3). This crate checks both claims against real
//! executions instead of trusting the implementation:
//!
//! * [`Recorder`] — a [`ftc_stm::HistorySink`] that taps a live
//!   [`StateStore`](ftc_stm::StateStore) and accumulates every committed
//!   `TxnLog` (plus every replica-side apply) into a [`History`].
//! * [`serializability::check`] — builds the direct serialization graph
//!   from the recorded [`DepVector`](ftc_stm::DepVector)s, rejects
//!   duplicate or gapped sequence stamps, and reports any cycle with a
//!   concrete witness.
//! * [`convergence::replay`] / [`convergence::replay_against`] — replays
//!   the history into fresh replicas under adversarial delivery orders
//!   and diffs the final snapshots against the primary.
//! * [`protocol`] — the protocol-level model checker: drives a miniature
//!   chain (real [`ftc_core::testkit::SyncChain`] objects) through every
//!   interleaving × crash-point schedule in a bounded matrix, checking
//!   release-implies-replication, post-recovery convergence, ring
//!   re-formation, and `MAX`-vector monotonicity.
//! * [`reconfig`] — the crash-during-reconfiguration model checker: runs
//!   the shipped migrate/scale procedure ([`ftc_core::replace`]) on the
//!   same miniature chain, quiesced and with packets in flight, while
//!   fail-stopping each participant at each phase, applies the documented
//!   repair, and checks I1–I4 plus the reconfiguration invariants I5 (at
//!   most one alive, unpaused instance per position at every probe point)
//!   and I6 (the new owner starts from the f + 1 copies' prefix).
//! * [`async_check`] — the async-transport model checker: drives the real
//!   socket backend (`ftc_net::sock`) under the vendored tokio's
//!   deterministic executor through seeded task-interleaving × fault
//!   schedules, checking exactly-once delivery, RPC correlation,
//!   reconnect convergence, and quiescence (T1–T4).
//!
//! [`audit`] runs the whole battery. Typical use in a test:
//!
//! ```
//! use bytes::Bytes;
//! use ftc_audit::Recorder;
//! use ftc_stm::StateStore;
//!
//! let store = StateStore::new(8);
//! let rec = Recorder::attach(&store);
//! store.transaction(|txn| {
//!     txn.write_u64(Bytes::from_static(b"k"), 1)?;
//!     Ok(())
//! });
//! let report = ftc_audit::audit(&rec.history(), &store.snapshot(), 8);
//! assert!(report.passed(), "{}", report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_check;
pub mod convergence;
pub mod history;
pub mod protocol;
pub mod reconfig;
pub mod serializability;

pub use async_check::{AsyncCheckConfig, TransportReport, TransportWitness};
pub use convergence::ConvergenceReport;
pub use history::{AppliedLog, CommittedTxn, History, Recorder};
pub use protocol::{explore, ProtocolCheckConfig, ProtocolReport, Witness};
pub use reconfig::{explore_reconfig, replay, ReconfigCheckConfig, ReconfigReport};
pub use serializability::{SerializabilityReport, Violation};

/// Number of adversarial replay schedules [`audit`] runs.
pub const DEFAULT_SCHEDULES: usize = 8;

/// Fixed seed for [`audit`]'s replay schedules, so failures reproduce.
pub const DEFAULT_SEED: u64 = 0xf7c_5fc;

/// Combined outcome of a full audit run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The serializability check's outcome.
    pub serializability: SerializabilityReport,
    /// The convergence replay's outcome. `None` when the serializability
    /// check already failed (replaying a broken history proves nothing).
    pub convergence: Option<ConvergenceReport>,
}

impl AuditReport {
    /// True iff the history is serializable and every replay converged.
    pub fn passed(&self) -> bool {
        self.serializability.is_serializable()
            && self.convergence.as_ref().is_some_and(|c| c.converged())
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serializability: {} txns, {} edges, {} violation(s)",
            self.serializability.txns,
            self.serializability.edges,
            self.serializability.violations.len()
        )?;
        for v in &self.serializability.violations {
            writeln!(f, "  - {v}")?;
        }
        match &self.convergence {
            None => writeln!(f, "convergence: skipped (history not serializable)"),
            Some(c) => {
                writeln!(
                    f,
                    "convergence: {} logs x {} schedules, {} divergence(s)",
                    c.logs,
                    c.schedules,
                    c.divergences.len()
                )?;
                for d in &c.divergences {
                    writeln!(f, "  - {d}")?;
                }
                Ok(())
            }
        }
    }
}

/// Runs the full audit battery on `history`, recorded from a fresh
/// `partitions`-way store whose final state is `primary`.
///
/// Serializability is checked first; convergence replay (against
/// `primary`, [`DEFAULT_SCHEDULES`] schedules, [`DEFAULT_SEED`]) only
/// runs when the history is serializable.
pub fn audit(
    history: &History,
    primary: &ftc_stm::StoreSnapshot,
    partitions: usize,
) -> AuditReport {
    let serializability = serializability::check(history);
    let convergence = serializability.is_serializable().then(|| {
        convergence::replay_against(
            history,
            primary,
            partitions,
            DEFAULT_SCHEDULES,
            DEFAULT_SEED,
        )
    });
    AuditReport {
        serializability,
        convergence,
    }
}

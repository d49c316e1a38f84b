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
//!   interleaving × crash-case schedule in a bounded matrix — step-phase
//!   crashes, quiesced kills, crashes during recovery, dead fetch sources,
//!   and migrate/scale handovers with a participant fail-stopped at each
//!   phase — replacing instances with the shipped [`ftc_core::replace()`]
//!   procedure, and checks on every schedule release-implies-replication
//!   (I1), convergence (I2), ring re-formation and per-packet delivery
//!   (I3), `MAX`-vector monotonicity (I4), one serving instance per
//!   position (I5) and that a replacement starts from the f + 1 copies
//!   (I6). Every witness replays from its label.
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
pub mod serializability;

pub use async_check::{AsyncCheckConfig, TransportReport, TransportWitness};
pub use convergence::ConvergenceReport;
pub use history::{AppliedLog, CommittedTxn, History, Recorder};
pub use protocol::{explore, replay, ProtocolCheckConfig, ProtocolReport, Tally, Witness};
pub use serializability::{SerializabilityReport, Violation};

/// Unit tests of the [`protocol`] explorer's handover family: migrate and
/// scale schedules with a participant crashed at each phase.
#[cfg(test)]
mod reconfig {
    mod tests {
        use crate::protocol::tests::mini_cfg;
        use crate::protocol::{explore, ProtocolCheckConfig};

        #[test]
        #[cfg_attr(feature = "reconfig-sabotage", ignore)]
        fn mini_exploration_is_violation_free() {
            let report = explore(&ProtocolCheckConfig {
                steady_state: false,
                ..mini_cfg()
            });
            assert!(report.ok(), "unexpected witnesses: {:#?}", report.witnesses);
            let handover = report.family("handover");
            assert!(handover.schedules > 0 && handover.steps > 0);
            assert_eq!(report.total().schedules, handover.schedules);
            assert!(
                handover.crashes_fired > 0 && handover.retries > 0,
                "the matrix must crash participants and retry: {}",
                report.summary()
            );
            // Every handover either commits (clean, rolled forward, or
            // retried to completion) or fail-stops a position and is
            // repaired by §5.2 recovery instead — both classes must occur.
            assert!(
                handover.ops_completed > 0 && handover.ops_completed < handover.schedules,
                "matrix must exercise both committed and recovered outcomes: {}",
                report.summary()
            );
        }
    }
}

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

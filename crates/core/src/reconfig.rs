//! Shared vocabulary for planned reconfiguration (ROADMAP item 2).
//!
//! The paper only covers fail-stop *replacement*: a replica dies and §5.2
//! rebuilds it from its group. Planned reconfiguration — scaling a
//! middlebox's worker count, migrating an instance to a fresh replica, or
//! splicing a middlebox into/out of a live chain — reuses the same state
//! machinery but is driven as a four-phase handshake:
//!
//! 1. **Prepare** — the source instance is quiesced exactly like a §4.1
//!    recovery source (pause, discard parked packets) and *seals* its
//!    partition claims: it still holds the state, but stops being
//!    serviceable while the state is copied off.
//! 2. **Transfer** — the committed prefix moves to the destination, one
//!    [`PartitionExport`](ftc_stm::PartitionExport) at a time through the
//!    wire codec, so the transfer is incremental and byte-compatible with
//!    the socket transport.
//! 3. **Switch** — the commit point: ring links are re-stitched to the
//!    destination and it claims ownership of every partition. A crash
//!    *before* this point rolls the operation back (the old configuration
//!    stays intact); a crash *after* it rolls forward (the new
//!    configuration is repaired with standard §5.2 recovery).
//! 4. **Release** — the retired source gives up its claims and is
//!    decommissioned.
//!
//! The types here are the shared enumeration used by the engines (the
//! deterministic [`SyncChain`](crate::testkit::SyncChain) handover and the
//! threaded orchestrator in `ftc-orch`), by the step-granular
//! [`ProbePoint::Reconfig`](crate::probe::ProbePoint) crash hooks, and by
//! the `ftc-audit` reconfiguration model checker, which folds the
//! [`ClaimSample`] traces into the I5 (single serviceable owner) and I6
//! (transferred = committed prefix) invariants.

use ftc_stm::{PartitionId, StateBackend, StoreSnapshot};

/// A planned reconfiguration operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigOp {
    /// Move a middlebox instance to a fresh replica at the same position.
    Migrate,
    /// Change an instance's worker count via the same handover (the
    /// replacement is built with the new parallelism; state carries over).
    Scale,
    /// Insert a middlebox into the chain at a position.
    SpliceIn,
    /// Remove the middlebox at a position from the chain.
    SpliceOut,
}

impl ReconfigOp {
    /// Short label for witnesses and journal lines.
    pub fn label(&self) -> &'static str {
        match self {
            ReconfigOp::Migrate => "migrate",
            ReconfigOp::Scale => "scale",
            ReconfigOp::SpliceIn => "splice-in",
            ReconfigOp::SpliceOut => "splice-out",
        }
    }
}

/// The four phases of the reconfiguration handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigPhase {
    /// Quiesce and seal the source (§4.1 source rule).
    Prepare,
    /// Move the committed prefix, partition by partition.
    Transfer,
    /// Commit point: re-stitch links, destination claims ownership.
    Switch,
    /// Retire the source: unclaim and decommission.
    Release,
}

impl ReconfigPhase {
    /// Short label for witnesses and journal lines.
    pub fn label(&self) -> &'static str {
        match self {
            ReconfigPhase::Prepare => "prepare",
            ReconfigPhase::Transfer => "transfer",
            ReconfigPhase::Switch => "switch",
            ReconfigPhase::Release => "release",
        }
    }
}

/// Which protocol participant a reconfiguration probe point (or crash)
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigActor {
    /// The instance giving up state (the old instance).
    Source,
    /// The instance receiving state (the new instance).
    Destination,
    /// The driver of the handshake.
    Orchestrator,
}

impl ReconfigActor {
    /// Short label for witnesses and journal lines.
    pub fn label(&self) -> &'static str {
        match self {
            ReconfigActor::Source => "source",
            ReconfigActor::Destination => "destination",
            ReconfigActor::Orchestrator => "orchestrator",
        }
    }
}

/// How a reconfiguration attempt died.
///
/// Every variant leaves the chain in a *defined* state, stated per
/// variant: either the old configuration is intact (the operation rolls
/// back and can simply be retried), or the crash maps onto the already
/// -verified fail-stop path (a position is dead and standard §5.2
/// recovery repairs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigFailure {
    /// The source instance died at `phase`. The position is fail-stopped;
    /// recover it from the replication group like any crash.
    SourceCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
    /// The destination instance died at `phase`. Before [`Switch`]
    /// (`Transfer`) the half-built destination is discarded and the source
    /// resumes — old configuration intact, retry at will. At [`Switch`]
    /// the new instance already owns the position, so the position is
    /// fail-stopped on the *new* configuration and §5.2 recovery repairs
    /// it (roll forward).
    ///
    /// [`Switch`]: ReconfigPhase::Switch
    DestinationCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
    /// The orchestrator died between phases. Before [`Switch`] the
    /// operation rolls back (source resumed, destination discarded);
    /// at [`Release`] it rolls forward (the destination serves; the
    /// sealed source is merely never decommissioned — sealed claims are
    /// not serviceable, so I5 is preserved).
    ///
    /// [`Switch`]: ReconfigPhase::Switch
    /// [`Release`]: ReconfigPhase::Release
    OrchestratorCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
    /// A splice found the chain not fully live and drained after the
    /// prepare quiescence; the operation aborts with the old chain intact.
    NotQuiescent,
}

impl std::fmt::Display for ReconfigFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigFailure::SourceCrashed { phase } => {
                write!(f, "source crashed at {}", phase.label())
            }
            ReconfigFailure::DestinationCrashed { phase } => {
                write!(f, "destination crashed at {}", phase.label())
            }
            ReconfigFailure::OrchestratorCrashed { phase } => {
                write!(f, "orchestrator crashed at {}", phase.label())
            }
            ReconfigFailure::NotQuiescent => write!(f, "chain not quiescent at prepare"),
        }
    }
}

impl std::error::Error for ReconfigFailure {}

/// One instance's claim-table view at an observable point, tagged with the
/// ring position whose flow partitions the claims govern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimView {
    /// Ring position of the middlebox the instance serves (or served).
    pub position: usize,
    /// Where the instance sits in the topology: `"chain"` (currently
    /// wired), `"incoming"` (destination being built), `"outgoing"`
    /// (source past the switch), `"retired"` (decommissioned).
    pub tag: &'static str,
    /// False once the instance has fail-stopped (a dead instance
    /// processes nothing, so its stale claims cannot violate I5).
    pub alive: bool,
    /// Per-partition `(claimed, sealed)` flags.
    pub flags: Vec<(bool, bool)>,
}

impl ClaimView {
    /// True when this instance would serve packets touching partition `p`:
    /// alive, claimed, and not sealed.
    pub fn serviceable(&self, p: PartitionId) -> bool {
        self.alive
            && self
                .flags
                .get(p as usize)
                .map(|&(c, s)| c && !s)
                .unwrap_or(false)
    }
}

/// The fold of every instance's [`ClaimView`] at one observable point of a
/// reconfiguration. The I5 checker asserts that, per `(position,
/// partition)`, at most one view is serviceable at every sample and
/// exactly one once the operation completes.
#[derive(Debug, Clone)]
pub struct ClaimSample {
    /// The operation being executed.
    pub op: ReconfigOp,
    /// Phase the sample was taken in.
    pub phase: ReconfigPhase,
    /// Actor whose probe point produced the sample.
    pub role: ReconfigActor,
    /// All instances' claim views, including retired and in-flight ones.
    pub views: Vec<ClaimView>,
}

impl ClaimSample {
    /// Number of serviceable claimants for `(position, p)` in this sample.
    pub fn serviceable_count(&self, position: usize, p: PartitionId) -> usize {
        self.views
            .iter()
            .filter(|v| v.position == position && v.serviceable(p))
            .count()
    }
}

/// What a completed transfer moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Encoded bytes that went through the partition-export codec.
    pub transferred: usize,
    /// Partitions moved.
    pub partitions: usize,
}

/// The source's committed prefix, captured at the seal point of the
/// prepare phase. I6 asserts the destination equals exactly this after the
/// transfer: nothing lost, nothing duplicated.
#[derive(Debug, Clone)]
pub struct SealRecord {
    /// Key-sorted snapshot of the source's own store at the seal.
    pub snapshot: StoreSnapshot,
    /// Per-partition commit sequence numbers at the seal.
    pub seqs: Vec<u64>,
}

/// The full record of one reconfiguration attempt: outcome, the I5 claim
/// trace sampled at every probe point, and the I6 seal record.
#[derive(Debug)]
pub struct ReconfigRun {
    /// The operation attempted.
    pub op: ReconfigOp,
    /// The (primary) ring position it targeted.
    pub position: usize,
    /// `Ok` with transfer stats, or the defined-state failure.
    pub outcome: Result<ReconfigStats, ReconfigFailure>,
    /// Claim-table samples at every observable point, in order.
    pub trace: Vec<ClaimSample>,
    /// The source's committed prefix at the seal (absent when the run
    /// died before sealing).
    pub seal: Option<SealRecord>,
}

/// Which side a partition transfer was interrupted on (a crash verdict
/// from the per-chunk probe points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferInterrupt {
    /// The source died after exporting `0`-indexed partition.
    Source(PartitionId),
    /// The destination died after importing the partition.
    Destination(PartitionId),
}

/// Moves every partition of `src` into `dst` through the
/// [`PartitionExport`](ftc_stm::PartitionExport) wire codec — the same
/// bytes a socket transport would carry — so transfers are incremental,
/// byte-compatible, and resumable per partition (imports are idempotent).
///
/// `exported(p)` runs after partition `p` leaves the source and
/// `imported(p)` after it lands at the destination; returning `false`
/// fail-stops that side mid-transfer (the model checker's crash hooks).
/// Returns the encoded byte count on completion.
///
/// Source and destination are [`StateBackend`]s, not concrete stores; the
/// export codec sees only map plus sequence number.
pub fn transfer_store(
    src: &dyn StateBackend,
    dst: &dyn StateBackend,
    mut exported: impl FnMut(PartitionId) -> bool,
    mut imported: impl FnMut(PartitionId) -> bool,
) -> Result<usize, TransferInterrupt> {
    let mut bytes = 0;
    for p in 0..src.partitions() as u16 {
        let wire = src.export_partition(p).encode();
        bytes += wire.len();
        if !exported(p) {
            return Err(TransferInterrupt::Source(p));
        }
        let ex = ftc_stm::PartitionExport::decode(&wire).expect("self-encoded export");
        dst.import_partition(&ex);
        if !imported(p) {
            return Err(TransferInterrupt::Destination(p));
        }
    }
    Ok(bytes)
}

/// True when the skip-release sabotage fixture is compiled in: the engine
/// drops the release message and the source's failure-assumption timeout
/// resumes it while the destination already switched — the deliberate
/// protocol bug that must make the I5 checker fire.
pub fn sabotage_skip_release() -> bool {
    cfg!(feature = "sabotage-skip-release")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_stm::StateStore;

    #[test]
    fn transfer_store_moves_everything_through_the_codec() {
        let src = StateStore::new(8);
        src.transaction(|txn| {
            txn.write_u64(bytes::Bytes::from_static(b"mon:packets:g0"), 1)?;
            txn.write_u64(bytes::Bytes::from_static(b"mon:bytes:g0"), 64)?;
            Ok(())
        });
        let dst = StateStore::new(8);
        let bytes = transfer_store(&src, &dst, |_| true, |_| true).unwrap();
        assert!(bytes > 0);
        assert_eq!(dst.snapshot(), src.snapshot());
        assert_eq!(dst.seq_vector(), src.seq_vector());
    }

    #[test]
    fn transfer_interrupts_name_the_failing_side() {
        let src = StateStore::new(4);
        let dst = StateStore::new(4);
        assert_eq!(
            transfer_store(&src, &dst, |p| p < 2, |_| true),
            Err(TransferInterrupt::Source(2))
        );
        assert_eq!(
            transfer_store(&src, &dst, |_| true, |p| p < 1),
            Err(TransferInterrupt::Destination(1))
        );
    }

    #[test]
    fn serviceable_needs_alive_claimed_unsealed() {
        let view = |alive, c, s| ClaimView {
            position: 0,
            tag: "chain",
            alive,
            flags: vec![(c, s)],
        };
        assert!(view(true, true, false).serviceable(0));
        assert!(!view(false, true, false).serviceable(0));
        assert!(!view(true, false, false).serviceable(0));
        assert!(!view(true, true, true).serviceable(0));
        assert!(!view(true, true, false).serviceable(7), "out of range");
    }

    #[test]
    fn sample_counts_serviceable_claimants_per_position() {
        let mk = |position, alive, sealed| ClaimView {
            position,
            tag: "chain",
            alive,
            flags: vec![(true, sealed); 2],
        };
        let sample = ClaimSample {
            op: ReconfigOp::Migrate,
            phase: ReconfigPhase::Switch,
            role: ReconfigActor::Orchestrator,
            views: vec![mk(1, true, false), mk(1, true, true), mk(2, true, false)],
        };
        assert_eq!(sample.serviceable_count(1, 0), 1, "sealed does not count");
        assert_eq!(sample.serviceable_count(2, 0), 1);
        assert_eq!(sample.serviceable_count(0, 0), 0);
    }
}

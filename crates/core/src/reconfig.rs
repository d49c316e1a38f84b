//! Vocabulary of planned reconfiguration.
//!
//! The paper only covers fail-stop *replacement*: a replica dies and §5.2
//! rebuilds it from its group. A planned handover — migrating an instance
//! onto a fresh server, or scaling it to a different worker count (§4.3) —
//! is that same replacement of a running instance, run by
//! [`crate::replace::replace`] as four phases:
//!
//! 1. **Prepare** — the outgoing instance is sealed like a §4.1 recovery
//!    source (paused, parked packets discarded) and the replacement is
//!    spawned.
//! 2. **Transfer** — the recovery fetch: every group the position belongs
//!    to is fetched from the members a §5.2 recovery reads and restored
//!    into the replacement, one group at a time.
//! 3. **Switch** — the commit point: the outgoing instance is killed and the
//!    replacement wired in. A crash *before* this point rolls the operation
//!    back (the old configuration stays intact); a crash *at or after* it
//!    rolls forward (the new configuration is repaired with standard §5.2
//!    recovery).
//! 4. **Release** — traffic resumes through the replacement.
//!
//! The types here name the operations, phases and participants of the
//! step-granular [`ProbePoint::Reconfig`](crate::probe::ProbePoint) crash
//! hooks and the defined state each crash leaves behind.

/// A planned reconfiguration operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigOp {
    /// Move a middlebox instance to a fresh server at the same position.
    Migrate,
    /// Replace an instance with one running a different worker count.
    Scale,
}

impl ReconfigOp {
    /// Short label for witnesses and journal lines.
    pub fn label(&self) -> &'static str {
        match self {
            ReconfigOp::Migrate => "migrate",
            ReconfigOp::Scale => "scale",
        }
    }
}

/// The four phases of a handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigPhase {
    /// Seal the outgoing instance (§4.1 source rule), spawn the replacement.
    Prepare,
    /// Fetch and restore the groups, one group at a time.
    Transfer,
    /// Commit point: kill the outgoing instance, wire in the replacement.
    Switch,
    /// Traffic resumes through the replacement.
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

/// Which participant a reconfiguration probe point (or crash) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconfigActor {
    /// The outgoing instance.
    Source,
    /// The replacement.
    Destination,
    /// The driver of the handover.
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

/// How a handover died.
///
/// Every variant leaves the chain in a *defined* state, stated per
/// variant: either the old configuration is intact (the operation rolled
/// back and can simply be retried), or the crash maps onto the fail-stop
/// path (a position is dead and standard §5.2 recovery repairs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigFailure {
    /// The outgoing instance died at `phase`. The position is
    /// fail-stopped; recover it from the replication group like any crash.
    SourceCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
    /// The replacement died at `phase`. In [`Transfer`] the half-built
    /// replacement is discarded and the outgoing instance resumes — old
    /// configuration intact, retry at will. At [`Switch`] the replacement
    /// already owns the position, so the position is fail-stopped on the
    /// *new* configuration and §5.2 recovery repairs it (roll forward).
    ///
    /// [`Transfer`]: ReconfigPhase::Transfer
    /// [`Switch`]: ReconfigPhase::Switch
    DestinationCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
    /// The orchestrator died between phases. Before [`Switch`]'s commit the
    /// operation rolls back (outgoing instance and group members resumed,
    /// replacement discarded); at [`Release`] it rolls forward (the
    /// replacement serves, only the journal line is lost).
    ///
    /// [`Switch`]: ReconfigPhase::Switch
    /// [`Release`]: ReconfigPhase::Release
    OrchestratorCrashed {
        /// Phase the crash fired in.
        phase: ReconfigPhase,
    },
}

impl std::fmt::Display for ReconfigFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (who, phase) = match self {
            ReconfigFailure::SourceCrashed { phase } => ("source", phase),
            ReconfigFailure::DestinationCrashed { phase } => ("destination", phase),
            ReconfigFailure::OrchestratorCrashed { phase } => ("orchestrator", phase),
        };
        write!(f, "{who} crashed at {}", phase.label())
    }
}

impl std::error::Error for ReconfigFailure {}

//! Step-granular instrumentation hooks for protocol model checking.
//!
//! The protocol elements ([`crate::replica::ReplicaState`],
//! [`crate::buffer::BufferState`], [`crate::forwarder::ForwarderState`])
//! each embed a [`ProbeSlot`]; the replacement procedure in
//! [`crate::replace()`] reports its points through its driver.
//! When a probe is installed, every protocol step of interest reports a
//! [`ProbePoint`] and the probe answers with a [`ProbeVerdict`]: either
//! continue, or fail-stop the component *at that exact point* — state
//! mutated so far persists, the in-progress output is discarded, exactly
//! like a server crashing between two instructions.
//!
//! This is what lets `ftc-audit::protocol` drive a deterministic
//! [`SyncChain`](crate::testkit::SyncChain) through every crash point of
//! the paper's §5 protocol (pre-piggyback, post-apply-pre-forward,
//! post-forward, during recovery) without forking the production code: the
//! same `finish()` path that runs on real threads is the one the model
//! checker crashes mid-step. With no probe installed the hot path pays one
//! `Acquire` load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A protocol step a probe can observe (and veto).
///
/// Replica-side points bracket the steps of `ReplicaState::finish` (paper
/// §5.1): the transaction has committed locally at `PrePiggyback`, the
/// outgoing message is fully assembled at `PostApplyPreForward`, and the
/// frame is on the wire at `PostForward`. Crashing at each point loses a
/// different prefix of the protocol's obligations, which is exactly the
/// case split of the §6 correctness argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbePoint {
    /// Replica `replica` committed its own transaction but has not yet
    /// appended its piggyback log to the outgoing message. A crash here
    /// loses the local commit entirely — no log ever leaves the server.
    PrePiggyback {
        /// Ring position of the replica.
        replica: usize,
    },
    /// Replica `replica` applied predecessor logs, appended its own log and
    /// attached its commit vector, but has not yet handed the frame to the
    /// output port. A crash here loses the frame but keeps the applies.
    PostApplyPreForward {
        /// Ring position of the replica.
        replica: usize,
    },
    /// Replica `replica` has forwarded the frame. A crash here kills the
    /// server with the packet already safely downstream.
    PostForward {
        /// Ring position of the replica.
        replica: usize,
    },
    /// The buffer's release rule fired: commit vectors dominate the
    /// dependency vectors of all `reqs` (pairs of middlebox position and
    /// dependency entries `(partition, seq)`), and the held packet is about
    /// to egress. Observation point for the `f + 1`-replication invariant.
    BufferRelease {
        /// `(mbox, dep entries)` the release rule just proved committed.
        reqs: Vec<(usize, Vec<(u16, u64)>)>,
    },
    /// The forwarder ingested a feedback message carrying `logs` wrapped
    /// logs from the buffer.
    ForwarderFeedback {
        /// Number of logs now pending a carrier packet.
        logs: usize,
    },
    /// Recovery of `recovering` is about to fetch middlebox `mbox`'s state
    /// from replica `source`. A `Crash` verdict here abandons the
    /// half-recovered replacement (the during-recovery crash point).
    RecoveryFetch {
        /// The replica being rebuilt.
        recovering: usize,
        /// The group member about to serve.
        source: usize,
        /// The middlebox whose state is fetched.
        mbox: usize,
    },
    /// A planned-reconfiguration step (a migrate or scale handover,
    /// [`crate::reconfig`]) reached an observable point. A `Crash` verdict
    /// fail-stops `role` — the outgoing instance, the replacement, or the
    /// orchestrator driving the handover — at exactly that point, which
    /// is the case split of the crash-during-reconfiguration matrix.
    /// During the transfer phase the point fires once per group restored,
    /// so triggers can select "at the `k`-th group".
    Reconfig {
        /// The operation in progress.
        op: crate::reconfig::ReconfigOp,
        /// The handshake phase.
        phase: crate::reconfig::ReconfigPhase,
        /// The participant at this point (the crash victim on `Crash`).
        role: crate::reconfig::ReconfigActor,
        /// The (primary) ring position being reconfigured.
        mbox: usize,
    },
}

/// What the probe wants the component to do at a [`ProbePoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeVerdict {
    /// Proceed normally.
    #[default]
    Continue,
    /// Fail-stop at this exact point: keep state mutated so far, discard
    /// the in-progress output, process nothing further.
    Crash,
}

/// A model-checker hook observing protocol steps.
pub trait ProtocolProbe: Send + Sync {
    /// Called at each instrumented step; the verdict is honored
    /// immediately by the reporting component.
    fn on_step(&self, point: ProbePoint) -> ProbeVerdict;
}

/// An optional, swappable probe embedded in a protocol component.
///
/// `armed` mirrors the slot's occupancy so the uninstrumented hot path is
/// a single `Acquire` load; install/clear are cold control-plane calls.
#[derive(Default)]
pub struct ProbeSlot {
    armed: AtomicBool,
    probe: parking_lot::RwLock<Option<Arc<dyn ProtocolProbe>>>,
}

impl ProbeSlot {
    /// Creates an empty slot.
    pub fn new() -> ProbeSlot {
        ProbeSlot::default()
    }

    /// Installs `probe`, replacing any previous one.
    pub fn install(&self, probe: Arc<dyn ProtocolProbe>) {
        *self.probe.write() = Some(probe);
        self.armed.store(true, Ordering::Release);
    }

    /// Removes the probe.
    pub fn clear(&self) {
        self.armed.store(false, Ordering::Release);
        *self.probe.write() = None;
    }

    /// True when a probe is installed (use to skip building an expensive
    /// [`ProbePoint`] payload on the uninstrumented path).
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Reports `point` to the installed probe, if any.
    pub fn observe(&self, point: ProbePoint) -> ProbeVerdict {
        if !self.armed() {
            return ProbeVerdict::Continue;
        }
        match self.probe.read().as_ref() {
            Some(p) => p.on_step(point),
            None => ProbeVerdict::Continue,
        }
    }

    /// Reports the point built by `make` only when a probe is installed.
    pub fn observe_with(&self, make: impl FnOnce() -> ProbePoint) -> ProbeVerdict {
        if !self.armed() {
            return ProbeVerdict::Continue;
        }
        self.observe(make())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counting {
        seen: AtomicUsize,
        verdict: ProbeVerdict,
    }
    impl ProtocolProbe for Counting {
        fn on_step(&self, _point: ProbePoint) -> ProbeVerdict {
            self.seen.fetch_add(1, Ordering::SeqCst);
            self.verdict
        }
    }

    #[test]
    fn empty_slot_continues_without_building_points() {
        let slot = ProbeSlot::new();
        assert!(!slot.armed());
        let mut built = false;
        let v = slot.observe_with(|| {
            built = true;
            ProbePoint::PostForward { replica: 0 }
        });
        assert_eq!(v, ProbeVerdict::Continue);
        assert!(!built, "payload must not be built when unarmed");
    }

    #[test]
    fn installed_probe_sees_points_and_verdict_propagates() {
        let slot = ProbeSlot::new();
        let probe = Arc::new(Counting {
            seen: AtomicUsize::new(0),
            verdict: ProbeVerdict::Crash,
        });
        slot.install(Arc::clone(&probe) as Arc<dyn ProtocolProbe>);
        assert!(slot.armed());
        let v = slot.observe(ProbePoint::PrePiggyback { replica: 2 });
        assert_eq!(v, ProbeVerdict::Crash);
        assert_eq!(probe.seen.load(Ordering::SeqCst), 1);
        slot.clear();
        assert_eq!(
            slot.observe(ProbePoint::PrePiggyback { replica: 2 }),
            ProbeVerdict::Continue
        );
        assert_eq!(probe.seen.load(Ordering::SeqCst), 1);
    }
}

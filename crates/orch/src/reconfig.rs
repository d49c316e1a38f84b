//! Planned reconfiguration over the threaded chain (ROADMAP item 2).
//!
//! The orchestrator-driven counterpart of the deterministic
//! [`SyncChain`](ftc_core::testkit::SyncChain) handover the model checker
//! exercises: the same four-phase handshake of [`ftc_core::reconfig`] —
//! **prepare** (seal the source like a §4.1 recovery source, spawn the
//! destination), **transfer** (fetch the committed prefix group by group
//! over the control plane, from the same group members a §5.2 recovery
//! reads, which quiesce likewise), **switch** (the commit point: fail-stop the old server, wire
//! in the replacement, resume the quiesced members), **release**
//! (decommission the source) — executed wall-clock against real replica
//! threads.
//!
//! The outgoing instance is not read: under load its store holds commits
//! whose packets are still in flight and are dropped at the switch, so
//! its successors never see them. A destination started from it would
//! reissue sequence numbers its successors already count as applied, and
//! their apply rule would park its logs forever.
//!
//! Every phase reports a
//! [`ProbePoint::Reconfig`](ftc_core::probe::ProbePoint) to the
//! orchestrator's [`reconfig_probe`](crate::Orchestrator::reconfig_probe)
//! slot before its effects land. A `Crash` verdict fail-stops that
//! participant at exactly that point, which puts the chain in one of the
//! two defined states of the [`ReconfigFailure`] contract:
//!
//! * **roll back** (crash before the switch commit) — the old
//!   configuration is intact, the quiesced source is resumed, and the
//!   operation can simply be retried;
//! * **roll forward** (crash at or after the switch) — the position is
//!   fail-stopped on the *new* configuration and standard §5.2 recovery
//!   ([`Orchestrator::recover`]) repairs it, or (orchestrator dying at
//!   release) the destination is already serving and only the
//!   decommission message is lost.
//!
//! Journal shape is identical to unplanned recovery (`RespawnIssued` →
//! `StateFetchStarted` → `StateFetchFinished` → `TrafficResumed`), so a
//! completed handover shows up in
//! [`recovery_timelines`](Orchestrator::recovery_timelines) like any
//! Fig-13 recovery — reconfiguration is planned failure, not a new
//! subsystem.

use crate::orchestrator::Orchestrator;
use ftc_core::control::{CtrlReq, OutPort};
use ftc_core::journal::EventKind;
use ftc_core::probe::{ProbePoint, ProbeVerdict};
use ftc_core::reconfig::{ReconfigActor, ReconfigFailure, ReconfigOp, ReconfigPhase};
use ftc_core::recovery::RecoveryError;
use ftc_core::replica::ReplicaState;
use ftc_net::topology::RegionId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-phase timings and transfer volume of one completed handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigReport {
    /// The operation performed.
    pub op: ReconfigOp,
    /// The ring position reconfigured.
    pub position: usize,
    /// Prepare: destination spawn (RTT + process start) and source seal.
    pub prepare: Duration,
    /// Transfer: group-by-group state fetch from the quiesced source.
    pub transfer: Duration,
    /// Switch: the commit point — old server fail-stopped, replacement
    /// wired in.
    pub switch: Duration,
    /// Release: source decommission and traffic resume.
    pub release: Duration,
    /// State bytes moved during the transfer phase.
    pub bytes_transferred: usize,
}

impl ReconfigReport {
    /// End-to-end handover time.
    pub fn total(&self) -> Duration {
        self.prepare + self.transfer + self.switch + self.release
    }
}

/// Why a handover did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// A participant fail-stopped mid-handshake (probe verdict). The
    /// chain is in the defined state the [`ReconfigFailure`] variant
    /// documents: rolled back (retry at will) or rolled forward (repair
    /// with [`Orchestrator::recover`]).
    Failed(ReconfigFailure),
    /// The state fetch could not complete (source stopped answering).
    /// The operation rolls back; the old configuration keeps serving.
    Fetch(RecoveryError),
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Failed(e) => write!(f, "reconfiguration failed: {e}"),
            ReconfigError::Fetch(e) => write!(f, "reconfiguration state fetch failed: {e}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

impl From<ReconfigFailure> for ReconfigError {
    fn from(e: ReconfigFailure) -> ReconfigError {
        ReconfigError::Failed(e)
    }
}

impl Orchestrator {
    /// Migrates the instance at `idx` onto a fresh server in `region`
    /// through the four-phase handshake. State, worker count, and ring
    /// role carry over; only the server (and possibly region) changes.
    pub fn migrate_instance(
        &mut self,
        idx: usize,
        region: RegionId,
    ) -> Result<ReconfigReport, ReconfigError> {
        let workers = self.chain.replicas[idx].state.cfg.workers;
        self.handover(ReconfigOp::Migrate, idx, region, workers)
    }

    /// Rescales the instance at `idx` to `workers` worker threads through
    /// the four-phase handshake (paper §4.3: a running middlebox "can be
    /// replaced with a new instance with a different number of CPU
    /// cores"). The replacement lands on a server in the same region.
    pub fn scale_instance(
        &mut self,
        idx: usize,
        workers: usize,
    ) -> Result<ReconfigReport, ReconfigError> {
        assert!(workers >= 1);
        let region = self.chain.replicas[idx].region;
        self.handover(ReconfigOp::Scale, idx, region, workers)
    }

    /// Reports a reconfiguration probe point; true means a crash verdict.
    fn crash_at(
        &self,
        op: ReconfigOp,
        phase: ReconfigPhase,
        role: ReconfigActor,
        idx: usize,
    ) -> bool {
        self.reconfig_probe.observe_with(|| ProbePoint::Reconfig {
            op,
            phase,
            role,
            mbox: idx,
        }) == ProbeVerdict::Crash
    }

    /// The four-phase handover: replace the instance at `idx` with a
    /// fresh one (`workers` threads, server in `region`) without losing
    /// committed state.
    fn handover(
        &mut self,
        op: ReconfigOp,
        idx: usize,
        region: RegionId,
        workers: usize,
    ) -> Result<ReconfigReport, ReconfigError> {
        let ring = self.chain.cfg.ring();

        // ---- Phase 1: prepare -------------------------------------------
        // Orchestrator commit record first: a crash here loses the whole
        // plan before anything is touched.
        let t0 = Instant::now();
        if self.crash_at(op, ReconfigPhase::Prepare, ReconfigActor::Orchestrator, idx) {
            return Err(ReconfigFailure::OrchestratorCrashed {
                phase: ReconfigPhase::Prepare,
            }
            .into());
        }
        self.journal(EventKind::RespawnIssued {
            replica: idx as u16,
        });
        // Seal the source: its FetchState answer pauses it like a §4.1
        // recovery source (the state it returns is not used). It emits
        // nothing more, so what it already sent lands at its successor
        // during the spawn delay, before the transfer reads that copy.
        let _ = self.chain.replicas[idx]
            .ctrl
            .call(CtrlReq::FetchState { mbox: idx }, self.cfg.fetch_timeout);
        // Spawn the destination on a server in `region`: WAN RTT +
        // spawn-cost emulation (a modeled delay, not a poll).
        // forbidden-ok: thread-sleep
        std::thread::sleep(
            self.chain
                .topology
                .rtt(self.cfg.region, region)
                .saturating_add(self.cfg.spawn_cost),
        );
        let spec = &self.chain.cfg.effective_middleboxes()[idx];
        let mut cfg = (*self.chain.cfg).clone();
        cfg.workers = workers;
        let dest = ReplicaState::new(
            idx,
            Arc::new(cfg),
            spec.build(),
            Arc::new(OutPort::empty()),
            Arc::clone(&self.chain.metrics),
        );
        // A source crash at this point is an ordinary fail-stop of the
        // position.
        if self.crash_at(op, ReconfigPhase::Prepare, ReconfigActor::Source, idx) {
            self.chain.kill(idx);
            return Err(ReconfigFailure::SourceCrashed {
                phase: ReconfigPhase::Prepare,
            }
            .into());
        }
        let prepare = t0.elapsed();

        // ---- Phase 2: transfer ------------------------------------------
        // One fetch per group from the group members §5.2 recovery reads
        // (own group: the closest successor; replicated groups: walking
        // back to the head); each quiesces until the switch resumes it, or
        // a roll back resumes it together with the source. The probe point
        // fires source-side after the export and destination-side after
        // the import — the per-chunk crash hooks of the model checker's
        // transfer triggers.
        let t1 = Instant::now();
        self.journal(EventKind::StateFetchStarted {
            replica: idx as u16,
        });
        let mut bytes = 0usize;
        let mut quiesced: Vec<usize> = Vec::with_capacity(ring.f + 1);
        let mut groups: Vec<usize> = Vec::with_capacity(ring.f + 1);
        if ring.f > 0 {
            groups.push(idx);
        }
        groups.extend(ring.replicated_by(idx));
        for m in groups {
            let Some((src, snapshot, max)) = self.fetch_group(idx, m, region) else {
                // No member answered: roll back, old configuration intact.
                quiesced.push(idx);
                self.resume_replicas(&quiesced);
                return Err(ReconfigError::Fetch(RecoveryError::NoSource { mbox: m }));
            };
            quiesced.push(src);
            if self.crash_at(op, ReconfigPhase::Transfer, ReconfigActor::Source, idx) {
                self.chain.kill(idx);
                self.resume_replicas(&quiesced);
                return Err(ReconfigFailure::SourceCrashed {
                    phase: ReconfigPhase::Transfer,
                }
                .into());
            }
            bytes += snapshot.byte_size();
            if m == idx {
                dest.restore_own(&snapshot, &max);
            } else {
                dest.restore_replicated(m, &snapshot, max);
            }
            if self.crash_at(op, ReconfigPhase::Transfer, ReconfigActor::Destination, idx) {
                // The half-built destination is discarded (dropped) and
                // the sealed source resumes: old configuration intact.
                quiesced.push(idx);
                self.resume_replicas(&quiesced);
                return Err(ReconfigFailure::DestinationCrashed {
                    phase: ReconfigPhase::Transfer,
                }
                .into());
            }
        }
        self.journal(EventKind::StateFetchFinished {
            replica: idx as u16,
            bytes: bytes as u64,
        });
        let transfer = t1.elapsed();

        // ---- Phase 3: switch --------------------------------------------
        // The commit point. Before it, everything rolls back; at it, the
        // destination owns the position.
        let t2 = Instant::now();
        if self.crash_at(op, ReconfigPhase::Switch, ReconfigActor::Orchestrator, idx) {
            quiesced.push(idx);
            self.resume_replicas(&quiesced);
            return Err(ReconfigFailure::OrchestratorCrashed {
                phase: ReconfigPhase::Switch,
            }
            .into());
        }
        self.chain.kill(idx);
        self.chain.respawn(idx, region, dest);
        self.resume_replicas(&quiesced);
        if self.crash_at(op, ReconfigPhase::Switch, ReconfigActor::Destination, idx) {
            // Past the commit point: the position fail-stops on the *new*
            // configuration and §5.2 recovery rolls it forward.
            self.chain.kill(idx);
            return Err(ReconfigFailure::DestinationCrashed {
                phase: ReconfigPhase::Switch,
            }
            .into());
        }
        let switch = t2.elapsed();

        // ---- Phase 4: release -------------------------------------------
        // Decommission the source and declare traffic resumed. The old
        // server was already fail-stopped at the switch, so an
        // orchestrator crash here only loses the journal line — the
        // destination keeps serving (roll forward).
        let t3 = Instant::now();
        if self.crash_at(op, ReconfigPhase::Release, ReconfigActor::Orchestrator, idx) {
            return Err(ReconfigFailure::OrchestratorCrashed {
                phase: ReconfigPhase::Release,
            }
            .into());
        }
        self.journal(EventKind::TrafficResumed {
            replica: idx as u16,
        });
        let release = t3.elapsed();

        Ok(ReconfigReport {
            op,
            position: idx,
            prepare,
            transfer,
            switch,
            release,
            bytes_transferred: bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;
    use ftc_core::chain::FtcChain;
    use ftc_core::config::ChainConfig;
    use ftc_core::probe::ProtocolProbe;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use parking_lot::Mutex;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn pkt(i: u16) -> ftc_packet::Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 0, 0, 1), 1000 + i)
            .dst(Ipv4Addr::new(10, 9, 9, 9), 80)
            .ident(i)
            .build()
    }

    fn orch(n: usize, f: usize) -> Orchestrator {
        let specs = (0..n)
            .map(|_| MbSpec::Monitor { sharing_level: 1 })
            .collect();
        let chain = FtcChain::deploy(ChainConfig::new(specs).with_f(f));
        Orchestrator::new(chain, OrchestratorConfig::default())
    }

    /// Warm the chain with `n` packets and let the ring commit.
    fn warm(o: &mut Orchestrator, n: u16) {
        for i in 0..n {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain
                .egress()
                .collect(n as usize, Duration::from_secs(10))
                .len(),
            n as usize
        );
        std::thread::sleep(Duration::from_millis(80));
    }

    fn counter(o: &Orchestrator, idx: usize) -> u64 {
        let s = &o.chain.replicas[idx].state.own_store;
        s.peek_u64(b"mon:packets:g0").unwrap_or(0) + s.peek_u64(b"mon:packets:g1").unwrap_or(0)
    }

    /// Records every reconfiguration point as "phase:role".
    struct Recording(Mutex<Vec<String>>);
    impl ProtocolProbe for Recording {
        fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
            if let ProbePoint::Reconfig { phase, role, .. } = point {
                self.0
                    .lock()
                    .push(format!("{}:{}", phase.label(), role.label()));
            }
            ProbeVerdict::Continue
        }
    }

    /// Crashes at the first observation of `(phase, role)`, then continues.
    struct CrashAt {
        phase: ReconfigPhase,
        role: ReconfigActor,
        fired: AtomicBool,
    }
    impl CrashAt {
        fn new(phase: ReconfigPhase, role: ReconfigActor) -> Arc<CrashAt> {
            Arc::new(CrashAt {
                phase,
                role,
                fired: AtomicBool::new(false),
            })
        }
    }
    impl ProtocolProbe for CrashAt {
        fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
            if let ProbePoint::Reconfig { phase, role, .. } = point {
                if phase == self.phase
                    && role == self.role
                    && !self.fired.swap(true, Ordering::SeqCst)
                {
                    return ProbeVerdict::Crash;
                }
            }
            ProbeVerdict::Continue
        }
    }

    #[test]
    fn migrate_keeps_state_and_walks_the_phase_sequence() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);

        let rec = Arc::new(Recording(Mutex::new(Vec::new())));
        o.reconfig_probe
            .install(Arc::clone(&rec) as Arc<dyn ProtocolProbe>);
        let report = o.migrate_instance(1, RegionId(0)).expect("migrate");
        o.reconfig_probe.clear();

        assert_eq!(report.op, ReconfigOp::Migrate);
        assert_eq!(report.position, 1);
        assert!(report.bytes_transferred > 0);
        assert!(report.total() > Duration::ZERO);
        // f=1 ⇒ the instance holds its own group plus one replicated
        // group: two transfer chunks, each with a source and a
        // destination point.
        assert_eq!(
            *rec.0.lock(),
            vec![
                "prepare:orchestrator",
                "prepare:source",
                "transfer:source",
                "transfer:destination",
                "transfer:source",
                "transfer:destination",
                "switch:orchestrator",
                "switch:destination",
                "release:orchestrator",
            ]
        );

        // State survived the handover and traffic continues.
        assert_eq!(counter(&o, 1), 20);
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
        assert_eq!(counter(&o, 1), 30);
    }

    #[test]
    fn scale_instance_reports_phase_timings() {
        let mut o = orch(3, 1);
        warm(&mut o, 30);
        let report = o.scale_instance(1, 2).expect("scale");
        assert_eq!(report.op, ReconfigOp::Scale);
        assert_eq!(o.chain.replicas[1].state.cfg.workers, 2);
        assert_eq!(counter(&o, 1), 30);
        // A planned handover journals exactly like a recovery, so it shows
        // up as one more Fig-13 timeline.
        let timelines = o.recovery_timelines();
        assert!(
            timelines.iter().any(|t| t.replica == 1),
            "handover must appear in the journal timelines: {timelines:?}"
        );
    }

    /// Scale 1 -> 2 -> 1 workers with a burst in flight at each handover.
    /// Packets in flight at the outgoing instance may be dropped (as in
    /// any fail-stop), but both handovers commit, everything injected
    /// afterwards egresses, and every released packet's update is in the
    /// position's state.
    #[test]
    fn scale_up_and_down_under_load() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);
        let egress = o.chain.egress();
        let mut released = 20u64;
        let mut next = 20u16;
        for workers in [2, 1] {
            for _ in 0..64 {
                o.chain.inject(pkt(next));
                next += 1;
            }
            o.scale_instance(1, workers).expect("handover under load");
            assert_eq!(o.chain.replicas[1].state.cfg.workers, workers);
            released += egress.collect(64, Duration::from_millis(300)).len() as u64;
        }

        // `pkt(i)` sends from port 1000 + i: track the post-handover ones.
        let mut pending: std::collections::HashSet<u16> =
            (next..next + 30).map(|i| 1000 + i).collect();
        for i in next..next + 30 {
            o.chain.inject(pkt(i));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pending.is_empty() && Instant::now() < deadline {
            if let Some(p) = egress.recv(Duration::from_millis(5)) {
                released += 1;
                pending.remove(&p.flow_key().unwrap().src_port);
            }
        }
        assert!(pending.is_empty(), "lost after the handovers: {pending:?}");
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            counter(&o, 1) >= released,
            "position 1 counted {} of {released} released packets",
            counter(&o, 1)
        );
    }

    #[test]
    fn destination_crash_in_transfer_rolls_back_and_retries() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);

        let probe = CrashAt::new(ReconfigPhase::Transfer, ReconfigActor::Destination);
        o.reconfig_probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.migrate_instance(1, RegionId(0)).unwrap_err();
        o.reconfig_probe.clear();
        assert_eq!(
            err,
            ReconfigError::Failed(ReconfigFailure::DestinationCrashed {
                phase: ReconfigPhase::Transfer
            })
        );

        // Old configuration intact: the source resumed and keeps serving.
        assert!(o.chain.is_alive(1));
        assert_eq!(counter(&o, 1), 20);
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
        std::thread::sleep(Duration::from_millis(80));

        // Retrying the same operation now succeeds.
        let report = o.migrate_instance(1, RegionId(0)).expect("retry");
        assert!(report.bytes_transferred > 0);
        assert_eq!(counter(&o, 1), 30);
    }

    #[test]
    fn orchestrator_crash_at_prepare_touches_nothing() {
        let mut o = orch(3, 1);
        warm(&mut o, 10);
        let probe = CrashAt::new(ReconfigPhase::Prepare, ReconfigActor::Orchestrator);
        o.reconfig_probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.scale_instance(1, 2).unwrap_err();
        o.reconfig_probe.clear();
        assert_eq!(
            err,
            ReconfigError::Failed(ReconfigFailure::OrchestratorCrashed {
                phase: ReconfigPhase::Prepare
            })
        );
        assert!(o.chain.is_alive(1));
        assert_eq!(o.chain.replicas[1].state.cfg.workers, 1, "unchanged");
        for i in 10..20 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
    }

    #[test]
    fn destination_crash_at_switch_rolls_forward_via_recovery() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);

        let probe = CrashAt::new(ReconfigPhase::Switch, ReconfigActor::Destination);
        o.reconfig_probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.migrate_instance(1, RegionId(0)).unwrap_err();
        o.reconfig_probe.clear();
        assert_eq!(
            err,
            ReconfigError::Failed(ReconfigFailure::DestinationCrashed {
                phase: ReconfigPhase::Switch
            })
        );

        // Past the commit point the position is fail-stopped on the new
        // configuration; §5.2 recovery repairs it from the group.
        assert!(!o.chain.is_alive(1));
        o.recover(1, RegionId(0)).expect("roll-forward recovery");
        assert_eq!(counter(&o, 1), 20);
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
        assert_eq!(counter(&o, 1), 30);
    }

    #[test]
    fn orchestrator_crash_at_release_leaves_destination_serving() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);
        let probe = CrashAt::new(ReconfigPhase::Release, ReconfigActor::Orchestrator);
        o.reconfig_probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.scale_instance(1, 2).unwrap_err();
        o.reconfig_probe.clear();
        assert_eq!(
            err,
            ReconfigError::Failed(ReconfigFailure::OrchestratorCrashed {
                phase: ReconfigPhase::Release
            })
        );
        // Roll forward: the operation committed at the switch; only the
        // decommission/journal step was lost.
        assert!(o.chain.is_alive(1));
        assert_eq!(o.chain.replicas[1].state.cfg.workers, 2);
        assert_eq!(counter(&o, 1), 20);
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
    }
}

//! Planned reconfiguration over the threaded chain.
//!
//! [`Orchestrator::migrate_instance`] and [`Orchestrator::scale_instance`]
//! are one call each to [`ftc_core::replace::replace`], the procedure
//! §5.2 recovery runs too, with a [`Plan::Migrate`] or [`Plan::Scale`]:
//!
//! * **prepare** — seal the outgoing instance with a `FetchState` whose
//!   answer is dropped (it pauses like a §4.1 recovery source) and spawn
//!   the replacement;
//! * **transfer** — the recovery fetch: every group from the members a
//!   §5.2 recovery reads, which quiesce likewise;
//! * **switch** — the commit point: the outgoing server is fail-stopped,
//!   the replacement wired in, the quiesced members resumed;
//! * **release** — traffic resumes.
//!
//! The outgoing instance's own store is never read: under load it holds
//! commits whose packets are still in flight and are dropped at the
//! switch, so its successors never see them. A replacement started from
//! it would reissue sequence numbers its successors already count as
//! applied, and their apply rule would park its logs forever.
//!
//! Every phase reports a
//! [`ProbePoint::Reconfig`](ftc_core::probe::ProbePoint) to the
//! orchestrator's [`probe`](crate::Orchestrator::probe) slot before its
//! effects land. A `Crash` verdict fail-stops that participant at exactly
//! that point, which leaves the chain in one of the two defined states of
//! the [`ReconfigFailure`](ftc_core::ReconfigFailure) contract:
//!
//! * **roll back** (crash before the switch commit) — the old
//!   configuration is intact, the sealed source and the quiesced members
//!   are resumed, and the operation can simply be retried;
//! * **roll forward** (crash at or after the switch) — the position is
//!   fail-stopped on the *new* configuration and standard §5.2 recovery
//!   ([`Orchestrator::recover`]) repairs it, or (orchestrator dying at
//!   release) the replacement is already serving and only the journal
//!   line is lost.
//!
//! The journal shape is that of any recovery (`RespawnIssued` →
//! `StateFetchStarted` → `StateFetchFinished` → `TrafficResumed`), so a
//! completed handover shows up in
//! [`recovery_timelines`](Orchestrator::recovery_timelines) like any
//! Fig-13 recovery.

use crate::orchestrator::Orchestrator;
use ftc_core::reconfig::ReconfigOp;
use ftc_core::replace::{Plan, RecoveryError, ReplaceReport};
use ftc_net::topology::RegionId;
use std::time::Duration;

/// Per-phase timings and transfer volume of one completed handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigReport {
    /// The operation performed.
    pub op: ReconfigOp,
    /// The ring position reconfigured.
    pub position: usize,
    /// Prepare: source seal and replacement spawn (RTT + process start).
    pub prepare: Duration,
    /// Transfer: group-by-group state fetch from the group members.
    pub transfer: Duration,
    /// Switch: the commit point — old server fail-stopped, replacement
    /// wired in, members resumed.
    pub switch: Duration,
    /// Release: traffic resumes.
    pub release: Duration,
    /// State bytes moved during the transfer phase.
    pub bytes_transferred: usize,
}

impl ReconfigReport {
    fn new(op: ReconfigOp, position: usize, r: ReplaceReport) -> ReconfigReport {
        ReconfigReport {
            op,
            position,
            prepare: r.prepare,
            transfer: r.transfer,
            switch: r.switch,
            release: r.release,
            bytes_transferred: r.bytes_transferred,
        }
    }

    /// End-to-end handover time.
    pub fn total(&self) -> Duration {
        self.prepare + self.transfer + self.switch + self.release
    }
}

impl Orchestrator {
    /// Migrates the instance at `idx` onto a fresh server in `region`.
    /// State, worker count, and ring role carry over; only the server (and
    /// possibly region) changes.
    pub fn migrate_instance(
        &mut self,
        idx: usize,
        region: RegionId,
    ) -> Result<ReconfigReport, RecoveryError> {
        let r = self.replace(idx, region, Plan::Migrate)?;
        Ok(ReconfigReport::new(ReconfigOp::Migrate, idx, r))
    }

    /// Rescales the instance at `idx` to `workers` worker threads (paper
    /// §4.3: a running middlebox "can be replaced with a new instance with
    /// a different number of CPU cores"). The replacement lands on a
    /// server in the same region.
    pub fn scale_instance(
        &mut self,
        idx: usize,
        workers: usize,
    ) -> Result<ReconfigReport, RecoveryError> {
        assert!(workers >= 1);
        let region = self.chain.replicas[idx].region;
        let r = self.replace(idx, region, Plan::Scale { workers })?;
        Ok(ReconfigReport::new(ReconfigOp::Scale, idx, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;
    use ftc_core::chain::FtcChain;
    use ftc_core::config::ChainConfig;
    use ftc_core::probe::{ProbePoint, ProbeVerdict, ProtocolProbe};
    use ftc_core::reconfig::{ReconfigActor, ReconfigFailure, ReconfigPhase};
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use parking_lot::Mutex;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

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
        o.probe.install(Arc::clone(&rec) as Arc<dyn ProtocolProbe>);
        let report = o.migrate_instance(1, RegionId(0)).expect("migrate");
        o.probe.clear();

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
        o.probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.migrate_instance(1, RegionId(0)).unwrap_err();
        o.probe.clear();
        assert_eq!(
            err,
            RecoveryError::Failed(ReconfigFailure::DestinationCrashed {
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
        o.probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.scale_instance(1, 2).unwrap_err();
        o.probe.clear();
        assert_eq!(
            err,
            RecoveryError::Failed(ReconfigFailure::OrchestratorCrashed {
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
        o.probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.migrate_instance(1, RegionId(0)).unwrap_err();
        o.probe.clear();
        assert_eq!(
            err,
            RecoveryError::Failed(ReconfigFailure::DestinationCrashed {
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
        o.probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.scale_instance(1, 2).unwrap_err();
        o.probe.clear();
        assert_eq!(
            err,
            RecoveryError::Failed(ReconfigFailure::OrchestratorCrashed {
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

    #[test]
    fn source_crash_in_transfer_fail_stops_the_position_for_recovery() {
        let mut o = orch(3, 1);
        warm(&mut o, 20);
        let probe = CrashAt::new(ReconfigPhase::Transfer, ReconfigActor::Source);
        o.probe.install(probe as Arc<dyn ProtocolProbe>);
        let err = o.migrate_instance(1, RegionId(0)).unwrap_err();
        o.probe.clear();
        assert_eq!(
            err,
            RecoveryError::Failed(ReconfigFailure::SourceCrashed {
                phase: ReconfigPhase::Transfer
            })
        );
        // An ordinary fail-stop: the members the transfer paused resume,
        // and §5.2 recovery repairs the position.
        assert!(!o.chain.is_alive(1));
        for i in [0, 2] {
            assert!(!o.chain.replicas[i].state.is_paused(), "r{i} left paused");
        }
        o.recover(1, RegionId(0)).expect("recovery");
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
}

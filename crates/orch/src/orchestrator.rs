//! Three-step failure recovery (paper §5.2) and its timing report.

use crate::detector::FailureDetector;
use ftc_core::chain::FtcChain;
use ftc_core::config::RingMath;
use ftc_core::control::{CtrlClient, CtrlReq, CtrlResp, OutPort};
use ftc_core::journal::{EventKind, EventSource};
use ftc_core::recovery::{source_order, RecoveryError};
use ftc_core::replica::ReplicaState;
use ftc_net::topology::RegionId;
use ftc_stm::StoreSnapshot;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Orchestrator tunables.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Region the orchestrator (SDN controller) runs in.
    pub region: RegionId,
    /// RPC timeout for state fetches.
    pub fetch_timeout: Duration,
    /// Heartbeat interval for the monitoring loop.
    pub heartbeat_interval: Duration,
    /// Heartbeat timeout per ping.
    pub heartbeat_timeout: Duration,
    /// Consecutive misses before declaring a failure.
    pub miss_threshold: u32,
    /// Fixed cost of instantiating a middlebox + replica process on a
    /// server (container/VM start), added to the initialization phase.
    pub spawn_cost: Duration,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            region: RegionId(0),
            fetch_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(50),
            miss_threshold: 2,
            spawn_cost: Duration::from_millis(1),
        }
    }
}

/// Durations of the three recovery steps (the Fig. 13 quantities).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Spawning the replacement and informing it of its groups
    /// (orchestrator↔region round trip + process start).
    pub initialization: Duration,
    /// Fetching and restoring state from group members (WAN-dominated).
    pub state_recovery: Duration,
    /// Updating routing rules to steer traffic through the replacement.
    pub rerouting: Duration,
    /// Total state bytes transferred.
    pub bytes_transferred: usize,
}

impl RecoveryReport {
    /// Total recovery time.
    pub fn total(&self) -> Duration {
        self.initialization + self.state_recovery + self.rerouting
    }
}

/// The chain orchestrator: detection + recovery sequencing.
pub struct Orchestrator {
    /// The managed chain.
    pub chain: FtcChain,
    /// Step-granular hook for the planned-reconfiguration handshake
    /// ([`crate::reconfig`]): every phase of a handover reports a
    /// [`ProbePoint::Reconfig`](ftc_core::probe::ProbePoint) here, and a
    /// `Crash` verdict fail-stops that participant at that exact point.
    /// Empty in production; tests install probes to exercise the
    /// rollback/roll-forward paths.
    pub reconfig_probe: ftc_core::probe::ProbeSlot,
    pub(crate) cfg: OrchestratorConfig,
    detector: FailureDetector,
}

impl Orchestrator {
    /// Takes over management of a deployed chain.
    pub fn new(chain: FtcChain, cfg: OrchestratorConfig) -> Orchestrator {
        let n = chain.len();
        let detector = FailureDetector::new(n, cfg.miss_threshold, cfg.heartbeat_timeout);
        Orchestrator {
            chain,
            reconfig_probe: ftc_core::probe::ProbeSlot::new(),
            cfg,
            detector,
        }
    }

    /// One monitoring round: ping everything, recover what died. Returns
    /// `(position, report)` for every recovery performed.
    pub fn monitor_round(&mut self) -> Vec<(usize, Result<RecoveryReport, RecoveryError>)> {
        let dead = self.detector.round(&self.chain);
        if dead.is_empty() {
            return Vec::new();
        }
        // §5.2: "for simultaneous failures, the orchestrator waits until all
        // new replicas confirm that they have finished their state recovery
        // procedures before updating routing rules." Our respawn couples
        // state restore and rewiring per position; positions are processed
        // in sequence after *all* state has been fetched.
        let mut results = Vec::new();
        for idx in dead {
            let region = self.chain.replicas[idx].region;
            let r = self.recover(idx, region);
            if r.is_ok() {
                self.detector.mark_recovered(idx);
            }
            results.push((idx, r));
        }
        results
    }

    /// Recovers the replica at `idx` onto a fresh server in `region`,
    /// following §5.2: initialization, parallel state recovery, rerouting.
    pub fn recover(
        &mut self,
        idx: usize,
        region: RegionId,
    ) -> Result<RecoveryReport, RecoveryError> {
        let ring = self.chain.cfg.ring();
        self.journal(EventKind::RespawnIssued {
            replica: idx as u16,
        });

        // ---- Step 1: initialization -------------------------------------
        // Spawn a new middlebox instance + replica on a server in `region`
        // and inform it about the replication groups of the failed replica.
        // Cost: an orchestrator↔region round trip plus process start.
        let t0 = Instant::now();
        // WAN RTT + spawn-cost emulation (a modeled delay, not a poll).
        // forbidden-ok: thread-sleep
        std::thread::sleep(
            self.chain
                .topology
                .rtt(self.cfg.region, region)
                .saturating_add(self.cfg.spawn_cost),
        );
        let spec = &self.chain.cfg.effective_middleboxes()[idx];
        let state = ReplicaState::new(
            idx,
            Arc::clone(&self.chain.cfg),
            spec.build(),
            Arc::new(OutPort::empty()),
            Arc::clone(&self.chain.metrics),
        );
        let initialization = t0.elapsed();

        // ---- Step 2: state recovery -------------------------------------
        // "The control module spawns a thread to fetch state per each
        // replication group" (§6) — fetches run in parallel; WAN RTT to the
        // source region dominates. Sources quiesce while serving (§4.1).
        let t1 = Instant::now();
        self.journal(EventKind::StateFetchStarted {
            replica: idx as u16,
        });
        let (bytes, sources) = self.parallel_state_recovery(&state, idx, region, ring)?;
        self.journal(EventKind::StateFetchFinished {
            replica: idx as u16,
            bytes: bytes as u64,
        });
        let state_recovery = t1.elapsed();

        // ---- Step 3: rerouting ------------------------------------------
        // Install fresh links around the replacement (the SDN rule update;
        // the paper observes negligible delay here), then resume the
        // quiesced recovery sources.
        let t2 = Instant::now();
        self.chain.respawn(idx, region, state);
        self.resume_replicas(&sources);
        self.journal(EventKind::TrafficResumed {
            replica: idx as u16,
        });
        let rerouting = t2.elapsed();

        Ok(RecoveryReport {
            initialization,
            state_recovery,
            rerouting,
            bytes_transferred: bytes,
        })
    }

    /// Sends [`CtrlReq::Resume`] to the given replicas (best effort).
    pub(crate) fn resume_replicas(&self, sources: &[usize]) {
        for &src in sources {
            if let Some(slot) = self.chain.replicas.get(src) {
                let _ = slot.ctrl.call(CtrlReq::Resume, self.cfg.fetch_timeout);
            }
        }
    }

    /// Vertically rescales the replica at `idx` to `workers` worker threads
    /// (paper §4.3: dependency vectors "easily support vertical scaling as
    /// a running middlebox can be replaced with a new instance with a
    /// different number of CPU cores", and "a middlebox and its replicas
    /// can also run with a different number of threads").
    ///
    /// This is a *planned* replacement, executed as the four-phase
    /// [`crate::reconfig`] handshake (prepare → transfer → switch →
    /// release): state is fetched from the group members a §5.2 recovery
    /// reads, the old server is fail-stopped at the switch commit point,
    /// and traffic is rerouted through the replacement.
    /// Packets in flight at the old instance during the switch are
    /// dropped, exactly as during unplanned recovery.
    ///
    /// The phased engine ([`Orchestrator::scale_instance`]) is the real
    /// implementation; this wrapper keeps the Fig-13-shaped
    /// [`RecoveryReport`] for callers that time rescales like recoveries.
    pub fn rescale(&mut self, idx: usize, workers: usize) -> Result<RecoveryReport, RecoveryError> {
        match self.scale_instance(idx, workers) {
            Ok(r) => Ok(RecoveryReport {
                initialization: r.prepare,
                state_recovery: r.transfer,
                rerouting: r.switch + r.release,
                bytes_transferred: r.bytes_transferred,
            }),
            Err(crate::reconfig::ReconfigError::Fetch(e)) => Err(e),
            // Participant crashes only occur with a probe installed; probe
            // -driven tests call the phased engine directly. Map the
            // fail-stopped position onto the recovery vocabulary.
            Err(crate::reconfig::ReconfigError::Failed(_)) => {
                Err(RecoveryError::Aborted { mbox: idx })
            }
        }
    }

    /// Fetches every group's state in parallel threads, then restores.
    fn parallel_state_recovery(
        &self,
        state: &Arc<ReplicaState>,
        idx: usize,
        region: RegionId,
        ring: RingMath,
    ) -> Result<(usize, Vec<usize>), RecoveryError> {
        // The groups to repair: the replica's own middlebox plus the f it
        // replicates.
        let mut groups: Vec<usize> = Vec::with_capacity(ring.f + 1);
        if ring.f > 0 {
            groups.push(idx);
        }
        groups.extend(ring.replicated_by(idx));

        type Fetched = (usize, usize, StoreSnapshot, Vec<u64>);
        let fetch_one = |m: usize| -> Result<Fetched, RecoveryError> {
            self.fetch_group(idx, m, region)
                .map(|(src, snapshot, max)| (src, m, snapshot, max))
                .ok_or(RecoveryError::NoSource { mbox: m })
        };

        // One fetch per group, in parallel; the last group's runs on this
        // thread, which would otherwise only wait — one thread start and
        // one wake-up fewer inside the outage.
        let results: Vec<Result<Fetched, RecoveryError>> = std::thread::scope(|scope| {
            let Some((&last, spawned)) = groups.split_last() else {
                return Vec::new(); // f = 0: nothing is replicated
            };
            let fetch_one = &fetch_one;
            let handles: Vec<_> = spawned
                .iter()
                .map(|&m| scope.spawn(move || fetch_one(m)))
                .collect();
            let last = fetch_one(last);
            handles
                .into_iter()
                .map(|h| h.join().expect("fetch thread"))
                .chain(std::iter::once(last))
                .collect()
        });

        let mut bytes = 0;
        let mut sources = Vec::new();
        let mut fetched = Vec::new();
        for r in results {
            match r {
                Ok(f) => fetched.push(f),
                Err(e) => {
                    // Don't leave partial sources quiesced forever.
                    let touched: Vec<usize> = fetched.iter().map(|(src, _, _, _)| *src).collect();
                    self.resume_replicas(&touched);
                    return Err(e);
                }
            }
        }
        for (src, m, snapshot, max) in fetched {
            bytes += snapshot.byte_size();
            sources.push(src);
            if m == idx {
                state.restore_own(&snapshot, &max);
            } else {
                state.restore_replicated(m, &snapshot, max);
            }
        }
        sources.sort_unstable();
        sources.dedup();
        Ok((bytes, sources))
    }

    /// Fetches group `m`'s state for a replacement of position `idx` in
    /// `region` from the first member in §5.2 source order that answers,
    /// skipping `idx` itself. Returns the member, which now quiesces.
    pub(crate) fn fetch_group(
        &self,
        idx: usize,
        m: usize,
        region: RegionId,
    ) -> Option<(usize, StoreSnapshot, Vec<u64>)> {
        source_order(self.chain.cfg.ring(), idx, m)
            .into_iter()
            .filter(|&src| src != idx)
            .find_map(|src| {
                let client = self.delayed_client(src, region)?;
                match client.call(CtrlReq::FetchState { mbox: m }, self.cfg.fetch_timeout) {
                    Ok(CtrlResp::State { snapshot, max }) => Some((src, snapshot, max)),
                    _ => None, // dead or does not hold it: try the next one
                }
            })
    }

    /// A control client for `src` as seen from `caller_region` (None if the
    /// replica's server is dead).
    fn delayed_client(&self, src: usize, caller_region: RegionId) -> Option<CtrlClient> {
        if !self.chain.is_alive(src) {
            return None;
        }
        let slot = &self.chain.replicas[src];
        let delay = self.chain.topology.one_way(caller_region, slot.region);
        Some(slot.ctrl.with_delay(delay))
    }

    /// Records a journal event attributed to the orchestrator.
    pub(crate) fn journal(&self, kind: EventKind) {
        self.chain
            .metrics
            .journal
            .record(EventSource::Orchestrator, kind);
    }

    /// Derives the Fig-13 recovery timelines from the chain's journal
    /// without draining it (one entry per completed recovery).
    pub fn recovery_timelines(&self) -> Vec<ftc_core::journal::RecoveryTimeline> {
        ftc_core::journal::recovery_timelines(&self.chain.metrics.journal.trace())
    }

    /// Access to the orchestrator config.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.cfg
    }
}

/// Runs the orchestrator's monitoring loop on a background thread until
/// `stop` is set: heartbeat every `heartbeat_interval`, recover whatever
/// fail-stops. This is the hands-off production mode; experiments that need
/// step-by-step control call [`Orchestrator::monitor_round`] directly.
///
/// The orchestrator is shared behind a mutex so callers can still inject
/// traffic and inspect the chain between rounds.
pub fn spawn_monitor(
    orch: Arc<parking_lot::Mutex<Orchestrator>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<Vec<(usize, Duration)>> {
    std::thread::Builder::new()
        .name("ftc-orchestrator".into())
        .spawn(move || {
            let mut recoveries = Vec::new();
            let interval = orch.lock().cfg.heartbeat_interval;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let results = orch.lock().monitor_round();
                for (idx, r) in results {
                    if let Ok(report) = r {
                        recoveries.push((idx, report.total()));
                    }
                }
                // Heartbeat cadence (§4.2): a fixed detection interval, the
                // detector's own timeout machinery, not ad-hoc polling.
                // forbidden-ok: thread-sleep
                std::thread::sleep(interval);
            }
            recoveries
        })
        .expect("spawn orchestrator thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::config::ChainConfig;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;

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

    #[test]
    fn recover_middle_replica_restores_state_and_traffic() {
        let mut o = orch(3, 1);
        for i in 0..20 {
            o.chain.inject(pkt(i));
        }
        let got = o.chain.egress().collect(20, Duration::from_secs(10));
        assert_eq!(got.len(), 20);
        std::thread::sleep(Duration::from_millis(50)); // let the ring commit

        o.chain.kill(1);
        let report = o.recover(1, RegionId(0)).expect("recovery succeeds");
        assert!(report.bytes_transferred > 0);
        assert!(report.total() > Duration::ZERO);

        // The replacement holds m1's pre-failure state (recovered from its
        // successor r2) …
        let new_r1 = &o.chain.replicas[1].state;
        assert_eq!(new_r1.own_store.peek_u64(b"mon:packets:g0"), Some(20));
        // … and m0's replica copy (recovered from its predecessor r0).
        assert_eq!(
            new_r1.replicated[&0].store.peek_u64(b"mon:packets:g0"),
            Some(20)
        );

        // Traffic flows again and the counter continues from 20.
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        let got = o.chain.egress().collect(10, Duration::from_secs(10));
        assert_eq!(got.len(), 10);
        assert_eq!(new_r1.own_store.peek_u64(b"mon:packets:g0"), Some(30));
    }

    #[test]
    fn monitor_round_detects_and_recovers() {
        let mut o = orch(3, 1);
        for i in 0..5 {
            o.chain.inject(pkt(i));
        }
        o.chain.egress().collect(5, Duration::from_secs(10));
        o.chain.kill(2);
        // Two rounds to cross the miss threshold.
        assert!(o.monitor_round().is_empty());
        let results = o.monitor_round();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 2);
        assert!(results[0].1.is_ok());
        assert!(o.chain.is_alive(2));
    }

    #[test]
    fn head_and_tail_positions_recover() {
        for idx in [0usize, 2] {
            let mut o = orch(3, 1);
            for i in 0..10 {
                o.chain.inject(pkt(i));
            }
            assert_eq!(
                o.chain.egress().collect(10, Duration::from_secs(10)).len(),
                10
            );
            std::thread::sleep(Duration::from_millis(50));
            o.chain.kill(idx);
            let report = o.recover(idx, RegionId(0)).expect("recovery");
            assert!(report.bytes_transferred > 0, "idx {idx}");
            // Post-recovery traffic flows end to end.
            for i in 10..20 {
                o.chain.inject(pkt(i));
            }
            let got = o.chain.egress().collect(10, Duration::from_secs(10));
            assert_eq!(got.len(), 10, "traffic must flow after recovering r{idx}");
        }
    }

    #[test]
    fn recovery_restores_the_thread_layout_at_every_position() {
        // `workers + 1` threads per server, also for a respawned first
        // server (fresh forwarder, inline) and last server (fresh buffer,
        // inline): recovery must not bring a thread back.
        for workers in [1usize, 4] {
            let specs = vec![MbSpec::Monitor { sharing_level: 1 }; 3];
            let chain = FtcChain::deploy(ChainConfig::new(specs).with_workers(workers));
            let mut o = Orchestrator::new(chain, OrchestratorConfig::default());
            for idx in 0..3 {
                o.chain.kill(idx);
                assert_eq!(o.chain.thread_count(), 2 * (workers + 1));
                o.recover(idx, RegionId(0)).expect("recovery");
                assert_eq!(
                    o.chain.thread_count(),
                    3 * (workers + 1),
                    "workers={workers}, after recovering r{idx}"
                );
                o.chain.inject(pkt(idx as u16));
                let got = o.chain.egress().collect(1, Duration::from_secs(10));
                assert_eq!(got.len(), 1, "traffic after recovering r{idx}");
            }
        }
    }

    #[test]
    fn vertical_rescale_changes_thread_count_and_keeps_state() {
        // §4.3: replicas may run with a different number of threads than
        // the middlebox they replicate — scale r1 from 1 to 2 workers while
        // the rest of the chain stays single-threaded.
        let mut o = orch(3, 1);
        for i in 0..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(30, Duration::from_secs(10)).len(),
            30
        );
        std::thread::sleep(Duration::from_millis(80));

        let report = o.rescale(1, 2).expect("rescale");
        assert!(report.bytes_transferred > 0);
        assert_eq!(o.chain.replicas[1].state.cfg.workers, 2);
        assert_eq!(o.chain.replicas[0].state.cfg.workers, 1, "others untouched");

        // State survived the planned replacement…
        assert_eq!(
            o.chain.replicas[1]
                .state
                .own_store
                .peek_u64(b"mon:packets:g0"),
            Some(30)
        );
        // …and the mixed-thread-count chain keeps processing correctly
        // (with 2 workers the Monitor splits counts across per-worker
        // group counters; the total is what must be exact).
        for i in 0..40 {
            o.chain.inject(pkt(100 + i));
        }
        assert_eq!(
            o.chain.egress().collect(40, Duration::from_secs(10)).len(),
            40
        );
        let total = |o: &Orchestrator| {
            let s = &o.chain.replicas[1].state.own_store;
            s.peek_u64(b"mon:packets:g0").unwrap_or(0) + s.peek_u64(b"mon:packets:g1").unwrap_or(0)
        };
        assert_eq!(total(&o), 70);
        // The resized instance can itself fail and recover afterwards.
        std::thread::sleep(Duration::from_millis(80));
        o.chain.kill(1);
        o.recover(1, RegionId(0)).expect("recover resized replica");
        assert_eq!(total(&o), 70);
    }

    #[test]
    fn scale_down_to_fewer_workers() {
        // "failing over to a server with fewer CPU cores when resources are
        // scarce during a major outage" (§1).
        let specs = vec![
            MbSpec::Monitor { sharing_level: 2 },
            MbSpec::Monitor { sharing_level: 2 },
        ];
        let chain = FtcChain::deploy(ChainConfig::new(specs).with_f(1).with_workers(2));
        let mut o = Orchestrator::new(chain, OrchestratorConfig::default());
        for i in 0..20 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(20, Duration::from_secs(10)).len(),
            20
        );
        std::thread::sleep(Duration::from_millis(80));
        o.rescale(0, 1).expect("scale down");
        assert_eq!(o.chain.replicas[0].state.cfg.workers, 1);
        for i in 0..20 {
            o.chain.inject(pkt(200 + i));
        }
        assert_eq!(
            o.chain.egress().collect(20, Duration::from_secs(10)).len(),
            20
        );
        let s = &o.chain.replicas[0].state.own_store;
        let total =
            s.peek_u64(b"mon:packets:g0").unwrap_or(0) + s.peek_u64(b"mon:packets:g1").unwrap_or(0);
        assert_eq!(total, 40);
    }

    #[test]
    fn background_monitor_auto_recovers() {
        let o = Arc::new(parking_lot::Mutex::new(orch(3, 1)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handle = super::spawn_monitor(Arc::clone(&o), Arc::clone(&stop));

        // Traffic, then a failure the background loop must notice.
        for i in 0..20 {
            o.lock().chain.inject(pkt(i));
        }
        {
            let guard = o.lock();
            assert_eq!(
                guard
                    .chain
                    .egress()
                    .collect(20, Duration::from_secs(10))
                    .len(),
                20
            );
        }
        std::thread::sleep(Duration::from_millis(80));
        o.lock().chain.kill(1);

        // Wait for the loop to repair it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let guard = o.lock();
                if guard.chain.is_alive(1)
                    && guard.chain.replicas[1]
                        .state
                        .own_store
                        .peek_u64(b"mon:packets:g0")
                        == Some(20)
                {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "monitor loop failed to repair r1"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let recoveries = handle.join().unwrap();
        assert!(recoveries.iter().any(|(idx, _)| *idx == 1));
    }

    #[test]
    fn unrecoverable_when_all_sources_dead() {
        let mut o = orch(2, 1);
        o.chain.kill(0);
        o.chain.kill(1);
        let err = o.recover(0, RegionId(0)).unwrap_err();
        assert!(matches!(err, RecoveryError::NoSource { .. }));
    }
}

//! Three-step failure recovery (paper §5.2) and its timing report.
//!
//! [`Orchestrator::recover`] and the handovers of [`crate::reconfig`] are
//! one call each to [`ftc_core::replace::replace`], with the orchestrator
//! as its threaded driver: it sleeps the modeled spawn delay, fetches a
//! batch of groups in parallel over the control plane (restoring each as
//! it lands), and reroutes with [`FtcChain::respawn`].

use crate::detector::FailureDetector;
use bytes::Bytes;
use ftc_core::chain::{FtcChain, ReplicaSlot};
use ftc_core::config::ChainConfig;
use ftc_core::control::{state_entries, CtrlClient, CtrlReq, OutPort};
use ftc_core::journal::{EventKind, EventSource};
use ftc_core::probe::{ProbePoint, ProbeSlot, ProbeVerdict};
use ftc_core::replace::{
    answered_states, by_source, concurrently, replace, worth_threads, Driver, Land, Plan,
    RecoveryError, ReplaceReport, THREAD_MIN_ENTRIES,
};
use ftc_core::replica::ReplicaState;
use ftc_net::topology::RegionId;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// The part of `state_recovery` spent waiting for the members'
    /// answers, summed over retry rounds.
    pub fetch: Duration,
    /// The part of `state_recovery` spent restoring the answers into the
    /// replacement.
    pub restore: Duration,
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
    /// Step-granular hook for replacements: every recovery fetch attempt
    /// reports a [`ProbePoint::RecoveryFetch`] here, and every phase of a
    /// handover a [`ProbePoint::Reconfig`]; a `Crash` verdict fail-stops
    /// that participant at that exact point. Empty in production; tests
    /// install probes to exercise the rollback and roll-forward paths.
    pub probe: ProbeSlot,
    pub(crate) cfg: OrchestratorConfig,
    detector: FailureDetector,
    /// The thread freeing the slots of the last replacement whose slots
    /// were large enough for one; joined before the next such thread
    /// starts, and on drop.
    freeing: Option<JoinHandle<()>>,
}

impl Orchestrator {
    /// Takes over management of a deployed chain.
    pub fn new(chain: FtcChain, cfg: OrchestratorConfig) -> Orchestrator {
        let n = chain.len();
        let detector = FailureDetector::new(n, cfg.miss_threshold, cfg.heartbeat_timeout);
        Orchestrator {
            chain,
            probe: ProbeSlot::new(),
            cfg,
            detector,
            freeing: None,
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
        // procedures before updating routing rules." This loop does not
        // wait: it recovers one position completely — spawn, fetch,
        // reroute, resume — before it starts the next.
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
        let r = self.replace(idx, region, Plan::Recover)?;
        Ok(RecoveryReport {
            initialization: r.prepare,
            state_recovery: r.transfer,
            fetch: r.fetch,
            restore: r.restore,
            rerouting: r.switch + r.release,
            bytes_transferred: r.bytes_transferred,
        })
    }

    /// Runs [`replace`] for the instance at `idx`, with its replacement on
    /// a server in `region`.
    pub(crate) fn replace(
        &mut self,
        idx: usize,
        region: RegionId,
        plan: Plan,
    ) -> Result<ReplaceReport, RecoveryError> {
        let mut threaded = Threaded {
            orch: self,
            region,
            replaced: Vec::new(),
        };
        let report = replace(&mut threaded, idx, plan);
        // The replaced slots hold the dead instance's stores, an allocation
        // per key and value: milliseconds to free on a first kill. Stores
        // that large are freed on a thread of their own, so the outage does
        // not wait for it; small ones are dropped here.
        let replaced = std::mem::take(&mut threaded.replaced);
        let entries: usize = replaced
            .iter()
            .map(|slot| {
                let state = &slot.state;
                state.own_store.len()
                    + state
                        .replicated
                        .values()
                        .map(|g| g.store.len())
                        .sum::<usize>()
            })
            .sum();
        if entries >= THREAD_MIN_ENTRIES {
            // The previous free ended long ago unless replacements follow
            // each other within milliseconds.
            if let Some(previous) = self.freeing.take() {
                previous.join().expect("freeing a replaced slot");
            }
            // Should the spawn fail, the closure is dropped with the slots.
            self.freeing = std::thread::Builder::new()
                .name("ftc-free-slot".into())
                .spawn(move || drop(replaced))
                .ok();
        }
        report
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

impl Drop for Orchestrator {
    fn drop(&mut self) {
        // A panic there has already been reported on that thread.
        if let Some(freeing) = self.freeing.take() {
            let _ = freeing.join();
        }
    }
}

/// The orchestrator as the threaded [`Driver`] of one replacement, whose
/// new server lands in `region`.
struct Threaded<'a> {
    orch: &'a mut Orchestrator,
    region: RegionId,
    /// Slots `install` replaced, kept until the replacement is over.
    replaced: Vec<ReplicaSlot>,
}

impl Driver for Threaded<'_> {
    fn spawn(&mut self, idx: usize, workers: Option<usize>) -> Arc<ReplicaState> {
        let chain = &self.orch.chain;
        // Spawn a new middlebox instance + replica on a server in `region`
        // and inform it about the replication groups of the position: an
        // orchestrator↔region round trip plus process start (a modeled
        // delay, not a poll).
        // forbidden-ok: thread-sleep
        std::thread::sleep(
            chain
                .topology
                .rtt(self.orch.cfg.region, self.region)
                .saturating_add(self.orch.cfg.spawn_cost),
        );
        let current = &chain.replicas[idx].state.cfg;
        let cfg = match workers {
            Some(workers) => Arc::new(ChainConfig {
                workers,
                ..(**current).clone()
            }),
            None => Arc::clone(current),
        };
        let mbox = cfg.effective_middleboxes()[idx].build();
        ReplicaState::new(
            idx,
            cfg,
            mbox,
            Arc::new(OutPort::empty()),
            Arc::clone(&chain.metrics),
        )
    }

    fn fetch(&mut self, reqs: &[(usize, usize)], land: &Land<'_>) {
        // WAN RTT to the source region dominates; sources quiesce while
        // serving (§4.1).
        let sources = by_source(reqs)
            .into_iter()
            .map(|(src, idxs)| (self.orch.delayed_client(src, self.region), idxs))
            .collect();
        fetch_states(reqs, sources, self.orch.cfg.fetch_timeout, land)
    }

    fn kill(&mut self, idx: usize) {
        self.orch.chain.kill(idx);
    }

    fn install(&mut self, idx: usize, dest: Arc<ReplicaState>) {
        // The SDN rule update; the paper observes negligible delay here.
        let old = self.orch.chain.respawn(idx, self.region, dest);
        self.replaced.push(old);
    }

    fn resume(&mut self, positions: &[usize]) {
        let chain = &self.orch.chain;
        for &p in positions.iter().filter(|&&p| chain.is_alive(p)) {
            let _ = chain.replicas[p]
                .ctrl
                .call(CtrlReq::Resume, self.orch.cfg.fetch_timeout);
        }
    }

    fn probe(&mut self, point: ProbePoint) -> ProbeVerdict {
        self.orch.probe.observe(point)
    }

    fn journal(&mut self, kind: EventKind) {
        self.orch
            .chain
            .metrics
            .journal
            .record(EventSource::Orchestrator, kind);
    }
}

/// Sends one [`CtrlReq::FetchState`] per source, naming the groups of
/// the batch `reqs` at `idxs`, and lands each group's state: `None` where
/// there is no client, the call fails, or the answer is not a state. "The
/// control module spawns a thread to fetch state per each replication
/// group" (§6): distinct sources are asked [`concurrently`], and the
/// groups of one answer land concurrently when [`worth_threads`] says
/// they carry enough entries.
pub(crate) fn fetch_states(
    reqs: &[(usize, usize)],
    sources: Vec<(Option<CtrlClient>, Vec<usize>)>,
    timeout: Duration,
    land: &Land<'_>,
) {
    concurrently(sources, true, |(client, idxs)| {
        let answer = client.and_then(|c| {
            let mboxes = idxs.iter().map(|&i| reqs[i].1).collect();
            c.call(CtrlReq::FetchState { mboxes }, timeout).ok()
        });
        let states = answered_states(answer, idxs.len());
        let threads = worth_threads(states.iter().flatten().map(|s| state_entries(s)));
        concurrently(
            idxs.into_iter().zip(states).collect(),
            threads,
            |(i, state)| {
                // Groups cut from one frame share its reference count, and
                // concurrent restores would bounce it between cores once per
                // key and value: each group gets a buffer of its own.
                let state = if threads {
                    state.map(|s| Bytes::copy_from_slice(&s))
                } else {
                    state
                };
                land(i, state)
            },
        );
    });
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
    use ftc_core::probe::ProtocolProbe;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicBool, Ordering};
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
    fn both_groups_of_a_nat_position_land_in_parallel_content_equal() {
        // MazuNAT x2 (Table 2), f = 1: each position's two groups come from
        // the other server in one request and are restored concurrently.
        let specs = vec![
            MbSpec::MazuNat {
                external_ip: Ipv4Addr::new(203, 0, 113, 1),
            };
            2
        ];
        let chain = FtcChain::deploy(ChainConfig::new(specs).with_f(1));
        let mut o = Orchestrator::new(chain, OrchestratorConfig::default());
        let flows = 1200u16;
        for i in 0..flows {
            o.chain.inject(pkt(i));
        }
        let got = o
            .chain
            .egress()
            .collect(flows as usize, Duration::from_secs(30));
        assert_eq!(got.len(), flows as usize);
        std::thread::sleep(Duration::from_millis(50)); // let the ring commit
        for idx in [0usize, 1] {
            let src = &o.chain.replicas[1 - idx].state;
            // What a group-by-group transfer moves: the source's copy of
            // the victim's own store, and the source's own store for the
            // group the victim replicates.
            let own = src.replicated[&idx].store.snapshot();
            let other = src.own_store.snapshot();
            // Both groups are large enough to move on threads of their own.
            for group in [&own, &other] {
                let entries = group.maps.iter().map(Vec::len).sum::<usize>();
                assert!(entries >= flows as usize && entries >= THREAD_MIN_ENTRIES);
            }
            let serial_bytes = own.byte_size() + other.byte_size();
            o.chain.kill(idx);
            let report = o.recover(idx, RegionId(0)).expect("recovery");
            assert_eq!(report.bytes_transferred, serial_bytes, "r{idx}");
            let new = &o.chain.replicas[idx].state;
            assert_eq!(new.own_store.snapshot(), own, "r{idx}'s own group");
            assert_eq!(
                new.replicated[&(1 - idx)].store.snapshot(),
                other,
                "r{idx}'s copy of m{}",
                1 - idx
            );
        }
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

        let report = o.scale_instance(1, 2).expect("rescale");
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
        o.scale_instance(0, 1).expect("scale down");
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

    /// Crashes the replacement at its first recovery fetch, once.
    struct CrashFirstFetch(AtomicBool);

    impl ProtocolProbe for CrashFirstFetch {
        fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
            match point {
                ProbePoint::RecoveryFetch { .. } if !self.0.swap(true, Ordering::SeqCst) => {
                    ProbeVerdict::Crash
                }
                _ => ProbeVerdict::Continue,
            }
        }
    }

    #[test]
    fn threaded_recovery_honours_the_recovery_fetch_probe() {
        let mut o = orch(3, 1);
        for i in 0..20 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(20, Duration::from_secs(10)).len(),
            20
        );
        std::thread::sleep(Duration::from_millis(80)); // let the ring commit

        o.chain.kill(1);
        o.probe
            .install(Arc::new(CrashFirstFetch(AtomicBool::new(false))));
        let err = o.recover(1, RegionId(0)).unwrap_err();
        assert!(matches!(err, RecoveryError::Aborted { .. }), "{err:?}");
        assert!(!o.chain.is_alive(1), "the position stays dead");
        for i in [0, 2] {
            assert!(!o.chain.replicas[i].state.is_paused(), "r{i} left paused");
        }

        o.recover(1, RegionId(0)).expect("the retry recovers");
        o.probe.clear();
        let counter = |o: &Orchestrator| {
            o.chain.replicas[1]
                .state
                .own_store
                .peek_u64(b"mon:packets:g0")
        };
        assert_eq!(counter(&o), Some(20), "counters intact");
        for i in 20..30 {
            o.chain.inject(pkt(i));
        }
        assert_eq!(
            o.chain.egress().collect(10, Duration::from_secs(10)).len(),
            10
        );
        assert_eq!(counter(&o), Some(30));
    }
}

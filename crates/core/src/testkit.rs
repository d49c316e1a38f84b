//! A deterministic, single-threaded chain harness for protocol testing.
//!
//! The production runtime ([`crate::chain::FtcChain`]) runs replicas on
//! real threads, which makes interleavings uncontrollable. [`SyncChain`]
//! wires the *same* protocol state objects ([`crate::replica::ReplicaState`],
//! [`crate::forwarder::ForwarderState`], [`crate::buffer::BufferState`])
//! with synchronous stepping instead of threads, so property-based tests
//! can drive arbitrary schedules — "step replica 2, then the buffer, then
//! replica 0 twice…" — and check protocol invariants under every explored
//! interleaving, deterministically.
//!
//! Replacements run the shipped procedure: [`SyncChain`] is a
//! [`Driver`] of [`crate::replace::replace`], exactly as the threaded
//! orchestrator is, so recovery, migrate and scale here are the code the
//! threaded chain runs, stepped. Its sources pause and resume as
//! threaded ones do, through the control handler
//! ([`ReplicaState::serve_ctrl`]) the control thread runs.
//!
//! [`ScenarioChain`] is what one failure scenario body runs against:
//! inject, settle, kill + recover, migrate, scale. [`SyncChain`] and the
//! orchestrator in `ftc-orch` both implement it, so a scenario runs
//! verbatim on the stepped and the threaded chain.

use crate::buffer::BufferState;
use crate::chain::Egress;
use crate::config::ChainConfig;
use crate::control::{CtrlReq, CtrlResp, InPort, OutPort};
use crate::forwarder::ForwarderState;
use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeVerdict, ProtocolProbe};
use crate::replace::{replace, Driver, Fetched, Plan, RecoveryError, ReplaceReport};
use crate::replica::ReplicaState;
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver};
use ftc_net::nic::Nic;
use ftc_net::topology::RegionId;
use ftc_net::{reliable_pair, Endpoint};
use ftc_packet::Packet;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Components that can be stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Move frames from replica `i`'s in-port through its NIC and process
    /// one queued frame.
    Replica(usize),
    /// Deliver pending feedback to the forwarder.
    ForwarderFeedback,
    /// Fire the forwarder's idle timer (propagating packet).
    ForwarderTimer,
    /// Process one frame at the buffer.
    Buffer,
    /// Fire the buffer's resend timer.
    BufferTimer,
}

/// A synchronous, deterministic FTC chain.
pub struct SyncChain {
    /// The chain's replicas (single worker each).
    pub replicas: Vec<Arc<ReplicaState>>,
    /// Chain-wide metrics (shared with the components).
    pub metrics: Arc<ChainMetrics>,
    forwarder: Arc<ForwarderState>,
    buffer: Arc<BufferState>,
    nics: Vec<Arc<Nic>>,
    worker_queues: Vec<Receiver<BytesMut>>,
    in_ports: Vec<Arc<InPort>>,
    buffer_in: Arc<InPort>,
    feedback_in: Arc<InPort>,
    egress: Receiver<Packet>,
    /// Fail-stopped replicas: stepping them is a no-op until recovered.
    dead: Vec<AtomicBool>,
    /// Outgoing instances a switch left running. The correct procedure
    /// kills every outgoing instance, so only the sabotage fixture fills
    /// this; they are kept so the I5 fold sees them serve.
    retired: Vec<Arc<ReplicaState>>,
    /// The replacement being built, until it is installed or dropped.
    incoming: Weak<ReplicaState>,
    /// The chain-wide probe, re-installed on replacement replicas.
    probe: parking_lot::Mutex<Option<Arc<dyn ProtocolProbe>>>,
    /// What [`Self::serving`] read at each replacement probe point since
    /// the last [`Self::take_samples`] (recorded while a probe is
    /// installed).
    samples: Vec<OwnerSample>,
}

impl SyncChain {
    /// Builds a synchronous chain for `cfg` (worker count forced to 1; all
    /// links ideal — loss/reorder schedules are expressed through `Step`
    /// ordering instead).
    pub fn new(cfg: ChainConfig) -> SyncChain {
        let cfg = cfg.with_workers(1).with_link(Endpoint::in_proc());
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let cfg = Arc::new(cfg);
        let specs = cfg.effective_middleboxes();
        let n = specs.len();
        let metrics = Arc::new(ChainMetrics::default());

        let mut in_ports: Vec<Arc<InPort>> = Vec::with_capacity(n);
        let mut out_ports: Vec<Arc<OutPort>> = Vec::with_capacity(n);
        in_ports.push(Arc::new(InPort::empty()));
        for _ in 0..n - 1 {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            out_ports.push(Arc::new(OutPort::wired(tx)));
            in_ports.push(Arc::new(InPort::wired(rx)));
        }
        let (tail_tx, buffer_rx) = reliable_pair(&Endpoint::in_proc());
        out_ports.push(Arc::new(OutPort::wired(tail_tx)));
        let buffer_in = Arc::new(InPort::wired(buffer_rx));
        let (fb_tx, fb_rx) = reliable_pair(&Endpoint::in_proc());
        let feedback_out = Arc::new(OutPort::wired(fb_tx));
        let feedback_in = Arc::new(InPort::wired(fb_rx));

        let (egress_tx, egress_rx) = channel::unbounded();
        let forwarder = ForwarderState::new(Arc::clone(&metrics));
        let buffer = BufferState::new(cfg.ring(), egress_tx, feedback_out, Arc::clone(&metrics));

        let mut replicas = Vec::with_capacity(n);
        let mut nics = Vec::with_capacity(n);
        let mut worker_queues = Vec::with_capacity(n);
        for (i, spec) in specs.iter().enumerate() {
            let state = ReplicaState::new(
                i,
                Arc::clone(&cfg),
                spec.build(),
                Arc::clone(&out_ports[i]),
                Arc::clone(&metrics),
            );
            let mut nic = Nic::new(1, cfg.nic_queue_depth);
            worker_queues.push(nic.take_queue(0));
            nics.push(Arc::new(nic));
            replicas.push(state);
        }

        SyncChain {
            replicas,
            metrics,
            forwarder,
            buffer,
            nics,
            worker_queues,
            in_ports,
            buffer_in,
            feedback_in,
            egress: egress_rx,
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            retired: Vec::new(),
            incoming: Weak::new(),
            probe: parking_lot::Mutex::new(None),
            samples: Vec::new(),
        }
    }

    /// Installs `probe` on every component (replicas, buffer, forwarder)
    /// and remembers it, for replacement replicas and for the points of
    /// the replacement procedure.
    pub fn install_probe(&self, probe: Arc<dyn ProtocolProbe>) {
        for r in &self.replicas {
            r.probe.install(Arc::clone(&probe));
        }
        self.buffer.probe.install(Arc::clone(&probe));
        self.forwarder.probe.install(Arc::clone(&probe));
        *self.probe.lock() = Some(probe);
    }

    /// The buffer (e.g. for `sabotage_early_release` in negative fixtures).
    pub fn buffer(&self) -> &Arc<BufferState> {
        &self.buffer
    }

    /// The forwarder.
    pub fn forwarder(&self) -> &Arc<ForwarderState> {
        &self.forwarder
    }

    /// True while replica `idx` is fail-stopped.
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead[idx].load(Ordering::Acquire)
    }

    /// Fail-stops replica `idx` without recovering it: queued frames die
    /// with it and stepping it is a no-op until a replacement is
    /// installed. Idempotent.
    pub fn mark_dead(&self, idx: usize) {
        self.dead[idx].store(true, Ordering::Release);
        while self.worker_queues[idx].try_recv().is_ok() {}
        while self.in_ports[idx].recv_timeout(Duration::ZERO).is_some() {}
    }

    /// Injects a packet at the forwarder (processed immediately into the
    /// first replica's NIC queue, like the ingress thread would).
    pub fn inject(&self, pkt: Packet) {
        self.forwarder
            .handle_ingress(pkt.into_bytes(), &self.nics[0]);
    }

    /// Executes one scheduling step. Returns true if any work happened.
    pub fn step(&self, step: Step) -> bool {
        match step {
            Step::Replica(i) => {
                let i = i % self.replicas.len();
                if self.is_dead(i) {
                    // Fail-stopped: frames headed here die with the server
                    // (the rewire on recovery discards the stale ports).
                    return false;
                }
                if self.replicas[i].is_paused() {
                    // Quiesced (a §4.1 source or a sealed handover source):
                    // frames back up in the in-port, like the threaded loop.
                    return false;
                }
                let mut progressed = false;
                // Link → NIC (one frame).
                if let Some(frame) = self.in_ports[i].recv_timeout(Duration::ZERO) {
                    self.nics[i].dispatch(frame);
                    progressed = true;
                }
                // NIC queue → protocol (one frame).
                if let Ok(frame) = self.worker_queues[i].try_recv() {
                    self.replicas[i].handle_frame(0, frame);
                    progressed = true;
                }
                progressed
            }
            Step::ForwarderFeedback => match self.feedback_in.recv_timeout(Duration::ZERO) {
                Some(frame) => {
                    self.forwarder.ingest_feedback(frame);
                    true
                }
                None => false,
            },
            Step::ForwarderTimer => self.forwarder.emit_propagating(&self.nics[0]),
            Step::Buffer => match self.buffer_in.recv_timeout(Duration::ZERO) {
                Some(frame) => {
                    self.buffer.handle_frame(frame);
                    true
                }
                None => false,
            },
            Step::BufferTimer => {
                self.buffer.tick();
                true
            }
        }
    }

    /// Round-robin steps everything until nothing progresses and all
    /// injected packets are accounted for, or `max_rounds` is exhausted.
    /// Timer steps fire once per idle round, mirroring the real timers.
    pub fn run_to_quiescence(&self, max_rounds: usize) {
        let n = self.replicas.len();
        for _ in 0..max_rounds {
            let mut progressed = false;
            for i in 0..n {
                while self.step(Step::Replica(i)) {
                    progressed = true;
                }
            }
            progressed |= self.step(Step::Buffer);
            while self.step(Step::Buffer) {}
            progressed |= self.step(Step::ForwarderFeedback);
            while self.step(Step::ForwarderFeedback) {}
            if !progressed {
                // Idle: fire the timers once; if that creates no new work
                // either, the chain is quiescent.
                self.step(Step::BufferTimer);
                let timer_work = self.step(Step::ForwarderTimer);
                let more = self.step(Step::Buffer) || self.step(Step::Replica(0));
                if !timer_work && !more {
                    return;
                }
            }
        }
    }

    /// Fail-stops replica `idx` and rebuilds it with
    /// [`crate::replace::replace`]. In-flight frames queued at the dead
    /// replica are discarded (fail-stop loses them); the wrapped-log resend
    /// path re-replicates whatever the buffer still owes.
    pub fn fail_and_recover(&mut self, idx: usize) {
        self.try_fail_and_recover(idx, &|_, _| true)
            .expect("sync recovery");
    }

    /// Fallible variant of [`Self::fail_and_recover`] for failure-schedule
    /// exploration: `source_ok(src, mbox)` gates each per-source fetch (a
    /// `false` models that source dying mid-fetch, forcing the §4.1
    /// fallback order), and an installed chain probe can crash the
    /// *recovering* replica at any [`RecoveryFetch`](crate::ProbePoint)
    /// point. On error the victim stays fail-stopped — nothing is rewired —
    /// and the call can simply be retried (a fresh replacement is built
    /// each attempt, exactly like the orchestrator respawning).
    pub fn try_fail_and_recover(
        &mut self,
        idx: usize,
        source_ok: &dyn Fn(usize, usize) -> bool,
    ) -> Result<ReplaceReport, RecoveryError> {
        self.mark_dead(idx);
        replace(&mut self.driver(source_ok), idx, Plan::Recover)
    }

    /// Migrates the instance at `idx` onto a fresh replica: the handover of
    /// [`crate::replace`]. The outgoing instance is sealed, the replacement
    /// restored from the group members, and the switch kills the outgoing
    /// instance and rewires the position, dropping the frames still queued
    /// at its successor. An installed probe can crash any participant at
    /// any [`Reconfig`](crate::ProbePoint::Reconfig) point; each failure
    /// leaves the chain in the defined state its
    /// [`ReconfigFailure`](crate::ReconfigFailure) documents.
    pub fn migrate_mbox(&mut self, idx: usize) -> Result<ReplaceReport, RecoveryError> {
        replace(&mut self.driver(&|_, _| true), idx, Plan::Migrate)
    }

    /// Scales the instance at `idx` through the same handover as
    /// [`Self::migrate_mbox`]. `SyncChain` pins every instance to one
    /// worker (determinism), so the replacement runs one worker too.
    pub fn scale_mbox(&mut self, idx: usize) -> Result<ReplaceReport, RecoveryError> {
        replace(
            &mut self.driver(&|_, _| true),
            idx,
            Plan::Scale { workers: 1 },
        )
    }

    /// This chain as the [`Driver`] of one replacement.
    fn driver<'a>(&'a mut self, source_ok: &'a dyn Fn(usize, usize) -> bool) -> Stepped<'a> {
        Stepped {
            chain: self,
            source_ok,
        }
    }

    /// Returns a handle to the chain's egress (same API as
    /// [`FtcChain::egress`](crate::FtcChain::egress)).
    pub fn egress(&self) -> Egress {
        Egress::new(self.egress.clone())
    }

    /// Packets currently withheld by the buffer.
    pub fn held(&self) -> usize {
        self.buffer.held_len()
    }

    /// Instances serving each position right now: alive and unpaused,
    /// counting the replacement being built and any outgoing instance a
    /// switch left running. The I5 fold wants at most one everywhere, and
    /// exactly one once a replacement is done.
    pub fn serving(&self) -> Vec<usize> {
        let mut serving = vec![0; self.replicas.len()];
        let mut count = |r: &ReplicaState| {
            if !r.is_paused() {
                serving[r.idx] += 1;
            }
        };
        for (i, r) in self.replicas.iter().enumerate() {
            if !self.is_dead(i) {
                count(r);
            }
        }
        if let Some(r) = self.incoming.upgrade() {
            count(&r);
        }
        self.retired.iter().for_each(|r| count(r));
        serving
    }

    /// The [`OwnerSample`]s recorded since the last call.
    pub fn take_samples(&mut self) -> Vec<OwnerSample> {
        std::mem::take(&mut self.samples)
    }
}

/// What [`SyncChain::serving`] read at one probe point of a replacement.
#[derive(Debug, Clone)]
pub struct OwnerSample {
    /// The probe point.
    pub point: ProbePoint,
    /// Serving instances per position.
    pub serving: Vec<usize>,
}

/// [`SyncChain`] as a [`Driver`]: sources serve through
/// [`ReplicaState::serve_ctrl`], a batch runs in request order, and
/// `source_ok` can refuse a source.
struct Stepped<'a> {
    chain: &'a mut SyncChain,
    source_ok: &'a dyn Fn(usize, usize) -> bool,
}

impl Driver for Stepped<'_> {
    fn spawn(&mut self, idx: usize, _workers: Option<usize>) -> Arc<ReplicaState> {
        let chain = &mut *self.chain;
        let cfg = Arc::clone(&chain.replicas[idx].cfg);
        let mbox = cfg.effective_middleboxes()[idx].build();
        let state = ReplicaState::new(
            idx,
            cfg,
            mbox,
            Arc::new(OutPort::empty()),
            Arc::clone(&chain.metrics),
        );
        if let Some(probe) = chain.probe.lock().as_ref() {
            state.probe.install(Arc::clone(probe));
        }
        chain.incoming = Arc::downgrade(&state);
        state
    }

    fn fetch(&mut self, reqs: &[(usize, usize)]) -> Vec<Option<Fetched>> {
        reqs.iter()
            .map(|&(src, mbox)| {
                if self.chain.is_dead(src) || !(self.source_ok)(src, mbox) {
                    return None;
                }
                match self.chain.replicas[src].serve_ctrl(CtrlReq::FetchState { mbox }) {
                    CtrlResp::State { snapshot, max } => Some((snapshot, max)),
                    _ => None,
                }
            })
            .collect()
    }

    fn kill(&mut self, idx: usize) {
        self.chain.mark_dead(idx);
    }

    fn install(&mut self, idx: usize, state: Arc<ReplicaState>) {
        // Rewire: predecessor → new replica → successor (or buffer). The
        // frames queued on the replaced links die with them.
        let chain = &mut *self.chain;
        let n = chain.replicas.len();
        let in_port = Arc::new(InPort::empty());
        if idx > 0 {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            in_port.install(rx);
            chain.replicas[idx - 1].out.install(tx);
        }
        let (tx, rx) = reliable_pair(&Endpoint::in_proc());
        state.out.install(tx);
        if idx < n - 1 {
            chain.in_ports[idx + 1].install(rx);
        } else {
            chain.buffer_in.install(rx);
        }
        let mut nic = Nic::new(1, state.cfg.nic_queue_depth);
        chain.worker_queues[idx] = nic.take_queue(0);
        chain.nics[idx] = Arc::new(nic);
        chain.in_ports[idx] = in_port;
        let outgoing = std::mem::replace(&mut chain.replicas[idx], state);
        if !chain.is_dead(idx) {
            chain.retired.push(outgoing);
        }
        chain.incoming = Weak::new();
        chain.dead[idx].store(false, Ordering::Release);
    }

    fn resume(&mut self, positions: &[usize]) {
        for &p in positions {
            self.chain.replicas[p].serve_ctrl(CtrlReq::Resume);
        }
    }

    fn probe(&mut self, point: ProbePoint) -> ProbeVerdict {
        let Some(probe) = self.chain.probe.lock().clone() else {
            return ProbeVerdict::Continue;
        };
        let serving = self.chain.serving();
        self.chain.samples.push(OwnerSample {
            point: point.clone(),
            serving,
        });
        probe.on_step(point)
    }

    fn journal(&mut self, kind: EventKind) {
        self.chain
            .metrics
            .journal
            .record(EventSource::Orchestrator, kind);
    }
}

/// Rounds a [`SyncChain`] settle may step before giving up.
const SETTLE_ROUNDS: usize = 10_000;

/// How long a threaded chain's egress must stay silent to count as
/// settled ([`CrashSchedule::run`] uses it).
pub const SETTLE_GRACE: Duration = Duration::from_millis(750);

/// The `i`-th packet of a scenario: one UDP flow per source port.
pub fn scenario_packet(i: u32) -> Packet {
    ftc_packet::builder::UdpPacketBuilder::new()
        .src(Ipv4Addr::new(10, 7, 0, 1), 1024 + (i % 4096) as u16)
        .dst(Ipv4Addr::new(10, 99, 0, 1), 443)
        .ident(i as u16)
        .build()
}

/// A chain one failure scenario runs against, verbatim: the stepped
/// [`SyncChain`] or the threaded orchestrator in `ftc-orch`. Both replace
/// instances through [`crate::replace::replace`].
pub trait ScenarioChain {
    /// Injects one packet at the ingress.
    fn inject(&mut self, pkt: Packet);

    /// Lets the chain go quiet — stepped to quiescence, or on threads no
    /// release for `grace` — and returns the packets released meanwhile.
    fn settle(&mut self, grace: Duration) -> usize;

    /// Fail-stops every victim, then recovers each in order, placing the
    /// replacements in `region` (the stepped chain has one region).
    fn kill_and_recover(
        &mut self,
        victims: &[usize],
        region: RegionId,
    ) -> Result<Vec<ReplaceReport>, RecoveryError>;

    /// Migrates the instance at `idx` onto a fresh server in `region`.
    fn migrate(&mut self, idx: usize, region: RegionId) -> Result<ReplaceReport, RecoveryError>;

    /// Replaces the instance at `idx` with one running `workers` workers
    /// (the stepped chain keeps one).
    fn scale(&mut self, idx: usize, workers: usize) -> Result<ReplaceReport, RecoveryError>;

    /// The instance currently at `idx`.
    fn replica(&self, idx: usize) -> &ReplicaState;

    /// Packets the Monitor at `idx` counted, over all its worker groups.
    fn counted(&self, idx: usize) -> u64 {
        let r = self.replica(idx);
        (0..r.cfg.workers)
            .filter_map(|w| r.own_store.peek_u64(format!("mon:packets:g{w}").as_bytes()))
            .sum()
    }
}

impl ScenarioChain for SyncChain {
    fn inject(&mut self, pkt: Packet) {
        SyncChain::inject(self, pkt);
    }

    fn settle(&mut self, _grace: Duration) -> usize {
        self.run_to_quiescence(SETTLE_ROUNDS);
        self.egress().drain().len()
    }

    fn kill_and_recover(
        &mut self,
        victims: &[usize],
        _region: RegionId,
    ) -> Result<Vec<ReplaceReport>, RecoveryError> {
        for &v in victims {
            self.mark_dead(v);
        }
        victims
            .iter()
            .map(|&v| self.try_fail_and_recover(v, &|_, _| true))
            .collect()
    }

    fn migrate(&mut self, idx: usize, _region: RegionId) -> Result<ReplaceReport, RecoveryError> {
        self.migrate_mbox(idx)
    }

    fn scale(&mut self, idx: usize, _workers: usize) -> Result<ReplaceReport, RecoveryError> {
        self.scale_mbox(idx)
    }

    fn replica(&self, idx: usize) -> &ReplicaState {
        &self.replicas[idx]
    }
}

/// Release counts and recovery reports observed by [`CrashSchedule::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Packets released by the warm-up workload, before any crash.
    pub released_before: usize,
    /// Packets released by the post-crash workload (traffic resumed).
    pub released_after: usize,
    /// One report per kill, in order.
    pub reports: Vec<ReplaceReport>,
}

/// The "warm up → kill server(s) → assert traffic resumes" skeleton of
/// `tests/failover.rs`, run on any [`ScenarioChain`].
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    warm: usize,
    kills: Vec<usize>,
    post: usize,
    label: String,
}

impl CrashSchedule {
    /// Empty schedule (no traffic, no crashes).
    pub fn new() -> CrashSchedule {
        CrashSchedule::default()
    }

    /// Injects `n` packets and settles before the first crash.
    pub fn warm(mut self, n: usize) -> CrashSchedule {
        self.warm = n;
        self
    }

    /// Adds a kill of `victim` between packets, recovered at once.
    pub fn kill(mut self, victim: usize) -> CrashSchedule {
        self.kills.push(victim);
        self
    }

    /// Injects `n` packets after the crashes (the "traffic resumes" leg).
    pub fn post(mut self, n: usize) -> CrashSchedule {
        self.post = n;
        self
    }

    /// Names the schedule (test diagnostics).
    pub fn label(mut self, label: impl Into<String>) -> CrashSchedule {
        self.label = label.into();
        self
    }

    /// Runs the schedule: warm up, settle, kill and recover each victim in
    /// order (into region 0), inject the post workload, settle again.
    /// Panics, naming the schedule, if a recovery fails.
    pub fn run(&self, chain: &mut dyn ScenarioChain) -> CrashOutcome {
        let traffic = |chain: &mut dyn ScenarioChain, range: std::ops::Range<usize>| {
            for i in range {
                chain.inject(scenario_packet(i as u32));
            }
            chain.settle(SETTLE_GRACE)
        };
        let released_before = traffic(chain, 0..self.warm);
        let reports = self
            .kills
            .iter()
            .map(|&v| match chain.kill_and_recover(&[v], RegionId(0)) {
                Ok(mut r) => r.remove(0),
                Err(e) => panic!("{}: recovery of r{v} failed: {e}", self.label),
            })
            .collect();
        let released_after = traffic(chain, self.warm..self.warm + self.post);
        CrashOutcome {
            released_before,
            released_after,
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;

    fn pkt(i: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 2, 0, 1), 1000 + i)
            .dst(Ipv4Addr::new(10, 3, 0, 1), 80)
            .ident(i)
            .build()
    }

    #[test]
    fn sync_chain_releases_everything_round_robin() {
        let chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        let got = chain.egress().drain();
        assert_eq!(got.len(), 10);
        assert_eq!(chain.held(), 0);
        for r in &chain.replicas {
            assert_eq!(r.own_store.peek_u64(b"mon:packets:g0"), Some(10));
        }
        // Full ring replication at quiescence.
        for i in 0..3 {
            let succ = (i + 1) % 3;
            assert_eq!(
                chain.replicas[succ].replicated[&i]
                    .store
                    .peek_u64(b"mon:packets:g0"),
                Some(10)
            );
        }
    }

    #[test]
    fn adversarial_schedule_starving_one_replica_still_converges() {
        let chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        // Step only replica 0 for a while (1 and 2 starve)…
        for _ in 0..50 {
            chain.step(Step::Replica(0));
        }
        assert!(chain.egress().drain().is_empty(), "nothing can release yet");
        // …then let everything run.
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5);
    }

    #[test]
    fn crash_schedule_runs_quiesced_kill_on_sync_chain() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        let outcome = CrashSchedule::new()
            .label("kill r1 quiesced")
            .warm(20)
            .kill(1)
            .post(10)
            .run(&mut chain);
        assert_eq!(outcome.released_before, 20);
        assert_eq!(outcome.released_after, 10);
        assert!(outcome.reports[0].bytes_transferred > 0);
        for i in 0..3 {
            assert_eq!(chain.counted(i), 30);
        }
    }

    #[test]
    fn failed_recovery_leaves_victim_dead_and_retry_succeeds() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5);
        // First attempt: every source refuses (simulated mid-fetch deaths).
        let err = chain.try_fail_and_recover(1, &|_, _| false).unwrap_err();
        assert!(matches!(err, RecoveryError::NoSource { .. }));
        assert!(chain.is_dead(1), "failed recovery leaves the victim dead");
        assert!(!chain.step(Step::Replica(1)), "dead replicas do not step");
        // Retry with sources back: a fresh replacement is built and rewired.
        chain.try_fail_and_recover(1, &|_, _| true).unwrap();
        assert!(!chain.is_dead(1));
        assert_eq!(chain.serving(), [1, 1, 1], "every source resumed");
        for i in 5..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5, "traffic resumed");
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(10)
        );
    }

    #[test]
    fn clean_migrate_preserves_committed_prefix_and_traffic() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 10);
        let outgoing = Arc::clone(&chain.replicas[1]);
        let report = chain.migrate_mbox(1).expect("clean handover succeeds");
        assert!(report.bytes_transferred > 0);
        assert!(
            !Arc::ptr_eq(&outgoing, &chain.replicas[1]),
            "a new instance"
        );
        // I6: the new owner holds exactly its successor's copy.
        let copy = &chain.replicas[2].replicated[&1];
        assert_eq!(chain.replicas[1].own_store.seq_vector(), copy.max.vector());
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(10)
        );
        assert_eq!(chain.serving(), [1, 1, 1]);
        // The new instance serves: traffic flows and state continues.
        for i in 10..20 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 10);
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(20)
        );
    }

    #[test]
    fn a_migrate_with_packets_in_flight_takes_the_successors_copy() {
        // Packets stepped through r0 and r1 only: r1's own store is two
        // commits ahead of r2's copy. The handover installs r2's copy and
        // drops the two packets; everything injected afterwards egresses.
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..3 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 3);
        for i in 3..5 {
            chain.inject(pkt(i));
        }
        while chain.step(Step::Replica(0)) | chain.step(Step::Replica(1)) {}
        let peek = |chain: &SyncChain| chain.replicas[1].own_store.peek_u64(b"mon:packets:g0");
        assert_eq!(peek(&chain), Some(5));
        chain
            .migrate_mbox(1)
            .expect("handover with packets in flight");
        assert_eq!(
            peek(&chain),
            Some(3),
            "the successor's copy, not the source"
        );
        assert_eq!(
            chain.replicas[1].own_store.seq_vector(),
            chain.replicas[2].replicated[&1].max.vector()
        );
        for i in 5..9 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        let idents: Vec<u16> = chain
            .egress()
            .drain()
            .iter()
            .map(|p| p.ipv4().unwrap().ident())
            .collect();
        assert_eq!(
            idents,
            [5, 6, 7, 8],
            "the in-flight pair is lost, nothing else"
        );
        assert_eq!(chain.held(), 0);
        assert_eq!(peek(&chain), Some(7));
    }

    #[test]
    fn handover_samples_never_show_two_serving_instances() {
        struct Quiet;
        impl ProtocolProbe for Quiet {
            fn on_step(&self, _: ProbePoint) -> ProbeVerdict {
                ProbeVerdict::Continue
            }
        }
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        chain.install_probe(Arc::new(Quiet));
        chain.migrate_mbox(0).unwrap();
        let samples = chain.take_samples();
        // 9 handover points plus one recovery-fetch point per group.
        assert_eq!(samples.len(), 11);
        for s in &samples {
            assert!(s.serving.iter().all(|&n| n <= 1), "{s:?}");
        }
        assert!(chain.take_samples().is_empty());
        assert_eq!(chain.serving(), [1, 1, 1]);
    }

    #[test]
    fn f0_chain_needs_no_feedback() {
        let chain = SyncChain::new(
            ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }; 2]).with_f(0),
        );
        chain.inject(pkt(1));
        chain.run_to_quiescence(100);
        assert_eq!(chain.egress().drain().len(), 1);
        assert_eq!(
            chain
                .metrics
                .logs_applied
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
}

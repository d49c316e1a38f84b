//! The threaded run: one driver thread loads a deployed `FtcChain`
//! through a closed-loop phase, an open-loop phase and a series of
//! fail-stop/recover cycles, checking every released packet.
//!
//! Tracing is never on here: the end-to-end metrics come from this module
//! alone.

use crate::gen::{packet_id, Generator, PROBE_BASE};
use crate::procfs::{cpu_ticks, process_cpu_ns, rss_mb, steal_pct, thread_cpu_ns};
use crate::stats::percentile_sorted;
use crate::{Plan, WorkloadSpec};
use ftc::core::metrics::MetricsSnapshot;
use ftc::mbox::MbSpec;
use ftc::net::topology::RegionId;
use ftc::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The Monitor's shared packet counter at `workers = 1`.
const MONITOR_KEY: &[u8] = b"mon:packets:g0";

/// Packets the set-up warm keeps in flight: first packets of a flow write
/// state, and an unpaced burst of them overruns the ingress NIC queue.
const WARM_INFLIGHT: u64 = 128;

/// How long a drain may take before what is still missing is written off
/// as failed.
const DRAIN_BUDGET: Duration = Duration::from_secs(3);

/// One closed-loop window.
#[derive(Debug, Clone, Copy)]
pub struct ClosedWindow {
    /// Packets released per second of the window.
    pub pps: f64,
    /// CPU seconds used per wall second, driver included.
    pub cores_busy: f64,
    /// Resident set size when the window closed.
    pub rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor took away.
    pub steal_pct: f64,
    /// The hypervisor took more than [`Plan::steal_limit_pct`]: the
    /// window measured the neighbours, and the medians leave it out.
    pub disturbed: bool,
}

/// One open-loop window. Latency is timed from the instant a packet was
/// *due*, so a stalled generator or chain charges the wait to the packets
/// behind the stall.
#[derive(Debug, Clone, Copy)]
pub struct OpenWindow {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// 90th and 99th percentile of how late the generator injected.
    pub late_p90_us: f64,
    pub late_p99_us: f64,
    /// Packets injected and not yet released when the window closed.
    pub backlog: u64,
    /// Chain CPU (process minus driver thread) per packet released.
    pub cpu_us_per_pkt: f64,
    /// Resident set size when the window closed.
    pub rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor took away.
    pub steal_pct: f64,
    /// CPU stolen, generator too late, backlog too deep or load shed: the
    /// window's latency is not the chain's, and the medians leave it out.
    pub disturbed: bool,
}

/// One fail-stop/recover cycle.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub victim: usize,
    /// Kill → first packet released that was injected after `recover`
    /// returned.
    pub recovery_ms: f64,
    pub init_ms: f64,
    pub state_ms: f64,
    pub reroute_ms: f64,
    pub bytes: usize,
}

/// Hooks into [`Driver::paced`].
trait PacedObserver {
    /// A packet due at `due_ns` was injected at `at_ns` (both since the
    /// start of the paced run).
    fn injected(&mut self, _due_ns: u64, _at_ns: u64) {}
    /// A packet due at `due_ns` was released at `at_ns`. Returning true
    /// ends the run.
    fn released(&mut self, _due_ns: u64, _at_ns: u64) -> bool {
        false
    }
    /// The run crossed boundary `idx`.
    fn boundary(&mut self, _idx: usize, _released: u64, _outstanding: u64) {}
    /// The generator stopped from `from_ns` to `to_ns` to let a backlog
    /// drain.
    fn shed(&mut self, _from_ns: u64, _to_ns: u64) {}
}

struct Quiet;
impl PacedObserver for Quiet {}

/// Stops at the first release and remembers when it happened.
struct FirstRelease(Option<Instant>);
impl PacedObserver for FirstRelease {
    fn released(&mut self, _due_ns: u64, _at_ns: u64) -> bool {
        self.0 = Some(Instant::now());
        true
    }
}

struct Mark {
    ticks: (u64, u64),
    rss_mb: f64,
    chain_cpu_ns: u64,
    released: u64,
    outstanding: u64,
}

struct OpenLoopObserver {
    discard_ns: u64,
    window_ns: u64,
    latency: Vec<Vec<u64>>,
    lateness: Vec<Vec<u64>>,
    marks: Vec<Mark>,
    /// Windows during which the generator shed load.
    shed: Vec<bool>,
}

impl OpenLoopObserver {
    fn window_of(&self, due_ns: u64) -> Option<usize> {
        let w = (due_ns.checked_sub(self.discard_ns)? / self.window_ns) as usize;
        (w < self.latency.len()).then_some(w)
    }
}

impl PacedObserver for OpenLoopObserver {
    fn injected(&mut self, due_ns: u64, at_ns: u64) {
        if let Some(w) = self.window_of(due_ns) {
            self.lateness[w].push(at_ns.saturating_sub(due_ns));
        }
    }

    fn released(&mut self, due_ns: u64, at_ns: u64) -> bool {
        if let Some(w) = self.window_of(due_ns) {
            self.latency[w].push(at_ns.saturating_sub(due_ns));
        }
        false
    }

    fn boundary(&mut self, _idx: usize, released: u64, outstanding: u64) {
        self.marks.push(Mark {
            ticks: cpu_ticks(),
            rss_mb: rss_mb(),
            chain_cpu_ns: process_cpu_ns().saturating_sub(thread_cpu_ns()),
            released,
            outstanding,
        });
    }

    fn shed(&mut self, from_ns: u64, to_ns: u64) {
        for w in 0..self.shed.len() as u64 {
            let (lo, hi) = (
                self.discard_ns + w * self.window_ns,
                self.discard_ns + (w + 1) * self.window_ns,
            );
            if from_ns < hi && to_ns >= lo {
                self.shed[w as usize] = true;
            }
        }
    }
}

/// A deployed chain plus the driver's bookkeeping for it.
pub struct Driver {
    gen: Generator,
    orch: Orchestrator,
    egress: Egress,
    /// Source address every released packet must carry (the last NAT's
    /// external address), if the chain translates.
    nat_src: Option<[u8; 4]>,
    /// Positions holding a Monitor.
    monitors: Vec<usize>,
    next_id: u64,
    next_probe: u64,
    /// Packets injected into a healthy chain: each must come back.
    pub attempted: u64,
    /// Attempted packets released.
    pub released: u64,
    /// Attempted packets written off after a bounded drain.
    pub failed: u64,
    /// Packets injected while a server was dead …
    pub probes_sent: u64,
    /// … and the ones that were released all the same.
    pub probes_released: u64,
    /// Failed output checks by reason.
    pub errors: BTreeMap<String, u64>,
}

impl Driver {
    /// One set-up: build the generator, deploy the chain under the fixed
    /// conditions, hand it to an orchestrator, and push one packet per
    /// flow through it so every per-flow state exists. Returns the driver
    /// and how long that took.
    pub fn deploy(spec: &WorkloadSpec, seed: u64) -> (Driver, Duration) {
        let t0 = Instant::now();
        let gen = Generator::new(seed, spec.flows, spec.frame_len);
        let chain = FtcChain::deploy(spec.chain_config());
        let egress = chain.egress();
        let specs = chain.cfg.effective_middleboxes();
        let nat_src = specs.iter().rev().find_map(|s| match s {
            MbSpec::MazuNat { external_ip } | MbSpec::SimpleNat { external_ip } => {
                Some(external_ip.octets())
            }
            _ => None,
        });
        let monitors = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, MbSpec::Monitor { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut d = Driver {
            gen,
            orch: Orchestrator::new(chain, OrchestratorConfig::default()),
            egress,
            nat_src,
            monitors,
            next_id: 0,
            next_probe: PROBE_BASE,
            attempted: 0,
            released: 0,
            failed: 0,
            probes_sent: 0,
            probes_released: 0,
            errors: BTreeMap::new(),
        };
        d.closed_burst(d.gen.flows() as u64, WARM_INFLIGHT);
        d.drain("set-up warm");
        (d, t0.elapsed())
    }

    /// The chain's public metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.orch.chain.metrics.snapshot()
    }

    fn error(&mut self, reason: impl Into<String>) {
        *self.errors.entry(reason.into()).or_insert(0) += 1;
    }

    fn outstanding(&self) -> u64 {
        self.attempted - self.released - self.failed
    }

    fn inject(&mut self) {
        self.orch.chain.inject(self.gen.packet(self.next_id));
        self.next_id += 1;
        self.attempted += 1;
    }

    /// Checks one released packet and books it. Returns its id when it is
    /// an attempted (non-probe) packet.
    fn on_release(&mut self, pkt: &Packet) -> Option<u64> {
        if pkt.has_piggyback() {
            self.error("released packet carries a piggyback trailer");
        }
        let Some(id) = packet_id(pkt) else {
            self.error("released packet carries no readable id");
            return None;
        };
        if id >= PROBE_BASE {
            self.probes_released += 1;
            return None;
        }
        if let Some(want) = self.nat_src {
            if pkt.ipv4().map(|v| v.src().octets()).ok() != Some(want) {
                self.error("released packet does not carry the last NAT's external source");
            }
        }
        if id >= self.next_id || self.outstanding() == 0 {
            self.error("released a packet that is not outstanding");
            return None;
        }
        self.released += 1;
        Some(id)
    }

    /// Waits (bounded) until everything attempted is back; what is not is
    /// written off as failed under `phase`'s name.
    fn drain(&mut self, phase: &str) {
        let deadline = Instant::now() + DRAIN_BUDGET;
        while self.outstanding() > 0 && Instant::now() < deadline {
            if let Some(p) = self.egress.recv(Duration::from_millis(5)) {
                self.on_release(&p);
            }
        }
        let missing = self.outstanding();
        if missing > 0 {
            self.failed += missing;
            self.error(format!("{phase}: packets injected but never released"));
        }
    }

    /// Closed loop: keep `inflight` packets in the chain, count releases
    /// per window. The first `discard` is run and thrown away.
    pub fn closed_loop(&mut self, plan: &Plan) -> Vec<ClosedWindow> {
        self.closed_window(plan, plan.discard);
        let out = (0..plan.windows)
            .map(|_| self.closed_window(plan, plan.window))
            .collect();
        self.drain("closed loop");
        out
    }

    /// Sends `count` packets, never more than `inflight` of them inside
    /// the chain at once.
    fn closed_burst(&mut self, count: u64, inflight: u64) {
        let deadline = Instant::now() + DRAIN_BUDGET;
        let mut sent = 0;
        while sent < count && Instant::now() < deadline {
            while sent < count && self.outstanding() < inflight {
                self.inject();
                sent += 1;
            }
            if let Some(p) = self.egress.recv(Duration::from_millis(1)) {
                self.on_release(&p);
            }
        }
    }

    fn closed_window(&mut self, plan: &Plan, len: Duration) -> ClosedWindow {
        let cpu0 = process_cpu_ns();
        let ticks0 = cpu_ticks();
        let released0 = self.released;
        let start = Instant::now();
        while start.elapsed() < len {
            while self.outstanding() < plan.inflight {
                self.inject();
            }
            let mut next = self.egress.recv(Duration::from_micros(200));
            while let Some(p) = next {
                self.on_release(&p);
                next = self.egress.recv(Duration::ZERO);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let stolen = steal_pct(ticks0, cpu_ticks());
        ClosedWindow {
            pps: (self.released - released0) as f64 / wall,
            cores_busy: process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9 / wall,
            rss_mb: rss_mb(),
            steal_pct: stolen,
            disturbed: stolen > plan.steal_limit_pct,
        }
    }

    /// Injects on a fixed schedule (`rate` packets/s for `total`), taking
    /// releases in between, and tells `obs` about every injection, every
    /// release of a packet injected by this run, and every boundary
    /// crossed.
    ///
    /// Load shedding: once more than `backlog_limit` packets are inside,
    /// the generator stops, waits for the chain to drain and restarts the
    /// schedule from that moment. Without it a single long stall can tip
    /// a write-heavy chain into a backlog it never works off (every
    /// buffer tick resends all uncommitted logs, which slows the chain
    /// further), and one machine hiccup would cost the run, not a window.
    fn paced(
        &mut self,
        rate: f64,
        total: Duration,
        boundaries: &[u64],
        backlog_limit: u64,
        obs: &mut dyn PacedObserver,
    ) {
        let gap_ns = 1e9 / rate;
        let total_ns = total.as_nanos() as u64;
        let first_id = self.next_id;
        let start = Instant::now();
        let now_ns = || start.elapsed().as_nanos() as u64;
        // Packet k of this run is due at k gaps plus `shift`; nothing is
        // outstanding when `shift` moves, so one value serves every packet
        // still to be released.
        let mut shift = 0u64;
        let due = |k: u64, shift: u64| (k as f64 * gap_ns) as u64 + shift;
        let mut k = 0u64;
        let mut crossed = 0usize;
        loop {
            while crossed < boundaries.len() && now_ns() >= boundaries[crossed] {
                obs.boundary(crossed, self.released, self.outstanding());
                crossed += 1;
            }
            if self.outstanding() > backlog_limit {
                let from = now_ns();
                self.drain("load shed");
                let to = now_ns();
                shift = to.saturating_sub(due(k, 0));
                obs.shed(from, to);
                continue;
            }
            while due(k, shift) < total_ns && due(k, shift) <= now_ns() {
                let at = now_ns();
                self.inject();
                obs.injected(due(k, shift), at);
                k += 1;
            }
            let next_due = Some(due(k, shift)).filter(|&d| d < total_ns);
            let next_event = match (next_due, boundaries.get(crossed)) {
                (Some(d), Some(&b)) => d.min(b),
                (Some(d), None) => d,
                (None, Some(&b)) => b,
                (None, None) => return,
            };
            let wait = Duration::from_nanos(next_event.saturating_sub(now_ns()));
            let mut next = self.egress.recv(wait);
            while let Some(p) = next {
                let at = now_ns();
                if let Some(id) = self.on_release(&p) {
                    if id >= first_id && obs.released(due(id - first_id, shift), at) {
                        return;
                    }
                }
                if now_ns() >= next_event {
                    break;
                }
                next = self.egress.recv(Duration::ZERO);
            }
        }
    }

    /// Open loop at the plan's fixed rate.
    pub fn open_loop(&mut self, plan: &Plan) -> Vec<OpenWindow> {
        let windows = plan.windows;
        let discard_ns = plan.discard.as_nanos() as u64;
        let window_ns = plan.window.as_nanos() as u64;
        let per_window = (plan.open_rate * plan.window.as_secs_f64()) as usize + 16;
        let mut obs = OpenLoopObserver {
            discard_ns,
            window_ns,
            latency: (0..windows)
                .map(|_| Vec::with_capacity(per_window))
                .collect(),
            lateness: (0..windows)
                .map(|_| Vec::with_capacity(per_window))
                .collect(),
            marks: Vec::with_capacity(windows + 1),
            shed: vec![false; windows],
        };
        let boundaries: Vec<u64> = (0..=windows as u64)
            .map(|w| discard_ns + w * window_ns)
            .collect();
        let total = plan.discard + plan.window * windows as u32;
        self.paced(
            plan.open_rate,
            total,
            &boundaries,
            plan.backlog_limit,
            &mut obs,
        );
        self.drain("open loop");

        let us = |ns: u64| ns as f64 / 1000.0;
        (0..windows)
            .map(|w| {
                obs.latency[w].sort_unstable();
                obs.lateness[w].sort_unstable();
                let (a, b) = (&obs.marks[w], &obs.marks[w + 1]);
                let released = b.released - a.released;
                let late_p90_us = us(percentile_sorted(&obs.lateness[w], 0.9));
                let steal_pct = steal_pct(a.ticks, b.ticks);
                OpenWindow {
                    p50_us: us(percentile_sorted(&obs.latency[w], 0.5)),
                    p90_us: us(percentile_sorted(&obs.latency[w], 0.9)),
                    p99_us: us(percentile_sorted(&obs.latency[w], 0.99)),
                    late_p90_us,
                    late_p99_us: us(percentile_sorted(&obs.lateness[w], 0.99)),
                    backlog: b.outstanding,
                    cpu_us_per_pkt: us(b.chain_cpu_ns.saturating_sub(a.chain_cpu_ns))
                        / released.max(1) as f64,
                    rss_mb: b.rss_mb,
                    steal_pct,
                    disturbed: obs.shed[w]
                        || steal_pct > plan.steal_limit_pct
                        || late_p90_us > plan.late_limit_us
                        || b.outstanding > plan.backlog_limit,
                }
            })
            .collect()
    }

    /// Fail-stop and recover, rotating the victim over the positions.
    ///
    /// Each cycle loads the chain for `plan.resume`, drains it (so what a
    /// kill loses is exactly the packets injected while the server is
    /// dead), kills the victim, injects `plan.probes` packets into the
    /// dead chain, recovers, and times the outage up to the first release
    /// of a packet injected after `recover` returned.
    pub fn failover(&mut self, plan: &Plan) -> Vec<Cycle> {
        let n = self.orch.chain.len();
        let mut cycles = Vec::with_capacity(plan.cycles);
        for c in 0..plan.cycles {
            // First, middle, last, and round again. A two-position chain
            // has no middle and kills the first twice, so on every chain
            // one kill in three hits the last position, whose recovery
            // also respawns the buffer and is by far the noisiest.
            let victim = [0, (n - 1) / 2, n - 1][c % 3];
            self.paced(
                plan.open_rate,
                plan.resume,
                &[],
                plan.backlog_limit,
                &mut Quiet,
            );
            self.drain("failover background load");
            let released_before = self.released;

            let t_kill = Instant::now();
            self.orch.chain.kill(victim);
            for _ in 0..plan.probes {
                let probe = self.gen.packet(self.next_probe);
                self.next_probe += 1;
                self.probes_sent += 1;
                self.orch.chain.inject(probe);
            }
            let report = match self.orch.recover(victim, RegionId(0)) {
                Ok(r) => r,
                Err(e) => {
                    self.error(format!("recovery of position {victim} failed: {e:?}"));
                    return cycles;
                }
            };
            let mut first = FirstRelease(None);
            self.paced(
                plan.open_rate,
                DRAIN_BUDGET,
                &[],
                plan.backlog_limit,
                &mut first,
            );
            let Some(t_first) = first.0 else {
                self.error(format!(
                    "no packet released after recovering position {victim}"
                ));
                self.drain("post-recovery traffic");
                return cycles;
            };

            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            cycles.push(Cycle {
                victim,
                recovery_ms: ms(t_first - t_kill),
                init_ms: ms(report.initialization),
                state_ms: ms(report.state_recovery),
                reroute_ms: ms(report.rerouting),
                bytes: report.bytes_transferred,
            });
            for i in 0..self.monitors.len() {
                let m = self.monitors[i];
                let counted = self.orch.chain.replicas[m]
                    .state
                    .own_store
                    .peek_u64(MONITOR_KEY)
                    .unwrap_or(0);
                if counted < released_before {
                    self.error(
                        "Monitor counter after recovery is below packets released before the kill",
                    );
                }
            }
        }
        self.paced(
            plan.open_rate,
            plan.resume,
            &[],
            plan.backlog_limit,
            &mut Quiet,
        );
        self.drain("post-recovery traffic");
        cycles
    }

    /// The f+1-copies guarantee, read from outside: every Monitor's head
    /// counter and its copy at the ring successor agree, and cover every
    /// attempted packet (`exact`: equal it — valid while no probe has
    /// reached a Monitor). Call after a drain; the successor's copy of a
    /// wrapped log commits a timer tick later, hence the bounded poll.
    pub fn check_monitor_copies(&mut self, exact: bool) {
        let expected = self.released;
        let n = self.orch.chain.len();
        for i in 0..self.monitors.len() {
            let m = self.monitors[i];
            let deadline = Instant::now() + DRAIN_BUDGET;
            let (head, copy) = loop {
                let replicas = &self.orch.chain.replicas;
                let head = replicas[m].state.own_store.peek_u64(MONITOR_KEY);
                let copy = replicas[(m + 1) % n]
                    .state
                    .replicated
                    .get(&m)
                    .and_then(|g| g.store.peek_u64(MONITOR_KEY));
                if (head == copy && head.is_some()) || Instant::now() >= deadline {
                    break (head.unwrap_or(0), copy.unwrap_or(0));
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            if head != copy {
                self.error("Monitor head counter and its replica copy disagree");
            }
            if head < expected || (exact && head != expected) {
                self.error("Monitor counter does not match packets released");
            }
        }
    }
}

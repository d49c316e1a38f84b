//! The repo's standing benchmark, one workload per process.
//!
//! `ftc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! With `--trace 0` the process deploys the workload's chain as a threaded
//! `FtcChain`, loads it from one driver thread (closed loop, open loop,
//! fail-stop/recover cycles), checks every output and reports the
//! end-to-end metrics. With `--trace 1` it runs a shortened threaded run,
//! the stepped `SyncChain` pass with spans recorded from outside, and the
//! layer replay, and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `benchmark/README.md`.

mod drive;
mod gen;
mod procfs;
mod replay;
mod stats;
mod sync_trace;

use drive::{ClosedWindow, Cycle, Driver, OpenWindow};
use ftc::mbox::MbSpec;
use ftc::prelude::*;
use stats::{median, num, num_array, quote};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::Duration;
use sync_trace::SpanKind;

/// Where result and trace files go, relative to the checkout root
/// (`run.sh` changes into it before starting this program).
const OUT_DIR: &str = "benchmark/out";

/// One workload: a chain and the traffic it sees. Everything else — the
/// fixed conditions and the run plan — is the same for all of them.
pub struct WorkloadSpec {
    pub name: &'static str,
    chain: fn() -> Vec<MbSpec>,
    pub flows: usize,
    pub frame_len: usize,
}

impl WorkloadSpec {
    /// The fixed conditions: `f = 1`, one worker per replica, in-process
    /// links, the 2PL engine set explicitly (never from `FTC_ENGINE`),
    /// default `propagate_timeout` and `resend_period`.
    pub fn chain_config(&self) -> ChainConfig {
        ChainConfig::new((self.chain)())
            .with_f(1)
            .with_workers(1)
            .with_link(Endpoint::in_proc())
            .with_engine(EngineKind::TwoPl)
    }
}

const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "nat_read",
        chain: || {
            vec![
                MbSpec::MazuNat {
                    external_ip: Ipv4Addr::new(203, 0, 113, 2),
                },
                MbSpec::MazuNat {
                    external_ip: Ipv4Addr::new(203, 0, 113, 3),
                },
            ]
        },
        flows: 4096,
        frame_len: 256,
    },
    WorkloadSpec {
        name: "monitor_write",
        chain: || vec![MbSpec::Monitor { sharing_level: 1 }; 2],
        flows: 64,
        frame_len: 256,
    },
    WorkloadSpec {
        name: "passthrough_min",
        chain: || vec![MbSpec::Passthrough; 2],
        flows: 64,
        frame_len: 64,
    },
    WorkloadSpec {
        name: "failover",
        chain: || ChainConfig::ch_rec(Ipv4Addr::new(198, 51, 100, 1)).middleboxes,
        flows: 1000,
        frame_len: 256,
    },
];

/// Windows per phase of a full run. Many short windows rather than a few
/// long ones: a machine hiccup of some ten milliseconds then spoils a
/// twentieth of a phase, and the median across windows does not see it.
const WINDOWS: usize = 20;

/// How one run spends its time. Window *counts* are fixed; `--seconds`
/// stretches the windows.
pub struct Plan {
    pub smoke: bool,
    /// Set-ups per run (the last chain is the one measured).
    pub setups: usize,
    /// Time thrown away at the start of the closed and of the open loop.
    pub discard: Duration,
    /// Measured windows of the closed and of the open loop, and how long
    /// each lasts.
    pub windows: usize,
    pub window: Duration,
    /// Packets kept in flight by the closed loop.
    pub inflight: u64,
    /// Open-loop rate, packets/s — far below capacity on purpose, so the
    /// latency is the chain's and not a queue's.
    pub open_rate: f64,
    /// An open-loop window is disturbed when the generator's lateness p90
    /// exceeds this (a tenth of its packets went in that late, so even the
    /// window's p90 latency is the generator's, not the chain's) …
    pub late_limit_us: f64,
    /// … or more than this many packets are still inside at its end.
    pub backlog_limit: u64,
    /// A window of either loop is disturbed when the hypervisor stole more
    /// than this share of the machine's CPU time during it (one 10 ms tick
    /// in a half-second window on two CPUs is about 1 %).
    pub steal_limit_pct: f64,
    /// Fail-stop/recover cycles, the victim rotating over the positions.
    pub cycles: usize,
    /// Background load between two kills.
    pub resume: Duration,
    /// Packets injected while the victim is dead.
    pub probes: usize,
    /// Packets of the stepped pass and iterations of each replayed
    /// function (`--trace 1` only).
    pub sync_packets: u64,
    pub sync_burst: u64,
}

impl Plan {
    fn new(seconds: f64, smoke: bool, trace: bool) -> Plan {
        // The traced run shares its time between the threaded phases, the
        // stepped pass and the replay.
        let share = if trace { 0.5 } else { 1.0 };
        let mut plan = Plan {
            smoke,
            setups: 7,
            discard: Duration::from_millis(500),
            windows: WINDOWS,
            window: Duration::from_secs_f64(seconds * 0.35 / WINDOWS as f64 * share),
            inflight: 128,
            open_rate: 10_000.0,
            late_limit_us: 1000.0,
            backlog_limit: 1000,
            steal_limit_pct: 2.0,
            cycles: 30,
            resume: Duration::from_secs_f64(seconds * 0.005 * share),
            probes: 20,
            sync_packets: (seconds * 10_000.0) as u64,
            sync_burst: 32,
        };
        if smoke {
            plan.setups = 2;
            plan.discard = Duration::from_millis(100);
            plan.windows = 2;
            plan.window = Duration::from_millis(250);
            plan.cycles = 3;
            plan.resume = Duration::from_millis(50);
            plan.sync_packets = 5000;
        }
        plan
    }

    fn conditions_json(&self, spec: &WorkloadSpec, seed: u64, seconds: f64, trace: bool) -> String {
        let cfg = spec.chain_config();
        let chain: Vec<String> = cfg
            .effective_middleboxes()
            .iter()
            .map(|m| quote(&format!("{m:?}")))
            .collect();
        format!(
            "\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{},\"smoke\":{},\
             \"commit\":{},\"nproc\":{},\"runtime\":\"threaded FtcChain, one driver thread, in-process links\",\
             \"chain\":[{}],\"flows\":{},\"frame_len\":{},\"f\":{},\"workers\":{},\"engine\":{},\
             \"propagate_timeout_us\":{},\"resend_period_us\":{},\
             \"setups\":{},\"windows_per_loop\":{},\"window_s\":{},\"inflight\":{},\
             \"open_rate_pps\":{},\
             \"failover_cycles\":{},\"resume_s\":{},\"probes_per_failover\":{}",
            quote(spec.name),
            num(seconds),
            trace as u8,
            self.smoke,
            quote(&commit()),
            procfs::nproc(),
            chain.join(","),
            spec.flows,
            spec.frame_len,
            cfg.f,
            cfg.workers,
            quote(cfg.engine.name()),
            cfg.propagate_timeout.as_micros(),
            cfg.resend_period.as_micros(),
            self.setups,
            self.windows,
            num(self.window.as_secs_f64()),
            self.inflight,
            num(self.open_rate),
            self.cycles,
            num(self.resume.as_secs_f64()),
            self.probes,
        )
    }
}

/// The commit the checkout is at, when it is a git checkout of its own
/// (never a parent directory's).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// How often a phase is measured again, at most, when the machine spoilt
/// most of its windows.
const PHASE_RETRIES: u32 = 2;

/// Blocks until the hypervisor has left the machine alone for half a
/// second, or gives up after half a minute. This box browns out for a
/// minute or two every hour or so (latency ×40, throughput ÷5); measuring
/// through that says nothing about the chain.
fn wait_for_quiet_machine(plan: &Plan) {
    // A smoke run checks that everything works, not what it measures.
    if plan.smoke {
        return;
    }
    for _ in 0..60 {
        let before = procfs::cpu_ticks();
        std::thread::sleep(Duration::from_millis(500));
        if procfs::steal_pct(before, procfs::cpu_ticks()) <= 1.0 {
            return;
        }
    }
    eprintln!("WARNING: the hypervisor kept stealing CPU for 30 s; measuring anyway");
}

/// Measures one phase on a quiet machine and measures it again (after a
/// pause, at most [`PHASE_RETRIES`] times) while more than half of its
/// windows come back disturbed. Returns the last attempt.
fn measure_phase<W>(
    plan: &Plan,
    retries: &mut u32,
    disturbed: impl Fn(&W) -> bool,
    mut phase: impl FnMut() -> Vec<W>,
) -> Vec<W> {
    let mut attempt = 0;
    loop {
        wait_for_quiet_machine(plan);
        let windows = phase();
        let spoilt = windows.iter().filter(|w| disturbed(w)).count();
        if spoilt * 2 <= windows.len() {
            return windows;
        }
        eprintln!(
            "WARNING: {spoilt} of {} windows disturbed (CPU stolen, generator late, backlog \
             deep or load shed)",
            windows.len()
        );
        if attempt == PHASE_RETRIES {
            return windows;
        }
        attempt += 1;
        *retries += 1;
        std::thread::sleep(Duration::from_secs(10));
    }
}

/// Everything the threaded run produced.
struct Threaded {
    setup_s: Vec<f64>,
    closed: Vec<ClosedWindow>,
    open: Vec<OpenWindow>,
    cycles: Vec<Cycle>,
    /// Mean piggyback-log bytes attached per released packet over the
    /// closed- and open-loop phases.
    trailer_bytes_per_pkt: f64,
    /// Propagating packets per thousand packets released, same phases.
    propagating_per_kpkt: f64,
    stages: ftc::core::metrics::MetricsSnapshot,
    /// `VmHWM` when the threaded run ended.
    peak_rss_mb: f64,
    /// Phases measured again because the machine spoilt most of their
    /// windows.
    phase_retries: u32,
    lost_per_failover: f64,
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
}

fn run_threaded(spec: &WorkloadSpec, plan: &Plan, seed: u64) -> Threaded {
    let mut setup_s = Vec::with_capacity(plan.setups);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    let mut absorb = |d: &Driver| {
        attempted += d.attempted;
        failed += d.failed;
        for (reason, count) in &d.errors {
            *errors.entry(reason.clone()).or_insert(0) += count;
        }
    };
    let mut driver = None;
    wait_for_quiet_machine(plan);
    for _ in 0..plan.setups {
        // Tear the previous chain down first: two chains' threads on two
        // cores would time each other.
        if let Some(old) = driver.take() {
            absorb(&old);
        }
        let (d, took) = Driver::deploy(spec, seed);
        setup_s.push(took.as_secs_f64());
        driver = Some(d);
    }
    let mut d = driver.expect("at least one set-up");

    let before = d.snapshot();
    let released_before = d.released;
    let mut phase_retries = 0;
    let closed = measure_phase(
        plan,
        &mut phase_retries,
        |w: &ClosedWindow| w.disturbed,
        || d.closed_loop(plan),
    );
    let open = measure_phase(
        plan,
        &mut phase_retries,
        |w: &OpenWindow| w.disturbed,
        || d.open_loop(plan),
    );
    let after = d.snapshot();
    let steady_released = (d.released - released_before).max(1) as f64;
    d.check_monitor_copies(true);

    wait_for_quiet_machine(plan);
    let cycles = d.failover(plan);
    d.check_monitor_copies(false);
    if cycles.len() < plan.cycles {
        *d.errors
            .entry("failover phase ended early".to_string())
            .or_insert(0) += 1;
    }
    let stages = d.snapshot();
    let lost = d.probes_sent - d.probes_released;
    absorb(&d);
    Threaded {
        setup_s,
        closed,
        open,
        trailer_bytes_per_pkt: (after.piggyback_bytes - before.piggyback_bytes) as f64
            / steady_released,
        propagating_per_kpkt: (after.propagating - before.propagating) as f64 * 1000.0
            / steady_released,
        stages,
        peak_rss_mb: procfs::peak_rss_mb(),
        phase_retries,
        lost_per_failover: lost as f64 / cycles.len().max(1) as f64,
        cycles,
        attempted,
        failed,
        errors,
    }
}

/// A named measurement with its unit, in report order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(name),
                    num(*value),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

fn field<T>(items: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    items.iter().map(f).collect()
}

/// Median of `f` over the windows that were not disturbed — or over all
/// of them when the machine left none clean.
fn clean_med<W>(windows: &[W], disturbed: impl Fn(&W) -> bool, f: impl Fn(&W) -> f64) -> f64 {
    let clean: Vec<f64> = windows.iter().filter(|w| !disturbed(w)).map(&f).collect();
    if clean.is_empty() {
        median(&field(windows, f))
    } else {
        median(&clean)
    }
}

/// `closed` of every closed-loop window, then `open` of every open-loop
/// window.
fn both_loops(
    t: &Threaded,
    closed: impl Fn(&ClosedWindow) -> f64,
    open: impl Fn(&OpenWindow) -> f64,
) -> Vec<f64> {
    let mut values = field(&t.closed, closed);
    values.extend(field(&t.open, open));
    values
}

fn closed_med(t: &Threaded, f: impl Fn(&ClosedWindow) -> f64) -> f64 {
    clean_med(&t.closed, |w| w.disturbed, f)
}

fn open_med(t: &Threaded, f: impl Fn(&OpenWindow) -> f64) -> f64 {
    clean_med(&t.open, |w| w.disturbed, f)
}

/// Lower quartile (nearest rank) of the recovery times of the cycles that
/// killed a position other than the last. Whatever disturbs a recovery — a
/// stall, a timer that has to fire — only ever adds to it, and the
/// positions form clusters a few hundred microseconds to several
/// milliseconds apart, so the median of all cycles sits on the edge
/// between two clusters and jumps between runs. The lower quartile lies
/// inside the fastest cluster: it is what every recovery pays, and it
/// repeats. The last position (whose rerouting alone takes 2–285 ms) is
/// reported on its own as `orch.recover.tail_ms`.
fn recovery_quartile(t: &Threaded) -> f64 {
    let last = t.cycles.iter().map(|c| c.victim).max().unwrap_or(0);
    let mut ms: Vec<f64> = t
        .cycles
        .iter()
        .filter(|c| c.victim < last)
        .map(|c| c.recovery_ms)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms.get(ms.len().div_ceil(4).saturating_sub(1))
        .copied()
        .unwrap_or(0.0)
}

fn end_to_end(spec: &WorkloadSpec, t: &Threaded) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.push("setup_s", median(&t.setup_s), "s");
    m.push("throughput_pps", closed_med(t, |w| w.pps), "1/s");
    m.push("latency_p50_us", open_med(t, |w| w.p50_us), "us");
    m.push("cpu_us_per_pkt", open_med(t, |w| w.cpu_us_per_pkt), "us");
    m.push(
        "wire_bytes_per_pkt",
        spec.frame_len as f64 + t.trailer_bytes_per_pkt,
        "B",
    );
    m.push(
        "delivered_pct",
        100.0 * (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64,
        "%",
    );
    m.push(
        "rss_mb",
        median(&both_loops(t, |w| w.rss_mb, |w| w.rss_mb)),
        "MB",
    );
    m.push("recovery_ms", recovery_quartile(t), "ms");
    m
}

/// The stepped pass and the replay, reduced to the per-layer metrics.
/// Returns the metrics, the trace file body and the failed checks.
fn per_layer(
    spec: &WorkloadSpec,
    plan: &Plan,
    seed: u64,
    t: &Threaded,
    header: &str,
) -> (Metrics, String, Vec<String>) {
    let gen = gen::Generator::new(seed, spec.flows, spec.frame_len);
    let traced = sync_trace::run(spec, &gen, plan.sync_packets, plan.sync_burst);
    let costs = replay::run(spec, &gen, seed, plan.sync_packets);

    let mut errors = Vec::new();
    if traced.released != plan.sync_packets {
        errors.push(format!(
            "stepped pass released {} of {} packets",
            traced.released, plan.sync_packets
        ));
    }
    if traced.trailers_leaked > 0 {
        errors.push("stepped pass released packets with a trailer".to_string());
    }

    let n = spec.chain_config().effective_middleboxes().len();
    let ingress = traced.ns_per_pkt(SpanKind::Ingress);
    let buffer = traced.ns_per_pkt(SpanKind::Buffer);
    let feedback = traced.ns_per_pkt(SpanKind::Feedback);
    let replica_steps: f64 = (0..n)
        .map(|i| traced.ns_per_pkt(SpanKind::Replica(i)))
        .sum();
    let sync_ns = traced.span_sum_ns_per_pkt();
    // What the replay can name inside the replica steps of one packet:
    // per replica a parse, a trailer detach and attach, a transaction with
    // the middlebox's body, a reliable hop out and a NIC hand-off; plus
    // the applies the stepped pass counted.
    let replayed = n as f64
        * (costs.parse_ns
            + costs.trailer_detach_ns
            + costs.trailer_attach_ns
            + costs.txn_ns
            + costs.reliable_hop_ns
            + costs.nic_dispatch_ns)
        + costs.process_ns
        + traced.applies_per_pkt * costs.apply_ns;
    let cpu_us = open_med(t, |w| w.cpu_us_per_pkt);

    let mut m = Metrics(Vec::new());
    m.push("core.forwarder.ingress_ns", ingress, "ns");
    m.push(
        "core.replica.head_step_ns",
        traced.ns_per_pkt(SpanKind::Replica(0)),
        "ns",
    );
    m.push(
        "core.replica.tail_step_ns",
        traced.ns_per_pkt(SpanKind::Replica(n - 1)),
        "ns",
    );
    m.push("core.replica.all_steps_ns", replica_steps, "ns");
    m.push("core.buffer.step_ns", buffer, "ns");
    m.push("core.forwarder.feedback_ns", feedback, "ns");
    m.push("core.sync_ns_per_pkt", sync_ns, "ns");
    m.push("core.sync_wall_ns_per_pkt", traced.plain_ns_per_pkt(), "ns");
    m.push("core.trace_overhead_pct", traced.overhead_pct(), "%");
    m.push(
        "core.replica.unattributed_ns",
        replica_steps - replayed,
        "ns",
    );
    m.push("core.hop_overhead_us", cpu_us - sync_ns / 1000.0, "us");
    m.push("core.buffer.held_max", traced.held_max as f64, "count");
    m.push("core.replica.parked_max", traced.parked_max as f64, "count");
    m.push(
        "core.replica.applies_per_pkt",
        traced.applies_per_pkt,
        "count",
    );
    m.push(
        "core.forwarder.propagating_per_kpkt",
        t.propagating_per_kpkt,
        "count",
    );
    m.push("packet.parse_ns", costs.parse_ns, "ns");
    m.push("packet.trailer_attach_ns", costs.trailer_attach_ns, "ns");
    m.push("packet.trailer_detach_ns", costs.trailer_detach_ns, "ns");
    m.push("packet.trailer_len", costs.trailer_len as f64, "B");
    m.push("packet.trailer_bytes_per_pkt", t.trailer_bytes_per_pkt, "B");
    m.push("packet.frame_codec_ns", costs.frame_codec_ns, "ns");
    m.push("stm.txn_ns", costs.txn_ns, "ns");
    m.push("stm.apply_ns", costs.apply_ns, "ns");
    m.push("mbox.process_ns", costs.process_ns, "ns");
    m.push("net.reliable_hop_ns", costs.reliable_hop_ns, "ns");
    m.push("net.nic_dispatch_ns", costs.nic_dispatch_ns, "ns");
    let s = &t.stages;
    m.push(
        "core.stage.transaction_mean_ns",
        s.transaction.mean_ns as f64,
        "ns",
    );
    m.push(
        "core.stage.piggyback_mean_ns",
        s.piggyback.mean_ns as f64,
        "ns",
    );
    m.push("core.stage.apply_mean_ns", s.apply.mean_ns as f64, "ns");
    m.push(
        "core.stage.forwarder_mean_ns",
        s.forwarder.mean_ns as f64,
        "ns",
    );
    m.push("core.stage.buffer_mean_ns", s.buffer.mean_ns as f64, "ns");
    m.push("core.stage.apply_samples", s.apply.samples as f64, "count");

    let class = |want: fn(usize, usize) -> bool| -> Vec<f64> {
        t.cycles
            .iter()
            .filter(|c| want(c.victim, n))
            .map(|c| c.recovery_ms)
            .collect()
    };
    m.push(
        "orch.recover.init_ms",
        median(&field(&t.cycles, |c| c.init_ms)),
        "ms",
    );
    m.push(
        "orch.recover.state_ms",
        median(&field(&t.cycles, |c| c.state_ms)),
        "ms",
    );
    m.push(
        "orch.recover.reroute_ms",
        median(&field(&t.cycles, |c| c.reroute_ms)),
        "ms",
    );
    m.push(
        "orch.recover.bytes",
        median(&field(&t.cycles, |c| c.bytes as f64)),
        "B",
    );
    m.push(
        "orch.recover.median_ms",
        median(&field(&t.cycles, |c| c.recovery_ms)),
        "ms",
    );
    m.push("orch.recover.head_ms", median(&class(|v, _| v == 0)), "ms");
    // 0 on a two-position chain: it has no middle.
    m.push(
        "orch.recover.mid_ms",
        median(&class(|v, n| v > 0 && v + 1 < n)),
        "ms",
    );
    m.push(
        "orch.recover.tail_ms",
        median(&class(|v, n| v + 1 == n)),
        "ms",
    );
    m.push(
        "orch.recover.lost_per_failover",
        t.lost_per_failover,
        "count",
    );

    let gen_ns = {
        let t0 = std::time::Instant::now();
        for id in 0..100_000u64 {
            std::hint::black_box(gen.packet(id));
        }
        t0.elapsed().as_nanos() as f64 / 100_000.0
    };
    m.push("traffic.gen_ns_per_pkt", gen_ns, "ns");
    m.push(
        "traffic.gen_late_p99_us",
        median(&field(&t.open, |w| w.late_p99_us)),
        "us",
    );
    m.push("traffic.latency_p90_us", open_med(t, |w| w.p90_us), "us");
    m.push("traffic.latency_p99_us", open_med(t, |w| w.p99_us), "us");
    let flag = |disturbed: bool| f64::from(u8::from(disturbed));
    let disturbed = both_loops(t, |w| flag(w.disturbed), |w| flag(w.disturbed));
    m.push("traffic.disturbed_windows", disturbed.iter().sum(), "count");
    m.push("traffic.phase_retries", f64::from(t.phase_retries), "count");
    let steal = both_loops(t, |w| w.steal_pct, |w| w.steal_pct);
    m.push(
        "traffic.steal_pct",
        steal.iter().sum::<f64>() / steal.len().max(1) as f64,
        "%",
    );
    m.push(
        "traffic.cores_busy",
        closed_med(t, |w| w.cores_busy),
        "count",
    );
    m.push("traffic.peak_rss_mb", t.peak_rss_mb, "MB");
    m.push(
        "traffic.loss_pct",
        100.0 * t.failed as f64 / t.attempted.max(1) as f64,
        "%",
    );
    (m, traced.to_json(header), errors)
}

/// Every window's and every cycle's raw value, as `"name":[…]` lists.
fn windows_json(t: &Threaded) -> String {
    type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> f64);
    fn list<T>(items: &[T], columns: &[Column<T>]) -> String {
        let columns: Vec<String> = columns
            .iter()
            .map(|(name, f)| format!("{}:{}", quote(name), num_array(&field(items, f))))
            .collect();
        format!("{{{}}}", columns.join(","))
    }
    let flag = |disturbed: bool| f64::from(u8::from(disturbed));
    format!(
        "\"setup_s\":{},\"closed\":{},\"open\":{},\"failover\":{}",
        num_array(&t.setup_s),
        list(
            &t.closed,
            &[
                ("pps", &|w| w.pps),
                ("cores_busy", &|w| w.cores_busy),
                ("rss_mb", &|w| w.rss_mb),
                ("steal_pct", &|w| w.steal_pct),
                ("disturbed", &|w| flag(w.disturbed)),
            ]
        ),
        list(
            &t.open,
            &[
                ("p50_us", &|w| w.p50_us),
                ("p90_us", &|w| w.p90_us),
                ("p99_us", &|w| w.p99_us),
                ("late_p90_us", &|w| w.late_p90_us),
                ("late_p99_us", &|w| w.late_p99_us),
                ("backlog", &|w| w.backlog as f64),
                ("cpu_us_per_pkt", &|w| w.cpu_us_per_pkt),
                ("rss_mb", &|w| w.rss_mb),
                ("steal_pct", &|w| w.steal_pct),
                ("disturbed", &|w| flag(w.disturbed)),
            ]
        ),
        list(
            &t.cycles,
            &[
                ("victim", &|c| c.victim as f64),
                ("recovery_ms", &|c| c.recovery_ms),
                ("init_ms", &|c| c.init_ms),
                ("state_ms", &|c| c.state_ms),
                ("reroute_ms", &|c| c.reroute_ms),
                ("bytes", &|c| c.bytes as f64),
            ]
        ),
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The engine is part of the fixed conditions; an inherited FTC_ENGINE
    // (which ChainConfig::new would read, and panic on if unknown) or
    // FTC_BENCH_QUICK must not reach the run.
    std::env::remove_var("FTC_ENGINE");
    std::env::remove_var("FTC_BENCH_QUICK");

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "ftc-benchmark: --workload must be one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let plan = Plan::new(args.seconds, args.smoke, args.trace);
    let header = plan.conditions_json(spec, args.seed, args.seconds, args.trace);

    let threaded = run_threaded(spec, &plan, args.seed);
    let mut errors: Vec<String> = threaded
        .errors
        .iter()
        .map(|(reason, count)| format!("{reason} (x{count})"))
        .collect();
    let metrics = if args.trace {
        let (m, trace_json, trace_errors) = per_layer(spec, &plan, args.seed, &threaded, &header);
        errors.extend(trace_errors);
        write_out(&format!("trace_{}.json", spec.name), &trace_json);
        m
    } else {
        end_to_end(spec, &threaded)
    };
    let correct = errors.is_empty();

    let reasons: Vec<String> = errors.iter().map(|e| quote(e)).collect();
    write_out(
        &format!("result_{}_trace{}.json", spec.name, args.trace as u8),
        &format!(
            "{{{header},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"errors\":[{}],\
             \"windows\":{{{}}},\"metrics\":{}}}\n",
            threaded.attempted,
            threaded.failed,
            reasons.join(","),
            windows_json(&threaded),
            metrics.to_json()
        ),
    );

    println!(
        "{} seed {} ({} s, trace {}{})",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { ", smoke" } else { "" }
    );
    println!(
        "  closed-loop windows (1/s): {}",
        num_array(&field(&threaded.closed, |w| w.pps.round()))
    );
    println!(
        "  open-loop p50 per window (us): {}",
        num_array(&field(&threaded.open, |w| w.p50_us))
    );
    println!("  set-ups (s): {}", num_array(&threaded.setup_s));
    println!(
        "  recovery per cycle (ms): {}",
        num_array(&field(&threaded.cycles, |c| c.recovery_ms))
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        threaded.attempted,
        threaded.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes one file under [`OUT_DIR`]; a failure is reported, not fatal —
/// the result on standard output is what counts.
fn write_out(name: &str, body: &str) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body));
    if let Err(e) = written {
        eprintln!("ftc-benchmark: writing {}: {e}", path.display());
    }
}

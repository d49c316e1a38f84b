//! The stepped pass: the workload's packets driven through
//! `ftc::core::testkit::SyncChain` on one thread, with a span recorded
//! *from outside* around every public call that moves a packet one layer
//! on. Spans stay in memory until the pass ends.
//!
//! Bursts alternate between spans on and spans off. The two halves see the
//! same chain, the same flows and the same minute of machine weather, so
//! the difference in their stepping time per packet is the tracing
//! overhead and nothing else.
//!
//! Public functions this module calls (a refactor that changes one needs a
//! `benchmark` issue): `SyncChain::new`, `SyncChain::inject`,
//! `SyncChain::step` with `Step::Replica`, `Step::Buffer` and
//! `Step::ForwarderFeedback`, `SyncChain::run_to_quiescence`,
//! `SyncChain::egress`, `SyncChain::held`, `ReplicaState::parked_len`,
//! `ChainMetrics::snapshot`.

use crate::gen::{packet_id, Generator};
use crate::stats::{num, percentile_sorted, quote};
use crate::WorkloadSpec;
use ftc::core::testkit::{Step, SyncChain};
use ftc::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Traced packets whose individual spans are written to the trace file.
const SPAN_SAMPLE_PACKETS: usize = 1000;

/// What a span was recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// `SyncChain::inject` → `ForwarderState::handle_ingress`.
    Ingress,
    /// `step(Step::Replica(i))`: link → NIC → `ReplicaState::handle_frame`.
    Replica(usize),
    /// `step(Step::Buffer)` → `BufferState::handle_frame`.
    Buffer,
    /// `step(Step::ForwarderFeedback)` → `ForwarderState::ingest_feedback`.
    Feedback,
}

impl SpanKind {
    pub fn name(self) -> String {
        match self {
            SpanKind::Ingress => "core.forwarder.ingress".to_string(),
            SpanKind::Replica(i) => format!("core.replica{i}.step"),
            SpanKind::Buffer => "core.buffer.step".to_string(),
            SpanKind::Feedback => "core.forwarder.feedback".to_string(),
        }
    }
}

/// One recorded call. Its parent is the root span of packet `pkt`.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    pkt: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Count, total and percentiles of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The outcome of the pass.
pub struct SyncPass {
    /// Packets stepped with spans on …
    pub traced_packets: u64,
    /// … and the wall time their stepping took (generation excluded).
    pub traced_wall_ns: u64,
    /// Packets stepped with spans off, and their stepping time.
    pub plain_packets: u64,
    pub plain_wall_ns: u64,
    /// Packets released, of `traced_packets + plain_packets`.
    pub released: u64,
    pub trailers_leaked: u64,
    /// Most packets the buffer withheld at the end of any burst.
    pub held_max: usize,
    /// Most packets parked at any one replica at the end of any burst.
    pub parked_max: usize,
    /// Piggyback logs applied at replicas per packet.
    pub applies_per_pkt: f64,
    pub stats: BTreeMap<SpanKind, SpanStats>,
    spans: Vec<Span>,
    /// Root span per packet, inject start → release; `None` for packets of
    /// untraced bursts.
    roots: Vec<Option<(u64, u64)>>,
}

struct Pump<'a> {
    chain: &'a SyncChain,
    egress: Egress,
    epoch: Instant,
    spans: Vec<Span>,
    roots: Vec<Option<(u64, u64)>>,
    /// Generator id of packet 0 (ids continue after the warm-up).
    id_base: u64,
    /// Frames each replica has handled: replicas are FIFO, every burst is
    /// stepped to a standstill and no timer fires in between, so the k-th
    /// frame a replica handles is packet k.
    seen: Vec<u32>,
    buffered: u32,
    released: u64,
    trailers_leaked: u64,
    held_max: usize,
    parked_max: usize,
}

impl Pump<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Books what the buffer released. A traced packet may leave during an
    /// untraced burst (the buffer holds it until a later packet's feedback
    /// commits its log); its root span then ends at `stamp`, read once for
    /// the whole burst, instead of at a clock read of its own.
    fn take_released(&mut self, stamp: Option<u64>) {
        while let Some(p) = self.egress.recv(Duration::ZERO) {
            self.released += 1;
            if p.has_piggyback() {
                self.trailers_leaked += 1;
            }
            let pkt = packet_id(&p).and_then(|id| id.checked_sub(self.id_base));
            if let Some(Some(root)) = pkt.and_then(|i| self.roots.get_mut(i as usize)) {
                root.1 = stamp.unwrap_or_else(|| self.epoch.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Repeats `step` until it reports no progress, recording one span per
    /// productive call when `traced`.
    fn run_steps(&mut self, step: Step, kind: SpanKind, traced: bool) {
        loop {
            let start_ns = if traced { self.now() } else { 0 };
            if !self.chain.step(step) {
                return;
            }
            let pkt = match kind {
                SpanKind::Replica(i) => {
                    self.seen[i] += 1;
                    self.seen[i] - 1
                }
                SpanKind::Buffer => {
                    self.buffered += 1;
                    self.buffered - 1
                }
                // A feedback frame batches logs of several packets; it is
                // charged to the packet whose buffer step sent it.
                _ => self.buffered.saturating_sub(1),
            };
            if traced {
                let end_ns = self.now();
                self.spans.push(Span {
                    kind,
                    pkt,
                    start_ns,
                    end_ns,
                });
                if kind == SpanKind::Buffer {
                    self.take_released(None);
                }
            }
        }
    }

    /// One burst: inject all, then step every component to a standstill in
    /// chain order. Returns the time that took.
    fn burst(&mut self, pkts: Vec<Packet>, first: u32, traced: bool) -> u64 {
        let t0 = Instant::now();
        for (j, p) in pkts.into_iter().enumerate() {
            let start_ns = if traced { self.now() } else { 0 };
            self.chain.inject(p);
            if traced {
                let end_ns = self.now();
                let pkt = first + j as u32;
                self.spans.push(Span {
                    kind: SpanKind::Ingress,
                    pkt,
                    start_ns,
                    end_ns,
                });
                self.roots[pkt as usize] = Some((start_ns, 0));
            }
        }
        for i in 0..self.seen.len() {
            self.run_steps(Step::Replica(i), SpanKind::Replica(i), traced);
        }
        self.run_steps(Step::Buffer, SpanKind::Buffer, traced);
        self.run_steps(Step::ForwarderFeedback, SpanKind::Feedback, traced);
        let wall = t0.elapsed().as_nanos() as u64;
        let stamp = self.now();
        self.take_released(Some(stamp));
        self.held_max = self.held_max.max(self.chain.held());
        let parked = self.chain.replicas.iter().map(|r| r.parked_len()).max();
        self.parked_max = self.parked_max.max(parked.unwrap_or(0));
        wall
    }
}

/// Drives `packets` packets through a fresh `SyncChain` in bursts of
/// `burst`, even bursts with spans and odd ones without, after one untimed
/// packet per flow. Packet ids continue after the warm-up, so the
/// round-robin over the flows is unbroken.
pub fn run(spec: &WorkloadSpec, gen: &Generator, packets: u64, burst: u64) -> SyncPass {
    let chain = SyncChain::new(spec.chain_config());
    let n = chain.replicas.len();
    let flows = gen.flows() as u64;
    let mut pump = Pump {
        chain: &chain,
        egress: chain.egress(),
        epoch: Instant::now(),
        spans: Vec::with_capacity(packets as usize / 2 * (n + 3)),
        roots: vec![None; packets as usize],
        id_base: flows,
        seen: vec![0; n],
        buffered: 0,
        released: 0,
        trailers_leaked: 0,
        held_max: 0,
        parked_max: 0,
    };
    let mut id = 0u64;
    while id < flows {
        let upto = (id + burst).min(flows);
        pump.burst((id..upto).map(|i| gen.packet(i)).collect(), 0, false);
        id = upto;
    }
    chain.run_to_quiescence(64);
    pump.take_released(None);
    let warm_released = pump.released;
    let applied0 = chain.metrics.snapshot().logs_applied;
    pump.seen = vec![0; n];
    pump.buffered = 0;
    pump.held_max = 0;
    pump.parked_max = 0;

    // (packets, stepping time) with spans on and with spans off.
    let (mut traced, mut plain) = ((0u64, 0u64), (0u64, 0u64));
    let mut done = 0u64;
    while done < packets {
        let upto = (done + burst).min(packets);
        let pkts = (done..upto).map(|i| gen.packet(flows + i)).collect();
        let spans_on = (done / burst).is_multiple_of(2);
        let wall = pump.burst(pkts, done as u32, spans_on);
        let side = if spans_on { &mut traced } else { &mut plain };
        side.0 += upto - done;
        side.1 += wall;
        done = upto;
    }
    let applied = chain.metrics.snapshot().logs_applied - applied0;
    // Whatever the buffer still withholds needs the idle timers; they fire
    // here, outside the measured stepping and outside the spans.
    chain.run_to_quiescence(64);
    pump.take_released(None);

    SyncPass {
        traced_packets: traced.0,
        traced_wall_ns: traced.1,
        plain_packets: plain.0,
        plain_wall_ns: plain.1,
        released: pump.released - warm_released,
        trailers_leaked: pump.trailers_leaked,
        held_max: pump.held_max,
        parked_max: pump.parked_max,
        applies_per_pkt: applied as f64 / packets.max(1) as f64,
        stats: aggregate(&pump.spans),
        spans: pump.spans,
        roots: pump.roots,
    }
}

fn aggregate(spans: &[Span]) -> BTreeMap<SpanKind, SpanStats> {
    let mut by_kind: BTreeMap<SpanKind, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_kind
            .entry(s.kind)
            .or_default()
            .push(s.end_ns - s.start_ns);
    }
    by_kind
        .into_iter()
        .map(|(kind, mut d)| {
            d.sort_unstable();
            let stats = SpanStats {
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                p50_ns: percentile_sorted(&d, 0.5),
                p99_ns: percentile_sorted(&d, 0.99),
            };
            (kind, stats)
        })
        .collect()
}

impl SyncPass {
    /// Mean nanoseconds per traced packet spent in spans of `kind`.
    pub fn ns_per_pkt(&self, kind: SpanKind) -> f64 {
        self.stats.get(&kind).map_or(0.0, |s| {
            s.total_ns as f64 / self.traced_packets.max(1) as f64
        })
    }

    /// Mean nanoseconds per traced packet over every span: the whole of
    /// the stepping that the spans account for.
    pub fn span_sum_ns_per_pkt(&self) -> f64 {
        let total: u64 = self.stats.values().map(|s| s.total_ns).sum();
        total as f64 / self.traced_packets.max(1) as f64
    }

    /// Stepping time per packet with spans off.
    pub fn plain_ns_per_pkt(&self) -> f64 {
        self.plain_wall_ns as f64 / self.plain_packets.max(1) as f64
    }

    /// How much slower the traced bursts stepped than the untraced ones.
    pub fn overhead_pct(&self) -> f64 {
        let traced = self.traced_wall_ns as f64 / self.traced_packets.max(1) as f64;
        100.0 * (traced / self.plain_ns_per_pkt() - 1.0)
    }

    /// The trace file: conditions, per-kind aggregates, and every span of
    /// the first [`SPAN_SAMPLE_PACKETS`] traced packets. A span's `parent`
    /// is the id of its packet's root span (`"packet"`, inject → release);
    /// spans of one packet share `pkt`.
    pub fn to_json(&self, header: &str) -> String {
        let aggregates: Vec<String> = self
            .stats
            .iter()
            .map(|(kind, s)| {
                format!(
                    "{}:{{\"count\":{},\"total_ns\":{},\"mean_ns_per_pkt\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                    quote(&kind.name()),
                    s.count,
                    s.total_ns,
                    num(self.ns_per_pkt(*kind)),
                    s.p50_ns,
                    s.p99_ns
                )
            })
            .collect();
        let sampled: Vec<(usize, (u64, u64))> = self
            .roots
            .iter()
            .enumerate()
            .filter_map(|(pkt, root)| root.map(|r| (pkt, r)))
            .take(SPAN_SAMPLE_PACKETS)
            .collect();
        let last = sampled.last().map_or(0, |&(pkt, _)| pkt as u32);
        let mut spans: Vec<String> = sampled
            .iter()
            .map(|(pkt, (start, end))| {
                format!(
                    "{{\"id\":\"p{pkt}\",\"name\":\"packet\",\"pkt\":{pkt},\"parent\":null,\
                     \"start_ns\":{start},\"end_ns\":{end}}}"
                )
            })
            .collect();
        for s in self.spans.iter().filter(|s| s.pkt <= last) {
            spans.push(format!(
                "{{\"name\":{},\"pkt\":{},\"parent\":\"p{}\",\"start_ns\":{},\"end_ns\":{}}}",
                quote(&s.kind.name()),
                s.pkt,
                s.pkt,
                s.start_ns,
                s.end_ns
            ));
        }
        format!(
            "{{{header},\"traced_packets\":{},\"traced_stepping_wall_ns\":{},\
             \"untraced_packets\":{},\"untraced_stepping_wall_ns\":{},\
             \"span_sum_ns_per_pkt\":{},\"trace_overhead_pct\":{},\
             \"aggregates\":{{{}}},\"spans\":[\n{}\n]}}\n",
            self.traced_packets,
            self.traced_wall_ns,
            self.plain_packets,
            self.plain_wall_ns,
            num(self.span_sum_ns_per_pkt()),
            num(self.overhead_pct()),
            aggregates.join(","),
            spans.join(",\n")
        )
    }
}

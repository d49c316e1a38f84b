//! The layer replay: the lower layers' public functions timed in
//! isolation, on one thread, over the workload's own frames and the logs
//! its middleboxes actually produce. Together with the stepped spans of
//! [`crate::sync_trace`] this says where inside a replica step the time
//! goes, without a single span inside the program.
//!
//! Public functions this module calls (a refactor that changes one needs a
//! `benchmark` issue): `Packet::from_frame`, `Packet::attach_piggyback`,
//! `Packet::detach_piggyback`, `ftc_packet::frame::{encode, decode}`,
//! `StateBackendExt::transaction` over `EngineKind::build`,
//! `MbSpec::build` + `Middlebox::process`, `MaxVector::offer`,
//! `reliable_pair(&Endpoint::in_proc())` + `ReliableSender::send` +
//! `ReliableReceiver::recv_timeout`, `Nic::dispatch` + its queue.

use crate::gen::Generator;
use crate::WorkloadSpec;
use bytes::BytesMut;
use ftc::mbox::{MbSpec, Middlebox, ProcCtx};
use ftc::net::nic::Nic;
use ftc::net::reliable_pair;
use ftc::packet::frame;
use ftc::packet::piggyback::{MboxId, PiggybackLog, PiggybackMessage};
use ftc::prelude::*;
use ftc::stm::{MaxVector, StateBackendExt, TxnLog};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items per timed batch: long enough that two clock reads vanish, short
/// enough that a batch of frames stays in cache like a NIC burst does.
const BATCH: u64 = 1024;

/// Mean cost of each replayed function, in nanoseconds per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `Packet::from_frame`.
    pub parse_ns: f64,
    /// `attach_piggyback` of the workload's steady-state trailer.
    pub trailer_attach_ns: f64,
    /// `detach_piggyback` of the same trailer.
    pub trailer_detach_ns: f64,
    /// Bytes of that trailer.
    pub trailer_len: usize,
    /// `frame::encode` + `frame::decode` of one frame.
    pub frame_codec_ns: f64,
    /// `transaction` with a Passthrough body: begin + commit alone.
    pub txn_ns: f64,
    /// Sum over the chain's middleboxes of (`transaction` with the
    /// middlebox's body − `txn_ns`), in steady state.
    pub process_ns: f64,
    /// `MaxVector::offer` of one log as the chain's middleboxes produce it
    /// for the first packet of a flow; 0 when no middlebox ever writes.
    pub apply_ns: f64,
    /// One `ReliableSender::send` → `ReliableReceiver::recv_timeout`.
    pub reliable_hop_ns: f64,
    /// One `Nic::dispatch` → queue receive.
    pub nic_dispatch_ns: f64,
}

fn engine_store(spec: &WorkloadSpec) -> Arc<dyn StateBackend> {
    let cfg = spec.chain_config();
    cfg.engine.build(cfg.partitions)
}

/// Mean nanoseconds per item of `work` over `rounds` batches; `prep`
/// builds each batch outside the timed region.
fn time_batches<T>(
    rounds: u64,
    mut prep: impl FnMut(u64) -> Vec<T>,
    mut work: impl FnMut(T),
) -> f64 {
    let mut total = Duration::ZERO;
    let mut items = 0u64;
    for r in 0..rounds {
        let batch = prep(r);
        items += batch.len() as u64;
        let t0 = Instant::now();
        for x in batch {
            work(x);
        }
        total += t0.elapsed();
    }
    total.as_nanos() as f64 / items.max(1) as f64
}

/// The chain's middleboxes, each over a store of its own.
struct Stages(Vec<(Arc<dyn Middlebox>, Arc<dyn StateBackend>)>);

impl Stages {
    fn new(spec: &WorkloadSpec) -> Stages {
        let specs = spec.chain_config().effective_middleboxes();
        Stages(
            specs
                .iter()
                .map(|s| (s.build(), engine_store(spec)))
                .collect(),
        )
    }

    /// Runs `pkt` through every middlebox in chain order and returns the
    /// log each produced.
    fn process(&self, pkt: &mut Packet) -> Vec<Option<TxnLog>> {
        self.0
            .iter()
            .map(|(mbox, store)| {
                store
                    .transaction(|txn| mbox.process(pkt, txn, ProcCtx::single()))
                    .log
            })
            .collect()
    }
}

fn as_piggyback(logs: Vec<Option<TxnLog>>) -> Vec<PiggybackLog> {
    logs.into_iter()
        .enumerate()
        .filter_map(|(i, log)| {
            log.map(|l| PiggybackLog {
                mbox: MboxId(i as u16),
                deps: l.deps,
                writes: l.writes,
            })
        })
        .collect()
}

/// Times every replayed function over about `iterations` calls each.
pub fn run(spec: &WorkloadSpec, gen: &Generator, seed: u64, iterations: u64) -> LayerCosts {
    let rounds = (iterations / BATCH).max(1);
    let flows = gen.flows() as u64;
    let frames =
        |r: u64| -> Vec<BytesMut> { (r * BATCH..(r + 1) * BATCH).map(|i| gen.frame(i)).collect() };
    let packets = |r: u64| -> Vec<Packet> {
        (r * BATCH..(r + 1) * BATCH)
            .map(|i| gen.packet(i))
            .collect()
    };

    // Steady state: every flow's state exists before anything is timed.
    let stages = Stages::new(spec);
    for id in 0..flows {
        stages.process(&mut gen.packet(id));
    }
    let steady = PiggybackMessage {
        flags: 0,
        logs: as_piggyback(stages.process(&mut gen.packet(flows))),
        commits: Vec::new(),
    };

    let parse_ns = time_batches(rounds, frames, |f| {
        black_box(Packet::from_frame(f).expect("generated frame parses"));
    });

    let trailer_attach_ns = time_batches(rounds, packets, |mut p| {
        p.attach_piggyback(black_box(&steady))
            .expect("fresh trailer");
        black_box(p);
    });
    let with_trailer = |r: u64| -> Vec<Packet> {
        let mut batch = packets(r);
        for p in &mut batch {
            p.attach_piggyback(&steady).expect("fresh trailer");
        }
        batch
    };
    let trailer_detach_ns = time_batches(rounds, with_trailer, |mut p| {
        black_box(p.detach_piggyback().expect("own trailer decodes"));
        black_box(p);
    });

    let mut seq = 0u64;
    let frame_codec_ns = time_batches(rounds, frames, |f| {
        let wire = frame::encode(frame::kind::DATA, 0, seq, &f);
        seq += 1;
        black_box(frame::decode(&wire).expect("own frame decodes"));
    });

    // Transactions: the whole batch goes through middlebox 0, then the
    // (now rewritten) batch through middlebox 1, … — one timed loop per
    // stage, plus one over an empty body on a store of its own.
    let pass = MbSpec::Passthrough.build();
    let bare = engine_store(spec);
    let ctx = ProcCtx::single();
    let mut empty = Duration::ZERO;
    let mut bodies = vec![Duration::ZERO; stages.0.len()];
    for r in 0..rounds {
        let mut batch = packets(flows / BATCH + 1 + r);
        let t0 = Instant::now();
        for p in &mut batch {
            black_box(bare.transaction(|txn| pass.process(p, txn, ctx)));
        }
        empty += t0.elapsed();
        for (i, (mbox, store)) in stages.0.iter().enumerate() {
            let t0 = Instant::now();
            for p in &mut batch {
                black_box(store.transaction(|txn| mbox.process(p, txn, ctx)));
            }
            bodies[i] += t0.elapsed();
        }
    }
    let per_call = |d: Duration| d.as_nanos() as f64 / (rounds * BATCH) as f64;
    let txn_ns = per_call(empty);
    let process_ns = bodies.iter().map(|&d| per_call(d) - txn_ns).sum();

    // Applies: fresh heads and fresh flows every round, so every packet is
    // the first of its flow and every middlebox that ever writes, writes.
    let mut apply_total = Duration::ZERO;
    let mut applies = 0u64;
    for r in 0..rounds {
        let fresh_flows = Generator::new(
            seed ^ (r + 1).wrapping_mul(0x9e37_79b9),
            BATCH as usize,
            spec.frame_len,
        );
        let heads = Stages::new(spec);
        let mut logs: Vec<Vec<TxnLog>> = vec![Vec::new(); heads.0.len()];
        for id in 0..BATCH {
            for (i, log) in heads
                .process(&mut fresh_flows.packet(id))
                .into_iter()
                .enumerate()
            {
                logs[i].extend(log);
            }
        }
        for stage_logs in logs.into_iter().filter(|l| !l.is_empty()) {
            let copy = engine_store(spec);
            let max = MaxVector::new(copy.partitions());
            applies += stage_logs.len() as u64;
            let t0 = Instant::now();
            for log in &stage_logs {
                black_box(max.offer(&log.deps, &log.writes, &*copy));
            }
            apply_total += t0.elapsed();
        }
    }
    let apply_ns = if applies == 0 {
        0.0
    } else {
        apply_total.as_nanos() as f64 / applies as f64
    };

    let (mut tx, mut rx) = reliable_pair(&Endpoint::in_proc());
    let reliable_hop_ns = time_batches(rounds, frames, |f| {
        tx.send(f).expect("in-process link stays up");
        let got = rx
            .recv_timeout(Duration::ZERO)
            .expect("in-process link stays up");
        black_box(got.expect("ideal link delivers at once"));
    });

    let mut nic = Nic::new(1, spec.chain_config().nic_queue_depth);
    let queue = nic.take_queue(0);
    let nic_dispatch_ns = time_batches(rounds, frames, |f| {
        nic.dispatch(f);
        black_box(queue.try_recv().expect("dispatched frame is queued"));
    });

    LayerCosts {
        parse_ns,
        trailer_attach_ns,
        trailer_detach_ns,
        trailer_len: steady.wire_len(),
        frame_codec_ns,
        txn_ns,
        process_ns,
        apply_ns,
        reliable_hop_ns,
        nic_dispatch_ns,
    }
}

//! Deterministic async-transport model checker for the socket backend.
//!
//! [`crate::protocol`] explores the *chain protocol* over an abstract
//! transport; this module explores the *transport itself*. It drives the
//! real `ftc_net::sock` backend — reader/writer tasks, demux router,
//! learned-source replies, dial backoff, the reliable layer's RTO/NACK
//! machinery, and the RPC correlation dispatcher — under the vendored
//! tokio's [det mode](tokio::det): a seeded single-threaded step-executor
//! with virtual time and in-memory [`tokio::sim`] sockets. Nothing here is
//! a model of `sock.rs`; every schedule runs the production code.
//!
//! Each schedule is a **fault plan × seed** pair. The plan pins *what*
//! goes wrong (connection reset at a protocol point, partial write at a
//! frame boundary, refused dials, duplicate-inducing ACK loss); the seed
//! pins every remaining nondeterministic decision — task interleaving,
//! sim-socket read sizes, driver action order — via [`tokio::det::choose`].
//! A run is therefore replayed exactly from the printed witness string
//! (see [`replay`]), with no trace serialization.
//!
//! Properties checked on every schedule:
//!
//! * **T1 — exactly-once, in-order delivery.** Both reliable streams
//!   deliver `0..N` gaplessly, in order, without duplicates, across every
//!   injected reset.
//! * **T2 — RPC correlation.** Every completed call's response matches its
//!   own request (no cross-call leakage through the shared dispatcher);
//!   on fault-free plans every call must complete.
//! * **T3 — reconnect convergence.** After the fault schedule ends, all
//!   in-flight traffic converges within a bounded virtual-time window: no
//!   frame may end up acknowledged-by-nobody and silently dropped.
//! * **T4 — no deadlock/livelock.** The executor's step budget is never
//!   exhausted and every schedule quiesces (nothing runnable unless
//!   virtual time moves) once traffic completes.

use bytes::{Bytes, BytesMut};
use ftc_net::sock::{SockNode, SockRpcCaller, SockTransport};
use ftc_net::transport::{Endpoint, PeerAddr};
use std::collections::HashSet;
use std::fmt;
use std::time::Duration;
use tokio::det;
use tokio::sim;

/// Messages sent on each reliable stream per schedule.
const N_MSGS: u32 = 5;
/// Pipelined RPC calls started per schedule.
const N_CALLS: usize = 3;
/// Virtual-time budget for post-fault convergence (T3).
const CONVERGE_BUDGET: Duration = Duration::from_secs(3);
/// Virtual-time budget for reaching quiescence after convergence (T4).
const QUIESCE_BUDGET: Duration = Duration::from_millis(200);
/// Per-call RPC timeout (virtual).
const RPC_TIMEOUT: Duration = Duration::from_millis(500);

/// One injected fault, fired when the driver reaches a given action index.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Break every sim connection (wire-level reset, both directions).
    CutAll,
    /// Break one connection by establishment order.
    CutConn(usize),
    /// Partial write: direction of connection `idx` breaks after `after`
    /// more bytes — mid length-prefix, mid header, or mid payload
    /// depending on `after`.
    CutAfter {
        idx: usize,
        client_to_server: bool,
        after: usize,
    },
    /// Local hard-kill of one node's connections (cancel handles), as the
    /// process-respawn path does.
    KillNode(Which),
    /// Drop every frame queued for `stream` on one node — loses buffered
    /// ACK/NACK control traffic, forcing RTO + duplicate re-ACK recovery.
    DrainStream(Which, u16),
}

/// Which endpoint a node-local fault targets.
#[derive(Debug, Clone, Copy)]
enum Which {
    A,
    B,
}

/// A named fault schedule: optionally refuse the first dials, then fire
/// faults at fixed driver-action indices. Plans are static so a witness's
/// `plan=` token alone pins the fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Stable name, printed in witnesses and accepted by [`replay`].
    pub name: &'static str,
    refuse_first: u32,
    fires: &'static [(u32, Fault)],
}

/// The built-in fault-plan matrix: reset at early/mid/late protocol
/// points, both wire-level and node-local, partial writes at each frame
/// boundary, refused dials, and control-traffic loss.
pub fn plans() -> &'static [FaultPlan] {
    const PLANS: &[FaultPlan] = &[
        FaultPlan {
            name: "none",
            refuse_first: 0,
            fires: &[],
        },
        FaultPlan {
            name: "reset_wire_early",
            refuse_first: 0,
            fires: &[(2, Fault::CutAll)],
        },
        FaultPlan {
            name: "reset_wire_mid",
            refuse_first: 0,
            fires: &[(8, Fault::CutAll)],
        },
        FaultPlan {
            name: "reset_wire_late",
            refuse_first: 0,
            fires: &[(20, Fault::CutAll)],
        },
        FaultPlan {
            name: "reset_double",
            refuse_first: 0,
            fires: &[(4, Fault::CutAll), (14, Fault::CutAll)],
        },
        FaultPlan {
            name: "reset_local_a",
            refuse_first: 0,
            fires: &[(8, Fault::KillNode(Which::A))],
        },
        FaultPlan {
            name: "reset_local_b",
            refuse_first: 0,
            fires: &[(8, Fault::KillNode(Which::B))],
        },
        FaultPlan {
            name: "partial_len_prefix",
            refuse_first: 0,
            fires: &[(
                3,
                Fault::CutAfter {
                    idx: 0,
                    client_to_server: true,
                    after: 2,
                },
            )],
        },
        FaultPlan {
            name: "partial_header",
            refuse_first: 0,
            fires: &[(
                3,
                Fault::CutAfter {
                    idx: 0,
                    client_to_server: true,
                    after: 15,
                },
            )],
        },
        FaultPlan {
            name: "partial_reply",
            refuse_first: 0,
            fires: &[(
                8,
                Fault::CutAfter {
                    idx: 0,
                    client_to_server: false,
                    after: 6,
                },
            )],
        },
        FaultPlan {
            name: "dial_refused",
            refuse_first: 2,
            fires: &[],
        },
        FaultPlan {
            name: "reset_then_cut_b_dial",
            refuse_first: 0,
            fires: &[(6, Fault::CutConn(1)), (12, Fault::CutAll)],
        },
        FaultPlan {
            name: "drain_acks",
            refuse_first: 0,
            fires: &[(10, Fault::DrainStream(Which::A, STREAM_AB))],
        },
    ];
    PLANS
}

/// Configuration for one [`explore`] sweep.
#[derive(Debug, Clone, Copy)]
pub struct AsyncCheckConfig {
    /// Seeds explored per fault plan.
    pub seeds_per_plan: u64,
    /// First seed; seed `base_seed + i` is used for the i-th run of every
    /// plan, so witnesses stay replayable from `(plan, seed)` alone.
    pub base_seed: u64,
    /// Poll budget per schedule; exhaustion is a T4 (livelock) verdict.
    pub step_budget: u64,
    /// Chooser-driven driver actions per schedule before convergence.
    pub driver_ops: u32,
    /// Stop collecting after this many witnesses (exploration continues).
    pub max_witnesses: usize,
}

impl Default for AsyncCheckConfig {
    fn default() -> AsyncCheckConfig {
        AsyncCheckConfig {
            seeds_per_plan: 6,
            base_seed: 0xf7c0_0001,
            step_budget: 200_000,
            driver_ops: 60,
            max_witnesses: 8,
        }
    }
}

impl AsyncCheckConfig {
    /// The PR-gate configuration: ≥ 1000 distinct schedules across the
    /// plan matrix (13 plans × 96 seeds).
    pub fn gate() -> AsyncCheckConfig {
        AsyncCheckConfig {
            seeds_per_plan: 96,
            ..AsyncCheckConfig::default()
        }
    }

    /// The nightly deep-exploration configuration.
    pub fn deep() -> AsyncCheckConfig {
        AsyncCheckConfig {
            seeds_per_plan: 512,
            ..AsyncCheckConfig::default()
        }
    }
}

/// A failed schedule, replayable via [`replay`] from its `Display` form.
#[derive(Debug, Clone)]
pub struct TransportWitness {
    /// Fault-plan name ([`FaultPlan::name`]).
    pub plan: String,
    /// The det-mode seed that reproduces the schedule.
    pub seed: u64,
    /// Which property failed: `"T1"`..`"T4"`.
    pub property: &'static str,
    /// Human-readable failure detail.
    pub detail: String,
}

impl fmt::Display for TransportWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan={} seed={:#018x} property={}: {}",
            self.plan, self.seed, self.property, self.detail
        )
    }
}

/// Outcome of an [`explore`] sweep.
#[derive(Debug, Default)]
pub struct TransportReport {
    /// Schedules executed (plans × seeds).
    pub schedules: u64,
    /// Distinct `(plan, choice-trace)` fingerprints among them.
    pub distinct_traces: usize,
    /// Total executor polls across all schedules.
    pub total_steps: u64,
    /// Failing schedules (empty on a clean sweep), capped at
    /// [`AsyncCheckConfig::max_witnesses`].
    pub witnesses: Vec<TransportWitness>,
}

impl TransportReport {
    /// True when every schedule satisfied T1–T4.
    pub fn passed(&self) -> bool {
        self.witnesses.is_empty()
    }
}

impl fmt::Display for TransportReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "async-transport check: {} schedules ({} distinct traces), {} steps: {}",
            self.schedules,
            self.distinct_traces,
            self.total_steps,
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        for w in &self.witnesses {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

const STREAM_AB: u16 = 7;
const STREAM_BA: u16 = 8;
const STREAM_RPC: u16 = 9;

/// Explore the full plan matrix under `cfg`, running every schedule
/// against the real socket backend. Deterministic: equal configs produce
/// equal reports.
pub fn explore(cfg: &AsyncCheckConfig) -> TransportReport {
    let mut report = TransportReport::default();
    let mut traces: HashSet<(usize, u64)> = HashSet::new();
    for (pi, plan) in plans().iter().enumerate() {
        for s in 0..cfg.seeds_per_plan {
            let seed = cfg.base_seed.wrapping_add(s);
            let (stats, failure) = run_schedule(plan, seed, cfg);
            report.schedules += 1;
            report.total_steps += stats.steps;
            traces.insert((pi, stats.trace_hash));
            if let Some(w) = failure {
                if report.witnesses.len() < cfg.max_witnesses {
                    report.witnesses.push(w);
                }
            }
        }
    }
    report.distinct_traces = traces.len();
    report
}

/// Re-run one schedule from a printed witness string (`plan=<name>
/// seed=<hex>`; other tokens are ignored). Returns the reproduced witness,
/// or `None` if the schedule now passes.
pub fn replay(spec: &str) -> Result<Option<TransportWitness>, String> {
    let mut plan_name = None;
    let mut seed = None;
    for tok in spec.split_whitespace() {
        if let Some(p) = tok.strip_prefix("plan=") {
            plan_name = Some(p.to_string());
        } else if let Some(sv) = tok.strip_prefix("seed=") {
            let sv = sv.trim_start_matches("0x");
            seed = Some(u64::from_str_radix(sv, 16).map_err(|e| format!("bad seed {sv:?}: {e}"))?);
        }
    }
    let plan_name = plan_name.ok_or("witness spec missing plan= token")?;
    let seed = seed.ok_or("witness spec missing seed= token")?;
    let plan = plans()
        .iter()
        .find(|p| p.name == plan_name)
        .ok_or_else(|| format!("unknown fault plan {plan_name:?}"))?;
    let (_, failure) = run_schedule(plan, seed, &AsyncCheckConfig::default());
    Ok(failure)
}

struct RunStats {
    steps: u64,
    trace_hash: u64,
}

struct CallSlot {
    req: String,
    pending: Option<ftc_net::sock::PendingCall>,
    outcome: Option<Result<Bytes, ftc_net::rpc::RpcError>>,
}

/// Drive one full schedule: wire two nodes over sim sockets, run the
/// chooser-picked driver actions with the plan's faults fired at their
/// action indices, then converge and check T1–T4.
fn run_schedule(
    plan: &FaultPlan,
    seed: u64,
    cfg: &AsyncCheckConfig,
) -> (RunStats, Option<TransportWitness>) {
    // Declared first so it drops last: task futures (which hold the nodes'
    // shared state) are torn down only after the local handles go away.
    let _guard = det::enter(seed, cfg.step_budget);
    let fail = |property: &'static str, detail: String| TransportWitness {
        plan: plan.name.to_string(),
        seed,
        property,
        detail,
    };

    if plan.refuse_first > 0 {
        sim::refuse_next("chk-b", plan.refuse_first);
    }
    let addr_a = PeerAddr::Sim("chk-a".to_string());
    let addr_b = PeerAddr::Sim("chk-b".to_string());
    let node_a = SockNode::bind(&addr_a).expect("bind sim a");
    let node_b = SockNode::bind(&addr_b).expect("bind sim b");
    let ta = SockTransport::new(node_a.clone());
    let tb = SockTransport::new(node_b.clone());
    let ep_a = Endpoint::sock(addr_a);
    let ep_b = Endpoint::sock(addr_b);

    // Two reliable streams in opposite directions plus a pipelined RPC
    // channel, all multiplexed over the same connection pair.
    let mut tx_ab = ta.open_tx(&ep_b, STREAM_AB);
    let mut rx_ab = tb.open_rx(STREAM_AB);
    let mut tx_ba = tb.open_tx(&ep_a, STREAM_BA);
    let mut rx_ba = ta.open_rx(STREAM_BA);
    let caller = SockRpcCaller::connect(&node_a, &ep_b, STREAM_RPC);
    let mut responder = tb.rpc_responder(STREAM_RPC);

    let mut sent_a = 0u32;
    let mut sent_b = 0u32;
    let mut got_a: Vec<u32> = Vec::new(); // delivered on b from a
    let mut got_b: Vec<u32> = Vec::new(); // delivered on a from b
    let mut calls: Vec<CallSlot> = Vec::new();
    let mut handler = |req: Bytes| {
        let mut out = BytesMut::from(req.as_ref());
        out.extend_from_slice(b"-pong");
        out.freeze()
    };

    let payload = |i: u32| BytesMut::from(&i.to_be_bytes()[..]);
    let read_u32 = |b: &[u8]| u32::from_be_bytes(b[..4].try_into().expect("4-byte payload"));

    macro_rules! drain {
        ($rx:expr, $into:expr) => {
            while let Ok(Some(p)) = $rx.recv_timeout(Duration::ZERO) {
                $into.push(read_u32(&p));
            }
        };
    }
    macro_rules! pump_calls {
        () => {
            for c in calls.iter_mut() {
                if let Some(pc) = c.pending.as_mut() {
                    if let Some(out) = pc.try_complete() {
                        c.outcome = Some(out);
                        c.pending = None;
                    }
                }
            }
        };
    }

    // Chooser-driven driver phase: faults fire at fixed action indices so
    // the plan name alone pins *when* each fault lands relative to the
    // driver's protocol progress.
    for op in 0..cfg.driver_ops {
        for (at, fault) in plan.fires {
            if *at == op {
                apply_fault(*fault, &node_a, &node_b);
            }
        }
        match det::choose(9) {
            0 => {
                if sent_a < N_MSGS {
                    tx_ab.send(payload(sent_a)).expect("send a->b");
                    sent_a += 1;
                }
            }
            1 => {
                if sent_b < N_MSGS {
                    tx_ba.send(payload(sent_b)).expect("send b->a");
                    sent_b += 1;
                }
            }
            2 => {
                tx_ab.poll().expect("poll a->b");
                tx_ba.poll().expect("poll b->a");
            }
            3 => drain!(rx_ab, got_a),
            4 => drain!(rx_ba, got_b),
            5 => {
                if calls.len() < N_CALLS {
                    let req = format!("ping{}", calls.len());
                    let pc = caller.call_start(Bytes::copy_from_slice(req.as_bytes()), RPC_TIMEOUT);
                    calls.push(CallSlot {
                        req,
                        pending: Some(pc),
                        outcome: None,
                    });
                } else {
                    pump_calls!();
                }
            }
            6 => {
                let _ = responder.serve_next_bytes(Duration::from_millis(1), &mut handler);
            }
            7 => {
                det::step();
            }
            _ => det::advance(Duration::from_millis(2)),
        }
        if det::budget_exhausted() {
            return (
                stats(),
                Some(fail(
                    "T4",
                    format!("step budget exhausted during driver phase (op {op})"),
                )),
            );
        }
    }

    // Finish the workload regardless of what the chooser got to.
    while sent_a < N_MSGS {
        tx_ab.send(payload(sent_a)).expect("send a->b");
        sent_a += 1;
    }
    while sent_b < N_MSGS {
        tx_ba.send(payload(sent_b)).expect("send b->a");
        sent_b += 1;
    }
    while calls.len() < N_CALLS {
        let req = format!("ping{}", calls.len());
        let pc = caller.call_start(Bytes::copy_from_slice(req.as_bytes()), RPC_TIMEOUT);
        calls.push(CallSlot {
            req,
            pending: Some(pc),
            outcome: None,
        });
    }

    // Convergence phase (T3/T4): pump everything under a virtual-time
    // budget. The reliable layer's RTO + redial must recover whatever the
    // fault schedule destroyed.
    let conv_deadline = det::now_ns() + CONVERGE_BUDGET.as_nanos() as u64;
    loop {
        let streams_done = got_a.len() == N_MSGS as usize && got_b.len() == N_MSGS as usize;
        let calls_done = calls.iter().all(|c| c.outcome.is_some());
        if streams_done && calls_done {
            break;
        }
        if det::budget_exhausted() {
            return (
                stats(),
                Some(fail(
                    "T4",
                    format!(
                        "step budget exhausted before convergence \
                         (a->b {}/{N_MSGS}, b->a {}/{N_MSGS})",
                        got_a.len(),
                        got_b.len()
                    ),
                )),
            );
        }
        if det::now_ns() > conv_deadline {
            return (
                stats(),
                Some(fail(
                    "T3",
                    format!(
                        "no convergence within {CONVERGE_BUDGET:?} virtual time: \
                         a->b delivered {}/{N_MSGS} (in flight {}), \
                         b->a delivered {}/{N_MSGS} (in flight {}), \
                         calls unresolved {}",
                        got_a.len(),
                        tx_ab.in_flight(),
                        got_b.len(),
                        tx_ba.in_flight(),
                        calls.iter().filter(|c| c.outcome.is_none()).count()
                    ),
                )),
            );
        }
        tx_ab.poll().expect("poll a->b");
        tx_ba.poll().expect("poll b->a");
        drain!(rx_ab, got_a);
        drain!(rx_ba, got_b);
        let _ = responder.serve_next_bytes(Duration::from_millis(1), &mut handler);
        pump_calls!();
        if !det::step() {
            det::advance(Duration::from_millis(1));
        }
    }

    // T1: exactly-once in-order delivery on both streams.
    let expect: Vec<u32> = (0..N_MSGS).collect();
    if got_a != expect {
        return (
            stats(),
            Some(fail(
                "T1",
                format!("a->b stream delivered {got_a:?}, want {expect:?}"),
            )),
        );
    }
    if got_b != expect {
        return (
            stats(),
            Some(fail(
                "T1",
                format!("b->a stream delivered {got_b:?}, want {expect:?}"),
            )),
        );
    }

    // T2: every completed call's response is its own; on fault-free plans
    // a timeout is itself a failure.
    let faultless = plan.fires.is_empty() && plan.refuse_first == 0;
    for c in &calls {
        match c.outcome.as_ref().expect("calls resolved above") {
            Ok(resp) => {
                let want = format!("{}-pong", c.req);
                if resp.as_ref() != want.as_bytes() {
                    return (
                        stats(),
                        Some(fail(
                            "T2",
                            format!(
                                "call {:?} got response {:?}, want {want:?}",
                                c.req,
                                String::from_utf8_lossy(resp)
                            ),
                        )),
                    );
                }
            }
            Err(e) if faultless => {
                return (
                    stats(),
                    Some(fail(
                        "T2",
                        format!("call {:?} failed ({e:?}) on a fault-free plan", c.req),
                    )),
                );
            }
            Err(_) => {} // a request lost to an injected reset may time out
        }
    }

    // T4: the system must quiesce — nothing runnable unless virtual time
    // moves (periodic idle timers excluded by `quiesced_now`).
    let quiesced = det::block_until(Some(QUIESCE_BUDGET), || det::quiesced_now().then_some(()));
    if quiesced.is_none() {
        return (
            stats(),
            Some(fail(
                "T4",
                format!(
                    "executor did not quiesce within {QUIESCE_BUDGET:?} after convergence \
                     (budget exhausted: {})",
                    det::budget_exhausted()
                ),
            )),
        );
    }

    (stats(), None)
}

fn stats() -> RunStats {
    RunStats {
        steps: det::steps(),
        trace_hash: det::trace_hash(),
    }
}

fn apply_fault(fault: Fault, node_a: &SockNode, node_b: &SockNode) {
    match fault {
        Fault::CutAll => sim::cut_all(),
        Fault::CutConn(idx) => sim::cut_conn(idx),
        Fault::CutAfter {
            idx,
            client_to_server,
            after,
        } => sim::cut_conn_after(idx, client_to_server, after),
        Fault::KillNode(Which::A) => node_a.kill_connections(),
        Fault::KillNode(Which::B) => node_b.kill_connections(),
        Fault::DrainStream(Which::A, stream) => {
            node_a.drain_stream(stream);
        }
        Fault::DrainStream(Which::B, stream) => {
            node_b.drain_stream(stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_faultless_schedule_passes() {
        let plan = &plans()[0];
        assert_eq!(plan.name, "none");
        let (st, failure) = run_schedule(plan, 1, &AsyncCheckConfig::default());
        assert!(failure.is_none(), "{}", failure.unwrap());
        assert!(st.steps > 0, "executor must actually run tasks");
    }

    #[test]
    fn same_schedule_same_trace() {
        let plan = &plans()[2];
        let cfg = AsyncCheckConfig::default();
        let (a, _) = run_schedule(plan, 42, &cfg);
        let (b, _) = run_schedule(plan, 42, &cfg);
        assert_eq!(a.trace_hash, b.trace_hash, "same (plan, seed) must replay");
        let (c, _) = run_schedule(plan, 43, &cfg);
        assert_ne!(a.trace_hash, c.trace_hash, "seeds must diverge");
    }

    #[test]
    fn witness_spec_round_trips() {
        let w = TransportWitness {
            plan: "reset_wire_mid".into(),
            seed: 0xdead_beef,
            property: "T3",
            detail: "x".into(),
        };
        let spec = w.to_string();
        // Parsing back must find the plan and seed even with extra tokens.
        let err = replay(&spec);
        assert!(err.is_ok(), "{err:?}");
    }

    #[test]
    fn replay_rejects_garbage() {
        assert!(replay("plan=does_not_exist seed=0x1").is_err());
        assert!(replay("seed=0x1").is_err());
        assert!(replay("plan=none").is_err());
        assert!(replay("plan=none seed=0xzz").is_err());
    }
}

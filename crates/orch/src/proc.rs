//! Multi-process chain deployment: one OS process per replica, sockets in
//! between.
//!
//! The in-process [`FtcChain`](ftc_core::FtcChain) wires replicas with
//! in-memory channels; this module deploys the *same* protocol code as N
//! OS processes speaking the socket transport ([`ftc_net::sock`]). The
//! parent process hosts the chain edges — the forwarder (ingress) and the
//! buffer (egress) — while each `ftc node` child process hosts one replica.
//! Nothing above the transport layer changes: every process runs the same
//! data-plane loop ([`spawn_dataplane`]) as the in-process chain, over
//! [`OutPort`]/[`InPort`]/[`CtrlServer`] handles that happen to be
//! socket-backed. A replica process runs it with the socket in-port as its
//! source; the parent runs it twice, with no replica in between — an
//! ingress loop (ingress → forwarder → socket edge to replica 0) and an
//! egress loop (tail edge → buffer).
//!
//! # Socket and stream conventions
//!
//! All processes of a deployment rendezvous through Unix sockets in one
//! runtime directory: replica `i` listens at `node-<i>.sock`, the parent at
//! `parent.sock`. Logical streams are multiplexed per connection by the
//! unified frame codec; stream ids are assigned so that no process ever
//! hosts a reliable sender and a reliable receiver on the same stream id
//! (each half consumes frames of the other's kind from a shared per-stream
//! queue, so collocation would lose frames):
//!
//! | stream            | contents                                    |
//! |-------------------|---------------------------------------------|
//! | `1 + i`           | data edge into replica `i` (and its ACKs)   |
//! | `1 + n`           | data edge tail replica → parent buffer      |
//! | `0x1000 + i`      | replica control (`CtrlReq`) served by `i`   |
//! | `0x2000 + i`      | node management (`NodeReq`) served by `i`   |
//!
//! Replica-control streams assume one caller at a time (learned-source
//! response routing): the parent only calls them for `Resume`, after the
//! recovering node's state fetches have finished.
//!
//! # Failure and recovery
//!
//! [`ProcChain::kill`] SIGKILLs a replica process — a genuine fail-stop.
//! [`ProcChain::recover`] mirrors the §5.2 three steps across the process
//! boundary: **initialization** respawns `ftc node … --recover`;
//! **state recovery** happens inside the replacement, which runs
//! [`ftc_core::replace::replace`] on itself — the same source order,
//! fallback and restore as every other replacement — fetching each batch
//! of groups from the survivors over their control sockets (quiescing
//! them, §4.1) before it answers on its management stream; a replacement
//! that cannot recover exits, and the parent reports the exit.
//! **Rerouting** installs fresh reliable endpoints on the two edges around
//! the replacement — the predecessor's sender first, then the receivers,
//! with stale-epoch frames drained in between — and finally resumes every
//! live replica, on success and failure alike.
//!
//! Only recovery crosses the process boundary. Migrate and scale would put
//! two incarnations of one position up at once, and both would bind
//! `node-<i>.sock`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{self, Receiver, Sender};
use ftc_core::buffer::{BufferSink, BufferState};
use ftc_core::chain::{ChainSystem, Egress};
use ftc_core::config::ChainConfig;
use ftc_core::control::{CtrlClient, CtrlReq, CtrlResp, CtrlServer, InPort, OutPort};
use ftc_core::dataplane::{spawn_dataplane, Source, Stage};
use ftc_core::forwarder::ForwarderState;
use ftc_core::journal::{EventKind, EventSource};
use ftc_core::metrics::{ChainMetrics, MetricsSnapshot, StageStats};
use ftc_core::probe::{ProbePoint, ProbeVerdict};
use ftc_core::replace::{by_source, replace, Driver, Land, Plan};
use ftc_core::replica::{spawn_ctrl, ReplicaState};
use ftc_mbox::parse_chain;
use ftc_net::rpc::RpcError;
use ftc_net::sock::{SockNode, SockTransport};
use ftc_net::topology::RegionId;
use ftc_net::{link_pair, Endpoint, PeerAddr, RpcCaller, Server};
use ftc_packet::Packet;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream carrying data into replica `i` (and, on the sender's side, the
/// ACK/NACKs coming back for that edge).
fn data_stream(i: usize) -> u16 {
    1 + i as u16
}

/// Stream carrying the tail replica's output into the parent's buffer.
fn tail_stream(n: usize) -> u16 {
    1 + n as u16
}

/// Replica-control stream ([`CtrlReq`]) served by replica `i`.
fn repl_ctrl_stream(i: usize) -> u16 {
    0x1000 + i as u16
}

/// Node-management stream ([`NodeReq`]) served by replica `i`.
fn node_ctrl_stream(i: usize) -> u16 {
    0x2000 + i as u16
}

/// Unix socket address of replica process `i` in `dir`.
pub fn node_addr(dir: &Path, i: usize) -> PeerAddr {
    PeerAddr::Uds(dir.join(format!("node-{i}.sock")))
}

/// Unix socket address of the parent (forwarder + buffer) process.
pub fn parent_addr(dir: &Path) -> PeerAddr {
    PeerAddr::Uds(dir.join("parent.sock"))
}

// ---------------------------------------------------------------------------
// Node-management protocol (parent → replica process).
// ---------------------------------------------------------------------------

/// A management request to a replica process. Distinct from [`CtrlReq`]:
/// control requests are part of the FTC protocol (§4.1/§5.2), management
/// requests operate the *process* — liveness, rerouting, stats, shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeReq {
    /// Liveness probe. A replacement only answers once state recovery is
    /// done, so the first `Pong` doubles as the ready signal.
    Ping,
    /// Install a fresh reliable sender on the outgoing data edge (the
    /// successor was respawned; its receiver restarts at sequence zero).
    ResetOut,
    /// Install a fresh reliable receiver on the incoming data edge,
    /// discarding frames queued from the dead predecessor's epoch.
    ResetIn,
    /// Report the node-local metrics counters.
    Stats,
    /// Stop the replica and exit the process.
    Shutdown,
}

/// A management response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeResp {
    /// Alive (and, for a replacement, recovered).
    Pong,
    /// The requested action completed.
    Done,
    /// Node-local counters.
    Stats(NodeStats),
}

/// The replica-side slice of the chain metrics: the stages and counters
/// that live in the node processes (the parent holds the forwarder and
/// buffer stages itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Piggyback logs applied at this replica.
    pub logs_applied: u64,
    /// Piggyback trailer bytes attached at this replica's head role.
    pub piggyback_bytes: u64,
    /// Packets that carried a trailer out of this replica.
    pub piggyback_count: u64,
    /// Frames handled by this process's data-plane loops.
    pub loop_frames: u64,
    /// Wakes of those loops that returned at least one frame.
    pub loop_bursts: u64,
    /// Blocking receives of those loops that returned empty.
    pub loop_idle_polls: u64,
    /// Data-plane loop threads running in this process.
    pub dataplane_threads: u64,
    /// Table-2 stage: middlebox transaction execution.
    pub transaction: StageStats,
    /// Table-2 stage: piggyback construction.
    pub piggyback: StageStats,
    /// Table-2 stage: log application.
    pub apply: StageStats,
}

const REQ_PING: u8 = 1;
const REQ_RESET_OUT: u8 = 2;
const REQ_RESET_IN: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const RESP_PONG: u8 = 1;
const RESP_DONE: u8 = 2;
const RESP_STATS: u8 = 3;

/// Encodes a management request.
pub fn encode_node_req(req: NodeReq) -> Bytes {
    let tag = match req {
        NodeReq::Ping => REQ_PING,
        NodeReq::ResetOut => REQ_RESET_OUT,
        NodeReq::ResetIn => REQ_RESET_IN,
        NodeReq::Stats => REQ_STATS,
        NodeReq::Shutdown => REQ_SHUTDOWN,
    };
    Bytes::copy_from_slice(&[tag])
}

/// Decodes a management request (`None` on garbage).
pub fn decode_node_req(b: &[u8]) -> Option<NodeReq> {
    match b {
        [REQ_PING] => Some(NodeReq::Ping),
        [REQ_RESET_OUT] => Some(NodeReq::ResetOut),
        [REQ_RESET_IN] => Some(NodeReq::ResetIn),
        [REQ_STATS] => Some(NodeReq::Stats),
        [REQ_SHUTDOWN] => Some(NodeReq::Shutdown),
        _ => None,
    }
}

fn put_stage(buf: &mut BytesMut, s: &StageStats) {
    buf.put_u64(s.samples);
    buf.put_u64(s.mean_ns);
    buf.put_u64(s.p50_ns);
    buf.put_u64(s.p99_ns);
    buf.put_u64(s.p999_ns);
}

fn take_stage(b: &mut &[u8]) -> Option<StageStats> {
    if b.remaining() < 5 * 8 {
        return None;
    }
    Some(StageStats {
        samples: b.get_u64(),
        mean_ns: b.get_u64(),
        p50_ns: b.get_u64(),
        p99_ns: b.get_u64(),
        p999_ns: b.get_u64(),
    })
}

/// Encodes a management response.
pub fn encode_node_resp(resp: &NodeResp) -> Bytes {
    let mut buf = BytesMut::new();
    match resp {
        NodeResp::Pong => buf.put_u8(RESP_PONG),
        NodeResp::Done => buf.put_u8(RESP_DONE),
        NodeResp::Stats(s) => {
            buf.put_u8(RESP_STATS);
            buf.put_u64(s.logs_applied);
            buf.put_u64(s.piggyback_bytes);
            buf.put_u64(s.piggyback_count);
            buf.put_u64(s.loop_frames);
            buf.put_u64(s.loop_bursts);
            buf.put_u64(s.loop_idle_polls);
            buf.put_u64(s.dataplane_threads);
            put_stage(&mut buf, &s.transaction);
            put_stage(&mut buf, &s.piggyback);
            put_stage(&mut buf, &s.apply);
        }
    }
    buf.freeze()
}

/// Decodes a management response (`None` unless the bytes are exactly one
/// response).
pub fn decode_node_resp(mut b: &[u8]) -> Option<NodeResp> {
    if !b.has_remaining() {
        return None;
    }
    let resp = match b.get_u8() {
        RESP_PONG => NodeResp::Pong,
        RESP_DONE => NodeResp::Done,
        RESP_STATS => {
            if b.remaining() < 7 * 8 {
                return None;
            }
            NodeResp::Stats(NodeStats {
                logs_applied: b.get_u64(),
                piggyback_bytes: b.get_u64(),
                piggyback_count: b.get_u64(),
                loop_frames: b.get_u64(),
                loop_bursts: b.get_u64(),
                loop_idle_polls: b.get_u64(),
                dataplane_threads: b.get_u64(),
                transaction: take_stage(&mut b)?,
                piggyback: take_stage(&mut b)?,
                apply: take_stage(&mut b)?,
            })
        }
        _ => return None,
    };
    (!b.has_remaining()).then_some(resp)
}

/// Typed management client over any byte-level RPC caller.
pub struct NodeCtl {
    inner: Box<dyn RpcCaller>,
}

impl NodeCtl {
    /// Wraps a byte-level caller.
    pub fn new(inner: Box<dyn RpcCaller>) -> NodeCtl {
        NodeCtl { inner }
    }

    /// Performs one management request/response exchange.
    pub fn call(&self, req: NodeReq, timeout: Duration) -> Result<NodeResp, RpcError> {
        let resp = self.inner.call_bytes(encode_node_req(req), timeout)?;
        decode_node_resp(resp.as_ref()).ok_or(RpcError::Disconnected)
    }
}

// ---------------------------------------------------------------------------
// The replica process (`ftc node`).
// ---------------------------------------------------------------------------

/// Options for one replica process, mirrored by the `ftc node` CLI flags.
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// Chain spec (same grammar as every other subcommand); all processes
    /// of a deployment must be given the identical spec.
    pub chain: String,
    /// Failures to tolerate.
    pub f: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// This process's position in the effective chain.
    pub idx: usize,
    /// Runtime directory holding the deployment's Unix sockets.
    pub dir: PathBuf,
    /// Replacement mode: fetch state from the survivors before serving.
    pub recover: bool,
}

/// Runs one replica as the current process: binds `node-<idx>.sock`,
/// wires socket-backed ports to the neighbours, (optionally) recovers
/// state, spawns the data-plane loop and the control thread, and serves management
/// requests until [`NodeReq::Shutdown`]. Blocks for the process lifetime.
pub fn run_node(opts: &NodeOpts) -> Result<(), String> {
    let specs = parse_chain(&opts.chain).map_err(|e| format!("--chain: {e}"))?;
    let cfg = Arc::new(
        ChainConfig::new(specs)
            .with_f(opts.f)
            .with_workers(opts.workers),
    );
    cfg.validate()?;
    let eff = cfg.effective_middleboxes();
    let n = eff.len();
    if opts.idx >= n {
        return Err(format!(
            "--idx {} out of range (effective chain length {n})",
            opts.idx
        ));
    }

    let local = node_addr(&opts.dir, opts.idx);
    let node = SockNode::bind(&local).map_err(|e| format!("binding {local}: {e}"))?;
    let transport = SockTransport::new(node.clone());

    // Outgoing data edge: the successor replica, or the parent's buffer.
    let (next_ep, out_stream) = if opts.idx + 1 < n {
        (
            Endpoint::sock(node_addr(&opts.dir, opts.idx + 1)),
            data_stream(opts.idx + 1),
        )
    } else {
        (Endpoint::sock(parent_addr(&opts.dir)), tail_stream(n))
    };
    // Wired after a recovery, so that a replacement without sources exits
    // before it waits out a dead successor's connect budget.
    let out = Arc::new(OutPort::empty());
    let metrics = Arc::new(ChainMetrics::default());
    let state = ReplicaState::new(
        opts.idx,
        Arc::clone(&cfg),
        eff[opts.idx].build(),
        Arc::clone(&out),
        metrics,
    );

    if opts.recover {
        // Replacement: restore the f + 1 groups from the survivors over
        // their control sockets. The sources quiesce themselves on
        // FetchState; the parent resumes everyone once rerouting is done.
        let peers = (0..n)
            .map(|i| {
                let ep = Endpoint::sock(node_addr(&opts.dir, i)).with_connect_timeout(PEER_TIMEOUT);
                (i != opts.idx).then(|| {
                    CtrlClient::from_caller(transport.rpc_caller(&ep, repl_ctrl_stream(i)))
                })
            })
            .collect();
        let mut me = Replacement {
            state: Arc::clone(&state),
            peers,
        };
        replace(&mut me, opts.idx, Plan::Recover).map_err(|e| format!("state recovery: {e}"))?;
    }
    out.install(transport.open_tx(&next_ep, out_stream));

    let in_port = Arc::new(InPort::wired(transport.open_rx(data_stream(opts.idx))));
    let ctrl = CtrlServer::from_responder(transport.rpc_responder(repl_ctrl_stream(opts.idx)));
    let mut server = Server::new(format!("node{}", opts.idx), RegionId(0));
    let (stage, _nic) = Stage::replica(Arc::clone(&state));
    spawn_dataplane(&mut server, Source::Link(Arc::clone(&in_port)), stage);
    spawn_ctrl(&mut server, Arc::clone(&state), ctrl);

    // Management loop on the main thread. Serving starts only after
    // recovery, so the parent's first successful Ping implies readiness.
    let mut mgmt = transport.rpc_responder(node_ctrl_stream(opts.idx));
    let mut stop = false;
    while !stop {
        // Only a request can set `stop`, so nothing else needs a wake.
        let served = mgmt.serve_next_bytes(Duration::MAX, &mut |req| {
            let resp = match decode_node_req(req.as_ref()) {
                // Garbage is answered like a probe: harmless either way.
                Some(NodeReq::Ping) | None => NodeResp::Pong,
                Some(NodeReq::ResetOut) => {
                    // Stale ACKs from the successor's previous incarnation
                    // must not prune the fresh sender's sequence space.
                    node.drain_stream(out_stream);
                    out.install(transport.open_tx(&next_ep, out_stream));
                    NodeResp::Done
                }
                Some(NodeReq::ResetIn) => {
                    node.drain_stream(data_stream(opts.idx));
                    in_port.install_exclusive(transport.open_rx(data_stream(opts.idx)));
                    NodeResp::Done
                }
                Some(NodeReq::Stats) => {
                    let snap = state.metrics.snapshot();
                    NodeResp::Stats(NodeStats {
                        logs_applied: snap.logs_applied,
                        piggyback_bytes: snap.piggyback_bytes,
                        piggyback_count: snap.piggyback_count,
                        loop_frames: snap.loop_frames,
                        loop_bursts: snap.loop_bursts,
                        loop_idle_polls: snap.loop_idle_polls,
                        dataplane_threads: snap.dataplane_threads,
                        transaction: snap.transaction,
                        piggyback: snap.piggyback,
                        apply: snap.apply,
                    })
                }
                Some(NodeReq::Shutdown) => {
                    stop = true;
                    NodeResp::Done
                }
            };
            encode_node_resp(&resp)
        });
        if served.is_err() {
            break;
        }
    }
    server.kill();
    server.join();
    Ok(())
}

/// Budget for reaching a peer replica: one connect attempt, one ping.
const PEER_TIMEOUT: Duration = Duration::from_millis(500);

/// Budget for one state fetch from a live peer.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// `ftc node --recover` as the [`Driver`] of its own recovery: it fetches
/// and restores; the parent has spawned it and reroutes and resumes
/// around it afterwards, so spawning, killing, installing and resuming
/// are no-ops here.
struct Replacement {
    state: Arc<ReplicaState>,
    /// Control clients of the other replicas, by position.
    peers: Vec<Option<CtrlClient>>,
}

impl Driver for Replacement {
    fn spawn(&mut self, _idx: usize, _workers: Option<usize>) -> Arc<ReplicaState> {
        Arc::clone(&self.state)
    }

    fn fetch(&mut self, reqs: &[(usize, usize)], land: &Land<'_>) {
        // A socket call to a dead peer retries until its whole timeout runs
        // out: a peer that does not answer a ping is skipped instead.
        let alive =
            |c: &CtrlClient| matches!(c.call(CtrlReq::Ping, PEER_TIMEOUT), Ok(CtrlResp::Pong));
        let sources = by_source(reqs)
            .into_iter()
            .map(|(src, idxs)| (self.peers[src].clone().filter(alive), idxs))
            .collect();
        crate::orchestrator::fetch_states(reqs, sources, FETCH_TIMEOUT, land)
    }

    fn kill(&mut self, _idx: usize) {}

    fn install(&mut self, _idx: usize, _dest: Arc<ReplicaState>) {}

    fn resume(&mut self, _positions: &[usize]) {}

    fn probe(&mut self, point: ProbePoint) -> ProbeVerdict {
        self.state.probe.observe(point)
    }

    fn journal(&mut self, kind: EventKind) {
        self.state
            .metrics
            .journal
            .record(EventSource::Orchestrator, kind);
    }
}

// ---------------------------------------------------------------------------
// The parent process.
// ---------------------------------------------------------------------------

/// Configuration for a multi-process chain deployment.
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// Chain spec (see [`parse_chain`] for the grammar).
    pub chain: String,
    /// Failures to tolerate.
    pub f: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Runtime directory for the Unix sockets (created if missing).
    pub dir: PathBuf,
    /// Path to the `ftc` binary used to spawn replica processes.
    pub exe: PathBuf,
}

/// A chain deployed as `n + 1` OS processes: this (parent) process hosts
/// the forwarder and buffer; each replica runs in an `ftc node` child.
/// Implements [`ChainSystem`], so the traffic harness drives it exactly
/// like the in-process chain.
pub struct ProcChain {
    /// The parent's view of the (effective) configuration.
    pub cfg: Arc<ChainConfig>,
    chain_spec: String,
    dir: PathBuf,
    exe: PathBuf,
    node: SockNode,
    transport: SockTransport,
    children: Mutex<Vec<Option<Child>>>,
    /// Parent-side metrics: forwarder and buffer stages, ingress/egress
    /// counters. Merge in the replica-side counters with
    /// [`ProcChain::merged_snapshot`].
    pub metrics: Arc<ChainMetrics>,
    ingress: Sender<BytesMut>,
    ingress_out: Arc<OutPort>,
    tail_in: Arc<InPort>,
    egress_rx: Receiver<Packet>,
    server: Option<Server>,
    repl_ctrl: Mutex<Vec<CtrlClient>>,
    node_ctrl: Mutex<Vec<NodeCtl>>,
}

/// Management-call timeout used by the parent's rerouting steps.
const MGMT_TIMEOUT: Duration = Duration::from_secs(5);

impl ProcChain {
    /// Deploys the chain: binds `parent.sock`, spawns one `ftc node`
    /// process per effective middlebox, and wires the parent-side edges
    /// (forwarder → replica 0, tail replica → buffer).
    pub fn deploy(pc: ProcConfig) -> Result<ProcChain, String> {
        let specs = parse_chain(&pc.chain).map_err(|e| format!("chain spec: {e}"))?;
        let cfg = Arc::new(
            ChainConfig::new(specs)
                .with_f(pc.f)
                .with_workers(pc.workers),
        );
        cfg.validate()?;
        let n = cfg.effective_middleboxes().len();
        std::fs::create_dir_all(&pc.dir).map_err(|e| format!("creating {:?}: {e}", pc.dir))?;

        let local = parent_addr(&pc.dir);
        let node = SockNode::bind(&local).map_err(|e| format!("binding {local}: {e}"))?;
        let transport = SockTransport::new(node.clone());
        let metrics = Arc::new(ChainMetrics::default());

        // Children first: their listeners come up while we wire our side
        // (patient dials wait out the startup race).
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            children.push(Some(spawn_node_proc(
                &pc.exe, &pc.chain, &cfg, i, &pc.dir, false,
            )?));
        }

        // Parent-side data plane: two loops and no replica. The ingress
        // loop runs the forwarder inline and sends into the socket edge
        // toward replica 0; the egress loop reads the tail edge into the
        // buffer, which feeds the forwarder back over an in-process link
        // (both live here).
        let ingress_out = Arc::new(OutPort::wired(
            transport.open_tx(&Endpoint::sock(node_addr(&pc.dir, 0)), data_stream(0)),
        ));
        let tail_in = Arc::new(InPort::wired(transport.open_rx(tail_stream(n))));
        let (fb_tx, fb_rx) = link_pair(&Endpoint::in_proc());
        let feedback_out = Arc::new(OutPort::wired(fb_tx));
        let feedback_in = Arc::new(InPort::wired(fb_rx));
        let (ingress_tx, ingress_rx) = channel::unbounded::<BytesMut>();
        let (egress_tx, egress_rx) = channel::unbounded::<Packet>();
        let forwarder = ForwarderState::new(Arc::clone(&metrics));
        let buffer = BufferState::new(cfg.ring(), egress_tx, feedback_out, Arc::clone(&metrics));

        let mut server = Server::new("gateway".to_string(), RegionId(0));
        spawn_dataplane(
            &mut server,
            Source::Ingress {
                ingress: ingress_rx,
                forwarder,
                feedback: feedback_in,
                propagate_timeout: cfg.propagate_timeout,
            },
            Stage::Port {
                label: "ingress",
                out: Arc::clone(&ingress_out),
                metrics: Arc::clone(&metrics),
            },
        );
        spawn_dataplane(
            &mut server,
            Source::Link(Arc::clone(&tail_in)),
            Stage::Port {
                label: "egress",
                out: Arc::new(OutPort::wired(BufferSink::new(buffer, cfg.resend_period))),
                metrics: Arc::clone(&metrics),
            },
        );

        // Control clients (the callers patient-dial, so this also waits
        // until every child has bound its socket).
        let repl_ctrl = (0..n)
            .map(|i| {
                CtrlClient::from_caller(
                    transport
                        .rpc_caller(&Endpoint::sock(node_addr(&pc.dir, i)), repl_ctrl_stream(i)),
                )
            })
            .collect();
        let node_ctrl = (0..n)
            .map(|i| {
                NodeCtl::new(
                    transport
                        .rpc_caller(&Endpoint::sock(node_addr(&pc.dir, i)), node_ctrl_stream(i)),
                )
            })
            .collect();

        let chain = ProcChain {
            cfg,
            chain_spec: pc.chain,
            dir: pc.dir,
            exe: pc.exe,
            node,
            transport,
            children: Mutex::new(children),
            metrics,
            ingress: ingress_tx,
            ingress_out,
            tail_in,
            egress_rx,
            server: Some(server),
            repl_ctrl: Mutex::new(repl_ctrl),
            node_ctrl: Mutex::new(node_ctrl),
        };

        // Block until every replica answers its management probe: after
        // this, the chain is ready for traffic. (On failure the Drop impl
        // reaps whatever children did come up.)
        let deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..n {
            chain
                .wait_ready(i, deadline)
                .map_err(|e| format!("replica {i} did not come up: {e}"))?;
        }
        Ok(chain)
    }

    fn node_ep(&self, i: usize) -> Endpoint {
        Endpoint::sock(node_addr(&self.dir, i))
    }

    fn spawn_node(&self, idx: usize, recover: bool) -> Result<Child, String> {
        spawn_node_proc(
            &self.exe,
            &self.chain_spec,
            &self.cfg,
            idx,
            &self.dir,
            recover,
        )
    }

    /// Pings replica `idx` until it answers, it exits, or `deadline`.
    fn wait_ready(&self, idx: usize, deadline: Instant) -> Result<(), String> {
        loop {
            let exited = self.children.lock()[idx]
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("replica process exited with {status}"));
            }
            let r = self.node_ctrl.lock()[idx].call(NodeReq::Ping, Duration::from_millis(500));
            match r {
                Ok(NodeResp::Pong) => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err("management ping timed out".to_string())
                }
                _ => {}
            }
        }
    }

    /// Number of replica processes (effective chain length).
    pub fn len(&self) -> usize {
        self.cfg.effective_middleboxes().len()
    }

    /// True if the chain has no replicas (never the case after deploy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Injects an external packet at the chain ingress.
    pub fn inject(&self, pkt: Packet) {
        let _ = self.ingress.send(pkt.into_bytes());
    }

    /// Returns a handle to the chain's egress.
    pub fn egress(&self) -> Egress {
        Egress::new(self.egress_rx.clone())
    }

    /// Fail-stops replica `idx`'s process (SIGKILL — state is lost, which
    /// is the point).
    pub fn kill(&self, idx: usize) {
        if let Some(mut c) = self.children.lock()[idx].take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// True if replica `idx`'s process is running.
    pub fn is_alive(&self, idx: usize) -> bool {
        match self.children.lock()[idx].as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)),
            None => false,
        }
    }

    /// Three-step recovery (§5.2) across the process boundary. See the
    /// module docs for the rerouting order and why it matters.
    pub fn recover(&self, idx: usize) -> Result<(), String> {
        let result = self.respawn_and_reroute(idx);
        // Resume every live replica (idempotent for those that never
        // paused): a replacement that failed may have quiesced some.
        for i in (0..self.len()).filter(|&i| self.is_alive(i)) {
            let _ = self.repl_ctrl.lock()[i].call(CtrlReq::Resume, MGMT_TIMEOUT);
        }
        result
    }

    fn respawn_and_reroute(&self, idx: usize) -> Result<(), String> {
        let n = self.len();
        // Initialization: respawn the position in replacement mode. The
        // replacement performs its own state recovery before serving.
        self.children.lock()[idx] = Some(self.spawn_node(idx, true)?);

        // Retire the dead process's RPC epoch on our side: stale responses
        // must not correlate against fresh request ids.
        self.node.drain_stream(repl_ctrl_stream(idx));
        self.node.drain_stream(node_ctrl_stream(idx));
        self.node_ctrl.lock()[idx] = NodeCtl::new(
            self.transport
                .rpc_caller(&self.node_ep(idx), node_ctrl_stream(idx)),
        );
        self.repl_ctrl.lock()[idx] = CtrlClient::from_caller(
            self.transport
                .rpc_caller(&self.node_ep(idx), repl_ctrl_stream(idx)),
        );
        self.wait_ready(idx, Instant::now() + Duration::from_secs(30))
            .map_err(|e| format!("replacement {idx} not ready: {e}"))?;

        // Rerouting: fresh sender into the replacement first, then fresh
        // receivers downstream of each fresh sender — so every old-epoch
        // frame is either drained or provably never arrives after a drain.
        if idx == 0 {
            self.node.drain_stream(data_stream(0));
            self.ingress_out
                .install(self.transport.open_tx(&self.node_ep(0), data_stream(0)));
        } else {
            self.node_ctrl.lock()[idx - 1]
                .call(NodeReq::ResetOut, MGMT_TIMEOUT)
                .map_err(|e| format!("reset-out at {}: {e:?}", idx - 1))?;
        }
        self.node_ctrl.lock()[idx]
            .call(NodeReq::ResetIn, MGMT_TIMEOUT)
            .map_err(|e| format!("reset-in at {idx}: {e:?}"))?;
        if idx + 1 == n {
            self.node.drain_stream(tail_stream(n));
            self.tail_in
                .install_exclusive(self.transport.open_rx(tail_stream(n)));
        } else {
            self.node_ctrl.lock()[idx + 1]
                .call(NodeReq::ResetIn, MGMT_TIMEOUT)
                .map_err(|e| format!("reset-in at {}: {e:?}", idx + 1))?;
        }
        Ok(())
    }

    /// Chain-wide metrics: the parent's counters (forwarder and buffer
    /// stages, ingress/egress) merged with every replica's node-local
    /// counters. Stage sample counts add up; means are sample-weighted;
    /// percentiles keep the worst observed tail across replicas (exact
    /// cross-process percentiles would need the raw samples).
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let ctls = self.node_ctrl.lock();
        for ctl in ctls.iter() {
            if let Ok(NodeResp::Stats(s)) = ctl.call(NodeReq::Stats, Duration::from_secs(2)) {
                snap.logs_applied += s.logs_applied;
                snap.piggyback_bytes += s.piggyback_bytes;
                snap.piggyback_count += s.piggyback_count;
                snap.loop_frames += s.loop_frames;
                snap.loop_bursts += s.loop_bursts;
                snap.loop_idle_polls += s.loop_idle_polls;
                snap.dataplane_threads += s.dataplane_threads;
                merge_stage(&mut snap.transaction, &s.transaction);
                merge_stage(&mut snap.piggyback, &s.piggyback);
                merge_stage(&mut snap.apply, &s.apply);
            }
        }
        snap.mean_piggyback_bytes = if snap.piggyback_count == 0 {
            0.0
        } else {
            snap.piggyback_bytes as f64 / snap.piggyback_count as f64
        };
        snap
    }
}

fn spawn_node_proc(
    exe: &Path,
    chain_spec: &str,
    cfg: &ChainConfig,
    idx: usize,
    dir: &Path,
    recover: bool,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("node")
        .arg("--chain")
        .arg(chain_spec)
        .arg("--f")
        .arg(cfg.f.to_string())
        .arg("--workers")
        .arg(cfg.workers.to_string())
        .arg("--idx")
        .arg(idx.to_string())
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null());
    if recover {
        cmd.arg("--recover");
    }
    cmd.spawn()
        .map_err(|e| format!("spawning replica {idx} via {exe:?}: {e}"))
}

fn merge_stage(into: &mut StageStats, s: &StageStats) {
    let total = into.samples + s.samples;
    let weighted = into.mean_ns * into.samples + s.mean_ns * s.samples;
    if let Some(mean) = weighted.checked_div(total) {
        into.mean_ns = mean;
    }
    into.samples = total;
    into.p50_ns = into.p50_ns.max(s.p50_ns);
    into.p99_ns = into.p99_ns.max(s.p99_ns);
    into.p999_ns = into.p999_ns.max(s.p999_ns);
}

impl ChainSystem for ProcChain {
    fn inject_pkt(&self, pkt: Packet) {
        self.inject(pkt);
    }

    fn egress_pkt(&self, timeout: Duration) -> Option<Packet> {
        self.egress_rx.recv_timeout(timeout).ok()
    }

    fn system_name(&self) -> &'static str {
        "FTC/proc"
    }
}

impl Drop for ProcChain {
    fn drop(&mut self) {
        // Polite shutdown so the children release their sockets…
        for ctl in self.node_ctrl.lock().iter() {
            let _ = ctl.call(NodeReq::Shutdown, Duration::from_millis(500));
        }
        if let Some(server) = self.server.as_mut() {
            server.kill();
            server.join();
        }
        // …then make sure of it.
        for c in self.children.lock().iter_mut().filter_map(Option::take) {
            let mut c = c;
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_protocol_roundtrips() {
        for req in [
            NodeReq::Ping,
            NodeReq::ResetOut,
            NodeReq::ResetIn,
            NodeReq::Stats,
            NodeReq::Shutdown,
        ] {
            assert_eq!(decode_node_req(encode_node_req(req).as_ref()), Some(req));
        }
        let stats = NodeResp::Stats(NodeStats {
            logs_applied: 7,
            piggyback_bytes: 1024,
            piggyback_count: 16,
            loop_frames: 99,
            loop_bursts: 12,
            loop_idle_polls: 3,
            dataplane_threads: 2,
            transaction: StageStats {
                samples: 5,
                mean_ns: 100,
                p50_ns: 90,
                p99_ns: 200,
                p999_ns: 300,
            },
            piggyback: StageStats::default(),
            apply: StageStats::default(),
        });
        for resp in [NodeResp::Pong, NodeResp::Done, stats] {
            let enc = encode_node_resp(&resp);
            assert_eq!(decode_node_resp(enc.as_ref()), Some(resp.clone()));
            // Exactly its own bytes: no strict prefix, no trailing junk.
            for cut in 0..enc.len() {
                assert_eq!(
                    decode_node_resp(&enc[..cut]),
                    None,
                    "{resp:?}: {cut}-byte prefix"
                );
            }
            for pad in [&[0u8][..], b"junk"] {
                let padded = [enc.as_slice(), pad].concat();
                assert_eq!(
                    decode_node_resp(&padded),
                    None,
                    "{resp:?}: trailing {pad:?}"
                );
            }
        }
        assert_eq!(decode_node_req(b"junk"), None);
        assert_eq!(decode_node_req(&[REQ_PING, 0]), None, "trailing byte");
        assert_eq!(decode_node_resp(&[RESP_STATS, 1, 2]), None, "truncated");
    }

    #[test]
    fn stream_ids_never_collide_per_process() {
        // The invariant behind the numbering: on any single process, the
        // streams it receives on are pairwise distinct (sender and
        // receiver halves share per-stream queues).
        for n in 1..10 {
            for i in 0..n {
                let mut inbound = vec![
                    data_stream(i),      // its data in-edge
                    repl_ctrl_stream(i), // control requests
                    node_ctrl_stream(i), // management requests
                ];
                // ACKs for its out-edge arrive on the out-edge stream.
                inbound.push(if i + 1 < n {
                    data_stream(i + 1)
                } else {
                    tail_stream(n)
                });
                let mut dedup = inbound.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), inbound.len(), "n={n} i={i}: {inbound:?}");
            }
        }
    }

    #[test]
    fn merge_stage_weights_means_and_keeps_worst_tails() {
        let mut a = StageStats {
            samples: 10,
            mean_ns: 100,
            p50_ns: 80,
            p99_ns: 500,
            p999_ns: 900,
        };
        let b = StageStats {
            samples: 30,
            mean_ns: 200,
            p50_ns: 120,
            p99_ns: 400,
            p999_ns: 1500,
        };
        merge_stage(&mut a, &b);
        assert_eq!(a.samples, 40);
        assert_eq!(a.mean_ns, 175, "sample-weighted mean");
        assert_eq!(a.p50_ns, 120);
        assert_eq!(a.p99_ns, 500);
        assert_eq!(a.p999_ns, 1500);
    }
}

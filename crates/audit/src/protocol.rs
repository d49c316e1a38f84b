//! Protocol-level model checker: bounded, deterministic exploration of
//! failure schedules against the real chain objects.
//!
//! The checker drives a miniature chain — forwarder → middleboxes → buffer,
//! built from the *same* protocol state ([`SyncChain`] wires the production
//! [`ReplicaState`](ftc_core::replica::ReplicaState) /
//! [`BufferState`](ftc_core::buffer::BufferState) /
//! [`ForwarderState`](ftc_core::forwarder::ForwarderState) objects without
//! threads) — through every case of a crash matrix under every permutation
//! of the steppable actors (the replicas, the buffer and the forwarder's
//! feedback). Every replacement the matrix needs runs the shipped §5.2
//! procedure, [`ftc_core::replace::replace`], through [`SyncChain`]. The
//! cases fall into families:
//!
//! * **no-crash** — the fault-free baseline;
//! * **step-phase** — a replica fail-stops at the `k`-th observation of a
//!   §6 step phase ([`ProbePoint::PrePiggyback`],
//!   [`ProbePoint::PostApplyPreForward`], [`ProbePoint::PostForward`]),
//!   then is recovered;
//! * **quiesced** — a replica is killed between packets and recovered;
//! * **during-recovery** — the replacement dies at its first fetch and a
//!   fresh one retries;
//! * **source-death** — a fetch source refuses, forcing the §4.1 fallback
//!   (`f ≥ 2`) or a failed first attempt and a retry (`f = 1`);
//! * **double-kill** — two adjacent quiesced kills (`f ≥ 2`);
//! * **handover** — a migrate or scale of one position, quiesced or with
//!   packets in flight, clean or with one participant (the outgoing
//!   instance, the replacement or the orchestrator) fail-stopped at one
//!   phase, then the documented repair: §5.2 recovery of a fail-stopped
//!   position, a plain retry of a rolled-back attempt, nothing for a roll
//!   forward.
//!
//! Every schedule runs every check, each failure with a witness:
//!
//! * **I1 — release implies replication**, after every actor step: every
//!   packet the buffer releases has its state updates applied on every
//!   *live* member of the owning replication group (the f+1 copies of
//!   §5.1). Dead members are excused: their replacement re-fetches state
//!   from a live member this same invariant shows to be dominating.
//! * **I2 — convergence**: at final quiescence every replicated copy holds
//!   its head's committed prefix, byte for byte (snapshots compare by
//!   content, whatever their entry order).
//! * **I3 — structure, liveness and delivery**: the ring re-forms with the
//!   groups [`RingMath::replicated_by`] names, nothing stays fail-stopped
//!   or paused, and the buffer drains. Per packet ident, no packet egresses
//!   twice; a packet that could have died in flight (queued at a crashed
//!   replica, or behind a handed-over position) egresses at most once, and
//!   every other one — every packet injected after a replacement included —
//!   exactly once. Every Monitor's packet counter equals the packets
//!   released when nothing could die in flight, and is at least that
//!   otherwise.
//! * **I4 — `MAX`-vector monotonicity**: no instance's applied-prefix
//!   vector moves backwards across the replacement. A replaced position's
//!   own store is excused when packets could die in flight: their commits
//!   die with the outgoing instance.
//! * **I5 — one serving instance**: at every probe point of a replacement
//!   at most one alive, unpaused instance per position, counting the
//!   outgoing and the incoming instance; exactly one at the end.
//! * **I6 — the replacement starts from the f + 1 copies**: right after a
//!   replacement commits, the new owner's own store (sequence numbers and
//!   content) equals its successor's replicated copy of that group. Skipped
//!   only while that successor is dead.
//!
//! The `reconfig-sabotage` feature compiles two faults into the handover:
//! the switch resumes the outgoing instance instead of killing it (I5 must
//! fire), and the own group is restored from the outgoing instance's own
//! store (I6 must fire on in-flight schedules).
//! [`ProtocolCheckConfig::sabotage_buffer`] loosens the buffer's release
//! rule (I1 must fire).
//!
//! A witness carries its schedule's label (`n3f1/case/permN`); [`replay`]
//! re-runs exactly that schedule.

use ftc_core::testkit::{OwnerSample, Step, SyncChain};
use ftc_core::{
    ChainConfig, ProbePoint, ProbeVerdict, ProtocolProbe, ReconfigActor, ReconfigFailure,
    ReconfigOp, ReconfigPhase, RecoveryError, RingMath,
};
use ftc_mbox::MbSpec;
use ftc_packet::builder::UdpPacketBuilder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

/// Witnesses stored per invariant; beyond it only the count grows (a
/// sabotaged buffer violates I1 on nearly every schedule), and one noisy
/// invariant cannot crowd out the others.
const WITNESS_CAP: usize = 32;

/// State partitions per store, on every schedule.
const PARTITIONS: usize = 8;

/// Transitions one schedule may take; exhausting them is a liveness
/// witness.
const MAX_STEPS: usize = 1000;

/// Clean retries of a rolled-back handover before the checker calls the
/// retry loop divergent.
const RETRY_CAP: usize = 3;

/// Packets injected and drained before the crash or handover.
const WARM: usize = 3;

/// In-flight handovers: packets injected right before the operation and
/// stepped through positions `0..=pos` only, so the outgoing instance's
/// own store is ahead of its successor's copy.
const IN_FLIGHT: usize = 2;

/// Packets injected after the repair (the "traffic resumes" leg of I3).
const POST: usize = 2;

/// Step-phase crashes fire at the victim's 0th..`STEP_TRIGGERS - 1`-th
/// observation of the phase.
const STEP_TRIGGERS: usize = 2;

// ---------------------------------------------------------------------------
// Probe: schedule-controlled crashes + release observations
// ---------------------------------------------------------------------------

/// Where a crash fires; the phases mirror [`ProbePoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPhase {
    /// §6(a): the victim's transaction committed but its log never left.
    PrePiggyback,
    /// §6(b): the outgoing message was assembled but never sent.
    PostApplyPreForward,
    /// §6(c): the frame was sent, then the server died.
    PostForward,
    /// The *replacement* dies mid-state-fetch; recovery restarts fresh.
    DuringRecovery,
    /// A handover participant at one point of the replacement procedure.
    Handover(ReconfigOp, ReconfigPhase, ReconfigActor),
}

/// One crash: fail-stop at the `trigger`-th (0-based) observation of
/// `phase` by `victim` (for a handover, the position being replaced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashPoint {
    victim: usize,
    phase: CrashPhase,
    trigger: usize,
}

/// Dependency claims attached to one buffer release: per `(mbox, dep
/// entries)` pair, the sequence numbers the buffer asserts are committed.
type ReleaseDeps = Vec<(usize, Vec<(u16, u64)>)>;

#[derive(Default)]
struct ProbeInner {
    /// Armed crash target; disarmed permanently once fired (single-crash
    /// schedules — the replacement must not die at the same point again).
    target: Option<CrashPoint>,
    /// Matching observations seen so far (for [`CrashPoint::trigger`]).
    seen: usize,
    /// Victim of a fired crash, consumed by the executor via `take_fired`.
    fired: Option<usize>,
    /// Buffer releases observed since the last harvest.
    releases: Vec<ReleaseDeps>,
}

/// The model checker's [`ProtocolProbe`]: records every buffer release and
/// fail-stops the armed victim at its `trigger`-th matching observation.
struct SchedProbe {
    inner: Mutex<ProbeInner>,
}

impl SchedProbe {
    fn new() -> Arc<SchedProbe> {
        Arc::new(SchedProbe {
            inner: Mutex::new(ProbeInner::default()),
        })
    }

    fn arm(&self, point: CrashPoint) {
        let mut g = self.inner.lock();
        g.target = Some(point);
        g.seen = 0;
    }

    fn disarm(&self) {
        let mut g = self.inner.lock();
        g.target = None;
        g.fired = None;
    }

    /// The victim of a crash that fired since the last call, if any.
    fn take_fired(&self) -> Option<usize> {
        self.inner.lock().fired.take()
    }

    fn drain_releases(&self) -> Vec<ReleaseDeps> {
        std::mem::take(&mut self.inner.lock().releases)
    }
}

fn point_matches(target: &CrashPoint, point: &ProbePoint) -> bool {
    match (target.phase, point) {
        (CrashPhase::PrePiggyback, ProbePoint::PrePiggyback { replica })
        | (CrashPhase::PostApplyPreForward, ProbePoint::PostApplyPreForward { replica })
        | (CrashPhase::PostForward, ProbePoint::PostForward { replica }) => {
            *replica == target.victim
        }
        (CrashPhase::DuringRecovery, ProbePoint::RecoveryFetch { recovering, .. }) => {
            *recovering == target.victim
        }
        (
            CrashPhase::Handover(op, phase, role),
            ProbePoint::Reconfig {
                op: o,
                phase: p,
                role: r,
                mbox,
            },
        ) => (op, phase, role, target.victim) == (*o, *p, *r, *mbox),
        _ => false,
    }
}

impl ProtocolProbe for SchedProbe {
    fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
        let mut g = self.inner.lock();
        if let ProbePoint::BufferRelease { reqs } = &point {
            g.releases.push(reqs.clone());
            return ProbeVerdict::Continue;
        }
        let Some(target) = g.target else {
            return ProbeVerdict::Continue;
        };
        if !point_matches(&target, &point) {
            return ProbeVerdict::Continue;
        }
        if g.seen < target.trigger {
            g.seen += 1;
            return ProbeVerdict::Continue;
        }
        g.target = None;
        g.fired = Some(target.victim);
        ProbeVerdict::Crash
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// A concrete counterexample: which invariant broke, on which schedule, and
/// what the violating state looked like.
#[derive(Debug, Clone)]
pub struct Witness {
    /// `"I1"`..`"I6"`, `"liveness"` for an exhausted step budget or a
    /// divergent retry loop, or `"coverage"` for an armed handover crash
    /// that never fired.
    pub invariant: &'static str,
    /// The schedule's label, which [`replay`] accepts.
    pub schedule: String,
    /// Human-readable description of the violating state.
    pub detail: String,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.schedule, self.detail)
    }
}

/// Counters over a set of schedules: one case family, or a whole
/// exploration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Schedules executed.
    pub schedules: usize,
    /// Productive state transitions across the schedules.
    pub steps: usize,
    /// The most transitions any one schedule took.
    pub max_steps: usize,
    /// Schedules on which the armed crash fired (step-phase triggers can be
    /// unreachable under some interleavings).
    pub crashes_fired: usize,
    /// Failed replacement attempts that were retried.
    pub retries: usize,
    /// Handover schedules whose operation (eventually) committed.
    pub ops_completed: usize,
    /// Packets released.
    pub releases: usize,
    /// Invariant violations (may exceed the stored witnesses).
    pub violations: usize,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.schedules += o.schedules;
        self.steps += o.steps;
        self.max_steps = self.max_steps.max(o.max_steps);
        self.crashes_fired += o.crashes_fired;
        self.retries += o.retries;
        self.ops_completed += o.ops_completed;
        self.releases += o.releases;
        self.violations += o.violations;
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} schedules, {} state transitions (at most {} in one), {} crashes \
             fired, {} retries, {} ops committed, {} packets released, {} \
             violation(s)",
            self.schedules,
            self.steps,
            self.max_steps,
            self.crashes_fired,
            self.retries,
            self.ops_completed,
            self.releases,
            self.violations,
        )
    }
}

/// Aggregate result of an exploration.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Distinct cases in the matrix.
    pub cases: usize,
    /// Actor interleavings per case.
    pub interleavings: usize,
    /// Counters per case family, in matrix order.
    pub families: Vec<(&'static str, Tally)>,
    /// Stored witnesses, at most 32 per invariant.
    pub witnesses: Vec<Witness>,
}

impl ProtocolReport {
    /// True when no schedule violated any invariant.
    pub fn ok(&self) -> bool {
        self.total().violations == 0
    }

    /// The counters over every family.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        self.families.iter().for_each(|(_, f)| t.add(f));
        t
    }

    /// The counters of one family (zero if the matrix has none of it).
    pub fn family(&self, name: &str) -> Tally {
        let found = self.families.iter().find(|(n, _)| *n == name);
        found.map(|(_, t)| *t).unwrap_or_default()
    }

    /// A header line and one line per case family, for test output and CI
    /// logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "explored {} cases × {} interleavings: {}",
            self.cases,
            self.interleavings,
            self.total(),
        );
        for (name, t) in &self.families {
            s.push_str(&format!("\n  {name}: {t}"));
        }
        s
    }

    /// Adds one schedule's result to its family.
    fn absorb(&mut self, family: &'static str, exec: Exec<'_>) {
        match self.families.iter_mut().find(|(n, _)| *n == family) {
            Some((_, t)) => t.add(&exec.tally),
            None => self.families.push((family, exec.tally)),
        }
        for w in exec.witnesses {
            store_witness(&mut self.witnesses, w);
        }
    }
}

/// Keeps `w` unless its invariant already has [`WITNESS_CAP`] witnesses.
fn store_witness(witnesses: &mut Vec<Witness>, w: Witness) {
    let same = witnesses
        .iter()
        .filter(|s| s.invariant == w.invariant)
        .count();
    if same < WITNESS_CAP {
        witnesses.push(w);
    }
}

// ---------------------------------------------------------------------------
// Configuration and crash matrix
// ---------------------------------------------------------------------------

/// What to explore.
#[derive(Debug, Clone)]
pub struct ProtocolCheckConfig {
    /// The chain under test (stateful middleboxes make the invariants
    /// meaningful; [`ChainConfig`] pads to `f + 1` stages if shorter).
    pub specs: Vec<MbSpec>,
    /// Tolerated failures. Handover transfer crashes fire at each of the
    /// first `f + 1` groups restored.
    pub f: usize,
    /// Cap on actor interleavings (`None` = all `(n + 2)!` permutations);
    /// capped runs stride-sample the permutation space for diversity.
    pub perm_limit: Option<usize>,
    /// Runs the steady-state families: no crash, step-phase crashes,
    /// quiesced kills, crashes during recovery, source deaths and double
    /// kills.
    pub steady_state: bool,
    /// Runs the handover family: migrate and scale of every position.
    pub handover: bool,
    /// Negative fixture: loosen the buffer's release rule by one
    /// commit-vector entry (must produce I1 witnesses on a correct chain).
    pub sabotage_buffer: bool,
}

impl ProtocolCheckConfig {
    /// The `f = 1` PR gate on a 3-monitor chain, exhaustive: all 120
    /// interleavings of the five steppable actors × 28 steady-state cases
    /// (every victim × every step phase × two triggers, quiesced kills,
    /// recovery aborts, source deaths) and 120 handover cases (migrate and
    /// scale at every position × {quiesced, in flight} × clean or one of 9
    /// participant crashes) — 17,760 schedules.
    pub fn f1_gate() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 3],
            f: 1,
            perm_limit: None,
            steady_state: true,
            handover: true,
            sabotage_buffer: false,
        }
    }

    /// The `f = 2` PR gate on a 4-monitor chain: 48 stride-sampled
    /// interleavings × 14 steady-state cases, with the double-failure,
    /// fallback-fetch and recovery-abort cases — 672 schedules.
    pub fn f2_gate() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 4],
            f: 2,
            perm_limit: Some(48),
            handover: false,
            ..ProtocolCheckConfig::f1_gate()
        }
    }

    /// The deep run (`FTC_EXPLORE_DEEP=1`): the `f = 1` gate's matrix on a
    /// 4-monitor chain under all 720 interleavings of its six steppable
    /// actors — 37 steady-state and 160 handover cases, 141,840 schedules.
    pub fn deep() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 4],
            ..ProtocolCheckConfig::f1_gate()
        }
    }
}

/// A handover participant crash: fail-stop `role` at its `trigger`-th
/// observation of `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HandoverCrash {
    role: ReconfigActor,
    phase: ReconfigPhase,
    trigger: usize,
}

/// One case in the exploration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    /// Fault-free baseline (every packet must release, exactly once).
    None,
    /// Fail-stop at a protocol step phase, driven by the probe.
    StepPhase(CrashPoint),
    /// Classic kill between packets.
    Quiesced { victim: usize },
    /// The recovering replacement dies mid-fetch; recovery restarts fresh.
    DuringRecovery { victim: usize },
    /// A fetch source refuses mid-recovery (models the source dying): at
    /// `f = 1` recovery must fail and the retry succeed; at `f ≥ 2` the
    /// §4.1 fallback order must reach another group member.
    SourceDeath { victim: usize, refuse: usize },
    /// Two adjacent quiesced kills (`f ≥ 2` tolerance check).
    DoubleKill { first: usize, second: usize },
    /// A migrate or scale of position `pos`, quiesced or with packets in
    /// flight, clean or with one participant crash.
    Handover {
        op: ReconfigOp,
        pos: usize,
        in_flight: bool,
        crash: Option<HandoverCrash>,
    },
}

impl Case {
    fn label(&self) -> String {
        match *self {
            Case::None => "no-crash".into(),
            Case::StepPhase(p) => format!("crash[r{}@{:?}#{}]", p.victim, p.phase, p.trigger),
            Case::Quiesced { victim } => format!("kill[r{victim}@quiesced]"),
            Case::DuringRecovery { victim } => format!("crash[r{victim}@recovery-fetch]"),
            Case::SourceDeath { victim, refuse } => {
                format!("kill[r{victim}]+source-death[r{refuse}]")
            }
            Case::DoubleKill { first, second } => format!("kill[r{first},r{second}]"),
            Case::Handover {
                op,
                pos,
                in_flight,
                crash,
            } => {
                let mode = if in_flight { "in-flight" } else { "quiesced" };
                let site = format!("{}@{pos}/{mode}", op.label());
                match crash {
                    None => format!("{site}/clean"),
                    Some(c) => format!(
                        "{site}/crash[{}@{}#{}]",
                        c.role.label(),
                        c.phase.label(),
                        c.trigger
                    ),
                }
            }
        }
    }

    /// The family the report tallies this case under.
    fn family(&self) -> &'static str {
        match self {
            Case::None => "no-crash",
            Case::StepPhase(_) => "step-phase",
            Case::Quiesced { .. } => "quiesced",
            Case::DuringRecovery { .. } => "during-recovery",
            Case::SourceDeath { .. } => "source-death",
            Case::DoubleKill { .. } => "double-kill",
            Case::Handover { .. } => "handover",
        }
    }
}

/// The steady-state cases for an `n`-replica chain.
///
/// At `f = 1` they are exhaustive: every victim × every step phase × every
/// trigger, plus quiesced kills, recovery-abort, and source-death cases
/// for every victim. At `f ≥ 2` step-phase crashes are restricted to the
/// first replica: a mid-chain fail-stop at `f ≥ 2` can lose a log whose
/// head survives while a *non-replaced* downstream group member still
/// needs it — recovery only rebuilds the victim, so that gap is
/// unrecoverable by design (the paper recovers it only for `f = 1`-shaped
/// pipelines and for wrapped groups, where the buffer resends). The
/// supported `f ≥ 2` shapes — quiesced kills including double failures,
/// fallback fetches, and recovery aborts — are all in the matrix.
fn steady_state_cases(f: usize, n: usize) -> Vec<Case> {
    let phases = [
        CrashPhase::PrePiggyback,
        CrashPhase::PostApplyPreForward,
        CrashPhase::PostForward,
    ];
    let mut cases = vec![Case::None];
    let step_victims: Vec<usize> = if f == 1 { (0..n).collect() } else { vec![0] };
    for &victim in &step_victims {
        for phase in phases {
            for trigger in 0..STEP_TRIGGERS {
                cases.push(Case::StepPhase(CrashPoint {
                    victim,
                    phase,
                    trigger,
                }));
            }
        }
    }
    for victim in 0..n {
        cases.push(Case::Quiesced { victim });
    }
    if f == 1 {
        for victim in 0..n {
            cases.push(Case::DuringRecovery { victim });
            // Refusing the victim's sole successor starves at least the
            // own-store fetch: the first attempt must fail, the retry heal.
            cases.push(Case::SourceDeath {
                victim,
                refuse: (victim + 1) % n,
            });
        }
    } else {
        cases.push(Case::DuringRecovery { victim: 1 });
        cases.push(Case::SourceDeath {
            victim: 1,
            refuse: 2,
        });
        if n >= 4 {
            cases.push(Case::DoubleKill {
                first: 1,
                second: 2,
            });
        }
    }
    cases
}

/// The handover cases for an `n`-replica chain: migrate and scale of every
/// position, quiesced or in flight, clean or crashing the orchestrator or
/// the outgoing instance at prepare, either transfer side at each of the
/// first `f + 1` groups, the orchestrator or the replacement at the switch
/// commit point, or the orchestrator at release (the roll-forward case).
fn handover_cases(f: usize, n: usize) -> Vec<Case> {
    use ReconfigActor::{Destination, Orchestrator, Source};
    use ReconfigPhase::{Prepare, Release, Switch, Transfer};
    let mut crashes: Vec<(ReconfigActor, ReconfigPhase, usize)> = vec![
        (Orchestrator, Prepare, 0),
        (Source, Prepare, 0),
        (Orchestrator, Switch, 0),
        (Destination, Switch, 0),
        (Orchestrator, Release, 0),
    ];
    for trigger in 0..=f {
        crashes.push((Source, Transfer, trigger));
        crashes.push((Destination, Transfer, trigger));
    }
    let crashes: Vec<Option<HandoverCrash>> = std::iter::once(None)
        .chain(crashes.into_iter().map(|(role, phase, trigger)| {
            Some(HandoverCrash {
                role,
                phase,
                trigger,
            })
        }))
        .collect();
    let mut cases = Vec::new();
    for pos in 0..n {
        for op in [ReconfigOp::Migrate, ReconfigOp::Scale] {
            for in_flight in [false, true] {
                for &crash in &crashes {
                    cases.push(Case::Handover {
                        op,
                        pos,
                        in_flight,
                        crash,
                    });
                }
            }
        }
    }
    cases
}

/// Builds the crash matrix: the families `cfg` selects, steady-state
/// cases first.
fn crash_matrix(cfg: &ProtocolCheckConfig, n: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    if cfg.steady_state {
        cases.extend(steady_state_cases(cfg.f, n));
    }
    if cfg.handover {
        cases.extend(handover_cases(cfg.f, n));
    }
    cases
}

/// All permutations of `items` (Heap's algorithm, deterministic order).
fn permutations<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut a = items.to_vec();
    let n = a.len();
    let mut c = vec![0usize; n];
    out.push(a.clone());
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            out.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Everything one configuration explores.
struct Matrix {
    chain: ChainConfig,
    /// Label prefix naming the chain shape, `n{n}f{f}`.
    tag: String,
    /// Per position: whether it runs a Monitor (the counter check).
    monitors: Vec<bool>,
    cases: Vec<Case>,
    /// Every permutation of the steppable actors; a label's `permN`
    /// indexes this list.
    perms: Vec<Vec<Step>>,
    /// The indices into `perms` this configuration runs.
    sampled: Vec<usize>,
}

impl Matrix {
    fn new(cfg: &ProtocolCheckConfig) -> Matrix {
        let chain = ChainConfig::new(cfg.specs.clone())
            .with_f(cfg.f)
            .with_partitions(PARTITIONS);
        let specs = chain.effective_middleboxes();
        let n = specs.len();
        let mut actors: Vec<Step> = (0..n).map(Step::Replica).collect();
        actors.push(Step::Buffer);
        actors.push(Step::ForwarderFeedback);
        let perms = permutations(&actors);
        let stride = match cfg.perm_limit {
            Some(limit) if perms.len() > limit => perms.len() / limit,
            _ => 1,
        };
        let limit = cfg.perm_limit.unwrap_or(perms.len());
        Matrix {
            tag: format!("n{n}f{}", cfg.f),
            monitors: specs
                .iter()
                .map(|s| matches!(s, MbSpec::Monitor { .. }))
                .collect(),
            cases: crash_matrix(cfg, n),
            sampled: (0..perms.len()).step_by(stride).take(limit).collect(),
            perms,
            chain,
        }
    }

    fn label(&self, case: &Case, perm: usize) -> String {
        format!("{}/{}/perm{perm}", self.tag, case.label())
    }

    /// Every schedule's label, in exploration order.
    #[cfg(test)]
    fn labels(&self) -> impl Iterator<Item = String> + '_ {
        self.cases
            .iter()
            .flat_map(move |c| self.sampled.iter().map(move |&p| self.label(c, p)))
    }
}

// ---------------------------------------------------------------------------
// Single-schedule executor
// ---------------------------------------------------------------------------

struct Exec<'a> {
    m: &'a Matrix,
    chain: SyncChain,
    probe: Arc<SchedProbe>,
    ring: RingMath,
    label: String,
    next_ident: u16,
    /// Idents of the packets that may die in flight: each egresses at most
    /// once, every other exactly once.
    lossy: Range<u16>,
    /// Egress count per ident.
    egressed: HashMap<u16, usize>,
    budget_blown: bool,
    /// Serving-instance samples from every replacement, folded into I5.
    samples: Vec<OwnerSample>,
    /// I4 baseline: `(holder, mbox) → MAX vector` captured at the crash or
    /// before the handover.
    baseline: HashMap<(usize, usize), Vec<u64>>,
    tally: Tally,
    witnesses: Vec<Witness>,
}

impl<'a> Exec<'a> {
    fn new(cfg: &ProtocolCheckConfig, m: &'a Matrix, label: String) -> Exec<'a> {
        let chain = SyncChain::new(m.chain.clone());
        if cfg.sabotage_buffer {
            chain.buffer().sabotage_early_release();
        }
        let probe = SchedProbe::new();
        chain.install_probe(Arc::clone(&probe) as Arc<dyn ProtocolProbe>);
        Exec {
            m,
            chain,
            probe,
            ring: m.chain.ring(),
            label,
            next_ident: 0,
            lossy: 0..0,
            egressed: HashMap::new(),
            budget_blown: false,
            samples: Vec::new(),
            baseline: HashMap::new(),
            tally: Tally {
                schedules: 1,
                ..Tally::default()
            },
            witnesses: Vec::new(),
        }
    }

    fn witness(&mut self, invariant: &'static str, detail: String) {
        self.tally.violations += 1;
        let w = Witness {
            invariant,
            schedule: self.label.clone(),
            detail,
        };
        store_witness(&mut self.witnesses, w);
    }

    fn inject(&mut self, count: usize) {
        for _ in 0..count {
            self.next_ident = self.next_ident.wrapping_add(1);
            let pkt = UdpPacketBuilder::new()
                .src(Ipv4Addr::new(10, 2, 0, 1), 1000 + self.next_ident % 4000)
                .dst(Ipv4Addr::new(10, 3, 0, 1), 80)
                .ident(self.next_ident)
                .build();
            self.chain.inject(pkt);
        }
    }

    /// Checks I1 for every release the probe recorded since the last call
    /// and counts egressed packets by ident. `SyncChain` is
    /// single-threaded, so the chain state inspected here is exactly the
    /// state at release time.
    fn harvest(&mut self) {
        for reqs in self.probe.drain_releases() {
            self.check_i1(&reqs);
        }
        for pkt in self.chain.egress().drain() {
            let ident = pkt.ipv4().map(|ip| ip.ident()).unwrap_or(0);
            *self.egressed.entry(ident).or_default() += 1;
        }
    }

    fn check_i1(&mut self, reqs: &[(usize, Vec<(u16, u64)>)]) {
        for (m, deps) in reqs {
            for r in self.ring.group(*m) {
                if self.chain.is_dead(r) {
                    // A dead member is mid-replacement; its successor
                    // re-fetches from a live member this loop does check.
                    continue;
                }
                let vec = if r == *m {
                    self.chain.replicas[r].own_store.seq_vector()
                } else {
                    match self.chain.replicas[r].replicated.get(m) {
                        Some(g) => g.max.vector(),
                        None => {
                            self.witness(
                                "I1",
                                format!(
                                    "live replica r{r} holds no replicated \
                                     store for mbox {m} at release time"
                                ),
                            );
                            continue;
                        }
                    }
                };
                for &(p, seq) in deps {
                    let have = vec.get(p as usize).copied().unwrap_or(0);
                    if have <= seq {
                        self.witness(
                            "I1",
                            format!(
                                "buffer released a packet depending on mbox \
                                 {m} partition {p} seq {seq}, but live group \
                                 member r{r} has only applied {have} entries \
                                 there — fewer than f+1 live copies exist"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Steps one actor and harvests; true if it did work.
    fn step(&mut self, actor: Step) -> bool {
        let progressed = self.chain.step(actor);
        if progressed {
            self.tally.steps += 1;
        }
        self.harvest();
        progressed
    }

    /// The idle pass: fires both timers, then gives the buffer and the head
    /// one step each. True if that made work (counted as one transition).
    fn idle_pass(&mut self) -> bool {
        self.chain.step(Step::BufferTimer);
        let timer_work = self.chain.step(Step::ForwarderTimer);
        let buffer = self.chain.step(Step::Buffer);
        let head = self.chain.step(Step::Replica(0));
        self.harvest();
        let more = timer_work || buffer || head;
        if more {
            self.tally.steps += 1;
        }
        more
    }

    /// True once the schedule has used [`MAX_STEPS`] transitions; the
    /// first time, records a liveness witness.
    fn out_of_budget(&mut self) -> bool {
        if self.tally.steps < MAX_STEPS {
            return false;
        }
        if !self.budget_blown {
            self.budget_blown = true;
            self.witness(
                "liveness",
                format!(
                    "step budget {MAX_STEPS} exhausted before quiescence \
                     (a livelock or a wedged dependency)"
                ),
            );
        }
        true
    }

    /// Fail-stops the victim of a probe crash that fired, returning it.
    fn crashed(&mut self) -> Option<usize> {
        let victim = self.probe.take_fired()?;
        self.chain.mark_dead(victim);
        Some(victim)
    }

    /// Steps actors in `perm` order until quiescence, a probe crash (its
    /// victim is returned, fail-stopped) or budget exhaustion.
    fn drive(&mut self, perm: &[Step]) -> Option<usize> {
        self.drive_for(perm, usize::MAX)
    }

    /// [`Self::drive`], stopping after `idle_cap` idle passes at the latest.
    /// Timers fire only on idle passes, mirroring
    /// [`SyncChain::run_to_quiescence`].
    fn drive_for(&mut self, perm: &[Step], idle_cap: usize) -> Option<usize> {
        let mut idle_passes = 0;
        while !self.out_of_budget() {
            let mut progressed = false;
            for &actor in perm {
                progressed |= self.step(actor);
                if let Some(victim) = self.crashed() {
                    return Some(victim);
                }
            }
            if !progressed {
                let more = self.idle_pass();
                if let Some(victim) = self.crashed() {
                    return Some(victim);
                }
                idle_passes += 1;
                if !more || idle_passes >= idle_cap {
                    return None;
                }
            }
        }
        None
    }

    /// Injects the in-flight packets and steps positions `0..=pos` until
    /// they are all queued behind `pos`: its own store is then ahead of
    /// its successor's copy.
    fn leave_in_flight(&mut self, pos: usize) {
        let first = self.next_ident.wrapping_add(1);
        self.inject(IN_FLIGHT);
        self.lossy = first..self.next_ident.wrapping_add(1);
        loop {
            let mut progressed = false;
            for i in 0..=pos {
                progressed |= self.chain.step(Step::Replica(i));
            }
            if !progressed {
                return;
            }
            self.tally.steps += 1;
        }
    }

    /// §5.2-recovers `victim`, `source_ok` gating each fetch source, and
    /// checks I6 on success.
    fn try_recover(
        &mut self,
        victim: usize,
        source_ok: &dyn Fn(usize, usize) -> bool,
    ) -> Result<(), RecoveryError> {
        let result = self.chain.try_fail_and_recover(victim, source_ok);
        self.samples.extend(self.chain.take_samples());
        if result.is_ok() {
            self.check_i6(victim);
        }
        result.map(drop)
    }

    fn recover(&mut self, victim: usize) {
        if let Err(e) = self.try_recover(victim, &|_, _| true) {
            self.witness(
                "I3",
                format!("§5.2 recovery of r{victim} with all sources live failed: {e}"),
            );
        }
    }

    /// Executes a handover and applies the documented repair for its
    /// failure class, retrying rolled-back attempts with the probe
    /// disarmed. Every attempt's samples are kept for the I5 fold.
    fn hand_over(&mut self, op: ReconfigOp, pos: usize) {
        for attempt in 0.. {
            let outcome = match op {
                ReconfigOp::Migrate => self.chain.migrate_mbox(pos),
                ReconfigOp::Scale => self.chain.scale_mbox(pos),
            };
            self.samples.extend(self.chain.take_samples());
            let failure = match outcome {
                Ok(_) => {
                    self.tally.ops_completed = 1;
                    self.check_i6(pos);
                    return;
                }
                Err(RecoveryError::Failed(failure)) => failure,
                Err(e) => {
                    self.witness("I3", format!("handover failed with every source live: {e}"));
                    return;
                }
            };
            if self.probe.take_fired().is_some() {
                self.tally.crashes_fired = 1;
            }
            self.probe.disarm();
            match failure {
                // The position fail-stopped (pre-commit source death on
                // the old configuration, or a post-commit destination
                // death on the new one): §5.2 repairs.
                ReconfigFailure::SourceCrashed { .. }
                | ReconfigFailure::DestinationCrashed {
                    phase: ReconfigPhase::Switch,
                } => {
                    for i in 0..self.ring.n {
                        if self.chain.is_dead(i) {
                            self.recover(i);
                        }
                    }
                    return;
                }
                // Past the commit point the operation rolls forward: the
                // new owner already serves. I6 must hold on what it got.
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Release,
                } => {
                    self.tally.ops_completed = 1;
                    self.check_i6(pos);
                    return;
                }
                // Rolled back with the old configuration intact: the
                // documented recovery is a plain retry.
                ReconfigFailure::DestinationCrashed { .. }
                | ReconfigFailure::OrchestratorCrashed { .. } => {
                    if attempt + 1 >= RETRY_CAP {
                        self.witness(
                            "liveness",
                            format!(
                                "operation still failing after {RETRY_CAP} \
                                 attempts: {failure}"
                            ),
                        );
                        return;
                    }
                    self.tally.retries += 1;
                }
            }
        }
    }

    /// I6: right after a replacement commits, the new owner's own store
    /// equals its successor's replicated copy — the f + 1 copies' prefix.
    /// Runs before any further traffic; skipped while the successor is
    /// dead.
    fn check_i6(&mut self, pos: usize) {
        let succ = (pos + 1) % self.ring.n;
        if self.ring.f == 0 || self.chain.is_dead(succ) {
            return;
        }
        let owner = &self.chain.replicas[pos].own_store;
        let (got_seqs, got) = (owner.seq_vector(), owner.snapshot());
        let Some(copy) = self.chain.replicas[succ].replicated.get(&pos) else {
            return; // structural damage — I3 reports it
        };
        let (want_seqs, want) = (copy.max.vector(), copy.store.snapshot());
        if got_seqs != want_seqs {
            self.witness(
                "I6",
                format!(
                    "the new owner of position {pos} starts at seq vector \
                     {got_seqs:?}, but its successor r{succ} holds the f+1 \
                     copies' prefix {want_seqs:?}"
                ),
            );
        } else if got != want {
            self.witness(
                "I6",
                format!(
                    "the new owner of position {pos} diverges in content from \
                     its successor r{succ}'s copy despite equal seq vectors"
                ),
            );
        }
    }

    /// Captures the I4 baseline: every instance's applied-prefix vector for
    /// every store it holds, except the own store of `lossy_owner`, whose
    /// in-flight commits die with it.
    fn capture_i4(&mut self, lossy_owner: Option<usize>) {
        for (r, rep) in self.chain.replicas.iter().enumerate() {
            if lossy_owner != Some(r) {
                self.baseline.insert((r, r), rep.own_store.seq_vector());
            }
            for (m, g) in &rep.replicated {
                self.baseline.insert((r, *m), g.max.vector());
            }
        }
    }

    fn check_i4(&mut self) {
        let entries: Vec<((usize, usize), Vec<u64>)> = self.baseline.drain().collect();
        for ((r, m), before) in entries {
            let rep = &self.chain.replicas[r];
            let after = if m == r {
                rep.own_store.seq_vector()
            } else {
                match rep.replicated.get(&m) {
                    Some(g) => g.max.vector(),
                    None => continue, // structural damage — I3 reports it
                }
            };
            for (p, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
                if a < b {
                    self.witness(
                        "I4",
                        format!(
                            "r{r}'s MAX vector for mbox {m} moved backwards \
                             across the replacement: partition {p} went {b} → {a}"
                        ),
                    );
                }
            }
        }
    }

    /// I5 on every sample a replacement recorded, then — unless the budget
    /// ran out mid-flight — I2, I3 and the final I5 at quiescence.
    fn check_final(&mut self) {
        for s in std::mem::take(&mut self.samples) {
            for (pos, &n) in s.serving.iter().enumerate().filter(|(_, &n)| n > 1) {
                self.witness(
                    "I5",
                    format!(
                        "{n} alive, unpaused instances of position {pos} at \
                         {:?} — the position was not handed over exactly once",
                        s.point
                    ),
                );
            }
        }
        if self.budget_blown {
            return; // liveness witness already recorded; state is mid-flight
        }
        if self.chain.held() != 0 {
            let held = self.chain.held();
            self.witness(
                "I3",
                format!("{held} packet(s) still withheld by the buffer at final quiescence"),
            );
        }
        for ident in 1..=self.next_ident {
            let got = self.egressed.get(&ident).copied().unwrap_or(0);
            let lossy = self.lossy.contains(&ident);
            if got > 1 || (got == 0 && !lossy) {
                let want = if lossy { "at most once" } else { "once" };
                self.witness(
                    "I3",
                    format!("packet {ident} egressed {got} times, want {want}"),
                );
            }
        }
        let released = self.tally.releases;
        for (pos, n) in self.chain.serving().into_iter().enumerate() {
            if n != 1 {
                self.witness(
                    "I5",
                    format!(
                        "at final quiescence position {pos} has {n} alive, \
                         unpaused instance(s), want exactly 1"
                    ),
                );
            }
        }
        for i in 0..self.ring.n {
            if self.chain.is_dead(i) {
                self.witness("I3", format!("replica r{i} still fail-stopped at the end"));
                continue;
            }
            if self.chain.replicas[i].is_paused() {
                self.witness("I3", format!("replica r{i} still paused at the end"));
            }
            let claimed_idx = self.chain.replicas[i].idx;
            if claimed_idx != i {
                self.witness(
                    "I3",
                    format!("replica at ring position {i} believes it is r{claimed_idx}"),
                );
            }
            let mut want = self.ring.replicated_by(i);
            want.sort_unstable();
            let mut got: Vec<usize> = self.chain.replicas[i].replicated.keys().copied().collect();
            got.sort_unstable();
            if got != want {
                self.witness(
                    "I3",
                    format!(
                        "r{i} replicates groups {got:?} after the replacement, \
                         ring arithmetic requires {want:?}"
                    ),
                );
            }
            // Every Monitor counts every released packet; when packets could
            // die in flight, upstream ones also counted those.
            if !self.m.monitors[i] {
                continue;
            }
            let counted = self.chain.replicas[i]
                .own_store
                .peek_u64(b"mon:packets:g0")
                .unwrap_or(0) as usize;
            if counted < released || (self.lossy.is_empty() && counted != released) {
                self.witness(
                    "I3",
                    format!(
                        "r{i}'s packet counter is {counted} after the schedule, \
                         {released} packets were released — state was lost or \
                         duplicated across the replacement"
                    ),
                );
            }
        }
        // I2: every member converged to the head's committed prefix.
        for m in 0..self.ring.n {
            let head_vec = self.chain.replicas[m].own_store.seq_vector();
            let head_snap = self.chain.replicas[m].own_store.snapshot();
            for r in self.ring.group(m) {
                if r == m {
                    continue;
                }
                let Some((member_vec, member_snap)) = self.chain.replicas[r]
                    .replicated
                    .get(&m)
                    .map(|g| (g.max.vector(), g.store.snapshot()))
                else {
                    continue; // reported by the I3 structure check above
                };
                if member_vec != head_vec {
                    self.witness(
                        "I2",
                        format!(
                            "r{r}'s applied prefix for mbox {m} is \
                             {member_vec:?}, head committed {head_vec:?}"
                        ),
                    );
                } else if member_snap != head_snap {
                    self.witness(
                        "I2",
                        format!(
                            "r{r}'s replicated store for mbox {m} diverges \
                             from the head's content despite equal vectors"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

fn run_schedule<'a>(
    cfg: &ProtocolCheckConfig,
    m: &'a Matrix,
    case: &Case,
    perm: usize,
) -> Exec<'a> {
    let order = &m.perms[perm];
    let mut x = Exec::new(cfg, m, m.label(case, perm));
    if let Case::StepPhase(point) = case {
        x.probe.arm(*point);
    }
    x.inject(WARM);
    let crashed = x.drive(order);

    match *case {
        Case::None => {}
        Case::StepPhase(_) => match crashed {
            Some(victim) => {
                x.tally.crashes_fired = 1;
                // Frames queued at the victim die with it.
                x.lossy = 1..x.next_ident.wrapping_add(1);
                x.capture_i4(Some(victim));
                // A bounded settle drains the surviving in-flight work
                // while the victim is still dead. It cannot wait for
                // quiescence: the buffer re-sends its uncommitted wrapped
                // logs every tick and the forwarder keeps emitting carriers
                // into the dead server until a replacement absorbs them —
                // the retry loop recovery picks up from, not a livelock.
                // The drive after recovery demands real quiescence.
                x.drive_for(order, x.ring.n + 2);
                x.recover(victim);
                x.drive(order);
            }
            // The trigger was unreachable under this interleaving (e.g.
            // the victim saw fewer matching steps); the schedule still
            // counts as a fault-free execution.
            None => x.probe.disarm(),
        },
        Case::Quiesced { victim } => {
            x.tally.crashes_fired = 1;
            x.capture_i4(None);
            x.recover(victim);
            x.drive(order);
        }
        Case::DuringRecovery { victim } => {
            x.tally.crashes_fired = 1;
            x.capture_i4(None);
            x.probe.arm(CrashPoint {
                victim,
                phase: CrashPhase::DuringRecovery,
                trigger: 0,
            });
            match x.try_recover(victim, &|_, _| true) {
                Err(RecoveryError::Aborted { .. }) => {}
                Ok(_) => x.witness(
                    "I3",
                    "recovery completed although the replacement was crashed \
                     at its first fetch"
                        .into(),
                ),
                Err(e) => x.witness(
                    "I3",
                    format!("crashed recovery surfaced the wrong error: {e}"),
                ),
            }
            x.probe.disarm();
            if !x.chain.is_dead(victim) {
                x.witness(
                    "I3",
                    "victim rewired into the ring despite an aborted recovery".into(),
                );
            }
            x.tally.retries += 1;
            x.recover(victim); // fresh retry, fetch runs clean
            x.drive(order);
        }
        Case::SourceDeath { victim, refuse } => {
            x.tally.crashes_fired = 1;
            x.capture_i4(None);
            match x.try_recover(victim, &|src, _| src != refuse) {
                Ok(()) => {
                    // f ≥ 2: the fallback order reached another member.
                }
                Err(_) if cfg.f == 1 => {
                    // Sole source refused; the victim must stay dead and a
                    // retry with sources back must heal the ring.
                    if !x.chain.is_dead(victim) {
                        x.witness(
                            "I3",
                            "victim rewired although every fetch source died".into(),
                        );
                    }
                    x.tally.retries += 1;
                    x.recover(victim);
                }
                Err(e) => x.witness(
                    "I3",
                    format!(
                        "f = {} recovery failed although a fallback source \
                         survived: {e}",
                        cfg.f
                    ),
                ),
            }
            x.drive(order);
        }
        Case::DoubleKill { first, second } => {
            x.tally.crashes_fired = 1;
            x.capture_i4(None);
            x.chain.mark_dead(first);
            x.chain.mark_dead(second);
            x.recover(first);
            x.recover(second);
            x.drive(order);
        }
        Case::Handover {
            op,
            pos,
            in_flight,
            crash,
        } => {
            if in_flight {
                x.leave_in_flight(pos);
            }
            x.capture_i4(in_flight.then_some(pos));
            if let Some(c) = crash {
                x.probe.arm(CrashPoint {
                    victim: pos,
                    phase: CrashPhase::Handover(op, c.phase, c.role),
                    trigger: c.trigger,
                });
            }
            x.hand_over(op, pos);
            if let Some(c) = crash.filter(|_| x.tally.crashes_fired == 0) {
                x.witness(
                    "coverage",
                    format!(
                        "armed crash {}@{}#{} never fired — the matrix no longer \
                         reaches this point",
                        c.role.label(),
                        c.phase.label(),
                        c.trigger
                    ),
                );
            }
            x.probe.disarm();
        }
    }

    x.check_i4();
    x.inject(POST);
    x.drive(order);
    x.tally.releases = x.egressed.values().sum();
    x.tally.max_steps = x.tally.steps;
    x.check_final();
    x
}

/// Runs the full exploration: every case in the matrix × every (sampled)
/// interleaving of the steppable actors, with every check on every
/// schedule.
pub fn explore(cfg: &ProtocolCheckConfig) -> ProtocolReport {
    let m = Matrix::new(cfg);
    let mut report = ProtocolReport {
        cases: m.cases.len(),
        interleavings: m.sampled.len(),
        ..ProtocolReport::default()
    };
    for case in &m.cases {
        for &perm in &m.sampled {
            report.absorb(case.family(), run_schedule(cfg, &m, case, perm));
        }
    }
    report
}

/// Re-runs exactly one schedule from a witness label (`n3f1/case/permN`),
/// returning its single-schedule report. `permN` may name any permutation,
/// sampled by `cfg` or not. Panics if the label does not name a schedule of
/// `cfg`'s chain and matrix — labels are only portable between
/// configurations with the same chain.
pub fn replay(cfg: &ProtocolCheckConfig, label: &str) -> ProtocolReport {
    let m = Matrix::new(cfg);
    let found = label
        .strip_prefix(&format!("{}/", m.tag))
        .and_then(|rest| rest.rsplit_once("/perm"))
        .and_then(|(case, perm)| {
            let case = m.cases.iter().find(|c| c.label() == case)?;
            let perm = perm.parse().ok().filter(|&p| p < m.perms.len())?;
            Some((case, perm))
        });
    let Some((case, perm)) = found else {
        panic!("schedule {label:?} is not in the matrix of this configuration");
    };
    let mut report = ProtocolReport {
        cases: 1,
        interleavings: 1,
        ..ProtocolReport::default()
    };
    report.absorb(case.family(), run_schedule(cfg, &m, case, perm));
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn mini_cfg() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 2],
            perm_limit: Some(4),
            ..ProtocolCheckConfig::f1_gate()
        }
    }

    #[test]
    #[cfg_attr(feature = "reconfig-sabotage", ignore)]
    fn mini_exploration_is_violation_free() {
        // The handover family's mini matrix runs in `crate::reconfig`.
        let report = explore(&ProtocolCheckConfig {
            handover: false,
            ..mini_cfg()
        });
        assert!(report.ok(), "unexpected witnesses: {:#?}", report.witnesses);
        let total = report.total();
        assert!(total.schedules > 0 && total.steps > 0);
        assert_eq!(report.family("handover").schedules, 0);
        assert!(
            total.crashes_fired > 0 && total.retries > 0,
            "the matrix must crash replicas and retry aborted recoveries: {}",
            report.summary()
        );
    }

    #[test]
    fn sabotaged_buffer_yields_i1_witness() {
        let cfg = ProtocolCheckConfig {
            sabotage_buffer: true,
            perm_limit: Some(1),
            handover: false,
            ..mini_cfg()
        };
        let report = explore(&cfg);
        assert!(
            !report.ok(),
            "sabotage must be caught: {}",
            report.summary()
        );
        assert!(
            report.witnesses.iter().any(|w| w.invariant == "I1"),
            "expected an I1 witness, got: {:#?}",
            report.witnesses
        );
    }

    #[test]
    fn permutations_cover_the_factorial() {
        assert_eq!(permutations(&[0, 1, 2]).len(), 6);
        assert_eq!(permutations(&[0usize; 0]).len(), 1);
    }

    #[test]
    fn pr_gate_matrix_meets_the_schedule_floor() {
        let gate = Matrix::new(&ProtocolCheckConfig::f1_gate());
        let handover = |m: &Matrix| {
            let n = m.cases.iter().filter(|c| c.family() == "handover").count();
            (m.cases.len() - n, n)
        };
        assert_eq!(
            handover(&gate),
            (28, 120),
            "6 sites × 10 variants × 2 modes"
        );
        assert_eq!(gate.sampled.len(), 120);
        // The interleavings in which the forwarder's feedback steps last
        // are the handover matrix's former 24: the new set contains them.
        let feedback_last = gate
            .sampled
            .iter()
            .filter(|&&p| gate.perms[p].last() == Some(&Step::ForwarderFeedback));
        assert_eq!(feedback_last.count(), 24);
        let f2 = Matrix::new(&ProtocolCheckConfig::f2_gate());
        assert_eq!((f2.cases.len(), f2.sampled.len()), (14, 48));
        let deep = Matrix::new(&ProtocolCheckConfig::deep());
        assert_eq!(handover(&deep), (37, 160));
        assert!(160 * deep.sampled.len() >= 19_200);
    }

    #[test]
    fn labels_are_unique_across_the_matrices() {
        let mut seen = std::collections::HashSet::new();
        for cfg in [
            ProtocolCheckConfig::f1_gate(),
            ProtocolCheckConfig::f2_gate(),
            ProtocolCheckConfig::deep(),
        ] {
            for label in Matrix::new(&cfg).labels() {
                assert!(seen.insert(label.clone()), "duplicate label {label}");
            }
        }
        assert_eq!(seen.len(), 17_760 + 672 + 141_840);
    }

    #[test]
    #[cfg_attr(feature = "reconfig-sabotage", ignore)]
    fn replay_reproduces_a_clean_schedule() {
        let report = replay(
            &ProtocolCheckConfig::f1_gate(),
            "n3f1/migrate@0/quiesced/clean/perm0",
        );
        assert_eq!(report.total().schedules, 1);
        assert!(report.ok(), "witnesses: {:#?}", report.witnesses);
        assert_eq!(report.family("handover").ops_completed, 1);
    }

    #[test]
    #[should_panic(expected = "not in the matrix")]
    fn replay_rejects_unknown_labels() {
        replay(&mini_cfg(), "n2f1/migrate@9/quiesced/clean/perm999");
    }
}

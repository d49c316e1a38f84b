//! Protocol-level model checker: bounded, deterministic exploration of
//! failure schedules against the real chain objects.
//!
//! The checker drives a miniature chain — forwarder → middleboxes → buffer,
//! built from the *same* protocol state ([`SyncChain`] wires the production
//! [`ReplicaState`](ftc_core::replica::ReplicaState) /
//! [`BufferState`](ftc_core::buffer::BufferState) /
//! [`ForwarderState`](ftc_core::forwarder::ForwarderState) objects without
//! threads) — through every interleaving of a small packet workload crossed
//! with every crash point: each server × each protocol step phase
//! ([`CrashPhase::PrePiggyback`], [`CrashPhase::PostApplyPreForward`],
//! [`CrashPhase::PostForward`], quiesced kills, and crashes *during*
//! recovery), using the [`ProtocolProbe`] hooks in `ftc-core`.
//!
//! Checked invariants, each with a concrete witness schedule on failure:
//!
//! * **I1 — release implies replication**: every packet released by the
//!   buffer has its state updates applied on every *live* member of the
//!   owning replication group (the f+1 copies of §5.1). Dead members are
//!   excused: their replacement re-fetches state from a live member that
//!   this same invariant shows to be dominating.
//! * **I2 — post-recovery convergence**: at final quiescence every group
//!   member holds the head's committed prefix, byte for byte (snapshots are
//!   canonicalized before comparison — no lost or phantom updates).
//! * **I3 — ring re-formation and liveness**: after replacing a replica at
//!   the failure position the ring re-forms with the correct replication
//!   groups ([`RingMath::replicated_by`]), nothing stays fail-stopped, the
//!   buffer drains, and post-recovery traffic releases end to end.
//! * **I4 — dependency-vector monotonicity**: surviving replicas' `MAX`
//!   vectors never move backwards across a failover.

use ftc_core::testkit::{Step, SyncChain};
use ftc_core::{ChainConfig, ProbePoint, ProbeVerdict, ProtocolProbe, RingMath};
use ftc_mbox::MbSpec;
use ftc_packet::builder::UdpPacketBuilder;
use ftc_stm::StoreSnapshot;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Cap on stored witnesses; beyond it only the count grows (a sabotaged
/// buffer violates I1 on nearly every schedule, which would otherwise
/// accumulate thousands of identical reports).
const WITNESS_CAP: usize = 64;

// ---------------------------------------------------------------------------
// Probe: schedule-controlled crashes + release observations
// ---------------------------------------------------------------------------

/// Where, within the victim's protocol steps, a crash fires; the phases
/// mirror [`ProbePoint`].
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
}

/// One step-granular crash: fail-stop `victim` at its `trigger`-th
/// (0-based) observation of `phase`.
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
    /// Victim of a fired crash, consumed by the explorer via `take_fired`.
    fired: Option<usize>,
    /// Buffer releases observed since the last harvest: per release, the
    /// `(mbox, dep entries)` requirements the buffer claims are committed.
    releases: Vec<ReleaseDeps>,
}

/// The model checker's [`ProtocolProbe`]: records every buffer release and
/// fail-stops a configured victim at its `trigger`-th observation of the
/// configured phase.
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
        (CrashPhase::PrePiggyback, ProbePoint::PrePiggyback { replica }) => {
            *replica == target.victim
        }
        (CrashPhase::PostApplyPreForward, ProbePoint::PostApplyPreForward { replica }) => {
            *replica == target.victim
        }
        (CrashPhase::PostForward, ProbePoint::PostForward { replica }) => *replica == target.victim,
        (CrashPhase::DuringRecovery, ProbePoint::RecoveryFetch { recovering, .. }) => {
            *recovering == target.victim
        }
        _ => false,
    }
}

impl ProtocolProbe for SchedProbe {
    fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
        let mut g = self.inner.lock();
        if let ProbePoint::BufferRelease { reqs } = &point {
            g.releases.push(reqs.clone());
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
    /// `"I1"`..`"I4"`, or `"liveness"` for step-budget exhaustion.
    pub invariant: &'static str,
    /// The schedule that produced it (crash case + actor interleaving).
    pub schedule: String,
    /// Human-readable description of the violating state.
    pub detail: String,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.schedule, self.detail)
    }
}

/// Aggregate result of an exploration.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Schedules executed (crash cases × interleavings).
    pub schedules: usize,
    /// Distinct crash cases in the matrix.
    pub crash_cases: usize,
    /// Actor interleavings per crash case.
    pub interleavings: usize,
    /// Productive state transitions explored across all schedules.
    pub steps: usize,
    /// Schedules on which the armed crash actually fired (step-phase
    /// triggers can be unreachable under some interleavings).
    pub crashes_fired: usize,
    /// Packets released across all schedules.
    pub releases: usize,
    /// Total invariant violations found (may exceed `witnesses.len()`).
    pub violations: usize,
    /// Stored witnesses, capped at [`WITNESS_CAP`].
    pub witnesses: Vec<Witness>,
}

impl ProtocolReport {
    /// True when no schedule violated any invariant.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    /// One-line summary for test output and CI logs.
    pub fn summary(&self) -> String {
        format!(
            "explored {} schedules ({} crash cases × {} interleavings), \
             {} state transitions, {} crashes fired, {} packets released, \
             {} violation(s)",
            self.schedules,
            self.crash_cases,
            self.interleavings,
            self.steps,
            self.crashes_fired,
            self.releases,
            self.violations,
        )
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
    /// Tolerated failures.
    pub f: usize,
    /// Packets injected before the crash.
    pub warm: usize,
    /// Packets injected after recovery (the "traffic resumes" leg of I3).
    pub post: usize,
    /// Step-phase crashes fire at the victim's 0th..`triggers`-1-th
    /// observation of the phase, multiplying the crash matrix.
    pub triggers: usize,
    /// Cap on actor interleavings (`None` = all `(n + 2)!` permutations);
    /// capped runs stride-sample the permutation space for diversity.
    pub perm_limit: Option<usize>,
    /// Per-schedule transition budget; exhausting it is a liveness witness.
    pub max_steps: usize,
    /// Negative fixture: loosen the buffer's release rule by one
    /// commit-vector entry (must produce I1 witnesses on a correct chain).
    pub sabotage_buffer: bool,
}

impl ProtocolCheckConfig {
    /// The PR-gate configuration: a 3-middlebox, `f = 1` monitor chain,
    /// explored exhaustively (every single-crash schedule × all 120
    /// interleavings of the five steppable actors).
    pub fn f1_exhaustive() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 3],
            f: 1,
            warm: 3,
            post: 2,
            triggers: 2,
            perm_limit: None,
            max_steps: 6000,
            sabotage_buffer: false,
        }
    }

    /// The nightly configuration: a 4-middlebox, `f = 2` chain with a
    /// bounded, stride-sampled interleaving set and the double-failure,
    /// fallback-fetch, and recovery-abort cases in the matrix.
    pub fn f2_nightly() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 4],
            f: 2,
            warm: 3,
            post: 2,
            triggers: 2,
            perm_limit: Some(48),
            max_steps: 9000,
            sabotage_buffer: false,
        }
    }
}

/// One crash case in the exploration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashCase {
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
}

impl CrashCase {
    fn label(&self) -> String {
        match self {
            CrashCase::None => "no-crash".into(),
            CrashCase::StepPhase(p) => {
                format!("crash[r{}@{:?}#{}]", p.victim, p.phase, p.trigger)
            }
            CrashCase::Quiesced { victim } => format!("kill[r{victim}@quiesced]"),
            CrashCase::DuringRecovery { victim } => format!("crash[r{victim}@recovery-fetch]"),
            CrashCase::SourceDeath { victim, refuse } => {
                format!("kill[r{victim}]+source-death[r{refuse}]")
            }
            CrashCase::DoubleKill { first, second } => format!("kill[r{first},r{second}]"),
        }
    }
}

/// Builds the crash matrix for an `n`-replica chain tolerating `f`.
///
/// At `f = 1` the matrix is exhaustive: every victim × every step phase ×
/// every trigger, plus quiesced kills, recovery-abort, and source-death
/// cases for every victim. At `f ≥ 2` step-phase crashes are restricted to
/// the first replica: a mid-chain fail-stop at `f ≥ 2` can lose a log whose
/// head survives while a *non-replaced* downstream group member still needs
/// it — recovery only rebuilds the victim, so that gap is unrecoverable by
/// design (the paper recovers it only for `f = 1`-shaped pipelines and for
/// wrapped groups, where the buffer resends). The supported `f ≥ 2` shapes
/// — quiesced kills including double failures, fallback fetches, and
/// recovery aborts — are all in the matrix.
fn crash_matrix(n: usize, f: usize, triggers: usize) -> Vec<CrashCase> {
    let phases = [
        CrashPhase::PrePiggyback,
        CrashPhase::PostApplyPreForward,
        CrashPhase::PostForward,
    ];
    let mut cases = vec![CrashCase::None];
    let step_victims: Vec<usize> = if f == 1 { (0..n).collect() } else { vec![0] };
    for &victim in &step_victims {
        for phase in phases {
            for trigger in 0..triggers {
                cases.push(CrashCase::StepPhase(CrashPoint {
                    victim,
                    phase,
                    trigger,
                }));
            }
        }
    }
    for victim in 0..n {
        cases.push(CrashCase::Quiesced { victim });
    }
    if f == 1 {
        for victim in 0..n {
            cases.push(CrashCase::DuringRecovery { victim });
            // Refusing the victim's sole successor starves at least the
            // own-store fetch: the first attempt must fail, the retry heal.
            cases.push(CrashCase::SourceDeath {
                victim,
                refuse: (victim + 1) % n,
            });
        }
    } else {
        cases.push(CrashCase::DuringRecovery { victim: 1 });
        cases.push(CrashCase::SourceDeath {
            victim: 1,
            refuse: 2,
        });
        if n >= 4 {
            cases.push(CrashCase::DoubleKill {
                first: 1,
                second: 2,
            });
        }
    }
    cases
}

/// All permutations of `items` (Heap's algorithm, deterministic order).
/// Shared with the reconfiguration checker in [`crate::reconfig`].
pub(crate) fn permutations<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
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

// ---------------------------------------------------------------------------
// Single-schedule runner
// ---------------------------------------------------------------------------

enum DriveExit {
    Quiescent,
    CrashFired(usize),
    Budget,
}

struct Runner {
    chain: SyncChain,
    probe: Arc<SchedProbe>,
    ring: RingMath,
    label: String,
    max_steps: usize,
    steps: usize,
    released: usize,
    budget_blown: bool,
    next_ident: u16,
    /// I4 baseline: `(holder, mbox) → MAX vector` captured at crash time
    /// for replicas that survive the failover.
    baseline: HashMap<(usize, usize), Vec<u64>>,
    witnesses: Vec<Witness>,
    /// Violations found on this schedule (harvest may drop detail past the
    /// caller's cap, so the count is tracked separately).
    violations: usize,
    crash_fired: bool,
}

impl Runner {
    fn witness(&mut self, invariant: &'static str, detail: String) {
        self.violations += 1;
        if self.witnesses.len() < WITNESS_CAP {
            self.witnesses.push(Witness {
                invariant,
                schedule: self.label.clone(),
                detail,
            });
        }
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
    /// and counts egressed packets. `SyncChain` is single-threaded, so the
    /// chain state inspected here is exactly the state at release time.
    fn harvest(&mut self) {
        for reqs in self.probe.drain_releases() {
            self.check_i1(&reqs);
        }
        self.released += self.chain.egress().drain().len();
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

    /// Steps actors in `perm` order until quiescence, a probe crash, or
    /// budget exhaustion. Timers fire only on idle passes, mirroring
    /// [`SyncChain::run_to_quiescence`].
    fn drive(&mut self, perm: &[Step]) -> DriveExit {
        loop {
            if self.steps >= self.max_steps {
                if !self.budget_blown {
                    self.budget_blown = true;
                    self.witness(
                        "liveness",
                        format!(
                            "step budget {} exhausted before quiescence \
                             (possible livelock or wedged dependency)",
                            self.max_steps
                        ),
                    );
                }
                return DriveExit::Budget;
            }
            let mut progressed = false;
            for &actor in perm {
                if self.chain.step(actor) {
                    self.steps += 1;
                    progressed = true;
                }
                self.harvest();
                if let Some(victim) = self.probe.take_fired() {
                    self.chain.mark_dead(victim);
                    return DriveExit::CrashFired(victim);
                }
            }
            if !progressed {
                self.chain.step(Step::BufferTimer);
                let timer_work = self.chain.step(Step::ForwarderTimer);
                let more = {
                    let b = self.chain.step(Step::Buffer);
                    let r = self.chain.step(Step::Replica(0));
                    b || r
                };
                self.harvest();
                if let Some(victim) = self.probe.take_fired() {
                    self.chain.mark_dead(victim);
                    return DriveExit::CrashFired(victim);
                }
                if !timer_work && !more {
                    return DriveExit::Quiescent;
                }
                self.steps += 1;
            }
        }
    }

    /// Bounded settle between a mid-step crash and its recovery: drains
    /// surviving in-flight work while the victim is still fail-stopped.
    ///
    /// While a replica is dead the buffer→forwarder retransmission cycle
    /// never quiesces *by design*: the buffer re-sends its uncommitted
    /// wrapped logs every tick and the forwarder keeps emitting propagating
    /// carriers into the dead server until a replacement absorbs them —
    /// that standing retry loop is exactly the mechanism that lets recovery
    /// pick up where the victim left off. Demanding quiescence here would
    /// misreport the protocol's own liveness machinery as a livelock (and
    /// burn the whole step budget doing it), so this variant instead stops
    /// after `idle_cap` timer passes yield no non-timer progress. Real
    /// quiescence is still enforced by the post-recovery [`Self::drive`],
    /// which runs with every replica alive.
    fn drive_settle(&mut self, perm: &[Step], idle_cap: usize) {
        let mut idle_passes = 0;
        while idle_passes < idle_cap {
            if self.steps >= self.max_steps {
                if !self.budget_blown {
                    self.budget_blown = true;
                    self.witness(
                        "liveness",
                        format!(
                            "step budget {} exhausted during the post-crash \
                             settle (non-timer work kept progressing)",
                            self.max_steps
                        ),
                    );
                }
                return;
            }
            let mut progressed = false;
            for &actor in perm {
                if self.chain.step(actor) {
                    self.steps += 1;
                    progressed = true;
                }
            }
            self.harvest();
            if !progressed {
                idle_passes += 1;
                self.chain.step(Step::BufferTimer);
                let timer_work = self.chain.step(Step::ForwarderTimer);
                let more = {
                    let b = self.chain.step(Step::Buffer);
                    let r = self.chain.step(Step::Replica(0));
                    b || r
                };
                self.harvest();
                if !timer_work && !more {
                    return;
                }
                self.steps += 1;
            }
        }
    }

    /// Captures the I4 baseline: every surviving replica's applied-prefix
    /// vector for every store it holds, at the moment of the crash.
    fn capture_i4(&mut self, victims: &[usize]) {
        self.baseline.clear();
        for (r, rep) in self.chain.replicas.iter().enumerate() {
            if victims.contains(&r) || self.chain.is_dead(r) {
                continue;
            }
            self.baseline.insert((r, r), rep.own_store.seq_vector());
            for (m, g) in &rep.replicated {
                self.baseline.insert((r, *m), g.max.vector());
            }
        }
    }

    fn check_i4(&mut self) {
        let entries: Vec<((usize, usize), Vec<u64>)> =
            self.baseline.iter().map(|(k, v)| (*k, v.clone())).collect();
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
                            "survivor r{r}'s MAX vector for mbox {m} moved \
                             backwards across failover: partition {p} went \
                             {b} → {a}"
                        ),
                    );
                }
            }
        }
    }

    fn recover(&mut self, victim: usize) {
        if let Err(e) = self.chain.try_fail_and_recover(victim, &|_, _| true) {
            self.witness(
                "I3",
                format!("recovery of r{victim} with all sources live failed: {e}"),
            );
        }
    }

    /// Final checks: I2 convergence, I3 structure + liveness, delivery.
    fn check_final(&mut self, post_expected: usize, post_released: usize, exact: Option<usize>) {
        if self.budget_blown {
            return; // liveness witness already recorded; state is mid-flight
        }
        if self.chain.held() != 0 {
            self.witness(
                "I3",
                format!(
                    "{} packet(s) still withheld by the buffer at final \
                     quiescence",
                    self.chain.held()
                ),
            );
        }
        if post_released < post_expected {
            self.witness(
                "I3",
                format!(
                    "only {post_released} of {post_expected} post-recovery \
                     packets released: traffic did not resume"
                ),
            );
        }
        if let Some(total) = exact {
            if self.released != total {
                self.witness(
                    "I3",
                    format!(
                        "released {} packets, expected exactly {total} \
                         (no in-flight loss is possible on this schedule)",
                        self.released
                    ),
                );
            }
        }
        let n = self.chain.replicas.len();
        for i in 0..n {
            if self.chain.is_dead(i) {
                self.witness("I3", format!("replica r{i} still fail-stopped at the end"));
                continue;
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
                        "r{i} replicates groups {got:?} after failover, ring \
                         arithmetic requires {want:?}"
                    ),
                );
            }
        }
        // I2: every member converged to the head's committed prefix.
        for m in 0..n {
            let head_vec = self.chain.replicas[m].own_store.seq_vector();
            let head_snap = canonical(self.chain.replicas[m].own_store.snapshot());
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
                } else if canonical(member_snap) != head_snap {
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

/// Sorts each partition's entries so snapshot comparison is independent of
/// `HashMap` iteration order.
pub(crate) fn canonical(mut snap: StoreSnapshot) -> StoreSnapshot {
    for part in &mut snap.maps {
        part.sort();
    }
    snap
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

fn run_schedule(
    cfg: &ProtocolCheckConfig,
    perm: &[Step],
    perm_idx: usize,
    case: &CrashCase,
) -> Runner {
    let chain_cfg = ChainConfig::new(cfg.specs.clone()).with_f(cfg.f);
    let ring = chain_cfg.ring();
    let chain = SyncChain::new(chain_cfg);
    if cfg.sabotage_buffer {
        chain.buffer().sabotage_early_release();
    }
    let probe = SchedProbe::new();
    chain.install_probe(Arc::clone(&probe) as Arc<dyn ProtocolProbe>);
    let mut run = Runner {
        chain,
        probe,
        ring,
        label: format!("{}/perm{}", case.label(), perm_idx),
        max_steps: cfg.max_steps,
        steps: 0,
        released: 0,
        budget_blown: false,
        next_ident: 0,
        baseline: HashMap::new(),
        witnesses: Vec::new(),
        violations: 0,
        crash_fired: false,
    };

    if let CrashCase::StepPhase(point) = case {
        run.probe.arm(*point);
    }
    run.inject(cfg.warm);
    let exit = run.drive(perm);

    // `exact` delivery counting holds whenever no packet can die in flight.
    let mut exact = Some(cfg.warm + cfg.post);
    match *case {
        CrashCase::None => {}
        CrashCase::StepPhase(_) => {
            if let DriveExit::CrashFired(victim) = exit {
                run.crash_fired = true;
                exact = None; // frames queued at the victim die with it
                run.capture_i4(&[victim]);
                run.drive_settle(perm, run.ring.n + 2);
                run.recover(victim);
                run.drive(perm);
            } else {
                // The trigger was unreachable under this interleaving
                // (e.g. the victim saw fewer matching steps); the schedule
                // still counts as a fault-free execution.
                run.probe.disarm();
            }
        }
        CrashCase::Quiesced { victim } => {
            run.crash_fired = true;
            run.capture_i4(&[victim]);
            run.recover(victim);
            run.drive(perm);
        }
        CrashCase::DuringRecovery { victim } => {
            run.crash_fired = true;
            run.capture_i4(&[victim]);
            run.chain.mark_dead(victim);
            run.probe.arm(CrashPoint {
                victim,
                phase: CrashPhase::DuringRecovery,
                trigger: 0,
            });
            match run.chain.try_fail_and_recover(victim, &|_, _| true) {
                Err(ftc_core::RecoveryError::Aborted { .. }) => {}
                Ok(_) => run.witness(
                    "I3",
                    "recovery completed although the replacement was \
                     crashed at its first fetch"
                        .into(),
                ),
                Err(e) => run.witness(
                    "I3",
                    format!("crashed recovery surfaced the wrong error: {e}"),
                ),
            }
            run.probe.disarm();
            if !run.chain.is_dead(victim) {
                run.witness(
                    "I3",
                    "victim rewired into the ring despite an aborted recovery".into(),
                );
            }
            run.recover(victim); // fresh retry, fetch runs clean
            run.drive(perm);
        }
        CrashCase::SourceDeath { victim, refuse } => {
            run.crash_fired = true;
            run.capture_i4(&[victim]);
            match run
                .chain
                .try_fail_and_recover(victim, &|src, _| src != refuse)
            {
                Ok(_) => {
                    // f ≥ 2: the fallback order reached another member.
                }
                Err(_) if cfg.f == 1 => {
                    // Sole source refused; the victim must stay dead and a
                    // retry with sources back must heal the ring.
                    if !run.chain.is_dead(victim) {
                        run.witness(
                            "I3",
                            "victim rewired although every fetch source died".into(),
                        );
                    }
                    run.recover(victim);
                }
                Err(e) => run.witness(
                    "I3",
                    format!(
                        "f = {} recovery failed although a fallback source \
                         survived: {e}",
                        cfg.f
                    ),
                ),
            }
            run.drive(perm);
        }
        CrashCase::DoubleKill { first, second } => {
            run.crash_fired = true;
            run.capture_i4(&[first, second]);
            run.chain.mark_dead(first);
            run.chain.mark_dead(second);
            run.recover(first);
            run.recover(second);
            run.drive(perm);
        }
    }

    run.check_i4();
    let before_post = run.released;
    run.inject(cfg.post);
    run.drive(perm);
    let post_released = run.released - before_post;
    run.check_final(cfg.post, post_released, exact);
    run
}

/// Runs the full exploration: every crash case in the matrix × every
/// (sampled) interleaving of the steppable actors, with all four invariants
/// checked on every schedule.
pub fn explore(cfg: &ProtocolCheckConfig) -> ProtocolReport {
    let n = ChainConfig::new(cfg.specs.clone())
        .with_f(cfg.f)
        .effective_middleboxes()
        .len();
    let mut actors: Vec<Step> = (0..n).map(Step::Replica).collect();
    actors.push(Step::Buffer);
    actors.push(Step::ForwarderFeedback);
    let mut perms = permutations(&actors);
    if let Some(limit) = cfg.perm_limit {
        if perms.len() > limit {
            let stride = perms.len() / limit;
            perms = perms
                .into_iter()
                .step_by(stride.max(1))
                .take(limit)
                .collect();
        }
    }
    let cases = crash_matrix(n, cfg.f, cfg.triggers);

    let mut report = ProtocolReport {
        crash_cases: cases.len(),
        interleavings: perms.len(),
        ..ProtocolReport::default()
    };
    for case in &cases {
        for (perm_idx, perm) in perms.iter().enumerate() {
            let run = run_schedule(cfg, perm, perm_idx, case);
            report.schedules += 1;
            report.steps += run.steps;
            report.releases += run.released;
            report.violations += run.violations;
            if run.crash_fired {
                report.crashes_fired += 1;
            }
            for w in run.witnesses {
                if report.witnesses.len() < WITNESS_CAP {
                    report.witnesses.push(w);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> ProtocolCheckConfig {
        ProtocolCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 2],
            f: 1,
            warm: 2,
            post: 1,
            triggers: 1,
            perm_limit: Some(4),
            max_steps: 4000,
            sabotage_buffer: false,
        }
    }

    #[test]
    fn mini_exploration_is_violation_free() {
        let report = explore(&mini_cfg());
        assert!(report.ok(), "unexpected witnesses: {:#?}", report.witnesses);
        assert!(report.schedules > 0 && report.steps > 0);
        assert!(
            report.crashes_fired > 0,
            "the matrix must actually crash replicas: {}",
            report.summary()
        );
    }

    #[test]
    fn sabotaged_buffer_yields_i1_witness() {
        let cfg = ProtocolCheckConfig {
            sabotage_buffer: true,
            perm_limit: Some(1),
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
}

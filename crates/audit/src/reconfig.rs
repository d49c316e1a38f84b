//! Crash-during-reconfiguration model checker.
//!
//! [`crate::protocol`] explores crashes during *steady-state* packet
//! processing and recovery. This module explores crashes during **planned
//! handovers** — migrate and scale, run by [`ftc_core::replace::replace`]
//! through the stepped [`SyncChain`], the procedure the threaded
//! orchestrator runs too — where the obligation is not just "traffic
//! resumes" but "the position is handed over exactly once, carrying the
//! state its f + 1 copies hold".
//!
//! Each schedule builds a fresh chain and warms it with traffic. An
//! *in-flight* schedule then injects a few more packets and steps
//! positions `0..=pos` only, so the outgoing instance's own store is ahead
//! of its successor's copy when the operation starts; a *quiesced* one
//! does not. The operation runs while a [`ProtocolProbe`] fail-stops a
//! chosen participant (outgoing instance, replacement, or orchestrator) at
//! a chosen phase — in the transfer phase, at the `k`-th group — then the
//! documented repair for that failure is applied (§5.2 recovery for
//! fail-stopped positions, a plain retry for rolled-back attempts, nothing
//! for roll-forward cases), post traffic is injected under a permuted
//! actor interleaving, and the checker asserts:
//!
//! * **I1 — release implies replication**: same as the steady-state
//!   checker; every release must be covered by every live member of the
//!   owning replication group.
//! * **I2 — group convergence**: at final quiescence every replicated copy
//!   equals its head's committed prefix, byte for byte.
//! * **I3 — structure and liveness**: the ring re-forms, nothing stays
//!   fail-stopped or paused, and the buffer drains. Every packet not in
//!   flight at the operation egresses exactly once; packets in flight at
//!   it egress at most once. Each Monitor counter equals the packets
//!   released (quiesced schedules) or is at least that (in-flight ones,
//!   whose upstream positions counted the packets the switch dropped).
//! * **I4 — `MAX`-vector monotonicity**: no surviving instance's
//!   applied-prefix vector moves backwards across the handover. On
//!   in-flight schedules the replaced position's own store is excused: the
//!   commits in flight die with the outgoing instance, as with any
//!   fail-stop victim.
//! * **I5 — one serving instance**: at every probe point at most one
//!   alive, unpaused instance per position, counting the outgoing and the
//!   incoming instance; exactly one at the end.
//! * **I6 — transferred = the f + 1-copies prefix**: right after the
//!   commit, before post traffic, the new owner's own store (sequence
//!   numbers and content) equals its successor's replicated copy of that
//!   group — the prefix the transfer must carry, and not the outgoing
//!   instance's own store.
//!
//! The `reconfig-sabotage` feature compiles two faults into the procedure:
//! the switch resumes the outgoing instance instead of killing it (I5 must
//! fire), and the own group is restored from the outgoing instance's own
//! store (I6 must fire on in-flight schedules).
//!
//! Witnesses carry the schedule label (`case/permN`); [`replay`] re-runs
//! exactly that schedule from the label for debugging.

use crate::protocol::{canonical, permutations, Witness};
use ftc_core::testkit::{OwnerSample, Step, SyncChain};
use ftc_core::{
    ChainConfig, ProbePoint, ProbeVerdict, ProtocolProbe, ReconfigActor, ReconfigFailure,
    ReconfigOp, ReconfigPhase, RecoveryError,
};
use ftc_mbox::MbSpec;
use ftc_packet::builder::UdpPacketBuilder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Cap on stored witnesses per invariant (the count in the report keeps
/// growing), so one noisy invariant cannot crowd out the others.
const WITNESS_CAP: usize = 32;

/// Bound on clean retries of a rolled-back operation before the checker
/// calls the retry loop divergent.
const RETRY_CAP: usize = 3;

// ---------------------------------------------------------------------------
// Configuration and crash matrix
// ---------------------------------------------------------------------------

/// What to explore.
#[derive(Debug, Clone)]
pub struct ReconfigCheckConfig {
    /// The chain under test (the Monitor counter checks need
    /// `Monitor { sharing_level: 1 }`).
    pub specs: Vec<MbSpec>,
    /// Tolerated failures.
    pub f: usize,
    /// State partitions per store.
    pub partitions: usize,
    /// Packets injected and drained before the reconfiguration.
    pub warm: usize,
    /// In-flight schedules: packets injected right before the operation
    /// and stepped through positions `0..=pos` only.
    pub in_flight: usize,
    /// Packets injected after the operation + repair (traffic resumes).
    pub post: usize,
    /// For transfer-phase crashes: fire at the `k`-th group transferred,
    /// for each `k` here (each entry multiplies the matrix; `< f + 1`).
    pub transfer_triggers: Vec<usize>,
    /// Cap on actor interleavings (`None` = all permutations of the
    /// replicas + buffer); capped runs stride-sample for diversity.
    pub perm_limit: Option<usize>,
    /// Per-drive round budget; exhausting it is a liveness witness.
    pub max_rounds: usize,
}

impl ReconfigCheckConfig {
    /// The PR-gate configuration: a 3-monitor, `f = 1` chain; migrate and
    /// scale at every position × every crash variant × {quiesced, in
    /// flight} × all 24 interleavings of the four steppable actors —
    /// 6 sites × 10 variants × 2 modes = 120 cases, 2,880 schedules.
    pub fn pr_gate() -> ReconfigCheckConfig {
        ReconfigCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 3],
            f: 1,
            partitions: 8,
            warm: 3,
            in_flight: 2,
            post: 2,
            transfer_triggers: vec![0, 1],
            perm_limit: None,
            max_rounds: 5000,
        }
    }

    /// The nightly configuration (`FTC_RECONFIG_DEEP=1`): the same matrix
    /// on a 4-monitor chain, whose five steppable actors have 120
    /// interleavings — 8 sites × 10 variants × 2 modes = 160 cases, 19,200
    /// schedules.
    pub fn nightly_deep() -> ReconfigCheckConfig {
        ReconfigCheckConfig {
            specs: vec![MbSpec::Monitor { sharing_level: 1 }; 4],
            ..ReconfigCheckConfig::pr_gate()
        }
    }
}

/// One handover operation at one chain position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpSite {
    op: ReconfigOp,
    pos: usize,
}

/// A participant crash armed for one schedule: fail-stop `role` at its
/// `trigger`-th observation of `(op, phase)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashSpec {
    role: ReconfigActor,
    phase: ReconfigPhase,
    trigger: usize,
}

/// One case in the exploration matrix: an operation, with or without
/// packets in flight, optionally crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReconfigCase {
    site: OpSite,
    in_flight: bool,
    crash: Option<CrashSpec>,
}

impl ReconfigCase {
    fn label(&self) -> String {
        let mode = if self.in_flight {
            "in-flight"
        } else {
            "quiesced"
        };
        let site = format!("{}@{}/{mode}", self.site.op.label(), self.site.pos);
        match self.crash {
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

/// Builds the crash matrix for an `n`-middlebox chain: migrate and scale
/// at every position, each quiesced and with packets in flight, each
/// clean or with one participant crash — the orchestrator or the
/// outgoing instance at prepare, either transfer side at each configured
/// group, the orchestrator or the replacement at the switch commit point,
/// and the orchestrator at release (the roll-forward case).
fn case_matrix(cfg: &ReconfigCheckConfig, n: usize) -> Vec<ReconfigCase> {
    let mut crashes: Vec<Option<CrashSpec>> = vec![None];
    let fixed = [
        (ReconfigActor::Orchestrator, ReconfigPhase::Prepare),
        (ReconfigActor::Source, ReconfigPhase::Prepare),
        (ReconfigActor::Orchestrator, ReconfigPhase::Switch),
        (ReconfigActor::Destination, ReconfigPhase::Switch),
        (ReconfigActor::Orchestrator, ReconfigPhase::Release),
    ];
    crashes.extend(fixed.into_iter().map(|(role, phase)| {
        Some(CrashSpec {
            role,
            phase,
            trigger: 0,
        })
    }));
    for &trigger in &cfg.transfer_triggers {
        for role in [ReconfigActor::Source, ReconfigActor::Destination] {
            crashes.push(Some(CrashSpec {
                role,
                phase: ReconfigPhase::Transfer,
                trigger,
            }));
        }
    }
    let mut cases = Vec::new();
    for pos in 0..n {
        for op in [ReconfigOp::Migrate, ReconfigOp::Scale] {
            for in_flight in [false, true] {
                for &crash in &crashes {
                    cases.push(ReconfigCase {
                        site: OpSite { op, pos },
                        in_flight,
                        crash,
                    });
                }
            }
        }
    }
    cases
}

// ---------------------------------------------------------------------------
// Probe: reconfiguration-point crashes + release observations
// ---------------------------------------------------------------------------

/// One `BufferRelease` observation: per released request, the replica
/// position and its `(partition, seq)` log entries.
type ReleaseBatch = Vec<(usize, Vec<(u16, u64)>)>;

#[derive(Default)]
struct ProbeInner {
    /// Armed crash, matched against `(op, phase, role)` observations.
    target: Option<(ReconfigOp, CrashSpec)>,
    seen: usize,
    fired: bool,
    /// Buffer releases observed since the last harvest (for I1).
    releases: Vec<ReleaseBatch>,
}

/// The checker's [`ProtocolProbe`]: crashes a reconfiguration participant
/// at its `trigger`-th matching observation and records buffer releases.
struct ReconfigProbe {
    inner: Mutex<ProbeInner>,
}

impl ReconfigProbe {
    fn new() -> Arc<ReconfigProbe> {
        Arc::new(ReconfigProbe {
            inner: Mutex::new(ProbeInner::default()),
        })
    }

    fn arm(&self, op: ReconfigOp, crash: CrashSpec) {
        let mut g = self.inner.lock();
        g.target = Some((op, crash));
        g.seen = 0;
    }

    fn disarm(&self) {
        self.inner.lock().target = None;
    }

    fn fired(&self) -> bool {
        self.inner.lock().fired
    }

    fn drain_releases(&self) -> Vec<ReleaseBatch> {
        std::mem::take(&mut self.inner.lock().releases)
    }
}

impl ProtocolProbe for ReconfigProbe {
    fn on_step(&self, point: ProbePoint) -> ProbeVerdict {
        let mut g = self.inner.lock();
        if let ProbePoint::BufferRelease { reqs } = &point {
            g.releases.push(reqs.clone());
            return ProbeVerdict::Continue;
        }
        let ProbePoint::Reconfig {
            op, phase, role, ..
        } = point
        else {
            return ProbeVerdict::Continue;
        };
        let Some((t_op, t)) = g.target else {
            return ProbeVerdict::Continue;
        };
        if op != t_op || phase != t.phase || role != t.role {
            return ProbeVerdict::Continue;
        }
        if g.seen < t.trigger {
            g.seen += 1;
            return ProbeVerdict::Continue;
        }
        g.target = None;
        g.fired = true;
        ProbeVerdict::Crash
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Aggregate result of a reconfiguration exploration.
#[derive(Debug, Default)]
pub struct ReconfigReport {
    /// Schedules executed (crash cases × interleavings).
    pub schedules: usize,
    /// Distinct crash cases in the matrix.
    pub crash_cases: usize,
    /// Actor interleavings per crash case.
    pub interleavings: usize,
    /// Productive state transitions explored across all schedules.
    pub steps: usize,
    /// Schedules on which the armed participant crash actually fired.
    pub crashes_fired: usize,
    /// Rolled-back attempts that were retried cleanly.
    pub retries: usize,
    /// Schedules on which the operation (eventually) committed.
    pub ops_completed: usize,
    /// Packets released across all schedules.
    pub releases: usize,
    /// Total invariant violations found (may exceed `witnesses.len()`).
    pub violations: usize,
    /// Stored witnesses, at most [`WITNESS_CAP`] per invariant.
    pub witnesses: Vec<Witness>,
}

impl ReconfigReport {
    /// True when no schedule violated any invariant.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    /// One-line summary for test output and CI logs.
    pub fn summary(&self) -> String {
        format!(
            "explored {} schedules ({} crash cases × {} interleavings), \
             {} state transitions, {} crashes fired, {} retries, \
             {} ops committed, {} packets released, {} violation(s)",
            self.schedules,
            self.crash_cases,
            self.interleavings,
            self.steps,
            self.crashes_fired,
            self.retries,
            self.ops_completed,
            self.releases,
            self.violations,
        )
    }

    /// Adds one schedule's result.
    fn absorb(&mut self, exec: Exec<'_>) {
        self.schedules += 1;
        self.steps += exec.steps;
        self.retries += exec.retries;
        self.violations += exec.violations;
        self.releases += exec.egressed.values().sum::<usize>();
        self.crashes_fired += usize::from(exec.probe.fired());
        self.ops_completed += usize::from(exec.completed);
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
// Single-schedule executor
// ---------------------------------------------------------------------------

struct Exec<'a> {
    cfg: &'a ReconfigCheckConfig,
    chain: SyncChain,
    probe: Arc<ReconfigProbe>,
    label: String,
    next_ident: u16,
    /// Idents of the packets in flight at the operation.
    in_flight: std::ops::Range<u16>,
    /// Egress count per ident.
    egressed: HashMap<u16, usize>,
    steps: usize,
    retries: usize,
    completed: bool,
    budget_blown: bool,
    /// Serving-instance samples from every replacement, folded into I5.
    samples: Vec<OwnerSample>,
    /// I4 baseline: `(holder, mbox) → MAX vector` captured before the op.
    baseline: HashMap<(usize, usize), Vec<u64>>,
    witnesses: Vec<Witness>,
    violations: usize,
}

impl Exec<'_> {
    fn witness(&mut self, invariant: &'static str, detail: String) {
        self.violations += 1;
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

    /// Checks I1 for every release recorded since the last call and counts
    /// egressed packets by ident. The ring arithmetic is the chain's,
    /// which a handover does not change.
    fn harvest(&mut self) {
        let ring = self.chain.replicas[0].cfg.ring();
        for reqs in self.probe.drain_releases() {
            for (m, deps) in &reqs {
                for r in ring.group(*m) {
                    if self.chain.is_dead(r) {
                        continue; // mid-replacement, excused as in `protocol`
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
                                    "released a packet depending on mbox {m} \
                                     partition {p} seq {seq}, but live group \
                                     member r{r} has only applied {have}"
                                ),
                            );
                        }
                    }
                }
            }
        }
        for pkt in self.chain.egress().drain() {
            let ident = pkt.ipv4().map(|ip| ip.ident()).unwrap_or(0);
            *self.egressed.entry(ident).or_default() += 1;
        }
    }

    /// Steps actors in `perm` order (plus the forwarder feedback) until
    /// quiescence or the round budget runs out.
    fn drive(&mut self, perm: &[Step]) {
        for _ in 0..self.cfg.max_rounds {
            let mut progressed = false;
            for &actor in perm.iter().chain(&[Step::ForwarderFeedback]) {
                if self.chain.step(actor) {
                    self.steps += 1;
                    progressed = true;
                }
            }
            self.harvest();
            if !progressed {
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
        if !self.budget_blown {
            self.budget_blown = true;
            self.witness(
                "liveness",
                format!(
                    "round budget {} exhausted before quiescence",
                    self.cfg.max_rounds
                ),
            );
        }
    }

    /// Injects the in-flight packets and steps positions `0..=pos` until
    /// they are all queued behind `pos`: its own store is then ahead of
    /// its successor's copy.
    fn leave_in_flight(&mut self, pos: usize) {
        let first = self.next_ident.wrapping_add(1);
        self.inject(self.cfg.in_flight);
        self.in_flight = first..self.next_ident.wrapping_add(1);
        loop {
            let mut progressed = false;
            for i in 0..=pos {
                progressed |= self.chain.step(Step::Replica(i));
            }
            if !progressed {
                return;
            }
            self.steps += 1;
        }
    }

    /// §5.2-recovers every fail-stopped position (the documented repair
    /// for source crashes and post-commit destination crashes).
    fn recover_dead(&mut self) {
        for i in 0..self.chain.replicas.len() {
            if self.chain.is_dead(i) {
                let result = self.chain.try_fail_and_recover(i, &|_, _| true);
                self.samples.extend(self.chain.take_samples());
                if let Err(e) = result {
                    self.witness(
                        "I3",
                        format!(
                            "§5.2 recovery of fail-stopped position r{i} after \
                             a reconfiguration crash did not heal the ring: {e}"
                        ),
                    );
                }
            }
        }
    }

    /// Executes the operation and applies the documented repair for its
    /// failure class, retrying rolled-back attempts with the probe
    /// disarmed. Every attempt's samples are kept for the I5 fold.
    fn execute_and_repair(&mut self, site: OpSite) {
        for attempt in 0.. {
            let outcome = match site.op {
                ReconfigOp::Migrate => self.chain.migrate_mbox(site.pos),
                ReconfigOp::Scale => self.chain.scale_mbox(site.pos),
            };
            self.samples.extend(self.chain.take_samples());
            let failure = match outcome {
                Ok(_) => {
                    self.completed = true;
                    self.check_i6(site.pos);
                    return;
                }
                Err(RecoveryError::Failed(failure)) => failure,
                Err(e) => {
                    self.witness("I3", format!("handover failed with every source live: {e}"));
                    return;
                }
            };
            self.probe.disarm();
            match failure {
                // The position fail-stopped (pre-commit source death on
                // the old configuration, or a post-commit destination
                // death on the new one): §5.2 repairs.
                ReconfigFailure::SourceCrashed { .. }
                | ReconfigFailure::DestinationCrashed {
                    phase: ReconfigPhase::Switch,
                } => {
                    self.recover_dead();
                    return;
                }
                // Past the commit point the operation rolls forward: the
                // new owner already serves. I6 must hold on what it got.
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Release,
                } => {
                    self.completed = true;
                    self.check_i6(site.pos);
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
                    self.retries += 1;
                }
            }
        }
    }

    /// I6: right after the commit, the new owner's own store equals its
    /// successor's replicated copy — the f + 1-copies prefix. Runs before
    /// post traffic.
    fn check_i6(&mut self, pos: usize) {
        let ring = self.chain.replicas[0].cfg.ring();
        if ring.f == 0 {
            return;
        }
        let succ = (pos + 1) % ring.n;
        let owner = &self.chain.replicas[pos].own_store;
        let (got_seqs, got) = (owner.seq_vector(), canonical(owner.snapshot()));
        let Some(copy) = self.chain.replicas[succ].replicated.get(&pos) else {
            return; // structural damage — I3 reports it
        };
        let (want_seqs, want) = (copy.max.vector(), canonical(copy.store.snapshot()));
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

    /// Captures the I4 baseline before a handover. On in-flight schedules
    /// the replaced position's own store is left out: its in-flight
    /// commits die with the outgoing instance.
    fn capture_i4(&mut self, pos: usize, in_flight: bool) {
        for (r, rep) in self.chain.replicas.iter().enumerate() {
            if !(in_flight && r == pos) {
                self.baseline.insert((r, r), rep.own_store.seq_vector());
            }
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
                            "position r{r}'s MAX vector for mbox {m} moved \
                             backwards across the handover: partition {p} \
                             went {b} → {a}"
                        ),
                    );
                }
            }
        }
    }

    /// I5: at most one serving instance per position at every recorded
    /// probe point, exactly one at final quiescence.
    fn check_i5(&mut self) {
        let samples = std::mem::take(&mut self.samples);
        for s in &samples {
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
    }

    /// Final checks: I2 convergence, I3 structure, liveness, delivery and
    /// the Monitor counters.
    fn check_final(&mut self) {
        if self.budget_blown {
            return; // liveness witness recorded; state is mid-flight
        }
        let n = self.chain.replicas.len();
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
        for ident in 1..=self.next_ident {
            let got = self.egressed.get(&ident).copied().unwrap_or(0);
            let in_flight = self.in_flight.contains(&ident);
            if got > 1 || (got == 0 && !in_flight) {
                let want = if in_flight { "at most once" } else { "once" };
                self.witness(
                    "I3",
                    format!("packet {ident} egressed {got} times, want {want}"),
                );
            }
        }
        let released: usize = self.egressed.values().sum();
        let ring = self.chain.replicas[0].cfg.ring();
        for i in 0..n {
            if self.chain.is_dead(i) {
                self.witness("I3", format!("position r{i} still fail-stopped at the end"));
                continue;
            }
            if self.chain.replicas[i].is_paused() {
                self.witness("I3", format!("position r{i} still paused at the end"));
            }
            let claimed_idx = self.chain.replicas[i].idx;
            if claimed_idx != i {
                self.witness(
                    "I3",
                    format!("instance at ring position {i} believes it is r{claimed_idx}"),
                );
            }
            let mut want = ring.replicated_by(i);
            want.sort_unstable();
            let mut got: Vec<usize> = self.chain.replicas[i].replicated.keys().copied().collect();
            got.sort_unstable();
            if got != want {
                self.witness(
                    "I3",
                    format!(
                        "r{i} replicates groups {got:?} after the \
                         reconfiguration, ring arithmetic requires {want:?}"
                    ),
                );
            }
            // Every Monitor counts every released packet; on in-flight
            // schedules upstream ones also count what the switch dropped.
            let counted = self.chain.replicas[i]
                .own_store
                .peek_u64(b"mon:packets:g0")
                .unwrap_or(0) as usize;
            let exact = self.in_flight.is_empty();
            if (exact && counted != released) || counted < released {
                self.witness(
                    "I3",
                    format!(
                        "position {i}'s packet counter is {counted} after the \
                         schedule, {released} packets were released — state \
                         was lost or duplicated across the reconfiguration"
                    ),
                );
            }
        }
        // I2: every replicated copy equals its head's committed prefix.
        for m in 0..n {
            let head_vec = self.chain.replicas[m].own_store.seq_vector();
            let head_snap = canonical(self.chain.replicas[m].own_store.snapshot());
            for r in ring.group(m) {
                if r == m {
                    continue;
                }
                let Some((member_vec, member_snap)) = self.chain.replicas[r]
                    .replicated
                    .get(&m)
                    .map(|g| (g.max.vector(), g.store.snapshot()))
                else {
                    continue; // reported by the structure check above
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

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

fn run_schedule<'a>(
    cfg: &'a ReconfigCheckConfig,
    case: &ReconfigCase,
    perm: &[Step],
    perm_idx: usize,
) -> Exec<'a> {
    let chain = SyncChain::new(
        ChainConfig::new(cfg.specs.clone())
            .with_f(cfg.f)
            .with_partitions(cfg.partitions),
    );
    let probe = ReconfigProbe::new();
    chain.install_probe(Arc::clone(&probe) as Arc<dyn ProtocolProbe>);
    let mut exec = Exec {
        cfg,
        chain,
        probe,
        label: format!("{}/perm{}", case.label(), perm_idx),
        next_ident: 0,
        in_flight: 0..0,
        egressed: HashMap::new(),
        steps: 0,
        retries: 0,
        completed: false,
        budget_blown: false,
        samples: Vec::new(),
        baseline: HashMap::new(),
        witnesses: Vec::new(),
        violations: 0,
    };

    exec.inject(cfg.warm);
    exec.drive(perm);
    if case.in_flight {
        exec.leave_in_flight(case.site.pos);
    }

    exec.capture_i4(case.site.pos, case.in_flight);
    if let Some(crash) = case.crash {
        exec.probe.arm(case.site.op, crash);
    }
    exec.execute_and_repair(case.site);
    if let Some(crash) = case.crash {
        if !exec.probe.fired() {
            exec.witness(
                "coverage",
                format!(
                    "armed crash {}@{}#{} never fired — the matrix no longer \
                     reaches this point",
                    crash.role.label(),
                    crash.phase.label(),
                    crash.trigger
                ),
            );
        }
    }
    exec.probe.disarm();
    exec.check_i4();

    exec.inject(cfg.post);
    exec.drive(perm);
    exec.check_i5();
    exec.check_final();
    exec
}

/// The matrix for `cfg`: every crash case and every (sampled) actor
/// interleaving.
fn matrix(cfg: &ReconfigCheckConfig) -> (Vec<ReconfigCase>, Vec<Vec<Step>>) {
    let n = ChainConfig::new(cfg.specs.clone())
        .with_f(cfg.f)
        .effective_middleboxes()
        .len();
    let mut actors: Vec<Step> = (0..n).map(Step::Replica).collect();
    actors.push(Step::Buffer);
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
    (case_matrix(cfg, n), perms)
}

/// Runs the full exploration: every crash case in the reconfiguration
/// matrix × every (sampled) actor interleaving, with I1–I6 checked on
/// every schedule.
pub fn explore_reconfig(cfg: &ReconfigCheckConfig) -> ReconfigReport {
    let (cases, perms) = matrix(cfg);
    let mut report = ReconfigReport {
        crash_cases: cases.len(),
        interleavings: perms.len(),
        ..ReconfigReport::default()
    };
    for case in &cases {
        for (perm_idx, perm) in perms.iter().enumerate() {
            report.absorb(run_schedule(cfg, case, perm, perm_idx));
        }
    }
    report
}

/// Re-runs exactly one schedule from a witness label (`case/permN`),
/// returning its single-schedule report. Panics if the label does not
/// name a schedule of `cfg`'s matrix — labels are only portable between
/// identical configurations.
pub fn replay(cfg: &ReconfigCheckConfig, schedule: &str) -> ReconfigReport {
    let (cases, perms) = matrix(cfg);
    for case in &cases {
        for (perm_idx, perm) in perms.iter().enumerate() {
            if format!("{}/perm{}", case.label(), perm_idx) == schedule {
                let mut report = ReconfigReport {
                    crash_cases: 1,
                    interleavings: 1,
                    ..ReconfigReport::default()
                };
                report.absorb(run_schedule(cfg, case, perm, perm_idx));
                return report;
            }
        }
    }
    panic!("schedule {schedule:?} is not in the matrix of this configuration");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> ReconfigCheckConfig {
        ReconfigCheckConfig {
            perm_limit: Some(2),
            ..ReconfigCheckConfig::pr_gate()
        }
    }

    #[test]
    fn pr_gate_matrix_meets_the_schedule_floor() {
        let cfg = ReconfigCheckConfig::pr_gate();
        let (cases, perms) = matrix(&cfg);
        assert_eq!(cases.len(), 120, "6 sites × 10 variants × 2 modes");
        assert_eq!(perms.len(), 24);
        assert!(
            cases.len() * perms.len() >= 1000,
            "PR gate must explore ≥ 1000 schedules"
        );
        let labels: std::collections::BTreeSet<String> = cases.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), cases.len(), "case labels must be distinct");
        let (deep, deep_perms) = matrix(&ReconfigCheckConfig::nightly_deep());
        assert_eq!(deep.len() * deep_perms.len(), 160 * 120);
    }

    #[test]
    #[cfg_attr(feature = "reconfig-sabotage", ignore)]
    fn mini_exploration_is_violation_free() {
        let report = explore_reconfig(&mini());
        assert!(report.ok(), "unexpected witnesses: {:#?}", report.witnesses);
        assert!(report.schedules > 0 && report.steps > 0);
        assert!(
            report.crashes_fired > 0 && report.retries > 0,
            "the matrix must crash participants and exercise retries: {}",
            report.summary()
        );
        // Every schedule either commits the operation (clean, rolled
        // forward, or retried to completion) or fail-stops a position and
        // repairs it with §5.2 recovery instead — both classes must occur.
        assert!(
            report.ops_completed > 0 && report.ops_completed < report.schedules,
            "matrix must exercise both committed and recovered outcomes: {}",
            report.summary()
        );
    }

    #[test]
    #[cfg_attr(feature = "reconfig-sabotage", ignore)]
    fn replay_reproduces_a_clean_schedule() {
        let cfg = mini();
        let report = replay(&cfg, "migrate@0/quiesced/clean/perm0");
        assert_eq!(report.schedules, 1);
        assert!(report.ok(), "witnesses: {:#?}", report.witnesses);
        assert_eq!(report.ops_completed, 1);
    }

    #[test]
    #[should_panic(expected = "not in the matrix")]
    fn replay_rejects_unknown_labels() {
        replay(&mini(), "migrate@9/quiesced/clean/perm999");
    }
}

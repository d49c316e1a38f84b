//! Replacing a replica: one procedure for §5.2 recovery, migrate and scale.
//!
//! The paper has one failure procedure (§5.2): initialize a fresh
//! instance, recover its state from the group members §4.1 names, reroute
//! traffic through it. §4.3 treats vertical scaling as the same
//! replacement of a *running* instance. [`replace`] runs that procedure for
//! all three [`Plan`]s:
//!
//! * [`Plan::Recover`] — the instance fail-stopped;
//! * [`Plan::Migrate`] — move a live instance onto a fresh server;
//! * [`Plan::Scale`] — replace a live instance with one running a
//!   different number of workers.
//!
//! A planned handover is a recovery with two extra steps. **Prepare**
//! seals the outgoing instance with a `FetchState` whose answer is
//! dropped: it pauses like any §4.1 source and emits nothing more. The
//! **switch** kills it before the replacement is installed. The transfer
//! *is* the recovery fetch: the own group comes from the closest live
//! successor, each replicated group from the closest live member walking
//! back toward its head. The outgoing instance's own store is never read:
//! under load it holds commits whose packets die at the switch, so its
//! successors never see them, and a replacement started from it would
//! reissue sequence numbers they already count as applied.
//!
//! This module owns the phase order, the groups to repair, the source
//! order and its fallback, every probe point, rolling back before the
//! switch and forward at or after it, resuming every quiesced member on
//! every exit path, the journal, and the byte counts and phase timings. A
//! [`Driver`] does the IO and nothing else: the stepped
//! [`SyncChain`](crate::testkit::SyncChain), the threaded orchestrator in
//! `ftc-orch`, and the `ftc node --recover` process each implement it, so
//! the model checkers run the procedure that ships.

use crate::config::RingMath;
use crate::journal::EventKind;
use crate::probe::{ProbePoint, ProbeVerdict};
use crate::reconfig::{ReconfigActor, ReconfigFailure, ReconfigOp, ReconfigPhase};
use crate::replica::ReplicaState;
use ftc_stm::StoreSnapshot;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One group's state as a source serves it: the store and its `MAX`
/// vector (the head's sequence vector for an own store).
pub type Fetched = (StoreSnapshot, Vec<u64>);

/// Why an instance is being replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// The instance fail-stopped: rebuild it from its groups (§5.2).
    Recover,
    /// Move the live instance onto a fresh server.
    Migrate,
    /// Replace the live instance with one running `workers` workers.
    Scale {
        /// Worker threads of the replacement.
        workers: usize,
    },
}

impl Plan {
    /// The handover operation, or `None` for a recovery.
    fn op(self) -> Option<ReconfigOp> {
        match self {
            Plan::Recover => None,
            Plan::Migrate => Some(ReconfigOp::Migrate),
            Plan::Scale { .. } => Some(ReconfigOp::Scale),
        }
    }
}

/// The IO a replacement needs. Implementations do exactly what a method
/// says; everything else — order, fallback, rollback — is [`replace`]'s.
pub trait Driver {
    /// Builds the replacement for position `idx` (the initialization
    /// step): `workers` worker threads, or the position's current count
    /// when `None`.
    fn spawn(&mut self, idx: usize, workers: Option<usize>) -> Arc<ReplicaState>;

    /// Sends `FetchState { mbox }` to each `(source, mbox)` and returns the
    /// answers in request order: `None` where the source is dead, refused,
    /// or answered anything but a state. Each driver runs the batch its own
    /// way (the threaded ones in parallel, the stepped one in order).
    fn fetch(&mut self, reqs: &[(usize, usize)]) -> Vec<Option<Fetched>>;

    /// Fail-stops the instance at `idx`.
    fn kill(&mut self, idx: usize);

    /// Wires `dest` into the chain at `idx` (the rerouting step).
    fn install(&mut self, idx: usize, dest: Arc<ReplicaState>);

    /// Resumes the live instances at `positions` (idempotent).
    fn resume(&mut self, positions: &[usize]);

    /// Reports a probe point; a `Crash` verdict fail-stops its participant.
    fn probe(&mut self, point: ProbePoint) -> ProbeVerdict;

    /// Records a journal event attributed to the orchestrator.
    fn journal(&mut self, kind: EventKind);
}

/// Why a replacement did not complete. Each variant leaves the chain in a
/// defined state: a recovery leaves the position dead and can be retried;
/// a handover's state is the one its [`ReconfigFailure`] documents (a
/// missing source or an aborted fetch rolls a handover back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// No live group member could serve group `mbox`.
    NoSource {
        /// The middlebox whose state could not be recovered.
        mbox: usize,
    },
    /// The replacement crashed (probe verdict) while about to fetch
    /// `mbox`: it is abandoned, and a retry builds a fresh one.
    Aborted {
        /// The middlebox whose fetch was under way at the crash.
        mbox: usize,
    },
    /// A handover participant fail-stopped at a probe point.
    Failed(ReconfigFailure),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoSource { mbox } => {
                write!(f, "no alive replica could serve state for middlebox {mbox}")
            }
            RecoveryError::Aborted { mbox } => write!(
                f,
                "recovering replica crashed while fetching middlebox {mbox}"
            ),
            RecoveryError::Failed(e) => write!(f, "handover failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Phase timings and volume of one completed replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaceReport {
    /// Sealing the outgoing instance (handovers only), the spawn delay and
    /// building the replacement.
    pub prepare: Duration,
    /// Fetching and restoring every group.
    pub transfer: Duration,
    /// The part of `transfer` spent waiting for sources' answers, summed
    /// over retry rounds.
    pub fetch: Duration,
    /// The part of `transfer` spent restoring answers into the
    /// replacement, summed over retry rounds.
    pub restore: Duration,
    /// Killing the outgoing instance (handovers only), installing the
    /// replacement and resuming the quiesced members.
    pub switch: Duration,
    /// From the commit to the release point and its journal line.
    pub release: Duration,
    /// State bytes restored into the replacement.
    pub bytes_transferred: usize,
}

impl ReplaceReport {
    /// End-to-end replacement time.
    pub fn total(&self) -> Duration {
        self.prepare + self.transfer + self.switch + self.release
    }
}

/// Source order for group `m` at a replacement of position `idx` (§4.1):
/// successors, closest first, for its own group; otherwise the members
/// walking back from `idx` toward the head `m`.
fn source_order(ring: RingMath, idx: usize, m: usize) -> Vec<usize> {
    if m == idx {
        // Our own middlebox: the immediate successor has the freshest copy.
        (1..=ring.f).map(|k| (idx + k) % ring.n).collect()
    } else {
        // A group we participate in: walk back towards the head.
        let mut order = Vec::new();
        let mut r = (idx + ring.n - 1) % ring.n;
        loop {
            order.push(r);
            if r == m {
                break;
            }
            r = (r + ring.n - 1) % ring.n;
        }
        order
    }
}

/// True when the reconfiguration-sabotage fixture is compiled in. It
/// plants two faults the model checker must catch: the switch resumes the
/// outgoing instance instead of killing it (two instances serve the
/// position: I5), and the own group is restored from the outgoing
/// instance's own store (ahead of the f + 1 copies when packets are in
/// flight: I6).
const SABOTAGE: bool = cfg!(feature = "sabotage-skip-release");

/// Replaces the instance at `idx` according to `plan`, driving `d`.
///
/// On success the replacement serves the position and every member the
/// procedure quiesced is resumed. On error the chain is in the state the
/// [`RecoveryError`] documents; quiesced members are resumed on every path.
pub fn replace(d: &mut dyn Driver, idx: usize, plan: Plan) -> Result<ReplaceReport, RecoveryError> {
    use ReconfigActor::{Destination, Orchestrator, Source};
    use ReconfigPhase::{Prepare, Release, Switch};
    let failed = RecoveryError::Failed;
    let mut run = Run {
        d,
        idx,
        op: plan.op(),
        quiesced: Vec::new(),
        fetch: Duration::ZERO,
        restore: Duration::ZERO,
    };

    // ---- Prepare: seal the outgoing instance, spawn the replacement ------
    let t0 = Instant::now();
    if run.crashed(Prepare, Orchestrator) {
        // The plan died with the orchestrator before anything was touched.
        return Err(failed(ReconfigFailure::OrchestratorCrashed {
            phase: Prepare,
        }));
    }
    run.d.journal(EventKind::RespawnIssued {
        replica: idx as u16,
    });
    if run.op.is_some() {
        // The seal: the answer is dropped, but serving it pauses the
        // outgoing instance. What it already sent reaches its successor
        // (in the threaded chain, during the spawn delay) before the
        // transfer reads that copy; what is still queued dies at the
        // switch.
        run.d.fetch(&[(idx, idx)]);
        run.quiesced.push(idx);
    }
    let workers = match plan {
        Plan::Scale { workers } => Some(workers),
        Plan::Recover | Plan::Migrate => None,
    };
    let dest = run.d.spawn(idx, workers);
    if run.crashed(Prepare, Source) {
        // The sealed source died: an ordinary fail-stop of the position.
        run.kill_source();
        return Err(run.abandon(failed(ReconfigFailure::SourceCrashed { phase: Prepare })));
    }
    let prepare = t0.elapsed();

    // ---- Transfer: the recovery fetch ------------------------------------
    let t1 = Instant::now();
    run.d.journal(EventKind::StateFetchStarted {
        replica: idx as u16,
    });
    let bytes = match run.transfer(&dest) {
        Ok(bytes) => bytes,
        Err(e) => return Err(run.abandon(e)),
    };
    run.d.journal(EventKind::StateFetchFinished {
        replica: idx as u16,
        bytes: bytes as u64,
    });
    let transfer = t1.elapsed();

    // ---- Switch: the commit point ----------------------------------------
    let t2 = Instant::now();
    if run.crashed(Switch, Orchestrator) {
        return Err(run.abandon(failed(ReconfigFailure::OrchestratorCrashed {
            phase: Switch,
        })));
    }
    if run.op.is_some() {
        if SABOTAGE {
            run.d.resume(&[idx]);
        } else {
            run.kill_source();
        }
    }
    run.d.install(idx, dest);
    let quiesced = std::mem::take(&mut run.quiesced);
    run.d.resume(&quiesced);
    if run.crashed(Switch, Destination) {
        // Past the commit point the position fail-stops on the new
        // configuration, and a recovery rolls it forward.
        run.d.kill(idx);
        return Err(failed(ReconfigFailure::DestinationCrashed {
            phase: Switch,
        }));
    }
    let switch = t2.elapsed();

    // ---- Release ----------------------------------------------------------
    let t3 = Instant::now();
    if run.crashed(Release, Orchestrator) {
        // Roll forward: the replacement already serves; only the journal
        // line is lost.
        return Err(failed(ReconfigFailure::OrchestratorCrashed {
            phase: Release,
        }));
    }
    run.d.journal(EventKind::TrafficResumed {
        replica: idx as u16,
    });
    Ok(ReplaceReport {
        prepare,
        transfer,
        fetch: run.fetch,
        restore: run.restore,
        switch,
        release: t3.elapsed(),
        bytes_transferred: bytes,
    })
}

/// One replacement in progress.
struct Run<'a> {
    d: &'a mut dyn Driver,
    idx: usize,
    op: Option<ReconfigOp>,
    /// Every instance the procedure paused (the sealed source and every
    /// member asked for state), to resume on whichever path it exits.
    quiesced: Vec<usize>,
    /// Time spent in fetches and in restores so far.
    fetch: Duration,
    restore: Duration,
}

impl Run<'_> {
    /// Reports a handover probe point; true on a crash verdict. A recovery
    /// has no such points.
    fn crashed(&mut self, phase: ReconfigPhase, role: ReconfigActor) -> bool {
        let Some(op) = self.op else {
            return false;
        };
        let point = ProbePoint::Reconfig {
            op,
            phase,
            role,
            mbox: self.idx,
        };
        self.d.probe(point) == ProbeVerdict::Crash
    }

    /// Fail-stops the outgoing instance; it is not resumed afterwards.
    fn kill_source(&mut self) {
        self.d.kill(self.idx);
        let idx = self.idx;
        self.quiesced.retain(|&q| q != idx);
    }

    /// Every exit before the commit: the old configuration keeps serving,
    /// so everything paused resumes. The replacement is dropped unused.
    fn abandon(&mut self, e: RecoveryError) -> RecoveryError {
        let quiesced = std::mem::take(&mut self.quiesced);
        self.d.resume(&quiesced);
        e
    }

    /// Fetches and restores every group the replacement belongs to; returns
    /// the bytes restored. Each round sends one request per group that
    /// still needs a source, to the next member in its source order.
    fn transfer(&mut self, dest: &ReplicaState) -> Result<usize, RecoveryError> {
        use ReconfigActor::{Destination, Source};
        let (idx, ring) = (self.idx, dest.ring);
        let partitions = dest.own_store.partitions();
        let mut groups = Vec::with_capacity(ring.f + 1);
        if ring.f > 0 {
            groups.push(idx); // only recoverable if anyone replicates it
        }
        groups.extend(ring.replicated_by(idx));
        let mut orders: Vec<_> = groups
            .iter()
            .map(|&m| {
                let mut order = source_order(ring, idx, m);
                if SABOTAGE && self.op.is_some() && m == idx {
                    order.insert(0, idx);
                }
                order.into_iter()
            })
            .collect();

        // A state shaped for another partition count would panic the
        // restore: it counts as a failed source.
        let fits = |(snap, max): &Fetched| {
            snap.maps.len() == partitions
                && snap.seqs.len() == partitions
                && max.len() == partitions
        };

        let mut bytes = 0;
        let mut pending: Vec<usize> = (0..groups.len()).collect();
        while !pending.is_empty() {
            let mut batch = Vec::with_capacity(pending.len());
            for &g in &pending {
                let m = groups[g];
                let src = orders[g]
                    .next()
                    .ok_or(RecoveryError::NoSource { mbox: m })?;
                // The replacement can die between source attempts; it is
                // abandoned half-restored.
                let point = ProbePoint::RecoveryFetch {
                    recovering: idx,
                    source: src,
                    mbox: m,
                };
                if self.d.probe(point) == ProbeVerdict::Crash {
                    self.journal_attempt(src, m, false);
                    return Err(RecoveryError::Aborted { mbox: m });
                }
                batch.push((src, m));
            }
            let t = Instant::now();
            let answers = self.d.fetch(&batch);
            self.fetch += t.elapsed();
            assert_eq!(answers.len(), batch.len(), "one answer per request");
            // A source that answered has paused itself; one that did not
            // may have, too, before it died or timed out.
            for &(src, _) in &batch {
                if !self.quiesced.contains(&src) {
                    self.quiesced.push(src);
                }
            }
            let mut retry = Vec::new();
            for ((&g, &(src, m)), answer) in pending.iter().zip(&batch).zip(answers) {
                let Some((snapshot, max)) = answer.filter(fits) else {
                    self.journal_attempt(src, m, false);
                    retry.push(g);
                    continue;
                };
                self.journal_attempt(src, m, true);
                if self.crashed(ReconfigPhase::Transfer, Source) {
                    self.kill_source();
                    return Err(RecoveryError::Failed(ReconfigFailure::SourceCrashed {
                        phase: ReconfigPhase::Transfer,
                    }));
                }
                bytes += snapshot.byte_size();
                let t = Instant::now();
                if m == idx {
                    dest.restore_own(snapshot, &max);
                } else {
                    dest.restore_replicated(m, snapshot, max);
                }
                self.restore += t.elapsed();
                if self.crashed(ReconfigPhase::Transfer, Destination) {
                    // The half-built replacement is discarded.
                    return Err(RecoveryError::Failed(ReconfigFailure::DestinationCrashed {
                        phase: ReconfigPhase::Transfer,
                    }));
                }
            }
            pending = retry;
        }
        Ok(bytes)
    }

    fn journal_attempt(&mut self, source: usize, mbox: usize, served: bool) {
        let (source, mbox) = (source as u16, mbox as u16);
        self.d.journal(if served {
            EventKind::SourceFetchServed { source, mbox }
        } else {
            EventKind::SourceFetchAborted { source, mbox }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChainConfig;
    use crate::control::{CtrlReq, CtrlResp, OutPort};
    use crate::journal::EventSource;
    use crate::metrics::ChainMetrics;
    use ftc_mbox::MbSpec;

    /// A scripted driver over free-standing replica states: `states[i]`
    /// serves position `i` unless it is listed in `dead`, and `answer` may
    /// override what a source returns.
    struct Scripted {
        states: Vec<Arc<ReplicaState>>,
        dead: Vec<usize>,
        answer: Box<dyn Fn(usize, usize) -> Option<Option<Fetched>>>,
        asked: Vec<(usize, usize)>,
        log: Vec<String>,
        verdict: Box<dyn FnMut(&ProbePoint) -> ProbeVerdict>,
        installed: Option<Arc<ReplicaState>>,
    }

    impl Scripted {
        fn new(n: usize, f: usize) -> Scripted {
            Scripted {
                states: (0..n).map(|i| mk_state(i, n, f)).collect(),
                dead: Vec::new(),
                answer: Box::new(|_, _| None),
                asked: Vec::new(),
                log: Vec::new(),
                verdict: Box::new(|_| ProbeVerdict::Continue),
                installed: None,
            }
        }

        fn journal(&self) -> Vec<crate::journal::Event> {
            self.states[0].metrics.journal.trace()
        }
    }

    impl Driver for Scripted {
        fn spawn(&mut self, idx: usize, workers: Option<usize>) -> Arc<ReplicaState> {
            self.log.push(format!("spawn {idx} {workers:?}"));
            mk_state(idx, self.states.len(), self.states[0].ring.f)
        }

        fn fetch(&mut self, reqs: &[(usize, usize)]) -> Vec<Option<Fetched>> {
            reqs.iter()
                .map(|&(src, mbox)| {
                    self.asked.push((src, mbox));
                    if let Some(scripted) = (self.answer)(src, mbox) {
                        return scripted;
                    }
                    if self.dead.contains(&src) {
                        return None;
                    }
                    match self.states[src].serve_ctrl(CtrlReq::FetchState { mbox }) {
                        CtrlResp::State { snapshot, max } => Some((snapshot, max)),
                        _ => None,
                    }
                })
                .collect()
        }

        fn kill(&mut self, idx: usize) {
            self.log.push(format!("kill {idx}"));
        }

        fn install(&mut self, idx: usize, dest: Arc<ReplicaState>) {
            self.log.push(format!("install {idx}"));
            self.installed = Some(dest);
        }

        fn resume(&mut self, positions: &[usize]) {
            self.log.push(format!("resume {positions:?}"));
            for &p in positions {
                self.states[p].resume();
            }
        }

        fn probe(&mut self, point: ProbePoint) -> ProbeVerdict {
            (self.verdict)(&point)
        }

        fn journal(&mut self, kind: EventKind) {
            self.states[0]
                .metrics
                .journal
                .record(EventSource::Orchestrator, kind);
        }
    }

    fn mk_state(idx: usize, n: usize, f: usize) -> Arc<ReplicaState> {
        let specs = vec![MbSpec::Monitor { sharing_level: 1 }; n];
        ReplicaState::new(
            idx,
            Arc::new(ChainConfig::new(specs).with_f(f)),
            MbSpec::Monitor { sharing_level: 1 }.build(),
            Arc::new(OutPort::empty()),
            Arc::new(ChainMetrics::default()),
        )
    }

    /// Writes `k = v` into `store` as one applied log.
    fn put(store: &dyn ftc_stm::StateBackend, k: &'static [u8], v: &'static [u8]) {
        let p = store.partition_of(k);
        store.apply_writes(
            &ftc_stm::DepVector::from_entries(vec![(p, 0)]).unwrap(),
            &[ftc_stm::StateWrite {
                key: bytes::Bytes::from_static(k),
                value: bytes::Bytes::from_static(v),
                partition: p,
            }],
        );
    }

    #[test]
    fn source_order_own_mbox_prefers_immediate_successor() {
        let ring = RingMath { n: 5, f: 2 };
        assert_eq!(source_order(ring, 1, 1), vec![2, 3]);
        assert_eq!(source_order(ring, 4, 4), vec![0, 1]);
    }

    #[test]
    fn source_order_replicated_prefers_immediate_predecessor() {
        let ring = RingMath { n: 5, f: 2 };
        // r3 recovering m1 (group {1,2,3}): predecessor r2, then head r1.
        assert_eq!(source_order(ring, 3, 1), vec![2, 1]);
        // r0 recovering m3 (group {3,4,0}): r4, then r3.
        assert_eq!(source_order(ring, 0, 3), vec![4, 3]);
    }

    #[test]
    fn recover_uses_fallback_when_primary_source_dead() {
        // n=4, f=2: a new r1 recovers m1 from its successors {2, 3}; r2 is
        // dead, so r3 serves.
        let mut d = Scripted::new(4, 2);
        d.dead = vec![2];
        put(&*d.states[3].replicated[&1].store, b"k", b"v");
        let report = replace(&mut d, 1, Plan::Recover).unwrap();
        assert!(report.bytes_transferred > 0);
        assert!(d.asked.contains(&(2, 1)) && d.asked.contains(&(3, 1)));
        let new_r1 = d.installed.expect("installed");
        assert_eq!(
            new_r1.own_store.peek(b"k"),
            Some(bytes::Bytes::from_static(b"v")),
            "own store restored from the fallback successor"
        );
        // Every member asked is resumed, the dead one included (drivers
        // skip the dead).
        assert!(d.log.last().unwrap().starts_with("resume"));
        assert!(d.states.iter().all(|s| !s.is_paused()));
    }

    #[test]
    fn recover_fails_cleanly_when_all_sources_dead() {
        let mut d = Scripted::new(3, 1);
        d.dead = vec![0, 2];
        let err = replace(&mut d, 1, Plan::Recover).unwrap_err();
        assert!(matches!(err, RecoveryError::NoSource { .. }));
        assert!(d.installed.is_none(), "nothing is wired in");
        assert_eq!(d.log.last().unwrap(), "resume [2, 0]");
    }

    #[test]
    fn partial_failure_journals_one_aborted_and_one_served_fetch() {
        // n=4, f=2: new r1 recovers its own m1 from successors {2, 3}; r2
        // is dead, r3 serves. The journal holds exactly one aborted and one
        // served fetch for m1, and the four phase events once each.
        let mut d = Scripted::new(4, 2);
        d.dead = vec![2];
        replace(&mut d, 1, Plan::Recover).unwrap();
        let trace = d.journal();
        let count =
            |pred: &dyn Fn(&EventKind) -> bool| trace.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(
            count(&|k| matches!(k, EventKind::SourceFetchAborted { source: 2, mbox: 1 })),
            1
        );
        assert_eq!(
            count(&|k| matches!(k, EventKind::SourceFetchServed { source: 3, mbox: 1 })),
            1
        );
        let phases: Vec<&str> = trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::RespawnIssued { .. }
                        | EventKind::StateFetchStarted { .. }
                        | EventKind::StateFetchFinished { .. }
                        | EventKind::TrafficResumed { .. }
                )
            })
            .map(|e| {
                assert_eq!(e.source, EventSource::Orchestrator);
                e.kind.label()
            })
            .collect();
        assert_eq!(
            phases,
            [
                "respawn_issued",
                "state_fetch_started",
                "state_fetch_finished",
                "traffic_resumed"
            ]
        );
    }

    #[test]
    fn probe_crash_during_recovery_aborts_with_journal_trail() {
        // A probe kills the replacement at its first fetch: Aborted, nothing
        // fetched or installed, and the journal shows the aborted attempt.
        let mut d = Scripted::new(3, 1);
        d.verdict = Box::new(|p| match p {
            ProbePoint::RecoveryFetch { .. } => ProbeVerdict::Crash,
            _ => ProbeVerdict::Continue,
        });
        let err = replace(&mut d, 1, Plan::Recover).unwrap_err();
        assert!(matches!(err, RecoveryError::Aborted { .. }));
        assert!(d.asked.is_empty(), "no fetch runs past a crash verdict");
        assert!(d.installed.is_none());
        assert!(d
            .journal()
            .iter()
            .any(|e| matches!(e.kind, EventKind::SourceFetchAborted { .. })));
    }

    #[test]
    fn a_state_of_the_wrong_shape_falls_back_to_the_next_source() {
        // n=4, f=2: r2 answers r1's own-group fetch with a state for 4
        // partitions instead of 32; r3 serves the real one.
        let mut d = Scripted::new(4, 2);
        put(&*d.states[3].replicated[&1].store, b"k", b"v");
        d.answer = Box::new(|src, mbox| {
            (src == 2 && mbox == 1).then(|| {
                Some((
                    StoreSnapshot {
                        maps: vec![vec![]; 4],
                        seqs: vec![0; 4],
                    },
                    vec![0; 4],
                ))
            })
        });
        replace(&mut d, 1, Plan::Recover).expect("the second source serves");
        assert!(d.asked.contains(&(2, 1)) && d.asked.contains(&(3, 1)));
        assert_eq!(
            d.installed.unwrap().own_store.peek(b"k"),
            Some(bytes::Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn a_handover_seals_fetches_from_the_group_and_kills_at_the_switch() {
        // n=3, f=1, migrate r1: the own group comes from r2's copy, not
        // from r1's own store, which is ahead of it.
        let mut d = Scripted::new(3, 1);
        put(&*d.states[1].own_store, b"k", b"ahead");
        put(&*d.states[2].replicated[&1].store, b"k", b"copy");
        let points = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let record = std::rc::Rc::clone(&points);
        d.verdict = Box::new(move |p| {
            if let ProbePoint::Reconfig { phase, role, .. } = p {
                record
                    .borrow_mut()
                    .push(format!("{}:{}", phase.label(), role.label()));
            }
            ProbeVerdict::Continue
        });
        replace(&mut d, 1, Plan::Migrate).unwrap();
        assert_eq!(d.asked[0], (1, 1), "the seal asks the outgoing instance");
        assert!(d.asked[1..].contains(&(2, 1)) && d.asked[1..].contains(&(0, 0)));
        assert_eq!(
            d.installed.unwrap().own_store.peek(b"k"),
            Some(bytes::Bytes::from_static(b"copy"))
        );
        let kill = d.log.iter().position(|l| l == "kill 1").expect("killed");
        let install = d.log.iter().position(|l| l == "install 1").unwrap();
        assert!(kill < install, "the switch kills before it installs");
        assert_eq!(
            *points.borrow(),
            [
                "prepare:orchestrator",
                "prepare:source",
                "transfer:source",
                "transfer:destination",
                "transfer:source",
                "transfer:destination",
                "switch:orchestrator",
                "switch:destination",
                "release:orchestrator",
            ]
        );
    }

    #[test]
    fn a_handover_rolled_back_before_the_switch_resumes_everyone() {
        for crash in [
            (ReconfigPhase::Transfer, ReconfigActor::Destination),
            (ReconfigPhase::Switch, ReconfigActor::Orchestrator),
        ] {
            let mut d = Scripted::new(3, 1);
            d.verdict = Box::new(move |p| match p {
                ProbePoint::Reconfig { phase, role, .. } if (*phase, *role) == crash => {
                    ProbeVerdict::Crash
                }
                _ => ProbeVerdict::Continue,
            });
            let err = replace(&mut d, 1, Plan::Migrate).unwrap_err();
            assert!(matches!(err, RecoveryError::Failed(_)), "{crash:?}");
            assert!(d.installed.is_none() && !d.log.iter().any(|l| l == "kill 1"));
            assert!(
                d.states.iter().all(|s| !s.is_paused()),
                "{crash:?}: the source and the members resume"
            );
        }
    }

    #[test]
    fn a_scale_builds_the_replacement_with_the_new_worker_count() {
        let mut d = Scripted::new(3, 1);
        replace(&mut d, 2, Plan::Scale { workers: 4 }).unwrap();
        assert_eq!(d.log[0], "spawn 2 Some(4)");
        let mut d = Scripted::new(3, 1);
        replace(&mut d, 2, Plan::Migrate).unwrap();
        assert_eq!(d.log[0], "spawn 2 None", "a migrate keeps the count");
    }

    #[test]
    fn an_aborted_fetch_rolls_a_handover_back() {
        let mut d = Scripted::new(3, 1);
        d.verdict = Box::new(|p| match p {
            ProbePoint::RecoveryFetch { .. } => ProbeVerdict::Crash,
            _ => ProbeVerdict::Continue,
        });
        let err = replace(&mut d, 1, Plan::Migrate).unwrap_err();
        assert!(matches!(err, RecoveryError::Aborted { .. }), "{err:?}");
        assert!(d.installed.is_none());
        assert!(
            d.states.iter().all(|s| !s.is_paused()),
            "the sealed source resumes"
        );
    }
}

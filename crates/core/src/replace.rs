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
use crate::control::{decode_state, CtrlResp};
use crate::journal::EventKind;
use crate::probe::{ProbePoint, ProbeVerdict};
use crate::reconfig::{ReconfigActor, ReconfigFailure, ReconfigOp, ReconfigPhase};
use crate::replica::ReplicaState;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a [`Driver::fetch`] hands each group's answer: its index in the
/// batch and its encoded state ([`crate::control::encode_state`]), or
/// `None` where the source is dead, refused, or does not hold the group.
/// It may run on several threads at once, one group each.
pub type Land<'a> = dyn Fn(usize, Option<Bytes>) + Sync + 'a;

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

    /// Asks each source of the `(source, mbox)` batch for its groups, one
    /// `FetchState` per source ([`by_source`]), and hands every group's
    /// answer to `land` on the thread that received it; returns once each
    /// group of the batch has landed exactly once. Each driver runs the
    /// batch its own way: the threaded ones ask distinct sources, and land
    /// the groups of one answer, in parallel ([`concurrently`]); the
    /// stepped one does everything in request order.
    fn fetch(&mut self, reqs: &[(usize, usize)], land: &Land<'_>);

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
    /// The part of `transfer` until the last answer of each round landed,
    /// summed over retry rounds. Groups that landed earlier were restoring
    /// meanwhile.
    pub fetch: Duration,
    /// The rest of `transfer`'s rounds: restoring after the last answer
    /// landed, summed over retry rounds.
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

/// The requests of a batch by source, in order of first appearance: each
/// source with the indices into `reqs` of the groups asked of it.
pub fn by_source(reqs: &[(usize, usize)]) -> Vec<(usize, Vec<usize>)> {
    let mut sources: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &(src, _)) in reqs.iter().enumerate() {
        match sources.iter_mut().find(|(s, _)| *s == src) {
            Some((_, idxs)) => idxs.push(i),
            None => sources.push((src, vec![i])),
        }
    }
    sources
}

/// The per-group states of one source's answer to a `FetchState` naming
/// `n` groups: `None` for each where the answer is missing or is not a
/// state of exactly `n` entries.
pub fn answered_states(answer: Option<CtrlResp>, n: usize) -> Vec<Option<Bytes>> {
    match answer {
        Some(CtrlResp::State(states)) if states.len() == n => states,
        _ => vec![None; n],
    }
}

/// Entries a group must carry before its transfer step is worth a thread
/// of its own. A scoped thread's start and join cost about 45 µs on two
/// vCPUs, about what encoding, decoding and restoring 250 entries costs,
/// so a smaller group's thread would cost the outage more than the
/// overlap saves.
pub const THREAD_MIN_ENTRIES: usize = 1024;

/// Whether groups carrying these numbers of entries move on a thread
/// each: only when at least two of them carry [`THREAD_MIN_ENTRIES`], so
/// that there is work to overlap.
pub fn worth_threads(entries: impl IntoIterator<Item = usize>) -> bool {
    entries
        .into_iter()
        .filter(|&n| n >= THREAD_MIN_ENTRIES)
        .count()
        >= 2
}

/// Runs `f` on each item and returns the results in order. With `threads`
/// and several items, all but the last run on scoped threads and the last
/// on the calling thread, which would otherwise only wait; otherwise one
/// after the other, inline. "The control module spawns a thread to fetch
/// state per each replication group" (§6): the source's encoding and the
/// replacement's restore use it, so a thread exists only while a transfer
/// moves more than one group.
pub fn concurrently<T: Send, R: Send>(
    mut items: Vec<T>,
    threads: bool,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if !threads || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let last = items.pop().expect("several items");
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        let last = f(last);
        handles
            .into_iter()
            .map(|h| h.join().expect("transfer thread"))
            .chain(std::iter::once(last))
            .collect()
    })
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
        run.d.fetch(&[(idx, idx)], &|_, _| {});
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
    /// the bytes restored. Each round asks, for every group that still
    /// needs a source, the next member in its source order. A
    /// group is restored as soon as its answer lands, on the thread that
    /// received it; the journal lines and the transfer's probe points
    /// follow per group, in group order, once the round is in.
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

        // Decodes and restores one group's answer; the bytes restored, or
        // `None` for a failed source. A state that does not decode, or is
        // shaped for another partition count (which would panic the
        // restore), counts as a failed source.
        let restore = |m: usize, state: Option<Bytes>| -> Option<usize> {
            let (snapshot, max) = decode_state(&state?)?;
            if snapshot.maps.len() != partitions
                || snapshot.seqs.len() != partitions
                || max.len() != partitions
            {
                return None;
            }
            let bytes = snapshot.byte_size();
            if m == idx {
                dest.restore_own(snapshot, &max);
            } else {
                dest.restore_replicated(m, snapshot, max);
            }
            Some(bytes)
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
            // Per group, the bytes restored (`None`: the source failed);
            // and when the round's last answer landed.
            let landed = Mutex::new((vec![None; batch.len()], Duration::ZERO));
            let t = Instant::now();
            self.d.fetch(&batch, &|i, state| {
                let at = t.elapsed();
                let restored = restore(batch[i].1, state);
                let mut landed = landed.lock();
                landed.0[i] = restored;
                landed.1 = landed.1.max(at);
            });
            let round = t.elapsed();
            let (landed, fetched) = landed.into_inner();
            self.fetch += fetched;
            self.restore += round.saturating_sub(fetched);
            // A source that answered has paused itself; one that did not
            // may have, too, before it died or timed out.
            for &(src, _) in &batch {
                if !self.quiesced.contains(&src) {
                    self.quiesced.push(src);
                }
            }
            let mut retry = Vec::new();
            for ((&g, &(src, m)), restored) in pending.iter().zip(&batch).zip(landed) {
                let Some(restored) = restored else {
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
                bytes += restored;
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
    use crate::control::{encode_state, CtrlReq, OutPort};
    use crate::journal::EventSource;
    use crate::metrics::ChainMetrics;
    use ftc_mbox::MbSpec;

    /// A scripted driver over free-standing replica states: `states[i]`
    /// serves position `i` unless it is listed in `dead`, and `answer` may
    /// override the encoded state a source returns for a group.
    struct Scripted {
        states: Vec<Arc<ReplicaState>>,
        dead: Vec<usize>,
        answer: Box<dyn Fn(usize, usize) -> Option<Option<Bytes>>>,
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

        fn fetch(&mut self, reqs: &[(usize, usize)], land: &Land<'_>) {
            // One request per source, as the threaded drivers send it;
            // `answer` overrides a group's state.
            for (src, idxs) in by_source(reqs) {
                let mut served = Vec::new();
                for i in idxs {
                    self.asked.push(reqs[i]);
                    match (self.answer)(src, reqs[i].1) {
                        Some(scripted) => land(i, scripted),
                        None => served.push(i),
                    }
                }
                if served.is_empty() || self.dead.contains(&src) {
                    served.into_iter().for_each(|i| land(i, None));
                    continue;
                }
                let mboxes = served.iter().map(|&i| reqs[i].1).collect();
                let answer = self.states[src].serve_ctrl(CtrlReq::FetchState { mboxes });
                let states = answered_states(Some(answer), served.len());
                for (i, state) in served.into_iter().zip(states) {
                    land(i, state);
                }
            }
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

    /// Fills `store` with `n` distinct entries.
    fn fill(store: &dyn ftc_stm::StateBackend, n: usize) {
        let mut snap = store.snapshot();
        for i in 0..n {
            let k = bytes::Bytes::from(format!("k{i}"));
            snap.maps[store.partition_of(&k) as usize].push((k.clone(), k));
        }
        store.restore(snap);
    }

    #[test]
    fn only_two_large_groups_are_worth_threads() {
        let n = THREAD_MIN_ENTRIES;
        assert!(worth_threads([n, n]));
        assert!(worth_threads([0, n, 5 * n]));
        assert!(!worth_threads([n - 1, 5 * n]));
        assert!(!worth_threads([5 * n]));
        for threads in [false, true] {
            let out = concurrently((0..5).collect(), threads, |i: usize| i * 10);
            assert_eq!(out, [0, 10, 20, 30, 40], "results in item order");
        }
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
            (src == 2 && mbox == 1)
                .then(|| Some(encode_state(&ftc_stm::StateStore::new(4), &[0; 4])))
        });
        replace(&mut d, 1, Plan::Recover).expect("the second source serves");
        assert!(d.asked.contains(&(2, 1)) && d.asked.contains(&(3, 1)));
        assert_eq!(
            d.installed.unwrap().own_store.peek(b"k"),
            Some(bytes::Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn a_group_without_an_answer_retries_while_the_others_restore() {
        // n=4, f=2, recover r1: one batch asks r2 for m1 and r0 for m3 and
        // m0. r2 does not answer; m3 and m0 are restored from r0's single
        // answer, and m1 alone goes to the next member, r3.
        let mut d = Scripted::new(4, 2);
        d.dead = vec![2];
        put(&*d.states[3].replicated[&1].store, b"own", b"from r3");
        put(&*d.states[0].own_store, b"m0", b"from r0");
        put(&*d.states[0].replicated[&3].store, b"m3", b"from r0");
        replace(&mut d, 1, Plan::Recover).unwrap();
        assert_eq!(d.asked, [(2, 1), (0, 3), (0, 0), (3, 1)]);
        let new_r1 = d.installed.clone().expect("installed");
        let peek = |store: &dyn ftc_stm::StateBackend, k: &[u8]| store.peek(k);
        assert_eq!(
            peek(&*new_r1.own_store, b"own"),
            Some(Bytes::from_static(b"from r3"))
        );
        assert_eq!(
            peek(&*new_r1.replicated[&0].store, b"m0"),
            Some(Bytes::from_static(b"from r0"))
        );
        assert_eq!(
            peek(&*new_r1.replicated[&3].store, b"m3"),
            Some(Bytes::from_static(b"from r0"))
        );
        let trace = d.journal();
        let fetches: Vec<_> = trace
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SourceFetchServed { source, mbox } => Some((source, mbox, true)),
                EventKind::SourceFetchAborted { source, mbox } => Some((source, mbox, false)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fetches,
            [(2, 1, false), (0, 3, true), (0, 0, true), (3, 1, true)],
            "journal lines per group, in group order, round by round"
        );
    }

    #[test]
    fn every_paused_source_is_resumed_exactly_once_on_every_exit_path() {
        // r0 serves two groups of r1 in one request, each large enough for
        // its encoding to run on a thread of its own. Whichever way the replacement ends, each
        // instance it paused and that is still alive is resumed once.
        let crash_at = |at: &'static str| -> Box<dyn FnMut(&ProbePoint) -> ProbeVerdict> {
            Box::new(move |p| {
                let label = match p {
                    ProbePoint::RecoveryFetch { .. } => "fetch".to_owned(),
                    ProbePoint::Reconfig { phase, role, .. } => {
                        format!("{}:{}", phase.label(), role.label())
                    }
                    _ => String::new(),
                };
                if label == at {
                    ProbeVerdict::Crash
                } else {
                    ProbeVerdict::Continue
                }
            })
        };
        let cases: [(Plan, &str, &[usize]); 9] = [
            (Plan::Recover, "", &[]),
            (Plan::Recover, "", &[2, 3]),
            (Plan::Recover, "fetch", &[]),
            (Plan::Migrate, "", &[]),
            (Plan::Migrate, "prepare:source", &[]),
            (Plan::Migrate, "transfer:source", &[]),
            (Plan::Migrate, "transfer:destination", &[]),
            (Plan::Migrate, "switch:orchestrator", &[]),
            (Plan::Migrate, "switch:destination", &[]),
        ];
        for (plan, at, dead) in cases {
            let mut d = Scripted::new(4, 2);
            fill(&*d.states[0].own_store, THREAD_MIN_ENTRIES);
            fill(&*d.states[0].replicated[&3].store, THREAD_MIN_ENTRIES);
            d.dead = dead.to_vec();
            d.verdict = crash_at(at);
            let result = replace(&mut d, 1, plan);
            let killed = d.log.iter().any(|l| l == "kill 1");
            let resumed: Vec<usize> = d
                .log
                .iter()
                .filter_map(|l| l.strip_prefix("resume "))
                .flat_map(|l| {
                    l.trim_matches(|c| c == '[' || c == ']')
                        .split(", ")
                        .filter(|p| !p.is_empty())
                        .map(|p| p.parse::<usize>().unwrap())
                        .collect::<Vec<_>>()
                })
                .collect();
            for p in 0..4 {
                let gone = d.dead.contains(&p) || (p == 1 && killed);
                let alive = !gone;
                let paused = alive && d.asked.iter().any(|&(src, _)| src == p);
                let times = resumed.iter().filter(|&&q| q == p).count();
                let case = format!("{plan:?}, crash at {at:?}, dead {dead:?}: r{p} ({result:?})");
                if paused {
                    assert_eq!(times, 1, "{case}: paused, resumed {times} times");
                } else {
                    assert!(times <= 1, "{case}: resumed {times} times");
                }
                if alive {
                    assert!(!d.states[p].is_paused(), "{case}: left paused");
                }
            }
        }
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

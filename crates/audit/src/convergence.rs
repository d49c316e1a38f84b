//! Replica-convergence checking by adversarial replay.
//!
//! Paper §4.3 claims that replicas applying piggyback logs under the
//! `MAX`-vector partial-order rule converge to the head's state no matter
//! how the network reorders log delivery. This module checks that claim
//! mechanically: it replays a recorded history into fresh replica stores
//! under many adversarial delivery orders and diffs every final
//! [`StoreSnapshot`] against the primary's.
//!
//! Two delivery modes alternate across schedules, covering both replica
//! implementations:
//!
//! * **offer** — every log is delivered exactly once in a (seeded) random
//!   permutation; out-of-order logs park inside the [`MaxVector`] and are
//!   drained when their dependencies arrive. Any permutation thus induces
//!   a dep-respecting application order.
//! * **try-apply** — the checker repeatedly sweeps the not-yet-applied
//!   logs in shuffled order and applies whichever are `Ready`, modelling
//!   replicas that park whole packets and retry. Each sweep order is a
//!   random linear extension of the dependency partial order.
//!
//! Schedule 0 is the exact reverse of the recorded commit order — the
//! most adversarial FIFO-breaking delivery.
//!
//! Replays start from empty stores, so the history must have been
//! recorded from a fresh store (all partition sequences starting at 0);
//! a history with a non-zero base stalls and is reported as divergent.

use crate::history::History;
use ftc_stm::{Applicability, MaxVector, StateStore, StoreSnapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Outcome of [`replay`] / [`replay_against`].
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Number of adversarial schedules replayed.
    pub schedules: usize,
    /// Number of logs in the replayed history.
    pub logs: usize,
    /// Human-readable description of every divergence found (empty =
    /// every schedule converged to the primary state).
    pub divergences: Vec<String>,
}

impl ConvergenceReport {
    /// True iff every schedule converged.
    pub fn converged(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Replays `history` under `schedules` adversarial orders and checks that
/// each converges to `primary` (the head store's final snapshot).
pub fn replay_against(
    history: &History,
    primary: &StoreSnapshot,
    partitions: usize,
    schedules: usize,
    seed: u64,
) -> ConvergenceReport {
    let logs: Vec<_> = history
        .txns
        .iter()
        .map(|t| (t.deps.clone(), t.writes.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut divergences = Vec::new();

    for s in 0..schedules {
        let mut order: Vec<usize> = (0..logs.len()).collect();
        if s == 0 {
            order.reverse();
        } else {
            order.shuffle(&mut rng);
        }

        let store = StateStore::new(partitions);
        let max = MaxVector::new(partitions);
        let mut applied = 0usize;
        if s % 2 == 0 {
            // Offer mode: parking absorbs the reordering.
            for &i in &order {
                let (deps, writes) = &logs[i];
                applied += max.offer(deps, writes, &store).applied;
            }
            if max.parked_len() != 0 {
                divergences.push(format!(
                    "schedule {s}: {} logs still parked after delivery",
                    max.parked_len()
                ));
            }
        } else {
            // Try-apply mode: sweep until a fixpoint.
            let mut pending = order;
            loop {
                let before = pending.len();
                pending.retain(|&i| {
                    let (deps, writes) = &logs[i];
                    match max.try_apply(deps, writes, &store) {
                        Applicability::Ready => {
                            applied += 1;
                            false
                        }
                        Applicability::Stale => false,
                        Applicability::NotYet => true,
                    }
                });
                if pending.is_empty() || pending.len() == before {
                    break;
                }
                pending.shuffle(&mut rng);
            }
            if !pending.is_empty() {
                divergences.push(format!(
                    "schedule {s}: {} logs never became applicable",
                    pending.len()
                ));
            }
        }

        if applied != logs.len() {
            divergences.push(format!(
                "schedule {s}: applied {applied} of {} logs",
                logs.len()
            ));
        }
        let snap = store.snapshot();
        if snap.seqs != primary.seqs {
            divergences.push(format!(
                "schedule {s}: sequence vector {:?} != primary {:?}",
                snap.seqs, primary.seqs
            ));
        } else if snap != *primary {
            divergences.push(format!("schedule {s}: final key/value state diverges"));
        }
        if max.vector() != primary.seqs {
            divergences.push(format!(
                "schedule {s}: MAX vector {:?} != primary {:?}",
                max.vector(),
                primary.seqs
            ));
        }
    }

    ConvergenceReport {
        schedules,
        logs: logs.len(),
        divergences,
    }
}

/// Like [`replay_against`], deriving the primary state by replaying the
/// history once in recorded commit order.
pub fn replay(
    history: &History,
    partitions: usize,
    schedules: usize,
    seed: u64,
) -> ConvergenceReport {
    let store = StateStore::new(partitions);
    let max = MaxVector::new(partitions);
    for t in &history.txns {
        max.offer(&t.deps, &t.writes, &store);
    }
    if max.parked_len() != 0 {
        return ConvergenceReport {
            schedules: 0,
            logs: history.txns.len(),
            divergences: vec![format!(
                "primary replay stalled with {} logs parked (history incomplete \
                 or recorded from a warm store)",
                max.parked_len()
            )],
        };
    }
    replay_against(history, &store.snapshot(), partitions, schedules, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use bytes::Bytes;

    /// Builds a history of `n` increments of one hot key plus `n` writes
    /// of distinct keys, recorded from a live store.
    fn record_history(n: u64, partitions: usize) -> (History, StoreSnapshot) {
        let store = StateStore::new(partitions);
        let rec = crate::Recorder::attach(&store);
        let hot = Bytes::from_static(b"hot");
        for i in 0..n {
            store.transaction(|txn| {
                let c = txn.read_u64(&hot)?.unwrap_or(0);
                txn.write_u64(hot.clone(), c + 1)?;
                Ok(())
            });
            let k = Bytes::from(format!("cold:{i}"));
            store.transaction(|txn| {
                txn.write_u64(k.clone(), i)?;
                Ok(())
            });
        }
        (rec.history(), store.snapshot())
    }

    #[test]
    fn recorded_history_converges_under_adversarial_replay() {
        let (history, primary) = record_history(20, 8);
        let report = replay_against(&history, &primary, 8, 6, 42);
        assert!(report.converged(), "{:?}", report.divergences);
        assert_eq!(report.logs, 40);
    }

    #[test]
    fn self_derived_primary_matches_live_store() {
        let (history, primary) = record_history(10, 4);
        // replay() derives its own primary; it must equal the live one.
        let report = replay(&history, 4, 4, 7);
        assert!(report.converged(), "{:?}", report.divergences);
        let report2 = replay_against(&history, &primary, 4, 4, 7);
        assert!(report2.converged(), "{:?}", report2.divergences);
    }

    #[test]
    fn dropped_log_is_detected() {
        let (mut history, primary) = record_history(10, 4);
        history.txns.remove(5); // lose one committed log
        let report = replay_against(&history, &primary, 4, 4, 3);
        assert!(!report.converged(), "a lost log must break convergence");
    }

    #[test]
    fn tampered_write_is_detected() {
        let (mut history, primary) = record_history(10, 4);
        // Tamper the LAST write: earlier writes to the hot key are masked
        // by later ones, but the final write of any key must survive into
        // the replica's final state.
        let t = history
            .txns
            .iter_mut()
            .rev()
            .find(|t| !t.writes.is_empty())
            .unwrap();
        t.writes[0].value = Bytes::from_static(b"\x00\x00\x00\x00\x00\x00\x00\x63");
        let report = replay_against(&history, &primary, 4, 2, 3);
        assert!(!report.converged(), "a tampered write must surface");
    }

    #[test]
    fn warm_history_stalls_and_is_reported() {
        let (mut history, _) = record_history(6, 4);
        // Drop the first few logs: the remainder has a non-zero base.
        history.txns.drain(0..4);
        let report = replay(&history, 4, 2, 9);
        assert!(!report.converged());
    }
}

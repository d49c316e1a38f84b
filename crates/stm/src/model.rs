//! Bounded exhaustive model checking of the concurrency core.
//!
//! Compiled only with `--features loom` (named for the loom convention of
//! feature-gated model checking; the checker itself is in-repo so the
//! crate set stays offline-buildable). Two checkers live here:
//!
//! 1. [`check_wound_wait`] — an explicit-state model of the wound-wait
//!    lock protocol in [`txn`](crate::Txn). Each transaction is reduced
//!    to its lock-acquisition *plan* (the partitions it touches, in
//!    order); the checker enumerates **every** interleaving of acquire /
//!    wound / abort-retry / commit steps by depth-first search over the
//!    reachable state space and verifies, in every state:
//!
//!    * **no deadlock** — some step is always enabled until all commit;
//!    * **oldest is never wounded** — the smallest-timestamp transaction
//!      has no smaller-timestamp rival, so it must run to completion
//!      without ever aborting (the wound-wait progress argument);
//!    * **liveness** — every reachable state can still reach the
//!      all-committed terminal state (no livelock);
//!
//!    and, in every terminal state:
//!
//!    * **exactly-once effects** — each partition's sequence counter
//!      equals the number of transactions that touched it, and every
//!      transaction holds one pre-increment stamp per touched partition;
//!    * **serializability** — the direct serialization graph induced by
//!      the stamps is acyclic.
//!
//!    The model mirrors the implementation's rules exactly: a wounded
//!    flag is only observed at the next acquire (a fully-acquired
//!    transaction commits even if wounded, as `Txn::commit` documents),
//!    retries keep their original timestamp, and wounding is sticky.
//!
//! 2. [`check_max_vector_permutations`] — exhaustive delivery-order
//!    checking of the *real* [`MaxVector`]: every permutation of a log
//!    batch (optionally with each log delivered twice) is offered to a
//!    fresh replica, which must drain its parking lot and converge to
//!    the reference state. `MaxVector` serializes offers internally, so
//!    concurrent delivery is equivalent to *some* permutation with
//!    interleaved duplicates — covering all permutations plus duplicate
//!    redelivery covers the concurrent behaviors.

use crate::{DepVector, MaxVector, StateStore, StateWrite};
use std::collections::{HashMap, HashSet, VecDeque};

/// One transaction's lock-acquisition plan: the partitions it touches,
/// in acquisition order, each at most once.
pub type Plan = Vec<u8>;

/// Tuning knobs for [`check_wound_wait_opts`].
#[derive(Debug, Clone, Copy)]
pub struct ModelOptions {
    /// Whether lock requesters wound younger holders. Disabling this
    /// turns the protocol into plain blocking 2PL, whose deadlocks the
    /// checker must then report — a self-test that the checker has teeth.
    pub wound: bool,
    /// Abort counters saturate here, keeping the state space finite.
    pub abort_cap: u8,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            wound: true,
            abort_cap: 3,
        }
    }
}

/// Exploration statistics from a successful check.
#[derive(Debug, Clone, Copy)]
pub struct ModelStats {
    /// Distinct states explored.
    pub states: usize,
    /// Distinct all-committed terminal states reached.
    pub terminals: usize,
    /// Largest (saturated) abort count any transaction reached.
    pub max_aborts: u8,
}

/// Per-transaction program counter state. `pc` counts acquired locks, so
/// the set of locks transaction `i` holds is exactly `plans[i][..pc[i]]`
/// — lock ownership needs no separate representation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    pc: Vec<u8>,
    wounded: Vec<bool>,
    done: Vec<bool>,
    aborts: Vec<u8>,
    /// Per-partition commit sequence counters (the model of
    /// `PartitionState::seq`).
    seqs: Vec<u8>,
    /// Pre-increment stamps each committed transaction collected.
    deps: Vec<Vec<(u8, u8)>>,
}

impl State {
    fn initial(n: usize, partitions: usize) -> State {
        State {
            pc: vec![0; n],
            wounded: vec![false; n],
            done: vec![false; n],
            aborts: vec![0; n],
            seqs: vec![0; partitions],
            deps: vec![Vec::new(); n],
        }
    }

    /// Which transaction holds partition `p`, if any.
    fn owner(&self, plans: &[Plan], p: u8) -> Option<usize> {
        (0..plans.len()).find(|&i| !self.done[i] && plans[i][..self.pc[i] as usize].contains(&p))
    }

    fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }
}

/// Every enabled successor of `s`. Timestamps are the transaction
/// indices: transaction 0 is the oldest, mirroring the wound-wait rule
/// "smaller ts = higher priority"; retries keep their timestamp.
fn successors(s: &State, plans: &[Plan], opts: ModelOptions) -> Vec<State> {
    let mut out = Vec::new();
    for i in 0..plans.len() {
        if s.done[i] {
            continue;
        }
        let len = plans[i].len();
        if (s.pc[i] as usize) == len {
            // Commit: stamp pre-increment seqs, release all locks. The
            // implementation commits even when wounded — once every lock
            // is held, nothing is gained by aborting.
            let mut t = s.clone();
            for &p in &plans[i] {
                t.deps[i].push((p, t.seqs[p as usize]));
                t.seqs[p as usize] += 1;
            }
            t.done[i] = true;
            t.wounded[i] = false;
            out.push(t);
            continue;
        }
        if s.wounded[i] {
            // Acquire observes the wound: abort, release, retry with the
            // same timestamp. This is the only step a wounded txn takes.
            let mut t = s.clone();
            t.pc[i] = 0;
            t.wounded[i] = false;
            t.aborts[i] = (t.aborts[i] + 1).min(opts.abort_cap);
            out.push(t);
            continue;
        }
        let p = plans[i][s.pc[i] as usize];
        match s.owner(plans, p) {
            None => {
                let mut t = s.clone();
                t.pc[i] += 1;
                out.push(t);
            }
            Some(j) if j == i => unreachable!("plans touch each partition once"),
            Some(j) => {
                // Holder j blocks us. If we are older, wounding j is a
                // step (no-op re-wounds are not distinct states). If we
                // are younger we wait — no step.
                if opts.wound && i < j && !s.wounded[j] {
                    let mut t = s.clone();
                    t.wounded[j] = true;
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Checks the wound-wait protocol for `plans` over `partitions`
/// partitions with default options. See the module docs for the
/// properties verified. Returns exploration stats, or a description of
/// the first property violation found.
pub fn check_wound_wait(plans: &[Plan], partitions: usize) -> Result<ModelStats, String> {
    check_wound_wait_opts(plans, partitions, ModelOptions::default())
}

/// [`check_wound_wait`] with explicit [`ModelOptions`].
pub fn check_wound_wait_opts(
    plans: &[Plan],
    partitions: usize,
    opts: ModelOptions,
) -> Result<ModelStats, String> {
    assert!(plans.len() <= 4, "state space is exponential; keep n small");
    for plan in plans {
        let uniq: HashSet<_> = plan.iter().collect();
        assert_eq!(uniq.len(), plan.len(), "plans touch each partition once");
        assert!(plan.iter().all(|&p| (p as usize) < partitions));
    }

    // Forward exploration, remembering the transition graph for the
    // liveness pass.
    let init = State::initial(plans.len(), partitions);
    let mut ids: HashMap<State, usize> = HashMap::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    ids.insert(init.clone(), 0);
    edges.push(Vec::new());
    queue.push_back(init);
    let mut terminals = Vec::new();
    let mut max_aborts = 0;

    while let Some(s) = queue.pop_front() {
        let sid = ids[&s];
        if let Some(w) = s.wounded.iter().position(|&w| w) {
            // Only a strictly older rival may wound; txn `w` has `w`
            // older rivals, so txn 0 in particular is unwoundable.
            if w == 0 {
                return Err("oldest transaction was wounded".into());
            }
        }
        max_aborts = max_aborts.max(s.aborts.iter().copied().max().unwrap_or(0));
        if s.all_done() {
            terminals.push(sid);
            check_terminal(&s, plans)?;
            continue;
        }
        let succs = successors(&s, plans, opts);
        if succs.is_empty() {
            return Err(format!("deadlock: no step enabled in state {s:?}"));
        }
        for t in succs {
            let next = ids.len();
            let tid = *ids.entry(t.clone()).or_insert_with(|| {
                edges.push(Vec::new());
                queue.push_back(t);
                next
            });
            edges[sid].push(tid);
        }
    }

    // Liveness: every reachable state must reach a terminal. Backward
    // BFS from the terminals over reversed edges.
    let n = ids.len();
    let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, tos) in edges.iter().enumerate() {
        for &to in tos {
            redges[to].push(from);
        }
    }
    let mut good = vec![false; n];
    let mut bfs: VecDeque<usize> = terminals.iter().copied().collect();
    for &t in &terminals {
        good[t] = true;
    }
    while let Some(v) = bfs.pop_front() {
        for &u in &redges[v] {
            if !good[u] {
                good[u] = true;
                bfs.push_back(u);
            }
        }
    }
    if let Some(stuck) = good.iter().position(|&g| !g) {
        let s = ids.iter().find(|(_, &id)| id == stuck).unwrap().0;
        return Err(format!("livelock: no path to completion from {s:?}"));
    }

    Ok(ModelStats {
        states: n,
        terminals: terminals.len(),
        max_aborts,
    })
}

/// Terminal-state checks: exactly-once effects and an acyclic direct
/// serialization graph.
fn check_terminal(s: &State, plans: &[Plan]) -> Result<(), String> {
    for (p, &seq) in s.seqs.iter().enumerate() {
        let touch = plans.iter().filter(|pl| pl.contains(&(p as u8))).count();
        if seq as usize != touch {
            return Err(format!(
                "partition {p}: seq {seq} after {touch} touching txns (lost or doubled commit)"
            ));
        }
    }
    // Per-partition claims define total orders; their union must be
    // acyclic (Kahn's algorithm, as in the offline checker).
    let n = plans.len();
    let mut claims: HashMap<u8, Vec<(u8, usize)>> = HashMap::new();
    for (i, deps) in s.deps.iter().enumerate() {
        if deps.len() != plans[i].len() {
            return Err(format!(
                "txn {i} committed {} stamps, plan has {}",
                deps.len(),
                plans[i].len()
            ));
        }
        for &(p, seq) in deps {
            claims.entry(p).or_default().push((seq, i));
        }
    }
    let mut succs = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (_, mut list) in claims {
        list.sort_unstable();
        for w in list.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(format!("duplicate stamp {:?} / {:?}", w[0], w[1]));
            }
            succs[w[0].1].push(w[1].1);
            indeg[w[1].1] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(i) = ready.pop() {
        seen += 1;
        for &j in &succs[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }
    if seen < n {
        return Err("terminal history has a serialization cycle".into());
    }
    Ok(())
}

/// Offers every permutation of `logs` (each log once, or twice when
/// `duplicates` — modelling at-least-once delivery) to a fresh replica
/// through the real [`MaxVector`], and checks that each order converges
/// to the reference state: parking lot drained, `MAX` vector and store
/// contents identical to in-order application. Returns the number of
/// orders checked. Panics on the first divergence.
pub fn check_max_vector_permutations(
    logs: &[(DepVector, Vec<StateWrite>)],
    partitions: usize,
    duplicates: bool,
) -> usize {
    assert!(logs.len() <= 6, "n! orders; keep the batch small");

    // Reference: in-order application.
    let ref_store = StateStore::new(partitions);
    let ref_max = MaxVector::new(partitions);
    let mut ref_applied = 0;
    for (deps, writes) in logs {
        ref_applied += ref_max.offer(deps, writes, &ref_store).applied;
    }
    assert_eq!(ref_applied, logs.len(), "reference batch must be complete");
    let reference = ref_store.snapshot();
    let ref_vec = ref_max.vector();

    let mut orders = 0;
    let mut idx: Vec<usize> = (0..logs.len()).collect();
    permute(&mut idx, 0, &mut |order| {
        let store = StateStore::new(partitions);
        let max = MaxVector::new(partitions);
        let mut applied = 0;
        for &i in order {
            let (deps, writes) = &logs[i];
            applied += max.offer(deps, writes, &store).applied;
            if duplicates {
                // Immediate redelivery: must be parked-then-dropped or
                // detected stale, never applied twice.
                max.offer(deps, writes, &store);
            }
        }
        assert_eq!(applied, logs.len(), "order {order:?} lost logs");
        assert_eq!(max.parked_len(), 0, "order {order:?} left logs parked");
        assert_eq!(max.vector(), ref_vec, "order {order:?}: MAX diverged");
        assert_eq!(
            store.snapshot(),
            reference,
            "order {order:?}: state diverged"
        );
        orders += 1;
    });
    orders
}

/// Heap's algorithm: visits every permutation of `v` exactly once.
fn permute(v: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_txn_is_trivially_correct() {
        let stats = check_wound_wait(&[vec![0, 1]], 2).unwrap();
        assert_eq!(stats.terminals, 1);
        assert_eq!(stats.max_aborts, 0);
    }

    #[test]
    fn disabling_wounding_reintroduces_deadlock() {
        // Opposite acquisition orders deadlock under plain blocking 2PL;
        // the checker must see it. This is the checker checking itself.
        let err = check_wound_wait_opts(
            &[vec![0, 1], vec![1, 0]],
            2,
            ModelOptions {
                wound: false,
                ..ModelOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("deadlock"), "got: {err}");
    }
}

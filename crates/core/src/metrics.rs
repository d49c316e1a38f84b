//! Chain-wide counters, histogram-backed timing breakdowns (paper
//! Table 2), and the embedded event [`Journal`].
//!
//! Read everything through [`ChainMetrics::snapshot`], which returns a
//! plain serializable [`MetricsSnapshot`] with named fields — the raw
//! atomics stay public for hot-path writers only.

use crate::hist::{AtomicHistogram, Histogram};
use crate::journal::Journal;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A histogram-backed timing accumulator: lock-free to record, and able
/// to answer mean *and* tail-quantile queries (Table 2 with tails).
#[derive(Debug, Default)]
pub struct TimingCell {
    hist: AtomicHistogram,
}

impl TimingCell {
    /// Records one sample.
    pub fn record(&self, d: Duration) {
        self.hist.record(d);
    }

    /// Mean duration across samples, if any.
    pub fn mean(&self) -> Option<Duration> {
        self.hist.snapshot().mean()
    }

    /// Number of samples.
    pub fn samples(&self) -> u64 {
        self.hist.len()
    }

    /// The duration at quantile `q` in `[0, 1]`, if any samples exist.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.hist.snapshot().quantile(q)
    }

    /// A point-in-time copy of the full distribution (Fig-11 CDFs).
    pub fn histogram(&self) -> Histogram {
        self.hist.snapshot()
    }
}

/// Counters shared across a chain's threads.
#[derive(Debug, Default)]
pub struct ChainMetrics {
    /// Packets accepted at the forwarder.
    pub injected: AtomicU64,
    /// Packets released by the buffer.
    pub released: AtomicU64,
    /// Data packets filtered by a middlebox (Action::Drop).
    pub filtered: AtomicU64,
    /// Propagating packets emitted (forwarder idle + filtered packets).
    pub propagating: AtomicU64,
    /// Packets currently withheld by the buffer.
    pub held: AtomicU64,
    /// Wrapped logs in the buffer's resend backlog, not yet committed.
    pub buffer_uncommitted: AtomicU64,
    /// Logs re-sent to the forwarder by the buffer's resend timer.
    pub logs_resent: AtomicU64,
    /// Piggyback logs applied at replicas.
    pub logs_applied: AtomicU64,
    /// Piggyback logs parked waiting for dependencies.
    pub logs_parked: AtomicU64,
    /// Duplicate (stale) logs discarded.
    pub logs_stale: AtomicU64,
    /// Total piggyback trailer bytes attached at heads.
    pub piggyback_bytes: AtomicU64,
    /// Packets that carried a piggyback trailer out of a head.
    pub piggyback_count: AtomicU64,
    /// Frames whose trailer pushed them past the configured MTU (§7.2:
    /// deploy jumbo frames when this is non-zero).
    pub oversize_frames: AtomicU64,
    /// Frames pulled and handled by data-plane loops ([`crate::dataplane`]),
    /// summed over every loop of the chain.
    pub loop_frames: AtomicU64,
    /// Wakes of data-plane loops that returned at least one frame;
    /// `loop_frames / loop_bursts` is the mean burst a wake handles.
    pub loop_bursts: AtomicU64,
    /// Blocking receives of data-plane loops that returned empty: each is
    /// one wake-up that moved no packet.
    pub loop_idle_polls: AtomicU64,
    /// Data-plane loop threads currently running (control threads not
    /// counted).
    pub dataplane_threads: AtomicU64,

    /// Table-2 breakdown: middlebox packet-transaction execution.
    pub t_transaction: TimingCell,
    /// Table-2 breakdown: constructing/copying piggybacked state.
    pub t_piggyback: TimingCell,
    /// Table-2 breakdown: applying replicated logs.
    pub t_apply: TimingCell,
    /// Table-2 breakdown: forwarder per-packet work.
    pub t_forwarder: TimingCell,
    /// Table-2 breakdown: buffer per-packet work.
    pub t_buffer: TimingCell,

    /// The chain's event journal (see [`crate::journal`]).
    pub journal: Journal,
}

impl ChainMetrics {
    /// Mean piggyback trailer size in bytes.
    pub fn mean_piggyback_bytes(&self) -> Option<f64> {
        let n = self.piggyback_count.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        Some(self.piggyback_bytes.load(Ordering::Relaxed) as f64 / n as f64)
    }

    /// Copies every counter and timing distribution into a plain,
    /// serializable [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            injected: self.injected.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
            propagating: self.propagating.load(Ordering::Relaxed),
            held: self.held.load(Ordering::Relaxed),
            buffer_uncommitted: self.buffer_uncommitted.load(Ordering::Relaxed),
            logs_resent: self.logs_resent.load(Ordering::Relaxed),
            logs_applied: self.logs_applied.load(Ordering::Relaxed),
            logs_parked: self.logs_parked.load(Ordering::Relaxed),
            logs_stale: self.logs_stale.load(Ordering::Relaxed),
            piggyback_bytes: self.piggyback_bytes.load(Ordering::Relaxed),
            piggyback_count: self.piggyback_count.load(Ordering::Relaxed),
            oversize_frames: self.oversize_frames.load(Ordering::Relaxed),
            loop_frames: self.loop_frames.load(Ordering::Relaxed),
            loop_bursts: self.loop_bursts.load(Ordering::Relaxed),
            loop_idle_polls: self.loop_idle_polls.load(Ordering::Relaxed),
            dataplane_threads: self.dataplane_threads.load(Ordering::Relaxed),
            mean_piggyback_bytes: self.mean_piggyback_bytes().unwrap_or(0.0),
            transaction: StageStats::of(&self.t_transaction),
            piggyback: StageStats::of(&self.t_piggyback),
            apply: StageStats::of(&self.t_apply),
            forwarder: StageStats::of(&self.t_forwarder),
            buffer: StageStats::of(&self.t_buffer),
        }
    }
}

/// Distributional summary of one Table-2 stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageStats {
    /// Number of samples.
    pub samples: u64,
    /// Mean in nanoseconds (0 when empty).
    pub mean_ns: u64,
    /// Median in nanoseconds (0 when empty).
    pub p50_ns: u64,
    /// 99th percentile in nanoseconds (0 when empty).
    pub p99_ns: u64,
    /// 99.9th percentile in nanoseconds (0 when empty).
    pub p999_ns: u64,
}

impl StageStats {
    fn of(cell: &TimingCell) -> StageStats {
        let h = cell.histogram();
        let ns =
            |d: Option<Duration>| d.map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64);
        StageStats {
            samples: h.len(),
            mean_ns: ns(h.mean()),
            p50_ns: ns(h.quantile(0.5)),
            p99_ns: ns(h.quantile(0.99)),
            p999_ns: ns(h.quantile(0.999)),
        }
    }

    fn json_fields(&self) -> String {
        format!(
            "{{\"samples\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            self.samples, self.mean_ns, self.p50_ns, self.p99_ns, self.p999_ns
        )
    }
}

/// A point-in-time copy of [`ChainMetrics`]: plain named fields, no
/// atomics, serde-serializable, with per-stage tail quantiles.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Packets accepted at the forwarder.
    pub injected: u64,
    /// Packets released by the buffer.
    pub released: u64,
    /// Data packets filtered by a middlebox.
    pub filtered: u64,
    /// Propagating packets emitted.
    pub propagating: u64,
    /// Packets currently withheld by the buffer.
    pub held: u64,
    /// Wrapped logs in the buffer's resend backlog, not yet committed.
    pub buffer_uncommitted: u64,
    /// Logs re-sent to the forwarder by the buffer's resend timer.
    pub logs_resent: u64,
    /// Piggyback logs applied at replicas.
    pub logs_applied: u64,
    /// Piggyback logs parked waiting for dependencies.
    pub logs_parked: u64,
    /// Duplicate (stale) logs discarded.
    pub logs_stale: u64,
    /// Total piggyback trailer bytes attached at heads.
    pub piggyback_bytes: u64,
    /// Packets that carried a piggyback trailer out of a head.
    pub piggyback_count: u64,
    /// Frames whose trailer exceeded the configured MTU.
    pub oversize_frames: u64,
    /// Frames handled by data-plane loops, summed over the chain's loops.
    pub loop_frames: u64,
    /// Wakes of data-plane loops that returned at least one frame.
    pub loop_bursts: u64,
    /// Blocking receives of data-plane loops that returned empty;
    /// `loop_idle_polls / released` is the idle-wake cost per packet.
    pub loop_idle_polls: u64,
    /// Data-plane loop threads running when the snapshot was taken.
    pub dataplane_threads: u64,
    /// Mean piggyback trailer size in bytes (0 when none were sent).
    pub mean_piggyback_bytes: f64,
    /// Table-2 stage: middlebox packet-transaction execution.
    pub transaction: StageStats,
    /// Table-2 stage: constructing/copying piggybacked state.
    pub piggyback: StageStats,
    /// Table-2 stage: applying replicated logs.
    pub apply: StageStats,
    /// Table-2 stage: forwarder per-packet work.
    pub forwarder: StageStats,
    /// Table-2 stage: buffer per-packet work.
    pub buffer: StageStats,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (no external JSON crate in
    /// the offline dependency set, so this is hand-rolled and stable).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"injected\":{},\"released\":{},\"filtered\":{},\"propagating\":{},\
             \"held\":{},\"buffer_uncommitted\":{},\"logs_resent\":{},\
             \"logs_applied\":{},\"logs_parked\":{},\"logs_stale\":{},\
             \"piggyback_bytes\":{},\"piggyback_count\":{},\"oversize_frames\":{},\
             \"loop_frames\":{},\"loop_bursts\":{},\"loop_idle_polls\":{},\
             \"dataplane_threads\":{},\
             \"mean_piggyback_bytes\":{},\"transaction\":{},\"piggyback\":{},\
             \"apply\":{},\"forwarder\":{},\"buffer\":{}}}",
            self.injected,
            self.released,
            self.filtered,
            self.propagating,
            self.held,
            self.buffer_uncommitted,
            self.logs_resent,
            self.logs_applied,
            self.logs_parked,
            self.logs_stale,
            self.piggyback_bytes,
            self.piggyback_count,
            self.oversize_frames,
            self.loop_frames,
            self.loop_bursts,
            self.loop_idle_polls,
            self.dataplane_threads,
            self.mean_piggyback_bytes,
            self.transaction.json_fields(),
            self.piggyback.json_fields(),
            self.apply.json_fields(),
            self.forwarder.json_fields(),
            self.buffer.json_fields(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_cell_mean() {
        let c = TimingCell::default();
        assert_eq!(c.mean(), None);
        c.record(Duration::from_micros(10));
        c.record(Duration::from_micros(30));
        assert_eq!(c.mean(), Some(Duration::from_micros(20)));
        assert_eq!(c.samples(), 2);
    }

    #[test]
    fn timing_cell_quantiles() {
        let c = TimingCell::default();
        assert_eq!(c.quantile(0.99), None);
        for us in 1..=100u64 {
            c.record(Duration::from_micros(us));
        }
        let p50 = c.quantile(0.5).unwrap();
        let p99 = c.quantile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 >= Duration::from_micros(95));
        assert_eq!(c.histogram().len(), 100);
    }

    #[test]
    fn piggyback_mean() {
        let m = ChainMetrics::default();
        assert_eq!(m.mean_piggyback_bytes(), None);
        m.piggyback_bytes.store(300, Ordering::Relaxed);
        m.piggyback_count.store(4, Ordering::Relaxed);
        assert_eq!(m.mean_piggyback_bytes(), Some(75.0));
    }

    #[test]
    fn snapshot_copies_counters_and_stages() {
        let m = ChainMetrics::default();
        m.injected.store(7, Ordering::Relaxed);
        m.released.store(5, Ordering::Relaxed);
        m.buffer_uncommitted.store(3, Ordering::Relaxed);
        m.logs_resent.store(9, Ordering::Relaxed);
        m.t_transaction.record(Duration::from_micros(10));
        m.t_transaction.record(Duration::from_micros(20));
        let s = m.snapshot();
        assert_eq!(s.injected, 7);
        assert_eq!(s.released, 5);
        assert_eq!(s.transaction.samples, 2);
        assert!(s.transaction.p99_ns >= s.transaction.p50_ns);
        let json = s.to_json();
        assert!(json.contains("\"injected\":7"));
        assert!(json.contains("\"held\":0,\"buffer_uncommitted\":3,\"logs_resent\":9,"));
        assert!(json.contains("\"loop_idle_polls\":0,\"dataplane_threads\":0"));
        assert!(json.contains("\"loop_frames\":0,\"loop_bursts\":0,"));
        assert!(json.contains("\"p999_ns\":"));
    }
}

//! The metrics recorder: counters, gauges, stage timings and grain
//! profiles, all in relaxed atomics.

use crate::{Counter, EventKind, Gauge, Stage};
use std::array;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How one grain's replay ended, as recorded in its [`GrainProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrainStatus {
    /// The replay completed and produced a profile.
    Completed,
    /// The replay failed (panic, budget or checkpoint I/O).
    Failed,
}

impl GrainStatus {
    /// Stable lowercase name, used as the Prometheus `status` label.
    pub fn name(self) -> &'static str {
        match self {
            GrainStatus::Completed => "completed",
            GrainStatus::Failed => "failed",
        }
    }
}

/// Per-grain cost attribution: what one grain's replay cost the analyzer,
/// mirroring the paper's scope-tree attribution but applied to the
/// analyzer itself. Recorded once per requested grain, as the recorder's
/// view of the grain's [`EventKind::GrainCompleted`] (which carries the
/// row) or [`EventKind::GrainFailed`] (zeroed measurements and the
/// failed status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrainProfile {
    /// The grain (block size in bytes) this replay analyzed.
    pub block_size: u64,
    /// Wall time charged to the grain's replay: its analyzer time plus an
    /// equal share of its replay lane's decode (zero for failures).
    pub wall: Duration,
    /// Events replayed through the grain's analyzer.
    pub events: u64,
    /// Distinct blocks the grain's analyzer ended with.
    pub distinct_blocks: u64,
    /// Peak live order-statistic-tree nodes (for exact grains this equals
    /// distinct blocks — the tree only grows — but it is measured
    /// independently off the tree; sampled grains' trees shrink on
    /// eviction, so there it is the final tracked-block count).
    pub tree_nodes: u64,
    /// How the replay ended.
    pub status: GrainStatus,
    /// Distinct blocks the spatial-hash sampler admitted (unscaled);
    /// zero for exact grains.
    pub blocks_sampled: u64,
    /// Tracked blocks evicted by adaptive rate drops; zero for exact and
    /// fixed-rate grains.
    pub blocks_evicted: u64,
    /// Inverse sampling rate the grain finished at; zero for exact grains
    /// (a sampled grain reports at least 1).
    pub sample_inv: u64,
}

impl GrainProfile {
    /// Replay throughput in events per second, or zero when the wall time
    /// is zero (failed grains, zeroed golden snapshots).
    pub fn events_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Bound on stored grain profiles: one row per grain per run is tiny, but
/// a recorder left installed across millions of runs must stay bounded.
/// Past the cap new rows are dropped (the aggregate grain counters keep
/// counting).
const MAX_GRAIN_PROFILES: usize = 65_536;

/// Receives the pipeline's metrics: plain relaxed atomics, no locks, no
/// allocation after construction. Safe to share across every replay and
/// sweep thread; it is called with bulk deltas (per batch / per grain /
/// per buffer, never per event) and never panics.
/// [`snapshot`](MetricsRecorder::snapshot) can be taken at any time
/// (values are each individually consistent).
#[derive(Debug)]
pub struct MetricsRecorder {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    span_counts: [AtomicU64; Stage::ALL.len()],
    span_nanos: [AtomicU64; Stage::ALL.len()],
    span_max_nanos: [AtomicU64; Stage::ALL.len()],
    span_depths: [AtomicU64; Stage::ALL.len()],
    // Off the hot path: one push per grain per run, behind a mutex held
    // for the push only (poison-tolerant like the global slot).
    grains: Mutex<Vec<GrainProfile>>,
}

impl MetricsRecorder {
    /// Creates a recorder with every metric at zero.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder {
            counters: array::from_fn(|_| AtomicU64::new(0)),
            gauges: array::from_fn(|_| AtomicU64::new(0)),
            span_counts: array::from_fn(|_| AtomicU64::new(0)),
            span_nanos: array::from_fn(|_| AtomicU64::new(0)),
            span_max_nanos: array::from_fn(|_| AtomicU64::new(0)),
            span_depths: array::from_fn(|_| AtomicU64::new(0)),
            grains: Mutex::new(Vec::new()),
        }
    }

    /// Adds a bulk delta to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a gauge to its latest observed value.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].store(value, Ordering::Relaxed);
    }

    /// Records one completed span: its stage, wall time, and the
    /// thread-local nesting depth it ran at (1 = top level).
    pub fn record_span(&self, stage: Stage, wall: Duration, depth: u32) {
        let i = stage.index();
        self.span_counts[i].fetch_add(1, Ordering::Relaxed);
        // Saturating: 2^64 ns is ~584 years of span time.
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.span_nanos[i].fetch_add(nanos, Ordering::Relaxed);
        self.span_max_nanos[i].fetch_max(nanos, Ordering::Relaxed);
        self.span_depths[i].fetch_max(u64::from(depth), Ordering::Relaxed);
    }

    /// Applies one discrete occurrence's tally: the recorder's view of an
    /// [`crate::emit`]. A finished grain ticks its counter and adds its
    /// cost row; a written checkpoint also sets the snapshot-size gauge;
    /// every other grain, checkpoint and job occurrence adds one to its
    /// counter. Run
    /// bounds, grain starts, rate drops (counted in halvings where the
    /// sampler reports them) and heartbeats tally nothing.
    pub fn record_event(&self, kind: &EventKind) {
        match kind {
            EventKind::GrainCompleted { profile } => {
                self.add(Counter::GrainsCompleted, 1);
                self.record_grain(profile);
            }
            EventKind::GrainFailed { grain, events, .. } => {
                self.add(Counter::GrainsFailed, 1);
                self.record_grain(&GrainProfile {
                    block_size: *grain,
                    wall: Duration::ZERO,
                    events: *events,
                    distinct_blocks: 0,
                    tree_nodes: 0,
                    status: GrainStatus::Failed,
                    blocks_sampled: 0,
                    blocks_evicted: 0,
                    sample_inv: 0,
                });
            }
            EventKind::CheckpointWritten { bytes, .. } => {
                self.add(Counter::CheckpointsWritten, 1);
                self.set_gauge(Gauge::SnapshotBytes, *bytes);
            }
            EventKind::CheckpointResumed { .. } => self.add(Counter::CheckpointsResumed, 1),
            EventKind::CheckpointRejected { .. } => self.add(Counter::CheckpointsRejected, 1),
            EventKind::JobAccepted { .. } => self.add(Counter::JobsAccepted, 1),
            EventKind::JobCompleted { .. } => self.add(Counter::JobsCompleted, 1),
            EventKind::JobFailed { .. } => self.add(Counter::JobsFailed, 1),
            EventKind::JobRejected { .. } => self.add(Counter::JobsRejected, 1),
            EventKind::RunStarted { .. }
            | EventKind::RunFinished { .. }
            | EventKind::GrainStarted { .. }
            | EventKind::SampleRateDropped { .. }
            | EventKind::Heartbeat { .. } => {}
        }
    }

    /// Records one grain's cost profile (bounded: past
    /// `MAX_GRAIN_PROFILES` rows new ones are dropped).
    pub fn record_grain(&self, profile: &GrainProfile) {
        let mut grains = self.grains.lock().unwrap_or_else(PoisonError::into_inner);
        if grains.len() < MAX_GRAIN_PROFILES {
            grains.push(profile.clone());
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Current value of one gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every metric, ready for export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let grains = self
            .grains
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        MetricsSnapshot {
            counters: Counter::ALL.map(|c| self.counter(c)),
            gauges: Gauge::ALL.map(|g| self.gauge(g)),
            spans: Stage::ALL.map(|s| SpanStats {
                stage: s,
                count: self.span_counts[s.index()].load(Ordering::Relaxed),
                total: Duration::from_nanos(self.span_nanos[s.index()].load(Ordering::Relaxed)),
                max: Duration::from_nanos(self.span_max_nanos[s.index()].load(Ordering::Relaxed)),
                max_depth: self.span_depths[s.index()].load(Ordering::Relaxed) as u32,
            }),
            grains,
        }
    }
}

impl Default for MetricsRecorder {
    fn default() -> MetricsRecorder {
        MetricsRecorder::new()
    }
}

/// Aggregated timing of one stage's spans inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// The stage these spans timed.
    pub stage: Stage,
    /// How many spans completed.
    pub count: u64,
    /// Total wall time across all of them.
    pub total: Duration,
    /// Longest single span — with concurrent spans (grains on parallel
    /// replay lanes) `total` overstates wall time; `max` approximates the
    /// critical path.
    pub max: Duration,
    /// Deepest nesting level observed (1 = top level, 0 = never opened).
    pub max_depth: u32,
}

impl SpanStats {
    /// Mean wall time per span, or zero when none completed.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.count).unwrap_or(u32::MAX)
        }
    }
}

/// A point-in-time copy of a [`MetricsRecorder`]'s state. This is what
/// the exporters consume; it is plain data, so tests can normalize it
/// (e.g. [`zero_timings`](Self::zero_timings)) before golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, index-aligned with [`Counter::ALL`].
    pub counters: [u64; Counter::ALL.len()],
    /// Gauge values, index-aligned with [`Gauge::ALL`].
    pub gauges: [u64; Gauge::ALL.len()],
    /// Per-stage span statistics, index-aligned with [`Stage::ALL`].
    pub spans: [SpanStats; Stage::ALL.len()],
    /// Per-grain cost profiles, in recording order.
    pub grains: Vec<GrainProfile>,
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Value of one gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// Statistics of one stage's spans.
    pub fn stage(&self, stage: Stage) -> SpanStats {
        self.spans[stage.index()]
    }

    /// Zeroes every wall-clock duration, keeping counts and depths.
    /// Golden exporter tests call this so expected output is exact
    /// without depending on the machine's clock.
    pub fn zero_timings(&mut self) {
        for span in &mut self.spans {
            span.total = Duration::ZERO;
            span.max = Duration::ZERO;
        }
        for grain in &mut self.grains {
            grain.wall = Duration::ZERO;
        }
    }

    /// Renders this snapshot with [`format_prometheus`](crate::format_prometheus).
    pub fn to_prometheus(&self) -> String {
        crate::format_prometheus(self)
    }

    /// Renders this snapshot with [`format_summary`](crate::format_summary).
    pub fn to_summary(&self) -> String {
        crate::format_summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let rec = MetricsRecorder::new();
        rec.add(Counter::EventsDecoded, 100);
        rec.add(Counter::EventsDecoded, 23);
        rec.set_gauge(Gauge::BudgetEvents, 5);
        rec.set_gauge(Gauge::BudgetEvents, 3); // last write wins
        rec.record_span(Stage::Replay, Duration::from_millis(4), 1);
        rec.record_span(Stage::Replay, Duration::from_millis(2), 2);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::EventsDecoded), 123);
        assert_eq!(snap.gauge(Gauge::BudgetEvents), 3);
        let replay = snap.stage(Stage::Replay);
        assert_eq!(replay.count, 2);
        assert_eq!(replay.total, Duration::from_millis(6));
        assert_eq!(replay.max, Duration::from_millis(4));
        assert_eq!(replay.max_depth, 2);
        assert_eq!(replay.mean(), Duration::from_millis(3));
        assert_eq!(snap.stage(Stage::Capture).count, 0);
        assert_eq!(snap.stage(Stage::Capture).mean(), Duration::ZERO);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let rec = MetricsRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        rec.add(Counter::TreeReinserts, 1);
                        rec.record_span(Stage::Sweep, Duration::from_nanos(10), 1);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::TreeReinserts), 8000);
        assert_eq!(snap.stage(Stage::Sweep).count, 8000);
        assert_eq!(snap.stage(Stage::Sweep).total, Duration::from_nanos(80_000));
    }

    #[test]
    fn zero_timings_keeps_counts() {
        let rec = MetricsRecorder::new();
        rec.record_span(Stage::Capture, Duration::from_secs(1), 1);
        let mut snap = rec.snapshot();
        snap.zero_timings();
        assert_eq!(snap.stage(Stage::Capture).count, 1);
        assert_eq!(snap.stage(Stage::Capture).total, Duration::ZERO);
        assert_eq!(snap.stage(Stage::Capture).max_depth, 1);
    }
}

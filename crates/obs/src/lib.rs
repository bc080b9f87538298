//! # reuselens-obs — pipeline observability
//!
//! The toolchain is a measurement instrument: it watches every memory
//! access a program makes and attributes each reuse arc to a scope. An
//! instrument needs its own instrumentation — *and* a proof that watching
//! the pipeline does not change what the pipeline measures. This crate
//! provides the first half; `tests/obs_identity.rs` at the workspace root
//! provides the second.
//!
//! Three pieces:
//!
//! * **Spans** ([`span`]) — monotonic wall-clock timing of the pipeline
//!   stages (capture, validating decode, per-grain replay, sweep scoring,
//!   report generation), with a thread-local nesting depth so a recorder
//!   can reconstruct the hierarchy. Opening a span allocates nothing.
//! * **Counters and gauges** ([`add`], [`set_gauge`]) — typed, fixed-set
//!   pipeline totals (events decoded, blocks tracked, tree reinserts,
//!   grains completed/failed/retried, sweep configs scored, ...) and
//!   budget-progress gauges. Instrumented code always reports *bulk*
//!   deltas (per batch, per grain, per buffer), never per event.
//! * **Exporters** — [`format_summary`] (human-readable) and
//!   [`format_prometheus`] (Prometheus text exposition) over a
//!   [`MetricsSnapshot`].
//!
//! The third generation adds the *live* layer on the same foundations:
//!
//! * **Events** ([`emit`]) — a structured JSONL log ([`EventLog`]) of
//!   discrete occurrences (grain lifecycle, checkpoint writes/resumes,
//!   partition stitches, sampling rate drops, failures) with severities
//!   and monotonic + wall timestamps.
//! * **The telemetry service** ([`TelemetryService`]) — a background
//!   aggregator computing rolling-window rates/progress/ETA from
//!   recorder snapshots, stderr heartbeats, and a zero-dependency HTTP
//!   server answering `GET /metrics`, `/healthz`, and `/timeline` while
//!   the pipeline runs.
//! * **The server skeleton** ([`net`]) — the one bounded `std::net`
//!   accept loop, shared by the HTTP server and the analysis daemon,
//!   that sends every reply in one write on a `TCP_NODELAY` socket.
//!
//! ## Zero cost when disabled
//!
//! Nothing is recorded until a [`Recorder`] is installed with [`install`].
//! Every instrumentation entry point is `#[inline]` and first checks one
//! relaxed atomic load ([`enabled`]); when no recorder is installed the
//! call is a branch on an already-cached cacheline and returns
//! immediately — no clock read, no lock, no allocation. The non-perturbation
//! guarantee is stronger than performance, though: instrumentation *never*
//! feeds back into analysis, so results are bit-identical with a recorder
//! installed, absent, or installed halfway through a run.
//!
//! # Examples
//!
//! ```
//! use reuselens_obs as obs;
//! use std::sync::Arc;
//!
//! // Disabled by default: this is a no-op branch.
//! obs::add(obs::Counter::EventsDecoded, 10);
//!
//! let recorder = Arc::new(obs::MetricsRecorder::new());
//! obs::install(recorder.clone());
//! {
//!     let _span = obs::span(obs::Stage::Replay);
//!     obs::add(obs::Counter::EventsDecoded, 990);
//! }
//! obs::uninstall();
//!
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter(obs::Counter::EventsDecoded), 990);
//! assert!(obs::format_prometheus(&snapshot)
//!     .contains("reuselens_events_decoded_total 990"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod events;
mod export;
mod http;
pub mod json;
pub mod net;
mod recorder;
mod service;
mod timeline;

pub use events::{EventKind, EventLog, Severity};
pub use export::{format_prometheus, format_summary};
pub use http::{http_get, HttpServer, Response, MAX_ACTIVE_CONNECTIONS};
pub use recorder::{
    GrainProfile, GrainStatus, MetricsRecorder, MetricsSnapshot, Recorder, SpanStats,
};
pub use service::{ServiceConfig, TelemetryService};
pub use timeline::{format_chrome_trace, Timeline, TimelineArgs, TimelineEvent, TimelineSnapshot};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Instant;

/// A pipeline stage a [`span`] can time. One execution of the full
/// pipeline opens: one `Capture` span, one `Decode` span per validating
/// pass over a buffer, one `Replay` span per grain, one `Sweep` span per
/// hierarchy scored, and one `Report` span per attribution report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Interpreting the program once into a captured trace buffer.
    Capture,
    /// A validating decode pass over a captured buffer.
    Decode,
    /// One grain's replay through its analyzer.
    Replay,
    /// One time-partition of a single grain's parallel replay (nested
    /// inside that grain's [`Stage::Replay`] span).
    Partition,
    /// Scoring one candidate hierarchy from measured profiles.
    Sweep,
    /// Building one attribution report from a scored analysis.
    Report,
    /// Serializing and writing one crash-safety snapshot of a grain's
    /// analyzer state (nested inside that grain's [`Stage::Replay`] span).
    Checkpoint,
    /// One symbolic reuse-profile estimation pass (the zero-trace
    /// replacement for capture + replay).
    Estimate,
}

impl Stage {
    /// Every stage, in dense-index order (used for metric storage).
    pub const ALL: [Stage; 8] = [
        Stage::Capture,
        Stage::Decode,
        Stage::Replay,
        Stage::Partition,
        Stage::Sweep,
        Stage::Report,
        Stage::Checkpoint,
        Stage::Estimate,
    ];

    /// Every stage in the order the pipeline executes them:
    /// capture → decode → replay → partition → checkpoint → estimate →
    /// sweep → report (estimation replaces the first five stages on the
    /// static path, so it sorts just before sweep). Exporters print
    /// stages in this order, independent of the enum's index layout.
    pub const PIPELINE_ORDER: [Stage; 8] = [
        Stage::Capture,
        Stage::Decode,
        Stage::Replay,
        Stage::Partition,
        Stage::Checkpoint,
        Stage::Estimate,
        Stage::Sweep,
        Stage::Report,
    ];

    /// Stable lowercase name, used as the Prometheus `stage` label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Capture => "capture",
            Stage::Decode => "decode",
            Stage::Replay => "replay",
            Stage::Partition => "partition",
            Stage::Sweep => "sweep",
            Stage::Report => "report",
            Stage::Checkpoint => "checkpoint",
            Stage::Estimate => "estimate",
        }
    }

    /// Dense index of this stage within [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically increasing pipeline total. Counters only ever go up
/// within one recorder's lifetime; instrumented code adds bulk deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Events (accesses + scope transitions) captured into trace buffers.
    EventsCaptured,
    /// Memory-access events captured into trace buffers.
    AccessesCaptured,
    /// Bytes the captured columnar encodings occupy.
    BytesEncoded,
    /// Events decoded out of trace buffers (all replay paths).
    EventsDecoded,
    /// Memory-access events decoded out of trace buffers.
    AccessesDecoded,
    /// Distinct blocks entered into analyzer block tables.
    BlocksTracked,
    /// Fused reinserts performed on analyzer order-statistic trees
    /// (one per measured non-cold reuse).
    TreeReinserts,
    /// Grains submitted to the replay engine.
    GrainsRequested,
    /// Grains whose replay completed and produced a profile.
    GrainsCompleted,
    /// Grains declared dead after their final attempt.
    GrainsFailed,
    /// Sequential retries of panicked grains.
    GrainsRetried,
    /// Candidate hierarchies scored successfully in sweeps.
    SweepConfigsScored,
    /// Candidate hierarchies that failed validation or scoring.
    SweepConfigsFailed,
    /// Attribution reports generated.
    ReportsGenerated,
    /// Timeline events dropped by full ring-buffer shards.
    TimelineDropped,
    /// Distinct blocks admitted by the spatial-hash sampler (unscaled).
    BlocksSampled,
    /// Tracked blocks evicted by adaptive sampling rate drops.
    BlocksEvicted,
    /// Adaptive sampling rate halvings (tracked set hit its budget).
    SampleRateDrops,
    /// Time-partition workers spawned by single-grain parallel replay.
    PartitionsSpawned,
    /// Cross-partition reuses resolved during the stitch pass of
    /// single-grain parallel replay.
    PartitionStitch,
    /// Crash-safety snapshots written by checkpointed replay.
    CheckpointsWritten,
    /// Grains that resumed from a validated snapshot instead of replaying
    /// from the beginning.
    CheckpointsResumed,
    /// Snapshot files rejected during resume (torn, corrupted,
    /// version-skewed, or mismatched with the trace).
    CheckpointsRejected,
    /// References the symbolic estimator covered with a closed-form
    /// reuse prediction.
    StaticRefsCovered,
    /// References the symbolic estimator could not classify (irregular
    /// or indirect subscripts) and modeled with the fallback scatter.
    StaticRefsFallback,
    /// Analysis jobs the daemon accepted onto its queue.
    JobsAccepted,
    /// Analysis jobs that ran to completion and produced a response.
    JobsCompleted,
    /// Analysis jobs that ended in a typed error response.
    JobsFailed,
    /// Analysis jobs rejected before queueing (full queue or shutdown).
    JobsRejected,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 29] = [
        Counter::EventsCaptured,
        Counter::AccessesCaptured,
        Counter::BytesEncoded,
        Counter::EventsDecoded,
        Counter::AccessesDecoded,
        Counter::BlocksTracked,
        Counter::TreeReinserts,
        Counter::GrainsRequested,
        Counter::GrainsCompleted,
        Counter::GrainsFailed,
        Counter::GrainsRetried,
        Counter::SweepConfigsScored,
        Counter::SweepConfigsFailed,
        Counter::ReportsGenerated,
        Counter::TimelineDropped,
        Counter::BlocksSampled,
        Counter::BlocksEvicted,
        Counter::SampleRateDrops,
        Counter::PartitionsSpawned,
        Counter::PartitionStitch,
        Counter::CheckpointsWritten,
        Counter::CheckpointsResumed,
        Counter::CheckpointsRejected,
        Counter::StaticRefsCovered,
        Counter::StaticRefsFallback,
        Counter::JobsAccepted,
        Counter::JobsCompleted,
        Counter::JobsFailed,
        Counter::JobsRejected,
    ];

    /// Stable snake_case name (the Prometheus metric is
    /// `reuselens_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsCaptured => "events_captured",
            Counter::AccessesCaptured => "accesses_captured",
            Counter::BytesEncoded => "bytes_encoded",
            Counter::EventsDecoded => "events_decoded",
            Counter::AccessesDecoded => "accesses_decoded",
            Counter::BlocksTracked => "blocks_tracked",
            Counter::TreeReinserts => "tree_reinserts",
            Counter::GrainsRequested => "grains_requested",
            Counter::GrainsCompleted => "grains_completed",
            Counter::GrainsFailed => "grains_failed",
            Counter::GrainsRetried => "grains_retried",
            Counter::SweepConfigsScored => "sweep_configs_scored",
            Counter::SweepConfigsFailed => "sweep_configs_failed",
            Counter::ReportsGenerated => "reports_generated",
            Counter::TimelineDropped => "timeline_dropped",
            Counter::BlocksSampled => "blocks_sampled",
            Counter::BlocksEvicted => "blocks_evicted",
            Counter::SampleRateDrops => "sample_rate_drops",
            Counter::PartitionsSpawned => "partitions_spawned",
            Counter::PartitionStitch => "partition_stitch",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointsResumed => "checkpoints_resumed",
            Counter::CheckpointsRejected => "checkpoints_rejected",
            Counter::StaticRefsCovered => "static_refs_covered",
            Counter::StaticRefsFallback => "static_refs_fallback",
            Counter::JobsAccepted => "jobs_accepted",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsFailed => "jobs_failed",
            Counter::JobsRejected => "jobs_rejected",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub fn help(self) -> &'static str {
        match self {
            Counter::EventsCaptured => {
                "Events captured into trace buffers (accesses + scope transitions)."
            }
            Counter::AccessesCaptured => "Memory-access events captured into trace buffers.",
            Counter::BytesEncoded => "Bytes occupied by captured columnar encodings.",
            Counter::EventsDecoded => "Events decoded out of trace buffers across all replays.",
            Counter::AccessesDecoded => "Memory-access events decoded out of trace buffers.",
            Counter::BlocksTracked => "Distinct blocks entered into analyzer block tables.",
            Counter::TreeReinserts => {
                "Order-statistic-tree reinserts (one per measured non-cold reuse)."
            }
            Counter::GrainsRequested => "Grains submitted to the replay engine.",
            Counter::GrainsCompleted => "Grains whose replay produced a profile.",
            Counter::GrainsFailed => "Grains declared dead after their final attempt.",
            Counter::GrainsRetried => "Sequential retries of panicked grains.",
            Counter::SweepConfigsScored => "Candidate hierarchies scored successfully.",
            Counter::SweepConfigsFailed => "Candidate hierarchies that failed scoring.",
            Counter::ReportsGenerated => "Attribution reports generated.",
            Counter::TimelineDropped => "Timeline events dropped by full ring-buffer shards.",
            Counter::BlocksSampled => {
                "Distinct blocks admitted by the spatial-hash sampler (unscaled)."
            }
            Counter::BlocksEvicted => "Tracked blocks evicted by adaptive sampling rate drops.",
            Counter::SampleRateDrops => "Adaptive sampling rate halvings.",
            Counter::PartitionsSpawned => {
                "Time-partition workers spawned by single-grain parallel replay."
            }
            Counter::PartitionStitch => {
                "Cross-partition reuses resolved during partitioned-replay stitching."
            }
            Counter::CheckpointsWritten => "Crash-safety snapshots written by checkpointed replay.",
            Counter::CheckpointsResumed => "Grains resumed from a validated snapshot.",
            Counter::CheckpointsRejected => {
                "Snapshot files rejected during resume (torn, corrupted, or mismatched)."
            }
            Counter::StaticRefsCovered => {
                "References covered symbolically by the static estimator."
            }
            Counter::StaticRefsFallback => {
                "References the static estimator modeled with the irregular fallback."
            }
            Counter::JobsAccepted => "Analysis jobs accepted onto the daemon queue.",
            Counter::JobsCompleted => "Analysis jobs that produced a success response.",
            Counter::JobsFailed => "Analysis jobs that ended in a typed error response.",
            Counter::JobsRejected => {
                "Analysis jobs rejected before queueing (full queue or shutdown)."
            }
        }
    }

    /// Dense index of this counter within [`Counter::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A last-observed-value metric. Budget gauges track the most recent
/// per-grain budget-progress checkpoint, so an operator watching the
/// export can see how close a long replay is to its caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Events replayed at the latest budget checkpoint.
    BudgetEvents,
    /// Distinct blocks tracked at the latest budget checkpoint.
    BudgetDistinctBlocks,
    /// Order-statistic-tree nodes live at the latest budget checkpoint.
    BudgetTreeNodes,
    /// Inverse sampling rate of the most recently finished sampled grain.
    SamplingInvRate,
    /// Encoded size of the most recently written crash-safety snapshot,
    /// in bytes.
    SnapshotBytes,
    /// Jobs sitting on the daemon queue (accepted, not yet running).
    JobQueueDepth,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 6] = [
        Gauge::BudgetEvents,
        Gauge::BudgetDistinctBlocks,
        Gauge::BudgetTreeNodes,
        Gauge::SamplingInvRate,
        Gauge::SnapshotBytes,
        Gauge::JobQueueDepth,
    ];

    /// Stable snake_case name (the Prometheus metric is
    /// `reuselens_<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::BudgetEvents => "budget_events",
            Gauge::BudgetDistinctBlocks => "budget_distinct_blocks",
            Gauge::BudgetTreeNodes => "budget_tree_nodes",
            Gauge::SamplingInvRate => "sampling_inv_rate",
            Gauge::SnapshotBytes => "snapshot_bytes",
            Gauge::JobQueueDepth => "job_queue_depth",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub fn help(self) -> &'static str {
        match self {
            Gauge::BudgetEvents => "Events replayed at the latest budget checkpoint.",
            Gauge::BudgetDistinctBlocks => {
                "Distinct blocks tracked at the latest budget checkpoint."
            }
            Gauge::BudgetTreeNodes => "Live tree nodes at the latest budget checkpoint.",
            Gauge::SamplingInvRate => {
                "Inverse sampling rate of the most recently finished sampled grain."
            }
            Gauge::SnapshotBytes => {
                "Bytes of the most recently written crash-safety snapshot."
            }
            Gauge::JobQueueDepth => {
                "Jobs sitting on the daemon queue (accepted, not yet running)."
            }
        }
    }

    /// Dense index of this gauge within [`Gauge::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: RwLock<Option<Arc<Timeline>>> = RwLock::new(None);
static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: RwLock<Option<Arc<EventLog>>> = RwLock::new(None);

thread_local! {
    /// Nesting depth of open spans on this thread (1 = top level).
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True when a recorder is installed. Instrumented code checks this one
/// relaxed load before doing anything else; the disabled path is a single
/// predictable branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn recorder_slot() -> RwLockReadGuard<'static, Option<Arc<dyn Recorder>>> {
    // A recorder panicking mid-call could poison the lock; observability
    // must never take the pipeline down, so a poisoned slot is still read.
    match RECORDER.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs a recorder and enables instrumentation process-wide, returning
/// the previously installed recorder if any. Recording starts immediately:
/// counters added before installation are simply lost, which is exactly
/// the mid-run-install semantics the identity tests pin down.
pub fn install(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    let mut slot = match RECORDER.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let previous = slot.replace(recorder);
    ENABLED.store(true, Ordering::SeqCst);
    previous
}

/// Disables instrumentation and removes the installed recorder, returning
/// it so callers can snapshot after the pipeline quiesces.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut slot = match RECORDER.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    slot.take()
}

/// True when a timeline is installed. Like [`enabled`], one relaxed load.
#[inline]
pub fn timeline_enabled() -> bool {
    TIMELINE_ENABLED.load(Ordering::Relaxed)
}

fn timeline_slot() -> RwLockReadGuard<'static, Option<Arc<Timeline>>> {
    match TIMELINE.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs a timeline process-wide, returning the previous one if any.
/// Only spans that *close* while a timeline is installed are recorded
/// (see [`Timeline`] for the mid-run install/uninstall semantics), so a
/// timeline can be attached to a long-running pipeline at any point.
pub fn install_timeline(timeline: Arc<Timeline>) -> Option<Arc<Timeline>> {
    let mut slot = match TIMELINE.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let previous = slot.replace(timeline);
    TIMELINE_ENABLED.store(true, Ordering::SeqCst);
    previous
}

/// Disables timeline recording and removes the installed timeline,
/// returning it so callers can snapshot and export it.
pub fn uninstall_timeline() -> Option<Arc<Timeline>> {
    TIMELINE_ENABLED.store(false, Ordering::SeqCst);
    let mut slot = match TIMELINE.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    slot.take()
}

/// True when an event log is installed. Like [`enabled`], one relaxed load.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

fn events_slot() -> RwLockReadGuard<'static, Option<Arc<EventLog>>> {
    match EVENTS.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs a JSONL event log process-wide, returning the previous one if
/// any. Emits before installation are simply lost (the same mid-run
/// install semantics as [`install`]).
pub fn install_events(log: Arc<EventLog>) -> Option<Arc<EventLog>> {
    let mut slot = match EVENTS.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let previous = slot.replace(log);
    EVENTS_ENABLED.store(true, Ordering::SeqCst);
    previous
}

/// Disables event emission and removes the installed log, returning it so
/// callers can flush/inspect after the pipeline quiesces.
pub fn uninstall_events() -> Option<Arc<EventLog>> {
    EVENTS_ENABLED.store(false, Ordering::SeqCst);
    let mut slot = match EVENTS.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    slot.take()
}

/// Emits one typed event at its default severity ([`EventKind::severity`]).
/// A no-op branch when no event log is installed; never per-access — emit
/// sites are grain/checkpoint/stitch-grained like counter bulk adds.
#[inline]
pub fn emit(kind: EventKind) {
    if !events_enabled() {
        return;
    }
    if let Some(log) = events_slot().as_ref() {
        log.emit(kind.severity(), &kind);
    }
}

/// Emits one typed event at an explicit severity. A no-op when disabled.
#[inline]
pub fn emit_at(severity: Severity, kind: EventKind) {
    if !events_enabled() {
        return;
    }
    if let Some(log) = events_slot().as_ref() {
        log.emit(severity, &kind);
    }
}

/// Adds a bulk delta to a counter. A no-op branch when disabled.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = recorder_slot().as_deref() {
        recorder.add(counter, delta);
    }
}

/// Sets a gauge to its latest observed value. A no-op branch when disabled.
#[inline]
pub fn set_gauge(gauge: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = recorder_slot().as_deref() {
        recorder.set_gauge(gauge, value);
    }
}

/// Opens a timing span for a pipeline stage. The returned guard records
/// the elapsed wall time (and the thread-local nesting depth) when
/// dropped — to the installed recorder as aggregate stage timing, and to
/// the installed timeline as one [`TimelineEvent`]. When neither is
/// installed the guard is inert: no clock is read on open or close.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    span_with(stage, TimelineArgs::default)
}

/// Opens a timing span carrying typed timeline args. `args` is evaluated
/// only when a timeline is installed, so call sites can clone names and
/// build strings inside the closure without cost on the disabled (or
/// metrics-only) path. Args known only at completion are added through
/// [`SpanGuard::record`].
#[inline]
pub fn span_with(stage: Stage, args: impl FnOnce() -> TimelineArgs) -> SpanGuard {
    let timeline = timeline_enabled();
    if !enabled() && !timeline {
        return SpanGuard { armed: None };
    }
    let depth = SPAN_DEPTH.with(|d| {
        let depth = d.get() + 1;
        d.set(depth);
        depth
    });
    SpanGuard {
        armed: Some(ArmedSpan {
            stage,
            depth,
            start: Instant::now(),
            args: if timeline {
                args()
            } else {
                TimelineArgs::default()
            },
        }),
    }
}

#[derive(Debug)]
struct ArmedSpan {
    stage: Stage,
    depth: u32,
    start: Instant,
    args: TimelineArgs,
}

/// Guard returned by [`span`] / [`span_with`]; reports the stage's
/// elapsed wall time to the installed recorder and its timeline event to
/// the installed timeline on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    armed: Option<ArmedSpan>,
}

impl SpanGuard {
    /// Mutates the span's timeline args — for values (events replayed,
    /// final tree size) known only once the measured work completed. A
    /// no-op on an inert guard.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce(&mut TimelineArgs)) {
        if let Some(armed) = &mut self.armed {
            f(&mut armed.args);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let wall = armed.start.elapsed();
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // The recorder or timeline may have been uninstalled while the
        // span was open; the measurement is then dropped, never blocked
        // on — and a timeline never receives half-open events.
        if enabled() {
            if let Some(recorder) = recorder_slot().as_deref() {
                recorder.record_span(armed.stage, wall, armed.depth);
            }
        }
        if timeline_enabled() {
            if let Some(timeline) = timeline_slot().as_ref() {
                timeline.record(armed.stage, armed.start, wall, armed.depth, armed.args);
            }
        }
    }
}

/// Reports one grain's cost profile to the installed recorder. A no-op
/// branch when disabled; called once per grain by the replay engine.
#[inline]
pub fn record_grain(profile: &GrainProfile) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = recorder_slot().as_deref() {
        recorder.record_grain(profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The recorder slot is process-global; tests that install serialize
    /// through this lock so `cargo test` parallelism cannot interleave them.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        match INSTALL_LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _serial = serial();
        assert!(!enabled());
        add(Counter::EventsDecoded, 5);
        set_gauge(Gauge::BudgetEvents, 5);
        let guard = span(Stage::Replay);
        assert!(guard.armed.is_none());
        drop(guard);
        // Nothing observable happened: installing a fresh recorder now
        // sees a clean slate.
        let rec = Arc::new(MetricsRecorder::new());
        install(rec.clone());
        uninstall();
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::EventsDecoded), 0);
        assert!(snap.spans.iter().all(|s| s.count == 0));
    }

    #[test]
    fn install_records_and_uninstall_stops() {
        let _serial = serial();
        let rec = Arc::new(MetricsRecorder::new());
        assert!(install(rec.clone()).is_none());
        assert!(enabled());
        add(Counter::GrainsCompleted, 2);
        set_gauge(Gauge::BudgetTreeNodes, 7);
        {
            let _outer = span(Stage::Replay);
            let _inner = span(Stage::Decode);
        }
        let returned = uninstall();
        assert!(returned.is_some());
        assert!(!enabled());
        add(Counter::GrainsCompleted, 99); // dropped: disabled again
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::GrainsCompleted), 2);
        assert_eq!(snap.gauge(Gauge::BudgetTreeNodes), 7);
        let replay = snap.stage(Stage::Replay);
        let decode = snap.stage(Stage::Decode);
        assert_eq!(replay.count, 1);
        assert_eq!(decode.count, 1);
        assert_eq!(replay.max_depth, 1);
        assert_eq!(decode.max_depth, 2, "nested span must record depth 2");
    }

    #[test]
    fn install_replaces_and_returns_previous_recorder() {
        let _serial = serial();
        let first = Arc::new(MetricsRecorder::new());
        let second = Arc::new(MetricsRecorder::new());
        install(first.clone());
        add(Counter::ReportsGenerated, 1);
        let previous = install(second.clone());
        assert!(previous.is_some());
        add(Counter::ReportsGenerated, 10);
        uninstall();
        assert_eq!(first.snapshot().counter(Counter::ReportsGenerated), 1);
        assert_eq!(second.snapshot().counter(Counter::ReportsGenerated), 10);
    }

    #[test]
    fn pipeline_order_covers_every_stage_exactly_once() {
        assert_eq!(Stage::PIPELINE_ORDER.len(), Stage::ALL.len());
        for stage in Stage::ALL {
            assert_eq!(
                Stage::PIPELINE_ORDER.iter().filter(|&&s| s == stage).count(),
                1,
                "{} must appear exactly once in PIPELINE_ORDER",
                stage.name()
            );
        }
        // Pin the positions the summary footer depends on: partition
        // nests inside replay, checkpoint snapshots during replay, and
        // estimation substitutes for the trace stages just before sweep.
        let pos = |s: Stage| {
            Stage::PIPELINE_ORDER
                .iter()
                .position(|&x| x == s)
                .unwrap()
        };
        assert!(pos(Stage::Capture) < pos(Stage::Decode));
        assert!(pos(Stage::Decode) < pos(Stage::Replay));
        assert!(pos(Stage::Replay) < pos(Stage::Partition));
        assert!(pos(Stage::Partition) < pos(Stage::Checkpoint));
        assert!(pos(Stage::Checkpoint) < pos(Stage::Estimate));
        assert!(pos(Stage::Estimate) < pos(Stage::Sweep));
        assert!(pos(Stage::Sweep) < pos(Stage::Report));
    }

    #[test]
    fn event_emission_respects_install_state() {
        let _serial = serial();
        assert!(!events_enabled());
        emit(EventKind::GrainStarted { grain: 1 }); // inert: no log installed
        let log = Arc::new(EventLog::to_vec());
        assert!(install_events(log.clone()).is_none());
        emit(EventKind::GrainStarted { grain: 64 });
        emit_at(Severity::Warn, EventKind::GrainStarted { grain: 128 });
        let returned = uninstall_events();
        assert!(returned.is_some());
        emit(EventKind::GrainStarted { grain: 999 }); // dropped: disabled
        let text = log.captured();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"grain\":64"));
        assert!(text.contains("\"severity\":\"warn\""));
        assert!(!text.contains("\"grain\":999"));
    }

    #[test]
    fn enum_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        // Names are unique (they become metric names).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Stage::ALL.iter().map(|s| s.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }
}

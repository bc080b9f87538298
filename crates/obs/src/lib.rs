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
//!   grains completed/failed, sweep configs scored, ...) and
//!   budget-progress gauges. Instrumented code always reports *bulk*
//!   deltas (per batch, per grain, per buffer), never per event.
//! * **Exporters** — [`format_summary`] (human-readable) and
//!   [`format_prometheus`] (Prometheus text exposition) over a
//!   [`MetricsSnapshot`].
//!
//! The third generation adds the *live* layer on the same foundations:
//!
//! * **Events** ([`emit`]) — one call per discrete occurrence (grain
//!   lifecycle, checkpoint writes/resumes, sampling rate drops, daemon jobs, failures). The recorder tallies it into its
//!   counters and grain rows, and a structured JSONL log ([`EventLog`])
//!   writes it with a severity and monotonic + wall timestamps.
//! * **The telemetry service** ([`TelemetryService`]) — a background
//!   aggregator computing rolling-window rates/progress/ETA from
//!   recorder snapshots, stderr heartbeats, and a zero-dependency HTTP
//!   server answering `GET /metrics`, `/healthz`, and `/timeline` while
//!   the pipeline runs.
//! * **The server skeleton** ([`net`]) — the one bounded `std::net`
//!   accept loop, shared by the HTTP server and the analysis daemon,
//!   that sends every reply in one write on a `TCP_NODELAY` socket.
//!
//! ## One handle, passed in
//!
//! A run reports into one [`Obs`] handle: an optional recorder, timeline
//! and event log. The run's thread enters it with [`Obs::enter`], and
//! every thread the library spawns (replay lanes, hierarchy scoring, daemon workers and connections, the telemetry aggregator)
//! enters its spawner's scope, so two runs in one process each count
//! into their own handle. A thread with no scope falls back to the one
//! global slot ([`install`] / [`uninstall`]), which records everything
//! such threads do without passing a handle around.
//!
//! ## Zero cost when disabled
//!
//! Nothing is recorded until a handle is entered or installed. Every
//! instrumentation entry point is `#[inline]` and first checks the
//! thread's scope and one relaxed atomic ([`enabled`]); with neither, the
//! call returns immediately — no clock read, no lock, no allocation. The
//! non-perturbation guarantee is stronger than performance, though:
//! instrumentation *never* feeds back into analysis, so results are
//! bit-identical with a handle present, absent, or attached halfway
//! through a run.
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
//! {
//!     let _scope = obs::Obs::from(recorder.clone()).enter();
//!     let _span = obs::span(obs::Stage::Replay);
//!     obs::add(obs::Counter::EventsDecoded, 990);
//! }
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
pub use recorder::{GrainProfile, GrainStatus, MetricsRecorder, MetricsSnapshot, SpanStats};
pub use service::{ServiceConfig, TelemetryService};
pub use timeline::{format_chrome_trace, Timeline, TimelineArgs, TimelineEvent, TimelineSnapshot};

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

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
    /// Scoring one candidate hierarchy from measured profiles.
    Sweep,
    /// Building one attribution report from a scored analysis.
    Report,
    /// Serializing and writing one crash-safety snapshot of a grain's
    /// analyzer state, during that grain's replay (whose [`Stage::Replay`]
    /// span time includes it).
    Checkpoint,
    /// One symbolic reuse-profile estimation pass (the zero-trace
    /// replacement for capture + replay).
    Estimate,
}

impl Stage {
    /// Every stage, in dense-index order (used for metric storage).
    pub const ALL: [Stage; 7] = [
        Stage::Capture,
        Stage::Decode,
        Stage::Replay,
        Stage::Sweep,
        Stage::Report,
        Stage::Checkpoint,
        Stage::Estimate,
    ];

    /// Every stage in the order the pipeline executes them:
    /// capture → decode → replay → checkpoint → estimate → sweep →
    /// report (estimation replaces the first four stages on the
    /// static path, so it sorts just before sweep). Exporters print
    /// stages in this order, independent of the enum's index layout.
    pub const PIPELINE_ORDER: [Stage; 7] = [
        Stage::Capture,
        Stage::Decode,
        Stage::Replay,
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
    /// Grains whose replay failed.
    GrainsFailed,
    /// Candidate hierarchies scored successfully in sweeps.
    SweepConfigsScored,
    /// Candidate hierarchies that failed validation or scoring.
    SweepConfigsFailed,
    /// Attribution reports generated.
    ReportsGenerated,
    /// Timeline events dropped by the full ring.
    TimelineDropped,
    /// Distinct blocks admitted by the spatial-hash sampler (unscaled).
    BlocksSampled,
    /// Tracked blocks evicted by adaptive sampling rate drops.
    BlocksEvicted,
    /// Adaptive sampling rate halvings (tracked set hit its budget).
    SampleRateDrops,
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
    /// Daemon replay jobs served a resident, already verified trace
    /// buffer.
    TracesResidentHit,
    /// Daemon replay jobs that loaded and verified their trace from the
    /// store.
    TracesResidentMiss,
    /// Replay lanes started. A lane is one thread's decode of a trace,
    /// shared by every grain assigned to it.
    ReplayLanes,
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
        Counter::SweepConfigsScored,
        Counter::SweepConfigsFailed,
        Counter::ReportsGenerated,
        Counter::TimelineDropped,
        Counter::BlocksSampled,
        Counter::BlocksEvicted,
        Counter::SampleRateDrops,
        Counter::CheckpointsWritten,
        Counter::CheckpointsResumed,
        Counter::CheckpointsRejected,
        Counter::StaticRefsCovered,
        Counter::StaticRefsFallback,
        Counter::JobsAccepted,
        Counter::JobsCompleted,
        Counter::JobsFailed,
        Counter::JobsRejected,
        Counter::TracesResidentHit,
        Counter::TracesResidentMiss,
        Counter::ReplayLanes,
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
            Counter::SweepConfigsScored => "sweep_configs_scored",
            Counter::SweepConfigsFailed => "sweep_configs_failed",
            Counter::ReportsGenerated => "reports_generated",
            Counter::TimelineDropped => "timeline_dropped",
            Counter::BlocksSampled => "blocks_sampled",
            Counter::BlocksEvicted => "blocks_evicted",
            Counter::SampleRateDrops => "sample_rate_drops",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointsResumed => "checkpoints_resumed",
            Counter::CheckpointsRejected => "checkpoints_rejected",
            Counter::StaticRefsCovered => "static_refs_covered",
            Counter::StaticRefsFallback => "static_refs_fallback",
            Counter::JobsAccepted => "jobs_accepted",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsFailed => "jobs_failed",
            Counter::JobsRejected => "jobs_rejected",
            Counter::TracesResidentHit => "traces_resident_hit",
            Counter::TracesResidentMiss => "traces_resident_miss",
            Counter::ReplayLanes => "replay_lanes",
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
            Counter::GrainsFailed => "Grains whose replay failed.",
            Counter::SweepConfigsScored => "Candidate hierarchies scored successfully.",
            Counter::SweepConfigsFailed => "Candidate hierarchies that failed scoring.",
            Counter::ReportsGenerated => "Attribution reports generated.",
            Counter::TimelineDropped => "Timeline events dropped by the full ring.",
            Counter::BlocksSampled => {
                "Distinct blocks admitted by the spatial-hash sampler (unscaled)."
            }
            Counter::BlocksEvicted => "Tracked blocks evicted by adaptive sampling rate drops.",
            Counter::SampleRateDrops => "Adaptive sampling rate halvings.",
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
            Counter::TracesResidentHit => "Replay jobs served a resident, verified trace.",
            Counter::TracesResidentMiss => "Replay jobs that loaded their trace from the store.",
            Counter::ReplayLanes => "Replay lanes started; each decodes its trace once.",
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
    /// Bytes of the traces the daemon keeps resident: encoded columns
    /// plus decoded forms.
    ResidentBytes,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 7] = [
        Gauge::BudgetEvents,
        Gauge::BudgetDistinctBlocks,
        Gauge::BudgetTreeNodes,
        Gauge::SamplingInvRate,
        Gauge::SnapshotBytes,
        Gauge::JobQueueDepth,
        Gauge::ResidentBytes,
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
            Gauge::ResidentBytes => "resident_bytes",
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
            Gauge::SnapshotBytes => "Bytes of the most recently written crash-safety snapshot.",
            Gauge::JobQueueDepth => "Jobs sitting on the daemon queue (accepted, not yet running).",
            Gauge::ResidentBytes => {
                "Bytes of the traces the daemon keeps resident, encoded plus decoded."
            }
        }
    }

    /// Dense index of this gauge within [`Gauge::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One observability handle: the recorder, timeline and event log a run
/// reports into (see [the crate docs](crate)). Cloning is cheap. Enter it
/// on a thread with [`Obs::enter`], or make it the handle of every thread
/// without a scope with [`install`]. An empty handle (`Obs::default()`)
/// records nothing, so entering one runs a thread dark.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Counters, gauges, stage timings and grain profiles.
    pub metrics: Option<Arc<MetricsRecorder>>,
    /// One event per completed span, for the Chrome trace view.
    pub timeline: Option<Arc<Timeline>>,
    /// The structured JSONL event log.
    pub events: Option<Arc<EventLog>>,
}

impl From<Arc<MetricsRecorder>> for Obs {
    fn from(metrics: Arc<MetricsRecorder>) -> Obs {
        Obs {
            metrics: Some(metrics),
            ..Obs::default()
        }
    }
}

impl Obs {
    /// Makes this handle the calling thread's scope until the returned
    /// guard drops; the guard then restores whatever scope (or none) the
    /// thread had before, so scopes nest.
    pub fn enter(&self) -> ObsScope {
        let previous = SCOPE.with(|scope| scope.replace(Some(self.clone())));
        ObsScope {
            previous,
            _thread: PhantomData,
        }
    }

    /// Wraps `f`, the body of a thread about to be spawned, so the new
    /// thread enters the calling thread's scope — or, when the caller has
    /// none, follows the global slot like it. Every thread the library
    /// spawns runs through this.
    pub fn inherit<T>(f: impl FnOnce() -> T) -> impl FnOnce() -> T {
        let scope = SCOPE.with(|scope| scope.borrow().clone());
        move || {
            let _scope = scope.as_ref().map(Obs::enter);
            f()
        }
    }
}

/// Guard returned by [`Obs::enter`]: restores the thread's previous scope
/// on drop. It belongs to the thread that entered, so it is not `Send`.
#[derive(Debug)]
#[must_use = "the scope ends when the guard drops; bind it to a variable"]
pub struct ObsScope {
    previous: Option<Obs>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // The handle leaving scope is dropped outside the borrow.
        let _left = SCOPE.with(|scope| scope.replace(previous));
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Obs>> = RwLock::new(None);

thread_local! {
    /// The handle this thread entered with [`Obs::enter`], if any.
    static SCOPE: RefCell<Option<Obs>> = const { RefCell::new(None) };
    /// Nesting depth of open spans on this thread (1 = top level).
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` on the calling thread's handle: its scope if it entered one,
/// else the global slot. `None` — without reading any lock — when the
/// thread has no scope and the global slot is empty.
#[inline]
fn with_obs<R>(f: impl FnOnce(&Obs) -> R) -> Option<R> {
    SCOPE.with(|scope| {
        if let Some(obs) = scope.borrow().as_ref() {
            return Some(f(obs));
        }
        if !ENABLED.load(Ordering::Relaxed) {
            return None;
        }
        // A sink panicking mid-call could poison the lock; observability
        // must never take the pipeline down, so a poisoned slot is read.
        let global = GLOBAL.read().unwrap_or_else(PoisonError::into_inner);
        global.as_ref().map(f)
    })
}

/// True when the calling thread records metrics: its scope, or else the
/// global slot, holds a recorder.
#[inline]
pub fn enabled() -> bool {
    with_obs(|obs| obs.metrics.is_some()).unwrap_or(false)
}

/// Fills the global slot — the handle of every thread without a scope —
/// and returns the handle it replaces. Recording starts immediately:
/// probes that ran before are simply lost, which is exactly the
/// mid-run-install semantics the identity tests pin down.
pub fn install(obs: impl Into<Obs>) -> Option<Obs> {
    let mut global = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    let previous = global.replace(obs.into());
    ENABLED.store(true, Ordering::SeqCst);
    previous
}

/// Empties the global slot and returns its handle, so callers can
/// snapshot after the pipeline quiesces.
pub fn uninstall() -> Option<Obs> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut global = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    global.take()
}

/// Records one discrete occurrence at its default severity
/// ([`EventKind::severity`]): the thread's recorder applies its tally
/// ([`MetricsRecorder::record_event`]) and its event log writes its line.
/// This is the one call an occurrence takes. A no-op branch when
/// disabled; never per-access — emit sites are grain-, checkpoint-,
/// and job-grained.
#[inline]
pub fn emit(kind: EventKind) {
    emit_at(kind.severity(), kind);
}

/// [`emit`] at an explicit severity (the log's view; the tally does not
/// depend on it). A no-op when disabled.
#[inline]
pub fn emit_at(severity: Severity, kind: EventKind) {
    with_obs(|obs| {
        if let Some(metrics) = &obs.metrics {
            metrics.record_event(&kind);
        }
        if let Some(log) = &obs.events {
            log.emit(severity, &kind);
        }
    });
}

/// Adds a bulk delta to a counter. A no-op branch when disabled.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    with_obs(|obs| obs.metrics.as_ref().map(|m| m.add(counter, delta)));
}

/// Sets a gauge to its latest observed value. A no-op branch when disabled.
#[inline]
pub fn set_gauge(gauge: Gauge, value: u64) {
    with_obs(|obs| obs.metrics.as_ref().map(|m| m.set_gauge(gauge, value)));
}

/// Opens a timing span for a pipeline stage. The returned guard records
/// the elapsed wall time (and the thread-local nesting depth) when
/// dropped — to the thread's recorder as aggregate stage timing, and to
/// its timeline as one [`TimelineEvent`]. When the thread's handle has
/// neither, the guard is inert: no clock is read on open or close.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    span_with(stage, TimelineArgs::default)
}

/// Opens a timing span carrying typed timeline args. `args` is evaluated
/// only when the thread's handle has a timeline, so call sites can clone
/// names and build strings inside the closure without cost on the
/// disabled (or metrics-only) path. Args known only at completion are
/// added through [`SpanGuard::record`].
#[inline]
pub fn span_with(stage: Stage, args: impl FnOnce() -> TimelineArgs) -> SpanGuard {
    let (metrics, timeline) =
        with_obs(|obs| (obs.metrics.is_some(), obs.timeline.is_some())).unwrap_or_default();
    if !metrics && !timeline {
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
/// elapsed wall time to the thread's recorder and its timeline event to
/// the thread's timeline on drop.
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
        report_span(armed.stage, armed.start, wall, armed.depth, armed.args);
    }
}

/// Records a span whose time the caller measured: `wall` of `stage`,
/// placed at `start` on the timeline and nested one level below the
/// thread's open spans. It serves work that is not one contiguous stretch
/// of the thread — the grains of one replay lane take turns, and each is
/// charged its own time plus a share of the lane's decode. `args` is
/// evaluated only when the thread's handle has a timeline. A no-op when
/// disabled.
#[inline]
pub fn record_span(
    stage: Stage,
    start: Instant,
    wall: Duration,
    args: impl FnOnce() -> TimelineArgs,
) {
    let (metrics, timeline) =
        with_obs(|obs| (obs.metrics.is_some(), obs.timeline.is_some())).unwrap_or_default();
    if !metrics && !timeline {
        return;
    }
    let depth = SPAN_DEPTH.with(Cell::get) + 1;
    let args = if timeline {
        args()
    } else {
        TimelineArgs::default()
    };
    report_span(stage, start, wall, depth, args);
}

/// Reports one closed span to the thread's handle. The span reports to
/// the handle it closes into: one removed while the span was open drops
/// the measurement, never blocks on it — and a timeline never receives
/// half-open events.
fn report_span(stage: Stage, start: Instant, wall: Duration, depth: u32, args: TimelineArgs) {
    with_obs(|obs| {
        if let Some(metrics) = &obs.metrics {
            metrics.record_span(stage, wall, depth);
        }
        if let Some(timeline) = &obs.timeline {
            let evicted = timeline.record(stage, start, wall, depth, args);
            if let (true, Some(metrics)) = (evicted, &obs.metrics) {
                metrics.add(Counter::TimelineDropped, 1);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        // An empty handle runs the thread dark whatever the global slot
        // holds: no probe arms a span or reads a clock.
        let _dark = Obs::default().enter();
        assert!(!enabled());
        add(Counter::EventsDecoded, 5);
        set_gauge(Gauge::BudgetEvents, 5);
        emit(EventKind::GrainStarted { grain: 1 });
        assert!(span(Stage::Replay).armed.is_none());
    }

    /// The two tests that touch the global slot take this lock, so
    /// `cargo test` parallelism cannot interleave their installs.
    static GLOBAL_SLOT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn global_slot() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_SLOT
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn install_records_and_uninstall_stops() {
        let _slot = global_slot();
        let rec = Arc::new(MetricsRecorder::new());
        assert!(install(rec.clone()).is_none());
        assert!(enabled());
        add(Counter::GrainsCompleted, 2);
        set_gauge(Gauge::BudgetTreeNodes, 7);
        {
            let _outer = span(Stage::Replay);
            let _inner = span(Stage::Decode);
        }
        // A scope shadows the global slot.
        {
            let _dark = Obs::default().enter();
            add(Counter::GrainsCompleted, 50);
        }
        // Installing again replaces the handle and returns the previous.
        let second = Arc::new(MetricsRecorder::new());
        let previous = install(second.clone()).expect("first handle is returned");
        assert!(Arc::ptr_eq(&previous.metrics.expect("a recorder"), &rec));
        add(Counter::ReportsGenerated, 10);
        let returned = uninstall().expect("second handle is returned");
        assert!(Arc::ptr_eq(&returned.metrics.expect("a recorder"), &second));
        assert!(!enabled());
        add(Counter::GrainsCompleted, 99); // dropped: disabled again
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::GrainsCompleted), 2);
        assert_eq!(snap.counter(Counter::ReportsGenerated), 0);
        assert_eq!(snap.gauge(Gauge::BudgetTreeNodes), 7);
        let replay = snap.stage(Stage::Replay);
        let decode = snap.stage(Stage::Decode);
        assert_eq!(replay.count, 1);
        assert_eq!(decode.count, 1);
        assert_eq!(replay.max_depth, 1);
        assert_eq!(decode.max_depth, 2, "nested span must record depth 2");
        assert_eq!(second.snapshot().counter(Counter::ReportsGenerated), 10);
        assert_eq!(second.snapshot().counter(Counter::GrainsCompleted), 0);
    }

    #[test]
    fn install_replaces_and_returns_previous_recorder() {
        let _slot = global_slot();
        let first = Arc::new(MetricsRecorder::new());
        let second = Arc::new(MetricsRecorder::new());
        assert!(install(first.clone()).is_none());
        add(Counter::ReportsGenerated, 1);
        let previous = install(second.clone()).expect("first handle is returned");
        assert!(Arc::ptr_eq(&previous.metrics.expect("a recorder"), &first));
        add(Counter::ReportsGenerated, 10);
        let returned = uninstall().expect("second handle is returned");
        assert!(Arc::ptr_eq(&returned.metrics.expect("a recorder"), &second));
        assert_eq!(first.snapshot().counter(Counter::ReportsGenerated), 1);
        assert_eq!(second.snapshot().counter(Counter::ReportsGenerated), 10);
    }

    #[test]
    fn scopes_nest_restore_and_pass_to_spawned_threads() {
        let outer = Arc::new(MetricsRecorder::new());
        let inner = Arc::new(MetricsRecorder::new());
        let outer_scope = Obs::from(outer.clone()).enter();
        add(Counter::ReportsGenerated, 1);
        {
            let _inner_scope = Obs::from(inner.clone()).enter();
            std::thread::spawn(Obs::inherit(|| add(Counter::ReportsGenerated, 10)))
                .join()
                .expect("inheriting thread");
        }
        add(Counter::ReportsGenerated, 100);
        drop(outer_scope);
        // Without a scope to inherit, the thread has none.
        let spawned = std::thread::spawn(Obs::inherit(|| SCOPE.with(|s| s.borrow().is_none())));
        assert!(spawned.join().expect("unscoped thread"));
        assert_eq!(outer.counter(Counter::ReportsGenerated), 101);
        assert_eq!(inner.counter(Counter::ReportsGenerated), 10);
    }

    #[test]
    fn pipeline_order_covers_every_stage_exactly_once() {
        assert_eq!(Stage::PIPELINE_ORDER.len(), Stage::ALL.len());
        for stage in Stage::ALL {
            assert_eq!(
                Stage::PIPELINE_ORDER
                    .iter()
                    .filter(|&&s| s == stage)
                    .count(),
                1,
                "{} must appear exactly once in PIPELINE_ORDER",
                stage.name()
            );
        }
        // Pin the positions the summary footer depends on: checkpoint
        // snapshots during replay, and
        // estimation substitutes for the trace stages just before sweep.
        let pos = |s: Stage| Stage::PIPELINE_ORDER.iter().position(|&x| x == s).unwrap();
        assert!(pos(Stage::Capture) < pos(Stage::Decode));
        assert!(pos(Stage::Decode) < pos(Stage::Replay));
        assert!(pos(Stage::Replay) < pos(Stage::Checkpoint));
        assert!(pos(Stage::Checkpoint) < pos(Stage::Estimate));
        assert!(pos(Stage::Estimate) < pos(Stage::Sweep));
        assert!(pos(Stage::Sweep) < pos(Stage::Report));
    }

    #[test]
    fn event_emission_respects_install_state() {
        let _dark = Obs::default().enter();
        emit(EventKind::GrainStarted { grain: 1 }); // inert: no log in scope
        let log = Arc::new(EventLog::to_vec());
        let scope = Obs {
            events: Some(log.clone()),
            ..Obs::default()
        }
        .enter();
        emit(EventKind::GrainStarted { grain: 64 });
        emit_at(Severity::Warn, EventKind::GrainStarted { grain: 128 });
        drop(scope);
        emit(EventKind::GrainStarted { grain: 999 }); // dropped: scope ended
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

//! Program analysis: execute a program once, measure reuse at several
//! granularities.
//!
//! Two pipelines produce bit-identical profiles:
//!
//! * **Online** ([`analyze_program`]) — every grain's analyzer observes the
//!   event stream while the program is interpreted, as the paper's
//!   instrumented binaries do. It is the reference the replay pipeline is
//!   checked against.
//! * **Capture + replay** ([`capture_program`], then [`analyze_buffer`] or
//!   [`analyze_buffer_with`]) — the program is interpreted exactly once
//!   into a compact [`TraceBuffer`]; the grains then replay the buffer on
//!   **replay lanes**. Decoding the buffer is far cheaper than
//!   re-interpreting the program, and the per-grain analyzers share
//!   nothing, so grains can replay in parallel or share one decode.
//!
//! [`analyze_buffer_with`] is the one call for every replay configuration;
//! each knob is a field of [`AnalyzeOptions`]: sampling (the
//! constant-space [`SampledAnalyzer`]), a resource budget, and crash-safe
//! checkpointing. Exact mode
//! with default options stays the default, and its output is bit-identical
//! to a build without the knobs.
//!
//! Under it sits **one lane loop**: fill, then play. A lane is one thread
//! that asks its [`StepSource`] for one stretch of decoded lanes per
//! step, at most [`STEP`] events or up to a checkpoint boundary, and
//! plays that stretch into every grain dealt to it, grain by grain. After
//! each of its steps a grain publishes progress, checks its budget and
//! writes a snapshot at a checkpoint boundary, exactly as if it rode
//! alone. Given the trace's
//! [`DecodedTrace`](reuselens_trace::DecodedTrace), built once from the
//! buffer, [`analyze_buffer_with`] runs the same loop over stretches that
//! need no decoding.
//!
//! The calling thread always runs one lane itself and borrows up to one
//! more per extra grain while the process has cores to spare: one lane
//! per core, counted across every replay in the process. A lone replay
//! thus runs one grain per core, and a replay that finds the cores busy
//! (the daemon's workers) replays all its grains on its own thread with
//! one decode. Lanes change where work runs, never a profile byte.
//!
//! ## Fault tolerance
//!
//! The replay pipeline is built to run unattended over full application
//! executions, so a failing grain must not take the run down with it:
//!
//! * every grain runs each of its steps under its own `catch_unwind` — a
//!   panic in one grain's analyzer never aborts the process or discards
//!   sibling grains, including those sharing its lane;
//! * [`analyze_buffer_with`] degrades gracefully: failed grains come back
//!   as per-grain [`FailureReport`]s inside a [`PartialAnalysis`]. Replay
//!   is deterministic, so a failed grain is not re-run: it would only
//!   fail again the same way;
//! * [`AnalyzeOptions`] can enforce an [`AnalysisBudget`], so runaway
//!   traces stop with [`BudgetExceeded`] — carrying diagnostics, not
//!   panicking; a checkpoint I/O failure is that grain's
//!   [`GrainError::Checkpoint`]. Corrupted traces never get this far: a
//!   [`TraceBuffer`] is well-formed by construction, and an image from
//!   outside the process is checked by [`TraceBuffer::import`];
//! * [`analyze_buffer`] and [`PartialAnalysis::into_strict`] return
//!   `Result` and map the first grain failure into an [`AnalysisError`].

use crate::analyzer::{MultiGrainAnalyzer, ReuseAnalyzer};
use crate::budget::{AnalysisBudget, BudgetExceeded, BudgetProgress};
use crate::patterns::ReuseProfile;
use crate::sampling::{SampledAnalyzer, SamplingConfig};
use crate::snapshot::{
    decode_snapshot, list_snapshots, read_snapshot_bytes, write_snapshot_file, Dec, Enc,
    SnapshotError, SnapshotHeader,
};
use reuselens_ir::{ArrayId, Program, RefId, ScopeId};
use reuselens_obs as obs;
use reuselens_trace::{
    ExecError, ExecReport, Executor, SegmentState, SoaBatch, StepSource, Stretch, TraceBuffer,
    TraceSink, STEP,
};
use std::error::Error;
use std::fmt;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Why one grain's replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GrainError {
    /// The grain's replay panicked; the payload's message, or
    /// `"unknown panic payload"` when the payload was not a string.
    Panicked(String),
    /// The grain crossed its resource budget.
    Budget(BudgetExceeded),
    /// Checkpoint I/O failed: the checkpoint directory could not be
    /// created or listed, or a snapshot could not be written. Corrupted
    /// snapshot *files* are never an error — resume skips them.
    Checkpoint(SnapshotError),
}

impl fmt::Display for GrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrainError::Panicked(msg) => write!(f, "replay thread panicked: {msg}"),
            GrainError::Budget(e) => e.fmt(f),
            GrainError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl Error for GrainError {}

/// Error from the strict analysis entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The capture run failed in the executor.
    Exec(ExecError),
    /// A grain crossed its resource budget.
    Budget(BudgetExceeded),
    /// A grain's checkpoint I/O failed.
    Checkpoint(SnapshotError),
    /// A grain's replay panicked.
    GrainPanicked {
        /// Block size of the failed grain.
        block_size: u64,
        /// Panic message, or `"unknown panic payload"`.
        message: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Exec(e) => e.fmt(f),
            AnalysisError::Budget(e) => e.fmt(f),
            AnalysisError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            AnalysisError::GrainPanicked {
                block_size,
                message,
            } => write!(
                f,
                "replay thread for grain {block_size} panicked: {message}"
            ),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Exec(e) => Some(e),
            AnalysisError::Budget(e) => Some(e),
            AnalysisError::Checkpoint(e) => Some(e),
            AnalysisError::GrainPanicked { .. } => None,
        }
    }
}

impl From<ExecError> for AnalysisError {
    fn from(e: ExecError) -> AnalysisError {
        AnalysisError::Exec(e)
    }
}

impl From<BudgetExceeded> for AnalysisError {
    fn from(e: BudgetExceeded) -> AnalysisError {
        AnalysisError::Budget(e)
    }
}

/// The result of [`analyze_program`]: reuse profiles (one per granularity,
/// in request order) plus the executor's dynamic statistics (loop trip
/// counts, access totals).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// One profile per requested block size.
    pub profiles: Vec<ReuseProfile>,
    /// Dynamic execution statistics.
    pub exec: ExecReport,
}

impl AnalysisResult {
    /// The profile measured at the given block size.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }
}

/// Executes `program` once and measures reuse distances at every requested
/// block size. Index arrays (for indirect accesses) are supplied as
/// `(array, contents)` pairs.
///
/// # Errors
///
/// Propagates any [`ExecError`] from the executor (out-of-bounds access,
/// missing index data).
///
/// # Examples
///
/// ```
/// use reuselens_core::analyze_program;
/// use reuselens_ir::ProgramBuilder;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[256]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 2, |r, _| {
///         r.for_("i", 0, 255, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let result = analyze_program(&prog, &[64, 4096], vec![])?;
/// assert_eq!(result.profiles.len(), 2);
/// assert_eq!(result.exec.accesses, 3 * 256);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
pub fn analyze_program(
    program: &Program,
    block_sizes: &[u64],
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<AnalysisResult, ExecError> {
    let mut analyzer = MultiGrainAnalyzer::new(program, block_sizes);
    let mut exec = Executor::new(program);
    for (arr, data) in index_arrays {
        exec.set_index_array(arr, data);
    }
    let report = exec.run(&mut analyzer)?;
    Ok(AnalysisResult {
        profiles: analyzer.finish(),
        exec: report,
    })
}

/// Wall time charged to one grain's replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayTiming {
    /// The grain (block size in bytes) this replay analyzed.
    pub block_size: u64,
    /// Time spent replaying the buffer through that grain's analyzer,
    /// plus an equal share of its replay lane's decode time. The grains
    /// of one lane add up to the lane's wall time.
    pub wall: Duration,
}

/// Interprets `program` exactly once and returns the captured trace plus
/// the executor's report. The buffer can then be replayed any number of
/// times — per grain, per experiment — without re-interpreting, by
/// [`analyze_buffer`] or [`analyze_buffer_with`].
///
/// # Errors
///
/// Propagates any [`ExecError`] from the executor.
///
/// # Examples
///
/// ```
/// use reuselens_core::{analyze_buffer, analyze_program, capture_program};
/// use reuselens_ir::ProgramBuilder;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[256]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 2, |r, _| {
///         r.for_("i", 0, 255, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let (buffer, exec) = capture_program(&prog, vec![])?;
/// let (profiles, timings) = analyze_buffer(&prog, &buffer, &[64, 4096])?;
/// let online = analyze_program(&prog, &[64, 4096], vec![])?;
/// assert_eq!(profiles, online.profiles);
/// assert_eq!(exec, online.exec);
/// assert_eq!(timings.len(), 2);
/// assert!(buffer.stats().encoded_bytes < buffer.stats().raw_bytes);
/// # Ok::<(), reuselens_core::AnalysisError>(())
/// ```
pub fn capture_program(
    program: &Program,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<(TraceBuffer, ExecReport), ExecError> {
    let mut buffer = TraceBuffer::new();
    let mut exec = Executor::new(program);
    for (arr, data) in index_arrays {
        exec.set_index_array(arr, data);
    }
    let report = {
        let _span = obs::span(obs::Stage::Capture);
        exec.run(&mut buffer)?
    };
    let stats = buffer.stats();
    obs::add(obs::Counter::EventsCaptured, stats.events);
    obs::add(obs::Counter::AccessesCaptured, stats.accesses);
    obs::add(obs::Counter::BytesEncoded, stats.encoded_bytes);
    Ok((buffer, report))
}

/// Every knob of the replay pipeline ([`analyze_buffer_with`]). The
/// defaults run exact, unbudgeted serial replay with no checkpoints — the
/// configuration [`analyze_buffer`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Resource caps per grain; unlimited by default.
    pub budget: AnalysisBudget,
    /// How to sample the block stream. [`SamplingConfig::Exact`] (the
    /// default) runs the exact analyzer and produces output bit-identical
    /// to a pipeline without this knob; any other setting replays through
    /// the constant-space [`SampledAnalyzer`] and marks each profile with
    /// its [`SamplingInfo`](crate::SamplingInfo).
    pub sampling: SamplingConfig,
    /// Crash-safe checkpointing (`None` by default): snapshot each grain's
    /// full analyzer state at regular event intervals and optionally
    /// resume from the newest valid snapshot. See [`CheckpointOptions`].
    pub checkpoint: Option<CheckpointOptions>,
    /// Daemon job this replay runs on behalf of, threaded verbatim into
    /// every [`FailureReport`] and `grain_failed` telemetry event so a
    /// multi-tenant daemon can attribute failures to the request that
    /// caused them. `None` — every non-daemon run — renders nothing.
    pub job: Option<String>,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            budget: AnalysisBudget::unlimited(),
            sampling: SamplingConfig::Exact,
            checkpoint: None,
            job: None,
        }
    }
}

/// Where and how often a checkpointed replay
/// ([`AnalyzeOptions::checkpoint`]) snapshots each grain, and whether it
/// looks for earlier snapshots to resume from.
///
/// Each grain serializes its **complete analyzer state** at every interior
/// interval boundary, so a run killed at any point — including mid-write —
/// can be rerun with [`resume`](Self::resume) set and continue from the
/// newest intact snapshot. A resumed run's profiles are bit-identical to
/// an uninterrupted run's, for the exact and the sampled engine alike. A
/// snapshot is only resumed from after full validation (framing, CRCs,
/// version, agreement with this program and trace); anything torn,
/// truncated, bit-flipped or version-skewed is counted and skipped in
/// favor of the next-newest file.
///
/// Each grain snapshots on its own schedule, whichever replay lane it
/// rides, and its snapshot files are named per grain, so the requested
/// grains must be distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory holding the snapshot files. Created if missing; one file
    /// per grain and checkpoint boundary, named by
    /// [`snapshot_file_name`](crate::snapshot_file_name).
    pub dir: PathBuf,
    /// Trace events between checkpoints, counted from the start or resume
    /// point. Values below 1 behave as 1. Each interior multiple of this
    /// interval writes one snapshot per grain; a finished grain writes
    /// none (its profile is the result).
    pub every: u64,
    /// Scan `dir` for this analysis's snapshots before replaying and
    /// resume from the newest one that validates end to end. Corrupted,
    /// torn, version-skewed, or mismatched files are rejected (counted on
    /// [`obs::Counter::CheckpointsRejected`]) and the scan falls back to
    /// the next-newest; with no valid snapshot the grain starts from the
    /// beginning.
    pub resume: bool,
}

/// One grain's failure, reported inside a [`PartialAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// Block size of the grain that failed.
    pub block_size: u64,
    /// Why it failed.
    pub error: GrainError,
    /// Trace events the grain had processed when it failed — how far the
    /// replay got before dying. Grains publish
    /// progress once per replay step (at most 4096 events, or a
    /// checkpoint boundary), so this is the last step boundary reached; a
    /// resumed grain starts from its snapshot's event.
    pub events: u64,
    /// Daemon job the grain was replayed for ([`AnalyzeOptions::job`]);
    /// `None` outside the daemon. Carried through the degradation path so
    /// failure attribution survives fold-in.
    pub job: Option<String>,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grain {}: {}", self.block_size, self.error)
    }
}

/// The degraded result of a fault-tolerant replay: profiles for every
/// grain that survived, and a [`FailureReport`] for every grain that did
/// not. Healthy grains are never discarded because a sibling failed.
///
/// A `PartialAnalysis` promises:
///
/// * `profiles` and `replays` are index-aligned and keep request order
///   (failed grains are simply absent);
/// * every requested grain appears **exactly once** — either in
///   `profiles` or in `failures`;
/// * each surviving profile is bit-identical to what a fully healthy run
///   would have produced for that grain (grains share only the decode).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAnalysis {
    /// Profiles of the grains that completed, in request order.
    pub profiles: Vec<ReuseProfile>,
    /// Replay timings for the completed grains, index-aligned with
    /// `profiles`.
    pub replays: Vec<ReplayTiming>,
    /// One report per failed grain, in request order.
    pub failures: Vec<FailureReport>,
}

impl PartialAnalysis {
    /// True when every requested grain completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The surviving profile at the given block size.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }

    /// The failure report for the given block size, if that grain died.
    pub fn failure_at(&self, block_size: u64) -> Option<&FailureReport> {
        self.failures.iter().find(|f| f.block_size == block_size)
    }

    /// Converts to the strict shape, failing on the first dead grain.
    ///
    /// # Errors
    ///
    /// Returns the first failure as an [`AnalysisError`].
    pub fn into_strict(self) -> Result<(Vec<ReuseProfile>, Vec<ReplayTiming>), AnalysisError> {
        match self.failures.into_iter().next() {
            None => Ok((self.profiles, self.replays)),
            Some(f) => Err(match f.error {
                GrainError::Budget(e) => AnalysisError::Budget(e),
                GrainError::Checkpoint(e) => AnalysisError::Checkpoint(e),
                GrainError::Panicked(message) => AnalysisError::GrainPanicked {
                    block_size: f.block_size,
                    message,
                },
            }),
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One grain's measurement engine: the exact analyzer or its
/// constant-space sampled counterpart, behind one [`TraceSink`] surface so
/// the serial replay loop serves both modes.
enum GrainAnalyzer {
    Exact(ReuseAnalyzer),
    Sampled(SampledAnalyzer),
}

impl GrainAnalyzer {
    fn new(program: &Program, block_size: u64, sampling: SamplingConfig) -> GrainAnalyzer {
        if sampling.is_exact() {
            GrainAnalyzer::Exact(ReuseAnalyzer::new(program, block_size))
        } else {
            GrainAnalyzer::Sampled(SampledAnalyzer::new(program, block_size, sampling))
        }
    }

    /// Live tracked-block count — the quantity a memory budget bounds.
    /// For the sampled engine this is the *tracked* set, not the scaled
    /// footprint estimate: sampling exists to keep this number small.
    fn tracked_blocks(&self) -> u64 {
        match self {
            GrainAnalyzer::Exact(a) => a.distinct_blocks(),
            GrainAnalyzer::Sampled(a) => a.tracked_blocks(),
        }
    }

    fn tree_nodes(&self) -> usize {
        match self {
            GrainAnalyzer::Exact(a) => a.tree_nodes(),
            GrainAnalyzer::Sampled(a) => a.tree_nodes(),
        }
    }

    fn finish(self) -> ReuseProfile {
        match self {
            GrainAnalyzer::Exact(a) => a.finish(),
            GrainAnalyzer::Sampled(a) => a.finish(),
        }
    }

    /// Serializes the engine's full mid-stream state into `e`.
    fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            GrainAnalyzer::Exact(a) => a.snapshot_encode(e),
            GrainAnalyzer::Sampled(a) => a.snapshot_encode(e),
        }
    }

    /// Rebuilds an engine from a snapshot's state frame. The validated
    /// snapshot header selects the engine and bounds the state it holds.
    fn snapshot_decode(
        program: &Program,
        header: &SnapshotHeader,
        d: &mut Dec<'_>,
    ) -> Result<GrainAnalyzer, SnapshotError> {
        let (block_size, accesses) = (header.block_size, header.accesses_replayed);
        if header.sampled {
            SampledAnalyzer::snapshot_decode(program, block_size, accesses, d)
                .map(GrainAnalyzer::Sampled)
        } else {
            ReuseAnalyzer::snapshot_decode(program, block_size, d).map(GrainAnalyzer::Exact)
        }
    }
}

/// One grain's failure before it is folded into a [`FailureReport`]: the
/// error plus how many trace events the grain had processed when it died.
struct GrainFailure {
    error: GrainError,
    events: u64,
}

impl TraceSink for GrainAnalyzer {
    fn access(&mut self, r: RefId, addr: u64) {
        match self {
            GrainAnalyzer::Exact(a) => a.access(r, addr),
            GrainAnalyzer::Sampled(a) => a.access(r, addr),
        }
    }
    fn enter(&mut self, scope: ScopeId) {
        match self {
            GrainAnalyzer::Exact(a) => a.enter(scope),
            GrainAnalyzer::Sampled(a) => a.enter(scope),
        }
    }
    fn exit(&mut self, scope: ScopeId) {
        match self {
            GrainAnalyzer::Exact(a) => a.exit(scope),
            GrainAnalyzer::Sampled(a) => a.exit(scope),
        }
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        // Both engines read the lanes directly; one match per batch.
        match self {
            GrainAnalyzer::Exact(a) => a.access_soa(batch),
            GrainAnalyzer::Sampled(a) => a.access_soa(batch),
        }
    }
}

/// Checks one grain's progress against its budget, publishing the budget
/// gauges on the way.
fn check_budget(
    budget: &AnalysisBudget,
    analyzer: &GrainAnalyzer,
    events: u64,
) -> Result<(), GrainError> {
    let progress = BudgetProgress {
        events,
        distinct_blocks: analyzer.tracked_blocks(),
        tree_nodes: analyzer.tree_nodes() as u64,
    };
    obs::set_gauge(obs::Gauge::BudgetEvents, progress.events);
    obs::set_gauge(obs::Gauge::BudgetDistinctBlocks, progress.distinct_blocks);
    obs::set_gauge(obs::Gauge::BudgetTreeNodes, progress.tree_nodes);
    budget.check(progress).map_err(GrainError::Budget)
}

/// Scans the checkpoint directory for this grain's snapshots, newest
/// first, and rebuilds the analyzer from the first one that passes every
/// check: intact framing and CRCs, matching grain/engine/program shape,
/// and agreement with the trace (the snapshot's access clock must equal
/// the buffer's at the recorded event). Rejected files only advance the
/// scan — recovery from a torn newest checkpoint is falling back to the
/// one before it.
///
/// Only I/O on the directory listing itself fails the grain; every
/// per-file failure is counted and skipped.
fn resume_grain(
    program: &Program,
    source: &mut StepSource<'_>,
    block_size: u64,
    sampled: bool,
    dir: &std::path::Path,
) -> Result<Option<(GrainAnalyzer, SegmentState)>, SnapshotError> {
    let nrefs = program.references().len() as u32;
    for (events, path) in list_snapshots(dir, block_size)? {
        let resumed = (|| -> Result<(GrainAnalyzer, SegmentState), SnapshotError> {
            let bytes = read_snapshot_bytes(&path)?;
            let (header, mut dec) = decode_snapshot(&bytes)?;
            let mismatch = |what: String| Err(SnapshotError::Mismatch { what });
            let engine = |sampled: bool| if sampled { "sampled" } else { "exact" };
            let (grain, at) = (header.block_size, header.events_replayed);
            if grain != block_size {
                return mismatch(format!(
                    "snapshot is for grain {grain}, expected {block_size}"
                ));
            }
            if header.sampled != sampled {
                return mismatch(format!(
                    "snapshot was taken by the {} engine, this run uses the {} engine",
                    engine(header.sampled),
                    engine(sampled),
                ));
            }
            if header.nrefs != nrefs {
                return mismatch(format!(
                    "snapshot program has {} references, this program has {nrefs}",
                    header.nrefs
                ));
            }
            if at != events {
                return mismatch(format!(
                    "file name claims event {events}, header records {at}"
                ));
            }
            if at > source.events() {
                let have = source.events();
                return mismatch(format!(
                    "snapshot is at event {at} but the trace has only {have}"
                ));
            }
            let state = source.state_at(at);
            if state.accesses != header.accesses_replayed {
                return mismatch(format!(
                    "snapshot records {} accesses at event {at}, the trace has {}",
                    header.accesses_replayed, state.accesses
                ));
            }
            let analyzer = GrainAnalyzer::snapshot_decode(program, &header, &mut dec)?;
            dec.finish()?;
            Ok((analyzer, state))
        })();
        match resumed {
            Ok(ok) => {
                obs::emit(obs::EventKind::CheckpointResumed {
                    grain: block_size,
                    events_replayed: ok.1.event,
                });
                return Ok(Some(ok));
            }
            Err(e) => {
                obs::emit(obs::EventKind::CheckpointRejected {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                });
            }
        }
    }
    Ok(None)
}

/// Runs `f` under panic isolation: a panic becomes the grain's
/// [`GrainError::Panicked`] instead of unwinding through its lane.
fn isolate<T>(f: impl FnOnce() -> Result<T, GrainError>) -> Result<T, GrainError> {
    panic::catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(GrainError::Panicked(panic_message(payload.as_ref()))))
}

/// One grain's result: its profile, replay timing and final
/// order-statistic set size, or the failure that ended it.
type GrainOutcome = Result<(ReuseProfile, ReplayTiming, u64), GrainFailure>;

/// Replay lanes running in this process. The budget is one lane per core
/// ([`lane_budget`]): a replay borrows lanes beyond its own only while
/// cores are free, so replays that overlap (the daemon's workers) share
/// one decode per thread instead of oversubscribing the cores. The count
/// publishes no other data, so its updates are `Relaxed`.
static LANES_BUSY: AtomicUsize = AtomicUsize::new(0);

/// How many lanes the process runs at once when it can: one per core.
fn lane_budget() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lanes one replay holds, handed back to the process budget on drop.
struct LaneLease(usize);

impl LaneLease {
    /// Takes the calling thread's own lane, which is always granted, and
    /// borrows up to `want - 1` more while the budget has free ones.
    fn take(want: usize) -> LaneLease {
        let cap = lane_budget();
        let grant = |busy: usize| 1 + cap.saturating_sub(busy + 1).min(want.saturating_sub(1));
        let (Ok(busy) | Err(busy)) =
            LANES_BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy + grant(busy))
            });
        LaneLease(grant(busy))
    }
}

impl Drop for LaneLease {
    fn drop(&mut self) {
        LANES_BUSY.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Splits a lane's wall time into consecutive laps, so each stretch of
/// the lane is charged to one grain, or shared out among its grains.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// Where a grain stands in its lane.
enum Ride {
    /// Replaying through its engine.
    Running(GrainAnalyzer),
    /// Stopped: its profile and final set size, or its failure.
    Done(Result<(ReuseProfile, u64), GrainError>),
}

/// One grain riding a lane. Its step schedule, progress, budget checks,
/// snapshots and failures are its own, exactly as if it rode alone; only
/// the decode is shared.
struct LaneGrain {
    block_size: u64,
    ride: Ride,
    /// The last step end it reached: where it resumed from, then what a
    /// failure reports. Published once per step.
    progress: u64,
    /// The event its current step ends at: [`STEP`] events on, or its
    /// next checkpoint boundary or the trace's end if that comes first.
    stop: u64,
    /// Its next checkpoint boundary (`u64::MAX` without checkpoints).
    boundary: u64,
    /// Its own analyzer time plus its share of the lane's decode time.
    busy: Duration,
}

impl LaneGrain {
    /// Builds the grain's engine, from its newest valid snapshot when the
    /// run resumes, and returns it with the decoder state it starts at.
    fn start(
        program: &Program,
        source: &mut StepSource<'_>,
        block_size: u64,
        opts: &AnalyzeOptions,
    ) -> (LaneGrain, SegmentState) {
        obs::emit(obs::EventKind::GrainStarted { grain: block_size });
        let started = isolate(|| {
            let mut resumed = None;
            if let Some(ckpt) = &opts.checkpoint {
                fs::create_dir_all(&ckpt.dir).map_err(|e| {
                    GrainError::Checkpoint(SnapshotError::Io {
                        op: "create checkpoint directory",
                        path: ckpt.dir.clone(),
                        message: e.to_string(),
                    })
                })?;
                if ckpt.resume {
                    let sampled = !opts.sampling.is_exact();
                    resumed = resume_grain(program, source, block_size, sampled, &ckpt.dir)
                        .map_err(GrainError::Checkpoint)?;
                }
            }
            Ok(resumed.unwrap_or_else(|| {
                (
                    GrainAnalyzer::new(program, block_size, opts.sampling),
                    SegmentState::default(),
                )
            }))
        })
        .map(|(analyzer, state)| (Ride::Running(analyzer), state));
        let (ride, state) =
            started.unwrap_or_else(|e| (Ride::Done(Err(e)), SegmentState::default()));
        let every = opts
            .checkpoint
            .as_ref()
            .map_or(u64::MAX, |c| c.every.max(1));
        let boundary = state.event.saturating_add(every);
        let grain = LaneGrain {
            block_size,
            ride,
            progress: state.event,
            stop: state
                .event
                .saturating_add(STEP)
                .min(boundary)
                .min(source.events()),
            boundary,
            busy: Duration::ZERO,
        };
        (grain, state)
    }

    /// A grain that has replayed to `end` or failed stops riding.
    fn running(&self, end: u64) -> bool {
        matches!(self.ride, Ride::Running(_)) && self.progress < end
    }

    /// Plays one stretch of the trace into the grain's engine. True when
    /// the grain was running and took the whole stretch.
    fn feed(&mut self, stretch: &Stretch<'_>) -> bool {
        let Ride::Running(analyzer) = &mut self.ride else {
            return false;
        };
        match isolate(|| {
            stretch.play(analyzer);
            Ok(())
        }) {
            Ok(()) => true,
            Err(e) => {
                self.ride = Ride::Done(Err(e));
                false
            }
        }
    }

    /// The per-step body, run when the lane's decoder `state` reaches the
    /// end of the grain's current step: publish progress, check the
    /// budget (if one is set), write a snapshot at an interior checkpoint
    /// boundary, and schedule the next step.
    fn end_step(
        &mut self,
        program: &Program,
        state: &SegmentState,
        end: u64,
        opts: &AnalyzeOptions,
    ) {
        let Ride::Running(analyzer) = &self.ride else {
            return;
        };
        if state.event != self.stop {
            return;
        }
        self.progress = state.event;
        let block_size = self.block_size;
        let ckpt = opts
            .checkpoint
            .as_ref()
            .filter(|_| state.event == self.boundary && state.event < end);
        let ended = isolate(|| {
            if !opts.budget.is_unlimited() {
                check_budget(&opts.budget, analyzer, state.event)?;
            }
            if let Some(ckpt) = ckpt {
                let _ckpt_span = obs::span(obs::Stage::Checkpoint);
                let mut enc = Enc::new();
                analyzer.snapshot_encode(&mut enc);
                let header = SnapshotHeader {
                    block_size,
                    sampled: !opts.sampling.is_exact(),
                    events_replayed: state.event,
                    accesses_replayed: state.accesses,
                    nrefs: program.references().len() as u32,
                };
                let bytes = write_snapshot_file(&ckpt.dir, &header, &enc.buf)
                    .map_err(GrainError::Checkpoint)?;
                obs::emit(obs::EventKind::CheckpointWritten {
                    grain: block_size,
                    events_replayed: state.event,
                    bytes,
                });
            }
            Ok(())
        });
        match ended {
            Err(e) => self.ride = Ride::Done(Err(e)),
            Ok(()) => {
                if let Some(ckpt) = ckpt {
                    self.boundary = state.event.saturating_add(ckpt.every.max(1));
                }
                self.stop = state.event.saturating_add(STEP).min(self.boundary).min(end);
            }
        }
    }

    /// Stops the grain's ride: finishes its engine if it is still running
    /// and reports it, with its replay span placed at `at` on the lane's
    /// timeline; `at` moves on past the span.
    fn close(mut self, events: u64, at: &mut Instant, laps: &mut Laps) -> GrainOutcome {
        let result = match self.ride {
            Ride::Running(analyzer) => isolate(|| {
                // The exact set only grows during a replay, so its final
                // size is also its peak; a sampled set shrinks on
                // eviction, making this the final *tracked* count.
                // Measured before `finish` consumes the analyzer.
                let tree_nodes = analyzer.tree_nodes() as u64;
                Ok((analyzer.finish(), tree_nodes))
            }),
            Ride::Done(result) => result,
        };
        self.busy += laps.lap();
        let (block_size, start) = (self.block_size, *at);
        *at += self.busy;
        obs::record_span(obs::Stage::Replay, start, self.busy, || {
            let mut args = obs::TimelineArgs {
                grain: Some(block_size),
                ..obs::TimelineArgs::default()
            };
            if let Ok((profile, tree_nodes)) = &result {
                args.events = Some(events);
                args.distinct_blocks = Some(profile.distinct_blocks);
                args.tree_nodes = Some(*tree_nodes);
                args.sample_inv = profile.sampling.map(|s| s.inv);
            }
            args
        });
        let (profile, tree_nodes) = result.map_err(|error| GrainFailure {
            error,
            events: self.progress,
        })?;
        match profile.sampling {
            None => {
                obs::add(obs::Counter::BlocksTracked, profile.distinct_blocks);
                // Every measured (non-cold) reuse re-keys its block's time in
                // the order-statistic set with one fused reinsert.
                obs::add(
                    obs::Counter::TreeReinserts,
                    profile.total_accesses - profile.total_cold(),
                );
            }
            Some(info) => {
                obs::add(obs::Counter::BlocksSampled, info.blocks_sampled);
                obs::add(obs::Counter::BlocksEvicted, info.blocks_evicted);
                obs::add(obs::Counter::SampleRateDrops, info.rate_drops);
                obs::set_gauge(obs::Gauge::SamplingInvRate, info.inv);
                if info.rate_drops > 0 {
                    obs::emit(obs::EventKind::SampleRateDropped {
                        grain: block_size,
                        inv_rate: info.inv,
                        evicted: info.blocks_evicted,
                    });
                }
            }
        }
        let timing = ReplayTiming {
            block_size,
            wall: self.busy,
        };
        Ok((profile, timing, tree_nodes))
    }
}

/// One replay lane: a thread that replays `block_sizes`, in order, and
/// decodes the trace once for all of them.
///
/// Each step fills one stretch of the trace from the lane's state to the
/// nearest step end of a grain riding it ([`StepSource::step`]), then
/// plays that stretch into each riding grain in turn; a lone grain is
/// simply the only rider. Where a grain that resumed further on gets on,
/// the lane seeks to it instead. Every grain then runs its own per-step
/// body ([`LaneGrain::end_step`]), so its profile, progress, budget trips
/// and snapshots are those of a grain replayed alone, whatever its
/// lane-mates do.
fn replay_lane(
    program: &Program,
    mut source: StepSource<'_>,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
) -> Vec<GrainOutcome> {
    obs::add(obs::Counter::ReplayLanes, 1);
    let lane_start = Instant::now();
    let mut laps = Laps(lane_start);
    let mut grains = Vec::with_capacity(block_sizes.len());
    let end = source.events();
    // The lane starts where its earliest grain does.
    let mut state: Option<SegmentState> = None;
    for &block_size in block_sizes {
        let (mut grain, start) = LaneGrain::start(program, &mut source, block_size, opts);
        grain.busy += laps.lap();
        if grain.running(end) && state.as_ref().is_none_or(|s| start.event < s.event) {
            state = Some(start);
        }
        grains.push(grain);
    }
    let mut state = state.unwrap_or_default();
    loop {
        let on = |g: &LaneGrain| g.progress <= state.event;
        let target = grains
            .iter()
            .filter(|g| g.running(end))
            .map(|g| if on(g) { g.stop } else { g.progress })
            .min();
        let Some(target) = target else { break };
        let riders = grains.iter().filter(|g| g.running(end) && on(g)).count();
        if riders == 0 {
            // Every running grain resumed further on; nothing to feed.
            state = source.state_at(target);
            continue;
        }
        let from = (state.event, state.accesses);
        let stretch = source.step(&mut state, target);
        let share = laps.lap() / riders as u32;
        let mut fed = 0;
        for grain in grains
            .iter_mut()
            .filter(|g| g.running(end) && g.progress <= from.0)
        {
            fed += u64::from(grain.feed(&stretch));
            grain.end_step(program, &state, end, opts);
            grain.busy += share + laps.lap();
        }
        // Each grain that took the whole stretch counts it on the decode
        // counters, as if it had decoded it itself: a grain that fails
        // inside a step counts none of it, whichever lane it rides.
        obs::add(obs::Counter::EventsDecoded, fed * (state.event - from.0));
        obs::add(
            obs::Counter::AccessesDecoded,
            fed * (state.accesses - from.1),
        );
    }
    // The grains' spans tile the lane's wall time, one after the other.
    let mut at = lane_start;
    grains
        .into_iter()
        .map(|grain| grain.close(end, &mut at, &mut laps))
        .collect()
}

/// The outcomes of a lane that panicked outside every grain's isolation:
/// each of its `grains` failed at event 0.
fn lane_panicked(grains: usize, payload: &(dyn std::any::Any + Send)) -> Vec<GrainOutcome> {
    let message = panic_message(payload);
    (0..grains)
        .map(|_| {
            Err(GrainFailure {
                error: GrainError::Panicked(message.clone()),
                events: 0,
            })
        })
        .collect()
}

/// Replays `block_sizes` on `lanes` lanes (at least one, at most one per
/// grain), dealing the grains to the lanes round-robin. The calling thread
/// runs lane 0 and each other lane gets a scoped thread. Returns one
/// outcome per grain, in request order.
fn replay_lanes(
    program: &Program,
    source: &StepSource<'_>,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
    lanes: usize,
) -> Vec<GrainOutcome> {
    let lanes = lanes.clamp(1, block_sizes.len().max(1));
    let dealt: Vec<Vec<u64>> = (0..lanes)
        .map(|lane| {
            block_sizes
                .iter()
                .copied()
                .skip(lane)
                .step_by(lanes)
                .collect()
        })
        .collect();
    // Each grain isolates its own panics; this is a backstop for a panic
    // in the lane itself (e.g. in its timing code).
    let run = |grains: &[u64]| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            replay_lane(program, source.clone(), grains, opts)
        }))
        .unwrap_or_else(|payload| lane_panicked(grains.len(), payload.as_ref()))
    };
    let mut ridden: Vec<_> = std::thread::scope(|s| {
        let others: Vec<_> = dealt[1..]
            .iter()
            .map(|grains| s.spawn(obs::Obs::inherit(move || run(grains))))
            .collect();
        let mut ridden = vec![run(&dealt[0]).into_iter()];
        for (handle, grains) in others.into_iter().zip(&dealt[1..]) {
            let outcomes = handle
                .join()
                .unwrap_or_else(|payload| lane_panicked(grains.len(), payload.as_ref()));
            ridden.push(outcomes.into_iter());
        }
        ridden
    });
    // Dealt round-robin, so taking one outcome from each lane in turn
    // restores request order.
    (0..block_sizes.len())
        .filter_map(|i| ridden[i % lanes].next())
        .collect()
}

/// The replay pipeline: one fresh analyzer per block size, replayed from
/// the shared buffer on **replay lanes** under per-grain panic isolation,
/// with every knob taken from `opts`. Grains that fail — by panic, budget
/// exhaustion or checkpoint I/O — are reported in the returned
/// [`PartialAnalysis`] without disturbing their siblings. Counters,
/// telemetry events and [`obs::GrainProfile`]s are
/// recorded per grain.
///
/// A lane is one thread that decodes the trace once for every grain
/// dealt to it. The calling thread always runs one lane itself and
/// borrows up to one more per extra grain while the process has cores to
/// spare (one lane per core, counted across every replay in the process),
/// so a lone replay runs one grain per core and a replay that finds the
/// cores busy replays all its grains on its own thread with one decode.
/// Lanes change where work runs, never a profile byte.
///
/// `trace` is a [`TraceBuffer`] or its
/// [`DecodedTrace`](reuselens_trace::DecodedTrace) (anything a
/// [`StepSource`] is built from): the same lanes, schedule, budgets,
/// snapshots, counters and results, byte for byte, either way. With
/// default options each grain of a buffer replays through the same decode
/// loop as [`TraceBuffer::replay`]; a process that replays one trace many
/// times builds its decoded form once and replays that without decoding.
pub fn analyze_buffer_with<'t>(
    program: &Program,
    trace: impl Into<StepSource<'t>>,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
) -> PartialAnalysis {
    let lease = LaneLease::take(block_sizes.len());
    analyze_on_lanes(program, &trace.into(), block_sizes, opts, lease.0)
}

/// [`analyze_buffer_with`] on a given source and number of lanes.
fn analyze_on_lanes(
    program: &Program,
    source: &StepSource<'_>,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
    lanes: usize,
) -> PartialAnalysis {
    obs::add(obs::Counter::GrainsRequested, block_sizes.len() as u64);
    let outcomes = replay_lanes(program, source, block_sizes, opts, lanes);
    let mut profiles = Vec::new();
    let mut replays = Vec::new();
    let mut failures = Vec::new();
    for (&block_size, outcome) in block_sizes.iter().zip(outcomes) {
        match outcome {
            Ok((profile, timing, tree_nodes)) => {
                obs::emit(obs::EventKind::GrainCompleted {
                    profile: obs::GrainProfile {
                        block_size,
                        wall: timing.wall,
                        events: source.events(),
                        distinct_blocks: profile.distinct_blocks,
                        tree_nodes,
                        status: obs::GrainStatus::Completed,
                        blocks_sampled: profile.sampling.map_or(0, |s| s.blocks_sampled),
                        blocks_evicted: profile.sampling.map_or(0, |s| s.blocks_evicted),
                        sample_inv: profile.sampling.map_or(0, |s| s.inv),
                    },
                });
                profiles.push(profile);
                replays.push(timing);
            }
            Err(failure) => {
                obs::emit(obs::EventKind::GrainFailed {
                    grain: block_size,
                    events: failure.events,
                    reason: failure.error.to_string(),
                    job: opts.job.clone(),
                });
                failures.push(FailureReport {
                    block_size,
                    error: failure.error,
                    events: failure.events,
                    job: opts.job.clone(),
                });
            }
        }
    }
    PartialAnalysis {
        profiles,
        replays,
        failures,
    }
}

/// Replays a captured buffer through one fresh [`ReuseAnalyzer`] per block
/// size, on replay lanes, and returns the profiles in request order
/// together with per-grain timings.
///
/// This is the strict form of [`analyze_buffer_with`] with default
/// options: any grain failure is returned as an error (after every lane
/// has finished — a failing grain never aborts the process or poisons
/// its siblings). Use [`analyze_buffer_with`] to keep the healthy grains'
/// results instead.
///
/// # Errors
///
/// Returns the first grain failure as an [`AnalysisError`].
pub fn analyze_buffer(
    program: &Program,
    buffer: &TraceBuffer,
    block_sizes: &[u64],
) -> Result<(Vec<ReuseProfile>, Vec<ReplayTiming>), AnalysisError> {
    analyze_buffer_with(program, buffer, block_sizes, &AnalyzeOptions::default()).into_strict()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocktable::MAX_BLOCKS;
    use crate::snapshot::encode_snapshot;
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_trace::{DecodedTrace, Event, VecSink};

    #[test]
    fn grain_replay_matches_event_by_event_access_for_every_engine() {
        let mut p = ProgramBuilder::new("stencil");
        let a = p.array("a", 8, &[96, 40]);
        let b = p.array("b", 8, &[40, 96]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("j", 0, 39, |r, j| {
                    r.for_("i", 0, 95, |r, i| {
                        r.load(a, vec![i.into(), j.into()]);
                        r.store(b, vec![j.into(), i.into()]);
                    });
                });
            });
        });
        let prog = p.finish();
        let (buffer, _) = capture_program(&prog, vec![]).unwrap();
        for sampling in [
            SamplingConfig::exact(),
            SamplingConfig::fixed(0.1),
            SamplingConfig::adaptive(16),
        ] {
            let mut batched = GrainAnalyzer::new(&prog, 64, sampling);
            buffer.replay(&mut batched);
            let mut events = VecSink::new();
            buffer.replay(&mut events);
            let mut single = GrainAnalyzer::new(&prog, 64, sampling);
            for event in events.events {
                match event {
                    Event::Access { r, addr } => single.access(r, addr),
                    Event::Enter(s) => single.enter(s),
                    Event::Exit(s) => single.exit(s),
                }
            }
            assert_eq!(batched.finish(), single.finish(), "{sampling:?}");
        }
    }

    #[test]
    fn analyze_program_with_index_arrays() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[8]);
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.for_("i", 0, 7, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..8).map(|i| (i * 7) % 64).collect();
        let result = analyze_program(&prog, &[64], vec![(ix, idx)]).unwrap();
        assert_eq!(result.profiles[0].total_accesses, 8);
        assert!(result.profile_at(64).is_some());
        assert!(result.profile_at(128).is_none());
    }

    #[test]
    fn parallel_pipeline_matches_online_bit_for_bit() {
        let mut p = ProgramBuilder::new("tiled");
        let a = p.array("a", 8, &[64, 64]);
        let b = p.array("b", 8, &[64, 64]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("j", 0, 63, |r, j| {
                    r.for_("i", 0, 63, |r, i| {
                        r.load(a, vec![i.into(), j.into()]);
                        r.store(b, vec![j.into(), i.into()]);
                    });
                });
            });
        });
        let prog = p.finish();
        let grains = [64u64, 256, 4096];
        let online = analyze_program(&prog, &grains, vec![]).unwrap();
        let (buffer, exec) = capture_program(&prog, vec![]).unwrap();
        let (profiles, replays) = analyze_buffer(&prog, &buffer, &grains).unwrap();
        assert_eq!(online.profiles, profiles);
        assert_eq!(online.exec, exec);
        assert_eq!(replays.len(), grains.len());
        for (timing, &g) in replays.iter().zip(&grains) {
            assert_eq!(timing.block_size, g);
        }
        assert_eq!(buffer.stats().accesses, online.exec.accesses);
        assert!(buffer.stats().compression_ratio() > 1.0);
    }

    #[test]
    fn parallel_pipeline_with_index_arrays() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[32]);
        let a = p.array("a", 8, &[512]);
        p.routine("main", |r| {
            r.for_("t", 0, 3, |r, _| {
                r.for_("i", 0, 31, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                });
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..32).map(|i| (i * 37) % 512).collect();
        let online = analyze_program(&prog, &[64], vec![(ix, idx.clone())]).unwrap();
        let (buffer, _) = capture_program(&prog, vec![(ix, idx)]).unwrap();
        let (profiles, _) = analyze_buffer(&prog, &buffer, &[64]).unwrap();
        assert_eq!(online.profiles, profiles);
    }

    #[test]
    fn capture_then_replay_by_hand_matches_multigrain() {
        let mut p = ProgramBuilder::new("sweep");
        let a = p.array("a", 8, &[2048]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 2047, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let (buffer, report) = capture_program(&prog, vec![]).unwrap();
        assert_eq!(buffer.accesses(), report.accesses);
        let (profiles, timings) = analyze_buffer(&prog, &buffer, &[64, 4096]).unwrap();
        let online = analyze_program(&prog, &[64, 4096], vec![]).unwrap();
        assert_eq!(profiles, online.profiles);
        assert_eq!(timings.len(), 2);
    }

    #[test]
    fn missing_index_array_surfaces_error() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[8]);
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::load(ix, vec![Expr::c(0)])]);
        });
        let prog = p.finish();
        assert!(analyze_program(&prog, &[64], vec![]).is_err());
    }

    /// Two sweeps over two arrays with nested scopes: several replay
    /// steps of events.
    fn lane_workload() -> Program {
        let mut p = ProgramBuilder::new("stencil");
        let a = p.array("a", 8, &[96, 40]);
        let b = p.array("b", 8, &[40, 96]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("j", 0, 39, |r, j| {
                    r.for_("i", 0, 95, |r, i| {
                        r.load(a, vec![i.into(), j.into()]);
                        r.store(b, vec![j.into(), i.into()]);
                    });
                });
            });
        });
        p.finish()
    }

    /// A run of [`analyze_on_lanes`] under a recorder of its own: the
    /// analysis, and the recorder's snapshot without what may differ by
    /// lane count (wall times, last-writer gauges, the lane counter).
    fn on_lanes(
        prog: &Program,
        source: &StepSource<'_>,
        grains: &[u64],
        opts: &AnalyzeOptions,
        lanes: usize,
    ) -> (PartialAnalysis, obs::MetricsSnapshot) {
        let recorder = std::sync::Arc::new(obs::MetricsRecorder::new());
        let partial = {
            let _scope = obs::Obs::from(recorder.clone()).enter();
            analyze_on_lanes(prog, source, grains, opts, lanes)
        };
        let mut snap = recorder.snapshot();
        assert_eq!(
            snap.counter(obs::Counter::ReplayLanes),
            lanes.min(grains.len()) as u64
        );
        snap.counters[obs::Counter::ReplayLanes.index()] = 0;
        snap.gauges = Default::default();
        snap.zero_timings();
        (partial, snap)
    }

    /// Runs `grains` on one lane and on one lane per grain, each from the
    /// buffer and from its decoded form, and asserts every run agrees
    /// with the one-lane buffer run on every profile, failure report
    /// (with its events), per-grain obs counter and span. Returns the
    /// one-lane buffer run.
    fn same_on_every_lane_count(
        prog: &Program,
        buffer: &TraceBuffer,
        grains: &[u64],
        opts: impl Fn(usize) -> AnalyzeOptions,
    ) -> PartialAnalysis {
        let decoded = DecodedTrace::new(buffer);
        let encoded = StepSource::from(buffer);
        let (one, one_obs) = on_lanes(prog, &encoded, grains, &opts(1), 1);
        for lanes in 1..=grains.len() {
            let sources = [
                (lanes > 1).then(|| (StepSource::from(buffer), "")),
                Some((StepSource::from(&decoded), ", decoded")),
            ];
            for (source, form) in sources.into_iter().flatten() {
                let (many, many_obs) = on_lanes(prog, &source, grains, &opts(lanes), lanes);
                let run = format!("{lanes} lanes{form}");
                assert_eq!(one.profiles, many.profiles, "{run}");
                assert_eq!(one.failures, many.failures, "{run}");
                let grains_of = |p: &PartialAnalysis| -> Vec<u64> {
                    p.replays.iter().map(|t| t.block_size).collect()
                };
                assert_eq!(grains_of(&one), grains_of(&many), "{run}");
                assert_eq!(one_obs, many_obs, "{run}");
            }
        }
        one
    }

    const LANE_GRAINS: [u64; 3] = [64, 256, 4096];

    #[test]
    fn every_lane_count_gives_the_same_analysis() {
        let prog = lane_workload();
        let (buffer, _) = capture_program(&prog, vec![]).unwrap();
        assert!(buffer.events() > 3 * STEP);
        for sampling in [
            SamplingConfig::exact(),
            SamplingConfig::fixed(0.1),
            SamplingConfig::adaptive(16),
        ] {
            let opts = AnalyzeOptions {
                sampling,
                ..AnalyzeOptions::default()
            };
            let partial = same_on_every_lane_count(&prog, &buffer, &LANE_GRAINS, |_| opts.clone());
            assert!(partial.is_complete(), "{sampling:?}");
            if sampling.is_exact() {
                let online = analyze_program(&prog, &LANE_GRAINS, vec![]).unwrap();
                assert_eq!(partial.profiles, online.profiles);
            }
        }
    }

    /// [`lane_workload`]'s trace with one more load just before the
    /// final scope exit, at block number [`MAX_BLOCKS`] for 64 B grains.
    /// Coarser grains fold the address under the block table's cap.
    fn late_far_access_trace(prog: &Program) -> TraceBuffer {
        let (captured, _) = capture_program(prog, vec![]).unwrap();
        let mut events = VecSink::new();
        captured.replay(&mut events);
        let last = events.events.len() - 1;
        let mut fed = TraceBuffer::new();
        for (i, event) in events.events.into_iter().enumerate() {
            if i == last {
                fed.access(RefId(0), MAX_BLOCKS * 64);
            }
            match event {
                Event::Access { r, addr } => fed.access(r, addr),
                Event::Enter(s) => fed.enter(s),
                Event::Exit(s) => fed.exit(s),
            }
        }
        fed
    }

    /// The block table's fixed cap of [`MAX_BLOCKS`] block numbers trips
    /// grain 64 alone, several steps into the stream: its lane-mates
    /// finish as if it were not there.
    #[test]
    fn a_budget_trips_one_grain_alike_on_every_lane_count() {
        let prog = lane_workload();
        let buffer = late_far_access_trace(&prog);
        let partial =
            same_on_every_lane_count(&prog, &buffer, &LANE_GRAINS, |_| AnalyzeOptions::default());
        assert_eq!(partial.failures.len(), 1);
        let failure = partial.failure_at(64).expect("grain 64 crosses MAX_BLOCKS");
        assert!(
            matches!(&failure.error, GrainError::Panicked(m) if m.contains("outside the modeled")),
            "{failure}"
        );
        assert!(failure.events > STEP && failure.events % STEP == 0);
        let (alone, _) = analyze_buffer(&prog, &buffer, &[256, 4096]).unwrap();
        assert_eq!(partial.profiles, alone);
    }

    /// A scratch directory per test and lane count.
    fn lane_dir(name: &str, lanes: usize) -> PathBuf {
        std::env::temp_dir().join(format!(
            "reuselens-lanes-{}-{name}-{lanes}",
            std::process::id()
        ))
    }

    /// `dir`, emptied.
    fn fresh(dir: PathBuf) -> PathBuf {
        fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    fn checkpointed(dir: PathBuf, every: u64, resume: bool) -> AnalyzeOptions {
        AnalyzeOptions {
            checkpoint: Some(CheckpointOptions { dir, every, resume }),
            ..AnalyzeOptions::default()
        }
    }

    #[test]
    fn checkpointed_and_resumed_runs_agree_on_every_lane_count() {
        let prog = lane_workload();
        let (buffer, _) = capture_program(&prog, vec![]).unwrap();
        let clean = analyze_program(&prog, &LANE_GRAINS, vec![]).unwrap();

        // Plain checkpointed runs write the same snapshots, byte for byte.
        let dir = |lanes| lane_dir("ckpt", lanes);
        let partial = same_on_every_lane_count(&prog, &buffer, &LANE_GRAINS, |l| {
            checkpointed(fresh(dir(l)), 3000, false)
        });
        assert_eq!(partial.profiles, clean.profiles);
        let written = dir_files(&dir(1));
        assert!(written.len() >= 3 * 4, "{} snapshots", written.len());
        for lanes in 2..=LANE_GRAINS.len() {
            assert_eq!(dir_files(&dir(lanes)), written, "{lanes} lanes");
        }

        // Leave each grain's newest snapshot at a different event: 64
        // keeps them all, 256 keeps only its oldest, 4096 keeps none. The
        // resumed runs snapshot every 7000 events, so where a resumed
        // grain boards is no step end of the grains ahead of it.
        let seed = dir(1);
        for (grain, keep) in [(256u64, 1usize), (4096, 0)] {
            for (_, path) in list_snapshots(&seed, grain)
                .unwrap()
                .iter()
                .rev()
                .skip(keep)
            {
                fs::remove_file(path).unwrap();
            }
        }
        let survivors = dir_files(&seed);
        let resumed_dir = |lanes| {
            let d = fresh(lane_dir("resume", lanes));
            fs::create_dir_all(&d).unwrap();
            for (name, bytes) in &survivors {
                fs::write(d.join(name), bytes).unwrap();
            }
            d
        };
        let resumed = same_on_every_lane_count(&prog, &buffer, &LANE_GRAINS, |l| {
            checkpointed(resumed_dir(l), 7000, true)
        });
        assert_eq!(resumed.profiles, clean.profiles);
        let rewritten = dir_files(&lane_dir("resume", 1));
        for lanes in 2..=LANE_GRAINS.len() {
            assert_eq!(dir_files(&lane_dir("resume", lanes)), rewritten);
        }
        for lanes in 1..=LANE_GRAINS.len() {
            fs::remove_dir_all(dir(lanes)).ok();
            fs::remove_dir_all(lane_dir("resume", lanes)).ok();
        }
    }

    /// Block size 0 is not a power of two, so its engine panics as it is
    /// built: one panicking grain among lane-mates.
    #[test]
    fn a_panic_in_a_shared_lane_spares_its_lane_mates() {
        let prog = lane_workload();
        let (buffer, _) = capture_program(&prog, vec![]).unwrap();
        let grains = [64, 0, 4096];
        let partial =
            same_on_every_lane_count(&prog, &buffer, &grains, |_| AnalyzeOptions::default());
        let online = analyze_program(&prog, &[64, 4096], vec![]).unwrap();
        assert_eq!(partial.profiles, online.profiles);
        let failure = partial.failure_at(0).expect("grain 0 panics");
        assert!(matches!(&failure.error, GrainError::Panicked(m) if m.contains("power of two")));
    }

    /// A sampled snapshot whose CRCs are valid but whose clock or access
    /// count disagrees with the header's `accesses_replayed` is rejected
    /// as corrupt before the order-statistic bitmap is built. The forged
    /// times span 2^62 ticks: building a bitmap over them would abort
    /// the test on allocation, so a clean `Err` proves none was built.
    #[test]
    fn sampled_snapshot_with_forged_clock_is_rejected_before_building() {
        let mut p = ProgramBuilder::new("forged");
        let a = p.array("a", 8, &[16]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        let prog = p.finish();
        let mut sampled = SampledAnalyzer::new(&prog, 64, SamplingConfig::fixed(1.0));
        for addr in [0u64, 64, 0] {
            sampled.access(RefId(0), addr);
        }
        let mut enc = Enc::new();
        sampled.snapshot_encode(&mut enc);
        let header = SnapshotHeader {
            block_size: 64,
            sampled: true,
            events_replayed: 3,
            accesses_replayed: 3,
            nrefs: 1,
        };
        // State layout: clock, total accesses, then six more u64 books,
        // the row count, and 20-byte (block, time, ref) rows sorted by
        // block — block 1's time sits at byte 100.
        let forge = |clock: u64, total: u64, time: u64| {
            let mut state = enc.buf.clone();
            state[0..8].copy_from_slice(&clock.to_le_bytes());
            state[8..16].copy_from_slice(&total.to_le_bytes());
            state[100..108].copy_from_slice(&time.to_le_bytes());
            encode_snapshot(&header, &state)
        };
        let far = 1u64 << 62;
        // The intact state decodes; each forgery is typed corruption.
        for (clock, total, valid) in [(3, 3, true), (far, far, false), (far, 3, false)] {
            let time = if valid { 2 } else { far };
            let image = forge(clock, total, time);
            let (h, mut dec) = decode_snapshot(&image).unwrap();
            match GrainAnalyzer::snapshot_decode(&prog, &h, &mut dec) {
                Ok(_) => assert!(valid, "forged clock {clock}, total {total} was accepted"),
                Err(e) => {
                    assert!(!valid, "intact snapshot rejected: {e}");
                    assert!(matches!(e, SnapshotError::Corrupt { .. }), "untyped: {e}");
                }
            }
        }
    }
}

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
//!   into a compact [`TraceBuffer`]; each grain then replays the buffer on
//!   its own thread. Decoding the buffer is far cheaper than
//!   re-interpreting the program, and the per-grain analyzers share
//!   nothing, so the replays are embarrassingly parallel.
//!
//! [`analyze_buffer_with`] is the one call for every replay configuration;
//! each knob is a field of [`AnalyzeOptions`]: sampling (the
//! constant-space [`SampledAnalyzer`]), intra-grain partitioned replay,
//! a resource budget, and crash-safe checkpointing. Exact mode
//! with default options stays the default, and its output is bit-identical
//! to a build without the knobs.
//!
//! Under it sit two engines per grain: the time-partitioned engine
//! (`replay_threads` > 1) and **one serial loop**, which advances the
//! replay decoder ([`TraceBuffer::replay_advance`]) in steps of at most
//! 4096 events, publishing progress and checking the budget after each
//! step and writing a snapshot at every checkpoint boundary.
//!
//! ## Fault tolerance
//!
//! The replay pipeline is built to run unattended over full application
//! executions, so a failing grain must not take the run down with it:
//!
//! * every grain thread runs under `catch_unwind` — a panic in one grain's
//!   analyzer never aborts the process or discards sibling grains;
//! * [`analyze_buffer_with`] degrades gracefully: failed grains come back
//!   as per-grain [`FailureReport`]s inside a [`PartialAnalysis`], after a
//!   sequential single-grain retry pass (transient panics get one more
//!   chance on an otherwise idle machine before the grain is declared
//!   dead);
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
use crate::partition::{replay_partitioned, ReplayThreads};
use crate::patterns::ReuseProfile;
use crate::sampling::{SampledAnalyzer, SamplingConfig};
use crate::snapshot::{
    decode_snapshot, encode_snapshot, list_snapshots, read_snapshot_bytes, write_snapshot_file,
    Dec, Enc, SnapshotError, SnapshotHeader,
};
use reuselens_ir::{AccessKind, ArrayId, Program, RefId, ScopeId};
use reuselens_obs as obs;
use reuselens_trace::{
    ExecError, ExecReport, Executor, SegmentState, SoaBatch, TraceBuffer, TraceSink,
};
use std::error::Error;
use std::fmt;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Events the serial grain loop replays between progress publications and
/// budget checks. A checkpoint boundary also ends a step.
const STEP: u64 = 4096;

/// Why one grain's replay failed. Deterministic failures (budget,
/// checkpoint I/O) are not retried; panics get one sequential retry before
/// the grain is declared dead.
#[derive(Debug, Clone, PartialEq)]
pub enum GrainError {
    /// The grain's replay thread panicked; the payload's message, or
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
    /// A grain's replay thread panicked (after the retry pass).
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

/// Wall time one grain's replay thread took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayTiming {
    /// The grain (block size in bytes) this thread analyzed.
    pub block_size: u64,
    /// Time spent replaying the buffer through that grain's analyzer.
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
    /// Retry a *panicked* grain once, sequentially, before declaring it
    /// dead. Deterministic failures (budget, checkpoint) are never
    /// retried. On by default.
    pub retry: bool,
    /// How to sample the block stream. [`SamplingConfig::Exact`] (the
    /// default) runs the exact analyzer and produces output bit-identical
    /// to a pipeline without this knob; any other setting replays through
    /// the constant-space [`SampledAnalyzer`] and marks each profile with
    /// its [`SamplingInfo`](crate::SamplingInfo).
    pub sampling: SamplingConfig,
    /// How many threads one grain's replay may split across
    /// ([`ReplayThreads::Serial`] by default). When this resolves to more
    /// than one partition, exact and fixed-rate-sampled replays run the
    /// time-partitioned engine (see [`crate::ReplayThreads`]) with
    /// bit-identical output; adaptive sampling is inherently sequential
    /// and checkpointed runs stream, so both fall back to serial replay.
    pub replay_threads: ReplayThreads,
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
            retry: true,
            sampling: SamplingConfig::Exact,
            replay_threads: ReplayThreads::Serial,
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
/// Grains replay in parallel, one thread each, and their snapshot files
/// are named per grain, so the requested grains must be distinct.
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
    /// Why it failed (the error from the final attempt).
    pub error: GrainError,
    /// Whether a sequential retry was attempted before declaring the
    /// grain dead.
    pub retried: bool,
    /// Trace events the grain had processed when the final attempt
    /// failed — how far the replay got before dying. Serial grains publish
    /// progress once per replay step (at most 4096 events, or a
    /// checkpoint boundary), so this is the last step boundary reached; a
    /// resumed grain starts from its snapshot's event. Any
    /// partitioned-replay failure reports 0.
    pub events: u64,
    /// Daemon job the grain was replayed for ([`AnalyzeOptions::job`]);
    /// `None` outside the daemon. Carried through the degradation path so
    /// failure attribution survives retry and fold-in.
    pub job: Option<String>,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grain {}: {}{}",
            self.block_size,
            self.error,
            if self.retried { " (after retry)" } else { "" }
        )
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
///   would have produced for that grain (replays share nothing).
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
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        match self {
            GrainAnalyzer::Exact(a) => a.access(r, addr, size, kind),
            GrainAnalyzer::Sampled(a) => a.access(r, addr, size, kind),
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
    buffer: &TraceBuffer,
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
            if at > buffer.events() {
                let have = buffer.events();
                return mismatch(format!(
                    "snapshot is at event {at} but the trace has only {have}"
                ));
            }
            let state = buffer.state_at(at);
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
                obs::add(obs::Counter::CheckpointsResumed, 1);
                obs::emit(obs::EventKind::CheckpointResumed {
                    grain: block_size,
                    events_replayed: ok.1.event,
                });
                return Ok(Some(ok));
            }
            Err(e) => {
                obs::add(obs::Counter::CheckpointsRejected, 1);
                obs::emit(obs::EventKind::CheckpointRejected {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                });
            }
        }
    }
    Ok(None)
}

/// The one serial replay loop. Resumes from the newest valid snapshot when
/// asked, then advances the replay decoder in steps of at most
/// [`STEP`] events, ending a step at each checkpoint boundary too. After
/// every step it publishes progress and checks the budget (if one is
/// set); at every interior checkpoint boundary it writes a snapshot.
fn replay_serial(
    program: &Program,
    buffer: &TraceBuffer,
    block_size: u64,
    opts: &AnalyzeOptions,
    progress: &AtomicU64,
) -> Result<GrainAnalyzer, GrainError> {
    let sampled = !opts.sampling.is_exact();
    let ckpt = opts.checkpoint.as_ref();
    let mut resumed = None;
    if let Some(ckpt) = ckpt {
        fs::create_dir_all(&ckpt.dir).map_err(|e| {
            GrainError::Checkpoint(SnapshotError::Io {
                op: "create checkpoint directory",
                path: ckpt.dir.clone(),
                message: e.to_string(),
            })
        })?;
        if ckpt.resume {
            resumed = resume_grain(program, buffer, block_size, sampled, &ckpt.dir)
                .map_err(GrainError::Checkpoint)?;
        }
    }
    let (mut analyzer, mut state) = resumed.unwrap_or_else(|| {
        (
            GrainAnalyzer::new(program, block_size, opts.sampling),
            SegmentState::default(),
        )
    });
    progress.store(state.event, Ordering::Relaxed);
    let every = ckpt.map_or(u64::MAX, |c| c.every.max(1));
    let mut boundary = state.event.saturating_add(every);
    let end = buffer.events();
    while state.event < end {
        let target = state.event.saturating_add(STEP).min(boundary);
        buffer.replay_advance(&mut state, target, &mut analyzer);
        progress.store(state.event, Ordering::Relaxed);
        if !opts.budget.is_unlimited() {
            check_budget(&opts.budget, &analyzer, state.event)?;
        }
        if let Some(ckpt) = ckpt.filter(|_| state.event == boundary && state.event < end) {
            let _ckpt_span = obs::span(obs::Stage::Checkpoint);
            let mut enc = Enc::new();
            analyzer.snapshot_encode(&mut enc);
            let header = SnapshotHeader {
                block_size,
                sampled,
                events_replayed: state.event,
                accesses_replayed: state.accesses,
                nrefs: program.references().len() as u32,
            };
            let image = encode_snapshot(&header, &enc.buf);
            write_snapshot_file(&ckpt.dir, block_size, state.event, &image)
                .map_err(GrainError::Checkpoint)?;
            obs::add(obs::Counter::CheckpointsWritten, 1);
            obs::set_gauge(obs::Gauge::SnapshotBytes, image.len() as u64);
            obs::emit(obs::EventKind::CheckpointWritten {
                grain: block_size,
                events_replayed: state.event,
                bytes: image.len() as u64,
            });
            boundary = state.event.saturating_add(every);
        }
    }
    Ok(analyzer)
}

/// One grain's result: its profile, replay timing and final
/// order-statistic set size, or the failure that ended it.
type GrainOutcome = Result<(ReuseProfile, ReplayTiming, u64), GrainFailure>;

/// One grain's replay, panic-isolated — every replay mode runs through it.
///
/// Runs the partitioned engine when [`AnalyzeOptions::replay_threads`]
/// resolves to more than one partition (adaptive sampling and
/// checkpointing excepted), and [`replay_serial`] otherwise.
fn replay_grain(
    program: &Program,
    buffer: &TraceBuffer,
    block_size: u64,
    opts: &AnalyzeOptions,
) -> GrainOutcome {
    let mut span = obs::span_with(obs::Stage::Replay, || obs::TimelineArgs {
        grain: Some(block_size),
        ..obs::TimelineArgs::default()
    });
    obs::emit(obs::EventKind::GrainStarted { grain: block_size });
    let start = Instant::now();
    // Progress lives outside the unwind boundary so a panicking analyzer
    // still leaves behind how many events it had processed.
    let progress = AtomicU64::new(0);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let parts = opts.replay_threads.resolve();
        if parts > 1
            && opts.checkpoint.is_none()
            && !matches!(opts.sampling, SamplingConfig::Adaptive { .. })
        {
            return replay_partitioned(
                program,
                buffer,
                block_size,
                parts,
                opts.sampling,
                &opts.budget,
            );
        }
        let analyzer = replay_serial(program, buffer, block_size, opts, &progress)?;
        // The exact set only grows during a replay, so its final size is
        // also its peak; a sampled set shrinks on eviction, making this
        // the final *tracked* count. Measured before `finish` consumes the
        // analyzer.
        let tree_nodes = analyzer.tree_nodes() as u64;
        Ok((analyzer.finish(), tree_nodes))
    }))
    .unwrap_or_else(|payload| Err(GrainError::Panicked(panic_message(payload.as_ref()))));
    let (profile, tree_nodes) = outcome.map_err(|error| GrainFailure {
        error,
        events: progress.load(Ordering::Relaxed),
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
    span.record(|args| {
        args.events = Some(buffer.events());
        args.distinct_blocks = Some(profile.distinct_blocks);
        args.tree_nodes = Some(tree_nodes);
        args.sample_inv = profile.sampling.map(|s| s.inv);
    });
    let timing = ReplayTiming {
        block_size,
        wall: start.elapsed(),
    };
    Ok((profile, timing, tree_nodes))
}

/// The replay pipeline: one fresh analyzer per block size, each replaying
/// the shared buffer on its own thread **under panic isolation**, with
/// every knob taken from `opts`. Grains that fail — by panic, budget
/// exhaustion or checkpoint I/O — are reported in the
/// returned [`PartialAnalysis`] without disturbing their siblings;
/// panicked grains get one sequential retry first (when
/// [`AnalyzeOptions::retry`] is set). Counters, telemetry events and
/// [`obs::GrainProfile`]s are recorded per grain.
///
/// With default options each grain replays through the same decode loop
/// as [`TraceBuffer::replay`].
pub fn analyze_buffer_with(
    program: &Program,
    buffer: &TraceBuffer,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
) -> PartialAnalysis {
    obs::add(obs::Counter::GrainsRequested, block_sizes.len() as u64);
    let replay = |block_size| replay_grain(program, buffer, block_size, opts);
    let outcomes: Vec<GrainOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = block_sizes
            .iter()
            .map(|&block_size| s.spawn(obs::Obs::inherit(move || replay(block_size))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // `replay_grain` catches panics itself; this is a backstop
                // for panics outside the catch (e.g. in the timing code).
                h.join().unwrap_or_else(|payload| {
                    Err(GrainFailure {
                        error: GrainError::Panicked(panic_message(payload.as_ref())),
                        events: 0,
                    })
                })
            })
            .collect()
    });
    let mut profiles = Vec::new();
    let mut replays = Vec::new();
    let mut failures = Vec::new();
    for (&block_size, outcome) in block_sizes.iter().zip(outcomes) {
        let (outcome, retried) = match outcome {
            // A panicked grain gets one sequential retry on an otherwise
            // idle machine; the other failures are deterministic, so
            // retrying them would only repeat the work.
            Err(GrainFailure {
                error: GrainError::Panicked(_),
                ..
            }) if opts.retry => {
                obs::add(obs::Counter::GrainsRetried, 1);
                obs::emit(obs::EventKind::GrainRetried { grain: block_size });
                (replay(block_size), true)
            }
            other => (other, false),
        };
        match outcome {
            Ok((profile, timing, tree_nodes)) => {
                obs::add(obs::Counter::GrainsCompleted, 1);
                obs::emit(obs::EventKind::GrainCompleted {
                    grain: block_size,
                    events: buffer.events(),
                    distinct_blocks: profile.distinct_blocks,
                    wall_ns: timing.wall.as_nanos() as u64,
                });
                obs::record_grain(&obs::GrainProfile {
                    block_size,
                    wall: timing.wall,
                    events: buffer.events(),
                    distinct_blocks: profile.distinct_blocks,
                    tree_nodes,
                    status: if retried {
                        obs::GrainStatus::Retried
                    } else {
                        obs::GrainStatus::Completed
                    },
                    blocks_sampled: profile.sampling.map_or(0, |s| s.blocks_sampled),
                    blocks_evicted: profile.sampling.map_or(0, |s| s.blocks_evicted),
                    sample_inv: profile.sampling.map_or(0, |s| s.inv),
                });
                profiles.push(profile);
                replays.push(timing);
            }
            Err(failure) => {
                obs::add(obs::Counter::GrainsFailed, 1);
                obs::emit(obs::EventKind::GrainFailed {
                    grain: block_size,
                    reason: failure.error.to_string(),
                    job: opts.job.clone(),
                });
                obs::record_grain(&obs::GrainProfile {
                    block_size,
                    wall: Duration::ZERO,
                    events: failure.events,
                    distinct_blocks: 0,
                    tree_nodes: 0,
                    status: obs::GrainStatus::Failed,
                    blocks_sampled: 0,
                    blocks_evicted: 0,
                    sample_inv: 0,
                });
                failures.push(FailureReport {
                    block_size,
                    error: failure.error,
                    retried,
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
/// size, each on its own thread, and returns the profiles in request order
/// together with per-thread timings.
///
/// This is the strict form of [`analyze_buffer_with`] with default
/// options: any grain failure is returned as an error (after all threads
/// have been joined — a failing grain never aborts the process or poisons
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
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_trace::{Event, VecSink};

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
                    Event::Access {
                        r,
                        addr,
                        size,
                        kind,
                    } => single.access(r, addr, size, kind),
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
            sampled.access(RefId(0), addr, 8, AccessKind::Load);
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

//! The discrete pipeline occurrences — grain lifecycle, checkpoint
//! writes/resumes/rejections, sampling rate drops,
//! daemon jobs and the service's own heartbeats — and the structured
//! JSONL event log that writes one JSON object per occurrence.
//!
//! One [`crate::emit`] records an occurrence once, and each sink on the
//! emitting thread's [`crate::Obs`] handle takes its own view of the same
//! [`EventKind`]: the recorder applies the kind's tally
//! ([`crate::MetricsRecorder::record_event`]: a counter, the snapshot
//! gauge, a grain cost row), and the [`EventLog`] writes its line. So the
//! counters and the log cannot disagree, and which counter an occurrence
//! ticks is decided in one place.
//!
//! Counters answer *how much*; the timeline (§ [`crate::Timeline`])
//! answers *when and on which thread*; the event log answers *what
//! happened, in order, with enough typed detail to act on*. Each line
//! carries a severity, a monotonic timestamp (nanoseconds since the log
//! was opened — immune to wall-clock steps), a wall-clock timestamp
//! (nanoseconds since the Unix epoch — joinable with external logs), the
//! event name, and the event's typed fields.
//!
//! Nothing is formatted or written unless the handle carries an
//! [`EventLog`]. Lines are flushed per event so `tail -f` (and a crash)
//! always sees complete records; a write error increments a counter and
//! drops the line rather than failing the pipeline.
//!
//! # Examples
//!
//! ```
//! use reuselens_obs as obs;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(obs::MetricsRecorder::new());
//! let log = Arc::new(obs::EventLog::to_vec());
//! let handle = obs::Obs {
//!     events: Some(log.clone()),
//!     ..obs::Obs::from(recorder.clone())
//! };
//! let scope = handle.enter();
//! obs::emit(obs::EventKind::CheckpointWritten {
//!     grain: 64,
//!     events_replayed: 1024,
//!     bytes: 4096,
//! });
//! drop(scope);
//!
//! // The recorder's view: one snapshot written, and its size.
//! assert_eq!(recorder.counter(obs::Counter::CheckpointsWritten), 1);
//! assert_eq!(recorder.gauge(obs::Gauge::SnapshotBytes), 4096);
//! // The log's view: one line.
//! let lines = log.captured();
//! assert_eq!(lines.lines().count(), 1);
//! assert!(lines.contains("\"event\":\"checkpoint_written\",\"grain\":64"));
//! ```

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::escape;
use crate::GrainProfile;

/// How urgent one event line is. Rendered lowercase in the `severity`
/// field; the default mapping lives in [`EventKind::severity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Normal forward progress (grain completed, checkpoint written).
    Info,
    /// Degradation the run survived (rejected snapshot, rate drop, job
    /// rejected).
    Warn,
    /// A component failed for good (grain or job failed).
    Error,
}

impl Severity {
    /// Stable lowercase name, the JSONL `severity` field.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One typed pipeline occurrence. Every variant renders as a fixed
/// `event` name plus its fields, documented in README "Watching a live
/// run"; adding a variant is a schema addition, renaming fields is a
/// schema break.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The pipeline started work (emitted once by the CLI wiring).
    RunStarted {
        /// The workload/command line being analyzed.
        command: String,
    },
    /// The pipeline finished (emitted once by the CLI wiring).
    RunFinished {
        /// False when the run exited with an error.
        ok: bool,
    },
    /// One grain's replay began.
    GrainStarted {
        /// Block size in bytes.
        grain: u64,
    },
    /// One grain's replay produced a profile.
    GrainCompleted {
        /// The grain's cost row (status `Completed`). The
        /// log renders its block size as `grain`, `events`,
        /// `distinct_blocks` and its wall time as `wall_ns`.
        profile: GrainProfile,
    },
    /// A grain failed: no profile for it.
    GrainFailed {
        /// Block size in bytes.
        grain: u64,
        /// Trace events the grain had processed when it died: its cost
        /// row's `events`. Not rendered in the log.
        events: u64,
        /// The failure's rendered message.
        reason: String,
        /// Daemon job the grain was replayed for; `None` outside the
        /// daemon. Keeps a panicked job's failures attributable after
        /// they cross the degradation path.
        job: Option<String>,
    },
    /// A crash-safety snapshot of a grain's analyzer state was written.
    CheckpointWritten {
        /// Block size in bytes.
        grain: u64,
        /// Events replayed when the snapshot was cut.
        events_replayed: u64,
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
    /// A grain resumed from a validated snapshot instead of replaying
    /// from the beginning.
    CheckpointResumed {
        /// Block size in bytes.
        grain: u64,
        /// Events already replayed inside the snapshot.
        events_replayed: u64,
    },
    /// A snapshot file was rejected during resume.
    CheckpointRejected {
        /// The rejected file's path.
        path: String,
        /// Why it was rejected (torn, corrupted, mismatched, ...).
        reason: String,
    },
    /// The adaptive sampler halved its rate to stay inside its budget.
    SampleRateDropped {
        /// Block size in bytes.
        grain: u64,
        /// Inverse sampling rate after the drop.
        inv_rate: u64,
        /// Tracked blocks evicted by the drop.
        evicted: u64,
    },
    /// The daemon accepted an analysis job onto its queue.
    JobAccepted {
        /// The job id the client supplied.
        job: String,
        /// The job kind ("capture", "replay", "estimate", ...).
        kind: String,
    },
    /// A daemon job ran to completion and produced a success response.
    JobCompleted {
        /// The job id.
        job: String,
        /// The job kind.
        kind: String,
        /// Queue + execution wall time in nanoseconds.
        wall_ns: u64,
    },
    /// A daemon job ended in a typed error response.
    JobFailed {
        /// The job id.
        job: String,
        /// The job kind (`"?"` when the request never parsed).
        kind: String,
        /// The error's rendered message.
        reason: String,
    },
    /// The daemon rejected a job before queueing it (full queue or
    /// shutdown) — the 429-style overload path.
    JobRejected {
        /// The job id (`"?"` when the request never parsed).
        job: String,
        /// Why it was rejected.
        reason: String,
    },
    /// One aggregator heartbeat (also the stderr progress line's source).
    Heartbeat {
        /// Seconds since the service started.
        uptime_s: f64,
        /// Last active pipeline stage name, `"idle"` before any.
        stage: &'static str,
        /// Grains finished (completed + failed).
        grains_done: u64,
        /// Grains requested.
        grains_requested: u64,
        /// Events decoded per second over the short rolling window.
        events_per_s: f64,
    },
}

impl EventKind {
    /// Stable snake_case event name, the JSONL `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStarted { .. } => "run_started",
            EventKind::RunFinished { .. } => "run_finished",
            EventKind::GrainStarted { .. } => "grain_started",
            EventKind::GrainCompleted { .. } => "grain_completed",
            EventKind::GrainFailed { .. } => "grain_failed",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::CheckpointResumed { .. } => "checkpoint_resumed",
            EventKind::CheckpointRejected { .. } => "checkpoint_rejected",
            EventKind::SampleRateDropped { .. } => "sample_rate_dropped",
            EventKind::JobAccepted { .. } => "job_accepted",
            EventKind::JobCompleted { .. } => "job_completed",
            EventKind::JobFailed { .. } => "job_failed",
            EventKind::JobRejected { .. } => "job_rejected",
            EventKind::Heartbeat { .. } => "heartbeat",
        }
    }

    /// The default severity this kind is emitted at.
    pub fn severity(&self) -> Severity {
        match self {
            EventKind::GrainFailed { .. } | EventKind::JobFailed { .. } => Severity::Error,
            EventKind::CheckpointRejected { .. }
            | EventKind::SampleRateDropped { .. }
            | EventKind::JobRejected { .. } => Severity::Warn,
            _ => Severity::Info,
        }
    }

    /// Renders the variant's typed fields as JSON object members,
    /// appended after the envelope fields (leading comma included when
    /// any field exists).
    fn write_fields(&self, out: &mut String) -> std::fmt::Result {
        match self {
            EventKind::RunStarted { command } => {
                write!(out, ",\"command\":\"{}\"", escape(command))
            }
            EventKind::RunFinished { ok } => write!(out, ",\"ok\":{ok}"),
            EventKind::GrainStarted { grain } => write!(out, ",\"grain\":{grain}"),
            EventKind::GrainCompleted { profile } => write!(
                out,
                ",\"grain\":{},\"events\":{},\"distinct_blocks\":{},\"wall_ns\":{}",
                profile.block_size,
                profile.events,
                profile.distinct_blocks,
                profile.wall.as_nanos() as u64
            ),
            EventKind::GrainFailed {
                grain, reason, job, ..
            } => {
                write!(out, ",\"grain\":{grain},\"reason\":\"{}\"", escape(reason))?;
                match job {
                    Some(job) => write!(out, ",\"job\":\"{}\"", escape(job)),
                    None => Ok(()),
                }
            }
            EventKind::CheckpointWritten {
                grain,
                events_replayed,
                bytes,
            } => write!(
                out,
                ",\"grain\":{grain},\"events_replayed\":{events_replayed},\"bytes\":{bytes}"
            ),
            EventKind::CheckpointResumed {
                grain,
                events_replayed,
            } => write!(
                out,
                ",\"grain\":{grain},\"events_replayed\":{events_replayed}"
            ),
            EventKind::CheckpointRejected { path, reason } => write!(
                out,
                ",\"path\":\"{}\",\"reason\":\"{}\"",
                escape(path),
                escape(reason)
            ),
            EventKind::SampleRateDropped {
                grain,
                inv_rate,
                evicted,
            } => write!(
                out,
                ",\"grain\":{grain},\"inv_rate\":{inv_rate},\"evicted\":{evicted}"
            ),
            EventKind::JobAccepted { job, kind } => write!(
                out,
                ",\"job\":\"{}\",\"kind\":\"{}\"",
                escape(job),
                escape(kind)
            ),
            EventKind::JobCompleted { job, kind, wall_ns } => write!(
                out,
                ",\"job\":\"{}\",\"kind\":\"{}\",\"wall_ns\":{wall_ns}",
                escape(job),
                escape(kind)
            ),
            EventKind::JobFailed { job, kind, reason } => write!(
                out,
                ",\"job\":\"{}\",\"kind\":\"{}\",\"reason\":\"{}\"",
                escape(job),
                escape(kind),
                escape(reason)
            ),
            EventKind::JobRejected { job, reason } => write!(
                out,
                ",\"job\":\"{}\",\"reason\":\"{}\"",
                escape(job),
                escape(reason)
            ),
            EventKind::Heartbeat {
                uptime_s,
                stage,
                grains_done,
                grains_requested,
                events_per_s,
            } => write!(
                out,
                ",\"uptime_s\":{uptime_s:.3},\"stage\":\"{stage}\",\
                 \"grains_done\":{grains_done},\"grains_requested\":{grains_requested},\
                 \"events_per_s\":{events_per_s:.0}"
            ),
        }
    }
}

/// Where an [`EventLog`] writes its lines.
enum Sink {
    /// A caller-supplied writer (file, stderr, pipe).
    Writer(Mutex<Box<dyn Write + Send>>),
    /// An in-memory buffer, for tests and golden assertions.
    Vec(Mutex<Vec<u8>>),
}

/// A line-oriented JSONL event sink. Carried by an [`crate::Obs`]
/// handle; every [`crate::emit`] reporting to that handle appends one
/// complete, flushed line. Thread-safe: lines from concurrent emitters
/// never interleave (one brief mutex per line, far off the per-event hot
/// path — emits are per grain / per checkpoint, never per access).
pub struct EventLog {
    epoch: Instant,
    epoch_wall_ns: u64,
    sink: Sink,
    emitted: AtomicU64,
    write_errors: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("emitted", &self.emitted())
            .field("write_errors", &self.write_errors())
            .finish_non_exhaustive()
    }
}

/// Nanoseconds since the Unix epoch right now (saturating; zero if the
/// clock reads before 1970).
fn wall_ns_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

impl EventLog {
    fn with_sink(sink: Sink) -> EventLog {
        EventLog {
            epoch: Instant::now(),
            epoch_wall_ns: wall_ns_now(),
            sink,
            emitted: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// A log writing to an arbitrary writer. The writer is flushed after
    /// every line.
    pub fn to_writer(writer: impl Write + Send + 'static) -> EventLog {
        EventLog::with_sink(Sink::Writer(Mutex::new(Box::new(writer))))
    }

    /// A log writing to standard error (the `--log-jsonl -` target).
    pub fn stderr() -> EventLog {
        EventLog::to_writer(io::stderr())
    }

    /// A log appending to an in-memory buffer readable with
    /// [`captured`](EventLog::captured) — for tests.
    pub fn to_vec() -> EventLog {
        EventLog::with_sink(Sink::Vec(Mutex::new(Vec::new())))
    }

    /// A log creating (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created.
    pub fn create(path: &std::path::Path) -> io::Result<EventLog> {
        Ok(EventLog::to_writer(std::fs::File::create(path)?))
    }

    /// Everything written so far, for a [`to_vec`](EventLog::to_vec) log.
    /// Empty for writer-backed logs.
    pub fn captured(&self) -> String {
        match &self.sink {
            Sink::Vec(buf) => {
                let buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                String::from_utf8_lossy(&buf).into_owned()
            }
            Sink::Writer(_) => String::new(),
        }
    }

    /// Lines successfully written over the log's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Lines lost to sink write errors (the pipeline never sees these).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Renders one event line (without the trailing newline). Public so
    /// tests can golden the schema without a writer round-trip.
    pub fn render_line(&self, severity: Severity, kind: &EventKind) -> String {
        let mono_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let wall_ns = self.epoch_wall_ns.saturating_add(mono_ns);
        let mut line = String::with_capacity(128);
        let _ = write!(
            line,
            "{{\"t_mono_ns\":{mono_ns},\"t_wall_ns\":{wall_ns},\
             \"severity\":\"{}\",\"event\":\"{}\"",
            severity.name(),
            kind.name()
        );
        let _ = kind.write_fields(&mut line);
        line.push('}');
        line
    }

    /// Formats and writes one event line. Never panics and never reports
    /// failure to the caller: a sink error is counted and the line
    /// dropped.
    pub fn emit(&self, severity: Severity, kind: &EventKind) {
        let line = self.render_line(severity, kind);
        match &self.sink {
            Sink::Writer(writer) => {
                let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
                let ok = writeln!(writer, "{line}").and_then(|()| writer.flush());
                match ok {
                    Ok(()) => {
                        self.emitted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        self.write_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Sink::Vec(buf) => {
                let mut buf = buf.lock().unwrap_or_else(PoisonError::into_inner);
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_one_json_object_each_with_envelope_fields() {
        let log = EventLog::to_vec();
        log.emit(Severity::Info, &EventKind::GrainStarted { grain: 4096 });
        log.emit(
            Severity::Error,
            &EventKind::GrainFailed {
                grain: 64,
                events: 0,
                reason: "panicked: \"index out of bounds\"".into(),
                job: Some("job-7".into()),
            },
        );
        let text = log.captured();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(log.emitted(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"t_mono_ns\":"));
            assert!(line.ends_with('}'));
            assert!(line.contains("\"t_wall_ns\":"));
            assert!(line.contains("\"severity\":"));
            assert!(line.contains("\"event\":"));
        }
        assert!(lines[0].contains("\"event\":\"grain_started\""));
        assert!(lines[0].contains("\"grain\":4096"));
        assert!(lines[1].contains("\"severity\":\"error\""));
        // The reason's quotes are escaped, keeping the line one object.
        assert!(lines[1].contains("\\\"index out of bounds\\\""));
        // The daemon's job attribution rides along when present...
        assert!(lines[1].contains("\"job\":\"job-7\""));
        // ...and is absent (not null) outside the daemon.
        let bare = log.render_line(
            Severity::Error,
            &EventKind::GrainFailed {
                grain: 64,
                events: 0,
                reason: "r".into(),
                job: None,
            },
        );
        assert!(!bare.contains("\"job\""), "{bare}");
    }

    #[test]
    fn default_severities_follow_the_kind() {
        assert_eq!(
            EventKind::GrainFailed {
                grain: 1,
                events: 0,
                reason: String::new(),
                job: None
            }
            .severity(),
            Severity::Error
        );
        assert_eq!(
            EventKind::JobFailed {
                job: String::new(),
                kind: String::new(),
                reason: String::new()
            }
            .severity(),
            Severity::Error
        );
        assert_eq!(
            EventKind::JobRejected {
                job: String::new(),
                reason: String::new()
            }
            .severity(),
            Severity::Warn
        );
        assert_eq!(
            EventKind::SampleRateDropped {
                grain: 1,
                inv_rate: 2,
                evicted: 0
            }
            .severity(),
            Severity::Warn
        );
        assert_eq!(
            EventKind::GrainStarted { grain: 1 }.severity(),
            Severity::Info
        );
        assert_eq!(
            EventKind::CheckpointRejected {
                path: String::new(),
                reason: String::new()
            }
            .severity(),
            Severity::Warn
        );
    }

    #[test]
    fn monotonic_timestamps_are_nondecreasing() {
        let log = EventLog::to_vec();
        for _ in 0..10 {
            log.emit(Severity::Info, &EventKind::GrainStarted { grain: 1 });
        }
        let text = log.captured();
        let stamps: Vec<u64> = text
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"t_mono_ns\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn write_errors_are_counted_not_raised() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("sink gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let log = EventLog::to_writer(Broken);
        log.emit(Severity::Info, &EventKind::RunFinished { ok: true });
        assert_eq!(log.emitted(), 0);
        assert_eq!(log.write_errors(), 1);
    }

    #[test]
    fn every_kind_renders_its_documented_name() {
        let kinds: Vec<(EventKind, &str)> = vec![
            (
                EventKind::RunStarted {
                    command: "x".into(),
                },
                "run_started",
            ),
            (EventKind::RunFinished { ok: false }, "run_finished"),
            (EventKind::GrainStarted { grain: 1 }, "grain_started"),
            (
                EventKind::GrainCompleted {
                    profile: GrainProfile {
                        block_size: 1,
                        wall: std::time::Duration::from_nanos(4),
                        events: 2,
                        distinct_blocks: 3,
                        tree_nodes: 3,
                        status: crate::GrainStatus::Completed,
                        blocks_sampled: 0,
                        blocks_evicted: 0,
                        sample_inv: 0,
                    },
                },
                "grain_completed",
            ),
            (
                EventKind::GrainFailed {
                    grain: 1,
                    events: 0,
                    reason: "r".into(),
                    job: Some("j".into()),
                },
                "grain_failed",
            ),
            (
                EventKind::CheckpointWritten {
                    grain: 1,
                    events_replayed: 2,
                    bytes: 3,
                },
                "checkpoint_written",
            ),
            (
                EventKind::CheckpointResumed {
                    grain: 1,
                    events_replayed: 2,
                },
                "checkpoint_resumed",
            ),
            (
                EventKind::CheckpointRejected {
                    path: "p".into(),
                    reason: "r".into(),
                },
                "checkpoint_rejected",
            ),
            (
                EventKind::SampleRateDropped {
                    grain: 1,
                    inv_rate: 2,
                    evicted: 3,
                },
                "sample_rate_dropped",
            ),
            (
                EventKind::JobAccepted {
                    job: "j".into(),
                    kind: "capture".into(),
                },
                "job_accepted",
            ),
            (
                EventKind::JobCompleted {
                    job: "j".into(),
                    kind: "replay".into(),
                    wall_ns: 5,
                },
                "job_completed",
            ),
            (
                EventKind::JobFailed {
                    job: "j".into(),
                    kind: "replay".into(),
                    reason: "r".into(),
                },
                "job_failed",
            ),
            (
                EventKind::JobRejected {
                    job: "j".into(),
                    reason: "queue full".into(),
                },
                "job_rejected",
            ),
            (
                EventKind::Heartbeat {
                    uptime_s: 1.0,
                    stage: "replay",
                    grains_done: 1,
                    grains_requested: 2,
                    events_per_s: 3.0,
                },
                "heartbeat",
            ),
        ];
        let log = EventLog::to_vec();
        for (kind, name) in &kinds {
            assert_eq!(kind.name(), *name);
            let line = log.render_line(kind.severity(), kind);
            assert!(line.contains(&format!("\"event\":\"{name}\"")), "{line}");
        }
    }
}

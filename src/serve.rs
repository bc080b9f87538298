//! Analysis-as-a-service: a long-running daemon that accepts analysis
//! jobs over a newline-delimited JSON protocol and persists captured
//! traces in an on-disk [`TraceStore`].
//!
//! One request per line, one response per line. A request is a flat JSON
//! object whose `kind` field selects the job:
//!
//! | kind       | does                                                    |
//! |------------|---------------------------------------------------------|
//! | `capture`  | build a workload, capture its trace, store it under `id`|
//! | `replay`   | replay a stored trace at the requested grains           |
//! | `estimate` | run the zero-trace symbolic estimator on a workload     |
//! | `list`     | enumerate stored traces                                 |
//! | `evict`    | remove a stored trace (index first, then segments)      |
//! | `ping`     | liveness check                                          |
//! | `sleep`    | hold a worker for `ms` milliseconds (diagnostics/tests) |
//!
//! Responses are `{"ok":true,"job":"job-N","kind":...,"seq":S,...}` or
//! `{"ok":false,"job":"job-N","error":{"type":T,"message":M}}`. `seq` is
//! the global completion order — jobs finish concurrently, and the
//! sequence number is the daemon's own record of who finished when.
//!
//! The full protocol grammar, byte layouts, and the job lifecycle state
//! machine are specified in `DESIGN.md` §4.15.
//!
//! # Shape
//!
//! A [`Daemon`] owns a bounded worker pool (default 2 workers) over a
//! bounded queue. [`Daemon::submit_line`] never blocks: a malformed
//! request or a full queue yields an immediate typed rejection; an
//! accepted job is queued and answered through the returned channel when
//! a worker completes it. Every job runs under `catch_unwind`, so a
//! panicking workload kills one job, not the daemon.
//!
//! Transports are thin wrappers over `submit_line`:
//!
//! * [`Daemon::serve`] binds a TCP listener on the shared [`obs::net`]
//!   skeleton; each connection reads request lines and writes response
//!   lines back in request order.
//! * [`run_stdin`] drives the same loop over stdin/stdout for
//!   `reuselens serve --stdin` (pipelines, tests, environments without
//!   a free port).
//!
//! Both frame a response the same way: the JSON line and its `\n` leave
//! in one write ([`obs::net::send`]), which on a `TCP_NODELAY` socket
//! means no reply waits on the client's delayed ACK.
//!
//! # Resident traces
//!
//! The daemon keeps each verified trace in memory, keyed by trace id and
//! the index entry's image CRC. `capture` keeps the buffer it stored; a
//! `replay` of a resident trace clones it under the store lock and
//! replays with no lock held; any other `replay` loads the trace with
//! [`TraceStore::get`] (every CRC checked, the image re-imported) and
//! keeps it; `evict` drops it. A trace is therefore verified when it is
//! captured or loaded and stays as verified: damage to its files on disk
//! after that is seen only by the next load, after a least-recently-used
//! eviction, an `evict` or a restart. The first replay of a resident
//! trace also decodes it once into a [`DecodedTrace`] kept beside the
//! buffer, and later replays play that form without decoding again.
//! Resident memory is bounded by `RESIDENT_BYTES` of encoded columns plus
//! decoded forms; a decoded form that would not fit beside its buffer is
//! not built, and a trace larger than the whole bound is served but not
//! kept.
//!
//! Telemetry rides the obs plumbing: `jobs_accepted` /
//! `jobs_completed` / `jobs_failed` / `jobs_rejected` counters,
//! `traces_resident_hit` / `traces_resident_miss` per replay, the
//! `job_queue_depth` and `resident_bytes` gauges, per-job JSONL events,
//! and a `/jobs` HTTP endpoint fed by [`Daemon::jobs_callback`].

use reuselens_core::{
    analyze_buffer_with, analyze_decoded_with, capture_program, write_profiles, AnalysisBudget,
    AnalyzeOptions, SamplingConfig, SamplingError, SavedProfiles,
};
use reuselens_metrics::run_locality_estimate;
use reuselens_obs as obs;
use reuselens_obs::json::{self, Json};
use reuselens_store::{self as store, StoreError, TraceEntry, TraceMeta, TraceStore};
use reuselens_trace::{DecodedTrace, TraceBuffer};
use reuselens_workloads::gtc::{build as build_gtc, GtcConfig, GtcTransforms};
use reuselens_workloads::kernels;
use reuselens_workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens_workloads::BuiltWorkload;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest accepted request line, in bytes. Anything longer is rejected
/// with a typed `parse` error before JSON parsing even starts.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Longest accepted JSON string value.
pub const MAX_STRING_LEN: usize = 4096;

/// Longest accepted JSON array value.
pub const MAX_ARRAY_LEN: usize = 1024;

/// Concurrent TCP connections; clients past this get one error line and
/// a closed socket instead of a growing backlog.
const MAX_CONNECTIONS: usize = 32;

/// Upper bound on `sleep` jobs, so a hostile request cannot pin a worker
/// for longer than this.
const MAX_SLEEP_MS: u64 = 10_000;

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong with one request, typed so clients can
/// dispatch on `error.type` instead of scraping messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The line was not a well-formed request (bad UTF-8, bad JSON,
    /// oversized, nested where flat was required...).
    Parse(String),
    /// The `kind` field named no known job.
    UnknownKind(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// A field was present but unusable.
    InvalidField {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        why: String,
    },
    /// The job queue was full — the 429 of this protocol. Retry later.
    Overloaded {
        /// The queue capacity that was exhausted.
        queue: usize,
    },
    /// The daemon is draining; no new jobs are accepted.
    ShuttingDown,
    /// The trace store refused the operation.
    Store(StoreError),
    /// The workload could not be built or executed.
    Exec(String),
    /// Replay finished but one or more grains failed.
    Analysis(String),
    /// The job panicked; the message is the payload when it was a string.
    Panic(String),
    /// A side output (e.g. `save`) could not be written.
    Io(String),
}

impl ServeError {
    /// The machine-readable `error.type` tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            ServeError::Parse(_) => "parse",
            ServeError::UnknownKind(_) => "unknown-kind",
            ServeError::MissingField(_) => "missing-field",
            ServeError::InvalidField { .. } => "invalid-field",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutdown",
            ServeError::Store(e) => match e {
                StoreError::UnknownTrace { .. } => "unknown-trace",
                StoreError::DuplicateTrace { .. } => "duplicate-trace",
                StoreError::InvalidId { .. } => "invalid-id",
                _ => "store",
            },
            ServeError::Exec(_) => "exec",
            ServeError::Analysis(_) => "analysis",
            ServeError::Panic(_) => "panic",
            ServeError::Io(_) => "io",
        }
    }

    /// True for errors raised before the job ever ran (counted as
    /// `jobs_rejected`); false for execution failures (`jobs_failed`).
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServeError::Parse(_)
                | ServeError::UnknownKind(_)
                | ServeError::MissingField(_)
                | ServeError::InvalidField { .. }
                | ServeError::Overloaded { .. }
                | ServeError::ShuttingDown
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(m) => write!(f, "malformed request: {m}"),
            ServeError::UnknownKind(k) => write!(f, "unknown job kind '{k}'"),
            ServeError::MissingField(name) => write!(f, "missing required field '{name}'"),
            ServeError::InvalidField { field, why } => {
                write!(f, "invalid field '{field}': {why}")
            }
            ServeError::Overloaded { queue } => {
                write!(f, "job queue full ({queue} waiting); retry later")
            }
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Exec(m) => write!(f, "workload execution failed: {m}"),
            ServeError::Analysis(m) => write!(f, "replay failed: {m}"),
            ServeError::Panic(m) => write!(f, "job panicked: {m}"),
            ServeError::Io(m) => write!(f, "i/o failure: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

// ---------------------------------------------------------------------------
// Strict flat-JSON request parsing
// ---------------------------------------------------------------------------

type Fields = Vec<(String, Json)>;

/// Checks the protocol's shape rules on a parsed request line: one
/// object whose values are scalars or arrays of scalars, no string over
/// [`MAX_STRING_LEN`] bytes and no array over [`MAX_ARRAY_LEN`] elements.
/// Lines are capped at [`MAX_LINE_BYTES`] before parsing, so checking
/// after the parse bounds memory the same way.
fn flat_fields(doc: Json) -> Result<Fields, ServeError> {
    fn short(s: &str) -> Result<(), String> {
        if s.len() > MAX_STRING_LEN {
            return Err(format!("string exceeds {MAX_STRING_LEN} bytes"));
        }
        Ok(())
    }
    fn scalar(v: &Json) -> Result<(), String> {
        match v {
            Json::Obj(_) => Err("nested objects are not allowed".into()),
            Json::Arr(_) => Err("nested arrays are not allowed".into()),
            Json::Str(s) => short(s),
            _ => Ok(()),
        }
    }
    let Json::Obj(fields) = doc else {
        return Err(ServeError::Parse("request is not a JSON object".into()));
    };
    for (key, value) in &fields {
        short(key)
            .and_then(|()| match value {
                Json::Arr(items) if items.len() > MAX_ARRAY_LEN => {
                    Err(format!("array exceeds {MAX_ARRAY_LEN} elements"))
                }
                Json::Arr(items) => items.iter().try_for_each(scalar),
                other => scalar(other),
            })
            .map_err(ServeError::Parse)?;
    }
    Ok(fields)
}

// --- field accessors over the parsed object --------------------------------

fn field<'a>(fields: &'a Fields, name: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn req_str(fields: &Fields, name: &'static str) -> Result<String, ServeError> {
    match field(fields, name) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ServeError::InvalidField {
            field: name,
            why: "expected a string".into(),
        }),
        None => Err(ServeError::MissingField(name)),
    }
}

fn opt_str(fields: &Fields, name: &'static str) -> Result<Option<String>, ServeError> {
    match field(fields, name) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ServeError::InvalidField {
            field: name,
            why: "expected a string".into(),
        }),
    }
}

fn as_u64(name: &'static str, n: f64) -> Result<u64, ServeError> {
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Ok(n as u64)
    } else {
        Err(ServeError::InvalidField {
            field: name,
            why: format!("expected a non-negative integer, got {n}"),
        })
    }
}

fn opt_u64(fields: &Fields, name: &'static str) -> Result<Option<u64>, ServeError> {
    match field(fields, name) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(as_u64(name, *n)?)),
        Some(_) => Err(ServeError::InvalidField {
            field: name,
            why: "expected an integer".into(),
        }),
    }
}

fn opt_bool(fields: &Fields, name: &'static str) -> Result<bool, ServeError> {
    match field(fields, name) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ServeError::InvalidField {
            field: name,
            why: "expected a boolean".into(),
        }),
    }
}

fn opt_u64_array(fields: &Fields, name: &'static str) -> Result<Vec<u64>, ServeError> {
    match field(fields, name) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::Num(n) => as_u64(name, *n),
                _ => Err(ServeError::InvalidField {
                    field: name,
                    why: "expected an array of integers".into(),
                }),
            })
            .collect(),
        Some(_) => Err(ServeError::InvalidField {
            field: name,
            why: "expected an array of integers".into(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Workload specs
// ---------------------------------------------------------------------------

/// A buildable workload description, parsed from a request and stored
/// verbatim (as its canonical spec string) with every captured trace so
/// replay jobs can rebuild the exact program the trace came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// `"sweep3d"`, `"gtc"`, or `"kernel:<name>"`.
    pub kind: String,
    /// Sweep3D cubic mesh extent.
    pub mesh: Option<u64>,
    /// Sweep3D angle-blocking factor.
    pub block: Option<u64>,
    /// Sweep3D dimension interchange.
    pub dim_ic: bool,
    /// Sweep3D octant restructuring.
    pub octant_inner: bool,
    /// Simulated time steps (Sweep3D and GTC).
    pub timesteps: Option<u64>,
    /// GTC grid points.
    pub mgrid: Option<u64>,
    /// GTC particles per cell.
    pub micell: Option<u64>,
    /// GTC cumulative transformation variant (0..=6).
    pub variant: Option<u64>,
}

impl WorkloadSpec {
    /// Parses the workload fields out of a request object.
    fn from_fields(fields: &Fields) -> Result<WorkloadSpec, ServeError> {
        let kind = req_str(fields, "workload")?;
        let spec = WorkloadSpec {
            kind,
            mesh: opt_u64(fields, "mesh")?,
            block: opt_u64(fields, "block")?,
            dim_ic: opt_bool(fields, "dim_ic")?,
            octant_inner: opt_bool(fields, "octant_inner")?,
            timesteps: opt_u64(fields, "timesteps")?,
            mgrid: opt_u64(fields, "mgrid")?,
            micell: opt_u64(fields, "micell")?,
            variant: opt_u64(fields, "variant")?,
        };
        spec.check()?;
        Ok(spec)
    }

    /// Validates the spec shape without building it.
    fn check(&self) -> Result<(), ServeError> {
        match self.kind.as_str() {
            "sweep3d" | "gtc" => {}
            k if k.strip_prefix("kernel:").is_some_and(|n| !n.is_empty()) => {}
            other => {
                return Err(ServeError::InvalidField {
                    field: "workload",
                    why: format!(
                        "unknown workload '{other}' (want sweep3d, gtc, or kernel:<name>)"
                    ),
                })
            }
        }
        if self.variant.is_some_and(|v| v > 6) {
            return Err(ServeError::InvalidField {
                field: "variant",
                why: "must be 0..=6".into(),
            });
        }
        Ok(())
    }

    /// The canonical spec string stored in [`TraceMeta::workload`]:
    /// `kind key=value... flag...`, explicitly-set fields only, fixed
    /// order — two equal specs render identically.
    pub fn to_spec_string(&self) -> String {
        let mut out = self.kind.clone();
        let mut kv = |name: &str, v: Option<u64>| {
            if let Some(v) = v {
                let _ = write!(out, " {name}={v}");
            }
        };
        kv("mesh", self.mesh);
        kv("block", self.block);
        kv("timesteps", self.timesteps);
        kv("mgrid", self.mgrid);
        kv("micell", self.micell);
        kv("variant", self.variant);
        if self.dim_ic {
            out.push_str(" dim-ic");
        }
        if self.octant_inner {
            out.push_str(" octant-inner");
        }
        out
    }

    /// Parses a canonical spec string back (the replay path: the stored
    /// trace's metadata → the program that produced it).
    pub fn from_spec_string(spec: &str) -> Result<WorkloadSpec, ServeError> {
        let mut tokens = spec.split_whitespace();
        let kind = tokens
            .next()
            .ok_or_else(|| ServeError::Parse("empty workload spec".into()))?;
        let mut out = WorkloadSpec {
            kind: kind.to_string(),
            mesh: None,
            block: None,
            dim_ic: false,
            octant_inner: false,
            timesteps: None,
            mgrid: None,
            micell: None,
            variant: None,
        };
        for token in tokens {
            match token {
                "dim-ic" => out.dim_ic = true,
                "octant-inner" => out.octant_inner = true,
                kv => {
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| ServeError::Parse(format!("bad spec token '{kv}'")))?;
                    let value: u64 = value
                        .parse()
                        .map_err(|_| ServeError::Parse(format!("bad spec value in '{kv}'")))?;
                    match key {
                        "mesh" => out.mesh = Some(value),
                        "block" => out.block = Some(value),
                        "timesteps" => out.timesteps = Some(value),
                        "mgrid" => out.mgrid = Some(value),
                        "micell" => out.micell = Some(value),
                        "variant" => out.variant = Some(value),
                        other => {
                            return Err(ServeError::Parse(format!("unknown spec key '{other}'")))
                        }
                    }
                }
            }
        }
        out.check()?;
        Ok(out)
    }

    /// Builds the workload (same defaults as the CLI).
    pub fn build(&self) -> Result<BuiltWorkload, ServeError> {
        match self.kind.as_str() {
            "sweep3d" => {
                let mut cfg = SweepConfig::new(self.mesh.unwrap_or(12))
                    .with_timesteps(self.timesteps.unwrap_or(1));
                if self.octant_inner {
                    cfg = cfg.with_octant_inner();
                } else {
                    cfg = cfg.with_mi_block(self.block.unwrap_or(1));
                }
                if self.dim_ic {
                    cfg = cfg.with_dim_interchange();
                }
                Ok(build_sweep(&cfg))
            }
            "gtc" => Ok(build_gtc(
                &GtcConfig::new(self.mgrid.unwrap_or(512), self.micell.unwrap_or(16))
                    .with_transforms(GtcTransforms::cumulative(self.variant.unwrap_or(0) as usize))
                    .with_timesteps(self.timesteps.unwrap_or(1)),
            )),
            other => {
                let name = other.strip_prefix("kernel:").unwrap_or("");
                match name {
                    "fig1a" => Ok(kernels::fig1_interchange(
                        512,
                        2048,
                        kernels::Fig1Variant::RowOrder,
                    )),
                    "fig1b" => Ok(kernels::fig1_interchange(
                        512,
                        2048,
                        kernels::Fig1Variant::Interchanged,
                    )),
                    "fig2" => Ok(kernels::fig2_fragmentation(64, 16)),
                    "stream" => Ok(kernels::streaming(1 << 16, 4)),
                    "gather" => Ok(kernels::random_gather(1 << 15, 1 << 14, 3, 42)),
                    "stencil" => Ok(kernels::stencil2d(128, 3)),
                    "matmul" => Ok(kernels::matmul(96, None)),
                    "matmul-tiled" => Ok(kernels::matmul(96, Some(16))),
                    "transpose" => Ok(kernels::transpose(256)),
                    _ => Err(ServeError::InvalidField {
                        field: "workload",
                        why: format!("unknown kernel '{name}'"),
                    }),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Capture {
        id: String,
        spec: WorkloadSpec,
        grains: Vec<u64>,
    },
    Replay(ReplayRequest),
    Estimate {
        source: EstimateSource,
    },
    List,
    Evict {
        id: String,
    },
    Ping,
    Sleep {
        ms: u64,
    },
}

/// What an `estimate` job runs the symbolic estimator over: a workload
/// spec given inline, or the spec recorded with a stored trace.
#[derive(Debug, Clone, PartialEq)]
enum EstimateSource {
    Spec(WorkloadSpec),
    Stored(String),
}

#[derive(Debug, Clone, PartialEq)]
struct ReplayRequest {
    id: String,
    grains: Vec<u64>,
    sampling: SamplingConfig,
    budget_events: Option<u64>,
    save: Option<String>,
}

impl Request {
    fn kind_name(&self) -> &'static str {
        match self {
            Request::Capture { .. } => "capture",
            Request::Replay(_) => "replay",
            Request::Estimate { .. } => "estimate",
            Request::List => "list",
            Request::Evict { .. } => "evict",
            Request::Ping => "ping",
            Request::Sleep { .. } => "sleep",
        }
    }
}

/// Parses one request line into a [`Request`] or a typed error. Never
/// panics, whatever the bytes.
fn parse_request(line: &[u8]) -> Result<Request, ServeError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ServeError::Parse(format!(
            "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
            line.len()
        )));
    }
    let text = std::str::from_utf8(line)
        .map_err(|e| ServeError::Parse(format!("request is not UTF-8: {e}")))?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(ServeError::Parse("empty request line".into()));
    }
    let doc = json::parse(trimmed).map_err(|e| ServeError::Parse(e.to_string()))?;
    let fields = flat_fields(doc)?;
    let kind = req_str(&fields, "kind")?;
    match kind.as_str() {
        "capture" => {
            let id = req_str(&fields, "id")?;
            store::validate_trace_id(&id).map_err(|e| ServeError::InvalidField {
                field: "id",
                why: e.to_string(),
            })?;
            let grains = opt_u64_array(&fields, "grains")?;
            if grains.contains(&0) {
                return Err(ServeError::InvalidField {
                    field: "grains",
                    why: "grains must be at least 1 byte".into(),
                });
            }
            Ok(Request::Capture {
                id,
                spec: WorkloadSpec::from_fields(&fields)?,
                grains,
            })
        }
        "replay" => {
            let id = req_str(&fields, "id")?;
            // A rate that is not a number is checked as NaN, which the
            // range rule refuses.
            let rate = field(&fields, "sample_rate").map(|v| match v {
                Json::Num(rate) => *rate,
                _ => f64::NAN,
            });
            let sampling = SamplingConfig::checked(rate, opt_u64(&fields, "sample_budget")?)
                .map_err(|e| ServeError::InvalidField {
                    field: match e {
                        SamplingError::ZeroBudget => "sample_budget",
                        SamplingError::RateOutOfRange | SamplingError::RateWithBudget => {
                            "sample_rate"
                        }
                    },
                    why: e.to_string(),
                })?;
            let grains = opt_u64_array(&fields, "grains")?;
            if grains.contains(&0) {
                return Err(ServeError::InvalidField {
                    field: "grains",
                    why: "grains must be at least 1 byte".into(),
                });
            }
            Ok(Request::Replay(ReplayRequest {
                id,
                grains,
                sampling,
                budget_events: opt_u64(&fields, "budget_events")?,
                save: opt_str(&fields, "save")?,
            }))
        }
        "estimate" => {
            let source = if fields.iter().any(|(k, _)| k == "workload") {
                EstimateSource::Spec(WorkloadSpec::from_fields(&fields)?)
            } else if let Some(id) = opt_str(&fields, "id")? {
                EstimateSource::Stored(id)
            } else {
                return Err(ServeError::MissingField("workload"));
            };
            Ok(Request::Estimate { source })
        }
        "list" => Ok(Request::List),
        "evict" => Ok(Request::Evict {
            id: req_str(&fields, "id")?,
        }),
        "ping" => Ok(Request::Ping),
        "sleep" => Ok(Request::Sleep {
            ms: opt_u64(&fields, "ms")?.unwrap_or(0).min(MAX_SLEEP_MS),
        }),
        other => Err(ServeError::UnknownKind(other.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn error_response(job: &str, e: &ServeError) -> String {
    format!(
        "{{\"ok\":false,\"job\":\"{}\",\"error\":{{\"type\":\"{}\",\"message\":\"{}\"}}}}",
        json::escape(job),
        e.type_name(),
        json::escape(&e.to_string()),
    )
}

fn ok_response(job: &str, kind: &str, seq: u64, payload: &str) -> String {
    let mut out = format!(
        "{{\"ok\":true,\"job\":\"{}\",\"kind\":\"{kind}\",\"seq\":{seq}",
        json::escape(job)
    );
    if !payload.is_empty() {
        out.push(',');
        out.push_str(payload);
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Tuning for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory of the trace store (created if absent).
    pub store_dir: PathBuf,
    /// Worker threads executing jobs (min 1).
    pub workers: usize,
    /// Jobs allowed to wait on the queue before submissions are rejected
    /// with `overloaded` (min 1).
    pub queue: usize,
    /// Hierarchy capacity divisor for `estimate` jobs (the CLI's
    /// `--scale`). `estimate` jobs build the hierarchy with
    /// `MemoryHierarchy::itanium2_scaled`, so a factor that
    /// `try_itanium2_scaled` refuses fails each of them; `reuselens serve`
    /// refuses such a factor before it starts the daemon. 0 and 1 both
    /// mean the full-size hierarchy.
    pub scale: u64,
}

impl DaemonConfig {
    /// A default-tuned config over `store_dir`: 2 workers, a 16-job
    /// queue, scale 16.
    pub fn new(store_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            store_dir: store_dir.into(),
            workers: 2,
            queue: 16,
            scale: 16,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a success response.
    Completed,
    /// Finished with a typed error response.
    Failed,
    /// Refused before running (malformed, queue full, shutting down).
    Rejected,
}

impl JobStatus {
    /// The status name as rendered in `/jobs`.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Rejected => "rejected",
        }
    }
}

/// Bound on finished rows in the job table: a daemon left running takes
/// millions of jobs, and `/jobs` renders the table under the state lock.
/// Queued and running rows are always kept; past the bound the row that
/// finished first leaves the table.
pub const MAX_JOB_RECORDS: usize = 65_536;

/// One job's row in the daemon's job table (the `/jobs` endpoint).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job id (`job-N`, N increasing in submission order).
    pub job: String,
    /// The job kind, or `"?"` when the request never parsed.
    pub kind: &'static str,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Global completion sequence number, once finished.
    pub completed_seq: Option<u64>,
    /// Time from submission until a worker picked the job up (zero for
    /// rejected jobs and jobs still queued).
    pub queued: Duration,
    /// Wall time spent executing, once finished.
    pub wall: Duration,
    /// The error message, for failed and rejected jobs.
    pub error: Option<String>,
}

struct QueuedJob {
    job: String,
    /// This job's number, its row's key in `State::records`.
    record: u64,
    /// When `submit_line` queued the job; the worker that picks it up
    /// records the wait as `JobRecord::queued`.
    submitted: Instant,
    request: Request,
    reply: mpsc::Sender<String>,
}

struct State {
    queue: VecDeque<QueuedJob>,
    /// The job table, keyed by job number (submission order).
    records: BTreeMap<u64, JobRecord>,
    /// Numbers of the finished rows still in the table, oldest-finished
    /// first; at most [`MAX_JOB_RECORDS`].
    finished: VecDeque<u64>,
    next_job: u64,
    stop: bool,
}

impl State {
    /// Notes that job `n`'s row finished, dropping the oldest-finished row
    /// once more than [`MAX_JOB_RECORDS`] have.
    fn finish(&mut self, n: u64) {
        self.finished.push_back(n);
        if self.finished.len() > MAX_JOB_RECORDS {
            if let Some(oldest) = self.finished.pop_front() {
                self.records.remove(&oldest);
            }
        }
    }
}

/// Byte bound on the verified traces a daemon keeps resident, charged
/// as each buffer's [`TraceBuffer::encoded_bytes`] plus, once a replay
/// has built it, its [`DecodedTrace::bytes`].
const RESIDENT_BYTES: u64 = 256 << 20;

/// Verified traces kept in memory so replay jobs skip the store load,
/// each with its decoded form once a replay has built it.
/// A slot is keyed by trace id and the index entry's image CRC, so a
/// buffer is only ever served for the image it was verified against.
/// Slots are charged their encoded and decoded bytes against `bound`;
/// the least recently used slot goes first, a buffer larger than the
/// whole bound is not kept at all, and a decoded form that would not fit
/// beside its buffer is not built.
struct Resident {
    bound: u64,
    bytes: u64,
    /// Use clock: each `get` hit and `insert` stamps its slot.
    tick: u64,
    slots: HashMap<String, Slot>,
}

/// One resident trace: the verified buffer and, once built, its decoded
/// form.
#[derive(Clone)]
struct ResidentTrace {
    buffer: Arc<TraceBuffer>,
    decoded: Option<Arc<DecodedTrace>>,
}

impl ResidentTrace {
    fn bytes(&self) -> u64 {
        self.buffer.encoded_bytes() + self.decoded.as_ref().map_or(0, |d| d.bytes())
    }
}

struct Slot {
    image_crc: u32,
    trace: ResidentTrace,
    last_used: u64,
}

impl Resident {
    fn new(bound: u64) -> Resident {
        Resident {
            bound,
            bytes: 0,
            tick: 0,
            slots: HashMap::new(),
        }
    }

    /// The trace resident for `id` at `image_crc`, now the most recently
    /// used. A slot holding another image of `id` is dropped unserved.
    fn get(&mut self, id: &str, image_crc: u32) -> Option<ResidentTrace> {
        self.tick += 1;
        match self.slots.get_mut(id) {
            Some(slot) if slot.image_crc == image_crc => {
                slot.last_used = self.tick;
                Some(slot.trace.clone())
            }
            Some(_) => {
                self.remove(id);
                None
            }
            None => None,
        }
    }

    /// Keeps `buffer` as `id`'s image `image_crc`, evicting least
    /// recently used slots until it fits.
    fn insert(&mut self, id: &str, image_crc: u32, buffer: Arc<TraceBuffer>) {
        self.remove(id);
        let trace = ResidentTrace {
            buffer,
            decoded: None,
        };
        if trace.bytes() > self.bound {
            return;
        }
        self.tick += 1;
        self.bytes += trace.bytes();
        self.slots.insert(
            id.to_string(),
            Slot {
                image_crc,
                trace,
                last_used: self.tick,
            },
        );
        self.make_room(id);
    }

    /// True when `id`'s image `image_crc` is resident without a decoded
    /// form, and one would fit beside its buffer: the replay that finds
    /// it so builds it.
    fn wants_decoded(&self, id: &str, image_crc: u32) -> bool {
        self.slots.get(id).is_some_and(|slot| {
            let t = &slot.trace;
            slot.image_crc == image_crc
                && t.decoded.is_none()
                && t.bytes() + DecodedTrace::size_for(&t.buffer) <= self.bound
        })
    }

    /// Keeps `decoded` beside `id`'s image `image_crc`, if that is still
    /// resident without one, evicting other least recently used slots
    /// until both fit.
    fn attach(&mut self, id: &str, image_crc: u32, decoded: Arc<DecodedTrace>) {
        if !self.wants_decoded(id, image_crc) {
            return;
        }
        let Some(slot) = self.slots.get_mut(id) else {
            return;
        };
        self.bytes += decoded.bytes();
        slot.trace.decoded = Some(decoded);
        self.make_room(id);
    }

    /// Evicts the least recently used slots other than `keep` until the
    /// resident bytes fit the bound.
    fn make_room(&mut self, keep: &str) {
        while self.bytes > self.bound {
            let Some(oldest) = self
                .slots
                .iter()
                .filter(|(id, _)| id.as_str() != keep)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            self.remove(&oldest);
        }
        obs::set_gauge(obs::Gauge::ResidentBytes, self.bytes);
    }

    fn remove(&mut self, id: &str) {
        if let Some(slot) = self.slots.remove(id) {
            self.bytes -= slot.trace.bytes();
            obs::set_gauge(obs::Gauge::ResidentBytes, self.bytes);
        }
    }
}

/// The trace store and its resident buffers, behind one mutex.
struct Traces {
    store: TraceStore,
    resident: Resident,
}

impl Traces {
    /// The verified trace `id`, with its index entry: the resident copy
    /// of the entry's image when there is one, else a fresh load from the
    /// store, which is then kept resident.
    fn load(&mut self, id: &str) -> Result<(ResidentTrace, &TraceEntry), StoreError> {
        let entry = self
            .store
            .entry(id)
            .ok_or_else(|| StoreError::UnknownTrace { id: id.to_string() })?;
        let trace = match self.resident.get(id, entry.image_crc) {
            Some(trace) => {
                obs::add(obs::Counter::TracesResidentHit, 1);
                trace
            }
            None => {
                obs::add(obs::Counter::TracesResidentMiss, 1);
                let buffer = Arc::new(self.store.get(id)?);
                self.resident.insert(id, entry.image_crc, buffer.clone());
                ResidentTrace {
                    buffer,
                    decoded: None,
                }
            }
        };
        Ok((trace, entry))
    }
}

struct Shared {
    traces: Mutex<Traces>,
    state: Mutex<State>,
    work: Condvar,
    completion_seq: AtomicU64,
    queue_cap: usize,
    scale: u64,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_traces(&self) -> MutexGuard<'_, Traces> {
        match self.traces.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The analysis daemon: a bounded worker pool over a [`TraceStore`],
/// driven by [`submit_line`](Daemon::submit_line) (and the TCP/stdin
/// transports layered on it). See the module docs for the protocol.
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    listener: Mutex<Option<obs::net::TcpServer>>,
}

impl fmt::Debug for Daemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Daemon")
            .field("workers", &self.worker_count)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Opens (creating if needed) the store and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures (unreadable directory, corrupt
    /// index).
    pub fn start(config: DaemonConfig) -> Result<Daemon, StoreError> {
        let store = TraceStore::open(&config.store_dir)?;
        let shared = Arc::new(Shared {
            traces: Mutex::new(Traces {
                store,
                resident: Resident::new(RESIDENT_BYTES),
            }),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                records: BTreeMap::new(),
                finished: VecDeque::new(),
                next_job: 1,
                stop: false,
            }),
            work: Condvar::new(),
            completion_seq: AtomicU64::new(0),
            queue_cap: config.queue.max(1),
            scale: config.scale,
        });
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .filter_map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("reuselens-worker-{i}"))
                    .spawn(obs::Obs::inherit(move || worker_loop(&shared)))
                    .ok()
            })
            .collect();
        let worker_count = workers.len();
        Ok(Daemon {
            shared,
            workers: Mutex::new(workers),
            worker_count,
            listener: Mutex::new(None),
        })
    }

    /// Submits one raw request line. Never blocks: the response (success
    /// or typed error) arrives on the returned channel — immediately for
    /// rejections, after a worker finishes for accepted jobs.
    pub fn submit_line(&self, line: &[u8]) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let parsed = parse_request(line);
        let mut st = self.shared.lock_state();
        let n = st.next_job;
        st.next_job += 1;
        let job = format!("job-{n}");
        let reject = |mut st: MutexGuard<'_, State>, kind: &'static str, e: &ServeError| {
            st.records.insert(
                n,
                JobRecord {
                    job: job.clone(),
                    kind,
                    status: JobStatus::Rejected,
                    completed_seq: None,
                    queued: Duration::ZERO,
                    wall: Duration::ZERO,
                    error: Some(e.to_string()),
                },
            );
            st.finish(n);
            drop(st);
            obs::emit(obs::EventKind::JobRejected {
                job: job.clone(),
                reason: e.to_string(),
            });
            let _ = tx.send(error_response(&job, e));
        };
        match parsed {
            Err(e) => reject(st, "?", &e),
            Ok(request) => {
                let kind = request.kind_name();
                if st.stop {
                    reject(st, kind, &ServeError::ShuttingDown);
                } else if st.queue.len() >= self.shared.queue_cap {
                    let e = ServeError::Overloaded {
                        queue: self.shared.queue_cap,
                    };
                    reject(st, kind, &e);
                } else {
                    st.records.insert(
                        n,
                        JobRecord {
                            job: job.clone(),
                            kind,
                            status: JobStatus::Queued,
                            completed_seq: None,
                            queued: Duration::ZERO,
                            wall: Duration::ZERO,
                            error: None,
                        },
                    );
                    st.queue.push_back(QueuedJob {
                        job: job.clone(),
                        record: n,
                        submitted: Instant::now(),
                        request,
                        reply: tx,
                    });
                    // Set under the lock so a worker's later pop cannot be
                    // overwritten by this stale depth.
                    obs::set_gauge(obs::Gauge::JobQueueDepth, st.queue.len() as u64);
                    drop(st);
                    obs::emit(obs::EventKind::JobAccepted {
                        job,
                        kind: kind.to_string(),
                    });
                    self.shared.work.notify_one();
                }
            }
        }
        rx
    }

    /// A snapshot of the job table, submission order: every queued or
    /// running job and the last [`MAX_JOB_RECORDS`] to finish.
    pub fn job_records(&self) -> Vec<JobRecord> {
        self.shared.lock_state().records.values().cloned().collect()
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_state().queue.len()
    }

    /// Renders the job table as the `/jobs` JSON document.
    pub fn jobs_json(&self) -> String {
        jobs_json(&self.shared)
    }

    /// A callback rendering [`jobs_json`](Self::jobs_json), shaped for
    /// [`ServiceConfig::jobs`](reuselens_obs::ServiceConfig) — wires the
    /// telemetry service's `/jobs` endpoint to this daemon.
    pub fn jobs_callback(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let shared = self.shared.clone();
        Arc::new(move || jobs_json(&shared))
    }

    /// Binds a TCP listener on `addr` (`"127.0.0.1:0"` picks a free
    /// port); each connection is served request-line → response-line
    /// until the client disconnects. Returns the bound address.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be resolved or
    /// bound. At most one listener per daemon.
    pub fn serve(self: &Arc<Daemon>, addr: &str) -> io::Result<SocketAddr> {
        let mut slot = match self.listener.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                "daemon already has a listener",
            ));
        }
        let spec = obs::net::ServerSpec {
            name: "reuselens",
            max_connections: MAX_CONNECTIONS,
            socket_timeout: None,
            refusal: overloaded_refusal(),
        };
        let daemon = self.clone();
        let server = obs::net::TcpServer::bind(addr, spec, move |stream| {
            if let Ok(read) = stream.try_clone() {
                let _ = serve_lines(io::BufReader::new(read), stream, &daemon);
            }
        })?;
        let local = server.local_addr();
        *slot = Some(server);
        Ok(local)
    }

    /// Drains the queue, joins the workers, and stops the TCP listener
    /// (if any). Every accepted job is completed and answered before the
    /// workers exit — shutdown loses no responses. Idempotent: a second
    /// call finds nothing left to join and returns immediately.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock_state();
            st.stop = true;
        }
        self.shared.work.notify_all();
        let workers = match self.workers.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for worker in workers {
            let _ = worker.join();
        }
        let listener = match self.listener.lock() {
            Ok(mut guard) => guard.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        if let Some(listener) = listener {
            listener.shutdown();
        }
    }
}

fn jobs_json(shared: &Arc<Shared>) -> String {
    let st = shared.lock_state();
    let mut out = format!("{{\"queue_depth\":{},\"jobs\":[", st.queue.len());
    for (i, r) in st.records.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"job\":\"{}\",\"kind\":\"{}\",\"status\":\"{}\",\"seq\":{},\
             \"queue_ms\":{:.3},\"wall_ms\":{:.3},\"error\":{}}}",
            json::escape(&r.job),
            r.kind,
            r.status.name(),
            match r.completed_seq {
                Some(s) => s.to_string(),
                None => "null".into(),
            },
            r.queued.as_secs_f64() * 1e3,
            r.wall.as_secs_f64() * 1e3,
            match &r.error {
                Some(e) => format!("\"{}\"", json::escape(e)),
                None => "null".into(),
            },
        );
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.lock_state();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    obs::set_gauge(obs::Gauge::JobQueueDepth, st.queue.len() as u64);
                    if let Some(record) = st.records.get_mut(&job.record) {
                        record.status = JobStatus::Running;
                        record.queued = job.submitted.elapsed();
                    }
                    break job;
                }
                if st.stop {
                    return;
                }
                st = match shared.work.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let kind = job.request.kind_name();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, &job.job, &job.request)));
        let wall = started.elapsed();
        let outcome: Result<String, ServeError> = match outcome {
            Ok(inner) => inner,
            Err(payload) => Err(ServeError::Panic(panic_message(payload.as_ref()))),
        };
        let seq = shared.completion_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let response = match &outcome {
            Ok(payload) => ok_response(&job.job, kind, seq, payload),
            Err(e) => error_response(&job.job, e),
        };
        {
            let mut st = shared.lock_state();
            if let Some(record) = st.records.get_mut(&job.record) {
                record.wall = wall;
                record.completed_seq = Some(seq);
                match &outcome {
                    Ok(_) => record.status = JobStatus::Completed,
                    Err(e) => {
                        record.status = JobStatus::Failed;
                        record.error = Some(e.to_string());
                    }
                }
            }
            st.finish(job.record);
        }
        match &outcome {
            Ok(_) => {
                obs::emit(obs::EventKind::JobCompleted {
                    job: job.job.clone(),
                    kind: kind.to_string(),
                    wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                });
            }
            Err(e) => {
                obs::emit(obs::EventKind::JobFailed {
                    job: job.job.clone(),
                    kind: kind.to_string(),
                    reason: e.to_string(),
                });
            }
        }
        let _ = job.reply.send(response);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Executes one job, returning the success payload (the response fields
/// after `"seq"`) or a typed error.
fn execute(shared: &Arc<Shared>, job: &str, request: &Request) -> Result<String, ServeError> {
    match request {
        Request::Ping => Ok("\"pong\":true".to_string()),
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(format!("\"slept_ms\":{ms}"))
        }
        Request::List => {
            let traces = shared.lock_traces();
            let mut payload = String::from("\"traces\":[");
            for (i, t) in traces.store.list().iter().enumerate() {
                if i > 0 {
                    payload.push(',');
                }
                let _ = write!(
                    payload,
                    "{{\"id\":\"{}\",\"workload\":\"{}\",\"events\":{},\"accesses\":{},\
                     \"image_len\":{},\"segments\":{}}}",
                    json::escape(&t.id),
                    json::escape(&t.meta.workload),
                    t.events,
                    t.accesses,
                    t.image_len,
                    t.segments.len(),
                );
            }
            payload.push(']');
            Ok(payload)
        }
        Request::Evict { id } => {
            let mut traces = shared.lock_traces();
            traces.store.evict(id)?;
            traces.resident.remove(id);
            Ok(format!("\"evicted\":\"{}\"", json::escape(id)))
        }
        Request::Capture { id, spec, grains } => {
            let w = spec.build()?;
            let (buffer, _report) = capture_program(&w.program, w.index_arrays.clone())
                .map_err(|e| ServeError::Exec(e.to_string()))?;
            let meta = TraceMeta {
                workload: spec.to_spec_string(),
                grains: grains.clone(),
            };
            let mut guard = shared.lock_traces();
            let traces = &mut *guard;
            let entry = traces.store.put(id, &buffer, meta)?;
            traces
                .resident
                .insert(id, entry.image_crc, Arc::new(buffer));
            Ok(format!(
                "\"id\":\"{}\",\"events\":{},\"accesses\":{},\"image_len\":{},\
                 \"image_crc\":{},\"segments\":{}",
                json::escape(id),
                entry.events,
                entry.accesses,
                entry.image_len,
                entry.image_crc,
                entry.segments.len(),
            ))
        }
        Request::Replay(req) => execute_replay(shared, job, req),
        Request::Estimate { source } => {
            let spec = match source {
                EstimateSource::Spec(spec) => spec.clone(),
                EstimateSource::Stored(id) => {
                    let traces = shared.lock_traces();
                    let entry = traces
                        .store
                        .entry(id)
                        .ok_or_else(|| StoreError::UnknownTrace { id: id.clone() })?;
                    WorkloadSpec::from_spec_string(&entry.meta.workload)?
                }
            };
            let w = spec.build()?;
            let hierarchy = reuselens_cache::MemoryHierarchy::itanium2_scaled(shared.scale);
            let run = run_locality_estimate(&w.program, &hierarchy, &w.index_arrays);
            let mut payload = format!(
                "\"covered\":{},\"fallback\":{},\"grains\":[",
                run.covered.len(),
                run.fallback.len(),
            );
            for (i, p) in run.analysis.analysis.profiles.iter().enumerate() {
                if i > 0 {
                    payload.push(',');
                }
                let _ = write!(
                    payload,
                    "{{\"grain\":{},\"accesses\":{},\"distinct_blocks\":{}}}",
                    p.block_size, p.total_accesses, p.distinct_blocks,
                );
            }
            payload.push(']');
            Ok(payload)
        }
    }
}

fn execute_replay(
    shared: &Arc<Shared>,
    job: &str,
    req: &ReplayRequest,
) -> Result<String, ServeError> {
    // Look the trace up under the store lock, loading it only when it is
    // not resident, then analyze without holding the lock so sibling jobs
    // can use the store meanwhile.
    let (trace, image_crc, spec_string, stored_grains, build) = {
        let mut traces = shared.lock_traces();
        let (trace, entry) = traces.load(&req.id)?;
        let (image_crc, workload, grains) = (
            entry.image_crc,
            entry.meta.workload.clone(),
            entry.meta.grains.clone(),
        );
        let build = traces.resident.wants_decoded(&req.id, image_crc);
        (trace, image_crc, workload, grains, build)
    };
    let grains = if req.grains.is_empty() {
        stored_grains
    } else {
        req.grains.clone()
    };
    if grains.is_empty() {
        return Err(ServeError::InvalidField {
            field: "grains",
            why: format!(
                "no grains requested and trace '{}' stored no default grains",
                req.id
            ),
        });
    }
    let spec = WorkloadSpec::from_spec_string(&spec_string)?;
    let w = spec.build()?;
    let mut budget = AnalysisBudget::unlimited();
    if let Some(n) = req.budget_events {
        budget = budget.with_max_events(n);
    }
    let opts = AnalyzeOptions {
        budget,
        sampling: req.sampling,
        job: Some(job.to_string()),
        ..AnalyzeOptions::default()
    };
    // The first replay of a resident trace decodes it once, with no lock
    // held, and keeps the decoded form beside the buffer for later ones.
    // Two first replays racing may both build it; the first kept wins.
    let decoded = trace.decoded.clone().or_else(|| {
        build.then(|| {
            let decoded = Arc::new(DecodedTrace::new(&trace.buffer));
            shared
                .lock_traces()
                .resident
                .attach(&req.id, image_crc, decoded.clone());
            decoded
        })
    });
    let partial = match &decoded {
        Some(decoded) => analyze_decoded_with(&w.program, decoded, &grains, &opts),
        None => analyze_buffer_with(&w.program, &trace.buffer, &grains, &opts),
    };
    if !partial.failures.is_empty() {
        let msg = partial
            .failures
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        return Err(ServeError::Analysis(msg));
    }
    let saved = SavedProfiles {
        name: w.program.name().to_string(),
        size: 0.0,
        profiles: partial.profiles.clone(),
    };
    let mut canonical = Vec::new();
    write_profiles(&saved, &mut canonical).map_err(|e| ServeError::Io(e.to_string()))?;
    let profiles_crc = store::crc32(&canonical);
    if let Some(path) = &req.save {
        std::fs::write(path, &canonical)
            .map_err(|e| ServeError::Io(format!("cannot write {path}: {e}")))?;
    }
    let mut payload = format!(
        "\"id\":\"{}\",\"events\":{},\"profiles_crc\":{profiles_crc},\"grains\":[",
        json::escape(&req.id),
        trace.buffer.events(),
    );
    for (i, p) in partial.profiles.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        let _ = write!(
            payload,
            "{{\"grain\":{},\"accesses\":{},\"distinct_blocks\":{}}}",
            p.block_size, p.total_accesses, p.distinct_blocks,
        );
    }
    payload.push(']');
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// Reads one `\n`-terminated line with a byte cap. Over-cap lines are
/// returned anyway (one byte past the cap, rest of the line discarded)
/// so the parser rejects them with the typed oversize error.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() { None } else { Some(line) });
        }
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            if line.len() <= cap {
                line.extend_from_slice(&buf[..nl.min(cap + 1 - line.len().min(cap + 1))]);
            }
            if line.len() + nl > cap {
                line.truncate(cap + 1);
            }
            reader.consume(nl + 1);
            return Ok(Some(line));
        }
        let take = buf.len();
        if line.len() <= cap {
            let room = (cap + 1).saturating_sub(line.len());
            line.extend_from_slice(&buf[..take.min(room)]);
        }
        reader.consume(take);
    }
}

/// The whole line sent to a TCP client past the connection cap.
fn overloaded_refusal() -> Vec<u8> {
    let e = ServeError::Overloaded {
        queue: MAX_CONNECTIONS,
    };
    format!("{}\n", error_response("job-0", &e)).into_bytes()
}

/// Serves one connection: each request line is submitted and its
/// response line sent back before the next line is read.
fn serve_lines(
    mut reader: impl BufRead,
    writer: &mut impl Write,
    daemon: &Daemon,
) -> io::Result<()> {
    while let Some(line) = read_line_capped(&mut reader, MAX_LINE_BYTES)? {
        let rx = daemon.submit_line(&line);
        let Ok(response) = rx.recv() else { break };
        obs::net::send(writer, &[response.as_bytes(), b"\n"])?;
    }
    Ok(())
}

/// Drives the daemon from a line reader to a line writer — the
/// `reuselens serve --stdin` transport. Responses come back in request
/// order; submission is pipelined up to the pool's capacity so the
/// workers stay busy. Returns when the input reaches EOF and every
/// submitted job has been answered.
///
/// # Errors
///
/// Propagates read failures from `input` and write failures to `output`.
pub fn run_stdin(daemon: &Daemon, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    let mut input = input;
    let mut pending: VecDeque<mpsc::Receiver<String>> = VecDeque::new();
    let window = daemon.shared.queue_cap + daemon.worker_count.max(1);
    let flush_front = |pending: &mut VecDeque<mpsc::Receiver<String>>,
                       output: &mut dyn Write|
     -> io::Result<()> {
        if let Some(rx) = pending.pop_front() {
            if let Ok(response) = rx.recv() {
                obs::net::send(output, &[response.as_bytes(), b"\n"])?;
            }
        }
        Ok(())
    };
    while let Some(line) = read_line_capped(&mut input, MAX_LINE_BYTES)? {
        pending.push_back(daemon.submit_line(&line));
        while pending.len() > window {
            flush_front(&mut pending, &mut output)?;
        }
    }
    while !pending.is_empty() {
        flush_front(&mut pending, &mut output)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    /// A `Write` double that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reuselens-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn recv(rx: mpsc::Receiver<String>) -> String {
        rx.recv_timeout(Duration::from_secs(60)).expect("response")
    }

    #[test]
    fn parser_accepts_the_documented_shapes() {
        let r = parse_request(
            br#"{"kind":"capture","id":"t1","workload":"sweep3d","mesh":6,"grains":[64,4096]}"#,
        )
        .expect("capture parses");
        match r {
            Request::Capture { id, spec, grains } => {
                assert_eq!(id, "t1");
                assert_eq!(spec.mesh, Some(6));
                assert_eq!(grains, vec![64, 4096]);
                assert_eq!(spec.to_spec_string(), "sweep3d mesh=6");
                assert_eq!(
                    WorkloadSpec::from_spec_string(&spec.to_spec_string()).unwrap(),
                    spec
                );
            }
            other => panic!("wrong request {other:?}"),
        }
        assert_eq!(parse_request(br#"{"kind":"ping"}"#), Ok(Request::Ping));
        assert!(matches!(
            parse_request(br#"{"kind":"replay","id":"t1","replay_threads":"auto"}"#),
            Ok(Request::Replay(_))
        ));
    }

    #[test]
    fn parser_rejects_hostile_lines_with_typed_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "parse"),
            (b"not json", "parse"),
            (b"{\"kind\":\"ping\"", "parse"),
            (b"{\"kind\":42}", "invalid-field"),
            (b"{\"kind\":\"frobnicate\"}", "unknown-kind"),
            (b"{\"kind\":\"capture\"}", "missing-field"),
            (b"{\"kind\":\"ping\",\"kind\":\"ping\"}", "parse"),
            (b"{\"kind\":\"ping\",\"x\":{\"nested\":1}}", "parse"),
            (b"{\"kind\":\"ping\",\"x\":[[1]]}", "parse"),
            (b"\xff\xfe{\"kind\":\"ping\"}", "parse"),
            (
                br#"{"kind":"capture","id":"../evil","workload":"sweep3d"}"#,
                "invalid-field",
            ),
            (
                br#"{"kind":"replay","id":"t","sample_rate":7}"#,
                "invalid-field",
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line).expect_err("must reject");
            assert_eq!(
                err.type_name(),
                *want,
                "line {:?} gave {err:?}",
                String::from_utf8_lossy(line)
            );
            assert!(err.is_rejection());
        }
        // Oversized line.
        let big = vec![b'x'; MAX_LINE_BYTES + 1];
        assert_eq!(parse_request(&big).unwrap_err().type_name(), "parse");
    }

    #[test]
    fn ping_list_evict_round_trip() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("ping"))).expect("start daemon");
        let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let list = recv(daemon.submit_line(br#"{"kind":"list"}"#));
        assert!(list.contains("\"traces\":[]"), "{list}");
        let gone = recv(daemon.submit_line(br#"{"kind":"evict","id":"nope"}"#));
        assert!(gone.contains("\"type\":\"unknown-trace\""), "{gone}");
        let records = daemon.job_records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].status, JobStatus::Completed);
        assert_eq!(records[2].status, JobStatus::Failed);
        daemon.shutdown();
    }

    #[test]
    fn capture_then_replay_is_deterministic() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("capture"))).expect("start daemon");
        let cap = recv(daemon.submit_line(
            br#"{"kind":"capture","id":"s1","workload":"kernel:stream","grains":[64]}"#,
        ));
        assert!(cap.contains("\"ok\":true"), "{cap}");
        let a = recv(daemon.submit_line(br#"{"kind":"replay","id":"s1"}"#));
        let b = recv(daemon.submit_line(br#"{"kind":"replay","id":"s1","grains":[64]}"#));
        assert!(a.contains("\"ok\":true"), "{a}");
        let crc = |s: &str| {
            let tail = s.split("\"profiles_crc\":").nth(1).expect("crc field");
            tail.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        };
        assert_eq!(crc(&a), crc(&b), "replays must agree: {a} vs {b}");
        let dup =
            recv(daemon.submit_line(br#"{"kind":"capture","id":"s1","workload":"kernel:stream"}"#));
        assert!(dup.contains("\"type\":\"duplicate-trace\""), "{dup}");
        daemon.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let mut config = DaemonConfig::new(tmpdir("full"));
        config.workers = 1;
        config.queue = 1;
        let daemon = Daemon::start(config).expect("start daemon");
        // Occupy the worker, then the queue, then overflow.
        let slow = daemon.submit_line(br#"{"kind":"sleep","ms":400}"#);
        // Wait until the worker picked the sleep up (queue drains to 0).
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let queued = daemon.submit_line(br#"{"kind":"ping"}"#);
        let rejected = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
        assert!(rejected.contains("\"type\":\"overloaded\""), "{rejected}");
        assert!(recv(slow).contains("\"slept_ms\":400"));
        assert!(recv(queued).contains("\"pong\":true"));
        daemon.shutdown();
    }

    #[test]
    fn tcp_transport_serves_lines() {
        let daemon =
            Arc::new(Daemon::start(DaemonConfig::new(tmpdir("tcp"))).expect("start daemon"));
        let addr = daemon.serve("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"kind\":\"ping\"}\n{\"kind\":\"list\"}\nnot json\n")
            .expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reader = io::BufReader::new(stream);
        let mut lines = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).expect("read") > 0 {
            lines.push(std::mem::take(&mut line));
        }
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"pong\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"traces\":[]"), "{}", lines[1]);
        assert!(lines[2].contains("\"type\":\"parse\""), "{}", lines[2]);
        daemon.shutdown();
    }

    #[test]
    fn stdin_transport_answers_in_request_order() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("stdin"))).expect("start daemon");
        let input = b"{\"kind\":\"sleep\",\"ms\":50}\n{\"kind\":\"ping\"}\n".to_vec();
        let mut output = Vec::new();
        run_stdin(&daemon, io::Cursor::new(input), &mut output).expect("run");
        let text = String::from_utf8(output).expect("utf8 output");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"slept_ms\":50"), "{}", lines[0]);
        assert!(lines[1].contains("\"pong\":true"), "{}", lines[1]);
        daemon.shutdown();
    }

    #[test]
    fn every_reply_line_is_one_write() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("framing"))).expect("start daemon");
        let input = b"{\"kind\":\"ping\"}\n{\"kind\":\"list\"}\nnot json\n".to_vec();
        let mut out = CountingWriter::default();
        serve_lines(io::Cursor::new(input), &mut out, &daemon).expect("serve");
        daemon.shutdown();
        let text = String::from_utf8(out.bytes).expect("utf8 output");
        assert_eq!(text.lines().count(), 3, "{text}");
        assert_eq!(out.writes, 3, "{text}");

        let mut refused = CountingWriter::default();
        obs::net::send(&mut refused, &[&overloaded_refusal()]).expect("send");
        let line = String::from_utf8(refused.bytes).expect("utf8 refusal");
        assert!(line.contains("\"type\":\"overloaded\""), "{line}");
        assert_eq!(line.matches('\n').count(), 1, "{line}");
        assert!(line.ends_with('\n'), "{line}");
        assert_eq!(refused.writes, 1);
    }

    #[test]
    fn jobs_report_queue_wait_behind_a_busy_worker() {
        let mut config = DaemonConfig::new(tmpdir("queue-wait"));
        config.workers = 1;
        let daemon = Daemon::start(config).expect("start daemon");
        let slow = daemon.submit_line(br#"{"kind":"sleep","ms":200}"#);
        let ping = daemon.submit_line(br#"{"kind":"ping"}"#);
        assert!(recv(slow).contains("\"slept_ms\":200"));
        assert!(recv(ping).contains("\"pong\":true"));
        let records = daemon.job_records();
        assert!(
            records[1].queued >= Duration::from_millis(150),
            "{records:?}"
        );
        let json = daemon.jobs_json();
        let row = json.split("\"job\":\"job-2\"").nth(1).expect("job-2 row");
        let queue_ms: f64 = row
            .split("\"queue_ms\":")
            .nth(1)
            .and_then(|tail| tail.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("queue_ms field");
        assert!(queue_ms >= 150.0, "{json}");
        daemon.shutdown();
    }

    /// A small captured buffer and its charge against a resident bound.
    fn small_buffer() -> (Arc<TraceBuffer>, u64) {
        let w = WorkloadSpec::from_spec_string("kernel:stencil")
            .and_then(|spec| spec.build())
            .expect("build kernel");
        let (buffer, _) = capture_program(&w.program, w.index_arrays).expect("capture");
        let bytes = buffer.encoded_bytes();
        (Arc::new(buffer), bytes)
    }

    #[test]
    fn resident_evicts_the_least_recently_used_slot_first() {
        let (buffer, bytes) = small_buffer();
        let mut resident = Resident::new(2 * bytes);
        resident.insert("a", 1, buffer.clone());
        resident.insert("b", 2, buffer.clone());
        resident.insert("c", 3, buffer.clone());
        assert!(resident.get("a", 1).is_none(), "oldest slot must go first");
        assert!(resident.get("b", 2).is_some());
        assert!(resident.get("c", 3).is_some());
        assert_eq!(resident.bytes, 2 * bytes);
    }

    #[test]
    fn resident_keeps_a_touched_slot() {
        let (buffer, bytes) = small_buffer();
        let mut resident = Resident::new(2 * bytes);
        resident.insert("a", 1, buffer.clone());
        resident.insert("b", 2, buffer.clone());
        assert!(resident.get("a", 1).is_some());
        resident.insert("c", 3, buffer.clone());
        assert!(resident.get("a", 1).is_some(), "touched slot must survive");
        assert!(resident.get("b", 2).is_none(), "untouched slot goes first");
        assert!(resident.get("c", 3).is_some());
    }

    #[test]
    fn resident_never_serves_another_image_of_the_id() {
        let (buffer, _) = small_buffer();
        let mut resident = Resident::new(RESIDENT_BYTES);
        resident.insert("a", 1, buffer);
        assert!(resident.get("a", 2).is_none());
        assert!(resident.get("a", 1).is_none(), "a stale slot is dropped");
        assert_eq!(resident.bytes, 0);
    }

    /// A decoded form is charged beside its buffer: it is built only when
    /// both fit the bound, it evicts other slots least recently used
    /// first, and the resident-bytes gauge follows every charge.
    #[test]
    fn resident_charges_the_decoded_form_beside_its_buffer() {
        let recorder = Arc::new(obs::MetricsRecorder::new());
        let _scope = obs::Obs::from(recorder.clone()).enter();
        let (buffer, bytes) = small_buffer();
        let decoded = Arc::new(DecodedTrace::new(&buffer));
        let dbytes = decoded.bytes();
        assert_eq!(dbytes, DecodedTrace::size_for(&buffer));
        assert!(
            dbytes > 2 * bytes,
            "{dbytes} decoded vs {bytes} encoded bytes"
        );
        let gauge = || recorder.gauge(obs::Gauge::ResidentBytes);

        // No room for the decoded form beside the buffer: not built.
        let mut tight = Resident::new(bytes + dbytes - 1);
        tight.insert("a", 1, buffer.clone());
        assert!(!tight.wants_decoded("a", 1));
        tight.attach("a", 1, decoded.clone());
        assert!(tight.get("a", 1).is_some_and(|t| t.decoded.is_none()));
        assert_eq!((tight.bytes, gauge()), (bytes, bytes));

        let mut resident = Resident::new(2 * bytes + dbytes);
        resident.insert("a", 1, buffer.clone());
        resident.insert("b", 2, buffer.clone());
        assert!(resident.get("a", 1).is_some());
        assert!(resident.wants_decoded("a", 1));
        assert!(!resident.wants_decoded("a", 2), "another image of the id");
        resident.attach("a", 1, decoded.clone());
        assert!(!resident.wants_decoded("a", 1), "built once");
        assert_eq!(resident.bytes, 2 * bytes + dbytes);
        assert_eq!(gauge(), resident.bytes);
        let hit = resident.get("a", 1).expect("a stays resident");
        assert!(hit.decoded.is_some_and(|d| Arc::ptr_eq(&d, &decoded)));

        // A third buffer evicts the least recently used slot, b; decoding
        // it then evicts a, decoded form and all.
        resident.insert("c", 3, buffer.clone());
        assert!(resident.get("b", 2).is_none());
        resident.attach("c", 3, decoded.clone());
        assert!(resident.get("a", 1).is_none());
        assert!(resident.get("c", 3).is_some_and(|t| t.decoded.is_some()));
        assert_eq!((resident.bytes, gauge()), (bytes + dbytes, bytes + dbytes));
        resident.remove("c");
        assert_eq!((resident.bytes, gauge()), (0, 0));
    }

    #[test]
    fn over_bound_trace_is_served_but_not_kept() {
        let (buffer, bytes) = small_buffer();
        let mut store = TraceStore::open(tmpdir("over-bound")).expect("open store");
        store
            .put("big", &buffer, TraceMeta::default())
            .expect("put trace");
        let mut traces = Traces {
            store,
            resident: Resident::new(bytes - 1),
        };
        for _ in 0..2 {
            let (served, entry) = traces.load("big").expect("load");
            assert_eq!(served.buffer.export(), buffer.export());
            assert_eq!(entry.events, buffer.events());
            assert!(traces.resident.slots.is_empty(), "over-bound trace kept");
            assert_eq!(traces.resident.bytes, 0);
        }
    }

    #[test]
    fn replays_after_a_capture_hit_the_resident_trace() {
        let recorder = Arc::new(obs::MetricsRecorder::new());
        let _scope = obs::Obs::from(recorder.clone()).enter();
        let ok = |daemon: &Daemon, line: &[u8]| {
            let r = recv(daemon.submit_line(line));
            assert!(r.contains("\"ok\":true"), "{r}");
        };
        let capture = br#"{"kind":"capture","id":"t","workload":"kernel:stream","grains":[64]}"#;
        let replay = br#"{"kind":"replay","id":"t"}"#;
        const REPLAYS: u64 = 3;
        let dir = tmpdir("resident-counters");
        let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("start daemon");
        ok(&daemon, capture);
        for _ in 0..REPLAYS {
            ok(&daemon, replay);
        }
        ok(&daemon, br#"{"kind":"evict","id":"t"}"#);
        let gone = recv(daemon.submit_line(replay));
        assert!(gone.contains("\"type\":\"unknown-trace\""), "{gone}");
        ok(&daemon, capture);
        daemon.shutdown();
        let hits = recorder.counter(obs::Counter::TracesResidentHit);
        let misses = recorder.counter(obs::Counter::TracesResidentMiss);
        assert_eq!(
            hits + misses,
            REPLAYS,
            "one count per replay that found its trace"
        );
        assert_eq!(misses, 0, "a fresh capture is never reloaded");

        // A second daemon over the same store loads the trace once.
        let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("restart daemon");
        for _ in 0..REPLAYS {
            ok(&daemon, replay);
        }
        daemon.shutdown();
        assert_eq!(recorder.counter(obs::Counter::TracesResidentMiss), 1);
        assert_eq!(
            recorder.counter(obs::Counter::TracesResidentHit),
            hits + REPLAYS - 1
        );
    }

    #[test]
    fn jobs_json_tracks_the_table() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("jobs"))).expect("start daemon");
        let _ = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
        let _ = recv(daemon.submit_line(b"garbage"));
        let json = daemon.jobs_json();
        assert!(json.starts_with("{\"queue_depth\":"), "{json}");
        assert!(json.contains("\"job\":\"job-1\""), "{json}");
        assert!(json.contains("\"status\":\"completed\""), "{json}");
        assert!(json.contains("\"status\":\"rejected\""), "{json}");
        assert!(json.contains("\"queue_ms\":"), "{json}");
        let cb = daemon.jobs_callback();
        assert_eq!(cb(), daemon.jobs_json());
        daemon.shutdown();
    }

    #[test]
    fn the_job_table_keeps_a_bounded_tail_of_finished_jobs() {
        let daemon = Daemon::start(DaemonConfig::new(tmpdir("bounded"))).expect("start daemon");
        // Malformed lines are rejected at once, without a worker.
        let extra = 10;
        for _ in 0..MAX_JOB_RECORDS + extra {
            let _ = daemon.submit_line(b"garbage");
        }
        let records = daemon.job_records();
        assert_eq!(records.len(), MAX_JOB_RECORDS);
        assert_eq!(records[0].job, format!("job-{}", extra + 1));
        assert!(records.iter().all(|r| r.status == JobStatus::Rejected));
        let doc = json::parse(&daemon.jobs_json()).expect("/jobs parses");
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .expect("a jobs array");
        assert_eq!(jobs.len(), MAX_JOB_RECORDS);
        // A job accepted afterwards still runs, and its row joins the tail.
        let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let records = daemon.job_records();
        assert_eq!(records.len(), MAX_JOB_RECORDS);
        let last = records.last().expect("a row");
        assert_eq!(last.job, format!("job-{}", MAX_JOB_RECORDS + extra + 1));
        assert_eq!(last.status, JobStatus::Completed);
        daemon.shutdown();
    }
}

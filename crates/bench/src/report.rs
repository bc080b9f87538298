//! The machine-readable bench report (`BENCH_reuselens.json`) and its
//! baseline diff.
//!
//! ## Schema (`reuselens-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "reuselens-bench/v1",
//!   "throughput_events_per_second": 12345678.9,
//!   "obs_overhead_ratio": 1.04,
//!   "sampled_speedup_ratio": 4.2,
//!   "runs": [
//!     {
//!       "workload": "sweep3d",
//!       "grains": 4,
//!       "events": 1048576,
//!       "wall_seconds": 0.123,
//!       "throughput_events_per_second": 3456789.0,
//!       "stage_seconds": {
//!         "capture": { "sum": 0.01, "max": 0.01 },
//!         "replay":  { "sum": 0.12, "max": 0.12 }
//!       }
//!     }
//!   ],
//!   "counters": { "events_captured": 1048576 }
//! }
//! ```
//!
//! * `throughput_events_per_second` (top level) is the headline figure the
//!   regression gate compares: total events replayed across every run
//!   divided by total replay wall seconds.
//! * `obs_overhead_ratio` is enabled/disabled replay wall time — the
//!   enabled leg runs with a `MetricsRecorder` installed **and the live
//!   telemetry service on**: the background aggregator ticking and an
//!   HTTP client scraping `/metrics` once per second, the shape of a
//!   watched production run (target ≤ [`OBS_OVERHEAD_CEILING`]); `null`
//!   until measured. The bench-runner gate fails full (non-smoke) runs
//!   above the ceiling, and [`diff`] flags a >15% *rise* against a
//!   measured baseline ratio (lower is better, so the gate is inverted
//!   relative to the throughput lines). `benches/obs_overhead.rs` also
//!   writes its measured ratio here via [`record_overhead_ratio`], so
//!   the figure is tracked across PRs.
//! * `sampled_speedup_ratio` is exact-mode replay wall time divided by
//!   sampled-mode (rate 1/100) replay wall time on the largest Sweep3D
//!   ladder rung (target ≥ 3x); `null` until measured.
//! * `checkpoint_overhead_ratio` is checkpointed/plain serial replay wall
//!   time on the single-grain Sweep3D workload, snapshotting four times
//!   over the run (target ≤ [`CHECKPOINT_OVERHEAD_CEILING`]); `null`
//!   until measured. The bench-runner gate fails full (non-smoke) runs
//!   above the ceiling; the ratio is an absolute bar, not diffed against
//!   the baseline (unlike `obs_overhead_ratio`, which is both).
//! * `estimator_speedup_ratio` is full-trace replay wall time divided by
//!   the zero-trace symbolic estimator's wall time over the same grain
//!   set on Sweep3D (target ≥ [`ESTIMATOR_SPEEDUP_FLOOR`]); `null` until
//!   measured. The bench-runner gate fails full (non-smoke) runs below
//!   the floor; like `checkpoint_overhead_ratio` it is an absolute bar,
//!   not diffed against the baseline.
//! * `store_replay_speedup_ratio` is the wall time to obtain a
//!   replay-ready Sweep3D `TraceBuffer` by capturing the workload from
//!   scratch divided by the wall time to load the same trace from the
//!   on-disk store (read + validate + decode + checkpoint rebuild). The
//!   replay that follows is bit-identical either way
//!   (`tests/store_identity.rs`), so the acquisition cost *is* the
//!   capture-once/replay-many win the store banks per later session
//!   (target ≥ [`STORE_REPLAY_SPEEDUP_FLOOR`]); `null` until measured.
//!   The bench-runner gate fails full (non-smoke) runs below the floor;
//!   an absolute bar, not diffed against the baseline.
//! * `runs[]` each hold one workload × grain-count measurement;
//!   `stage_seconds` is the pipeline stage wall-time breakdown from the
//!   run's `MetricsRecorder` snapshot and `events` counts events replayed
//!   **per grain** (every grain replays the full captured stream).
//!
//!   **Schema change (this PR):** each `stage_seconds` entry is now an
//!   object `{ "sum": S, "max": M }` instead of a bare number. `sum` is
//!   the old value — wall seconds summed over every span of the stage —
//!   and `max` is the longest single span. The distinction matters once
//!   partitioned replay runs spans *concurrently*: `sum` over partition
//!   workers overstates wall time, `max` approximates the critical path.
//!   The schema tag stays `reuselens-bench/v1`: readers written for the
//!   old shape ignore the object, and [`BenchReport::from_json`] still
//!   accepts legacy bare-number entries (parsed as `sum = max = value`)
//!   so pre-change baselines keep diffing.
//! * `counters` is the final counter snapshot across all runs.
//!
//! [`diff`] compares two reports and flags any throughput drop beyond
//! [`REGRESSION_THRESHOLD`] (15%) — headline and per-run; the bench-runner
//! binary exits nonzero when the diff regresses.

use reuselens::obs::json::{self, Json};

/// Identifies the report layout; bump when the schema changes shape.
pub const SCHEMA: &str = "reuselens-bench/v1";

/// Fractional throughput drop that counts as a regression (>15%).
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// Acceptance ceiling for `obs_overhead_ratio` on full bench runs:
/// replaying with the recorder installed, the aggregator ticking, and an
/// HTTP client scraping `/metrics` once per second must cost at most 10%
/// over the same replay fully dark.
pub const OBS_OVERHEAD_CEILING: f64 = 1.10;

/// Acceptance ceiling for `checkpoint_overhead_ratio` on full bench runs:
/// replaying with periodic snapshots must cost at most 10% over a plain
/// serial replay of the same grain.
pub const CHECKPOINT_OVERHEAD_CEILING: f64 = 1.10;

/// Acceptance floor for `estimator_speedup_ratio` on full bench runs: the
/// symbolic estimator's whole value proposition is skipping the trace, so
/// it must beat full-trace replay on Sweep3D by at least this factor.
pub const ESTIMATOR_SPEEDUP_FLOOR: f64 = 100.0;

/// Acceptance floor for `store_replay_speedup_ratio` on full bench runs:
/// loading a stored trace into a replay-ready buffer must beat
/// re-capturing the workload from scratch by at least this factor, or
/// persisting traces is not paying for itself.
pub const STORE_REPLAY_SPEEDUP_FLOOR: f64 = 2.0;

/// Wall seconds of one pipeline stage across a run, both ways of adding
/// spans up (see the module docs on the `stage_seconds` schema change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSeconds {
    /// Seconds summed over every span of the stage.
    pub sum: f64,
    /// Seconds of the longest single span.
    pub max: f64,
}

/// One workload × grain-count measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Workload name (`"sweep3d"`, `"gtc"`).
    pub workload: String,
    /// How many grains (block sizes) the replay analyzed in parallel.
    pub grains: u64,
    /// Events replayed per grain (the captured stream length).
    pub events: u64,
    /// Wall seconds for the full multi-grain replay (best of reps).
    pub wall_seconds: f64,
    /// Pipeline stage wall-time breakdown, `(stage name, seconds)`.
    pub stage_seconds: Vec<(String, StageSeconds)>,
}

impl BenchRun {
    /// Replayed events per second across all of this run's grains.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            (self.events * self.grains) as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// A stable key for matching runs between baseline and current.
    fn key(&self) -> (String, u64) {
        (self.workload.clone(), self.grains)
    }
}

/// The full report: runs, counter snapshot, and headline figures.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Per-measurement rows.
    pub runs: Vec<BenchRun>,
    /// Final counter snapshot, `(counter name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Enabled/disabled replay ratio from the obs-overhead measurement.
    pub obs_overhead_ratio: Option<f64>,
    /// Exact/sampled replay wall-time ratio from the sampled ladder rung.
    pub sampled_speedup_ratio: Option<f64>,
    /// Checkpointed/plain serial replay wall-time ratio (see the module
    /// docs); gated against [`CHECKPOINT_OVERHEAD_CEILING`] on full runs.
    pub checkpoint_overhead_ratio: Option<f64>,
    /// Full-trace replay over zero-trace symbolic estimation wall-time
    /// ratio (see the module docs); gated against
    /// [`ESTIMATOR_SPEEDUP_FLOOR`] on full runs.
    pub estimator_speedup_ratio: Option<f64>,
    /// Capture-from-scratch over load-from-store wall-time ratio for
    /// obtaining a replay-ready buffer (see the module docs); gated
    /// against [`STORE_REPLAY_SPEEDUP_FLOOR`] on full runs.
    pub store_replay_speedup_ratio: Option<f64>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> BenchReport {
        BenchReport {
            runs: Vec::new(),
            counters: Vec::new(),
            obs_overhead_ratio: None,
            sampled_speedup_ratio: None,
            checkpoint_overhead_ratio: None,
            estimator_speedup_ratio: None,
            store_replay_speedup_ratio: None,
        }
    }

    /// Headline throughput: total events replayed across all runs per
    /// total replay wall second.
    pub fn throughput(&self) -> f64 {
        let events: u64 = self.runs.iter().map(|r| r.events * r.grains).sum();
        let wall: f64 = self.runs.iter().map(|r| r.wall_seconds).sum();
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    }

    /// Renders the report as schema-`v1` pretty JSON.
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let stages = run
                    .stage_seconds
                    .iter()
                    .map(|(name, secs)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("sum".into(), Json::Num(secs.sum)),
                                ("max".into(), Json::Num(secs.max)),
                            ]),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("workload".into(), Json::Str(run.workload.clone())),
                    ("grains".into(), Json::Num(run.grains as f64)),
                    ("events".into(), Json::Num(run.events as f64)),
                    ("wall_seconds".into(), Json::Num(run.wall_seconds)),
                    (
                        "throughput_events_per_second".into(),
                        Json::Num(run.throughput()),
                    ),
                    ("stage_seconds".into(), Json::Obj(stages)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value as f64)))
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            (
                "throughput_events_per_second".into(),
                Json::Num(self.throughput()),
            ),
            (
                "obs_overhead_ratio".into(),
                match self.obs_overhead_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ),
            (
                "sampled_speedup_ratio".into(),
                match self.sampled_speedup_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ),
            (
                "checkpoint_overhead_ratio".into(),
                match self.checkpoint_overhead_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ),
            (
                "estimator_speedup_ratio".into(),
                match self.estimator_speedup_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ),
            (
                "store_replay_speedup_ratio".into(),
                match self.store_replay_speedup_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ),
            ("runs".into(), Json::Arr(runs)),
            ("counters".into(), Json::Obj(counters)),
        ])
        .render_pretty()
    }

    /// Parses a schema-`v1` report.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong/missing `schema`
    /// tag, or missing required run fields.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?}, expected {SCHEMA:?}"));
        }
        let mut runs = Vec::new();
        for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |key: &str| -> Result<f64, String> {
                run.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("run missing numeric {key:?}"))
            };
            let stage_seconds = match run.get("stage_seconds") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, v)| {
                        // Current form: { "sum": S, "max": M }. Legacy
                        // form (pre-partitioned-replay): a bare number,
                        // read as sum = max = value.
                        let secs = match v {
                            Json::Obj(_) => StageSeconds {
                                sum: v.get("sum").and_then(Json::as_f64)?,
                                max: v.get("max").and_then(Json::as_f64)?,
                            },
                            _ => {
                                let n = v.as_f64()?;
                                StageSeconds { sum: n, max: n }
                            }
                        };
                        Some((k.clone(), secs))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            runs.push(BenchRun {
                workload: run
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run missing workload")?
                    .to_string(),
                grains: field("grains")? as u64,
                events: field("events")? as u64,
                wall_seconds: field("wall_seconds")?,
                stage_seconds,
            });
        }
        let counters = match doc.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(BenchReport {
            runs,
            counters,
            obs_overhead_ratio: doc.get("obs_overhead_ratio").and_then(Json::as_f64),
            sampled_speedup_ratio: doc.get("sampled_speedup_ratio").and_then(Json::as_f64),
            checkpoint_overhead_ratio: doc
                .get("checkpoint_overhead_ratio")
                .and_then(Json::as_f64),
            estimator_speedup_ratio: doc
                .get("estimator_speedup_ratio")
                .and_then(Json::as_f64),
            store_replay_speedup_ratio: doc
                .get("store_replay_speedup_ratio")
                .and_then(Json::as_f64),
        })
    }
}

impl Default for BenchReport {
    fn default() -> BenchReport {
        BenchReport::new()
    }
}

/// One throughput comparison between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// What is compared: `"overall"` or `"<workload>/<grains>"`.
    pub subject: String,
    /// Baseline events/s.
    pub baseline: f64,
    /// Current events/s.
    pub current: f64,
    /// `current/baseline - 1` (negative = slower).
    pub delta: f64,
    /// True when the drop exceeds [`REGRESSION_THRESHOLD`].
    pub regressed: bool,
}

/// The result of diffing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOutcome {
    /// Per-subject comparisons, overall first.
    pub lines: Vec<DiffLine>,
    /// True when any subject regressed.
    pub regressed: bool,
}

impl DiffOutcome {
    /// Renders the diff as an aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>16} {:>16} {:>9}  verdict\n",
            "subject", "baseline ev/s", "current ev/s", "delta"
        );
        for line in &self.lines {
            out.push_str(&format!(
                "{:<24} {:>16.0} {:>16.0} {:>+8.1}%  {}\n",
                line.subject,
                line.baseline,
                line.current,
                line.delta * 100.0,
                if line.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        out
    }
}

fn compare(subject: &str, baseline: f64, current: f64) -> DiffLine {
    let delta = if baseline > 0.0 {
        current / baseline - 1.0
    } else {
        0.0
    };
    DiffLine {
        subject: subject.to_string(),
        baseline,
        current,
        delta,
        regressed: baseline > 0.0 && current < baseline * (1.0 - REGRESSION_THRESHOLD),
    }
}

/// [`compare`] for lower-is-better ratios (overheads): the line regresses
/// when the current value *rises* more than [`REGRESSION_THRESHOLD`]
/// above the baseline. `delta` keeps its `current/baseline - 1` meaning,
/// so a positive delta here reads as "overhead grew".
fn compare_lower_is_better(subject: &str, baseline: f64, current: f64) -> DiffLine {
    let delta = if baseline > 0.0 {
        current / baseline - 1.0
    } else {
        0.0
    };
    DiffLine {
        subject: subject.to_string(),
        baseline,
        current,
        delta,
        regressed: baseline > 0.0 && current > baseline * (1.0 + REGRESSION_THRESHOLD),
    }
}

/// Compares `current` against `baseline`: the overall throughput plus
/// every run present in both (matched by workload × grain count). A drop
/// beyond [`REGRESSION_THRESHOLD`] on any line marks the outcome
/// regressed; runs only one side measured are ignored (workload sets may
/// change between PRs).
pub fn diff(baseline: &BenchReport, current: &BenchReport) -> DiffOutcome {
    let mut lines = vec![compare("overall", baseline.throughput(), current.throughput())];
    for base_run in &baseline.runs {
        if let Some(cur_run) = current.runs.iter().find(|r| r.key() == base_run.key()) {
            lines.push(compare(
                &format!("{}/{}", base_run.workload, base_run.grains),
                base_run.throughput(),
                cur_run.throughput(),
            ));
        }
    }
    // The obs-overhead ratio is gated like a throughput line, inverted:
    // overhead is lower-is-better, so a >15% *rise* against a measured baseline ratio
    // regresses the diff (the absolute <= OBS_OVERHEAD_CEILING bar is
    // enforced by the bench-runner on full runs).
    if let (Some(base), Some(cur)) = (baseline.obs_overhead_ratio, current.obs_overhead_ratio) {
        lines.push(compare_lower_is_better("obs_overhead", base, cur));
    }
    let regressed = lines.iter().any(|l| l.regressed);
    DiffOutcome { lines, regressed }
}

/// Merges a freshly measured obs-overhead ratio into the report at
/// `path`, preserving the rest of the file: parse-modify-rewrite when the
/// file holds a valid report, else start a new one. Used by
/// `benches/obs_overhead.rs` so the ratio lands in `BENCH_reuselens.json`
/// instead of only stdout.
///
/// # Errors
///
/// Returns the I/O error message when the file cannot be written.
pub fn record_overhead_ratio(path: &std::path::Path, ratio: f64) -> Result<(), String> {
    let mut report = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| BenchReport::from_json(&text).ok())
        .unwrap_or_default();
    report.obs_overhead_ratio = Some(ratio);
    std::fs::write(path, report.to_json()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, grains: u64, events: u64, wall: f64) -> BenchRun {
        BenchRun {
            workload: workload.to_string(),
            grains,
            events,
            wall_seconds: wall,
            stage_seconds: vec![(
                "replay".to_string(),
                StageSeconds { sum: wall, max: wall },
            )],
        }
    }

    fn report(runs: Vec<BenchRun>) -> BenchReport {
        BenchReport {
            runs,
            counters: vec![("events_decoded".to_string(), 12345)],
            obs_overhead_ratio: Some(1.05),
            sampled_speedup_ratio: Some(4.2),
            checkpoint_overhead_ratio: Some(1.03),
            estimator_speedup_ratio: Some(240.0),
            store_replay_speedup_ratio: Some(3.4),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let original = report(vec![run("sweep3d", 4, 1 << 20, 0.25), run("gtc", 2, 4096, 0.01)]);
        let text = original.to_json();
        assert!(text.contains("\"schema\": \"reuselens-bench/v1\""));
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, original);
    }

    /// The committed report loads under the strict shared parser and
    /// survives a write/read cycle unchanged.
    #[test]
    fn committed_report_loads_and_round_trips() {
        let committed = include_str!("../../../BENCH_reuselens.json");
        let parsed = BenchReport::from_json(committed).unwrap();
        assert!(!parsed.runs.is_empty());
        assert_eq!(BenchReport::from_json(&parsed.to_json()).unwrap(), parsed);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(BenchReport::from_json("{\"schema\":\"other/v9\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
    }

    #[test]
    fn diff_accepts_small_wobble() {
        let base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        // 10% slower: within the 15% gate.
        let cur = report(vec![run("sweep3d", 4, 1000, 1.0 / 0.9)]);
        let outcome = diff(&base, &cur);
        assert!(!outcome.regressed);
        assert!(outcome.lines.iter().all(|l| !l.regressed));
    }

    #[test]
    fn diff_flags_a_synthetic_20_percent_slowdown() {
        let base = report(vec![run("sweep3d", 4, 1000, 1.0), run("gtc", 2, 1000, 1.0)]);
        // sweep3d/4 replays the same events in 25% more time: a 20%
        // throughput drop, past the 15% gate.
        let cur = report(vec![run("sweep3d", 4, 1000, 1.25), run("gtc", 2, 1000, 1.0)]);
        let outcome = diff(&base, &cur);
        assert!(outcome.regressed);
        let line = outcome
            .lines
            .iter()
            .find(|l| l.subject == "sweep3d/4")
            .unwrap();
        assert!(line.regressed);
        assert!((line.delta + 0.2).abs() < 1e-9);
        // gtc is unchanged and stays green.
        assert!(!outcome.lines.iter().find(|l| l.subject == "gtc/2").unwrap().regressed);
        assert!(outcome.render().contains("REGRESSED"));
    }

    #[test]
    fn diff_ignores_runs_missing_from_either_side() {
        let base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        let cur = report(vec![run("sweep3d", 8, 1000, 1.0)]);
        let outcome = diff(&base, &cur);
        // No matched runs: just the overall line and the gated ratio line
        // (both sides of the fixture measure the ratio).
        assert_eq!(outcome.lines.len(), 2);
        assert!(outcome
            .lines
            .iter()
            .all(|l| l.subject == "overall" || l.subject == "obs_overhead"));
    }

    #[test]
    fn from_json_accepts_legacy_bare_number_stage_seconds() {
        let legacy = r#"{
          "schema": "reuselens-bench/v1",
          "runs": [{"workload": "sweep3d", "grains": 4, "events": 1000,
                    "wall_seconds": 0.5, "stage_seconds": {"replay": 0.5}}]
        }"#;
        let parsed = BenchReport::from_json(legacy).unwrap();
        assert_eq!(
            parsed.runs[0].stage_seconds,
            vec![("replay".to_string(), StageSeconds { sum: 0.5, max: 0.5 })]
        );
        assert_eq!(parsed.checkpoint_overhead_ratio, None);
        assert_eq!(parsed.estimator_speedup_ratio, None);
        assert_eq!(parsed.store_replay_speedup_ratio, None);
    }

    #[test]
    fn estimator_speedup_ratio_round_trips_and_is_not_diffed() {
        let mut base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        base.estimator_speedup_ratio = Some(350.0);
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed.estimator_speedup_ratio, Some(350.0));
        // Absolute gate, not a baseline diff: a big swing in the measured
        // ratio must not regress the diff (the bench-runner's floor check
        // owns that failure on full runs).
        let mut cur = base.clone();
        cur.estimator_speedup_ratio = Some(120.0);
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn store_replay_speedup_ratio_round_trips_and_is_not_diffed() {
        let mut base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        base.store_replay_speedup_ratio = Some(4.2);
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed.store_replay_speedup_ratio, Some(4.2));
        // Absolute gate, not a baseline diff: the bench-runner's floor
        // check owns failures on full runs.
        let mut cur = base.clone();
        cur.store_replay_speedup_ratio = Some(2.1);
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn checkpoint_overhead_ratio_round_trips_and_is_not_diffed() {
        let mut base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        base.checkpoint_overhead_ratio = Some(1.02);
        let parsed = BenchReport::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed.checkpoint_overhead_ratio, Some(1.02));
        // The ratio is an absolute gate, not a baseline diff: a current
        // report measuring far above the baseline ratio must not regress
        // the diff (the bench-runner's ceiling check owns that failure).
        let mut cur = base.clone();
        cur.checkpoint_overhead_ratio = Some(2.5);
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn diff_gates_obs_overhead_ratio_lower_is_better() {
        let mut base = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        let mut cur = base.clone();
        base.obs_overhead_ratio = Some(1.00);
        // Overhead grew 20%: past the 15% bar. (The absolute-ceiling
        // check is the bench-runner's; the diff gate fires on the rise
        // alone.)
        cur.obs_overhead_ratio = Some(1.20);
        let outcome = diff(&base, &cur);
        assert!(outcome.regressed);
        let line = outcome
            .lines
            .iter()
            .find(|l| l.subject == "obs_overhead")
            .unwrap();
        assert!(line.regressed);
        assert!((line.delta - 0.2).abs() < 1e-9, "delta: {}", line.delta);
        // A 10% rise is wobble; a *drop* is an improvement, never a
        // regression (the inverted compare must not fire downward).
        cur.obs_overhead_ratio = Some(1.10);
        assert!(!diff(&base, &cur).regressed);
        cur.obs_overhead_ratio = Some(0.80);
        assert!(!diff(&base, &cur).regressed);
        // An unmeasured side is skipped, not failed.
        cur.obs_overhead_ratio = None;
        assert!(!diff(&base, &cur).regressed);
    }

    #[test]
    fn record_overhead_ratio_preserves_existing_runs() {
        let dir = std::env::temp_dir().join(format!(
            "reuselens-bench-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_reuselens.json");
        let original = report(vec![run("sweep3d", 4, 1000, 1.0)]);
        std::fs::write(&path, original.to_json()).unwrap();
        record_overhead_ratio(&path, 1.07).unwrap();
        let updated = BenchReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(updated.obs_overhead_ratio, Some(1.07));
        assert_eq!(updated.runs, original.runs);
        // A missing file yields a fresh ratio-only report.
        let fresh = dir.join("fresh.json");
        record_overhead_ratio(&fresh, 1.02).unwrap();
        let fresh = BenchReport::from_json(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        assert_eq!(fresh.obs_overhead_ratio, Some(1.02));
        assert!(fresh.runs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

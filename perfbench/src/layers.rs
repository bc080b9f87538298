//! Per-layer metrics of a traced run, read from the pipeline's own
//! metrics recorder: each layer's stage-span time divided by the work
//! that layer did, so the figures do not depend on how many jobs fit in
//! the run. `job_exec_ms` is the mean time a job spent executing; for the
//! daemon it is the daemon's own per-job figure, so the gap to the
//! end-to-end latency is queueing and transport.

use std::sync::Arc;
use std::time::Duration;

use reuselens::obs::{self, Counter, MetricsRecorder, Stage};

/// A fresh recorder for a traced run.
pub fn recorder() -> Arc<MetricsRecorder> {
    Arc::new(MetricsRecorder::new())
}

/// Runs `f` with `recorder`, if there is one, installed as the
/// process-wide recorder, so only the phases passed here are recorded.
pub fn recording<T>(recorder: Option<&Arc<MetricsRecorder>>, f: impl FnOnce() -> T) -> T {
    let Some(recorder) = recorder else {
        return f();
    };
    obs::install(recorder.clone());
    let out = f();
    obs::uninstall();
    out
}

/// Derives the per-layer metrics from everything `recorder` recorded.
/// `events_loaded` is the number of trace events read back from the
/// store during the measured phase (the store-decode layer's work);
/// `exec` is how long each job executed inside the system, without
/// queueing or transport.
pub fn per_layer(
    recorder: &MetricsRecorder,
    events_loaded: u64,
    exec: &[Duration],
) -> Vec<(&'static str, &'static str, f64)> {
    let snap = recorder.snapshot();
    let nanos = |stage| snap.stage(stage).total.as_nanos() as f64;
    let per = |total: f64, work: u64| total / work.max(1) as f64;
    let exec_ms: f64 = exec.iter().map(|d| d.as_secs_f64() * 1e3).sum();
    vec![
        ("job_exec_ms", "ms", per(exec_ms, exec.len() as u64)),
        (
            "capture_ns_per_event",
            "ns",
            per(nanos(Stage::Capture), snap.counter(Counter::EventsCaptured)),
        ),
        (
            "store_decode_ns_per_event",
            "ns",
            per(nanos(Stage::Decode), events_loaded),
        ),
        (
            "replay_ns_per_event",
            "ns",
            per(nanos(Stage::Replay), snap.counter(Counter::EventsDecoded)),
        ),
        (
            "sweep_us_per_config",
            "us",
            per(
                nanos(Stage::Sweep) / 1e3,
                snap.counter(Counter::SweepConfigsScored),
            ),
        ),
        (
            "report_us_per_report",
            "us",
            per(
                nanos(Stage::Report) / 1e3,
                snap.counter(Counter::ReportsGenerated),
            ),
        ),
        (
            "estimate_us_per_call",
            "us",
            per(
                nanos(Stage::Estimate) / 1e3,
                snap.stage(Stage::Estimate).count,
            ),
        ),
    ]
}

//! The live telemetry service: a background aggregator thread over a
//! [`MetricsRecorder`], rolling-window rates, stderr heartbeats, and the
//! HTTP surface (`/metrics`, `/healthz`, `/timeline`).
//!
//! The first two obs generations export *after* the run; this one answers
//! *while* it runs. A [`TelemetryService`] owns one aggregator thread that
//! every `tick` (default 250 ms) takes a lock-free counter snapshot of the
//! recorder and appends it to a bounded sample window. From consecutive
//! samples it derives what an operator actually asks a long run:
//!
//! * **rates** — events/s and accesses/s over the last ~1 s and ~10 s,
//!   plus per-stage busy fractions (span-seconds accumulated per wall
//!   second, > 1 when workers run concurrently);
//! * **progress and ETA** — grains finished over grains requested, and
//!   elapsed-time extrapolation to completion;
//! * **the active stage** — whichever pipeline stage accumulated the most
//!   span time in the latest tick.
//!
//! The service never touches analysis state: it reads the same relaxed
//! atomics the exporters read, so the PR 3 identity contract ("obs never
//! changes results") extends to it unchanged — `tests/obs_identity.rs`
//! proves a run with the full service live (aggregator ticking, HTTP
//! scraped) stays bit-identical, and that a scrape after the pipeline
//! quiesces equals the final exporter output byte for byte.
//!
//! # Examples
//!
//! ```
//! use reuselens_obs as obs;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(obs::MetricsRecorder::new());
//! let mut service = obs::TelemetryService::start(
//!     recorder.clone(),
//!     None,
//!     obs::ServiceConfig::default(),
//! );
//! let addr = service.serve("127.0.0.1:0").expect("bind");
//! recorder.add(obs::Counter::EventsDecoded, 42);
//! let (status, body) = obs::http_get(addr, "/metrics").expect("scrape");
//! assert_eq!(status, 200);
//! assert!(body.contains("reuselens_events_decoded_total 42"));
//! service.shutdown();
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::export::fmt_rate;
use crate::http::{Handler, HttpServer, Response};
use crate::{
    format_chrome_trace, Counter, EventKind, MetricsRecorder, Obs, Stage, Timeline,
    TimelineSnapshot,
};

/// How the aggregator paces itself and what the run promised upfront.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Sampling period of the aggregator thread.
    pub tick: Duration,
    /// Emit a one-line progress heartbeat to stderr (and a `heartbeat`
    /// JSONL event) this often; `None` disables heartbeats.
    pub heartbeat: Option<Duration>,
    /// The short rolling-rate window (`events_per_s_1s`).
    pub window_short: Duration,
    /// The long rolling-rate window (`events_per_s_10s`).
    pub window_long: Duration,
    /// Renders the `/jobs` response body (the daemon's job table as
    /// JSON); `None` — every non-daemon run — answers 404 on that path.
    pub jobs: Option<Arc<dyn Fn() -> String + Send + Sync>>,
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("tick", &self.tick)
            .field("heartbeat", &self.heartbeat)
            .field("window_short", &self.window_short)
            .field("window_long", &self.window_long)
            .field("jobs", &self.jobs.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            tick: Duration::from_millis(250),
            heartbeat: None,
            window_short: Duration::from_secs(1),
            window_long: Duration::from_secs(10),
            jobs: None,
        }
    }
}

/// One aggregator sample: elapsed time plus the counter/span state of the
/// recorder at that instant.
#[derive(Debug, Clone)]
struct Sample {
    at: Duration,
    counters: [u64; Counter::ALL.len()],
    span_nanos: [u64; Stage::ALL.len()],
}

/// State shared between the aggregator, the HTTP handlers, and the owner.
struct Shared {
    recorder: Arc<MetricsRecorder>,
    timeline: Option<Arc<Timeline>>,
    config: ServiceConfig,
    started: Instant,
    /// Bounded history of samples, newest last.
    window: Mutex<VecDeque<Sample>>,
    /// `Stage::ALL` index + 1 of the stage with the most recent activity;
    /// 0 until any stage moves.
    active_stage: AtomicUsize,
    ticks: AtomicU64,
    scrapes: AtomicU64,
    /// Shutdown rendezvous: the aggregator waits on this between ticks so
    /// `shutdown` interrupts a sleep instead of waiting out a tick.
    stop: Mutex<bool>,
    stop_signal: Condvar,
}

impl Shared {
    fn poisoned_window(&self) -> std::sync::MutexGuard<'_, VecDeque<Sample>> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take_sample(&self) -> Sample {
        let snap = self.recorder.snapshot();
        Sample {
            at: self.started.elapsed(),
            counters: snap.counters,
            span_nanos: Stage::ALL
                .map(|s| u64::try_from(snap.stage(s).total.as_nanos()).unwrap_or(u64::MAX)),
        }
    }

    /// Appends one sample, trims the window to the long rate window (plus
    /// slack so the oldest straddles the boundary), and refreshes the
    /// active-stage estimate.
    fn tick_once(&self) {
        let sample = self.take_sample();
        let mut window = self.poisoned_window();
        if let Some(previous) = window.back() {
            // The active stage: the one that accumulated the most span
            // time since the previous sample (ties go to the later
            // pipeline position — checkpoint inside replay reports
            // checkpoint only when it dominates the tick).
            let mut best: Option<(u64, usize)> = None;
            for stage in Stage::PIPELINE_ORDER {
                let i = stage.index();
                let delta = sample.span_nanos[i].saturating_sub(previous.span_nanos[i]);
                if delta > 0 && best.is_none_or(|(best_delta, _)| delta >= best_delta) {
                    best = Some((delta, i));
                }
            }
            if let Some((_, i)) = best {
                self.active_stage.store(i + 1, Ordering::Relaxed);
            }
        }
        let horizon = self
            .config
            .window_long
            .saturating_add(self.config.tick.saturating_mul(2));
        while window
            .front()
            .is_some_and(|oldest| sample.at.saturating_sub(oldest.at) > horizon)
            && window.len() > 2
        {
            window.pop_front();
        }
        window.push_back(sample);
        drop(window);
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// How much `value` grew over (roughly) the trailing `span`, and in
    /// how many seconds: from the newest sample back to the oldest
    /// retained sample inside the span. `None` before two samples exist.
    fn growth_over(&self, span: Duration, value: impl Fn(&Sample) -> u64) -> Option<(f64, f64)> {
        let window = self.poisoned_window();
        let newest = window.back()?;
        let base = window
            .iter()
            .take_while(|s| newest.at.saturating_sub(s.at) >= span)
            .last()
            .or_else(|| window.front())?;
        let dt = newest.at.checked_sub(base.at)?.as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        Some((value(newest).saturating_sub(value(base)) as f64, dt))
    }

    /// Counter delta per second over (roughly) the trailing `span`.
    fn rate_over(&self, counter: Counter, span: Duration) -> Option<f64> {
        let (delta, dt) = self.growth_over(span, |s| s.counters[counter.index()])?;
        Some(delta / dt)
    }

    /// Span-seconds accumulated per wall second for one stage over the
    /// trailing `span` (a busy fraction; > 1 with concurrent workers).
    fn stage_busy_over(&self, stage: Stage, span: Duration) -> Option<f64> {
        let (delta, dt) = self.growth_over(span, |s| s.span_nanos[stage.index()])?;
        Some(delta / 1e9 / dt)
    }

    /// The last-active stage's name, or `"idle"`.
    fn active_stage_name(&self) -> &'static str {
        match self.active_stage.load(Ordering::Relaxed) {
            0 => "idle",
            i => Stage::ALL[i - 1].name(),
        }
    }

    /// `(done, requested, fraction)` of grain progress right now.
    fn progress(&self) -> (u64, u64, Option<f64>) {
        let requested = self.recorder.counter(Counter::GrainsRequested);
        let done = self
            .recorder
            .counter(Counter::GrainsCompleted)
            .saturating_add(self.recorder.counter(Counter::GrainsFailed));
        let fraction = if requested > 0 {
            Some((done.min(requested)) as f64 / requested as f64)
        } else {
            None
        };
        (done, requested, fraction)
    }

    /// Remaining-seconds estimate from grain completion fraction: the run
    /// took `elapsed` for fraction `f`, so the rest costs
    /// `elapsed * (1 - f) / f`. `None` until a grain finishes.
    fn eta_seconds(&self) -> Option<f64> {
        let (_, _, fraction) = self.progress();
        let f = fraction?;
        if f <= 0.0 {
            return None;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        Some((elapsed * (1.0 - f) / f).max(0.0))
    }

    /// Renders the `/healthz` JSON document.
    fn health_json(&self) -> String {
        let uptime = self.started.elapsed().as_secs_f64();
        let (done, requested, fraction) = self.progress();
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"status\":\"ok\",\"uptime_s\":{uptime:.3},\"stage\":\"{}\"",
            self.active_stage_name()
        );
        let _ = write!(
            out,
            ",\"progress\":{{\"grains_requested\":{requested},\"grains_done\":{done},\
             \"fraction\":{}}}",
            json_f64(fraction, 4)
        );
        let _ = write!(out, ",\"eta_s\":{}", json_f64(self.eta_seconds(), 3));
        let short = self.config.window_short;
        let long = self.config.window_long;
        let _ = write!(
            out,
            ",\"rates\":{{\"events_per_s_1s\":{},\"events_per_s_10s\":{},\
             \"accesses_per_s_1s\":{}",
            json_f64(self.rate_over(Counter::EventsDecoded, short), 0),
            json_f64(self.rate_over(Counter::EventsDecoded, long), 0),
            json_f64(self.rate_over(Counter::AccessesDecoded, short), 0),
        );
        out.push_str(",\"stage_busy_1s\":{");
        let mut first = true;
        for stage in Stage::PIPELINE_ORDER {
            if let Some(busy) = self.stage_busy_over(stage, short) {
                if busy > 0.0 {
                    if !first {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{busy:.3}", stage.name());
                    first = false;
                }
            }
        }
        out.push_str("}}");
        let _ = write!(
            out,
            ",\"budget\":{{\"events\":{},\"distinct_blocks\":{},\"tree_nodes\":{}}}",
            self.recorder.gauge(crate::Gauge::BudgetEvents),
            self.recorder.gauge(crate::Gauge::BudgetDistinctBlocks),
            self.recorder.gauge(crate::Gauge::BudgetTreeNodes),
        );
        let _ = write!(
            out,
            ",\"ticks\":{},\"scrapes\":{}}}",
            self.ticks.load(Ordering::Relaxed),
            self.scrapes.load(Ordering::Relaxed),
        );
        out
    }

    /// Renders one stderr heartbeat line (also mirrored as a JSONL
    /// `heartbeat` event by the aggregator).
    fn heartbeat_line(&self) -> String {
        let uptime = self.started.elapsed().as_secs_f64();
        let (done, requested, fraction) = self.progress();
        let rate = self
            .rate_over(Counter::EventsDecoded, self.config.window_short)
            .unwrap_or(0.0);
        let mut line = format!(
            "reuselens: up {uptime:.1}s stage={} ",
            self.active_stage_name()
        );
        match fraction {
            Some(f) => {
                let _ = write!(line, "grains {done}/{requested} ({:.0}%)", f * 100.0);
            }
            None => line.push_str("grains 0/?"),
        }
        let _ = write!(line, " {}", fmt_rate(rate));
        if let Some(eta) = self.eta_seconds() {
            let _ = write!(line, " eta {eta:.1}s");
        }
        line
    }

    /// Routes one HTTP request path.
    fn respond(&self, path: &str) -> Response {
        match path {
            "/metrics" => {
                self.scrapes.fetch_add(1, Ordering::Relaxed);
                Response::ok(
                    "text/plain; version=0.0.4; charset=utf-8",
                    self.recorder.snapshot().to_prometheus(),
                )
            }
            "/healthz" => Response::ok("application/json", self.health_json()),
            "/timeline" => {
                let snapshot = match &self.timeline {
                    Some(timeline) => timeline.snapshot(),
                    None => TimelineSnapshot {
                        events: Vec::new(),
                        dropped: 0,
                    },
                };
                Response::ok("application/json", format_chrome_trace(&snapshot))
            }
            "/jobs" => match &self.config.jobs {
                Some(jobs) => Response::ok("application/json", jobs()),
                None => Response::not_found(),
            },
            "/" => Response::ok(
                "text/plain; charset=utf-8",
                "reuselens telemetry\n\nGET /metrics   Prometheus text\n\
                 GET /healthz   liveness + progress JSON\nGET /timeline  Chrome trace JSON\n\
                 GET /jobs      daemon job table JSON (serve mode only)\n"
                    .into(),
            ),
            _ => Response::not_found(),
        }
    }
}

/// Renders an optional float as a JSON number with fixed decimals, or
/// `null` when absent or non-finite (JSON has no NaN/Infinity).
fn json_f64(value: Option<f64>, decimals: usize) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.decimals$}"),
        _ => "null".to_string(),
    }
}

/// The running service: one aggregator thread, optionally one HTTP
/// listener. Construct with [`TelemetryService::start`], expose over HTTP
/// with [`serve`](TelemetryService::serve), and always
/// [`shutdown`](TelemetryService::shutdown) before reading the final
/// export (shutdown is prompt — it interrupts the aggregator's sleep).
pub struct TelemetryService {
    shared: Arc<Shared>,
    aggregator: Option<JoinHandle<()>>,
    http: Option<HttpServer>,
}

impl std::fmt::Debug for TelemetryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryService")
            .field("ticks", &self.ticks())
            .field("addr", &self.local_addr())
            .finish_non_exhaustive()
    }
}

impl TelemetryService {
    /// Starts the aggregator thread over `recorder` (and `timeline`, when
    /// the run keeps one, for `/timeline`). The service holds its own
    /// `Arc`s: filling or emptying the global slot while it runs is safe
    /// and does not disturb it. The aggregator and the HTTP threads enter
    /// the caller's [`Obs`] scope, so heartbeats land in the caller's
    /// event log.
    pub fn start(
        recorder: Arc<MetricsRecorder>,
        timeline: Option<Arc<Timeline>>,
        config: ServiceConfig,
    ) -> TelemetryService {
        let tick = config.tick.max(Duration::from_millis(1));
        let heartbeat = config.heartbeat;
        let shared = Arc::new(Shared {
            recorder,
            timeline,
            config,
            started: Instant::now(),
            window: Mutex::new(VecDeque::new()),
            active_stage: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            stop: Mutex::new(false),
            stop_signal: Condvar::new(),
        });
        // Seed the window so the first tick already has a baseline.
        shared.tick_once();
        let thread_shared = shared.clone();
        let aggregator = std::thread::Builder::new()
            .name("obs-aggregator".into())
            .spawn(Obs::inherit(move || {
                aggregator_loop(&thread_shared, tick, heartbeat)
            }))
            .ok();
        TelemetryService {
            shared,
            aggregator,
            http: None,
        }
    }

    /// Binds the HTTP surface on `addr` (`"127.0.0.1:0"` picks an
    /// ephemeral port) and returns the bound address.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn serve(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let shared = self.shared.clone();
        let handler: Handler = Arc::new(move |path: &str| shared.respond(path));
        let server = HttpServer::bind(addr, handler)?;
        let local = server.local_addr();
        self.http = Some(server);
        Ok(local)
    }

    /// The HTTP listener's address, once [`serve`](Self::serve) succeeded.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(HttpServer::local_addr)
    }

    /// Aggregator ticks taken so far (at least 1: the seed sample).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// `/metrics` scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.shared.scrapes.load(Ordering::Relaxed)
    }

    /// The `/healthz` body, rendered in-process (no socket).
    pub fn health_json(&self) -> String {
        self.shared.health_json()
    }

    /// The sampled values of one counter across the retained window,
    /// oldest first — the monotonicity oracle for the concurrency tests.
    pub fn counter_series(&self, counter: Counter) -> Vec<u64> {
        self.shared
            .poisoned_window()
            .iter()
            .map(|s| s.counters[counter.index()])
            .collect()
    }

    /// Stops the aggregator (promptly) and the HTTP listener, joining
    /// both threads.
    pub fn shutdown(mut self) {
        {
            let mut stop = self
                .shared
                .stop
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *stop = true;
        }
        self.shared.stop_signal.notify_all();
        if let Some(thread) = self.aggregator.take() {
            let _ = thread.join();
        }
        if let Some(server) = self.http.take() {
            server.shutdown();
        }
    }
}

fn aggregator_loop(shared: &Arc<Shared>, tick: Duration, heartbeat: Option<Duration>) {
    let mut last_heartbeat = Instant::now();
    loop {
        // Sleep one tick, interruptible by shutdown. The predicate is
        // checked before waiting, so a stop raised before this thread
        // reaches the wait is not lost.
        let stop = shared.stop.lock().unwrap_or_else(PoisonError::into_inner);
        let (stop, _timeout) = shared
            .stop_signal
            .wait_timeout_while(stop, tick, |s| !*s)
            .unwrap_or_else(PoisonError::into_inner);
        let stopping = *stop;
        drop(stop);
        // Take a final sample on the way out so the window reflects the
        // quiesced counters.
        shared.tick_once();
        if stopping {
            break;
        }
        if let Some(period) = heartbeat {
            if last_heartbeat.elapsed() >= period {
                last_heartbeat = Instant::now();
                let line = shared.heartbeat_line();
                eprintln!("{line}");
                let (done, requested, _) = shared.progress();
                crate::emit(EventKind::Heartbeat {
                    uptime_s: shared.started.elapsed().as_secs_f64(),
                    stage: shared.active_stage_name(),
                    grains_done: done,
                    grains_requested: requested,
                    events_per_s: shared
                        .rate_over(Counter::EventsDecoded, shared.config.window_short)
                        .unwrap_or(0.0),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gauge;

    fn fast_config() -> ServiceConfig {
        ServiceConfig {
            tick: Duration::from_millis(5),
            window_short: Duration::from_millis(50),
            window_long: Duration::from_millis(500),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn aggregator_ticks_and_rates_appear() {
        let recorder = Arc::new(MetricsRecorder::new());
        let service = TelemetryService::start(recorder.clone(), None, fast_config());
        for _ in 0..20 {
            recorder.add(Counter::EventsDecoded, 1000);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.ticks() >= 2, "aggregator must have sampled");
        let series = service.counter_series(Counter::EventsDecoded);
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "monotone: {series:?}"
        );
        let health = service.health_json();
        assert!(health.contains("\"uptime_s\":"), "{health}");
        assert!(health.contains("\"events_per_s_1s\":"), "{health}");
        service.shutdown();
    }

    #[test]
    fn health_reports_progress_eta_and_budget_progress() {
        let recorder = Arc::new(MetricsRecorder::new());
        recorder.add(Counter::GrainsRequested, 4);
        recorder.add(Counter::GrainsCompleted, 1);
        recorder.set_gauge(Gauge::BudgetEvents, 300);
        recorder.set_gauge(Gauge::BudgetDistinctBlocks, 20);
        let service = TelemetryService::start(recorder, None, fast_config());
        let health = service.health_json();
        assert!(health.contains("\"grains_requested\":4"), "{health}");
        assert!(health.contains("\"grains_done\":1"), "{health}");
        assert!(health.contains("\"fraction\":0.2500"), "{health}");
        assert!(
            !health.contains("\"eta_s\":null"),
            "one grain done: {health}"
        );
        assert!(
            health.contains("\"budget\":{\"events\":300,\"distinct_blocks\":20,\"tree_nodes\":0}"),
            "{health}"
        );
        service.shutdown();
    }

    #[test]
    fn http_surface_serves_all_three_endpoints() {
        let recorder = Arc::new(MetricsRecorder::new());
        recorder.add(Counter::EventsDecoded, 7);
        let timeline = Arc::new(Timeline::new());
        timeline.record(
            Stage::Replay,
            timeline.epoch(),
            Duration::from_micros(3),
            1,
            crate::TimelineArgs::default(),
        );
        let mut service = TelemetryService::start(recorder, Some(timeline), fast_config());
        let addr = service.serve("127.0.0.1:0").expect("bind ephemeral");
        let (status, metrics) = crate::http_get(addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("reuselens_events_decoded_total 7"),
            "{metrics}"
        );
        let (status, health) = crate::http_get(addr, "/healthz").expect("healthz");
        assert_eq!(status, 200);
        assert!(health.starts_with("{\"status\":\"ok\""), "{health}");
        let (status, trace) = crate::http_get(addr, "/timeline").expect("timeline");
        assert_eq!(status, 200);
        assert!(trace.contains("\"name\":\"replay\""), "{trace}");
        let (status, _) = crate::http_get(addr, "/unknown").expect("404 path");
        assert_eq!(status, 404);
        assert_eq!(service.scrapes(), 1);
        service.shutdown();
    }

    #[test]
    fn timeline_endpoint_without_timeline_serves_empty_trace() {
        let recorder = Arc::new(MetricsRecorder::new());
        let mut service = TelemetryService::start(recorder, None, fast_config());
        let addr = service.serve("127.0.0.1:0").expect("bind");
        let (status, trace) = crate::http_get(addr, "/timeline").expect("timeline");
        assert_eq!(status, 200);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"timeline_dropped_total\":0"), "{trace}");
        service.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_even_with_a_long_tick() {
        let recorder = Arc::new(MetricsRecorder::new());
        let config = ServiceConfig {
            tick: Duration::from_secs(60),
            ..ServiceConfig::default()
        };
        let service = TelemetryService::start(recorder, None, config);
        let begin = Instant::now();
        service.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "shutdown must interrupt the sleeping aggregator"
        );
    }

    #[test]
    fn heartbeat_line_has_stage_progress_and_rate() {
        let recorder = Arc::new(MetricsRecorder::new());
        recorder.add(Counter::GrainsRequested, 2);
        recorder.add(Counter::GrainsCompleted, 1);
        let service = TelemetryService::start(recorder, None, fast_config());
        let line = service.shared.heartbeat_line();
        assert!(line.starts_with("reuselens: up "), "{line}");
        assert!(line.contains("grains 1/2 (50%)"), "{line}");
        assert!(line.contains("/s"), "{line}");
        service.shutdown();
    }

    #[test]
    fn json_f64_renders_null_for_non_finite() {
        assert_eq!(json_f64(None, 2), "null");
        assert_eq!(json_f64(Some(f64::NAN), 2), "null");
        assert_eq!(json_f64(Some(f64::INFINITY), 2), "null");
        assert_eq!(json_f64(Some(1.5), 2), "1.50");
    }
}

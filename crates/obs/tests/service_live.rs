//! End-to-end tests of the live telemetry service: the background
//! aggregator, the HTTP surface (`/metrics`, `/healthz`, `/timeline`),
//! and the structured JSONL event log, exercised the way a real run
//! uses them — over sockets, under concurrency, and against the global
//! slot being filled and emptied while the aggregator keeps
//! snapshotting.
//!
//! `aggregator_survives_concurrent_install_uninstall` is the one test
//! here that uses the global slot; every other test emits only inside
//! its own `Obs` scope.

use reuselens_obs::{
    http_get, Counter, EventKind, EventLog, Gauge, GrainProfile, GrainStatus, MetricsRecorder, Obs,
    ServiceConfig, Stage, TelemetryService, Timeline,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn service_over(recorder: Arc<MetricsRecorder>, tick: Duration) -> TelemetryService {
    TelemetryService::start(
        recorder,
        None,
        ServiceConfig {
            tick,
            ..ServiceConfig::default()
        },
    )
}

/// `/metrics` over a real socket serves exactly the exporter's text:
/// byte-for-byte the same string `snapshot().to_prometheus()` renders,
/// with the Prometheus text-format content type.
#[test]
fn metrics_endpoint_matches_exporter_output() {
    let recorder = Arc::new(MetricsRecorder::new());
    recorder.add(Counter::EventsDecoded, 12_345);
    recorder.add(Counter::GrainsCompleted, 3);
    recorder.set_gauge(Gauge::SamplingInvRate, 10);
    let mut service = service_over(recorder.clone(), Duration::from_millis(5));
    let addr = service.serve("127.0.0.1:0").expect("bind ephemeral port");

    let (status, body) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    assert_eq!(body, recorder.snapshot().to_prometheus());
    assert!(body.contains("reuselens_events_decoded_total 12345"));

    // A later scrape reflects later state: the endpoint is live, not a
    // render of service-start state.
    recorder.add(Counter::EventsDecoded, 55);
    let (_, body) = http_get(addr, "/metrics").expect("second scrape");
    assert!(body.contains("reuselens_events_decoded_total 12400"));
    assert_eq!(service.scrapes(), 2);
    service.shutdown();
}

/// `/healthz` reports progress and ETA from the recorder's grain
/// counters, and unknown paths 404 without disturbing the service.
#[test]
fn healthz_reports_progress_and_unknown_paths_404() {
    let recorder = Arc::new(MetricsRecorder::new());
    recorder.add(Counter::GrainsRequested, 4);
    recorder.add(Counter::GrainsCompleted, 1);
    let mut service = service_over(recorder.clone(), Duration::from_millis(5));
    let addr = service.serve("127.0.0.1:0").expect("bind ephemeral port");

    let (status, body) = http_get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"grains_requested\":4"), "body: {body}");
    assert!(body.contains("\"grains_done\":1"), "body: {body}");
    assert!(body.contains("\"fraction\":0.25"), "body: {body}");
    assert!(body.contains("\"ticks\":"), "body: {body}");

    let (status, _) = http_get(addr, "/does-not-exist").expect("GET unknown");
    assert_eq!(status, 404);
    // The service still answers after a 404.
    let (status, _) = http_get(addr, "/healthz").expect("GET /healthz again");
    assert_eq!(status, 200);
    service.shutdown();
}

/// `/timeline` serves the live span ring as a Chrome trace when a
/// timeline is attached, and an empty trace when none is.
#[test]
fn timeline_endpoint_serves_live_ring() {
    let recorder = Arc::new(MetricsRecorder::new());
    let timeline = Arc::new(Timeline::new());
    timeline.record(
        Stage::Replay,
        std::time::Instant::now(),
        Duration::from_micros(90),
        0,
        reuselens_obs::TimelineArgs {
            grain: Some(64),
            ..reuselens_obs::TimelineArgs::default()
        },
    );
    let mut service = TelemetryService::start(
        recorder,
        Some(timeline),
        ServiceConfig {
            tick: Duration::from_millis(5),
            ..ServiceConfig::default()
        },
    );
    let addr = service.serve("127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = http_get(addr, "/timeline").expect("GET /timeline");
    assert_eq!(status, 200);
    assert!(body.contains("\"traceEvents\""), "body: {body}");
    assert!(body.contains("\"replay\""), "body: {body}");
    service.shutdown();

    let mut bare = service_over(Arc::new(MetricsRecorder::new()), Duration::from_millis(5));
    let addr = bare.serve("127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = http_get(addr, "/timeline").expect("GET /timeline, no ring");
    assert_eq!(status, 200);
    assert!(body.contains("\"traceEvents\""), "body: {body}");
    service_shutdown_quickly(bare);
}

/// Shutdown must be prompt even with a sleepy tick (covered in unit
/// tests); here it just must not hang the integration thread.
fn service_shutdown_quickly(service: TelemetryService) {
    service.shutdown();
}

/// Satellite: the aggregator keeps snapshotting while other threads
/// install and uninstall process-global recorders and hammer the HTTP
/// surface. Nothing may panic or tear: every sampled counter series is
/// monotone non-decreasing, and every scrape parses as a full exporter
/// page.
#[test]
fn aggregator_survives_concurrent_install_uninstall() {
    let service_recorder = Arc::new(MetricsRecorder::new());
    let mut service = service_over(service_recorder.clone(), Duration::from_millis(1));
    let addr = service.serve("127.0.0.1:0").expect("bind ephemeral port");

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Churn the process-global slot: install fresh recorders,
        // install the service's own recorder, uninstall, repeat.
        let churn_stop = stop.clone();
        let churn_recorder = service_recorder.clone();
        s.spawn(move || {
            while !churn_stop.load(Ordering::Relaxed) {
                let fresh = Arc::new(MetricsRecorder::new());
                reuselens_obs::install(fresh);
                reuselens_obs::add(Counter::EventsDecoded, 1);
                reuselens_obs::install(churn_recorder.clone());
                reuselens_obs::add(Counter::EventsDecoded, 1);
                reuselens_obs::uninstall();
                reuselens_obs::add(Counter::EventsDecoded, 1);
            }
        });
        // Writer thread: grow the service's own recorder the whole time,
        // so the aggregator has real motion to sample.
        let write_stop = stop.clone();
        let writer = service_recorder.clone();
        s.spawn(move || {
            let mut i = 0u64;
            while !write_stop.load(Ordering::Relaxed) {
                writer.add(Counter::AccessesDecoded, 3);
                writer.record_span(Stage::Replay, Duration::from_micros(50), 1);
                if i.is_multiple_of(64) {
                    writer.record_grain(&GrainProfile {
                        block_size: 64,
                        wall: Duration::from_micros(200),
                        events: 1000,
                        distinct_blocks: 10,
                        tree_nodes: 10,
                        status: GrainStatus::Completed,
                        blocks_sampled: 0,
                        blocks_evicted: 0,
                        sample_inv: 0,
                    });
                }
                i += 1;
            }
        });
        // Scraper threads: live HTTP traffic against both endpoints.
        for path in ["/metrics", "/healthz"] {
            let scrape_stop = stop.clone();
            s.spawn(move || {
                while !scrape_stop.load(Ordering::Relaxed) {
                    let (status, body) = http_get(addr, path).expect("scrape during churn");
                    assert_eq!(status, 200, "{path} failed mid-churn");
                    assert!(!body.is_empty());
                }
            });
        }
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
    });
    reuselens_obs::uninstall();

    // The sampled series must be monotone: counters only grow, and a
    // torn read would show up as a dip.
    let series = service.counter_series(Counter::AccessesDecoded);
    assert!(
        series.len() >= 2,
        "aggregator took {} samples",
        series.len()
    );
    assert!(
        series.windows(2).all(|w| w[0] <= w[1]),
        "counter series regressed: {series:?}"
    );
    assert!(service.ticks() > 0);
    service.shutdown();
}

/// Events emitted inside a scope land in its JSONL log with the
/// documented envelope and typed fields.
#[test]
fn emitted_events_carry_typed_jsonl_fields() {
    let log = Arc::new(EventLog::to_vec());
    let scope = Obs {
        events: Some(log.clone()),
        ..Obs::default()
    }
    .enter();
    reuselens_obs::emit(EventKind::GrainCompleted {
        profile: GrainProfile {
            block_size: 4096,
            wall: Duration::from_nanos(7_000_123),
            events: 151_100,
            distinct_blocks: 42,
            tree_nodes: 42,
            status: GrainStatus::Completed,
            blocks_sampled: 0,
            blocks_evicted: 0,
            sample_inv: 0,
        },
    });
    reuselens_obs::emit(EventKind::CheckpointRejected {
        path: "ckpt/grain-64.bin".into(),
        reason: "truncated \"frame\"".into(),
    });
    drop(scope);
    reuselens_obs::emit(EventKind::GrainCompleted {
        profile: GrainProfile {
            block_size: 1,
            wall: Duration::from_nanos(1),
            events: 1,
            distinct_blocks: 1,
            tree_nodes: 1,
            status: GrainStatus::Completed,
            blocks_sampled: 0,
            blocks_evicted: 0,
            sample_inv: 0,
        },
    });

    let captured = log.captured();
    let lines: Vec<&str> = captured.lines().collect();
    assert_eq!(lines.len(), 2, "post-uninstall emit must not land");
    assert!(
        lines[0].contains(
            "\"severity\":\"info\",\"event\":\"grain_completed\",\"grain\":4096,\
             \"events\":151100,\"distinct_blocks\":42,\"wall_ns\":7000123"
        ),
        "line: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"severity\":\"warn\",\"event\":\"checkpoint_rejected\""),
        "line: {}",
        lines[1]
    );
    // JSON string escaping survives the round trip.
    assert!(
        lines[1].contains("\"reason\":\"truncated \\\"frame\\\"\""),
        "line: {}",
        lines[1]
    );
    for line in &lines {
        assert!(line.starts_with("{\"t_mono_ns\":"), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
    }
}

/// The heartbeat, when configured, flows through the event log as a
/// structured `heartbeat` event.
#[test]
fn heartbeat_emits_structured_events() {
    let log = Arc::new(EventLog::to_vec());
    let scope = Obs {
        events: Some(log.clone()),
        ..Obs::default()
    }
    .enter();
    let recorder = Arc::new(MetricsRecorder::new());
    recorder.add(Counter::GrainsRequested, 2);
    recorder.add(Counter::GrainsCompleted, 1);
    let service = TelemetryService::start(
        recorder,
        None,
        ServiceConfig {
            tick: Duration::from_millis(5),
            heartbeat: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !log.captured().contains("\"event\":\"heartbeat\"") {
        assert!(
            std::time::Instant::now() < deadline,
            "no heartbeat event within 5s; captured: {}",
            log.captured()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    service.shutdown();
    drop(scope);
    let captured = log.captured();
    let beat = captured
        .lines()
        .find(|l| l.contains("\"event\":\"heartbeat\""))
        .expect("heartbeat line");
    assert!(beat.contains("\"uptime_s\":"), "line: {beat}");
    assert!(beat.contains("\"stage\":"), "line: {beat}");
    assert!(beat.contains("\"grains_done\":1"), "line: {beat}");
    assert!(beat.contains("\"grains_requested\":2"), "line: {beat}");
    assert!(beat.contains("\"events_per_s\":"), "line: {beat}");
}

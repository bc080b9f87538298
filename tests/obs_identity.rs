//! The observability layer's central promise, proved end to end: turning
//! it on changes *nothing* about the analysis.
//!
//! The same Sweep3D and GTC pipelines run three ways — obs disabled, obs
//! enabled from the start, and obs installed mid-run between capture and
//! replay — and every profile and hierarchy report must come back
//! bit-identical. The recorder's counters must also reconcile against
//! ground truth the pipeline reports independently (buffer statistics,
//! grain counts, hierarchy counts), so the numbers the exporters print
//! are provably the numbers the pipeline produced.
//!
//! Every instrumented run records inside its own `Obs` scope, which the
//! pipeline's threads inherit, so the tests run in parallel and no test
//! sees another's counts.

use reuselens::cache::{report_from_analysis, HierarchyReport, MemoryHierarchy};
use reuselens::core::{
    analyze_buffer, analyze_buffer_with, capture_program, AnalysisResult, AnalyzeOptions,
    CheckpointOptions, ReuseProfile, SamplingConfig,
};
use reuselens::metrics::run_locality_analysis;
use reuselens::obs::{
    self, http_get, Counter, EventLog, Gauge, GrainStatus, MetricsRecorder, MetricsSnapshot,
    ServiceConfig, Stage, TelemetryService, Timeline,
};
use reuselens::store::{TraceMeta, TraceStore};
use reuselens::trace::BufferStats;
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn workloads() -> Vec<BuiltWorkload> {
    vec![
        build_sweep(&SweepConfig::new(8)),
        build_gtc(&GtcConfig::new(256, 8)),
    ]
}

fn hierarchies() -> Vec<MemoryHierarchy> {
    vec![
        MemoryHierarchy::itanium2_scaled(16),
        MemoryHierarchy::itanium2_scaled(32),
    ]
}

/// Union of granularities the candidate hierarchies need.
fn grains(hierarchies: &[MemoryHierarchy]) -> Vec<u64> {
    let mut g: Vec<u64> = hierarchies
        .iter()
        .flat_map(MemoryHierarchy::required_granularities)
        .collect();
    g.sort_unstable();
    g.dedup();
    g
}

struct PipelineRun {
    profiles: Vec<ReuseProfile>,
    reports: Vec<HierarchyReport>,
    stats: BufferStats,
    exec_accesses: u64,
}

/// The capture-once / replay-many / sweep pipeline, as the CLI runs it.
fn run_pipeline(w: &BuiltWorkload, hs: &[MemoryHierarchy]) -> PipelineRun {
    let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let g = grains(hs);
    let (profiles, _timings) = analyze_buffer(&w.program, &buffer, &g).unwrap();
    let analysis = AnalysisResult {
        profiles,
        exec: exec.clone(),
    };
    let reports = hs
        .iter()
        .map(|h| report_from_analysis(&analysis, h))
        .collect();
    PipelineRun {
        profiles: analysis.profiles,
        reports,
        stats: buffer.stats(),
        exec_accesses: exec.accesses,
    }
}

/// Counter reconciliation for one instrumented full-pipeline run.
fn assert_reconciles(snap: &MetricsSnapshot, run: &PipelineRun, hs: usize, ngrains: u64) {
    assert_eq!(snap.counter(Counter::EventsCaptured), run.stats.events);
    assert_eq!(snap.counter(Counter::AccessesCaptured), run.stats.accesses);
    assert_eq!(snap.counter(Counter::AccessesCaptured), run.exec_accesses);
    assert_eq!(snap.counter(Counter::BytesEncoded), run.stats.encoded_bytes);
    // The per-grain replays each decode the full stream once.
    assert_eq!(
        snap.counter(Counter::EventsDecoded),
        ngrains * run.stats.events
    );
    assert_eq!(
        snap.counter(Counter::AccessesDecoded),
        ngrains * run.stats.accesses
    );
    assert_eq!(snap.counter(Counter::GrainsRequested), ngrains);
    assert_eq!(
        snap.counter(Counter::GrainsCompleted) + snap.counter(Counter::GrainsFailed),
        snap.counter(Counter::GrainsRequested)
    );
    assert_eq!(snap.counter(Counter::GrainsFailed), 0);
    assert_eq!(snap.counter(Counter::SweepConfigsScored), hs as u64);
    assert_eq!(snap.counter(Counter::SweepConfigsFailed), 0);
    let tracked: u64 = run.profiles.iter().map(|p| p.distinct_blocks).sum();
    assert_eq!(snap.counter(Counter::BlocksTracked), tracked);
    let reinserts: u64 = run
        .profiles
        .iter()
        .map(|p| p.total_accesses - p.total_cold())
        .sum();
    assert_eq!(snap.counter(Counter::TreeReinserts), reinserts);
    // Span structure: one capture, one replay span per grain, one sweep
    // span per hierarchy. An in-memory run decodes only inside its replay
    // spans; a `decode` span means a store load.
    assert_eq!(snap.stage(Stage::Capture).count, 1);
    assert_eq!(snap.stage(Stage::Decode).count, 0);
    assert_eq!(snap.stage(Stage::Replay).count, ngrains);
    assert_eq!(snap.stage(Stage::Sweep).count, hs as u64);
}

#[test]
fn enabling_obs_changes_nothing() {
    let hs = hierarchies();
    for w in workloads() {
        // Phase A: observability fully disabled (the default).
        let baseline = run_pipeline(&w, &hs);

        // Phase B: recorder installed before the pipeline starts.
        let recorder = Arc::new(MetricsRecorder::new());
        let scope = obs::Obs::from(recorder.clone()).enter();
        let observed = run_pipeline(&w, &hs);
        drop(scope);

        assert_eq!(
            baseline.profiles,
            observed.profiles,
            "{}: profiles must be bit-identical with obs enabled",
            w.program.name()
        );
        assert_eq!(
            baseline.reports,
            observed.reports,
            "{}: hierarchy reports must be bit-identical with obs enabled",
            w.program.name()
        );
        let ngrains = grains(&hs).len() as u64;
        assert_reconciles(&recorder.snapshot(), &observed, hs.len(), ngrains);
    }
}

#[test]
fn enabling_timeline_changes_nothing_and_reconciles_with_grain_profiles() {
    let hs = hierarchies();
    let g = grains(&hs);
    let ngrains = g.len() as u64;
    for w in workloads() {
        // Phase A: neither recorder nor timeline installed.
        let baseline = run_pipeline(&w, &hs);

        // Phase B: recorder + timeline, the CLI's
        // `--metrics` + `--trace-timeline` shape.
        let recorder = Arc::new(MetricsRecorder::new());
        let timeline = Arc::new(Timeline::new());
        let scope = obs::Obs {
            timeline: Some(timeline.clone()),
            ..recorder.clone().into()
        }
        .enter();
        let observed = run_pipeline(&w, &hs);
        drop(scope);

        assert_eq!(
            baseline.profiles,
            observed.profiles,
            "{}: profiles must be bit-identical with the timeline enabled",
            w.program.name()
        );
        assert_eq!(
            baseline.reports,
            observed.reports,
            "{}: hierarchy reports must be bit-identical with the timeline enabled",
            w.program.name()
        );
        let snap = recorder.snapshot();
        assert_reconciles(&snap, &observed, hs.len(), ngrains);

        // The timeline must tell the same story as the recorder: one
        // replay event per grain, each carrying exactly the numbers the
        // matching `GrainProfile` row and the lifecycle counters report.
        let tsnap = timeline.snapshot();
        assert_eq!(tsnap.dropped, 0, "default geometry never drops here");
        let replays: Vec<_> = tsnap.stage_events(Stage::Replay).collect();
        assert_eq!(replays.len() as u64, ngrains);
        assert_eq!(replays.len() as u64, snap.counter(Counter::GrainsCompleted));
        assert_eq!(snap.grains.len() as u64, ngrains);

        let mut timeline_grains: Vec<u64> = replays
            .iter()
            .map(|e| e.args.grain.expect("replay spans carry their grain"))
            .collect();
        timeline_grains.sort_unstable();
        assert_eq!(timeline_grains, g, "one replay event per requested grain");

        for event in &replays {
            let grain = event.args.grain.unwrap();
            let profile = snap
                .grains
                .iter()
                .find(|p| p.block_size == grain)
                .expect("every timeline replay has a GrainProfile row");
            assert_eq!(profile.status, GrainStatus::Completed);
            assert_eq!(event.args.events, Some(profile.events));
            assert_eq!(event.args.distinct_blocks, Some(profile.distinct_blocks));
            assert_eq!(event.args.tree_nodes, Some(profile.tree_nodes));
            // Both agree with the pipeline's own ground truth.
            assert_eq!(profile.events, observed.stats.events);
            let reuse = observed
                .profiles
                .iter()
                .find(|p| p.block_size == grain)
                .expect("analysis produced this grain");
            assert_eq!(profile.distinct_blocks, reuse.distinct_blocks);
        }
        // Per-grain event counts sum to the decode lifecycle counter:
        // every grain replays the full captured stream exactly once.
        let replayed: u64 = replays.iter().filter_map(|e| e.args.events).sum();
        assert_eq!(replayed, snap.counter(Counter::EventsDecoded));
        assert_eq!(replayed, ngrains * observed.stats.events);
    }
}

#[test]
fn installing_obs_mid_run_changes_nothing() {
    let hs = hierarchies();
    let g = grains(&hs);
    for w in workloads() {
        let baseline = run_pipeline(&w, &hs);

        // Capture runs dark; the recorder arrives between capture and
        // replay — the supported "attach to a long-running job" path.
        let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
        let recorder = Arc::new(MetricsRecorder::new());
        let scope = obs::Obs::from(recorder.clone()).enter();
        let (profiles, _timings) = analyze_buffer(&w.program, &buffer, &g).unwrap();
        drop(scope);

        let analysis = AnalysisResult { profiles, exec };
        let reports: Vec<HierarchyReport> = hs
            .iter()
            .map(|h| report_from_analysis(&analysis, h))
            .collect();
        assert_eq!(
            baseline.profiles,
            analysis.profiles,
            "{}: profiles must be bit-identical after a mid-run install",
            w.program.name()
        );
        assert_eq!(baseline.reports, reports);

        // Nothing before the install is counted; everything after is.
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(Counter::EventsCaptured), 0);
        assert_eq!(snap.stage(Stage::Capture).count, 0);
        assert_eq!(
            snap.counter(Counter::EventsDecoded),
            g.len() as u64 * buffer.stats().events
        );
        assert_eq!(snap.counter(Counter::GrainsCompleted), g.len() as u64);
    }
}

/// Sampled replays must tell the same reconciled story the exact ones
/// do, just through the sampling counters: the recorder's totals, the
/// gauge, and the per-grain rows all match the books the profiles
/// themselves carry.
#[test]
fn sampled_run_reconciles_counters_and_grain_profiles() {
    let hs = hierarchies();
    let g = grains(&hs);
    for w in workloads() {
        let (buffer, _exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();

        let recorder = Arc::new(MetricsRecorder::new());
        let scope = obs::Obs::from(recorder.clone()).enter();
        let opts = AnalyzeOptions {
            sampling: SamplingConfig::fixed(0.1),
            ..AnalyzeOptions::default()
        };
        let (profiles, _timings) = analyze_buffer_with(&w.program, &buffer, &g, &opts)
            .into_strict()
            .unwrap();
        drop(scope);
        let snap = recorder.snapshot();

        // Every profile is annotated, and the recorder's sampling
        // counters are exactly the sums of the profiles' own books.
        let infos: Vec<_> = profiles
            .iter()
            .map(|p| p.sampling.expect("fixed-rate run annotates every grain"))
            .collect();
        assert_eq!(
            snap.counter(Counter::BlocksSampled),
            infos.iter().map(|i| i.blocks_sampled).sum::<u64>()
        );
        assert_eq!(
            snap.counter(Counter::BlocksEvicted),
            infos.iter().map(|i| i.blocks_evicted).sum::<u64>()
        );
        assert_eq!(
            snap.counter(Counter::SampleRateDrops),
            infos.iter().map(|i| i.rate_drops).sum::<u64>()
        );
        // Sampled grains never touch the exact-mode counters.
        assert_eq!(snap.counter(Counter::BlocksTracked), 0);
        assert_eq!(snap.counter(Counter::TreeReinserts), 0);
        // Fixed rate 1/10 never drops, so whichever grain finished last
        // set the gauge to the same value.
        assert_eq!(snap.gauge(Gauge::SamplingInvRate), 10);
        assert_eq!(snap.counter(Counter::GrainsCompleted), g.len() as u64);

        // Each GrainProfile row repeats its profile's sampling books.
        assert_eq!(snap.grains.len(), g.len());
        for profile in &profiles {
            let info = profile.sampling.unwrap();
            let row = snap
                .grains
                .iter()
                .find(|r| r.block_size == profile.block_size)
                .expect("every grain has a row");
            assert_eq!(row.status, GrainStatus::Completed);
            assert_eq!(row.sample_inv, info.inv);
            assert_eq!(row.blocks_sampled, info.blocks_sampled);
            assert_eq!(row.blocks_evicted, info.blocks_evicted);
            assert_eq!(row.distinct_blocks, profile.distinct_blocks);
        }
    }
}

/// `SamplingConfig::exact()` through the sampled entry point is the
/// pre-sampling pipeline: identical profiles (with no sampling
/// annotation) and identical hierarchy reports on both workloads.
#[test]
fn exact_sampling_config_is_bit_identical_to_default_path() {
    let hs = hierarchies();
    let g = grains(&hs);
    for w in workloads() {
        let baseline = run_pipeline(&w, &hs);

        let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
        let opts = AnalyzeOptions {
            sampling: SamplingConfig::exact(),
            ..AnalyzeOptions::default()
        };
        let (profiles, _timings) = analyze_buffer_with(&w.program, &buffer, &g, &opts)
            .into_strict()
            .unwrap();
        assert!(
            profiles.iter().all(|p| p.sampling.is_none()),
            "exact config must leave profiles unannotated"
        );
        let analysis = AnalysisResult { profiles, exec };
        let reports: Vec<HierarchyReport> = hs
            .iter()
            .map(|h| report_from_analysis(&analysis, h))
            .collect();
        assert_eq!(
            baseline.profiles,
            analysis.profiles,
            "{}: exact sampling config must be bit-identical to the default path",
            w.program.name()
        );
        assert_eq!(baseline.reports, reports);
    }
}

/// Parses one counter value out of a Prometheus text page (0 when the
/// series is absent — scrapes early in a run may predate first use).
fn prom_value(body: &str, series: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The live telemetry service's identity contract, proved the way the
/// tentpole demands: the full pipeline runs with the aggregator ticking
/// and a scraper hammering `/metrics` + `/healthz` over real sockets the
/// whole time, and (a) every profile and report is bit-identical to the
/// dark run, (b) every mid-run scrape is monotone and bounded by the
/// final totals, and (c) once the pipeline quiesces, a scrape equals the
/// exit exporter's page byte for byte.
#[test]
fn service_enabled_run_is_bit_identical_and_scrapes_reconcile() {
    let hs = hierarchies();
    let ngrains = grains(&hs).len() as u64;
    for w in workloads() {
        let baseline = run_pipeline(&w, &hs);

        let recorder = Arc::new(MetricsRecorder::new());
        let scope = obs::Obs::from(recorder.clone()).enter();
        let mut service = TelemetryService::start(
            recorder.clone(),
            None,
            ServiceConfig {
                tick: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
        );
        let addr = service.serve("127.0.0.1:0").expect("bind ephemeral port");

        let stop = Arc::new(AtomicBool::new(false));
        let (observed, scraped) = std::thread::scope(|s| {
            let scrape_stop = stop.clone();
            let scraper = s.spawn(move || {
                let mut pages = Vec::new();
                while !scrape_stop.load(Ordering::Relaxed) {
                    let (status, page) = http_get(addr, "/metrics").expect("mid-run scrape");
                    assert_eq!(status, 200);
                    pages.push(page);
                    let (status, health) = http_get(addr, "/healthz").expect("mid-run health");
                    assert_eq!(status, 200);
                    assert!(health.starts_with("{\"status\":\"ok\""), "health: {health}");
                }
                pages
            });
            let observed = run_pipeline(&w, &hs);
            stop.store(true, Ordering::Relaxed);
            (observed, scraper.join().expect("scraper thread"))
        });
        drop(scope);

        assert_eq!(
            baseline.profiles,
            observed.profiles,
            "{}: profiles must be bit-identical with the live service scraping",
            w.program.name()
        );
        assert_eq!(
            baseline.reports,
            observed.reports,
            "{}: reports must be bit-identical with the live service scraping",
            w.program.name()
        );
        assert_reconciles(&recorder.snapshot(), &observed, hs.len(), ngrains);

        // Mid-run scrapes never tear: each counter observation is
        // monotone across scrapes and bounded by the final total.
        let final_page = recorder.snapshot().to_prometheus();
        assert!(!scraped.is_empty(), "scraper never got a page in");
        for series in [
            "reuselens_events_decoded_total",
            "reuselens_grains_completed_total",
            "reuselens_events_captured_total",
        ] {
            let final_value = prom_value(&final_page, series);
            let mut last = 0u64;
            for page in &scraped {
                let seen = prom_value(page, series);
                assert!(seen >= last, "{series} regressed mid-run: {seen} < {last}");
                assert!(
                    seen <= final_value,
                    "{series} overshot: {seen} > {final_value}"
                );
                last = seen;
            }
        }

        // Quiesced, the live endpoint and the exit exporter are the same
        // bytes: what a dashboard saw last is what the run wrote down.
        let (status, page) = http_get(addr, "/metrics").expect("post-quiescence scrape");
        assert_eq!(status, 200);
        assert_eq!(
            page,
            final_page,
            "{}: a post-run scrape must equal the exporter page byte for byte",
            w.program.name()
        );
        service.shutdown();
    }
}

/// The JSONL event log tells the same story the counters do: one
/// `grain_started` and one `grain_completed` per grain on the plain
/// path, checkpoint write events matching the checkpoint counter on the
/// checkpointed path, and results bit-identical throughout.
#[test]
fn jsonl_event_log_reconciles_with_counters() {
    let hs = hierarchies();
    let g = grains(&hs);
    let ngrains = g.len() as u64;
    for w in workloads() {
        let baseline = run_pipeline(&w, &hs);

        let recorder = Arc::new(MetricsRecorder::new());
        let log = Arc::new(EventLog::to_vec());
        let scope = obs::Obs {
            events: Some(log.clone()),
            ..recorder.clone().into()
        }
        .enter();
        let observed = run_pipeline(&w, &hs);
        drop(scope);

        assert_eq!(
            baseline.profiles,
            observed.profiles,
            "{}: profiles must be bit-identical with the event log installed",
            w.program.name()
        );
        let captured = log.captured();
        let count = |event: &str| {
            captured
                .lines()
                .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
                .count() as u64
        };
        let snap = recorder.snapshot();
        assert_eq!(count("grain_started"), ngrains);
        assert_eq!(
            count("grain_completed"),
            snap.counter(Counter::GrainsCompleted)
        );
        assert_eq!(count("grain_failed"), 0);
        assert_eq!(log.emitted(), captured.lines().count() as u64);
        for line in captured.lines() {
            assert!(line.starts_with("{\"t_mono_ns\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }

        // Checkpointed path: every snapshot write is logged, and the
        // profiles still match the plain run bit for bit.
        let dir = std::env::temp_dir().join(format!(
            "reuselens-obs-identity-{}-{}",
            std::process::id(),
            w.program
                .name()
                .replace(|c: char| !c.is_alphanumeric(), "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (buffer, _exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
        let every = (buffer.stats().events / 4).max(1);
        let recorder = Arc::new(MetricsRecorder::new());
        let log = Arc::new(EventLog::to_vec());
        let scope = obs::Obs {
            events: Some(log.clone()),
            ..recorder.clone().into()
        }
        .enter();
        let opts = AnalyzeOptions {
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                every,
                resume: false,
            }),
            ..AnalyzeOptions::default()
        };
        let (profiles, _timings) = analyze_buffer_with(&w.program, &buffer, &g, &opts)
            .into_strict()
            .unwrap();
        drop(scope);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            baseline.profiles,
            profiles,
            "{}: checkpointed profiles must stay bit-identical with events on",
            w.program.name()
        );
        let captured = log.captured();
        let count = |event: &str| {
            captured
                .lines()
                .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
                .count() as u64
        };
        let snap = recorder.snapshot();
        assert!(
            snap.counter(Counter::CheckpointsWritten) > 0,
            "{}: interval {every} must force interior checkpoints",
            w.program.name()
        );
        assert_eq!(
            count("checkpoint_written"),
            snap.counter(Counter::CheckpointsWritten)
        );
        assert_eq!(count("grain_started"), ngrains);
        assert_eq!(count("grain_completed"), ngrains);
    }
}

#[test]
fn locality_analysis_counts_reports() {
    let w = build_sweep(&SweepConfig::new(8));
    let h = MemoryHierarchy::itanium2_scaled(16);

    let baseline = run_locality_analysis(&w.program, &h, w.index_arrays.clone()).unwrap();

    let recorder = Arc::new(MetricsRecorder::new());
    let scope = obs::Obs::from(recorder.clone()).enter();
    let observed = run_locality_analysis(&w.program, &h, w.index_arrays.clone()).unwrap();
    drop(scope);

    assert_eq!(baseline.report, observed.report);
    assert_eq!(
        baseline.analysis.profiles, observed.analysis.profiles,
        "locality analysis must be bit-identical with obs enabled"
    );
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(Counter::ReportsGenerated), 1);
    assert_eq!(snap.stage(Stage::Report).count, 1);
    assert_eq!(snap.stage(Stage::Capture).count, 1);
    assert_eq!(snap.counter(Counter::SweepConfigsScored), 1);
}

/// One `TraceStore::get` records exactly one `decode` span — the checked
/// scan of `TraceBuffer::import` — carrying the loaded buffer's event
/// count. perfbench's `store_decode_ns_per_event` divides that span's
/// time by those events.
#[test]
fn store_get_records_one_decode_span_with_the_event_count() {
    let w = build_sweep(&SweepConfig::new(4));
    let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let dir = std::env::temp_dir().join(format!("reuselens-obs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = TraceStore::open(&dir).unwrap();
    let meta = TraceMeta {
        workload: "sweep3d".to_string(),
        grains: vec![64],
    };
    store.put("t", &buffer, meta).unwrap();

    let recorder = Arc::new(MetricsRecorder::new());
    let timeline = Arc::new(Timeline::new());
    let scope = obs::Obs {
        timeline: Some(timeline.clone()),
        ..recorder.clone().into()
    }
    .enter();
    let loaded = store.get("t").unwrap();
    drop(scope);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(loaded.events(), buffer.events());
    assert_eq!(recorder.snapshot().stage(Stage::Decode).count, 1);
    let tsnap = timeline.snapshot();
    let decodes: Vec<_> = tsnap.stage_events(Stage::Decode).collect();
    assert_eq!(decodes.len(), 1);
    assert_eq!(decodes[0].args.events, Some(buffer.events()));
}

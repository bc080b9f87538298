//! The perf-regression bench runner: measures replay throughput on the
//! fixed Sweep3D and GTC workloads at several grain counts and writes the
//! machine-readable `BENCH_reuselens.json` (schema documented in
//! `reuselens_bench::report`).
//!
//! ```text
//! bench-runner [--smoke] [--out <path>] [--baseline <path>]
//! ```
//!
//! * `--smoke` — tiny workloads and one rep per point; exercises the full
//!   measurement and JSON path in ~a second (what `scripts/verify.sh`
//!   runs so the path cannot silently rot).
//! * `--out <path>` — where to write the report (default
//!   `BENCH_reuselens.json` in the current directory).
//! * `--baseline <path>` — also diff against a previous report and exit
//!   nonzero when any throughput line drops more than 15%
//!   ([`REGRESSION_THRESHOLD`](reuselens_bench::report::REGRESSION_THRESHOLD)).
//!
//! Each measured point captures the workload once, then replays the
//! buffer `grains`-ways in parallel under a fresh `MetricsRecorder`
//! (best-of-reps wall), so the report carries the per-stage wall-time
//! breakdown and a counter snapshot alongside the throughput. The
//! obs-overhead ratio (dark replay vs replay under the live telemetry
//! service, scraped over HTTP once per second) and the sampled speedup
//! ratio (exact vs 1/100-sampled replay over the full grain ladder) are
//! measured on the first workload and written into the same report; full
//! runs fail when the overhead ratio exceeds `OBS_OVERHEAD_CEILING`.
//!
//! The **single-grain ladder** (first workload, Sweep3D) replays one
//! grain at 1/2/4/8 replay threads — the intra-grain time-partitioned
//! engine — as `sweep3d-single-t<N>` runs. On a single-core host the
//! thread rungs measure partition overhead rather than scaling.

use reuselens::core::{
    analyze_buffer, analyze_buffer_with, capture_program, AnalyzeOptions, CheckpointOptions,
    ReplayThreads, SamplingConfig,
};
use reuselens::obs::{self, MetricsRecorder, ServiceConfig, TelemetryService};
use reuselens::workloads::{gtc, sweep3d, BuiltWorkload};
use reuselens::statics::estimate_profiles;
use reuselens_bench::report::{
    diff, BenchReport, BenchRun, StageSeconds, CHECKPOINT_OVERHEAD_CEILING,
    ESTIMATOR_SPEEDUP_FLOOR, OBS_OVERHEAD_CEILING, STORE_REPLAY_SPEEDUP_FLOOR,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: bench-runner [--smoke] [--out <path>] [--baseline <path>]";

/// Block sizes grain counts index into: replaying `GRAIN_LADDER[..k]`
/// measures k-way replay parallelism over one shared capture.
const GRAIN_LADDER: [u64; 4] = [64, 256, 4096, 16 * 1024];

struct Options {
    smoke: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        out: PathBuf::from("BENCH_reuselens.json"),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?);
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a path")?));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The fixed workload set: `(name, built workload)`.
fn workloads(smoke: bool) -> Vec<(&'static str, BuiltWorkload)> {
    if smoke {
        vec![
            (
                "sweep3d",
                sweep3d::build(&sweep3d::SweepConfig::new(4).with_timesteps(1)),
            ),
            ("gtc", gtc::build(&gtc::GtcConfig::new(32, 2).with_timesteps(1))),
        ]
    } else {
        vec![
            (
                "sweep3d",
                sweep3d::build(&sweep3d::SweepConfig::new(10).with_timesteps(2)),
            ),
            ("gtc", gtc::build(&gtc::GtcConfig::new(256, 8).with_timesteps(1))),
        ]
    }
}

/// Best-of-`reps` wall time of one multi-grain replay.
fn best_replay_wall(
    program: &reuselens::ir::Program,
    buffer: &reuselens::trace::TraceBuffer,
    grains: &[u64],
    reps: usize,
) -> Duration {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(analyze_buffer(program, buffer, grains).expect("replay"));
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Best-of-`reps` wall time of one replay under explicit options (the
/// single-grain ladder's entry point).
fn best_replay_wall_with(
    program: &reuselens::ir::Program,
    buffer: &reuselens::trace::TraceBuffer,
    grains: &[u64],
    reps: usize,
    opts: &AnalyzeOptions,
) -> Duration {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let result = analyze_buffer_with(program, buffer, grains, opts)
                .into_strict()
                .expect("replay");
            std::hint::black_box(result);
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Best-of-`reps` wall time of the same multi-grain replay through the
/// constant-space sampled analyzer at rate 1/100.
fn best_sampled_replay_wall(
    program: &reuselens::ir::Program,
    buffer: &reuselens::trace::TraceBuffer,
    grains: &[u64],
    reps: usize,
) -> Duration {
    let opts = AnalyzeOptions {
        sampling: SamplingConfig::fixed(0.01),
        ..AnalyzeOptions::default()
    };
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let partial = analyze_buffer_with(program, buffer, grains, &opts);
            assert!(partial.is_complete(), "sampled replay failed");
            std::hint::black_box(partial);
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Best-of-`reps` wall time of the same single-grain serial replay
/// through the crash-safe checkpointed engine, snapshotting four times
/// over the stream — the `checkpoint_overhead_ratio` numerator.
fn best_checkpointed_replay_wall(
    program: &reuselens::ir::Program,
    buffer: &reuselens::trace::TraceBuffer,
    grain: u64,
    reps: usize,
) -> Duration {
    let dir = std::env::temp_dir().join(format!("reuselens-ckpt-bench-{}", std::process::id()));
    let opts = AnalyzeOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            every: (buffer.events() / 4).max(1),
            resume: false,
        }),
        ..AnalyzeOptions::default()
    };
    let wall = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let partial = analyze_buffer_with(program, buffer, &[grain], &opts);
            assert!(partial.is_complete(), "checkpointed replay failed");
            std::hint::black_box(partial);
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO);
    std::fs::remove_dir_all(&dir).ok();
    wall
}

/// The per-stage wall breakdown of one run's snapshot: `sum` over every
/// span and `max` (longest single span — the critical-path figure once
/// partition workers run concurrently).
fn stage_breakdown(snap: &obs::MetricsSnapshot) -> Vec<(String, StageSeconds)> {
    obs::Stage::PIPELINE_ORDER
        .iter()
        .map(|&stage| snap.stage(stage))
        .filter(|stats| stats.count > 0)
        .map(|stats| {
            (
                stats.stage.name().to_string(),
                StageSeconds {
                    sum: stats.total.as_secs_f64(),
                    max: stats.max.as_secs_f64(),
                },
            )
        })
        .collect()
}

/// Folds a snapshot's nonzero counters into the report-wide totals.
fn accumulate_counters(totals: &mut BTreeMap<&'static str, u64>, snap: &obs::MetricsSnapshot) {
    for counter in obs::Counter::ALL {
        let value = snap.counter(counter);
        if value != 0 {
            *totals.entry(counter.name()).or_default() += value;
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let (reps, grain_counts): (usize, &[usize]) =
        if opts.smoke { (1, &[1, 2]) } else { (3, &[1, 2, 4]) };

    let mut report = BenchReport::new();
    let mut counter_totals: BTreeMap<&'static str, u64> = BTreeMap::new();

    for (index, (name, w)) in workloads(opts.smoke).into_iter().enumerate() {
        // Capture once per workload, instrumented so the capture stage and
        // counters land in the report's totals.
        let capture_rec = Arc::new(MetricsRecorder::new());
        obs::install(capture_rec.clone());
        let (buffer, _exec) =
            capture_program(&w.program, w.index_arrays.clone()).expect("capture");
        obs::uninstall();
        accumulate_counters(&mut counter_totals, &capture_rec.snapshot());

        // Warm the page cache / allocator before the measured reps.
        best_replay_wall(&w.program, &buffer, &GRAIN_LADDER[..1], 1);

        for &count in grain_counts {
            let grains = &GRAIN_LADDER[..count];
            let recorder = Arc::new(MetricsRecorder::new());
            obs::install(recorder.clone());
            let wall = best_replay_wall(&w.program, &buffer, grains, reps);
            obs::uninstall();
            let snap = recorder.snapshot();
            accumulate_counters(&mut counter_totals, &snap);
            let stage_seconds = stage_breakdown(&snap);
            let run = BenchRun {
                workload: name.to_string(),
                grains: count as u64,
                events: buffer.events(),
                wall_seconds: wall.as_secs_f64(),
                stage_seconds,
            };
            eprintln!(
                "{name}/{count}: {} events x {count} grains in {:.3} ms ({:.0} ev/s)",
                run.events,
                wall.as_secs_f64() * 1e3,
                run.throughput(),
            );
            report.runs.push(run);
        }

        // Obs overhead on the first workload: the same replay dark and
        // under the full watched-run shape — recorder installed, the
        // telemetry service's aggregator ticking, and an HTTP client
        // scraping `/metrics` once per second — best-of to damp
        // scheduler noise.
        if report.obs_overhead_ratio.is_none() {
            let grains = &GRAIN_LADDER[..2];
            let disabled = best_replay_wall(&w.program, &buffer, grains, reps);
            let recorder = Arc::new(MetricsRecorder::new());
            obs::install(recorder.clone());
            let mut service = TelemetryService::start(recorder, None, ServiceConfig::default());
            let addr = service
                .serve("127.0.0.1:0")
                .expect("bind ephemeral telemetry port");
            let stop = Arc::new(AtomicBool::new(false));
            let scraper_stop = stop.clone();
            let scraper = std::thread::spawn(move || {
                let mut last_scrape: Option<Instant> = None;
                while !scraper_stop.load(Ordering::Relaxed) {
                    if last_scrape.is_none_or(|t| t.elapsed() >= Duration::from_secs(1)) {
                        let _ = obs::http_get(addr, "/metrics");
                        last_scrape = Some(Instant::now());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
            let enabled = best_replay_wall(&w.program, &buffer, grains, reps);
            stop.store(true, Ordering::Relaxed);
            let _ = scraper.join();
            obs::uninstall();
            service.shutdown();
            let ratio = enabled.as_secs_f64() / disabled.as_secs_f64().max(f64::MIN_POSITIVE);
            eprintln!(
                "obs overhead ratio: {ratio:.3}x with the service scraped at 1 Hz \
                 (target <= {OBS_OVERHEAD_CEILING}x on full runs)"
            );
            report.obs_overhead_ratio = Some(ratio);
        }

        // Sampled rung on the first (Sweep3D) workload: the full grain
        // ladder replayed exactly and through the 1/100 sampled analyzer;
        // the ratio is the headline payoff of approximate analysis.
        if report.sampled_speedup_ratio.is_none() {
            let grains = &GRAIN_LADDER[..];
            let exact = best_replay_wall(&w.program, &buffer, grains, reps);
            let sampled = best_sampled_replay_wall(&w.program, &buffer, grains, reps);
            let ratio = exact.as_secs_f64() / sampled.as_secs_f64().max(f64::MIN_POSITIVE);
            eprintln!("sampled speedup ratio: {ratio:.2}x at rate 1/100 (target >= 3x)");
            report.sampled_speedup_ratio = Some(ratio);
        }

        // Single-grain ladder on the first (Sweep3D) workload: one grain
        // replayed at 1/2/4/8 replay threads (see the module docs).
        if index == 0 {
            let grain = GRAIN_LADDER[0];
            for threads in [1usize, 2, 4, 8] {
                let opts = AnalyzeOptions {
                    replay_threads: match threads {
                        1 => ReplayThreads::Serial,
                        n => ReplayThreads::Fixed(n),
                    },
                    ..AnalyzeOptions::default()
                };
                let recorder = Arc::new(MetricsRecorder::new());
                obs::install(recorder.clone());
                let wall = best_replay_wall_with(&w.program, &buffer, &[grain], reps, &opts);
                obs::uninstall();
                let snap = recorder.snapshot();
                accumulate_counters(&mut counter_totals, &snap);
                let run = BenchRun {
                    workload: format!("{name}-single-t{threads}"),
                    grains: 1,
                    events: buffer.events(),
                    wall_seconds: wall.as_secs_f64(),
                    stage_seconds: stage_breakdown(&snap),
                };
                eprintln!(
                    "{name}-single-t{threads}: {:.3} ms ({:.0} ev/s)",
                    wall.as_secs_f64() * 1e3,
                    run.throughput(),
                );
                report.runs.push(run);
            }
        }

        // Estimator rung on the first (Sweep3D) workload: the zero-trace
        // symbolic estimator against the full-trace exact replay it
        // substitutes for, over the same grain set. Replay-only wall (no
        // capture) in the numerator keeps the comparison conservative.
        if report.estimator_speedup_ratio.is_none() {
            let grains = &GRAIN_LADDER[..2];
            let dynamic = best_replay_wall(&w.program, &buffer, grains, reps);
            let estimate = (0..reps.max(1))
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(estimate_profiles(&w.program, &w.index_arrays, grains));
                    t.elapsed()
                })
                .min()
                .unwrap_or(Duration::ZERO);
            let ratio = dynamic.as_secs_f64() / estimate.as_secs_f64().max(f64::MIN_POSITIVE);
            eprintln!(
                "estimator speedup ratio: {ratio:.0}x vs full-trace replay \
                 (target >= {ESTIMATOR_SPEEDUP_FLOOR}x on full runs)"
            );
            report.estimator_speedup_ratio = Some(ratio);
        }

        // Store-reuse rung on the first (Sweep3D) workload: wall time to
        // obtain a replay-ready buffer by capturing from scratch vs by
        // loading the trace persisted in the on-disk store. The replay
        // that follows is bit-identical either way
        // (tests/store_identity.rs), so the acquisition cost is the
        // whole difference between a cold analysis session and one
        // reusing a stored capture. The put() is not timed: persistence
        // happens once, at capture time.
        if report.store_replay_speedup_ratio.is_none() {
            let dir = std::env::temp_dir().join(format!(
                "reuselens-bench-store-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let seeded = reuselens::store::TraceStore::open(&dir).and_then(|mut store| {
                store.put(
                    "bench",
                    &buffer,
                    reuselens::store::TraceMeta {
                        workload: name.to_string(),
                        grains: GRAIN_LADDER[..2].to_vec(),
                    },
                )?;
                Ok(store)
            });
            match seeded {
                Err(e) => eprintln!("store-reuse rung skipped: cannot seed store: {e}"),
                Ok(store) => {
                    let scratch = (0..reps.max(1))
                        .map(|_| {
                            let t = Instant::now();
                            std::hint::black_box(
                                capture_program(&w.program, w.index_arrays.clone())
                                    .expect("bench capture"),
                            );
                            t.elapsed()
                        })
                        .min()
                        .unwrap_or(Duration::ZERO);
                    let reuse = (0..reps.max(1))
                        .map(|_| {
                            let t = Instant::now();
                            std::hint::black_box(
                                store.get("bench").expect("bench store read"),
                            );
                            t.elapsed()
                        })
                        .min()
                        .unwrap_or(Duration::ZERO);
                    let ratio =
                        scratch.as_secs_f64() / reuse.as_secs_f64().max(f64::MIN_POSITIVE);
                    eprintln!(
                        "store replay speedup ratio: {ratio:.2}x vs capture-from-scratch \
                         (target >= {STORE_REPLAY_SPEEDUP_FLOOR}x on full runs)"
                    );
                    report.store_replay_speedup_ratio = Some(ratio);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Checkpoint overhead on the first (Sweep3D) workload: the same
        // single-grain serial replay plain and through the crash-safe
        // checkpointed engine snapshotting four times over the stream.
        if report.checkpoint_overhead_ratio.is_none() {
            let grain = GRAIN_LADDER[0];
            let plain_opts = AnalyzeOptions::default();
            let plain = best_replay_wall_with(&w.program, &buffer, &[grain], reps, &plain_opts);
            let checkpointed = best_checkpointed_replay_wall(&w.program, &buffer, grain, reps);
            let ratio = checkpointed.as_secs_f64() / plain.as_secs_f64().max(f64::MIN_POSITIVE);
            eprintln!(
                "checkpoint overhead ratio: {ratio:.3}x \
                 (target <= {CHECKPOINT_OVERHEAD_CEILING}x on full runs)"
            );
            report.checkpoint_overhead_ratio = Some(ratio);
        }
    }

    report.counters = counter_totals
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();

    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("cannot write {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} (overall {:.0} ev/s)",
        opts.out.display(),
        report.throughput()
    );

    // Absolute acceptance bars, full runs only: smoke workloads are too
    // small for the serial-core gains to dominate fixed costs (and for
    // per-snapshot costs to amortize), so smoke records the ratios
    // without gating on them.
    if !opts.smoke {
        if let Some(ratio) = report.obs_overhead_ratio {
            if ratio > OBS_OVERHEAD_CEILING {
                eprintln!(
                    "obs overhead {ratio:.3}x is above the {OBS_OVERHEAD_CEILING}x ceiling"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(ratio) = report.checkpoint_overhead_ratio {
            if ratio > CHECKPOINT_OVERHEAD_CEILING {
                eprintln!(
                    "checkpoint overhead {ratio:.3}x is above the \
                     {CHECKPOINT_OVERHEAD_CEILING}x ceiling"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(ratio) = report.estimator_speedup_ratio {
            if ratio < ESTIMATOR_SPEEDUP_FLOOR {
                eprintln!(
                    "estimator speedup {ratio:.0}x is below the \
                     {ESTIMATOR_SPEEDUP_FLOOR}x floor"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(ratio) = report.store_replay_speedup_ratio {
            if ratio < STORE_REPLAY_SPEEDUP_FLOOR {
                eprintln!(
                    "store replay speedup {ratio:.2}x is below the \
                     {STORE_REPLAY_SPEEDUP_FLOOR}x floor"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(baseline_path) = &opts.baseline {
        let baseline = match std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text))
        {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let outcome = diff(&baseline, &report);
        print!("{}", outcome.render());
        if outcome.regressed {
            eprintln!("throughput regressed more than 15% against the baseline");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

//! The per-layer bench runner: measures every pipeline layer on one
//! captured Sweep3D trace, capture, decode, store load and the analyzer
//! core (exact and sampled replay) on GTC too, plus grain and
//! observability ladders over Sweep3D and GTC, and writes the
//! machine-readable
//! `BENCH_reuselens.json` (schema documented in `reuselens_bench::report`).
//!
//! ```text
//! bench-runner [--smoke] [--out <path>] [--baseline <path>]
//! ```
//!
//! * `--smoke` — tiny workloads and one sample of one iteration per point;
//!   exercises the full measurement and JSON path in well under a second.
//! * `--out <path>` — where to write the report (default
//!   `BENCH_reuselens.json` in the current directory).
//! * `--baseline <path>` — also diff against a previous v2 report and
//!   exit nonzero when any row's median worsens by more than max(15%,
//!   3 × its baseline MAD) ([`diff`]).
//!
//! One sampler measures every point. It takes [`SAMPLES`] samples of each
//! leg, interleaving the legs of one point (in reverse order every other
//! round) so that host drift hits both sides of a ratio alike. A sample
//! starts with one untimed iteration, then repeats its leg's body until
//! it has lasted [`MIN_SAMPLE`], under a fresh `Obs` scope with its own
//! recorder. A per-layer row is that sample's stage-span total divided
//! by its work counter, the formula perfbench's per-layer metrics use;
//! the store's `put` and whole-`get` rows are wall time per event, and
//! ladder rows are wall time per iteration. The observability legs
//! replay dark (an empty scope) and lit (the recorder that the live
//! telemetry service aggregates, with `/metrics` scraped once per
//! second). Each row reports the median and MAD of its samples.
//!
//! Full runs exit nonzero when a gated ratio of
//! [`RATIOS`](reuselens_bench::report::RATIOS) misses its bar; smoke
//! workloads are too small for fixed costs to amortize, so smoke records
//! the ratios without gating on them.

use reuselens::cache::MemoryHierarchy;
use reuselens::core::{
    analyze_buffer, analyze_buffer_with, capture_program, AnalysisResult, AnalyzeOptions,
    CheckpointOptions, SamplingConfig,
};
use reuselens::ir::Program;
use reuselens::metrics::attribute_analysis;
use reuselens::obs::{
    self, Counter, MetricsRecorder, MetricsSnapshot, Obs, ServiceConfig, Stage, TelemetryService,
};
use reuselens::statics::estimate_profiles;
use reuselens::store::{TraceMeta, TraceStore};
use reuselens::trace::{DecodedTrace, ExecReport, NullSink, StepSource, TraceBuffer};
use reuselens::workloads::{gtc, sweep3d, BuiltWorkload};
use reuselens_bench::report::{diff, BenchReport, Better, Row};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: bench-runner [--smoke] [--out <path>] [--baseline <path>]";

/// Block sizes grain counts index into: replaying `GRAIN_LADDER[..k]`
/// measures k-way replay parallelism over one shared capture.
const GRAIN_LADDER: [u64; 4] = [64, 256, 4096, 16 * 1024];

/// Samples per point on full runs.
const SAMPLES: usize = 7;

/// Shortest sample on full runs: long enough that timer resolution and
/// one-off stalls do not dominate a sample.
const MIN_SAMPLE: Duration = Duration::from_millis(200);

/// Capacity divisors of the Itanium2 hierarchies the scoring point
/// scores, as perfbench's sweep does.
const SCALES: [u64; 3] = [16, 32, 64];

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

/// The fixed workload set: `(name, built workload)`. The first one gets
/// the per-layer, thread and observability points.
fn workloads(smoke: bool) -> Vec<(&'static str, BuiltWorkload)> {
    if smoke {
        vec![
            (
                "sweep3d",
                sweep3d::build(&sweep3d::SweepConfig::new(4).with_timesteps(1)),
            ),
            (
                "gtc",
                gtc::build(&gtc::GtcConfig::new(32, 2).with_timesteps(1)),
            ),
        ]
    } else {
        vec![
            (
                "sweep3d",
                sweep3d::build(&sweep3d::SweepConfig::new(10).with_timesteps(2)),
            ),
            (
                "gtc",
                gtc::build(&gtc::GtcConfig::new(256, 8).with_timesteps(1)),
            ),
        ]
    }
}

/// One configuration a point measures: the body one iteration runs, and
/// the handle its samples run under (`None`: a fresh recorder each).
struct Leg<'a> {
    obs: Option<Obs>,
    body: Box<dyn FnMut() + 'a>,
}

impl<'a> Leg<'a> {
    fn new(body: impl FnMut() + 'a) -> Leg<'a> {
        Leg {
            obs: None,
            body: Box::new(body),
        }
    }

    fn under(obs: Obs, body: impl FnMut() + 'a) -> Leg<'a> {
        Leg {
            obs: Some(obs),
            body: Box::new(body),
        }
    }
}

/// What one sample of one leg measured.
struct Sample {
    iters: u64,
    wall: Duration,
    /// The sample's own recorder, for legs without a given handle.
    snap: Option<MetricsSnapshot>,
}

impl Sample {
    fn snap(&self) -> &MetricsSnapshot {
        self.snap
            .as_ref()
            .expect("span rows need a leg with its own recorder")
    }

    fn counter(&self, counter: Counter) -> u64 {
        self.snap().counter(counter)
    }

    /// `stage`'s span time in nanoseconds per unit of `work`.
    fn ns_per(&self, stage: Stage, work: u64) -> f64 {
        self.snap().stage(stage).total.as_nanos() as f64 / work.max(1) as f64
    }

    fn ms_per_iter(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3 / self.iters as f64
    }
}

/// The sampler and what it has measured so far.
struct Runner {
    samples: usize,
    min_sample: Duration,
    rows: Vec<Row>,
    counters: BTreeMap<&'static str, u64>,
}

impl Runner {
    /// Samples every leg, interleaved, and returns each leg's samples.
    fn measure<const N: usize>(&mut self, mut legs: [Leg; N]) -> [Vec<Sample>; N] {
        let mut out: [Vec<Sample>; N] = std::array::from_fn(|_| Vec::new());
        for round in 0..self.samples {
            for k in 0..N {
                // Odd rounds run the legs in reverse, so no leg always
                // runs first or always follows the same neighbour.
                let i = if round % 2 == 0 { k } else { N - 1 - k };
                let leg = &mut legs[i];
                // One untimed, unrecorded iteration first: without it
                // the same replay read about 15% slower when it ran
                // first in a round than later (smoke skips it).
                if !self.min_sample.is_zero() {
                    (leg.body)();
                }
                let recorder = Arc::new(MetricsRecorder::new());
                let scope = leg
                    .obs
                    .clone()
                    .unwrap_or_else(|| recorder.clone().into())
                    .enter();
                let start = Instant::now();
                let mut iters = 0;
                while iters == 0 || start.elapsed() < self.min_sample {
                    (leg.body)();
                    iters += 1;
                }
                let wall = start.elapsed();
                drop(scope);
                let snap = leg.obs.is_none().then(|| recorder.snapshot());
                if let Some(snap) = &snap {
                    for counter in Counter::ALL {
                        let value = snap.counter(counter);
                        if value != 0 {
                            *self.counters.entry(counter.name()).or_default() += value;
                        }
                    }
                }
                out[i].push(Sample { iters, wall, snap });
            }
        }
        out
    }

    /// Adds a lower-is-better row of `value` over `samples` and prints it
    /// with its shortest sample.
    fn row(&mut self, name: &str, unit: &str, samples: &[Sample], value: impl Fn(&Sample) -> f64) {
        let values: Vec<f64> = samples.iter().map(value).collect();
        let row = Row::from_samples(name, unit, Better::Lower, &values);
        let shortest = samples.iter().map(|s| s.wall).min().unwrap_or_default();
        let iters = samples.iter().map(|s| s.iters).min().unwrap_or_default();
        eprintln!(
            "{name:<32} {:>12.3} ± {:<9.3} {unit:<2}  {} samples, shortest {:.0} ms, fewest iters {iters}",
            row.median,
            row.mad,
            row.samples,
            shortest.as_secs_f64() * 1e3,
        );
        self.rows.push(row);
    }

    /// Measures `body` alone as a row of wall milliseconds per iteration.
    fn wall_row(&mut self, name: &str, body: impl FnMut()) {
        let [samples] = self.measure([Leg::new(body)]);
        self.row(name, "ms", &samples, Sample::ms_per_iter);
    }
}

/// A replay leg body: `grains` of `trace` (a buffer, or its decoded form
/// as the daemon's resident replays use) under `opts`, which must
/// complete.
fn replay<'a, T: Into<StepSource<'a>> + Copy + 'a>(
    program: &'a Program,
    trace: T,
    grains: &'a [u64],
    opts: AnalyzeOptions,
) -> impl FnMut() + 'a {
    move || {
        let partial = analyze_buffer_with(program, trace, grains, &opts);
        assert!(partial.is_complete(), "replay failed");
        black_box(partial);
    }
}

/// A capture leg body: `w` interpreted once into a fresh buffer.
fn capture(w: &BuiltWorkload) -> impl FnMut() + '_ {
    move || {
        black_box(capture_program(&w.program, w.index_arrays.clone()).expect("capture"));
    }
}

/// A decode leg body: the replay decode loop alone, into a sink that
/// discards (the denominator of the analyzer core's per-event cost).
fn decode(buffer: &TraceBuffer) -> impl FnMut() + '_ {
    move || {
        let _span = obs::span(Stage::Decode);
        buffer.replay(&mut NullSink);
    }
}

/// A store in a fresh directory `dir` holding `buffer` as `"bench"`,
/// and the metadata it was put with.
fn seeded_store(dir: PathBuf, name: &str, buffer: &TraceBuffer) -> (TraceStore, TraceMeta) {
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = TraceStore::open(dir).expect("open bench store");
    let meta = TraceMeta {
        workload: name.to_string(),
        grains: GRAIN_LADDER[..1].to_vec(),
    };
    store
        .put("bench", buffer, meta.clone())
        .expect("seed bench store");
    (store, meta)
}

/// A scratch directory of this process under the temp dir.
fn scratch_dir(what: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reuselens-bench-{what}-{}", std::process::id()))
}

/// Capture span time per captured event.
fn capture_ns(s: &Sample) -> f64 {
    s.ns_per(Stage::Capture, s.counter(Counter::EventsCaptured))
}

/// Decode span time per decoded event.
fn decode_ns(s: &Sample) -> f64 {
    s.ns_per(Stage::Decode, s.counter(Counter::EventsDecoded))
}

/// Replay span time per decoded event.
fn replay_ns(s: &Sample) -> f64 {
    s.ns_per(Stage::Replay, s.counter(Counter::EventsDecoded))
}

/// Wall time per event of a trace of `events` events.
fn wall_ns_per_event(events: u64) -> impl Fn(&Sample) -> f64 {
    move |s| s.wall.as_nanos() as f64 / (s.iters * events) as f64
}

/// Fixed-rate sampling at 1/100, the sampled replay rows' setting.
fn sampled_one_percent() -> AnalyzeOptions {
    AnalyzeOptions {
        sampling: SamplingConfig::fixed(0.01),
        ..AnalyzeOptions::default()
    }
}

/// The per-layer rows, on one captured trace of `w` and the execution
/// report of its capture.
fn layer_rows(
    r: &mut Runner,
    name: &str,
    w: &BuiltWorkload,
    buffer: &TraceBuffer,
    exec: ExecReport,
) {
    let program = &w.program;
    let events = buffer.events();

    // Capture, store `get`, and store `put` (with the `evict` that lets
    // the next iteration put again), interleaved: capture over the
    // `get`'s import is the store ratio.
    let dir = scratch_dir("store");
    let (store, meta) = seeded_store(dir.join("get"), name, buffer);
    let mut put_store = TraceStore::open(dir.join("put")).expect("open bench store");
    let [captured, load, put] = r.measure([
        Leg::new(capture(w)),
        Leg::new(|| {
            black_box(store.get("bench").expect("store get"));
        }),
        Leg::new(|| {
            put_store
                .put("bench", buffer, meta.clone())
                .expect("store put");
            put_store.evict("bench").expect("store evict");
        }),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    r.row("capture_ns_per_event", "ns", &captured, capture_ns);
    r.row("store_decode_ns_per_event", "ns", &load, |s| {
        s.ns_per(Stage::Decode, s.iters * events)
    });
    r.row(
        "store_get_ns_per_event",
        "ns",
        &load,
        wall_ns_per_event(events),
    );
    r.row(
        "store_put_ns_per_event",
        "ns",
        &put,
        wall_ns_per_event(events),
    );

    let [decoded] = r.measure([Leg::new(decode(buffer))]);
    r.row("decode_ns_per_event", "ns", &decoded, decode_ns);

    // One serial grain exact, sampled at 1/100, checkpointed four times
    // over the stream, and exact again from the trace's decoded form (the
    // daemon's resident replays), interleaved: the replay ratios' legs.
    let one_grain = &GRAIN_LADDER[..1];
    let ckpt_dir =
        std::env::temp_dir().join(format!("reuselens-bench-ckpt-{}", std::process::id()));
    let checkpointed = AnalyzeOptions {
        checkpoint: Some(CheckpointOptions {
            dir: ckpt_dir.clone(),
            every: (events / 4).max(1),
            resume: false,
        }),
        ..AnalyzeOptions::default()
    };
    let decoded = DecodedTrace::new(buffer);
    let [exact, sampled, checkpointed, from_decoded] = r.measure([
        Leg::new(replay(
            program,
            buffer,
            one_grain,
            AnalyzeOptions::default(),
        )),
        Leg::new(replay(program, buffer, one_grain, sampled_one_percent())),
        Leg::new(replay(program, buffer, one_grain, checkpointed)),
        Leg::new(replay(
            program,
            &decoded,
            one_grain,
            AnalyzeOptions::default(),
        )),
    ]);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    r.row("replay_ns_per_event", "ns", &exact, replay_ns);
    r.row("replay_us_per_grain", "us", &exact, |s| {
        s.ns_per(Stage::Replay, s.counter(Counter::GrainsCompleted)) / 1e3
    });
    r.row("sampled_replay_ns_per_event", "ns", &sampled, replay_ns);
    r.row(
        "decoded_replay_ns_per_event",
        "ns",
        &from_decoded,
        replay_ns,
    );
    r.row(
        "checkpoint_replay_ns_per_event",
        "ns",
        &checkpointed,
        replay_ns,
    );
    r.row("checkpoint_us_per_snapshot", "us", &checkpointed, |s| {
        s.ns_per(Stage::Checkpoint, s.snap().stage(Stage::Checkpoint).count) / 1e3
    });

    let [estimate] = r.measure([Leg::new(|| {
        black_box(estimate_profiles(program, &w.index_arrays, one_grain));
    })]);
    r.row("estimate_us_per_call", "us", &estimate, |s| {
        s.ns_per(Stage::Estimate, s.snap().stage(Stage::Estimate).count) / 1e3
    });

    // Scoring and attribution reports against three hierarchies, from
    // profiles replayed once at the grains they need.
    let hierarchies = SCALES.map(MemoryHierarchy::itanium2_scaled);
    let grains = hierarchies[0].required_granularities();
    let (profiles, _) = analyze_buffer(program, buffer, &grains).expect("replay");
    let analysis = AnalysisResult { profiles, exec };
    let [scoring] = r.measure([Leg::new(|| {
        for hierarchy in &hierarchies {
            black_box(attribute_analysis(program, hierarchy, analysis.clone()));
        }
    })]);
    r.row("sweep_us_per_config", "us", &scoring, |s| {
        s.ns_per(Stage::Sweep, s.counter(Counter::SweepConfigsScored)) / 1e3
    });
    r.row("report_us_per_report", "us", &scoring, |s| {
        s.ns_per(Stage::Report, s.counter(Counter::ReportsGenerated)) / 1e3
    });
}

/// GTC's irregular stream through each layer, interleaved as one point:
/// the analyzer core (one 64 B grain exact from the trace's decoded form
/// and sampled at 1/100 from the buffer), capture, the replay decode
/// loop, and a store `get`.
fn gtc_rows(r: &mut Runner, name: &str, w: &BuiltWorkload, buffer: &TraceBuffer) {
    let one_grain = &GRAIN_LADDER[..1];
    let decoded = DecodedTrace::new(buffer);
    let dir = scratch_dir("gtc-store");
    let (store, _) = seeded_store(dir.clone(), name, buffer);
    let [exact, sampled, captured, decoding, load] = r.measure([
        Leg::new(replay(
            &w.program,
            &decoded,
            one_grain,
            AnalyzeOptions::default(),
        )),
        Leg::new(replay(&w.program, buffer, one_grain, sampled_one_percent())),
        Leg::new(capture(w)),
        Leg::new(decode(buffer)),
        Leg::new(|| {
            black_box(store.get("bench").expect("store get"));
        }),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    r.row("gtc_decoded_replay_ns_per_event", "ns", &exact, replay_ns);
    r.row("gtc_sampled_replay_ns_per_event", "ns", &sampled, replay_ns);
    r.row("gtc_capture_ns_per_event", "ns", &captured, capture_ns);
    r.row("gtc_decode_ns_per_event", "ns", &decoding, decode_ns);
    r.row(
        "gtc_store_get_ns_per_event",
        "ns",
        &load,
        wall_ns_per_event(buffer.events()),
    );
}

/// The first `count` grains of the ladder replayed in parallel, one rung
/// per count.
fn grain_rows(
    r: &mut Runner,
    name: &str,
    w: &BuiltWorkload,
    buffer: &TraceBuffer,
    counts: &[usize],
) {
    for &count in counts {
        let leg = replay(
            &w.program,
            buffer,
            &GRAIN_LADDER[..count],
            AnalyzeOptions::default(),
        );
        r.wall_row(&format!("{name}_grains{count}_ms"), leg);
    }
}

/// Two grains replayed dark and lit: with a recorder in scope that the
/// live telemetry service aggregates while a client scrapes `/metrics`
/// once per second, the shape of a watched run.
fn obs_rows(r: &mut Runner, w: &BuiltWorkload, buffer: &TraceBuffer) {
    let recorder = Arc::new(MetricsRecorder::new());
    let lit = Obs::from(recorder.clone());
    // The service's threads enter the scope it starts in: the lit one.
    let mut service = {
        let _scope = lit.enter();
        TelemetryService::start(recorder, None, ServiceConfig::default())
    };
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
    let grains = &GRAIN_LADDER[..2];
    let [dark, lit] = r.measure([
        Leg::under(
            Obs::default(),
            replay(&w.program, buffer, grains, AnalyzeOptions::default()),
        ),
        Leg::under(
            lit,
            replay(&w.program, buffer, grains, AnalyzeOptions::default()),
        ),
    ]);
    stop.store(true, Ordering::Relaxed);
    let _ = scraper.join();
    service.shutdown();
    r.row("obs_dark_replay_ms", "ms", &dark, Sample::ms_per_iter);
    r.row("obs_lit_replay_ms", "ms", &lit, Sample::ms_per_iter);
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (samples, min_sample, grain_counts): (usize, Duration, &[usize]) = if opts.smoke {
        (1, Duration::ZERO, &[1, 2])
    } else {
        (SAMPLES, MIN_SAMPLE, &[1, 2, 4])
    };
    let mut runner = Runner {
        samples,
        min_sample,
        rows: Vec::new(),
        counters: BTreeMap::new(),
    };
    eprintln!("available parallelism: {parallelism}");

    for (index, (name, w)) in workloads(opts.smoke).iter().enumerate() {
        let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).expect("capture");
        eprintln!("{name}: {} events captured", buffer.events());
        if index == 0 {
            layer_rows(&mut runner, name, w, &buffer, exec);
            obs_rows(&mut runner, w, &buffer);
        }
        if *name == "gtc" {
            gtc_rows(&mut runner, name, w, &buffer);
        }
        grain_rows(&mut runner, name, w, &buffer, grain_counts);
    }

    let report = BenchReport {
        available_parallelism: parallelism as u64,
        rows: runner.rows,
        counters: runner
            .counters
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    };
    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("cannot write {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", opts.out.display());

    let mut failed = false;
    for ratio in report.ratios() {
        let spec = ratio.spec;
        let op = match spec.better {
            Better::Lower => "<=",
            Better::Higher => ">=",
        };
        let verdict = if ratio.passes() {
            "ok"
        } else if spec.gated && !opts.smoke {
            failed = true;
            "FAILED"
        } else {
            "missed (not gated)"
        };
        eprintln!(
            "{:<28} {:>9.3}x  bar {op} {}x  {verdict}",
            spec.name, ratio.value, spec.bar
        );
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
            eprintln!("a row regressed beyond max(15%, 3 x MAD) against the baseline");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

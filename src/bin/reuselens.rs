//! The `reuselens` command-line tool: run the locality analysis on the
//! built-in workload models and print any of the paper's report views.
//!
//! ```text
//! reuselens sweep3d --mesh 16 --report carried
//! reuselens sweep3d --mesh 12 --block 6 --dim-ic --report summary
//! reuselens gtc --mgrid 512 --micell 16 --report frag
//! reuselens gtc --variant 6 --report advice
//! reuselens kernel fig1a --report advice
//! reuselens kernel fig2 --report spatial
//! ```
//!
//! `--scale S` divides the Itanium2 hierarchy capacities by `S`
//! (default 16, matching the CI-sized default workloads; use `--scale 1`
//! with larger sizes for full-scale runs). `--report xml` dumps the
//! hpcviewer-style database to stdout.
//!
//! The paper's train-then-predict workflow:
//!
//! ```text
//! reuselens sweep3d --mesh 8  --save-profile m8.rlp
//! reuselens sweep3d --mesh 10 --save-profile m10.rlp
//! reuselens sweep3d --mesh 12 --save-profile m12.rlp
//! reuselens predict --at 16 --level L2 m8.rlp m10.rlp m12.rlp
//! ```

use reuselens::advisor::{describe, detect_time_loops, Advisor};
use reuselens::cache::MemoryHierarchy;
use reuselens::cache::{miss_curve, predict_level};
use reuselens::core::{
    measure_spatial, read_profiles, write_profiles, AnalyzeOptions, CheckpointOptions,
    ContextAnalyzer, ReplayThreads, SamplingConfig, SavedProfiles,
};
use reuselens::model::ProfileModel;
use reuselens::ir::Program;
use reuselens::obs::{self, MetricsRecorder};
use reuselens::metrics::{
    format_array_breakdown, format_carried_misses, format_fragmentation, format_pattern_db,
    format_spatial, format_summary, run_locality_analysis_opts, run_locality_estimate, to_xml,
    LocalityAnalysis,
};
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig, GtcTransforms};
use reuselens::workloads::kernels;
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use std::process::ExitCode;

const USAGE: &str = "\
reuselens — reuse-distance data-locality analysis (ISPASS 2008 reproduction)

USAGE:
    reuselens <WORKLOAD> [OPTIONS] [--report <VIEW>]

WORKLOADS:
    sweep3d     the wavefront transport kernel (paper §V-A)
        --mesh <N>         cubic mesh extent        [default: 12]
        --block <B>        angle-blocking factor    [default: 1]
        --dim-ic           interchange src/flux dimensions
        --octant-inner     Ding & Zhong-style octant restructuring (§VI)
        --timesteps <T>    simulated time steps     [default: 1]
    gtc         the particle-in-cell kernel (paper §V-B)
        --mgrid <N>        grid points              [default: 512]
        --micell <M>       particles per cell       [default: 16]
        --variant <0..6>   cumulative transformations (paper Fig. 11 legend)
        --timesteps <T>    simulated time steps     [default: 1]
    kernel <NAME>
        fig1a | fig1b | fig2 | stream | gather | stencil |
        matmul | matmul-tiled | transpose
    predict     fit the scaling model on saved profiles, predict a new size
        --at <N>           problem size to predict    (required)
        --level <L>        cache level                [default: L2]
        <FILES...>         profiles saved with --save-profile
    serve       analysis daemon over an on-disk trace store (DESIGN §4.15)
        --store <DIR>      trace-store directory      (required)
        --listen <ADDR>    accept NDJSON requests over TCP ('127.0.0.1:0'
                           picks a free port; the bound address prints
                           to stderr)
        --stdin            read NDJSON requests from stdin, answer on
                           stdout in request order; exits at EOF
        --workers <N>      job worker threads         [default: 2]
        --queue <N>        queued jobs before 'overloaded' rejections
                                                      [default: 16]
        --scale <S>        capacity divisor for estimate jobs
                                                      [default: 16]
        --serve-metrics <ADDR>  HTTP telemetry with a daemon /jobs
                           endpoint alongside /metrics and /healthz
        --log-jsonl <PATH> append job lifecycle events as JSONL

COMMON OPTIONS:
    --scale <S>     divide Itanium2 capacities by S   [default: 16]
    --report <V>    summary | carried | breakdown=<array> | frag |
                    patterns | patterns-csv | advice | spatial | curve |
                    contexts | program | xml
                                                       [default: summary]
    --level <L>     level for patterns/advice/breakdown [default: L2]
    --predict-static  skip tracing entirely: derive the reuse profiles
                    symbolically from the loop nest (zero trace events)
                    and feed the same report views. Prints how many
                    references the estimator covered vs how many fell
                    back to the indirect-access model. Accuracy bands
                    are enforced by tests/static_vs_dynamic.rs
    --sample-rate <R>  approximate analysis: replay through the
                    constant-space sampled analyzer. R is a rate in
                    (0, 1] (e.g. 0.01), or 'auto:<budget>' to adapt the
                    rate so at most <budget> blocks are tracked. Reported
                    counts become scaled estimates; omit for exact output
    --replay-threads <N|auto>  split each grain's replay across N
                    time-partition workers ('auto' = one per core) and
                    stitch the results — bit-identical to serial replay,
                    faster on large traces. Ignored for adaptive
                    sampling, which is inherently sequential
    --checkpoint-dir <DIR>  crash-safe analysis: snapshot each grain's
                    analyzer state into DIR so an interrupted run can be
                    resumed. Results are bit-identical to a plain run
    --checkpoint-every <N>  events between snapshots   [default: 1000000]
    --resume        continue from the newest valid snapshot in
                    --checkpoint-dir instead of replaying from the start
    --metrics <PATH> write pipeline metrics (Prometheus text) to PATH
                    ('-' for stdout) and print a per-stage timing
                    footer to stderr
    --trace-timeline <PATH>  write a Chrome trace-event timeline of the
                    pipeline's spans to PATH ('-' for stdout); open in
                    chrome://tracing or https://ui.perfetto.dev
    --serve-metrics <ADDR>  serve live telemetry over HTTP while the run
                    is in flight ('127.0.0.1:0' picks a free port; the
                    bound address is printed to stderr). Endpoints:
                    GET /metrics (Prometheus text), GET /healthz
                    (JSON progress/rates/ETA), GET /timeline (Chrome
                    trace of the live span ring, with --trace-timeline)
    --heartbeat <SECS>  print a one-line progress heartbeat to stderr
                    every SECS seconds (fractions allowed) while the
                    run is in flight
    --log-jsonl <PATH>  append structured JSONL events (grain lifecycle,
                    checkpoints, partition stitches, sampling drops,
                    heartbeats) to PATH ('-' for stderr)
    --save-profile <PATH>   save the measured reuse profiles for `predict`
    --size <N>      problem-size tag stored with --save-profile

EXAMPLES:
    reuselens sweep3d --mesh 16 --report carried
    reuselens gtc --report frag
    reuselens kernel fig1a --report advice
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    let flag_value = |key: &str| {
        args.windows(2)
            .find(|w| w[0] == key)
            .map(|w| w[1].clone())
    };
    let metrics_target = flag_value("--metrics");
    let timeline_target = flag_value("--trace-timeline");
    let serve_addr = flag_value("--serve-metrics");
    let heartbeat = match flag_value("--heartbeat").as_deref().map(str::parse::<f64>) {
        None => None,
        Some(Ok(secs)) if secs > 0.0 && secs.is_finite() => {
            Some(std::time::Duration::from_secs_f64(secs))
        }
        Some(_) => {
            eprintln!("error: --heartbeat takes a positive number of seconds");
            return ExitCode::FAILURE;
        }
    };
    let log_target = flag_value("--log-jsonl");
    // The live service and the heartbeat both read from a recorder, so
    // either flag provisions one even without `--metrics`.
    let recorder = (metrics_target.is_some() || serve_addr.is_some() || heartbeat.is_some())
        .then(|| {
            let r = std::sync::Arc::new(MetricsRecorder::new());
            obs::install(r.clone());
            r
        });
    let timeline = timeline_target.as_ref().map(|_| {
        let t = std::sync::Arc::new(obs::Timeline::new());
        obs::install_timeline(t.clone());
        t
    });
    let events = match &log_target {
        None => None,
        Some(target) => {
            let log = if target == "-" {
                obs::EventLog::stderr()
            } else {
                match obs::EventLog::create(std::path::Path::new(target)) {
                    Ok(log) => log,
                    Err(e) => {
                        eprintln!("error: cannot create event log {target}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let log = std::sync::Arc::new(log);
            obs::install_events(log.clone());
            Some(log)
        }
    };
    obs::emit(obs::EventKind::RunStarted {
        command: args.join(" "),
    });
    let service = recorder.as_ref().and_then(|r| {
        if serve_addr.is_none() && heartbeat.is_none() {
            return None;
        }
        let mut service = obs::TelemetryService::start(
            r.clone(),
            timeline.clone(),
            obs::ServiceConfig {
                heartbeat,
                ..obs::ServiceConfig::default()
            },
        );
        if let Some(addr) = &serve_addr {
            match service.serve(addr) {
                Ok(bound) => eprintln!("serving telemetry on http://{bound}/"),
                Err(e) => {
                    eprintln!("error: cannot serve telemetry on {addr}: {e}");
                    return None;
                }
            }
        }
        Some(service)
    });
    if serve_addr.is_some() && service.is_none() {
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    obs::emit(obs::EventKind::RunFinished {
        ok: result.is_ok(),
    });
    if let Some(service) = service {
        service.shutdown();
    }
    if let Some(events) = &events {
        obs::uninstall_events();
        if events.write_errors() > 0 {
            eprintln!(
                "warning: {} event-log write(s) failed",
                events.write_errors()
            );
        }
    }
    if recorder.is_some() {
        obs::uninstall();
    }
    if let (Some(target), Some(recorder)) = (&metrics_target, &recorder) {
        let snapshot = recorder.snapshot();
        eprint!("{}", snapshot.to_summary());
        let text = snapshot.to_prometheus();
        if target == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(target, text) {
            eprintln!("error: cannot write metrics to {target}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(target), Some(timeline)) = (&timeline_target, &timeline) {
        obs::uninstall_timeline();
        let snapshot = timeline.snapshot();
        eprintln!(
            "timeline: {} events, {} dropped",
            snapshot.events.len(),
            snapshot.dropped
        );
        let text = snapshot.to_chrome_trace();
        if target == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(target, text) {
            eprintln!("error: cannot write timeline to {target}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `reuselens serve`: start the analysis daemon over a trace store and
/// answer NDJSON jobs on TCP, stdin, or both (DESIGN §4.15).
fn run_serve(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    let fail = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        eprintln!("\n{USAGE}");
        ExitCode::FAILURE
    };
    let Some(store_dir) = flags.value("--store") else {
        return fail("serve requires --store <DIR>".into());
    };
    let listen = flags.value("--listen");
    let use_stdin = flags.flag("--stdin");
    if listen.is_none() && !use_stdin {
        return fail("serve needs --listen <ADDR>, --stdin, or both".into());
    }
    let workers = match flags.parsed("--workers", 2usize) {
        Ok(n) if n >= 1 => n,
        Ok(_) => return fail("--workers must be at least 1".into()),
        Err(e) => return fail(e),
    };
    let queue = match flags.parsed("--queue", 16usize) {
        Ok(n) if n >= 1 => n,
        Ok(_) => return fail("--queue must be at least 1".into()),
        Err(e) => return fail(e),
    };
    let scale = match flags.parsed("--scale", 16u64) {
        Ok(s) if s >= 1 => s,
        Ok(_) => return fail("--scale must be at least 1".into()),
        Err(e) => return fail(e),
    };
    // Counters/gauges and the JSONL event stream reconcile against the
    // daemon's completion records, so the recorder is always on.
    let recorder = std::sync::Arc::new(MetricsRecorder::new());
    obs::install(recorder.clone());
    let events = match flags.value("--log-jsonl") {
        None => None,
        Some(target) => {
            let log = if target == "-" {
                obs::EventLog::stderr()
            } else {
                match obs::EventLog::create(std::path::Path::new(target)) {
                    Ok(log) => log,
                    Err(e) => return fail(format!("cannot create event log {target}: {e}")),
                }
            };
            let log = std::sync::Arc::new(log);
            obs::install_events(log.clone());
            Some(log)
        }
    };
    obs::emit(obs::EventKind::RunStarted {
        command: std::iter::once("serve")
            .chain(args.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" "),
    });
    let mut config = reuselens::serve::DaemonConfig::new(store_dir);
    config.workers = workers;
    config.queue = queue;
    config.scale = scale;
    let daemon = match reuselens::serve::Daemon::start(config) {
        Ok(daemon) => std::sync::Arc::new(daemon),
        Err(e) => return fail(format!("cannot open store {store_dir}: {e}")),
    };
    let service = match flags.value("--serve-metrics") {
        None => None,
        Some(addr) => {
            let mut service = obs::TelemetryService::start(
                recorder.clone(),
                None,
                obs::ServiceConfig {
                    jobs: Some(daemon.jobs_callback()),
                    ..obs::ServiceConfig::default()
                },
            );
            match service.serve(addr) {
                Ok(bound) => eprintln!("serving telemetry on http://{bound}/"),
                Err(e) => {
                    daemon.shutdown();
                    return fail(format!("cannot serve telemetry on {addr}: {e}"));
                }
            }
            Some(service)
        }
    };
    if let Some(addr) = listen {
        match daemon.serve(addr) {
            Ok(bound) => eprintln!("accepting analysis jobs on {bound}"),
            Err(e) => {
                daemon.shutdown();
                return fail(format!("cannot listen on {addr}: {e}"));
            }
        }
    }
    let result = if use_stdin {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        reuselens::serve::run_stdin(&daemon, stdin.lock(), stdout.lock())
    } else {
        // TCP-only mode: stay up until stdin reaches EOF (Ctrl-D, or the
        // supervisor closing the pipe), then drain and exit cleanly.
        eprintln!("close stdin (Ctrl-D) to shut down");
        let mut sink = String::new();
        loop {
            sink.clear();
            match std::io::BufRead::read_line(&mut std::io::stdin().lock(), &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        Ok(())
    };
    daemon.shutdown();
    obs::emit(obs::EventKind::RunFinished {
        ok: result.is_ok(),
    });
    if let Some(service) = service {
        service.shutdown();
    }
    if let Some(events) = &events {
        obs::uninstall_events();
        if events.write_errors() > 0 {
            eprintln!(
                "warning: {} event-log write(s) failed",
                events.write_errors()
            );
        }
    }
    obs::uninstall();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: stdin transport failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` and boolean `--key`.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for {key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(workload) = args.first() else {
        return Err("missing workload".into());
    };
    if workload == "help" || workload == "--help" || workload == "-h" {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = Flags { args: &args[1..] };
    if workload == "predict" {
        return run_predict(&flags);
    }
    let scale: u64 = flags.parsed("--scale", 16)?;
    let hierarchy = if scale <= 1 {
        MemoryHierarchy::itanium2()
    } else {
        MemoryHierarchy::itanium2_scaled(scale)
    };
    let report = flags.value("--report").unwrap_or("summary");
    let level = flags.value("--level").unwrap_or("L2");
    let sampling = parse_sampling(&flags)?;
    let replay_threads = parse_replay_threads(&flags)?;

    let w = build_workload(workload.as_str(), &flags)?;
    eprintln!(
        "analyzing `{}` on {hierarchy} ...",
        w.program.name()
    );

    if report == "program" {
        print!("{}", w.program);
        return Ok(());
    }
    if report == "contexts" {
        // Calling-context-sensitive view (paper §IV extension): the top
        // context-split patterns by reuse count.
        let mut an = ContextAnalyzer::new(&w.program, hierarchy.levels[0].line_size);
        let mut exec = reuselens::trace::Executor::new(&w.program);
        for (arr, data) in &w.index_arrays {
            exec.set_index_array(*arr, data.clone());
        }
        exec.run(&mut an).map_err(|e| e.to_string())?;
        let profile = an.finish();
        let mut rows: Vec<_> = profile.patterns.iter().collect();
        rows.sort_by_key(|p| std::cmp::Reverse(p.histogram.total()));
        println!(
            "{:<26} {:<34} {:>10} {:>12}",
            "sink", "calling context", "reuses", "mean dist"
        );
        for p in rows.iter().take(20) {
            let sink = w.program.reference(p.key.sink);
            println!(
                "{:<26} {:<34} {:>10} {:>12.0}",
                sink.label().chars().take(25).collect::<String>(),
                profile
                    .context_path(&w.program, p.key.context)
                    .chars()
                    .take(33)
                    .collect::<String>(),
                p.histogram.total(),
                p.histogram.mean().unwrap_or(0.0),
            );
        }
        return Ok(());
    }
    if report == "spatial" {
        let profile = measure_spatial(
            &w.program,
            hierarchy.levels[0].line_size,
            w.index_arrays.clone(),
        )
        .map_err(|e| e.to_string())?;
        print!("{}", format_spatial(&w.program, &profile));
        return Ok(());
    }

    if flags.flag("--predict-static") {
        for incompatible in ["--sample-rate", "--replay-threads", "--checkpoint-dir"] {
            if flags.value(incompatible).is_some() {
                return Err(format!(
                    "--predict-static derives profiles without a trace; {incompatible} \
                     configures the trace pipeline and cannot be combined with it"
                ));
            }
        }
        let run = run_locality_estimate(&w.program, &hierarchy, &w.index_arrays);
        eprintln!(
            "static estimate: {} references covered symbolically, {} via indirect fallback",
            run.covered.len(),
            run.fallback.len()
        );
        for r in &run.fallback {
            eprintln!("  fallback: {}", w.program.reference(*r).label());
        }
        return print_report(&w.program, &run.analysis, report, level);
    }

    let checkpoint = match flags.value("--checkpoint-dir") {
        Some(dir) => {
            let every: u64 = flags.parsed("--checkpoint-every", 1_000_000u64)?;
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".into());
            }
            Some(CheckpointOptions {
                dir: dir.into(),
                every,
                resume: flags.flag("--resume"),
            })
        }
        None if flags.flag("--resume") => {
            return Err("--resume requires --checkpoint-dir".into());
        }
        None => None,
    };
    let opts = AnalyzeOptions {
        sampling,
        replay_threads,
        checkpoint,
        ..AnalyzeOptions::default()
    };
    let la = run_locality_analysis_opts(&w.program, &hierarchy, w.index_arrays.clone(), &opts)
        .map_err(|e| e.to_string())?;

    if let Some(path) = flags.value("--save-profile") {
        let size: f64 = flags.parsed("--size", default_size(workload, &flags)?)?;
        let saved = SavedProfiles {
            name: w.program.name().to_string(),
            size,
            profiles: la.analysis.profiles.clone(),
        };
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        write_profiles(&saved, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("saved profiles to {path} (size tag {size})");
    }

    if report == "curve" {
        // Mattson curve at the first cache level's line size.
        let line = hierarchy.levels[0].line_size;
        let profile = la
            .analysis
            .profile_at(line)
            .ok_or("no line-granularity profile")?;
        let caps: Vec<u64> = (4..=22).map(|p| 1u64 << p).collect();
        println!("capacity_blocks,capacity_bytes,misses");
        for (cap, misses) in miss_curve(profile, &caps) {
            println!("{cap},{},{misses:.0}", cap * line);
        }
        return Ok(());
    }

    print_report(&w.program, &la, report, level)
}

/// Parses `--sample-rate 0.01` / `--sample-rate auto:4096`; no flag means
/// exact analysis.
fn parse_sampling(flags: &Flags<'_>) -> Result<SamplingConfig, String> {
    let Some(v) = flags.value("--sample-rate") else {
        return Ok(SamplingConfig::Exact);
    };
    if let Some(budget) = v.strip_prefix("auto:") {
        let budget: u64 = budget
            .parse()
            .map_err(|_| format!("invalid --sample-rate budget in '{v}'"))?;
        if budget == 0 {
            return Err("--sample-rate auto budget must be positive".into());
        }
        return Ok(SamplingConfig::adaptive(budget));
    }
    let rate: f64 = v
        .parse()
        .map_err(|_| format!("invalid --sample-rate '{v}'"))?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("--sample-rate must be in (0, 1], got {v}"));
    }
    Ok(SamplingConfig::fixed(rate))
}

/// Parses `--replay-threads 4` / `--replay-threads auto`; no flag means
/// the classic serial replay.
fn parse_replay_threads(flags: &Flags<'_>) -> Result<ReplayThreads, String> {
    match flags.value("--replay-threads") {
        None => Ok(ReplayThreads::Serial),
        Some("auto") => Ok(ReplayThreads::Auto),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("invalid --replay-threads '{v}'"))?;
            if n == 0 {
                return Err("--replay-threads must be at least 1".into());
            }
            Ok(ReplayThreads::Fixed(n))
        }
    }
}

/// The natural problem-size tag per workload (overridable with `--size`).
fn default_size(workload: &str, flags: &Flags<'_>) -> Result<f64, String> {
    Ok(match workload {
        "sweep3d" => flags.parsed("--mesh", 12u64)? as f64,
        "gtc" => flags.parsed("--micell", 16u64)? as f64,
        _ => 0.0,
    })
}

/// `reuselens predict --at N [--level L2] file1.rlp file2.rlp ...`
fn run_predict(flags: &Flags<'_>) -> Result<(), String> {
    let at: f64 = flags
        .value("--at")
        .ok_or("predict requires --at <size>")?
        .parse()
        .map_err(|_| "bad --at value".to_string())?;
    let level = flags.value("--level").unwrap_or("L2");
    let scale: u64 = flags.parsed("--scale", 16)?;
    let hierarchy = if scale <= 1 {
        MemoryHierarchy::itanium2()
    } else {
        MemoryHierarchy::itanium2_scaled(scale)
    };
    let cfg = hierarchy
        .level(level)
        .ok_or_else(|| format!("no cache level '{level}'"))?;

    // Positional args: every token that is not a flag or a flag value.
    let mut files = Vec::new();
    let mut skip = false;
    for a in flags.args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = matches!(
                a.as_str(),
                "--at" | "--level" | "--scale" | "--metrics" | "--trace-timeline"
                    | "--sample-rate" | "--replay-threads" | "--checkpoint-dir"
                    | "--checkpoint-every" | "--serve-metrics" | "--heartbeat"
                    | "--log-jsonl"
            );
            continue;
        }
        files.push(a.clone());
    }
    if files.len() < 2 {
        return Err("predict needs at least two saved profiles".into());
    }

    let mut sizes = Vec::new();
    let mut profiles = Vec::new();
    for f in &files {
        let file = std::fs::File::open(f).map_err(|e| format!("cannot open {f}: {e}"))?;
        let saved = read_profiles(std::io::BufReader::new(file))
            .map_err(|e| format!("{f}: {e}"))?;
        let profile = saved
            .profile_at(cfg.line_size)
            .ok_or_else(|| format!("{f} has no profile at {} B lines", cfg.line_size))?
            .clone();
        eprintln!("loaded {f}: size {} ({} accesses)", saved.size, profile.total_accesses);
        if !saved.size.is_finite() {
            return Err(format!("{f} carries a non-finite size tag"));
        }
        sizes.push(saved.size);
        profiles.push(profile);
    }
    // The scaling fit requires strictly increasing sizes; accept the files
    // in any order but refuse two profiles claiming the same size.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[a].total_cmp(&sizes[b]));
    let sorted_sizes: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
    if sorted_sizes.windows(2).any(|w| w[0] == w[1]) {
        return Err("two saved profiles carry the same size tag; re-save with --size".into());
    }
    let profiles: Vec<_> = order.iter().map(|&i| profiles[i].clone()).collect();
    let sizes = sorted_sizes;
    let refs: Vec<&_> = profiles.iter().collect();
    let model = ProfileModel::fit(&sizes, &refs, 16);
    let predicted_profile = model.predict(at);
    let prediction = predict_level(&predicted_profile, cfg);
    println!("predicted {} misses at size {at}: {:.0}", cfg.name, prediction.total);
    println!("  cold (compulsory): {}", prediction.cold);
    println!("  accesses:          {}", predicted_profile.total_accesses);
    println!(
        "  miss rate:         {:.2}%",
        100.0 * prediction.miss_rate()
    );
    Ok(())
}

fn build_workload(kind: &str, flags: &Flags<'_>) -> Result<BuiltWorkload, String> {
    match kind {
        "sweep3d" => {
            let mesh = flags.parsed("--mesh", 12u64)?;
            let block = flags.parsed("--block", 1u64)?;
            let timesteps = flags.parsed("--timesteps", 1u64)?;
            let mut cfg = SweepConfig::new(mesh).with_timesteps(timesteps);
            if flags.flag("--octant-inner") {
                cfg = cfg.with_octant_inner();
            } else {
                cfg = cfg.with_mi_block(block);
            }
            if flags.flag("--dim-ic") {
                cfg = cfg.with_dim_interchange();
            }
            Ok(build_sweep(&cfg))
        }
        "gtc" => {
            let mgrid = flags.parsed("--mgrid", 512u64)?;
            let micell = flags.parsed("--micell", 16u64)?;
            let variant: usize = flags.parsed("--variant", 0usize)?;
            if variant > 6 {
                return Err("--variant must be 0..=6".into());
            }
            let timesteps = flags.parsed("--timesteps", 1u64)?;
            Ok(build_gtc(
                &GtcConfig::new(mgrid, micell)
                    .with_transforms(GtcTransforms::cumulative(variant))
                    .with_timesteps(timesteps),
            ))
        }
        "kernel" => {
            let name = flags
                .args
                .first()
                .ok_or_else(|| "kernel needs a name".to_string())?;
            match name.as_str() {
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
                other => Err(format!("unknown kernel '{other}'")),
            }
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn print_report(
    program: &Program,
    la: &LocalityAnalysis,
    report: &str,
    level: &str,
) -> Result<(), String> {
    let metrics = |name: &str| {
        la.level(name)
            .ok_or_else(|| format!("no level named '{name}'"))
    };
    match report {
        "summary" => {
            print!("{}", format_summary(la));
            println!();
            print!("{}", format_carried_misses(program, &la.all_levels(), 0.05));
        }
        "carried" => {
            print!("{}", format_carried_misses(program, &la.all_levels(), 0.01));
        }
        "frag" => {
            print!("{}", format_fragmentation(program, metrics("L3")?, 10));
        }
        "patterns" => {
            print!("{}", format_pattern_db(program, metrics(level)?, 25));
        }
        "patterns-csv" => {
            print!(
                "{}",
                reuselens::metrics::format_pattern_csv(program, metrics(level)?)
            );
        }
        "advice" => {
            let recs = Advisor::new(program)
                .with_time_loops(detect_time_loops(program))
                .advise(metrics(level)?);
            if recs.is_empty() {
                println!("no significant reuse patterns at {level}");
            }
            for (i, r) in recs.iter().take(10).enumerate() {
                println!(
                    "{:>2}. [{:>10.0} misses] {}",
                    i + 1,
                    r.misses,
                    describe(&r.transformation, program)
                );
                println!("      because: {}", r.rationale);
            }
        }
        "xml" => {
            print!("{}", to_xml(program, la));
        }
        other => {
            if let Some(array_name) = other.strip_prefix("breakdown=") {
                let array = program
                    .array_by_name(array_name)
                    .ok_or_else(|| format!("no array named '{array_name}'"))?;
                print!("{}", format_array_breakdown(program, metrics(level)?, array));
            } else {
                return Err(format!("unknown report '{other}'"));
            }
        }
    }
    Ok(())
}

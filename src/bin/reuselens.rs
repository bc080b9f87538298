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
//! with larger sizes for full-scale runs). A factor that leaves a level
//! without whole sets (any but a power of two up to 128) is a usage error.
//! `--report xml` dumps the hpcviewer-style database to stdout.
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
    analyze_buffer_with, capture_program, measure_spatial, read_profiles, write_profiles,
    AnalyzeOptions, CheckpointOptions, ContextProfile, SamplingConfig, SavedProfiles,
};
use reuselens::ir::Program;
use reuselens::metrics::{
    format_array_breakdown, format_carried_misses, format_fragmentation, format_pattern_db,
    format_spatial, format_summary, run_locality_analysis_opts, run_locality_estimate, to_xml,
    LocalityAnalysis,
};
use reuselens::model::ProfileModel;
use reuselens::obs::{self, MetricsRecorder};
use reuselens::serve::{ServeError, WorkloadSpec};
use std::process::ExitCode;
use std::sync::Arc;

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
                    are enforced by tests/static_vs_dynamic.rs. Not
                    with --report contexts, which needs the trace
    --sample-rate <R>  approximate analysis: replay through the
                    constant-space sampled analyzer. R is a rate in
                    (0, 1] (e.g. 0.01), or 'auto:<budget>' to adapt the
                    rate so at most <budget> blocks are tracked. Reported
                    counts become scaled estimates; omit for exact output
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
                    checkpoints, sampling drops,
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
    let flags = Flags { args: &args };
    let metrics_target = flags.value("--metrics");
    let timeline_target = flags.value("--trace-timeline");
    let serve_addr = flags.value("--serve-metrics");
    let heartbeat = match flags.value("--heartbeat").map(str::parse::<f64>) {
        None => None,
        Some(Ok(secs)) if secs > 0.0 && secs.is_finite() => {
            Some(std::time::Duration::from_secs_f64(secs))
        }
        Some(_) => {
            eprintln!("error: --heartbeat takes a positive number of seconds");
            return ExitCode::FAILURE;
        }
    };
    // The live service and the heartbeat both read from a recorder, so
    // either flag provisions one even without `--metrics`.
    let live = serve_addr.is_some() || heartbeat.is_some();
    let recorder = (metrics_target.is_some() || live).then(|| Arc::new(MetricsRecorder::new()));
    let timeline = timeline_target.map(|_| Arc::new(obs::Timeline::new()));
    let events = match open_event_log(flags.value("--log-jsonl")) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = obs::Obs {
        metrics: recorder.clone(),
        timeline: timeline.clone(),
        events,
    };
    let mut observed = Observed::start(handle, args.join(" "));
    if let Some(recorder) = recorder.as_ref().filter(|_| live) {
        let config = obs::ServiceConfig {
            heartbeat,
            ..obs::ServiceConfig::default()
        };
        if let Err(e) = observed.serve(recorder, config, serve_addr) {
            observed.finish(false);
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = run(&args);
    observed.finish(result.is_ok());
    if let (Some(target), Some(recorder)) = (metrics_target, &recorder) {
        let snapshot = recorder.snapshot();
        eprint!("{}", snapshot.to_summary());
        if let Err(e) = write_output(target, &snapshot.to_prometheus(), "metrics") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(target), Some(timeline)) = (timeline_target, &timeline) {
        let snapshot = timeline.snapshot();
        eprintln!(
            "timeline: {} events, {} dropped",
            snapshot.events.len(),
            snapshot.dropped
        );
        if let Err(e) = write_output(target, &snapshot.to_chrome_trace(), "timeline") {
            eprintln!("error: {e}");
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
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if let Err(e) = itanium2_at(scale) {
        return fail(e);
    }
    // Counters/gauges and the JSONL event stream reconcile against the
    // daemon's completion records, so the recorder is always on.
    let recorder = Arc::new(MetricsRecorder::new());
    let events = match open_event_log(flags.value("--log-jsonl")) {
        Ok(events) => events,
        Err(e) => return fail(e),
    };
    let command = std::iter::once("serve")
        .chain(args.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(" ");
    let mut observed = Observed::start(
        obs::Obs {
            events,
            ..recorder.clone().into()
        },
        command,
    );
    let mut config = reuselens::serve::DaemonConfig::new(store_dir);
    config.workers = workers;
    config.queue = queue;
    config.scale = scale;
    let daemon = match reuselens::serve::Daemon::start(config) {
        Ok(daemon) => Arc::new(daemon),
        Err(e) => {
            observed.finish(false);
            return fail(format!("cannot open store {store_dir}: {e}"));
        }
    };
    if let Some(addr) = flags.value("--serve-metrics") {
        let config = obs::ServiceConfig {
            jobs: Some(daemon.jobs_callback()),
            ..obs::ServiceConfig::default()
        };
        if let Err(e) = observed.serve(&recorder, config, Some(addr)) {
            daemon.shutdown();
            observed.finish(false);
            return fail(e);
        }
    }
    if let Some(addr) = listen {
        match daemon.serve(addr) {
            Ok(bound) => eprintln!("accepting analysis jobs on {bound}"),
            Err(e) => {
                daemon.shutdown();
                observed.finish(false);
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
    observed.finish(result.is_ok());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: stdin transport failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes an exported `what` to `target` (`-` is stdout).
fn write_output(target: &str, text: &str, what: &str) -> Result<(), String> {
    if target == "-" {
        print!("{text}");
        return Ok(());
    }
    std::fs::write(target, text).map_err(|e| format!("cannot write {what} to {target}: {e}"))
}

/// Opens the `--log-jsonl` target (`-` is stderr), if one was given.
fn open_event_log(target: Option<&str>) -> Result<Option<Arc<obs::EventLog>>, String> {
    let Some(target) = target else {
        return Ok(None);
    };
    let log = if target == "-" {
        obs::EventLog::stderr()
    } else {
        obs::EventLog::create(std::path::Path::new(target))
            .map_err(|e| format!("cannot create event log {target}: {e}"))?
    };
    Ok(Some(Arc::new(log)))
}

/// One command's observability: the handle built from its flags, entered
/// on the main thread for the whole run so every thread the run spawns
/// reports into it, plus the live telemetry service when one is asked
/// for. Every exit after [`Observed::start`] goes through
/// [`Observed::finish`], so a `run_started` event always has its
/// `run_finished`.
struct Observed {
    handle: obs::Obs,
    service: Option<obs::TelemetryService>,
    scope: obs::ObsScope,
}

impl Observed {
    /// Enters `handle` and logs `run_started`.
    fn start(handle: obs::Obs, command: String) -> Observed {
        let scope = handle.enter();
        obs::emit(obs::EventKind::RunStarted { command });
        Observed {
            handle,
            service: None,
            scope,
        }
    }

    /// Starts the telemetry service over `recorder` and, given `addr`,
    /// its HTTP surface.
    fn serve(
        &mut self,
        recorder: &Arc<MetricsRecorder>,
        config: obs::ServiceConfig,
        addr: Option<&str>,
    ) -> Result<(), String> {
        let mut service =
            obs::TelemetryService::start(recorder.clone(), self.handle.timeline.clone(), config);
        if let Some(addr) = addr {
            match service.serve(addr) {
                Ok(bound) => eprintln!("serving telemetry on http://{bound}/"),
                Err(e) => {
                    service.shutdown();
                    return Err(format!("cannot serve telemetry on {addr}: {e}"));
                }
            }
        }
        self.service = Some(service);
        Ok(())
    }

    /// The one teardown: stops the service, logs `run_finished`, leaves
    /// the scope, and reports event-log writes that failed.
    fn finish(self, ok: bool) {
        if let Some(service) = self.service {
            service.shutdown();
        }
        obs::emit(obs::EventKind::RunFinished { ok });
        drop(self.scope);
        if let Some(events) = self.handle.events.filter(|e| e.write_errors() > 0) {
            eprintln!(
                "warning: {} event-log write(s) failed",
                events.write_errors()
            );
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
    let hierarchy = itanium2_at(flags.parsed("--scale", 16)?)?;
    let report = flags.value("--report").unwrap_or("summary");
    let level = flags.value("--level").unwrap_or("L2");
    let sampling = parse_sampling(&flags)?;

    let w = workload_spec(workload, &flags)?
        .build()
        .map_err(|e| match e {
            ServeError::InvalidField { why, .. } => why,
            other => other.to_string(),
        })?;
    eprintln!("analyzing `{}` on {hierarchy} ...", w.program.name());

    if report == "program" {
        print!("{}", w.program);
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
        if report == "contexts" {
            return Err(
                "--predict-static derives profiles without a trace; --report contexts \
                 splits the trace by calling context and cannot be combined with it"
                    .into(),
            );
        }
        for incompatible in ["--sample-rate", "--checkpoint-dir"] {
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
        checkpoint,
        ..AnalyzeOptions::default()
    };
    if report == "contexts" {
        // Calling-context view (paper §IV extension): the program split by
        // call path, measured at the first level's line size through the
        // same options as every other report; the top patterns by reuses.
        let split = w.program.split_contexts().map_err(|e| e.to_string())?;
        let (buffer, _) =
            capture_program(&split.program, w.index_arrays.clone()).map_err(|e| e.to_string())?;
        let line = hierarchy.levels[0].line_size;
        let (profiles, _) = analyze_buffer_with(&split.program, &buffer, &[line], &opts)
            .into_strict()
            .map_err(|e| e.to_string())?;
        let profile = ContextProfile::from_split(&split, &profiles[0]);
        let mut rows: Vec<_> = profile.patterns.iter().collect();
        rows.sort_by_key(|p| std::cmp::Reverse(p.histogram.total()));
        // Distinct load sites can share a label, so the reference id leads.
        let cell = |s: &str, width: usize| s.chars().take(width).collect::<String>();
        println!(
            "{:<6} {:<26} {:<34} {:<30} {:>10} {:>12}",
            "ref", "sink", "calling context", "carrier", "reuses", "mean dist"
        );
        for p in rows.iter().take(20) {
            println!(
                "{:<6} {:<26} {:<34} {:<30} {:>10} {:>12.0}",
                p.key.sink.to_string(),
                cell(w.program.reference(p.key.sink).label(), 25),
                cell(&profile.context_path(&w.program, p.key.context), 33),
                cell(&w.program.scope_path(p.key.carrier), 29),
                p.histogram.total(),
                p.histogram.mean().unwrap_or(0.0),
            );
        }
        return Ok(());
    }
    let la = run_locality_analysis_opts(&w.program, &hierarchy, w.index_arrays.clone(), &opts)
        .map_err(|e| e.to_string())?;

    if let Some(path) = flags.value("--save-profile") {
        let size: f64 = flags.parsed("--size", default_size(workload, &flags)?)?;
        let saved = SavedProfiles {
            name: w.program.name().to_string(),
            size,
            profiles: la.analysis.profiles.clone(),
        };
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
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
    let parsed = match v.strip_prefix("auto:") {
        Some(budget) => budget.parse().map(|b| (None, Some(b))).ok(),
        None => v.parse().map(|r| (Some(r), None)).ok(),
    };
    let (rate, budget) = parsed.ok_or_else(|| format!("invalid --sample-rate '{v}'"))?;
    SamplingConfig::checked(rate, budget).map_err(|e| format!("--sample-rate: {e}"))
}

/// The Itanium2 hierarchy divided by `--scale`; a factor that leaves a
/// level without whole sets is a usage error.
fn itanium2_at(scale: u64) -> Result<MemoryHierarchy, String> {
    MemoryHierarchy::try_itanium2_scaled(scale).map_err(|e| format!("--scale: {e}"))
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
    let hierarchy = itanium2_at(flags.parsed("--scale", 16)?)?;
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
                "--at"
                    | "--level"
                    | "--scale"
                    | "--metrics"
                    | "--trace-timeline"
                    | "--sample-rate"
                    | "--checkpoint-dir"
                    | "--checkpoint-every"
                    | "--serve-metrics"
                    | "--heartbeat"
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
        let saved =
            read_profiles(std::io::BufReader::new(file)).map_err(|e| format!("{f}: {e}"))?;
        let profile = saved
            .profile_at(cfg.line_size)
            .ok_or_else(|| format!("{f} has no profile at {} B lines", cfg.line_size))?
            .clone();
        eprintln!(
            "loaded {f}: size {} ({} accesses)",
            saved.size, profile.total_accesses
        );
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
    println!(
        "predicted {} misses at size {at}: {:.0}",
        cfg.name, prediction.total
    );
    println!("  cold (compulsory): {}", prediction.cold);
    println!("  accesses:          {}", predicted_profile.total_accesses);
    println!(
        "  miss rate:         {:.2}%",
        100.0 * prediction.miss_rate()
    );
    Ok(())
}

/// The daemon's workload description, filled from the CLI flags, so the
/// CLI and the daemon build workloads from one table.
fn workload_spec(kind: &str, flags: &Flags<'_>) -> Result<WorkloadSpec, String> {
    let kind = match kind {
        "sweep3d" | "gtc" => kind.to_string(),
        "kernel" => {
            let name = flags.args.first().ok_or("kernel needs a name")?;
            format!("kernel:{name}")
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    let value = |key: &str| -> Result<Option<u64>, String> {
        flags
            .value(key)
            .map(|_| flags.parsed(key, 0u64))
            .transpose()
    };
    let spec = WorkloadSpec {
        kind,
        mesh: value("--mesh")?,
        block: value("--block")?,
        dim_ic: flags.flag("--dim-ic"),
        octant_inner: flags.flag("--octant-inner"),
        timesteps: value("--timesteps")?,
        mgrid: value("--mgrid")?,
        micell: value("--micell")?,
        variant: value("--variant")?,
    };
    if spec.variant.is_some_and(|v| v > 6) {
        return Err("--variant must be 0..=6".into());
    }
    Ok(spec)
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
                print!(
                    "{}",
                    format_array_breakdown(program, metrics(level)?, array)
                );
            } else {
                return Err(format!("unknown report '{other}'"));
            }
        }
    }
    Ok(())
}

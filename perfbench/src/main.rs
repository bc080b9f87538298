//! End-to-end and per-layer benchmark of ReuseLens.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (`BENCHMARK.json` says why each was chosen):
//!
//! * `sweep3d-variants` — the paper's Sweep3D tuning loop: every
//!   transformation variant is predicted statically, captured into the
//!   trace store, loaded back, replayed at line and page grain, scored
//!   against a sweep of scaled Itanium2 hierarchies and rendered as a
//!   report. One sweep over all seven variants is one job.
//! * `daemon-mix` — closed-loop clients drive the analysis daemon over
//!   TCP the way its README describes: traces are captured once at
//!   set-up, then replayed, re-sampled and estimated, in an order
//!   shuffled by the seed. One request is one job.
//!
//! A run sets up several times (the median is `setup_s`; the sweep
//! workload spreads its set-ups between the measured jobs), checks the
//! set-ups' results against independently computed references, and
//! measures jobs for `--seconds`, checking every job.
//! `--trace 0` reports the end-to-end metrics;
//! `--trace 1` installs the pipeline's metrics recorder for the measured
//! phase (and, for the daemon, the set-ups that capture) and reports
//! each layer's cost from its stage spans and counters.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod daemon;
mod layers;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use reuselens_prng::SplitMix64;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Names accepted by `--workload`.
const WORKLOADS: [&str; 2] = ["sweep3d-variants", "daemon-mix"];

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or(USAGE)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds,
        trace: trace.ok_or(USAGE)?,
    })
}

/// What one workload measured.
struct Measured {
    /// Latency of each job that finished within `--seconds` of the
    /// measured phase's start; the quantiles and the throughput use only
    /// these.
    latencies: Vec<Duration>,
    /// Jobs of the measured phase. Jobs under way at the deadline are
    /// finished (a daemon client finishes its deck) and checked, so this
    /// may exceed the number of latencies.
    attempted: u64,
    /// Time spent measuring, up to the last in-window job's end; set-ups
    /// between jobs do not count.
    window: Duration,
    /// Duration of each set-up.
    setups: Vec<Duration>,
    /// Jobs that returned an error or a wrong result.
    failed: u64,
    /// Per-layer metrics (traced runs only): name, unit, value.
    layers: Vec<(&'static str, &'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(measured) => {
            println!("{}", render(&args, &measured));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    match args.workload.as_str() {
        "sweep3d-variants" => sweep::run(args, work),
        _ => daemon::run(args, work),
    }
}

/// The result line: end-to-end metrics with `--trace 0`, per-layer
/// metrics with `--trace 1`.
fn render(args: &Args, m: &Measured) -> String {
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        metrics.extend(m.layers.iter().copied());
    } else {
        let mut ms: Vec<f64> = m.latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let mut setups: Vec<f64> = m.setups.iter().map(Duration::as_secs_f64).collect();
        setups.sort_by(f64::total_cmp);
        let throughput = ms.len() as f64 / m.window.as_secs_f64().max(f64::MIN_POSITIVE);
        metrics.push(("job_p50_ms", "ms", quantile(&ms, 0.5)));
        metrics.push(("job_p90_ms", "ms", quantile(&ms, 0.9)));
        metrics.push(("jobs_per_s", "1/s", throughput));
        metrics.push(("setup_s", "s", quantile(&setups, 0.5)));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

/// Linearly interpolated quantile `q` of ascending `sorted` values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Fisher–Yates shuffle driven by the benchmark's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

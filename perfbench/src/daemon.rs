//! The daemon job mix: closed-loop clients drive `reuselens serve` over
//! TCP on the loopback interface.
//!
//! The traffic follows the usage the README documents for the daemon:
//! capture a workload's trace once, then replay, re-sample and estimate
//! against it for as long as the daemon lives. Set-up starts a daemon
//! (two workers, as shipped) on an empty store and captures one trace per
//! workload of the pool through it; these are a run's only captures. Each
//! client then plays a deck holding, per pool workload, one exact replay,
//! one sampled replay and one estimate of the stored trace, in an order
//! its seeded generator shuffles. Decks are always played whole, so every
//! run sends the same mix. There is one client more than workers, so
//! requests queue inside the daemon and the latency includes that wait.
//!
//! Every response is checked: replays against the CRC of an in-process
//! replay of the same workload, estimates against an in-process
//! estimate, base captures against the in-process event count and the
//! first set-up's image CRC.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuselens::cache::MemoryHierarchy;
use reuselens::core::{
    analyze_buffer_with, capture_program, write_profiles, AnalyzeOptions, SamplingConfig,
    SavedProfiles,
};
use reuselens::metrics::run_locality_estimate;
use reuselens::obs::MetricsRecorder;
use reuselens::serve::{Daemon, DaemonConfig, JobStatus, WorkloadSpec};
use reuselens::store::crc32;
use reuselens_prng::SplitMix64;

use crate::{layers, shuffle, Args, Measured};

/// The workloads clients replay and estimate — the paper's two
/// applications, each as written and with its best transformation:
/// request fields and the daemon's canonical spec string for the same
/// workload.
const POOL: [(&str, &str); 4] = [
    (r#""workload":"sweep3d","mesh":8"#, "sweep3d mesh=8"),
    (
        r#""workload":"sweep3d","mesh":8,"block":6,"dim_ic":true"#,
        "sweep3d mesh=8 block=6 dim-ic",
    ),
    (
        r#""workload":"gtc","mgrid":256,"micell":8"#,
        "gtc mgrid=256 micell=8",
    ),
    (
        r#""workload":"gtc","mgrid":256,"micell":8,"variant":6"#,
        "gtc mgrid=256 micell=8 variant=6",
    ),
];
/// Line and page grain of the Itanium2 hierarchy.
const GRAINS: [u64; 2] = [128, 16384];
/// Sampling rate of the sampled replays.
const SAMPLE_RATE: f64 = 0.1;
/// Concurrent clients; one more than the daemon's workers.
const CLIENTS: usize = 3;
/// Upper bound of a client's random pause before each request. Without
/// it the closed loop can lock onto the phase of the kernel's timer tick
/// (responses wait for a delayed ACK), and runs differ by a whole tick.
const MAX_THINK_US: u64 = 4000;
/// Hierarchy capacity divisor the daemon estimates against.
const SCALE: u64 = 16;
/// Set-ups per run; `setup_s` is their median. The host's speed shifts
/// for seconds at a time, so the set-ups span several seconds.
const SETUPS: usize = 15;

/// What a correct daemon answers for one pool workload.
struct Reference {
    /// Trace events of the workload.
    events: u64,
    /// `"events":N,` as captures and replays report it.
    events_field: String,
    /// `"profiles_crc":N,` of an exact and of a sampled replay.
    replay_crc: [String; 2],
    /// The payload of an estimate.
    estimate: String,
}

#[derive(Clone, Copy)]
enum Card {
    Replay { spec: usize, sampled: bool },
    Estimate { spec: usize },
}

fn deck() -> Vec<Card> {
    (0..POOL.len())
        .flat_map(|spec| {
            [
                Card::Replay {
                    spec,
                    sampled: false,
                },
                Card::Replay {
                    spec,
                    sampled: true,
                },
                Card::Estimate { spec },
            ]
        })
        .collect()
}

fn base_id(spec: usize) -> String {
    format!("base-{spec}")
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { reader, writer })
    }

    /// Sends one request line and waits for its response line.
    fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One client: its connection and its generator.
struct Client {
    name: String,
    conn: Connection,
    rng: SplitMix64,
}

/// What clients saw while playing from `start` until `until`.
struct Log {
    start: Instant,
    until: Instant,
    /// Latency of each response that arrived by `until`.
    latencies: Vec<Duration>,
    /// Requests sent, counting those answered after `until`.
    attempted: u64,
    /// When the last response that arrived by `until` arrived.
    last_in_window: Instant,
    failed: u64,
    events_loaded: u64,
}

impl Log {
    fn new(start: Instant, until: Instant) -> Log {
        Log {
            start,
            until,
            latencies: Vec::new(),
            attempted: 0,
            last_in_window: start,
            failed: 0,
            events_loaded: 0,
        }
    }
}

impl Client {
    /// Sends `request`, timing it, and checks the response is a success
    /// carrying every `expected` fragment; returns whether it was.
    fn expect(&mut self, request: &str, expected: &[&str], log: &mut Log) -> Result<bool, String> {
        std::thread::sleep(Duration::from_micros(self.rng.gen_range(0..MAX_THINK_US)));
        let t = Instant::now();
        let response = self.conn.call(request)?;
        let done = Instant::now();
        log.attempted += 1;
        if done <= log.until {
            log.latencies.push(done - t);
            log.last_in_window = done;
        }
        let ok =
            response.starts_with("{\"ok\":true") && expected.iter().all(|e| response.contains(e));
        if !ok {
            eprintln!("{}: {request} answered {}", self.name, response.trim_end());
            log.failed += 1;
        }
        Ok(ok)
    }

    fn play(&mut self, card: Card, refs: &[Reference], log: &mut Log) -> Result<(), String> {
        match card {
            Card::Replay { spec, sampled } => {
                let sampling = if sampled {
                    format!(",\"sample_rate\":{SAMPLE_RATE}")
                } else {
                    String::new()
                };
                let request = format!(
                    "{{\"kind\":\"replay\",\"id\":\"{}\",\"grains\":[{},{}]{sampling}}}",
                    base_id(spec),
                    GRAINS[0],
                    GRAINS[1]
                );
                let r = &refs[spec];
                let expected = [r.events_field.as_str(), &r.replay_crc[usize::from(sampled)]];
                if self.expect(&request, &expected, log)? {
                    log.events_loaded += r.events;
                }
            }
            Card::Estimate { spec } => {
                let request = format!("{{\"kind\":\"estimate\",\"id\":\"{}\"}}", base_id(spec));
                self.expect(&request, &[refs[spec].estimate.as_str()], log)?;
            }
        }
        Ok(())
    }

    /// Plays whole shuffled decks until `until` has passed (at least one).
    fn play_until(
        &mut self,
        start: Instant,
        until: Instant,
        refs: &[Reference],
    ) -> Result<Log, String> {
        let mut log = Log::new(start, until);
        let mut cards = deck();
        loop {
            shuffle(&mut cards, &mut self.rng);
            for &card in &cards {
                self.play(card, refs, &mut log)?;
            }
            if Instant::now() >= until {
                return Ok(log);
            }
        }
    }
}

/// Starts a daemon on a fresh store in `dir` and captures the base traces
/// through it, checking each against `refs`. Returns the daemon, its
/// address, and each base capture's `"image_crc":N,` field.
fn set_up(
    dir: &Path,
    refs: &[Reference],
) -> Result<(Arc<Daemon>, SocketAddr, Vec<String>), String> {
    let mut config = DaemonConfig::new(dir);
    config.scale = SCALE;
    let daemon = Arc::new(Daemon::start(config).map_err(|e| e.to_string())?);
    let addr = daemon
        .serve("127.0.0.1:0")
        .map_err(|e| format!("cannot listen on the loopback interface: {e}"))?;
    let mut conn = Connection::open(addr)?;
    let mut images = Vec::with_capacity(POOL.len());
    for (spec, (fields, name)) in POOL.iter().enumerate() {
        let request = format!(
            "{{\"kind\":\"capture\",\"id\":\"{}\",{fields},\"grains\":[{},{}]}}",
            base_id(spec),
            GRAINS[0],
            GRAINS[1]
        );
        let response = conn.call(&request)?;
        let image = response
            .split_inclusive(',')
            .find(|part| part.starts_with("\"image_crc\":"));
        match image {
            Some(image)
                if response.starts_with("{\"ok\":true")
                    && response.contains(&refs[spec].events_field) =>
            {
                images.push(image.to_string())
            }
            _ => return Err(format!("{name}: base capture {}", response.trim_end())),
        }
    }
    Ok((daemon, addr, images))
}

/// Computes in-process what the daemon must answer for each pool
/// workload.
fn references() -> Result<Vec<Reference>, String> {
    let hierarchy = MemoryHierarchy::itanium2_scaled(SCALE);
    POOL.iter()
        .map(|(_, spec)| {
            let w = WorkloadSpec::from_spec_string(spec)
                .and_then(|s| s.build())
                .map_err(|e| e.to_string())?;
            let (buffer, _) =
                capture_program(&w.program, w.index_arrays.clone()).map_err(|e| e.to_string())?;
            let replay_crc =
                [SamplingConfig::Exact, SamplingConfig::fixed(SAMPLE_RATE)].map(|sampling| {
                    let opts = AnalyzeOptions {
                        sampling,
                        ..AnalyzeOptions::default()
                    };
                    let partial = analyze_buffer_with(&w.program, &buffer, &GRAINS, &opts);
                    let saved = SavedProfiles {
                        name: w.program.name().to_string(),
                        size: 0.0,
                        profiles: partial.profiles,
                    };
                    let mut bytes = Vec::new();
                    let written = write_profiles(&saved, &mut bytes);
                    match (partial.failures.is_empty(), written) {
                        (true, Ok(())) => format!("\"profiles_crc\":{},", crc32(&bytes)),
                        _ => String::from("replay failed in-process"),
                    }
                });
            let run = run_locality_estimate(&w.program, &hierarchy, &w.index_arrays);
            let grains: Vec<String> = run
                .analysis
                .analysis
                .profiles
                .iter()
                .map(|p| {
                    format!(
                        "{{\"grain\":{},\"accesses\":{},\"distinct_blocks\":{}}}",
                        p.block_size, p.total_accesses, p.distinct_blocks
                    )
                })
                .collect();
            let estimate = format!(
                "\"covered\":{},\"fallback\":{},\"grains\":[{}]",
                run.covered.len(),
                run.fallback.len(),
                grains.join(",")
            );
            Ok(Reference {
                events: buffer.events(),
                events_field: format!("\"events\":{},", buffer.events()),
                replay_crc,
                estimate,
            })
        })
        .collect()
}

/// Runs every client concurrently for `seconds`. The first error of any
/// client is returned.
fn play_all(clients: &mut [Client], seconds: Duration, refs: &[Reference]) -> Result<Log, String> {
    let start = Instant::now();
    let until = start + seconds;
    let logs: Vec<Result<Log, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || client.play_until(start, until, refs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client panicked".into())))
            .collect()
    });
    let mut total = Log::new(start, until);
    for log in logs {
        let log = log?;
        total.latencies.extend(log.latencies);
        total.attempted += log.attempted;
        total.last_in_window = total.last_in_window.max(log.last_in_window);
        total.failed += log.failed;
        total.events_loaded += log.events_loaded;
    }
    Ok(total)
}

pub fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    let refs = references()?;
    // Set-up makes a run's only captures, so a traced run records the
    // set-ups too: they are the capture layer's work.
    let recorder = args.trace.then(layers::recorder);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut first_images: Option<Vec<String>> = None;
    let mut prepared: Option<(Arc<Daemon>, SocketAddr)> = None;
    for k in 0..SETUPS {
        if let Some((daemon, _)) = prepared.take() {
            daemon.shutdown();
        }
        let t = Instant::now();
        let (daemon, addr, images) = layers::recording(recorder.as_ref(), || {
            set_up(&work.join(format!("store-{k}")), &refs)
        })?;
        setups.push(t.elapsed());
        if *first_images.get_or_insert_with(|| images.clone()) != images {
            daemon.shutdown();
            return Err("two set-ups stored different images of one workload".into());
        }
        prepared = Some((daemon, addr));
    }
    let (daemon, addr) = prepared.ok_or("no set-up ran")?;
    let outcome = measure(args, &daemon, addr, &refs, recorder.as_ref());
    daemon.shutdown();
    let (log, layers) = outcome?;
    Ok(Measured {
        window: log.last_in_window - log.start,
        latencies: log.latencies,
        attempted: log.attempted,
        setups,
        failed: log.failed,
        layers,
    })
}

type Outcome = (Log, Vec<(&'static str, &'static str, f64)>);

fn measure(
    args: &Args,
    daemon: &Daemon,
    addr: SocketAddr,
    refs: &[Reference],
    recorder: Option<&Arc<MetricsRecorder>>,
) -> Result<Outcome, String> {
    let mut clients = (0..CLIENTS)
        .map(|i| {
            Ok(Client {
                name: format!("client{i}"),
                conn: Connection::open(addr)?,
                rng: SplitMix64::seed_from_u64(
                    args.seed.wrapping_mul(CLIENTS as u64 + 1) + i as u64,
                ),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    // Warm-up: one deck per client, unrecorded.
    let warm = play_all(&mut clients, Duration::ZERO, refs)?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests answered wrongly", warm.failed));
    }

    let first_job = daemon.job_records().len();
    let log = layers::recording(recorder, || {
        play_all(&mut clients, Duration::from_secs(args.seconds), refs)
    })?;
    let exec: Vec<Duration> = daemon.job_records()[first_job..]
        .iter()
        .filter(|r| r.status == JobStatus::Completed)
        .map(|r| r.wall)
        .collect();
    let layers = recorder
        .map(|r| layers::per_layer(r, log.events_loaded, &exec))
        .unwrap_or_default();
    Ok((log, layers))
}

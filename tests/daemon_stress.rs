//! Concurrency stress for `reuselens serve`: many clients hammering a
//! 2-worker pool over real TCP connections, with the completion record,
//! the telemetry counters, and the JSONL event stream all reconciled
//! against each other afterwards (the `obs_identity` pattern applied to
//! the daemon).
//!
//! Invariants proved here:
//! * no response is ever lost — one line back per line sent, per client;
//! * completion sequence numbers are a permutation of `1..=N` (a total
//!   order over finished jobs, no duplicates, no gaps);
//! * a full queue rejects with the typed `overloaded` error and the
//!   daemon recovers to full service afterwards;
//! * `jobs_accepted == jobs_completed + jobs_failed` after a drain, and
//!   the JSONL stream carries exactly one lifecycle event per job;
//! * a failed replay's `grain_failed` events name the daemon job that
//!   caused them (satellite: job-id attribution through the degradation
//!   path).

use reuselens::obs::{self, Counter, EventLog, Gauge, MetricsRecorder};
use reuselens::serve::{Daemon, DaemonConfig};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reuselens-stress-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends `lines` over one TCP connection, one at a time, waiting for
/// each response before sending the next (the per-connection protocol).
fn client_exchange(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        let n = reader.read_line(&mut response).expect("read response");
        assert!(n > 0, "connection closed before responding to: {line}");
        responses.push(response.trim_end().to_string());
    }
    responses
}

fn seq_of(response: &str) -> Option<u64> {
    let at = response.find("\"seq\":")?;
    response[at + 6..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

#[test]
fn eight_clients_mixed_jobs_lose_nothing() {
    let daemon = Arc::new(Daemon::start(DaemonConfig::new(tmpdir("mixed"))).expect("start daemon"));
    let addr = daemon.serve("127.0.0.1:0").expect("bind");

    const CLIENTS: usize = 8;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let id = format!("client{c}");
                let lines = vec![
                    r#"{"kind":"ping"}"#.to_string(),
                    format!(r#"{{"kind":"capture","id":"{id}","workload":"kernel:stream"}}"#),
                    format!(r#"{{"kind":"replay","id":"{id}","grains":[64]}}"#),
                    format!(r#"{{"kind":"estimate","id":"{id}"}}"#),
                    r#"{"kind":"list"}"#.to_string(),
                    format!(r#"{{"kind":"evict","id":"{id}"}}"#),
                ];
                client_exchange(addr, &lines)
            })
        })
        .collect();

    let mut all_responses = Vec::new();
    for handle in handles {
        let responses = handle.join().expect("client thread");
        assert_eq!(responses.len(), 6, "a client lost responses");
        for response in &responses {
            assert!(
                response.starts_with("{\"ok\":true,"),
                "stress job failed: {response}"
            );
        }
        all_responses.extend(responses);
    }

    // Completion sequence numbers form a total order with no gaps and no
    // duplicates: a permutation of 1..=48.
    let seqs: Vec<u64> = all_responses.iter().filter_map(|r| seq_of(r)).collect();
    assert_eq!(seqs.len(), CLIENTS * 6, "a response lacked its seq field");
    let distinct: HashSet<u64> = seqs.iter().copied().collect();
    assert_eq!(distinct.len(), seqs.len(), "duplicate completion seq");
    assert_eq!(
        (
            *distinct.iter().min().unwrap(),
            *distinct.iter().max().unwrap()
        ),
        (1, (CLIENTS * 6) as u64),
        "completion seq has gaps"
    );

    // The completion record agrees: every job finished, none queued.
    assert_eq!(daemon.queue_depth(), 0);
    let records = daemon.job_records();
    assert_eq!(records.len(), CLIENTS * 6);
    daemon.shutdown();
}

#[test]
fn queue_full_rejects_typed_and_recovers() {
    let mut config = DaemonConfig::new(tmpdir("full"));
    config.workers = 1;
    config.queue = 1;
    let daemon = Arc::new(Daemon::start(config).expect("start daemon"));
    let addr = daemon.serve("127.0.0.1:0").expect("bind");

    // Occupy the single worker...
    let slow = daemon.submit_line(br#"{"kind":"sleep","ms":500}"#);
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.queue_depth() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...fill the one queue slot...
    let queued = daemon.submit_line(br#"{"kind":"sleep","ms":1}"#);
    // ...and overflow from a real TCP client.
    let rejected = client_exchange(addr, &[r#"{"kind":"ping"}"#.to_string()]);
    assert!(
        rejected[0].contains("\"type\":\"overloaded\""),
        "expected a 429-style typed rejection, got: {}",
        rejected[0]
    );
    assert!(rejected[0].starts_with("{\"ok\":false,"), "{}", rejected[0]);

    // Once the pipeline drains, the same client path serves again.
    assert!(slow.recv().expect("slow response").contains("\"ok\":true"));
    assert!(queued
        .recv()
        .expect("queued response")
        .contains("\"ok\":true"));
    let after = client_exchange(addr, &[r#"{"kind":"ping"}"#.to_string()]);
    assert!(after[0].contains("\"pong\":true"), "{}", after[0]);
    daemon.shutdown();
}

#[test]
fn counters_and_jsonl_reconcile_with_the_completion_record() {
    let recorder = Arc::new(MetricsRecorder::new());
    let log = Arc::new(EventLog::to_vec());
    let scope = obs::Obs {
        events: Some(log.clone()),
        ..recorder.clone().into()
    }
    .enter();

    let mut config = DaemonConfig::new(tmpdir("reconcile"));
    config.workers = 2;
    let daemon = Arc::new(Daemon::start(config).expect("start daemon"));
    let addr = daemon.serve("127.0.0.1:0").expect("bind");

    // 2 clients x (1 capture + 1 good replay + 1 failing replay
    // + 1 unknown-trace replay) + parse rejections.
    let handles: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let id = format!("r{c}");
                let lines = vec![
                    format!(r#"{{"kind":"capture","id":"{id}","workload":"kernel:stream"}}"#),
                    format!(r#"{{"kind":"replay","id":"{id}","grains":[64]}}"#),
                    // Tiny event budget: the replay fails deterministically,
                    // exercising the degradation path under load.
                    format!(r#"{{"kind":"replay","id":"{id}","grains":[64],"budget_events":10}}"#),
                    format!(r#"{{"kind":"replay","id":"absent{c}","grains":[64]}}"#),
                ];
                client_exchange(addr, &lines)
            })
        })
        .collect();
    let mut failed_job_ids = Vec::new();
    for handle in handles {
        let responses = handle.join().expect("client thread");
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
        assert!(
            responses[2].contains("\"type\":\"analysis\""),
            "budgeted replay should fail typed: {}",
            responses[2]
        );
        assert!(
            responses[3].contains("\"type\":\"unknown-trace\""),
            "{}",
            responses[3]
        );
        // Remember which daemon job ran the budget-starved replay.
        let r = &responses[2];
        let at = r.find("\"job\":\"").expect("failed response names its job") + 7;
        failed_job_ids.push(
            r[at..]
                .chars()
                .take_while(|c| *c != '"')
                .collect::<String>(),
        );
    }
    // Parse-level rejections (never reach the queue).
    for _ in 0..3 {
        let r = client_exchange(addr, &["definitely not json".to_string()]);
        assert!(r[0].contains("\"type\":\"parse\""), "{}", r[0]);
    }
    daemon.shutdown();

    // --- Reconciliation: counters vs completion record vs JSONL ---
    let snap = recorder.snapshot();
    let accepted = snap.counter(Counter::JobsAccepted);
    let completed = snap.counter(Counter::JobsCompleted);
    let failed = snap.counter(Counter::JobsFailed);
    let rejected = snap.counter(Counter::JobsRejected);
    assert_eq!(accepted, 8, "2 clients x 4 queued jobs");
    assert_eq!(completed, 4, "2 captures + 2 good replays");
    assert_eq!(failed, 4, "2 budget failures + 2 unknown traces");
    assert_eq!(rejected, 3, "3 parse rejections");
    assert_eq!(accepted, completed + failed, "a job vanished");
    assert_eq!(snap.gauge(Gauge::JobQueueDepth), 0, "queue not drained");

    let jsonl = log.captured();
    let count = |needle: &str| jsonl.matches(needle).count() as u64;
    assert_eq!(count("\"event\":\"job_accepted\""), accepted);
    assert_eq!(count("\"event\":\"job_completed\""), completed);
    assert_eq!(count("\"event\":\"job_failed\""), failed);
    assert_eq!(count("\"event\":\"job_rejected\""), rejected);

    // Satellite 4: the grain_failed events from the budget-starved
    // replays must carry the job id of the replay that caused them —
    // not null, not a sibling's id.
    assert_eq!(failed_job_ids.len(), 2);
    for job in &failed_job_ids {
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"event\":\"grain_failed\"")
                    && l.contains(&format!("\"job\":\"{job}\""))),
            "no grain_failed event attributed to {job}:\n{jsonl}"
        );
    }
    // And no grain_failed event from a daemon replay goes unattributed.
    for line in jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"grain_failed\""))
    {
        assert!(
            line.contains("\"job\":\""),
            "unattributed grain_failed event: {line}"
        );
    }

    drop(scope);
}

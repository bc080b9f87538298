//! Smoke tests for the `reuselens` command-line tool.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("sweep3d"));
    assert!(stdout.contains("gtc"));
}

#[test]
fn missing_workload_fails_with_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("missing workload"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_report_fails() {
    let (_, stderr, ok) = run(&["kernel", "fig2", "--report", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown report"));
}

#[test]
fn sweep3d_summary_reports_levels() {
    let (stdout, _, ok) = run(&["sweep3d", "--mesh", "8", "--report", "summary"]);
    assert!(ok);
    assert!(stdout.contains("L2"));
    assert!(stdout.contains("TLB"));
    assert!(stdout.contains("cycles"));
    assert!(stdout.contains("carried misses by scope"));
}

#[test]
fn sweep3d_advice_names_idiag() {
    let (stdout, _, ok) = run(&["sweep3d", "--mesh", "10", "--report", "advice"]);
    assert!(ok);
    assert!(
        stdout.contains("idiag"),
        "advice should target idiag:\n{stdout}"
    );
}

#[test]
fn gtc_frag_report_ranks_zion() {
    let (stdout, _, ok) = run(&["gtc", "--mgrid", "256", "--micell", "8", "--report", "frag"]);
    assert!(ok);
    assert!(stdout.contains("zion"));
}

#[test]
fn gtc_breakdown_report_for_named_array() {
    let (stdout, _, ok) = run(&[
        "gtc",
        "--mgrid",
        "128",
        "--micell",
        "4",
        "--report",
        "breakdown=zion",
    ]);
    assert!(ok);
    assert!(stdout.contains("carrying scope"));
}

#[test]
fn kernel_xml_report_is_wellformed_prefix() {
    let (stdout, _, ok) = run(&["kernel", "stream", "--report", "xml"]);
    assert!(ok);
    assert!(stdout.starts_with("<?xml version=\"1.0\"?>"));
    assert!(stdout.trim_end().ends_with("</LocalityDatabase>"));
}

#[test]
fn kernel_spatial_report_shows_utilization() {
    let (stdout, _, ok) = run(&["kernel", "fig2", "--report", "spatial"]);
    assert!(ok);
    assert!(stdout.contains("utilization"));
}

#[test]
fn gtc_variant_flag_changes_results() {
    let (orig, _, ok1) = run(&[
        "gtc", "--mgrid", "128", "--micell", "8", "--report", "summary",
    ]);
    let (tuned, _, ok2) = run(&[
        "gtc",
        "--mgrid",
        "128",
        "--micell",
        "8",
        "--variant",
        "6",
        "--report",
        "summary",
    ]);
    assert!(ok1 && ok2);
    assert_ne!(orig, tuned);
}

#[test]
fn bad_variant_is_rejected() {
    let (_, stderr, ok) = run(&["gtc", "--variant", "7"]);
    assert!(!ok);
    assert!(stderr.contains("--variant must be 0..=6"));
}

#[test]
fn save_and_predict_workflow() {
    let dir = std::env::temp_dir().join("reuselens-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for mesh in [8, 10, 12] {
        let path = dir.join(format!("m{mesh}.rlp"));
        let (_, _, ok) = run(&[
            "sweep3d",
            "--mesh",
            &mesh.to_string(),
            "--save-profile",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "saving mesh {mesh} profile failed");
        assert!(path.exists());
    }
    let files: Vec<String> = [8, 10, 12]
        .iter()
        .map(|m| dir.join(format!("m{m}.rlp")).to_str().unwrap().to_string())
        .collect();
    let mut args = vec!["predict", "--at", "16"];
    args.extend(files.iter().map(String::as_str));
    let (stdout, _, ok) = run(&args);
    assert!(ok, "predict failed");
    assert!(stdout.contains("predicted L2 misses at size 16"));
    // The prediction must be in the right ballpark of a real mesh-16 run
    // (loose: the training range 8-12 is deliberately small).
    let predicted: f64 = stdout
        .lines()
        .find(|l| l.contains("predicted"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|t| t.parse().ok())
        .unwrap();
    assert!(
        predicted > 10_000.0 && predicted < 60_000.0,
        "prediction {predicted} out of band"
    );
}

/// A checkpoint directory path occupied by a regular file is a reported
/// error: the process exits with the CLI's failure code, not the panic
/// code 101, and says what failed.
#[test]
fn checkpoint_failure_is_reported_not_panicked() {
    let path =
        std::env::temp_dir().join(format!("reuselens-cli-ckpt-notadir-{}", std::process::id()));
    std::fs::write(&path, b"occupied").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(["kernel", "stream", "--checkpoint-dir"])
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("checkpoint failed"), "stderr: {stderr}");
}

/// A `--scale` that leaves the L2 without whole sets is a usage error
/// naming that level: exit code 1 and an `error:` line, not a panic.
#[test]
fn a_scale_that_breaks_a_level_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(["sweep3d", "--mesh", "6", "--scale", "3"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --scale: cannot divide level \"L2\" by 3"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// `serve` refuses a breaking `--scale` before it answers any request.
#[test]
fn serve_refuses_a_scale_that_breaks_a_level() {
    let store = temp_path("serve-bad-scale");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(["serve", "--store", &store, "--stdin", "--scale", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    // The daemon may already have exited and closed its end.
    let _ = stdin.write_all(b"{\"kind\":\"estimate\",\"workload\":\"sweep3d\",\"mesh\":6}\n");
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --scale: cannot divide level \"L2\" by 3"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "answered a request: {:?}",
        out.stdout
    );
}

/// `serve --scale 0` is the full-size hierarchy, as `--scale 0` is for
/// the analysis and `predict` paths: an estimate against it answers.
#[test]
fn serve_takes_scale_zero_as_the_full_hierarchy() {
    let store = temp_path("serve-scale-zero");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(["serve", "--store", &store, "--stdin", "--scale", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    stdin
        .write_all(b"{\"kind\":\"estimate\",\"workload\":\"sweep3d\",\"mesh\":6}\n")
        .expect("send request");
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&store);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stdout.contains("\"ok\":true"), "stdout: {stdout}");
    assert!(stdout.contains("\"kind\":\"estimate\""), "stdout: {stdout}");
}

#[test]
fn predict_rejects_too_few_profiles() {
    let (_, stderr, ok) = run(&["predict", "--at", "16"]);
    assert!(!ok);
    assert!(stderr.contains("at least two saved profiles"));
}

#[test]
fn curve_report_is_monotone_csv() {
    let (stdout, _, ok) = run(&["kernel", "stream", "--report", "curve"]);
    assert!(ok);
    let mut last = f64::INFINITY;
    let mut rows = 0;
    for line in stdout.lines().skip(1) {
        let misses: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
        assert!(misses <= last);
        last = misses;
        rows += 1;
    }
    assert!(rows > 10);
}

#[test]
fn program_report_prints_source_like_text() {
    let (stdout, _, ok) = run(&["kernel", "fig2", "--report", "program"]);
    assert!(ok);
    assert!(stdout.contains("program fig2"));
    assert!(stdout.contains("do j ="));
    assert!(stdout.contains("store"));
}

#[test]
fn contexts_report_names_call_paths() {
    let (stdout, _, ok) = run(&[
        "gtc", "--mgrid", "128", "--micell", "4", "--report", "contexts",
    ]);
    assert!(ok);
    assert!(stdout.contains("main -> "));
    assert!(stdout.contains("calling context"));
}

/// The contexts report replays the context-split program through the
/// same engine options as every other report: rate-1 sampling
/// reproduces the exact rows.
#[test]
fn contexts_report_composes_with_engine_flags() {
    let base = [
        "gtc", "--mgrid", "128", "--micell", "4", "--report", "contexts",
    ];
    let (serial, _, ok) = run(&base);
    assert!(ok);
    assert!(serial.lines().next().unwrap().contains("carrier"));
    assert_eq!(serial.lines().count(), 21);
    let extra = ["--sample-rate", "1.0"];
    let (stdout, stderr, ok) = run(&[&base[..], &extra[..]].concat());
    assert!(ok, "{extra:?}: {stderr}");
    assert_eq!(stdout, serial, "{extra:?} changed the contexts report");
}

#[test]
fn contexts_report_rejects_predict_static() {
    let (stdout, stderr, ok) = run(&[
        "kernel",
        "fig1a",
        "--report",
        "contexts",
        "--predict-static",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("--predict-static derives profiles without a trace; --report contexts"),
        "{stderr}"
    );
}

/// GTC has several load sites labelled `zion(f,i)`; the pattern rows
/// lead with the reference id, so no two of those rows read alike.
#[test]
fn pattern_rows_tell_same_label_sites_apart() {
    let (stdout, stderr, ok) = run(&[
        "gtc", "--mgrid", "128", "--micell", "4", "--report", "patterns",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("ref "), "{stdout}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains("zion(f,i)")).collect();
    assert!(rows.len() >= 3, "{stdout}");
    for (i, row) in rows.iter().enumerate() {
        assert!(row.starts_with("ref"), "{row}");
        assert!(!rows[..i].contains(row), "duplicate row: {row}");
    }
}

#[test]
fn patterns_csv_report_is_csv() {
    let (stdout, _, ok) = run(&["kernel", "fig2", "--report", "patterns-csv"]);
    assert!(ok);
    assert!(stdout.starts_with("sink,array,"));
    assert!(stdout.lines().count() > 2);
}

/// 100 sequential round trips on one `--listen` connection. A server that
/// sent a reply in two writes would hold each trailing newline until the
/// client's delayed ACK (~40 ms on Linux once quick-ACK mode ends after
/// the first ~16 segments), so the loop would need at least ~3.4 s.
#[test]
fn listen_round_trips_do_not_wait_on_delayed_acks() {
    let store = std::env::temp_dir().join(format!("reuselens-cli-listen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut child = Command::new(env!("CARGO_BIN_EXE_reuselens"))
        .args(["serve", "--store", store.to_str().expect("utf8 path")])
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr pipe"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "daemon exited"
        );
        if let Some(addr) = line.trim().strip_prefix("accepting analysis jobs on ") {
            break addr.to_string();
        }
    };
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let started = Instant::now();
    for i in 0..100 {
        stream.write_all(b"{\"kind\":\"ping\"}\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("receive");
        assert!(line.contains("\"pong\":true"), "ping {i}: {line}");
    }
    let elapsed = started.elapsed();
    drop(child.stdin.take());
    assert!(child.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&store);
    assert!(
        elapsed < Duration::from_secs(2),
        "100 pings took {elapsed:?}"
    );
}

/// A scratch path unique to this process and `tag`.
fn temp_path(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("reuselens-cli-{}-{tag}", std::process::id()));
    path.to_str().expect("utf8 path").to_string()
}

/// `--metrics`, `--trace-timeline` and `--log-jsonl` together: each sink
/// receives the run.
#[test]
fn metrics_timeline_and_event_log_sinks_all_record_the_run() {
    let files = ["sinks.prom", "sinks.trace.json", "sinks.jsonl"].map(temp_path);
    let [metrics, timeline, log] = &files;
    let (_, stderr, ok) = run(&[
        "kernel",
        "stream",
        "--metrics",
        metrics,
        "--trace-timeline",
        timeline,
        "--log-jsonl",
        log,
    ]);
    assert!(ok, "{stderr}");
    let [metrics, timeline, log] = files.map(|f| {
        let text = std::fs::read_to_string(&f).expect("sink file written");
        let _ = std::fs::remove_file(&f);
        text
    });
    assert!(
        metrics.contains("reuselens_events_decoded_total "),
        "{metrics}"
    );
    assert!(timeline.contains("\"name\":\"replay\""), "{timeline}");
    assert!(log.contains("\"event\":\"run_started\""), "{log}");
    assert!(log.contains("\"event\":\"run_finished\""), "{log}");
}

/// A `--serve-metrics` bind that fails after `run_started` was logged
/// still logs `run_finished`, for an analysis run and for the daemon.
#[test]
fn failed_metrics_bind_still_logs_run_finished() {
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let addr = held.local_addr().expect("held address").to_string();
    let (store, log) = (temp_path("bind-store"), temp_path("bind.jsonl"));
    for command in [
        &["kernel", "fig2"][..],
        &["serve", "--stdin", "--store", &store],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reuselens"))
            .args(command)
            .args(["--serve-metrics", &addr, "--log-jsonl", &log])
            .output()
            .expect("binary runs");
        let text = std::fs::read_to_string(&log).expect("event log written");
        let _ = std::fs::remove_file(&log);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("cannot serve telemetry"), "{stderr}");
        assert!(text.contains("\"event\":\"run_started\""), "{text}");
        let finished = "\"event\":\"run_finished\",\"ok\":false";
        assert!(text.contains(finished), "{command:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

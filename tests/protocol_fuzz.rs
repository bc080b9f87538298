//! Protocol fuzz battery for `reuselens serve`: every hostile request
//! line — truncated, bit-spliced, pure garbage, structurally invalid,
//! oversized — must come back as a **typed error response** on the same
//! channel, and the daemon must keep answering well-formed requests
//! afterwards. The daemon process never dies on input bytes.
//!
//! Mutations come from the seeded [`Corruptor`] (`trace::fault`), so a
//! failure reproduces from the seed printed in the assertion message.

use reuselens::serve::{run_stdin, Daemon, DaemonConfig};
use reuselens::trace::fault::Corruptor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reuselens-fuzz-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn recv(rx: mpsc::Receiver<String>) -> String {
    rx.recv().expect("daemon dropped a response channel")
}

/// Every response is one line of JSON with an `ok` field; errors carry
/// a machine-readable type tag. This is the whole protocol contract a
/// hostile client can observe.
fn assert_typed_error(response: &str, what: &str) {
    assert!(
        response.starts_with("{\"ok\":false,"),
        "{what}: not an error response: {response}"
    );
    assert!(
        response.contains("\"type\":\""),
        "{what}: error without a type tag: {response}"
    );
    assert!(
        !response.contains('\n'),
        "{what}: response spans multiple lines"
    );
}

/// Valid request lines the mutators start from — one per job kind, so
/// mutations explore every parser path.
fn seed_requests() -> Vec<&'static [u8]> {
    vec![
        br#"{"kind":"ping"}"#,
        br#"{"kind":"list"}"#,
        br#"{"kind":"capture","id":"t1","workload":"kernel:stream"}"#,
        br#"{"kind":"replay","id":"t1","grains":[1,64],"sample_rate":0.5}"#,
        br#"{"kind":"estimate","workload":"sweep3d","mesh":6}"#,
        br#"{"kind":"evict","id":"t1"}"#,
        br#"{"kind":"sleep","ms":1}"#,
    ]
}

#[test]
fn spliced_requests_never_kill_the_daemon() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("splice"))).expect("start");
    let mut corruptor = Corruptor::new(0xF00D);
    for (i, seed) in seed_requests().iter().enumerate() {
        for round in 0..40 {
            let hostile = corruptor.splice_bytes(seed, 1 + round % 5);
            if hostile == *seed {
                continue; // the splice happened to be an identity
            }
            let response = recv(daemon.submit_line(&hostile));
            // A mutated line either still parses (rarely — e.g. a digit
            // spliced into a number) and runs as a job, or comes back as
            // a typed error. Both are fine; a hang or a panic is not.
            if !response.starts_with("{\"ok\":true,") {
                assert_typed_error(
                    &response,
                    &format!("seed request {i}, splice round {round}"),
                );
            }
        }
    }
    // The daemon still works after ~280 hostile lines.
    let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
}

#[test]
fn every_truncation_of_every_request_is_rejected_or_valid() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("trunc"))).expect("start");
    for (i, seed) in seed_requests().iter().enumerate() {
        for keep in 0..seed.len() {
            let hostile = &seed[..keep];
            let response = recv(daemon.submit_line(hostile));
            // No strict prefix of a valid request is itself valid JSON
            // (the closing brace is gone), so every truncation must be a
            // typed rejection.
            assert_typed_error(
                &response,
                &format!("seed request {i} truncated to {keep} bytes"),
            );
        }
    }
    let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
}

#[test]
fn garbage_lines_are_rejected() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("garbage"))).expect("start");
    let mut corruptor = Corruptor::new(0xBEEF);
    for round in 0..60 {
        let hostile = corruptor.garbage_line(1 + (round * 7) % 256);
        let response = recv(daemon.submit_line(&hostile));
        assert_typed_error(&response, &format!("garbage line, round {round}"));
    }
    // Empty line too.
    assert_typed_error(&recv(daemon.submit_line(b"")), "empty line");
    let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
}

#[test]
fn structurally_hostile_requests_get_the_right_error_type() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("shapes"))).expect("start");
    let cases: Vec<(&[u8], &str)> = vec![
        (br#"not json at all"#, "\"type\":\"parse\""),
        (br#"[1,2,3]"#, "\"type\":\"parse\""),
        (br#""just a string""#, "\"type\":\"parse\""),
        (br#"{"kind":"ping"} trailing"#, "\"type\":\"parse\""),
        (br#"{"kind":{"nested":true}}"#, "\"type\":\"parse\""),
        (br#"{"kind":"ping","kind":"list"}"#, "\"type\":\"parse\""),
        (br#"{}"#, "\"type\":\"missing-field\""),
        (br#"{"id":"t1"}"#, "\"type\":\"missing-field\""),
        (
            br#"{"kind":"warp-core-breach"}"#,
            "\"type\":\"unknown-kind\"",
        ),
        (
            br#"{"kind":"capture","id":"t1"}"#,
            "\"type\":\"missing-field\"",
        ),
        (
            br#"{"kind":"capture","workload":"kernel:stream"}"#,
            "\"type\":\"missing-field\"",
        ),
        (
            br#"{"kind":"capture","id":"../escape","workload":"kernel:stream"}"#,
            "\"type\":\"invalid-field\"",
        ),
        (
            br#"{"kind":"replay","id":"t1","sample_rate":-2}"#,
            "\"type\":\"invalid-field\"",
        ),
        (
            br#"{"kind":"replay","id":"t1","grains":[0]}"#,
            "\"type\":\"invalid-field\"",
        ),
        (
            br#"{"kind":"estimate","workload":"no-such-workload"}"#,
            "\"type\":\"invalid-field\"",
        ),
    ];
    for (line, want) in cases {
        let response = recv(daemon.submit_line(line));
        assert_typed_error(&response, &String::from_utf8_lossy(line));
        assert!(
            response.contains(want),
            "{}: expected {want}, got {response}",
            String::from_utf8_lossy(line)
        );
    }
    daemon.shutdown();
}

#[test]
fn oversized_requests_are_capped_not_buffered() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("oversize"))).expect("start");
    // A line over the 64 KiB cap: rejected with a parse error that names
    // the cap, not allocated into oblivion.
    let mut line = Vec::from(&br#"{"kind":"capture","id":""#[..]);
    line.extend(std::iter::repeat_n(b'a', 70 * 1024));
    line.extend(br#"","workload":"kernel:stream"}"#);
    let response = recv(daemon.submit_line(&line));
    assert_typed_error(&response, "oversized line");
    // An in-cap line with an oversized single string field.
    let mut line = Vec::from(&br#"{"kind":"evict","id":""#[..]);
    line.extend(std::iter::repeat_n(b'b', 8 * 1024));
    line.extend(br#""}"#);
    let response = recv(daemon.submit_line(&line));
    assert_typed_error(&response, "oversized string field");
    // An oversized array field.
    let mut line = Vec::from(&br#"{"kind":"replay","id":"t1","grains":["#[..]);
    line.extend("1,".repeat(3000).into_bytes());
    line.extend(br#"1]}"#);
    let response = recv(daemon.submit_line(&line));
    assert_typed_error(&response, "oversized array field");
    let pong = recv(daemon.submit_line(br#"{"kind":"ping"}"#));
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
}

/// The stdin transport faces the same hostile bytes as `submit_line`,
/// plus framing: CR-LF endings, interleaved garbage between valid
/// requests, and an unterminated final line.
#[test]
fn stdin_transport_survives_hostile_framing() {
    let daemon = Daemon::start(DaemonConfig::new(tmpdir("stdin"))).expect("start");
    let mut corruptor = Corruptor::new(0xCAFE);
    let mut input = Vec::new();
    input.extend(b"{\"kind\":\"ping\"}\r\n");
    let mut garbage = corruptor.garbage_line(64);
    garbage.retain(|b| *b != b'\n');
    input.extend(&garbage);
    input.push(b'\n');
    input.extend(b"{\"kind\":\"list\"}\n");
    input.extend(b"{\"kind\":\"ping\"}"); // EOF without a newline
    let mut output = Vec::new();
    run_stdin(&daemon, std::io::Cursor::new(input), &mut output).expect("run_stdin");
    let text = String::from_utf8(output).expect("responses are UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one response per input line: {text}");
    assert!(lines[0].contains("\"pong\":true"), "{}", lines[0]);
    assert_typed_error(lines[1], "garbage between valid requests");
    assert!(lines[2].contains("\"traces\":[]"), "{}", lines[2]);
    assert!(lines[3].contains("\"pong\":true"), "{}", lines[3]);
    daemon.shutdown();
}

//! The bench runner end to end at smoke size: the report it writes loads
//! as schema v2 and carries every per-layer row, and a v1 baseline is
//! refused with the schema error.

use reuselens_bench::report::{BenchReport, RATIOS};
use std::path::PathBuf;
use std::process::Command;

/// The per-layer rows every report must carry.
const LAYER_ROWS: [&str; 21] = [
    "capture_ns_per_event",
    "store_decode_ns_per_event",
    "store_get_ns_per_event",
    "store_put_ns_per_event",
    "decode_ns_per_event",
    "replay_ns_per_event",
    "replay_us_per_grain",
    "sampled_replay_ns_per_event",
    "decoded_replay_ns_per_event",
    "decoded_page_replay_ns_per_event",
    "decoded_sampled_replay_ns_per_event",
    "checkpoint_replay_ns_per_event",
    "gtc_decoded_replay_ns_per_event",
    "gtc_sampled_replay_ns_per_event",
    "gtc_capture_ns_per_event",
    "gtc_decode_ns_per_event",
    "gtc_store_get_ns_per_event",
    "checkpoint_us_per_snapshot",
    "estimate_us_per_call",
    "sweep_us_per_config",
    "report_us_per_report",
];

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "reuselens-runner-smoke-{}-{name}",
        std::process::id()
    ))
}

#[test]
fn smoke_report_carries_every_layer_row() {
    let out = scratch("report.json");
    // Capture the runner's output rather than inheriting it, so its rows
    // cannot interleave with the test harness's own result lines.
    let output = Command::new(env!("CARGO_BIN_EXE_bench-runner"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let report = BenchReport::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).ok();

    for name in LAYER_ROWS {
        assert!(report.row(name).is_some(), "missing row {name}");
    }
    // The checkpointed leg wrote snapshots, and the row timed them.
    let snapshot = report.row("checkpoint_us_per_snapshot").unwrap();
    assert!(snapshot.median > 0.0, "no snapshot was timed");
    // GTC's capture, decode and `get` legs each timed their layer, and
    // so did the daemon-shaped replays of the decoded Sweep3D trace.
    for name in [
        "decoded_page_replay_ns_per_event",
        "decoded_sampled_replay_ns_per_event",
        "gtc_capture_ns_per_event",
        "gtc_decode_ns_per_event",
        "gtc_store_get_ns_per_event",
    ] {
        let row = report.row(name).unwrap();
        assert!(row.median > 0.0, "{name}: nothing was timed");
    }
    // Every ratio's two rows were measured, the obs legs' included.
    assert_eq!(report.ratios().len(), RATIOS.len());
    for row in &report.rows {
        assert!(row.samples >= 1, "{}: {} samples", row.name, row.samples);
        assert!(
            row.median.is_finite(),
            "{}: median {}",
            row.name,
            row.median
        );
    }
    assert!(report.available_parallelism >= 1);
    let parallelism = std::thread::available_parallelism().unwrap().get();
    assert_eq!(report.available_parallelism, parallelism as u64);
}

#[test]
fn v1_baseline_is_refused_with_the_schema_error() {
    let baseline = scratch("v1.json");
    std::fs::write(
        &baseline,
        r#"{"schema": "reuselens-bench/v1", "throughput_events_per_second": 1.0, "runs": []}"#,
    )
    .unwrap();
    let out = scratch("v1-out.json");
    let output = Command::new(env!("CARGO_BIN_EXE_bench-runner"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .unwrap();
    std::fs::remove_file(&baseline).ok();
    std::fs::remove_file(&out).ok();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unsupported schema \"reuselens-bench/v1\""),
        "{stderr}"
    );
}

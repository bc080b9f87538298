//! One `emit` per occurrence, one view per sink: every `EventKind` is
//! emitted once into a recorder-only handle, a log-only handle and a
//! handle carrying both. The recorder moves exactly the documented
//! counter, gauge and grain row; the log writes the documented line; and
//! neither view changes when the other sink rides on the same handle.

use reuselens_obs::{
    emit, Counter, EventKind, EventLog, Gauge, GrainProfile, GrainStatus, MetricsRecorder, Obs,
};
use std::sync::Arc;
use std::time::Duration;

fn completed_row() -> GrainProfile {
    GrainProfile {
        block_size: 64,
        wall: Duration::from_nanos(4),
        events: 2,
        distinct_blocks: 3,
        tree_nodes: 3,
        status: GrainStatus::Completed,
        blocks_sampled: 5,
        blocks_evicted: 6,
        sample_inv: 7,
    }
}

/// The counter and delta an event's tally applies, if any.
type Tally = Option<(Counter, u64)>;

/// Every kind once, with its log line after the two timestamps and its
/// tally.
fn every_kind() -> Vec<(EventKind, &'static str, Tally)> {
    vec![
        (
            EventKind::RunStarted {
                command: "x".into(),
            },
            r#""severity":"info","event":"run_started","command":"x"}"#,
            None,
        ),
        (
            EventKind::RunFinished { ok: false },
            r#""severity":"info","event":"run_finished","ok":false}"#,
            None,
        ),
        (
            EventKind::GrainStarted { grain: 64 },
            r#""severity":"info","event":"grain_started","grain":64}"#,
            None,
        ),
        (
            EventKind::GrainCompleted {
                profile: completed_row(),
            },
            r#""severity":"info","event":"grain_completed","grain":64,"events":2,"distinct_blocks":3,"wall_ns":4}"#,
            Some((Counter::GrainsCompleted, 1)),
        ),
        (
            EventKind::GrainFailed {
                grain: 128,
                events: 9,
                reason: "r".into(),
                job: Some("j".into()),
            },
            r#""severity":"error","event":"grain_failed","grain":128,"reason":"r","job":"j"}"#,
            Some((Counter::GrainsFailed, 1)),
        ),
        (
            EventKind::CheckpointWritten {
                grain: 64,
                events_replayed: 2,
                bytes: 300,
            },
            r#""severity":"info","event":"checkpoint_written","grain":64,"events_replayed":2,"bytes":300}"#,
            Some((Counter::CheckpointsWritten, 1)),
        ),
        (
            EventKind::CheckpointResumed {
                grain: 64,
                events_replayed: 2,
            },
            r#""severity":"info","event":"checkpoint_resumed","grain":64,"events_replayed":2}"#,
            Some((Counter::CheckpointsResumed, 1)),
        ),
        (
            EventKind::CheckpointRejected {
                path: "p".into(),
                reason: "r".into(),
            },
            r#""severity":"warn","event":"checkpoint_rejected","path":"p","reason":"r"}"#,
            Some((Counter::CheckpointsRejected, 1)),
        ),
        (
            EventKind::SampleRateDropped {
                grain: 64,
                inv_rate: 2,
                evicted: 3,
            },
            r#""severity":"warn","event":"sample_rate_dropped","grain":64,"inv_rate":2,"evicted":3}"#,
            None,
        ),
        (
            EventKind::JobAccepted {
                job: "j".into(),
                kind: "capture".into(),
            },
            r#""severity":"info","event":"job_accepted","job":"j","kind":"capture"}"#,
            Some((Counter::JobsAccepted, 1)),
        ),
        (
            EventKind::JobCompleted {
                job: "j".into(),
                kind: "replay".into(),
                wall_ns: 5,
            },
            r#""severity":"info","event":"job_completed","job":"j","kind":"replay","wall_ns":5}"#,
            Some((Counter::JobsCompleted, 1)),
        ),
        (
            EventKind::JobFailed {
                job: "j".into(),
                kind: "replay".into(),
                reason: "r".into(),
            },
            r#""severity":"error","event":"job_failed","job":"j","kind":"replay","reason":"r"}"#,
            Some((Counter::JobsFailed, 1)),
        ),
        (
            EventKind::JobRejected {
                job: "j".into(),
                reason: "queue full".into(),
            },
            r#""severity":"warn","event":"job_rejected","job":"j","reason":"queue full"}"#,
            Some((Counter::JobsRejected, 1)),
        ),
        (
            EventKind::Heartbeat {
                uptime_s: 1.0,
                stage: "replay",
                grains_done: 1,
                grains_requested: 2,
                events_per_s: 3.0,
            },
            r#""severity":"info","event":"heartbeat","uptime_s":1.000,"stage":"replay","grains_done":1,"grains_requested":2,"events_per_s":3}"#,
            None,
        ),
    ]
}

/// A log's lines with the two leading timestamps cut off.
fn line_tails(log: &EventLog) -> Vec<String> {
    log.captured()
        .lines()
        .map(|line| {
            assert!(line.starts_with("{\"t_mono_ns\":"), "{line}");
            let severity = line.find("\"severity\"").expect("a severity field");
            line[severity..].to_string()
        })
        .collect()
}

#[test]
fn each_sink_takes_its_own_view_of_every_kind() {
    let recorder = Arc::new(MetricsRecorder::new());
    let log = Arc::new(EventLog::to_vec());
    let both_recorder = Arc::new(MetricsRecorder::new());
    let both_log = Arc::new(EventLog::to_vec());
    let recorder_only = Obs::from(recorder.clone());
    let log_only = Obs {
        events: Some(log.clone()),
        ..Obs::default()
    };
    let both = Obs {
        events: Some(both_log.clone()),
        ..Obs::from(both_recorder.clone())
    };

    let mut counters = [0; Counter::ALL.len()];
    for (kind, _, tally) in every_kind() {
        let name = kind.name();
        for handle in [&recorder_only, &log_only, &both] {
            let _scope = handle.enter();
            emit(kind.clone());
        }
        if let Some((counter, delta)) = tally {
            counters[counter.index()] += delta;
        }
        assert_eq!(recorder.snapshot().counters, counters, "after {name}");
    }

    // The recorder's view: the counters above, one gauge, two rows, and
    // nothing else.
    let snap = recorder.snapshot();
    let mut gauges = [0; Gauge::ALL.len()];
    gauges[Gauge::SnapshotBytes.index()] = 300;
    assert_eq!(snap.gauges, gauges);
    assert!(snap.spans.iter().all(|s| s.count == 0));
    let failed_row = GrainProfile {
        block_size: 128,
        wall: Duration::ZERO,
        events: 9,
        distinct_blocks: 0,
        tree_nodes: 0,
        status: GrainStatus::Failed,
        blocks_sampled: 0,
        blocks_evicted: 0,
        sample_inv: 0,
    };
    assert_eq!(snap.grains, vec![completed_row(), failed_row]);

    // The log's view: one documented line per kind, with no recorder.
    let lines: Vec<&str> = every_kind().iter().map(|(_, line, _)| *line).collect();
    assert_eq!(line_tails(&log), lines);

    // Both sinks on one handle: each view is the one it has alone.
    assert_eq!(both_recorder.snapshot(), snap);
    assert_eq!(line_tails(&both_log), lines);
}

//! Timeline ring-buffer behavior under pressure: bounded overflow that
//! drops oldest and counts drops (never blocks, never reallocates past
//! the bound), well-formed merges from many concurrent writer threads,
//! and clean attach/detach mid-run (no dangling events).
//!
//! Every test records through its own `Obs` scope except
//! `reinstalling_returns_the_previous_timeline`, the one test of the
//! global slot, so the tests can run in parallel.

use reuselens_obs as obs;
use reuselens_obs::{Counter, MetricsRecorder, Obs, Stage, Timeline, TimelineArgs};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn overflow_drops_oldest_and_ticks_the_counter() {
    let recorder = Arc::new(MetricsRecorder::new());
    let timeline = Arc::new(Timeline::with_capacity(4));
    let _scope = Obs {
        timeline: Some(timeline.clone()),
        ..recorder.clone().into()
    }
    .enter();

    // 10 spans into a 4-slot ring: 6 oldest dropped, 4 newest kept.
    for i in 0..10u64 {
        let mut span = obs::span_with(Stage::Replay, || TimelineArgs {
            grain: Some(i),
            ..TimelineArgs::default()
        });
        span.record(|args| args.events = Some(i * 100));
    }

    let snap = timeline.snapshot();
    assert_eq!(snap.events.len(), 4, "ring stays at capacity");
    assert_eq!(snap.dropped, 6);
    assert_eq!(recorder.snapshot().counter(Counter::TimelineDropped), 6);
    let grains: Vec<u64> = snap.events.iter().filter_map(|e| e.args.grain).collect();
    assert_eq!(grains, vec![6, 7, 8, 9], "survivors are the newest spans");
    // Every survivor is complete: closed args recorded, end >= begin.
    for event in &snap.events {
        assert_eq!(event.args.events, Some(event.args.grain.unwrap() * 100));
        assert!(event.end_ns >= event.begin_ns);
    }
}

#[test]
fn eight_concurrent_writers_merge_into_a_well_formed_timeline() {
    const THREADS: u64 = 8;
    const SPANS_PER_THREAD: u64 = 200;
    let timeline = Arc::new(Timeline::new());
    let obs = &Obs {
        timeline: Some(timeline.clone()),
        ..Obs::default()
    };

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let _scope = obs.enter();
                for i in 0..SPANS_PER_THREAD {
                    let _span = obs::span_with(Stage::Replay, || TimelineArgs {
                        grain: Some(t),
                        events: Some(i),
                        ..TimelineArgs::default()
                    });
                }
            });
        }
    });

    let snap = timeline.snapshot();
    assert_eq!(snap.dropped, 0, "default geometry holds 1600 events");
    assert_eq!(snap.events.len(), (THREADS * SPANS_PER_THREAD) as usize);
    // Well-formed merge: globally ordered by begin, every event closed,
    // every thread contributed exactly its share in its own order.
    for pair in snap.events.windows(2) {
        assert!(
            pair[0].begin_ns <= pair[1].begin_ns,
            "snapshot is time-ordered"
        );
    }
    for t in 0..THREADS {
        let mine: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.args.grain == Some(t))
            .filter_map(|e| e.args.events)
            .collect();
        assert_eq!(mine.len() as u64, SPANS_PER_THREAD);
        // Spans on one thread are sequential, so per-writer order survives
        // the merge.
        let mut sorted = mine.clone();
        sorted.sort_unstable();
        assert_eq!(mine, sorted);
    }
    // The chrome export of a concurrent merge is loadable JSON with one
    // complete event per span.
    let json = snap.to_chrome_trace();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), snap.events.len());
}

#[test]
fn install_and_uninstall_mid_run_leave_no_dangling_events() {
    // A recorder is already running (arming spans) when the timeline is
    // attached mid-run — the CLI's `--metrics` + `--trace-timeline` shape.
    let recorder = Arc::new(MetricsRecorder::new());
    let _recording = Obs::from(recorder.clone()).enter();

    // Span opened before the timeline existed, closed after install:
    // recorded, begin clamped to the timeline epoch (never a negative /
    // wrapped timestamp).
    let span_before = obs::span_with(Stage::Capture, TimelineArgs::default);
    std::thread::sleep(Duration::from_millis(2));
    let timeline = Arc::new(Timeline::new());
    let attached = Obs {
        timeline: Some(timeline.clone()),
        ..recorder.clone().into()
    }
    .enter();
    drop(span_before);

    // Span opened while installed, closed after uninstall: not recorded —
    // events enter the buffer only at close, so nothing dangles.
    let span_across = obs::span_with(Stage::Sweep, TimelineArgs::default);
    {
        let _span = obs::span_with(Stage::Replay, || TimelineArgs {
            grain: Some(7),
            ..TimelineArgs::default()
        });
    }
    drop(attached);
    drop(span_across);

    // Spans after uninstall leave no trace at all.
    drop(obs::span_with(Stage::Report, TimelineArgs::default));

    let snap = timeline.snapshot();
    let stages: Vec<Stage> = snap.events.iter().map(|e| e.stage).collect();
    assert_eq!(stages, vec![Stage::Capture, Stage::Replay]);
    assert_eq!(
        snap.events[0].begin_ns, 0,
        "pre-install open clamps to epoch"
    );
    for event in &snap.events {
        assert!(
            event.end_ns >= event.begin_ns,
            "every recorded event is closed"
        );
    }
    assert_eq!(snap.dropped, 0);
}

#[test]
fn reinstalling_returns_the_previous_timeline() {
    let first = Arc::new(Timeline::new());
    let second = Arc::new(Timeline::new());
    assert!(obs::install(Obs {
        timeline: Some(first.clone()),
        ..Obs::default()
    })
    .is_none());
    drop(obs::span_with(Stage::Capture, TimelineArgs::default));
    let previous = obs::install(Obs {
        timeline: Some(second.clone()),
        ..Obs::default()
    });
    let previous = previous.expect("first is returned");
    assert!(Arc::ptr_eq(&previous.timeline.expect("a timeline"), &first));
    drop(obs::span_with(Stage::Sweep, TimelineArgs::default));
    obs::uninstall();
    assert_eq!(first.snapshot().events.len(), 1);
    assert_eq!(second.snapshot().events.len(), 1);
    assert_eq!(second.snapshot().events[0].stage, Stage::Sweep);
}

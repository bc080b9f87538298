//! Golden snapshot of the Chrome trace-event JSON exporter.
//!
//! A fixed [`TimelineSnapshot`] covering every stage, every typed arg
//! (including a hierarchy name that needs JSON escaping), nesting, and a
//! nonzero drop count is normalized ([`TimelineSnapshot::normalize`]:
//! timestamps zeroed, thread ids renumbered densely) and rendered; the
//! whole string is compared byte-exact, in the style of
//! `exporter_golden.rs`. Any drift in the event shape breaks
//! `chrome://tracing` / Perfetto loading downstream, so it fails here
//! first.

use reuselens_obs::{Stage, TimelineArgs, TimelineEvent, TimelineSnapshot};

/// One event per stage across two (un-normalized) thread ids, with the
/// full arg set exercised on the replay and sweep events.
fn snapshot() -> TimelineSnapshot {
    let event = |stage, begin_ns, end_ns, thread, seq, args| TimelineEvent {
        stage,
        begin_ns,
        end_ns,
        thread,
        depth: 1,
        seq,
        args,
    };
    let mut events = vec![
        event(
            Stage::Capture,
            1_000,
            51_000,
            42,
            0,
            TimelineArgs::default(),
        ),
        event(
            Stage::Decode,
            60_000,
            75_500,
            42,
            1,
            TimelineArgs {
                events: Some(66_124),
                ..TimelineArgs::default()
            },
        ),
        event(
            Stage::Replay,
            80_000,
            230_000,
            7,
            0,
            TimelineArgs {
                grain: Some(128),
                events: Some(66_124),
                distinct_blocks: Some(92),
                tree_nodes: Some(92),
                ..TimelineArgs::default()
            },
        ),
        event(
            Stage::Sweep,
            240_000,
            240_487,
            42,
            2,
            TimelineArgs {
                hierarchy: Some("Itanium2/16 \"scaled\"".to_string()),
                ..TimelineArgs::default()
            },
        ),
        event(
            Stage::Report,
            241_000,
            241_671,
            42,
            3,
            TimelineArgs {
                hierarchy: Some("Itanium2/16".to_string()),
                ..TimelineArgs::default()
            },
        ),
    ];
    // Nested decode span under the replay, on the replay's thread.
    events.push(event(
        Stage::Decode,
        81_000,
        90_000,
        7,
        1,
        TimelineArgs::default(),
    ));
    events.sort_by_key(|e| (e.begin_ns, e.thread, e.seq));
    TimelineSnapshot { events, dropped: 3 }
}

const GOLDEN_TRACE: &str = r#"{"traceEvents":[
{"name":"capture","cat":"reuselens","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":0.000,"args":{"depth":1}},
{"name":"decode","cat":"reuselens","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":0.000,"args":{"depth":1,"events":66124}},
{"name":"replay","cat":"reuselens","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.000,"args":{"depth":1,"grain":128,"events":66124,"distinct_blocks":92,"tree_nodes":92}},
{"name":"decode","cat":"reuselens","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.000,"args":{"depth":1}},
{"name":"sweep","cat":"reuselens","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":0.000,"args":{"depth":1,"hierarchy":"Itanium2/16 \"scaled\""}},
{"name":"report","cat":"reuselens","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":0.000,"args":{"depth":1,"hierarchy":"Itanium2/16"}}
],"displayTimeUnit":"ms","otherData":{"timeline_dropped_total":3}}
"#;

#[test]
fn chrome_trace_matches_golden() {
    let mut snap = snapshot();
    snap.normalize();
    assert_eq!(snap.to_chrome_trace(), GOLDEN_TRACE);
}

#[test]
fn normalization_is_idempotent_and_preserves_order() {
    let mut once = snapshot();
    once.normalize();
    let mut twice = once.clone();
    twice.normalize();
    assert_eq!(once, twice);
    // Normalizing never reorders: stages appear as in the raw snapshot.
    let raw: Vec<Stage> = snapshot().events.iter().map(|e| e.stage).collect();
    let normalized: Vec<Stage> = once.events.iter().map(|e| e.stage).collect();
    assert_eq!(raw, normalized);
}

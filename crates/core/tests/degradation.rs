//! Graceful-degradation suite for the fault-tolerant replay engine:
//! a panicking, budget-tripping, or checkpoint-failing grain must never
//! take its sibling grains down, and every failure must come back as a
//! structured report rather than a process abort.

use reuselens_core::{
    analyze_buffer, analyze_buffer_with, analyze_program, capture_program, AnalysisBudget,
    AnalysisError, AnalyzeOptions, CheckpointOptions, GrainError, SamplingConfig,
};
use reuselens_ir::{Program, ProgramBuilder, RefId, ScopeId};
use reuselens_obs::{EventLog, Obs};
use reuselens_trace::{TraceBuffer, TraceSink};
use std::sync::Arc;

/// A two-sweep streaming workload: enough footprint to exercise the block
/// table and tree, deterministic shape for bit-identical comparisons.
fn workload(elems: u64) -> Program {
    let mut p = ProgramBuilder::new("stream");
    let a = p.array("a", 8, &[elems]);
    p.routine("main", |r| {
        r.for_("t", 0, 1, |r, _| {
            r.for_("i", 0, (elems - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
    });
    p.finish()
}

/// A block size of 0 is not a power of two, so `ReuseAnalyzer::new`
/// panics deterministically inside that grain's replay thread — the
/// injection vector for grain-level panics.
const PANICKING_GRAIN: u64 = 0;

/// One panicking grain among healthy ones: the survivors' profiles are
/// bit-identical to a fully healthy run, and the failure report names the
/// dead grain with its panic message.
#[test]
fn single_grain_panic_leaves_siblings_bit_identical() {
    let prog = workload(2048);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let grains = [64u64, PANICKING_GRAIN, 4096];
    let partial = analyze_buffer_with(&prog, &buffer, &grains, &AnalyzeOptions::default());

    assert!(!partial.is_complete());
    assert_eq!(partial.profiles.len(), 2);
    assert_eq!(partial.failures.len(), 1);

    // Survivors match the online pipeline exactly.
    let online = analyze_program(&prog, &[64, 4096], vec![]).unwrap();
    assert_eq!(partial.profile_at(64), online.profile_at(64));
    assert_eq!(partial.profile_at(4096), online.profile_at(4096));
    assert_eq!(partial.replays.len(), 2);
    assert_eq!(partial.replays[0].block_size, 64);
    assert_eq!(partial.replays[1].block_size, 4096);

    // The failure report is fully populated.
    let failure = partial.failure_at(PANICKING_GRAIN).unwrap();
    match &failure.error {
        GrainError::Panicked(msg) => {
            assert!(msg.contains("power of two"), "unexpected message: {msg}")
        }
        other => panic!("expected a panic report, got {other}"),
    }
    assert_eq!(
        failure.to_string(),
        "grain 0: replay thread panicked: block size must be a power of two"
    );
    assert!(partial.failure_at(64).is_none());

    // Sampling composes with panic isolation: the sampled analyzer
    // rejects the grain exactly like the exact one, and its siblings
    // complete with their sampling books.
    let sampled = AnalyzeOptions {
        sampling: SamplingConfig::fixed(0.1),
        ..AnalyzeOptions::default()
    };
    let mixed = analyze_buffer_with(&prog, &buffer, &grains, &sampled);
    assert_eq!(mixed.profiles.len(), 2);
    assert!(matches!(
        mixed.failure_at(PANICKING_GRAIN).unwrap().error,
        GrainError::Panicked(_)
    ));
    assert!(mixed.profiles.iter().all(|p| p.sampling.is_some()));
}

/// The strict entry point surfaces the same failure as a typed error —
/// after joining every thread, not by aborting the process.
#[test]
fn strict_analyze_buffer_returns_grain_panicked() {
    let prog = workload(512);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let err = analyze_buffer(&prog, &buffer, &[64, PANICKING_GRAIN]).unwrap_err();
    match err {
        AnalysisError::GrainPanicked {
            block_size,
            message,
        } => {
            assert_eq!(block_size, PANICKING_GRAIN);
            assert!(message.contains("power of two"));
        }
        other => panic!("expected GrainPanicked, got {other}"),
    }
}

/// Replay is deterministic, so a failed grain is not re-run: a panicking
/// grain starts once and fails once.
#[test]
fn a_panicking_grain_starts_once() {
    let prog = workload(256);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let log = Arc::new(EventLog::to_vec());
    let handle = Obs {
        events: Some(log.clone()),
        ..Obs::default()
    };
    let partial = {
        let _scope = handle.enter();
        analyze_buffer_with(
            &prog,
            &buffer,
            &[PANICKING_GRAIN],
            &AnalyzeOptions::default(),
        )
    };
    assert!(partial.failure_at(PANICKING_GRAIN).is_some());
    let lines = log.captured();
    let count = |event: &str| lines.matches(&format!("\"event\":\"{event}\"")).count();
    assert_eq!(count("grain_started"), 1, "{lines}");
    assert_eq!(count("grain_failed"), 1, "{lines}");
}

/// The events cap trips with progress counters populated; the decode,
/// block-table, and tree footprints at abandonment are all reported.
#[test]
fn budgets_trip_with_progress_counters() {
    let prog = workload(4096); // 8192 accesses, 512 lines at 64 B
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let opts = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(100),
        ..AnalyzeOptions::default()
    };
    let partial = analyze_buffer_with(&prog, &buffer, &[64], &opts);
    let failure = partial.failure_at(64).expect("budget must trip");
    match &failure.error {
        GrainError::Budget(e) => {
            assert_eq!(e.allowed, 100);
            assert!(e.progress.events > 0);
            assert!(e.progress.distinct_blocks > 0);
            assert!(e.progress.tree_nodes > 0);
        }
        other => panic!("expected a budget report, got {other}"),
    }
}

/// The serial loop checks the budget after every replay step of at most
/// 4096 events, with or without checkpoints: a checkpointed grain whose
/// snapshot interval is longer than the trace still trips an event budget
/// within one step of the limit, not at the end of the trace.
#[test]
fn serial_and_checkpointed_grains_trip_the_budget_within_one_step() {
    const STEP: u64 = 4096;
    let prog = workload(1 << 14); // 32768 accesses
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let dir = std::env::temp_dir().join(format!(
        "reuselens-degradation-budget-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let serial = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(100),
        ..AnalyzeOptions::default()
    };
    let checkpointed = AnalyzeOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            every: 1 << 20,
            resume: false,
        }),
        ..serial.clone()
    };
    for (name, opts) in [("serial", serial), ("checkpointed", checkpointed)] {
        let partial = analyze_buffer_with(&prog, &buffer, &[64], &opts);
        let failure = partial.failure_at(64).expect("budget must trip");
        match &failure.error {
            GrainError::Budget(e) => {
                assert_eq!(e.allowed, 100);
                assert!(
                    e.progress.events <= 100 + STEP,
                    "{name}: budget tripped only at event {}",
                    e.progress.events
                );
            }
            other => panic!("{name}: expected a budget report, got {other}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A budget generous enough never trips, and the budgeted replay path
/// produces bit-identical profiles to the default path.
#[test]
fn generous_budget_matches_fast_path() {
    let prog = workload(2048);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let fast = analyze_buffer(&prog, &buffer, &[64, 4096]).unwrap().0;
    let opts = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(1 << 40),
        ..AnalyzeOptions::default()
    };
    let partial = analyze_buffer_with(&prog, &buffer, &[64, 4096], &opts);
    assert!(partial.is_complete());
    assert_eq!(partial.profiles, fast);
}

/// A buffer is well-formed by construction except for a stream hand-fed
/// to its sink with unbalanced scopes: replay delivers it as fed, the
/// analyzer's scope stack panics on the unmatched exit, and the grain
/// fails as a panic report under the usual isolation.
#[test]
fn hand_fed_unbalanced_scopes_fail_the_grain_as_a_panic() {
    let prog = workload(64);
    let mut buffer = TraceBuffer::new();
    buffer.enter(ScopeId(1));
    buffer.access(RefId(0), 0x1000);
    buffer.exit(ScopeId(2));
    let partial = analyze_buffer_with(&prog, &buffer, &[64], &AnalyzeOptions::default());
    match &partial.failure_at(64).expect("the grain must fail").error {
        GrainError::Panicked(msg) => assert!(msg.contains("unbalanced scope exit"), "{msg}"),
        other => panic!("expected a panic report, got {other}"),
    }
}

/// A grain panic caused by a hostile consumer is isolated — here both
/// failure modes mix in one request: a dead grain, a budget-limited
/// grain, and a healthy one.
#[test]
fn mixed_failure_modes_in_one_request() {
    let prog = workload(2048);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let opts = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(64),
        ..AnalyzeOptions::default()
    };
    // Grain 0 panics; the others trip the tiny event budget.
    let partial = analyze_buffer_with(&prog, &buffer, &[64, PANICKING_GRAIN], &opts);
    assert_eq!(partial.failures.len(), 2);
    assert!(matches!(
        partial.failure_at(PANICKING_GRAIN).unwrap().error,
        GrainError::Panicked(_)
    ));
    assert!(matches!(
        partial.failure_at(64).unwrap().error,
        GrainError::Budget(_)
    ));
}

/// The one-call degraded pipeline: capture + isolated replay + stats.
#[test]
fn analyze_program_degraded_end_to_end() {
    let prog = workload(1024);
    let grains = [64u64, PANICKING_GRAIN, 4096];
    let (buffer, report) = capture_program(&prog, vec![]).unwrap();
    let partial = analyze_buffer_with(&prog, &buffer, &grains, &AnalyzeOptions::default());
    assert_eq!(report.accesses, 2 * 1024);
    assert_eq!(partial.profiles.len(), 2);
    assert_eq!(partial.failures.len(), 1);
    assert_eq!(
        partial.replays.len(),
        2,
        "timings cover surviving grains only"
    );
    assert_eq!(buffer.stats().accesses, report.accesses);
}

/// `into_strict` converts failures into the typed error taxonomy.
#[test]
fn into_strict_maps_each_failure_kind() {
    let prog = workload(512);
    let (buffer, _) = capture_program(&prog, vec![]).unwrap();
    let opts = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(10),
        ..AnalyzeOptions::default()
    };
    let err = analyze_buffer_with(&prog, &buffer, &[64], &opts)
        .into_strict()
        .unwrap_err();
    assert!(matches!(err, AnalysisError::Budget(_)));

    let ok = analyze_buffer_with(&prog, &buffer, &[64], &AnalyzeOptions::default())
        .into_strict()
        .unwrap();
    assert_eq!(ok.0.len(), 1);
}

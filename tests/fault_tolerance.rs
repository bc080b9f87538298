//! Workspace-level fault-tolerance suite: the error taxonomy, the trace
//! import boundary, resource budgets, and checkpoint failures, exercised
//! through the `reuselens` facade on real workload models.

use reuselens::cache::{
    try_report_from_analysis, Assoc, CacheConfig, ConfigError, MemoryHierarchy,
};
use reuselens::core::{
    analyze_buffer, analyze_buffer_with, capture_program, AnalysisBudget, AnalysisResult,
    AnalyzeOptions, CheckpointOptions, GrainError, SnapshotError,
};
use reuselens::metrics::run_locality_analysis_opts;
use reuselens::trace::fault::Corruptor;
use reuselens::trace::{TraceBuffer, VecSink};
use reuselens::workloads::kernels::random_gather;
use reuselens::ReuseLensError;

fn measured_analysis() -> (reuselens::core::AnalysisResult, reuselens::ir::Program) {
    let w = random_gather(1 << 10, 1 << 12, 2, 7);
    let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let (profiles, _) = analyze_buffer(&w.program, &buffer, &[128, 16 * 1024]).unwrap();
    (AnalysisResult { profiles, exec }, w.program)
}

/// `opts` with checkpointing switched on.
fn with_ckpt(opts: &AnalyzeOptions, ckpt: &CheckpointOptions) -> AnalyzeOptions {
    AnalyzeOptions {
        checkpoint: Some(ckpt.clone()),
        ..opts.clone()
    }
}

/// An invalid candidate hierarchy fails scoring with a `Config` error
/// instead of panicking somewhere inside the model.
#[test]
fn invalid_hierarchy_is_a_config_error() {
    let (analysis, _) = measured_analysis();
    let mut bad = MemoryHierarchy::itanium2();
    bad.miss_penalty.pop();
    let err = try_report_from_analysis(&analysis, &bad).unwrap_err();
    assert!(
        matches!(
            err,
            ReuseLensError::Config(ConfigError::PenaltyMismatch { .. })
        ),
        "unexpected: {err}"
    );
}

/// A hierarchy needing an unmeasured granularity reports which profile is
/// missing and for which candidate.
#[test]
fn missing_granularity_is_reported() {
    let (analysis, _) = measured_analysis(); // measured at 128 and 16 K only
    let mut odd = MemoryHierarchy::itanium2();
    odd.levels[0] = CacheConfig::new("L2", 256 * 1024, 64, Assoc::Ways(8));
    let err = try_report_from_analysis(&analysis, &odd).unwrap_err();
    match &err {
        ReuseLensError::MissingProfile {
            hierarchy,
            granularity,
        } => {
            assert_eq!(hierarchy, "Itanium2");
            assert_eq!(*granularity, 64);
        }
        other => panic!("expected MissingProfile, got {other}"),
    }
    assert!(err.to_string().contains("no profile at granularity"));
}

/// A hierarchy with no cache levels is a `Config` error that names it.
#[test]
fn an_empty_hierarchy_is_a_config_error() {
    let (analysis, _) = measured_analysis();
    let mut bad = MemoryHierarchy::itanium2();
    bad.name = "broken".to_string();
    bad.levels.clear();
    let err = try_report_from_analysis(&analysis, &bad).unwrap_err();
    assert!(
        matches!(
            &err,
            ReuseLensError::Config(ConfigError::NoLevels { hierarchy }) if hierarchy == "broken"
        ),
        "unexpected: {err}"
    );
}

/// A budgeted degraded analysis of a real irregular workload: the tiny
/// budget trips with progress counters, the generous one completes.
#[test]
fn budgeted_analysis_on_real_workload() {
    let w = random_gather(1 << 10, 1 << 12, 2, 7);
    let tight = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(8),
        ..AnalyzeOptions::default()
    };
    let (buffer, report) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let partial = analyze_buffer_with(&w.program, &buffer, &[128], &tight);
    let failure = partial.failure_at(128).expect("tight budget must trip");
    match &failure.error {
        GrainError::Budget(e) => {
            assert_eq!(e.allowed, 8);
            assert!(e.progress.events > 8);
            assert!(e.progress.distinct_blocks > 0);
        }
        other => panic!("expected budget failure, got {other}"),
    }

    let generous = AnalyzeOptions {
        budget: AnalysisBudget::unlimited().with_max_events(u64::MAX),
        ..AnalyzeOptions::default()
    };
    let partial = analyze_buffer_with(&w.program, &buffer, &[128], &generous);
    assert!(partial.is_complete());
    assert_eq!(partial.profiles[0].total_accesses, report.accesses);
}

/// A captured real workload's exported image imports through the checked
/// decoder and replays identically; a corrupted copy of the same image is
/// rejected without panicking.
#[test]
fn captured_workload_validates_and_corruption_is_rejected() {
    let w = random_gather(1 << 10, 1 << 12, 2, 7);
    let (buffer, report) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let image = buffer.export();
    let imported = TraceBuffer::import(image.clone()).unwrap();
    let mut fast = VecSink::new();
    buffer.replay(&mut fast);
    let mut checked = VecSink::new();
    imported.replay(&mut checked);
    assert_eq!(fast, checked);
    assert_eq!(report.accesses, buffer.accesses());

    let mut corruptor = Corruptor::new(0x5eed);
    for _ in 0..10 {
        assert!(TraceBuffer::import(corruptor.truncate(&image)).is_err());
        // Bit flips may or may not decode; they must simply never panic.
        let _ = TraceBuffer::import(corruptor.bit_flip(&image));
    }
}

/// The crash-safe pipeline through the facade: a checkpointed analysis
/// of a real workload equals the plain pipeline, and after every
/// snapshot file in the directory is mutated (bit flips, truncation,
/// trailing garbage) a resume still equals it — corrupted snapshots are
/// fallback material, never fatal and never silently wrong.
#[test]
fn checkpointed_pipeline_survives_snapshot_corruption() {
    let w = random_gather(1 << 10, 1 << 12, 2, 7);
    let h = MemoryHierarchy::itanium2_scaled(16);
    let opts = AnalyzeOptions::default();
    let plain = run_locality_analysis_opts(&w.program, &h, w.index_arrays.clone(), &opts).unwrap();
    let dir = std::env::temp_dir().join(format!(
        "reuselens-fault-tolerance-ckpt-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: 1500,
        resume: false,
    };
    let first = run_locality_analysis_opts(
        &w.program,
        &h,
        w.index_arrays.clone(),
        &with_ckpt(&opts, &ckpt),
    )
    .unwrap();
    assert_eq!(plain.analysis.profiles, first.analysis.profiles);

    // Mutate every snapshot on disk, a different way each time.
    let mut corruptor = Corruptor::new(0x0bad_c0de);
    let mut mutated = 0usize;
    for (i, entry) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let bytes = std::fs::read(entry.path()).unwrap();
        let bad = match i % 3 {
            0 => corruptor.flip_bytes(&bytes, 2),
            1 => corruptor.truncate_bytes(&bytes),
            _ => corruptor.trailing_garbage(&bytes, 9),
        };
        std::fs::write(entry.path(), bad).unwrap();
        mutated += 1;
    }
    assert!(
        mutated > 0,
        "checkpointed run wrote no snapshots to corrupt"
    );
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: 1500,
        resume: true,
    };
    let resumed = run_locality_analysis_opts(
        &w.program,
        &h,
        w.index_arrays.clone(),
        &with_ckpt(&opts, &ckpt),
    )
    .unwrap();
    assert_eq!(plain.analysis.profiles, resumed.analysis.profiles);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint *infrastructure* failure — a checkpoint directory path
/// occupied by a regular file — surfaces as a typed
/// `ReuseLensError::Snapshot`, not a panic or a silent fallback.
#[test]
fn unwritable_checkpoint_dir_is_a_snapshot_error() {
    let w = random_gather(1 << 8, 1 << 10, 2, 7);
    let h = MemoryHierarchy::itanium2_scaled(16);
    let path = std::env::temp_dir().join(format!(
        "reuselens-fault-tolerance-notadir-{}",
        std::process::id()
    ));
    std::fs::write(&path, b"occupied").unwrap();
    let ckpt = CheckpointOptions {
        dir: path.clone(),
        every: 100,
        resume: false,
    };
    let err = run_locality_analysis_opts(
        &w.program,
        &h,
        w.index_arrays.clone(),
        &with_ckpt(&AnalyzeOptions::default(), &ckpt),
    )
    .unwrap_err();
    match &err {
        ReuseLensError::Snapshot(SnapshotError::Io { op, .. }) => {
            assert_eq!(*op, "create checkpoint directory");
        }
        other => panic!("expected Snapshot(Io), got {other}"),
    }
    assert!(err.to_string().contains("checkpoint failed"));
    std::fs::remove_file(&path).ok();
}

/// Every error in the taxonomy converts into `ReuseLensError` via `?`.
#[test]
fn error_taxonomy_composes_with_question_mark() {
    fn pipeline() -> Result<usize, ReuseLensError> {
        let w = random_gather(1 << 8, 1 << 10, 2, 7);
        let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone())?;
        let (profiles, _) = analyze_buffer(&w.program, &buffer, &[128, 16 * 1024])?;
        let analysis = AnalysisResult { profiles, exec };
        let report = try_report_from_analysis(&analysis, &MemoryHierarchy::itanium2())?;
        Ok(report.levels.len())
    }
    assert_eq!(pipeline().unwrap(), 2);
}

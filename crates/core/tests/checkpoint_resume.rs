//! End-to-end property suite for crash-safe checkpoint/resume: an
//! interrupted-and-resumed analysis must equal an uninterrupted one
//! **bit for bit**, and no injected crash or corruption may ever panic,
//! silently corrupt a profile, or fail with anything but a typed
//! [`SnapshotError`].
//!
//! Every case builds a seeded [`SplitMix64`] trace buffer directly (three
//! shapes: strided, pointer-chasing, clustered — with randomly nested
//! scopes so carrier attribution crosses checkpoint boundaries) and
//! proves:
//!
//! * **identity** — a checkpointed run equals `analyze_buffer_with` for
//!   exact, fixed-rate, and adaptive sampling;
//! * **kill-and-resume** — rerunning with `resume` against the snapshot
//!   directory of an interrupted run (any surviving snapshot prefix)
//!   reproduces the uninterrupted profiles bit for bit;
//! * **every crash point** — a newest snapshot torn at *every byte
//!   boundary* by [`CrashPoint`] is rejected and recovery falls back to
//!   the previous valid snapshot (or a cold start), still bit-identical;
//! * **typed rejection** — magic/version/CRC/truncation/garbage/grain
//!   mutations produce the matching [`SnapshotError`] variant from
//!   [`snapshot_meta`] and are skipped (never fatal) during resume;
//! * **observability** — written/resumed/rejected checkpoint counters
//!   reconcile with the snapshot files on disk.
//!
//! The obs recorder slot is process-global, so every test serializes on
//! one poison-tolerant mutex (the `obs_identity` idiom) — a test that
//! installs a recorder must not absorb a concurrent test's counters.

use reuselens_core::{
    analyze_buffer_with, snapshot_file_name, snapshot_meta, AnalyzeOptions, CheckpointOptions,
    ReuseProfile, SamplingConfig, SnapshotError, SNAPSHOT_VERSION,
};
use reuselens_ir::{Program, ProgramBuilder, RefId, ScopeId};
use reuselens_obs::{self as obs, Counter, EventLog, MetricsRecorder};
use reuselens_prng::SplitMix64;
use reuselens_trace::fault::{Corruptor, CrashPoint};
use reuselens_trace::{TraceBuffer, TraceSink};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GRAINS: [u64; 3] = [1, 64, 4096];
const NREFS: u32 = 5;
const BASE_SEED: u64 = 0xc4ec_9011_2e5e_0001;

/// A program with [`NREFS`] references so buffer `RefId`s resolve to
/// real sinks; the suite drives the [`TraceSink`] interface directly.
fn program() -> Program {
    let mut p = ProgramBuilder::new("checkpoint_resume");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.for_("i", 0, 0, |r, i| {
            for _ in 0..NREFS {
                r.load(a, vec![i.into()]);
            }
        });
    });
    p.finish()
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Strided,
    PointerChasing,
    Clustered,
}

const SHAPES: [Shape; 3] = [Shape::Strided, Shape::PointerChasing, Shape::Clustered];

/// One deterministic trace buffer for (shape, seed): `len` accesses over
/// five references with randomly nested scopes.
fn gen_buffer(shape: Shape, seed: u64, len: u64) -> TraceBuffer {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut cluster = rng.gen_range(0..1 << 20);
    let stride = [1u64, 8, 64, 136, 4096][rng.gen_range(0..5) as usize];
    let footprint = (stride * rng.gen_range(8..64)).max(1);
    let base = rng.gen_range(0..1 << 16);
    let mut buf = TraceBuffer::new();
    let mut open: Vec<u32> = Vec::new();
    buf.enter(ScopeId(1));
    open.push(1);
    for i in 0..len {
        if rng.gen_f64() < 0.05 && open.len() < 6 {
            let id = 2 + open.len() as u32;
            buf.enter(ScopeId(id));
            open.push(id);
        } else if rng.gen_f64() < 0.05 && open.len() > 1 {
            let id = open.pop().expect("open scope");
            buf.exit(ScopeId(id));
        }
        let addr = match shape {
            Shape::Strided => base + (i * stride) % footprint,
            Shape::PointerChasing => rng.gen_range(0..1 << 16),
            Shape::Clustered => {
                if rng.gen_f64() < 0.1 {
                    cluster = rng.gen_range(0..1 << 20);
                }
                cluster + rng.gen_range(0..256)
            }
        };
        buf.access(RefId(rng.gen_range(0..NREFS as u64) as u32), addr);
    }
    while let Some(id) = open.pop() {
        buf.exit(ScopeId(id));
    }
    buf
}

/// A fresh per-test checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reuselens-ckpt-resume-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn ckpt(dir: &Path, every: u64, resume: bool) -> CheckpointOptions {
    CheckpointOptions {
        dir: dir.to_path_buf(),
        every,
        resume,
    }
}

/// `opts` with checkpointing switched on.
fn with_ckpt(opts: &AnalyzeOptions, ckpt: &CheckpointOptions) -> AnalyzeOptions {
    AnalyzeOptions {
        checkpoint: Some(ckpt.clone()),
        ..opts.clone()
    }
}

/// Uninterrupted baseline profiles, strict.
fn baseline(program: &Program, buf: &TraceBuffer, opts: &AnalyzeOptions) -> Vec<ReuseProfile> {
    let (profiles, _timings) = analyze_buffer_with(program, buf, &GRAINS, opts)
        .into_strict()
        .expect("uninterrupted replay must complete");
    profiles
}

/// Checkpointed profiles, strict; infrastructure errors fail the test.
fn checkpointed(
    program: &Program,
    buf: &TraceBuffer,
    opts: &AnalyzeOptions,
    ckpt: &CheckpointOptions,
) -> Vec<ReuseProfile> {
    let (profiles, _timings) = analyze_buffer_with(program, buf, &GRAINS, &with_ckpt(opts, ckpt))
        .into_strict()
        .expect("checkpointed replay must complete");
    profiles
}

/// Snapshot files currently in `dir`, `(file name, bytes)`.
fn snapshot_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return files,
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".rlsnap") {
            let bytes = std::fs::read(entry.path()).expect("snapshot readable");
            files.push((name, bytes));
        }
    }
    files.sort();
    files
}

/// The sampling modes the identity must hold under.
fn sampling_modes() -> Vec<SamplingConfig> {
    vec![
        SamplingConfig::Exact,
        SamplingConfig::fixed(0.5),
        SamplingConfig::fixed(0.1),
        SamplingConfig::adaptive(64),
    ]
}

/// Tentpole identity: a checkpointed run (snapshotting every 97 events)
/// equals the uninterrupted engine bit for bit — for exact, fixed-rate,
/// and adaptive sampling — and leaves no temp files behind.
#[test]
fn checkpointed_run_matches_uninterrupted_bit_for_bit() {
    let program = program();
    let mut case = 0usize;
    for shape in SHAPES {
        for rep in 0..3u64 {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let buf = gen_buffer(shape, seed, 400 + rep * 350);
            for sampling in sampling_modes() {
                let opts = AnalyzeOptions {
                    sampling,
                    ..AnalyzeOptions::default()
                };
                let serial = baseline(&program, &buf, &opts);
                let dir = temp_dir(&format!("identity-{case}-{sampling:?}"));
                let got = checkpointed(&program, &buf, &opts, &ckpt(&dir, 97, false));
                assert_eq!(
                    serial, got,
                    "case {case} ({shape:?}, seed {seed:#x}, {sampling:?}): \
                     checkpointed profiles diverge from uninterrupted"
                );
                // Atomic-rename protocol: no torn temp files survive, and
                // every snapshot left behind is fully CRC-valid.
                for entry in std::fs::read_dir(&dir).expect("checkpoint dir").flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    assert!(
                        name.ends_with(".rlsnap"),
                        "case {case}: unexpected leftover {name:?} (torn temp file?)"
                    );
                }
                for (name, bytes) in snapshot_files(&dir) {
                    let meta = snapshot_meta(&bytes)
                        .unwrap_or_else(|e| panic!("case {case}: {name} invalid: {e}"));
                    assert_eq!(meta.version, SNAPSHOT_VERSION);
                }
                std::fs::remove_dir_all(&dir).ok();
            }
            case += 1;
        }
    }
    assert_eq!(case, SHAPES.len() * 3);
}

/// Kill-and-resume: for every surviving snapshot prefix of an
/// interrupted run — newest file kept, newest deleted, all deleted —
/// resuming reproduces the uninterrupted profiles bit for bit.
#[test]
fn resume_from_any_surviving_snapshot_prefix_is_bit_identical() {
    let program = program();
    for (case, shape) in SHAPES.into_iter().enumerate() {
        let seed = BASE_SEED ^ 0xdead ^ (case as u64) << 17;
        let buf = gen_buffer(shape, seed, 900);
        let opts = AnalyzeOptions::default();
        let serial = baseline(&program, &buf, &opts);
        let dir = temp_dir(&format!("resume-{case}"));
        // Populate the directory (simulating a run killed after its last
        // snapshot), then resume against ever-shorter snapshot prefixes.
        let got = checkpointed(&program, &buf, &opts, &ckpt(&dir, 128, false));
        assert_eq!(serial, got, "case {case}: populate run diverged");
        loop {
            let files = snapshot_files(&dir);
            // `every = u64::MAX` so resume runs never rewrite the
            // snapshots this loop is deliberately deleting.
            let resumed = checkpointed(&program, &buf, &opts, &ckpt(&dir, u64::MAX, true));
            assert_eq!(
                serial,
                resumed,
                "case {case} ({shape:?}): resume with {} snapshots diverged",
                files.len()
            );
            // Drop the newest snapshot (lexicographic == chronological)
            // and resume again from the one before it.
            match files.last() {
                Some((name, _)) => std::fs::remove_file(dir.join(name)).expect("remove newest"),
                None => break,
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash injection at every byte boundary: the newest snapshot torn to
/// any prefix length by [`CrashPoint`] must be rejected during resume,
/// recovery must fall back to the previous valid snapshot (or a cold
/// start), and the profiles must still be bit-identical — never a panic,
/// never silent corruption.
#[test]
fn every_torn_newest_snapshot_recovers_bit_identically() {
    let program = program();
    let buf = gen_buffer(Shape::Clustered, BASE_SEED ^ 0x7011, 500);
    let opts = AnalyzeOptions::default();
    let serial = baseline(&program, &buf, &opts);
    // One grain keeps the run count tractable (~a few thousand replays).
    let grain = [64u64];
    let serial_one = vec![serial[1].clone()];
    let dir = temp_dir("crashpoint");
    let populate_opts = with_ckpt(&opts, &ckpt(&dir, 128, false));
    let populate = analyze_buffer_with(&program, &buf, &grain, &populate_opts)
        .into_strict()
        .expect("populate strict")
        .0;
    assert_eq!(serial_one, populate);
    let files = snapshot_files(&dir);
    let (newest_name, newest_bytes) = files.last().expect("at least one snapshot").clone();
    assert!(files.len() >= 2, "need an older snapshot to fall back to");
    for torn_len in 0..=newest_bytes.len() as u64 {
        let mut cp = CrashPoint::new(Vec::new(), torn_len);
        let _ = cp.write_all(&newest_bytes);
        let torn = cp.into_inner();
        assert_eq!(torn.len() as u64, torn_len.min(newest_bytes.len() as u64));
        std::fs::write(dir.join(&newest_name), &torn).expect("plant torn snapshot");
        let resumed = analyze_buffer_with(
            &program,
            &buf,
            &grain,
            &with_ckpt(&opts, &ckpt(&dir, u64::MAX, true)),
        )
        .into_strict()
        .unwrap_or_else(|e| panic!("torn at byte {torn_len}: grain failed {e}"))
        .0;
        assert_eq!(
            serial_one, resumed,
            "torn newest snapshot at byte {torn_len} corrupted the resumed profile"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile mutations produce the matching typed [`SnapshotError`] from
/// [`snapshot_meta`] — precise diagnostics, not a generic failure.
#[test]
fn snapshot_meta_reports_typed_errors_for_each_mutation() {
    let program = program();
    let buf = gen_buffer(Shape::Strided, BASE_SEED ^ 0x5eed, 400);
    let dir = temp_dir("typed-errors");
    let opts = AnalyzeOptions::default();
    checkpointed(&program, &buf, &opts, &ckpt(&dir, 100, false));
    let (_, image) = snapshot_files(&dir).last().expect("snapshot").clone();
    assert!(snapshot_meta(&image).is_ok());

    // Magic: clobber the first byte.
    let mut bad_magic = image.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        snapshot_meta(&bad_magic),
        Err(SnapshotError::BadMagic)
    ));

    // Version: bump past what this reader supports (offset 6, LE u16).
    let mut skewed = image.clone();
    skewed[6] = (SNAPSHOT_VERSION + 1) as u8;
    skewed[7] = ((SNAPSHOT_VERSION + 1) >> 8) as u8;
    match snapshot_meta(&skewed) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("version skew not detected: {other:?}"),
    }

    // CRC: flip one bit anywhere past the frame headers.
    let mut corruptor = Corruptor::new(0xc0de);
    for round in 0..32 {
        let flipped = corruptor.flip_bytes(&image, 1);
        if flipped == image {
            continue;
        }
        let err = snapshot_meta(&flipped).expect_err("bit flip must be detected");
        assert!(
            matches!(
                err,
                SnapshotError::CrcMismatch { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::Corrupt { .. }
            ),
            "round {round}: flip produced untyped error {err:?}"
        );
    }

    // Truncation: every strict prefix is Truncated or a framing error —
    // never Ok, never a panic.
    for len in 0..image.len() {
        let err = snapshot_meta(&image[..len]).expect_err("prefix must be rejected");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::CrcMismatch { .. }
                    | SnapshotError::Corrupt { .. }
            ),
            "prefix of {len} bytes produced untyped error {err:?}"
        );
    }

    // Trailing garbage: bytes past the last frame are corruption, not
    // slack — a framing bug would otherwise hide there forever.
    let padded = corruptor.trailing_garbage(&image, 7);
    assert!(matches!(
        snapshot_meta(&padded),
        Err(SnapshotError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted, version-skewed, and wrong-grain snapshot files planted in
/// the directory are all rejected during resume — the run falls back and
/// still reproduces the uninterrupted profiles, with the written /
/// resumed / rejected counters reconciling against the files on disk.
#[test]
fn resume_rejects_hostile_files_and_counters_reconcile() {
    let program = program();
    let buf = gen_buffer(Shape::PointerChasing, BASE_SEED ^ 0xfa11, 700);
    let opts = AnalyzeOptions::default();
    let serial = baseline(&program, &buf, &opts);
    let dir = temp_dir("hostile");
    let every = 128u64;

    let recorder = Arc::new(MetricsRecorder::new());
    let scope = obs::Obs::from(recorder.clone()).enter();
    let got = checkpointed(&program, &buf, &opts, &ckpt(&dir, every, false));
    drop(scope);
    assert_eq!(serial, got);
    let files = snapshot_files(&dir);
    // Interior boundaries only: each grain snapshots at every multiple
    // of `every` strictly below the event count.
    let expected_written: u64 = GRAINS.len() as u64 * (buf.events().saturating_sub(1) / every);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(Counter::CheckpointsWritten), expected_written);
    assert_eq!(files.len() as u64, expected_written);
    assert_eq!(snap.counter(Counter::CheckpointsResumed), 0);
    assert_eq!(snap.counter(Counter::CheckpointsRejected), 0);

    // Corrupt every grain's newest snapshot and plant a wrong-grain
    // image under a newer filename than any real one: resume must
    // reject all of them (counted), fall back, and still match.
    let mut corruptor = Corruptor::new(0x0bad_5eed);
    let mut planted_bad = 0u64;
    for &grain in &GRAINS {
        let grain_files: Vec<&(String, Vec<u8>)> = files
            .iter()
            .filter(|(name, _)| name.starts_with(&format!("ckpt-g{grain}-")))
            .collect();
        let (newest, bytes) = *grain_files.last().expect("grain snapshots");
        std::fs::write(dir.join(newest), corruptor.flip_bytes(bytes, 3)).expect("corrupt newest");
        planted_bad += 1;
        // A valid snapshot from grain 1 claiming to be this grain's most
        // advanced progress: internally consistent, but mismatched.
        if grain != 1 {
            let (_, foreign) = files
                .iter()
                .find(|(name, _)| name.starts_with("ckpt-g1-"))
                .expect("grain-1 snapshot")
                .clone();
            std::fs::write(dir.join(snapshot_file_name(grain, buf.events())), foreign)
                .expect("plant foreign snapshot");
            planted_bad += 1;
        }
    }
    let recorder = Arc::new(MetricsRecorder::new());
    let scope = obs::Obs::from(recorder.clone()).enter();
    let resumed = checkpointed(&program, &buf, &opts, &ckpt(&dir, u64::MAX, true));
    drop(scope);
    assert_eq!(
        serial, resumed,
        "resume across hostile snapshot files diverged from uninterrupted"
    );
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(Counter::CheckpointsRejected), planted_bad);
    // Every grain still had at least one older valid snapshot to resume
    // from (grain 1's newest was corrupted but its older files survive).
    assert_eq!(
        snap.counter(Counter::CheckpointsResumed),
        GRAINS.len() as u64
    );
    assert_eq!(snap.counter(Counter::CheckpointsWritten), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshots of the previous layout are refused by their version, never
/// decoded: in a checkpoint directory holding only files whose preamble
/// says version 1, resume rejects every one — counted, each rejection's
/// reason naming the unsupported version — resumes none, and every grain
/// replays from event 0 to the uninterrupted profiles, exact and sampled.
#[test]
fn version_1_snapshots_are_rejected_and_grains_replay_from_the_start() {
    let program = program();
    let buf = gen_buffer(Shape::Clustered, BASE_SEED ^ 0x0001_0001, 600);
    for sampling in [SamplingConfig::Exact, SamplingConfig::fixed(0.5)] {
        let opts = AnalyzeOptions {
            sampling,
            ..AnalyzeOptions::default()
        };
        let serial = baseline(&program, &buf, &opts);
        let dir = temp_dir(&format!("version-1-{sampling:?}"));
        checkpointed(&program, &buf, &opts, &ckpt(&dir, 128, false));
        let files = snapshot_files(&dir);
        assert!(!files.is_empty(), "{sampling:?}: no snapshot written");
        for (name, mut bytes) in files.clone() {
            bytes[6..8].copy_from_slice(&1u16.to_le_bytes());
            std::fs::write(dir.join(name), bytes).expect("plant a version-1 snapshot");
        }
        let recorder = Arc::new(MetricsRecorder::new());
        let log = Arc::new(EventLog::to_vec());
        let handle = obs::Obs {
            events: Some(log.clone()),
            ..obs::Obs::from(recorder.clone())
        };
        let scope = handle.enter();
        let resumed = checkpointed(&program, &buf, &opts, &ckpt(&dir, u64::MAX, true));
        drop(scope);
        assert_eq!(
            serial, resumed,
            "{sampling:?}: replay from event 0 diverged"
        );
        let snap = recorder.snapshot();
        let planted = files.len() as u64;
        assert_eq!(snap.counter(Counter::CheckpointsRejected), planted);
        assert_eq!(snap.counter(Counter::CheckpointsResumed), 0);
        let reason = SnapshotError::UnsupportedVersion {
            found: 1,
            supported: SNAPSHOT_VERSION,
        }
        .to_string();
        let captured = log.captured();
        let rejections: Vec<&str> = captured
            .lines()
            .filter(|line| line.contains("\"checkpoint_rejected\""))
            .collect();
        assert_eq!(rejections.len() as u64, planted, "{sampling:?}");
        for line in rejections {
            assert!(line.contains(&reason), "{sampling:?}: {line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Resume against an empty or missing directory is a clean cold start,
/// and `every` larger than the trace writes no snapshots at all.
#[test]
fn cold_start_and_oversized_interval_edge_cases() {
    let program = program();
    let buf = gen_buffer(Shape::Strided, BASE_SEED ^ 0xc01d, 300);
    let opts = AnalyzeOptions::default();
    let serial = baseline(&program, &buf, &opts);
    // Missing directory + resume: created, nothing to resume, identical.
    let dir = temp_dir("cold");
    let got = checkpointed(&program, &buf, &opts, &ckpt(&dir, u64::MAX, true));
    assert_eq!(serial, got);
    assert!(
        snapshot_files(&dir).is_empty(),
        "oversized interval wrote snapshots"
    );
    // every = 1 (snapshot at every event) still matches.
    let got = checkpointed(&program, &buf, &opts, &ckpt(&dir, 1, false));
    assert_eq!(serial, got);
    assert!(!snapshot_files(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

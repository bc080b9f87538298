//! Corruption battery for the on-disk trace store: every prefix
//! truncation and every single-bit flip of **both** the segment files
//! and the index file must produce a typed [`StoreError`] with a usable
//! byte-offset diagnosis — or, if the mutation happens to be harmless,
//! profiles bit-identical to the uncorrupted baseline. The store must
//! **never** return wrong data and never panic.
//!
//! The trace is sized so it spans multiple CRC-framed segments (512-byte
//! framing), exercising the per-chunk CRCs, the assembled-image CRC, and
//! the index's cross-checks against each segment header.

use reuselens::core::{analyze_buffer_with, write_profiles, AnalyzeOptions, SavedProfiles};
use reuselens::ir::{Program, ProgramBuilder};
use reuselens::store::{
    segment_file_name, StoreConfig, StoreError, TraceMeta, TraceStore, INDEX_FILE,
};
use reuselens::trace::TraceBuffer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const GRAINS: [u64; 2] = [1, 64];

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reuselens-corrupt-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload() -> (Program, TraceBuffer) {
    let mut p = ProgramBuilder::new("corruption_battery");
    let a = p.array("a", 8, &[257]);
    let b = p.array("b", 8, &[257]);
    p.routine("main", |r| {
        r.for_("t", 0, 1, |r, _| {
            r.for_("i", 0, 256, |r, i| {
                r.load(a, vec![i.into()]);
                r.store(b, vec![i.into()]);
            });
        });
    });
    let prog = p.finish();
    let mut buf = TraceBuffer::new();
    reuselens::trace::Executor::new(&prog)
        .run(&mut buf)
        .expect("capture");
    (prog, buf)
}

/// Canonical profile bytes of a buffer — the "right answer" a corrupted
/// store must either reproduce exactly or refuse to produce at all.
fn baseline_profiles(prog: &Program, buf: &TraceBuffer) -> Vec<u8> {
    let analysis = analyze_buffer_with(prog, buf, &GRAINS, &AnalyzeOptions::default());
    assert!(analysis.failures.is_empty(), "baseline replay failed");
    let saved = SavedProfiles {
        name: "baseline".to_string(),
        size: 0.0,
        profiles: analysis.profiles,
    };
    let mut bytes = Vec::new();
    write_profiles(&saved, &mut bytes).expect("serialize");
    bytes
}

/// Writes the workload's trace into a fresh store dir with small
/// segments and returns (dir, program, baseline profile bytes,
/// segment file count).
fn seeded_store(tag: &str) -> (PathBuf, Program, Vec<u8>, usize) {
    let (prog, buf) = workload();
    let baseline = baseline_profiles(&prog, &buf);
    let dir = tmpdir(tag);
    let mut store = TraceStore::open_with(&dir, StoreConfig { segment_bytes: 512 }).expect("open");
    let entry = store
        .put(
            "t0",
            &buf,
            TraceMeta {
                workload: "corruption_battery".to_string(),
                grains: GRAINS.to_vec(),
            },
        )
        .expect("put");
    let segments = entry.segments.len();
    assert!(
        segments >= 2,
        "test needs a multi-segment trace; got {segments} segment(s)"
    );
    (dir, prog, baseline, segments)
}

/// Opens the corrupted store and tries to read `t0` end to end.
fn try_read(dir: &Path) -> Result<TraceBuffer, StoreError> {
    let store = TraceStore::open_with(dir, StoreConfig { segment_bytes: 512 })?;
    store.get("t0")
}

/// The battery's core contract: after mutating `path`, reading the trace
/// either fails with a typed error whose diagnostics are usable, or
/// still yields profiles bit-identical to `baseline`.
fn assert_detected_or_identical(
    dir: &Path,
    path: &Path,
    what: &str,
    prog: &Program,
    baseline: &[u8],
    original_len: u64,
) {
    match try_read(dir) {
        Ok(buf) => {
            let got = baseline_profiles(prog, &buf);
            assert_eq!(
                got,
                baseline,
                "{what} of {} slipped through with WRONG profiles",
                path.display()
            );
        }
        Err(e) => {
            // Every detection must name a real file and, where the error
            // carries an offset, point inside the file it diagnoses.
            let msg = e.to_string();
            assert!(!msg.is_empty(), "{what}: empty diagnosis");
            match &e {
                StoreError::Truncated { offset, needed, .. } => {
                    assert!(
                        *offset <= original_len,
                        "{what}: truncation offset {offset} beyond file \
                         length {original_len}"
                    );
                    assert!(*needed > 0, "{what}: zero-byte 'needed'");
                }
                StoreError::Corrupt { offset, .. } => {
                    assert!(
                        *offset <= original_len,
                        "{what}: corruption offset {offset} beyond file \
                         length {original_len}"
                    );
                }
                StoreError::CrcMismatch {
                    stored, computed, ..
                } => {
                    assert_ne!(
                        stored, computed,
                        "{what}: CRC 'mismatch' with equal checksums"
                    );
                }
                _ => {}
            }
        }
    }
}

fn corrupt_every_truncation(target: &str) {
    let (dir, prog, baseline, _) = seeded_store("trunc");
    let path = dir.join(target);
    let pristine = std::fs::read(&path).expect("read target file");
    let len = pristine.len();
    for keep in 0..len {
        std::fs::write(&path, &pristine[..keep]).expect("truncate");
        assert_detected_or_identical(
            &dir,
            &path,
            &format!("truncation to {keep}/{len} bytes"),
            &prog,
            &baseline,
            len as u64,
        );
    }
    std::fs::write(&path, &pristine).expect("restore");
    assert!(try_read(&dir).is_ok(), "restored file no longer reads");
    let _ = std::fs::remove_dir_all(&dir);
}

fn corrupt_every_bit_flip(target: &str) {
    let (dir, prog, baseline, _) = seeded_store("flip");
    let path = dir.join(target);
    let pristine = std::fs::read(&path).expect("read target file");
    let len = pristine.len();
    for byte in 0..len {
        for bit in 0..8 {
            let mut bytes = pristine.clone();
            bytes[byte] ^= 1 << bit;
            std::fs::write(&path, &bytes).expect("flip");
            assert_detected_or_identical(
                &dir,
                &path,
                &format!("bit flip at byte {byte} bit {bit}"),
                &prog,
                &baseline,
                len as u64,
            );
        }
    }
    std::fs::write(&path, &pristine).expect("restore");
    assert!(try_read(&dir).is_ok(), "restored file no longer reads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_of_the_first_segment_is_detected() {
    corrupt_every_truncation(&segment_file_name("t0", 0));
}

#[test]
fn every_truncation_of_the_last_segment_is_detected() {
    let (_, _, _, segments) = seeded_store("probe");
    corrupt_every_truncation(&segment_file_name("t0", segments - 1));
}

#[test]
fn every_truncation_of_the_index_is_detected() {
    corrupt_every_truncation(INDEX_FILE);
}

#[test]
fn every_bit_flip_of_a_segment_is_detected() {
    corrupt_every_bit_flip(&segment_file_name("t0", 0));
}

#[test]
fn every_bit_flip_of_the_index_is_detected() {
    corrupt_every_bit_flip(INDEX_FILE);
}

/// Deleting a segment outright (as opposed to mangling it) must surface
/// as a typed error naming the missing file, not a panic or a wrong
/// answer.
#[test]
fn missing_segment_file_is_a_typed_error() {
    let (dir, _prog, _baseline, _) = seeded_store("missing");
    let path = dir.join(segment_file_name("t0", 0));
    std::fs::remove_file(&path).expect("delete segment");
    match try_read(&dir) {
        Ok(_) => panic!("read succeeded with a segment file deleted"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("seg0000"),
                "diagnosis does not name the missing segment: {msg}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Swapping two internally-valid segment files must be caught by the
/// index cross-checks (wrong segment in the wrong slot), never
/// assembled into a silently wrong trace.
#[test]
fn swapped_segment_files_are_detected() {
    let (dir, prog, baseline, segments) = seeded_store("swap");
    let a = dir.join(segment_file_name("t0", 0));
    let b = dir.join(segment_file_name("t0", segments - 1));
    let bytes_a = std::fs::read(&a).expect("read a");
    let bytes_b = std::fs::read(&b).expect("read b");
    std::fs::write(&a, &bytes_b).expect("swap a");
    std::fs::write(&b, &bytes_a).expect("swap b");
    if let Ok(buf) = try_read(&dir) {
        let got = baseline_profiles(&prog, &buf);
        assert_eq!(got, baseline, "swapped segments produced WRONG profiles");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

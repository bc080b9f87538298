//! Golden on-disk bytes for the two framed formats: an RLSNAP checkpoint
//! and an RLSEGM/RLINDX trace store. Each published file's length and
//! CRC-32 is pinned, so any change to the frame layout, the payload
//! encodings or the checksum shows up here even when the replayed
//! profiles still agree (the identity suites only compare profiles).

use reuselens::core::{analyze_buffer_with, capture_program, AnalyzeOptions, CheckpointOptions};
use reuselens::store::{crc32, StoreConfig, TraceMeta, TraceStore};
use reuselens::workloads::kernels::streaming;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reuselens-format-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(file name, length, CRC-32)` of every file in `dir`, sorted by name.
fn fingerprint(dir: &Path) -> Vec<(String, usize, u32)> {
    let mut out: Vec<(String, usize, u32)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, bytes.len(), crc32(&bytes))
        })
        .collect();
    out.sort();
    out
}

fn owned(rows: &[(&str, usize, u32)]) -> Vec<(String, usize, u32)> {
    rows.iter()
        .map(|&(n, l, c)| (n.to_string(), l, c))
        .collect()
}

#[test]
fn checkpoint_files_are_byte_stable() {
    let w = streaming(48, 2);
    let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let dir = tmpdir("rlsnap");
    let opts = AnalyzeOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            every: 40,
            resume: false,
        }),
        ..AnalyzeOptions::default()
    };
    analyze_buffer_with(&w.program, &buffer, &[64], &opts)
        .into_strict()
        .unwrap();
    let got = fingerprint(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        got,
        owned(&[
            ("ckpt-g64-00000000000000000040.rlsnap", 326, 0xDD7F8FBF),
            ("ckpt-g64-00000000000000000080.rlsnap", 378, 0xFDBD3019),
        ])
    );
}

#[test]
fn store_files_are_byte_stable() {
    let w = streaming(48, 2);
    let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let dir = tmpdir("rlstore");
    let mut store = TraceStore::open_with(&dir, StoreConfig { segment_bytes: 96 }).unwrap();
    let meta = TraceMeta {
        workload: "kernel stream".to_string(),
        grains: vec![64, 4096],
    };
    let nsegs = store.put("golden", &buffer, meta).unwrap().segments.len();
    assert!(nsegs >= 2, "expected several segments, got {nsegs}");
    let got = fingerprint(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        got,
        owned(&[
            ("golden.seg0000.rlseg", 170, 0x62E97FDA),
            ("golden.seg0001.rlseg", 170, 0x39D989C8),
            ("golden.seg0002.rlseg", 168, 0xFAE8A0CD),
            ("index.rlidx", 187, 0x863A0D14),
        ])
    );
}

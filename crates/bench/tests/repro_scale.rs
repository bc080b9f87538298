//! The repro binaries refuse a `REPRO_SCALE` they cannot use: exit
//! status 1 and an `error:` line, neither a silent fallback nor a panic.

use std::process::Command;

#[test]
fn a_bad_repro_scale_is_an_error() {
    for (value, message) in [
        ("abc", "error: REPRO_SCALE=\"abc\": invalid digit"),
        ("3", "error: REPRO_SCALE: cannot divide level \"L2\" by 3"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro-fig5"))
            .env("REPRO_SCALE", value)
            .env("SWEEP_MESH", "4")
            .output()
            .expect("repro-fig5 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{value}: {stderr}");
        assert!(stderr.contains(message), "{value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{value}: {stderr}");
        assert!(out.stdout.is_empty(), "{value}: printed a figure");
    }
}

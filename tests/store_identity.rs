//! Stored-trace replay must be **bit-identical** to direct in-memory
//! replay — the acceptance contract for the trace store (DESIGN §4.15).
//!
//! For Sweep3D and GTC the suite captures once, round-trips the buffer
//! through an on-disk [`TraceStore`] (including a fresh re-open so the
//! bytes really come from disk), and replays both copies across the
//! grain set {1, 64, 4096} and every sampling mode. Identity is checked
//! at two
//! levels: the exported trace image byte-for-byte, and the canonical
//! serialized profile bytes (the same bytes `reuselens serve` CRCs into
//! every replay response).

use reuselens::core::{
    analyze_buffer_with, capture_program, write_profiles, AnalyzeOptions, SamplingConfig,
    SavedProfiles,
};
use reuselens::store::TraceStore;
use reuselens::trace::TraceBuffer;
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const GRAINS: [u64; 3] = [1, 64, 4096];

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reuselens-identity-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical profile serialization — what `--save-profile` writes
/// and what the daemon's `profiles_crc` is computed over.
fn profile_bytes(name: &str, profiles: &[reuselens::core::ReuseProfile]) -> Vec<u8> {
    let saved = SavedProfiles {
        name: name.to_string(),
        size: 0.0,
        profiles: profiles.to_vec(),
    };
    let mut bytes = Vec::new();
    write_profiles(&saved, &mut bytes).expect("serialize profiles");
    bytes
}

/// Captures `w`, stores the trace, re-opens the store, and returns both
/// the in-memory buffer and the from-disk restoration.
fn capture_and_roundtrip(w: &BuiltWorkload, tag: &str) -> (TraceBuffer, TraceBuffer) {
    let (buffer, _report) = capture_program(&w.program, w.index_arrays.clone()).expect("capture");
    let dir = tmpdir(tag);
    {
        let mut store = TraceStore::open(&dir).expect("open store");
        store
            .put(
                "t0",
                &buffer,
                reuselens::store::TraceMeta {
                    workload: w.program.name().to_string(),
                    grains: GRAINS.to_vec(),
                },
            )
            .expect("put trace");
    }
    // Fresh open: everything below must come from the on-disk bytes.
    let store = TraceStore::open(&dir).expect("re-open store");
    let restored = store.get("t0").expect("read trace back");
    let _ = std::fs::remove_dir_all(&dir);
    (buffer, restored)
}

fn assert_identical_everywhere(w: &BuiltWorkload, tag: &str) {
    let (direct, stored) = capture_and_roundtrip(w, tag);
    assert_eq!(
        direct.export(),
        stored.export(),
        "{tag}: restored trace image differs from the captured one"
    );
    let modes = [
        SamplingConfig::exact(),
        SamplingConfig::fixed(0.25),
        SamplingConfig::adaptive(4096),
    ];
    for sampling in modes {
        let opts = AnalyzeOptions {
            sampling,
            ..AnalyzeOptions::default()
        };
        let a = analyze_buffer_with(&w.program, &direct, &GRAINS, &opts);
        let b = analyze_buffer_with(&w.program, &stored, &GRAINS, &opts);
        assert!(
            a.failures.is_empty() && b.failures.is_empty(),
            "{tag}: unexpected grain failures under {sampling:?}"
        );
        assert_eq!(
            profile_bytes(tag, &a.profiles),
            profile_bytes(tag, &b.profiles),
            "{tag}: stored-trace profiles diverge from in-memory replay under {sampling:?}"
        );
    }
}

#[test]
fn sweep3d_stored_replay_is_bit_identical() {
    let w = build_sweep(&SweepConfig::new(6));
    assert_identical_everywhere(&w, "sweep3d");
}

#[test]
fn gtc_stored_replay_is_bit_identical() {
    let w = build_gtc(&GtcConfig::new(128, 4));
    assert_identical_everywhere(&w, "gtc");
}

/// The daemon's `replay` job must report the same profile CRC whether
/// the store was freshly written or re-opened by a second daemon —
/// the end-to-end version of the library-level identity above.
#[test]
fn daemon_replay_crc_is_stable_across_reopen() {
    use reuselens::serve::{Daemon, DaemonConfig};

    let dir = tmpdir("daemon");
    let capture = br#"{"kind":"capture","id":"s1","workload":"sweep3d","mesh":6}"#;
    let replay = br#"{"kind":"replay","id":"s1","grains":[1,64,4096]}"#;

    let mut config = DaemonConfig::new(&dir);
    config.workers = 1;
    let daemon = Daemon::start(config).expect("start daemon");
    let r1 = daemon
        .submit_line(capture)
        .recv()
        .expect("capture response");
    assert!(r1.contains("\"ok\":true"), "{r1}");
    let r2 = daemon.submit_line(replay).recv().expect("replay response");
    daemon.shutdown();

    // A second daemon over the same directory reads the index and
    // segments cold from disk.
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("restart daemon");
    let r3 = daemon.submit_line(replay).recv().expect("replay response");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let crc = |resp: &str| -> String {
        let at = resp
            .find("\"profiles_crc\":")
            .unwrap_or_else(|| panic!("no profiles_crc in {resp}"));
        resp[at..].chars().take_while(|c| *c != ',').collect()
    };
    assert_eq!(
        crc(&r2),
        crc(&r3),
        "replay CRC changed across daemon restart"
    );
}

/// The value of a numeric response field, e.g. `"events":N`.
fn response_u64(resp: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = resp
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {resp}"))
        + key.len();
    resp[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {resp}"))
}

/// A replay the daemon serves from the buffer it keeps resident after a
/// capture saves the same profile bytes as a fresh store load replayed
/// in-process.
#[test]
fn daemon_resident_replay_saves_the_fresh_load_profile() {
    use reuselens::serve::{Daemon, DaemonConfig, WorkloadSpec};

    let dir = tmpdir("resident");
    let saved = dir.with_extension("rlp");
    let capture = br#"{"kind":"capture","id":"s1","workload":"sweep3d","mesh":6}"#;
    let replay = format!(
        r#"{{"kind":"replay","id":"s1","grains":[1,64,4096],"save":"{}"}}"#,
        saved.display()
    );
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("start daemon");
    let r1 = daemon
        .submit_line(capture)
        .recv()
        .expect("capture response");
    assert!(r1.contains("\"ok\":true"), "{r1}");
    for _ in 0..2 {
        let r = daemon
            .submit_line(replay.as_bytes())
            .recv()
            .expect("replay");
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    daemon.shutdown();
    let resident = std::fs::read(&saved).expect("read saved profile");

    let stored = TraceStore::open(&dir)
        .expect("re-open store")
        .get("s1")
        .expect("fresh load");
    let w = WorkloadSpec::from_spec_string("sweep3d mesh=6")
        .and_then(|spec| spec.build())
        .expect("build workload");
    let fresh = analyze_buffer_with(&w.program, &stored, &GRAINS, &AnalyzeOptions::default());
    assert!(fresh.failures.is_empty(), "fresh replay failed");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&saved);
    assert_eq!(
        resident,
        profile_bytes(w.program.name(), &fresh.profiles),
        "resident replay's saved profile differs from a fresh load's"
    );
}

/// Evicting a trace and capturing another workload under the same id
/// must never let a replay see the first workload's buffer.
#[test]
fn replay_after_evict_and_recapture_serves_the_new_trace() {
    use reuselens::serve::{Daemon, DaemonConfig, WorkloadSpec};

    let dir = tmpdir("recapture");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("start daemon");
    let call = |line: &str| {
        let r = daemon
            .submit_line(line.as_bytes())
            .recv()
            .expect("response");
        assert!(r.contains("\"ok\":true"), "{line} answered {r}");
        r
    };
    let a = call(r#"{"kind":"capture","id":"t","workload":"kernel:stream"}"#);
    let a_replay = call(r#"{"kind":"replay","id":"t","grains":[64]}"#);
    call(r#"{"kind":"evict","id":"t"}"#);
    let b = call(r#"{"kind":"capture","id":"t","workload":"kernel:stencil"}"#);
    let b_replay = call(r#"{"kind":"replay","id":"t","grains":[64]}"#);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let w = WorkloadSpec::from_spec_string("kernel:stencil")
        .and_then(|spec| spec.build())
        .expect("build workload");
    let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).expect("capture");
    let profiles = analyze_buffer_with(&w.program, &buffer, &[64], &AnalyzeOptions::default());
    assert!(profiles.failures.is_empty(), "in-process replay failed");
    let b_crc = u64::from(reuselens::store::crc32(&profile_bytes(
        w.program.name(),
        &profiles.profiles,
    )));

    assert_ne!(response_u64(&a, "events"), response_u64(&b, "events"));
    assert_eq!(
        response_u64(&a_replay, "events"),
        response_u64(&a, "events")
    );
    assert_eq!(response_u64(&b_replay, "events"), buffer.events());
    assert_eq!(response_u64(&b_replay, "profiles_crc"), b_crc);
    assert_ne!(
        response_u64(&a_replay, "profiles_crc"),
        b_crc,
        "the two workloads must be told apart by their profiles"
    );
}

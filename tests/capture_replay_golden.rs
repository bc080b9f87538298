//! Golden equivalence: the capture-once / replay-many pipeline must
//! produce **bit-identical** reuse profiles to the online single-pass
//! analyzer on the paper's real workload models, at multiple block
//! granularities.
//!
//! This pins the trace buffer's encode/decode round trip and the
//! threaded replay against the reference pipeline — any divergence in
//! event order, clock arithmetic, or scope bookkeeping shows up as a
//! profile mismatch here.

use reuselens::core::{analyze_buffer, analyze_program, capture_program};
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;

/// Line + page granularity: the paper's cache and TLB studies in one run.
const GRAINS: [u64; 2] = [64, 4096];

fn assert_pipelines_identical(w: &BuiltWorkload, grains: &[u64]) {
    let online = analyze_program(&w.program, grains, w.index_arrays.clone()).unwrap();
    let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let (profiles, replays) = analyze_buffer(&w.program, &buffer, grains).unwrap();
    assert_eq!(
        online.profiles, profiles,
        "replayed profiles diverged from the online pass"
    );
    assert_eq!(online.exec, exec);
    assert_eq!(buffer.stats().accesses, online.exec.accesses);
    assert_eq!(replays.len(), grains.len());
    // The columnar encoding must actually compress the event stream.
    assert!(
        buffer.stats().compression_ratio() > 1.0,
        "buffer stats: {}",
        buffer.stats()
    );
    for p in &profiles {
        assert!(p.accesses_balance());
    }
}

#[test]
fn sweep3d_capture_replay_is_bit_identical() {
    assert_pipelines_identical(&build_sweep(&SweepConfig::new(8)), &GRAINS);
}

#[test]
fn sweep3d_transformed_capture_replay_is_bit_identical() {
    // Exercise a transformed variant too: blocking changes the scope tree
    // and the reuse carriers, not just the address stream.
    let cfg = SweepConfig::new(8).with_mi_block(2).with_dim_interchange();
    assert_pipelines_identical(&build_sweep(&cfg), &GRAINS);
}

#[test]
fn gtc_capture_replay_is_bit_identical() {
    // GTC's gather/scatter goes through index arrays, covering the
    // indirect-access path of the executor during capture.
    assert_pipelines_identical(&build_gtc(&GtcConfig::new(64, 8)), &GRAINS);
}

#[test]
fn gtc_capture_replay_at_extra_grains() {
    // A third, intermediate granularity on the irregular workload.
    assert_pipelines_identical(&build_gtc(&GtcConfig::new(32, 4)), &[64, 256, 4096]);
}

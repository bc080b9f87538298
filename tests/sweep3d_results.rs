//! The paper's §V-A headline results for Sweep3D, as shape assertions
//! (meshes scaled to CI size; the hierarchy is scaled by the same factor).

use reuselens::cache::{evaluate_program, MemoryHierarchy};
use reuselens::metrics::run_locality_analysis;
use reuselens::workloads::sweep3d::{build, SweepConfig};

const MESH: u64 = 12;

fn h() -> MemoryHierarchy {
    MemoryHierarchy::itanium2_scaled(16)
}

fn misses(cfg: &SweepConfig, level: &str) -> f64 {
    let w = build(cfg);
    let (report, _) = evaluate_program(&w.program, &h(), w.index_arrays.clone()).unwrap();
    report.misses_at(level).unwrap()
}

/// "The figures show that the original code and the code with a blocking
/// factor of one have identical memory behavior."
#[test]
fn original_equals_block_one() {
    let orig = misses(&SweepConfig::new(MESH), "L2");
    let b1 = misses(&SweepConfig::new(MESH).with_mi_block(1), "L2");
    assert_eq!(orig, b1);
}

/// "As the blocking factor increases, fewer accesses miss in the cache"
/// — monotone decrease over 1, 2, 3, 6.
#[test]
fn blocking_monotonically_reduces_l2_misses() {
    let series: Vec<f64> = [1u64, 2, 3, 6]
        .iter()
        .map(|&b| misses(&SweepConfig::new(MESH).with_mi_block(b), "L2"))
        .collect();
    for w in series.windows(2) {
        assert!(w[1] < w[0], "blocking must reduce L2 misses: {series:?}");
    }
}

/// "The transformed code incurs less than 25% of the cache misses observed
/// with the original code" (block 6 + dimension interchange).
#[test]
fn tuned_code_quarters_the_misses() {
    let orig = misses(&SweepConfig::new(MESH), "L2");
    let tuned = misses(
        &SweepConfig::new(MESH)
            .with_mi_block(6)
            .with_dim_interchange(),
        "L2",
    );
    assert!(
        tuned < 0.25 * orig,
        "tuned {tuned:.0} vs original {orig:.0}"
    );
}

/// "...reducing their misses at various levels of the memory hierarchy by
/// integer factors": TLB improves too.
#[test]
fn tuned_code_reduces_tlb_misses() {
    // TLB pressure needs a mesh whose diagonal working set spans more
    // pages than the (scaled) TLB holds; mesh 12 only touches cold pages.
    let orig = misses(&SweepConfig::new(20), "TLB");
    let tuned = misses(
        &SweepConfig::new(20).with_mi_block(6).with_dim_interchange(),
        "TLB",
    );
    assert!(
        tuned <= orig / 1.5,
        "tuned {tuned:.0} vs original {orig:.0}"
    );
}

/// "the overall execution is 2.5x faster" — the cycle model must show a
/// clear speedup (exact factor depends on the penalty constants).
#[test]
fn tuned_code_is_substantially_faster() {
    let time = |cfg: &SweepConfig| {
        let w = build(cfg);
        let (report, _) = evaluate_program(&w.program, &h(), w.index_arrays.clone()).unwrap();
        report.timing.total()
    };
    let orig = time(&SweepConfig::new(MESH));
    let tuned = time(
        &SweepConfig::new(MESH)
            .with_mi_block(6)
            .with_dim_interchange(),
    );
    let speedup = orig / tuned;
    assert!(speedup > 1.1, "speedup {speedup:.2}x");
}

/// Fig. 5: the idiag loop carries the dominant share of L2 misses; the
/// jkm plane loop carries the dominant share of TLB misses.
#[test]
fn fig5_carrier_shares() {
    let w = build(&SweepConfig::new(16).with_timesteps(2));
    let la = run_locality_analysis(&w.program, &h(), w.index_arrays.clone()).unwrap();
    let idiag = w.program.scope_by_name("idiag").unwrap();
    let jkm = w.program.scope_by_name("jkm").unwrap();

    let l2 = la.level("L2").unwrap();
    let idiag_share = l2.carried[idiag.index()] / l2.total_misses;
    assert!(
        idiag_share > 0.5,
        "idiag carries {:.0}% of L2 misses (paper ~75%)",
        100.0 * idiag_share
    );
    assert_eq!(l2.top_carriers()[0].0, idiag);

    let tlb = la.level("TLB").unwrap();
    let jkm_share = tlb.carried[jkm.index()] / tlb.total_misses;
    assert!(
        jkm_share > 0.5,
        "jkm carries {:.0}% of TLB misses (paper ~79%)",
        100.0 * jkm_share
    );
}

/// Table II: src, flux, face and the sigt/buffer group account for the
/// bulk of L2 misses, with idiag the top carrier for each of src/flux/face.
#[test]
fn table2_array_breakdown() {
    let w = build(&SweepConfig::new(16).with_timesteps(2));
    let la = run_locality_analysis(&w.program, &h(), w.index_arrays.clone()).unwrap();
    let l2 = la.level("L2").unwrap();
    let idiag = w.program.scope_by_name("idiag").unwrap();

    let share = |name: &str| {
        let a = w.program.array_by_name(name).unwrap();
        l2.by_array[a.index()] / l2.total_misses
    };
    let main4 = share("src") + share("flux") + share("face") + share("sigt");
    assert!(
        main4 > 0.7,
        "src+flux+face+sigt carry {:.0}% of L2 misses (paper ~91% incl. buffers)",
        100.0 * main4
    );
    for name in ["src", "flux", "face"] {
        let a = w.program.array_by_name(name).unwrap();
        let rows = l2.array_breakdown(a);
        assert_eq!(rows[0].1, idiag, "{name}: top carrier should be idiag");
    }
}

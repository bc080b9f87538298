//! The paper's §V-B headline results for GTC, as shape assertions.

use reuselens::cache::{evaluate_program, MemoryHierarchy};
use reuselens::metrics::run_locality_analysis;
use reuselens::workloads::gtc::{build, GtcConfig, GtcTransforms};

const MGRID: u64 = 512;
const MICELL: u64 = 16;

fn h() -> MemoryHierarchy {
    MemoryHierarchy::itanium2_scaled(16)
}

fn report(t: GtcTransforms) -> reuselens::cache::HierarchyReport {
    let w = build(&GtcConfig::new(MGRID, MICELL).with_transforms(t));
    evaluate_program(&w.program, &h(), w.index_arrays.clone())
        .unwrap()
        .0
}

/// Fig. 9: the zion arrays dominate fragmentation misses.
#[test]
fn fig9_zion_dominates_fragmentation() {
    let w = build(&GtcConfig::new(MGRID, MICELL));
    let la = run_locality_analysis(&w.program, &h(), w.index_arrays.clone()).unwrap();
    let l3 = la.level("L3").unwrap();
    let zion = w.program.array_by_name("zion").unwrap();
    let zion0 = w.program.array_by_name("zion0").unwrap();
    let zion_frag = l3.frag_by_array[zion.index()] + l3.frag_by_array[zion0.index()];
    assert!(
        zion_frag / l3.total_fragmentation() > 0.9,
        "zion arrays carry {:.0}% of fragmentation misses (paper ~95%)",
        100.0 * zion_frag / l3.total_fragmentation()
    );
    // And the top-ranked fragmented array is one of them.
    let top = l3.top_fragmented_arrays()[0].0;
    assert!(top == zion || top == zion0);
}

/// Fig. 10(a): pushi and the time-step/irk loops carry large L3 shares;
/// (b): the smooth outer loop carries the majority of TLB misses.
#[test]
fn fig10_carriers() {
    let w = build(&GtcConfig::new(MGRID, MICELL).with_timesteps(2));
    let la = run_locality_analysis(&w.program, &h(), w.index_arrays.clone()).unwrap();
    let l3 = la.level("L3").unwrap();
    let tlb = la.level("TLB").unwrap();
    let scope = |n: &str| w.program.scope_by_name(n).unwrap();

    let pushi_scope = w
        .program
        .routine(w.program.routine_by_name("pushi").unwrap())
        .scope();
    let pushi_share = l3.carried[pushi_scope.index()] / l3.total_misses;
    assert!(
        pushi_share > 0.15,
        "pushi carries {:.0}% of L3 (paper ~20%)",
        100.0 * pushi_share
    );

    let time_share =
        (l3.carried[scope("istep").index()] + l3.carried[scope("irk").index()]) / l3.total_misses;
    assert!(
        time_share > 0.25,
        "time loops carry {:.0}% of L3 (paper ~40%)",
        100.0 * time_share
    );

    let chargei_scope = w
        .program
        .routine(w.program.routine_by_name("chargei").unwrap())
        .scope();
    let chargei_share = l3.carried[chargei_scope.index()] / l3.total_misses;
    assert!(
        chargei_share > 0.05,
        "chargei carries {:.0}% of L3 (paper ~11%)",
        100.0 * chargei_share
    );

    let smooth_share = tlb.carried[scope("smooth_i").index()] / tlb.total_misses;
    assert!(
        smooth_share > 0.5,
        "smooth outer loop carries {:.0}% of TLB (paper ~64%)",
        100.0 * smooth_share
    );
}

/// "Reorganizing the arrays of structures into structures of arrays ...
/// reduced cache misses by a factor of two": the transpose is the largest
/// single improvement.
#[test]
fn zion_transpose_halves_cache_misses() {
    let orig = report(GtcTransforms::cumulative(0));
    let transposed = report(GtcTransforms::cumulative(1));
    let ratio = orig.misses_at("L3").unwrap() / transposed.misses_at("L3").unwrap();
    assert!(ratio > 1.6, "L3 reduction from transpose: {ratio:.2}x");
}

/// "We were able to apply loop interchange ... and eliminate all of these
/// TLB misses" (smooth).
#[test]
fn smooth_interchange_eliminates_tlb_misses() {
    let before = report(GtcTransforms::cumulative(4));
    let after = report(GtcTransforms::cumulative(5));
    let ratio = before.misses_at("TLB").unwrap() / after.misses_at("TLB").unwrap();
    assert!(
        ratio > 10.0,
        "TLB reduction from smooth interchange: {ratio:.1}x"
    );
}

/// "the tiling/fusion in the pushi routine significantly reduced the
/// number of L2 and L3 cache misses".
#[test]
fn pushi_tiling_reduces_cache_misses() {
    let before = report(GtcTransforms::cumulative(5));
    let after = report(GtcTransforms::cumulative(6));
    assert!(after.misses_at("L3").unwrap() < before.misses_at("L3").unwrap());
}

/// Overall: "reduced cache misses by a factor of two ... and a 33%
/// reduction of the execution time".
#[test]
fn full_transformation_stack_headline() {
    let orig = report(GtcTransforms::cumulative(0));
    let tuned = report(GtcTransforms::cumulative(6));
    let l2_ratio = orig.misses_at("L2").unwrap() / tuned.misses_at("L2").unwrap();
    let l3_ratio = orig.misses_at("L3").unwrap() / tuned.misses_at("L3").unwrap();
    assert!(l2_ratio > 2.0, "L2 reduction {l2_ratio:.2}x (paper ~2x)");
    assert!(l3_ratio > 2.0, "L3 reduction {l3_ratio:.2}x (paper ~2x)");
    let time_cut = 1.0 - tuned.timing.total() / orig.timing.total();
    assert!(
        time_cut > 0.25,
        "time reduction {:.0}% (paper 33%)",
        100.0 * time_cut
    );
}

/// "the cost of the Poisson solver stays constant" as particles grow: the
/// grid-phase transformations matter only at small micell.
#[test]
fn grid_phase_gains_shrink_with_more_particles() {
    let gain_at = |micell: u64| {
        let before = {
            let w =
                build(&GtcConfig::new(MGRID, micell).with_transforms(GtcTransforms::cumulative(2)));
            evaluate_program(&w.program, &h(), w.index_arrays.clone())
                .unwrap()
                .0
                .timing
                .total()
        };
        let after = {
            let w =
                build(&GtcConfig::new(MGRID, micell).with_transforms(GtcTransforms::cumulative(5)));
            evaluate_program(&w.program, &h(), w.index_arrays.clone())
                .unwrap()
                .0
                .timing
                .total()
        };
        (before - after) / before
    };
    let small = gain_at(4);
    let large = gain_at(32);
    assert!(
        small > large,
        "relative grid-phase gain should shrink: {small:.3} vs {large:.3}"
    );
}

//! End-to-end validation: reuse-distance *predictions* must agree with a
//! true LRU cache *simulation* of the same execution — the reproduction's
//! stand-in for the paper's hardware-counter validation.
//!
//! Two levels of strictness:
//!
//! * **Fully associative** caches: the threshold rule (`miss iff distance >=
//!   blocks`) is exact up to histogram binning, so prediction and
//!   simulation must agree within a few percent on every workload.
//! * **Set-associative** caches: the paper's probabilistic (binomial)
//!   model assumes random set placement. Regular sweeps place lines
//!   uniformly, so near capacity the model can over-predict; we assert a
//!   2x band, plus exact agreement on the fully associative TLB.

use reuselens::cache::{evaluate_program, Assoc, CacheConfig, HierarchySim, MemoryHierarchy};
use reuselens::trace::Executor;
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::kernels::{random_gather, stencil2d, streaming};
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;

/// The same hierarchy with every cache level made fully associative.
fn fully_associative(h: &MemoryHierarchy) -> MemoryHierarchy {
    let mut fa = h.clone();
    fa.levels = h
        .levels
        .iter()
        .map(|l| CacheConfig::new(&l.name, l.capacity, l.line_size, Assoc::Full))
        .collect();
    fa
}

fn simulate(w: &BuiltWorkload, h: &MemoryHierarchy) -> HierarchySim {
    let mut sim = HierarchySim::new(h, w.program.references().len());
    let mut exec = Executor::new(&w.program);
    for (a, d) in &w.index_arrays {
        exec.set_index_array(*a, d.clone());
    }
    exec.run(&mut sim).expect("simulation runs");
    sim
}

fn check(w: &BuiltWorkload, h: &MemoryHierarchy, name: &str) {
    // Exact check: fully associative levels.
    let fa = fully_associative(h);
    let (report, _) =
        evaluate_program(&w.program, &fa, w.index_arrays.clone()).expect("prediction runs");
    let sim = simulate(w, &fa);
    for level in &fa.levels {
        let predicted = report.misses_at(&level.name).unwrap();
        let simulated = sim.misses_at(&level.name).unwrap() as f64;
        let err = (predicted - simulated).abs() / simulated.max(1.0);
        assert!(
            err <= 0.05,
            "{name} FA-{}: predicted {predicted:.0} vs simulated {simulated:.0} ({:.1}% off)",
            level.name,
            100.0 * err
        );
    }
    let predicted = report.misses_at("TLB").unwrap();
    let simulated = sim.misses_at("TLB").unwrap() as f64;
    assert!(
        (predicted - simulated).abs() / simulated.max(1.0) <= 0.05,
        "{name} TLB: predicted {predicted:.0} vs simulated {simulated:.0}"
    );

    // Banded check: the probabilistic set-associative model.
    let (report, _) =
        evaluate_program(&w.program, h, w.index_arrays.clone()).expect("prediction runs");
    let sim = simulate(w, h);
    for level in &h.levels {
        let predicted = report.misses_at(&level.name).unwrap();
        let simulated = sim.misses_at(&level.name).unwrap() as f64;
        assert!(
            predicted <= simulated * 2.0 + 16.0 && predicted >= simulated * 0.5 - 16.0,
            "{name} {}: predicted {predicted:.0} outside 2x band of simulated {simulated:.0}",
            level.name
        );
    }
}

#[test]
fn streaming_prediction_matches_simulation() {
    // Footprint 4x the L2 so no level sits on a capacity knife edge.
    check(
        &streaming(1 << 17, 4),
        &MemoryHierarchy::itanium2(),
        "streaming",
    );
}

#[test]
fn stencil_prediction_matches_simulation() {
    check(
        &stencil2d(96, 3),
        &MemoryHierarchy::itanium2_scaled(8),
        "stencil2d",
    );
}

#[test]
fn gather_prediction_matches_simulation() {
    // Random footprints below capacity: the binomial model samples set
    // placement with replacement, so it over-predicts somewhat. Use a
    // footprint well past capacity, where both agree that reuses miss.
    check(
        &random_gather(1 << 16, 1 << 14, 3, 11),
        &MemoryHierarchy::itanium2_scaled(8),
        "random_gather",
    );
}

#[test]
fn sweep3d_prediction_matches_simulation() {
    check(
        &build_sweep(&SweepConfig::new(10)),
        &MemoryHierarchy::itanium2_scaled(16),
        "sweep3d",
    );
}

#[test]
fn gtc_prediction_matches_simulation() {
    // The original smooth nest strides by a power of two (16 KB), mapping
    // whole walks into a single set — a deterministic conflict pathology
    // that no distance-based set-associative model (the paper's included)
    // can see. The smooth-interchanged variant removes the pathological
    // stride; the remaining phases exercise every other access pattern.
    let cfg = GtcConfig::new(256, 8).with_transforms(reuselens::workloads::gtc::GtcTransforms {
        smooth_interchange: true,
        ..Default::default()
    });
    check(
        &build_gtc(&cfg),
        &MemoryHierarchy::itanium2_scaled(16),
        "gtc",
    );
}

/// The pathology itself, demonstrated: with the original power-of-two
/// smooth stride, true LRU simulation shows *more* misses than the
/// probabilistic model predicts (deterministic set conflicts).
#[test]
fn gtc_smooth_conflicts_exceed_probabilistic_model() {
    let w = build_gtc(&GtcConfig::new(256, 8));
    let h = MemoryHierarchy::itanium2_scaled(16);
    let (report, _) = evaluate_program(&w.program, &h, w.index_arrays.clone()).expect("runs");
    let sim = simulate(&w, &h);
    let predicted = report.misses_at("L2").unwrap();
    let simulated = sim.misses_at("L2").unwrap() as f64;
    assert!(
        simulated > predicted,
        "expected conflict misses beyond the model: sim {simulated} vs pred {predicted}"
    );
}

//! Cross-input scaling models fitted on small runs must predict the misses
//! of larger, unmeasured runs — the capability the paper inherits from the
//! authors' modeling work and improves with per-pattern collection.

use reuselens::cache::{predict_level, MemoryHierarchy};
use reuselens::core::analyze_program;
use reuselens::model::ProfileModel;
use reuselens::workloads::kernels::{stencil2d, streaming};

fn l2() -> reuselens::cache::CacheConfig {
    MemoryHierarchy::itanium2().levels[0].clone()
}

fn profile_of(w: &reuselens::workloads::BuiltWorkload) -> reuselens::core::ReuseProfile {
    analyze_program(&w.program, &[128], w.index_arrays.clone())
        .unwrap()
        .profiles
        .remove(0)
}

#[test]
fn stencil_misses_predicted_within_ten_percent() {
    let sizes = [64u64, 96, 128];
    let profiles: Vec<_> = sizes
        .iter()
        .map(|&n| profile_of(&stencil2d(n, 3)))
        .collect();
    let refs: Vec<&_> = profiles.iter().collect();
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let model = ProfileModel::fit(&xs, &refs, 16);

    for target in [256u64, 512] {
        let predicted = predict_level(&model.predict(target as f64), &l2());
        let actual = predict_level(&profile_of(&stencil2d(target, 3)), &l2());
        let err = (predicted.total - actual.total).abs() / actual.total;
        assert!(
            err < 0.10,
            "n={target}: predicted {:.0} vs actual {:.0} ({:.1}% off)",
            predicted.total,
            actual.total,
            100.0 * err
        );
    }
}

#[test]
fn streaming_capacity_crossover_is_extrapolated() {
    // Train where the footprint fits in L2 (all resweeps hit); predict a
    // size where it does not (all resweeps miss). The model must carry the
    // distance growth across the capacity boundary.
    let sizes = [4096u64, 8192, 16384]; // 32..128 KB < 256 KB L2
    let profiles: Vec<_> = sizes
        .iter()
        .map(|&n| profile_of(&streaming(n, 4)))
        .collect();
    let refs: Vec<&_> = profiles.iter().collect();
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let model = ProfileModel::fit(&xs, &refs, 8);

    let target = 131072u64; // 1 MB >> L2
    let predicted = predict_level(&model.predict(target as f64), &l2());
    let actual = predict_level(&profile_of(&streaming(target, 4)), &l2());
    let err = (predicted.total - actual.total).abs() / actual.total;
    assert!(
        err < 0.15,
        "predicted {:.0} vs actual {:.0}",
        predicted.total,
        actual.total
    );
    // And the prediction really is in the "misses" regime, far above the
    // cold-only count.
    assert!(predicted.total > 2.5 * predicted.cold as f64);
}

#[test]
fn model_reports_its_fitted_shapes() {
    let sizes = [64u64, 96, 128, 192];
    let profiles: Vec<_> = sizes
        .iter()
        .map(|&n| profile_of(&stencil2d(n, 2)))
        .collect();
    let refs: Vec<&_> = profiles.iter().collect();
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let model = ProfileModel::fit(&xs, &refs, 8);
    // Total accesses of an n x n stencil scale ~ n^2: the fitted accesses
    // curve must quadruple when n doubles.
    let a1 = model.accesses.eval(128.0);
    let a2 = model.accesses.eval(256.0);
    let ratio = a2 / a1;
    assert!(
        (ratio - 4.0).abs() < 0.5,
        "accesses should scale ~n^2, got ratio {ratio:.2}"
    );
}

//! Cross-input prediction: measure a kernel at three small sizes, fit the
//! paper's scaling model, and predict cache misses for a size never
//! executed — then verify against a real run.
//!
//! Run with: `cargo run --release --example predict_scaling`

use reuselens::cache::{predict_level, MemoryHierarchy};
use reuselens::core::analyze_program;
use reuselens::model::ProfileModel;
use reuselens::workloads::kernels::stencil2d;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = MemoryHierarchy::itanium2();
    let l2 = &h.levels[0];

    // Train on three grid sizes of a 2-D stencil with a time loop.
    let train_sizes = [64u64, 96, 128];
    let mut profiles = Vec::new();
    for &n in &train_sizes {
        let w = stencil2d(n, 3);
        let analysis = analyze_program(&w.program, &[l2.line_size], vec![])?;
        profiles.push(analysis.profiles.into_iter().next().unwrap());
        println!(
            "measured n={n:<4} ({} accesses)",
            profiles.last().unwrap().total_accesses
        );
    }
    let refs: Vec<&_> = profiles.iter().collect();
    let xs: Vec<f64> = train_sizes.iter().map(|&n| n as f64).collect();
    let model = ProfileModel::fit(&xs, &refs, 16);

    // Predict a grid 4x larger than anything measured.
    let target = 512u64;
    let predicted_profile = model.predict(target as f64);
    let predicted = predict_level(&predicted_profile, l2);

    // Ground truth.
    let w = stencil2d(target, 3);
    let analysis = analyze_program(&w.program, &[l2.line_size], vec![])?;
    let actual = predict_level(analysis.profile_at(l2.line_size).unwrap(), l2);

    println!("\nL2 misses at unmeasured n={target}:");
    println!("  model prediction: {:>12.0}", predicted.total);
    println!("  actual run:       {:>12.0}", actual.total);
    let err = 100.0 * (predicted.total - actual.total).abs() / actual.total;
    println!("  relative error:   {err:>11.1}%");
    Ok(())
}

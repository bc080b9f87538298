//! Reproduces the paper's §VI (Related Work) quantitative comparison:
//! Ding & Zhong transformed Sweep3D to shorten the reuse carried by the
//! **iq** (octant) loop and saw a speed-up that peaks at small meshes and
//! tails off for large ones (2.36x at mesh 70 falling toward 1.45x);
//! the paper's own transformation targets the **idiag**-carried reuse and
//! holds a consistent speed-up across mesh sizes.
//!
//! Here: the `octant_inner` variant plays Ding & Zhong's role (it
//! eliminates iq-carried reuse, breaking wavefront parallelism), and
//! `mi_block(6) + dimension interchange` is the paper's tuning.

use reuselens::cache::evaluate_program;
use reuselens::workloads::sweep3d::{build, SweepConfig};
use reuselens_bench::{csv, hierarchy, num};

fn main() {
    let meshes: Vec<u64> = std::env::var("SWEEP_MESHES")
        .map(|s| s.split(',').map(|x| x.parse().expect("mesh")).collect())
        .unwrap_or_else(|_| vec![8, 10, 12, 14, 16, 20]);
    let h = hierarchy();
    eprintln!("hierarchy: {h}");

    println!("== Paper §VI: iq-targeted (Ding & Zhong) vs idiag-targeted (paper) tuning ==");
    println!("mesh,original_cycles_per_cell,dz_speedup,paper_speedup");
    let mut dz_speedups = Vec::new();
    let mut paper_speedups = Vec::new();
    for &mesh in &meshes {
        let time = |cfg: &SweepConfig| {
            let w = build(cfg);
            let (report, _) =
                evaluate_program(&w.program, &h, w.index_arrays.clone()).expect("runs");
            w.normalize(report.timing.total())
        };
        let orig = time(&SweepConfig::new(mesh));
        let dz = time(&SweepConfig::new(mesh).with_octant_inner());
        let paper = time(
            &SweepConfig::new(mesh)
                .with_mi_block(6)
                .with_dim_interchange(),
        );
        let dz_speedup = orig / dz;
        let paper_speedup = orig / paper;
        dz_speedups.push(dz_speedup);
        paper_speedups.push(paper_speedup);
        println!(
            "{}",
            csv(&[
                mesh.to_string(),
                num(orig),
                format!("{dz_speedup:.3}"),
                format!("{paper_speedup:.3}"),
            ])
        );
    }

    // The reproducible form of the paper's §VI claim: at small meshes the
    // two tunings are comparable (iq-carried reuse is a large share of the
    // misses), but as the mesh grows the idiag-carried reuse dominates and
    // the iq-targeted restructuring falls behind — "the speed-up tailing
    // off towards larger problem sizes" relative to the paper's tuning,
    // which stays consistently ahead.
    println!("\nshape checks (DZ speedup as a fraction of the paper-tuning speedup):");
    let first_ratio = dz_speedups.first().unwrap() / paper_speedups.first().unwrap();
    let last_ratio = dz_speedups.last().unwrap() / paper_speedups.last().unwrap();
    println!("  at smallest mesh: {:.2}", first_ratio);
    println!("  at largest mesh:  {:.2}", last_ratio);
    println!(
        "  => the iq-targeted tuning tails off relative to idiag-targeted tuning: {}",
        if last_ratio < first_ratio {
            "yes"
        } else {
            "NO"
        }
    );
    println!("  (and the DZ restructuring sacrifices the sweep's wavefront parallelism,");
    println!("   which the paper identifies as its hidden cost)");
}

//! Reproduces the paper's Figure 11: GTC L2 / L3 / TLB misses and run
//! time per particle-per-cell (micell) per time step, as micell sweeps the
//! x-axis, for the seven cumulative transformation variants.
//!
//! Paper findings this harness reproduces in shape:
//! * the zion transpose gives the largest single reduction in cache misses;
//! * smooth's loop interchange removes its TLB misses (visible at small
//!   micell, since smooth's work is independent of the particle count);
//! * pushi tiling/fusion cuts L2/L3 misses further;
//! * overall ~2x fewer cache misses and a sizable run-time reduction
//!   (paper: 33%).

use reuselens::cache::evaluate_program;
use reuselens::workloads::gtc::{build, GtcConfig, GtcTransforms};
use reuselens_bench::{ascii_chart, csv, hierarchy, num};

fn main() {
    let mgrid: u64 = std::env::var("GTC_MGRID")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let micells: Vec<u64> = std::env::var("GTC_MICELLS")
        .map(|s| s.split(',').map(|x| x.parse().expect("micell")).collect())
        .unwrap_or_else(|_| vec![4, 8, 12, 16, 24, 32]);
    let h = hierarchy();
    eprintln!("hierarchy: {h}");

    println!("== Paper Fig. 11: GTC misses & time per micell per time step ==");
    println!("variant,micell,l2_per_micell,l3_per_micell,tlb_per_micell,cycles_per_micell");
    let mut at_largest: Vec<[f64; 4]> = Vec::new();
    let mut all_series: Vec<(String, Vec<[f64; 4]>)> = Vec::new();
    for n in 0..=6 {
        let label = GtcTransforms::label(n);
        let mut rows: Vec<[f64; 4]> = Vec::new();
        for &micell in &micells {
            let cfg = GtcConfig::new(mgrid, micell).with_transforms(GtcTransforms::cumulative(n));
            let w = build(&cfg);
            let (report, _) =
                evaluate_program(&w.program, &h, w.index_arrays.clone()).expect("gtc runs");
            let l2 = w.normalize(report.misses_at("L2").unwrap());
            let l3 = w.normalize(report.misses_at("L3").unwrap());
            let tlb = w.normalize(report.misses_at("TLB").unwrap());
            let cyc = w.normalize(report.timing.total());
            println!(
                "{}",
                csv(&[
                    label.to_string(),
                    micell.to_string(),
                    num(l2),
                    num(l3),
                    num(tlb),
                    num(cyc),
                ])
            );
            rows.push([l2, l3, tlb, cyc]);
            if micell == *micells.last().unwrap() && n == at_largest.len() {
                at_largest.push([l2, l3, tlb, cyc]);
            }
        }
        all_series.push((label.to_string(), rows));
    }

    // The figure itself, as ASCII: one chart per metric.
    let xs: Vec<String> = micells.iter().map(|m| m.to_string()).collect();
    for (metric, name) in [
        (0, "Fig 11(a): L2 misses / micell / time step"),
        (1, "Fig 11(b): L3 misses / micell / time step"),
        (2, "Fig 11(c): TLB misses / micell / time step"),
        (3, "Fig 11(d): cycles / micell / time step"),
    ] {
        let series: Vec<(String, Vec<f64>)> = all_series
            .iter()
            .map(|(label, rows)| (label.clone(), rows.iter().map(|r| r[metric]).collect()))
            .collect();
        println!("\n{}", ascii_chart(name, &xs, &series));
    }

    println!("\nshape checks at the largest micell (variant 0 -> 6):");
    let first = at_largest[0];
    let last = at_largest[6];
    println!(
        "  L2 misses reduction:  {:.2}x (paper: ~2x)",
        first[0] / last[0]
    );
    println!(
        "  L3 misses reduction:  {:.2}x (paper: ~2x)",
        first[1] / last[1]
    );
    println!(
        "  TLB misses reduction: {:.2}x (paper: huge margin)",
        first[2] / last[2]
    );
    println!(
        "  time reduction:       {:.1}% (paper: ~33%)",
        100.0 * (1.0 - last[3] / first[3])
    );
    let zion_gain = first[1] / at_largest[1][1];
    println!("  L3 gain from zion transpose alone: {zion_gain:.2}x (largest single step)");
}

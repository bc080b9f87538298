//! Reproduces the paper's Figure 8: Sweep3D L2 / L3 / TLB misses and
//! cycles per cell per time step versus mesh size, for the original code,
//! `mi`-blocking factors 1/2/3/6, and blocking 6 + dimension interchange.
//!
//! Paper findings this harness reproduces in shape:
//! * original and block-1 behave identically;
//! * misses drop by integer factors as the blocking factor grows;
//! * block-6 + dimension interchange is best, and its run time scales
//!   flat with mesh size while the original grows.

use reuselens::cache::evaluate_program;
use reuselens::workloads::sweep3d::{build, SweepConfig};
use reuselens_bench::{ascii_chart, csv, hierarchy, num};

struct Variant {
    label: &'static str,
    block: u64,
    dim_ic: bool,
}

fn main() {
    let meshes: Vec<u64> = std::env::var("SWEEP_MESHES")
        .map(|s| {
            s.split(',')
                .map(|x| x.parse().expect("mesh size"))
                .collect()
        })
        .unwrap_or_else(|_| vec![8, 10, 12, 14, 16, 20]);
    let variants = [
        Variant {
            label: "Original",
            block: 1,
            dim_ic: false,
        },
        Variant {
            label: "Block size 1",
            block: 1,
            dim_ic: false,
        },
        Variant {
            label: "Block size 2",
            block: 2,
            dim_ic: false,
        },
        Variant {
            label: "Block size 3",
            block: 3,
            dim_ic: false,
        },
        Variant {
            label: "Block size 6",
            block: 6,
            dim_ic: false,
        },
        Variant {
            label: "Blk6 + dimIC",
            block: 6,
            dim_ic: true,
        },
    ];
    let h = hierarchy();
    eprintln!("hierarchy: {h}");

    println!("== Paper Fig. 8: Sweep3D misses & cycles / cell / time step vs mesh size ==");
    println!("variant,mesh,l2_per_cell,l3_per_cell,tlb_per_cell,cycles_per_cell,nonstall_per_cell");
    let mut summary: Vec<(String, Vec<[f64; 5]>)> = Vec::new();
    for v in &variants {
        let mut series = Vec::new();
        for &mesh in &meshes {
            let mut cfg = SweepConfig::new(mesh).with_mi_block(v.block);
            if v.dim_ic {
                cfg = cfg.with_dim_interchange();
            }
            let w = build(&cfg);
            let (report, _) =
                evaluate_program(&w.program, &h, w.index_arrays.clone()).expect("runs");
            let l2 = w.normalize(report.misses_at("L2").unwrap());
            let l3 = w.normalize(report.misses_at("L3").unwrap());
            let tlb = w.normalize(report.misses_at("TLB").unwrap());
            let cyc = w.normalize(report.timing.total());
            let nonstall = w.normalize(report.timing.non_stall);
            println!(
                "{}",
                csv(&[
                    v.label.to_string(),
                    mesh.to_string(),
                    num(l2),
                    num(l3),
                    num(tlb),
                    num(cyc),
                    num(nonstall),
                ])
            );
            series.push([l2, l3, tlb, cyc, nonstall]);
        }
        summary.push((v.label.to_string(), series));
    }

    // The figure itself, as ASCII: one chart per metric.
    let xs: Vec<String> = meshes.iter().map(|m| m.to_string()).collect();
    for (metric, name) in [
        (0, "Fig 8(a): L2 misses / cell / time step"),
        (1, "Fig 8(b): L3 misses / cell / time step"),
        (2, "Fig 8(c): TLB misses / cell / time step"),
        (3, "Fig 8(d): cycles / cell / time step"),
    ] {
        let series: Vec<(String, Vec<f64>)> = summary
            .iter()
            .map(|(label, rows)| (label.clone(), rows.iter().map(|r| r[metric]).collect()))
            .collect();
        println!("\n{}", ascii_chart(name, &xs, &series));
    }

    // Shape checks mirroring the paper's text.
    let at_last = |label: &str, metric: usize| -> f64 {
        summary
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s.last().unwrap()[metric])
            .unwrap()
    };
    println!("\nshape checks at the largest mesh:");
    let orig = at_last("Original", 0);
    let b1 = at_last("Block size 1", 0);
    let b6 = at_last("Block size 6", 0);
    let best = at_last("Blk6 + dimIC", 0);
    println!(
        "  original == block1 (L2/cell): {} == {}",
        num(orig),
        num(b1)
    );
    println!(
        "  L2 reduction block6 vs original: {:.2}x (paper: integer factors)",
        orig / b6
    );
    println!("  L2 reduction blk6+dimIC vs original: {:.2}x", orig / best);
    println!(
        "  TLB reduction blk6+dimIC vs original: {:.2}x",
        at_last("Original", 2) / at_last("Blk6 + dimIC", 2)
    );
    println!(
        "  speedup blk6+dimIC vs original: {:.2}x (paper: 2.5x)",
        at_last("Original", 3) / at_last("Blk6 + dimIC", 3)
    );
}

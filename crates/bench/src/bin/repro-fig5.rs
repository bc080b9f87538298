//! Reproduces the paper's Figure 5: the fraction of L2 / L3 / TLB misses
//! *carried* by each principal Sweep3D scope.
//!
//! Paper (Itanium2, 50³ mesh): idiag carries ~75% of L2 and ~68% of L3
//! misses; iq carries ~10.5% / ~22%; jkm carries ~79% of TLB misses.

use reuselens::metrics::{format_carried_misses, run_locality_analysis};
use reuselens::workloads::sweep3d::{build, SweepConfig};
use reuselens_bench::hierarchy;

fn main() {
    let mesh: u64 = std::env::var("SWEEP_MESH")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let cfg = SweepConfig::new(mesh).with_timesteps(2);
    let w = build(&cfg);
    let h = hierarchy();
    eprintln!("running sweep3d mesh={mesh} on {h} ...");
    let la =
        run_locality_analysis(&w.program, &h, w.index_arrays.clone()).expect("sweep3d executes");

    println!("== Paper Fig. 5: carried misses per scope (Sweep3D, mesh {mesh}^3) ==\n");
    print!(
        "{}",
        format_carried_misses(&w.program, &la.all_levels(), 0.02)
    );

    println!("\nshares of total misses carried by the principal loops:");
    for (name, level) in [
        ("idiag", "L2"),
        ("idiag", "L3"),
        ("iq", "L2"),
        ("iq", "L3"),
        ("jkm", "TLB"),
        ("idiag", "TLB"),
    ] {
        let scope = w.program.scope_by_name(name).unwrap();
        let m = la.level(level).unwrap();
        let share = 100.0 * m.carried[scope.index()] / m.total_misses;
        println!("  {name:<6} {level:<4} {share:>5.1}%");
    }
    println!("\npaper: idiag L2 ~75%, idiag L3 ~68%, iq L2 ~10.5%, iq L3 ~22%, jkm TLB ~79%");
}

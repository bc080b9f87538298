//! The paper's §V-B tuning session on the GTC model: rank fragmented
//! arrays, locate carried misses, then apply the six transformations
//! cumulatively and watch every level improve.
//!
//! Run with: `cargo run --release --example gtc_tuning`

use reuselens::cache::{evaluate_program, MemoryHierarchy};
use reuselens::metrics::{format_fragmentation, run_locality_analysis};
use reuselens::workloads::gtc::{build, GtcConfig, GtcTransforms};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (mgrid, micell) = (512, 16);
    let h = MemoryHierarchy::itanium2_scaled(16);
    println!("GTC mgrid={mgrid}, {micell} particles/cell on {h}\n");

    // Step 1: the fragmentation view (paper Fig. 9) pinpoints zion.
    let orig = build(&GtcConfig::new(mgrid, micell));
    let la = run_locality_analysis(&orig.program, &h, orig.index_arrays.clone())?;
    println!("-- arrays by fragmentation misses (the AoS smoking gun) --");
    print!(
        "{}",
        format_fragmentation(&orig.program, la.level("L3").unwrap(), 5)
    );

    // Step 2: cumulative transformations (paper Fig. 11).
    println!("\n-- cumulative transformations --\n");
    println!(
        "{:<22} {:>11} {:>11} {:>11} {:>13}",
        "variant", "L2/micell", "L3/micell", "TLB/micell", "cycles/micell"
    );
    let mut first_cycles = None;
    for n in 0..=6 {
        let cfg = GtcConfig::new(mgrid, micell).with_transforms(GtcTransforms::cumulative(n));
        let w = build(&cfg);
        let (report, _) = evaluate_program(&w.program, &h, w.index_arrays.clone())?;
        let cycles = w.normalize(report.timing.total());
        first_cycles.get_or_insert(cycles);
        println!(
            "{:<22} {:>11.0} {:>11.0} {:>11.1} {:>13.0}",
            GtcTransforms::label(n),
            w.normalize(report.misses_at("L2").unwrap()),
            w.normalize(report.misses_at("L3").unwrap()),
            w.normalize(report.misses_at("TLB").unwrap()),
            cycles,
        );
        if n == 6 {
            println!(
                "\ntotal run-time reduction: {:.0}% (paper: 33%)",
                100.0 * (1.0 - cycles / first_cycles.unwrap())
            );
        }
    }
    Ok(())
}

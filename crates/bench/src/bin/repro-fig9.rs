//! Reproduces the paper's Figure 9: GTC data arrays ranked by L3 cache
//! misses due to fragmentation of data in cache lines.
//!
//! Paper: the two zion arrays (plus the particle_array alias) account for
//! ~95% of all fragmentation misses, ~48% of their own total misses, and
//! ~13.7% of all L3 misses in the program.

use reuselens::metrics::{format_fragmentation, run_locality_analysis};
use reuselens::workloads::gtc::{build, GtcConfig};
use reuselens_bench::hierarchy;

fn main() {
    let mgrid: u64 = std::env::var("GTC_MGRID")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let micell: u64 = std::env::var("GTC_MICELL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let w = build(&GtcConfig::new(mgrid, micell));
    let la = run_locality_analysis(&w.program, &hierarchy(), w.index_arrays.clone())
        .expect("gtc executes");
    let l3 = la.level("L3").unwrap();

    println!(
        "== Paper Fig. 9: arrays by fragmentation L3 misses (GTC, mgrid={mgrid}, micell={micell}) ==\n"
    );
    print!("{}", format_fragmentation(&w.program, l3, 8));

    let total_frag = l3.total_fragmentation();
    let zion_frag: f64 = ["zion", "zion0"]
        .iter()
        .map(|n| {
            let a = w.program.array_by_name(n).unwrap();
            l3.frag_by_array[a.index()]
        })
        .sum();
    let zion_total: f64 = ["zion", "zion0"]
        .iter()
        .map(|n| {
            let a = w.program.array_by_name(n).unwrap();
            l3.by_array[a.index()]
        })
        .sum();
    println!(
        "\nzion+zion0 share of all fragmentation misses: {:.1}% (paper ~95%)",
        100.0 * zion_frag / total_frag
    );
    println!(
        "fragmentation share of zion's own misses:      {:.1}% (paper ~48%)",
        100.0 * zion_frag / zion_total
    );
    println!(
        "zion fragmentation share of ALL L3 misses:     {:.1}% (paper ~13.7%)",
        100.0 * zion_frag / l3.total_misses
    );
}

//! Hunting cache-line fragmentation: an array of records accessed one
//! field at a time wastes most of every fetched line. The static analysis
//! quantifies the waste, the advisor recommends splitting the array, and
//! the SoA layout shows the win.
//!
//! Run with: `cargo run --release --example fragmentation_hunt`

use reuselens::advisor::{Advisor, Transformation};
use reuselens::cache::MemoryHierarchy;
use reuselens::ir::{Expr, Program, ProgramBuilder};
use reuselens::metrics::{format_fragmentation, run_locality_analysis};

/// Particles with 7 fields each; the kinetic-energy loop reads 2 of them.
fn particles(n: u64, soa: bool) -> Program {
    let mut p = ProgramBuilder::new(if soa {
        "particles-soa"
    } else {
        "particles-aos"
    });
    let dims: &[u64] = if soa { &[n, 7] } else { &[7, n] };
    let part = p.array("particle", 8, dims);
    let sub = move |f: i64, i: Expr| -> Vec<Expr> {
        if soa {
            vec![i, Expr::c(f)]
        } else {
            vec![Expr::c(f), i]
        }
    };
    p.routine("kinetic_energy", |r| {
        r.for_("sweep", 0, 1, |r, _| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(part, sub(3, i.into())); // vx
                r.load(part, sub(4, i.into())); // vy
            });
        });
    });
    p.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 15;
    let h = MemoryHierarchy::itanium2();

    let aos = particles(n, false);
    let la = run_locality_analysis(&aos, &h, vec![])?;
    let l3 = la.level("L3").unwrap();

    println!("== AoS layout: particle(7, n), loop reads 2 fields ==\n");
    print!("{}", format_fragmentation(&aos, l3, 4));

    let frag = la
        .static_analysis
        .fragmentation_of(aos.references()[0].id())
        .unwrap();
    println!("\nstatic fragmentation factor: {frag:.3} (5 of 7 fields unused)");

    let recs = Advisor::new(&aos).advise(l3);
    let split = recs
        .iter()
        .find(|r| matches!(r.transformation, Transformation::SplitArray { .. }))
        .expect("split-array recommendation");
    println!(
        "advisor: {}\n         ({})",
        split.transformation, split.rationale
    );

    let soa = particles(n, true);
    let la2 = run_locality_analysis(&soa, &h, vec![])?;
    let before = l3.total_misses;
    let after = la2.level("L3").unwrap().total_misses;
    println!("\nL3 misses AoS: {before:.0}");
    println!("L3 misses SoA: {after:.0}");
    println!("reduction: {:.2}x", before / after);
    Ok(())
}

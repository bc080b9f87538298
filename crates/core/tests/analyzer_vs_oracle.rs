//! The tree-based online analyzer must agree exactly with the brute-force
//! LRU stack-distance oracle on arbitrary traces (seeded randomized tests).

use reuselens_core::{oracle, Histogram, ReuseAnalyzer};
use reuselens_ir::{Expr, ProgramBuilder, RefId};
use reuselens_prng::SplitMix64;
use reuselens_trace::TraceSink;

/// A minimal one-reference program so the analyzer has a reference table.
fn dummy_program() -> reuselens_ir::Program {
    let mut p = ProgramBuilder::new("dummy");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.load(a, vec![Expr::c(0)]);
    });
    p.finish()
}

#[test]
fn analyzer_distances_match_oracle() {
    let mut rng = SplitMix64::seed_from_u64(0x000a_c1e0);
    for _case in 0..64 {
        let addrs = rng.vec_u64(1..500, 0..4096);
        let shift = rng.gen_range(3..8) as u32;
        let block = 1u64 << shift;
        let prog = dummy_program();
        let mut an = ReuseAnalyzer::new(&prog, block);
        for &a in &addrs {
            an.access(RefId(0), a);
        }
        let profile = an.finish();

        let expected = oracle::stack_distances(&addrs, block);
        let cold = expected.iter().filter(|d| d.is_none()).count() as u64;
        assert_eq!(profile.total_cold(), cold);

        let mut want = Histogram::new();
        for d in expected.into_iter().flatten() {
            want.add(d);
        }
        let mut got = Histogram::new();
        for p in &profile.patterns {
            got.merge(&p.histogram);
        }
        assert_eq!(got, want);
    }
}

#[test]
fn fully_associative_misses_match_simulation() {
    let mut rng = SplitMix64::seed_from_u64(0xfa11_a550c);
    for _case in 0..64 {
        let addrs = rng.vec_u64(1..400, 0..2048);
        let cap = rng.gen_range(1..64) as usize;
        let block = 64u64;
        let prog = dummy_program();
        let mut an = ReuseAnalyzer::new(&prog, block);
        for &a in &addrs {
            an.access(RefId(0), a);
        }
        let profile = an.finish();
        // Reuse-distance prediction for a fully associative LRU cache:
        // misses = cold + reuses with distance >= capacity. The histogram's
        // linear range is exact below 256, and `cap` < 64, so no binning
        // error is possible here.
        let mut predicted = profile.total_cold() as f64;
        for p in &profile.patterns {
            predicted += p.histogram.count_ge(cap as u64);
        }
        let simulated = oracle::fully_associative_misses(&addrs, block, cap);
        assert!(
            (predicted - simulated as f64).abs() < 1e-9,
            "predicted {predicted} != simulated {simulated}"
        );
    }
}

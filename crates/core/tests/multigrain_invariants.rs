//! Cross-granularity invariants of the analyzer, checked on seeded random
//! traces: the properties the paper relies on when it measures cache
//! (line) and TLB (page) behaviour in a single pass.

use reuselens_core::{MultiGrainAnalyzer, ReuseAnalyzer};
use reuselens_ir::{AccessKind, Expr, ProgramBuilder, RefId};
use reuselens_prng::SplitMix64;
use reuselens_trace::TraceSink;

fn dummy_program() -> reuselens_ir::Program {
    let mut p = ProgramBuilder::new("dummy");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.load(a, vec![Expr::c(0)]);
    });
    p.finish()
}

/// Coarser blocks can only merge lines: fewer (or equal) distinct
/// blocks, identical access totals, fewer (or equal) cold misses.
#[test]
fn coarser_granularity_merges_blocks() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0001);
    for _case in 0..48 {
        let addrs = rng.vec_u64(1..400, 0..1 << 16);
        let prog = dummy_program();
        let mut mg = MultiGrainAnalyzer::new(&prog, &[64, 4096]);
        for &a in &addrs {
            mg.access(RefId(0), a, 8, AccessKind::Load);
        }
        let profiles = mg.finish();
        let (fine, coarse) = (&profiles[0], &profiles[1]);
        assert_eq!(fine.total_accesses, coarse.total_accesses);
        assert!(coarse.distinct_blocks <= fine.distinct_blocks);
        assert!(coarse.total_cold() <= fine.total_cold());
        assert!(fine.accesses_balance());
        assert!(coarse.accesses_balance());
    }
}

/// The multi-grain wrapper is exactly equivalent to running each
/// analyzer separately over the same trace.
#[test]
fn multigrain_equals_independent_runs() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0002);
    for _case in 0..48 {
        let addrs = rng.vec_u64(1..300, 0..1 << 14);
        let prog = dummy_program();
        let mut mg = MultiGrainAnalyzer::new(&prog, &[64, 1024]);
        let mut fine = ReuseAnalyzer::new(&prog, 64);
        let mut coarse = ReuseAnalyzer::new(&prog, 1024);
        for &a in &addrs {
            mg.access(RefId(0), a, 8, AccessKind::Load);
            fine.access(RefId(0), a, 8, AccessKind::Load);
            coarse.access(RefId(0), a, 8, AccessKind::Load);
        }
        let profiles = mg.finish();
        assert_eq!(&profiles[0], &fine.finish());
        assert_eq!(&profiles[1], &coarse.finish());
    }
}

/// At any granularity, a reuse distance never exceeds the number of
/// other distinct blocks in the whole run.
#[test]
fn distances_bounded_by_footprint() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0003);
    for _case in 0..48 {
        let addrs = rng.vec_u64(1..300, 0..1 << 12);
        let prog = dummy_program();
        let mut an = ReuseAnalyzer::new(&prog, 64);
        for &a in &addrs {
            an.access(RefId(0), a, 8, AccessKind::Load);
        }
        let profile = an.finish();
        let bound = profile.distinct_blocks; // self excluded => strict
        for pat in &profile.patterns {
            if let Some(max) = pat.histogram.max_distance() {
                assert!(
                    max < bound.max(1) * 2,
                    "distance {max} vs {bound} distinct blocks"
                );
            }
            // exact check on the histogram's mass at or above the bound
            assert_eq!(pat.histogram.count_ge(bound), 0.0);
        }
    }
}

/// Capture + parallel replay is bit-identical to the online pass on a
/// random indirect-access trace, at every granularity.
#[test]
fn parallel_replay_equals_online_on_random_gather() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0004);
    for _case in 0..8 {
        let n = rng.gen_range(16..128);
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[n]);
        let a = p.array("a", 8, &[8192]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                });
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..n).map(|_| rng.gen_range(0..8192) as i64).collect();
        let online =
            reuselens_core::analyze_program(&prog, &[64, 4096], vec![(ix, idx.clone())]).unwrap();
        let (buffer, _) = reuselens_core::capture_program(&prog, vec![(ix, idx)]).unwrap();
        let (profiles, _) = reuselens_core::analyze_buffer(&prog, &buffer, &[64, 4096]).unwrap();
        assert_eq!(online.profiles, profiles);
        assert_eq!(buffer.stats().accesses, online.exec.accesses);
    }
}

/// Determinism: the same program analyzed twice produces identical
/// profiles (the repro harnesses depend on this).
#[test]
fn analysis_is_deterministic() {
    let mut p = ProgramBuilder::new("det");
    let ix = p.index_array("ix", &[256]);
    let a = p.array("a", 8, &[4096]);
    p.routine("main", |r| {
        r.for_("t", 0, 2, |r, _| {
            r.for_("i", 0, 255, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
    });
    let prog = p.finish();
    let idx: Vec<i64> = (0..256).map(|k| (k * 37) % 4096).collect();
    let r1 = reuselens_core::analyze_program(&prog, &[64, 4096], vec![(ix, idx.clone())]).unwrap();
    let r2 = reuselens_core::analyze_program(&prog, &[64, 4096], vec![(ix, idx)]).unwrap();
    assert_eq!(r1.profiles, r2.profiles);
    assert_eq!(r1.exec, r2.exec);
}

//! Edge-case robustness: the pipeline must handle degenerate programs
//! (no accesses, empty loops, store-only traffic) without panicking and
//! with sensible zeros.

use reuselens::advisor::Advisor;
use reuselens::cache::{evaluate_program, MemoryHierarchy};
use reuselens::core::measure_spatial;
use reuselens::ir::{Expr, ProgramBuilder};
use reuselens::metrics::{format_summary, run_locality_analysis, to_xml};
use reuselens::model::ProfileModel;

fn h() -> MemoryHierarchy {
    MemoryHierarchy::itanium2()
}

#[test]
fn program_with_no_accesses() {
    let mut p = ProgramBuilder::new("empty");
    let _unused = p.array("a", 8, &[16]);
    p.routine("main", |r| {
        r.for_("i", 0, 9, |_, _| {}); // empty body
    });
    let prog = p.finish();
    let la = run_locality_analysis(&prog, &h(), vec![]).unwrap();
    for m in la.all_levels() {
        assert_eq!(m.total_misses, 0.0);
        assert_eq!(m.cold_misses, 0);
        assert!(m.patterns.is_empty());
        assert!(m.top_carriers().is_empty());
    }
    assert_eq!(la.report.timing.total(), 0.0);
    // Reports still render.
    assert!(format_summary(&la).contains("L2"));
    let xml = to_xml(&prog, &la);
    assert!(xml.contains("LoopScope"));
    // The advisor has nothing to say but does not panic.
    assert!(Advisor::new(&prog)
        .advise(la.level("L2").unwrap())
        .is_empty());
}

#[test]
fn zero_iteration_loops_run_cleanly() {
    let mut p = ProgramBuilder::new("zero");
    let a = p.array("a", 8, &[16]);
    p.routine("main", |r| {
        r.for_("i", 5, 2, |r, i| {
            // never executes
            r.load(a, vec![i.into()]);
        });
        r.load(a, vec![Expr::c(0)]);
    });
    let prog = p.finish();
    let (report, analysis) = evaluate_program(&prog, &h(), vec![]).unwrap();
    assert_eq!(report.accesses, 1);
    assert_eq!(analysis.profiles[0].total_cold(), 1);
}

#[test]
fn store_only_traffic_is_analyzed() {
    let mut p = ProgramBuilder::new("stores");
    let a = p.array("a", 8, &[1 << 14]);
    p.routine("main", |r| {
        r.for_("t", 0, 1, |r, _| {
            r.for_("i", 0, (1 << 14) - 1, |r, i| {
                r.store(a, vec![i.into()]);
            });
        });
    });
    let prog = p.finish();
    let la = run_locality_analysis(&prog, &h(), vec![]).unwrap();
    let l2 = la.level("L2").unwrap();
    assert!(l2.total_misses > 0.0);
    assert!(la.report.accesses == 2 << 14);
}

#[test]
fn single_access_program() {
    let mut p = ProgramBuilder::new("one");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.load(a, vec![Expr::c(0)]);
    });
    let prog = p.finish();
    let la = run_locality_analysis(&prog, &h(), vec![]).unwrap();
    assert_eq!(la.level("L2").unwrap().total_misses, 1.0); // one cold miss
    let spatial = measure_spatial(&prog, 128, vec![]).unwrap();
    let arr = prog.array_by_name("a").unwrap();
    // One 8-byte element in a 128-byte line.
    let u = spatial.utilization_of(arr).unwrap();
    assert!((u - 8.0 / 128.0).abs() < 1e-9);
}

#[test]
fn model_fit_on_cold_dominated_profiles() {
    // A single streaming sweep: the only reuses are zero-distance spatial
    // hits within a line; every real miss is compulsory. The fitted model
    // must predict that shape, not NaNs.
    let mk = |n: u64| {
        let mut p = ProgramBuilder::new("coldonly");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        reuselens::core::analyze_program(&prog, &[128], vec![])
            .unwrap()
            .profiles
            .remove(0)
    };
    let profiles = [mk(1024), mk(2048), mk(4096)];
    let refs: Vec<&_> = profiles.iter().collect();
    let model = ProfileModel::fit(&[1024.0, 2048.0, 4096.0], &refs, 8);
    let predicted = model.predict(8192.0);
    assert!(predicted.total_cold() > 0);
    assert!(predicted.accesses_balance());
    // All reuses sit at distance zero: any cache with >= 1 block hits
    // them, so predicted misses equal the cold count at every capacity.
    let curve = reuselens::cache::miss_curve(&predicted, &[1, 64, 4096]);
    for (_, misses) in curve {
        assert!((misses - predicted.total_cold() as f64).abs() < 1e-9);
    }
}

#[test]
fn deep_loop_nesting_works() {
    let mut p = ProgramBuilder::new("deep");
    let a = p.array("a", 8, &[256]);
    p.routine("main", |r| {
        r.for_("l0", 0, 1, |r, v0| {
            r.for_("l1", 0, 1, |r, v1| {
                r.for_("l2", 0, 1, |r, v2| {
                    r.for_("l3", 0, 1, |r, v3| {
                        r.for_("l4", 0, 1, |r, v4| {
                            r.for_("l5", 0, 1, |r, v5| {
                                let idx = Expr::var(v0) * 32
                                    + Expr::var(v1) * 16
                                    + Expr::var(v2) * 8
                                    + Expr::var(v3) * 4
                                    + Expr::var(v4) * 2
                                    + Expr::var(v5);
                                r.load(a, vec![idx]);
                            });
                        });
                    });
                });
            });
        });
    });
    let prog = p.finish();
    let la = run_locality_analysis(&prog, &h(), vec![]).unwrap();
    assert_eq!(la.report.accesses, 64);
    // All 64 addresses distinct & within 8 lines => only cold misses.
    assert_eq!(la.level("L2").unwrap().cold_misses, 4);
}

#[test]
fn guard_that_never_fires_contributes_nothing() {
    let mut p = ProgramBuilder::new("deadguard");
    let a = p.array("a", 8, &[64]);
    p.routine("main", |r| {
        r.for_("i", 0, 63, |r, i| {
            r.if_(reuselens::ir::Pred::Gt(Expr::var(i), Expr::c(1000)), |r| {
                r.load(a, vec![i.into()]);
            });
        });
    });
    let prog = p.finish();
    let la = run_locality_analysis(&prog, &h(), vec![]).unwrap();
    assert_eq!(la.report.accesses, 0);
}

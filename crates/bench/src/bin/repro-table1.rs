//! Reproduces the paper's Table I: builds one program per scenario row and
//! shows that the advisor recommends the table's transformation.

use reuselens::advisor::{Advisor, Transformation};
use reuselens::ir::{Expr, Program, ProgramBuilder};
use reuselens::metrics::run_locality_analysis;
use reuselens_bench::hierarchy;
use reuselens_prng::SplitMix64;

fn scenario_fragmentation() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let n = 16384u64;
    let mut p = ProgramBuilder::new("row1-fragmentation");
    let zion = p.array("zion", 8, &[7, n]);
    p.routine("main", |r| {
        r.for_("sweep", 0, 1, |r, _| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(zion, vec![Expr::c(2), i.into()]);
            });
        });
    });
    (p.finish(), vec![])
}

fn scenario_irregular() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let (grid, particles) = (8192u64, 16384u64);
    let mut p = ProgramBuilder::new("row2-irregular");
    let ix = p.index_array("ix", &[particles]);
    let table = p.array("grid", 8, &[grid]);
    p.routine("main", |r| {
        r.for_("i", 0, (particles - 1) as i64, |r, i| {
            r.load(table, vec![Expr::load(ix, vec![i.into()])]);
        });
    });
    let mut rng = SplitMix64::seed_from_u64(7);
    let idx = (0..particles)
        .map(|_| rng.gen_range(0..grid) as i64)
        .collect();
    (p.finish(), vec![(ix, idx)])
}

fn scenario_interchange() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let (n, m) = (512u64, 128u64);
    let mut p = ProgramBuilder::new("row3-interchange");
    let a = p.array("a", 8, &[n, m]);
    p.routine("main", |r| {
        r.for_("i", 0, (n - 1) as i64, |r, i| {
            r.for_("j", 0, (m - 1) as i64, |r, j| {
                r.load(a, vec![i.into(), j.into()]);
            });
        });
    });
    (p.finish(), vec![])
}

fn scenario_fusion() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let n = 32768u64;
    let mut p = ProgramBuilder::new("row4-fusion");
    let a = p.array("a", 8, &[n]);
    p.routine("main", |r| {
        r.for_("outer", 0, 0, |r, _| {
            r.for_("produce", 0, (n - 1) as i64, |r, i| {
                r.store(a, vec![i.into()]);
            });
            r.for_("consume", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
    });
    (p.finish(), vec![])
}

fn scenario_strip_mine() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let n = 32768u64;
    let mut p = ProgramBuilder::new("row5-stripmine");
    let a = p.array("a", 8, &[n]);
    let callee = p.declare_routine("gcmotion");
    let main = p.routine("pushi", |r| {
        r.for_("outer", 0, 0, |r, _| {
            r.call(callee);
            r.for_("consume", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
    });
    p.define_routine(callee, |r| {
        r.for_("produce", 0, (n - 1) as i64, |r, i| {
            r.store(a, vec![i.into()]);
        });
    });
    p.set_entry(main);
    (p.finish(), vec![])
}

fn scenario_time_loop() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>) {
    let n = 32768u64;
    let mut p = ProgramBuilder::new("row6-timeloop");
    let a = p.array("a", 8, &[n]);
    p.routine("main", |r| {
        r.for_("istep", 0, 3, |r, _| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
                r.store(a, vec![i.into()]);
            });
        });
    });
    (p.finish(), vec![])
}

fn kind(t: &Transformation) -> &'static str {
    match t {
        Transformation::SplitArray { .. } => "split array (AoS->SoA)",
        Transformation::DataComputationReordering => "data/computation reordering",
        Transformation::LoopInterchange { .. } => "loop/dimension interchange",
        Transformation::LoopBlocking { .. } => "loop blocking",
        Transformation::Fuse { .. } => "fuse source & destination",
        Transformation::StripMineAndPromote { .. } => "strip-mine + promote",
        Transformation::TimeSkewingOrAccept { .. } => "time skewing / accept",
    }
}

/// A scenario builder returning the program and its index-array contents.
type Scenario = fn() -> (Program, Vec<(reuselens::ir::ArrayId, Vec<i64>)>);

fn main() {
    println!("== Paper Table I: recommended transformations per scenario ==\n");
    println!("{:<22} {:<30} paper says", "scenario", "top recommendation");
    let rows: Vec<(&str, Scenario, &str, bool)> = vec![
        (
            "fragmentation",
            scenario_fragmentation,
            "split the array",
            false,
        ),
        (
            "irregular, S==D",
            scenario_irregular,
            "data/computation reordering",
            false,
        ),
        (
            "S==D, C outer loop",
            scenario_interchange,
            "loop interchange",
            false,
        ),
        ("S!=D, same routine", scenario_fusion, "fuse S and D", false),
        (
            "S/D across routines",
            scenario_strip_mine,
            "strip-mine + promote",
            false,
        ),
        (
            "C is time loop",
            scenario_time_loop,
            "time skew / accept",
            true,
        ),
    ];
    for (name, builder, paper, mark_time_loops) in rows {
        let (prog, index) = builder();
        let la = run_locality_analysis(&prog, &hierarchy(), index).expect("scenario executes");
        let mut advisor = Advisor::new(&prog);
        if mark_time_loops {
            advisor = advisor.with_time_loops(reuselens::advisor::detect_time_loops(&prog));
        }
        let recs = advisor.advise(la.level("L2").unwrap());
        let top = recs
            .first()
            .map(|r| kind(&r.transformation))
            .unwrap_or("(none)");
        println!("{name:<22} {top:<30} {paper}");
    }
}

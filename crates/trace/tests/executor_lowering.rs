//! The executor computes the addresses of affine references from plans it
//! lowers once at construction (`Program::address_plan`). This suite checks
//! it against a reference interpreter that evaluates every subscript `Expr`
//! per access and maps the indices with `ArrayDecl::address`: on seeded
//! random programs the event streams, `ExecReport`s and `ExecError`s must be
//! equal. The programs mix negative coefficients and steps, assigned
//! scalars, guards, calls, index-array references, non-affine subscripts
//! and loops whose last iteration runs out of bounds.

use reuselens_ir::{
    AccessKind, ArrayId, ArrayKind, BodyBuilder, EvalCtx, Expr, Layout, Pred, Program,
    ProgramBuilder, RoutineId, Stmt, VarId,
};
use reuselens_prng::SplitMix64;
use reuselens_trace::{ExecError, ExecReport, Executor, LoopStats, TraceSink, VecSink};
use std::cell::RefCell;

/// The executor's call-depth limit.
const MAX_CALL_DEPTH: usize = 64;

/// Programs generated per run of the random comparison.
const PROGRAMS: u64 = 1000;

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

/// Walks a program the way the executor's semantics are specified:
/// every subscript is an `Expr` evaluated per access.
struct Interpreter<'p> {
    program: &'p Program,
    vars: Vec<i64>,
    index_data: Vec<Option<Vec<i64>>>,
}

/// Evaluation context; the first indirect-load fault is latched and
/// reported after the expression, as the executor does.
struct Ctx<'a> {
    program: &'a Program,
    vars: &'a [i64],
    index_data: &'a [Option<Vec<i64>>],
    fault: RefCell<Option<ExecError>>,
}

impl EvalCtx for Ctx<'_> {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.index()]
    }

    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64 {
        let Some(data) = &self.index_data[array.index()] else {
            self.latch(ExecError::MissingIndexData(array));
            return 0;
        };
        match self.program.array(array).flat_index(indices) {
            Some(flat) => data[flat as usize],
            None => {
                self.latch(ExecError::IndexOutOfBounds(array, indices.to_vec()));
                0
            }
        }
    }
}

impl Ctx<'_> {
    fn latch(&self, e: ExecError) {
        self.fault.borrow_mut().get_or_insert(e);
    }

    fn take_fault(&self) -> Result<(), ExecError> {
        self.fault.borrow_mut().take().map_or(Ok(()), Err)
    }
}

impl<'p> Interpreter<'p> {
    fn new(program: &'p Program, index_arrays: &[(ArrayId, Vec<i64>)]) -> Interpreter<'p> {
        let mut index_data = vec![None; program.arrays().len()];
        for (a, data) in index_arrays {
            index_data[a.index()] = Some(data.clone());
        }
        Interpreter {
            program,
            vars: vec![0; program.var_count()],
            index_data,
        }
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            program: self.program,
            vars: &self.vars,
            index_data: &self.index_data,
            fault: RefCell::new(None),
        }
    }

    fn eval(&self, e: &Expr) -> Result<i64, ExecError> {
        let ctx = self.ctx();
        let v = e.eval(&ctx);
        ctx.take_fault()?;
        Ok(v)
    }

    fn run(&mut self, sink: &mut impl TraceSink) -> Result<ExecReport, ExecError> {
        let mut report = ExecReport {
            loop_stats: vec![LoopStats::default(); self.program.scopes().len()],
            ..ExecReport::default()
        };
        self.routine(self.program.entry(), sink, &mut report, 0)?;
        Ok(report)
    }

    fn routine(
        &mut self,
        id: RoutineId,
        sink: &mut impl TraceSink,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        if depth >= MAX_CALL_DEPTH {
            return Err(ExecError::CallDepthExceeded(id));
        }
        let rtn = self.program.routine(id);
        sink.enter(rtn.scope());
        report.loop_stats[rtn.scope().index()].entries += 1;
        let result = self.body(rtn.body(), sink, report, depth);
        sink.exit(rtn.scope());
        result
    }

    fn body(
        &mut self,
        body: &[Stmt],
        sink: &mut impl TraceSink,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        let program = self.program;
        for stmt in body {
            match stmt {
                Stmt::Access(rid) => {
                    let r = program.reference(*rid);
                    let decl = program.array(r.array());
                    let indices = {
                        let ctx = self.ctx();
                        let indices: Vec<i64> = r.indices().iter().map(|e| e.eval(&ctx)).collect();
                        ctx.take_fault()?;
                        indices
                    };
                    let Some(addr) = decl.address(&indices) else {
                        return Err(ExecError::OutOfBounds {
                            r: *rid,
                            indices,
                            array: decl.name().to_string(),
                        });
                    };
                    report.accesses += 1;
                    match r.kind() {
                        AccessKind::Load => report.loads += 1,
                        AccessKind::Store => report.stores += 1,
                    }
                    sink.access(*rid, addr, decl.elem_size(), r.kind());
                }
                Stmt::Assign { var, value } => {
                    let v = self.eval(value)?;
                    self.vars[var.index()] = v;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let taken = {
                        let ctx = self.ctx();
                        let t = cond.eval(&ctx);
                        ctx.take_fault()?;
                        t
                    };
                    let branch = if taken { then_body } else { else_body };
                    self.body(branch, sink, report, depth)?;
                }
                Stmt::Call(target) => self.routine(*target, sink, report, depth + 1)?,
                Stmt::Loop(l) => {
                    let lower = self.eval(l.lower())?;
                    let upper = self.eval(l.upper())?;
                    let step = l.step();
                    sink.enter(l.scope());
                    report.loop_stats[l.scope().index()].entries += 1;
                    let mut v = lower;
                    while (step > 0 && v <= upper) || (step < 0 && v >= upper) {
                        self.vars[l.var().index()] = v;
                        report.loop_stats[l.scope().index()].iterations += 1;
                        self.body(l.body(), sink, report, depth)?;
                        v += step;
                    }
                    sink.exit(l.scope());
                }
            }
        }
        Ok(())
    }
}

/// Runs both engines; returns (executor, interpreter) outcomes with their
/// event streams.
type Outcome = (Result<ExecReport, ExecError>, VecSink);

fn run_both(program: &Program, index_arrays: &[(ArrayId, Vec<i64>)]) -> (Outcome, Outcome) {
    let mut exec = Executor::new(program);
    for (a, data) in index_arrays {
        exec.set_index_array(*a, data.clone());
    }
    let mut sink = VecSink::new();
    let lowered = exec.run(&mut sink);
    let mut oracle_sink = VecSink::new();
    let oracle = Interpreter::new(program, index_arrays).run(&mut oracle_sink);
    ((lowered, sink), (oracle, oracle_sink))
}

// ---------------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------------

/// A variable in scope and the range of values it takes.
#[derive(Clone, Copy)]
struct Var {
    id: VarId,
    lo: i64,
    hi: i64,
}

struct Gen<'a> {
    rng: &'a mut SplitMix64,
    arrays: Vec<(ArrayId, Vec<u64>)>,
    ix: ArrayId,
    helper: RoutineId,
}

impl Gen<'_> {
    fn pick(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    fn var(&mut self, vars: &[Var]) -> Var {
        vars[self.pick(vars.len() as u64) as usize]
    }

    /// One subscript for a dimension of extent `extent`. Most choices stay
    /// in bounds for the loop ranges generated below; the rest probe the
    /// out-of-bounds and non-lowered paths.
    fn subscript(&mut self, vars: &[Var], extent: u64) -> Expr {
        let extent = extent as i64;
        if vars.is_empty() {
            return Expr::c(self.rng.gen_range_i64(0..extent));
        }
        let v = self.var(vars);
        match self.pick(12) {
            0 => Expr::c(self.rng.gen_range_i64(0..extent)),
            1 | 2 => Expr::var(v.id),
            // Negative coefficient: v.hi - v spans 0..=(hi - lo).
            3 => Expr::c(v.hi) - Expr::var(v.id),
            // Coefficients that wrap: 2^62 * 4 == 0 (mod 2^64), leaving v.
            4 => Expr::var(v.id) * (1i64 << 62) * 4 + Expr::var(v.id),
            // Folds to v, through a negative scale and constant folds.
            5 => Expr::var(v.id) * -2 + Expr::var(v.id) * 3 + Expr::c(7).div(4) - 1,
            // Not lowered: non-constant min / division / product.
            6 => Expr::var(v.id).min(extent - 1),
            7 => Expr::var(v.id).div(2),
            8 => {
                let w = self.var(vars);
                Expr::var(v.id) * Expr::var(w.id)
            }
            // Index-array references; `+ 5` runs off the 8-entry index
            // array once v reaches 3.
            9 => Expr::load(self.ix, vec![Expr::var(v.id)]),
            10 => Expr::load(self.ix, vec![Expr::var(v.id) + 5]),
            // Off by one: out of bounds on the last iteration when
            // v.hi + 1 == extent.
            _ => Expr::var(v.id) + 1,
        }
    }

    fn access(&mut self, r: &mut BodyBuilder<'_>, vars: &[Var]) {
        let k = self.pick(self.arrays.len() as u64) as usize;
        let (array, dims) = self.arrays[k].clone();
        let indices: Vec<Expr> = dims.iter().map(|&d| self.subscript(vars, d)).collect();
        if self.pick(3) == 0 {
            r.store(array, indices);
        } else {
            r.load(array, indices);
        }
    }

    fn body(&mut self, r: &mut BodyBuilder<'_>, vars: &[Var], depth: usize) {
        let mut vars = vars.to_vec();
        let statements = 1 + self.pick(3);
        for _ in 0..statements {
            match self.pick(11) {
                0..=3 if depth < 3 => {
                    // Loop ranges: up, down (negative step), strided both
                    // ways, triangular over an outer variable, and one that
                    // reaches 4 (out of bounds for extent-4 dimensions).
                    let (lower, upper, step, lo, hi) = match self.pick(6) {
                        0 => (Expr::c(0), Expr::c(3), 1, 0, 3),
                        1 => (Expr::c(3), Expr::c(0), -1, 0, 3),
                        2 => (Expr::c(0), Expr::c(4), 2, 0, 4),
                        3 => (Expr::c(4), Expr::c(0), -2, 0, 4),
                        4 if !vars.is_empty() => {
                            let outer = self.var(&vars);
                            (Expr::var(outer.id), Expr::c(3), 1, outer.lo, 3)
                        }
                        _ => (Expr::c(0), Expr::c(4), 1, 0, 4),
                    };
                    r.for_step("l", lower, upper, step, |r, id| {
                        let mut inner = vars.clone();
                        inner.push(Var { id, lo, hi });
                        self.body(r, &inner, depth + 1);
                    });
                }
                4 if !vars.is_empty() => {
                    // An assigned scalar that later subscripts may use.
                    let v = self.var(&vars);
                    let (value, lo, hi) = match self.pick(3) {
                        0 => (Expr::c(v.hi) - Expr::var(v.id), 0, v.hi - v.lo),
                        1 => (Expr::var(v.id) * 2 - Expr::var(v.id), v.lo, v.hi),
                        _ => (Expr::var(v.id).max(1), v.lo.max(1), v.hi.max(1)),
                    };
                    let id = r.let_("s", value);
                    vars.push(Var { id, lo, hi });
                }
                5 if !vars.is_empty() => {
                    let v = self.var(&vars);
                    let c = self.rng.gen_range_i64(0..4);
                    let cond = if self.pick(2) == 0 {
                        Pred::Lt(Expr::var(v.id), Expr::c(c))
                    } else {
                        Pred::Ge(Expr::var(v.id), Expr::c(c))
                    };
                    let guarded = vars.clone();
                    if self.pick(2) == 0 {
                        r.if_(cond, |r| self.body(r, &guarded, depth + 1));
                    } else {
                        let other = guarded.clone();
                        // Both branches need the generator; build them in
                        // turn through a shared cell.
                        let gen = RefCell::new(&mut *self);
                        r.if_else(
                            cond,
                            |r| gen.borrow_mut().body(r, &guarded, depth + 1),
                            |r| gen.borrow_mut().body(r, &other, depth + 1),
                        );
                    }
                }
                6 => r.call(self.helper),
                _ => self.access(r, &vars),
            }
        }
    }
}

/// A seeded random program and its index-array contents (sometimes
/// withheld, which the first indirect load reports).
fn random_program(seed: u64) -> (Program, Vec<(ArrayId, Vec<i64>)>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut p = ProgramBuilder::new(format!("lowering-{seed}"));
    let mut arrays = Vec::new();
    for k in 0..2 + rng.gen_range(0..2) {
        let rank = 1 + rng.gen_range(0..3) as usize;
        let dims: Vec<u64> = (0..rank).map(|_| 4 + rng.gen_range(0..3)).collect();
        let layout = if rng.gen_range(0..2) == 0 {
            Layout::ColumnMajor
        } else {
            Layout::RowMajor
        };
        let elem = if rng.gen_range(0..2) == 0 { 4 } else { 8 };
        let id = p.array_with(format!("a{k}"), elem, &dims, layout, ArrayKind::Data);
        arrays.push((id, dims));
    }
    let ix = p.index_array("ix", &[8]);
    let helper = p.declare_routine("helper");
    let mut g = Gen {
        rng: &mut rng,
        arrays,
        ix,
        helper,
    };
    let main = p.routine("main", |r| g.body(r, &[], 0));
    p.define_routine(helper, |r| {
        r.for_("h", 0, 3, |r, h| {
            let vars = [Var {
                id: h,
                lo: 0,
                hi: 3,
            }];
            g.access(r, &vars);
        });
    });
    p.set_entry(main);
    // Mostly valid data subscripts, with an occasional -1 or 7.
    let contents: Vec<i64> = (0..8)
        .map(|_| match rng.gen_range(0..10) {
            0 => -1,
            1 => 7,
            _ => rng.gen_range_i64(0..4),
        })
        .collect();
    let index_arrays = if rng.gen_range(0..20) == 0 {
        vec![]
    } else {
        vec![(ix, contents)]
    };
    (p.finish(), index_arrays)
}

#[test]
fn lowered_executor_matches_the_reference_interpreter_on_random_programs() {
    let (mut completed, mut out_of_bounds, mut other_errors) = (0, 0, 0);
    let (mut lowered_accesses, mut interpreted_accesses) = (0u64, 0u64);
    for seed in 0..PROGRAMS {
        let (program, index_arrays) = random_program(seed);
        let ((result, events), (oracle_result, oracle_events)) = run_both(&program, &index_arrays);
        assert_eq!(result, oracle_result, "seed {seed}: outcome");
        assert_eq!(events, oracle_events, "seed {seed}: event stream");
        match &result {
            Ok(_) => completed += 1,
            Err(ExecError::OutOfBounds { .. }) => out_of_bounds += 1,
            Err(_) => other_errors += 1,
        }
        for (r, ..) in events.accesses() {
            let reference = program.reference(r);
            if program
                .address_plan(reference.array(), reference.indices())
                .is_some()
            {
                lowered_accesses += 1;
            } else {
                interpreted_accesses += 1;
            }
        }
    }
    // The corpus must exercise every outcome and both address paths.
    assert!(completed >= PROGRAMS / 10, "{completed} runs completed");
    assert!(
        out_of_bounds >= PROGRAMS / 10,
        "{out_of_bounds} out-of-bounds runs"
    );
    assert!(other_errors > 0, "no index-array errors");
    assert!(
        lowered_accesses > 4 * PROGRAMS,
        "{lowered_accesses} lowered accesses"
    );
    assert!(
        interpreted_accesses > PROGRAMS,
        "{interpreted_accesses} interpreted accesses"
    );
}

#[test]
fn huge_coefficients_wrap_like_expr_eval() {
    let mut p = ProgramBuilder::new("wrap");
    let a = p.array("a", 8, &[8]);
    p.routine("main", |r| {
        r.for_("i", 0, 7, |r, i| {
            // (2^62 * 4 + 1) * i == i (mod 2^64); i64::MIN * 2 == 0.
            r.load(
                a,
                vec![Expr::var(i) * (1i64 << 62) * 4 + Expr::var(i) + Expr::c(i64::MIN) * 2],
            );
        });
    });
    let prog = p.finish();
    let r = &prog.references()[0];
    assert!(prog.address_plan(r.array(), r.indices()).is_some());
    let ((result, events), (oracle, oracle_events)) = run_both(&prog, &[]);
    assert_eq!(result, oracle);
    assert_eq!(events, oracle_events);
    let base = prog.array(a).base();
    let expected: Vec<u64> = (0..8).map(|k| base + 8 * k).collect();
    assert_eq!(events.addresses(), expected);
}

#[test]
fn out_of_bounds_on_a_lowered_reference_names_every_subscript() {
    let mut p = ProgramBuilder::new("oob");
    let a = p.array("a", 8, &[4, 4]);
    p.routine("main", |r| {
        r.for_("i", 0, 3, |r, i| {
            r.load(a, vec![i.into(), Expr::var(i) * 2]);
        });
    });
    let prog = p.finish();
    let r = &prog.references()[0];
    assert!(prog.address_plan(r.array(), r.indices()).is_some());
    let ((result, events), (oracle, oracle_events)) = run_both(&prog, &[]);
    let err = result.unwrap_err();
    assert_eq!(
        err,
        ExecError::OutOfBounds {
            r: r.id(),
            indices: vec![2, 4],
            array: "a".to_string(),
        }
    );
    assert_eq!(err.to_string(), "ref0 accessed a[2, 4] out of bounds");
    assert_eq!(Err(err), oracle);
    assert_eq!(events, oracle_events);
    assert_eq!(events.accesses().count(), 2);
}

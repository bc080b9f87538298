//! The trace executor: interprets a [`Program`] and emits instrumentation
//! events.

use crate::event::TraceSink;
use reuselens_ir::{
    AddressPlan, ArrayId, ArrayKind, EvalCtx, Expr, Program, RefId, RoutineId, ScopeId, Stmt, VarId,
};
use std::error::Error;
use std::fmt;

/// Maximum dynamic call depth; exceeded depth indicates runaway recursion
/// in a workload model.
const MAX_CALL_DEPTH: usize = 64;

/// Error produced while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A reference computed subscripts outside its array's extents.
    OutOfBounds {
        /// The offending reference.
        r: RefId,
        /// The evaluated subscripts.
        indices: Vec<i64>,
        /// The array's name.
        array: String,
    },
    /// An indirect load read from an index array whose contents were never
    /// provided via [`Executor::set_index_array`].
    MissingIndexData(ArrayId),
    /// An indirect load's subscripts fell outside the index array.
    IndexOutOfBounds(ArrayId, Vec<i64>),
    /// Dynamic call nesting exceeded the executor's depth limit (64).
    CallDepthExceeded(RoutineId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { r, indices, array } => {
                write!(f, "{r} accessed {array}{indices:?} out of bounds")
            }
            ExecError::MissingIndexData(a) => {
                write!(f, "index array {a} has no contents; call set_index_array")
            }
            ExecError::IndexOutOfBounds(a, idx) => {
                write!(f, "indirect load from {a}{idx:?} out of bounds")
            }
            ExecError::CallDepthExceeded(r) => {
                write!(f, "call depth exceeded while calling {r}")
            }
        }
    }
}

impl Error for ExecError {}

/// Dynamic per-loop statistics gathered during execution. The paper's
/// static analysis consumes the *average iteration count* of each loop
/// (its step 2 compares reuse-group spans against it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// How many times the loop was entered.
    pub entries: u64,
    /// Total iterations summed over all entries.
    pub iterations: u64,
}

impl LoopStats {
    /// Average iterations per entry (zero when never entered).
    pub fn average_trip(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.iterations as f64 / self.entries as f64
        }
    }
}

/// Summary returned by [`Executor::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Total memory accesses (loads + stores).
    pub accesses: u64,
    /// Loads only.
    pub loads: u64,
    /// Stores only.
    pub stores: u64,
    /// Per-scope loop statistics, indexed by [`ScopeId`]; non-loop scopes
    /// keep entry counts with zero iterations.
    pub loop_stats: Vec<LoopStats>,
}

impl ExecReport {
    /// Stats for one scope.
    pub fn scope_stats(&self, s: ScopeId) -> LoopStats {
        self.loop_stats.get(s.index()).copied().unwrap_or_default()
    }

    /// Average trip count of a loop scope.
    pub fn average_trip(&self, s: ScopeId) -> f64 {
        self.scope_stats(s).average_trip()
    }
}

/// Interprets a [`Program`], emitting one event per memory access and per
/// scope transition into a [`TraceSink`].
///
/// The executor tracks only *integer* state: scalar variables and the
/// contents of index arrays (for indirect addressing). Data arrays exist
/// purely as address ranges.
///
/// Construction lowers every reference with affine subscripts once to an
/// [`AddressPlan`]; its accesses then cost one wrapping multiply-add per
/// subscript term and one bounds check per dimension. Only references the
/// lowering rejects (indirect loads, non-affine arithmetic) evaluate their
/// subscript `Expr` trees per access. Both give the same addresses and the
/// same errors.
///
/// # Examples
///
/// ```
/// use reuselens_ir::ProgramBuilder;
/// use reuselens_trace::{Executor, VecSink};
///
/// let mut p = ProgramBuilder::new("stream");
/// let a = p.array("a", 8, &[4]);
/// p.routine("main", |r| {
///     r.for_("i", 0, 3, |r, i| {
///         r.load(a, vec![i.into()]);
///     });
/// });
/// let prog = p.finish();
/// let mut sink = VecSink::new();
/// let report = Executor::new(&prog).run(&mut sink)?;
/// assert_eq!(report.accesses, 4);
/// let base = prog.arrays()[0].base();
/// assert_eq!(sink.addresses(), vec![base, base + 8, base + 16, base + 24]);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    vars: Vec<i64>,
    index_data: Vec<Option<Vec<i64>>>,
    /// One plan per reference, indexed by [`RefId`]; `None` where the
    /// subscripts do not lower and are interpreted instead.
    plans: Vec<Option<AddressPlan>>,
}

struct Ctx<'a> {
    vars: &'a [i64],
    index_data: &'a [Option<Vec<i64>>],
    program: &'a Program,
    /// Records the first indirect-load fault; expression evaluation itself
    /// is infallible so faults are latched and surfaced after the access.
    fault: std::cell::RefCell<Option<ExecError>>,
}

impl EvalCtx for Ctx<'_> {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.index()]
    }

    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64 {
        let decl = self.program.array(array);
        let Some(data) = &self.index_data[array.index()] else {
            self.latch(ExecError::MissingIndexData(array));
            return 0;
        };
        match decl.flat_index(indices) {
            Some(flat) => data[flat as usize],
            None => {
                self.latch(ExecError::IndexOutOfBounds(array, indices.to_vec()));
                0
            }
        }
    }
}

impl<'p> Executor<'p> {
    /// Creates an executor for a program. Index arrays default to all-zero
    /// contents only after [`set_index_array`](Self::set_index_array) or
    /// [`fill_index_array`](Self::fill_index_array); reading an unset index
    /// array is an error, which catches forgotten workload initialization.
    pub fn new(program: &'p Program) -> Executor<'p> {
        Executor {
            program,
            vars: vec![0; program.var_count()],
            index_data: vec![None; program.arrays().len()],
            plans: program
                .references()
                .iter()
                .map(|r| program.address_plan(r.array(), r.indices()))
                .collect(),
        }
    }

    /// Provides the contents of an index array (flat, layout order).
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an [`ArrayKind::Index`] array or `data` has
    /// the wrong length.
    pub fn set_index_array(&mut self, array: ArrayId, data: Vec<i64>) -> &mut Self {
        let decl = self.program.array(array);
        assert_eq!(
            decl.kind(),
            ArrayKind::Index,
            "{} is not an index array",
            decl.name()
        );
        assert_eq!(
            data.len() as u64,
            decl.len(),
            "index data length mismatch for {}",
            decl.name()
        );
        self.index_data[array.index()] = Some(data);
        self
    }

    /// Fills an index array by evaluating `f(flat_offset)`.
    pub fn fill_index_array(&mut self, array: ArrayId, f: impl FnMut(u64) -> i64) -> &mut Self {
        let len = self.program.array(array).len();
        let mut f = f;
        self.set_index_array(array, (0..len).map(&mut f).collect())
    }

    /// Runs the program's entry routine to completion.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecError`] encountered (out-of-bounds access,
    /// missing index data, runaway recursion).
    pub fn run<S: TraceSink>(&mut self, sink: &mut S) -> Result<ExecReport, ExecError> {
        let mut report = ExecReport {
            loop_stats: vec![LoopStats::default(); self.program.scopes().len()],
            ..ExecReport::default()
        };
        let entry = self.program.entry();
        self.run_routine(entry, sink, &mut report, 0)?;
        Ok(report)
    }

    fn run_routine<S: TraceSink>(
        &mut self,
        id: RoutineId,
        sink: &mut S,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        if depth >= MAX_CALL_DEPTH {
            return Err(ExecError::CallDepthExceeded(id));
        }
        let rtn = self.program.routine(id);
        let scope = rtn.scope();
        sink.enter(scope);
        report.loop_stats[scope.index()].entries += 1;
        // Clone is cheap: bodies are shared trees behind the program, but
        // borrowck needs the statement list split from `self`.
        let body: &[Stmt] = rtn.body();
        let result = self.run_body(body, sink, report, depth);
        sink.exit(scope);
        result
    }

    fn run_body<S: TraceSink>(
        &mut self,
        body: &[Stmt],
        sink: &mut S,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        for stmt in body {
            match stmt {
                Stmt::Access(rid) => self.run_access(*rid, sink, report)?,
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
                    if taken {
                        self.run_body(then_body, sink, report, depth)?;
                    } else {
                        self.run_body(else_body, sink, report, depth)?;
                    }
                }
                Stmt::Call(target) => {
                    self.run_routine(*target, sink, report, depth + 1)?;
                }
                Stmt::Loop(l) => {
                    let lower = self.eval(l.lower())?;
                    let upper = self.eval(l.upper())?;
                    let step = l.step();
                    let scope = l.scope();
                    sink.enter(scope);
                    report.loop_stats[scope.index()].entries += 1;
                    let mut v = lower;
                    while (step > 0 && v <= upper) || (step < 0 && v >= upper) {
                        self.vars[l.var().index()] = v;
                        report.loop_stats[scope.index()].iterations += 1;
                        self.run_body(l.body(), sink, report, depth)?;
                        v += step;
                    }
                    sink.exit(scope);
                }
            }
        }
        Ok(())
    }

    fn run_access<S: TraceSink>(
        &mut self,
        rid: RefId,
        sink: &mut S,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        let r = self.program.reference(rid);
        let addr = match &self.plans[rid.index()] {
            Some(plan) => match plan.address(&self.vars) {
                Some(addr) => addr,
                None => return Err(self.out_of_bounds(rid, plan.indices(&self.vars))),
            },
            None => self.interpret_address(rid)?,
        };
        report.accesses += 1;
        match r.kind() {
            reuselens_ir::AccessKind::Load => report.loads += 1,
            reuselens_ir::AccessKind::Store => report.stores += 1,
        }
        sink.access(
            rid,
            addr,
            self.program.array(r.array()).elem_size(),
            r.kind(),
        );
        Ok(())
    }

    /// The address of a reference that did not lower: every subscript
    /// `Expr` is evaluated, then mapped by the array declaration.
    fn interpret_address(&self, rid: RefId) -> Result<u64, ExecError> {
        let r = self.program.reference(rid);
        let ctx = self.ctx();
        let indices: Vec<i64> = r.indices().iter().map(|e| e.eval(&ctx)).collect();
        ctx.take_fault()?;
        match self.program.array(r.array()).address(&indices) {
            Some(addr) => Ok(addr),
            None => Err(self.out_of_bounds(rid, indices)),
        }
    }

    #[cold]
    fn out_of_bounds(&self, rid: RefId, indices: Vec<i64>) -> ExecError {
        let array = self.program.array(self.program.reference(rid).array());
        ExecError::OutOfBounds {
            r: rid,
            indices,
            array: array.name().to_string(),
        }
    }

    fn eval(&self, e: &Expr) -> Result<i64, ExecError> {
        let ctx = self.ctx();
        let v = e.eval(&ctx);
        ctx.take_fault()?;
        Ok(v)
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            vars: &self.vars,
            index_data: &self.index_data,
            program: self.program,
            fault: std::cell::RefCell::new(None),
        }
    }
}

impl Ctx<'_> {
    fn latch(&self, e: ExecError) {
        let mut slot = self.fault.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn take_fault(&self) -> Result<(), ExecError> {
        match self.fault.borrow_mut().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, VecSink};
    use reuselens_ir::{Pred, ProgramBuilder};

    #[test]
    fn column_major_inner_loop_is_contiguous() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4, 2]);
        p.routine("main", |r| {
            r.for_("j", 0, 1, |r, j| {
                r.for_("i", 0, 3, |r, i| {
                    r.load(a, vec![i.into(), j.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 8);
        let base = prog.arrays()[0].base();
        let expected: Vec<u64> = (0..8).map(|k| base + k * 8).collect();
        assert_eq!(sink.addresses(), expected);
    }

    #[test]
    fn negative_step_iterates_downward() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_step("i", 3, 0, -1, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let base = prog.arrays()[0].base();
        assert_eq!(sink.addresses(), vec![base + 24, base + 16, base + 8, base]);
    }

    #[test]
    fn scope_events_nest_and_loops_reenter() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("o", 0, 1, |r, _| {
                r.for_("i", 0, 1, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        let inner = prog.scope_by_name("i").unwrap();
        let enters = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter(s) if *s == inner))
            .count();
        // Inner loop is entered once per outer iteration.
        assert_eq!(enters, 2);
        assert_eq!(report.scope_stats(inner).entries, 2);
        assert_eq!(report.scope_stats(inner).iterations, 4);
        assert_eq!(report.average_trip(inner), 2.0);
        // Events balance.
        let mut depth = 0i64;
        for e in &sink.events {
            match e {
                Event::Enter(_) => depth += 1,
                Event::Exit(_) => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn guards_skip_out_of_range_work() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[10]);
        p.routine("main", |r| {
            r.for_("i", 0, 9, |r, i| {
                r.if_(Pred::Lt(Expr::var(i), Expr::c(3)), |r| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 3);
    }

    #[test]
    fn assigned_scalars_feed_subscripts() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[16]);
        p.routine("main", |r| {
            r.for_("d", 0, 3, |r, d| {
                let jj = r.let_("jj", Expr::var(d) * 2 + 1);
                r.load(a, vec![jj.into()]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let base = prog.arrays()[0].base();
        assert_eq!(
            sink.addresses(),
            vec![base + 8, base + 24, base + 40, base + 56]
        );
    }

    #[test]
    fn indirect_loads_read_index_data() {
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[4]);
        let a = p.array("a", 8, &[100]);
        p.routine("main", |r| {
            r.for_("i", 0, 3, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        let mut exec = Executor::new(&prog);
        exec.set_index_array(ix, vec![7, 3, 99, 0]);
        let mut sink = VecSink::new();
        exec.run(&mut sink).unwrap();
        let base = prog.array(a).base();
        assert_eq!(
            sink.addresses(),
            vec![base + 7 * 8, base + 3 * 8, base + 99 * 8, base]
        );
    }

    #[test]
    fn missing_index_data_errors() {
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[4]);
        let a = p.array("a", 8, &[100]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::load(ix, vec![Expr::c(0)])]);
        });
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        assert!(matches!(err, ExecError::MissingIndexData(_)));
    }

    #[test]
    fn out_of_bounds_is_reported_with_indices() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(4)]);
        });
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        match err {
            ExecError::OutOfBounds { indices, array, .. } => {
                assert_eq!(indices, vec![4]);
                assert_eq!(array, "a");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn calls_enter_callee_scope() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        let callee = p.declare_routine("callee");
        let main = p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.call(callee);
            });
        });
        p.define_routine(callee, |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        p.set_entry(main);
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let callee_scope = prog.routine(callee).scope();
        let enters = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter(s) if *s == callee_scope))
            .count();
        assert_eq!(enters, 2);
    }

    #[test]
    fn runaway_recursion_is_caught() {
        let mut p = ProgramBuilder::new("t");
        let rec = p.declare_routine("rec");
        p.define_routine(rec, |r| {
            r.call(rec);
        });
        p.set_entry(rec);
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        assert!(matches!(err, ExecError::CallDepthExceeded(_)));
    }

    #[test]
    fn empty_range_loop_body_never_runs() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("i", 5, 2, |r, i| {
                r.load(a, vec![Expr::var(i)]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 0);
        let scope = prog.scope_by_name("i").unwrap();
        assert_eq!(report.scope_stats(scope).entries, 1);
        assert_eq!(report.scope_stats(scope).iterations, 0);
    }
}

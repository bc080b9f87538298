//! Symbolic first-location and stride formulas per reference.
//!
//! The paper computes these by tracing use-def chains through machine code;
//! here they fall out of the IR's subscript expressions. For every
//! reference we derive:
//!
//! * a **first-location formula**: the affine byte offset of the accessed
//!   location within its array (when the subscripts are affine), and
//! * a **stride formula per enclosing loop**: how the byte address changes
//!   per iteration — a constant, *irregular* (changes between iterations),
//!   or *indirect* (depends on loaded data).

use reuselens_ir::{stride_wrt, Affine, ArrayId, Program, RefId, Reference, ScopeId, Stride};

/// Symbolic formulas for one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RefFormulas {
    /// The reference these formulas describe.
    pub r: RefId,
    /// The accessed array.
    pub array: ArrayId,
    /// Affine byte offset within the array, in terms of enclosing loop
    /// variables; `None` when any subscript is non-affine.
    pub first_location: Option<Affine>,
    /// `(loop scope, byte stride)` pairs, innermost loop first.
    pub strides: Vec<(ScopeId, Stride)>,
    /// Element size in bytes (the width each access touches).
    pub elem_size: u32,
}

impl RefFormulas {
    /// The stride with respect to one enclosing loop (`Constant(0)` for
    /// loops the reference does not depend on; `None` if `scope` is not an
    /// enclosing loop of the reference).
    pub fn stride_at(&self, scope: ScopeId) -> Option<Stride> {
        self.strides
            .iter()
            .find(|(s, _)| *s == scope)
            .map(|(_, st)| *st)
    }

    /// True when any enclosing loop sees an indirect stride.
    pub fn has_indirect_stride(&self) -> bool {
        self.strides
            .iter()
            .any(|(_, s)| matches!(s, Stride::Indirect))
    }
}

/// Computes the byte stride of a reference with respect to one loop
/// variable, combining the per-dimension subscript strides with the
/// array's layout strides. Any indirect subscript dominates; otherwise any
/// irregular subscript does.
fn byte_stride(program: &Program, r: &Reference, var: reuselens_ir::VarId) -> Stride {
    let arr = program.array(r.array());
    let mut total: i64 = 0;
    let mut worst = 0u8; // 0 = constant, 1 = irregular, 2 = indirect
    for (d, idx) in r.indices().iter().enumerate() {
        match stride_wrt(idx, var) {
            Stride::Constant(c) => {
                total += c * arr.byte_stride_of_dim(d) as i64;
            }
            Stride::Irregular => worst = worst.max(1),
            Stride::Indirect => worst = worst.max(2),
        }
    }
    match worst {
        0 => Stride::Constant(total),
        1 => Stride::Irregular,
        _ => Stride::Indirect,
    }
}

/// Derives [`RefFormulas`] for every reference in the program.
///
/// # Examples
///
/// ```
/// use reuselens_ir::{ProgramBuilder, Stride};
/// use reuselens_static::compute_formulas;
///
/// let mut p = ProgramBuilder::new("fig2");
/// let a = p.array("a", 8, &[64, 8]);
/// p.routine("main", |r| {
///     r.for_("j", 0, 7, |r, j| {
///         r.for_step("i", 0, 60, 4, |r, i| {
///             r.load(a, vec![i.into(), j.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let formulas = compute_formulas(&prog);
/// let i = prog.scope_by_name("i").unwrap();
/// // Unit element stride scaled by the loop's step of 4: the *per
/// // iteration* byte stride is 4 * 8 = 32 bytes.
/// assert_eq!(formulas[0].stride_at(i), Some(Stride::Constant(32)));
/// ```
pub fn compute_formulas(program: &Program) -> Vec<RefFormulas> {
    program
        .references()
        .iter()
        .map(|r| {
            let first_location = program.byte_offset_expr(r);
            let strides = program
                .enclosing_loops(r.scope())
                .into_iter()
                .filter_map(|loop_scope| {
                    // `enclosing_loops` only yields loop scopes, so the
                    // variable is always present; the guard satisfies
                    // the crate's no-unwrap wall.
                    let var = program.loop_var(loop_scope)?;
                    let per_unit = byte_stride(program, r, var);
                    // Scale by the loop's step so the stride is "bytes per
                    // iteration", matching the paper's formulas.
                    let step = loop_step(program, loop_scope);
                    let scaled = match per_unit {
                        Stride::Constant(c) => Stride::Constant(c * step),
                        other => other,
                    };
                    Some((loop_scope, scaled))
                })
                .collect();
            RefFormulas {
                r: r.id(),
                array: r.array(),
                first_location,
                strides,
                elem_size: program.array(r.array()).elem_size(),
            }
        })
        .collect()
}

/// Finds the step of a loop scope by walking the owning routine's body.
fn loop_step(program: &Program, scope: ScopeId) -> i64 {
    // Loop scopes always live in routines; the unit fallback satisfies
    // the crate's no-unwrap wall.
    let Some(rtn) = program.routine_of(scope) else {
        return 1;
    };
    let mut step = 1;
    reuselens_ir::walk_stmts(program.routine(rtn).body(), &mut |s| {
        if let reuselens_ir::Stmt::Loop(l) = s {
            if l.scope() == scope {
                step = l.step();
            }
        }
    });
    step
}

/// True when two references are *related* in the paper's sense: same array
/// and equal symbolic strides with respect to every enclosing loop. (Both
/// must also be in the same loop nest; callers group by innermost scope
/// chain.)
pub fn are_related(a: &RefFormulas, b: &RefFormulas) -> bool {
    a.array == b.array && a.strides == b.strides
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{Expr, ProgramBuilder};

    #[test]
    fn column_major_strides_per_loop() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[100, 50]);
        p.routine("main", |r| {
            r.for_("i", 0, 99, |r, i| {
                r.for_("j", 0, 49, |r, j| {
                    r.load(a, vec![i.into(), j.into()]);
                });
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        let j = prog.scope_by_name("j").unwrap();
        // inner loop j walks the outer dimension: stride = 8 * 100
        assert_eq!(f.stride_at(j), Some(Stride::Constant(800)));
        assert_eq!(f.stride_at(i), Some(Stride::Constant(8)));
        assert_eq!(f.stride_at(prog.routine(prog.entry()).scope()), None);
        assert!(f.first_location.is_some());
        assert!(!f.has_indirect_stride());
    }

    #[test]
    fn negative_step_scales_stride() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[100]);
        p.routine("main", |r| {
            r.for_step("i", 99, 0, -1, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Constant(-8)));
    }

    #[test]
    fn indirect_subscript_gives_indirect_stride() {
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[64]);
        let a = p.array("a", 8, &[1000]);
        p.routine("main", |r| {
            r.for_("i", 0, 63, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        let formulas = compute_formulas(&prog);
        // ref 0 is the data access a(ix(i)); the builder creates no separate
        // reference for the index load inside the subscript.
        let f = &formulas[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Indirect));
        assert!(f.first_location.is_none());
        assert!(f.has_indirect_stride());
    }

    #[test]
    fn irregular_subscript_gives_irregular_stride() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[1000]);
        p.routine("main", |r| {
            r.for_("i", 0, 63, |r, i| {
                r.load(a, vec![Expr::var(i) * Expr::var(i)]);
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Irregular));
    }

    #[test]
    fn zero_trip_loop_still_yields_formulas() {
        // A DO loop whose bounds never admit an iteration (lo > hi with a
        // positive step) still declares its reference; the formulas must
        // come out well-defined rather than panicking or degenerating.
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[16]);
        p.routine("main", |r| {
            r.for_("i", 5, 4, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Constant(8)));
        let loc = f.first_location.as_ref().expect("affine subscript");
        // Offset formula is 8*i regardless of the empty iteration space.
        assert_eq!(loc.constant, 0);
        assert!(!f.has_indirect_stride());
    }

    #[test]
    fn single_iteration_scope_keeps_its_stride() {
        // trip == 1: the stride formula is still "bytes per iteration" even
        // though the loop never advances; downstream consumers (the reuse
        // estimator) rely on the formula being present, not on trip > 1.
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 4, &[32, 32]);
        p.routine("main", |r| {
            r.for_("t", 0, 0, |r, t| {
                r.for_("i", 0, 31, |r, i| {
                    r.load(a, vec![i.into(), t.into()]);
                });
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let t = prog.scope_by_name("t").unwrap();
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Constant(4)));
        assert_eq!(f.stride_at(t), Some(Stride::Constant(4 * 32)));
    }

    #[test]
    fn negative_subscript_coefficient_gives_negative_stride() {
        // a(63 - i): the address walks backwards while the loop counts up.
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.for_("i", 0, 63, |r, i| {
                r.load(a, vec![Expr::c(63) - Expr::var(i)]);
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Constant(-8)));
        assert!(!f.has_indirect_stride());
    }

    #[test]
    fn negative_step_and_negative_coefficient_cancel() {
        // DO i = 63, 0, -1 over a(63 - i): two reversals make a forward
        // walk; per-iteration stride is (-8) * (-1) = +8.
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.for_step("i", 63, 0, -1, |r, i| {
                r.load(a, vec![Expr::c(63) - Expr::var(i)]);
            });
        });
        let prog = p.finish();
        let f = &compute_formulas(&prog)[0];
        let i = prog.scope_by_name("i").unwrap();
        assert_eq!(f.stride_at(i), Some(Stride::Constant(8)));
    }

    #[test]
    fn has_indirect_stride_is_per_reference_not_per_nest() {
        // In a nest mixing an affine outer loop with an indirect inner
        // subscript, only the reference that loads through the index array
        // reports an indirect stride; its affine sibling stays clean.
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[64]);
        let a = p.array("a", 8, &[1000]);
        let b = p.array("b", 8, &[64, 4]);
        p.routine("main", |r| {
            r.for_("c", 0, 3, |r, c| {
                r.for_("i", 0, 63, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                    r.load(b, vec![i.into(), c.into()]);
                });
            });
        });
        let prog = p.finish();
        let f = compute_formulas(&prog);
        let c = prog.scope_by_name("c").unwrap();
        let i = prog.scope_by_name("i").unwrap();
        // The gather: indirect in i, constant (0) in c — c does not appear
        // in the subscript, so the whole-ref classification must still be
        // indirect.
        assert_eq!(f[0].stride_at(i), Some(Stride::Indirect));
        assert_eq!(f[0].stride_at(c), Some(Stride::Constant(0)));
        assert!(f[0].has_indirect_stride());
        // The affine sibling in the same nest.
        assert_eq!(f[1].stride_at(i), Some(Stride::Constant(8)));
        assert_eq!(f[1].stride_at(c), Some(Stride::Constant(8 * 64)));
        assert!(!f[1].has_indirect_stride());
        assert!(!are_related(&f[0], &f[1]));
    }

    #[test]
    fn related_references_share_array_and_strides() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[64, 8]);
        let b = p.array("b", 8, &[64, 8]);
        p.routine("main", |r| {
            r.for_("j", 0, 7, |r, j| {
                r.for_("i", 0, 63, |r, i| {
                    r.load(a, vec![i.into(), j.into()]);
                    r.load(a, vec![Expr::var(i) + 1, j.into()]);
                    r.load(b, vec![i.into(), j.into()]);
                    r.load(a, vec![j.into(), Expr::c(0)]); // different strides
                });
            });
        });
        let prog = p.finish();
        let f = compute_formulas(&prog);
        assert!(are_related(&f[0], &f[1]));
        assert!(!are_related(&f[0], &f[2])); // different array
        assert!(!are_related(&f[0], &f[3])); // different strides
    }
}

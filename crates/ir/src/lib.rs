//! # reuselens-ir — loop-nest program IR
//!
//! This crate plays the role that *binary analysis of fully optimized
//! executables* plays in the ISPASS 2008 paper this project reproduces:
//! it provides a faithful, analyzable representation of a program's memory
//! behaviour — arrays with concrete layouts and base addresses, loads and
//! stores with symbolic subscript expressions, and a static scope tree of
//! routines and loops.
//!
//! Downstream crates consume this IR two ways:
//!
//! * `reuselens-trace` *executes* it, producing the event stream (memory
//!   accesses + scope entry/exit) that the paper's run-time instrumentation
//!   would emit;
//! * `reuselens-static` *analyzes* it, recovering the first-location and
//!   stride formulas the paper derives from use-def chains in machine code.
//!
//! # Examples
//!
//! Build the loop nest of the paper's Figure 1 (row-order traversal of
//! column-major arrays) and inspect its strides:
//!
//! ```
//! use reuselens_ir::{ProgramBuilder, Stride};
//!
//! let (n, m) = (100u64, 50u64);
//! let mut p = ProgramBuilder::new("fig1a");
//! let a = p.array("a", 8, &[n, m]); // column-major: first subscript contiguous
//! let b = p.array("b", 8, &[n, m]);
//! p.routine("main", |r| {
//!     r.for_("i", 0, (n - 1) as i64, |r, i| {
//!         r.for_("j", 0, (m - 1) as i64, |r, j| {
//!             r.load(b, vec![i.into(), j.into()]);
//!             r.load(a, vec![i.into(), j.into()]);
//!             r.store(a, vec![i.into(), j.into()]);
//!         });
//!     });
//! });
//! let prog = p.finish();
//! prog.validate()?;
//!
//! // The inner j loop walks the OUTER array dimension: byte stride 8*n.
//! let r0 = &prog.references()[0];
//! let offset = prog.byte_offset_expr(r0).unwrap();
//! let j = prog.loop_var(prog.scope_by_name("j").unwrap()).unwrap();
//! assert_eq!(offset.coeff(j), 8 * n as i64);
//! # Ok::<(), reuselens_ir::ValidateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod array;
mod builder;
mod expr;
mod ids;
mod pretty;
mod program;
mod stmt;

pub use affine::{affine_form, stride_wrt, AddressPlan, Affine, PlanDim, Stride};
pub use array::{ArrayDecl, ArrayKind, Layout};
pub use builder::{BodyBuilder, ProgramBuilder};
pub use expr::{EvalCtx, Expr, Pred};
pub use ids::{ArrayId, RefId, RoutineId, ScopeId, VarId};
pub use program::{Ancestors, ContextSplit, Program, Routine, ScopeInfo, ScopeKind, ValidateError};
pub use stmt::{walk_stmts, AccessKind, Loop, Reference, Stmt};

//! Integer expressions and predicates over loop variables.
//!
//! Expressions are what binary analysis recovers from an optimized
//! executable: address computations built from induction variables,
//! constants, arithmetic, and values loaded from memory (indirection).
//! They are deliberately *integer only*; the trace executor does not model
//! floating-point values, only the addresses a program touches.

use crate::ids::{ArrayId, VarId};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An integer expression evaluated during trace execution.
///
/// # Examples
///
/// ```
/// use reuselens_ir::{Expr, VarId};
///
/// let i = Expr::var(VarId(0));
/// let e = i.clone() * 4 + 2;
/// assert_eq!(e.to_string(), "((var0 * 4) + 2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A compile-time constant.
    Const(i64),
    /// A scalar variable (loop induction variable, parameter, or temporary).
    Var(VarId),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Floor division (Euclidean, like Fortran integer division for
    /// non-negative operands).
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean remainder.
    Mod(Box<Expr>, Box<Expr>),
    /// Minimum of two expressions.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum of two expressions.
    Max(Box<Expr>, Box<Expr>),
    /// An integer value loaded from an index array at the given subscript
    /// expressions. This models indirect addressing (`a(ix(i))`).
    Load(ArrayId, Vec<Expr>),
}

impl Expr {
    /// Builds a variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Builds a constant.
    pub fn c(value: i64) -> Expr {
        Expr::Const(value)
    }

    /// Builds `min(self, other)`.
    pub fn min(self, other: impl Into<Expr>) -> Expr {
        Expr::Min(Box::new(self), Box::new(other.into()))
    }

    /// Builds `max(self, other)`.
    pub fn max(self, other: impl Into<Expr>) -> Expr {
        Expr::Max(Box::new(self), Box::new(other.into()))
    }

    /// Builds the floor-division `self / other`.
    #[allow(clippy::should_implement_trait)] // deliberate Fortran-style name
    pub fn div(self, other: impl Into<Expr>) -> Expr {
        Expr::Div(Box::new(self), Box::new(other.into()))
    }

    /// Builds the Euclidean remainder `self % other`.
    #[allow(clippy::should_implement_trait)] // deliberate Fortran-style name
    pub fn rem(self, other: impl Into<Expr>) -> Expr {
        Expr::Mod(Box::new(self), Box::new(other.into()))
    }

    /// Builds an indirect load of an integer from `array[indices]`.
    pub fn load(array: ArrayId, indices: Vec<Expr>) -> Expr {
        Expr::Load(array, indices)
    }

    /// Evaluates the expression against a context supplying variable values
    /// and index-array contents.
    ///
    /// # Panics
    ///
    /// Panics on division or remainder by zero, mirroring the trap the
    /// modeled program would take.
    pub fn eval<C: EvalCtx + ?Sized>(&self, ctx: &C) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => ctx.var(*v),
            Expr::Add(a, b) => a.eval(ctx).wrapping_add(b.eval(ctx)),
            Expr::Sub(a, b) => a.eval(ctx).wrapping_sub(b.eval(ctx)),
            Expr::Mul(a, b) => a.eval(ctx).wrapping_mul(b.eval(ctx)),
            Expr::Div(a, b) => a.eval(ctx).div_euclid(b.eval(ctx)),
            Expr::Mod(a, b) => a.eval(ctx).rem_euclid(b.eval(ctx)),
            Expr::Min(a, b) => a.eval(ctx).min(b.eval(ctx)),
            Expr::Max(a, b) => a.eval(ctx).max(b.eval(ctx)),
            Expr::Load(arr, idx) => {
                let values: Vec<i64> = idx.iter().map(|e| e.eval(ctx)).collect();
                ctx.load_index(*arr, &values)
            }
        }
    }

    /// True if the expression (transitively) contains an indirect load.
    pub fn has_load(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => a.has_load() || b.has_load(),
            Expr::Load(..) => true,
        }
    }

    /// Collects every variable the expression mentions (including inside
    /// indirect-load subscripts) into `out`, deduplicated.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Load(_, idx) => {
                for e in idx {
                    e.collect_vars(out);
                }
            }
        }
    }

    /// Rewrites the expression, replacing each `Var(v)` for which `lookup`
    /// returns an expression with (a clone of) that expression. Variables
    /// with no binding are left in place. Substitution is *not* recursive:
    /// the replacement expression is inserted as-is, so callers that keep an
    /// environment of scalar bindings should store already-substituted
    /// expressions in it.
    pub fn substitute_vars<F>(&self, lookup: &F) -> Expr
    where
        F: Fn(VarId) -> Option<Expr>,
    {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Var(v) => lookup(*v).unwrap_or(Expr::Var(*v)),
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Div(a, b) => Expr::Div(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Mod(a, b) => Expr::Mod(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Min(a, b) => Expr::Min(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Max(a, b) => Expr::Max(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Expr::Load(arr, idx) => Expr::Load(
                *arr,
                idx.iter().map(|e| e.substitute_vars(lookup)).collect(),
            ),
        }
    }

    /// Collects every index array the expression loads from.
    pub fn collect_loads(&self, out: &mut Vec<ArrayId>) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            Expr::Load(arr, idx) => {
                if !out.contains(arr) {
                    out.push(*arr);
                }
                for e in idx {
                    e.collect_loads(out);
                }
            }
        }
    }
}

/// Supplies variable values and index-array contents to [`Expr::eval`].
pub trait EvalCtx {
    /// Current value of a scalar variable.
    fn var(&self, v: VarId) -> i64;
    /// Value stored in an index array at the given (already evaluated)
    /// subscript values.
    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64;
}

impl From<i64> for Expr {
    fn from(c: i64) -> Expr {
        Expr::Const(c)
    }
}

impl From<i32> for Expr {
    fn from(c: i32) -> Expr {
        Expr::Const(c as i64)
    }
}

impl From<u64> for Expr {
    fn from(c: u64) -> Expr {
        Expr::Const(c as i64)
    }
}

impl From<usize> for Expr {
    fn from(c: usize) -> Expr {
        Expr::Const(c as i64)
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::Var(v)
    }
}

macro_rules! expr_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl<R: Into<Expr>> $trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

expr_binop!(Add, add, Add);
expr_binop!(Sub, sub, Sub);
expr_binop!(Mul, mul, Mul);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Sub(Box::new(Expr::Const(0)), Box::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Mod(a, b) => write!(f, "({a} % {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
            Expr::Load(arr, idx) => {
                write!(f, "{arr}[")?;
                for (k, e) in idx.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A boolean predicate guarding a block of statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Always true.
    True,
    /// `a <= b`.
    Le(Expr, Expr),
    /// `a < b`.
    Lt(Expr, Expr),
    /// `a >= b`.
    Ge(Expr, Expr),
    /// `a > b`.
    Gt(Expr, Expr),
    /// `a == b`.
    Eq(Expr, Expr),
    /// `a != b`.
    Ne(Expr, Expr),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Evaluates the predicate under `ctx`.
    pub fn eval<C: EvalCtx + ?Sized>(&self, ctx: &C) -> bool {
        match self {
            Pred::True => true,
            Pred::Le(a, b) => a.eval(ctx) <= b.eval(ctx),
            Pred::Lt(a, b) => a.eval(ctx) < b.eval(ctx),
            Pred::Ge(a, b) => a.eval(ctx) >= b.eval(ctx),
            Pred::Gt(a, b) => a.eval(ctx) > b.eval(ctx),
            Pred::Eq(a, b) => a.eval(ctx) == b.eval(ctx),
            Pred::Ne(a, b) => a.eval(ctx) != b.eval(ctx),
            Pred::And(a, b) => a.eval(ctx) && b.eval(ctx),
            Pred::Or(a, b) => a.eval(ctx) || b.eval(ctx),
            Pred::Not(a) => !a.eval(ctx),
        }
    }

    /// Builds `self && other`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Builds `self || other`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Rewrites every expression inside the predicate with
    /// [`Expr::substitute_vars`].
    pub fn substitute_vars<F>(&self, lookup: &F) -> Pred
    where
        F: Fn(VarId) -> Option<Expr>,
    {
        match self {
            Pred::True => Pred::True,
            Pred::Le(a, b) => Pred::Le(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::Lt(a, b) => Pred::Lt(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::Ge(a, b) => Pred::Ge(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::Gt(a, b) => Pred::Gt(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::Eq(a, b) => Pred::Eq(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::Ne(a, b) => Pred::Ne(a.substitute_vars(lookup), b.substitute_vars(lookup)),
            Pred::And(a, b) => Pred::And(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Pred::Or(a, b) => Pred::Or(
                Box::new(a.substitute_vars(lookup)),
                Box::new(b.substitute_vars(lookup)),
            ),
            Pred::Not(a) => Pred::Not(Box::new(a.substitute_vars(lookup))),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::Le(a, b) => write!(f, "{a} <= {b}"),
            Pred::Lt(a, b) => write!(f, "{a} < {b}"),
            Pred::Ge(a, b) => write!(f, "{a} >= {b}"),
            Pred::Gt(a, b) => write!(f, "{a} > {b}"),
            Pred::Eq(a, b) => write!(f, "{a} == {b}"),
            Pred::Ne(a, b) => write!(f, "{a} != {b}"),
            Pred::And(a, b) => write!(f, "({a}) && ({b})"),
            Pred::Or(a, b) => write!(f, "({a}) || ({b})"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Ctx {
        vars: HashMap<VarId, i64>,
        table: Vec<i64>,
    }

    impl EvalCtx for Ctx {
        fn var(&self, v: VarId) -> i64 {
            self.vars[&v]
        }
        fn load_index(&self, _array: ArrayId, indices: &[i64]) -> i64 {
            self.table[indices[0] as usize]
        }
    }

    fn ctx() -> Ctx {
        let mut vars = HashMap::new();
        vars.insert(VarId(0), 5);
        vars.insert(VarId(1), -3);
        Ctx {
            vars,
            table: vec![10, 20, 30, 40],
        }
    }

    #[test]
    fn arithmetic_evaluates() {
        let c = ctx();
        let i = Expr::var(VarId(0));
        let j = Expr::var(VarId(1));
        assert_eq!((i.clone() + j.clone()).eval(&c), 2);
        assert_eq!((i.clone() - j.clone()).eval(&c), 8);
        assert_eq!((i.clone() * 3).eval(&c), 15);
        assert_eq!((-i.clone()).eval(&c), -5);
        assert_eq!(i.clone().min(j.clone()).eval(&c), -3);
        assert_eq!(i.clone().max(j.clone()).eval(&c), 5);
        assert_eq!(i.clone().div(2).eval(&c), 2);
        assert_eq!(i.rem(3).eval(&c), 2);
    }

    #[test]
    fn division_is_euclidean() {
        let c = ctx();
        let j = Expr::var(VarId(1)); // -3
        assert_eq!(j.clone().div(2).eval(&c), -2);
        assert_eq!(j.rem(2).eval(&c), 1);
    }

    #[test]
    fn indirect_load_evaluates() {
        let c = ctx();
        let e = Expr::load(ArrayId(0), vec![Expr::var(VarId(0)) - 3]);
        assert_eq!(e.eval(&c), 30);
        assert!(e.has_load());
        assert!(!Expr::var(VarId(0)).has_load());
    }

    #[test]
    fn collect_vars_dedups_and_descends_into_loads() {
        let e = Expr::load(ArrayId(0), vec![Expr::var(VarId(0)) + Expr::var(VarId(0))])
            + Expr::var(VarId(1));
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
        let mut loads = Vec::new();
        e.collect_loads(&mut loads);
        assert_eq!(loads, vec![ArrayId(0)]);
    }

    #[test]
    fn predicates_evaluate() {
        let c = ctx();
        let i = Expr::var(VarId(0));
        assert!(Pred::Le(i.clone(), Expr::c(5)).eval(&c));
        assert!(!Pred::Lt(i.clone(), Expr::c(5)).eval(&c));
        assert!(Pred::Ge(i.clone(), Expr::c(5)).eval(&c));
        assert!(Pred::Gt(i.clone(), Expr::c(4)).eval(&c));
        assert!(Pred::Eq(i.clone(), Expr::c(5)).eval(&c));
        assert!(Pred::Ne(i.clone(), Expr::c(4)).eval(&c));
        assert!(Pred::Eq(i.clone(), Expr::c(5)).and(Pred::True).eval(&c));
        assert!(Pred::Eq(i.clone(), Expr::c(9)).or(Pred::True).eval(&c));
        assert!(Pred::Not(Box::new(Pred::Eq(i, Expr::c(9)))).eval(&c));
    }

    #[test]
    fn substitute_vars_rewrites_bound_vars_only() {
        let c = ctx();
        // e = v2 * 8 where v2 is unbound in the ctx; substitute v2 := v0 + 1.
        let e = Expr::var(VarId(2)) * 8;
        let s = e.substitute_vars(&|v| (v == VarId(2)).then(|| Expr::var(VarId(0)) + 1));
        assert_eq!(s.eval(&c), 48);
        // Unbound vars survive untouched, including inside load subscripts.
        let l = Expr::load(ArrayId(0), vec![Expr::var(VarId(2))]);
        let ls = l.substitute_vars(&|v| (v == VarId(2)).then(|| Expr::c(1)));
        assert_eq!(ls.eval(&c), 20);
        let keep = Expr::var(VarId(1)).substitute_vars(&|_| None);
        assert_eq!(keep, Expr::var(VarId(1)));
        // Predicates rewrite both sides.
        let p = Pred::Lt(Expr::var(VarId(2)), Expr::c(3))
            .substitute_vars(&|v| (v == VarId(2)).then(|| Expr::c(2)));
        assert!(p.eval(&c));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::var(VarId(0)) * 8 + 16;
        assert_eq!(e.to_string(), "((var0 * 8) + 16)");
        let p = Pred::Lt(Expr::var(VarId(0)), Expr::c(10));
        assert_eq!(p.to_string(), "var0 < 10");
        let l = Expr::load(ArrayId(2), vec![Expr::c(1), Expr::c(2)]);
        assert_eq!(l.to_string(), "arr2[1, 2]");
    }
}

//! Affine-form recovery and per-loop stride classification.
//!
//! The paper's static analysis traces use-def chains in machine code to
//! build *symbolic formulas* for the first location a reference accesses and
//! for its *stride* with respect to each enclosing loop, flagging strides
//! that are irregular (change between iterations) or indirect (depend on a
//! loaded value). Our IR plays the role of the binary, so the same formulas
//! are recovered directly from [`Expr`] trees.

use crate::expr::Expr;
use crate::ids::VarId;
use std::fmt;

/// A multi-variable affine form `constant + Σ coeff·var`.
///
/// Terms are kept sorted by variable id with no zero coefficients, so two
/// equal forms compare equal structurally. Arithmetic wraps, exactly like
/// [`Expr::eval`], so a form evaluates to the value of the expression it
/// was recovered from for every variable assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    /// The constant term.
    pub constant: i64,
    /// `(variable, coefficient)` pairs, sorted by variable, coefficients
    /// nonzero.
    pub terms: Vec<(VarId, i64)>,
}

impl Affine {
    /// The affine form of a constant.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// The affine form of a single variable.
    pub fn var(v: VarId) -> Affine {
        Affine {
            constant: 0,
            terms: vec![(v, 1)],
        }
    }

    /// Coefficient of `v` (zero when absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// True when the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds another form.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(other.constant);
        for &(v, c) in &other.terms {
            out.add_term(v, c);
        }
        out
    }

    /// Subtracts another form.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            constant: self.constant.wrapping_mul(k),
            terms: self
                .terms
                .iter()
                .map(|&(v, c)| (v, c.wrapping_mul(k)))
                .filter(|&(_, c)| c != 0)
                .collect(),
        }
    }

    /// Evaluates the form with variable values supplied by `lookup`.
    pub fn eval(&self, mut lookup: impl FnMut(VarId) -> i64) -> i64 {
        self.terms.iter().fold(self.constant, |acc, &(v, c)| {
            acc.wrapping_add(c.wrapping_mul(lookup(v)))
        })
    }

    /// Substitutes a constant value for `v`, folding it into the constant
    /// term.
    pub fn substitute(&self, v: VarId, value: i64) -> Affine {
        let mut out = Affine {
            constant: self.constant,
            terms: Vec::with_capacity(self.terms.len()),
        };
        for &(w, c) in &self.terms {
            if w == v {
                out.constant = out.constant.wrapping_add(c.wrapping_mul(value));
            } else {
                out.terms.push((w, c));
            }
        }
        out
    }

    fn add_term(&mut self, v: VarId, c: i64) {
        if c == 0 {
            return;
        }
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(pos) => {
                self.terms[pos].1 = self.terms[pos].1.wrapping_add(c);
                if self.terms[pos].1 == 0 {
                    self.terms.remove(pos);
                }
            }
            Err(pos) => self.terms.insert(pos, (v, c)),
        }
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.constant)?;
        for &(v, c) in &self.terms {
            if c >= 0 {
                write!(f, " + {c}·{v}")?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        Ok(())
    }
}

/// One subscript of an [`AddressPlan`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanDim {
    /// The subscript as an affine form over variable slots.
    pub index: Affine,
    /// The dimension's extent: valid subscripts are `0..extent`.
    pub extent: u64,
    /// Bytes that a unit step of this subscript moves the address.
    pub byte_stride: u64,
}

/// A reference's address computation, lowered once from its subscript
/// expressions: the array's base address plus, per dimension, an affine
/// subscript with its extent and byte stride. Built by
/// [`Program::address_plan`](crate::Program::address_plan).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressPlan {
    /// The array's base address.
    pub base: u64,
    /// One entry per array dimension, in subscript order.
    pub dims: Vec<PlanDim>,
}

impl AddressPlan {
    /// The address accessed when each variable `v` holds
    /// `vars[v.index()]`, or `None` when a subscript falls outside its
    /// extent. Equals [`ArrayDecl::address`](crate::ArrayDecl::address)
    /// applied to the [`Expr::eval`] values of the original subscripts.
    #[inline]
    pub fn address(&self, vars: &[i64]) -> Option<u64> {
        let mut addr = self.base;
        for d in &self.dims {
            let idx = d.index.eval(|v| vars[v.index()]);
            if idx < 0 || idx as u64 >= d.extent {
                return None;
            }
            addr = addr.wrapping_add((idx as u64).wrapping_mul(d.byte_stride));
        }
        Some(addr)
    }

    /// Every subscript's value at `vars`, in subscript order.
    pub fn indices(&self, vars: &[i64]) -> Vec<i64> {
        self.dims
            .iter()
            .map(|d| d.index.eval(|v| vars[v.index()]))
            .collect()
    }

    /// The linearized byte offset within the array (base excluded) as one
    /// affine form.
    pub fn byte_offset(&self) -> Affine {
        self.dims.iter().fold(Affine::constant(0), |acc, d| {
            acc.add(&d.index.scale(d.byte_stride as i64))
        })
    }
}

/// Computes the affine form of an expression, or `None` when the expression
/// is not affine (contains indirect loads, min/max, or non-constant
/// division/remainder/multiplication) or folds a constant division or
/// remainder that would trap (by zero, or `i64::MIN / -1`). Never panics.
pub fn affine_form(expr: &Expr) -> Option<Affine> {
    match expr {
        Expr::Const(c) => Some(Affine::constant(*c)),
        Expr::Var(v) => Some(Affine::var(*v)),
        Expr::Add(a, b) => Some(affine_form(a)?.add(&affine_form(b)?)),
        Expr::Sub(a, b) => Some(affine_form(a)?.sub(&affine_form(b)?)),
        Expr::Mul(a, b) => {
            let fa = affine_form(a)?;
            let fb = affine_form(b)?;
            if fa.is_constant() {
                Some(fb.scale(fa.constant))
            } else if fb.is_constant() {
                Some(fa.scale(fb.constant))
            } else {
                None
            }
        }
        Expr::Div(a, b) | Expr::Mod(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
            let fa = affine_form(a)?;
            let fb = affine_form(b)?;
            if fa.is_constant() && fb.is_constant() {
                let (x, y) = (fa.constant, fb.constant);
                let folded = match expr {
                    Expr::Div(..) => x.checked_div_euclid(y)?,
                    Expr::Mod(..) => x.checked_rem_euclid(y)?,
                    Expr::Min(..) => x.min(y),
                    _ => x.max(y),
                };
                Some(Affine::constant(folded))
            } else {
                None
            }
        }
        Expr::Load(..) => None,
    }
}

/// Classification of how an expression changes as one loop variable steps.
///
/// Mirrors the paper's stride formulas: a constant stride, an *irregular*
/// stride (changes between iterations), or an *indirect* dependence (the
/// value accessed depends on data loaded from memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stride {
    /// The expression changes by exactly this many units per unit step of
    /// the variable (zero means invariant).
    Constant(i64),
    /// The expression depends on the variable non-affinely.
    Irregular,
    /// The expression depends on the variable through an indirect load.
    Indirect,
}

impl Stride {
    /// Returns the constant stride value if this is a constant stride.
    pub fn constant(self) -> Option<i64> {
        match self {
            Stride::Constant(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Stride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stride::Constant(c) => write!(f, "{c}"),
            Stride::Irregular => write!(f, "irregular"),
            Stride::Indirect => write!(f, "indirect"),
        }
    }
}

/// Computes the stride of `expr` with respect to variable `v`.
///
/// Sub-expressions that do not mention `v` are treated as loop-invariant
/// symbolic constants, so `i*8 + ix[j]` has stride 8 with respect to `i`
/// and an [indirect](Stride::Indirect) stride with respect to `j`.
pub fn stride_wrt(expr: &Expr, v: VarId) -> Stride {
    classify(expr, v).stride
}

struct Class {
    /// Does the expression mention `v` at all?
    depends: bool,
    stride: Stride,
}

impl Class {
    fn invariant() -> Class {
        Class {
            depends: false,
            stride: Stride::Constant(0),
        }
    }
}

fn merge_worst(a: Stride, b: Stride) -> Stride {
    use Stride::*;
    match (a, b) {
        (Indirect, _) | (_, Indirect) => Indirect,
        (Irregular, _) | (_, Irregular) => Irregular,
        (Constant(x), Constant(y)) => Constant(x.wrapping_add(y)),
    }
}

fn classify(expr: &Expr, v: VarId) -> Class {
    match expr {
        Expr::Const(_) => Class::invariant(),
        Expr::Var(w) => Class {
            depends: *w == v,
            stride: Stride::Constant(if *w == v { 1 } else { 0 }),
        },
        Expr::Add(a, b) => {
            let (ca, cb) = (classify(a, v), classify(b, v));
            Class {
                depends: ca.depends || cb.depends,
                stride: merge_worst(ca.stride, cb.stride),
            }
        }
        Expr::Sub(a, b) => {
            let (ca, cb) = (classify(a, v), classify(b, v));
            let neg = match cb.stride {
                Stride::Constant(c) => Stride::Constant(c.wrapping_neg()),
                other => other,
            };
            Class {
                depends: ca.depends || cb.depends,
                stride: merge_worst(ca.stride, neg),
            }
        }
        Expr::Mul(a, b) => {
            let (ca, cb) = (classify(a, v), classify(b, v));
            let depends = ca.depends || cb.depends;
            let stride = match (ca.depends, cb.depends) {
                (false, false) => Stride::Constant(0),
                (true, true) => escalate(ca.stride, cb.stride),
                (true, false) => scale_stride(ca.stride, b),
                (false, true) => scale_stride(cb.stride, a),
            };
            Class { depends, stride }
        }
        Expr::Div(a, b) | Expr::Mod(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
            let (ca, cb) = (classify(a, v), classify(b, v));
            let depends = ca.depends || cb.depends;
            let stride = if !depends {
                Stride::Constant(0)
            } else if matches!(ca.stride, Stride::Indirect) || matches!(cb.stride, Stride::Indirect)
            {
                Stride::Indirect
            } else {
                Stride::Irregular
            };
            Class { depends, stride }
        }
        Expr::Load(_, idx) => {
            let depends = idx.iter().any(|e| classify(e, v).depends);
            Class {
                depends,
                stride: if depends {
                    Stride::Indirect
                } else {
                    Stride::Constant(0)
                },
            }
        }
    }
}

/// Escalates two `v`-dependent strides combined multiplicatively.
fn escalate(a: Stride, b: Stride) -> Stride {
    if matches!(a, Stride::Indirect) || matches!(b, Stride::Indirect) {
        Stride::Indirect
    } else {
        Stride::Irregular
    }
}

/// Multiplies a `v`-dependent stride by a `v`-invariant factor expression.
fn scale_stride(s: Stride, factor: &Expr) -> Stride {
    match s {
        Stride::Constant(c) => match affine_form(factor) {
            Some(f) if f.is_constant() => Stride::Constant(c.wrapping_mul(f.constant)),
            // The factor is loop-invariant but not a compile-time constant;
            // the stride is fixed within the loop but unknown statically.
            _ => Stride::Irregular,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ArrayId;

    const I: VarId = VarId(0);
    const J: VarId = VarId(1);

    fn i() -> Expr {
        Expr::var(I)
    }
    fn j() -> Expr {
        Expr::var(J)
    }

    #[test]
    fn affine_form_of_linear_expr() {
        let e = i() * 8 + j() * 400 + 16;
        let f = affine_form(&e).unwrap();
        assert_eq!(f.constant, 16);
        assert_eq!(f.coeff(I), 8);
        assert_eq!(f.coeff(J), 400);
        assert_eq!(f.coeff(VarId(9)), 0);
    }

    #[test]
    fn affine_form_cancels_terms() {
        let e = i() * 3 - i() * 3 + 7;
        let f = affine_form(&e).unwrap();
        assert!(f.is_constant());
        assert_eq!(f.constant, 7);
    }

    #[test]
    fn affine_form_folds_constant_minmax_divmod() {
        let e = Expr::c(7).min(3) + Expr::c(10).div(4) + Expr::c(10).rem(4);
        let f = affine_form(&e).unwrap();
        assert_eq!(f.constant, 3 + 2 + 2);
    }

    #[test]
    fn affine_form_rejects_nonlinear() {
        assert!(affine_form(&(i() * j())).is_none());
        assert!(affine_form(&i().min(j())).is_none());
        assert!(affine_form(&Expr::load(ArrayId(0), vec![i()])).is_none());
        assert!(affine_form(&i().div(2)).is_none());
    }

    #[test]
    fn affine_form_rejects_trapping_folds_without_panicking() {
        assert!(affine_form(&Expr::c(1).div(0)).is_none());
        assert!(affine_form(&Expr::c(1).rem(0)).is_none());
        assert!(affine_form(&Expr::c(i64::MIN).div(-1)).is_none());
        assert!(affine_form(&Expr::c(i64::MIN).rem(-1)).is_none());
        // A trapping fold taints the whole subscript, even when scaled
        // away by zero.
        assert!(affine_form(&(i() + Expr::c(3).div(0) * Expr::c(0))).is_none());
        // Non-trapping folds at the edges still fold.
        let f = affine_form(&Expr::c(i64::MIN).div(1)).unwrap();
        assert_eq!(f, Affine::constant(i64::MIN));
    }

    /// Variable values for [`Expr::eval`]; these expressions never load.
    struct Vars([i64; 2]);

    impl crate::expr::EvalCtx for Vars {
        fn var(&self, v: VarId) -> i64 {
            self.0[v.index()]
        }
        fn load_index(&self, _: ArrayId, _: &[i64]) -> i64 {
            unreachable!("no indirect loads here")
        }
    }

    #[test]
    fn affine_arithmetic_wraps_like_eval() {
        let exprs = [
            i() * i64::MAX * 3 + j() * (i64::MIN + 1),
            Expr::c(i64::MAX) + 1 - i() * 4_000_000_000_000_000_000i64,
            (i() - j()) * i64::MIN + Expr::c(i64::MIN).min(5) - 1,
            // 2^32 * 2^32 wraps to a zero coefficient, which must vanish.
            i() * (1i64 << 32) * (1i64 << 32) + j(),
        ];
        for e in &exprs {
            let f = affine_form(e).unwrap();
            for vals in [[0, 0], [1, -1], [i64::MAX, 7], [-3, i64::MIN]] {
                let ctx = Vars(vals);
                assert_eq!(
                    f.eval(|v| ctx.0[v.index()]),
                    e.eval(&ctx),
                    "{e} at {vals:?}"
                );
            }
        }
        let f = affine_form(&exprs[3]).unwrap();
        assert_eq!(f.terms, vec![(J, 1)]);
        let g = affine_form(&(i() * i64::MAX)).unwrap().substitute(I, 2);
        assert_eq!(g, Affine::constant(i64::MAX.wrapping_mul(2)));
    }

    #[test]
    fn affine_substitute_and_eval() {
        let f = affine_form(&(i() * 8 + j() * 400 + 16)).unwrap();
        let g = f.substitute(J, 2);
        assert_eq!(g.constant, 816);
        assert_eq!(g.coeff(J), 0);
        assert_eq!(g.eval(|v| if v == I { 3 } else { 0 }), 840);
    }

    #[test]
    fn stride_of_affine_expr() {
        let e = i() * 8 + j() * 400 + 16;
        assert_eq!(stride_wrt(&e, I), Stride::Constant(8));
        assert_eq!(stride_wrt(&e, J), Stride::Constant(400));
        assert_eq!(stride_wrt(&e, VarId(5)), Stride::Constant(0));
    }

    #[test]
    fn stride_through_subtraction() {
        let e = j() * 10 - i() * 4;
        assert_eq!(stride_wrt(&e, I), Stride::Constant(-4));
        assert_eq!(stride_wrt(&e, J), Stride::Constant(10));
    }

    #[test]
    fn stride_of_indirect_access() {
        // a(ix(i)) — indirect with respect to i, invariant w.r.t. j.
        let e = Expr::load(ArrayId(0), vec![i()]) * 8;
        assert_eq!(stride_wrt(&e, I), Stride::Indirect);
        assert_eq!(stride_wrt(&e, J), Stride::Constant(0));
    }

    #[test]
    fn invariant_indirect_part_does_not_taint_other_vars() {
        // i*8 + ix[j]: constant stride in i, indirect in j.
        let e = i() * 8 + Expr::load(ArrayId(0), vec![j()]);
        assert_eq!(stride_wrt(&e, I), Stride::Constant(8));
        assert_eq!(stride_wrt(&e, J), Stride::Indirect);
    }

    #[test]
    fn nonlinear_dependence_is_irregular() {
        assert_eq!(stride_wrt(&(i() * j()), I), Stride::Irregular);
        assert_eq!(stride_wrt(&i().div(2), I), Stride::Irregular);
        assert_eq!(stride_wrt(&i().rem(4), I), Stride::Irregular);
        assert_eq!(stride_wrt(&i().min(j()), I), Stride::Irregular);
        // min over v-invariant operands is invariant
        assert_eq!(stride_wrt(&j().min(3), I), Stride::Constant(0));
    }

    #[test]
    fn indirect_wins_over_irregular() {
        let e = Expr::load(ArrayId(0), vec![i()]).min(i());
        assert_eq!(stride_wrt(&e, I), Stride::Indirect);
    }

    #[test]
    fn affine_display() {
        let f = affine_form(&(i() * 8 - j() * 4 + 2)).unwrap();
        assert_eq!(f.to_string(), "2 + 8·var0 - 4·var1");
    }
}

//! Least-squares fitting over a small basis of scaling functions.
//!
//! The paper models "the execution frequency and reuse distance scaling of
//! each bin as a linear combination of a set of basis functions". With a
//! handful of training sizes, a full six-term fit is underdetermined, so we
//! enumerate small subsets of the basis (constant + up to two shape terms)
//! and keep the subset with the lowest penalized residual.

use std::fmt;

/// The basis of scaling shapes: value as a function of problem size `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// Constant.
    One,
    /// Linear `n`.
    N,
    /// `n·log₂(n)`.
    NLogN,
    /// `n^1.5` (surface-to-volume effects).
    N15,
    /// Quadratic `n²`.
    N2,
    /// Cubic `n³`.
    N3,
}

/// Every basis function, in canonical order.
pub const ALL_BASIS: [Basis; 6] = [
    Basis::One,
    Basis::N,
    Basis::NLogN,
    Basis::N15,
    Basis::N2,
    Basis::N3,
];

impl Basis {
    /// Evaluates the basis function at `n`.
    pub fn eval(self, n: f64) -> f64 {
        match self {
            Basis::One => 1.0,
            Basis::N => n,
            Basis::NLogN => {
                if n <= 1.0 {
                    0.0
                } else {
                    n * n.log2()
                }
            }
            Basis::N15 => n.powf(1.5),
            Basis::N2 => n * n,
            Basis::N3 => n * n * n,
        }
    }
}

impl fmt::Display for Basis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Basis::One => write!(f, "1"),
            Basis::N => write!(f, "n"),
            Basis::NLogN => write!(f, "n·log n"),
            Basis::N15 => write!(f, "n^1.5"),
            Basis::N2 => write!(f, "n^2"),
            Basis::N3 => write!(f, "n^3"),
        }
    }
}

/// A fitted model `y(n) = Σ coeff·basis(n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    /// `(basis, coefficient)` terms.
    pub terms: Vec<(Basis, f64)>,
    /// Root-mean-square residual on the training data.
    pub rms_residual: f64,
}

impl Fit {
    /// Evaluates the fitted function, clamped at zero (counts and distances
    /// are never negative).
    pub fn eval(&self, n: f64) -> f64 {
        self.terms
            .iter()
            .map(|(b, c)| c * b.eval(n))
            .sum::<f64>()
            .max(0.0)
    }
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (b, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:.4}·{b}")?;
        }
        Ok(())
    }
}

/// Solves a dense linear system by Gaussian elimination with partial
/// pivoting; `None` when singular.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let (pivot, pmax) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))?;
        if pmax < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (x, &p) in rest[0].iter_mut().zip(pivot_row).skip(col) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

/// Least-squares fit of `ys ~ Σ coeff·basis(xs)` for a fixed basis subset.
fn fit_subset(xs: &[f64], ys: &[f64], subset: &[Basis]) -> Option<Fit> {
    let k = subset.len();
    // Require strictly more points than parameters: an exact interpolation
    // has zero residual by construction and extrapolates wildly.
    if xs.len() <= k {
        return None;
    }
    // Normal equations: (BᵀB) c = Bᵀy.
    let mut ata = vec![vec![0.0; k]; k];
    let mut aty = vec![0.0; k];
    for (&x, &y) in xs.iter().zip(ys) {
        let row: Vec<f64> = subset.iter().map(|b| b.eval(x)).collect();
        for i in 0..k {
            aty[i] += row[i] * y;
            for j in 0..k {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    let coeffs = solve(ata, aty)?;
    let mut sse = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let pred: f64 = subset.iter().zip(&coeffs).map(|(b, c)| c * b.eval(x)).sum();
        sse += (y - pred) * (y - pred);
    }
    Some(Fit {
        terms: subset.iter().copied().zip(coeffs).collect(),
        rms_residual: (sse / xs.len() as f64).sqrt(),
    })
}

/// Fits `ys` as a function of `xs`, selecting the best subset of the basis
/// with at most `1 + max_shape_terms` terms (a constant plus shape terms).
/// Fewer terms win ties within a 1% residual margin (Occam preference).
///
/// # Panics
///
/// Panics if `xs` and `ys` differ in length, fewer than 2 points are
/// given, or any training value is non-finite (a NaN or infinity would
/// silently poison every coefficient of the least-squares solve).
///
/// # Examples
///
/// ```
/// use reuselens_model::fit_scaling;
///
/// let xs = [8.0, 16.0, 32.0, 64.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x + 5.0).collect();
/// let fit = fit_scaling(&xs, &ys, 2);
/// assert!((fit.eval(128.0) - (3.0 * 128.0 * 128.0 + 5.0)).abs() < 1.0);
/// ```
pub fn fit_scaling(xs: &[f64], ys: &[f64], max_shape_terms: usize) -> Fit {
    assert_eq!(xs.len(), ys.len(), "xs and ys must pair up");
    assert!(xs.len() >= 2, "need at least two training points");
    assert!(
        xs.iter().chain(ys).all(|v| v.is_finite()),
        "fit_scaling requires finite training data"
    );
    let shapes: Vec<Basis> = ALL_BASIS[1..].to_vec();
    let mut best: Option<Fit> = None;
    let mut consider = |fit: Option<Fit>| {
        if let Some(f) = fit {
            let better = match &best {
                None => true,
                Some(b) => {
                    if f.terms.len() < b.terms.len() {
                        f.rms_residual <= b.rms_residual * 1.01
                    } else if f.terms.len() > b.terms.len() {
                        f.rms_residual < b.rms_residual * 0.99
                    } else {
                        f.rms_residual < b.rms_residual
                    }
                }
            };
            if better {
                best = Some(f);
            }
        }
    };
    // constant only
    consider(fit_subset(xs, ys, &[Basis::One]));
    // constant + one shape
    for &s in &shapes {
        consider(fit_subset(xs, ys, &[Basis::One, s]));
    }
    if max_shape_terms >= 2 {
        for i in 0..shapes.len() {
            for j in (i + 1)..shapes.len() {
                consider(fit_subset(xs, ys, &[Basis::One, shapes[i], shapes[j]]));
            }
        }
    }
    best.expect("constant fit always succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_prng::SplitMix64;

    #[test]
    fn solve_small_system() {
        // 2x + y = 5; x - y = 1 => x = 2, y = 1
        let x = solve(vec![vec![2.0, 1.0], vec![1.0, -1.0]], vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // singular
        assert!(solve(vec![vec![1.0, 1.0], vec![2.0, 2.0]], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn recovers_constant() {
        let xs = [10.0, 20.0, 40.0];
        let ys = [7.0, 7.0, 7.0];
        let fit = fit_scaling(&xs, &ys, 2);
        assert_eq!(fit.terms.len(), 1);
        assert!((fit.eval(1000.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_linear() {
        let xs = [8.0, 16.0, 32.0, 64.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 1.0).collect();
        let fit = fit_scaling(&xs, &ys, 2);
        assert!(fit.rms_residual < 1e-6);
        assert!((fit.eval(128.0) - 321.0).abs() < 0.1);
    }

    #[test]
    fn recovers_cubic_mesh_scaling() {
        // Sweep3D-style: cells = n^3
        let xs = [10.0, 20.0, 30.0, 40.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x * x * x).collect();
        let fit = fit_scaling(&xs, &ys, 2);
        let predicted = fit.eval(50.0);
        assert!(
            (predicted - 62_500.0).abs() / 62_500.0 < 0.01,
            "predicted {predicted}"
        );
    }

    /// Regression: a NaN anywhere in the training data used to flow
    /// through the normal equations and come out as a NaN-coefficient
    /// "best" fit; the precondition is now checked up front.
    #[test]
    #[should_panic(expected = "finite training data")]
    fn fit_scaling_rejects_non_finite_input() {
        let _ = fit_scaling(&[8.0, 16.0, 32.0], &[1.0, f64::NAN, 4.0], 2);
    }

    #[test]
    fn eval_clamps_negative() {
        let fit = Fit {
            terms: vec![(Basis::One, -5.0)],
            rms_residual: 0.0,
        };
        assert_eq!(fit.eval(10.0), 0.0);
    }

    #[test]
    fn basis_display_and_eval() {
        assert_eq!(Basis::NLogN.eval(1.0), 0.0);
        assert_eq!(Basis::NLogN.eval(8.0), 24.0);
        assert_eq!(Basis::N15.eval(4.0), 8.0);
        assert_eq!(format!("{}", Basis::N2), "n^2");
        let f = fit_scaling(&[1.0, 2.0], &[1.0, 2.0], 1);
        assert!(!f.to_string().is_empty());
    }

    /// Seeded randomized check over every basis shape and random
    /// coefficients: fitting never panics and interpolation is accurate.
    #[test]
    fn fit_never_panics_and_interpolates_reasonably() {
        let mut rng = SplitMix64::seed_from_u64(0xf17_5ca1e);
        for _case in 0..128 {
            let coeff = 0.1 + rng.gen_f64() * 9.9;
            let which = rng.gen_range(0..5) as usize;
            let shape = ALL_BASIS[1 + which];
            let xs = [8.0, 12.0, 16.0, 24.0, 32.0];
            let ys: Vec<f64> = xs.iter().map(|&x| coeff * shape.eval(x) + 3.0).collect();
            let fit = fit_scaling(&xs, &ys, 2);
            // Interpolation within the training range is accurate.
            let truth = coeff * shape.eval(20.0) + 3.0;
            assert!((fit.eval(20.0) - truth).abs() / truth < 0.05);
        }
    }
}

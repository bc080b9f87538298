//! Pedagogical kernels from the paper and synthetic generators.

use crate::BuiltWorkload;
use reuselens_ir::{Expr, ProgramBuilder};
use reuselens_prng::SplitMix64;

/// Which version of the Figure 1 loop nest to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig1Variant {
    /// Fig. 1(a): inner loop `j` walks rows of column-major arrays; the
    /// outer `i` loop carries the spatial reuse.
    RowOrder,
    /// Fig. 1(b): loops interchanged; the inner loop is contiguous.
    Interchanged,
}

/// Builds the paper's Figure 1 kernel: `A(I,J) = A(I,J) + B(I,J)` over
/// `n × m` column-major arrays.
pub fn fig1_interchange(n: u64, m: u64, variant: Fig1Variant) -> BuiltWorkload {
    let mut p = ProgramBuilder::new(match variant {
        Fig1Variant::RowOrder => "fig1a",
        Fig1Variant::Interchanged => "fig1b",
    });
    let a = p.array("a", 8, &[n, m]);
    let b = p.array("b", 8, &[n, m]);
    p.routine("main", |r| {
        let body = |r: &mut reuselens_ir::BodyBuilder<'_>, i: Expr, j: Expr| {
            r.load_labeled(b, vec![i.clone(), j.clone()], "B(I,J)");
            r.load_labeled(a, vec![i.clone(), j.clone()], "A(I,J)");
            r.store_labeled(a, vec![i, j], "A(I,J)=");
        };
        match variant {
            Fig1Variant::RowOrder => {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.for_("j", 0, (m - 1) as i64, |r, j| {
                        body(r, i.into(), j.into());
                    });
                });
            }
            Fig1Variant::Interchanged => {
                r.for_("j", 0, (m - 1) as i64, |r, j| {
                    r.for_("i", 0, (n - 1) as i64, |r, i| {
                        body(r, i.into(), j.into());
                    });
                });
            }
        }
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: (n * m) as f64,
        timesteps: 1,
    }
}

/// Builds the paper's Figure 2 fragmentation kernel:
///
/// ```fortran
/// DO J = 1, M
///   DO I = 1, N, 4
///     A(I+2,J) = A(I,J-1) + B(I+1,J) - B(I+3,J)
///     A(I+3,J) = A(I+1,J-1) + B(I,J) - B(I+2,J)
/// ```
pub fn fig2_fragmentation(n: u64, m: u64) -> BuiltWorkload {
    assert!(n.is_multiple_of(4), "n must be a multiple of the stride 4");
    let mut p = ProgramBuilder::new("fig2");
    let a = p.array("a", 8, &[n + 4, m + 1]);
    let b = p.array("b", 8, &[n + 4, m + 1]);
    p.routine("main", |r| {
        r.for_("j", 1, m as i64, |r, j| {
            r.for_step("i", 0, (n - 4) as i64, 4, |r, i| {
                let iv = Expr::var(i);
                let jv = Expr::var(j);
                r.load_labeled(a, vec![iv.clone(), jv.clone() - 1], "A(I,J-1)");
                r.load_labeled(b, vec![iv.clone() + 1, jv.clone()], "B(I+1,J)");
                r.load_labeled(b, vec![iv.clone() + 3, jv.clone()], "B(I+3,J)");
                r.store_labeled(a, vec![iv.clone() + 2, jv.clone()], "A(I+2,J)");
                r.load_labeled(a, vec![iv.clone() + 1, jv.clone() - 1], "A(I+1,J-1)");
                r.load_labeled(b, vec![iv.clone(), jv.clone()], "B(I,J)");
                r.load_labeled(b, vec![iv.clone() + 2, jv.clone()], "B(I+2,J)");
                r.store_labeled(a, vec![iv + 3, jv], "A(I+3,J)");
            });
        });
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: (n / 4 * m) as f64,
        timesteps: 1,
    }
}

/// A streaming kernel: `sweeps` passes over an `elems`-element array.
/// The workhorse for analyzer benches and scaling-model tests.
pub fn streaming(elems: u64, sweeps: u64) -> BuiltWorkload {
    let mut p = ProgramBuilder::new("streaming");
    let a = p.array("a", 8, &[elems]);
    p.routine("main", |r| {
        r.for_("t", 0, (sweeps - 1) as i64, |r, _| {
            r.for_("i", 0, (elems - 1) as i64, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: elems as f64,
        timesteps: sweeps,
    }
}

/// A random-gather kernel: `passes` sweeps, each loading `accesses`
/// elements of a `table`-element array through a shuffled index array —
/// an irregular access pattern for stressing the analyzer and the
/// irregular-miss classification.
pub fn random_gather(table: u64, accesses: u64, passes: u64, seed: u64) -> BuiltWorkload {
    let mut p = ProgramBuilder::new("random_gather");
    let ix = p.index_array("ix", &[accesses]);
    let a = p.array("table", 8, &[table]);
    p.routine("main", |r| {
        r.for_("pass", 0, (passes - 1) as i64, |r, _| {
            r.for_("i", 0, (accesses - 1) as i64, |r, i| {
                r.load_labeled(a, vec![Expr::load(ix, vec![i.into()])], "table(ix(i))");
            });
        });
    });
    let mut rng = SplitMix64::seed_from_u64(seed);
    let idx: Vec<i64> = (0..accesses)
        .map(|_| rng.gen_range(0..table) as i64)
        .collect();
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![(ix, idx)],
        normalizer: accesses as f64,
        timesteps: passes,
    }
}

/// A 2-D five-point stencil over an `n × n` grid for `steps` time steps —
/// a classic time-loop-carried reuse pattern (Table I's last row).
pub fn stencil2d(n: u64, steps: u64) -> BuiltWorkload {
    let mut p = ProgramBuilder::new("stencil2d");
    let a = p.array("a", 8, &[n, n]);
    let b = p.array("b", 8, &[n, n]);
    p.routine("main", |r| {
        r.for_("t", 0, (steps - 1) as i64, |r, _| {
            r.for_("j", 1, (n - 2) as i64, |r, j| {
                r.for_("i", 1, (n - 2) as i64, |r, i| {
                    let iv = Expr::var(i);
                    let jv = Expr::var(j);
                    r.load(a, vec![iv.clone(), jv.clone()]);
                    r.load(a, vec![iv.clone() - 1, jv.clone()]);
                    r.load(a, vec![iv.clone() + 1, jv.clone()]);
                    r.load(a, vec![iv.clone(), jv.clone() - 1]);
                    r.load(a, vec![iv.clone(), jv.clone() + 1]);
                    r.store(b, vec![iv, jv]);
                });
            });
        });
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: (n * n) as f64,
        timesteps: steps,
    }
}

/// Dense matrix multiply `C += A·B` over `n × n` column-major matrices,
/// either the naive `j/i/k` nest or tiled with `tile × tile` blocks —
/// the canonical blocking example the paper's Table I points to when
/// several arrays with different dimension orders conflict.
pub fn matmul(n: u64, tile: Option<u64>) -> BuiltWorkload {
    let mut p = ProgramBuilder::new(match tile {
        None => "matmul-naive".to_string(),
        Some(t) => format!("matmul-tiled-{t}"),
    });
    let a = p.array("a", 8, &[n, n]);
    let b = p.array("b", 8, &[n, n]);
    let c = p.array("c", 8, &[n, n]);
    let last = (n - 1) as i64;
    p.routine("main", |r| {
        let body = |r: &mut reuselens_ir::BodyBuilder<'_>,
                    i: reuselens_ir::VarId,
                    j: reuselens_ir::VarId,
                    k: reuselens_ir::VarId| {
            r.load(a, vec![i.into(), k.into()]);
            r.load(b, vec![k.into(), j.into()]);
            r.load(c, vec![i.into(), j.into()]);
            r.store(c, vec![i.into(), j.into()]);
        };
        match tile {
            None => {
                r.for_("j", 0, last, |r, j| {
                    r.for_("i", 0, last, |r, i| {
                        r.for_("k", 0, last, |r, k| {
                            body(r, i, j, k);
                        });
                    });
                });
            }
            Some(t) => {
                assert!(t > 0 && n.is_multiple_of(t), "tile must divide n");
                let t = t as i64;
                r.for_step("jj", 0, last, t, |r, jj| {
                    r.for_step("kk", 0, last, t, |r, kk| {
                        r.for_("j", Expr::var(jj), Expr::var(jj) + (t - 1), |r, j| {
                            r.for_("i", 0, last, |r, i| {
                                r.for_("k", Expr::var(kk), Expr::var(kk) + (t - 1), |r, k| {
                                    body(r, i, j, k);
                                });
                            });
                        });
                    });
                });
            }
        }
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: (n * n * n) as f64,
        timesteps: 1,
    }
}

/// Out-of-place matrix transpose `B = Aᵀ` over `n × n` column-major
/// matrices: one of the two arrays is necessarily walked against its
/// layout, the textbook dimension-interchange victim.
pub fn transpose(n: u64) -> BuiltWorkload {
    let mut p = ProgramBuilder::new("transpose");
    let a = p.array("a", 8, &[n, n]);
    let b = p.array("b", 8, &[n, n]);
    let last = (n - 1) as i64;
    p.routine("main", |r| {
        r.for_("j", 0, last, |r, j| {
            r.for_("i", 0, last, |r, i| {
                r.load(a, vec![j.into(), i.into()]); // against layout
                r.store(b, vec![i.into(), j.into()]); // with layout
            });
        });
    });
    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: (n * n) as f64,
        timesteps: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::analyze_program;

    #[test]
    fn fig1_variants_touch_identical_data() {
        let a = fig1_interchange(64, 32, Fig1Variant::RowOrder);
        let b = fig1_interchange(64, 32, Fig1Variant::Interchanged);
        let ra = analyze_program(&a.program, &[64], vec![]).unwrap();
        let rb = analyze_program(&b.program, &[64], vec![]).unwrap();
        assert_eq!(ra.exec.accesses, rb.exec.accesses);
        assert_eq!(
            ra.profiles[0].distinct_blocks,
            rb.profiles[0].distinct_blocks
        );
    }

    #[test]
    fn fig1_interchange_shortens_spatial_reuse() {
        // With a row-order traversal the same cache line is revisited only
        // after a whole row of other lines; interchanged, revisits are
        // immediate. Compare mean reuse distances.
        let a = fig1_interchange(128, 64, Fig1Variant::RowOrder);
        let b = fig1_interchange(128, 64, Fig1Variant::Interchanged);
        let pa = analyze_program(&a.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let pb = analyze_program(&b.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let mean = |p: &reuselens_core::ReuseProfile| {
            let mut h = reuselens_core::Histogram::new();
            for pat in &p.patterns {
                h.merge(&pat.histogram);
            }
            h.mean().unwrap()
        };
        assert!(mean(&pa) > 4.0 * mean(&pb));
    }

    #[test]
    fn fig2_builds_and_validates() {
        let w = fig2_fragmentation(64, 8);
        w.program.validate().unwrap();
        assert_eq!(w.program.references().len(), 8);
    }

    #[test]
    fn random_gather_runs_with_its_index_data() {
        let w = random_gather(1024, 4096, 2, 42);
        let r = analyze_program(&w.program, &[64], w.index_arrays.clone()).unwrap();
        assert_eq!(r.exec.accesses, 2 * 4096);
        // Determinism: same seed, same trace.
        let w2 = random_gather(1024, 4096, 2, 42);
        assert_eq!(w.index_arrays, w2.index_arrays);
    }

    #[test]
    fn stencil_time_loop_carries_cross_step_reuse() {
        let w = stencil2d(48, 2);
        let prof = analyze_program(&w.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let t = w.program.scope_by_name("t").unwrap();
        let carried: u64 = prof.patterns_carried_by(t).map(|p| p.count()).sum();
        assert!(carried > 0, "time loop must carry cross-step reuse");
    }

    #[test]
    fn matmul_tiling_cuts_misses() {
        use reuselens_cache::{evaluate_program, MemoryHierarchy};
        let h = MemoryHierarchy::itanium2_scaled(64); // 4 KB L2
        let naive = matmul(64, None);
        let tiled = matmul(64, Some(16));
        let (rn, _) = evaluate_program(&naive.program, &h, vec![]).unwrap();
        let (rt, _) = evaluate_program(&tiled.program, &h, vec![]).unwrap();
        // Same work...
        assert_eq!(rn.accesses, rt.accesses);
        // ...far fewer misses.
        let gain = rn.misses_at("L2").unwrap() / rt.misses_at("L2").unwrap();
        assert!(gain > 2.0, "tiling gain {gain:.2}x");
    }

    #[test]
    fn transpose_reads_against_layout() {
        use reuselens_static::compute_formulas;
        let w = transpose(64);
        let formulas = compute_formulas(&w.program);
        let i = w.program.scope_by_name("i").unwrap();
        // The load walks the outer dimension in the inner loop.
        assert_eq!(
            formulas[0].stride_at(i),
            Some(reuselens_ir::Stride::Constant(64 * 8))
        );
        // The store is contiguous.
        assert_eq!(
            formulas[1].stride_at(i),
            Some(reuselens_ir::Stride::Constant(8))
        );
    }

    #[test]
    fn normalize_divides_by_cells_and_steps() {
        let w = streaming(100, 4);
        assert!((w.normalize(800.0) - 2.0).abs() < 1e-12);
    }
}

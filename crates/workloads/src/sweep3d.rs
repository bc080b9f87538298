//! The Sweep3D wavefront kernel model (paper §V-A).
//!
//! Sweep3D performs diagonal sweeps over a 3-D Cartesian mesh. Following
//! the paper's Figure 4(b), the wavefront iterates diagonal planes of the
//! `(j, k, mi)` space — `j`,`k` mesh coordinates, `mi` the simulated angle
//! — and each plane cell runs inner loops over the `i` mesh dimension and
//! the `nm` flux moments. The arrays that matter (`src`, `flux`, `face`,
//! `sigt`) are **not indexed by `mi`**, so cells that differ only in angle
//! touch identical memory: that reuse is carried by the `idiag` loop and is
//! too long to hit in cache — until the `mi` dimension is blocked (Fig. 7).
//!
//! Two of the paper's transformations are modeled:
//!
//! * **`mi`-blocking** with factor `B` ([`SweepConfig::mi_block`]): the
//!   wavefront runs over `(j, k, ⌈mi/B⌉)` and each cell processes its `B`
//!   angles back-to-back. `B = 1` reproduces the original code's memory
//!   behaviour (the paper found them identical — here they coincide by
//!   construction).
//! * **dimension interchange** ([`SweepConfig::dim_interchange`]): `src`
//!   and `flux` become `(it, nm, jt, kt)` so the `n` loop walks adjacent
//!   memory instead of striding a whole 3-D mesh per moment.

use crate::BuiltWorkload;
use reuselens_ir::{Expr, Pred, ProgramBuilder};

/// Configuration of the Sweep3D model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Cubic mesh extent (`it = jt = kt`).
    pub mesh: u64,
    /// Number of simulated angles (`mmi`; the paper's input used 6).
    pub angles: u64,
    /// Flux moments (`nm`).
    pub moments: u64,
    /// Octants swept per time step (the paper sweeps 8; fewer octants
    /// scale the run down without changing any reuse pattern's shape).
    pub octants: u64,
    /// Simulated time steps.
    pub timesteps: u64,
    /// Angle-blocking factor `B` (1 = original memory behaviour).
    pub mi_block: u64,
    /// Move the `n` dimension of `src`/`flux` into second position.
    pub dim_interchange: bool,
    /// The Ding & Zhong-style restructuring the paper's §VI compares
    /// against: process every octant's work for a cell back-to-back,
    /// shortening the `iq`-carried reuse at the cost of the sweep's
    /// wavefront parallelism. Mutually exclusive with `mi_block > 1`.
    pub octant_inner: bool,
}

impl SweepConfig {
    /// A baseline configuration for the given cubic mesh: 6 angles, 2
    /// moments, 2 octants, 1 time step, unblocked, original layout.
    pub fn new(mesh: u64) -> SweepConfig {
        SweepConfig {
            mesh,
            angles: 6,
            moments: 2,
            octants: 2,
            timesteps: 1,
            mi_block: 1,
            dim_interchange: false,
            octant_inner: false,
        }
    }

    /// Sets the angle-blocking factor.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero or larger than the angle count.
    pub fn with_mi_block(mut self, b: u64) -> SweepConfig {
        assert!(b >= 1 && b <= self.angles, "block must be in 1..=angles");
        self.mi_block = b;
        self
    }

    /// Enables the src/flux dimension interchange.
    pub fn with_dim_interchange(mut self) -> SweepConfig {
        self.dim_interchange = true;
        self
    }

    /// Sets the number of time steps.
    pub fn with_timesteps(mut self, t: u64) -> SweepConfig {
        self.timesteps = t;
        self
    }

    /// Enables the Ding & Zhong-style octant restructuring (§VI).
    ///
    /// # Panics
    ///
    /// Panics if combined with an angle-blocking factor other than 1.
    pub fn with_octant_inner(mut self) -> SweepConfig {
        assert_eq!(self.mi_block, 1, "octant_inner models the unblocked code");
        self.octant_inner = true;
        self
    }

    /// Mesh cells (the paper's per-cell normalizer).
    pub fn cells(&self) -> u64 {
        self.mesh * self.mesh * self.mesh
    }
}

/// Builds the Sweep3D model for a configuration.
///
/// # Examples
///
/// ```
/// use reuselens_workloads::sweep3d::{build, SweepConfig};
///
/// let w = build(&SweepConfig::new(8));
/// w.program.validate().unwrap();
/// assert!(w.program.scope_by_name("idiag").is_some());
/// ```
pub fn build(cfg: &SweepConfig) -> BuiltWorkload {
    let n = cfg.mesh;
    let (it, jt, kt) = (n, n, n);
    let nm = cfg.moments;
    let mmi = cfg.angles;
    let b_factor = cfg.mi_block;
    let mmib = mmi.div_ceil(b_factor);

    let mut p = ProgramBuilder::new(format!(
        "sweep3d-{n}-b{b_factor}{}{}",
        if cfg.dim_interchange { "-dimic" } else { "" },
        if cfg.octant_inner { "-dz" } else { "" }
    ));

    // Column-major arrays. src/flux: (i, j, k, n) originally; the
    // dimension-interchange variant stores (i, n, j, k).
    let (src, flux) = if cfg.dim_interchange {
        (
            p.array("src", 8, &[it, nm, jt, kt]),
            p.array("flux", 8, &[it, nm, jt, kt]),
        )
    } else {
        (
            p.array("src", 8, &[it, jt, kt, nm]),
            p.array("flux", 8, &[it, jt, kt, nm]),
        )
    };
    let face = p.array("face", 8, &[it, jt, kt]);
    let sigt = p.array("sigt", 8, &[it, jt, kt]);
    let phi = p.array("phi", 8, &[it]);
    let phikb = p.array("phikb", 8, &[it, kt]);
    let phijb = p.array("phijb", 8, &[it, jt]);
    let pn = p.array("pn", 8, &[mmi, nm.max(2), 8]);
    let w_arr = p.array("w", 8, &[mmi]);

    // Subscript helper honoring the layout variant.
    let dim_ic = cfg.dim_interchange;
    let subs = move |i: Expr, j: Expr, k: Expr, nn: i64| -> Vec<Expr> {
        if dim_ic {
            vec![i, Expr::c(nn), j, k]
        } else {
            vec![i, j, k, Expr::c(nn)]
        }
    };
    let subs_var = move |i: Expr, j: Expr, k: Expr, nn: Expr| -> Vec<Expr> {
        if dim_ic {
            vec![i, nn, j, k]
        } else {
            vec![i, j, k, nn]
        }
    };

    let sweep = p.declare_routine("sweep");
    let main = p.routine("main", |r| {
        r.for_("ts", 0, (cfg.timesteps - 1) as i64, |r, _| {
            r.call(sweep);
        });
    });
    p.set_entry(main);

    let octant_inner = cfg.octant_inner;
    p.define_routine(sweep, |r| {
        let dmax = (jt - 1) + (kt - 1) + (mmib - 1);
        if octant_inner {
            // Ding & Zhong-style restructuring: the octant loop moves
            // inside the plane-cell loops, so data reused across octants
            // is re-touched immediately — at the cost of the wavefront's
            // coarse- and fine-grain parallelism (paper §VI).
            r.for_("idiag", 0, dmax as i64, |r, idiag| {
                r.for_("jkm", 0, (mmib - 1) as i64, |r, mib| {
                    r.for_("jk", 0, (kt - 1) as i64, |r, k| {
                        let j = r.let_("j", Expr::var(idiag) - Expr::var(k) - Expr::var(mib));
                        let in_plane = Pred::Ge(Expr::var(j), Expr::c(0))
                            .and(Pred::Lt(Expr::var(j), Expr::c(jt as i64)));
                        r.if_(in_plane, |r| {
                            r.for_("iq", 0, (cfg.octants - 1) as i64, |r, iq| {
                                let mi = r.let_("mi", Expr::var(mib));
                                emit_cell(
                                    r, it, nm, src, flux, face, sigt, phi, phikb, phijb, pn, w_arr,
                                    j, k, mi, iq, &subs, &subs_var,
                                );
                            });
                        });
                    });
                });
            });
        } else {
            r.for_("iq", 0, (cfg.octants - 1) as i64, |r, iq| {
                // Diagonal planes of the (j, k, mib) wavefront space.
                r.for_("idiag", 0, dmax as i64, |r, idiag| {
                    r.for_("jkm", 0, (mmib - 1) as i64, |r, mib| {
                        r.for_("jk", 0, (kt - 1) as i64, |r, k| {
                            let j = r.let_("j", Expr::var(idiag) - Expr::var(k) - Expr::var(mib));
                            let in_plane = Pred::Ge(Expr::var(j), Expr::c(0))
                                .and(Pred::Lt(Expr::var(j), Expr::c(jt as i64)));
                            r.if_(in_plane, |r| {
                                r.for_("b", 0, (b_factor - 1) as i64, |r, bb| {
                                    let mi = r.let_(
                                        "mi",
                                        Expr::var(mib) * b_factor as i64 + Expr::var(bb),
                                    );
                                    r.if_(Pred::Lt(Expr::var(mi), Expr::c(mmi as i64)), |r| {
                                        emit_cell(
                                            r, it, nm, src, flux, face, sigt, phi, phikb, phijb,
                                            pn, w_arr, j, k, mi, iq, &subs, &subs_var,
                                        );
                                    });
                                });
                            });
                        });
                    });
                });
            });
        }
    });

    BuiltWorkload {
        program: p.finish(),
        index_arrays: vec![],
        normalizer: cfg.cells() as f64,
        timesteps: cfg.timesteps,
    }
}

/// Emits the per-cell computation: the src gather (paper lines 384–391),
/// the balance/sigt work with the pipeline buffers (397–410), the flux
/// accumulation (474–482), and the face update (486–493).
#[allow(clippy::too_many_arguments)]
fn emit_cell(
    r: &mut reuselens_ir::BodyBuilder<'_>,
    it: u64,
    nm: u64,
    src: reuselens_ir::ArrayId,
    flux: reuselens_ir::ArrayId,
    face: reuselens_ir::ArrayId,
    sigt: reuselens_ir::ArrayId,
    phi: reuselens_ir::ArrayId,
    phikb: reuselens_ir::ArrayId,
    phijb: reuselens_ir::ArrayId,
    pn: reuselens_ir::ArrayId,
    w_arr: reuselens_ir::ArrayId,
    j: reuselens_ir::VarId,
    k: reuselens_ir::VarId,
    mi: reuselens_ir::VarId,
    iq: reuselens_ir::VarId,
    subs: &impl Fn(Expr, Expr, Expr, i64) -> Vec<Expr>,
    subs_var: &impl Fn(Expr, Expr, Expr, Expr) -> Vec<Expr>,
) {
    let jv = || Expr::var(j);
    let kv = || Expr::var(k);
    let last = (it - 1) as i64;

    // phi(i) = src(i,j,k,1)
    r.for_("src_loop", 0, last, |r, i| {
        r.load_labeled(src, subs(i.into(), jv(), kv(), 0), "src(i,j,k,1)");
        r.store_labeled(phi, vec![i.into()], "phi(i)");
    });
    // DO n = 2, nm: phi(i) += pn(m,n,iq) * src(i,j,k,n)
    r.for_("src_n", 1, (nm - 1) as i64, |r, nn| {
        r.load_labeled(
            pn,
            vec![Expr::var(mi), Expr::var(nn), Expr::var(iq)],
            "pn(m,n,iq)",
        );
        r.for_("src_n_i", 0, last, |r, i| {
            r.load_labeled(
                src,
                subs_var(i.into(), jv(), kv(), Expr::var(nn)),
                "src(i,j,k,n)",
            );
            r.load(phi, vec![i.into()]);
            r.store(phi, vec![i.into()]);
        });
    });
    // Balance equation: sigt plus the I/J pipeline buffers.
    r.for_("sigt_loop", 0, last, |r, i| {
        r.load_labeled(sigt, vec![i.into(), jv(), kv()], "sigt(i,j,k)");
        r.load(phi, vec![i.into()]);
        r.store(phi, vec![i.into()]);
        r.load_labeled(phikb, vec![i.into(), kv()], "phikb(i,k)");
        r.store(phikb, vec![i.into(), kv()]);
        r.load_labeled(phijb, vec![i.into(), jv()], "phijb(i,j)");
        r.store(phijb, vec![i.into(), jv()]);
    });
    // flux(i,j,k,1) += w(m) * phi(i)
    r.for_("flux_loop", 0, last, |r, i| {
        r.load_labeled(w_arr, vec![Expr::var(mi)], "w(m)");
        r.load_labeled(flux, subs(i.into(), jv(), kv(), 0), "flux(i,j,k,1)");
        r.load(phi, vec![i.into()]);
        r.store(flux, subs(i.into(), jv(), kv(), 0));
    });
    r.for_("flux_n", 1, (nm - 1) as i64, |r, nn| {
        r.load(pn, vec![Expr::var(mi), Expr::var(nn), Expr::var(iq)]);
        r.for_("flux_n_i", 0, last, |r, i| {
            r.load_labeled(
                flux,
                subs_var(i.into(), jv(), kv(), Expr::var(nn)),
                "flux(i,j,k,n)",
            );
            r.load(phi, vec![i.into()]);
            r.store(flux, subs_var(i.into(), jv(), kv(), Expr::var(nn)));
        });
    });
    // face update
    r.for_("face_loop", 0, last, |r, i| {
        r.load_labeled(face, vec![i.into(), jv(), kv()], "face(i,j,k)");
        r.load(phi, vec![i.into()]);
        r.store(face, vec![i.into(), jv(), kv()]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::analyze_program;

    #[test]
    fn every_variant_validates_and_runs() {
        for b in [1, 2, 3, 6] {
            let w = build(&SweepConfig::new(6).with_mi_block(b));
            w.program.validate().unwrap();
            let r = analyze_program(&w.program, &[64], vec![]).unwrap();
            assert!(r.exec.accesses > 0);
        }
        let w = build(&SweepConfig::new(6).with_mi_block(6).with_dim_interchange());
        w.program.validate().unwrap();
    }

    #[test]
    fn blocking_preserves_work() {
        // Blocking reorders the wavefront but processes the same cells:
        // identical access counts and footprint.
        let w1 = build(&SweepConfig::new(8));
        let w3 = build(&SweepConfig::new(8).with_mi_block(3));
        let r1 = analyze_program(&w1.program, &[64], vec![]).unwrap();
        let r3 = analyze_program(&w3.program, &[64], vec![]).unwrap();
        assert_eq!(r1.exec.accesses, r3.exec.accesses);
        assert_eq!(
            r1.profiles[0].distinct_blocks,
            r3.profiles[0].distinct_blocks
        );
    }

    #[test]
    fn dim_interchange_preserves_work() {
        let w1 = build(&SweepConfig::new(8));
        let w2 = build(&SweepConfig::new(8).with_dim_interchange());
        let r1 = analyze_program(&w1.program, &[64], vec![]).unwrap();
        let r2 = analyze_program(&w2.program, &[64], vec![]).unwrap();
        assert_eq!(r1.exec.accesses, r2.exec.accesses);
    }

    #[test]
    fn wavefront_visits_every_cell_once_per_octant() {
        let cfg = SweepConfig::new(6);
        let w = build(&cfg);
        let r = analyze_program(&w.program, &[64], vec![]).unwrap();
        // src_loop runs once per (j,k,mi) wavefront cell per octant; its
        // per-entry trip count is `it`.
        let src_loop = w.program.scope_by_name("src_loop").unwrap();
        let stats = r.exec.scope_stats(src_loop);
        let wavefront_cells = 6 * 6 * cfg.angles * cfg.octants * cfg.timesteps;
        assert_eq!(stats.entries, wavefront_cells);
        assert_eq!(stats.iterations, wavefront_cells * 6);
    }

    #[test]
    fn idiag_carries_reuse_between_adjacent_planes() {
        let w = build(&SweepConfig::new(8));
        let profile = analyze_program(&w.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let idiag = w.program.scope_by_name("idiag").unwrap();
        // Count *long* reuses — the ones that miss a small cache (128
        // lines). Cells differing only in angle sit on adjacent diagonals
        // and touch the same src/flux/face/sigt data, so the idiag loop
        // carries the dominant share of capacity misses (paper Fig. 5).
        let cache_lines = 128;
        let long_misses = |scope| -> f64 {
            profile
                .patterns_carried_by(scope)
                .map(|p| p.histogram.count_ge(cache_lines))
                .sum()
        };
        let total_long: f64 = w.program.scopes().iter().map(|s| long_misses(s.id())).sum();
        let idiag_share = long_misses(idiag) / total_long;
        assert!(
            idiag_share > 0.5,
            "idiag carries only {:.1}% of long reuses",
            100.0 * idiag_share
        );
    }

    #[test]
    fn blocking_moves_idiag_reuse_into_the_cell_loops() {
        let w1 = build(&SweepConfig::new(8));
        let w6 = build(&SweepConfig::new(8).with_mi_block(6));
        let p1 = analyze_program(&w1.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let p6 = analyze_program(&w6.program, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);
        let idiag1 = w1.program.scope_by_name("idiag").unwrap();
        let idiag6 = w6.program.scope_by_name("idiag").unwrap();
        let carried = |p: &reuselens_core::ReuseProfile, s| {
            p.patterns_carried_by(s).map(|pp| pp.count()).sum::<u64>()
        };
        // With all 6 angles blocked, the angle-induced reuse is carried by
        // the inner b loop at tiny distance instead of idiag.
        assert!(carried(&p6, idiag6) < carried(&p1, idiag1) / 2);
    }
}

#[cfg(test)]
mod dz_tests {
    use super::*;
    use reuselens_core::analyze_program;

    #[test]
    fn octant_inner_preserves_work() {
        let base = build(&SweepConfig::new(8));
        let dz = build(&SweepConfig::new(8).with_octant_inner());
        let rb = analyze_program(&base.program, &[64], vec![]).unwrap();
        let rd = analyze_program(&dz.program, &[64], vec![]).unwrap();
        assert_eq!(rb.exec.accesses, rd.exec.accesses);
        assert_eq!(
            rb.profiles[0].distinct_blocks,
            rd.profiles[0].distinct_blocks
        );
    }

    #[test]
    fn octant_inner_shortens_cross_octant_reuse() {
        let base = build(&SweepConfig::new(8));
        let dz = build(&SweepConfig::new(8).with_octant_inner());
        // In the original, cross-octant reuse is carried by the iq loop at
        // whole-mesh distance; restructured, the iq loop sits inside the
        // cell loops and its carried reuses are near-zero distance.
        let iq_mean = |w: &crate::BuiltWorkload| {
            let prof = analyze_program(&w.program, &[64], vec![])
                .unwrap()
                .profiles
                .remove(0);
            let iq = w.program.scope_by_name("iq").unwrap();
            let mut h = reuselens_core::Histogram::new();
            for p in prof.patterns_carried_by(iq) {
                h.merge(&p.histogram);
            }
            h.mean().unwrap_or(0.0)
        };
        let before = iq_mean(&base);
        let after = iq_mean(&dz);
        assert!(
            after < before / 20.0,
            "octant restructuring should shorten iq reuse: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "octant_inner models the unblocked code")]
    fn octant_inner_rejects_blocking() {
        let _ = SweepConfig::new(8).with_mi_block(2).with_octant_inner();
    }
}

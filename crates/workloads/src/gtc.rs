//! The Gyrokinetic Toroidal Code (GTC) particle-in-cell model (paper §V-B).
//!
//! One simulated time step runs a 2nd-order Runge-Kutta predictor-corrector
//! (`irk` loop) over the PIC phases:
//!
//! 1. **`chargei`** — deposit particle charge onto the grid: a first loop
//!    computes per-particle intermediates into a temporary, a second loop
//!    scatters them through the particle→grid index (`jtion`);
//! 2. **`poisson`** — an iterative solver whose ring stencil reads
//!    `ring`/`indexp` arrays with a *variable* inner trip count;
//! 3. **`smooth`** — a 3-D smoothing nest whose outer loop walks the
//!    array's inner dimension (the paper's 64%-of-TLB-misses nest);
//! 4. **`spcpft`** — a prime-factor transform with a redundant
//!    coefficient reload that unroll & jam removes;
//! 5. **`pushi`** — field gather + particle push, calling the C routine
//!    **`gcmotion`**, plus a final update loop.
//!
//! The particle state lives in `zion`/`zion0`: Fortran arrays of
//! seven-field records (`(7, mi)` column-major). Each loop touches only a
//! few fields, so lines are fetched mostly for unused bytes — the
//! fragmentation the paper's Fig. 9 pinpoints.
//!
//! [`GtcTransforms::cumulative`] reproduces the paper's Fig. 11 series:
//! `+zion transpose`, `+chargei fusion`, `+spcpft u&j`,
//! `+poisson transforms`, `+smooth LI`, `+pushi tiling/fusion`.

use crate::BuiltWorkload;
use reuselens_ir::{ArrayId, BodyBuilder, Expr, ProgramBuilder};
use reuselens_prng::SplitMix64;

/// Maximum ring-stencil length in the Poisson solver.
const MMAX: u64 = 8;
/// Poisson solver iterations.
const NITER: u64 = 2;
/// Second extent of the smoothing array.
const SMOO_D2: u64 = 8;
/// Third extent of the smoothing array.
const SMOO_D3: u64 = 8;

/// Which of the paper's transformations are applied (cumulatively in the
/// evaluation, but each flag is independent here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GtcTransforms {
    /// Transpose `zion`/`zion0` from `(7, mi)` to `(mi, 7)` (AoS → SoA).
    pub zion_transpose: bool,
    /// Fuse the two particle loops in `chargei`.
    pub chargei_fusion: bool,
    /// Unroll & jam `spcpft` (hoists the coefficient reload).
    pub spcpft_unroll_jam: bool,
    /// Linearize the `ring`/`indexp` arrays of the Poisson solver.
    pub poisson_linearize: bool,
    /// Interchange the `smooth` loop nest so the inner loop is contiguous.
    pub smooth_interchange: bool,
    /// Strip-mine `pushi`'s loops and `gcmotion` with this stripe size and
    /// fuse the strip loops (`None` = original).
    pub pushi_tiling: Option<u64>,
}

impl GtcTransforms {
    /// The first `n` transformations in the paper's cumulative order
    /// (0 = original, 6 = all).
    ///
    /// # Panics
    ///
    /// Panics if `n > 6`.
    pub fn cumulative(n: usize) -> GtcTransforms {
        assert!(n <= 6, "there are six transformations");
        GtcTransforms {
            zion_transpose: n >= 1,
            chargei_fusion: n >= 2,
            spcpft_unroll_jam: n >= 3,
            poisson_linearize: n >= 4,
            smooth_interchange: n >= 5,
            pushi_tiling: (n >= 6).then_some(512),
        }
    }

    /// Display label matching the paper's Fig. 11 legend.
    pub fn label(n: usize) -> &'static str {
        [
            "gtc_original",
            "+zion transpose",
            "+chargei fusion",
            "+spcpft u&j",
            "+poisson transforms",
            "+smooth LI",
            "+pushi tiling/fusion",
        ][n]
    }
}

/// Configuration of the GTC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtcConfig {
    /// Grid points on the poloidal plane.
    pub mgrid: u64,
    /// Particles per cell (the paper's Fig. 11 x-axis).
    pub micell: u64,
    /// Simulated time steps.
    pub timesteps: u64,
    /// Applied transformations.
    pub transforms: GtcTransforms,
    /// RNG seed for the particle→grid map.
    pub seed: u64,
}

impl GtcConfig {
    /// A baseline configuration (no transformations, 1 time step).
    pub fn new(mgrid: u64, micell: u64) -> GtcConfig {
        GtcConfig {
            mgrid,
            micell,
            timesteps: 1,
            transforms: GtcTransforms::default(),
            seed: 0x5eed,
        }
    }

    /// Applies a transformation set.
    pub fn with_transforms(mut self, t: GtcTransforms) -> GtcConfig {
        self.transforms = t;
        self
    }

    /// Sets the number of time steps.
    pub fn with_timesteps(mut self, t: u64) -> GtcConfig {
        self.timesteps = t;
        self
    }

    /// Total particles.
    pub fn particles(&self) -> u64 {
        self.mgrid * self.micell
    }
}

/// The zion subscript order for the active layout.
fn zsub(transpose: bool, field: i64, particle: Expr) -> Vec<Expr> {
    if transpose {
        vec![particle, Expr::c(field)]
    } else {
        vec![Expr::c(field), particle]
    }
}

/// Builds the GTC model.
///
/// # Examples
///
/// ```
/// use reuselens_workloads::gtc::{build, GtcConfig, GtcTransforms};
///
/// let w = build(&GtcConfig::new(64, 4).with_transforms(GtcTransforms::cumulative(1)));
/// w.program.validate().unwrap();
/// assert!(w.program.routine_by_name("gcmotion").is_some());
/// ```
pub fn build(cfg: &GtcConfig) -> BuiltWorkload {
    let mi = cfg.particles();
    let mgrid = cfg.mgrid;
    let t = cfg.transforms;

    let mut p = ProgramBuilder::new(format!("gtc-{}-{}", mgrid, cfg.micell));

    // Particle arrays: seven fields per particle.
    let zion_dims: &[u64] = if t.zion_transpose { &[mi, 7] } else { &[7, mi] };
    let zion = p.array("zion", 8, zion_dims);
    let zion0 = p.array("zion0", 8, zion_dims);
    let wzion = p.array("wzion", 8, &[mi]);
    let workp = p.array("workp", 8, &[mi]);

    // Grid arrays.
    let densityi = p.array("densityi", 8, &[mgrid]);
    let phi_grid = p.array("phi_grid", 8, &[mgrid]);
    let evector = p.array("evector", 8, &[3, mgrid]);
    let smoo = p.array("smoo", 8, &[mgrid, SMOO_D2, SMOO_D3]);
    let xfft = p.array("xfft", 8, &[mgrid, 8]);
    let coef = p.array("coef", 8, &[8]);

    // Index arrays.
    let jtion = p.index_array("jtion", &[mi]);
    let nring = p.index_array("nring", &[mgrid]);
    let total_ring: u64 = (0..mgrid).map(ring_len).sum();
    let (ring, indexp, rstart, ring_lin, indexp_lin);
    if t.poisson_linearize {
        ring = None;
        indexp = None;
        rstart = Some(p.index_array("rstart", &[mgrid + 1]));
        ring_lin = Some(p.array("ring_lin", 8, &[total_ring]));
        indexp_lin = Some(p.index_array("indexp_lin", &[total_ring]));
    } else {
        ring = Some(p.array("ring", 8, &[MMAX, mgrid]));
        indexp = Some(p.index_array("indexp", &[MMAX, mgrid]));
        rstart = None;
        ring_lin = None;
        indexp_lin = None;
    }

    // Strip bounds shared between pushi and gcmotion.
    let lo = p.scalar("strip_lo");
    let hi = p.scalar("strip_hi");

    let chargei = p.declare_routine("chargei");
    let poisson = p.declare_routine("poisson");
    let smooth = p.declare_routine("smooth");
    let spcpft = p.declare_routine("spcpft");
    let pushi = p.declare_routine("pushi");
    let gcmotion = p.declare_routine("gcmotion");

    let main = p.routine("main", |r| {
        r.for_("istep", 0, (cfg.timesteps - 1) as i64, |r, _| {
            r.for_("irk", 0, 1, |r, _| {
                r.call(chargei);
                r.call(poisson);
                r.call(smooth);
                r.call(spcpft);
                r.call(pushi);
            });
        });
    });
    p.set_entry(main);

    // ---- chargei ------------------------------------------------------
    p.define_routine(chargei, |r| {
        let last = (mi - 1) as i64;
        if t.chargei_fusion {
            // Fused: intermediates stay in registers; deposit directly.
            r.for_("chargei_fused", 0, last, |r, i| {
                r.load_labeled(zion, zsub(t.zion_transpose, 0, i.into()), "zion(1,i)");
                r.load_labeled(zion, zsub(t.zion_transpose, 1, i.into()), "zion(2,i)");
                let g = Expr::load(jtion, vec![i.into()]);
                r.load_labeled(jtion, vec![i.into()], "jtion(i)");
                r.load_labeled(densityi, vec![g.clone()], "densityi(jt)");
                r.store(densityi, vec![g]);
            });
        } else {
            r.for_("chargei_loop1", 0, last, |r, i| {
                r.load_labeled(zion, zsub(t.zion_transpose, 0, i.into()), "zion(1,i)");
                r.load_labeled(zion, zsub(t.zion_transpose, 1, i.into()), "zion(2,i)");
                r.store_labeled(wzion, vec![i.into()], "wzion(i)");
            });
            r.for_("chargei_loop2", 0, last, |r, i| {
                r.load_labeled(wzion, vec![i.into()], "wzion(i)");
                // The deposition re-reads the particle position fields.
                r.load(zion, zsub(t.zion_transpose, 0, i.into()));
                r.load(zion, zsub(t.zion_transpose, 1, i.into()));
                let g = Expr::load(jtion, vec![i.into()]);
                r.load_labeled(jtion, vec![i.into()], "jtion(i)");
                r.load_labeled(densityi, vec![g.clone()], "densityi(jt)");
                r.store(densityi, vec![g]);
            });
        }
    });

    // ---- poisson ------------------------------------------------------
    p.define_routine(poisson, |r| {
        r.for_("poisson_iter", 0, (NITER - 1) as i64, |r, _| {
            r.for_("poisson_ig", 0, (mgrid - 1) as i64, |r, ig| {
                r.load_labeled(densityi, vec![ig.into()], "densityi(ig)");
                if t.poisson_linearize {
                    let rs = rstart.unwrap();
                    let rl = ring_lin.unwrap();
                    let il = indexp_lin.unwrap();
                    let start = Expr::load(rs, vec![ig.into()]);
                    let stop = Expr::load(rs, vec![Expr::var(ig) + 1]) - 1;
                    r.for_("poisson_ring", start, stop, |r, m| {
                        r.load_labeled(rl, vec![m.into()], "ring_lin(m)");
                        r.load_labeled(il, vec![m.into()], "indexp_lin(m)");
                        let nb = Expr::load(il, vec![m.into()]);
                        r.load_labeled(phi_grid, vec![nb], "phi(indexp)");
                    });
                } else {
                    let rg = ring.unwrap();
                    let ip = indexp.unwrap();
                    let count = Expr::load(nring, vec![ig.into()]) - 1;
                    r.for_("poisson_ring", 0, count, |r, m| {
                        r.load_labeled(rg, vec![m.into(), ig.into()], "ring(m,ig)");
                        r.load_labeled(ip, vec![m.into(), ig.into()], "indexp(m,ig)");
                        let nb = Expr::load(ip, vec![m.into(), ig.into()]);
                        r.load_labeled(phi_grid, vec![nb], "phi(indexp)");
                    });
                }
                r.store_labeled(phi_grid, vec![ig.into()], "phi(ig)");
            });
        });
    });

    // ---- smooth -------------------------------------------------------
    p.define_routine(smooth, |r| {
        let d1 = (mgrid - 1) as i64;
        let d2 = (SMOO_D2 - 1) as i64;
        let d3 = (SMOO_D3 - 1) as i64;
        if t.smooth_interchange {
            r.for_("smooth_k", 0, d3, |r, i3| {
                r.for_("smooth_j", 0, d2, |r, i2| {
                    r.for_("smooth_i", 0, d1, |r, i1| {
                        r.load_labeled(smoo, vec![i1.into(), i2.into(), i3.into()], "smoo");
                        r.store(smoo, vec![i1.into(), i2.into(), i3.into()]);
                    });
                });
            });
        } else {
            // Original: the OUTER loop walks the array's inner dimension.
            r.for_("smooth_i", 0, d1, |r, i1| {
                r.for_("smooth_j", 0, d2, |r, i2| {
                    r.for_("smooth_k", 0, d3, |r, i3| {
                        r.load_labeled(smoo, vec![i1.into(), i2.into(), i3.into()], "smoo");
                        r.store(smoo, vec![i1.into(), i2.into(), i3.into()]);
                    });
                });
            });
        }
    });

    // ---- spcpft -------------------------------------------------------
    p.define_routine(spcpft, |r| {
        let last_j = (mgrid - 1) as i64;
        if t.spcpft_unroll_jam {
            // Coefficient hoisted out of the inner loop by unroll & jam.
            r.for_("spcpft_k", 0, 7, |r, k| {
                r.load_labeled(coef, vec![k.into()], "coef(k)");
                r.for_("spcpft_j", 0, last_j, |r, jj| {
                    r.load_labeled(xfft, vec![jj.into(), k.into()], "x(j,k)");
                    r.store(xfft, vec![jj.into(), k.into()]);
                });
            });
        } else {
            // The recurrence forces a coefficient reload every iteration.
            r.for_("spcpft_k", 0, 7, |r, k| {
                r.for_("spcpft_j", 0, last_j, |r, jj| {
                    r.load_labeled(coef, vec![k.into()], "coef(k)");
                    r.load_labeled(xfft, vec![jj.into(), k.into()], "x(j,k)");
                    r.store(xfft, vec![jj.into(), k.into()]);
                });
            });
        }
    });

    // ---- pushi / gcmotion ---------------------------------------------
    let tz = t.zion_transpose;
    p.define_routine(gcmotion, |r| {
        r.for_("gcmotion_loop", Expr::var(lo), Expr::var(hi), |r, i| {
            r.load_labeled(workp, vec![i.into()], "workp(i)");
            for f in 0..4 {
                r.load_labeled(zion, zsub(tz, f, i.into()), "zion(f,i)");
            }
            r.store(zion, zsub(tz, 0, i.into()));
            r.store(zion, zsub(tz, 1, i.into()));
            r.store_labeled(zion0, zsub(tz, 0, i.into()), "zion0(1,i)");
            r.store(zion0, zsub(tz, 1, i.into()));
        });
    });

    p.define_routine(pushi, |r| {
        #[allow(clippy::too_many_arguments)]
        fn gather(
            r: &mut BodyBuilder<'_>,
            lo_e: Expr,
            hi_e: Expr,
            tz: bool,
            jtion: ArrayId,
            evector: ArrayId,
            zion: ArrayId,
            workp: ArrayId,
        ) {
            r.for_("pushi_gather", lo_e, hi_e, |r, i| {
                r.load_labeled(jtion, vec![i.into()], "jtion(i)");
                let g = Expr::load(jtion, vec![i.into()]);
                for c in 0..3 {
                    r.load_labeled(evector, vec![Expr::c(c), g.clone()], "evector(c,jt)");
                }
                r.load(zion, zsub(tz, 0, i.into()));
                r.load(zion, zsub(tz, 1, i.into()));
                r.store_labeled(workp, vec![i.into()], "workp(i)");
            });
        }
        fn update(
            r: &mut BodyBuilder<'_>,
            lo_e: Expr,
            hi_e: Expr,
            tz: bool,
            zion: ArrayId,
            zion0: ArrayId,
        ) {
            r.for_("pushi_update", lo_e, hi_e, |r, i| {
                r.load_labeled(zion0, zsub(tz, 0, i.into()), "zion0(1,i)");
                r.load(zion0, zsub(tz, 1, i.into()));
                r.load(zion, zsub(tz, 2, i.into()));
                r.store(zion, zsub(tz, 0, i.into()));
                r.store(zion, zsub(tz, 1, i.into()));
            });
        }
        match t.pushi_tiling {
            None => {
                let last = Expr::c((mi - 1) as i64);
                gather(r, Expr::c(0), last.clone(), tz, jtion, evector, zion, workp);
                r.set(lo, 0);
                r.set(hi, (mi - 1) as i64);
                r.call(gcmotion);
                update(r, Expr::c(0), last, tz, zion, zion0);
            }
            Some(stripe) => {
                let nstripes = mi.div_ceil(stripe);
                r.for_("pushi_stripes", 0, (nstripes - 1) as i64, |r, s| {
                    let s_lo = r.let_("s_lo", Expr::var(s) * stripe as i64);
                    let s_hi = r.let_(
                        "s_hi",
                        (Expr::var(s) * stripe as i64 + (stripe as i64 - 1))
                            .min(Expr::c((mi - 1) as i64)),
                    );
                    gather(
                        r,
                        Expr::var(s_lo),
                        Expr::var(s_hi),
                        tz,
                        jtion,
                        evector,
                        zion,
                        workp,
                    );
                    r.set(lo, Expr::var(s_lo));
                    r.set(hi, Expr::var(s_hi));
                    r.call(gcmotion);
                    update(r, Expr::var(s_lo), Expr::var(s_hi), tz, zion, zion0);
                });
            }
        }
    });

    // ---- index-array contents ------------------------------------------
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut index_arrays: Vec<(ArrayId, Vec<i64>)> = Vec::new();
    // Particles scattered over the grid: consecutive particles land on
    // unrelated cells (the irregular deposition/gather the paper reports).
    index_arrays.push((
        jtion,
        (0..mi).map(|_| rng.gen_range(0..mgrid) as i64).collect(),
    ));
    index_arrays.push((nring, (0..mgrid).map(|ig| ring_len(ig) as i64).collect()));
    if t.poisson_linearize {
        let mut offsets = Vec::with_capacity(mgrid as usize + 1);
        let mut acc = 0i64;
        for ig in 0..mgrid {
            offsets.push(acc);
            acc += ring_len(ig) as i64;
        }
        offsets.push(acc);
        debug_assert_eq!(acc as u64, total_ring);
        index_arrays.push((rstart.unwrap(), offsets));
        let mut packed = Vec::with_capacity(total_ring as usize);
        for ig in 0..mgrid {
            for m in 0..ring_len(ig) {
                packed.push(neighbor(ig, m, mgrid));
            }
        }
        index_arrays.push((indexp_lin.unwrap(), packed));
    } else {
        // Column-major (MMAX, mgrid): entry (m, ig) at flat m + MMAX*ig.
        let mut table = vec![0i64; (MMAX * mgrid) as usize];
        for ig in 0..mgrid {
            for m in 0..MMAX {
                table[(m + MMAX * ig) as usize] = neighbor(ig, m.min(ring_len(ig) - 1), mgrid);
            }
        }
        index_arrays.push((indexp.unwrap(), table));
    }

    BuiltWorkload {
        program: p.finish(),
        index_arrays,
        normalizer: cfg.micell as f64,
        timesteps: cfg.timesteps,
    }
}

/// Ring-stencil length per grid point: varies 4..=MMAX so the original
/// layout leaves unused tails in each `indexp`/`ring` column.
fn ring_len(ig: u64) -> u64 {
    4 + (ig * 7) % (MMAX - 3)
}

/// The `m`-th ring neighbor of grid point `ig` (local stencil).
fn neighbor(ig: u64, m: u64, mgrid: u64) -> i64 {
    let half = (MMAX / 2) as i64;
    ((ig as i64) + (m as i64) - half).rem_euclid(mgrid as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::analyze_program;

    fn analyze(cfg: &GtcConfig) -> (BuiltWorkload, reuselens_core::AnalysisResult) {
        let w = build(cfg);
        w.program.validate().unwrap();
        let r = analyze_program(&w.program, &[64], w.index_arrays.clone()).unwrap();
        (w, r)
    }

    #[test]
    fn every_cumulative_variant_builds_and_runs() {
        for n in 0..=6 {
            let cfg = GtcConfig::new(64, 4).with_transforms(GtcTransforms::cumulative(n));
            let (_, r) = analyze(&cfg);
            assert!(r.exec.accesses > 0, "variant {n} ran");
        }
    }

    #[test]
    fn chargei_fusion_removes_temporary_traffic() {
        let base = GtcConfig::new(128, 8);
        let fused = GtcConfig::new(128, 8).with_transforms(GtcTransforms {
            chargei_fusion: true,
            ..Default::default()
        });
        let (_, rb) = analyze(&base);
        let (_, rf) = analyze(&fused);
        // The fused version eliminates the wzion store + load and the two
        // zion re-reads per particle (4 accesses) in each of 2 irk phases.
        assert_eq!(rb.exec.accesses - rf.exec.accesses, 4 * 2 * 128 * 8);
    }

    #[test]
    fn spcpft_unroll_jam_reduces_accesses_only() {
        let base = GtcConfig::new(128, 2);
        let uj = GtcConfig::new(128, 2).with_transforms(GtcTransforms {
            spcpft_unroll_jam: true,
            ..Default::default()
        });
        let (_, rb) = analyze(&base);
        let (_, ru) = analyze(&uj);
        assert!(ru.exec.accesses < rb.exec.accesses);
        assert_eq!(
            rb.profiles[0].distinct_blocks,
            ru.profiles[0].distinct_blocks
        );
    }

    #[test]
    fn pushi_tiling_shortens_cross_loop_reuse() {
        let base = GtcConfig::new(256, 16);
        let tiled = GtcConfig::new(256, 16).with_transforms(GtcTransforms {
            pushi_tiling: Some(256),
            ..Default::default()
        });
        let (wb, rb) = analyze(&base);
        let (wt, rt) = analyze(&tiled);
        // workp is written in the gather loop and read in gcmotion. In the
        // original, a whole particle sweep intervenes; tiled, only a
        // stripe. Measure exactly that pattern (sink = the workp load in
        // gcmotion, source = the gather loop); other workp arcs (across irk
        // phases) are unaffected by tiling.
        let mean_workp_reuse = |w: &BuiltWorkload, r: &reuselens_core::AnalysisResult| {
            let workp_arr = w.program.array_by_name("workp").unwrap();
            let gather = w.program.scope_by_name("pushi_gather").unwrap();
            let gcmotion_loop = w.program.scope_by_name("gcmotion_loop").unwrap();
            let mut h = reuselens_core::Histogram::new();
            for pat in &r.profiles[0].patterns {
                let sink = w.program.reference(pat.key.sink);
                if sink.array() == workp_arr
                    && sink.scope() == gcmotion_loop
                    && pat.key.source_scope == gather
                {
                    h.merge(&pat.histogram);
                }
            }
            h.mean().unwrap()
        };
        let before = mean_workp_reuse(&wb, &rb);
        let after = mean_workp_reuse(&wt, &rt);
        assert!(
            after < before / 4.0,
            "tiling should shorten workp reuse: {before} -> {after}"
        );
    }

    #[test]
    fn gcmotion_reuse_is_carried_by_pushi() {
        let (w, r) = analyze(&GtcConfig::new(128, 8));
        let pushi_scope = w
            .program
            .routine(w.program.routine_by_name("pushi").unwrap())
            .scope();
        let workp_arr = w.program.array_by_name("workp").unwrap();
        let carried: u64 = r.profiles[0]
            .patterns_carried_by(pushi_scope)
            .filter(|p| w.program.reference(p.key.sink).array() == workp_arr)
            .map(|p| p.count())
            .sum();
        assert!(carried > 0, "pushi must carry workp reuse");
    }

    #[test]
    fn zion_transpose_reduces_touched_footprint() {
        let (_, rb) = analyze(&GtcConfig::new(256, 16));
        let (_, rt) = analyze(&GtcConfig::new(256, 16).with_transforms(GtcTransforms {
            zion_transpose: true,
            ..Default::default()
        }));
        // AoS walks all 7 fields' lines; SoA touches only the used fields.
        assert!(
            rt.profiles[0].distinct_blocks < rb.profiles[0].distinct_blocks,
            "SoA should touch fewer lines: {} vs {}",
            rt.profiles[0].distinct_blocks,
            rb.profiles[0].distinct_blocks
        );
    }

    #[test]
    fn poisson_linearize_preserves_gather_count() {
        let (_, rb) = analyze(&GtcConfig::new(128, 2));
        let (_, rl) = analyze(&GtcConfig::new(128, 2).with_transforms(GtcTransforms {
            poisson_linearize: true,
            ..Default::default()
        }));
        // Packed layout touches no more lines than the padded layout.
        assert!(rl.profiles[0].distinct_blocks <= rb.profiles[0].distinct_blocks);
    }

    #[test]
    fn smooth_interchange_preserves_accesses() {
        let (_, rb) = analyze(&GtcConfig::new(128, 2));
        let (_, rs) = analyze(&GtcConfig::new(128, 2).with_transforms(GtcTransforms {
            smooth_interchange: true,
            ..Default::default()
        }));
        assert_eq!(rb.exec.accesses, rs.exec.accesses);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(GtcTransforms::label(0), "gtc_original");
        assert_eq!(GtcTransforms::label(6), "+pushi tiling/fusion");
        let all = GtcTransforms::cumulative(6);
        assert!(all.zion_transpose && all.pushi_tiling.is_some());
    }
}

//! Zero-trace symbolic estimation of reuse-distance profiles.
//!
//! The dynamic engine measures reuse by replaying every access in a
//! captured trace — `O(trace)` work. For affine loop nests the same
//! per-pattern reuse-distance histograms can be *predicted* from loop
//! structure alone in `O(loop nest)` time: iteration-space volumes give
//! access counts, per-loop byte strides decide which loop level resolves
//! a reference's reuse (temporal for stride 0, spatial for strides under
//! a block), and the footprint of one carrying-loop iteration gives the
//! reuse distance. References whose subscripts are indirect or otherwise
//! non-affine fall back to a uniform-scatter model over the target
//! array's blocks.
//!
//! The estimator walks the program body **symbolically** — loop bounds,
//! guards, and scalar assignments are evaluated by sampling the
//! iteration lattice (exactly, when it is small), but no access is ever
//! executed and no trace event is ever produced. The result is a
//! synthetic [`ReuseProfile`] per requested block granularity plus a
//! synthetic [`ExecReport`], shaped exactly like the dynamic engine's
//! output so the cache model, advisor, and scaling model consume it
//! unchanged. `tests/static_vs_dynamic.rs` at the workspace root holds
//! the differential contract that keeps the predictions honest.

use reuselens_core::{Histogram, PatternKey, ReusePattern, ReuseProfile};
use reuselens_ir::{
    AccessKind, Affine, ArrayId, EvalCtx, Expr, Pred, Program, RefId, ScopeId, Stmt, VarId,
};
use reuselens_obs::{self as obs, Counter, Stage};
use reuselens_trace::{ExecReport, LoopStats};
use std::collections::{BTreeMap, HashMap};

/// Total sample-point budget for one bound/guard evaluation. Lattices
/// whose cross product fits the budget are enumerated exactly (the
/// common case for the workloads in this repo); larger ones are
/// stratified per variable.
const SAMPLE_BUDGET: usize = 20_000;

/// Recursion guard for `Call` chains, mirroring the executor's limit.
const MAX_CALL_DEPTH: usize = 64;

/// Result of one symbolic estimation pass: synthetic profiles shaped
/// like the dynamic engine's, plus coverage bookkeeping.
#[derive(Debug, Clone)]
pub struct StaticEstimate {
    /// One synthetic profile per requested block granularity.
    pub profiles: Vec<ReuseProfile>,
    /// Synthetic execution statistics (access counts and loop trips)
    /// derived from iteration-space volumes, not from a trace.
    pub exec: ExecReport,
    /// References whose subscripts were fully affine and were modeled
    /// symbolically.
    pub covered: Vec<RefId>,
    /// References with indirect or non-affine subscripts, modeled with
    /// the uniform-scatter fallback.
    pub fallback: Vec<RefId>,
}

impl StaticEstimate {
    /// The synthetic profile at the given block size, if estimated.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }
}

/// Symbolically estimates reuse profiles for `program` at each block
/// granularity in `block_sizes`, without executing a single access.
///
/// `index_arrays` supplies the *contents* of index arrays (the same
/// input data the executor would be seeded with); the estimator reads
/// them when loop bounds or guards load from them, which is input
/// inspection, not tracing. Emits a [`Stage::Estimate`] span and the
/// `static_refs_covered` / `static_refs_fallback` counters.
pub fn estimate_profiles(
    program: &Program,
    index_arrays: &[(ArrayId, Vec<i64>)],
    block_sizes: &[u64],
) -> StaticEstimate {
    let _span = obs::span(Stage::Estimate);
    let index: HashMap<ArrayId, &[i64]> = index_arrays
        .iter()
        .map(|(a, data)| (*a, data.as_slice()))
        .collect();
    let mut walker = Walker {
        program,
        index,
        env: HashMap::new(),
        frames: Vec::new(),
        mult: 1.0,
        sites: Vec::new(),
        loop_stats: vec![(0.0, 0.0); program.scopes().len()],
        accesses: 0.0,
        loads: 0.0,
        stores: 0.0,
    };
    let entry = program.routine(program.entry());
    walker.bump_entries(entry.scope());
    walker.walk_body(entry.body(), 0);

    let mut covered = Vec::new();
    let mut fallback = Vec::new();
    for r in program.references() {
        let mut any = false;
        let mut all_affine = true;
        for s in walker.sites.iter().filter(|s| s.r == r.id()) {
            any = true;
            all_affine &= s.offset.is_some();
        }
        if any {
            if all_affine {
                covered.push(r.id());
            } else {
                fallback.push(r.id());
            }
        }
    }
    obs::add(Counter::StaticRefsCovered, covered.len() as u64);
    obs::add(Counter::StaticRefsFallback, fallback.len() as u64);

    let profiles = block_sizes
        .iter()
        .map(|&b| synthesize(program, &walker.sites, b))
        .collect();

    let loop_stats = walker
        .loop_stats
        .iter()
        .map(|&(e, i)| LoopStats {
            entries: e.round() as u64,
            iterations: i.round() as u64,
        })
        .collect();
    let exec = ExecReport {
        accesses: walker.accesses.round() as u64,
        loads: walker.loads.round() as u64,
        stores: walker.stores.round() as u64,
        loop_stats,
    };

    StaticEstimate {
        profiles,
        exec,
        covered,
        fallback,
    }
}

// ---------------------------------------------------------------------------
// Symbolic walk: iteration volumes, guard selectivities, per-site formulas.
// ---------------------------------------------------------------------------

/// One loop on the current symbolic path.
struct LiveFrame {
    scope: ScopeId,
    var: VarId,
    /// Average trip count per entry.
    trip: f64,
    /// Product of guard selectivities seen while this loop is innermost.
    guards: f64,
    step: i64,
    /// Average value of the loop variable at the first iteration.
    lo: f64,
}

/// A loop enclosing a captured site, innermost first.
#[derive(Debug, Clone)]
struct SiteFrame {
    scope: ScopeId,
    trip: f64,
    /// Guard selectivity folded into this loop's iterations.
    sel: f64,
}

impl SiteFrame {
    /// Expected number of iterations (per entry) that actually reach the
    /// site.
    fn eff_trip(&self) -> f64 {
        (self.trip * self.sel).max(0.0)
    }
}

/// One static occurrence of a reference on the symbolic path (a
/// reference called from two places yields two sites).
#[derive(Debug, Clone)]
struct Site {
    r: RefId,
    array: ArrayId,
    /// Expected dynamic execution count of this site.
    count: f64,
    /// Enclosing loops across routine boundaries, innermost first.
    frames: Vec<SiteFrame>,
    /// Byte-offset affine form over loop variables; `None` means the
    /// subscripts are indirect or non-affine (fallback model).
    offset: Option<Affine>,
    /// Per-frame byte stride (one entry per `frames` entry); empty for
    /// fallback sites.
    strides: Vec<f64>,
    /// Total size of the referenced array in bytes.
    array_bytes: u64,
}

struct Walker<'p> {
    program: &'p Program,
    index: HashMap<ArrayId, &'p [i64]>,
    /// Scalar bindings, already substituted down to loop variables.
    env: HashMap<VarId, Expr>,
    /// Live loop stack, outermost first.
    frames: Vec<LiveFrame>,
    /// Expected execution count of the current statement position.
    mult: f64,
    sites: Vec<Site>,
    /// Per-scope (entries, iterations), in expectation.
    loop_stats: Vec<(f64, f64)>,
    accesses: f64,
    loads: f64,
    stores: f64,
}

impl<'p> Walker<'p> {
    fn bump_entries(&mut self, scope: ScopeId) {
        self.loop_stats[scope.0 as usize].0 += self.mult;
    }

    fn subst(&self, e: &Expr) -> Expr {
        e.substitute_vars(&|v| self.env.get(&v).cloned())
    }

    fn walk_body(&mut self, body: &[Stmt], depth: usize) {
        for stmt in body {
            match stmt {
                Stmt::Access(rid) => self.record_site(*rid),
                Stmt::Assign { var, value } => {
                    let sub = self.subst(value);
                    self.env.insert(*var, sub);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let cond = cond.substitute_vars(&|v| self.env.get(&v).cloned());
                    let p = self.selectivity(&cond);
                    if p > 0.0 {
                        self.with_guard(p, |w| w.walk_body(then_body, depth));
                    }
                    if p < 1.0 && !else_body.is_empty() {
                        self.with_guard(1.0 - p, |w| w.walk_body(else_body, depth));
                    }
                }
                Stmt::Call(target) => {
                    if depth >= MAX_CALL_DEPTH {
                        continue;
                    }
                    let rtn = self.program.routine(*target);
                    self.bump_entries(rtn.scope());
                    self.walk_body(rtn.body(), depth + 1);
                }
                Stmt::Loop(l) => {
                    let scope = l.scope();
                    self.bump_entries(scope);
                    let lower = self.subst(l.lower());
                    let upper = self.subst(l.upper());
                    let step = l.step();
                    let (trip, lo) = self.avg_trip(&lower, &upper, step);
                    if trip <= 0.0 {
                        continue; // zero-trip: entered, never iterated
                    }
                    self.loop_stats[scope.0 as usize].1 += self.mult * trip;
                    let saved_mult = self.mult;
                    self.mult *= trip;
                    let shadowed = self.env.remove(&l.var());
                    self.frames.push(LiveFrame {
                        scope,
                        var: l.var(),
                        trip,
                        guards: 1.0,
                        step,
                        lo,
                    });
                    self.walk_body(l.body(), depth);
                    self.frames.pop();
                    if let Some(e) = shadowed {
                        self.env.insert(l.var(), e);
                    }
                    self.mult = saved_mult;
                }
            }
        }
    }

    fn with_guard(&mut self, p: f64, f: impl FnOnce(&mut Self)) {
        let saved_mult = self.mult;
        let saved_guard = self.frames.last().map(|fr| fr.guards);
        self.mult *= p;
        if let Some(fr) = self.frames.last_mut() {
            fr.guards *= p;
        }
        f(self);
        self.mult = saved_mult;
        if let (Some(fr), Some(g)) = (self.frames.last_mut(), saved_guard) {
            fr.guards = g;
        }
    }

    fn record_site(&mut self, rid: RefId) {
        let r = self.program.reference(rid);
        let decl = self.program.array(r.array());
        let count = self.mult;
        self.accesses += count;
        match r.kind() {
            AccessKind::Load => self.loads += count,
            AccessKind::Store => self.stores += count,
        }
        // Byte-offset affine over loop variables, if the subscripts (with
        // assigned scalars substituted) lower.
        let subs: Vec<Expr> = r.indices().iter().map(|idx| self.subst(idx)).collect();
        let offset = self
            .program
            .address_plan(r.array(), &subs)
            .map(|plan| plan.byte_offset());
        let frames: Vec<SiteFrame> = self
            .frames
            .iter()
            .rev()
            .map(|lf| SiteFrame {
                scope: lf.scope,
                trip: lf.trip,
                sel: lf.guards,
            })
            .collect();
        let strides = match &offset {
            Some(o) => self
                .frames
                .iter()
                .rev()
                .map(|lf| o.coeff(lf.var).wrapping_mul(lf.step) as f64)
                .collect(),
            None => Vec::new(),
        };
        self.sites.push(Site {
            r: rid,
            array: r.array(),
            count,
            frames,
            offset,
            strides,
            array_bytes: decl.size_bytes(),
        });
    }

    /// Average trip count and first-iteration value for a loop with the
    /// given (substituted) bounds, sampling outer-loop lattices.
    fn avg_trip(&self, lower: &Expr, upper: &Expr, step: i64) -> (f64, f64) {
        if step == 0 {
            return (0.0, 0.0);
        }
        let mut vars = Vec::new();
        lower.collect_vars(&mut vars);
        upper.collect_vars(&mut vars);
        let mut n = 0u64;
        let mut trip_sum = 0.0;
        let mut lo_sum = 0.0;
        self.sample_over(&vars, |ctx| {
            let l = lower.eval(ctx);
            let u = upper.eval(ctx);
            let t = if step > 0 {
                if u >= l {
                    (u - l) / step + 1
                } else {
                    0
                }
            } else if u <= l {
                (l - u) / (-step) + 1
            } else {
                0
            };
            trip_sum += t as f64;
            lo_sum += l as f64;
            n += 1;
        });
        if n == 0 {
            (0.0, 0.0)
        } else {
            (trip_sum / n as f64, lo_sum / n as f64)
        }
    }

    /// Fraction of the sampled enclosing-loop lattice on which the
    /// (already substituted) predicate holds.
    fn selectivity(&self, p: &Pred) -> f64 {
        let mut vars = Vec::new();
        collect_pred_vars(p, &mut vars);
        let mut n = 0u64;
        let mut yes = 0u64;
        self.sample_over(&vars, |ctx| {
            n += 1;
            if p.eval(ctx) {
                yes += 1;
            }
        });
        if n == 0 {
            1.0
        } else {
            yes as f64 / n as f64
        }
    }

    /// Invokes `f` once per sampled point of the lattice spanned by the
    /// live loop variables in `vars`. Exact enumeration when the lattice
    /// fits [`SAMPLE_BUDGET`]; stratified thinning otherwise. With no
    /// live variables, `f` runs once with an empty binding.
    fn sample_over(&self, vars: &[VarId], mut f: impl FnMut(&SampleCtx<'_>)) {
        let mut grids: Vec<(VarId, Vec<i64>)> = Vec::new();
        for fr in &self.frames {
            if vars.contains(&fr.var) {
                let trips = fr.trip.round().clamp(1.0, 1e12) as i64;
                let lo = fr.lo.round() as i64;
                // Never materialize more points than the whole budget;
                // per-var thinning below may cut further.
                let keep = (trips as usize).min(SAMPLE_BUDGET);
                let values: Vec<i64> = if keep as i64 == trips {
                    (0..trips).map(|k| lo + k * fr.step).collect()
                } else {
                    (0..keep)
                        .map(|j| lo + (j as i64 * (trips - 1) / (keep as i64 - 1)) * fr.step)
                        .collect()
                };
                grids.push((fr.var, values));
            }
        }
        let total: usize = grids
            .iter()
            .map(|(_, g)| g.len())
            .fold(1usize, |a, b| a.saturating_mul(b));
        if total > SAMPLE_BUDGET && !grids.is_empty() {
            let per_var = ((SAMPLE_BUDGET as f64).powf(1.0 / grids.len() as f64) as usize).max(2);
            for (_, g) in grids.iter_mut() {
                if g.len() > per_var {
                    let n = g.len();
                    *g = (0..per_var)
                        .map(|j| g[j * (n - 1) / (per_var - 1)])
                        .collect();
                }
            }
        }
        let mut values: HashMap<VarId, i64> = HashMap::new();
        let mut odometer = vec![0usize; grids.len()];
        loop {
            for (slot, (v, g)) in odometer.iter().zip(grids.iter()) {
                values.insert(*v, g[*slot]);
            }
            let ctx = SampleCtx {
                values: &values,
                index: &self.index,
                program: self.program,
            };
            f(&ctx);
            // Advance the odometer; an empty grid list runs exactly once.
            let mut pos = grids.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < grids[pos].1.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
    }
}

/// Evaluation context over one sampled lattice point. Unbound variables
/// read as zero; index-array loads read the real input data.
struct SampleCtx<'a> {
    values: &'a HashMap<VarId, i64>,
    index: &'a HashMap<ArrayId, &'a [i64]>,
    program: &'a Program,
}

impl EvalCtx for SampleCtx<'_> {
    fn var(&self, v: VarId) -> i64 {
        *self.values.get(&v).unwrap_or(&0)
    }

    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64 {
        let decl = self.program.array(array);
        let Some(flat) = decl.flat_index(indices) else {
            return 0;
        };
        self.index
            .get(&array)
            .and_then(|d| d.get(flat as usize))
            .copied()
            .unwrap_or(0)
    }
}

fn collect_pred_vars(p: &Pred, out: &mut Vec<VarId>) {
    match p {
        Pred::True => {}
        Pred::Le(a, b)
        | Pred::Lt(a, b)
        | Pred::Ge(a, b)
        | Pred::Gt(a, b)
        | Pred::Eq(a, b)
        | Pred::Ne(a, b) => {
            a.collect_vars(out);
            b.collect_vars(out);
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_pred_vars(a, out);
            collect_pred_vars(b, out);
        }
        Pred::Not(a) => collect_pred_vars(a, out),
    }
}

// ---------------------------------------------------------------------------
// Reuse synthesis: strides + volumes + footprints -> per-pattern histograms.
// ---------------------------------------------------------------------------

/// One predicted slice of reuse mass, pre-rounding.
struct Emission {
    key: PatternKey,
    distance: u64,
    count: f64,
}

/// Expected number of distinct cells hit by `n` uniform draws over
/// `blocks` cells.
fn scatter_distinct(n: f64, blocks: f64) -> f64 {
    if blocks < 1.0 || n <= 0.0 {
        return n.clamp(0.0, 1.0);
    }
    blocks * (1.0 - (1.0 - 1.0 / blocks).powf(n))
}

/// Distinct blocks the site touches during one iteration of
/// `frames[depth]` (everything strictly deeper included); `depth ==
/// frames.len()` gives the site's whole-run coverage. `window`, if set,
/// replaces the trip count of frame `depth - 1` (the shallowest counted
/// frame) — used for partial-window footprints.
fn blocks_under(site: &Site, depth: usize, bf: f64, window: Option<f64>) -> f64 {
    let max_blocks = (site.array_bytes as f64 / bf).ceil().max(1.0);
    let mut cov = 1.0;
    for i in 0..depth {
        let f = &site.frames[i];
        let mut t = f.eff_trip();
        if let (Some(w), true) = (window, i + 1 == depth) {
            t = t.min(w); // partial window of the shallowest counted frame
        }
        if t <= 1.0 {
            continue;
        }
        let s = site.strides.get(i).copied().unwrap_or(0.0).abs();
        if s == 0.0 {
            continue;
        }
        if s < bf {
            cov *= (t * s / bf).max(1.0);
        } else {
            cov *= t;
        }
    }
    cov.min(max_blocks)
}

/// Distinct blocks a fallback (scatter) site touches per iteration of
/// its frame at `depth`, for footprint purposes.
fn scatter_blocks_under(site: &Site, depth: usize, bf: f64) -> f64 {
    let target_blocks = (site.array_bytes as f64 / bf).ceil().max(1.0);
    let mut n = 1.0;
    for f in site.frames.iter().take(depth) {
        n *= f.eff_trip().max(1.0);
    }
    scatter_distinct(n, target_blocks)
}

fn synthesize(program: &Program, sites: &[Site], block_size: u64) -> ReuseProfile {
    let bf = block_size as f64;

    // Group covered sites that differ only by a constant byte offset:
    // same array, same affine terms. Members keep site order.
    let mut group_of: HashMap<(ArrayId, Vec<(VarId, i64)>), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut fallback_sites: Vec<usize> = Vec::new();
    for (i, s) in sites.iter().enumerate() {
        match &s.offset {
            Some(o) => {
                let key = (s.array, o.terms.clone());
                let g = *group_of.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
            None => fallback_sites.push(i),
        }
    }

    // Footprint of one iteration of each loop scope: what a reuse
    // carried by that loop must skip over. Groups are deduplicated by
    // their leader; scatter sites contribute their expected distinct
    // coverage.
    let mut f_iter: HashMap<ScopeId, f64> = HashMap::new();
    for members in &groups {
        let leader = &sites[members[0]];
        for (pos, fr) in leader.frames.iter().enumerate() {
            *f_iter.entry(fr.scope).or_insert(0.0) += blocks_under(leader, pos, bf, None);
        }
    }
    for &i in &fallback_sites {
        let s = &sites[i];
        for (pos, fr) in s.frames.iter().enumerate() {
            *f_iter.entry(fr.scope).or_insert(0.0) += scatter_blocks_under(s, pos, bf);
        }
    }
    let foot = |scope: ScopeId| f_iter.get(&scope).copied().unwrap_or(1.0);

    // Whole-run working set in blocks: what separates one program phase
    // from the next touch of the same data. Deduplicated per array (many
    // groups walk the same array; its blocks exist once).
    let mut ws_by_array: HashMap<ArrayId, f64> = HashMap::new();
    for m in &groups {
        let l = &sites[m[0]];
        let cov = blocks_under(l, l.frames.len(), bf, None);
        let e = ws_by_array.entry(l.array).or_insert(0.0);
        *e = e.max(cov);
    }
    for &i in &fallback_sites {
        let s = &sites[i];
        let cov = scatter_blocks_under(s, s.frames.len(), bf);
        let e = ws_by_array.entry(s.array).or_insert(0.0);
        *e = e.max(cov);
    }
    let total_ws: f64 = ws_by_array.values().sum();

    let mut emissions: Vec<Emission> = Vec::new();

    // Self-reuse cascade: push the site's access mass outward through
    // its loop nest; each level resolves the share its stride allows.
    // Returns the unresolved residue.
    let cascade = |site: &Site, mass: f64, emissions: &mut Vec<Emission>| -> f64 {
        let mut mass = mass;
        let source_scope = program.reference(site.r).scope();
        for (d, fr) in site.frames.iter().enumerate() {
            if mass <= 0.0 {
                break;
            }
            let t = fr.eff_trip();
            if t <= 1.0 {
                continue;
            }
            let s = site.strides[d].abs();
            let frac = if s == 0.0 {
                (t - 1.0) / t
            } else if s < bf {
                ((t - (t * s / bf).max(1.0)) / t).max(0.0)
            } else {
                0.0
            };
            let resolved = mass * frac;
            if resolved > 0.0 {
                let distance = (foot(fr.scope) - 1.0).max(0.0).round() as u64;
                emissions.push(Emission {
                    key: PatternKey {
                        sink: site.r,
                        source_scope,
                        carrier: fr.scope,
                    },
                    distance,
                    count: resolved,
                });
                mass -= resolved;
            }
        }
        mass
    };

    // Earlier groups on the same array, in program order: a later phase
    // touching an array a previous phase already covered does not miss
    // cold — it reuses at working-set distance (think GTC's charge and
    // push phases both walking the particle array with their own loop
    // variables, or Sweep3D's sweep sub-phases revisiting the fluxes).
    let mut seen_on_array: HashMap<ArrayId, Vec<(usize, f64)>> = HashMap::new();

    for members in &groups {
        // Leader: pure self reuse; the residue is the group's cold mass
        // (first touches of distinct blocks) unless an earlier phase
        // already covered this array.
        let leader = &sites[members[0]];
        let residue = cascade(leader, leader.count, &mut emissions);
        let cov = blocks_under(leader, leader.frames.len(), bf, None);
        if residue > 0.0 {
            let prior = seen_on_array.get(&leader.array).and_then(|prev| {
                prev.iter()
                    .rev()
                    .find(|&&(_, c)| c >= 0.5 * cov)
                    .map(|&(idx, c)| (idx, c))
            });
            if let Some((src_idx, src_cov)) = prior {
                let src = &sites[src_idx];
                let share = (src_cov / cov).min(1.0);
                let (carrier, _) = group_hit_distance(program, leader, src, bf);
                emissions.push(Emission {
                    key: PatternKey {
                        sink: leader.r,
                        source_scope: program.reference(src.r).scope(),
                        carrier,
                    },
                    distance: (0.5 * total_ws).round() as u64,
                    count: residue * share,
                });
            }
        }
        seen_on_array
            .entry(leader.array)
            .or_default()
            .push((members[0], cov));

        // Followers: reuse what an earlier member of the group touched.
        for (j, &mi) in members.iter().enumerate().skip(1) {
            let snk = &sites[mi];
            let snk_c = snk.offset.as_ref().map(|o| o.constant).unwrap_or(0);
            // `j >= 1`, so the slice is never empty; the guard only
            // satisfies the crate's no-unwrap wall.
            let Some((src_idx, delta)) = members[..j]
                .iter()
                .map(|&k| {
                    let c = sites[k].offset.as_ref().map(|o| o.constant).unwrap_or(0);
                    (k, (snk_c - c).unsigned_abs())
                })
                .min_by_key(|&(_, d)| d)
            else {
                continue;
            };
            let src = &sites[src_idx];
            let src_scope = program.reference(src.r).scope();
            let p_same = if (delta as f64) < bf {
                1.0 - delta as f64 / bf
            } else {
                0.0
            };
            if p_same > 0.0 {
                // Same block as the source's most recent touch.
                let (carrier, distance) = group_hit_distance(program, snk, src, bf);
                emissions.push(Emission {
                    key: PatternKey {
                        sink: snk.r,
                        source_scope: src_scope,
                        carrier,
                    },
                    distance,
                    count: snk.count * p_same,
                });
            }
            // The rest behaves like self reuse through the sink's own
            // nest; whatever escapes every level still lands on blocks
            // the group covered earlier, so the residue resolves at the
            // loop level whose stride sweep spans the offset delta
            // instead of going cold.
            let rest = cascade(snk, snk.count * (1.0 - p_same), &mut emissions);
            if rest > 0.0 {
                let mut placed = false;
                for (d, fr) in snk.frames.iter().enumerate() {
                    let s = snk.strides[d].abs();
                    let t = fr.eff_trip().max(1.0);
                    if s > 0.0 && delta as f64 <= s * t + 0.5 {
                        let iters = (delta as f64 / s).max(1.0);
                        let mut dist = iters * foot(fr.scope);
                        if let Some(up) = snk.frames.get(d + 1) {
                            dist = dist.min(foot(up.scope));
                        }
                        emissions.push(Emission {
                            key: PatternKey {
                                sink: snk.r,
                                source_scope: src_scope,
                                carrier: fr.scope,
                            },
                            distance: dist.max(0.0).round() as u64,
                            count: rest,
                        });
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    if let Some(outer) = snk.frames.last() {
                        emissions.push(Emission {
                            key: PatternKey {
                                sink: snk.r,
                                source_scope: src_scope,
                                carrier: outer.scope,
                            },
                            distance: (foot(outer.scope) - 1.0).max(0.0).round() as u64,
                            count: rest,
                        });
                    }
                    // With no enclosing loop the residue stays cold.
                }
            }
        }
    }

    // Fallback sites: uniform scatter over the target array's blocks.
    for &i in &fallback_sites {
        let site = &sites[i];
        let target_blocks = (site.array_bytes as f64 / bf).ceil().max(1.0);
        let source_scope = program.reference(site.r).scope();
        let mut mass = site.count;
        if let Some(f0) = site.frames.first() {
            let n_inner = f0.eff_trip().max(1.0);
            let distinct = scatter_distinct(n_inner, target_blocks);
            let resolved = (mass * (n_inner - distinct) / n_inner).max(0.0);
            if resolved > 0.0 {
                // Expected gap between revisits of a block is ~target_blocks
                // iterations of the scatter loop; the distance is what the
                // whole body covers in that window.
                let w = target_blocks.min(n_inner);
                let mut gap = scatter_distinct(w, target_blocks);
                for members in &groups {
                    let leader = &sites[members[0]];
                    if let Some(pos) = leader.frames.iter().position(|fr| fr.scope == f0.scope) {
                        gap += blocks_under(leader, pos + 1, bf, Some(w));
                    }
                }
                // Spread over half/mean/double to mimic the geometric tail.
                for (scale, share) in [(0.5, 0.25), (1.0, 0.5), (2.0, 0.25)] {
                    emissions.push(Emission {
                        key: PatternKey {
                            sink: site.r,
                            source_scope,
                            carrier: f0.scope,
                        },
                        distance: (gap * scale).round() as u64,
                        count: resolved * share,
                    });
                }
                mass -= resolved;
            }
            // Outer levels re-cover the same scatter region: temporal.
            for fr in site.frames.iter().skip(1) {
                let t = fr.eff_trip();
                if t <= 1.0 || mass <= 0.0 {
                    continue;
                }
                let resolved = mass * (t - 1.0) / t;
                emissions.push(Emission {
                    key: PatternKey {
                        sink: site.r,
                        source_scope,
                        carrier: fr.scope,
                    },
                    distance: (foot(fr.scope) - 1.0).max(0.0).round() as u64,
                    count: resolved,
                });
                mass -= resolved;
            }
        }
        let _ = mass; // residue stays cold
    }

    assemble_profile(program, sites, emissions, block_size)
}

/// Carrier scope and distance for a follower hitting the exact block its
/// group source touched most recently.
fn group_hit_distance(program: &Program, snk: &Site, src: &Site, bf: f64) -> (ScopeId, u64) {
    match (snk.frames.first(), src.frames.first()) {
        (Some(a), Some(b)) if a.scope == b.scope => (a.scope, 0),
        (None, _) | (_, None) => (program.reference(snk.r).scope(), 0),
        _ => {
            // Different innermost loops (e.g. two calls of the same
            // routine): the deepest shared frame carries the reuse, and
            // roughly half of each side's sub-nest sits in between.
            let mut common = None;
            for (pa, fa) in snk.frames.iter().enumerate().rev() {
                if let Some(pb) = src.frames.iter().rposition(|fb| fb.scope == fa.scope) {
                    common = Some((pa, pb, fa.scope));
                } else {
                    break;
                }
            }
            match common {
                Some((pa, pb, scope)) => {
                    let d =
                        0.5 * (blocks_under(snk, pa, bf, None) + blocks_under(src, pb, bf, None));
                    (scope, d.round() as u64)
                }
                None => {
                    let d = 0.5
                        * (blocks_under(snk, snk.frames.len(), bf, None)
                            + blocks_under(src, src.frames.len(), bf, None));
                    (ScopeId::ROOT, d.round() as u64)
                }
            }
        }
    }
}

/// Rounds emissions to integers per reference (cold = total - reuses, so
/// `accesses_balance` holds by construction) and builds the profile.
fn assemble_profile(
    program: &Program,
    sites: &[Site],
    emissions: Vec<Emission>,
    block_size: u64,
) -> ReuseProfile {
    let nrefs = program.references().len();
    let mut count_f = vec![0.0f64; nrefs];
    for s in sites {
        count_f[s.r.0 as usize] += s.count;
    }
    let mut by_ref: Vec<Vec<(PatternKey, u64, f64)>> = vec![Vec::new(); nrefs];
    for e in emissions {
        by_ref[e.key.sink.0 as usize].push((e.key, e.distance, e.count));
    }

    let mut cold = vec![0u64; nrefs];
    let mut total_accesses = 0u64;
    let mut patterns: BTreeMap<PatternKey, Histogram> = BTreeMap::new();
    for (rid, list) in by_ref.into_iter().enumerate() {
        let total = count_f[rid].round() as u64;
        total_accesses += total;
        let mut rounded: Vec<(PatternKey, u64, u64)> = list
            .into_iter()
            .map(|(k, d, c)| (k, d, c.round() as u64))
            .filter(|&(_, _, c)| c > 0)
            .collect();
        let mut reuse_sum: u64 = rounded.iter().map(|&(_, _, c)| c).sum();
        // Trim rounding overshoot from the largest slices so reuses
        // never exceed the access total.
        while reuse_sum > total {
            let over = reuse_sum - total;
            // Overshoot implies a nonempty emission list; the guard only
            // satisfies the crate's no-unwrap wall.
            let Some(largest) = rounded.iter_mut().max_by_key(|&&mut (_, _, c)| c) else {
                break;
            };
            let cut = over.min(largest.2);
            largest.2 -= cut;
            reuse_sum -= cut;
        }
        cold[rid] = total - reuse_sum;
        for (key, distance, c) in rounded {
            if c > 0 {
                patterns.entry(key).or_default().add_n(distance, c);
            }
        }
    }
    let distinct_blocks = cold.iter().sum();

    ReuseProfile {
        block_size,
        patterns: patterns
            .into_iter()
            .map(|(key, histogram)| ReusePattern { key, histogram })
            .collect(),
        cold,
        total_accesses,
        distinct_blocks,
        sampling: None,
    }
}

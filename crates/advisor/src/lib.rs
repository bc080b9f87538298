//! # reuselens-advisor — transformation recommendations
//!
//! Implements the paper's Table I: for each significant reuse pattern,
//! classify its shape — where the source `S` and destination `D` scopes sit
//! relative to the carrying scope `C` — and recommend the transformation
//! with the best chance of shortening the reuse distance:
//!
//! | scenario | recommendation |
//! |---|---|
//! | large fragmentation misses on one array | split the array (AoS → SoA) |
//! | many irregular misses, `S ≡ D` | data / computation reordering |
//! | `S ≡ D`, `C` an outer loop of the same nest | loop or dimension interchange; blocking when several arrays conflict |
//! | `S ≢ D`, `C` in the same routine | fuse `S` and `D` |
//! | `S` or `D` in a routine invoked from `C` | strip-mine both and promote the strip loop outside `C`, fusing |
//! | `C` is a time-step / main loop | time skewing, or accept the misses as intrinsic |
//!
//! The advisor never decides *legality* — as in the paper, that is left to
//! the application developer; recommendations carry a rationale string
//! explaining the pattern that triggered them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use reuselens_core::PatternKey;
use reuselens_ir::{ArrayId, Program, ScopeId, ScopeKind};
use reuselens_metrics::{LevelMetrics, PatternRow};
use std::collections::HashSet;
use std::fmt;

/// A code or data transformation the advisor can recommend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transformation {
    /// Split an array of records into one array per field (AoS → SoA).
    SplitArray {
        /// The fragmented array.
        array: ArrayId,
    },
    /// Reorder data or computation to shorten irregular reuse.
    DataComputationReordering,
    /// Interchange the carrying loop inwards (or interchange the array's
    /// dimensions to match the traversal).
    LoopInterchange {
        /// The loop carrying the reuse.
        carrier: ScopeId,
    },
    /// Block (tile) inside the carrying loop and promote the block loop
    /// outside it — preferred when several arrays with different dimension
    /// orders conflict.
    LoopBlocking {
        /// The loop carrying the reuse.
        carrier: ScopeId,
    },
    /// Fuse the source and destination loops.
    Fuse {
        /// Scope where the data was last accessed.
        source: ScopeId,
        /// Scope reusing the data.
        dest: ScopeId,
    },
    /// Strip-mine source and destination with one strip size and promote
    /// the strip loops outside the carrier, fusing them.
    StripMineAndPromote {
        /// Scope where the data was last accessed.
        source: ScopeId,
        /// Scope reusing the data.
        dest: ScopeId,
        /// The carrying scope the strip loop must move outside of.
        carrier: ScopeId,
    },
    /// Apply time skewing if possible; otherwise these misses are intrinsic
    /// to the algorithm and not worth tuning effort.
    TimeSkewingOrAccept {
        /// The time-step / main loop carrying the reuse.
        carrier: ScopeId,
    },
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::SplitArray { array } => {
                write!(f, "split array {array} into one array per field")
            }
            Transformation::DataComputationReordering => {
                write!(f, "apply data or computation reordering")
            }
            Transformation::LoopInterchange { carrier } => {
                write!(f, "interchange loop {carrier} inwards (or interchange array dimensions)")
            }
            Transformation::LoopBlocking { carrier } => {
                write!(f, "block inside loop {carrier} and promote the block loop outside it")
            }
            Transformation::Fuse { source, dest } => {
                write!(f, "fuse loops {source} and {dest}")
            }
            Transformation::StripMineAndPromote {
                source,
                dest,
                carrier,
            } => write!(
                f,
                "strip-mine {source} and {dest} with one stripe and promote the strip loop outside {carrier}"
            ),
            Transformation::TimeSkewingOrAccept { carrier } => write!(
                f,
                "time-skew across {carrier} if legal; otherwise accept these misses as intrinsic"
            ),
        }
    }
}

/// One recommendation: a pattern (or array), its miss weight, the suggested
/// transformation, and the reasoning.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The reuse pattern that triggered this (absent for whole-array
    /// fragmentation findings).
    pub pattern: Option<PatternKey>,
    /// Predicted misses this recommendation addresses.
    pub misses: f64,
    /// The suggested transformation.
    pub transformation: Transformation,
    /// Human-readable explanation of the classification.
    pub rationale: String,
}

/// Renders a transformation with human-readable scope paths instead of
/// raw scope ids.
pub fn describe(t: &Transformation, program: &Program) -> String {
    let path = |s: &ScopeId| program.scope_path(*s);
    match t {
        Transformation::SplitArray { array } => format!(
            "split array {} into one array per field",
            program.array(*array).name()
        ),
        Transformation::DataComputationReordering => {
            "apply data or computation reordering".to_string()
        }
        Transformation::LoopInterchange { carrier } => format!(
            "interchange loop '{}' inwards (or interchange array dimensions)",
            path(carrier)
        ),
        Transformation::LoopBlocking { carrier } => format!(
            "block inside loop '{}' and promote the block loop outside it",
            path(carrier)
        ),
        Transformation::Fuse { source, dest } => {
            format!("fuse loops '{}' and '{}'", path(source), path(dest))
        }
        Transformation::StripMineAndPromote {
            source,
            dest,
            carrier,
        } => format!(
            "strip-mine '{}' and '{}' with one stripe and promote the strip loop outside '{}'",
            path(source),
            path(dest),
            path(carrier)
        ),
        Transformation::TimeSkewingOrAccept { carrier } => format!(
            "time-skew across '{}' if legal; otherwise accept these misses as intrinsic",
            path(carrier)
        ),
    }
}

/// Returns the outermost loops of the entry routine — the usual
/// time-step / main loops of a simulation code — for
/// [`Advisor::with_time_loops`].
pub fn detect_time_loops(program: &Program) -> Vec<ScopeId> {
    let entry_scope = program.routine(program.entry()).scope();
    program
        .scopes()
        .iter()
        .filter(|s| s.is_loop() && s.parent() == Some(entry_scope))
        .map(|s| s.id())
        .collect()
}

/// The Table I classification engine.
#[derive(Debug, Clone)]
pub struct Advisor<'p> {
    program: &'p Program,
    time_loops: HashSet<ScopeId>,
    min_share: f64,
}

impl<'p> Advisor<'p> {
    /// Creates an advisor with no scopes marked as time-step / main loops
    /// and a 2% miss-share reporting threshold. Mark algorithmic
    /// time loops with [`with_time_loops`](Self::with_time_loops) —
    /// [`detect_time_loops`] provides the usual heuristic.
    pub fn new(program: &'p Program) -> Advisor<'p> {
        Advisor {
            program,
            time_loops: HashSet::new(),
            min_share: 0.02,
        }
    }

    /// Overrides the set of scopes treated as time-step / main loops.
    pub fn with_time_loops(mut self, loops: impl IntoIterator<Item = ScopeId>) -> Self {
        self.time_loops = loops.into_iter().collect();
        self
    }

    /// Sets the minimum share of a level's misses a pattern must reach to
    /// be reported (default 2%).
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `[0, 1]`.
    pub fn with_min_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0,1]");
        self.min_share = share;
        self
    }

    /// Produces ranked recommendations for one level's metrics, most
    /// misses first. Fragmentation findings (per array) come first when an
    /// array's fragmentation misses alone pass the threshold.
    pub fn advise(&self, metrics: &LevelMetrics) -> Vec<Recommendation> {
        let mut out = Vec::new();
        let threshold = metrics.total_misses * self.min_share;

        // Row 1: large fragmentation miss count due to one array.
        for (i, &frag) in metrics.frag_by_array.iter().enumerate() {
            if frag > threshold && frag > 0.0 {
                let array = ArrayId(i as u32);
                out.push(Recommendation {
                    pattern: None,
                    misses: frag,
                    transformation: Transformation::SplitArray { array },
                    rationale: format!(
                        "array {} wastes {:.0}% of its misses on unused bytes in fetched lines",
                        self.program.array(array).name(),
                        100.0 * frag / metrics.by_array[i].max(1.0)
                    ),
                });
            }
        }

        for row in &metrics.patterns {
            if row.misses < threshold {
                continue;
            }
            if let Some(rec) = self.classify(row) {
                out.push(rec);
            }
        }
        out.sort_by(|a, b| b.misses.total_cmp(&a.misses));
        out
    }

    /// Classifies a single pattern row per Table I.
    pub fn classify(&self, row: &PatternRow) -> Option<Recommendation> {
        let p = self.program;
        let key = row.key;
        let source = key.source_scope;
        let dest = p.reference(key.sink).scope();
        let carrier = key.carrier;
        let same_sd = source == dest;

        let (transformation, rationale) = if self.time_loops.contains(&carrier) {
            (
                Transformation::TimeSkewingOrAccept { carrier },
                format!(
                    "reuse carried by main/time-step loop '{}' — hard or impossible to remove",
                    p.scope_path(carrier)
                ),
            )
        } else if row.irregular && same_sd {
            (
                Transformation::DataComputationReordering,
                format!(
                    "irregular reuse within '{}' carried by '{}'",
                    p.scope_path(dest),
                    p.scope_path(carrier)
                ),
            )
        } else if same_sd && self.is_outer_loop_of_same_nest(carrier, dest) {
            if row.carrier_stride == Some(0) {
                // The sink touches the same locations every carrier
                // iteration: a pure re-traversal. Interchange moves nothing
                // closer; blocking inside the carrier does (Table I's
                // "loop blocking may work best" case).
                (
                    Transformation::LoopBlocking { carrier },
                    format!(
                        "'{}' re-reads identical data on every iteration of '{}'",
                        p.scope_path(dest),
                        p.scope_path(carrier)
                    ),
                )
            } else {
                (
                    Transformation::LoopInterchange { carrier },
                    format!(
                        "'{}' re-traverses data; carrying loop '{}' iterates the array's non-contiguous dimension",
                        p.scope_path(dest),
                        p.scope_path(carrier)
                    ),
                )
            }
        } else if !same_sd && self.same_routine(&[source, dest, carrier]) {
            (
                Transformation::Fuse { source, dest },
                format!(
                    "data produced in '{}' is reused in '{}' under common scope '{}'",
                    p.scope_path(source),
                    p.scope_path(dest),
                    p.scope_path(carrier)
                ),
            )
        } else if !same_sd || !self.same_routine(&[dest, carrier]) {
            (
                Transformation::StripMineAndPromote {
                    source,
                    dest,
                    carrier,
                },
                format!(
                    "reuse spans routines: source '{}', destination '{}', carried by '{}'",
                    p.scope_path(source),
                    p.scope_path(dest),
                    p.scope_path(carrier)
                ),
            )
        } else {
            // Same scope, carrier is the scope itself or a non-nest
            // ancestor: the reuse is already as short as its loop makes it.
            return None;
        };

        Some(Recommendation {
            pattern: Some(key),
            misses: row.misses,
            transformation,
            rationale,
        })
    }

    /// True when `carrier` is a loop, a strict ancestor of `dest`, in the
    /// same routine (an outer loop of the same nest).
    fn is_outer_loop_of_same_nest(&self, carrier: ScopeId, dest: ScopeId) -> bool {
        matches!(self.program.scope(carrier).kind(), ScopeKind::Loop(_))
            && carrier != dest
            && self.program.is_ancestor(carrier, dest)
            && self.same_routine(&[carrier, dest])
    }

    fn same_routine(&self, scopes: &[ScopeId]) -> bool {
        let mut routines = scopes.iter().map(|&s| self.program.routine_of(s));
        let first = routines.next().flatten();
        first.is_some() && routines.all(|r| r == first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_cache::MemoryHierarchy;
    use reuselens_ir::{Expr, ProgramBuilder};
    use reuselens_metrics::run_locality_analysis;

    fn advise_l2(prog: &Program) -> Vec<Recommendation> {
        let la =
            run_locality_analysis(prog, &MemoryHierarchy::itanium2_scaled(16), vec![]).unwrap();
        Advisor::new(prog).advise(la.level("L2").unwrap())
    }

    /// Paper Fig. 1(a): inner loop walks rows of a column-major array; the
    /// outer loop carries the spatial reuse => interchange.
    #[test]
    fn fig1_pattern_gets_loop_interchange() {
        let (n, m) = (256u64, 128u64);
        let mut p = ProgramBuilder::new("fig1a");
        let a = p.array("a", 8, &[n, m]);
        let b = p.array("b", 8, &[n, m]);
        p.routine("main", |r| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.for_("j", 0, (m - 1) as i64, |r, j| {
                    r.load(b, vec![i.into(), j.into()]);
                    r.load(a, vec![i.into(), j.into()]);
                    r.store(a, vec![i.into(), j.into()]);
                });
            });
        });
        let prog = p.finish();
        let recs = advise_l2(&prog);
        assert!(
            recs.iter().any(|r| matches!(
                r.transformation,
                Transformation::LoopInterchange { carrier }
                    if carrier == prog.scope_by_name("i").unwrap()
            )),
            "expected interchange of loop i, got {recs:#?}"
        );
    }

    /// Two sibling loops under a parent: produce/consume => fuse.
    #[test]
    fn producer_consumer_gets_fusion() {
        let n = 8192u64;
        let mut p = ProgramBuilder::new("fuse");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("outer", 0, 0, |r, _| {
                r.for_("produce", 0, (n - 1) as i64, |r, i| {
                    r.store(a, vec![i.into()]);
                });
                r.for_("consume", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let recs = advise_l2(&prog);
        let produce = prog.scope_by_name("produce").unwrap();
        let consume = prog.scope_by_name("consume").unwrap();
        assert!(
            recs.iter().any(|r| r.transformation
                == Transformation::Fuse {
                    source: produce,
                    dest: consume
                }),
            "expected fusion, got {recs:#?}"
        );
    }

    /// Producer in a callee, consumer in the caller => strip-mine+promote.
    #[test]
    fn cross_routine_reuse_gets_strip_mine() {
        let n = 8192u64;
        let mut p = ProgramBuilder::new("xr");
        let a = p.array("a", 8, &[n]);
        let callee = p.declare_routine("gcmotion");
        let main = p.routine("pushi_driver", |r| {
            r.for_("outer", 0, 0, |r, _| {
                r.call(callee);
                r.for_("consume", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        p.define_routine(callee, |r| {
            r.for_("produce", 0, (n - 1) as i64, |r, i| {
                r.store(a, vec![i.into()]);
            });
        });
        p.set_entry(main);
        let prog = p.finish();
        let recs = advise_l2(&prog);
        assert!(
            recs.iter()
                .any(|r| matches!(r.transformation, Transformation::StripMineAndPromote { .. })),
            "expected strip-mine+promote, got {recs:#?}"
        );
    }

    /// Reuse carried by the entry routine's outermost loop => time skewing
    /// or accept.
    #[test]
    fn time_loop_reuse_is_flagged_intrinsic() {
        let n = 8192u64;
        let mut p = ProgramBuilder::new("ts");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("istep", 0, 2, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let la =
            run_locality_analysis(&prog, &MemoryHierarchy::itanium2_scaled(16), vec![]).unwrap();
        let istep = prog.scope_by_name("istep").unwrap();
        assert_eq!(detect_time_loops(&prog), vec![istep]);
        let recs = Advisor::new(&prog)
            .with_time_loops(detect_time_loops(&prog))
            .advise(la.level("L2").unwrap());
        assert!(
            recs.iter().any(|r| r.transformation
                == Transformation::TimeSkewingOrAccept { carrier: istep }),
            "expected time-skew/accept, got {recs:#?}"
        );
    }

    /// AoS field access => split-array recommendation from fragmentation.
    #[test]
    fn fragmented_aos_gets_split_array() {
        let n = 16384u64;
        let mut p = ProgramBuilder::new("aos");
        let zion = p.array("zion", 8, &[7, n]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(zion, vec![Expr::c(2), i.into()]);
                });
            });
        });
        let prog = p.finish();
        let recs = advise_l2(&prog);
        let zion_id = prog.array_by_name("zion").unwrap();
        assert!(
            recs.iter()
                .any(|r| r.transformation == Transformation::SplitArray { array: zion_id }),
            "expected split-array, got {recs:#?}"
        );
    }

    /// Indirect gather reusing data within one loop => data/computation
    /// reordering.
    #[test]
    fn irregular_reuse_gets_reordering() {
        let n = 4096u64;
        let particles = 8192u64;
        let mut p = ProgramBuilder::new("irr");
        let ix = p.index_array("ix", &[particles]);
        let grid = p.array("grid", 8, &[n]);
        p.routine("main", |r| {
            r.for_("i", 0, (particles - 1) as i64, |r, i| {
                r.load(grid, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        // Scattered particle->grid map: consecutive particles touch far
        // apart grid cells.
        let idx: Vec<i64> = (0..particles)
            .map(|k| ((k * 2654435761) % n) as i64)
            .collect();
        let la = run_locality_analysis(
            &prog,
            &MemoryHierarchy::itanium2_scaled(16),
            vec![(ix, idx)],
        )
        .unwrap();
        let recs = Advisor::new(&prog).advise(la.level("L2").unwrap());
        assert!(
            recs.iter()
                .any(|r| r.transformation == Transformation::DataComputationReordering),
            "expected reordering, got {recs:#?}"
        );
    }

    #[test]
    fn transformations_display_readably() {
        let t = Transformation::Fuse {
            source: ScopeId(1),
            dest: ScopeId(2),
        };
        assert!(t.to_string().contains("fuse"));
        let t = Transformation::TimeSkewingOrAccept {
            carrier: ScopeId(3),
        };
        assert!(t.to_string().contains("time-skew"));
    }

    #[test]
    #[should_panic(expected = "share must be in [0,1]")]
    fn bad_share_panics() {
        let mut p = ProgramBuilder::new("x");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        let prog = p.finish();
        let _ = Advisor::new(&prog).with_min_share(1.5);
    }
}

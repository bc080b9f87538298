//! The one-call locality analysis: execute, measure, predict, attribute.

use crate::attribution::LevelMetrics;
use reuselens_cache::{report_from_analysis, HierarchyReport, MemoryHierarchy, ReuseLensError};
use reuselens_core::{analyze_buffer_with, capture_program, AnalysisResult, AnalyzeOptions};
use reuselens_ir::{ArrayId, Program, RefId};
use reuselens_obs as obs;
use reuselens_static::{estimate_profiles, StaticAnalysis};

/// Everything the toolchain produces for one program on one hierarchy:
/// per-level predictions, per-level attribution metrics, and the static
/// analysis. This is the input to the report writers and to the
/// [transformation advisor](../reuselens_advisor/index.html).
#[derive(Debug, Clone)]
pub struct LocalityAnalysis {
    /// Per-level miss predictions and modeled cycles.
    pub report: HierarchyReport,
    /// Attribution metrics, one per cache level, in hierarchy order.
    pub cache_metrics: Vec<LevelMetrics>,
    /// Attribution metrics for the TLB.
    pub tlb_metrics: LevelMetrics,
    /// The static access-pattern analysis.
    pub static_analysis: StaticAnalysis,
    /// The underlying reuse-distance analysis (profiles per granularity).
    pub analysis: AnalysisResult,
}

impl LocalityAnalysis {
    /// Finds a level's metrics by name (`"L2"`, `"L3"`, `"TLB"`).
    pub fn level(&self, name: &str) -> Option<&LevelMetrics> {
        if self.tlb_metrics.level == name {
            return Some(&self.tlb_metrics);
        }
        self.cache_metrics.iter().find(|m| m.level == name)
    }

    /// All metrics, caches first then TLB.
    pub fn all_levels(&self) -> Vec<&LevelMetrics> {
        self.cache_metrics
            .iter()
            .chain(std::iter::once(&self.tlb_metrics))
            .collect()
    }
}

/// Runs the complete pipeline: one execution measuring reuse at every
/// granularity the hierarchy needs, per-level miss prediction, static
/// analysis, and per-level attribution.
///
/// # Errors
///
/// Propagates executor errors (out-of-bounds accesses, missing index-array
/// contents) and grain failures, as a [`ReuseLensError`].
///
/// # Examples
///
/// ```
/// use reuselens_cache::MemoryHierarchy;
/// use reuselens_ir::ProgramBuilder;
/// use reuselens_metrics::run_locality_analysis;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[1 << 15]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 1, |r, _| {
///         r.for_("i", 0, (1 << 15) - 1, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let la = run_locality_analysis(&prog, &MemoryHierarchy::itanium2(), vec![])?;
/// let l2 = la.level("L2").unwrap();
/// let t = prog.scope_by_name("t").unwrap();
/// // The repeat loop carries the L2 capacity misses.
/// assert_eq!(l2.top_carriers()[0].0, t);
/// # Ok::<(), reuselens_cache::ReuseLensError>(())
/// ```
pub fn run_locality_analysis(
    program: &Program,
    hierarchy: &MemoryHierarchy,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<LocalityAnalysis, ReuseLensError> {
    run_locality_analysis_opts(program, hierarchy, index_arrays, &AnalyzeOptions::default())
}

/// [`run_locality_analysis`] with full [`AnalyzeOptions`] control —
/// sampling (every granularity replays through the constant-space sampled
/// analyzer, and the miss predictions and attribution metrics come from
/// the scaled histograms), budgets, and crash-safe checkpointing
/// (`checkpoint`: a checkpointed or resumed run is bit-identical to an
/// uninterrupted one). This is what the CLI's `--sample-rate`,
/// `--checkpoint-dir`, `--checkpoint-every` and `--resume` flags plumb
/// into. Default options reproduce
/// [`run_locality_analysis`] bit for bit.
///
/// # Errors
///
/// Propagates executor errors and the first grain failure — budget,
/// checkpoint I/O ([`ReuseLensError::Snapshot`]) or panic — as a
/// typed [`ReuseLensError`].
pub fn run_locality_analysis_opts(
    program: &Program,
    hierarchy: &MemoryHierarchy,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
    opts: &AnalyzeOptions,
) -> Result<LocalityAnalysis, ReuseLensError> {
    // Capture once, then replay per granularity: this is the pipeline the
    // CLI reports on, so each stage runs under its own span (capture and
    // replay spans are recorded inside `capture_program`/`analyze_buffer`).
    let (buffer, exec) = capture_program(program, index_arrays)?;
    let grains = hierarchy.required_granularities();
    let (profiles, _timings) =
        analyze_buffer_with(program, &buffer, &grains, opts).into_strict()?;
    let analysis = AnalysisResult { profiles, exec };
    Ok(attribute_analysis(program, hierarchy, analysis))
}

/// A [`LocalityAnalysis`] produced by the zero-trace symbolic estimator,
/// with the estimator's per-reference coverage bookkeeping.
#[derive(Debug, Clone)]
pub struct EstimateRun {
    /// The full analysis, shaped exactly like the dynamic pipeline's.
    pub analysis: LocalityAnalysis,
    /// References modeled symbolically (affine subscripts).
    pub covered: Vec<RefId>,
    /// References modeled with the irregular/indirect fallback.
    pub fallback: Vec<RefId>,
}

/// The static counterpart of [`run_locality_analysis`]: predicts every
/// per-granularity profile symbolically from the loop structure —
/// executing **zero trace events** — then runs the identical miss
/// prediction / attribution back half. `index_arrays` is the same input
/// data the executor would be seeded with; the estimator only reads it
/// to resolve data-dependent loop bounds and guards.
pub fn run_locality_estimate(
    program: &Program,
    hierarchy: &MemoryHierarchy,
    index_arrays: &[(ArrayId, Vec<i64>)],
) -> EstimateRun {
    let grains = hierarchy.required_granularities();
    let est = estimate_profiles(program, index_arrays, &grains);
    let analysis = AnalysisResult {
        profiles: est.profiles,
        exec: est.exec,
    };
    EstimateRun {
        analysis: attribute_analysis(program, hierarchy, analysis),
        covered: est.covered,
        fallback: est.fallback,
    }
}

/// The shared back half of the pipeline: miss prediction, static
/// analysis, and per-level attribution over an already-measured analysis.
///
/// Public so out-of-process pipelines — a daemon replaying a stored trace
/// it captured in an earlier job — can rejoin the attribution path after
/// producing an [`AnalysisResult`] by other means.
pub fn attribute_analysis(
    program: &Program,
    hierarchy: &MemoryHierarchy,
    analysis: AnalysisResult,
) -> LocalityAnalysis {
    let report = report_from_analysis(&analysis, hierarchy);
    let _span = obs::span_with(obs::Stage::Report, || obs::TimelineArgs {
        hierarchy: Some(hierarchy.name.clone()),
        ..obs::TimelineArgs::default()
    });
    let sa = StaticAnalysis::analyze(program, &analysis.exec);
    let cache_metrics = report
        .levels
        .iter()
        .zip(&hierarchy.levels)
        .map(|(pred, cfg)| {
            let profile = analysis
                .profile_at(cfg.line_size)
                .expect("profile measured for every level");
            LevelMetrics::compute(program, pred, profile, &sa)
        })
        .collect();
    let tlb_profile = analysis
        .profile_at(hierarchy.tlb.line_size)
        .expect("page-granularity profile");
    let tlb_metrics = LevelMetrics::compute(program, &report.tlb, tlb_profile, &sa);
    obs::add(obs::Counter::ReportsGenerated, 1);
    LocalityAnalysis {
        report,
        cache_metrics,
        tlb_metrics,
        static_analysis: sa,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::{AnalysisBudget, SamplingConfig};
    use reuselens_ir::ProgramBuilder;

    #[test]
    fn pipeline_produces_consistent_levels() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[8192]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 8191, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let h = MemoryHierarchy::itanium2_scaled(16);
        let la = run_locality_analysis(&prog, &h, vec![]).unwrap();
        assert_eq!(la.cache_metrics.len(), 2);
        assert_eq!(la.tlb_metrics.level, "TLB");
        assert!(la.level("L2").is_some());
        assert!(la.level("TLB").is_some());
        assert!(la.level("L7").is_none());
        assert_eq!(la.all_levels().len(), 3);
        // L2 misses >= L3 misses (smaller cache).
        let l2 = la.level("L2").unwrap().total_misses;
        let l3 = la.level("L3").unwrap().total_misses;
        assert!(l2 >= l3);
    }

    #[test]
    fn sampled_pipeline_marks_profiles_and_exact_matches_default() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[8192]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 8191, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let h = MemoryHierarchy::itanium2_scaled(16);
        let exact = run_locality_analysis(&prog, &h, vec![]).unwrap();
        let with = |sampling| AnalyzeOptions {
            sampling,
            ..AnalyzeOptions::default()
        };
        let via_sampled_entry =
            run_locality_analysis_opts(&prog, &h, vec![], &with(SamplingConfig::Exact)).unwrap();
        assert_eq!(exact.analysis.profiles, via_sampled_entry.analysis.profiles);

        let sampled =
            run_locality_analysis_opts(&prog, &h, vec![], &with(SamplingConfig::fixed(0.5)))
                .unwrap();
        assert!(sampled.analysis.profiles.iter().all(|p| p.is_sampled()));
        let summary = crate::text::format_summary(&sampled);
        assert!(summary.contains("sampled: grain"));
        assert!(!crate::text::format_summary(&exact).contains("sampled"));
    }

    /// A subscript that would trap (`1/0`) under a guard that never holds:
    /// the executor never evaluates it, and the estimator must not either.
    #[test]
    fn estimate_survives_a_trapping_subscript_behind_a_false_guard() {
        use reuselens_ir::{Expr, Pred};
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[512]);
        p.routine("main", |r| {
            r.for_("i", 0, 511, |r, i| {
                r.load(a, vec![i.into()]);
                r.if_(Pred::Lt(Expr::var(i), Expr::c(0)), |r| {
                    r.load(a, vec![Expr::c(1).div(0)]);
                });
            });
        });
        let prog = p.finish();
        let h = MemoryHierarchy::itanium2_scaled(16);
        let dynamic = run_locality_analysis(&prog, &h, vec![]).unwrap();
        let est = run_locality_estimate(&prog, &h, &[]);
        assert_eq!(est.analysis.analysis.exec.accesses, 512);
        assert_eq!(dynamic.analysis.exec.accesses, 512);
        assert_eq!(est.covered, vec![prog.references()[0].id()]);
        assert!(est.fallback.is_empty());
    }

    #[test]
    fn grain_failure_is_an_error_not_a_panic() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4096]);
        p.routine("main", |r| {
            r.for_("i", 0, 4095, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let h = MemoryHierarchy::itanium2_scaled(16);
        let opts = AnalyzeOptions {
            budget: AnalysisBudget::unlimited().with_max_events(10),
            ..AnalyzeOptions::default()
        };
        let result = run_locality_analysis_opts(&prog, &h, vec![], &opts);
        assert!(
            matches!(result, Err(ReuseLensError::Budget(_))),
            "expected a budget error, got {:?}",
            result.map(|la| la.analysis.profiles.len())
        );
    }
}

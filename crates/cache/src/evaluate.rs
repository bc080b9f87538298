//! Scoring: predict misses at every level of one hierarchy from a measured
//! analysis, and model run time.
//!
//! [`try_report_from_analysis`] is the one scoring call. Predictions are
//! pure functions of immutable reuse profiles, so one measured analysis
//! scores any number of candidate hierarchies, one call each — the payoff
//! of the capture-once / replay-many pipeline.

use crate::config::MemoryHierarchy;
use crate::error::ReuseLensError;
use crate::model::{predict_level, LevelPrediction};
use crate::timing::{predict_cycles, TimingBreakdown};
use reuselens_core::{analyze_program, AnalysisResult};
use reuselens_ir::{ArrayId, Program};
use reuselens_obs as obs;
use reuselens_trace::ExecError;

/// Predicted behaviour of one program run on one memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyReport {
    /// Hierarchy name the report was computed for.
    pub hierarchy: String,
    /// Per-cache-level predictions, nearest level first.
    pub levels: Vec<LevelPrediction>,
    /// TLB prediction.
    pub tlb: LevelPrediction,
    /// Modeled cycles.
    pub timing: TimingBreakdown,
    /// Total memory accesses executed.
    pub accesses: u64,
}

impl HierarchyReport {
    /// Predicted total misses at a named level (`"L2"`, `"TLB"`, ...).
    pub fn misses_at(&self, name: &str) -> Option<f64> {
        if self.tlb.level == name {
            return Some(self.tlb.total);
        }
        self.levels
            .iter()
            .find(|l| l.level == name)
            .map(|l| l.total)
    }
}

/// Runs `program` once, measures reuse at every granularity the hierarchy
/// needs, and returns per-level predictions plus the underlying analysis
/// (for deeper attribution).
///
/// # Errors
///
/// Propagates executor errors (out-of-bounds access, missing index-array
/// contents).
///
/// # Examples
///
/// ```
/// use reuselens_cache::{evaluate_program, MemoryHierarchy};
/// use reuselens_ir::ProgramBuilder;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[1 << 16]); // 512 KB > L2
/// p.routine("main", |r| {
///     r.for_("t", 0, 1, |r, _| {
///         r.for_("i", 0, (1 << 16) - 1, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let (report, _) = evaluate_program(&prog, &MemoryHierarchy::itanium2(), vec![])?;
/// // The second sweep misses L2 (footprint 2x capacity) but fits in L3.
/// assert!(report.misses_at("L2").unwrap() > report.misses_at("L3").unwrap());
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
pub fn evaluate_program(
    program: &Program,
    hierarchy: &MemoryHierarchy,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<(HierarchyReport, AnalysisResult), ExecError> {
    let granularities = hierarchy.required_granularities();
    let analysis = analyze_program(program, &granularities, index_arrays)?;
    Ok((report_from_analysis(&analysis, hierarchy), analysis))
}

/// Builds a [`HierarchyReport`] from an existing analysis, first checking
/// that the hierarchy description is valid
/// ([`MemoryHierarchy::validate`]) and that a profile was measured at
/// every granularity it requires.
///
/// # Errors
///
/// Returns [`ReuseLensError::Config`] for an invalid hierarchy and
/// [`ReuseLensError::MissingProfile`] for an unmeasured granularity.
pub fn try_report_from_analysis(
    analysis: &AnalysisResult,
    hierarchy: &MemoryHierarchy,
) -> Result<HierarchyReport, ReuseLensError> {
    let _span = obs::span_with(obs::Stage::Sweep, || obs::TimelineArgs {
        hierarchy: Some(hierarchy.name.clone()),
        ..obs::TimelineArgs::default()
    });
    let result = build_report(analysis, hierarchy);
    match &result {
        Ok(_) => obs::add(obs::Counter::SweepConfigsScored, 1),
        Err(_) => obs::add(obs::Counter::SweepConfigsFailed, 1),
    }
    result
}

/// The uninstrumented body of [`try_report_from_analysis`].
fn build_report(
    analysis: &AnalysisResult,
    hierarchy: &MemoryHierarchy,
) -> Result<HierarchyReport, ReuseLensError> {
    hierarchy.validate()?;
    let profile_at = |granularity: u64| {
        analysis
            .profile_at(granularity)
            .ok_or_else(|| ReuseLensError::MissingProfile {
                hierarchy: hierarchy.name.clone(),
                granularity,
            })
    };
    let levels: Vec<LevelPrediction> = hierarchy
        .levels
        .iter()
        .map(|cfg| Ok(predict_level(profile_at(cfg.line_size)?, cfg)))
        .collect::<Result<_, ReuseLensError>>()?;
    let tlb = predict_level(profile_at(hierarchy.tlb.line_size)?, &hierarchy.tlb);
    let accesses = analysis.exec.accesses;
    let level_misses: Vec<f64> = levels.iter().map(|l| l.total).collect();
    let timing = predict_cycles(hierarchy, accesses, &level_misses, tlb.total);
    Ok(HierarchyReport {
        hierarchy: hierarchy.name.clone(),
        levels,
        tlb,
        timing,
        accesses,
    })
}

/// Builds a [`HierarchyReport`] from an existing analysis (must contain
/// profiles at every granularity the hierarchy requires).
///
/// # Panics
///
/// Panics where [`try_report_from_analysis`] would return an error.
pub fn report_from_analysis(
    analysis: &AnalysisResult,
    hierarchy: &MemoryHierarchy,
) -> HierarchyReport {
    try_report_from_analysis(analysis, hierarchy).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::ProgramBuilder;

    fn streaming_program(elems: u64, sweeps: i64) -> reuselens_ir::Program {
        let mut p = ProgramBuilder::new("stream");
        let a = p.array("a", 8, &[elems]);
        p.routine("main", |r| {
            r.for_("t", 0, sweeps - 1, |r, _| {
                r.for_("i", 0, (elems - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        p.finish()
    }

    #[test]
    fn small_footprint_only_misses_cold() {
        // 8 KB fits everywhere.
        let prog = streaming_program(1024, 3);
        let h = MemoryHierarchy::itanium2();
        let (report, _) = evaluate_program(&prog, &h, vec![]).unwrap();
        let lines = 1024 * 8 / 128;
        assert!((report.misses_at("L2").unwrap() - lines as f64).abs() < 1.0);
        assert!((report.misses_at("L3").unwrap() - lines as f64).abs() < 1.0);
        assert_eq!(report.accesses, 3 * 1024);
    }

    #[test]
    fn footprint_between_l2_and_l3_splits_levels() {
        // 512 KB: misses L2 on every resweep, fits L3.
        let prog = streaming_program(1 << 16, 3);
        let h = MemoryHierarchy::itanium2();
        let (report, analysis) = evaluate_program(&prog, &h, vec![]).unwrap();
        let lines = (1u64 << 16) * 8 / 128;
        let l2 = report.misses_at("L2").unwrap();
        let l3 = report.misses_at("L3").unwrap();
        // L2: cold + ~2 resweeps of all lines; L3: cold only.
        assert!(l2 > 2.5 * lines as f64, "l2={l2}");
        assert!(l3 < 1.2 * lines as f64, "l3={l3}");
        // Timing reflects the stalls.
        assert!(report.timing.total() > report.timing.non_stall);
        assert!(analysis.profile_at(128).is_some());
    }
}

//! One-call evaluation: run a program, predict misses at every hierarchy
//! level, and model run time.
//!
//! Because predictions are pure functions of immutable reuse profiles, a
//! whole design-space sweep ([`evaluate_sweep`]) can score every candidate
//! hierarchy concurrently from one measured analysis — the payoff of the
//! capture-once / replay-many pipeline.

use crate::config::MemoryHierarchy;
use crate::error::ReuseLensError;
use crate::model::{predict_level, LevelPrediction};
use crate::timing::{predict_cycles, TimingBreakdown};
use reuselens_core::{analyze_buffer, analyze_program, capture_program, AnalysisResult};
use reuselens_ir::{ArrayId, Program};
use reuselens_obs as obs;
use reuselens_trace::ExecError;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

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

/// Wall time one hierarchy's prediction thread took in a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepTiming {
    /// Name of the hierarchy this thread scored.
    pub hierarchy: String,
    /// Time spent computing its per-level predictions.
    pub wall: Duration,
}

/// One hierarchy's failure inside a degraded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Name of the hierarchy that could not be scored.
    pub hierarchy: String,
    /// Why scoring it failed.
    pub error: ReuseLensError,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.hierarchy, self.error)
    }
}

/// The degraded result of [`evaluate_sweep_degraded`]: reports for every
/// hierarchy that scored cleanly, and a [`SweepFailure`] for every one
/// that did not. Each requested hierarchy appears exactly once, in either
/// `reports` or `failures`, keeping request order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Reports of the hierarchies that scored, in request order.
    pub reports: Vec<HierarchyReport>,
    /// Per-thread timings, index-aligned with `reports`.
    pub timings: Vec<SweepTiming>,
    /// One entry per failed hierarchy, in request order.
    pub failures: Vec<SweepFailure>,
}

impl SweepOutcome {
    /// True when every requested hierarchy was scored.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One hierarchy's scoring, panic-isolated and validated.
fn score_hierarchy(
    analysis: &AnalysisResult,
    h: &MemoryHierarchy,
) -> Result<(HierarchyReport, SweepTiming), SweepFailure> {
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| try_report_from_analysis(analysis, h)));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(error)) => {
            return Err(SweepFailure {
                hierarchy: h.name.clone(),
                error,
            })
        }
        Err(payload) => {
            // A panic unwound past the instrumented scoring path, so the
            // per-config failure counter never ticked; count it here.
            obs::add(obs::Counter::SweepConfigsFailed, 1);
            return Err(SweepFailure {
                hierarchy: h.name.clone(),
                error: ReuseLensError::SweepPanicked {
                    hierarchy: h.name.clone(),
                    message: panic_message(payload.as_ref()),
                },
            });
        }
    };
    Ok((
        report,
        SweepTiming {
            hierarchy: h.name.clone(),
            wall: start.elapsed(),
        },
    ))
}

/// Fans one analysis out over candidate hierarchies, one scoring thread
/// per candidate, under panic isolation. Returns each candidate's outcome
/// in request order.
fn sweep_outcomes(
    analysis: &AnalysisResult,
    hierarchies: &[MemoryHierarchy],
) -> Vec<Result<(HierarchyReport, SweepTiming), SweepFailure>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = hierarchies
            .iter()
            .map(|h| s.spawn(obs::Obs::inherit(move || score_hierarchy(analysis, h))))
            .collect();
        handles
            .into_iter()
            .zip(hierarchies)
            .map(|(handle, h)| match handle.join() {
                Ok(outcome) => outcome,
                // `score_hierarchy` catches panics itself; backstop only.
                Err(payload) => Err(SweepFailure {
                    hierarchy: h.name.clone(),
                    error: ReuseLensError::SweepPanicked {
                        hierarchy: h.name.clone(),
                        message: panic_message(payload.as_ref()),
                    },
                }),
            })
            .collect()
    })
}

/// Scores one measured analysis against many candidate hierarchies, one
/// thread per hierarchy. The profiles are shared immutably, so the
/// predictions are independent and the reports come back in request order
/// together with per-thread timings.
///
/// Every candidate is validated ([`MemoryHierarchy::validate`]) and every
/// scoring thread runs under panic isolation, so an invalid or
/// pathological candidate surfaces as an error rather than aborting the
/// sweep. Use [`evaluate_sweep_degraded`] to keep the healthy candidates'
/// reports when some fail.
///
/// # Errors
///
/// Returns the first failure — an invalid hierarchy description, a
/// missing granularity (measure the union of
/// [`required_granularities`](MemoryHierarchy::required_granularities)
/// up front), or an isolated scoring panic — as a [`ReuseLensError`].
pub fn evaluate_sweep(
    analysis: &AnalysisResult,
    hierarchies: &[MemoryHierarchy],
) -> Result<(Vec<HierarchyReport>, Vec<SweepTiming>), ReuseLensError> {
    let mut reports = Vec::with_capacity(hierarchies.len());
    let mut timings = Vec::with_capacity(hierarchies.len());
    for outcome in sweep_outcomes(analysis, hierarchies) {
        let (report, timing) = outcome.map_err(|f| f.error)?;
        reports.push(report);
        timings.push(timing);
    }
    Ok((reports, timings))
}

/// The degrading form of [`evaluate_sweep`]: scores every candidate under
/// panic isolation and reports per-candidate failures in the returned
/// [`SweepOutcome`] instead of failing the whole sweep. A design-space
/// search over hundreds of generated candidates keeps every healthy data
/// point even when a few candidates are malformed.
pub fn evaluate_sweep_degraded(
    analysis: &AnalysisResult,
    hierarchies: &[MemoryHierarchy],
) -> SweepOutcome {
    let mut out = SweepOutcome {
        reports: Vec::new(),
        timings: Vec::new(),
        failures: Vec::new(),
    };
    for outcome in sweep_outcomes(analysis, hierarchies) {
        match outcome {
            Ok((report, timing)) => {
                out.reports.push(report);
                out.timings.push(timing);
            }
            Err(failure) => out.failures.push(failure),
        }
    }
    out
}

/// The full capture-once pipeline: interprets `program` a single time,
/// replays the captured trace concurrently at the union of granularities
/// the candidate hierarchies need, then scores every hierarchy on its own
/// thread. Reports come back in hierarchy order.
///
/// # Errors
///
/// Returns any failure along the pipeline — capture, replay, or sweep —
/// as a [`ReuseLensError`].
pub fn evaluate_program_sweep(
    program: &Program,
    hierarchies: &[MemoryHierarchy],
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<(Vec<HierarchyReport>, AnalysisResult), ReuseLensError> {
    let mut grains: Vec<u64> = hierarchies
        .iter()
        .flat_map(MemoryHierarchy::required_granularities)
        .collect();
    grains.sort_unstable();
    grains.dedup();
    let (buffer, exec) = capture_program(program, index_arrays)?;
    let (profiles, _timings) = analyze_buffer(program, &buffer, &grains)?;
    let analysis = AnalysisResult { profiles, exec };
    let (reports, _timings) = evaluate_sweep(&analysis, hierarchies)?;
    Ok((reports, analysis))
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

    /// A parallel sweep over scaled hierarchies matches evaluating each
    /// hierarchy sequentially, report for report.
    #[test]
    fn sweep_matches_sequential_evaluation() {
        let prog = streaming_program(1 << 14, 3);
        let hierarchies: Vec<MemoryHierarchy> =
            [1u64, 2, 4, 8].map(MemoryHierarchy::itanium2_scaled).into();
        let (reports, analysis) = evaluate_program_sweep(&prog, &hierarchies, vec![]).unwrap();
        assert_eq!(reports.len(), hierarchies.len());
        for (got, h) in reports.iter().zip(&hierarchies) {
            let want = report_from_analysis(&analysis, h);
            assert_eq!(got, &want);
        }
        // Timings are observable and labeled in request order.
        let (again, timings) = evaluate_sweep(&analysis, &hierarchies).unwrap();
        assert_eq!(again, reports);
        let names: Vec<&str> = timings.iter().map(|t| t.hierarchy.as_str()).collect();
        let want_names: Vec<&str> = hierarchies.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, want_names);
    }
}

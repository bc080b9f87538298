//! Calling-context-sensitive reuse patterns — the §IV extension.
//!
//! The paper notes that "the data collection infrastructure can be
//! extended to include calling context as well". Here that is a program
//! transformation, not another engine: [`Program::split_contexts`] clones
//! each routine per call path, any engine measures the split program, and
//! [`ContextProfile::from_split`] keys each pattern additionally by the
//! sink's call path, so a helper called from two phases reports its reuse
//! per phase.

use crate::histogram::Histogram;
use crate::patterns::ReuseProfile;
use reuselens_ir::{ContextSplit, Program, RefId, ScopeId};
use std::collections::{BTreeMap, BTreeSet};

/// Interned identifier of one calling context (a routine-scope call path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub u32);

/// A context-qualified reuse pattern key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxPatternKey {
    /// The destination reference.
    pub sink: RefId,
    /// Static scope of the previous access.
    pub source_scope: ScopeId,
    /// The carrying scope.
    pub carrier: ScopeId,
    /// The sink's calling context.
    pub context: ContextId,
}

/// One context-sensitive pattern with its histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct CtxPattern {
    /// The qualified key.
    pub key: CtxPatternKey,
    /// Reuse-distance histogram.
    pub histogram: Histogram,
}

/// The result of a context-sensitive run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextProfile {
    /// Block size measured at.
    pub block_size: u64,
    /// All patterns, sorted by key.
    pub patterns: Vec<CtxPattern>,
    /// Interned call paths: `contexts[id.0]` is the chain of routine
    /// scopes, outermost first.
    pub contexts: Vec<Vec<ScopeId>>,
    /// Cold accesses per reference.
    pub cold: Vec<u64>,
    /// Total accesses.
    pub total_accesses: u64,
}

impl ContextProfile {
    /// Renders a context as a readable path.
    pub fn context_path(&self, program: &Program, ctx: ContextId) -> String {
        self.contexts[ctx.0 as usize]
            .iter()
            .map(|&s| program.scope(s).name().to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Contexts under which `sink` was observed, in id order.
    pub fn contexts_of_sink(&self, sink: RefId) -> Vec<ContextId> {
        let of_sink = self.patterns.iter().filter(|p| p.key.sink == sink);
        let contexts: BTreeSet<ContextId> = of_sink.map(|p| p.key.context).collect();
        contexts.into_iter().collect()
    }

    /// Folds `profile`, measured on `split.program`, back onto the original
    /// program: sinks, source scopes and carriers map to their original
    /// ids, each sink's split reference names its context, and cold counts
    /// sum per original reference. Patterns that differ only in which
    /// clone of a scope they name merge.
    ///
    /// # Panics
    ///
    /// Panics if `profile` names a reference or scope that `split.program`
    /// does not have.
    ///
    /// # Examples
    ///
    /// ```
    /// use reuselens_core::{analyze_buffer, capture_program, ContextProfile};
    /// use reuselens_ir::ProgramBuilder;
    ///
    /// // One helper touching one array, called from two phases.
    /// let mut p = ProgramBuilder::new("ctx");
    /// let a = p.array("a", 8, &[64]);
    /// let helper = p.declare_routine("helper");
    /// let phase1 = p.declare_routine("phase1");
    /// let phase2 = p.declare_routine("phase2");
    /// p.routine("main", |r| {
    ///     r.call(phase1);
    ///     r.call(phase2);
    /// });
    /// p.define_routine(phase1, |r| r.call(helper));
    /// p.define_routine(phase2, |r| r.call(helper));
    /// p.define_routine(helper, |r| {
    ///     r.for_("i", 0, 63, |r, i| {
    ///         r.load(a, vec![i.into()]);
    ///     });
    /// });
    /// let prog = p.finish();
    ///
    /// let split = prog.split_contexts()?;
    /// let (buffer, _) = capture_program(&split.program, vec![])?;
    /// let (profiles, _) = analyze_buffer(&split.program, &buffer, &[64])?;
    /// let profile = ContextProfile::from_split(&split, &profiles[0]);
    /// // The helper's load shows up under two distinct calling contexts.
    /// let sink = prog.references()[0].id();
    /// assert_eq!(profile.contexts_of_sink(sink).len(), 2);
    /// assert_eq!(profile.cold.len(), prog.references().len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_split(split: &ContextSplit, profile: &ReuseProfile) -> ContextProfile {
        let mut patterns: BTreeMap<CtxPatternKey, Histogram> = BTreeMap::new();
        for p in &profile.patterns {
            let (sink, context) = split.ref_origin[p.key.sink.index()];
            let key = CtxPatternKey {
                sink,
                source_scope: split.scope_origin[p.key.source_scope.index()],
                carrier: split.scope_origin[p.key.carrier.index()],
                context: ContextId(context),
            };
            patterns.entry(key).or_default().merge(&p.histogram);
        }
        let mut cold = vec![0; split.original_refs];
        for (&(r, _), &c) in split.ref_origin.iter().zip(&profile.cold) {
            cold[r.index()] += c;
        }
        ContextProfile {
            block_size: profile.block_size,
            patterns: patterns
                .into_iter()
                .map(|(key, histogram)| CtxPattern { key, histogram })
                .collect(),
            contexts: split.contexts.clone(),
            cold,
            total_accesses: profile.total_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_buffer, analyze_program, capture_program};
    use crate::patterns::PatternKey;
    use reuselens_ir::ProgramBuilder;

    /// A helper called from two phases; its accesses must split by context.
    fn two_phase_program() -> reuselens_ir::Program {
        let mut p = ProgramBuilder::new("twophase");
        let a = p.array("a", 8, &[512]);
        let helper = p.declare_routine("helper");
        let phase1 = p.declare_routine("phase1");
        let phase2 = p.declare_routine("phase2");
        let main = p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.call(phase1);
                r.call(phase2);
            });
        });
        p.define_routine(phase1, |r| r.call(helper));
        p.define_routine(phase2, |r| r.call(helper));
        p.define_routine(helper, |r| {
            r.for_("i", 0, 511, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        p.set_entry(main);
        p.finish()
    }

    /// Splits, captures and replays `prog`, then folds the profile back.
    fn context_profile(prog: &Program) -> ContextProfile {
        let split = prog.split_contexts().unwrap();
        let (buffer, _) = capture_program(&split.program, vec![]).unwrap();
        let (profiles, _) = analyze_buffer(&split.program, &buffer, &[64]).unwrap();
        ContextProfile::from_split(&split, &profiles[0])
    }

    #[test]
    fn contexts_split_the_helpers_patterns() {
        let prog = two_phase_program();
        let profile = context_profile(&prog);
        let sink = prog.references()[0].id();
        let ctxs = profile.contexts_of_sink(sink);
        assert_eq!(ctxs.len(), 2, "expected two calling contexts");
        // The rendered paths name the two phases.
        let paths: Vec<String> = ctxs
            .iter()
            .map(|&c| profile.context_path(&prog, c))
            .collect();
        assert_eq!(
            paths,
            ["main -> phase1 -> helper", "main -> phase2 -> helper"]
        );
        // Two time steps of 512 loads over 64 blocks per context: only
        // phase1's first call touches cold blocks.
        let reuses: Vec<u64> = ctxs
            .iter()
            .map(|&c| {
                let in_context = profile.patterns.iter().filter(|p| p.key.context == c);
                in_context.map(|p| p.histogram.total()).sum()
            })
            .collect();
        assert_eq!(reuses, [2 * 512 - 64, 2 * 512]);
    }

    #[test]
    fn context_sensitive_totals_match_context_insensitive() {
        let prog = two_phase_program();
        let cp = context_profile(&prog);
        let fp = analyze_program(&prog, &[64], vec![])
            .unwrap()
            .profiles
            .remove(0);

        assert_eq!(cp.total_accesses, fp.total_accesses);
        assert_eq!(cp.cold, fp.cold);
        let ctx_reuses: u64 = cp.patterns.iter().map(|p| p.histogram.total()).sum();
        assert_eq!(ctx_reuses, fp.total_reuses());
        // Merging context-split histograms per pattern recovers the flat
        // ones exactly.
        let mut merged: BTreeMap<PatternKey, Histogram> = BTreeMap::new();
        for p in &cp.patterns {
            let key = PatternKey {
                sink: p.key.sink,
                source_scope: p.key.source_scope,
                carrier: p.key.carrier,
            };
            merged.entry(key).or_default().merge(&p.histogram);
        }
        let flat: BTreeMap<PatternKey, Histogram> = fp
            .patterns
            .iter()
            .map(|p| (p.key, p.histogram.clone()))
            .collect();
        assert_eq!(merged, flat);
    }

    #[test]
    fn root_context_is_empty_path() {
        let prog = two_phase_program();
        let profile = context_profile(&prog);
        assert!(profile.contexts[0].is_empty());
        assert_eq!(profile.context_path(&prog, ContextId(0)), "");
        assert_eq!(profile.context_path(&prog, ContextId(1)), "main");
    }
}

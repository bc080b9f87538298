//! Calling-context-sensitive reuse collection — the §IV extension.
//!
//! The paper keeps patterns context-insensitive by default ("for most
//! scientific programs separating the data based on the calling context
//! may dilute the significance of some important reuse patterns") but
//! notes that "the data collection infrastructure can be extended to
//! include calling context as well". This analyzer is that extension:
//! every pattern is additionally keyed by the *call path* (the chain of
//! routine scopes active at the sink), so a helper routine invoked from
//! two phases reports its reuse separately per phase.

use crate::blocktable::BlockTable;
use crate::histogram::Histogram;
use crate::scopestack::ScopeStack;
use crate::timebits::TimeBits;
use reuselens_ir::{AccessKind, Program, RefId, ScopeId, ScopeKind};
use reuselens_trace::TraceSink;
use std::collections::HashMap;

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

    /// Contexts under which `sink` was observed.
    pub fn contexts_of_sink(&self, sink: RefId) -> Vec<ContextId> {
        let mut out: Vec<ContextId> = self
            .patterns
            .iter()
            .filter(|p| p.key.sink == sink)
            .map(|p| p.key.context)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Context-sensitive counterpart of
/// [`ReuseAnalyzer`](crate::ReuseAnalyzer).
///
/// # Examples
///
/// ```
/// use reuselens_core::ContextAnalyzer;
/// use reuselens_ir::{Expr, ProgramBuilder};
/// use reuselens_trace::Executor;
///
/// // One helper touching one array, called from two phases.
/// let mut p = ProgramBuilder::new("ctx");
/// let a = p.array("a", 8, &[64]);
/// let helper = p.declare_routine("helper");
/// let phase1 = p.declare_routine("phase1");
/// let phase2 = p.declare_routine("phase2");
/// let main = p.routine("main", |r| {
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
/// p.set_entry(main);
/// let prog = p.finish();
///
/// let mut an = ContextAnalyzer::new(&prog, 64);
/// Executor::new(&prog).run(&mut an)?;
/// let profile = an.finish();
/// // The helper's load shows up under two distinct calling contexts.
/// let sink = prog.references()[0].id();
/// assert_eq!(profile.contexts_of_sink(sink).len(), 2);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct ContextAnalyzer {
    block_shift: u32,
    clock: u64,
    table: BlockTable,
    times: TimeBits,
    stack: ScopeStack,
    /// Routine scopes currently active (the call path).
    call_path: Vec<ScopeId>,
    /// Which scopes are routine scopes.
    is_routine: Vec<bool>,
    /// Interned call paths.
    context_ids: HashMap<Vec<ScopeId>, ContextId>,
    contexts: Vec<Vec<ScopeId>>,
    current_ctx: ContextId,
    patterns: HashMap<CtxPatternKey, Histogram>,
    cold: Vec<u64>,
    ref_scopes: Vec<ScopeId>,
}

impl ContextAnalyzer {
    /// Creates a context-sensitive analyzer at the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(program: &Program, block_size: u64) -> ContextAnalyzer {
        assert!(block_size.is_power_of_two(), "block size must be power of two");
        let is_routine = program
            .scopes()
            .iter()
            .map(|s| matches!(s.kind(), ScopeKind::Routine(_)))
            .collect();
        let mut a = ContextAnalyzer {
            block_shift: block_size.trailing_zeros(),
            clock: 0,
            table: BlockTable::new(),
            times: TimeBits::new(),
            stack: ScopeStack::new(),
            call_path: Vec::new(),
            is_routine,
            context_ids: HashMap::new(),
            contexts: Vec::new(),
            current_ctx: ContextId(0),
            patterns: HashMap::new(),
            cold: vec![0; program.references().len()],
            ref_scopes: program.references().iter().map(|r| r.scope()).collect(),
        };
        a.current_ctx = a.intern(Vec::new());
        a
    }

    fn intern(&mut self, path: Vec<ScopeId>) -> ContextId {
        if let Some(&id) = self.context_ids.get(&path) {
            return id;
        }
        let id = ContextId(self.contexts.len() as u32);
        self.contexts.push(path.clone());
        self.context_ids.insert(path, id);
        id
    }

    /// Consumes the analyzer, producing the context-sensitive profile.
    pub fn finish(self) -> ContextProfile {
        let mut patterns: Vec<CtxPattern> = self
            .patterns
            .into_iter()
            .map(|(key, histogram)| CtxPattern { key, histogram })
            .collect();
        patterns.sort_by_key(|p| p.key);
        ContextProfile {
            block_size: 1 << self.block_shift,
            patterns,
            contexts: self.contexts,
            cold: self.cold,
            total_accesses: self.clock,
        }
    }
}

impl TraceSink for ContextAnalyzer {
    fn access(&mut self, r: RefId, addr: u64, _size: u32, _kind: AccessKind) {
        let block = addr >> self.block_shift;
        self.clock += 1;
        let now = self.clock;
        match self.table.get(block) {
            Some(prev) => {
                let (_, distance) = self.times.count_reinsert(prev.time, now);
                let key = CtxPatternKey {
                    sink: r,
                    source_scope: self.ref_scopes[prev.ref_id as usize],
                    carrier: self.stack.carrier(prev.time),
                    context: self.current_ctx,
                };
                self.patterns.entry(key).or_default().add(distance);
            }
            None => {
                self.cold[r.index()] += 1;
                self.times.insert(now);
            }
        }
        self.table.set(block, now, r.0);
    }

    fn enter(&mut self, scope: ScopeId) {
        self.stack.enter(scope, self.clock);
        if self.is_routine[scope.index()] {
            self.call_path.push(scope);
            self.current_ctx = self.intern(self.call_path.clone());
        }
    }

    fn exit(&mut self, scope: ScopeId) {
        self.stack.exit(scope);
        if self.is_routine[scope.index()] {
            let popped = self.call_path.pop();
            debug_assert_eq!(popped, Some(scope), "unbalanced routine exits");
            self.current_ctx = self.intern(self.call_path.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::ReuseAnalyzer;
    use reuselens_ir::ProgramBuilder;
    use reuselens_trace::Executor;

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

    #[test]
    fn contexts_split_the_helpers_patterns() {
        let prog = two_phase_program();
        let mut an = ContextAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        let profile = an.finish();
        let sink = prog.references()[0].id();
        let ctxs = profile.contexts_of_sink(sink);
        assert_eq!(ctxs.len(), 2, "expected two calling contexts");
        // The rendered paths name the two phases.
        let paths: Vec<String> = ctxs
            .iter()
            .map(|&c| profile.context_path(&prog, c))
            .collect();
        assert!(paths.iter().any(|p| p.contains("phase1")));
        assert!(paths.iter().any(|p| p.contains("phase2")));
        for p in &paths {
            assert!(p.starts_with("main -> "));
            assert!(p.ends_with("-> helper"));
        }
    }

    #[test]
    fn context_sensitive_totals_match_context_insensitive() {
        let prog = two_phase_program();
        let mut ctx = ContextAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut ctx).unwrap();
        let cp = ctx.finish();

        let mut flat = ReuseAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut flat).unwrap();
        let fp = flat.finish();

        assert_eq!(cp.total_accesses, fp.total_accesses);
        assert_eq!(cp.cold, fp.cold);
        let ctx_reuses: u64 = cp.patterns.iter().map(|p| p.histogram.total()).sum();
        assert_eq!(ctx_reuses, fp.total_reuses());
        // Merging context-split histograms recovers the flat ones.
        let mut merged = Histogram::new();
        for p in &cp.patterns {
            merged.merge(&p.histogram);
        }
        let mut flat_all = Histogram::new();
        for p in &fp.patterns {
            flat_all.merge(&p.histogram);
        }
        assert_eq!(merged, flat_all);
    }

    #[test]
    fn root_context_is_empty_path() {
        let prog = two_phase_program();
        let mut an = ContextAnalyzer::new(&prog, 64);
        Executor::new(&prog).run(&mut an).unwrap();
        let profile = an.finish();
        assert!(profile.contexts[0].is_empty());
        assert_eq!(profile.context_path(&prog, ContextId(0)), "");
    }
}

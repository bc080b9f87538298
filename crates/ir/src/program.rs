//! The [`Program`]: routines, arrays, references, and the static scope tree.

use crate::affine::{affine_form, AddressPlan, Affine, PlanDim};
use crate::array::{ArrayDecl, ArrayKind};
use crate::expr::Expr;
use crate::ids::{ArrayId, RefId, RoutineId, ScopeId, VarId};
use crate::stmt::{walk_stmts, Reference, Stmt};
use std::error::Error;
use std::fmt;

/// What a scope node in the static scope tree represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScopeKind {
    /// The program root (aggregates everything).
    Program,
    /// A routine body.
    Routine(RoutineId),
    /// A loop; carries its induction variable.
    Loop(VarId),
}

/// A node in the static scope tree: program → routines → (nested) loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeInfo {
    pub(crate) id: ScopeId,
    pub(crate) kind: ScopeKind,
    pub(crate) name: String,
    pub(crate) parent: Option<ScopeId>,
    pub(crate) routine: Option<RoutineId>,
}

impl ScopeInfo {
    /// This scope's id.
    pub fn id(&self) -> ScopeId {
        self.id
    }

    /// What the scope represents.
    pub fn kind(&self) -> ScopeKind {
        self.kind
    }

    /// Human-readable name (`"main"`, `"loop j"`, `"idiag"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parent scope in the static tree (`None` for the root).
    pub fn parent(&self) -> Option<ScopeId> {
        self.parent
    }

    /// The routine that (statically) contains this scope; `None` for the
    /// program root.
    pub fn routine(&self) -> Option<RoutineId> {
        self.routine
    }

    /// True when this scope is a loop.
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, ScopeKind::Loop(_))
    }
}

/// A routine: a named body of statements with its own scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Routine {
    pub(crate) id: RoutineId,
    pub(crate) name: String,
    pub(crate) scope: ScopeId,
    pub(crate) body: Vec<Stmt>,
}

impl Routine {
    /// This routine's id.
    pub fn id(&self) -> RoutineId {
        self.id
    }

    /// The routine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scope the routine body defines.
    pub fn scope(&self) -> ScopeId {
        self.scope
    }

    /// The statements of the body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }
}

/// Error produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError(String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid program: {}", self.0)
    }
}

impl Error for ValidateError {}

/// A complete analyzable program, produced by
/// [`ProgramBuilder::finish`](crate::ProgramBuilder::finish).
///
/// The program owns the array table (with assigned base addresses), the
/// reference table, the static scope tree, and the routines. It is immutable
/// after construction; the trace executor and the static analyses only read
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) arrays: Vec<ArrayDecl>,
    pub(crate) refs: Vec<Reference>,
    pub(crate) scopes: Vec<ScopeInfo>,
    pub(crate) routines: Vec<Routine>,
    pub(crate) var_names: Vec<String>,
    pub(crate) entry: RoutineId,
}

impl Program {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry routine executed by the trace executor.
    pub fn entry(&self) -> RoutineId {
        self.entry
    }

    /// All declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Looks up an array declaration.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Finds an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// All static memory references.
    pub fn references(&self) -> &[Reference] {
        &self.refs
    }

    /// Looks up a reference.
    pub fn reference(&self, id: RefId) -> &Reference {
        &self.refs[id.index()]
    }

    /// All scope-tree nodes, indexed by [`ScopeId`].
    pub fn scopes(&self) -> &[ScopeInfo] {
        &self.scopes
    }

    /// Looks up a scope node.
    pub fn scope(&self, id: ScopeId) -> &ScopeInfo {
        &self.scopes[id.index()]
    }

    /// All routines, indexed by [`RoutineId`].
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// Looks up a routine.
    pub fn routine(&self, id: RoutineId) -> &Routine {
        &self.routines[id.index()]
    }

    /// Finds a routine by name.
    pub fn routine_by_name(&self, name: &str) -> Option<RoutineId> {
        self.routines
            .iter()
            .position(|r| r.name == name)
            .map(|i| RoutineId(i as u32))
    }

    /// Finds a scope by its display name (first match).
    pub fn scope_by_name(&self, name: &str) -> Option<ScopeId> {
        self.scopes
            .iter()
            .position(|s| s.name == name)
            .map(|i| ScopeId(i as u32))
    }

    /// Name of a scalar variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of declared scalar variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Iterates a scope's ancestors from itself up to (and including) the
    /// program root.
    pub fn ancestors(&self, scope: ScopeId) -> Ancestors<'_> {
        Ancestors {
            program: self,
            next: Some(scope),
        }
    }

    /// True when `outer` is `inner` or one of its static ancestors.
    pub fn is_ancestor(&self, outer: ScopeId, inner: ScopeId) -> bool {
        self.ancestors(inner).any(|s| s == outer)
    }

    /// Depth of a scope in the static tree (root = 0).
    pub fn depth(&self, scope: ScopeId) -> usize {
        self.ancestors(scope).count() - 1
    }

    /// Lowest common ancestor of two scopes in the static tree.
    pub fn lca(&self, a: ScopeId, b: ScopeId) -> ScopeId {
        let path_a: Vec<ScopeId> = self.ancestors(a).collect();
        self.ancestors(b)
            .find(|s| path_a.contains(s))
            .unwrap_or(ScopeId::ROOT)
    }

    /// Enclosing loop scopes of a scope, innermost first, staying inside the
    /// scope's routine (this is the nest the static stride analysis walks).
    pub fn enclosing_loops(&self, scope: ScopeId) -> Vec<ScopeId> {
        let mut out = Vec::new();
        for s in self.ancestors(scope) {
            match self.scope(s).kind {
                ScopeKind::Loop(_) => out.push(s),
                ScopeKind::Routine(_) | ScopeKind::Program => break,
            }
        }
        out
    }

    /// The routine statically containing a scope (`None` only for the root).
    pub fn routine_of(&self, scope: ScopeId) -> Option<RoutineId> {
        self.scope(scope).routine
    }

    /// The induction variable of a loop scope.
    pub fn loop_var(&self, scope: ScopeId) -> Option<VarId> {
        match self.scope(scope).kind {
            ScopeKind::Loop(v) => Some(v),
            _ => None,
        }
    }

    /// References whose innermost enclosing scope is within `scope`
    /// (inclusive, static containment).
    pub fn references_under(&self, scope: ScopeId) -> Vec<RefId> {
        self.refs
            .iter()
            .filter(|r| self.is_ancestor(scope, r.scope))
            .map(|r| r.id)
            .collect()
    }

    /// Structural checks: ids in range, calls resolve, loads only read index
    /// arrays, every `Stmt::Access` id matches its table entry.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.entry.index() >= self.routines.len() {
            return Err(ValidateError(format!(
                "entry routine {} out of range",
                self.entry
            )));
        }
        for (i, s) in self.scopes.iter().enumerate() {
            if s.id.index() != i {
                return Err(ValidateError(format!("scope table misindexed at {i}")));
            }
            if let Some(p) = s.parent {
                if p.index() >= self.scopes.len() {
                    return Err(ValidateError(format!("scope {} has bad parent", s.id)));
                }
            } else if s.id != ScopeId::ROOT {
                return Err(ValidateError(format!(
                    "non-root scope {} lacks parent",
                    s.id
                )));
            }
        }
        for r in &self.refs {
            let arr = r
                .array
                .index()
                .checked_sub(0)
                .filter(|&i| i < self.arrays.len())
                .ok_or_else(|| ValidateError(format!("{} has bad array id", r.id)))?;
            if r.indices.len() != self.arrays[arr].dims.len() {
                return Err(ValidateError(format!(
                    "{} subscript count {} != rank {} of {}",
                    r.id,
                    r.indices.len(),
                    self.arrays[arr].dims.len(),
                    self.arrays[arr].name
                )));
            }
            let mut loads = Vec::new();
            for e in &r.indices {
                e.collect_loads(&mut loads);
            }
            for l in loads {
                if l.index() >= self.arrays.len() {
                    return Err(ValidateError(format!("{} loads from bad array", r.id)));
                }
                if self.arrays[l.index()].kind != ArrayKind::Index {
                    return Err(ValidateError(format!(
                        "{} indirects through non-index array {}",
                        r.id,
                        self.arrays[l.index()].name
                    )));
                }
            }
        }
        for rtn in &self.routines {
            let mut err = None;
            walk_stmts(&rtn.body, &mut |s| {
                if err.is_some() {
                    return;
                }
                match s {
                    Stmt::Access(r) if r.index() >= self.refs.len() => {
                        err = Some(format!("routine {} uses bad {r}", rtn.name));
                    }
                    Stmt::Call(target) if target.index() >= self.routines.len() => {
                        err = Some(format!("routine {} calls bad {target}", rtn.name));
                    }
                    Stmt::Assign { var, .. } if var.index() >= self.var_names.len() => {
                        err = Some(format!("routine {} assigns bad {var}", rtn.name));
                    }
                    _ => {}
                }
            });
            if let Some(msg) = err {
                return Err(ValidateError(msg));
            }
        }
        Ok(())
    }

    /// Total declared data footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayDecl::size_bytes).sum()
    }

    /// Qualified display path of a scope, e.g. `"sweep/idiag"`.
    pub fn scope_path(&self, scope: ScopeId) -> String {
        let mut parts: Vec<&str> = self
            .ancestors(scope)
            .map(|s| self.scope(s).name.as_str())
            .collect();
        parts.pop(); // drop the program root
        parts.reverse();
        parts.join("/")
    }

    /// Lowers the subscripts of an access to `array` to an
    /// [`AddressPlan`], so its addresses can be computed without walking
    /// `Expr` trees. `None` when the subscript count differs from the
    /// array's rank or a subscript has no [`affine_form`]: an indirect
    /// load, a non-constant `*`, `/`, `%`, `min` or `max`, or a constant
    /// fold that would trap. Never panics for an array of this program.
    pub fn address_plan(&self, array: ArrayId, indices: &[Expr]) -> Option<AddressPlan> {
        let decl = self.array(array);
        if indices.len() != decl.dims().len() {
            return None;
        }
        let dims = indices
            .iter()
            .zip(decl.dims())
            .enumerate()
            .map(|(d, (e, &extent))| {
                Some(PlanDim {
                    index: affine_form(e)?,
                    extent,
                    byte_stride: decl.byte_stride_of_dim(d),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(AddressPlan {
            base: decl.base(),
            dims,
        })
    }

    /// The affine form of a reference's linearized byte offset within its
    /// array (base not included): [`Program::address_plan`]'s
    /// [`byte_offset`](AddressPlan::byte_offset).
    pub fn byte_offset_expr(&self, r: &Reference) -> Option<Affine> {
        self.address_plan(r.array, &r.indices)
            .map(|plan| plan.byte_offset())
    }

    /// Makes calling context part of the program text: every routine is
    /// cloned once per distinct call path from the entry routine, with
    /// fresh routine, scope and reference ids. Arrays (with their base
    /// addresses) and variables are shared, so the split program's trace
    /// is this program's trace with ids renamed, and any reuse engine
    /// measures context-keyed patterns on it. Routines the entry never
    /// reaches are dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] when the program fails
    /// [`validate`](Self::validate) or a routine calls itself, directly or
    /// through other routines: a recursive call has no finite set of call
    /// paths.
    pub fn split_contexts(&self) -> Result<ContextSplit, ValidateError> {
        self.validate()?;
        let mut split = ContextSplit {
            program: Program {
                name: self.name.clone(),
                arrays: self.arrays.clone(),
                refs: Vec::new(),
                scopes: vec![self.scopes[ScopeId::ROOT.index()].clone()],
                routines: Vec::new(),
                var_names: self.var_names.clone(),
                // The entry is cloned first.
                entry: RoutineId(0),
            },
            ref_origin: Vec::new(),
            scope_origin: vec![ScopeId::ROOT],
            contexts: vec![Vec::new()],
            original_refs: self.refs.len(),
        };
        split.clone_routine(self, self.entry, &mut Vec::new())?;
        Ok(split)
    }
}

/// A program split by calling context ([`Program::split_contexts`]) and
/// the maps from its ids back to the original program's.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextSplit {
    /// The split program: routine `k` runs in context `k + 1`.
    pub program: Program,
    /// Per split reference: the original reference and the index into
    /// [`contexts`](Self::contexts) of the call path it runs under.
    pub ref_origin: Vec<(RefId, u32)>,
    /// Per split scope: the original scope.
    pub scope_origin: Vec<ScopeId>,
    /// Call paths as the original routine scopes, outermost first.
    /// Context 0 is the empty root path.
    pub contexts: Vec<Vec<ScopeId>>,
    /// Number of references in the original program.
    pub original_refs: usize,
}

impl ContextSplit {
    /// The clone of `src`'s routine `id` called along `path` (routines,
    /// outermost first), made on the path's first call.
    fn clone_routine(
        &mut self,
        src: &Program,
        id: RoutineId,
        path: &mut Vec<RoutineId>,
    ) -> Result<RoutineId, ValidateError> {
        let rtn = src.routine(id);
        if path.contains(&id) {
            return Err(ValidateError(format!("routine {} is recursive", rtn.name)));
        }
        path.push(id);
        let call_path: Vec<ScopeId> = path.iter().map(|&r| src.routine(r).scope).collect();
        let clone = match self.contexts.iter().position(|c| *c == call_path) {
            Some(context) => RoutineId(context as u32 - 1),
            None => {
                let clone = RoutineId(self.program.routines.len() as u32);
                self.contexts.push(call_path);
                let scope = self.clone_scope(src, rtn.scope, ScopeId::ROOT, clone);
                self.program.routines.push(Routine {
                    id: clone,
                    name: rtn.name.clone(),
                    scope,
                    body: Vec::new(),
                });
                let mut body = rtn.body.clone();
                self.rename(src, &mut body, scope, clone, path)?;
                self.program.routines[clone.index()].body = body;
                clone
            }
        };
        path.pop();
        Ok(clone)
    }

    /// Appends a copy of `src`'s scope `orig` under `parent`, inside
    /// routine clone `routine`.
    fn clone_scope(
        &mut self,
        src: &Program,
        orig: ScopeId,
        parent: ScopeId,
        routine: RoutineId,
    ) -> ScopeId {
        let id = ScopeId(self.program.scopes.len() as u32);
        let mut info = src.scope(orig).clone();
        info.id = id;
        info.parent = Some(parent);
        info.routine = Some(routine);
        if let ScopeKind::Routine(r) = &mut info.kind {
            *r = routine;
        }
        self.program.scopes.push(info);
        self.scope_origin.push(orig);
        id
    }

    /// Gives a body copied into `scope` of routine clone `routine` fresh
    /// scope, reference and callee ids.
    fn rename(
        &mut self,
        src: &Program,
        body: &mut [Stmt],
        scope: ScopeId,
        routine: RoutineId,
        path: &mut Vec<RoutineId>,
    ) -> Result<(), ValidateError> {
        for stmt in body {
            match stmt {
                Stmt::Loop(l) => {
                    l.scope = self.clone_scope(src, l.scope, scope, routine);
                    self.rename(src, &mut l.body, l.scope, routine, path)?;
                }
                Stmt::Access(r) => {
                    let id = RefId(self.program.refs.len() as u32);
                    self.program.refs.push(Reference {
                        id,
                        scope,
                        ..src.reference(*r).clone()
                    });
                    self.ref_origin.push((*r, routine.0 + 1));
                    *r = id;
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.rename(src, then_body, scope, routine, path)?;
                    self.rename(src, else_body, scope, routine, path)?;
                }
                Stmt::Assign { .. } => {}
                Stmt::Call(target) => *target = self.clone_routine(src, *target, path)?,
            }
        }
        Ok(())
    }
}

/// Iterator over a scope's ancestor chain. Created by [`Program::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    program: &'a Program,
    next: Option<ScopeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = ScopeId;

    fn next(&mut self) -> Option<ScopeId> {
        let cur = self.next?;
        self.next = self.program.scope(cur).parent;
        Some(cur)
    }
}

#[allow(unused_imports)]
use crate::builder::ProgramBuilder;

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::ids::ScopeId;

    fn two_level() -> super::Program {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[16, 16]);
        p.routine("main", |r| {
            r.for_("j", 0, 15, |r, j| {
                r.for_("i", 0, 15, |r, i| {
                    r.load(a, vec![i.into(), j.into()]);
                });
            });
        });
        p.finish()
    }

    #[test]
    fn scope_tree_shape() {
        let p = two_level();
        assert!(p.validate().is_ok());
        let main = p.routine_by_name("main").unwrap();
        let main_scope = p.routine(main).scope();
        assert_eq!(p.scope(main_scope).parent(), Some(ScopeId::ROOT));
        let j = p.scope_by_name("j").unwrap();
        let i = p.scope_by_name("i").unwrap();
        assert_eq!(p.scope(j).parent(), Some(main_scope));
        assert_eq!(p.scope(i).parent(), Some(j));
        assert_eq!(p.depth(i), 3);
        assert!(p.is_ancestor(j, i));
        assert!(!p.is_ancestor(i, j));
        assert_eq!(p.lca(i, j), j);
        assert_eq!(p.scope_path(i), "main/j/i");
    }

    #[test]
    fn enclosing_loops_innermost_first() {
        let p = two_level();
        let i = p.scope_by_name("i").unwrap();
        let j = p.scope_by_name("j").unwrap();
        let r = &p.references()[0];
        assert_eq!(r.scope(), i);
        assert_eq!(p.enclosing_loops(r.scope()), vec![i, j]);
    }

    #[test]
    fn byte_offset_expr_linearizes() {
        let p = two_level();
        let r = &p.references()[0];
        let aff = p.byte_offset_expr(r).unwrap();
        // offset = 8*i + 128*j
        let i_var = p.loop_var(p.scope_by_name("i").unwrap()).unwrap();
        let j_var = p.loop_var(p.scope_by_name("j").unwrap()).unwrap();
        assert_eq!(aff.coeff(i_var), 8);
        assert_eq!(aff.coeff(j_var), 128);
    }

    #[test]
    fn address_plan_matches_decl_address() {
        use crate::array::{ArrayKind, Layout};
        use crate::expr::Expr;
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[5, 4, 3]);
        let r = p.array_with("r", 4, &[5, 4, 3], Layout::RowMajor, ArrayKind::Data);
        let ix = p.index_array("ix", &[4]);
        p.routine("main", |b| {
            b.for_("i", 0, 4, |b, i| {
                b.load(a, vec![i.into(), Expr::var(i) - 1, Expr::c(7).div(3)]);
                b.load(r, vec![Expr::c(4) - i, Expr::c(0), Expr::var(i) * 2 - 6]);
                // Not lowered: indirect, non-constant division, trapping
                // fold, wrong rank.
                b.load(a, vec![Expr::load(ix, vec![i.into()]), 0.into(), 0.into()]);
                b.load(a, vec![Expr::var(i).div(2), 0.into(), 0.into()]);
                b.load(a, vec![i.into(), Expr::c(1).div(0), 0.into()]);
                b.load(a, vec![i.into(), 0.into()]);
            });
        });
        let prog = p.finish();
        let refs = prog.references();
        let i_var = prog.loop_var(prog.scope_by_name("i").unwrap()).unwrap();
        for r in &refs[..2] {
            let plan = prog.address_plan(r.array(), r.indices()).unwrap();
            let decl = prog.array(r.array());
            assert_eq!(plan.base, decl.base());
            for v in -2..8 {
                let mut vars = vec![0; prog.var_count()];
                vars[i_var.index()] = v;
                let indices = plan.indices(&vars);
                assert_eq!(plan.address(&vars), decl.address(&indices), "i = {v}");
            }
            assert_eq!(prog.byte_offset_expr(r), Some(plan.byte_offset()));
        }
        for r in &refs[2..] {
            assert_eq!(
                prog.address_plan(r.array(), r.indices()),
                None,
                "{}",
                r.label()
            );
            assert_eq!(prog.byte_offset_expr(r), None);
        }
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let p = two_level();
        assert_eq!(p.footprint_bytes(), 16 * 16 * 8);
    }

    /// A helper called from two phases, once of them twice, and a
    /// routine the entry never calls.
    fn two_phase() -> super::Program {
        let mut p = ProgramBuilder::new("twophase");
        let a = p.array("a", 8, &[8]);
        let helper = p.declare_routine("helper");
        let phase1 = p.declare_routine("phase1");
        let phase2 = p.declare_routine("phase2");
        p.routine("main", |r| {
            r.call(phase1);
            r.call(phase2);
        });
        p.define_routine(phase1, |r| {
            r.call(helper);
            r.call(helper);
        });
        p.define_routine(phase2, |r| r.call(helper));
        p.define_routine(helper, |r| {
            r.for_("i", 0, 7, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        p.routine("unused", |r| {
            r.load(a, vec![0.into()]);
        });
        p.finish()
    }

    #[test]
    fn split_contexts_clones_routines_per_call_path() {
        use super::{ScopeKind, Stmt};
        use crate::ids::RefId;
        let p = two_phase();
        let split = p.split_contexts().unwrap();
        let q = &split.program;
        q.validate().unwrap();
        assert_eq!(q.arrays(), p.arrays());
        assert_eq!(q.var_count(), p.var_count());
        let names: Vec<&str> = q.routines().iter().map(|r| r.name()).collect();
        assert_eq!(names, ["main", "phase1", "helper", "phase2", "helper"]);
        assert_eq!(q.routine(q.entry()).name(), "main");
        let scope = |name| p.routine(p.routine_by_name(name).unwrap()).scope();
        let (main, phase1, phase2, helper) = (
            scope("main"),
            scope("phase1"),
            scope("phase2"),
            scope("helper"),
        );
        assert_eq!(
            split.contexts,
            vec![
                vec![],
                vec![main],
                vec![main, phase1],
                vec![main, phase1, helper],
                vec![main, phase2],
                vec![main, phase2, helper],
            ]
        );
        // Calling the helper twice from one phase is one call path.
        assert_eq!(split.ref_origin, vec![(RefId(0), 3), (RefId(0), 5)]);
        assert_eq!(split.original_refs, 2);
        for (k, r) in q.routines().iter().enumerate() {
            assert_eq!(
                split.contexts[k + 1].last(),
                Some(&split.scope_origin[r.scope().index()])
            );
            assert_eq!(q.scope(r.scope()).kind(), ScopeKind::Routine(r.id()));
        }
        for (r, &(orig, _)) in q.references().iter().zip(&split.ref_origin) {
            assert_eq!(
                split.scope_origin[r.scope().index()],
                p.reference(orig).scope()
            );
            assert_eq!(r.indices(), p.reference(orig).indices());
        }
        for s in q.scopes() {
            let orig = p.scope(split.scope_origin[s.id().index()]);
            assert_eq!((s.name(), s.is_loop()), (orig.name(), orig.is_loop()));
        }
        let calls: Vec<Stmt> = q.routine(crate::ids::RoutineId(1)).body().to_vec();
        assert_eq!(calls, vec![Stmt::Call(crate::ids::RoutineId(2)); 2]);
    }

    #[test]
    fn split_contexts_rejects_recursion() {
        let mut p = ProgramBuilder::new("rec");
        let a = p.array("a", 8, &[8]);
        let odd = p.declare_routine("odd");
        let even = p.declare_routine("even");
        let main = p.routine("main", |r| r.call(even));
        p.define_routine(even, |r| {
            r.load(a, vec![0.into()]);
            r.call(odd);
        });
        p.define_routine(odd, |r| r.call(even));
        p.set_entry(main);
        let err = p.finish().split_contexts().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid program: routine even is recursive"
        );
    }

    #[test]
    fn references_under_scope() {
        let p = two_level();
        let main = p.routine(p.entry()).scope();
        assert_eq!(p.references_under(main).len(), 1);
        let i = p.scope_by_name("i").unwrap();
        assert_eq!(p.references_under(i).len(), 1);
    }
}

//! The dynamic scope stack and carrying-scope search.
//!
//! On scope entry the analyzer pushes `(scope, access clock)`; the scope
//! *carrying* a reuse is the most recent still-active scope entered before
//! the previous access to the block — the paper's "shallowest entry whose
//! access clock is less than the access clock value associated with the
//! previous access". Entry clocks increase monotonically toward the top of
//! the stack, so the search is a binary search rather than a linear
//! traversal.

use reuselens_ir::ScopeId;

/// Dynamic stack of active scopes with their entry clocks.
///
/// # Examples
///
/// ```
/// use reuselens_core::ScopeStack;
/// use reuselens_ir::ScopeId;
///
/// let mut s = ScopeStack::new();
/// s.enter(ScopeId(1), 0);   // routine entered before any access
/// s.enter(ScopeId(2), 10);  // loop entered after 10 accesses
/// // A reuse whose previous access happened at time 5 is carried by the
/// // routine: the loop was entered after that access.
/// assert_eq!(s.carrier(5), ScopeId(1));
/// assert_eq!(s.carrier(11), ScopeId(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStack {
    entries: Vec<(ScopeId, u64)>,
}

impl Default for ScopeStack {
    fn default() -> ScopeStack {
        ScopeStack::new()
    }
}

impl ScopeStack {
    /// Creates a stack holding only the program root (entered at clock 0).
    pub fn new() -> ScopeStack {
        ScopeStack {
            entries: vec![(ScopeId::ROOT, 0)],
        }
    }

    /// Builds a stack with the program root plus the given already-open
    /// scopes and their entry clocks — how a snapshot's stack is
    /// restored.
    pub(crate) fn with_open_scopes(scopes: &[(ScopeId, u64)]) -> ScopeStack {
        let mut entries = Vec::with_capacity(scopes.len() + 1);
        entries.push((ScopeId::ROOT, 0));
        entries.extend_from_slice(scopes);
        ScopeStack { entries }
    }

    /// The open scopes above the implicit root, with their entry clocks —
    /// the inverse of [`with_open_scopes`](Self::with_open_scopes), used
    /// to serialize the stack into a snapshot.
    pub(crate) fn open_scopes(&self) -> &[(ScopeId, u64)] {
        &self.entries[1..]
    }

    /// Pushes a scope entered when `clock` accesses had executed.
    pub fn enter(&mut self, scope: ScopeId, clock: u64) {
        debug_assert!(
            self.entries
                .last()
                .map(|&(_, c)| c <= clock)
                .unwrap_or(true),
            "entry clocks must be monotone"
        );
        self.entries.push((scope, clock));
    }

    /// Pops the top scope.
    ///
    /// # Panics
    ///
    /// Panics if the popped scope does not match `scope` (unbalanced
    /// enter/exit events) or only the root remains.
    pub fn exit(&mut self, scope: ScopeId) {
        let top = match self.entries.pop() {
            Some((top, _)) => top,
            None => panic!("scope stack underflow"),
        };
        assert_eq!(top, scope, "unbalanced scope exit");
        assert!(!self.entries.is_empty(), "program root popped");
    }

    /// Current nesting depth (root included).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// The innermost active scope.
    pub fn current(&self) -> ScopeId {
        match self.entries.last() {
            Some(&(scope, _)) => scope,
            None => panic!("stack never empty"),
        }
    }

    /// The scope carrying a reuse whose previous access happened at logical
    /// time `t_prev` (≥ 1): the topmost active scope entered strictly before
    /// that access.
    pub fn carrier(&self, t_prev: u64) -> ScopeId {
        // Short reuses dominate real streams, and for them the innermost
        // scope was entered before the previous access — answer those with
        // one comparison before falling back to the binary search.
        if let Some(&(scope, clock)) = self.entries.last() {
            if clock < t_prev {
                return scope;
            }
        }
        let idx = self.entries.partition_point(|&(_, clock)| clock < t_prev);
        // idx >= 1 because the root has entry clock 0 and t_prev >= 1.
        self.entries[idx - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_prng::SplitMix64;

    #[test]
    fn root_carries_everything_initially() {
        let s = ScopeStack::new();
        assert_eq!(s.carrier(1), ScopeId::ROOT);
        assert_eq!(s.carrier(u64::MAX), ScopeId::ROOT);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn scope_entered_at_t_prev_is_not_the_carrier() {
        let mut s = ScopeStack::new();
        s.enter(ScopeId(1), 0);
        s.enter(ScopeId(2), 5);
        // previous access at t=5 happened before scope 2 was pushed
        assert_eq!(s.carrier(5), ScopeId(1));
        assert_eq!(s.carrier(6), ScopeId(2));
    }

    #[test]
    fn exit_restores_outer_carrier() {
        let mut s = ScopeStack::new();
        s.enter(ScopeId(1), 0);
        s.enter(ScopeId(2), 3);
        s.exit(ScopeId(2));
        s.enter(ScopeId(3), 9);
        assert_eq!(s.carrier(4), ScopeId(1));
        assert_eq!(s.carrier(10), ScopeId(3));
        assert_eq!(s.current(), ScopeId(3));
    }

    #[test]
    #[should_panic(expected = "unbalanced scope exit")]
    fn mismatched_exit_panics() {
        let mut s = ScopeStack::new();
        s.enter(ScopeId(1), 0);
        s.exit(ScopeId(2));
    }

    /// Seeded randomized check: the binary-search carrier matches the
    /// paper's linear scan from the top of the stack.
    #[test]
    fn carrier_matches_linear_scan() {
        let mut rng = SplitMix64::seed_from_u64(0x5c0_9e57);
        for _case in 0..256 {
            let mut sorted = rng.vec_u64(1..20, 0..100);
            let t_prev = rng.gen_range(1..120);
            sorted.sort_unstable();
            let mut s = ScopeStack::new();
            for (i, &c) in sorted.iter().enumerate() {
                s.enter(ScopeId(i as u32 + 1), c);
            }
            // Linear scan from the top, as the paper describes.
            let mut expected = ScopeId::ROOT;
            let mut entries = vec![(ScopeId::ROOT, 0u64)];
            entries.extend(
                sorted
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (ScopeId(i as u32 + 1), c)),
            );
            for &(scope, clock) in entries.iter().rev() {
                if clock < t_prev {
                    expected = scope;
                    break;
                }
            }
            assert_eq!(s.carrier(t_prev), expected);
        }
    }
}

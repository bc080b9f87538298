//! Three-C miss classification: cold / capacity / conflict.
//!
//! The reuse-distance methodology reasons about *fully associative*
//! behaviour (cold + capacity); what is left when a real set-associative
//! cache misses more is *conflict*. This module measures all three in one
//! pass by running the set-associative simulator next to a fully
//! associative twin of the same capacity — the standard Hill & Smith
//! decomposition, and a useful cross-check on the probabilistic model.

use crate::config::{Assoc, CacheConfig};
use crate::simulator::CacheSim;
use reuselens_ir::{AccessKind, RefId, ScopeId};
use reuselens_trace::TraceSink;
use std::collections::HashSet;

/// The cold / capacity / conflict decomposition of a cache's misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissBreakdown {
    /// First-touch misses (would miss in an infinite cache).
    pub cold: u64,
    /// Extra misses of a fully associative LRU cache of the same capacity.
    pub capacity: u64,
    /// Extra misses of the real set-associative cache beyond the fully
    /// associative one. (True LRU anomalies can make this negative; it is
    /// clamped at zero and the raw difference is preserved in
    /// [`MissBreakdown::raw_conflict`].)
    pub conflict: u64,
    /// Signed set-associative minus fully-associative miss difference.
    pub raw_conflict: i64,
}

impl MissBreakdown {
    /// Total misses of the set-associative cache.
    pub fn total(&self) -> u64 {
        (self.cold + self.capacity) + self.conflict
    }
}

/// A sink that simulates a cache and classifies every miss.
///
/// # Examples
///
/// ```
/// use reuselens_cache::{Assoc, CacheConfig, ThreeCSim};
/// use reuselens_ir::{AccessKind, RefId};
/// use reuselens_trace::TraceSink;
///
/// // Direct-mapped, 2 lines: blocks 0 and 2 conflict.
/// let cfg = CacheConfig::new("dm", 2 * 64, 64, Assoc::Ways(1));
/// let mut sim = ThreeCSim::new(&cfg, 1);
/// for addr in [0u64, 128, 0, 128] {
///     sim.access(RefId(0), addr, 8, AccessKind::Load);
/// }
/// let b = sim.finish();
/// assert_eq!(b.cold, 2);
/// assert_eq!(b.capacity, 0);  // both fit a fully associative cache
/// assert_eq!(b.conflict, 2);  // but evict each other in one set
/// ```
#[derive(Debug, Clone)]
pub struct ThreeCSim {
    sa: CacheSim,
    fa: CacheSim,
    seen: HashSet<u64>,
    line_shift: u32,
    cold: u64,
}

impl ThreeCSim {
    /// Creates the classifying simulator for a configuration.
    pub fn new(config: &CacheConfig, nrefs: usize) -> ThreeCSim {
        let fa_cfg = CacheConfig::new(
            &format!("{}-fa", config.name),
            config.capacity,
            config.line_size,
            Assoc::Full,
        );
        ThreeCSim {
            sa: CacheSim::new(config, nrefs),
            fa: CacheSim::new(&fa_cfg, nrefs),
            seen: HashSet::new(),
            line_shift: config.line_size.trailing_zeros(),
            cold: 0,
        }
    }

    /// Finishes the run and returns the decomposition.
    pub fn finish(self) -> MissBreakdown {
        let fa_misses = self.fa.misses();
        let sa_misses = self.sa.misses();
        let raw = sa_misses as i64 - fa_misses as i64;
        MissBreakdown {
            cold: self.cold,
            capacity: fa_misses - self.cold,
            conflict: raw.max(0) as u64,
            raw_conflict: raw,
        }
    }
}

impl TraceSink for ThreeCSim {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        if self.seen.insert(addr >> self.line_shift) {
            self.cold += 1;
        }
        self.sa.access(r, addr, size, kind);
        self.fa.access(r, addr, size, kind);
    }
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sim: &mut ThreeCSim, addrs: &[u64]) {
        for &a in addrs {
            sim.access(RefId(0), a, 8, AccessKind::Load);
        }
    }

    #[test]
    fn pure_cold_misses() {
        let cfg = CacheConfig::new("c", 8 * 64, 64, Assoc::Ways(2));
        let mut sim = ThreeCSim::new(&cfg, 1);
        feed(&mut sim, &[0, 64, 128, 192]);
        let b = sim.finish();
        assert_eq!((b.cold, b.capacity, b.conflict), (4, 0, 0));
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn capacity_misses_without_conflicts() {
        // Fully associative config: conflicts are impossible.
        let cfg = CacheConfig::new("c", 2 * 64, 64, Assoc::Full);
        let mut sim = ThreeCSim::new(&cfg, 1);
        // 3 blocks cycled twice through a 2-block cache.
        feed(&mut sim, &[0, 64, 128, 0, 64, 128]);
        let b = sim.finish();
        assert_eq!(b.cold, 3);
        assert_eq!(b.capacity, 3);
        assert_eq!(b.conflict, 0);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        // 4 lines direct-mapped; blocks 0 and 4 share set 0.
        let cfg = CacheConfig::new("c", 4 * 64, 64, Assoc::Ways(1));
        let mut sim = ThreeCSim::new(&cfg, 1);
        feed(&mut sim, &[0, 256, 0, 256, 0, 256]);
        let b = sim.finish();
        assert_eq!(b.cold, 2);
        assert_eq!(b.capacity, 0); // both fit in a 4-line FA cache
        assert_eq!(b.conflict, 4);
        assert_eq!(b.raw_conflict, 4);
    }

    #[test]
    fn gtc_smooth_conflicts_are_classified() {
        // The power-of-two-stride pathology from the GTC smooth nest: at
        // this scale the simulator attributes it to conflicts, which is
        // exactly the component the reuse-distance model cannot see.
        use reuselens_trace::Executor;
        let mut p = reuselens_ir::ProgramBuilder::new("strided");
        // Columns are 256*8 = 2048 B = 16 lines apart: with 16 sets every
        // column's head lands in the same set.
        let a = p.array("a", 8, &[256, 16]);
        p.routine("main", |r| {
            r.for_("t", 0, 4, |r, _| {
                r.for_("k", 0, 15, |r, k| {
                    r.load(a, vec![reuselens_ir::Expr::c(0), k.into()]);
                });
            });
        });
        let prog = p.finish();
        // 32 lines, 2-way => 16 sets. The 16-line walk fits the cache
        // (no capacity misses) but thrashes one 2-way set.
        let cfg = CacheConfig::new("c", 32 * 128, 128, Assoc::Ways(2));
        let mut sim = ThreeCSim::new(&cfg, prog.references().len());
        Executor::new(&prog).run(&mut sim).unwrap();
        let b = sim.finish();
        assert_eq!(b.cold, 16);
        assert_eq!(b.capacity, 0, "footprint fits the FA twin: {b:?}");
        assert!(b.conflict >= 48, "expected heavy conflicts, got {b:?}");
    }
}

//! Reference set-associative LRU cache simulator.
//!
//! Plays the role of the paper's hardware performance counters: it measures
//! *actual* misses on the same event stream the analyzer sees, so
//! reuse-distance predictions can be validated end to end.

use crate::config::CacheConfig;
use reuselens_ir::{RefId, ScopeId};
use reuselens_trace::TraceSink;

/// Simulates one cache level with true LRU replacement and counts misses
/// per static reference.
///
/// # Examples
///
/// ```
/// use reuselens_cache::{Assoc, CacheConfig, CacheSim};
/// use reuselens_ir::RefId;
/// use reuselens_trace::TraceSink;
///
/// let cfg = CacheConfig::new("tiny", 2 * 64, 64, Assoc::Full);
/// let mut sim = CacheSim::new(&cfg, 4);
/// for addr in [0u64, 64, 128, 0] {
///     sim.access(RefId(0), addr);
/// }
/// // 3 cold misses + 1 capacity miss (0 was evicted by 64,128 in a
/// // 2-line cache).
/// assert_eq!(sim.misses(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    name: String,
    line_shift: u32,
    sets: Vec<Vec<u64>>, // per-set LRU stacks, most recent first
    set_count: u64,
    ways: usize,
    accesses: u64,
    misses: u64,
    misses_per_ref: Vec<u64>,
}

impl CacheSim {
    /// Creates an LRU simulator for the given configuration; `nrefs` sizes
    /// the per-reference miss table.
    pub fn new(config: &CacheConfig, nrefs: usize) -> CacheSim {
        CacheSim {
            name: config.name.clone(),
            line_shift: config.line_size.trailing_zeros(),
            sets: vec![Vec::new(); config.sets() as usize],
            set_count: config.sets(),
            ways: config.ways() as usize,
            accesses: 0,
            misses: 0,
            misses_per_ref: vec![0; nrefs],
        }
    }

    /// The simulated level's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses (cold + capacity + conflict).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses attributed to one static reference.
    pub fn misses_of(&self, r: RefId) -> u64 {
        self.misses_per_ref.get(r.index()).copied().unwrap_or(0)
    }

    /// Measured miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl TraceSink for CacheSim {
    fn access(&mut self, r: RefId, addr: u64) {
        self.accesses += 1;
        let block = addr >> self.line_shift;
        let set = &mut self.sets[(block % self.set_count) as usize];
        match set.iter().position(|&b| b == block) {
            Some(pos) => {
                set.remove(pos);
                set.insert(0, block);
            }
            None => {
                self.misses += 1;
                if let Some(slot) = self.misses_per_ref.get_mut(r.index()) {
                    *slot += 1;
                }
                set.insert(0, block);
                set.truncate(self.ways);
            }
        }
    }

    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

/// Simulates every level of a hierarchy (caches + TLB) in one pass.
#[derive(Debug, Clone)]
pub struct HierarchySim {
    /// One simulator per cache level, nearest first.
    pub levels: Vec<CacheSim>,
    /// The TLB simulator.
    pub tlb: CacheSim,
}

impl HierarchySim {
    /// Creates simulators for all levels of `hierarchy`.
    pub fn new(hierarchy: &crate::config::MemoryHierarchy, nrefs: usize) -> HierarchySim {
        HierarchySim {
            levels: hierarchy
                .levels
                .iter()
                .map(|l| CacheSim::new(l, nrefs))
                .collect(),
            tlb: CacheSim::new(&hierarchy.tlb, nrefs),
        }
    }

    /// Misses at a named level (including `"TLB"`).
    pub fn misses_at(&self, name: &str) -> Option<u64> {
        if self.tlb.name() == name {
            return Some(self.tlb.misses());
        }
        self.levels
            .iter()
            .find(|s| s.name() == name)
            .map(CacheSim::misses)
    }
}

impl TraceSink for HierarchySim {
    fn access(&mut self, r: RefId, addr: u64) {
        for l in &mut self.levels {
            l.access(r, addr);
        }
        self.tlb.access(r, addr);
    }
    fn enter(&mut self, _scope: ScopeId) {}
    fn exit(&mut self, _scope: ScopeId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Assoc, MemoryHierarchy};
    use reuselens_core::oracle;
    use reuselens_prng::SplitMix64;

    #[test]
    fn direct_mapped_conflicts() {
        // 2 sets, 1 way, 64 B lines: blocks 0 and 2 conflict.
        let cfg = CacheConfig::new("dm", 2 * 64, 64, Assoc::Ways(1));
        let mut sim = CacheSim::new(&cfg, 1);
        for addr in [0u64, 128, 0, 128] {
            sim.access(RefId(0), addr);
        }
        assert_eq!(sim.misses(), 4); // every access conflicts
        assert_eq!(sim.misses_of(RefId(0)), 4);
        assert!((sim.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn associativity_removes_conflicts() {
        let cfg = CacheConfig::new("2w", 2 * 64, 64, Assoc::Ways(2));
        let mut sim = CacheSim::new(&cfg, 1);
        for addr in [0u64, 128, 0, 128] {
            sim.access(RefId(0), addr);
        }
        assert_eq!(sim.misses(), 2); // only cold
    }

    /// Seeded randomized differential test against the brute-force oracle.
    #[test]
    fn fully_associative_sim_matches_oracle() {
        let mut rng = SplitMix64::seed_from_u64(0x51_0acb);
        for _case in 0..64 {
            let addrs = rng.vec_u64(1..300, 0..8192);
            let cap_blocks = rng.gen_range(1..32);
            let cfg = CacheConfig::new("fa", cap_blocks * 64, 64, Assoc::Full);
            let mut sim = CacheSim::new(&cfg, 1);
            for &a in &addrs {
                sim.access(RefId(0), a);
            }
            let expected = oracle::fully_associative_misses(&addrs, 64, cap_blocks as usize);
            assert_eq!(sim.misses(), expected);
        }
    }

    #[test]
    fn hierarchy_sim_tracks_all_levels() {
        let h = MemoryHierarchy::itanium2_scaled(64);
        let mut sim = HierarchySim::new(&h, 2);
        for i in 0..10_000u64 {
            sim.access(RefId((i % 2) as u32), i * 64 % 65536);
        }
        assert!(sim.misses_at("L2").unwrap() >= sim.misses_at("L3").unwrap());
        assert!(sim.misses_at("TLB").is_some());
        assert!(sim.misses_at("L9").is_none());
    }
}

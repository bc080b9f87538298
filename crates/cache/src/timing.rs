//! Simple additive cycle model.
//!
//! The paper reports execution time and "non-stall time"; the reproduction
//! models time as a base cost per access plus a fixed penalty per miss at
//! each level. Absolute cycles will not match real Itanium2 hardware — the
//! *ratios* between code variants are what the figures compare.

use crate::config::MemoryHierarchy;

/// Predicted cycle breakdown for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Cycles spent if every access hit (the paper's "non-stall time").
    pub non_stall: f64,
    /// Added stall cycles from cache misses, per level (nearest first).
    pub level_stall: [f64; 4],
    /// Number of cache levels actually used in `level_stall`.
    pub level_count: usize,
    /// Added stall cycles from TLB misses.
    pub tlb_stall: f64,
}

impl TimingBreakdown {
    /// Total predicted cycles.
    pub fn total(&self) -> f64 {
        self.non_stall + self.level_stall[..self.level_count].iter().sum::<f64>() + self.tlb_stall
    }

    /// Fraction of cycles spent stalled.
    pub fn stall_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (t - self.non_stall) / t
        }
    }
}

/// Computes the cycle breakdown for a run with the given per-level miss
/// counts (same order as `hierarchy.levels`) and TLB misses.
///
/// # Panics
///
/// Panics if `level_misses` does not have one entry per hierarchy level or
/// the hierarchy has more than 4 levels.
pub fn predict_cycles(
    hierarchy: &MemoryHierarchy,
    accesses: u64,
    level_misses: &[f64],
    tlb_misses: f64,
) -> TimingBreakdown {
    assert_eq!(
        level_misses.len(),
        hierarchy.levels.len(),
        "one miss count per level required"
    );
    assert!(hierarchy.levels.len() <= 4, "at most 4 levels supported");
    let mut level_stall = [0.0; 4];
    for (i, (&m, &p)) in level_misses.iter().zip(&hierarchy.miss_penalty).enumerate() {
        level_stall[i] = m * p;
    }
    TimingBreakdown {
        non_stall: accesses as f64 * hierarchy.base_cpa,
        level_stall,
        level_count: hierarchy.levels.len(),
        tlb_stall: tlb_misses * hierarchy.tlb_penalty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_add_up() {
        let h = MemoryHierarchy::itanium2();
        let t = predict_cycles(&h, 1000, &[10.0, 5.0], 2.0);
        assert!((t.non_stall - 1000.0).abs() < 1e-9);
        assert!((t.level_stall[0] - 60.0).abs() < 1e-9);
        assert!((t.level_stall[1] - 550.0).abs() < 1e-9);
        assert!((t.tlb_stall - 60.0).abs() < 1e-9);
        assert!((t.total() - 1670.0).abs() < 1e-9);
        assert!(t.stall_fraction() > 0.0 && t.stall_fraction() < 1.0);
    }

    #[test]
    fn no_misses_means_no_stall() {
        let h = MemoryHierarchy::itanium2();
        let t = predict_cycles(&h, 500, &[0.0, 0.0], 0.0);
        assert_eq!(t.total(), t.non_stall);
        assert_eq!(t.stall_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one miss count per level")]
    fn wrong_level_count_panics() {
        let h = MemoryHierarchy::itanium2();
        let _ = predict_cycles(&h, 1, &[0.0], 0.0);
    }
}

//! Memory-hierarchy descriptions and presets.

use crate::error::ConfigError;
use std::fmt;

/// Cache associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assoc {
    /// Fully associative: one set holds every block.
    Full,
    /// Set-associative with this many ways.
    Ways(u32),
}

impl fmt::Display for Assoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assoc::Full => write!(f, "fully-assoc"),
            Assoc::Ways(w) => write!(f, "{w}-way"),
        }
    }
}

/// One cache level (or a TLB, which is a cache of page translations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Display name, e.g. `"L2"`.
    pub name: String,
    /// Total capacity in bytes. For a TLB this is `entries * page_size`.
    pub capacity: u64,
    /// Line size in bytes (page size for a TLB). Must be a power of two.
    pub line_size: u64,
    /// Associativity.
    pub assoc: Assoc,
}

impl CacheConfig {
    /// Creates a cache level description, validating its geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `line_size` is a power of two,
    /// `capacity` is a positive multiple of `line_size`, and the way count
    /// (if any) is nonzero and divides the block count.
    ///
    /// # Examples
    ///
    /// ```
    /// use reuselens_cache::{Assoc, CacheConfig, ConfigError};
    ///
    /// assert!(CacheConfig::try_new("L2", 256 * 1024, 128, Assoc::Ways(8)).is_ok());
    /// assert!(matches!(
    ///     CacheConfig::try_new("bad", 1024, 48, Assoc::Full),
    ///     Err(ConfigError::LineSizeNotPowerOfTwo { line_size: 48 })
    /// ));
    /// ```
    pub fn try_new(
        name: &str,
        capacity: u64,
        line_size: u64,
        assoc: Assoc,
    ) -> Result<CacheConfig, ConfigError> {
        let config = CacheConfig {
            name: name.to_string(),
            capacity,
            line_size,
            assoc,
        };
        config.validate()?;
        Ok(config)
    }

    /// Creates a cache level description.
    ///
    /// # Panics
    ///
    /// Panics where [`CacheConfig::try_new`] would return an error.
    pub fn new(name: &str, capacity: u64, line_size: u64, assoc: Assoc) -> CacheConfig {
        CacheConfig::try_new(name, capacity, line_size, assoc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Describes a TLB with `entries` translations over pages of
    /// `page_size` bytes, validating the geometry (including overflow of
    /// `entries * page_size`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on overflow or invalid geometry.
    pub fn try_tlb(
        name: &str,
        entries: u64,
        page_size: u64,
        assoc: Assoc,
    ) -> Result<CacheConfig, ConfigError> {
        let capacity = entries
            .checked_mul(page_size)
            .ok_or(ConfigError::TlbOverflow { entries, page_size })?;
        CacheConfig::try_new(name, capacity, page_size, assoc)
    }

    /// Describes a TLB with `entries` translations over pages of
    /// `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics where [`CacheConfig::try_tlb`] would return an error.
    pub fn tlb(name: &str, entries: u64, page_size: u64, assoc: Assoc) -> CacheConfig {
        CacheConfig::try_tlb(name, entries, page_size, assoc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Re-checks the geometry invariants. Useful for configurations built
    /// or mutated field-by-field (the fields are public).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line_size.is_power_of_two() {
            return Err(ConfigError::LineSizeNotPowerOfTwo {
                line_size: self.line_size,
            });
        }
        if self.capacity == 0 || !self.capacity.is_multiple_of(self.line_size) {
            return Err(ConfigError::CapacityNotMultiple {
                capacity: self.capacity,
                line_size: self.line_size,
            });
        }
        let blocks = self.capacity / self.line_size;
        if let Assoc::Ways(w) = self.assoc {
            if w == 0 || !blocks.is_multiple_of(w as u64) {
                return Err(ConfigError::WaysDontDivideBlocks { ways: w, blocks });
            }
        }
        Ok(())
    }

    /// Total number of blocks (lines / TLB entries).
    pub fn blocks(&self) -> u64 {
        self.capacity / self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        match self.assoc {
            Assoc::Full => 1,
            Assoc::Ways(w) => self.blocks() / w as u64,
        }
    }

    /// Ways per set.
    pub fn ways(&self) -> u64 {
        match self.assoc {
            Assoc::Full => self.blocks(),
            Assoc::Ways(w) => w as u64,
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} KB, {} B lines, {}",
            self.name,
            self.capacity / 1024,
            self.line_size,
            self.assoc
        )
    }
}

/// A full memory hierarchy: cache levels (outermost last) plus a TLB and
/// the latency parameters of the cycle model ([`crate::predict_cycles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryHierarchy {
    /// Display name, e.g. `"Itanium2"`.
    pub name: String,
    /// Cache levels, nearest first (L2 before L3 — the paper models the
    /// Itanium2 levels that hold data; its tiny L1 does not cache FP data).
    pub levels: Vec<CacheConfig>,
    /// The data TLB.
    pub tlb: CacheConfig,
    /// Cycles per access when everything hits (the non-stall component).
    pub base_cpa: f64,
    /// Added miss penalty in cycles per miss, one per cache level.
    pub miss_penalty: Vec<f64>,
    /// Added penalty per TLB miss.
    pub tlb_penalty: f64,
}

impl MemoryHierarchy {
    /// The Itanium2 configuration used throughout the paper's evaluation:
    /// 256 KB 8-way L2 and 1.5 MB 6-way L3 with 128-byte lines, and a
    /// 128-entry fully associative data TLB with 16 KB pages.
    ///
    /// Floating-point data on Itanium2 bypasses L1, so L2 is the first
    /// level — exactly the levels the paper predicts (L2, L3, TLB).
    pub fn itanium2() -> MemoryHierarchy {
        MemoryHierarchy {
            name: "Itanium2".to_string(),
            levels: vec![
                CacheConfig::new("L2", 256 * 1024, 128, Assoc::Ways(8)),
                CacheConfig::new("L3", 1536 * 1024, 128, Assoc::Ways(6)),
            ],
            tlb: CacheConfig::tlb("TLB", 128, 16 * 1024, Assoc::Full),
            base_cpa: 1.0,
            miss_penalty: vec![6.0, 110.0],
            tlb_penalty: 30.0,
        }
    }

    /// The Itanium2 hierarchy with every capacity divided by `factor`
    /// (line and page sizes kept), or [`MemoryHierarchy::itanium2`] itself
    /// when `factor` is 0 or 1. The reproduction runs meshes scaled down
    /// from the paper's 50³–200³ to CI-friendly sizes; shrinking the caches
    /// by the same factor preserves the *ratio* of working-set to cache
    /// size, which is what determines every crossover in the figures.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ScaledLevel`] naming the first level (the
    /// TLB last) that `factor` does not divide down to whole sets.
    ///
    /// # Examples
    ///
    /// ```
    /// use reuselens_cache::{ConfigError, MemoryHierarchy};
    ///
    /// assert_eq!(MemoryHierarchy::try_itanium2_scaled(16).unwrap().name, "Itanium2/16");
    /// assert!(matches!(
    ///     MemoryHierarchy::try_itanium2_scaled(3),
    ///     Err(ConfigError::ScaledLevel { ref level, .. }) if level == "L2"
    /// ));
    /// ```
    pub fn try_itanium2_scaled(factor: u64) -> Result<MemoryHierarchy, ConfigError> {
        let mut h = MemoryHierarchy::itanium2();
        if factor <= 1 {
            return Ok(h);
        }
        h.name = format!("Itanium2/{factor}");
        let in_level = |level: &CacheConfig, error| ConfigError::ScaledLevel {
            factor,
            level: level.name.clone(),
            error: Box::new(error),
        };
        for level in &mut h.levels {
            *level = CacheConfig::try_new(
                &level.name,
                level.capacity / factor,
                level.line_size,
                level.assoc,
            )
            .map_err(|e| in_level(level, e))?;
        }
        h.tlb = CacheConfig::try_tlb("TLB", h.tlb.blocks() / factor, h.tlb.line_size, Assoc::Full)
            .map_err(|e| in_level(&h.tlb, e))?;
        Ok(h)
    }

    /// The Itanium2 hierarchy scaled by `factor`, as
    /// [`MemoryHierarchy::try_itanium2_scaled`] builds it.
    ///
    /// # Panics
    ///
    /// Panics where [`MemoryHierarchy::try_itanium2_scaled`] would return
    /// an error.
    pub fn itanium2_scaled(factor: u64) -> MemoryHierarchy {
        MemoryHierarchy::try_itanium2_scaled(factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Block sizes an analysis pass must measure at to feed every level of
    /// this hierarchy: the distinct cache line sizes plus the page size.
    pub fn required_granularities(&self) -> Vec<u64> {
        let mut g: Vec<u64> = self.levels.iter().map(|l| l.line_size).collect();
        g.push(self.tlb.line_size);
        g.sort_unstable();
        g.dedup();
        g
    }

    /// Finds a level by name.
    pub fn level(&self, name: &str) -> Option<&CacheConfig> {
        self.levels.iter().find(|l| l.name == name)
    }

    /// Validates the hierarchy as a whole: at least one cache level, every
    /// level and the TLB geometrically valid, all names (TLB included)
    /// distinct, and one miss penalty per level. Called by
    /// [`try_report_from_analysis`](crate::try_report_from_analysis) before
    /// scoring, so a hand-built candidate fails with an error instead of a
    /// panic deep in the model.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.levels.is_empty() {
            return Err(ConfigError::NoLevels {
                hierarchy: self.name.clone(),
            });
        }
        let mut names = Vec::with_capacity(self.levels.len() + 1);
        for level in self.levels.iter().chain(std::iter::once(&self.tlb)) {
            level.validate()?;
            if names.contains(&level.name.as_str()) {
                return Err(ConfigError::DuplicateLevel {
                    hierarchy: self.name.clone(),
                    name: level.name.clone(),
                });
            }
            names.push(level.name.as_str());
        }
        if self.miss_penalty.len() != self.levels.len() {
            return Err(ConfigError::PenaltyMismatch {
                hierarchy: self.name.clone(),
                levels: self.levels.len(),
                penalties: self.miss_penalty.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for MemoryHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.name)?;
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "; {}]", self.tlb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itanium2_matches_paper_parameters() {
        let h = MemoryHierarchy::itanium2();
        let l2 = h.level("L2").unwrap();
        assert_eq!(l2.capacity, 256 * 1024);
        assert_eq!(l2.assoc, Assoc::Ways(8));
        assert_eq!(l2.blocks(), 2048);
        assert_eq!(l2.sets(), 256);
        assert_eq!(l2.ways(), 8);
        let l3 = h.level("L3").unwrap();
        assert_eq!(l3.capacity, 1536 * 1024);
        assert_eq!(l3.assoc, Assoc::Ways(6));
        assert_eq!(h.tlb.blocks(), 128);
        assert_eq!(h.tlb.ways(), 128);
        assert_eq!(h.tlb.sets(), 1);
        assert_eq!(h.required_granularities(), vec![128, 16 * 1024]);
    }

    #[test]
    fn scaled_hierarchy_divides_capacities() {
        let h = MemoryHierarchy::itanium2_scaled(8);
        assert_eq!(h.level("L2").unwrap().capacity, 32 * 1024);
        assert_eq!(h.level("L2").unwrap().line_size, 128);
        assert_eq!(h.tlb.blocks(), 16);
    }

    #[test]
    fn a_scale_that_breaks_a_level_names_it() {
        assert_eq!(
            MemoryHierarchy::try_itanium2_scaled(1),
            Ok(MemoryHierarchy::itanium2())
        );
        assert_eq!(
            MemoryHierarchy::try_itanium2_scaled(0),
            Ok(MemoryHierarchy::itanium2())
        );
        let e = MemoryHierarchy::try_itanium2_scaled(3).unwrap_err();
        assert_eq!(
            e.to_string(),
            "cannot divide level \"L2\" by 3: capacity must be a positive multiple \
             of the line size (capacity 87381, line size 128)"
        );
        // 256 keeps whole cache sets but leaves the TLB no entries.
        assert!(matches!(
            MemoryHierarchy::try_itanium2_scaled(256),
            Err(ConfigError::ScaledLevel { ref level, factor: 256, .. }) if level == "TLB"
        ));
    }

    #[test]
    #[should_panic(expected = "ways must divide blocks")]
    fn bad_ways_panics() {
        CacheConfig::new("x", 1024, 128, Assoc::Ways(3));
    }

    #[test]
    fn try_new_reports_each_violation() {
        assert!(matches!(
            CacheConfig::try_new("x", 1024, 48, Assoc::Full),
            Err(ConfigError::LineSizeNotPowerOfTwo { line_size: 48 })
        ));
        assert!(matches!(
            CacheConfig::try_new("x", 0, 64, Assoc::Full),
            Err(ConfigError::CapacityNotMultiple { capacity: 0, .. })
        ));
        assert!(matches!(
            CacheConfig::try_new("x", 100, 64, Assoc::Full),
            Err(ConfigError::CapacityNotMultiple { capacity: 100, .. })
        ));
        assert!(matches!(
            CacheConfig::try_new("x", 1024, 128, Assoc::Ways(0)),
            Err(ConfigError::WaysDontDivideBlocks { ways: 0, .. })
        ));
        assert!(matches!(
            CacheConfig::try_tlb("t", u64::MAX, 16 * 1024, Assoc::Full),
            Err(ConfigError::TlbOverflow { .. })
        ));
        assert!(CacheConfig::try_tlb("t", 128, 16 * 1024, Assoc::Full).is_ok());
    }

    #[test]
    fn hierarchy_validate_catches_structural_problems() {
        assert!(MemoryHierarchy::itanium2().validate().is_ok());

        let mut h = MemoryHierarchy::itanium2();
        h.levels.clear();
        assert!(matches!(h.validate(), Err(ConfigError::NoLevels { .. })));

        let mut h = MemoryHierarchy::itanium2();
        h.levels[1].name = "L2".to_string();
        assert!(matches!(
            h.validate(),
            Err(ConfigError::DuplicateLevel { ref name, .. }) if name == "L2"
        ));

        let mut h = MemoryHierarchy::itanium2();
        h.tlb.name = "L3".to_string();
        assert!(matches!(
            h.validate(),
            Err(ConfigError::DuplicateLevel { .. })
        ));

        let mut h = MemoryHierarchy::itanium2();
        h.miss_penalty.pop();
        assert!(matches!(
            h.validate(),
            Err(ConfigError::PenaltyMismatch {
                levels: 2,
                penalties: 1,
                ..
            })
        ));

        // A level mutated into invalidity after construction is caught too.
        let mut h = MemoryHierarchy::itanium2();
        h.levels[0].capacity = 100;
        assert!(matches!(
            h.validate(),
            Err(ConfigError::CapacityNotMultiple { .. })
        ));
    }

    #[test]
    fn display_is_informative() {
        let h = MemoryHierarchy::itanium2();
        let s = h.to_string();
        assert!(s.contains("Itanium2"));
        assert!(s.contains("L2: 256 KB"));
        assert!(s.contains("fully-assoc"));
    }
}

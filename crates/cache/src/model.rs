//! Cache-miss prediction from reuse-distance profiles.
//!
//! For a fully associative LRU cache, a reuse at distance `d` misses iff
//! `d >= blocks`. For set-associative caches we use the probabilistic model
//! of the authors' earlier work: the `d` intervening blocks fall into the
//! reused block's set like `Binomial(d, 1/sets)` trials, and the reuse
//! misses when at least `ways` of them land there.

use crate::config::{Assoc, CacheConfig};
use reuselens_core::{PatternKey, ReuseProfile};

/// Probability that a reuse with distance `distance` (distinct blocks)
/// misses in the given cache.
///
/// # Examples
///
/// ```
/// use reuselens_cache::{miss_probability, Assoc, CacheConfig};
///
/// let fa = CacheConfig::new("fa", 64 * 128, 128, Assoc::Full);
/// assert_eq!(miss_probability(&fa, 63), 0.0);
/// assert_eq!(miss_probability(&fa, 64), 1.0);
///
/// let sa = CacheConfig::new("sa", 64 * 128, 128, Assoc::Ways(4));
/// // Short reuses almost surely hit; far ones almost surely miss.
/// assert!(miss_probability(&sa, 4) < 0.01);
/// assert!(miss_probability(&sa, 4096) > 0.99);
/// ```
pub fn miss_probability(config: &CacheConfig, distance: u64) -> f64 {
    let blocks = config.blocks();
    match config.assoc {
        Assoc::Full => {
            if distance >= blocks {
                1.0
            } else {
                0.0
            }
        }
        Assoc::Ways(ways) => {
            let sets = config.sets();
            if sets == 1 {
                return if distance >= ways as u64 { 1.0 } else { 0.0 };
            }
            binomial_tail(distance, 1.0 / sets as f64, ways as u64)
        }
    }
}

/// `P[Binomial(n, p) >= k]`, computed with a numerically stable incremental
/// sum of the complementary CDF. Exact enough for `k` up to a few dozen
/// ways; when `(1-p)^n` underflows the mean `n·p` is astronomically larger
/// than any way count and the tail is 1.
fn binomial_tail(n: u64, p: f64, k: u64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if n < k {
        return 0.0;
    }
    let q = 1.0 - p;
    // term_0 = q^n via exp/ln for large n
    let log_term0 = n as f64 * q.ln();
    if log_term0 < -700.0 {
        return 1.0; // q^n underflows => mean np >> k
    }
    let mut term = log_term0.exp();
    let mut cdf = term;
    let ratio = p / q;
    for j in 0..(k - 1) {
        term *= (n - j) as f64 / (j + 1) as f64 * ratio;
        cdf += term;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Computes the classic Mattson miss-count curve from a reuse profile:
/// for each fully associative LRU capacity (in blocks), the number of
/// misses the run would take. A single profile yields the curve for
/// *every* cache size at once — the core economy of stack-distance
/// analysis.
///
/// The returned counts include compulsory (cold) misses and are
/// non-increasing in capacity.
///
/// # Examples
///
/// ```
/// use reuselens_cache::miss_curve;
/// use reuselens_core::analyze_program;
/// use reuselens_ir::ProgramBuilder;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[1024]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 3, |r, _| {
///         r.for_("i", 0, 1023, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let analysis = analyze_program(&prog, &[64], vec![])?;
/// let curve = miss_curve(analysis.profile_at(64).unwrap(), &[16, 128, 1024]);
/// // Small cache: every resweep misses; big cache: only cold misses.
/// assert!(curve[0].1 > curve[2].1);
/// assert_eq!(curve[2].1, 128.0); // 1024*8/64 cold lines
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
pub fn miss_curve(profile: &ReuseProfile, capacities_blocks: &[u64]) -> Vec<(u64, f64)> {
    capacities_blocks
        .iter()
        .map(|&cap| {
            let mut misses = profile.total_cold() as f64;
            for p in &profile.patterns {
                misses += p.histogram.count_ge(cap);
            }
            (cap, misses)
        })
        .collect()
}

/// Predicted misses at one cache level, per reuse pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelPrediction {
    /// The level's name (`"L2"`, `"TLB"`, ...).
    pub level: String,
    /// Compulsory misses (first touches) — always miss.
    pub cold: u64,
    /// Expected misses per reuse pattern (cold not included).
    pub per_pattern: Vec<(PatternKey, f64)>,
    /// Total expected misses including cold.
    pub total: f64,
    /// Total accesses the profile observed.
    pub accesses: u64,
}

impl LevelPrediction {
    /// Miss rate = total predicted misses / accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total / self.accesses as f64
        }
    }
}

/// Predicts misses at one cache level from a reuse profile measured at the
/// level's line size.
///
/// # Panics
///
/// Panics if the profile's block size differs from the level's line size —
/// distances at the wrong granularity are meaningless.
pub fn predict_level(profile: &ReuseProfile, config: &CacheConfig) -> LevelPrediction {
    assert_eq!(
        profile.block_size, config.line_size,
        "profile granularity {} does not match {} line size {}",
        profile.block_size, config.name, config.line_size
    );
    let mut per_pattern = Vec::with_capacity(profile.patterns.len());
    let mut total = profile.total_cold() as f64;
    for p in &profile.patterns {
        let misses = match config.assoc {
            Assoc::Full => p.histogram.count_ge(config.blocks()),
            _ => p.histogram.expected_misses(|d| miss_probability(config, d)),
        };
        total += misses;
        per_pattern.push((p.key, misses));
    }
    LevelPrediction {
        level: config.name.clone(),
        cold: profile.total_cold(),
        per_pattern,
        total,
        accesses: profile.total_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_core::{Histogram, ReusePattern};
    use reuselens_ir::{RefId, ScopeId};
    use reuselens_prng::SplitMix64;

    #[test]
    fn binomial_tail_edge_cases() {
        assert_eq!(binomial_tail(10, 0.5, 0), 1.0);
        assert_eq!(binomial_tail(3, 0.5, 4), 0.0);
        // P[Bin(1, 0.25) >= 1] = 0.25
        assert!((binomial_tail(1, 0.25, 1) - 0.25).abs() < 1e-12);
        // P[Bin(2, 0.5) >= 2] = 0.25
        assert!((binomial_tail(2, 0.5, 2) - 0.25).abs() < 1e-12);
        // Huge n: tail is 1
        assert_eq!(binomial_tail(10_000_000, 1.0 / 256.0, 8), 1.0);
    }

    /// Seeded randomized check: the miss curve is monotone nonincreasing
    /// in capacity, with exact endpoints.
    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut rng = SplitMix64::seed_from_u64(0xc0_4e5);
        for _case in 0..128 {
            let ds = rng.vec_u64(0..200, 0..100_000);
            let cold = rng.gen_range(0..50);
            let h: Histogram = ds.iter().copied().collect();
            let profile = ReuseProfile {
                block_size: 64,
                patterns: vec![ReusePattern {
                    key: PatternKey {
                        sink: RefId(0),
                        source_scope: ScopeId(0),
                        carrier: ScopeId(0),
                    },
                    histogram: h,
                }],
                cold: vec![cold],
                total_accesses: ds.len() as u64 + cold,
                distinct_blocks: cold,
                sampling: None,
            };
            let caps: Vec<u64> = vec![1, 4, 16, 64, 256, 1024, 1 << 20];
            let curve = miss_curve(&profile, &caps);
            for w in curve.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-9);
            }
            // An effectively infinite cache leaves only cold misses.
            assert!((curve.last().unwrap().1 - cold as f64).abs() < 1e-9);
            // A 1-block cache misses every non-zero-distance reuse.
            let zero_dist = ds.iter().filter(|&&d| d == 0).count() as f64;
            assert!((curve[0].1 - (cold as f64 + ds.len() as f64 - zero_dist)).abs() < 1e-9);
        }
    }
}

//! Differential suite: the histogram-based miss model versus the true
//! LRU simulator, over seeded random traces.
//!
//! Fully associative caches admit an exact statement — a reuse at stack
//! distance `d` misses iff `d >= blocks` — so for capacities below the
//! histogram's unit-bin range (256 blocks) the model's prediction must
//! equal [`CacheSim`]'s miss count *exactly*, and both must equal the
//! brute-force [`oracle::fully_associative_misses`]. Set-associative
//! caches use a binomial placement model that is only statistically
//! right, so those predictions are held to a stated tolerance band
//! rather than equality.
//!
//! Every trace derives from a printed seed; any failure message carries
//! enough to reproduce it exactly.

use reuselens_cache::{predict_level, Assoc, CacheConfig, CacheSim};
use reuselens_core::{oracle, ReuseAnalyzer, ReuseProfile};
use reuselens_ir::{Program, ProgramBuilder, RefId};
use reuselens_prng::SplitMix64;
use reuselens_trace::TraceSink;

const LINE: u64 = 64;
const BASE_SEED: u64 = 0xcac4_e5ee_d000;

/// One-reference program: the suites drive [`TraceSink`] directly.
fn one_ref_program() -> Program {
    let mut p = ProgramBuilder::new("model_vs_sim");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.for_("i", 0, 0, |r, i| {
            r.load(a, vec![i.into()]);
        });
    });
    p.finish()
}

/// A seeded trace mixing strided sweeps with random gathers, sized so
/// small capacities see real capacity misses and large ones mostly hit.
fn gen_trace(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(400..1600) as usize;
    let footprint = rng.gen_range(16..192) * LINE;
    let mut addrs = Vec::with_capacity(len);
    let mut cursor = 0u64;
    for _ in 0..len {
        if rng.gen_f64() < 0.3 {
            addrs.push(rng.gen_range(0..footprint));
        } else {
            cursor = (cursor + 8) % footprint;
            addrs.push(cursor);
        }
    }
    addrs
}

/// Measures a line-granularity reuse profile over the trace.
fn measure(program: &Program, addrs: &[u64]) -> ReuseProfile {
    let mut analyzer = ReuseAnalyzer::new(program, LINE);
    for &addr in addrs {
        analyzer.access(RefId(0), addr);
    }
    analyzer.finish()
}

/// Simulates the trace against a cache configuration.
fn simulate(config: &CacheConfig, addrs: &[u64]) -> u64 {
    let mut sim = CacheSim::new(config, 1);
    for &addr in addrs {
        sim.access(RefId(0), addr);
    }
    sim.misses()
}

/// Fully associative: model == simulator == brute-force oracle, exactly.
/// Capacities stay below the histogram's 256-block unit-bin range so
/// `count_ge` is exact, not interpolated.
#[test]
fn fully_associative_prediction_is_exact() {
    let program = one_ref_program();
    let caps: [u64; 7] = [1, 2, 3, 7, 16, 64, 255];
    for case in 0..24u64 {
        let seed = BASE_SEED ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let addrs = gen_trace(seed);
        let profile = measure(&program, &addrs);
        for cap in caps {
            let cfg = CacheConfig::new("FA", cap * LINE, LINE, Assoc::Full);
            let predicted = predict_level(&profile, &cfg).total;
            let simulated = simulate(&cfg, &addrs);
            let brute = oracle::fully_associative_misses(&addrs, LINE, cap as usize);
            assert_eq!(
                simulated, brute,
                "case {case} (seed {seed:#x}, cap {cap}): simulator disagrees \
                 with the brute-force oracle"
            );
            assert!(
                (predicted - simulated as f64).abs() < 1e-6,
                "case {case} (seed {seed:#x}, cap {cap} blocks): model predicts \
                 {predicted}, simulator measured {simulated}"
            );
        }
    }
}

/// Set-associative: the binomial placement model must land within a
/// stated band of the simulator. The band is loose — the model is
/// probabilistic and the simulator sees one concrete placement — but it
/// catches sign errors, off-by-one way counts, and swapped set math.
#[test]
fn set_associative_prediction_within_band() {
    let program = one_ref_program();
    let configs = [
        ("8KB-2way", 8 * 1024, Assoc::Ways(2)),
        ("8KB-4way", 8 * 1024, Assoc::Ways(4)),
        ("32KB-8way", 32 * 1024, Assoc::Ways(8)),
    ];
    for case in 0..24u64 {
        let seed = BASE_SEED ^ 0xa55a ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let addrs = gen_trace(seed);
        let profile = measure(&program, &addrs);
        for (name, capacity, assoc) in configs {
            let cfg = CacheConfig::new(name, capacity, LINE, assoc);
            let predicted = predict_level(&profile, &cfg).total;
            let simulated = simulate(&cfg, &addrs) as f64;
            let lo = 0.5 * simulated - 16.0;
            let hi = 2.0 * simulated + 16.0;
            assert!(
                (lo..=hi).contains(&predicted),
                "case {case} (seed {seed:#x}, {name}): predicted {predicted:.1} \
                 outside [{lo:.1}, {hi:.1}] around simulated {simulated}"
            );
        }
    }
}
